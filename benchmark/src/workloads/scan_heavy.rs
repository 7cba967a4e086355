//! `scan_heavy`: five equally weighted analytic shapes over one
//! super-projection. Column reads, decode and operators do nearly all the
//! work; parse, plan and serve are noise.

use super::{
    band, base_ddl, region_groupby_check, region_groupby_text, tier_join_check, tier_join_text,
    topk_text,
};
use crate::gen::{build_cube, dim_rows, Cube, FactSpec, Rng, CHECK_VALUE, METRICS, T0};
use crate::ops::{deal, float, int, Call, Check, EngineSpec, OpList, Plan, Slot, Workload};

pub const WORKLOAD: Workload = Workload {
    name: "scan_heavy",
    why: "storage column reads, encoding decode and exec operators do ~all the work; where intra-node parallelism, a column-file cache or compressed-domain operators must show",
    plan,
};

const FACTS: FactSpec = FactSpec {
    rows: 180_000,
    chunks: 8,
    meters: 500,
};
/// Slots per class: five equal classes, so rank 50 falls mid-way through
/// the third-slowest class and rank 95 three quarters into the slowest.
const PER_CLASS: usize = 40;
const CLASSES: [&str; 5] = [
    "topk_metric",
    "filtered_count",
    "dict_groupby",
    "join_groupby",
    "filtered_groupby",
];

fn filtered_count_text(below: f64) -> String {
    format!("SELECT COUNT(*) FROM m WHERE value < {below:.2}")
}

fn filtered_groupby_text(below: f64, from_ts: i64) -> String {
    format!(
        "SELECT metric, COUNT(*), AVG(value) FROM m WHERE value < {below:.2} AND ts >= {from_ts} \
         GROUP BY metric ORDER BY metric"
    )
}

fn plan(seed: u64) -> Plan {
    let cube = build_cube(seed, FACTS);
    let mut rng = Rng::new(seed, 2);
    let slots = deal(&mut rng, &[PER_CLASS; 5])
        .into_iter()
        .map(|class| {
            let sql = match class {
                0 => topk_text(rng.below(METRICS as u64) as i64),
                1 => filtered_count_text(band(&mut rng, 475.0, 50.0)),
                2 => region_groupby_text(band(&mut rng, 975.0, 25.0)),
                3 => tier_join_text(band(&mut rng, 975.0, 25.0)),
                _ => filtered_groupby_text(
                    band(&mut rng, 700.0, 50.0),
                    T0 + rng.below(FACTS.rows as u64 / 50) as i64,
                ),
            };
            Slot::repeated(class, Call::Sql(sql))
        })
        .collect();
    Plan {
        engine: EngineSpec {
            nodes: 1,
            k_safety: 0,
            threads: crate::host::nproc().min(2),
            timed_on_disk: true,
        },
        ddl: base_ddl(false),
        facts: FACTS,
        side_tables: vec![("d", dim_rows(FACTS.meters))],
        fact_projection: "m_super",
        ops: OpList {
            classes: CLASSES.to_vec(),
            prepared: vec![],
            slots,
            tick_every_writes: 0,
        },
        checks: checks(&cube),
        cube,
    }
}

fn checks(cube: &Cube) -> Vec<Check> {
    let mut top: Vec<(i64, f64)> = (0..cube.spec.meters)
        .filter(|&meter| cube.all(3, meter).count > 0)
        .map(|meter| (meter, cube.all(3, meter).sum))
        .collect();
    top.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    top.truncate(10);
    let low_total = cube.group_by(|_, _| Some(()), true)[&()];
    vec![
        Check {
            class: 0,
            call: Call::Sql(topk_text(3)),
            expect: top
                .into_iter()
                .map(|(meter, sum)| vec![int(meter), float(sum)])
                .collect(),
        },
        Check {
            class: 1,
            call: Call::Sql(filtered_count_text(CHECK_VALUE)),
            expect: vec![vec![int(low_total.count as i64)]],
        },
        region_groupby_check(2, cube),
        tier_join_check(3, cube),
        Check {
            class: 4,
            call: Call::Sql(filtered_groupby_text(CHECK_VALUE, T0)),
            expect: cube
                .group_by(|metric, _| Some(metric), true)
                .into_iter()
                .map(|(metric, agg)| {
                    vec![
                        int(metric),
                        int(agg.count as i64),
                        float(agg.sum / agg.count as f64),
                    ]
                })
                .collect(),
        },
    ]
}
