//! `cluster_join`: five distributed plan shapes on a 2-node K=1 cluster.
//! Cluster planning and its retry loop, the exchange and the initiator
//! merge do work no single-node workload touches.

use super::{
    band, base_ddl, meter0_head_rows, region_groupby_check, region_groupby_text, tier_join_check,
    tier_join_text,
};
use crate::gen::{
    build_cube, dim_rows, event_kind, event_rows, Agg, Cube, FactSpec, Rng, CHECK_VALUE,
    EVENT_KINDS, METRICS,
};
use crate::ops::{deal, float, int, Call, Check, EngineSpec, OpList, Plan, Slot, Workload};

pub const WORKLOAD: Workload = Workload {
    name: "cluster_join",
    why: "cluster planning and retry loop, exec exchange (resegment, broadcast) and the initiator merge run only here; a fix to fixed per-query distribution cost shows here and must leave scan_heavy flat",
    plan,
};

const FACTS: FactSpec = FactSpec {
    rows: 160_000,
    chunks: 4,
    meters: 500,
};
const EVENTS_PER_METER: i64 = 2;
const PER_CLASS: usize = 80;
const DISTINCT: usize = 40;
const CLASSES: [&str; 5] = [
    "dist_groupby",
    "colocated_join",
    "resegment_join",
    "topk_pushdown",
    "broadcast_left_join",
];

/// `e` is segmented on `event_id`, not on the join column: an inner join
/// to `m` re-segments it through the exchange, a left join broadcasts it.
fn event_join_text(join: &str, metric: i64, below: f64) -> String {
    format!(
        "SELECT e.kind, COUNT(*), SUM(m.value) FROM m {join} e ON m.meter = e.meter \
         WHERE m.metric = {metric} AND m.value < {below:.2} GROUP BY e.kind ORDER BY e.kind"
    )
}

fn topk_text(metric: i64, below: f64) -> String {
    format!(
        "SELECT meter, ts, value FROM m WHERE metric = {metric} AND value < {below:.2} \
         ORDER BY ts LIMIT 20"
    )
}

fn plan(seed: u64) -> Plan {
    let cube = build_cube(seed, FACTS);
    let mut rng = Rng::new(seed, 2);
    // Each class sends DISTINCT texts twice a round: 200 texts in all,
    // which the plan cache (256) holds, so parse and plan stay out of it.
    let texts: Vec<Vec<String>> = (0..CLASSES.len())
        .map(|class| {
            (0..DISTINCT)
                .map(|_| {
                    let metric = rng.below(METRICS as u64) as i64;
                    let below = band(&mut rng, 975.0, 25.0);
                    match class {
                        0 => region_groupby_text(below),
                        1 => tier_join_text(below),
                        2 => event_join_text("JOIN", metric, below),
                        3 => topk_text(metric, below),
                        _ => event_join_text("LEFT JOIN", metric, below),
                    }
                })
                .collect()
        })
        .collect();
    let mut sent = [0usize; 5];
    let slots = deal(&mut rng, &[PER_CLASS; 5])
        .into_iter()
        .map(|class| {
            let rank = sent[class as usize];
            sent[class as usize] += 1;
            Slot::repeated(
                class,
                Call::Sql(texts[class as usize][rank % DISTINCT].clone()),
            )
        })
        .collect();
    let mut ddl = base_ddl(true);
    ddl.push("CREATE TABLE e (event_id INT, meter INT, kind INT, ts TIMESTAMP)".into());
    ddl.push(
        "CREATE PROJECTION e_super AS SELECT event_id, meter, kind, ts FROM e ORDER BY event_id \
         SEGMENTED BY HASH(event_id) ALL NODES"
            .into(),
    );
    Plan {
        // One executor lane per node: two node lanes fill this box.
        engine: EngineSpec {
            nodes: 2,
            k_safety: 1,
            threads: 1,
            timed_on_disk: true,
        },
        ddl,
        facts: FACTS,
        side_tables: vec![
            ("d", dim_rows(FACTS.meters)),
            ("e", event_rows(FACTS.meters, EVENTS_PER_METER)),
        ],
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

fn event_join_check(class: u8, join: &str, cube: &Cube) -> Check {
    let mut kinds = vec![Agg::default(); EVENT_KINDS as usize];
    for event_id in 0..cube.spec.meters * EVENTS_PER_METER {
        kinds[event_kind(event_id) as usize].merge(cube.low(3, event_id % cube.spec.meters));
    }
    Check {
        class,
        call: Call::Sql(event_join_text(join, 3, CHECK_VALUE)),
        expect: (0..EVENT_KINDS)
            .map(|kind| (kind, kinds[kind as usize]))
            .filter(|(_, agg)| agg.count > 0)
            .map(|(kind, agg)| vec![int(kind), int(agg.count as i64), float(agg.sum)])
            .collect(),
    }
}

fn checks(cube: &Cube) -> Vec<Check> {
    vec![
        region_groupby_check(0, cube),
        tier_join_check(1, cube),
        event_join_check(2, "JOIN", cube),
        Check {
            class: 3,
            call: Call::Sql("SELECT ts, value FROM m WHERE meter = 0 ORDER BY ts LIMIT 50".into()),
            expect: meter0_head_rows(cube),
        },
        event_join_check(4, "LEFT JOIN", cube),
    ]
}
