//! `dash_short`: short dashboard statements, mostly prepared and hot.
//! Normalize/compile, planning and projection choice, the serving layer's
//! plan cache and per-container pruning dominate; operators do little —
//! the mirror image of `scan_heavy`.

use super::{base_ddl, last_ts, meter0_head_rows, point_rows, shuffled_pairs, POINT_SQL};
use crate::gen::{build_cube, dim_rows, Cube, FactSpec, Rng, CHECK_VALUE, T0};
use crate::ops::{
    deal, float, int, Call, Check, EngineSpec, OpList, Plan, Slot, Workload, VARIANTS,
};

pub const WORKLOAD: Workload = Workload {
    name: "dash_short",
    why: "sql normalize/compile, optimizer planning and projection choice, the serve plan cache (hot set plus an unbounded cold stream) and container pruning dominate; operators do little",
    plan,
};

/// Small on purpose: every statement reads whole column files, so on a
/// large table execution would drown the layers this workload is about.
/// (Below ~100k rows a statement costs the same ~0.2 ms whatever the
/// size, so a smaller table buys nothing.)
const FACTS: FactSpec = FactSpec {
    rows: 100_000,
    chunks: 4,
    meters: 1000,
};
/// Hot point 60 %, hot range 15 %, cold point 15 %, ad-hoc 10 %: rank 50
/// falls inside the hot point class (ranks 15-75 by latency), rank 95
/// mid-way through the ad-hoc class, the slowest that misses the cache.
const COUNTS: [usize; 4] = [4800, 1200, 1200, 800];
const CLASSES: [&str; 4] = ["hot_point", "hot_range", "cold_point", "adhoc"];
/// Bindings per hot class. 2 × 64 < `plan_cache_capacity` (256) while the
/// cold stream never repeats, so the LRU keeps evicting cold plans.
const HOT: usize = 64;

const RANGE_SQL: &str =
    "SELECT ts, value FROM m WHERE meter = ? AND ts BETWEEN ? AND ? ORDER BY ts LIMIT 50";

fn adhoc_text(meter: i64, below: f64) -> String {
    format!(
        "SELECT metric, COUNT(*), SUM(value) FROM m WHERE meter = {meter} AND value < {below:.2} \
         GROUP BY metric ORDER BY metric"
    )
}

fn point_call((metric, meter): (i64, i64)) -> Call {
    Call::Prepared {
        name: "point",
        params: vec![int(metric), int(meter)],
    }
}

fn plan(seed: u64) -> Plan {
    let cube = build_cube(seed, FACTS);
    let mut rng = Rng::new(seed, 2);
    let pairs = shuffled_pairs(&mut rng, FACTS.meters);
    let (hot_points, cold_points) = pairs.split_at(HOT);
    // A hot range reads a fifth of one meter's history.
    let window = FACTS.rows as i64 / 5;
    let hot_ranges: Vec<Call> = (0..HOT)
        .map(|_| {
            let lo = T0 + rng.below((FACTS.rows as i64 - window) as u64) as i64;
            Call::Prepared {
                name: "range",
                params: vec![
                    int(rng.below(FACTS.meters as u64) as i64),
                    int(lo),
                    int(lo + window),
                ],
            }
        })
        .collect();
    let mut cold_rank = 0;
    let mut adhoc_rank = 0;
    let slots = deal(&mut rng, &COUNTS)
        .into_iter()
        .map(|class| match class {
            0 => Slot::repeated(0, point_call(hot_points[rng.below(HOT as u64) as usize])),
            1 => Slot::repeated(1, hot_ranges[rng.below(HOT as u64) as usize].clone()),
            2 => {
                let rank = cold_rank;
                cold_rank += 1;
                Slot::fresh(
                    class,
                    (0..VARIANTS)
                        .map(|v| point_call(cold_points[v * COUNTS[2] + rank]))
                        .collect(),
                )
            }
            _ => {
                let rank = adhoc_rank;
                adhoc_rank += 1;
                let meter = rng.below(FACTS.meters as u64) as i64;
                Slot::fresh(
                    class,
                    (0..VARIANTS)
                        .map(|v| {
                            let unique = (v * COUNTS[3] + rank) as f64;
                            Call::Sql(adhoc_text(meter, 600.0 + 0.01 * unique))
                        })
                        .collect(),
                )
            }
        })
        .collect();
    Plan {
        engine: EngineSpec {
            nodes: 1,
            k_safety: 0,
            threads: crate::host::nproc().min(2),
            timed_on_disk: true,
        },
        ddl: {
            let mut ddl = base_ddl(false);
            ddl.push(
                "CREATE PROJECTION m_by_meter AS SELECT meter, ts, metric, value FROM m \
                 ORDER BY meter, ts"
                    .into(),
            );
            ddl
        },
        facts: FACTS,
        side_tables: vec![("d", dim_rows(FACTS.meters))],
        fact_projection: "m_super",
        ops: OpList {
            classes: CLASSES.to_vec(),
            prepared: vec![
                ("point", POINT_SQL.to_string()),
                ("range", RANGE_SQL.to_string()),
            ],
            slots,
            tick_every_writes: 0,
        },
        checks: checks(&cube, hot_points[0], cold_points[cold_points.len() - 1]),
        cube,
    }
}

fn checks(cube: &Cube, hot: (i64, i64), cold: (i64, i64)) -> Vec<Check> {
    vec![
        Check {
            class: 0,
            call: point_call(hot),
            expect: point_rows(cube, hot.0, hot.1),
        },
        Check {
            class: 1,
            call: Call::Prepared {
                name: "range",
                params: vec![int(0), int(T0), int(last_ts(cube.spec.rows))],
            },
            expect: meter0_head_rows(cube),
        },
        Check {
            class: 2,
            call: point_call(cold),
            expect: point_rows(cube, cold.0, cold.1),
        },
        Check {
            class: 3,
            call: Call::Sql(adhoc_text(7, CHECK_VALUE)),
            expect: cube
                .group_by(|metric, meter| (meter == 7).then_some(metric), true)
                .into_iter()
                .map(|(metric, agg)| vec![int(metric), int(agg.count as i64), float(agg.sum)])
                .collect(),
        },
    ]
}
