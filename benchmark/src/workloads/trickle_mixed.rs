//! `trickle_mixed`: small WOS inserts with a few deletes and updates
//! beside reads, the tuple mover running on a fixed cadence. The storage
//! layer used the other way: locks, WOS + redo append, commit marker,
//! moveout/mergeout — and reads that merge WOS, ROS and delete vectors.

use super::{base_ddl, point_rows, point_text, shuffled_pairs};
use crate::gen::{build_cube, dim_rows, region_of, Cube, FactSpec, Rng, METRICS, T0, VALUE_MAX};
use crate::ops::{
    deal, int, Call, Check, Effect, EngineSpec, OpList, Plan, Slot, Workload, VARIANTS,
};

pub const WORKLOAD: Workload = Workload {
    name: "trickle_mixed",
    why: "txn locks, WOS and redo append, commit markers, moveout/mergeout beside reads that merge WOS, ROS and delete vectors; every commit makes the next planned read rebuild the optimizer catalog",
    plan,
};

const FACTS: FactSpec = FactSpec {
    rows: 64_000,
    chunks: 4,
    meters: 500,
};
/// Insert 70 %, delete 5 %, update 5 %, hot read 10 %, fresh read 10 %:
/// rank 50 falls inside the insert class, rank 95 mid-way through the
/// fresh reads, each of which plans right after a commit.
const COUNTS: [usize; 5] = [360, 10, 10, 48, 52];
const CLASSES: [&str; 5] = ["insert", "delete", "update", "hot_read", "fresh_read"];
const ROWS_PER_INSERT: usize = 5;
const HOT_READS: usize = 8;
/// Inserts that open every round, so the first delete has a target.
const LEADING_INSERTS: usize = 4;

/// Trickled rows carry meters from here up — one meter per insert slot —
/// so no statement over the bulk-loaded meters ever sees them.
pub const TRICKLE_METER_BASE: i64 = 1_000_000;

fn insert_slot(rng: &mut Rng, rank: usize) -> Slot {
    let meter = TRICKLE_METER_BASE + rank as i64;
    let first_ts = T0 + FACTS.rows as i64 + (rank * ROWS_PER_INSERT) as i64;
    let mut sum = 0.0;
    let tuples: Vec<String> = (0..ROWS_PER_INSERT)
        .map(|i| {
            let value = rng.below((VALUE_MAX * 4.0) as u64) as f64 * 0.25;
            sum += value;
            format!(
                "({}, {meter}, {}, '{}', {value:.2})",
                rng.below(METRICS as u64),
                first_ts + i as i64,
                region_of(meter),
            )
        })
        .collect();
    Slot {
        class: 0,
        calls: vec![Call::Sql(format!(
            "INSERT INTO m VALUES {}",
            tuples.join(", ")
        ))],
        effect: Effect::Insert {
            meter,
            count: ROWS_PER_INSERT as u64,
            sum,
        },
    }
}

fn plan(seed: u64) -> Plan {
    let cube = build_cube(seed, FACTS);
    let mut rng = Rng::new(seed, 2);
    let hot: Vec<(i64, i64)> = shuffled_pairs(&mut rng, FACTS.meters)[..HOT_READS].to_vec();
    let mut counts = COUNTS;
    counts[0] -= LEADING_INSERTS;
    counts[4] = 0;
    let mut classes = vec![0u8; LEADING_INSERTS];
    classes.extend(deal(&mut rng, &counts));
    // Every fresh read directly follows an insert, so each one plans right
    // after a commit and rebuilds the optimizer catalog: how many do is
    // fixed by the class count, not by the seed's shuffle.
    let mut after: Vec<usize> = (0..classes.len()).filter(|&i| classes[i] == 0).collect();
    rng.shuffle(&mut after);
    after.truncate(COUNTS[4]);
    after.sort_unstable_by(|a, b| b.cmp(a));
    for insert in after {
        classes.insert(insert + 1, 4);
    }
    // Meters inserted so far this round that no delete has taken yet.
    let mut live: Vec<i64> = Vec::new();
    let mut inserts = 0;
    let mut fresh_rank = 0;
    let slots = classes
        .into_iter()
        .map(|class| match class {
            0 => {
                let slot = insert_slot(&mut rng, inserts);
                live.push(TRICKLE_METER_BASE + inserts as i64);
                inserts += 1;
                slot
            }
            1 => {
                let meter = live.swap_remove(rng.below(live.len() as u64) as usize);
                Slot {
                    class,
                    calls: vec![Call::Sql(format!("DELETE FROM m WHERE meter = {meter}"))],
                    effect: Effect::Delete { meter },
                }
            }
            2 => {
                let meter = live[rng.below(live.len() as u64) as usize];
                let value = rng.below((VALUE_MAX * 4.0) as u64) as f64 * 0.25;
                Slot {
                    class,
                    calls: vec![Call::Sql(format!(
                        "UPDATE m SET value = {value:.2} WHERE meter = {meter}"
                    ))],
                    effect: Effect::Update { meter, value },
                }
            }
            3 => {
                let (metric, meter) = hot[rng.below(HOT_READS as u64) as usize];
                Slot::repeated(class, Call::Sql(point_text(metric, meter)))
            }
            _ => {
                let meter = live[rng.below(live.len() as u64) as usize];
                let rank = fresh_rank;
                fresh_rank += 1;
                Slot {
                    class,
                    // The lower bound is below every timestamp, so the
                    // statement reads all of `meter`; it is there to make
                    // the text new in every round.
                    calls: (0..VARIANTS)
                        .map(|v| {
                            let unique = (v * COUNTS[4] + rank) as i64;
                            Call::Sql(format!(
                                "SELECT COUNT(*), SUM(value) FROM m WHERE meter = {meter} \
                                 AND ts >= {}",
                                T0 - 1 - unique
                            ))
                        })
                        .collect(),
                    effect: Effect::ReadMeter { meter },
                }
            }
        })
        .collect();
    Plan {
        engine: EngineSpec {
            nodes: 1,
            k_safety: 0,
            threads: crate::host::nproc().min(2),
            timed_on_disk: false,
        },
        ddl: {
            let mut ddl = base_ddl(false);
            ddl.push(
                "CREATE PROJECTION m_by_ts AS SELECT ts, meter, value FROM m ORDER BY ts".into(),
            );
            ddl
        },
        facts: FACTS,
        side_tables: vec![("d", dim_rows(FACTS.meters))],
        fact_projection: "m_super",
        ops: OpList {
            classes: CLASSES.to_vec(),
            prepared: vec![],
            slots,
            tick_every_writes: 50,
        },
        checks: checks(&cube, hot[0]),
        cube,
    }
}

/// The write classes are checked statement by statement against the
/// shadow model; the read classes get a check statement each.
fn checks(cube: &Cube, hot: (i64, i64)) -> Vec<Check> {
    vec![
        Check {
            class: 3,
            call: Call::Sql(point_text(hot.0, hot.1)),
            expect: point_rows(cube, hot.0, hot.1),
        },
        Check {
            class: 4,
            call: Call::Sql(format!(
                "SELECT COUNT(*), SUM(value) FROM m WHERE meter = 7 AND ts >= {T0}"
            )),
            expect: {
                let agg = cube.group_by(|_, meter| (meter == 7).then_some(()), false)[&()];
                vec![vec![int(agg.count as i64), crate::ops::float(agg.sum)]]
            },
        },
    ]
}
