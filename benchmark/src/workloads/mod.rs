//! The four workloads. Each stresses different crates; see the `why` of
//! each and `benchmark/README.md` for the class weights.

use crate::gen::{Cube, CHECK_VALUE, METRICS, T0};
use crate::ops::{float, int, text, Call, Check, Workload};
use vdb_types::Row;

mod cluster_join;
mod dash_short;
mod scan_heavy;
mod trickle_mixed;

pub use trickle_mixed::TRICKLE_METER_BASE;

pub const ALL: [Workload; 4] = [
    scan_heavy::WORKLOAD,
    dash_short::WORKLOAD,
    trickle_mixed::WORKLOAD,
    cluster_join::WORKLOAD,
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// `m`, its super-projection sorted `(metric, meter, ts)`, and `d`.
fn base_ddl(segmented: bool) -> Vec<String> {
    let m_seg = if segmented {
        " SEGMENTED BY HASH(meter) ALL NODES"
    } else {
        ""
    };
    vec![
        "CREATE TABLE m (metric INT, meter INT, ts TIMESTAMP, region VARCHAR, value FLOAT)".into(),
        format!(
            "CREATE PROJECTION m_super AS SELECT metric, meter, ts, region, value FROM m \
             ORDER BY metric, meter, ts{m_seg}"
        ),
        "CREATE TABLE d (meter INT, city VARCHAR, tier INT)".into(),
        "CREATE PROJECTION d_super AS SELECT meter, city, tier FROM d ORDER BY meter \
         UNSEGMENTED ALL NODES"
            .into(),
    ]
}

const POINT_SQL: &str = "SELECT COUNT(*), SUM(value) FROM m WHERE metric = ? AND meter = ?";

fn point_text(metric: i64, meter: i64) -> String {
    format!("SELECT COUNT(*), SUM(value) FROM m WHERE metric = {metric} AND meter = {meter}")
}

/// The answer of the point aggregate on `(metric, meter)`.
fn point_rows(cube: &Cube, metric: i64, meter: i64) -> Vec<Row> {
    let agg = cube.all(metric, meter);
    let sum = if agg.count == 0 {
        vdb_types::Value::Null
    } else {
        float(agg.sum)
    };
    vec![vec![int(agg.count as i64), sum]]
}

fn topk_text(metric: i64) -> String {
    format!(
        "SELECT meter, SUM(value) AS s FROM m WHERE metric = {metric} GROUP BY meter \
         ORDER BY s DESC, meter LIMIT 10"
    )
}

fn region_groupby_text(below: f64) -> String {
    format!(
        "SELECT region, COUNT(*), SUM(value) FROM m WHERE value < {below:.2} \
         GROUP BY region ORDER BY region"
    )
}

fn tier_join_text(below: f64) -> String {
    format!(
        "SELECT d.tier, COUNT(*), SUM(m.value) FROM m JOIN d ON m.meter = d.meter \
         WHERE m.value < {below:.2} GROUP BY d.tier ORDER BY d.tier"
    )
}

fn region_groupby_check(class: u8, cube: &Cube) -> Check {
    Check {
        class,
        call: Call::Sql(region_groupby_text(CHECK_VALUE)),
        expect: cube
            .group_by(|_, meter| Some(crate::gen::region_of(meter)), true)
            .into_iter()
            .map(|(region, agg)| vec![text(region), int(agg.count as i64), float(agg.sum)])
            .collect(),
    }
}

fn tier_join_check(class: u8, cube: &Cube) -> Check {
    Check {
        class,
        call: Call::Sql(tier_join_text(CHECK_VALUE)),
        expect: cube
            .group_by(|_, meter| Some(crate::gen::tier_of(meter)), true)
            .into_iter()
            .map(|(tier, agg)| vec![int(tier), int(agg.count as i64), float(agg.sum)])
            .collect(),
    }
}

/// `ORDER BY ts LIMIT 50` over meter 0: the rows the generator kept.
fn meter0_head_rows(cube: &Cube) -> Vec<Row> {
    cube.meter0_head
        .iter()
        .map(|&(ts, value)| vec![vdb_types::Value::Timestamp(ts), float(value)])
        .collect()
}

/// Every `(metric, meter)` pair in a seeded order: the head is a hot set,
/// the tail a stream of pairs no earlier statement used.
fn shuffled_pairs(rng: &mut crate::gen::Rng, meters: i64) -> Vec<(i64, i64)> {
    let mut pairs: Vec<(i64, i64)> = (0..METRICS)
        .flat_map(|metric| (0..meters).map(move |meter| (metric, meter)))
        .collect();
    rng.shuffle(&mut pairs);
    pairs
}

/// Last timestamp of the bulk-loaded facts.
fn last_ts(rows: usize) -> i64 {
    T0 + rows as i64 - 1
}

/// A multiple of 0.25 in `lo..lo + width`: literals stay inside a narrow
/// selectivity band, so slots of one class cost the same.
fn band(rng: &mut crate::gen::Rng, lo: f64, width: f64) -> f64 {
    lo + rng.below((width * 4.0) as u64) as f64 * 0.25
}
