//! Multi-node cluster workload: a segmented fact joined to a dim that must
//! re-segment through the exchange, run on 1 node and on a K-node cluster,
//! plus a node kill → buddy reads → recovery drill.

use vdb_core::Engine;
use vdb_types::{DbResult, Row, Value};

/// Distinct join keys in the dim table (and the fact's key domain).
pub const DIM_KEYS: i64 = 64;

/// Distinct group-by values in the fact table.
pub const GROUPS: i64 = 32;

/// Build a `nodes`-wide engine: fact `f(k, g, v)` segmented on `k`, dim
/// `d(k, w)` segmented on `w` — NOT the join key — so `f JOIN d ON f.k =
/// d.k` re-segments the dim side through the exchange. Rows are moved out
/// of the WOS so the timed queries scan encoded ROS containers.
pub fn build(nodes: usize, rows: usize) -> DbResult<Engine> {
    let db = Engine::builder().nodes(nodes).open()?;
    db.execute("CREATE TABLE f (k INT, g INT, v INT)")?;
    db.execute(
        "CREATE PROJECTION f_super AS SELECT k, g, v FROM f ORDER BY g \
         SEGMENTED BY HASH(k) ALL NODES",
    )?;
    db.execute("CREATE TABLE d (k INT, w VARCHAR)")?;
    db.execute(
        "CREATE PROJECTION d_super AS SELECT k, w FROM d ORDER BY w \
         SEGMENTED BY HASH(w) ALL NODES",
    )?;
    let fact: Vec<Row> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Integer(i % DIM_KEYS),
                Value::Integer(i % GROUPS),
                Value::Integer(i),
            ]
        })
        .collect();
    db.load("f", &fact)?;
    let dim: Vec<Row> = (0..DIM_KEYS)
        .map(|k| {
            vec![
                Value::Integer(k),
                Value::Varchar(format!("name{:03}", k % 7)),
            ]
        })
        .collect();
    db.load("d", &dim)?;
    db.tuple_mover_tick()?;
    Ok(db)
}

/// Deterministic (fully ordered) query mix: segment-local aggregation, a
/// resegmented join, and a selective filter — the three distributed shapes.
pub fn query_mix() -> Vec<&'static str> {
    vec![
        "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM f GROUP BY g ORDER BY g",
        "SELECT w, COUNT(*), SUM(v) FROM f JOIN d ON f.k = d.k GROUP BY w ORDER BY w",
        "SELECT k, v FROM f WHERE v < 100 ORDER BY v, k",
    ]
}

/// Run the whole mix once, returning the per-query row sets.
pub fn run_mix(db: &Engine) -> DbResult<Vec<Vec<Row>>> {
    query_mix().iter().map(|q| db.query(q)).collect()
}
