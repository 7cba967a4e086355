//! Serving-layer workload: a fixed query mix fired from N concurrent
//! sessions at one [`Server`], measuring throughput and tail latency while
//! the plan cache and the shared morsel pool absorb the load.

use std::sync::Arc;
use std::time::Instant;
use vdb_core::serve::Server;
use vdb_core::{Engine, Row, Value};
use vdb_types::{DbError, DbResult};

/// Statement mix: a morsel-parallel group-by over a multi-container fact
/// table, a selective filter, and a partitioned parallel hash join —
/// every statement fully ordered so results compare row-for-row. The
/// literals are fixed, so each statement resolves to one plan-cache entry.
pub fn query_mix() -> Vec<String> {
    vec![
        "SELECT g, COUNT(*), SUM(v) FROM f GROUP BY g ORDER BY g".to_string(),
        "SELECT COUNT(*) FROM f WHERE v < 1000".to_string(),
        "SELECT d.w, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k \
         GROUP BY d.w ORDER BY d.w"
            .to_string(),
    ]
}

/// Multi-container fact table `f(g, k, v)` + unsegmented dim `d(k, w)`:
/// `chunks` bulk loads give the parallel scan real morsels to steal. The
/// database is pinned to 4 exec lanes so the parallel operators submit
/// task sets to the shared pool even on single-core hosts (the pool's
/// caller-runs draining keeps that correct at any worker count).
pub fn build_db(rows: usize, chunks: usize) -> DbResult<Engine> {
    let db = Engine::builder().threads(4).open()?;
    db.execute("CREATE TABLE f (g INT, k INT, v INT)")?;
    db.execute(
        "CREATE PROJECTION f_super AS SELECT g, k, v FROM f ORDER BY v \
         SEGMENTED BY HASH(v) ALL NODES",
    )?;
    db.execute("CREATE TABLE d (k INT, w INT)")?;
    db.execute(
        "CREATE PROJECTION d_super AS SELECT k, w FROM d ORDER BY k \
         UNSEGMENTED ALL NODES",
    )?;
    let per_chunk = (rows / chunks.max(1)).max(1);
    for chunk in 0..chunks.max(1) {
        let batch: Vec<Row> = (0..per_chunk)
            .map(|i| {
                let i = (chunk * per_chunk + i) as i64;
                vec![
                    Value::Integer(i % 13),
                    Value::Integer(i % 97),
                    Value::Integer(i),
                ]
            })
            .collect();
        db.load("f", &batch)?;
    }
    let dims: Vec<Row> = (0..97)
        .map(|i| vec![Value::Integer(i), Value::Integer(i * 10)])
        .collect();
    db.load("d", &dims)?;
    Ok(db)
}

/// Throughput and tail latency of one [`run_phase`].
pub struct PhaseReport {
    pub qps: f64,
    pub p99_ms: f64,
}

/// One measured phase: `sessions` threads, each its own [`Session`],
/// walking the mix round-robin (phase-shifted per session) until every
/// session has issued `per_session` statements.
///
/// [`Session`]: vdb_core::serve::Session
pub fn run_phase(
    server: &Arc<Server>,
    mix: &[String],
    sessions: usize,
    per_session: usize,
) -> DbResult<PhaseReport> {
    let started = Instant::now();
    let lat_per_session = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                let server = server.clone();
                scope.spawn(move || -> DbResult<Vec<f64>> {
                    let session = server.session();
                    let mut latencies = Vec::with_capacity(per_session);
                    for i in 0..per_session {
                        let sql = &mix[(i + s) % mix.len()];
                        let t = Instant::now();
                        session.execute(sql)?;
                        latencies.push(t.elapsed().as_secs_f64() * 1000.0);
                    }
                    Ok(latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| DbError::Execution("serve session thread panicked".into()))?
            })
            .collect::<DbResult<Vec<Vec<f64>>>>()
    })?;
    let wall = started.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = lat_per_session.into_iter().flatten().collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let p99_ms = match latencies.len() {
        0 => 0.0,
        n => latencies[((n as f64 - 1.0) * 0.99).round() as usize],
    };
    Ok(PhaseReport {
        qps: latencies.len() as f64 / wall.max(1e-9),
        p99_ms,
    })
}
