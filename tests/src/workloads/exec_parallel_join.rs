//! Morsel-parallel hash join workload: a multi-container fact store joined
//! to a smaller dimension store, serially (one `ScanOperator` per side
//! feeding [`vdb_exec::join::HashJoinOp`]) and through the morsel-parallel
//! join ([`ParallelHashJoinOp`]) at N worker lanes — exactly the operators
//! the planner emits at `threads = 1` and `threads = N`, both driving the
//! same columnar join core.

use std::sync::Arc;
use std::time::Instant;
use vdb_exec::join::{HashJoinOp, JoinType};
use vdb_exec::operator::collect_rows;
use vdb_exec::parallel::ParallelScanSpec;
use vdb_exec::parallel_join::{ParallelHashJoinOp, ParallelJoinSpec};
use vdb_exec::scan::ScanOperator;
use vdb_exec::MemoryBudget;
use vdb_storage::projection::ProjectionDef;
use vdb_storage::{MemBackend, ProjectionStore};
use vdb_types::{DbResult, Epoch, Row, Value};

/// Distinct join keys on the fact side; the dimension holds half of them,
/// so the probe matches ~50% of fact rows.
pub const FACT_KEYS: i64 = 2048;
pub const DIM_KEYS: i64 = FACT_KEYS / 2;

fn store_of(
    name: &str,
    rows: &[Row],
    containers: usize,
    sort_col: usize,
) -> DbResult<ProjectionStore> {
    let schema = vdb_types::TableSchema::new(
        "t",
        vec![
            vdb_types::ColumnDef::new("k", vdb_types::DataType::Integer),
            vdb_types::ColumnDef::new("v", vdb_types::DataType::Integer),
        ],
    );
    let def = ProjectionDef::super_projection(&schema, name, &[sort_col], &[]);
    let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
    let per = rows.len().div_ceil(containers.max(1));
    for chunk in rows.chunks(per.max(1)) {
        store.insert_direct_ros(chunk.to_vec(), Epoch(1))?;
    }
    Ok(store)
}

/// `(k, v)` fact rows spread over `containers` ROS containers, sorted by
/// `v` so the key column lands as a typed i64 vector.
pub fn build_fact(rows: usize, containers: usize) -> DbResult<ProjectionStore> {
    let all: Vec<Row> = (0..rows as i64)
        .map(|i| vec![Value::Integer(i % FACT_KEYS), Value::Integer(i)])
        .collect();
    store_of("fact_par", &all, containers, 1)
}

/// `(k, w)` dimension rows over a handful of containers.
pub fn build_dim(containers: usize) -> DbResult<ProjectionStore> {
    let all: Vec<Row> = (0..DIM_KEYS)
        .map(|k| vec![Value::Integer(k), Value::Integer(k * 10)])
        .collect();
    store_of("dim_par", &all, containers, 0)
}

fn serial_scan(store: &ProjectionStore) -> ScanOperator {
    let snap = store.scan_snapshot(Epoch(1));
    ScanOperator::new(
        store.backend().clone(),
        snap.containers,
        snap.wos_rows,
        vec![0, 1],
        None,
        None,
        vec![],
    )
}

/// The serial path the planner emits at `threads = 1`: one `HashJoinOp`
/// over both scans.
pub fn run_serial(fact: &ProjectionStore, dim: &ProjectionStore) -> DbResult<(Vec<Row>, f64)> {
    let t = Instant::now();
    let mut op = HashJoinOp::new(
        Box::new(serial_scan(fact)),
        Box::new(serial_scan(dim)),
        vec![0],
        vec![0],
        JoinType::Inner,
        MemoryBudget::unlimited(),
        None,
    );
    let rows = collect_rows(&mut op)?;
    Ok((rows, t.elapsed().as_secs_f64() * 1000.0))
}

/// The morsel-parallel join at `lanes` workers per side.
pub fn run_parallel(
    fact: &ProjectionStore,
    dim: &ProjectionStore,
    lanes: usize,
) -> DbResult<(Vec<Row>, f64)> {
    let t = Instant::now();
    let mut op = ParallelHashJoinOp::new(
        ParallelJoinSpec {
            probe: ParallelScanSpec::new(fact.backend().clone(), vec![0, 1]),
            probe_snapshot: fact.scan_snapshot(Epoch(1)),
            probe_threads: lanes,
            build: ParallelScanSpec::new(dim.backend().clone(), vec![0, 1]),
            build_snapshot: dim.scan_snapshot(Epoch(1)),
            build_threads: lanes,
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
            sip: None,
        },
        MemoryBudget::unlimited(),
    );
    let rows = collect_rows(&mut op)?;
    Ok((rows, t.elapsed().as_secs_f64() * 1000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_join_lanes_agree_with_serial() {
        let fact = build_fact(40_000, 8).unwrap();
        let dim = build_dim(4).unwrap();
        let (serial, _) = run_serial(&fact, &dim).unwrap();
        let expected = (0..40_000i64).filter(|i| i % FACT_KEYS < DIM_KEYS).count();
        assert_eq!(serial.len(), expected, "keys below DIM_KEYS match");
        for lanes in [1, 2, 4] {
            let (par, _) = run_parallel(&fact, &dim, lanes).unwrap();
            assert_eq!(par, serial, "lanes={lanes}");
        }
    }
}
