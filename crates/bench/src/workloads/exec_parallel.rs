//! Morsel-driven parallel execution workload: a multi-container
//! projection store scanned + hash-aggregated end to end, serial vs N
//! worker lanes, through exactly the operators the planner emits
//! ([`ParallelScanOp`] with a partial-GroupBy stage and a merge barrier).

use std::sync::Arc;
use std::time::Instant;
use vdb_exec::aggregate::{AggCall, AggFunc};
use vdb_exec::groupby::HashGroupByOp;
use vdb_exec::operator::collect_rows;
use vdb_exec::parallel::{ParallelScanOp, ParallelScanSpec, ParallelStage};
use vdb_exec::scan::ScanOperator;
use vdb_exec::MemoryBudget;
use vdb_storage::projection::ProjectionDef;
use vdb_storage::{MemBackend, ProjectionStore};
use vdb_types::{DbResult, Epoch, Row, Value};

/// Distinct groups in the generated data.
pub const GROUPS: i64 = 64;

/// `(g, v)` rows spread over `containers` ROS containers (one direct load
/// per container), sorted by `v` so integer columns land as typed vectors.
pub fn build_store(rows: usize, containers: usize) -> DbResult<ProjectionStore> {
    let schema = vdb_types::TableSchema::new(
        "t",
        vec![
            vdb_types::ColumnDef::new("g", vdb_types::DataType::Integer),
            vdb_types::ColumnDef::new("v", vdb_types::DataType::Integer),
        ],
    );
    let def = ProjectionDef::super_projection(&schema, "t_par", &[1], &[]);
    let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
    let per = rows.div_ceil(containers.max(1));
    let mut produced = 0usize;
    while produced < rows {
        let n = (rows - produced).min(per);
        let chunk: Vec<Row> = (produced..produced + n)
            .map(|i| vec![Value::Integer(i as i64 % GROUPS), Value::Integer(i as i64)])
            .collect();
        store.insert_direct_ros(chunk, Epoch(1))?;
        produced += n;
    }
    Ok(store)
}

fn aggs() -> Vec<AggCall> {
    vec![
        AggCall::new(AggFunc::CountStar, 0, "cnt"),
        AggCall::new(AggFunc::Sum, 1, "sum"),
        AggCall::new(AggFunc::Min, 1, "min"),
        AggCall::new(AggFunc::Max, 1, "max"),
    ]
}

/// The serial typed path the planner emits at `threads = 1`: one
/// `ScanOperator` over every container feeding one `HashGroupByOp`.
pub fn run_serial(store: &ProjectionStore) -> DbResult<(Vec<Row>, f64)> {
    let snap = store.scan_snapshot(Epoch(1));
    let t = Instant::now();
    let scan = ScanOperator::new(
        store.backend().clone(),
        snap.containers,
        snap.wos_rows,
        vec![0, 1],
        None,
        None,
        vec![],
    );
    let mut gb = HashGroupByOp::new(Box::new(scan), vec![0], aggs(), MemoryBudget::unlimited());
    let rows = collect_rows(&mut gb)?;
    Ok((rows, t.elapsed().as_secs_f64() * 1000.0))
}

/// The morsel-parallel path at `lanes` workers: per-worker partial
/// aggregation over the shared morsel queue, merged at the barrier.
pub fn run_parallel(store: &ProjectionStore, lanes: usize) -> DbResult<(Vec<Row>, f64)> {
    let snap = store.scan_snapshot(Epoch(1));
    let t = Instant::now();
    let spec = ParallelScanSpec::new(store.backend().clone(), vec![0, 1]);
    let mut op = ParallelScanOp::new(
        spec,
        ParallelStage::GroupBy {
            group_columns: vec![0],
            aggs: aggs(),
            sorted: false,
        },
        snap,
        lanes,
        MemoryBudget::unlimited(),
    );
    let rows = collect_rows(&mut op)?;
    Ok((rows, t.elapsed().as_secs_f64() * 1000.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_lanes_agree_with_serial() {
        let store = build_store(30_000, 8).unwrap();
        assert_eq!(store.container_count(), 8);
        let (serial, _) = run_serial(&store).unwrap();
        assert_eq!(serial.len(), GROUPS as usize);
        for lanes in [1, 2, 4] {
            let (par, _) = run_parallel(&store, lanes).unwrap();
            assert_eq!(par, serial, "lanes={lanes}");
        }
    }
}
