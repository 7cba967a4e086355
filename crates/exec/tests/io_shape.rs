//! What a scan reads, and how many workers it uses, pinned with the
//! counting backend: a point query on a sorted projection reads only the
//! blocks its predicate cannot rule out — a few per cent of the columns it
//! touches, one coalesced range per column, inline on the calling thread —
//! while an unfiltered aggregate over a single mergeout-sized container
//! still spreads across workers.

use std::sync::Arc;
use vdb_exec::aggregate::{AggCall, AggFunc};
use vdb_exec::memory::MemoryBudget;
use vdb_exec::operator::collect_rows;
use vdb_exec::parallel::{ParallelScanOp, ParallelScanSpec, ParallelStage};
use vdb_storage::projection::ProjectionDef;
use vdb_storage::{CountingBackend, IoOp, ProjectionStore, StorageBackend};
use vdb_types::{ColumnDef, DataType, Epoch, Expr, Row, TableSchema, Value};

const METERS: i64 = 1000;

/// `m(meter, ts, value)` sorted `(meter, ts)`, `rows` rows in one container.
fn meter_store(rows: i64, backend: Arc<dyn StorageBackend>) -> ProjectionStore {
    let schema = TableSchema::new(
        "m",
        vec![
            ColumnDef::new("meter", DataType::Integer),
            ColumnDef::new("ts", DataType::Timestamp),
            ColumnDef::new("value", DataType::Float),
        ],
    );
    let def = ProjectionDef::super_projection(&schema, "m_by_meter", &[0, 1], &[]);
    let mut store = ProjectionStore::new(def, None, 1, backend);
    let data: Vec<Row> = (0..rows)
        .map(|i| {
            vec![
                Value::Integer((i * 7919) % METERS),
                Value::Timestamp(1_600_000_000 + i),
                Value::Float(((i * 31) % 4000) as f64 * 0.25),
            ]
        })
        .collect();
    store.insert_direct_ros(data, Epoch(1)).unwrap();
    assert_eq!(store.container_count(), 1);
    store
}

fn spec_of(store: &ProjectionStore, predicate: Option<Expr>) -> ParallelScanSpec {
    let mut spec = ParallelScanSpec::new(store.backend().clone(), vec![0, 1, 2]);
    spec.predicate = predicate;
    spec
}

#[test]
fn point_query_reads_a_few_percent_of_its_columns_in_one_range_each() {
    let counting = Arc::new(CountingBackend::default());
    let store = meter_store(100_000, counting.clone());
    let column_bytes: u64 = store.column_bytes().iter().sum();
    for meter in [0, 417, METERS - 1] {
        counting.reset();
        let mut op = ParallelScanOp::new(
            spec_of(
                &store,
                Some(Expr::eq(Expr::col(0, "meter"), Expr::int(meter))),
            ),
            ParallelStage::Collect,
            store.scan_snapshot(Epoch(1)),
            2,
            MemoryBudget::unlimited(),
        );
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got.len(), 100, "100k rows over 1000 meters");
        assert!(got.iter().all(|r| r[0] == Value::Integer(meter)));
        assert_eq!(op.threads_used(), 1, "one morsel: inline, no pool hand-off");
        assert_eq!(counting.count(IoOp::ReadFile), 0, "no whole-file read");
        let calls = counting.calls();
        for col in 0..3 {
            let ranges = calls
                .iter()
                .filter(|c| c.path.ends_with(&format!("/c{col}.dat")))
                .count();
            assert_eq!(
                ranges, 1,
                "meter {meter}: column {col} in one coalesced range"
            );
        }
        assert_eq!(calls.len(), 3, "and the epoch column not at all: {calls:?}");
        let read = counting.bytes_read();
        assert!(
            read * 20 < column_bytes,
            "meter {meter}: read {read} of {column_bytes} column bytes"
        );
    }
}

#[test]
fn one_large_container_feeds_two_workers_and_a_point_query_one() {
    let counting = Arc::new(CountingBackend::default());
    let store = meter_store(180_000, counting.clone());
    assert_eq!(store.morsel_count(), 11, "ceil(180 000 / 16 384)");
    let aggs = vec![
        AggCall::new(AggFunc::CountStar, 0, "cnt"),
        AggCall::new(AggFunc::Sum, 2, "sum"),
    ];
    let run = |predicate: Option<Expr>, threads: usize| {
        let mut op = ParallelScanOp::new(
            spec_of(&store, predicate),
            ParallelStage::GroupBy {
                group_columns: vec![0],
                aggs: aggs.clone(),
                sorted: false,
            },
            store.scan_snapshot(Epoch(1)),
            threads,
            MemoryBudget::unlimited(),
        );
        let rows = collect_rows(&mut op).unwrap();
        (rows, op.threads_used())
    };
    let (serial, used) = run(None, 1);
    assert_eq!((serial.len(), used), (METERS as usize, 1));
    counting.reset();
    let (parallel, used) = run(None, 2);
    assert_eq!(used, 2, "one container, eleven morsels, two workers");
    assert_eq!(parallel, serial);
    // Every block of the three columns is read exactly once, by ranges.
    assert_eq!(counting.count(IoOp::ReadFile), 0);
    assert_eq!(counting.count(IoOp::ReadRange), 3 * 11);
    assert_eq!(
        counting.bytes_read(),
        store
            .containers()
            .flat_map(|c| &c.indexes[..3])
            .flat_map(|index| &index.blocks)
            .map(|b| u64::from(b.byte_len))
            .sum::<u64>()
    );
    let point = Some(Expr::eq(Expr::col(0, "meter"), Expr::int(5)));
    let (rows, used) = run(point, 2);
    assert_eq!((rows.len(), used), (1, 1));
}

/// The shape the streaming strategy exists for, at its least favourable:
/// `GROUP BY meter, ts` on the `(meter, ts)` sort order is one group per
/// row, so the morsel workers' partials are as many rows as the input. The
/// barrier folds only the partials at morsel edges and passes the rest
/// through, so staging the group-by in the workers answers what the serial
/// streaming operator answers without paying for every group twice: in an
/// optimized build on a host with two cores it stays within 1.5× of the
/// serial streaming plan even when the second core is slow to wake
/// (measured 19.4 vs 16.8 ms; the plan this shape ran before it could use
/// workers took 28.8 ms, 1.7× — CHANGES.md, PR 19). (`parallel::tests` pin that
/// the barrier is the streaming fold: no hash table holds these 180 000
/// groups.)
#[test]
fn a_group_per_row_streams_through_two_workers_without_losing_to_serial() {
    use vdb_exec::groupby::PipelinedGroupByOp;
    use vdb_exec::operator::Operator;
    use vdb_exec::scan::ScanOperator;
    let store = meter_store(180_000, Arc::new(vdb_storage::MemBackend::new()));
    let aggs = vec![
        AggCall::new(AggFunc::CountStar, 0, "cnt"),
        AggCall::new(AggFunc::Sum, 2, "sum"),
    ];
    let serial = || -> Box<dyn Operator> {
        let snap = store.scan_snapshot(Epoch(1));
        let scan = ScanOperator::new(
            store.backend().clone(),
            snap.containers,
            snap.wos_rows,
            vec![0, 1, 2],
            None,
            None,
            vec![],
        );
        Box::new(PipelinedGroupByOp::new(
            Box::new(scan),
            vec![0, 1],
            aggs.clone(),
        ))
    };
    let staged = || -> Box<dyn Operator> {
        Box::new(ParallelScanOp::new(
            spec_of(&store, None),
            ParallelStage::GroupBy {
                group_columns: vec![0, 1],
                aggs: aggs.clone(),
                sorted: true,
            },
            store.scan_snapshot(Epoch(1)),
            2,
            MemoryBudget::unlimited(),
        ))
    };
    let want = collect_rows(serial().as_mut()).unwrap();
    assert_eq!(want.len(), 180_000, "one group per row");
    assert_eq!(collect_rows(staged().as_mut()).unwrap(), want);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cfg!(debug_assertions) || cores < 2 {
        return; // a wall-clock ratio means nothing here
    }
    let best_of = |plan: &dyn Fn() -> Box<dyn Operator>| {
        (0..5)
            .map(|_| {
                let mut op = plan();
                let t = std::time::Instant::now();
                let mut groups = 0;
                while let Some(batch) = op.next_batch().unwrap() {
                    groups += batch.len();
                }
                assert_eq!(groups, 180_000);
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (serial_s, staged_s) = (best_of(&serial), best_of(&staged));
    eprintln!("group per row: two workers {staged_s:.4}s, serial streaming {serial_s:.4}s");
    assert!(
        staged_s <= serial_s * 1.5,
        "two workers {staged_s:.4}s vs serial streaming {serial_s:.4}s on {cores} cores"
    );
}
