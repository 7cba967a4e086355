//! Property tests for morsel-driven parallel execution: parallel scan,
//! group-by and sort plans must produce results identical to serial
//! execution across lane counts {1, 2, 7, `VDB_EXEC_THREADS`}, across
//! plain/RLE/dict-encoded columns, with deleted rows (delete vectors),
//! NULLs, a residual predicate and a WOS tail in play.

use proptest::prelude::*;
use std::sync::Arc;
use vdb_exec::aggregate::{AggCall, AggFunc};
use vdb_exec::parallel::{ExecOptions, ParallelStage};
use vdb_exec::plan::{execute_collect, ExecContext, PhysicalPlan};
use vdb_storage::projection::ProjectionDef;
use vdb_storage::{MemBackend, ProjectionStore};
use vdb_types::schema::SortKey;
use vdb_types::{BinOp, ColumnDef, DataType, Epoch, Expr, Row, TableSchema, Value};

const PROJECTION: &str = "t_par";

/// `(g, s)` pairs; the row index becomes the unique `v` column.
fn arb_items() -> impl Strategy<Value = Vec<(Option<i64>, Option<String>)>> {
    prop::collection::vec(
        (
            prop_oneof![Just(None), (0i64..6).prop_map(Some)],
            prop_oneof![Just(None), "[a-c]{0,3}".prop_map(Some)],
        ),
        1..250,
    )
}

struct Fixture {
    store: ProjectionStore,
    snapshot: Epoch,
}

/// Build a store with `chunks` direct ROS loads (one container each, since
/// the store is unsegmented with one local segment), a WOS tail, and a
/// pseudo-random subset of ROS rows deleted at epoch 2.
fn build_fixture(
    items: &[(Option<i64>, Option<String>)],
    chunks: usize,
    sort_by_g: bool,
    seed: u64,
) -> Fixture {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("g", DataType::Integer),
            ColumnDef::new("v", DataType::Integer),
            ColumnDef::new("s", DataType::Varchar),
        ],
    );
    // Sorting by g (low cardinality) makes g arrive as RLE runs; sorting
    // by v keeps columns typed/plain. Varchar always decodes through the
    // dictionary path.
    let sort = if sort_by_g { [0usize] } else { [1usize] };
    let def = ProjectionDef::super_projection(&schema, PROJECTION, &sort, &[]);
    let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
    let rows: Vec<Row> = items
        .iter()
        .enumerate()
        .map(|(i, (g, s))| {
            vec![
                g.map_or(Value::Null, Value::Integer),
                Value::Integer(i as i64),
                s.clone().map_or(Value::Null, Value::Varchar),
            ]
        })
        .collect();
    let per = rows.len().div_ceil(chunks.max(1));
    for chunk in rows.chunks(per.max(1)) {
        store.insert_direct_ros(chunk.to_vec(), Epoch(1)).unwrap();
    }
    // WOS tail rows (scanned after the containers).
    store
        .insert_wos(
            vec![
                vec![Value::Integer(3), Value::Integer(100_000), Value::Null],
                vec![
                    Value::Null,
                    Value::Integer(100_001),
                    Value::Varchar("w".into()),
                ],
            ],
            Epoch(2),
        )
        .unwrap();
    // Delete ~1/6 of the ROS rows via delete vectors.
    let locations: Vec<_> = store
        .visible_rows_with_locations(Epoch(1))
        .unwrap()
        .into_iter()
        .map(|(loc, _)| loc)
        .collect();
    for (i, loc) in locations.into_iter().enumerate() {
        let h = (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left(17);
        if h.is_multiple_of(6) {
            store.mark_deleted(loc, Epoch(2)).unwrap();
        }
    }
    Fixture {
        store,
        snapshot: Epoch(2),
    }
}

fn ctx_of(fx: &Fixture) -> ExecContext {
    let mut ctx = ExecContext::new(fx.store.backend().clone());
    ctx.snapshots
        .insert(PROJECTION.into(), fx.store.scan_snapshot(fx.snapshot));
    ctx
}

fn scan_plan(predicate: Option<Expr>) -> PhysicalPlan {
    PhysicalPlan::Scan {
        projection: PROJECTION.into(),
        output_columns: vec![0, 1, 2],
        predicate,
        partition_predicate: None,
        sip: vec![],
    }
}

fn parallel_plan(predicate: Option<Expr>, stage: ParallelStage, threads: usize) -> PhysicalPlan {
    PhysicalPlan::ParallelScan {
        projection: PROJECTION.into(),
        output_columns: vec![0, 1, 2],
        predicate,
        partition_predicate: None,
        sip: vec![],
        stage,
        threads,
    }
}

fn lane_counts() -> Vec<usize> {
    vec![1, 2, 7, ExecOptions::from_env().threads]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_collect_equals_serial_scan(
        items in arb_items(),
        chunks in 1usize..6,
        sort_by_g in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let fx = build_fixture(&items, chunks, sort_by_g, seed);
        let pred = Some(Expr::binary(
            BinOp::Ge,
            Expr::col(1, "v"),
            Expr::int(items.len() as i64 / 3),
        ));
        let serial = execute_collect(&scan_plan(pred.clone()), &mut ctx_of(&fx)).unwrap();
        for threads in lane_counts() {
            let plan = parallel_plan(pred.clone(), ParallelStage::Collect, threads);
            let got = execute_collect(&plan, &mut ctx_of(&fx)).unwrap();
            // Morsel-ordered concat reproduces the serial scan exactly —
            // same rows, same order.
            prop_assert_eq!(&got, &serial, "threads={}", threads);
        }
    }

    #[test]
    fn parallel_groupby_equals_serial(
        items in arb_items(),
        chunks in 1usize..6,
        sort_by_g in any::<bool>(),
        seed in any::<u64>(),
        group_on_dict in any::<bool>(),
    ) {
        let fx = build_fixture(&items, chunks, sort_by_g, seed);
        // Group on the integer column (plain/RLE depending on sort order)
        // or on the dict-encoded varchar column; NULL keys group together.
        let gc = if group_on_dict { vec![2usize] } else { vec![0usize] };
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Min, 1, "min"),
            AggCall::new(AggFunc::Max, 1, "max"),
        ];
        let serial_plan = PhysicalPlan::HashGroupBy {
            input: Box::new(scan_plan(None)),
            group_columns: gc.clone(),
            aggs: aggs.clone(),
        };
        let serial = execute_collect(&serial_plan, &mut ctx_of(&fx)).unwrap();
        for threads in lane_counts() {
            let plan = parallel_plan(
                None,
                ParallelStage::GroupBy { group_columns: gc.clone(), aggs: aggs.clone(), sorted: false },
                threads,
            );
            let got = execute_collect(&plan, &mut ctx_of(&fx)).unwrap();
            prop_assert_eq!(&got, &serial, "threads={}", threads);
        }
    }

    #[test]
    fn parallel_sort_equals_serial(
        items in arb_items(),
        chunks in 1usize..6,
        sort_by_g in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let fx = build_fixture(&items, chunks, sort_by_g, seed);
        // v is unique, so (g asc NULLS-wherever, v desc) totally orders the
        // rows and the k-way merge must match the serial sort exactly.
        let keys = vec![SortKey::asc(0), SortKey::desc(1)];
        let serial_plan = PhysicalPlan::Sort {
            input: Box::new(scan_plan(None)),
            keys: keys.clone(),
        };
        let serial = execute_collect(&serial_plan, &mut ctx_of(&fx)).unwrap();
        for threads in lane_counts() {
            let plan = parallel_plan(None, ParallelStage::Sort { keys: keys.clone() }, threads);
            let got = execute_collect(&plan, &mut ctx_of(&fx)).unwrap();
            prop_assert_eq!(&got, &serial, "threads={}", threads);
        }
    }
}
