//! The block-range equivalence suite (ROADMAP item 4, "block-range read ≡
//! whole-file read"): the scan reads only the byte ranges of the blocks
//! that survive pruning and cuts morsels inside containers, and none of
//! that may change an answer.
//!
//! Every case is generated from one `u64` seed — printed by every
//! assertion, replayable by adding it to [`SEED_CORPUS`] — and covers, in
//! one projection: every encoding (RLE, dictionary, the delta family,
//! bit-packing, plain), NULL-bearing and all-NULL blocks, delete vectors
//! stamped before and after the snapshot, containers that straddle the
//! snapshot epoch, `PARTITION BY` pruning, a WOS tail, and predicates
//! whose literals sit on block edges. Three oracles:
//!
//! * (a) a column decoded from `read_range`-assembled chunks equals the
//!   same column decoded from its whole file, block for block, on both
//!   backends;
//! * (b) the serial scan equals a model kept beside the store; a
//!   `ParallelScanOp` `Collect` over block-range morsels at DoP 1/2/7
//!   equals the serial scan **row for row, in order**; `GroupBy`/`Sort`
//!   stages equal their serial plans; `ParallelHashJoin` equals `HashJoin`;
//! * (c) the pruning counters of `ScanStats` are the serial scan's at every
//!   DoP;
//! * (d) group-bys on a sort-order prefix — one-, two- and three-column keys
//!   over RLE, dictionary, typed and NULL-bearing key columns, whose runs
//!   straddle blocks, morsels and containers; COUNT(*)/COUNT/SUM/MIN/MAX/AVG
//!   over float, integer, timestamp, dictionary and all-NULL inputs — the
//!   serial streaming operator ≡ the hash group-by ≡ the model after the
//!   initiator's merge; the sorted stage of a `ParallelScan` at DoP
//!   1/2/7/env ≡ the serial streaming operator row for row; and a float
//!   SUM over inexact data has the same bits at DoP 2, at DoP 7 and on a
//!   second run.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use vdb_encoding::{ColumnReader, EncodingType, BLOCK_SIZE};
use vdb_exec::aggregate::{AggCall, AggFunc};
use vdb_exec::memory::MemoryBudget;
use vdb_exec::operator::collect_rows;
use vdb_exec::parallel::{ExecOptions, ParallelScanOp, ParallelScanSpec, ParallelStage};
use vdb_exec::plan::{execute_collect, ExecContext, JoinType, PhysicalPlan};
use vdb_exec::scan::{ScanOperator, ScanStats};
use vdb_storage::partition::PartitionSpec;
use vdb_storage::projection::ProjectionDef;
use vdb_storage::store::{Visibility, MORSEL_BLOCKS};
use vdb_storage::{FsBackend, MemBackend, ProjectionStore, RowLocation, StorageBackend};
use vdb_types::schema::SortKey;
use vdb_types::{BinOp, ColumnDef, DataType, Epoch, Expr, Row, TableSchema, Value};

/// Seeds that once failed, or that pin a shape worth keeping. Add a
/// printed seed here to replay it.
const SEED_CORPUS: [u64; 3] = [0, 1, 0xB10C_4A26_E5EE_D001];

const FACT: &str = "t_blocks";
const DIM: &str = "t_dim";

/// Columns of the fact projection.
const K: usize = 0; // unique, ascending: the sort key, block edges known
const G: usize = 1; // k / 3000: long runs (RLE), sorted
const S: usize = 2; // short strings from a small set (dictionary)
const F: usize = 3; // floats
const N: usize = 4; // NULL in whole stretches and sporadically
const P: usize = 5; // the partition key
                    // Monotone in `k`, so rows sorted by `k` are sorted by `(a, b, t)` too:
const A: usize = 6; // k / 2500 in long runs (RLE), NULL for the first stretch
const B: usize = 7; // within a run of `a`: NULL, then "b0".."b3" (dictionary)
const T: usize = 8; // a timestamp, unique
const Y: usize = 9; // floats that no sum represents exactly
const Z: usize = 10; // NULL in every row
const ARITY: usize = 11;

/// SplitMix64: the whole case derives from the seed through this.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

const INT_ENCODINGS: [EncodingType; 7] = [
    EncodingType::Auto,
    EncodingType::Plain,
    EncodingType::DeltaValue,
    EncodingType::CommonDelta,
    EncodingType::DeltaDelta,
    EncodingType::ForBitPack,
    EncodingType::DeltaRange,
];

fn fact_row(k: i64, rng: &mut Rng) -> Row {
    // `n` is NULL for every third stretch of 1500 keys (all-NULL blocks
    // and blocks that are NULL in part), and for one row in nine elsewhere.
    let n = if (k / 1500) % 3 == 1 || rng.below(9) == 0 {
        Value::Null
    } else {
        Value::Integer(k % 97)
    };
    vec![
        Value::Integer(k),
        Value::Integer(k / 3000),
        Value::Varchar(format!("s{}", rng.below(5))),
        Value::Float(rng.below(4000) as f64 * 0.25),
        n,
        Value::Integer((k / 10_000) % 3),
        if k < 1_500 {
            Value::Null
        } else {
            Value::Integer(k / 2_500)
        },
        match k % 2_500 {
            r if r < 200 => Value::Null,
            r => Value::Varchar(format!("b{}", r / 600)),
        },
        Value::Timestamp(1_000_000 + k),
        Value::Float(0.1 * k as f64 + if k % 7 == 0 { 1e15 } else { 0.0 }),
        Value::Null,
    ]
}

/// One row of the model kept beside the store.
#[derive(Clone)]
struct ModelRow {
    row: Row,
    commit: u64,
    deleted: Option<u64>,
}

struct Fixture {
    seed: u64,
    store: ProjectionStore,
    dim: ProjectionStore,
    model: BTreeMap<i64, ModelRow>,
    /// `k` of the first and last row of some blocks: literals on block edges.
    edges: Vec<i64>,
}

fn fact_def(rng: &mut Rng) -> ProjectionDef {
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("k", DataType::Integer),
            ColumnDef::new("g", DataType::Integer),
            ColumnDef::new("s", DataType::Varchar),
            ColumnDef::new("f", DataType::Float),
            ColumnDef::new("n", DataType::Integer),
            ColumnDef::new("p", DataType::Integer),
            ColumnDef::new("a", DataType::Integer),
            ColumnDef::new("b", DataType::Varchar),
            ColumnDef::new("t", DataType::Timestamp),
            ColumnDef::new("y", DataType::Float),
            ColumnDef::new("z", DataType::Integer),
        ],
    );
    let mut def = ProjectionDef::super_projection(&schema, FACT, &[K], &[]);
    def.encodings[K] = rng.pick(&INT_ENCODINGS);
    def.encodings[G] = rng.pick(&[EncodingType::Rle, EncodingType::Auto]);
    def.encodings[S] = rng.pick(&[
        EncodingType::BlockDict,
        EncodingType::Auto,
        EncodingType::Rle,
    ]);
    def.encodings[F] = rng.pick(&[
        EncodingType::Auto,
        EncodingType::Plain,
        EncodingType::DeltaRange,
    ]);
    def.encodings[N] = rng.pick(&INT_ENCODINGS);
    // A stream of their own, so the columns above are what they were
    // before these existed.
    let mut rng = Rng(rng.0 ^ 0x50F7);
    def.encodings[A] = rng.pick(&[EncodingType::Rle, EncodingType::Auto]);
    def.encodings[B] = rng.pick(&[
        EncodingType::BlockDict,
        EncodingType::Auto,
        EncodingType::Rle,
    ]);
    def.encodings[T] = rng.pick(&INT_ENCODINGS);
    def
}

/// A partitioned store holding: a bulk load at epoch 1 (the partition of
/// `p = 0` is longer than one morsel), trickled rows committed at epochs
/// 2–4 and moved out together (so those containers straddle a snapshot at
/// 2 or 3), a WOS tail at epochs 5–6, and deletes stamped at 2 and 5.
fn build_fixture(seed: u64, backend: Arc<dyn StorageBackend>) -> Fixture {
    let mut rng = Rng(seed);
    let mut sizes = Rng(seed ^ 0xA5A5);
    let def = fact_def(&mut rng);
    let partition = PartitionSpec::new(Expr::col(P, "p"));
    let mut store = ProjectionStore::new(def, Some(partition), 1, backend);
    let mut model: BTreeMap<i64, ModelRow> = BTreeMap::new();
    let mut insert = |store: &mut ProjectionStore, keys: Vec<i64>, epoch: u64, direct: bool| {
        let rows: Vec<Row> = keys.iter().map(|&k| fact_row(k, &mut rng)).collect();
        for row in &rows {
            let k = row[K].as_i64().unwrap();
            model.insert(
                k,
                ModelRow {
                    row: row.clone(),
                    commit: epoch,
                    deleted: None,
                },
            );
        }
        if direct {
            store.insert_direct_ros(rows, Epoch(epoch)).unwrap();
        } else {
            store.insert_wos(rows, Epoch(epoch)).unwrap();
        }
    };
    // Bulk: 37k–44k keys, so partition 0 (keys 0..10k and 30k..) passes
    // one morsel's 16 blocks.
    let bulk = 37_000 + sizes.below(7_000) as i64;
    assert!((bulk - 20_000) as usize > MORSEL_BLOCKS * BLOCK_SIZE);
    insert(&mut store, (0..bulk).collect(), 1, true);
    // Trickle: ~2.5k keys past the bulk range in partition-0 territory
    // (60_000.. maps to p = 0), epochs by stretch — wholly 2, wholly 4,
    // then mixed 3/4 — so one container has committed, future and
    // straddling blocks at snapshot 3.
    let trickle: Vec<i64> = (0..2_400 + sizes.below(400) as i64)
        .map(|i| 60_000 + i)
        .collect();
    for epoch in [2u64, 3, 4] {
        let keys: Vec<i64> = trickle
            .iter()
            .copied()
            .filter(|&k| {
                let i = k - 60_000;
                let e = if i < 1_100 {
                    2
                } else if i < 1_400 {
                    4
                } else {
                    3 + (i % 2) as u64
                };
                e == epoch
            })
            .collect();
        insert(&mut store, keys, epoch, false);
    }
    store.moveout(Epoch(4)).unwrap();
    // WOS tail.
    insert(&mut store, (90_000..90_040).collect(), 5, false);
    insert(&mut store, (90_040..90_060).collect(), 6, false);
    // Deletes at epochs 2 and 5: scattered rows, one whole block's worth of
    // a stretch, and a WOS row.
    for (epoch, stride) in [(2u64, 211u64), (5, 173)] {
        let victims: Vec<(RowLocation, i64)> = store
            .visible_rows_with_locations(Epoch(6))
            .unwrap()
            .into_iter()
            .map(|(loc, row)| (loc, row[K].as_i64().unwrap()))
            .filter(|&(_, k)| {
                (k as u64).wrapping_mul(0x9E37_79B9) % stride == seed % stride
                    || (epoch == 5 && (5_000..6_100).contains(&k))
                    || (epoch == 5 && k == 90_007)
            })
            .collect();
        for (loc, k) in victims {
            store.mark_deleted(loc, Epoch(epoch)).unwrap();
            let entry = model.get_mut(&k).unwrap();
            entry.deleted.get_or_insert(epoch);
        }
    }
    // Block edges of the first (largest) container.
    let first = store.containers().next().unwrap();
    let edges: Vec<i64> = first.indexes[K]
        .blocks
        .iter()
        .flat_map(|b| [b.min.as_i64().unwrap(), b.max.as_i64().unwrap()])
        .collect();
    Fixture {
        seed,
        store,
        dim: build_dim(),
        model,
        edges,
    }
}

/// `dim(g, label)`: one row per `g` the fact table can hold, a few missing.
fn build_dim() -> ProjectionStore {
    let schema = TableSchema::new(
        "d",
        vec![
            ColumnDef::new("g", DataType::Integer),
            ColumnDef::new("label", DataType::Varchar),
        ],
    );
    let def = ProjectionDef::super_projection(&schema, DIM, &[0], &[]);
    let mut dim = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
    let rows: Vec<Row> = (0..40)
        .filter(|g| g % 7 != 3)
        .map(|g| vec![Value::Integer(g), Value::Varchar(format!("label{}", g % 4))])
        .collect();
    dim.insert_direct_ros(rows, Epoch(1)).unwrap();
    dim
}

impl Fixture {
    /// What the model says a scan of `columns` under `keep` returns at
    /// `snapshot`, as a sorted multiset.
    fn model_rows(
        &self,
        snapshot: u64,
        columns: &[usize],
        keep: impl Fn(&Row) -> bool,
    ) -> Vec<Row> {
        let mut rows: Vec<Row> = self
            .model
            .values()
            .filter(|m| m.commit <= snapshot && m.deleted.is_none_or(|d| d > snapshot))
            .filter(|m| keep(&m.row))
            .map(|m| columns.iter().map(|&c| m.row[c].clone()).collect())
            .collect();
        rows.sort();
        rows
    }

    fn ctx(&self, snapshot: u64) -> ExecContext {
        let mut ctx = ExecContext::new(self.store.backend().clone());
        ctx.snapshots
            .insert(FACT.into(), self.store.scan_snapshot(Epoch(snapshot)));
        ctx.snapshots
            .insert(DIM.into(), self.dim.scan_snapshot(Epoch(snapshot)));
        ctx
    }
}

/// A predicate over the scan output `[k, g, s, f, n, p, ..]` with its model
/// twin. Literals on `k` sit on block edges (or one off them).
struct Pred {
    expr: Option<Expr>,
    partition: Option<Expr>,
    keep: Box<dyn Fn(&Row) -> bool>,
}

fn arb_pred(fx: &Fixture, rng: &mut Rng) -> Pred {
    let edge = |rng: &mut Rng| rng.pick(&fx.edges) + rng.pick(&[-1i64, 0, 0, 1]);
    let k = || Expr::col(K, "k");
    let int = |row: &Row, c: usize| row[c].as_i64();
    match rng.below(8) {
        0 => Pred {
            expr: None,
            partition: None,
            keep: Box::new(|_| true),
        },
        1 => {
            let lit = edge(rng);
            Pred {
                expr: Some(Expr::eq(k(), Expr::int(lit))),
                partition: None,
                keep: Box::new(move |r| int(r, K) == Some(lit)),
            }
        }
        2 => {
            let (op, lit) = (
                rng.pick(&[BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge]),
                edge(rng),
            );
            Pred {
                expr: Some(Expr::binary(op, k(), Expr::int(lit))),
                partition: None,
                keep: Box::new(move |r| {
                    let v = int(r, K).unwrap();
                    match op {
                        BinOp::Lt => v < lit,
                        BinOp::Le => v <= lit,
                        BinOp::Gt => v > lit,
                        _ => v >= lit,
                    }
                }),
            }
        }
        3 => {
            let (a, b) = (edge(rng), edge(rng));
            let (lo, hi) = (a.min(b), a.max(b));
            Pred {
                expr: Some(Expr::between(k(), Expr::int(lo), Expr::int(hi))),
                partition: None,
                keep: Box::new(move |r| (lo..=hi).contains(&int(r, K).unwrap())),
            }
        }
        4 => {
            // NULL tests prune all-NULL / NULL-free blocks by null count.
            let negated = rng.below(2) == 0;
            Pred {
                expr: Some(Expr::is_null(Expr::col(N, "n"), negated)),
                partition: None,
                keep: Box::new(move |r| r[N].is_null() != negated),
            }
        }
        5 => {
            // Partition pruning (the planner derives it from a conjunct it
            // also keeps) plus a bound on the run-length column.
            let (p, g) = (rng.below(3) as i64, rng.below(14) as i64);
            Pred {
                expr: Some(Expr::and(
                    Expr::eq(Expr::col(P, "p"), Expr::int(p)),
                    Expr::binary(BinOp::Ge, Expr::col(G, "g"), Expr::int(g)),
                )),
                partition: Some(Expr::eq(Expr::col(0, "p"), Expr::int(p))),
                keep: Box::new(move |r| int(r, P) == Some(p) && int(r, G).unwrap() >= g),
            }
        }
        6 => {
            // Unsorted column: scattered surviving blocks, non-adjacent runs.
            let lit = rng.below(4000) as f64 * 0.25;
            let from = edge(rng).min(30_000);
            Pred {
                expr: Some(Expr::and(
                    Expr::binary(BinOp::Lt, Expr::col(F, "f"), Expr::lit(Value::Float(lit))),
                    Expr::binary(BinOp::Ge, k(), Expr::int(from)),
                )),
                partition: None,
                keep: Box::new(move |r| r[F].as_f64().unwrap() < lit && int(r, K).unwrap() >= from),
            }
        }
        _ => {
            // Trickled range: the containers that straddle the snapshot.
            let lo = 60_000 + rng.below(2_000) as i64;
            Pred {
                expr: Some(Expr::binary(BinOp::Ge, k(), Expr::int(lo))),
                partition: None,
                keep: Box::new(move |r| int(r, K).unwrap() >= lo),
            }
        }
    }
}

const ALL_COLUMNS: [usize; ARITY] = [K, G, S, F, N, P, A, B, T, Y, Z];

fn scan_plan(pred: &Pred) -> PhysicalPlan {
    PhysicalPlan::Scan {
        projection: FACT.into(),
        output_columns: ALL_COLUMNS.to_vec(),
        predicate: pred.expr.clone(),
        partition_predicate: pred.partition.clone(),
        sip: vec![],
    }
}

fn parallel_plan(pred: &Pred, stage: ParallelStage, threads: usize) -> PhysicalPlan {
    PhysicalPlan::ParallelScan {
        projection: FACT.into(),
        output_columns: ALL_COLUMNS.to_vec(),
        predicate: pred.expr.clone(),
        partition_predicate: pred.partition.clone(),
        sip: vec![],
        stage,
        threads,
    }
}

fn lane_counts() -> Vec<usize> {
    vec![1, 2, 7, ExecOptions::from_env().threads]
}

/// `assert_eq!` for row lists that may hold tens of thousands of rows:
/// says how many and where the first difference is instead of printing both.
fn assert_rows_eq(got: &[Row], want: &[Row], what: &str) {
    if got == want {
        return;
    }
    let at = got.iter().zip(want).position(|(g, w)| g != w);
    panic!(
        "{what}: {} rows vs {} expected; first difference at {at:?}: {:?} vs {:?}",
        got.len(),
        want.len(),
        at.map(|i| &got[i]),
        at.map(|i| &want[i]),
    );
}

/// The counters that describe pruning and reading, which the morsel cut
/// and the worker count must not move.
fn pruning_counters(s: &ScanStats) -> [u64; 7] {
    [
        s.containers_total as u64,
        s.containers_pruned_partition as u64,
        s.containers_pruned_minmax as u64,
        s.blocks_total as u64,
        s.blocks_pruned as u64,
        s.rows_scanned,
        s.rows_after_predicate,
    ]
}

/// Oracle (a): every column of every container, decoded from ranged reads
/// of arbitrary block runs, equals the decode of its whole file.
fn check_range_reads_equal_whole_file(fx: &Fixture, rng: &mut Rng) {
    let seed = fx.seed;
    let backend = fx.store.backend().as_ref();
    for container in fx.store.containers() {
        let n_blocks = container.block_count();
        for (col, index) in container.indexes.iter().enumerate() {
            let whole = container.read_column_bytes(backend, col).unwrap();
            let reference = ColumnReader::new(&whole, index);
            for _ in 0..4 {
                let lo = rng.below(n_blocks as u64) as usize;
                let hi = (lo + 1 + rng.below(5) as usize).min(n_blocks);
                let chunk = container.read_blocks(backend, col, lo..hi).unwrap();
                let ranged = chunk.reader(index);
                for b in lo..hi {
                    assert_eq!(
                        ranged.read_block(b).unwrap(),
                        reference.read_block(b).unwrap(),
                        "seed={seed} {} column {col} block {b} of {lo}..{hi}",
                        container.id
                    );
                    // Selection-pushdown decode agrees on the selected rows.
                    let count = index.blocks[b].count;
                    let sel: Vec<u32> = (0..count).filter(|i| i % 7 == (b as u32) % 7).collect();
                    let (got, _) = ranged.read_block_native_selected(b, Some(&sel)).unwrap();
                    let (want, _) = reference.read_block_native_selected(b, Some(&sel)).unwrap();
                    let got = got.into_decoded().into_values();
                    let want = want.into_decoded().into_values();
                    for &i in &sel {
                        assert_eq!(
                            got[i as usize], want[i as usize],
                            "seed={seed} {} column {col} block {b} row {i}",
                            container.id
                        );
                    }
                }
                // Blocks outside the chunk are errors, not garbage.
                if lo > 0 {
                    assert!(ranged.read_block(lo - 1).is_err(), "seed={seed}");
                }
            }
            assert_eq!(
                container.read_column(backend, col).unwrap(),
                reference.read_all().unwrap(),
                "seed={seed} {} column {col}",
                container.id
            );
        }
    }
}

/// Oracles (b) and (c) for one predicate at one snapshot.
fn check_scans(fx: &Fixture, pred: &Pred, snapshot: u64) {
    let seed = fx.seed;
    let what = format!("seed={seed} snapshot={snapshot} pred={:?}", pred.expr);
    // Serial scan, with its counters.
    let snap = fx.store.scan_snapshot(Epoch(snapshot));
    let mut serial_op = ScanOperator::new(
        fx.store.backend().clone(),
        snap.containers.clone(),
        snap.wos_rows.clone(),
        ALL_COLUMNS.to_vec(),
        pred.expr.clone(),
        pred.partition.clone(),
        vec![],
    );
    let serial_stats = serial_op.stats();
    let serial = collect_rows(&mut serial_op).unwrap();
    let serial_stats = serial_stats.lock().clone();
    // ... against the model (multiset: the model does not know the
    // container layout).
    let mut sorted = serial.clone();
    sorted.sort();
    let model = fx.model_rows(snapshot, &ALL_COLUMNS, &pred.keep);
    assert_rows_eq(&sorted, &model, &format!("{what}: serial scan vs model"));
    assert!(
        serial_stats.blocks_pruned <= serial_stats.blocks_total,
        "{what}"
    );
    assert!(serial_stats.rows_scanned >= serial.len() as u64, "{what}");
    // The plan path builds the same scan.
    let planned = execute_collect(&scan_plan(pred), &mut fx.ctx(snapshot)).unwrap();
    assert_rows_eq(&planned, &serial, &format!("{what}: plan vs operator"));

    let aggs = vec![
        AggCall::new(AggFunc::CountStar, K, "cnt"),
        AggCall::new(AggFunc::Sum, F, "sum"),
        AggCall::new(AggFunc::Min, N, "min"),
        AggCall::new(AggFunc::Max, K, "max"),
    ];
    let serial_groupby = execute_collect(
        &PhysicalPlan::HashGroupBy {
            input: Box::new(scan_plan(pred)),
            group_columns: vec![S],
            aggs: aggs.clone(),
        },
        &mut fx.ctx(snapshot),
    )
    .unwrap();
    // `k` is unique, so (s asc, k desc) is a total order.
    let keys = vec![SortKey::asc(S), SortKey::desc(K)];
    let serial_sort = execute_collect(
        &PhysicalPlan::Sort {
            input: Box::new(scan_plan(pred)),
            keys: keys.clone(),
        },
        &mut fx.ctx(snapshot),
    )
    .unwrap();

    for threads in lane_counts() {
        let what = format!("{what} threads={threads}");
        let spec = ParallelScanSpec {
            backend: fx.store.backend().clone(),
            output_columns: ALL_COLUMNS.to_vec(),
            predicate: pred.expr.clone(),
            partition_predicate: pred.partition.clone(),
            sip: vec![],
        };
        let mut op = ParallelScanOp::new(
            spec,
            ParallelStage::Collect,
            snap.clone(),
            threads,
            MemoryBudget::unlimited(),
        );
        let stats = op.stats();
        let collected = collect_rows(&mut op).unwrap();
        assert_rows_eq(
            &collected,
            &serial,
            &format!("{what}: Collect, row for row"),
        );
        assert_eq!(
            pruning_counters(&stats.lock()),
            pruning_counters(&serial_stats),
            "{what}: ScanStats"
        );
        assert!(op.threads_used() <= threads.max(1), "{what}");
        let stage = ParallelStage::GroupBy {
            group_columns: vec![S],
            aggs: aggs.clone(),
            sorted: false,
        };
        let got = execute_collect(&parallel_plan(pred, stage, threads), &mut fx.ctx(snapshot));
        assert_rows_eq(&got.unwrap(), &serial_groupby, &format!("{what}: GroupBy"));
        let stage = ParallelStage::Sort { keys: keys.clone() };
        let got = execute_collect(&parallel_plan(pred, stage, threads), &mut fx.ctx(snapshot));
        assert_rows_eq(&got.unwrap(), &serial_sort, &format!("{what}: Sort"));
    }
}

/// The sort-order prefixes oracle (d) groups on: RLE runs with and without
/// a NULL run, then a dictionary column, then a typed timestamp under them.
const KEY_SHAPES: [&[usize]; 4] = [&[G], &[A], &[A, B], &[A, B, T]];

/// What a user would write: every aggregate over every kind of input, on
/// data whose sums are exact in any order.
fn user_aggs() -> Vec<AggCall> {
    let agg = |func, input| AggCall::new(func, input, format!("{func:?}_{input}"));
    vec![
        agg(AggFunc::CountStar, K),
        agg(AggFunc::Count, N),
        agg(AggFunc::Sum, F),
        agg(AggFunc::Avg, F),
        agg(AggFunc::Min, F),
        agg(AggFunc::Sum, N),
        agg(AggFunc::Avg, N),
        agg(AggFunc::Max, N),
        agg(AggFunc::Avg, T),
        agg(AggFunc::Min, T),
        agg(AggFunc::Max, S),
        agg(AggFunc::Min, B),
        agg(AggFunc::Count, Z),
        agg(AggFunc::Sum, Z),
        agg(AggFunc::Avg, Z),
        agg(AggFunc::Min, Z),
    ]
}

/// One aggregate over one group's values, written without the engine.
fn model_agg(func: AggFunc, values: &[&Value]) -> Value {
    let present: Vec<&Value> = values.iter().copied().filter(|v| !v.is_null()).collect();
    let sum = || present.iter().map(|v| v.as_f64().unwrap()).sum::<f64>();
    match func {
        AggFunc::CountStar => Value::Integer(values.len() as i64),
        AggFunc::Count => Value::Integer(present.len() as i64),
        _ if present.is_empty() => Value::Null,
        AggFunc::Sum if present.iter().all(|v| matches!(v, Value::Integer(_))) => {
            Value::Integer(present.iter().map(|v| v.as_i64().unwrap()).sum())
        }
        AggFunc::Sum => Value::Float(sum()),
        AggFunc::Avg => Value::Float(sum() / present.len() as f64),
        AggFunc::Min => (*present.iter().min().unwrap()).clone(),
        AggFunc::Max => (*present.iter().max().unwrap()).clone(),
        other => unreachable!("{other:?} is not asked for"),
    }
}

/// Oracle (d) for one predicate, snapshot and key shape.
fn check_sorted_groupby(fx: &Fixture, pred: &Pred, snapshot: u64, keys: &[usize]) {
    use vdb_exec::groupby::two_phase_aggs;
    let what = format!(
        "seed={} snapshot={snapshot} pred={:?} keys={keys:?}",
        fx.seed, pred.expr
    );
    let g = keys.len();
    let aggs = user_aggs();
    // The model: rows in `k` order are in key order.
    let rows = fx.model_rows(snapshot, &ALL_COLUMNS, &pred.keep);
    let mut groups: BTreeMap<Row, Vec<&Row>> = BTreeMap::new();
    for row in &rows {
        let key: Row = keys.iter().map(|&c| row[c].clone()).collect();
        groups.entry(key).or_default().push(row);
    }
    let model: Vec<Row> = groups
        .into_iter()
        .map(|(mut key, members)| {
            key.extend(aggs.iter().map(|a| {
                let values: Vec<&Value> = members.iter().map(|r| &r[a.input]).collect();
                model_agg(a.func, &values)
            }));
            key
        })
        .collect();
    // The hash group-by, single-phase.
    let hash = execute_collect(
        &PhysicalPlan::HashGroupBy {
            input: Box::new(scan_plan(pred)),
            group_columns: keys.to_vec(),
            aggs: aggs.clone(),
        },
        &mut fx.ctx(snapshot),
    )
    .unwrap();
    assert_rows_eq(&hash, &model, &format!("{what}: hash group-by vs model"));
    // The plan the optimizer builds: streaming partials per node, merged
    // by the initiator (`PlannedQuery::merge_plan`).
    let (partial, merge_aggs, project) = two_phase_aggs(g, &aggs).unwrap();
    let merged = |partials: Vec<Row>| {
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::HashGroupBy {
                input: Box::new(PhysicalPlan::Values {
                    rows: partials,
                    arity: g + partial.len(),
                }),
                group_columns: (0..g).collect(),
                aggs: merge_aggs.clone(),
            }),
            exprs: project.clone(),
        };
        execute_collect(&plan, &mut fx.ctx(snapshot)).unwrap()
    };
    let serial = execute_collect(
        &PhysicalPlan::PipelinedGroupBy {
            input: Box::new(scan_plan(pred)),
            group_columns: keys.to_vec(),
            aggs: partial.clone(),
        },
        &mut fx.ctx(snapshot),
    )
    .unwrap();
    assert!(serial.len() >= model.len(), "{what}");
    assert_rows_eq(
        &merged(serial.clone()),
        &model,
        &format!("{what}: streaming + initiator merge vs model"),
    );
    let sorted_stage = |aggs: &[AggCall], threads: usize| {
        let stage = ParallelStage::GroupBy {
            group_columns: keys.to_vec(),
            aggs: aggs.to_vec(),
            sorted: true,
        };
        execute_collect(&parallel_plan(pred, stage, threads), &mut fx.ctx(snapshot)).unwrap()
    };
    for threads in lane_counts() {
        // Keys that start over in the next container stay separate rows on
        // both sides; the initiator folds them.
        assert_rows_eq(
            &sorted_stage(&partial, threads),
            &serial,
            &format!("{what} threads={threads}: sorted stage vs serial streaming"),
        );
    }
    // Inexact sums: partials meet in morsel order, so the bits do not
    // depend on the DoP (≥ 2) or on the run.
    let inexact = [
        AggCall::new(AggFunc::Sum, Y, "sum_y"),
        AggCall::new(AggFunc::SumFloat, Y, "avg_y_partial"),
    ];
    let two = sorted_stage(&inexact, 2);
    assert_eq!(two.len(), serial.len(), "{what}");
    for run in 0..2 {
        assert_rows_eq(
            &sorted_stage(&inexact, 7),
            &two,
            &format!("{what}: float SUM bits at DoP 7 (run {run}) vs DoP 2"),
        );
    }
}

/// `ParallelHashJoin` ≡ `HashJoin` over the block-range probe side.
fn check_join(fx: &Fixture, pred: &Pred, snapshot: u64, join_type: JoinType) {
    let probe = PhysicalPlan::Scan {
        projection: FACT.into(),
        output_columns: vec![G, K, F],
        predicate: None,
        partition_predicate: pred.partition.clone(),
        sip: vec![(0, vec![0])],
    };
    let build = PhysicalPlan::Scan {
        projection: DIM.into(),
        output_columns: vec![0, 1],
        predicate: None,
        partition_predicate: None,
        sip: vec![],
    };
    let serial = execute_collect(
        &PhysicalPlan::HashJoin {
            left: Box::new(probe.clone()),
            right: Box::new(build.clone()),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type,
            sip: Some(0),
        },
        &mut fx.ctx(snapshot),
    )
    .unwrap();
    for threads in lane_counts() {
        let parallel = PhysicalPlan::ParallelHashJoin {
            left: Box::new(probe.clone()),
            right: Box::new(build.clone()),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type,
            sip: Some(0),
            probe_threads: threads,
            build_threads: threads.min(2),
            stage: ParallelStage::Collect,
        };
        assert_rows_eq(
            &execute_collect(&parallel, &mut fx.ctx(snapshot)).unwrap(),
            &serial,
            &format!(
                "seed={} snapshot={snapshot} {join_type:?} threads={threads}",
                fx.seed
            ),
        );
    }
}

fn check_seed(seed: u64) {
    let fx = build_fixture(seed, Arc::new(MemBackend::new()));
    let mut rng = Rng(seed ^ 0x5EED);
    // The layout the suite is about really is there.
    let blocks: Vec<usize> = fx.store.containers().map(|c| c.block_count()).collect();
    assert!(
        blocks.iter().any(|&b| b > MORSEL_BLOCKS),
        "seed={seed}: some container is longer than a morsel ({blocks:?})"
    );
    assert!(fx.store.morsel_count() > fx.store.container_count() + 1);
    let straddles = |snapshot: u64| {
        let snap = fx.store.scan_snapshot(Epoch(snapshot));
        snap.containers.iter().any(|sc| {
            let epochs = &sc.container.indexes[sc.epoch_column()].blocks;
            sc.visibility() == Visibility::PerRow
                && epochs.iter().any(|b| {
                    b.min.as_i64().unwrap() <= snapshot as i64
                        && (snapshot as i64) < b.max.as_i64().unwrap()
                })
        })
    };
    assert!(straddles(3), "seed={seed}: a block straddles snapshot 3");
    assert!(
        fx.store
            .containers()
            .any(|c| c.indexes[N].blocks.iter().any(|b| b.null_count == b.count)),
        "seed={seed}: an all-NULL block exists"
    );
    check_range_reads_equal_whole_file(&fx, &mut rng);
    let mut shapes = Rng(seed ^ 0x50F7);
    for _ in 0..4 {
        let pred = arb_pred(&fx, &mut rng);
        let snapshot = rng.pick(&[1u64, 2, 3, 3, 4, 5, 6]);
        check_scans(&fx, &pred, snapshot);
        check_sorted_groupby(&fx, &pred, snapshot, shapes.pick(&KEY_SHAPES));
    }
    let pred = arb_pred(&fx, &mut rng);
    let join_type = rng.pick(&[
        JoinType::Inner,
        JoinType::LeftOuter,
        JoinType::Semi,
        JoinType::Anti,
    ]);
    check_join(&fx, &pred, rng.pick(&[3u64, 6]), join_type);
}

/// Oracle (a) with the encoding of every column pinned: one container
/// whose columns use each concrete encoding once, NULL-free, NULL-bearing
/// and all-NULL blocks included, read back over every block range.
#[test]
fn every_encoding_decodes_from_ranged_reads() {
    use vdb_storage::{ContainerId, RosContainer};
    const ENCODINGS: [EncodingType; 8] = [
        EncodingType::Plain,
        EncodingType::Rle,
        EncodingType::DeltaValue,
        EncodingType::BlockDict,
        EncodingType::DeltaRange,
        EncodingType::CommonDelta,
        EncodingType::ForBitPack,
        EncodingType::DeltaDelta,
    ];
    for seed in SEED_CORPUS {
        let mut rng = Rng(seed);
        let columns: Vec<ColumnDef> = (0..ENCODINGS.len())
            .map(|c| ColumnDef::new(format!("c{c}"), DataType::Integer))
            .collect();
        let schema = TableSchema::new("e", columns);
        let mut def = ProjectionDef::super_projection(&schema, "e_all", &[0], &[]);
        def.encodings = ENCODINGS.to_vec();
        // 4 blocks and a short fifth; block 2 is all-NULL in the odd
        // columns, one row in eleven is NULL there elsewhere.
        let n = 4 * BLOCK_SIZE as i64 + 77;
        let rows: Vec<Row> = (0..n)
            .map(|i| {
                (0..ENCODINGS.len() as i64)
                    .map(|c| {
                        let all_null = c % 2 == 1 && i / BLOCK_SIZE as i64 == 2;
                        if c > 0 && (all_null || (c % 2 == 1 && rng.below(11) == 0)) {
                            Value::Null
                        } else {
                            // Sorted, run-heavy and small-range enough for
                            // every codec to apply.
                            Value::Integer(i / (1 + 40 * c) + c)
                        }
                    })
                    .collect()
            })
            .collect();
        let backend = MemBackend::new();
        let c =
            RosContainer::write(&backend, &def, ContainerId(1), &rows, Epoch(1), None, 0).unwrap();
        for (col, want) in ENCODINGS.iter().enumerate() {
            let index = &c.indexes[col];
            assert!(
                index.blocks.iter().any(|b| b.encoding == *want),
                "seed={seed}: column {col} never used {want:?}"
            );
            let whole = c.read_column_bytes(&backend, col).unwrap();
            let reference = ColumnReader::new(&whole, index);
            let n_blocks = c.block_count();
            for lo in 0..n_blocks {
                for hi in lo + 1..=n_blocks {
                    let chunk = c.read_blocks(&backend, col, lo..hi).unwrap();
                    for b in lo..hi {
                        assert_eq!(
                            chunk.reader(index).read_block(b).unwrap(),
                            reference.read_block(b).unwrap(),
                            "seed={seed} {want:?} block {b} of {lo}..{hi}"
                        );
                    }
                }
            }
        }
        assert!(c.indexes[1].blocks[2].null_count == c.indexes[1].blocks[2].count);
    }
}

#[test]
fn seed_corpus_replays() {
    for seed in SEED_CORPUS {
        check_seed(seed);
    }
}

/// Oracle (a) again on the file system: `pread` of a block run is the same
/// bytes as the slice of the whole file.
#[test]
fn ranged_reads_equal_whole_file_on_the_file_system() {
    let dir = std::env::temp_dir().join(format!("vdb-block-range-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for seed in SEED_CORPUS {
        let root = dir.join(format!("{seed}"));
        let fx = build_fixture(seed, Arc::new(FsBackend::new(&root).unwrap()));
        check_range_reads_equal_whole_file(&fx, &mut Rng(seed));
        let pred = arb_pred(&fx, &mut Rng(seed));
        check_scans(&fx, &pred, 3);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn block_range_scans_equal_whole_file_scans(seed in any::<u64>()) {
        check_seed(seed);
    }
}
