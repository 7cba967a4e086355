//! The join-core oracle: one columnar hash-join core serves the serial
//! `HashJoinOp` and the morsel-parallel `ParallelHashJoinOp`, and neither
//! the key family, the column representation, the degree of parallelism,
//! the stage run inside the probe workers nor the memory budget may change
//! an answer.
//!
//! Every case is generated from one `u64` seed — printed by every
//! assertion, replayable by adding it to [`SEED_CORPUS`]. Both sides are
//! projections with several containers, delete vectors and a WOS tail
//! (plain values), whose key columns arrive as typed `Int64`, `Timestamp`,
//! `Float64` and `Bool` vectors, dictionary-coded strings, or — for the
//! integer key of a projection sorted on it — RLE runs. For every key
//! pairing of [`KEY_SPECS`] (same family, Integer ⋈ Timestamp, Integer ⋈
//! integral Float, Boolean ⋈ Integer, multi-column, a pairing that can
//! never match), with NULL keys and multi-match keys on both sides:
//!
//! * INNER/LEFT/SEMI/ANTI: the parallel operator at DoP 1/2/7/env equals
//!   the serial operator **row for row, in order**, which equals a
//!   nested-loop model over the two serial scans (so per-key match *order*
//!   is compared, not just the multiset); RIGHT/FULL: serial equals model;
//! * `HashGroupBy{HashJoin}` equals the join carrying a `GroupBy` stage in
//!   its probe workers equals the aggregated model, for COUNT/SUM/MIN/MAX/
//!   AVG and (barrier fallback) COUNT DISTINCT;
//! * the SIP filters both operators publish hold the same key hashes;
//! * a budget too small for the build side takes the `switched_to_serial`
//!   / `switched_to_merge` path and returns the in-memory answer.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use vdb_encoding::EncodingType;
use vdb_exec::aggregate::{AggCall, AggFunc};
use vdb_exec::groupby::HashGroupByOp;
use vdb_exec::join::{HashJoinOp, JoinType};
use vdb_exec::operator::collect_rows;
use vdb_exec::parallel::{ExecOptions, ParallelScanSpec, ParallelStage};
use vdb_exec::parallel_join::{ParallelHashJoinOp, ParallelJoinSpec};
use vdb_exec::scan::{ScanOperator, SipBinding};
use vdb_exec::{MemoryBudget, SipFilter};
use vdb_storage::projection::ProjectionDef;
use vdb_storage::{MemBackend, ProjectionStore};
use vdb_types::{ColumnDef, DataType, Epoch, Row, TableSchema, Value};

/// Seeds that once failed, or that pin a shape worth keeping. Add a
/// printed seed here to replay it.
const SEED_CORPUS: [u64; 4] = [0, 1, 2, 0x10ED_C0DE_5EED_0018];

/// Columns of both projections.
const KI: usize = 0; // Integer key, 0..6 or NULL
const KT: usize = 1; // Timestamp key over the same values
const KF: usize = 2; // Float key: the same integers, or a half
const KB: usize = 3; // Boolean key
const KS: usize = 4; // Varchar key from a small set
const V: usize = 5; // unique per row
const G: usize = 6; // v % 4: a second key part, and the group column
const ARITY: usize = 7;

/// `(probe key columns, build key columns)`.
type Keys = (&'static [usize], &'static [usize]);

const KEY_SPECS: [Keys; 14] = [
    (&[KI], &[KI]),
    (&[KT], &[KT]),
    (&[KF], &[KF]),
    (&[KB], &[KB]),
    (&[KS], &[KS]),
    (&[KI], &[KT]),
    (&[KT], &[KI]),
    (&[KI], &[KF]),
    (&[KF], &[KI]),
    (&[KB], &[KI]),
    (&[KI], &[KB]),
    (&[KI, KS], &[KI, KS]),
    (&[KT, G], &[KI, G]),
    (&[KS], &[KI]),
];

const ALL_FLAVORS: [JoinType; 6] = [
    JoinType::Inner,
    JoinType::LeftOuter,
    JoinType::Semi,
    JoinType::Anti,
    JoinType::RightOuter,
    JoinType::FullOuter,
];

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

    /// `make(x)` for a small `x`, or NULL one time in `null_one_in`.
    fn nullable(&mut self, null_one_in: u64, make: impl FnOnce(i64) -> Value) -> Value {
        match self.below(null_one_in) {
            0 => Value::Null,
            _ => make(self.below(6) as i64),
        }
    }
}

fn random_row(v: i64, rng: &mut Rng) -> Row {
    vec![
        rng.nullable(7, Value::Integer),
        rng.nullable(7, Value::Timestamp),
        // Integral floats meet the integer keys; the halves meet nothing.
        rng.nullable(7, |x| Value::Float(x as f64 * 0.5 + 1.0)),
        rng.nullable(5, |x| Value::Boolean(x % 2 == 0)),
        rng.nullable(6, |x| {
            Value::Varchar(["a", "b", "ab", "", "c", "1"][x as usize].into())
        }),
        Value::Integer(v),
        Value::Integer(v % 4),
    ]
}

/// One side: `rows` random rows over `chunks` containers, a WOS tail, and
/// about one ROS row in six deleted. Sorted on the integer key (which then
/// arrives as RLE runs) or on `v` (typed vectors).
fn build_store(name: &str, rows: usize, chunks: usize, rng: &mut Rng) -> ProjectionStore {
    let types = [
        ("ki", DataType::Integer),
        ("kt", DataType::Timestamp),
        ("kf", DataType::Float),
        ("kb", DataType::Boolean),
        ("ks", DataType::Varchar),
        ("v", DataType::Integer),
        ("g", DataType::Integer),
    ];
    let columns = types.iter().map(|(n, ty)| ColumnDef::new(*n, *ty));
    let schema = TableSchema::new("t", columns.collect());
    let sort_on_key = rng.below(2) == 0;
    let sort = [if sort_on_key { KI } else { V }];
    let mut def = ProjectionDef::super_projection(&schema, name, &sort, &[]);
    if sort_on_key {
        def.encodings[KI] = EncodingType::Rle;
    }
    let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
    let all: Vec<Row> = (0..rows as i64).map(|v| random_row(v, rng)).collect();
    for chunk in all.chunks(rows.div_ceil(chunks).max(1)) {
        store.insert_direct_ros(chunk.to_vec(), Epoch(1)).unwrap();
    }
    let tail: Vec<Row> = (0..rng.below(4) as i64)
        .map(|i| random_row(100_000 + i, rng))
        .collect();
    if !tail.is_empty() {
        store.insert_wos(tail, Epoch(2)).unwrap();
    }
    let locations: Vec<_> = store
        .visible_rows_with_locations(Epoch(1))
        .unwrap()
        .into_iter()
        .map(|(loc, _)| loc)
        .collect();
    for loc in locations {
        if rng.below(6) == 0 {
            store.mark_deleted(loc, Epoch(2)).unwrap();
        }
    }
    store
}

struct Fixture {
    seed: u64,
    probe: ProjectionStore,
    build: ProjectionStore,
    /// The two serial scans' rows, in scan order: the model's inputs.
    probe_rows: Vec<Row>,
    build_rows: Vec<Row>,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let mut rng = Rng(seed);
        let (probe_n, build_n) = (1 + rng.below(300) as usize, rng.below(120) as usize);
        let (probe_chunks, build_chunks) = (1 + rng.below(5) as usize, 1 + rng.below(3) as usize);
        let probe = build_store("t_probe", probe_n, probe_chunks, &mut rng);
        let build = build_store("t_build", build_n, build_chunks, &mut rng);
        let probe_rows = collect_rows(&mut scan_of(&probe, vec![])).unwrap();
        let build_rows = collect_rows(&mut scan_of(&build, vec![])).unwrap();
        Fixture {
            seed,
            probe,
            build,
            probe_rows,
            build_rows,
        }
    }
}

fn spec_of(store: &ProjectionStore, sip: Vec<SipBinding>) -> ParallelScanSpec {
    let mut spec = ParallelScanSpec::new(store.backend().clone(), (0..ARITY).collect());
    spec.sip = sip;
    spec
}

fn scan_of(store: &ProjectionStore, sip: Vec<SipBinding>) -> ScanOperator {
    let snapshot = store.scan_snapshot(Epoch(2));
    ScanOperator::new(
        store.backend().clone(),
        snapshot.containers,
        snapshot.wos_rows,
        (0..ARITY).collect(),
        None,
        None,
        sip,
    )
}

/// One join to run: keys, flavor, budget, and whether the probe scan
/// consumes the SIP filter the join publishes.
#[derive(Clone, Copy)]
struct Case {
    keys: Keys,
    jt: JoinType,
    budget: MemoryBudget,
    sip: bool,
}

impl Case {
    fn sip(&self) -> (Option<Arc<SipFilter>>, Vec<SipBinding>) {
        // SIP is only sound for flavors that drop non-matching probe rows.
        if !(self.sip && matches!(self.jt, JoinType::Inner | JoinType::Semi)) {
            return (None, vec![]);
        }
        let filter = SipFilter::new();
        let binding = SipBinding {
            filter: filter.clone(),
            key_columns: self.keys.0.to_vec(),
        };
        (Some(filter), vec![binding])
    }
}

fn serial_op(fx: &Fixture, case: Case) -> (HashJoinOp, Option<Arc<SipFilter>>) {
    let (filter, bindings) = case.sip();
    let op = HashJoinOp::new(
        Box::new(scan_of(&fx.probe, bindings)),
        Box::new(scan_of(&fx.build, vec![])),
        case.keys.0.to_vec(),
        case.keys.1.to_vec(),
        case.jt,
        case.budget,
        filter.clone(),
    )
    .with_arities(ARITY, ARITY);
    (op, filter)
}

fn parallel_op(
    fx: &Fixture,
    case: Case,
    threads: usize,
) -> (ParallelHashJoinOp, Option<Arc<SipFilter>>) {
    let (filter, bindings) = case.sip();
    let op = ParallelHashJoinOp::new(
        ParallelJoinSpec {
            probe: spec_of(&fx.probe, bindings),
            probe_snapshot: fx.probe.scan_snapshot(Epoch(2)),
            probe_threads: threads,
            build: spec_of(&fx.build, vec![]),
            build_snapshot: fx.build.scan_snapshot(Epoch(2)),
            build_threads: threads,
            left_keys: case.keys.0.to_vec(),
            right_keys: case.keys.1.to_vec(),
            join_type: case.jt,
            sip: filter.clone(),
        },
        case.budget,
    );
    (op, filter)
}

fn lane_counts() -> Vec<usize> {
    vec![1, 2, 7, ExecOptions::from_env().threads]
}

/// The key of `row` over `cols`; `None` when any part is NULL.
fn key_of(row: &Row, cols: &[usize]) -> Option<Vec<Value>> {
    cols.iter()
        .map(|&c| (!row[c].is_null()).then(|| row[c].clone()))
        .collect()
}

/// Nested-loop join of the two serial scans, in probe order, matches of
/// one probe row in build order, unmatched build rows last.
fn model_join(fx: &Fixture, keys: Keys, jt: JoinType) -> Vec<Row> {
    let nulls = vec![Value::Null; ARITY];
    let mut matched = vec![false; fx.build_rows.len()];
    let mut out = Vec::new();
    for p in &fx.probe_rows {
        let pk = key_of(p, keys.0);
        let hits: Vec<usize> = (0..fx.build_rows.len())
            .filter(|&i| pk.is_some() && key_of(&fx.build_rows[i], keys.1) == pk)
            .collect();
        match jt {
            JoinType::Semi if !hits.is_empty() => out.push(p.clone()),
            JoinType::Anti if hits.is_empty() => out.push(p.clone()),
            JoinType::Semi | JoinType::Anti => {}
            _ => {
                for &i in &hits {
                    matched[i] = true;
                    out.push([p.as_slice(), &fx.build_rows[i]].concat());
                }
                let keep = matches!(jt, JoinType::LeftOuter | JoinType::FullOuter);
                if hits.is_empty() && keep {
                    out.push([p.as_slice(), &nulls].concat());
                }
            }
        }
    }
    if matches!(jt, JoinType::RightOuter | JoinType::FullOuter) {
        for (i, b) in fx.build_rows.iter().enumerate() {
            if !matched[i] {
                out.push([nulls.as_slice(), b].concat());
            }
        }
    }
    out
}

/// Row-for-row equality that reports the first difference, not two whole
/// join results.
#[track_caller]
fn assert_rows_eq(got: &[Row], expected: &[Row], what: &str) {
    let first = (0..got.len().max(expected.len())).find(|&i| got.get(i) != expected.get(i));
    if let Some(i) = first {
        panic!(
            "{what}: {} rows against {} expected, first difference at row {i}:\n  got      {:?}\n  expected {:?}",
            got.len(),
            expected.len(),
            got.get(i),
            expected.get(i)
        );
    }
}

/// Oracle 1: parallel ≡ serial ≡ model, row for row; SIP filters agree.
fn check_join(fx: &Fixture, case: Case) {
    let what = |who: &str| {
        format!(
            "seed {:#x}: {who}, {} on {:?} (sip {})",
            fx.seed,
            case.jt.name(),
            case.keys,
            case.sip
        )
    };
    let expected = model_join(fx, case.keys, case.jt);
    let (mut serial, serial_sip) = serial_op(fx, case);
    let got = collect_rows(&mut serial).unwrap();
    assert_rows_eq(&got, &expected, &what("serial vs model"));
    assert!(!serial.switched_to_merge(), "{}", what("unlimited budget"));
    if !matches!(
        case.jt,
        JoinType::Inner | JoinType::LeftOuter | JoinType::Semi | JoinType::Anti
    ) {
        return;
    }
    // Distinct non-NULL build keys under `Value` equality (Integer 1,
    // Timestamp 1 and Float 1.0 are one key, and hash alike).
    let distinct: BTreeSet<Vec<Value>> = fx
        .build_rows
        .iter()
        .filter_map(|b| key_of(b, case.keys.1))
        .collect();
    for threads in lane_counts() {
        let (mut parallel, parallel_sip) = parallel_op(fx, case, threads);
        let got = collect_rows(&mut parallel).unwrap();
        let who = format!("parallel x{threads} vs serial");
        assert_rows_eq(&got, &expected, &what(&who));
        assert!(!parallel.switched_to_serial(), "{}", what(&who));
        if let (Some(s), Some(p)) = (&serial_sip, &parallel_sip) {
            // Both hold one hash per distinct key and every key's hash:
            // the same set.
            assert_eq!(s.key_count(), Some(distinct.len()), "{}", what(&who));
            assert_eq!(p.key_count(), Some(distinct.len()), "{}", what(&who));
            for key in &distinct {
                let refs: Vec<&Value> = key.iter().collect();
                assert!(s.might_contain(&refs) && p.might_contain(&refs));
            }
        }
    }
}

/// Oracle 2: group-by above the join ≡ group-by stage inside it ≡ model.
fn check_group_by(fx: &Fixture, keys: Keys, jt: JoinType) {
    let group = ARITY + G; // the build side's `g`: NULL for unmatched rows
    let model_rows = model_join(fx, keys, jt);
    let mut groups: BTreeMap<Value, Vec<&Row>> = BTreeMap::new();
    for row in &model_rows {
        groups.entry(row[group].clone()).or_default().push(row);
    }
    let model: Vec<Row> = groups
        .iter()
        .map(|(g, rows)| {
            let vs: Vec<i64> = rows.iter().filter_map(|r| r[V].as_i64()).collect();
            let sum: i64 = vs.iter().sum();
            let distinct: BTreeSet<&Value> = rows
                .iter()
                .map(|r| &r[KI])
                .filter(|v| !v.is_null())
                .collect();
            vec![
                g.clone(),
                Value::Integer(rows.len() as i64),
                Value::Integer(sum),
                Value::Integer(*vs.iter().min().unwrap()),
                Value::Integer(*vs.iter().max().unwrap()),
                Value::Float(sum as f64 / vs.len() as f64),
                Value::Integer(distinct.len() as i64),
            ]
        })
        .collect();
    let decomposable = vec![
        AggCall::new(AggFunc::CountStar, 0, "cnt"),
        AggCall::new(AggFunc::Sum, V, "sum"),
        AggCall::new(AggFunc::Min, V, "min"),
        AggCall::new(AggFunc::Max, V, "max"),
        AggCall::new(AggFunc::Avg, V, "avg"),
    ];
    let count_distinct = vec![AggCall::new(AggFunc::CountDistinct, KI, "d")];
    let case = Case {
        keys,
        jt,
        budget: MemoryBudget::unlimited(),
        sip: false,
    };
    for (aggs, columns) in [(decomposable, 1..6), (count_distinct, 6..7)] {
        let expected: Vec<Row> = model
            .iter()
            .map(|r| [&r[..1], &r[columns.clone()]].concat())
            .collect();
        let mut above = HashGroupByOp::new(
            Box::new(serial_op(fx, case).0),
            vec![group],
            aggs.clone(),
            MemoryBudget::unlimited(),
        );
        let got = collect_rows(&mut above).unwrap();
        let what = format!(
            "seed {:#x}: {} on {keys:?}, {} aggregates",
            fx.seed,
            jt.name(),
            aggs.len()
        );
        assert_rows_eq(
            &got,
            &expected,
            &format!("{what}: group-by above the serial join"),
        );
        for threads in lane_counts() {
            let stage = ParallelStage::GroupBy {
                group_columns: vec![group],
                aggs: aggs.clone(),
                sorted: false,
            };
            let mut staged = parallel_op(fx, case, threads).0.with_stage(stage);
            let got = collect_rows(&mut staged).unwrap();
            let who = format!("{what}: stage in probe workers x{threads}");
            assert_rows_eq(&got, &expected, &who);
        }
    }
}

/// Oracle 3: a budget the build side does not fit takes the externalizing
/// path and still returns the in-memory answer (as a multiset: sort-merge
/// emits in key order).
fn check_tiny_budget(fx: &Fixture, keys: Keys, jt: JoinType) {
    let case = Case {
        keys,
        jt,
        budget: MemoryBudget::new(64),
        sip: false,
    };
    let mut expected = model_join(fx, keys, jt);
    expected.sort();
    // Three rows of seven columns plus their table share exceed 64 bytes.
    let overflows = fx.build_rows.len() >= 3;
    let what = format!(
        "seed {:#x}: {} on {keys:?}, 64-byte budget",
        fx.seed,
        jt.name()
    );
    let (mut serial, _) = serial_op(fx, case);
    let mut got = collect_rows(&mut serial).unwrap();
    got.sort();
    assert_rows_eq(&got, &expected, &format!("{what}: serial"));
    if overflows {
        assert!(
            serial.switched_to_merge(),
            "{what}: serial must externalize"
        );
    }
    if matches!(jt, JoinType::RightOuter | JoinType::FullOuter) {
        return;
    }
    for threads in [2, 7] {
        let (mut parallel, _) = parallel_op(fx, case, threads);
        let mut got = collect_rows(&mut parallel).unwrap();
        got.sort();
        assert_rows_eq(&got, &expected, &format!("{what}: parallel x{threads}"));
        if overflows && parallel.threads_used() != (1, 1) {
            assert!(parallel.switched_to_serial(), "{what}: x{threads}");
        }
    }
}

fn check_seed(seed: u64) {
    let fx = Fixture::new(seed);
    let mut rng = Rng(seed ^ 0x5EED);
    for keys in KEY_SPECS {
        for jt in ALL_FLAVORS {
            let case = Case {
                keys,
                jt,
                budget: MemoryBudget::unlimited(),
                sip: rng.below(2) == 0,
            };
            check_join(&fx, case);
        }
    }
    // The aggregate and budget oracles on a few pairings per seed.
    for _ in 0..3 {
        let keys = KEY_SPECS[rng.below(KEY_SPECS.len() as u64) as usize];
        for jt in [JoinType::Inner, JoinType::LeftOuter] {
            check_group_by(&fx, keys, jt);
        }
        let jt = ALL_FLAVORS[rng.below(6) as usize];
        check_tiny_budget(&fx, keys, jt);
    }
}

#[test]
fn seed_corpus() {
    for seed in SEED_CORPUS {
        check_seed(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn join_core_equals_model_across_operators(seed in any::<u64>()) {
        check_seed(seed);
    }
}
