//! Paper-claim integration tests: the evaluation-section *shapes*, and
//! the engine's own performance claims, asserted on every run.
//!
//! Exact counters — row pivots, pruning counters, codec byte ratios,
//! plan-cache and pool counters, recovered projections — are asserted in
//! every build, at small scales. Wall-clock ratios only mean something in
//! an optimized build, so they are asserted under `!cfg!(debug_assertions)`
//! only, at the scales their bounds were set at:
//!
//! ```sh
//! cargo test --release -p vdb_tests --test paper_claims
//! ```
//!
//! Every test holds one lock, so no timing overlaps another test's work
//! and the shared pool's counters see one test's traffic at a time.

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;
use vdb_encoding::{ColumnWriter, EncodingType};
use vdb_tests::workloads::{
    cluster, cstore7, exec_compressed, exec_expr, exec_parallel, exec_parallel_join, exec_vector,
    meter, random_ints, serve,
};
use vdb_types::{Row, Value};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Wall-clock bounds hold only in optimized builds.
fn timed() -> bool {
    !cfg!(debug_assertions)
}

/// `small` rows in a debug build, the bound's own scale in a release one.
fn rows(small: usize, release: usize) -> usize {
    if timed() {
        release
    } else {
        small
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A parallel plan must not lose to its serial counterpart: at least
/// break even with two cores; on one, lanes cannot overlap, so the bound
/// degrades to an overhead floor.
fn parallel_floor(multi_core: f64, one_core: f64) -> f64 {
    if cores() >= 2 {
        multi_core
    } else {
        one_core
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Best-of-`runs` wall time in ms of `f`, which times itself.
fn best_of(runs: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Best-of-`runs` wall times in ms of `a` and `b`, run alternately so
/// allocator or page-cache drift cannot bias one side. Each closure times
/// itself, so it can build its input off the clock.
fn race(runs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs {
        best_a = best_a.min(a());
        best_b = best_b.min(b());
    }
    (best_a, best_b)
}

/// Assert a measured ratio against its bound, printing it either way so a
/// `--nocapture` run shows the margin.
fn assert_bound(what: &str, value: f64, at_least: bool, bound: f64) {
    let op = if at_least { ">=" } else { "<=" };
    eprintln!("{what}: {value:.2} (bound {op} {bound})");
    let holds = if at_least {
        value >= bound
    } else {
        value <= bound
    };
    assert!(holds, "{what} = {value:.2}, bound {op} {bound}");
}

fn explain(db: &vdb_core::Engine, sql: &str) -> String {
    let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
    plan.rows.iter().map(|r| format!("{}\n", r[0])).collect()
}

/// Tables 1 and 2, in the paper's layout: lock compatibility (may a
/// requested mode be granted while another transaction holds a mode?) and
/// lock conversion (the mode a holder ends up with after requesting
/// another). Rows are requested modes, columns granted modes, both in
/// S, I, SI, X, T, U, O order.
#[test]
fn table1_2_lock_matrices() {
    let _guard = serial();
    use vdb_txn::locks::ALL_MODES;
    let table1 = [
        "Yes No  No  No  Yes Yes No",
        "No  Yes No  No  Yes Yes No",
        "No  No  No  No  Yes Yes No",
        "No  No  No  No  No  Yes No",
        "Yes Yes Yes No  Yes Yes No",
        "Yes Yes Yes Yes Yes Yes No",
        "No  No  No  No  No  No  No",
    ];
    let table2 = [
        "S  SI SI X  S  S  O",
        "SI I  SI X  I  I  O",
        "SI SI SI X  SI SI O",
        "X  X  X  X  X  X  O",
        "S  I  SI X  T  T  O",
        "S  I  SI X  T  U  O",
        "O  O  O  O  O  O  O",
    ];
    for (req, (row1, row2)) in ALL_MODES.iter().zip(table1.iter().zip(table2)) {
        let compatible: Vec<&str> = ALL_MODES
            .iter()
            .map(|&held| {
                if req.compatible_with(held) {
                    "Yes"
                } else {
                    "No"
                }
            })
            .collect();
        let converted: Vec<&str> = ALL_MODES
            .iter()
            .map(|&held| req.convert_from(held).name())
            .collect();
        let paper = |row: &'static str| row.split_whitespace().collect::<Vec<_>>();
        assert_eq!(compatible, paper(row1), "Table 1, requested {req}");
        assert_eq!(converted, paper(row2), "Table 2, requested {req}");
    }
}

/// Column footprint after the Database Designer's empirical encoding
/// choice (try everything, keep the smallest — §6.3), matching what a
/// DBD-designed projection would store.
fn auto_bytes(col: &[Value]) -> usize {
    let mut best = usize::MAX;
    for enc in EncodingType::CONCRETE
        .iter()
        .copied()
        .chain([EncodingType::Auto])
    {
        let mut w = ColumnWriter::new(enc);
        w.extend(col.iter().cloned());
        let (d, i) = w.finish();
        best = best.min(d.len() + i.encode().len());
    }
    best
}

/// Table 4a shape: Vertica < gzip+sort < gzip < raw.
#[test]
fn table4a_ordering_holds() {
    let _guard = serial();
    let ints = random_ints::generate(100_000, 42);
    let text = random_ints::as_text(&ints);
    let raw = text.len();
    let gz = vdb_compress::compress(text.as_bytes()).len();
    let mut sorted = ints.clone();
    sorted.sort_unstable();
    let gz_sorted = vdb_compress::compress(random_ints::as_text(&sorted).as_bytes()).len();
    let col: Vec<Value> = sorted.iter().map(|&v| Value::Integer(v)).collect();
    let vertica = auto_bytes(&col);
    assert!(gz < raw, "gzip-class compresses digit text");
    assert!(gz_sorted < gz, "sorting helps the byte compressor");
    assert!(
        vertica < gz_sorted,
        "type-aware encoding beats byte compression"
    );
    // Paper: Vertica ≈ 0.6 B/row at 1M; allow generous slack at 100k.
    assert!(
        (vertica as f64) / 100_000.0 < 2.0,
        "vertica B/row = {}",
        vertica as f64 / 100_000.0
    );
}

/// Table 4b shape: Vertica beats the byte compressor on meter data, and
/// the per-column story matches (metric tiny, value dominant).
#[test]
fn table4b_per_column_story() {
    let _guard = serial();
    let rows = meter::generate(60_000, &meter::scaled_config(60_000));
    let csv = meter::as_csv(&rows);
    let gz = vdb_compress::compress(csv.as_bytes()).len();
    let col = |c: usize| -> Vec<Value> { rows.iter().map(|r| r[c].clone()).collect() };
    let metric = auto_bytes(&col(0));
    let meter_b = auto_bytes(&col(1));
    let ts = auto_bytes(&col(2));
    let value = auto_bytes(&col(3));
    let total = metric + meter_b + ts + value;
    assert!(total < gz, "vertica {total} vs gzip-class {gz}");
    assert!(metric < meter_b.max(1) * 10, "metric column is tiny (RLE)");
    assert!(
        value > metric && value > ts,
        "value column dominates as in the paper (got metric={metric} ts={ts} value={value})"
    );
}

/// Table 3 shape: Vertica answers the 7-query suite faster in total and
/// uses less disk than the C-Store baseline.
#[test]
fn table3_shape_vertica_wins() {
    let _guard = serial();
    let (li, ord) = cstore7::generate(60_000, 7);
    let vertica = cstore7::setup_vertica(&li, &ord).unwrap();
    let cstore = cstore7::setup_cstore(li, ord).unwrap();
    let c = cstore7::constants();
    // Warm both once.
    for q in 1..=7 {
        let _ = vertica.query(&cstore7::vertica_sql(q, &c)).unwrap();
        let _ = cstore7::run_cstore(&cstore, q, &c).unwrap();
    }
    let t = std::time::Instant::now();
    for q in 1..=7 {
        let _ = cstore7::run_cstore(&cstore, q, &c).unwrap();
    }
    let cstore_total = t.elapsed();
    let t = std::time::Instant::now();
    for q in 1..=7 {
        let _ = vertica.query(&cstore7::vertica_sql(q, &c)).unwrap();
    }
    let vertica_total = t.elapsed();
    // Paper: ~1.9x total. The timing half of the claim only holds in
    // optimized builds — debug builds bury the vectorized engine under
    // per-Value overhead — so assert it under release only.
    if timed() {
        assert!(
            vertica_total.as_secs_f64() < cstore_total.as_secs_f64() * 0.95,
            "vertica {vertica_total:?} should beat cstore {cstore_total:?}"
        );
    }
    // Paper: 1987MB vs 949MB ≈ 2.1x.
    let disk_ratio = cstore.disk_bytes() as f64 / vertica.disk_bytes() as f64;
    assert!(
        disk_ratio > 1.2,
        "C-Store should need >1.2x Vertica's disk: {} vs {} bytes",
        cstore.disk_bytes(),
        vertica.disk_bytes()
    );
}

/// §8.1's feature list: the overheads Vertica added over the prototype all
/// exist here — NULLs, floats/varchars, deletes, ROS+WOS, transactions —
/// exercised in one pass.
#[test]
fn product_grade_features_coexist() {
    let _guard = serial();
    let db = vdb_core::Engine::builder().open().unwrap();
    db.execute("CREATE TABLE everything (i INT, f FLOAT, s VARCHAR, b BOOLEAN, t TIMESTAMP)")
        .unwrap();
    db.execute(
        "CREATE PROJECTION everything_super AS SELECT i, f, s, b, t FROM everything \
         ORDER BY i SEGMENTED BY HASH(i) ALL NODES",
    )
    .unwrap();
    db.execute(
        "INSERT INTO everything VALUES \
         (1, 1.5, 'x', TRUE, 1000), (2, NULL, NULL, FALSE, 2000), (NULL, 0.0, '', TRUE, NULL)",
    )
    .unwrap();
    let rows = db
        .query("SELECT COUNT(*), COUNT(i), COUNT(f), MIN(f), MAX(t) FROM everything")
        .unwrap();
    assert_eq!(
        rows[0],
        vec![
            Value::Integer(3),
            Value::Integer(2),
            Value::Integer(2),
            Value::Float(0.0),
            Value::Timestamp(2000),
        ]
    );
    db.execute("DELETE FROM everything WHERE i IS NULL")
        .unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM everything").unwrap()[0][0],
        Value::Integer(2)
    );
}

/// Figure 1: a table is stored as projections, and the optimizer answers a
/// query from the narrowest one that covers it.
#[test]
fn figure1_narrow_projection_is_chosen() {
    let _guard = serial();
    let db = vdb_core::Engine::builder().open().unwrap();
    db.execute("CREATE TABLE sales (sale_id INT, cust VARCHAR, price FLOAT, date TIMESTAMP)")
        .unwrap();
    db.execute(
        "CREATE PROJECTION sales_super AS SELECT sale_id, cust, price, date FROM sales \
         ORDER BY date SEGMENTED BY HASH(sale_id) ALL NODES",
    )
    .unwrap();
    db.execute(
        "CREATE PROJECTION sales_cust_price AS SELECT cust, price FROM sales \
         ORDER BY cust SEGMENTED BY HASH(cust) ALL NODES",
    )
    .unwrap();
    let data: Vec<Row> = (0..5_000i64)
        .map(|i| {
            vec![
                Value::Integer(i),
                Value::Varchar(format!("cust{}", i % 97)),
                Value::Float((i % 1000) as f64 / 10.0),
                Value::Timestamp(1_330_000_000 + i * 60),
            ]
        })
        .collect();
    db.load("sales", &data).unwrap();
    let sql = "SELECT cust, SUM(price) FROM sales GROUP BY cust";
    let plan = explain(&db, sql);
    assert!(plan.contains("sales_cust_price"), "{plan}");
    assert!(!plan.contains("sales_super"), "{plan}");
    assert_eq!(db.query(sql).unwrap().len(), 97);
}

/// Figure 2: a partitioned projection's containers split by partition and
/// local segment, and a partition predicate prunes whole containers.
#[test]
fn figure2_partition_pruning_counters() {
    let _guard = serial();
    use vdb_exec::scan::ScanOperator;
    use vdb_storage::partition::PartitionSpec;
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{ColumnDef, DataType, Epoch, Expr, TableSchema};

    const PER_MONTH: usize = 500;
    let schema = TableSchema::new(
        "sales",
        vec![
            ColumnDef::new("cid", DataType::Integer),
            ColumnDef::new("ts", DataType::Timestamp),
        ],
    );
    let def = ProjectionDef::super_projection(&schema, "sales_b0", &[1], &[0]);
    let spec = PartitionSpec::by_year_month(1, "ts");
    let mut store =
        ProjectionStore::new(def, Some(spec), 3, std::sync::Arc::new(MemBackend::new()));
    let mut data: Vec<Row> = Vec::new();
    for month in 3..=6u32 {
        for d in 0..PER_MONTH as i64 {
            let day = 1 + (d % 27) as u32;
            data.push(vec![
                Value::Integer(d * 7919 % 100_000),
                Value::Timestamp(vdb_types::date::timestamp_from_civil(
                    2012, month, day, 0, 0, 0,
                )),
            ]);
        }
    }
    store.insert_direct_ros(data, Epoch(1)).unwrap();
    let layout = vdb_storage::layout::render(&store);
    for month in 201203..=201206 {
        assert!(layout.contains(&format!("partition {month}")), "{layout}");
    }
    let april = Expr::eq(Expr::col(0, "pk"), Expr::int(201_204));
    let snap = store.scan_snapshot(Epoch(1));
    let mut scan = ScanOperator::new(
        store.backend().clone(),
        snap.containers,
        vec![],
        vec![0, 1],
        None,
        Some(april),
        vec![],
    );
    let stats = scan.stats();
    let got = vdb_exec::operator::collect_rows(&mut scan).unwrap();
    assert_eq!(got.len(), PER_MONTH);
    let s = stats.lock().clone();
    // 3 of 4 partitions pruned × 3 local segments.
    assert_eq!(
        (s.containers_pruned_partition, s.containers_total),
        (9, 12),
        "{s:?}"
    );
    assert_eq!(s.rows_scanned, PER_MONTH as u64, "{s:?}");
}

/// Figure 3: at `threads(4)` a group-by over a multi-container projection
/// runs as the morsel-parallel plan — partial GroupBys in the workers, a
/// merge barrier above them — and answers exactly what `threads(1)` does.
#[test]
fn figure3_parallel_groupby_plan() {
    let _guard = serial();
    let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE v > 0 GROUP BY g ORDER BY g";
    let mut answers = Vec::new();
    for threads in [1, 4] {
        let db = vdb_core::Engine::builder().threads(threads).open().unwrap();
        db.execute("CREATE TABLE t (g INT, v INT)").unwrap();
        db.execute(
            "CREATE PROJECTION t_super AS SELECT g, v FROM t ORDER BY v \
             SEGMENTED BY HASH(v) ALL NODES",
        )
        .unwrap();
        for chunk in 0..6i64 {
            let data: Vec<Row> = (chunk * 2000..(chunk + 1) * 2000)
                .map(|i| vec![Value::Integer(i % 1000), Value::Integer(i)])
                .collect();
            db.load("t", &data).unwrap();
        }
        let plan = explain(&db, sql);
        let parallel = plan.contains("ParallelScan t_super")
            && plan.contains("[morsels -> 4 threads, partial GroupBy keys=");
        assert_eq!(parallel, threads == 4, "threads({threads}):\n{plan}");
        answers.push(db.query(sql).unwrap());
    }
    assert_eq!(answers[0].len(), 1000);
    assert_eq!(answers[0], answers[1]);
}

/// The vectorized expression engine: a disjunctive filter and an
/// arithmetic + CASE projection, on typed and on run-length batches, agree
/// with the row-at-a-time path, pivot no row, and (optimized) run at least
/// twice as fast as it.
#[test]
fn vectorized_expressions_pivot_nothing_and_double_the_row_path() {
    let _guard = serial();
    use exec_expr::*;
    let n = rows(20_000, 1_000_000);
    let (typed, pivots) =
        run_vectorized(typed_batches(n), filter_pred(n), project_exprs()).unwrap();
    let row_path = run_row_path(plain_batches(n), filter_pred(n), project_exprs()).unwrap();
    assert_eq!(typed, row_path);
    let (rle, rle_pivots) = run_vectorized(rle_batches(n), rle_pred(), rle_exprs()).unwrap();
    assert_eq!(
        rle,
        run_row_path(rle_expanded_batches(n), rle_pred(), rle_exprs()).unwrap()
    );
    assert_eq!(pivots + rle_pivots, 0, "the columnar pipeline pivoted rows");
    if timed() {
        let (row_ms, vec_ms) = race(
            2,
            || {
                let batches = plain_batches(n);
                let t = Instant::now();
                run_row_path(batches, filter_pred(n), project_exprs()).unwrap();
                ms_since(t)
            },
            || {
                let batches = typed_batches(n);
                let t = Instant::now();
                run_vectorized(batches, filter_pred(n), project_exprs()).unwrap();
                ms_since(t)
            },
        );
        assert_bound("vectorized ÷ row-path speedup", row_ms / vec_ms, true, 2.0);
    }
}

/// The streaming group-by strategy on its home shape (a sorted run-length
/// key, SUM/AVG over a typed float column) does the same work per row as
/// hashing, so it must not lose to it: streaming ÷ hash wall time ≤ 1.1,
/// the 10 % being the timer's.
#[test]
fn sorted_groupby_streams_as_fast_as_it_hashes() {
    let _guard = serial();
    use exec_vector::*;
    let n = rows(20_000, 1_000_000);
    let run = |streaming: bool| {
        let input = sorted_float_batches(n);
        let t = Instant::now();
        let groups = run_sorted_groupby(input, streaming).unwrap();
        assert_eq!(groups.len(), 20);
        ms_since(t)
    };
    let (streaming_ms, hash_ms) = race(if timed() { 3 } else { 1 }, || run(true), || run(false));
    if timed() {
        assert_bound(
            "streaming ÷ hash group-by time",
            streaming_ms / hash_ms,
            false,
            1.1,
        );
    }
}

/// §6.1 compressed-domain execution: a group-by on dictionary codes, and
/// a narrow range scan that prunes blocks by their min/max and skips
/// decoding rows the selection already excludes — each against the same
/// work on materialized values — plus the FOR/bit-pack and
/// delta-of-delta codec footprints against Plain.
#[test]
fn compressed_domain_execution_prunes_skips_and_pays() {
    let _guard = serial();
    use exec_compressed::*;
    let n = rows(20_000, 1_000_000);
    assert_eq!(
        run_groupby(dict_batches(n)).unwrap(),
        run_groupby(plain_batches(n)).unwrap()
    );
    const WIDTH: i64 = 1000;
    let store = build_scan_store(n, 8).unwrap();
    let pred = narrow_predicate(n as i64 / 2, WIDTH);
    let (all, _, _) = run_scan(&store, None).unwrap();
    let (some, _, stats) = run_scan(&store, Some(pred.clone())).unwrap();
    assert_eq!((all, some), (n, WIDTH as usize));
    assert!(stats.blocks_pruned >= 1, "{stats:?}");
    assert!(stats.rows_decode_skipped >= 1, "{stats:?}");
    for (column, codec) in [
        (for_column(n), EncodingType::ForBitPack),
        (dod_column(n), EncodingType::DeltaDelta),
    ] {
        let ratio = encoded_bytes(&column, codec).unwrap() as f64
            / encoded_bytes(&column, EncodingType::Plain).unwrap() as f64;
        assert!(ratio <= 0.5, "{} is {ratio:.2} of Plain", codec.name());
    }
    if timed() {
        let groupby = |batches: fn(usize) -> Vec<vdb_exec::Batch>| {
            let input = batches(n);
            let t = Instant::now();
            run_groupby(input).unwrap();
            ms_since(t)
        };
        let (plain_ms, dict_ms) = race(2, || groupby(plain_batches), || groupby(dict_batches));
        assert_bound(
            "dictionary-code group-by speedup",
            plain_ms / dict_ms,
            true,
            3.0,
        );
        let (full_ms, narrow_ms) = race(
            2,
            || run_scan(&store, None).unwrap().1,
            || run_scan(&store, Some(pred.clone())).unwrap().1,
        );
        assert_bound(
            "pruned narrow scan speedup",
            full_ms / narrow_ms,
            true,
            10.0,
        );
    }
}

/// Morsel-driven parallelism: a 16-container scan + hash group-by answers
/// the serial plan's rows at 1, 2 and 4 lanes, and at 4 lanes does not
/// lose to it.
#[test]
fn morsel_parallel_groupby_keeps_pace_with_serial() {
    let _guard = serial();
    use exec_parallel::*;
    let store = build_store(rows(30_000, 1_000_000), 16).unwrap();
    let (expected, _) = run_serial(&store).unwrap();
    for lanes in [1, 2, 4] {
        assert_eq!(
            run_parallel(&store, lanes).unwrap().0,
            expected,
            "lanes={lanes}"
        );
    }
    if timed() {
        let (serial_ms, parallel_ms) = race(
            2,
            || run_serial(&store).unwrap().1,
            || run_parallel(&store, 4).unwrap().1,
        );
        let floor = parallel_floor(1.0, 0.75);
        assert_bound(
            "4-lane group-by speedup",
            serial_ms / parallel_ms,
            true,
            floor,
        );
    }
}

/// The morsel-parallel hash join: a 16-container fact joined to a
/// 4-container dimension answers the serial join's rows, order included,
/// at 1, 2 and 4 lanes; at 4 lanes it does not lose to the serial join,
/// and at 1 lane (a delegate of the serial operator) it tracks it.
#[test]
fn morsel_parallel_join_keeps_pace_with_serial() {
    let _guard = serial();
    use exec_parallel_join::*;
    let fact = build_fact(rows(40_000, 1_000_000), 16).unwrap();
    let dim = build_dim(4).unwrap();
    {
        let (expected, _) = run_serial(&fact, &dim).unwrap();
        for lanes in [1, 2, 4] {
            let (got, _) = run_parallel(&fact, &dim, lanes).unwrap();
            assert_eq!(got, expected, "lanes={lanes}");
        }
    }
    if timed() {
        for (lanes, floor) in [
            (4, parallel_floor(1.0, 0.75)),
            (1, parallel_floor(0.95, 0.9)),
        ] {
            // Best of five: the 1-lane bound leaves only 5 % for noise.
            let (serial_ms, parallel_ms) = race(
                5,
                || run_serial(&fact, &dim).unwrap().1,
                || run_parallel(&fact, &dim, lanes).unwrap().1,
            );
            let what = format!("{lanes}-lane join speedup");
            assert_bound(&what, serial_ms / parallel_ms, true, floor);
        }
    }
}

/// The serving layer under 1, 8 and 64 concurrent sessions: served answers
/// equal direct execution, the repeated mix is served from the plan cache,
/// admission admits, every phase makes progress with a bounded tail, and
/// the shared morsel pool runs many task sets on reused workers instead of
/// spawning threads per query.
#[test]
fn serving_layer_caches_plans_and_reuses_pool_workers() {
    let _guard = serial();
    let db = serve::build_db(rows(4_000, 80_000), 8).unwrap();
    let mix = serve::query_mix();
    let expected: Vec<Vec<Row>> = mix.iter().map(|q| db.query(q).unwrap()).collect();
    let server = db.server().clone();
    let session = server.session();
    for (q, want) in mix.iter().zip(&expected) {
        assert_eq!(&session.query(q).unwrap(), want, "served: {q}");
    }
    let pool = vdb_exec::pool::shared();
    let before = pool.stats();
    let budget = rows(48, 240);
    for sessions in [1, 8, 64] {
        let phase = serve::run_phase(&server, &mix, sessions, (budget / sessions).max(2)).unwrap();
        assert!(phase.qps > 0.0, "{sessions} sessions made no progress");
        if sessions == 8 {
            assert!(
                phase.p99_ms > 0.0 && phase.p99_ms <= 5000.0,
                "p99 at 8 sessions: {:.2} ms",
                phase.p99_ms
            );
        }
    }
    let after = pool.stats();
    let stats = server.stats();
    assert!(
        stats.cache_hit_rate() >= 0.9,
        "plan cache hit rate {:.3}",
        stats.cache_hit_rate()
    );
    assert!(stats.admitted > 0, "admission admitted nothing");
    let task_sets = after.task_sets - before.task_sets;
    let spawned = after.workers_spawned - before.workers_spawned;
    assert!(
        task_sets >= 1,
        "parallel operators never reached the shared pool"
    );
    assert!(
        spawned < task_sets,
        "{spawned} threads spawned across {task_sets} task sets: workers are not reused"
    );
}

/// A 4-node K=1 cluster answers the segmented-fact ⋈ resegmented-dim mix
/// exactly as one node does — all up, with a node down (buddy reads) and
/// after recovering it from buddy containers — moving bytes through the
/// exchange; optimized, it keeps pace with one node and degrades
/// gracefully.
#[test]
fn cluster_distribution_is_transparent_and_recovers() {
    let _guard = serial();
    let n = rows(4_000, 120_000);
    let single = cluster::build(1, n).unwrap();
    let clustered = cluster::build(4, n).unwrap();
    let expected = cluster::run_mix(&single).unwrap();
    assert_eq!(cluster::run_mix(&clustered).unwrap(), expected);
    let mix_ms = |db: &vdb_core::Engine| {
        let t = Instant::now();
        cluster::run_mix(db).unwrap();
        ms_since(t)
    };
    let (single_ms, all_up_ms) = race(2, || mix_ms(&single), || mix_ms(&clustered));
    clustered.cluster().fail_node(2);
    assert_eq!(
        cluster::run_mix(&clustered).unwrap(),
        expected,
        "buddy reads"
    );
    let degraded_ms = best_of(2, || mix_ms(&clustered));
    let t = Instant::now();
    let recovered = clustered.cluster().recover_node(2).unwrap();
    let recovery_ms = ms_since(t);
    // The recovered node must really serve: fail a different one.
    clustered.cluster().fail_node(0);
    assert_eq!(
        cluster::run_mix(&clustered).unwrap(),
        expected,
        "post-recovery"
    );
    clustered.cluster().recover_node(0).unwrap();
    assert!(recovered.projections_recovered >= 1);
    assert!(
        recovery_ms > 0.0 && recovery_ms <= 60_000.0,
        "recovery took {recovery_ms:.1} ms"
    );
    assert!(
        clustered.cluster().exchange_bytes_sent() > 0,
        "the resegmented join moved no bytes through the exchange"
    );
    if timed() {
        let floor = parallel_floor(1.0, 0.6);
        assert_bound(
            "4-node ÷ 1-node speedup",
            single_ms / all_up_ms,
            true,
            floor,
        );
        let degraded = degraded_ms / all_up_ms;
        assert_bound("1-node-down ÷ all-up time", degraded, false, 25.0);
    }
}

/// §6.3 closed loop: traffic on a time-ordered seed design populates the
/// query trace; the designer installs a projection for the hot
/// metric-filtered mix online; the answers do not change, and (optimized)
/// the mix runs at least twice as fast.
#[test]
fn auto_design_installs_projections_that_double_the_hot_mix() {
    let _guard = serial();
    let engine = vdb_core::Engine::builder().open().unwrap();
    engine
        .execute("CREATE TABLE m (metric INT, meter INT, ts INT, value INT)")
        .unwrap();
    engine
        .execute(
            "CREATE PROJECTION m_super AS SELECT metric, meter, ts, value FROM m \
             ORDER BY ts SEGMENTED BY HASH(meter) ALL NODES",
        )
        .unwrap();
    let data: Vec<Row> = (0..rows(10_000, 200_000) as i64)
        .map(|i| {
            vec![
                Value::Integer(i % 300),
                Value::Integer(i % 2000),
                Value::Integer(1_330_000_000 + i),
                Value::Integer(i % 977),
            ]
        })
        .collect();
    engine.load("m", &data).unwrap();
    let mix = [
        "SELECT meter, value FROM m WHERE metric = 7",
        "SELECT meter, value FROM m WHERE metric = 113",
        "SELECT COUNT(*) FROM m WHERE metric = 42",
        "SELECT metric, SUM(value) FROM m WHERE metric = 251 GROUP BY metric",
    ];
    let session = engine.session();
    let answers = || -> Vec<Vec<Row>> {
        mix.iter()
            .map(|q| {
                let mut got = session.query(q).unwrap();
                got.sort();
                got
            })
            .collect()
    };
    let mix_ms = || {
        let t = Instant::now();
        for q in &mix {
            session.query(q).unwrap();
        }
        ms_since(t)
    };
    let expected = answers();
    let before_ms = best_of(3, mix_ms);
    let report = engine
        .auto_design(vdb_core::DesignPolicy::QueryOptimized)
        .unwrap();
    assert!(
        !report.installed.is_empty(),
        "nothing installed from {} traced statements",
        report.traced_statements
    );
    assert_eq!(answers(), expected, "designed projections changed answers");
    if timed() {
        let after_ms = best_of(3, mix_ms);
        assert_bound("auto-design speedup", before_ms / after_ms, true, 2.0);
    }
}
