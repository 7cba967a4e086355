//! Reproduction harnesses: one function per table/figure, each returning
//! the formatted reproduction (the `repro` binary prints them; EXPERIMENTS.md
//! records a captured run).

use crate::workloads::{cstore7, meter, random_ints};
use std::fmt::Write as _;
use std::time::Instant;
use vdb_encoding::{ColumnWriter, EncodingType};
use vdb_types::{DbResult, Expr, Value};

/// Tables 1 and 2: regenerate the lock matrices from the live
/// implementation (the unit tests verify them cell-by-cell against the
/// paper; this prints them in the paper's layout).
pub fn table1_2() -> String {
    format!(
        "== Table 1: Lock Compatibility Matrix ==\n{}\n\
         == Table 2: Lock Conversion Matrix ==\n{}",
        vdb_txn::locks::render_compatibility_table(),
        vdb_txn::locks::render_conversion_table()
    )
}

/// Table 3: C-Store vs Vertica on the seven-query harness.
pub fn table3(lineitem_rows: usize) -> DbResult<String> {
    let (li, ord) = cstore7::generate(lineitem_rows, 7);
    let vertica = cstore7::setup_vertica(&li, &ord)?;
    let cstore = cstore7::setup_cstore(li, ord)?;
    let c = cstore7::constants();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table 3: Vertica vs C-Store ({lineitem_rows} lineitem rows) =="
    );
    let _ = writeln!(
        out,
        "{:<8}{:>14}{:>14}{:>9}",
        "Query", "C-Store(ms)", "Vertica(ms)", "ratio"
    );
    let mut total_c = 0.0;
    let mut total_v = 0.0;
    for q in 1..=7 {
        // Warm + verify agreement once.
        let mut vr = vertica.query(&cstore7::vertica_sql(q, &c))?;
        let mut cr = cstore7::run_cstore(&cstore, q, &c)?;
        vr.sort();
        cr.sort();
        assert_eq!(vr, cr, "Q{q} results diverged");
        let t = Instant::now();
        let _ = cstore7::run_cstore(&cstore, q, &c)?;
        let ms_c = t.elapsed().as_secs_f64() * 1000.0;
        let t = Instant::now();
        let _ = vertica.query(&cstore7::vertica_sql(q, &c))?;
        let ms_v = t.elapsed().as_secs_f64() * 1000.0;
        total_c += ms_c;
        total_v += ms_v;
        let _ = writeln!(
            out,
            "Q{q:<7}{ms_c:>14.1}{ms_v:>14.1}{:>9.2}",
            ms_c / ms_v.max(0.001)
        );
    }
    let _ = writeln!(
        out,
        "{:<8}{:>14.1}{:>14.1}{:>9.2}",
        "Total",
        total_c,
        total_v,
        total_c / total_v.max(0.001)
    );
    let _ = writeln!(
        out,
        "Disk     C-Store: {} bytes   Vertica: {} bytes   ratio {:.2}",
        cstore.disk_bytes(),
        vertica.disk_bytes(),
        cstore.disk_bytes() as f64 / vertica.disk_bytes().max(1) as f64
    );
    let _ = writeln!(
        out,
        "(paper: total 18.7s vs 9.6s ≈ 1.9x; disk 1987MB vs 949MB ≈ 2.1x)"
    );
    Ok(out)
}

/// Encode a column the way a DBD-designed Vertica projection stores it:
/// the Database Designer's storage-optimization phase tries every encoding
/// empirically and keeps the smallest (§6.3); per-block Auto competes too.
fn vertica_column_bytes(values: &[Value]) -> usize {
    let mut best = usize::MAX;
    for enc in EncodingType::CONCRETE
        .iter()
        .copied()
        .chain([EncodingType::Auto])
    {
        let mut w = ColumnWriter::new(enc);
        w.extend(values.iter().cloned());
        let (data, index) = w.finish();
        best = best.min(data.len() + index.encode().len());
    }
    best
}

/// Table 4: compression on random integers and meter data.
pub fn table4(n_ints: usize, meter_rows: usize) -> DbResult<String> {
    let mut out = String::new();
    // --- 1M random integers (§8.2.1) -----------------------------------
    let ints = random_ints::generate(n_ints, 42);
    let text = random_ints::as_text(&ints);
    let raw = text.len();
    let gz = vdb_compress::compress(text.as_bytes()).len();
    let mut sorted = ints.clone();
    sorted.sort_unstable();
    let sorted_text = random_ints::as_text(&sorted);
    let gz_sorted = vdb_compress::compress(sorted_text.as_bytes()).len();
    // Vertica: sorted projection column, Auto-encoded.
    let col: Vec<Value> = sorted.iter().map(|&v| Value::Integer(v)).collect();
    let vertica = vertica_column_bytes(&col);
    let _ = writeln!(out, "== Table 4a: {n_ints} random integers ==");
    let _ = writeln!(
        out,
        "{:<16}{:>12}{:>8}{:>10}",
        "Method", "Bytes", "Ratio", "B/row"
    );
    for (name, bytes) in [
        ("Raw", raw),
        ("gzip-class", gz),
        ("gzip+sort", gz_sorted),
        ("Vertica", vertica),
    ] {
        let _ = writeln!(
            out,
            "{name:<16}{bytes:>12}{:>8.1}{:>10.2}",
            raw as f64 / bytes as f64,
            bytes as f64 / n_ints as f64
        );
    }
    let _ = writeln!(
        out,
        "(paper @1M rows: raw 7.9 B/row; gzip 3.7; gzip+sort 2.4; Vertica 0.6)\n"
    );
    // --- meter data (§8.2.2) -------------------------------------------
    // Scale the series counts with the row budget so each series keeps the
    // paper's ~hundreds of samples (200M rows over 300 metrics × 2000
    // meters ≈ 333 samples/series); tiny runs would otherwise degenerate
    // to one sample per series.
    let config = scaled_meter_config(meter_rows);
    let rows = meter::generate(meter_rows, &config);
    let csv = meter::as_csv(&rows);
    let raw = csv.len();
    let gz = vdb_compress::compress(csv.as_bytes()).len();
    let _ = writeln!(out, "== Table 4b: {meter_rows} meter records ==");
    let _ = writeln!(
        out,
        "{:<16}{:>12}{:>8}{:>10}",
        "Method", "Bytes", "Ratio", "B/row"
    );
    let _ = writeln!(
        out,
        "{:<16}{raw:>12}{:>8.1}{:>10.2}",
        "Raw CSV",
        1.0,
        raw as f64 / meter_rows as f64
    );
    let _ = writeln!(
        out,
        "{:<16}{gz:>12}{:>8.1}{:>10.2}",
        "gzip-class",
        raw as f64 / gz as f64,
        gz as f64 / meter_rows as f64
    );
    // Vertica: per-column sizes over the (metric, meter, ts) sort order.
    let names = ["metric", "meter", "ts", "value"];
    let mut vertica_total = 0usize;
    let mut per_col = String::new();
    for c in 0..4 {
        let col: Vec<Value> = rows.iter().map(|r| r[c].clone()).collect();
        let bytes = vertica_column_bytes(&col);
        vertica_total += bytes;
        let _ = writeln!(per_col, "    column {:<10}{bytes:>12} bytes", names[c]);
    }
    let _ = writeln!(
        out,
        "{:<16}{vertica_total:>12}{:>8.1}{:>10.2}",
        "Vertica",
        raw as f64 / vertica_total as f64,
        vertica_total as f64 / meter_rows as f64
    );
    out.push_str(&per_col);
    let _ = writeln!(
        out,
        "(paper @200M rows: raw 32 B/row; gzip 5.5; Vertica 2.2 — metric 5KB, \
         meter 35MB, ts 20MB, value 363MB)"
    );
    Ok(out)
}

/// Typed-vector executor micro-benchmark: filter → group-by → SUM over
/// plain and RLE-heavy batches, typed/selection-vector path vs the
/// pre-refactor row path. Returns the report plus machine-readable
/// `(metric, value)` pairs for `BENCH_repro.json`.
pub fn exec_vector(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::exec_vector as wl;
    // Each measurement consumes a freshly built input; batch construction
    // happens before the clock starts so the timings compare only the
    // pipelines.
    let typed = wl::typed_batches(rows);
    let t = Instant::now();
    let groups = wl::run_filter_groupby(typed, wl::half_predicate(rows))?;
    let typed_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(groups, wl::GROUPS as usize);
    let plain = wl::plain_batches(rows);
    let t = Instant::now();
    let groups = wl::run_row_baseline(plain, wl::half_predicate(rows))?;
    let row_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(groups, wl::GROUPS as usize);
    let rle = wl::rle_batches(rows);
    let t = Instant::now();
    let (_, encoded) = wl::run_pipelined(rle)?;
    let rle_typed_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(encoded, rows as u64);
    let rle_expanded = wl::rle_expanded_batches(rows);
    let t = Instant::now();
    let (_, encoded) = wl::run_pipelined(rle_expanded)?;
    let rle_row_ms = t.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(encoded, 0);
    // The two group-by strategies on the streaming one's home shape (a
    // sorted run-length key, SUM/AVG over a typed float column): best of
    // three each, reported as a ratio — streaming must not lose to hashing
    // the input it was chosen for.
    let best_ms = |streaming: bool| -> DbResult<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let input = wl::sorted_float_batches(rows);
            let t = Instant::now();
            let groups = wl::run_sorted_groupby(input, streaming)?;
            best = best.min(t.elapsed().as_secs_f64() * 1000.0);
            assert_eq!(groups.len(), 20);
        }
        Ok(best)
    };
    let (sorted_stream_ms, sorted_hash_ms) = (best_ms(true)?, best_ms(false)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Typed-vector executor: filter→groupby→SUM ({rows} rows) =="
    );
    let _ = writeln!(
        out,
        "{:<28}{:>12}{:>12}{:>10}",
        "Pipeline", "row(ms)", "typed(ms)", "speedup"
    );
    let _ = writeln!(
        out,
        "{:<28}{row_ms:>12.1}{typed_ms:>12.1}{:>10.2}",
        "plain batches",
        row_ms / typed_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "{:<28}{rle_row_ms:>12.1}{rle_typed_ms:>12.1}{:>10.2}",
        "RLE batches (pipelined)",
        rle_row_ms / rle_typed_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "sorted RLE key, SUM/AVG(float): streaming {sorted_stream_ms:.1} ms vs hash \
         {sorted_hash_ms:.1} ms (ratio {:.2})",
        sorted_stream_ms / sorted_hash_ms.max(0.001)
    );
    let metrics = vec![
        (
            "exec_sorted_groupby_stream_ms".to_string(),
            sorted_stream_ms,
        ),
        ("exec_sorted_groupby_hash_ms".to_string(), sorted_hash_ms),
        (
            "exec_sorted_groupby_ratio".to_string(),
            sorted_stream_ms / sorted_hash_ms.max(0.001),
        ),
        ("exec_vector_rows".to_string(), rows as f64),
        ("exec_vector_row_ms".to_string(), row_ms),
        ("exec_vector_typed_ms".to_string(), typed_ms),
        (
            "exec_vector_speedup".to_string(),
            row_ms / typed_ms.max(0.001),
        ),
        ("exec_vector_rle_row_ms".to_string(), rle_row_ms),
        ("exec_vector_rle_typed_ms".to_string(), rle_typed_ms),
        (
            "exec_vector_rle_speedup".to_string(),
            rle_row_ms / rle_typed_ms.max(0.001),
        ),
    ];
    Ok((out, metrics))
}

/// Vectorized expression engine: a 1M-row scan with an arithmetic + CASE
/// projection and a disjunctive filter, through the columnar
/// FilterOp → ProjectOp pipeline vs the pre-refactor row-at-a-time path,
/// on plain/typed batches and on an RLE category column (per-run
/// short-circuit). Paths are asserted to agree (and the columnar pipeline
/// to perform zero row pivots) before anything is timed.
pub fn exec_expr(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::exec_expr as wl;
    // Correctness + pivot-freedom first.
    let (v, pivots) = wl::run_vectorized(
        wl::typed_batches(rows),
        wl::filter_pred(rows),
        wl::project_exprs(),
    )?;
    let r = wl::run_row_path(
        wl::plain_batches(rows),
        wl::filter_pred(rows),
        wl::project_exprs(),
    )?;
    if v != r {
        return Err(vdb_types::DbError::Execution(
            "vectorized expression pipeline diverged from the row path".into(),
        ));
    }
    let (vr, rle_pivots) =
        wl::run_vectorized(wl::rle_batches(rows), wl::rle_pred(), wl::rle_exprs())?;
    let rr = wl::run_row_path(
        wl::rle_expanded_batches(rows),
        wl::rle_pred(),
        wl::rle_exprs(),
    )?;
    if vr != rr {
        return Err(vdb_types::DbError::Execution(
            "vectorized RLE expression pipeline diverged from the row path".into(),
        ));
    }
    // Timings: inputs are rebuilt per run (both sides pay construction
    // outside the clock); best-of-2 damps scheduler noise.
    let time_vec =
        |mk: &dyn Fn() -> Vec<vdb_exec::Batch>, pred: &Expr, exprs: &[Expr]| -> DbResult<f64> {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let batches = mk();
                let t = Instant::now();
                let _ = wl::run_vectorized(batches, pred.clone(), exprs.to_vec())?;
                best = best.min(t.elapsed().as_secs_f64() * 1000.0);
            }
            Ok(best)
        };
    let time_row =
        |mk: &dyn Fn() -> Vec<vdb_exec::Batch>, pred: &Expr, exprs: &[Expr]| -> DbResult<f64> {
            let mut best = f64::INFINITY;
            for _ in 0..2 {
                let batches = mk();
                let t = Instant::now();
                let _ = wl::run_row_path(batches, pred.clone(), exprs.to_vec())?;
                best = best.min(t.elapsed().as_secs_f64() * 1000.0);
            }
            Ok(best)
        };
    let pred = wl::filter_pred(rows);
    let exprs = wl::project_exprs();
    let vec_ms = time_vec(&|| wl::typed_batches(rows), &pred, &exprs)?;
    let row_ms = time_row(&|| wl::plain_batches(rows), &pred, &exprs)?;
    let rle_vec_ms = time_vec(&|| wl::rle_batches(rows), &wl::rle_pred(), &wl::rle_exprs())?;
    let rle_row_ms = time_row(
        &|| wl::rle_expanded_batches(rows),
        &wl::rle_pred(),
        &wl::rle_exprs(),
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Vectorized expressions: filter(OR) → project(arith + CASE) ({rows} rows) =="
    );
    let _ = writeln!(
        out,
        "{:<28}{:>12}{:>12}{:>10}",
        "Pipeline", "row(ms)", "vec(ms)", "speedup"
    );
    let _ = writeln!(
        out,
        "{:<28}{row_ms:>12.1}{vec_ms:>12.1}{:>10.2}",
        "typed batches",
        row_ms / vec_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "{:<28}{rle_row_ms:>12.1}{rle_vec_ms:>12.1}{:>10.2}",
        "RLE category (per-run)",
        rle_row_ms / rle_vec_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "row pivots inside the columnar pipeline: {pivots} (plain), {rle_pivots} (RLE)"
    );
    let metrics = vec![
        ("exec_expr_rows".to_string(), rows as f64),
        ("exec_expr_row_ms".to_string(), row_ms),
        ("exec_expr_vec_ms".to_string(), vec_ms),
        ("exec_expr_speedup".to_string(), row_ms / vec_ms.max(0.001)),
        ("exec_expr_rle_row_ms".to_string(), rle_row_ms),
        ("exec_expr_rle_vec_ms".to_string(), rle_vec_ms),
        (
            "exec_expr_rle_speedup".to_string(),
            rle_row_ms / rle_vec_ms.max(0.001),
        ),
        (
            "exec_expr_pipeline_pivots".to_string(),
            (pivots + rle_pivots) as f64,
        ),
    ];
    Ok((out, metrics))
}

/// Morsel-driven parallel execution: a 16-container store scanned +
/// hash-aggregated end to end through the serial typed path and through
/// the parallel subsystem at 1/2/4 lanes, recording speedup-vs-lanes.
/// Results are asserted identical across paths before anything is timed.
pub fn exec_parallel(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::exec_parallel as wl;
    const CONTAINERS: usize = 16;
    let store = wl::build_store(rows, CONTAINERS)?;
    // Correctness first: every lane count must reproduce the serial rows.
    let (serial_rows, _) = wl::run_serial(&store)?;
    for lanes in [1usize, 2, 4] {
        let (par_rows, _) = wl::run_parallel(&store, lanes)?;
        if par_rows != serial_rows {
            return Err(vdb_types::DbError::Execution(format!(
                "parallel group-by at {lanes} lanes diverged from serial"
            )));
        }
    }
    // Best-of-2 per configuration to damp scheduler noise.
    let best = |f: &dyn Fn() -> DbResult<(Vec<vdb_types::Row>, f64)>| -> DbResult<f64> {
        let (_, a) = f()?;
        let (_, b) = f()?;
        Ok(a.min(b))
    };
    let serial_ms = best(&|| wl::run_serial(&store))?;
    let mut lane_ms = Vec::new();
    for lanes in [1usize, 2, 4] {
        lane_ms.push((lanes, best(&|| wl::run_parallel(&store, lanes))?));
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Morsel-parallel scan+group-by over {CONTAINERS} ROS containers ({rows} rows, {cores} core{}) ==",
        if cores == 1 { "" } else { "s" }
    );
    let _ = writeln!(out, "{:<22}{:>12}{:>10}", "Configuration", "ms", "speedup");
    let _ = writeln!(
        out,
        "{:<22}{serial_ms:>12.1}{:>10.2}",
        "serial typed path", 1.0
    );
    let mut metrics = vec![
        ("exec_parallel_rows".to_string(), rows as f64),
        ("exec_parallel_containers".to_string(), CONTAINERS as f64),
        ("exec_parallel_cores".to_string(), cores as f64),
        ("exec_parallel_serial_ms".to_string(), serial_ms),
    ];
    for (lanes, ms) in &lane_ms {
        let speedup = serial_ms / ms.max(0.001);
        let _ = writeln!(
            out,
            "{:<22}{ms:>12.1}{speedup:>10.2}",
            format!("{lanes} lane(s)")
        );
        metrics.push((format!("exec_parallel_ms_{lanes}"), *ms));
        metrics.push((format!("exec_parallel_speedup_{lanes}"), speedup));
    }
    if cores == 1 {
        let _ = writeln!(
            out,
            "note: single-CPU host — lanes cannot overlap, so the speedup shows \
             the subsystem's overhead floor; on multi-core hardware the lanes \
             scale with cores (per-worker partial aggregation is independent)."
        );
    }
    Ok((out, metrics))
}

/// Morsel-parallel hash join: a 16-container fact store joined
/// to a 4-container dimension store through the serial hash join and
/// through [`vdb_exec::parallel_join::ParallelHashJoinOp`] at 1/2/4 lanes,
/// recording total and build/probe speedup-vs-lanes. Results are asserted
/// identical across paths before anything is timed.
pub fn exec_parallel_join(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::exec_parallel_join as wl;
    const FACT_CONTAINERS: usize = 16;
    const DIM_CONTAINERS: usize = 4;
    let fact = wl::build_fact(rows, FACT_CONTAINERS)?;
    let dim = wl::build_dim(DIM_CONTAINERS)?;
    // Correctness first: every timed lane count — including the inline
    // 1-lane path — must reproduce the serial rows, order included
    // (morsel-ordered concat + build row ids in build-scan order). The
    // reference rows are freed before anything is timed: held, they pin
    // the heap in a shape where glibc trims and regrows it on every probe
    // wave's result pivot, which on some runs adds half again to the
    // parallel side's time (and none to the serial side's).
    {
        let (serial_rows, _) = wl::run_serial(&fact, &dim)?;
        for lanes in [1usize, 2, 4] {
            let (par_rows, _, _) = wl::run_parallel(&fact, &dim, lanes)?;
            if par_rows != serial_rows {
                return Err(vdb_types::DbError::Execution(format!(
                    "parallel hash join at {lanes} lanes diverged from serial"
                )));
            }
        }
    }
    // Interleaved best-of-2 per configuration: serial and parallel runs
    // alternate within each trial, so allocator/page-cache drift across
    // the repro run cannot systematically bias one side.
    let mut serial_ms = f64::INFINITY;
    let mut lane_times: Vec<(usize, f64, (f64, f64))> = [1usize, 2, 4]
        .iter()
        .map(|&l| (l, f64::INFINITY, (0.0, 0.0)))
        .collect();
    for _ in 0..2 {
        let (_, ms) = wl::run_serial(&fact, &dim)?;
        serial_ms = serial_ms.min(ms);
        for entry in lane_times.iter_mut() {
            let (_, ms, phases) = wl::run_parallel(&fact, &dim, entry.0)?;
            if ms < entry.1 {
                entry.1 = ms;
                entry.2 = phases;
            }
        }
    }
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Morsel-parallel hash join: {rows}-row fact ({FACT_CONTAINERS} containers) ⋈ \
         {}-row dim ({DIM_CONTAINERS} containers), {cores} core{} ==",
        wl::DIM_KEYS,
        if cores == 1 { "" } else { "s" }
    );
    let _ = writeln!(
        out,
        "{:<22}{:>12}{:>12}{:>12}{:>10}",
        "Configuration", "ms", "build(ms)", "probe(ms)", "speedup"
    );
    let _ = writeln!(
        out,
        "{:<22}{serial_ms:>12.1}{:>12}{:>12}{:>10.2}",
        "serial hash join", "-", "-", 1.0
    );
    let mut metrics = vec![
        ("exec_parallel_join_rows".to_string(), rows as f64),
        ("exec_parallel_join_cores".to_string(), cores as f64),
        ("exec_parallel_join_serial_ms".to_string(), serial_ms),
    ];
    for (lanes, ms, (build_ms, probe_ms)) in &lane_times {
        let speedup = serial_ms / ms.max(0.001);
        let _ = writeln!(
            out,
            "{:<22}{ms:>12.1}{build_ms:>12.1}{probe_ms:>12.1}{speedup:>10.2}",
            format!("{lanes} lane(s)")
        );
        metrics.push((format!("exec_parallel_join_ms_{lanes}"), *ms));
        metrics.push((format!("exec_parallel_join_build_ms_{lanes}"), *build_ms));
        metrics.push((format!("exec_parallel_join_probe_ms_{lanes}"), *probe_ms));
        metrics.push((format!("exec_parallel_join_speedup_{lanes}"), speedup));
    }
    if cores == 1 {
        let _ = writeln!(
            out,
            "note: single-CPU host — lanes cannot overlap, so the speedup shows \
             the subsystem's overhead floor; on multi-core hardware the \
             build scan and typed probe scale with cores."
        );
    }
    Ok((out, metrics))
}

/// Compressed-domain execution (§6.1): dictionary-code group-by vs
/// materialized string keys, a narrow-range scan under SMA pruning +
/// selection-pushdown decode vs a full scan, and the FOR/bit-packed and
/// delta-of-delta codec footprints vs Plain. Representations are asserted
/// to agree before anything is timed; the scan's pruning counters are
/// surfaced as metrics.
pub fn exec_compressed(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::exec_compressed as wl;
    // --- dict-code group-by -------------------------------------------
    let dict_rows = wl::run_groupby(wl::dict_batches(rows))?;
    let plain_rows = wl::run_groupby(wl::plain_batches(rows))?;
    if dict_rows != plain_rows {
        return Err(vdb_types::DbError::Execution(
            "dict-coded group-by diverged from materialized keys".into(),
        ));
    }
    // Best-of-2; inputs rebuilt per run so both sides pay construction
    // outside the clock.
    let mut dict_ms = f64::INFINITY;
    let mut plain_ms = f64::INFINITY;
    for _ in 0..2 {
        let batches = wl::plain_batches(rows);
        let t = Instant::now();
        let _ = wl::run_groupby(batches)?;
        plain_ms = plain_ms.min(t.elapsed().as_secs_f64() * 1000.0);
        let batches = wl::dict_batches(rows);
        let t = Instant::now();
        let _ = wl::run_groupby(batches)?;
        dict_ms = dict_ms.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    // --- selection-pushdown scan --------------------------------------
    const CONTAINERS: usize = 8;
    const WIDTH: i64 = 1000;
    let store = wl::build_scan_store(rows, CONTAINERS)?;
    let pred = wl::narrow_predicate(rows as i64 / 2, WIDTH);
    let (n_full, _, _) = wl::run_scan(&store, None)?;
    let (n_sel, _, _) = wl::run_scan(&store, Some(pred.clone()))?;
    if n_full != rows || n_sel != WIDTH as usize {
        return Err(vdb_types::DbError::Execution(format!(
            "scan row counts off: full {n_full}/{rows}, selective {n_sel}/{WIDTH}"
        )));
    }
    let mut full_ms = f64::INFINITY;
    let mut sel_ms = f64::INFINITY;
    let mut sel_stats = vdb_exec::scan::ScanStats::default();
    for _ in 0..2 {
        let (_, ms, _) = wl::run_scan(&store, None)?;
        full_ms = full_ms.min(ms);
        let (_, ms, s) = wl::run_scan(&store, Some(pred.clone()))?;
        if ms < sel_ms {
            sel_ms = ms;
            sel_stats = s;
        }
    }
    // --- codec footprints ---------------------------------------------
    let for_col = wl::for_column(rows);
    let for_ratio = wl::encoded_bytes(&for_col, EncodingType::ForBitPack)? as f64
        / wl::encoded_bytes(&for_col, EncodingType::Plain)?.max(1) as f64;
    let dod_col = wl::dod_column(rows);
    let dod_ratio = wl::encoded_bytes(&dod_col, EncodingType::DeltaDelta)? as f64
        / wl::encoded_bytes(&dod_col, EncodingType::Plain)?.max(1) as f64;
    // --- report --------------------------------------------------------
    let mut out = String::new();
    let _ = writeln!(out, "== Compressed-domain execution ({rows} rows) ==");
    let _ = writeln!(
        out,
        "{:<34}{:>12}{:>12}{:>10}",
        "Stage", "plain(ms)", "coded(ms)", "speedup"
    );
    let _ = writeln!(
        out,
        "{:<34}{plain_ms:>12.1}{dict_ms:>12.1}{:>10.2}",
        format!("group-by {} string keys", wl::KEYS),
        plain_ms / dict_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "{:<34}{full_ms:>12.1}{sel_ms:>12.1}{:>10.2}",
        format!("scan {WIDTH}-row range of {rows}"),
        full_ms / sel_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "selective scan: {} containers pruned, {} blocks pruned, {} rows scanned, \
         {} row-decodes skipped",
        sel_stats.containers_pruned_minmax,
        sel_stats.blocks_pruned,
        sel_stats.rows_scanned,
        sel_stats.rows_decode_skipped
    );
    let _ = writeln!(
        out,
        "codec footprint vs Plain: FOR/bit-pack {:.2}x, delta-of-delta {:.2}x",
        for_ratio, dod_ratio
    );
    let metrics = vec![
        ("exec_compressed_rows".to_string(), rows as f64),
        ("exec_compressed_groupby_plain_ms".to_string(), plain_ms),
        ("exec_compressed_groupby_dict_ms".to_string(), dict_ms),
        (
            "exec_compressed_groupby_speedup".to_string(),
            plain_ms / dict_ms.max(0.001),
        ),
        ("exec_compressed_scan_full_ms".to_string(), full_ms),
        ("exec_compressed_scan_selective_ms".to_string(), sel_ms),
        (
            "exec_compressed_scan_speedup".to_string(),
            full_ms / sel_ms.max(0.001),
        ),
        (
            "scan_containers_pruned_minmax".to_string(),
            sel_stats.containers_pruned_minmax as f64,
        ),
        (
            "scan_blocks_pruned".to_string(),
            sel_stats.blocks_pruned as f64,
        ),
        (
            "scan_rows_scanned".to_string(),
            sel_stats.rows_scanned as f64,
        ),
        (
            "scan_rows_decode_skipped".to_string(),
            sel_stats.rows_decode_skipped as f64,
        ),
        ("exec_compressed_for_ratio".to_string(), for_ratio),
        ("exec_compressed_dod_ratio".to_string(), dod_ratio),
    ];
    Ok((out, metrics))
}

/// Torture smoke: a short trickle-load run (writers + tuple mover + query
/// fire, see `vdb_tests::torture`) that must finish with zero
/// snapshot-isolation violations, reporting sustained ingest throughput
/// and query tail latency under concurrent ingest.
pub fn torture(secs: f64) -> DbResult<(String, Vec<(String, f64)>)> {
    let config = vdb_tests::torture::TortureConfig {
        secs,
        ..vdb_tests::torture::TortureConfig::from_env()
    };
    let report = vdb_tests::torture::run(&config);
    if !report.violations.is_empty() {
        return Err(vdb_types::DbError::Execution(format!(
            "torture run found {} snapshot-isolation violations; first: {}",
            report.violations.len(),
            report.violations[0]
        )));
    }
    let mut out = String::from("== Torture: concurrent ingest under query fire ==\n");
    let _ = writeln!(
        out,
        "{:.1}s, {} writers / {} readers: {} commits ({} rows in, {} deletes), \
         {} queries, 0 violations",
        report.elapsed_secs,
        config.writers,
        config.readers,
        report.commits,
        report.rows_ingested,
        report.deletes,
        report.queries
    );
    let _ = writeln!(
        out,
        "ingest {:.0} rows/s, query p99 {:.2} ms under ingest",
        report.ingest_rows_per_sec, report.query_p99_ms
    );
    let metrics = vec![
        (
            "ingest_rows_per_sec".to_string(),
            report.ingest_rows_per_sec,
        ),
        ("query_p99_under_ingest_ms".to_string(), report.query_p99_ms),
    ];
    Ok((out, metrics))
}

/// Serving-layer smoke: concurrent sessions firing a fixed mix (parallel
/// group-by, selective filter, parallel hash join) at one
/// [`vdb_core::serve::Server`] — plan cache, admission control and the
/// shared morsel pool all in the loop. Served results are asserted equal
/// to direct `Database` execution before anything is timed; the metrics
/// feed CI's serve-smoke gate (p99 bounded at 8 sessions, cache hit rate,
/// pool-reuse counters).
pub fn serve(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::serve as wl;
    const CHUNKS: usize = 8;
    let db = wl::build_db(rows, CHUNKS)?;
    let mix = wl::query_mix();
    // Correctness first: the served path must reproduce direct execution.
    let expected: Vec<Vec<vdb_types::Row>> = mix
        .iter()
        .map(|q| db.query(q))
        .collect::<DbResult<Vec<_>>>()?;
    let server = db.server().clone();
    {
        let session = server.session();
        for (q, want) in mix.iter().zip(&expected) {
            let got = session.query(q)?;
            if &got != want {
                return Err(vdb_types::DbError::Execution(format!(
                    "served result diverged from direct execution for: {q}"
                )));
            }
        }
    }
    let pool = vdb_exec::pool::shared();
    let pool_before = pool.stats();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Serving layer: sessions × (parallel group-by, filter, parallel join) \
         over {rows} rows in {CHUNKS} containers ({} pool workers) ==",
        pool.workers()
    );
    let _ = writeln!(
        out,
        "{:<12}{:>12}{:>12}{:>12}{:>12}",
        "Sessions", "statements", "qps", "p50 ms", "p99 ms"
    );
    let mut metrics: Vec<(String, f64)> = vec![
        ("serve_rows".to_string(), rows as f64),
        ("serve_pool_workers".to_string(), pool.workers() as f64),
    ];
    for sessions in [1usize, 8, 64] {
        // Roughly constant statement budget per phase, so the 64-session
        // phase measures contention, not a larger workload.
        let per_session = (960 / sessions).max(6);
        let phase = wl::run_phase(&server, &mix, sessions, per_session)?;
        let _ = writeln!(
            out,
            "{sessions:<12}{:>12}{:>12.0}{:>12.2}{:>12.2}",
            phase.statements, phase.qps, phase.p50_ms, phase.p99_ms
        );
        metrics.push((format!("serve_qps_{sessions}"), phase.qps));
        metrics.push((format!("serve_p50_ms_{sessions}"), phase.p50_ms));
        metrics.push((format!("serve_p99_ms_{sessions}"), phase.p99_ms));
    }
    let stats = server.stats();
    let pool_after = pool.stats();
    let task_sets = (pool_after.task_sets - pool_before.task_sets) as f64;
    let worker_tasks = (pool_after.tasks_by_workers - pool_before.tasks_by_workers) as f64;
    let spawned = (pool_after.workers_spawned - pool_before.workers_spawned) as f64;
    let _ = writeln!(
        out,
        "plan cache: {:.3} hit rate ({} hits / {} misses, {} invalidations); \
         admission: {} admitted, {} queue rejections",
        stats.cache_hit_rate(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_invalidations,
        stats.admitted,
        stats.queue_rejections
    );
    let _ = writeln!(
        out,
        "shared pool: {task_sets:.0} task sets, {worker_tasks:.0} worker-run tasks, \
         {spawned:.0} threads spawned during the run (persistent workers reused)"
    );
    metrics.push((
        "serve_plan_cache_hit_rate".to_string(),
        stats.cache_hit_rate(),
    ));
    metrics.push(("serve_admitted".to_string(), stats.admitted as f64));
    metrics.push(("serve_pool_task_sets".to_string(), task_sets));
    metrics.push(("serve_pool_tasks_by_workers".to_string(), worker_tasks));
    metrics.push(("serve_pool_workers_spawned".to_string(), spawned));
    Ok((out, metrics))
}

/// Multi-node cluster drill: the same segmented-fact ⋈ resegmented-dim mix
/// on 1 node and on a 4-node K=1 cluster (results asserted identical before
/// anything is timed), then a node kill → buddy-read pass → recovery,
/// recording distributed speedup, degraded latency, recovery time and
/// exchange traffic for CI's cluster-smoke gate.
pub fn cluster(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    use crate::workloads::cluster as wl;
    const NODES: usize = 4;
    let single = wl::build(1, rows)?;
    let clustered = wl::build(NODES, rows)?;
    // Correctness first: distribution must be invisible in the answers.
    let expected = wl::run_mix(&single)?;
    if wl::run_mix(&clustered)? != expected {
        return Err(vdb_types::DbError::Execution(
            "distributed results diverged from single-node execution".into(),
        ));
    }
    // Best-of-2, interleaved so allocator drift cannot bias one side.
    let mut single_ms = f64::INFINITY;
    let mut dist_ms = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let _ = wl::run_mix(&single)?;
        single_ms = single_ms.min(t.elapsed().as_secs_f64() * 1000.0);
        let t = Instant::now();
        let _ = wl::run_mix(&clustered)?;
        dist_ms = dist_ms.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    // Kill a node: the mix must still answer (buddy reads), timed degraded.
    clustered.cluster().fail_node(2);
    if wl::run_mix(&clustered)? != expected {
        return Err(vdb_types::DbError::Execution(
            "buddy reads diverged from single-node execution".into(),
        ));
    }
    let mut degraded_ms = f64::INFINITY;
    for _ in 0..2 {
        let t = Instant::now();
        let _ = wl::run_mix(&clustered)?;
        degraded_ms = degraded_ms.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    // Recover from buddy containers, timed, then prove the recovered node
    // really serves by failing a *different* node and re-running the mix.
    let t = Instant::now();
    let stats = clustered.cluster().recover_node(2)?;
    let recovery_ms = t.elapsed().as_secs_f64() * 1000.0;
    clustered.cluster().fail_node(0);
    if wl::run_mix(&clustered)? != expected {
        return Err(vdb_types::DbError::Execution(
            "post-recovery buddy reads diverged from single-node execution".into(),
        ));
    }
    clustered.cluster().recover_node(0)?;
    let exchange_bytes = clustered.cluster().exchange_bytes_sent();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let speedup = single_ms / dist_ms.max(0.001);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Cluster: {rows}-row fact ⋈ {}-key dim on {NODES} nodes (K=1, {cores} core{}) ==",
        wl::DIM_KEYS,
        if cores == 1 { "" } else { "s" }
    );
    let _ = writeln!(out, "{:<26}{:>12}{:>10}", "Configuration", "ms", "speedup");
    let _ = writeln!(out, "{:<26}{single_ms:>12.1}{:>10.2}", "1 node", 1.0);
    let _ = writeln!(
        out,
        "{:<26}{dist_ms:>12.1}{speedup:>10.2}",
        format!("{NODES} nodes (all up)")
    );
    let _ = writeln!(
        out,
        "{:<26}{degraded_ms:>12.1}{:>10.2}",
        format!("{NODES} nodes (1 down)"),
        single_ms / degraded_ms.max(0.001)
    );
    let _ = writeln!(
        out,
        "node recovery from buddies: {recovery_ms:.1} ms ({} projections); \
         exchange traffic: {exchange_bytes} bytes",
        stats.projections_recovered
    );
    if cores == 1 {
        let _ = writeln!(
            out,
            "note: single-CPU host — node-local plans cannot overlap, so the \
             distributed run shows the simulation's overhead floor; on \
             multi-core hardware the per-node partials run concurrently."
        );
    }
    let metrics = vec![
        ("cluster_rows".to_string(), rows as f64),
        ("cluster_nodes".to_string(), NODES as f64),
        ("cluster_cores".to_string(), cores as f64),
        ("cluster_single_ms".to_string(), single_ms),
        ("cluster_dist_ms".to_string(), dist_ms),
        ("cluster_distributed_speedup".to_string(), speedup),
        ("cluster_degraded_ms".to_string(), degraded_ms),
        ("cluster_recovery_ms".to_string(), recovery_ms),
        (
            "cluster_projections_recovered".to_string(),
            stats.projections_recovered as f64,
        ),
        ("cluster_exchange_bytes".to_string(), exchange_bytes as f64),
    ];
    Ok((out, metrics))
}

/// Trace-driven automatic physical design (§6.3 closed-loop): a ts-sorted
/// table answers a hot metric-filtered mix through serving sessions (the
/// traffic populates the query trace), then [`vdb_core::Database::auto_design`]
/// enumerates / costs / deploys projections online and the same mix re-runs.
/// Results are asserted identical before anything is compared; the measured
/// `design_speedup` feeds CI's bench-smoke gate.
pub fn design(rows: usize) -> DbResult<(String, Vec<(String, f64)>)> {
    const METRICS: i64 = 300;
    let engine = vdb_core::Engine::builder().open()?;
    engine.execute("CREATE TABLE m (metric INT, meter INT, ts INT, value INT)")?;
    // The seed design is time-ordered — right for ingest, wrong for the
    // metric-filtered workload below.
    engine.execute(
        "CREATE PROJECTION m_super AS SELECT metric, meter, ts, value FROM m \
         ORDER BY ts SEGMENTED BY HASH(meter) ALL NODES",
    )?;
    let data: Vec<vdb_types::Row> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Integer(i % METRICS),
                Value::Integer(i % 2000),
                Value::Integer(1_330_000_000 + i),
                Value::Integer(i % 977),
            ]
        })
        .collect();
    engine.load("m", &data)?;
    let mix = [
        "SELECT meter, value FROM m WHERE metric = 7",
        "SELECT meter, value FROM m WHERE metric = 113",
        "SELECT COUNT(*) FROM m WHERE metric = 42",
        "SELECT metric, SUM(value) FROM m WHERE metric = 251 GROUP BY metric",
    ];
    let session = engine.session();
    let run_mix = |session: &vdb_core::Session| -> DbResult<Vec<Vec<vdb_types::Row>>> {
        mix.iter()
            .map(|q| {
                let mut rows = session.query(q)?;
                rows.sort();
                Ok(rows)
            })
            .collect()
    };
    let time_mix = |session: &vdb_core::Session| -> DbResult<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for q in &mix {
                let _ = session.query(q)?;
            }
            best = best.min(t.elapsed().as_secs_f64() * 1000.0);
        }
        Ok(best)
    };
    // Warm pass collects expected results and seeds the trace; the timed
    // passes add hits (every execution is traced, timed or not).
    let expected = run_mix(&session)?;
    let before_ms = time_mix(&session)?;
    let report = engine.auto_design(vdb_core::DesignPolicy::QueryOptimized)?;
    if report.installed.is_empty() {
        return Err(vdb_types::DbError::Execution(format!(
            "auto_design installed nothing from {} traced statements",
            report.traced_statements
        )));
    }
    // One untimed pass replans through the invalidated cache (both timed
    // sides then run warm-cache), and proves the answers are unchanged.
    if run_mix(&session)? != expected {
        return Err(vdb_types::DbError::Execution(
            "auto-designed projections changed query results".into(),
        ));
    }
    let after_ms = time_mix(&session)?;
    let speedup = before_ms / after_ms.max(0.001);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Automatic physical design: trace → enumerate → cost → deploy ({rows} rows) =="
    );
    let _ = writeln!(
        out,
        "{} traced statements; {} projection(s) installed online:",
        report.traced_statements,
        report.installed.len()
    );
    for p in &report.installed {
        let _ = writeln!(
            out,
            "  {} (predicted {:.1}x): {}",
            p.name, p.predicted_speedup, p.rationale
        );
    }
    let _ = writeln!(
        out,
        "hot mix ({} statements): before {before_ms:.1} ms, after {after_ms:.1} ms, \
         speedup {speedup:.2}x",
        mix.len()
    );
    let metrics = vec![
        ("design_rows".to_string(), rows as f64),
        (
            "design_traced_statements".to_string(),
            report.traced_statements as f64,
        ),
        (
            "design_projections_installed".to_string(),
            report.installed.len() as f64,
        ),
        ("design_before_ms".to_string(), before_ms),
        ("design_after_ms".to_string(), after_ms),
        ("design_speedup".to_string(), speedup),
    ];
    Ok((out, metrics))
}

/// Render a flat `name → number` map plus per-section wall-clock timings as
/// the `BENCH_repro.json` document (hand-rolled; no serializer dependency).
pub fn bench_json(sections: &[(String, f64)], metrics: &[(String, f64)]) -> String {
    fn num(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.3}")
        } else {
            "null".to_string()
        }
    }
    let mut s = String::from("{\n  \"sections\": [\n");
    for (i, (name, ms)) in sections.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"wall_ms\": {}}}{}",
            num(*ms),
            if i + 1 < sections.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"metrics\": {\n");
    for (i, (name, v)) in metrics.iter().enumerate() {
        let _ = writeln!(
            s,
            "    \"{name}\": {}{}",
            num(*v),
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    s.push_str("  }\n}\n");
    s
}

/// Meter-data generator parameters scaled to a row budget, preserving the
/// paper's samples-per-series ratio.
pub fn scaled_meter_config(target_rows: usize) -> meter::MeterConfig {
    let per_series = 300usize;
    let series = (target_rows / per_series).max(1);
    // Keep the paper's ~1:7 metric:meter ratio.
    let n_metrics = ((series as f64 / 7.0).sqrt().ceil() as i64).max(1);
    let n_meters = (series as i64 / n_metrics).max(1);
    meter::MeterConfig {
        n_metrics,
        n_meters,
        seed: 2012,
    }
}

/// Figure 1: a table with a super projection and a narrow (cust, price)
/// projection; shows the physical designs and the narrow-scan advantage.
pub fn figure1(rows: usize) -> DbResult<String> {
    let db = vdb_core::Engine::builder().open()?;
    db.execute("CREATE TABLE sales (sale_id INT, cust VARCHAR, price FLOAT, date TIMESTAMP)")?;
    db.execute(
        "CREATE PROJECTION sales_super AS SELECT sale_id, cust, price, date FROM sales \
         ORDER BY date SEGMENTED BY HASH(sale_id) ALL NODES",
    )?;
    db.execute(
        "CREATE PROJECTION sales_cust_price AS SELECT cust, price FROM sales \
         ORDER BY cust SEGMENTED BY HASH(cust) ALL NODES",
    )?;
    let mut data = Vec::with_capacity(rows);
    for i in 0..rows as i64 {
        data.push(vec![
            Value::Integer(i),
            Value::Varchar(format!("cust{}", i % 97)),
            Value::Float((i % 1000) as f64 / 10.0),
            Value::Timestamp(1_330_000_000 + i * 60),
        ]);
    }
    db.load("sales", &data)?;
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 1: tables vs projections ({rows} rows) ==");
    for fam in ["sales_super", "sales_cust_price"] {
        let def = db.cluster().family_def(fam).unwrap();
        let _ = writeln!(out, "{}", def.describe());
    }
    // The narrow projection answers cust/price queries with less I/O: the
    // optimizer picks it automatically.
    let explain = db.execute("EXPLAIN SELECT cust, SUM(price) FROM sales GROUP BY cust")?;
    let text: String = explain.rows.iter().map(|r| format!("{}\n", r[0])).collect();
    let _ = writeln!(out, "\nplan for SELECT cust, SUM(price) ... GROUP BY cust:");
    out.push_str(&text);
    assert!(
        text.contains("sales_cust_price"),
        "optimizer should pick the narrow projection: {text}"
    );
    let t = Instant::now();
    db.query("SELECT cust, SUM(price) FROM sales GROUP BY cust")?;
    let narrow_ms = t.elapsed().as_secs_f64() * 1000.0;
    let t = Instant::now();
    db.query("SELECT date, COUNT(*) FROM sales GROUP BY date LIMIT 5")?;
    let super_ms = t.elapsed().as_secs_f64() * 1000.0;
    let _ = writeln!(
        out,
        "narrow-projection aggregate: {narrow_ms:.1} ms; super-projection scan: {super_ms:.1} ms"
    );
    Ok(out)
}

/// Figure 2: physical storage layout (partitions × local segments ×
/// containers × files) plus partition-pruned vs full scans.
pub fn figure2(rows_per_month: usize) -> DbResult<String> {
    use vdb_storage::partition::PartitionSpec;
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{ColumnDef, DataType, Epoch, Row, TableSchema};

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
    let mut rows: Vec<Row> = Vec::new();
    for m in 3..=6u32 {
        for d in 0..rows_per_month as i64 {
            rows.push(vec![
                Value::Integer(d * 7919 % 100_000),
                Value::Timestamp(vdb_types::date::timestamp_from_civil(
                    2012,
                    m,
                    1 + (d % 27) as u32,
                    0,
                    0,
                    0,
                )),
            ]);
        }
    }
    store.insert_direct_ros(rows, Epoch(1))?;
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 2: physical storage layout ==");
    out.push_str(&vdb_storage::layout::render(&store));
    // Partition pruning: scan April only.
    let april = vdb_types::Expr::eq(vdb_types::Expr::col(0, "pk"), vdb_types::Expr::int(201_204));
    let snap = store.scan_snapshot(Epoch(1));
    let mut pruned_scan = vdb_exec::scan::ScanOperator::new(
        store.backend().clone(),
        snap.containers.clone(),
        vec![],
        vec![0, 1],
        None,
        Some(april),
        vec![],
    );
    let stats = pruned_scan.stats();
    let pruned_rows = vdb_exec::operator::collect_rows(&mut pruned_scan)?.len();
    let s = stats.lock().clone();
    let _ = writeln!(
        out,
        "scan of partition 201204: {pruned_rows} rows; containers pruned {}/{} \
         (rows touched {} of {})",
        s.containers_pruned_partition,
        s.containers_total,
        s.rows_scanned,
        4 * rows_per_month
    );
    Ok(out)
}

/// Figure 3: the multi-threaded pipelined plan — EXPLAIN rendering plus a
/// 1-lane vs N-lane prepass timing: parallel partial GroupBys over
/// non-overlapping input slices (the StorageUnion thread-per-container
/// pattern) merged by a final GroupBy, exactly the prepass/final split the
/// figure shows.
pub fn figure3(rows: usize) -> DbResult<String> {
    use vdb_exec::aggregate::{AggCall, AggFunc};
    use vdb_exec::exchange::ParallelUnionOp;
    use vdb_exec::filter::ProjectOp;
    use vdb_exec::groupby::{two_phase_aggs, HashGroupByOp};
    use vdb_exec::operator::{collect_rows, BoxedOperator, ValuesOp};
    use vdb_exec::MemoryBudget;

    let db = vdb_core::Engine::builder().open()?;
    db.execute("CREATE TABLE t (g INT, v INT)")?;
    db.execute(
        "CREATE PROJECTION t_super AS SELECT g, v FROM t ORDER BY g \
         SEGMENTED BY HASH(v) ALL NODES",
    )?;
    db.execute("INSERT INTO t VALUES (1, 1)")?;
    let explain = db.execute("EXPLAIN SELECT g, COUNT(*), SUM(v) FROM t WHERE v > 0 GROUP BY g")?;
    let mut out = String::new();
    let _ = writeln!(out, "== Figure 3: pipelined multi-threaded plan ==");
    for r in &explain.rows {
        let _ = writeln!(out, "{}", r[0]);
    }
    // ParallelUnion scaling: each lane runs a *prepass* GroupBy over a
    // non-overlapping slice of the input (one thread per ROS container in
    // the figure); a final GroupBy merges the partials.
    let data: Vec<vdb_types::Row> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Integer(i % 1000),
                Value::Integer(i),
                Value::Float((i % 977) as f64),
            ]
        })
        .collect();
    let aggs = vec![
        AggCall::new(AggFunc::CountStar, 0, "cnt"),
        AggCall::new(AggFunc::Sum, 1, "sum"),
        AggCall::new(AggFunc::Min, 2, "min"),
        AggCall::new(AggFunc::Max, 2, "max"),
        AggCall::new(AggFunc::Avg, 2, "avg"),
    ];
    let run = |lanes: usize, data: &[vdb_types::Row]| -> DbResult<f64> {
        let (partial, final_aggs, project) = two_phase_aggs(1, &aggs).unwrap();
        // Materialize per-lane batches up front (reading containers is the
        // storage layer's job; this times the aggregation pipeline).
        let chunk = data.len().div_ceil(lanes);
        let lanes_batches: Vec<Vec<vdb_exec::Batch>> = data
            .chunks(chunk)
            .map(|slice| {
                slice
                    .chunks(1024)
                    .map(|c| vdb_exec::Batch::from_rows(c.to_vec()))
                    .collect()
            })
            .collect();
        let t = Instant::now();
        let children: Vec<BoxedOperator> = lanes_batches
            .into_iter()
            .map(|batches| {
                // Lane partials are computed on worker threads; group
                // columns stay [0] so partials merge exactly.
                Box::new(HashGroupByOp::new(
                    Box::new(ValuesOp::new(batches)),
                    vec![0],
                    partial.clone(),
                    MemoryBudget::unlimited(),
                )) as BoxedOperator
            })
            .collect();
        let union = ParallelUnionOp::new(children);
        let final_gb = HashGroupByOp::new(
            Box::new(union),
            vec![0],
            final_aggs.clone(),
            MemoryBudget::unlimited(),
        );
        let mut proj = ProjectOp::new(Box::new(final_gb), project.clone());
        let n = collect_rows(&mut proj)?.len();
        assert_eq!(n, 1000);
        Ok(t.elapsed().as_secs_f64() * 1000.0)
    };
    let ms1 = run(1, &data)?;
    let ms4 = run(4, &data)?;
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let _ = writeln!(
        out,
        "parallel prepass GroupBy over {rows} rows: 1 lane {ms1:.1} ms, 4 lanes {ms4:.1} ms \
         (speedup {:.2}x on {cores} core{})",
        ms1 / ms4.max(0.001),
        if cores == 1 { "" } else { "s" }
    );
    if cores == 1 {
        let _ = writeln!(
            out,
            "note: this host exposes a single CPU, so lanes cannot overlap; the \
             measurement shows the parallel infrastructure adds no overhead. On \
             multi-core hardware the lanes scale with cores (per-lane work is \
             independent partial aggregation)."
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_2_renders() {
        let t = table1_2();
        assert!(t.contains("Compatibility"));
        assert!(t.lines().count() > 16);
    }

    #[test]
    fn table3_small_scale_shape_holds() {
        let out = table3(20_000).unwrap();
        assert!(out.contains("Total"), "{out}");
        assert!(out.contains("Disk"), "{out}");
        // Disk shape: C-Store must need more bytes than Vertica.
        let line = out.lines().find(|l| l.starts_with("Disk")).unwrap();
        let ratio: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(ratio > 1.2, "C-Store should need >1.2x disk, got {ratio}");
    }

    #[test]
    fn table4_small_scale_shape_holds() {
        let out = table4(50_000, 50_000).unwrap();
        // Vertica must beat gzip on both datasets (the experiment's point).
        assert!(out.contains("Vertica"), "{out}");
        for section in out.split("== Table") {
            if !section.contains("Vertica") {
                continue;
            }
            let bytes_of = |name: &str| -> f64 {
                section
                    .lines()
                    .find(|l| l.starts_with(name))
                    .and_then(|l| l.split_whitespace().nth(1))
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(f64::NAN)
            };
            let gz = bytes_of("gzip-class");
            let v = bytes_of("Vertica");
            assert!(
                v < gz,
                "Vertica ({v}) must beat gzip-class ({gz}) in section: {section}"
            );
        }
    }

    #[test]
    fn figure1_uses_narrow_projection() {
        let out = figure1(20_000).unwrap();
        assert!(out.contains("sales_cust_price"));
    }

    #[test]
    fn figure2_prunes_partitions() {
        let out = figure2(500).unwrap();
        assert!(out.contains("partition 201203"), "{out}");
        assert!(out.contains("containers pruned"), "{out}");
        // 3 of 4 partitions pruned × 3 local segments = 9 containers.
        assert!(out.contains("containers pruned 9/12"), "{out}");
    }

    #[test]
    fn exec_expr_reports_speedups_and_zero_pivots() {
        let (out, metrics) = exec_expr(60_000).unwrap();
        assert!(out.contains("Vectorized expressions"), "{out}");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("exec_expr_rows"), 60_000.0);
        assert!(get("exec_expr_row_ms") > 0.0);
        assert!(get("exec_expr_vec_ms") > 0.0);
        assert!(get("exec_expr_speedup") > 0.0);
        assert_eq!(get("exec_expr_pipeline_pivots"), 0.0);
    }

    #[test]
    fn exec_parallel_reports_speedups() {
        let (out, metrics) = exec_parallel(60_000).unwrap();
        assert!(out.contains("serial typed path"), "{out}");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("exec_parallel_rows"), 60_000.0);
        assert!(get("exec_parallel_serial_ms") > 0.0);
        assert!(get("exec_parallel_speedup_4") > 0.0);
    }

    #[test]
    fn exec_parallel_join_reports_speedups() {
        let (out, metrics) = exec_parallel_join(40_000).unwrap();
        assert!(out.contains("serial hash join"), "{out}");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("exec_parallel_join_rows"), 40_000.0);
        assert!(get("exec_parallel_join_serial_ms") > 0.0);
        assert!(get("exec_parallel_join_speedup_4") > 0.0);
        assert!(get("exec_parallel_join_build_ms_4") >= 0.0);
        assert!(get("exec_parallel_join_probe_ms_4") >= 0.0);
    }

    #[test]
    fn exec_compressed_reports_speedups_and_pruning() {
        let (out, metrics) = exec_compressed(40_000).unwrap();
        assert!(out.contains("Compressed-domain execution"), "{out}");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("exec_compressed_rows"), 40_000.0);
        assert!(get("exec_compressed_groupby_speedup") > 0.0);
        assert!(get("exec_compressed_scan_speedup") > 0.0);
        assert!(get("scan_blocks_pruned") > 0.0);
        assert!(get("scan_rows_decode_skipped") > 0.0);
        assert!(get("exec_compressed_for_ratio") <= 0.5);
        assert!(get("exec_compressed_dod_ratio") <= 0.5);
    }

    #[test]
    fn cluster_reports_speedup_and_recovery() {
        let (out, metrics) = cluster(20_000).unwrap();
        assert!(out.contains("node recovery from buddies"), "{out}");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("cluster_rows"), 20_000.0);
        assert_eq!(get("cluster_nodes"), 4.0);
        assert!(get("cluster_distributed_speedup") > 0.0);
        assert!(get("cluster_recovery_ms") > 0.0);
        assert!(get("cluster_projections_recovered") >= 1.0);
        assert!(get("cluster_exchange_bytes") > 0.0);
    }

    #[test]
    fn design_reports_speedup_and_installs() {
        let (out, metrics) = design(40_000).unwrap();
        assert!(out.contains("Automatic physical design"), "{out}");
        let get = |name: &str| {
            metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("design_rows"), 40_000.0);
        assert!(get("design_traced_statements") >= 4.0);
        assert!(get("design_projections_installed") >= 1.0);
        assert!(
            get("design_speedup") > 1.0,
            "design must pay for itself: {out}"
        );
    }

    #[test]
    fn figure3_parallel_plan() {
        let out = figure3(100_000).unwrap();
        assert!(out.contains("GroupBy"), "{out}");
        assert!(out.contains("speedup"), "{out}");
    }
}
