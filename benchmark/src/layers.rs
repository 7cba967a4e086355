//! The traced run: per-layer numbers from spans around the calls into each
//! crate, from the crates' own counters, and from probes on the loaded
//! data.
//!
//! After set-up and its warm-up round come three rounds: `A` untraced
//! through `Session::execute` (the baseline, and the window the counters
//! are read over), `B` the same with one span per statement (tracing
//! overhead = `A` vs `B`), and `C` with every statement taken apart into
//! one span per layer.

use crate::host::{self, HostWarm, ProcIo};
use crate::json::{array, Obj};
use crate::ops::{Plan, Workload};
use crate::runner::{
    counted_engine, fact_store_names, host_complaint, median, percentile, round_spread, set_up,
    Config, Harness, Metric, Outcome, SetUp,
};
use crate::spec::PER_LAYER;
use crate::trace::{Span, SpanLog};
use std::collections::HashMap;
use std::time::Instant;
use vdb_encoding::{ColumnReader, ColumnWriter, EncodingType};

/// Columns of `m` in the super-projection, in order.
const FACT_COLUMNS: [&str; 5] = ["metric", "meter", "ts", "region", "value"];

pub fn traced_run(
    workload: &Workload,
    plan: &Plan,
    config: &Config,
    warm: HostWarm,
) -> Result<Outcome, String> {
    let on_disk = plan.engine.timed_on_disk;
    let mut timed = set_up(plan, config, 1, true, on_disk)?;
    let slots = plan.ops.slots.len();
    let mut m: HashMap<&'static str, f64> = HashMap::new();

    // Round A, with the engine's counters read on both sides of it.
    let harness = &mut timed.harness;
    let db = harness.engine.database().clone();
    let serve_before = harness.engine.server().stats();
    let pool_before = vdb_exec::pool::shared().stats();
    let pivots_before = vdb_exec::batch::row_pivot_count();
    let exchange_before = db.cluster().exchange_bytes_sent();
    let epoch_before = db.cluster().epochs.current();
    let rows_out_before = harness.oracle.rows_out;
    let io_before = ProcIo::read()?;
    let a = harness.run_round(1, None, false);
    let mut io = ProcIo::read()?.since(&io_before);
    let serve = harness.engine.server().stats();
    let pool = vdb_exec::pool::shared().stats();
    let hits = serve.cache_hits - serve_before.cache_hits;
    let misses = serve.cache_misses - serve_before.cache_misses;
    m.insert(
        "serve.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert("serve.cache_misses", misses as f64);
    m.insert(
        "serve.cache_invalidations",
        (serve.cache_invalidations - serve_before.cache_invalidations) as f64,
    );
    m.insert(
        "serve.queue_rejections",
        (serve.queue_rejections - serve_before.queue_rejections) as f64,
    );
    m.insert(
        "serve.queue_timeouts",
        (serve.queue_timeouts - serve_before.queue_timeouts) as f64,
    );
    m.insert(
        "exec.pool_tasks_by_workers",
        (pool.tasks_by_workers - pool_before.tasks_by_workers) as f64,
    );
    m.insert(
        "exec.pool_tasks_by_callers",
        (pool.tasks_by_callers - pool_before.tasks_by_callers) as f64,
    );
    m.insert(
        "exec.row_pivots",
        (vdb_exec::batch::row_pivot_count() - pivots_before) as f64,
    );
    m.insert(
        "exec.rows_out",
        (harness.oracle.rows_out - rows_out_before) as f64 / slots as f64,
    );
    m.insert(
        "cluster.exchange_bytes_per_stmt",
        (db.cluster().exchange_bytes_sent() - exchange_before) as f64 / slots as f64,
    );
    m.insert(
        "txn.epochs_advanced",
        (db.cluster().epochs.current().0 - epoch_before.0) as f64,
    );
    m.insert("cluster.up_nodes", db.cluster().up_nodes().len() as f64);
    drop(db);
    m.insert("storage.mover_tick_ms_p50", median(&a.tick_ms));
    m.insert("storage.mover_tick_ms_max", percentile(&a.tick_ms, 1.0));
    m.insert(
        "storage.mover_share",
        a.tick_ms.iter().sum::<f64>() / 1e3 / a.wall_s,
    );

    // Rounds B and C, recorded.
    let mut log = SpanLog::default();
    let b = harness.run_round(2, Some(&mut log), false);
    harness
        .plan_repeated_reads()
        .map_err(|e| format!("planning the repeated reads failed: {e}"))?;
    let first_decomposed_stmt = harness.stmt_seq + 1;
    let c = harness.run_round(3, Some(&mut log), true);
    m.insert("trace.overhead_share", 1.0 - a.wall_s / b.wall_s);
    m.insert("trace.spans", log.spans.len() as f64);
    span_metrics(&mut m, plan, &log, &b.slot_ms, first_decomposed_stmt);
    m.insert(
        "optimizer.nonsuper_share",
        harness.planned_nonsuper as f64 / harness.planned.max(1) as f64,
    );
    m.insert("storage.wos_rows_peak", harness.wos_rows_peak as f64);

    // What only an engine on disk can tell: bytes and calls per
    // statement, files, column reads, the reopen. When the timed engine
    // was in memory, a durable one runs one more round to be counted.
    let (mut counted, timed_oracle) = counted_engine(timed, plan, config, 2, false)?;
    if timed_oracle.is_some() {
        let io_before = ProcIo::read()?;
        counted.harness.run_round(1, None, false);
        io = ProcIo::read()?.since(&io_before);
    }
    let SetUp {
        harness,
        dir,
        load_seconds,
        ..
    } = counted;
    m.insert(
        "storage.read_bytes_per_stmt",
        io.rchar as f64 / slots as f64,
    );
    m.insert(
        "storage.write_calls_per_stmt",
        io.syscw as f64 / slots as f64,
    );
    let mix = storage_probes(&mut m, &harness)?;
    m.insert(
        "storage.ingest_rows_per_s",
        plan.facts.rows as f64 / load_seconds,
    );
    let (harness, reopen_s) = harness.restart(&dir)?;
    m.insert("storage.reopen_s", reopen_s);
    let mut oracle = harness.oracle;
    oracle.absorb(timed_oracle);
    m.insert("txn.lock_conflicts", oracle.lock_conflicts as f64);

    let spread = round_spread(&[a, b, c]);
    let complaint = host_complaint(&warm, spread);
    m.insert("host.par_ratio", warm.par_ratio);
    m.insert("host.nproc", warm.nproc as f64);
    m.insert("host.warmup_s", warm.seconds);
    let fs = host::fs_type(dir.path());
    m.insert("host.data_dir_tmpfs", f64::from(u8::from(fs == "tmpfs")));
    m.insert("host.degraded", f64::from(u8::from(complaint.is_some())));
    m.insert("harness.round_spread", spread);
    m.insert("harness.rounds", 3.0);
    m.insert("harness.slots", slots as f64);

    let meta = Obj::new()
        .str("workload", workload.name)
        .int("seed", config.seed)
        .raw(
            "classes",
            &array(
                &plan
                    .ops
                    .classes
                    .iter()
                    .map(|c| crate::json::string(c))
                    .collect::<Vec<_>>(),
            ),
        )
        .bool("timed_on_disk", on_disk)
        .str("data_dir_fs", &fs)
        .str("encoding_mix", &mix)
        .finish();
    let path = config
        .out_dir
        .join(format!("trace_{}.jsonl", workload.name));
    log.write_jsonl(&path, &meta, &plan.ops.classes)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let mut complaints = oracle.complaints.clone();
    complaints.extend(complaint);
    Ok(Outcome {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name: name.to_string(),
                value: m.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect(),
        complaints,
    })
}

const CLASS_P50: [&str; 5] = [
    "stmt.class_p50_ms.c0",
    "stmt.class_p50_ms.c1",
    "stmt.class_p50_ms.c2",
    "stmt.class_p50_ms.c3",
    "stmt.class_p50_ms.c4",
];
const EXEC_RUN: [&str; 5] = [
    "exec.run_ms.c0",
    "exec.run_ms.c1",
    "exec.run_ms.c2",
    "exec.run_ms.c3",
    "exec.run_ms.c4",
];

/// Medians over the spans of round C, per layer and per class.
fn span_metrics(
    m: &mut HashMap<&'static str, f64>,
    plan: &Plan,
    log: &SpanLog,
    whole_ms: &[f64],
    first_decomposed_stmt: u32,
) {
    let ms_of = |name: &'static str| -> Vec<f64> { log.named(name).map(Span::ms).collect() };
    m.insert("sql.normalize_us", median(&ms_of("normalize")) * 1e3);
    m.insert("sql.compile_us", median(&ms_of("compile")) * 1e3);
    m.insert("optimizer.catalog_ms", median(&ms_of("catalog_rebuild")));
    m.insert("optimizer.plan_us", median(&ms_of("plan")) * 1e3);
    m.insert("storage.insert_exec_us", {
        let inserts: Vec<f64> = log
            .named("execute_bound")
            .filter(|s| plan.ops.classes[s.class as usize] == "insert")
            .map(Span::ms)
            .collect();
        median(&inserts) * 1e3
    });
    for class in 0..plan.ops.classes.len().min(5) {
        let of_class = |name: &'static str| -> Vec<f64> {
            log.named(name)
                .filter(|s| s.class as usize == class)
                .map(Span::ms)
                .collect()
        };
        m.insert(CLASS_P50[class], median(&of_class("session.execute")));
        m.insert(EXEC_RUN[class], median(&of_class("execute")));
    }

    // The children of each decomposed statement, by statement.
    let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
    for span in log.spans.iter().filter(|s| s.parent != 0) {
        children.entry(span.stmt).or_default().push(span);
    }
    let total: f64 = log.named("decomposed").map(Span::ms).sum();
    let named: f64 = children.values().flatten().map(|s| s.ms()).sum();
    let exec: f64 = log.named("execute").map(Span::ms).sum();
    m.insert("trace.named_share", named / total.max(1e-9));
    m.insert("exec.share", exec / total.max(1e-9));

    // What `Session::execute` (round B) costs a read beyond the calls
    // the harness makes for the same slot (round C): admission, the plan
    // cache, the query trace.
    let overheads: Vec<f64> = plan
        .ops
        .slots
        .iter()
        .enumerate()
        .filter(|(_, slot)| !slot.is_write())
        .filter_map(|(i, _)| {
            let parts = children.get(&(first_decomposed_stmt + i as u32))?;
            let made: f64 = parts.iter().map(|s| s.ms()).sum();
            Some((whole_ms[i] - made) * 1e3)
        })
        .collect();
    m.insert("serve.overhead_us", median(&overheads));
}

/// Probes over the fact projection's containers as loaded: raw column
/// reads, snapshot cost, decode and re-encode rates, bytes per value.
/// Returns the encodings in use, for the trace file's first line.
fn storage_probes(
    m: &mut HashMap<&'static str, f64>,
    harness: &Harness<'_>,
) -> Result<String, String> {
    let failed = |e: vdb_types::DbError| format!("storage probe failed: {e}");
    let cluster = harness.engine.cluster();
    let stores = fact_store_names(&harness.engine, harness.plan.fact_projection);
    let mut containers = 0;
    let mut column_bytes = [0u64; FACT_COLUMNS.len()];
    let mut ros_rows = 0u64;
    let mut read_bytes = 0usize;
    let mut read_seconds = 0.0;
    let mut snapshot_us = Vec::new();
    let mut codecs: std::collections::BTreeMap<String, u64> = Default::default();
    let mut decode = (0usize, 0.0);
    let mut encode = (0usize, 0.0);
    for (node, name) in &stores {
        let engine = cluster.node_engine(*node);
        let store = engine.projection(name).map_err(failed)?;
        let store = store.read();
        containers += store.container_count();
        for (total, bytes) in column_bytes.iter_mut().zip(store.column_bytes()) {
            *total += bytes;
        }
        for (col, encodings) in store.column_encodings().into_iter().enumerate() {
            if col < FACT_COLUMNS.len() {
                for (codec, rows) in encodings {
                    *codecs.entry(codec).or_default() += rows;
                }
            }
        }
        let t = Instant::now();
        let scan = store.scan_snapshot(cluster.epochs.read_committed_snapshot());
        for container in &scan.containers {
            container
                .visible(engine.backend().as_ref())
                .map_err(failed)?;
        }
        snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
        for (i, container) in store.containers().enumerate() {
            ros_rows += container.row_count;
            for col in 0..FACT_COLUMNS.len() {
                let t = Instant::now();
                let bytes = container
                    .read_column_bytes(engine.backend().as_ref(), col)
                    .map_err(failed)?;
                read_seconds += t.elapsed().as_secs_f64();
                read_bytes += bytes.len();
                // Decode and re-encode the first container of each store.
                if i > 0 {
                    continue;
                }
                let t = Instant::now();
                let values = ColumnReader::new(&bytes, &container.indexes[col])
                    .read_all()
                    .map_err(failed)?;
                decode = (
                    decode.0 + values.len(),
                    decode.1 + t.elapsed().as_secs_f64(),
                );
                let n = values.len();
                let t = Instant::now();
                let mut writer = ColumnWriter::new(EncodingType::Auto);
                writer.extend(values);
                std::hint::black_box(writer.finish());
                encode = (encode.0 + n, encode.1 + t.elapsed().as_secs_f64());
            }
        }
    }
    m.insert("storage.containers", containers as f64);
    m.insert("storage.snapshot_us", median(&snapshot_us));
    m.insert(
        "storage.col_read_mb_per_s",
        read_bytes as f64 / 1e6 / read_seconds.max(1e-9),
    );
    m.insert(
        "storage.files",
        (0..cluster.n_nodes())
            .map(|node| cluster.node_engine(node).backend().list_files("").len())
            .sum::<usize>() as f64,
    );
    m.insert(
        "encoding.decode_mvals_per_s",
        decode.0 as f64 / 1e6 / decode.1.max(1e-9),
    );
    m.insert(
        "encoding.encode_mvals_per_s",
        encode.0 as f64 / 1e6 / encode.1.max(1e-9),
    );
    const BYTES_PER_VALUE: [&str; 5] = [
        "encoding.bytes_per_value.metric",
        "encoding.bytes_per_value.meter",
        "encoding.bytes_per_value.ts",
        "encoding.bytes_per_value.region",
        "encoding.bytes_per_value.value",
    ];
    for (name, bytes) in BYTES_PER_VALUE.iter().zip(column_bytes) {
        m.insert(name, bytes as f64 / ros_rows.max(1) as f64);
    }
    m.insert("encoding.codecs_in_use", codecs.len() as f64);
    Ok(codecs
        .iter()
        .map(|(codec, rows)| format!("{codec}:{rows}"))
        .collect::<Vec<_>>()
        .join(" "))
}
