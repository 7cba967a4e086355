//! The metric tables: what `BENCHMARK.json` declares and every run prints.

use crate::json::{array, num, Obj};
use crate::workloads;

/// An end-to-end metric and the share of the parent's median by which it
/// may get worse before a change counts as a regression. Each bound is at
/// least three times the widest quartile spread the metric showed over
/// ten seeds on any workload (`dash_short` sets the timing ones).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "stmt_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.12,
    },
    EndToEnd {
        name: "stmt_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "stmt_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ms_per_stmt",
        unit: "ms",
        better: "lower",
        bound: 0.12,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "stored_bytes_per_row",
        unit: "B/row",
        better: "lower",
        bound: 0.02,
    },
    EndToEnd {
        name: "fs_write_bytes_per_row",
        unit: "B/row",
        better: "lower",
        bound: 0.02,
    },
];

/// A per-layer metric: `(name, unit, better)`. Printed by a traced run,
/// for every workload; a metric of a layer the workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("sql.normalize_us", "us", "lower"),
    ("sql.compile_us", "us", "lower"),
    ("optimizer.catalog_ms", "ms", "lower"),
    ("optimizer.plan_us", "us", "lower"),
    ("optimizer.nonsuper_share", "ratio", "higher"),
    ("serve.overhead_us", "us", "lower"),
    ("serve.cache_hit_rate", "ratio", "higher"),
    ("serve.cache_misses", "count", "lower"),
    ("serve.cache_invalidations", "count", "lower"),
    ("serve.queue_rejections", "count", "lower"),
    ("serve.queue_timeouts", "count", "lower"),
    ("stmt.class_p50_ms.c0", "ms", "lower"),
    ("stmt.class_p50_ms.c1", "ms", "lower"),
    ("stmt.class_p50_ms.c2", "ms", "lower"),
    ("stmt.class_p50_ms.c3", "ms", "lower"),
    ("stmt.class_p50_ms.c4", "ms", "lower"),
    ("exec.run_ms.c0", "ms", "lower"),
    ("exec.run_ms.c1", "ms", "lower"),
    ("exec.run_ms.c2", "ms", "lower"),
    ("exec.run_ms.c3", "ms", "lower"),
    ("exec.run_ms.c4", "ms", "lower"),
    ("exec.share", "ratio", "lower"),
    ("exec.rows_out", "count", "lower"),
    ("exec.pool_tasks_by_workers", "count", "higher"),
    ("exec.pool_tasks_by_callers", "count", "lower"),
    ("exec.row_pivots", "count", "lower"),
    ("storage.read_bytes_per_stmt", "B", "lower"),
    ("storage.col_read_mb_per_s", "MB/s", "higher"),
    ("storage.containers", "count", "lower"),
    ("storage.snapshot_us", "us", "lower"),
    ("storage.insert_exec_us", "us", "lower"),
    ("storage.mover_tick_ms_p50", "ms", "lower"),
    ("storage.mover_tick_ms_max", "ms", "lower"),
    ("storage.mover_share", "ratio", "lower"),
    ("storage.write_calls_per_stmt", "count", "lower"),
    ("storage.files", "count", "lower"),
    ("storage.wos_rows_peak", "count", "lower"),
    ("storage.ingest_rows_per_s", "1/s", "higher"),
    ("storage.reopen_s", "s", "lower"),
    ("encoding.decode_mvals_per_s", "M/s", "higher"),
    ("encoding.encode_mvals_per_s", "M/s", "higher"),
    ("encoding.bytes_per_value.metric", "B", "lower"),
    ("encoding.bytes_per_value.meter", "B", "lower"),
    ("encoding.bytes_per_value.ts", "B", "lower"),
    ("encoding.bytes_per_value.region", "B", "lower"),
    ("encoding.bytes_per_value.value", "B", "lower"),
    ("encoding.codecs_in_use", "count", "higher"),
    ("txn.lock_conflicts", "count", "lower"),
    ("txn.epochs_advanced", "count", "lower"),
    ("cluster.exchange_bytes_per_stmt", "B", "lower"),
    ("cluster.up_nodes", "count", "higher"),
    ("host.par_ratio", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.warmup_s", "s", "lower"),
    ("host.data_dir_tmpfs", "count", "higher"),
    ("host.degraded", "count", "lower"),
    ("harness.round_spread", "ratio", "lower"),
    ("harness.rounds", "count", "higher"),
    ("harness.slots", "count", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.named_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
];

/// Seconds of measured rounds the driver asks for.
pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`; a test holds the committed file to it.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    let command: Vec<String> = command.iter().map(|c| crate::json::string(c)).collect();
    let workloads: Vec<String> = workloads::ALL
        .iter()
        .map(|w| Obj::new().str("name", w.name).str("why", w.why).finish())
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            Obj::new()
                .str("name", m.name)
                .str("unit", m.unit)
                .str("better", m.better)
                .raw("bound", &num(m.bound))
                .finish()
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            Obj::new()
                .str("name", name)
                .str("unit", unit)
                .str("better", better)
                .finish()
        })
        .collect();
    let lines = |items: &[String]| format!("[\n    {}\n  ]", items.join(",\n    "));
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        array(&command),
        lines(&workloads),
        lines(&end_to_end),
        lines(&per_layer),
    )
}
