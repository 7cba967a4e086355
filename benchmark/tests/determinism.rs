//! `--seed` is the only source of inputs, and what is counted repeats.

use std::process::Command;
use vdb_benchmark::json::metric_value;
use vdb_benchmark::{spec, workloads};

#[test]
fn op_lists_are_a_function_of_the_seed() {
    for workload in &workloads::ALL {
        let first = (workload.plan)(14).ops.to_bytes();
        let again = (workload.plan)(14).ops.to_bytes();
        let other = (workload.plan)(15).ops.to_bytes();
        assert!(
            first == again,
            "{}: two builds from seed 14 differ",
            workload.name
        );
        assert!(
            first != other,
            "{}: seeds 14 and 15 give one op list",
            workload.name
        );
    }
}

#[test]
fn every_workload_has_200_slots_and_fresh_literals_never_repeat() {
    for workload in &workloads::ALL {
        let ops = (workload.plan)(14).ops;
        assert!(
            ops.slots.len() >= 200,
            "{}: {} slots",
            workload.name,
            ops.slots.len()
        );
        let mut fresh: Vec<String> = ops
            .slots
            .iter()
            .filter(|s| s.calls.len() > 1)
            .flat_map(|s| s.calls.iter().map(|c| format!("{c:?}")))
            .collect();
        let total = fresh.len();
        fresh.sort();
        fresh.dedup();
        assert_eq!(
            fresh.len(),
            total,
            "{}: a fresh literal repeats",
            workload.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the root of the repository");
    assert_eq!(committed, spec::benchmark_json());
    for workload in &workloads::ALL {
        assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
    }
}

/// The last line of one run's standard output.
fn run(workload: &str, trace: &str, out_dir: &std::path::Path) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "14",
            "--seconds",
            "6",
            "--trace",
            trace,
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

#[test]
fn counts_repeat_exactly_across_runs() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("determinism");
    let cases = [
        (
            "trickle_mixed",
            "0",
            vec!["stored_bytes_per_row", "fs_write_bytes_per_row"],
        ),
        ("trickle_mixed", "1", vec!["storage.write_calls_per_stmt"]),
        (
            "cluster_join",
            "1",
            vec![
                "cluster.exchange_bytes_per_stmt",
                "storage.write_calls_per_stmt",
            ],
        ),
    ];
    for (workload, trace, metrics) in cases {
        let first = run(workload, trace, &out_dir);
        let second = run(workload, trace, &out_dir);
        for metric in metrics {
            let a = metric_value(&first, metric).expect("metric is printed");
            let b = metric_value(&second, metric).expect("metric is printed");
            assert!(a > 0.0, "{workload} {metric} reads {a}");
            assert_eq!(
                a, b,
                "{workload} {metric} differs between two runs of one seed"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}
