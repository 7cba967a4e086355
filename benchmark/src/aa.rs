//! `benchmark aa`: two sets of full runs of the same tree, alternating.
//! Whatever differs between the sets is noise, so each pair of set
//! medians must agree within the metric's bound (half the bound is the
//! target) and each set's quartile spread should sit well inside it.

use crate::host;
use crate::json::{array, metric_value, num, Obj};
use crate::runner::median;
use crate::spec::END_TO_END;
use crate::workloads;
use std::path::Path;
use std::process::Command;

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the driver's rule).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

struct RunResult {
    line: String,
    degraded: bool,
}

fn one_run(workload: &str, seed: u64, seconds: u64, out_dir: &Path) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--out-dir")
        .arg(out_dir)
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!("run of {workload} seed {seed} failed: {stderr}"));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default().to_string();
    Ok(RunResult {
        line,
        degraded: stderr.contains("degraded_host"),
    })
}

/// Returns whether every pair of set medians agrees within its bound.
pub fn run(runs: usize, seed: u64, seconds: u64, out_dir: &Path) -> Result<bool, String> {
    let warm = host::warm_up();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    // values[workload][metric][set] = one value per run
    let mut values = vec![vec![[Vec::new(), Vec::new()]; END_TO_END.len()]; workloads::ALL.len()];
    let mut degraded_runs = 0;
    for run in 0..runs {
        // Alternate which set goes first; both sets see the same seeds.
        for set in [run % 2, 1 - run % 2] {
            for (w, workload) in workloads::ALL.iter().enumerate() {
                let result = one_run(workload.name, seed + run as u64, seconds, out_dir)?;
                degraded_runs += usize::from(result.degraded);
                for (k, spec) in END_TO_END.iter().enumerate() {
                    let value = metric_value(&result.line, spec.name)
                        .ok_or_else(|| format!("no {} in `{}`", spec.name, result.line))?;
                    values[w][k][set].push(value);
                }
                eprintln!("aa: run {} set {set} {} done", run + 1, workload.name);
            }
        }
    }

    let mut all_agree = true;
    let mut workload_reports = Vec::new();
    for (w, workload) in workloads::ALL.iter().enumerate() {
        println!("{}", workload.name);
        let mut metric_reports = Vec::new();
        for (k, spec) in END_TO_END.iter().enumerate() {
            let sets: Vec<(f64, f64, f64)> = values[w][k]
                .iter()
                .map(|v| {
                    let (q1, q3) = quartiles(v);
                    (median(v), q1, q3)
                })
                .collect();
            let (a, b) = (sets[0].0, sets[1].0);
            // Either set may play the parent: the worse one is off by this.
            let worse = a.max(b) / a.min(b) - 1.0;
            let spread = sets
                .iter()
                .map(|(med, q1, q3)| (q3 - q1) / med)
                .fold(0.0, f64::max);
            let agrees = worse <= spec.bound;
            all_agree &= agrees;
            println!(
                "  {:<24} {:>12.4} [{:.4} {:.4}] | {:>12.4} [{:.4} {:.4}] {:<6} medians differ {:.2}% spread {:.2}% bound {:.0}% {}",
                spec.name, sets[0].0, sets[0].1, sets[0].2, sets[1].0, sets[1].1, sets[1].2, spec.unit,
                worse * 100.0, spread * 100.0, spec.bound * 100.0,
                if !agrees { "FAIL" } else if worse <= spec.bound / 2.0 { "ok" } else { "ok (above half the bound)" },
            );
            let set_json = |(med, q1, q3): &(f64, f64, f64)| {
                Obj::new()
                    .num("median", *med)
                    .num("q1", *q1)
                    .num("q3", *q3)
                    .finish()
            };
            metric_reports.push(
                Obj::new()
                    .str("name", spec.name)
                    .str("unit", spec.unit)
                    .raw("bound", &num(spec.bound))
                    .raw("set_a", &set_json(&sets[0]))
                    .raw("set_b", &set_json(&sets[1]))
                    .num("medians_differ", worse)
                    .num("spread", spread)
                    .bool("agrees", agrees)
                    .finish(),
            );
        }
        workload_reports.push(
            Obj::new()
                .str("workload", workload.name)
                .raw("metrics", &array(&metric_reports))
                .finish(),
        );
    }
    let report = Obj::new()
        .int("runs_per_set", runs as u64)
        .int("first_seed", seed)
        .int("seconds", seconds)
        .int("nproc", warm.nproc as u64)
        .str("kernel", kernel.trim())
        .num("host.par_ratio", warm.par_ratio)
        .num("host.warmup_s", warm.seconds)
        .str("host.data_dir_fs", &host::fs_type(out_dir))
        .int("degraded_host_runs", degraded_runs as u64)
        .bool("all_agree", all_agree)
        .raw("workloads", &array(&workload_reports))
        .finish();
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = out_dir.join("aa_reference.json");
    std::fs::write(&path, format!("{report}\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "degraded_host runs: {degraded_runs}; written {}",
        path.display()
    );
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
