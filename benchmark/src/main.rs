//! `benchmark run --workload <name|all> --seed N --seconds S --trace 0|1`
//! prints every metric by name and, as the last line of its standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `benchmark aa` compares two sets of runs of the same tree.

use std::path::PathBuf;
use vdb_benchmark::json::Obj;
use vdb_benchmark::runner::{run_workload, Config, Outcome};
use vdb_benchmark::{aa, spec, workloads};

const USAGE: &str =
    "usage: benchmark run --workload <scan_heavy|dash_short|trickle_mixed|cluster_join|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] [--data-dir DIR]
       benchmark aa [--runs N] [--seed N] [--seconds S] [--out-dir DIR]";

/// `--key value` pairs after the sub-command.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == key) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{key}: cannot read `{v}`")),
            None => Ok(default),
        }
    }
}

/// The result line the driver reads.
fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Obj::new();
    for m in &outcome.metrics {
        metrics = metrics.raw(
            &m.name,
            &Obj::new()
                .num("value", m.value)
                .str("unit", m.unit)
                .finish(),
        );
    }
    Obj::new()
        .bool("correct", outcome.failed == 0)
        .int("attempted", outcome.attempted)
        .int("failed", outcome.failed)
        .raw("metrics", &metrics.finish())
        .finish()
}

fn run(args: &Args) -> Result<bool, String> {
    let which: String = args.get("workload", "all".to_string())?;
    let out_dir: PathBuf = args.get("out-dir", PathBuf::from("benchmark/out"))?;
    let config = Config {
        seed: args.get("seed", 14)?,
        seconds: args.get("seconds", spec::RUN_SECONDS as f64)?,
        trace: args.get("trace", 0u8)? != 0,
        data_root: args.get("data-dir", out_dir.clone())?,
        out_dir,
    };
    let selected: Vec<_> = if which == "all" {
        workloads::ALL.iter().collect()
    } else {
        vec![workloads::by_name(&which).ok_or_else(|| format!("no workload `{which}`\n{USAGE}"))?]
    };
    let mut correct = true;
    for workload in selected {
        let outcome = run_workload(workload, &config)?;
        println!("workload {} seed {}", workload.name, config.seed);
        for m in &outcome.metrics {
            println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
        }
        for complaint in &outcome.complaints {
            eprintln!("{}: {complaint}", workload.name);
        }
        println!("{}", result_line(&outcome));
        correct &= outcome.failed == 0;
    }
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" => Args::parse(rest).and_then(|args| run(&args)),
        Some((cmd, rest)) if cmd == "aa" => Args::parse(rest).and_then(|args| {
            aa::run(
                args.get("runs", 5)?,
                args.get("seed", 14)?,
                args.get("seconds", spec::RUN_SECONDS)?,
                &args.get("out-dir", PathBuf::from("benchmark/out"))?,
            )
        }),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
