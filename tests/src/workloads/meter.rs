//! Table 4's second dataset: synthetic stand-in for the paper's customer
//! meter data (§8.2.2).
//!
//! The paper describes the shape precisely: "a few hundred metrics", "a
//! couple of thousand meters", timestamps "every 5 minutes, 10 minutes,
//! hour, etc., depending on the metric", and 64-bit float values where
//! "some metrics have trends (like lots of 0 values when nothing happens),
//! others change gradually with time, some are much more random". Rows are
//! emitted sorted by (metric, meter, time) — the sort order the customer's
//! projection used.

use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use vdb_types::{Row, Value};

/// Generator parameters; defaults follow the paper's description.
#[derive(Debug, Clone)]
pub struct MeterConfig {
    pub n_metrics: i64,
    pub n_meters: i64,
    pub seed: u64,
}

impl Default for MeterConfig {
    fn default() -> MeterConfig {
        MeterConfig {
            n_metrics: 300,
            n_meters: 2000,
            seed: 2012,
        }
    }
}

/// Generator parameters scaled to a row budget, preserving the paper's
/// samples-per-series ratio: 200M rows over 300 metrics × 2000 meters is
/// ~333 samples per series, which small runs would otherwise degenerate
/// to one sample per series.
pub fn scaled_config(target_rows: usize) -> MeterConfig {
    let per_series = 300usize;
    let series = (target_rows / per_series).max(1);
    // Keep the paper's ~1:7 metric:meter ratio.
    let n_metrics = ((series as f64 / 7.0).sqrt().ceil() as i64).max(1);
    let n_meters = (series as i64 / n_metrics).max(1);
    MeterConfig {
        n_metrics,
        n_meters,
        seed: 2012,
    }
}

/// Generate approximately `target_rows` rows sorted by (metric, meter, ts).
pub fn generate(target_rows: usize, config: &MeterConfig) -> Vec<Row> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let per_series = (target_rows as i64 / (config.n_metrics * config.n_meters)).max(1) as usize;
    let base_ts = 1_330_000_000i64; // early 2012
    let mut rows = Vec::with_capacity(target_rows);
    'outer: for metric in 0..config.n_metrics {
        // Collection interval depends on the metric: 5min/10min/1h.
        let interval = match metric % 3 {
            0 => 300,
            1 => 600,
            _ => 3600,
        };
        // Metric personality split per the paper: "some metrics have
        // trends (like lots of 0 values when nothing happens)" — half;
        // "others change gradually with time" — a quarter; "some are much
        // more random, and less compressible" — a quarter.
        let personality = match metric % 6 {
            0..=2 => 0,
            3 | 4 => 1,
            _ => 2,
        };
        for meter in 0..config.n_meters {
            let mut value = f64::from(rng.gen_range(0..400)) * 0.25;
            for k in 0..per_series {
                let ts = base_ts + interval * k as i64;
                // Meter hardware reports quantized readings (0.25 steps),
                // which is what makes real meter feeds so delta/dictionary
                // friendly.
                value = match personality {
                    0 => {
                        // Mostly zero with occasional events.
                        if rng.gen_bool(0.9) {
                            0.0
                        } else {
                            f64::from(rng.gen_range(4..200)) * 0.25
                        }
                    }
                    // Gradual drift in quantized steps.
                    1 => value + f64::from(rng.gen_range(-2..=2i32)) * 0.25,
                    // Random but still quantized.
                    _ => f64::from(rng.gen_range(0..4000)) * 0.25,
                };
                rows.push(vec![
                    Value::Integer(metric),
                    Value::Integer(meter),
                    Value::Timestamp(ts),
                    Value::Float(value),
                ]);
                if rows.len() >= target_rows {
                    break 'outer;
                }
            }
        }
    }
    rows
}

/// Render rows as the baseline CSV ("200 million comma separated values ...
/// 32 bytes per row" at full scale).
pub fn as_csv(rows: &[Row]) -> String {
    let mut s = String::with_capacity(rows.len() * 32);
    for r in rows {
        for (i, v) in r.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = match v {
                Value::Integer(x) | Value::Timestamp(x) => write!(s, "{x}"),
                other => write!(s, "{other}"),
            };
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = generate(
            50_000,
            &MeterConfig {
                n_metrics: 10,
                n_meters: 50,
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 50_000);
        // Sorted by (metric, meter, ts).
        assert!(rows.windows(2).all(|w| w[0][..3] <= w[1][..3]));
        let csv = as_csv(&rows);
        let per_row = csv.len() as f64 / rows.len() as f64;
        assert!(
            (15.0..40.0).contains(&per_row),
            "paper cites ~32 bytes/row at full scale; got {per_row:.1}"
        );
    }
}
