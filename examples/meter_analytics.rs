//! Meter analytics: the paper's §8.2.2 customer scenario end to end —
//! Database-Designer-driven physical design, bulk load, compression
//! reporting, and time-series queries with window functions.
//!
//! ```sh
//! cargo run -p vdb_examples --example meter_analytics
//! ```

use vdb_core::Engine;
use vdb_tests::workloads::meter;

fn main() -> vdb_core::DbResult<()> {
    let db = Engine::builder().open()?;
    db.execute("CREATE TABLE meter_data (metric INT, meter INT, ts TIMESTAMP, value FLOAT)")?;

    // Let the Database Designer pick projections and encodings from a
    // sample + the workload (§6.3), instead of hand-writing DDL.
    let sample = meter::generate(20_000, &meter::scaled_config(20_000));
    let rationales = db.run_designer(
        "meter_data",
        &sample,
        1_000_000,
        &[
            "SELECT meter, SUM(value) FROM meter_data WHERE metric = 3 GROUP BY meter",
            "SELECT metric, COUNT(*) FROM meter_data GROUP BY metric",
        ],
        vdb_designer::DesignPolicy::Balanced,
    )?;
    println!("Database Designer proposals:");
    for r in &rationales {
        println!("  - {r}");
    }

    let rows = meter::generate(200_000, &meter::scaled_config(200_000));
    db.load("meter_data", &rows)?;
    println!(
        "\nloaded {} rows; encoded footprint {} bytes ({:.2} B/row vs ~{:.0} B/row as CSV)",
        rows.len(),
        db.disk_bytes(),
        db.disk_bytes() as f64 / rows.len() as f64,
        meter::as_csv(&rows[..1000]).len() as f64 / 1000.0
    );

    // Top meters for one metric.
    let top = db.query(
        "SELECT meter, SUM(value) AS total FROM meter_data WHERE metric = 1 \
         GROUP BY meter ORDER BY total DESC LIMIT 5",
    )?;
    println!("\ntop meters for metric 1:");
    for r in &top {
        println!("  meter {} total {}", r[0], r[1]);
    }

    // Windowed time series: per-meter running total for one metric.
    let running = db.query(
        "SELECT meter, SUM(value) OVER (PARTITION BY meter ORDER BY ts) AS running \
         FROM meter_data WHERE metric = 1 AND meter < 2 ORDER BY meter LIMIT 8",
    )?;
    println!("\nrunning totals (metric 1, meters 0-1):");
    for r in &running {
        println!("  meter {} running {}", r[0], r[1]);
    }
    Ok(())
}
