//! Trickle-load torture suite: concurrent ingest under query fire with
//! snapshot-isolation checking, durable-reopen verification, and
//! kill-and-recover drills at every durability fault point.
//!
//! CI runs this with `VDB_TORTURE_SECS=10` (see `torture-smoke` in
//! `.github/workflows/ci.yml`); locally it defaults to a ~2 s run.

use std::sync::Mutex;
use vdb_core::{Engine, Value};
use vdb_tests::torture::{self, TortureConfig, FAULT_POINTS};

// The fault registry is process-global and tests in one binary run on
// parallel threads, so everything here serializes. Poisoning is ignored:
// a failed sibling shouldn't cascade into PoisonError noise.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_root(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("vdb_torture_{tag}_{}", std::process::id()))
}

#[test]
fn torture_in_memory_no_violations() {
    let _guard = serial();
    let config = TortureConfig::from_env();
    let report = torture::run(&config);
    assert!(
        report.violations.is_empty(),
        "snapshot-isolation violations:\n{:#?}",
        report.violations
    );
    assert!(report.commits > 0, "writers never committed");
    assert!(report.queries > 0, "readers never ran");
    assert!(report.rows_ingested > 0);
    assert!(report.ingest_rows_per_sec > 0.0, "no ingest throughput");
    assert!(report.query_p99_ms > 0.0, "no query latency under ingest");
    eprintln!(
        "torture(mem): {:.1}s, {} commits ({} rows, {} deletes), {} queries, \
         {:.0} rows/s ingest, p99 {:.2} ms",
        report.elapsed_secs,
        report.commits,
        report.rows_ingested,
        report.deletes,
        report.queries,
        report.ingest_rows_per_sec,
        report.query_p99_ms
    );
}

#[test]
fn torture_durable_survives_reopen() {
    let _guard = serial();
    let root = temp_root("durable");
    let mut config = TortureConfig::from_env();
    // The durable phase is filesystem-bound; a shorter window still turns
    // over plenty of redo/manifest churn. The long CI soak is in-memory.
    config.secs = config.secs.min(4.0);
    config.data_root = Some(root.clone());
    let report = torture::run(&config);
    assert!(
        report.violations.is_empty(),
        "violations during durable torture:\n{:#?}",
        report.violations
    );
    assert!(report.commits > 0);

    // Kill (drop) happened when `run` returned; reopen and demand exactly
    // the committed rows back.
    let db = Engine::builder().data_dir(&root).open().unwrap();
    let got: Vec<(i64, i64, i64)> = db
        .query("SELECT id, grp, v FROM t ORDER BY id")
        .unwrap()
        .iter()
        .map(|r| {
            (
                r[0].as_i64().unwrap(),
                r[1].as_i64().unwrap(),
                r[2].as_i64().unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        report.expected_rows,
        "reopen lost or resurrected rows ({} recovered, {} expected)",
        got.len(),
        report.expected_rows.len()
    );
    // And the epoch clock restarted past everything recovered.
    db.execute("INSERT INTO t VALUES (-1, 0, 0)").unwrap();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Integer(report.expected_rows.len() as i64 + 1))
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_and_recover_at_every_fault_point() {
    let _guard = serial();
    let root = temp_root("kill");
    for point in FAULT_POINTS {
        torture::kill_and_recover(&root, point).unwrap_or_else(|e| panic!("{e}"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn poisoned_store_refuses_service_until_reopen() {
    let _guard = serial();
    let root = temp_root("poison");
    let _ = std::fs::remove_dir_all(&root);
    let db = Engine::builder().data_dir(&root).open().unwrap();
    db.execute("CREATE TABLE t (id INT, grp INT, v INT)")
        .unwrap();
    db.execute(
        "CREATE PROJECTION t_super AS SELECT id, grp, v FROM t ORDER BY id \
         SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..50i64)
        .map(|i| vec![Value::Integer(i), Value::Integer(i % 4), Value::Integer(i)])
        .collect();
    db.load_wos("t", &rows).unwrap();

    // A moveout that dies after draining the WOS leaves memory ahead of
    // disk; the store must refuse to serve that image instead of leaking
    // rows whose durability was never committed.
    vdb_storage::fault::arm(vdb_storage::fault::MOVEOUT_BEFORE_MANIFEST);
    let err = db.tuple_mover_tick().unwrap_err();
    assert!(vdb_storage::fault::is_fault(&err), "{err}");
    let refused = db.query("SELECT COUNT(*) FROM t").unwrap_err();
    assert!(
        refused.to_string().contains("needs reopen"),
        "expected poisoned-store refusal, got: {refused}"
    );
    assert!(
        db.execute("INSERT INTO t VALUES (999, 0, 0)").is_err(),
        "poisoned store accepted a write"
    );
    drop(db);

    // Reopen = the sanctioned recovery path: all 50 committed rows back,
    // store serving again.
    let db = Engine::builder().data_dir(&root).open().unwrap();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Integer(50))
    );
    db.execute("INSERT INTO t VALUES (999, 0, 0)").unwrap();
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Integer(51))
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
}

/// UPDATE is one transaction (§3.7.1 delete + insert at one epoch): killed
/// before its commit marker, the table reopens to the **old** rows — never
/// to "deleted and not replaced" — and a completed UPDATE advances the
/// epoch clock once.
#[test]
fn update_killed_before_its_marker_reopens_to_the_old_rows() {
    let _guard = serial();
    vdb_storage::fault::disarm_all();
    let root = temp_root("update");
    let _ = std::fs::remove_dir_all(&root);
    let db = Engine::builder().data_dir(&root).open().unwrap();
    db.execute("CREATE TABLE t (id INT, grp INT, v INT)")
        .unwrap();
    db.execute(
        "CREATE PROJECTION t_super AS SELECT id, grp, v FROM t ORDER BY id \
         SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    let rows: Vec<Vec<Value>> = (0..60i64)
        .map(|i| vec![Value::Integer(i), Value::Integer(i % 4), Value::Integer(i)])
        .collect();
    db.load("t", &rows[..40]).unwrap(); // ROS
    db.load_wos("t", &rows[40..]).unwrap(); // WOS
    let table = |db: &Engine| -> Vec<(i64, i64)> {
        db.query("SELECT id, v FROM t ORDER BY id")
            .unwrap()
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect()
    };

    // A completed UPDATE over ROS and WOS rows: one epoch.
    let before = db.cluster().epochs.current();
    let done = db
        .execute("UPDATE t SET v = v + 1000 WHERE id >= 35 AND id < 45")
        .unwrap();
    assert_eq!(done.tag, "UPDATE 10");
    assert_eq!(db.cluster().epochs.current(), before.next());
    let expected: Vec<(i64, i64)> = (0..60)
        .map(|i| (i, if (35..45).contains(&i) { i + 1000 } else { i }))
        .collect();
    assert_eq!(table(&db), expected);

    // The next one dies with its deletes and inserts applied and its
    // marker unwritten.
    vdb_storage::fault::arm(vdb_storage::fault::COMMIT_BEFORE_MARKER);
    let err = db.execute("UPDATE t SET v = -1 WHERE id < 50").unwrap_err();
    assert!(vdb_storage::fault::is_fault(&err), "{err}");
    drop(db);

    let db = Engine::builder().data_dir(&root).open().unwrap();
    assert_eq!(table(&db), expected, "the old rows, all of them, once");
    assert_eq!(
        db.execute("UPDATE t SET v = -1 WHERE id < 50").unwrap().tag,
        "UPDATE 50"
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t WHERE v = -1")
            .unwrap()
            .scalar(),
        Some(&Value::Integer(50))
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM t").unwrap().scalar(),
        Some(&Value::Integer(60))
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&root);
}
