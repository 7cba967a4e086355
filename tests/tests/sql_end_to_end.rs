//! End-to-end SQL integration tests spanning every crate: parser → binder
//! → optimizer → cluster → exec → storage → encodings.

use vdb_core::{Engine, Value};
use vdb_types::Row;

fn sales_db(nodes: usize, k: usize) -> Engine {
    let db = if nodes == 1 {
        Engine::builder().open().unwrap()
    } else {
        Engine::builder().nodes(nodes).k_safety(k).open().unwrap()
    };
    db.execute("CREATE TABLE sales (id INT NOT NULL, region VARCHAR, amt FLOAT, ts TIMESTAMP)")
        .unwrap();
    db.execute(
        "CREATE PROJECTION sales_super AS SELECT id, region, amt, ts FROM sales \
         ORDER BY ts, id SEGMENTED BY HASH(id) ALL NODES",
    )
    .unwrap();
    db
}

fn load_sales(db: &Engine, n: i64) {
    let regions = ["east", "west", "north", "south"];
    let rows: Vec<Row> = (0..n)
        .map(|i| {
            vec![
                Value::Integer(i),
                Value::Varchar(regions[(i % 4) as usize].into()),
                Value::Float((i % 100) as f64),
                Value::Timestamp(1_330_000_000 + i * 60),
            ]
        })
        .collect();
    db.load("sales", &rows).unwrap();
}

#[test]
fn full_query_matrix_single_node_vs_cluster() {
    // The same queries must return identical results on a single node and
    // on a 3-node K-safe cluster (distribution transparency).
    let single = sales_db(1, 0);
    let cluster = sales_db(3, 1);
    load_sales(&single, 5000);
    load_sales(&cluster, 5000);
    let queries = [
        "SELECT region, COUNT(*), SUM(amt), MIN(amt), MAX(amt), AVG(amt) \
         FROM sales GROUP BY region ORDER BY region",
        "SELECT id, amt FROM sales WHERE amt > 95 AND id < 1000 ORDER BY id",
        "SELECT COUNT(*) FROM sales",
        "SELECT region, COUNT(DISTINCT amt) FROM sales GROUP BY region ORDER BY region",
        "SELECT DISTINCT region FROM sales ORDER BY region",
        "SELECT id, amt FROM sales ORDER BY amt DESC, id LIMIT 7",
        "SELECT region, COUNT(*) FROM sales WHERE ts BETWEEN 1330000000 AND 1330060000 \
         GROUP BY region ORDER BY region",
        "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > 100 \
         ORDER BY region",
    ];
    for q in queries {
        let a = single.query(q).unwrap();
        let b = cluster.query(q).unwrap();
        assert_eq!(a, b, "query diverged between topologies: {q}");
        assert!(!a.is_empty(), "query returned nothing: {q}");
    }
}

#[test]
fn joins_and_star_queries() {
    let db = sales_db(3, 1);
    load_sales(&db, 2000);
    db.execute("CREATE TABLE regions (name VARCHAR, zone INT)")
        .unwrap();
    db.execute(
        "CREATE PROJECTION regions_super AS SELECT name, zone FROM regions \
         ORDER BY name UNSEGMENTED ALL NODES",
    )
    .unwrap();
    db.execute("INSERT INTO regions VALUES ('east', 1), ('west', 2), ('north', 1), ('south', 2)")
        .unwrap();
    let rows = db
        .query(
            "SELECT zone, COUNT(*), SUM(amt) FROM sales JOIN regions \
             ON sales.region = regions.name GROUP BY zone ORDER BY zone",
        )
        .unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0][1], Value::Integer(1000));
    assert_eq!(rows[1][1], Value::Integer(1000));
    // LEFT JOIN keeps unmatched dimension-less rows.
    db.execute("DELETE FROM regions WHERE name = 'east'")
        .unwrap();
    let left = db
        .query(
            "SELECT id, region, zone FROM sales LEFT JOIN regions \
             ON sales.region = regions.name WHERE id < 4 ORDER BY id",
        )
        .unwrap();
    assert_eq!(left.len(), 4);
    assert!(
        left.iter().any(|r| r[2].is_null()),
        "east rows get NULL zone"
    );
}

#[test]
fn dml_visibility_and_history() {
    let db = sales_db(1, 0);
    load_sales(&db, 100);
    let before = db.cluster().epochs.read_committed_snapshot();
    db.execute("DELETE FROM sales WHERE id < 50").unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM sales").unwrap()[0][0],
        Value::Integer(50)
    );
    // Historical snapshot still sees everything (epoch MVCC).
    assert_eq!(db.cluster().table_rows("sales", before).unwrap().len(), 100);
    db.execute("UPDATE sales SET amt = 0.5 WHERE id = 60")
        .unwrap();
    let got = db.query("SELECT amt FROM sales WHERE id = 60").unwrap();
    assert_eq!(got[0][0], Value::Float(0.5));
}

/// DELETE and UPDATE report table rows, not one per projection that
/// stores them (with two projections the tags used to say 20 and 2).
#[test]
fn dml_tags_count_each_row_once_with_two_projections() {
    let db = sales_db(1, 0);
    db.execute(
        "CREATE PROJECTION sales_by_region AS SELECT region, id, amt FROM sales ORDER BY region",
    )
    .unwrap();
    load_sales(&db, 100);
    let deleted = db.execute("DELETE FROM sales WHERE id < 10").unwrap();
    assert_eq!(deleted.tag, "DELETE 10");
    let updated = db
        .execute("UPDATE sales SET amt = 0.5 WHERE id = 60")
        .unwrap();
    assert_eq!(updated.tag, "UPDATE 1");
    let (_, n) = db.cluster().delete("sales", None).unwrap();
    assert_eq!(n, 90);
    assert_eq!(
        db.query("SELECT COUNT(*) FROM sales").unwrap()[0][0],
        Value::Integer(0)
    );
}

#[test]
fn tuple_mover_does_not_change_results() {
    let db = sales_db(1, 0);
    // Many small trickle inserts → WOS, then moveout + mergeout.
    for i in 0..20 {
        db.execute(&format!(
            "INSERT INTO sales VALUES ({i}, 'east', {i}.0, {})",
            1_330_000_000 + i
        ))
        .unwrap();
    }
    let before = db
        .query("SELECT region, SUM(amt) FROM sales GROUP BY region")
        .unwrap();
    db.tuple_mover_tick().unwrap();
    let after = db
        .query("SELECT region, SUM(amt) FROM sales GROUP BY region")
        .unwrap();
    assert_eq!(before, after);
}

#[test]
fn csv_loader_rejected_records() {
    let db = sales_db(1, 0);
    let report = vdb_core::load_csv(
        &db,
        "sales",
        "1,east,10.5,1330000000\nbad,west,1.0,0\n2,west,2.0,1330000001\n",
    )
    .unwrap();
    assert_eq!(report.loaded, 2);
    assert_eq!(report.rejected.len(), 1);
    assert_eq!(
        db.query("SELECT COUNT(*) FROM sales").unwrap()[0][0],
        Value::Integer(2)
    );
}

#[test]
fn explain_shows_sip_and_projection_choice() {
    let db = sales_db(1, 0);
    load_sales(&db, 1000);
    db.execute("CREATE TABLE r (name VARCHAR, z INT)").unwrap();
    db.execute(
        "CREATE PROJECTION r_super AS SELECT name, z FROM r ORDER BY name \
         UNSEGMENTED ALL NODES",
    )
    .unwrap();
    db.execute("INSERT INTO r VALUES ('east', 1)").unwrap();
    let plan = db
        .execute(
            "EXPLAIN SELECT z, COUNT(*) FROM sales JOIN r ON sales.region = r.name \
             GROUP BY z",
        )
        .unwrap();
    let text: String = plan.rows.iter().map(|r| format!("{}\n", r[0])).collect();
    assert!(text.contains("HashJoin"), "{text}");
    assert!(text.contains("SIP"), "{text}");
    assert!(text.contains("sales_super"), "{text}");
}

#[test]
fn error_paths_are_clean() {
    let db = sales_db(1, 0);
    assert!(db.execute("SELECT nope FROM sales").is_err());
    assert!(db.execute("SELECT * FROM missing_table").is_err());
    assert!(
        db.execute("CREATE TABLE sales (x INT)").is_err(),
        "duplicate"
    );
    assert!(db.execute("INSERT INTO sales VALUES (1)").is_err(), "arity");
    assert!(db.execute("garbage statement").is_err());
    // NOT NULL enforcement through SQL.
    assert!(db
        .execute("INSERT INTO sales VALUES (NULL, 'x', 1.0, 0)")
        .is_err());
}
