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

/// `a(k, x)` with two rows (one container + a WOS row, so `threads(2)`
/// sees two probe morsels) and `b(k, z, w)` with `b_rows`.
fn outer_join_db(builder: vdb_core::EngineBuilder, segmented: bool, b_rows: &str) -> Engine {
    let db = builder.open().unwrap();
    let seg = if segmented {
        "SEGMENTED BY HASH(k) ALL NODES"
    } else {
        "UNSEGMENTED ALL NODES"
    };
    db.execute("CREATE TABLE a (k INT, x INT)").unwrap();
    db.execute(&format!(
        "CREATE PROJECTION a_super AS SELECT k, x FROM a ORDER BY k {seg}"
    ))
    .unwrap();
    db.execute("CREATE TABLE b (k INT, z INT, w VARCHAR)")
        .unwrap();
    db.execute(&format!(
        "CREATE PROJECTION b_super AS SELECT k, z, w FROM b ORDER BY k {seg}"
    ))
    .unwrap();
    db.load("a", &[vec![Value::Integer(1), Value::Integer(10)]])
        .unwrap();
    db.tuple_mover_tick().unwrap();
    db.execute("INSERT INTO a VALUES (2, 20)").unwrap();
    if !b_rows.is_empty() {
        db.execute(&format!("INSERT INTO b VALUES {b_rows}"))
            .unwrap();
    }
    db
}

/// Regression: an outer join pads the side that has no rows with as many
/// NULLs as the *plan* says that side has columns. The operator used to
/// learn each side's arity from the first batch it emitted — none, for an
/// empty side — and the projection above the join then failed with
/// `column z (index 3) out of bounds for batch of arity 2`.
#[test]
fn outer_joins_against_an_empty_side() {
    let null = Value::Null;
    let padded: Vec<Row> = vec![
        vec![
            Value::Integer(1),
            Value::Integer(10),
            null.clone(),
            null.clone(),
        ],
        vec![
            Value::Integer(2),
            Value::Integer(20),
            null.clone(),
            null.clone(),
        ],
    ];
    const SELECT: &str = "SELECT a.k, a.x, b.z, b.w FROM";
    const ORDER: &str = "ORDER BY a.k";
    for threads in [1, 2] {
        let engine = |b_rows| outer_join_db(Engine::builder().threads(threads), false, b_rows);
        // `b` empty: as the build side …
        let db = engine("");
        for from in [
            "a LEFT JOIN b ON a.k = b.k",
            "a FULL OUTER JOIN b ON a.k = b.k",
            "b RIGHT JOIN a ON a.k = b.k",
            "b FULL OUTER JOIN a ON a.k = b.k",
        ] {
            let got = db.query(&format!("{SELECT} {from} {ORDER}"));
            assert_eq!(got.unwrap(), padded, "threads {threads}: {from}");
        }
        // … and as the probe side, where only FULL OUTER has rows to pad.
        for from in ["b LEFT JOIN a ON a.k = b.k", "a RIGHT JOIN b ON a.k = b.k"] {
            let got = db.query(&format!("{SELECT} {from} {ORDER}"));
            assert_eq!(got.unwrap(), Vec::<Row>::new(), "threads {threads}: {from}");
        }
        // `b` has rows, but the filter pushed into its scan keeps none.
        // RIGHT: `b` is the preserved side and the build side. LEFT: the
        // null-rejecting filter makes the join INNER (empty build), or
        // empties the probe when `b` is on the left.
        let db = engine("(1, 100, 'one'), (3, 300, 'three')");
        for from in [
            "a RIGHT JOIN b ON a.k = b.k",
            "a LEFT JOIN b ON a.k = b.k",
            "b LEFT JOIN a ON a.k = b.k",
        ] {
            let got = db.query(&format!("{SELECT} {from} WHERE b.z > 1000 {ORDER}"));
            assert_eq!(
                got.unwrap(),
                Vec::<Row>::new(),
                "threads {threads}: filtered {from}"
            );
        }
        // FULL OUTER: the null-rejecting filter on `b` rejects every row
        // `b` pads as well as every real `b` row.
        let got = db.query(&format!(
            "{SELECT} a FULL OUTER JOIN b ON a.k = b.k WHERE b.z > 1000 {ORDER}"
        ));
        assert_eq!(
            got.unwrap(),
            Vec::<Row>::new(),
            "threads {threads}: filtered FULL OUTER"
        );
        // A filter that keeps one unmatched build row: the probe side has
        // rows, none of them its partner, and is padded from the plan too.
        let got = db.query(&format!(
            "{SELECT} a RIGHT JOIN b ON a.k = b.k WHERE b.z > 200 {ORDER}"
        ));
        let three = [Value::Integer(300), Value::Varchar("three".into())];
        assert_eq!(
            got.unwrap(),
            vec![[&[null.clone(), null.clone()][..], &three[..]].concat()],
            "threads {threads}: RIGHT JOIN keeps the unmatched build row"
        );
        // Sanity: with the filter gone the same joins do match.
        let got = db
            .query(&format!("{SELECT} a LEFT JOIN b ON a.k = b.k {ORDER}"))
            .unwrap();
        assert_eq!(
            got[0][2..],
            [Value::Integer(100), Value::Varchar("one".into())]
        );
        assert_eq!(got[1][2..], [null.clone(), null.clone()]);
    }
}

/// WHERE conjuncts on the null-supplying side of an outer join see the
/// padded rows: they are evaluated above the join, not in that side's scan.
#[test]
fn where_filters_on_a_null_supplying_side_apply_above_the_join() {
    let null = Value::Null;
    let int = Value::Integer;
    let cases: Vec<(&str, Vec<Row>)> = vec![
        (
            "SELECT a.k, a.x, b.z FROM a LEFT JOIN b ON a.k = b.k WHERE b.z IS NULL ORDER BY a.k",
            vec![vec![int(2), int(20), null.clone()]],
        ),
        (
            "SELECT a.k, a.x, b.z FROM a FULL OUTER JOIN b ON a.k = b.k WHERE b.z > 1000",
            vec![],
        ),
        (
            "SELECT a.k, a.x, b.z FROM a FULL OUTER JOIN b ON a.k = b.k WHERE b.z IS NULL \
             ORDER BY a.k",
            vec![
                vec![null.clone(), null.clone(), null.clone()],
                vec![int(2), int(20), null.clone()],
            ],
        ),
        (
            "SELECT a.x, b.k, b.z FROM a RIGHT JOIN b ON a.k = b.k WHERE a.x IS NULL ORDER BY b.k",
            vec![vec![null.clone(), int(3), null.clone()]],
        ),
        // A filter on each side: one null-rejecting (FULL becomes LEFT),
        // one not (it still sees `b`'s padding) …
        (
            "SELECT a.k, a.x, b.z FROM a FULL OUTER JOIN b ON a.k = b.k \
             WHERE a.x > 5 AND b.z IS NULL ORDER BY a.k",
            vec![vec![int(2), int(20), null.clone()]],
        ),
        // … and neither null-rejecting: both above the join.
        (
            "SELECT a.k, a.x, b.k FROM a FULL OUTER JOIN b ON a.k = b.k \
             WHERE a.x IS NULL AND b.z IS NULL ORDER BY b.k",
            vec![vec![null.clone(), null.clone(), int(3)]],
        ),
    ];
    for threads in [1, 2, 7] {
        let builder = Engine::builder().threads(threads);
        let db = outer_join_db(builder, false, "(1, 100, 'one'), (3, NULL, 'three')");
        for (sql, want) in &cases {
            assert_eq!(&db.query(sql).unwrap(), want, "threads {threads}: {sql}");
        }
    }
}

/// The same on a 2-node cluster whose `b` is segmented so that one node's
/// segment holds every `b` row and the other's none: that node runs the
/// outer join against an empty build side.
#[test]
fn outer_joins_with_one_node_holding_no_build_rows() {
    for threads in [1, 2] {
        let builder = Engine::builder().nodes(2).k_safety(0).threads(threads);
        let db = outer_join_db(builder, true, "(1, 100, 'one')");
        let counts: Vec<u64> = (0..2)
            .map(|node| {
                let engine = db.cluster().node_engine(node);
                let stores = engine.projections_of("b").into_iter();
                stores
                    .map(|p| engine.projection(&p).unwrap().read().row_count_estimate())
                    .sum()
            })
            .collect();
        assert!(
            counts.contains(&0) && counts.iter().sum::<u64>() == 1,
            "one node must hold no b rows: {counts:?}"
        );
        for from in [
            "a LEFT JOIN b ON a.k = b.k",
            "a FULL OUTER JOIN b ON a.k = b.k",
            "b RIGHT JOIN a ON a.k = b.k",
        ] {
            let got = db
                .query(&format!(
                    "SELECT a.k, a.x, b.z, b.w FROM {from} ORDER BY a.k"
                ))
                .unwrap();
            assert_eq!(
                got,
                vec![
                    vec![
                        Value::Integer(1),
                        Value::Integer(10),
                        Value::Integer(100),
                        Value::Varchar("one".into())
                    ],
                    vec![
                        Value::Integer(2),
                        Value::Integer(20),
                        Value::Null,
                        Value::Null
                    ],
                ],
                "threads {threads}: {from}"
            );
        }
    }
}

/// At `threads(2)` a group-by over a join whose probe side has two morsels
/// runs inside the join's probe workers; EXPLAIN says so on the join line,
/// and the answer is the serial plan's.
#[test]
fn explain_shows_the_group_by_stage_on_the_parallel_join() {
    let sql = "SELECT b.z, COUNT(*), SUM(a.x) FROM a JOIN b ON a.k = b.k GROUP BY b.z ORDER BY b.z";
    let b_rows = "(1, 100, 'one')"; // smaller than `a`, so `a` is the probe side
    let mut answers = Vec::new();
    for threads in [1, 2] {
        let db = outer_join_db(Engine::builder().threads(threads), false, b_rows);
        let plan = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        let text: String = plan.rows.iter().map(|r| format!("{}\n", r[0])).collect();
        let staged = text.contains("ParallelHashJoin INNER")
            && text.contains("[partial group-by in probe workers");
        assert_eq!(staged, threads == 2, "threads {threads}:\n{text}");
        assert_eq!(text.contains("GroupByHash"), threads == 1, "{text}");
        answers.push(db.query(sql).unwrap());
    }
    assert_eq!(
        answers[0],
        vec![vec![
            Value::Integer(100),
            Value::Integer(1),
            Value::Integer(10)
        ]]
    );
    assert_eq!(answers[0], answers[1]);
}

/// Regression: `SUM` over an INT column used to wrap (`SUM` of two
/// `i64::MAX` and a 5 answered 3) and `AVG`, routed through that integer
/// partial sum, answered 1.0. An integer SUM that leaves `i64` is now an
/// error on every path — global and grouped, hash and sorted-input
/// strategies, rows in the WOS and in ROS containers, serial and staged in
/// the morsel workers, per node and at the initiator's merge — while AVG
/// accumulates in `f64` and sums that fit still answer `Integer`.
#[test]
fn integer_sum_overflow_is_an_error_and_avg_accumulates_in_float() {
    let max = i64::MAX;
    let check = |db: &Engine, what: &str| {
        // `k` is the sort-order prefix (streaming group-by), `h` is not
        // (hash group-by); both hold the same values.
        for sql in [
            "SELECT SUM(v) FROM t",
            "SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k",
            "SELECT h, SUM(v) FROM t GROUP BY h ORDER BY h",
        ] {
            let err = db
                .query(sql)
                .expect_err(&format!("{what}: {sql} must not wrap"));
            assert!(
                err.to_string().contains("integer overflow in SUM"),
                "{what}: {sql}: {err}"
            );
        }
        let float = |v: &Value| match v {
            Value::Float(f) => *f,
            other => panic!("{what}: expected a float, got {other:?}"),
        };
        let close = |got: f64, want: f64| (got - want).abs() <= want.abs() * 1e-12;
        let all = db.query("SELECT AVG(v), COUNT(v) FROM t").unwrap();
        let n = all[0][1].as_i64().unwrap() as f64;
        let want = (2.0 * max as f64 + 5.0 * (n - 2.0)) / n;
        assert!(
            close(float(&all[0][0]), want),
            "{what}: AVG {all:?} vs {want}"
        );
        for group in ["k", "h"] {
            let sql = format!("SELECT {group}, AVG(v) FROM t GROUP BY {group} ORDER BY {group}");
            let rows = db.query(&sql).unwrap();
            assert_eq!(rows.len(), 2, "{what}: {sql}");
            assert!(close(float(&rows[0][1]), max as f64), "{what}: {rows:?}");
            assert_eq!(
                rows[1],
                vec![Value::Integer(2), Value::Float(5.0)],
                "{what}"
            );
            // Sums that fit are still integers.
            let sql = format!(
                "SELECT {group}, SUM(v) FROM t WHERE v < 100 GROUP BY {group} ORDER BY {group}"
            );
            let fits = db.query(&sql).unwrap();
            assert_eq!(fits.len(), 1, "{what}: {sql}");
            assert_eq!(fits[0][0], Value::Integer(2), "{what}: {sql}");
            assert_eq!(
                fits[0][1],
                Value::Integer(5 * (n as i64 - 2)),
                "{what}: {sql}"
            );
        }
        let one = db.query("SELECT SUM(v), MAX(v) FROM t WHERE k = 1 AND id = 0");
        assert_eq!(
            one.unwrap(),
            vec![vec![Value::Integer(max), Value::Integer(max)]],
            "{what}: one huge value is not an overflow"
        );
    };
    for threads in [1, 2] {
        let db = Engine::builder()
            .nodes(2)
            .k_safety(1)
            .threads(threads)
            .open()
            .unwrap();
        db.execute("CREATE TABLE t (id INT, k INT, h INT, v INT)")
            .unwrap();
        db.execute(
            "CREATE PROJECTION t_super AS SELECT id, k, h, v FROM t ORDER BY k, id \
             SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
        db.execute(&format!(
            "INSERT INTO t VALUES (0, 1, 1, {max}), (1, 1, 1, {max}), (2, 2, 2, 5)"
        ))
        .unwrap();
        check(&db, &format!("threads {threads}, WOS"));
        db.tuple_mover_tick().unwrap();
        check(&db, &format!("threads {threads}, ROS"));
        // A WOS tail beside each node's container: two morsels, so at
        // `threads(2)` the group-bys run staged in the morsel workers.
        db.execute("INSERT INTO t VALUES (3, 2, 2, 5), (4, 2, 2, 5), (5, 2, 2, 5), (6, 2, 2, 5)")
            .unwrap();
        check(&db, &format!("threads {threads}, ROS + WOS tail"));
    }
}
