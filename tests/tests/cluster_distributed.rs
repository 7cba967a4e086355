//! Distribution transparency: the same workload must produce identical
//! answers on 1, 2, and 4 logical nodes — across plain/RLE/dict column
//! shapes, NULL join keys, delete vectors, and an unmoved WOS tail — and
//! keep producing them when a node is killed mid-query (buddy reads) and
//! later recovered.

use proptest::prelude::*;
use std::sync::Mutex;
use vdb_core::{Engine, Value};
use vdb_types::Row;

/// Fault points are process-global; every test that executes a
/// distributed query serializes on this.
static FAULT_SERIAL: Mutex<()> = Mutex::new(());

fn fault_serial() -> std::sync::MutexGuard<'static, ()> {
    FAULT_SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

const DIM_WORDS: [&str; 4] = ["ash", "birch", "cedar", "oak"];

/// Build a `nodes`-wide engine with a segmented fact `f(k, v)` (sorted by
/// `k`, so low-cardinality keys RLE-compress) and a dim `d(k, w)` that is
/// deliberately segmented on `w` — NOT the join key — which forces the
/// planner's exchange resegmentation path for `f JOIN d ON f.k = d.k`.
fn build(
    nodes: usize,
    fact: &[(Option<i64>, i64)],
    dim: &[(i64, i64)],
    wos_tail: &[(Option<i64>, i64)],
    delete_cut: Option<i64>,
) -> Engine {
    let db = Engine::builder().nodes(nodes).open().unwrap();
    db.execute("CREATE TABLE f (k INT, v INT)").unwrap();
    db.execute(
        "CREATE PROJECTION f_super AS SELECT k, v FROM f ORDER BY k \
         SEGMENTED BY HASH(k) ALL NODES",
    )
    .unwrap();
    db.execute("CREATE TABLE d (k INT, w VARCHAR)").unwrap();
    db.execute(
        "CREATE PROJECTION d_super AS SELECT k, w FROM d ORDER BY w \
         SEGMENTED BY HASH(w) ALL NODES",
    )
    .unwrap();
    let fact_rows = |pairs: &[(Option<i64>, i64)]| -> Vec<Row> {
        pairs
            .iter()
            .map(|(k, v)| vec![k.map_or(Value::Null, Value::Integer), Value::Integer(*v)])
            .collect()
    };
    db.load("f", &fact_rows(fact)).unwrap();
    let dim_rows: Vec<Row> = dim
        .iter()
        .map(|(k, w)| {
            vec![
                Value::Integer(*k),
                Value::Varchar(DIM_WORDS[(w.rem_euclid(4)) as usize].into()),
            ]
        })
        .collect();
    if !dim_rows.is_empty() {
        db.load("d", &dim_rows).unwrap();
    }
    // Move WOS contents into (encoded) ROS containers, then delete a slice
    // so delete vectors mask ROS rows, then land a fresh WOS tail.
    db.tuple_mover_tick().unwrap();
    if let Some(cut) = delete_cut {
        db.execute(&format!("DELETE FROM f WHERE v < {cut}"))
            .unwrap();
    }
    if !wos_tail.is_empty() {
        db.load("f", &fact_rows(wos_tail)).unwrap();
    }
    db
}

fn query_mix() -> Vec<&'static str> {
    vec![
        "SELECT COUNT(*) FROM f",
        "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM f GROUP BY k ORDER BY k",
        "SELECT k, v FROM f ORDER BY v, k LIMIT 25",
        // Inner join on the fact's segmentation key: the dim side runs
        // through the exchange (resegment), NULL keys match nothing.
        "SELECT w, COUNT(*), SUM(v) FROM f JOIN d ON f.k = d.k GROUP BY w ORDER BY w",
        "SELECT f.k, f.v, d.w FROM f JOIN d ON f.k = d.k ORDER BY f.v, f.k, d.w LIMIT 40",
        "SELECT COUNT(*) FROM f JOIN d ON f.k = d.k",
    ]
}

fn arb_fact() -> impl Strategy<Value = Vec<(Option<i64>, i64)>> {
    prop::collection::vec(
        (prop::option::weighted(0.85, 0i64..6), -100i64..100),
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn distributed_equals_single_node(
        fact in arb_fact(),
        dim in prop::collection::vec((0i64..6, 0i64..8), 0..16),
        tail in arb_fact(),
        cut in prop::option::of(-60i64..60),
    ) {
        // Its queries run `cluster.exec.node<i>` too and would consume a
        // fault a kill test armed for its own cluster.
        let _guard = fault_serial();
        let single = build(1, &fact, &dim, &tail, cut);
        let expected: Vec<Vec<Row>> = query_mix()
            .iter()
            .map(|q| single.query(q).unwrap())
            .collect();
        for nodes in [2usize, 4] {
            let cluster = build(nodes, &fact, &dim, &tail, cut);
            for (q, want) in query_mix().iter().zip(&expected) {
                let got = cluster.query(q).unwrap();
                prop_assert_eq!(&got, want, "{} nodes diverged on: {}", nodes, q);
            }
        }
    }
}

/// EXPLAIN must surface the distribution decisions: distributed execution,
/// the resegmented dim, and the local (buddy-aware) fact.
#[test]
fn explain_shows_distributed_plan() {
    let fact: Vec<(Option<i64>, i64)> = (0..200).map(|i| (Some(i % 6), i)).collect();
    let dim: Vec<(i64, i64)> = (0..6).map(|k| (k, k)).collect();
    let db = build(4, &fact, &dim, &[], None);
    let result = db
        .execute("EXPLAIN SELECT w, SUM(v) FROM f JOIN d ON f.k = d.k GROUP BY w ORDER BY w")
        .unwrap();
    let text: String = result
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Varchar(s) => format!("{s}\n"),
            other => format!("{other}\n"),
        })
        .collect();
    assert!(
        text.contains("distributed over 4/4 up nodes"),
        "missing distribution header:\n{text}"
    );
    assert!(
        text.contains("f_super: local segments (buddy-aware)"),
        "fact should scan locally:\n{text}"
    );
    assert!(
        text.contains("d_super: resegment through exchange"),
        "dim should resegment:\n{text}"
    );
    assert!(text.contains("merge at initiator"), "{text}");
}

/// Kill a node mid-query (fault point fires inside its local-plan job):
/// the query must still answer — correctly, from buddy replicas — the
/// node must be marked down, and recovery must bring it back with full
/// data coverage.
#[test]
fn kill_node_mid_query_answers_from_buddy_then_recovers() {
    let _guard = fault_serial();
    vdb_storage::fault::disarm_all();
    let fact: Vec<(Option<i64>, i64)> = (0..300).map(|i| (Some(i % 6), i)).collect();
    let dim: Vec<(i64, i64)> = (0..6).map(|k| (k, k)).collect();
    let db = build(4, &fact, &dim, &[], None);
    let queries = query_mix();
    let expected: Vec<Vec<Row>> = queries.iter().map(|q| db.query(q).unwrap()).collect();

    // Node 2 dies while running its slice of the next query.
    vdb_storage::fault::arm("cluster.exec.node2");
    let got = db.query(queries[1]).unwrap();
    assert_eq!(got, expected[1], "mid-kill answer must come from buddies");
    assert!(
        !db.cluster().is_up(2),
        "the dying node must be ejected by the retry loop"
    );

    // Degraded but correct: every query still answers without node 2.
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(&db.query(q).unwrap(), want, "degraded run diverged: {q}");
    }

    // Recover from buddy containers and verify full coverage returns.
    db.cluster().recover_node(2).unwrap();
    assert!(db.cluster().is_up(2));
    for (q, want) in queries.iter().zip(&expected) {
        assert_eq!(
            &db.query(q).unwrap(),
            want,
            "post-recovery run diverged: {q}"
        );
    }
}

/// Write into the cluster after a mid-query kill: WOS commits route to the
/// surviving buddies, and the recovered node catches up through the
/// tuple-mover/recovery path, keeping buddy projections in sync.
#[test]
fn buddies_stay_in_sync_through_wos_after_kill() {
    let _guard = fault_serial();
    vdb_storage::fault::disarm_all();
    let fact: Vec<(Option<i64>, i64)> = (0..120).map(|i| (Some(i % 5), i)).collect();
    let db = build(3, &fact, &[], &[], None);
    vdb_storage::fault::arm("cluster.exec.node1");
    let n0: i64 = match db.query("SELECT COUNT(*) FROM f").unwrap()[0][0] {
        Value::Integer(n) => n,
        ref other => panic!("count came back as {other:?}"),
    };
    assert_eq!(n0, 120);
    assert!(!db.cluster().is_up(1));
    // Trickle more rows while the node is down (WOS path), then recover.
    let tail: Vec<Row> = (0..30)
        .map(|i| vec![Value::Integer(i % 5), Value::Integer(1000 + i)])
        .collect();
    db.load("f", &tail).unwrap();
    db.cluster().recover_node(1).unwrap();
    db.tuple_mover_tick().unwrap();
    assert_eq!(
        db.query("SELECT COUNT(*) FROM f").unwrap(),
        vec![vec![Value::Integer(150)]]
    );
    // And the recovered node participates again: kill a DIFFERENT node and
    // the remaining pair (including node 1) still covers the ring.
    db.cluster().fail_node(0);
    assert_eq!(
        db.query("SELECT COUNT(*) FROM f").unwrap(),
        vec![vec![Value::Integer(150)]]
    );
    db.cluster().recover_node(0).unwrap();
}
