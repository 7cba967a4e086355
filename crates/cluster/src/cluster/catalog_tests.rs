//! The catalog assembled from per-container summaries against a reference
//! assembled the way it used to be — every number re-derived from the
//! files, every sample from whole-container reads — plus the I/O the new
//! assembly does and does not issue, and what DELETE/UPDATE remove and
//! count across projections.

use super::*;
use proptest::prelude::*;
use vdb_storage::projection::Segmentation;
use vdb_storage::{CountingBackend, IoCall, IoOp, RowLocation, StorageBackend};
use vdb_types::{BinOp, ColumnDef, DataType};

/// `t(k, g, v)`: `k` unique and ascending with load order, `g` the
/// partition key (one row in ten lands in partition 1), `v` a short
/// string unrelated to `k`'s order.
fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("k", DataType::Integer),
            ColumnDef::new("g", DataType::Integer),
            ColumnDef::new("v", DataType::Varchar),
        ],
    )
}

fn row(k: i64) -> Row {
    vec![
        Value::Integer(k),
        Value::Integer(i64::from(k % 10 == 0)),
        Value::Varchar(format!("s{}", (k * 31) % 7)),
    ]
}

/// The super projection sorted by `k`, and a second one sorted by `v`
/// with its columns in another order.
fn projections() -> Vec<ProjectionDef> {
    let by_k = ProjectionDef::super_projection(&schema(), "t_by_k", &[0], &[0]);
    let mut by_v = ProjectionDef::super_projection(&schema(), "t_by_v", &[], &[]);
    by_v.columns = vec![2, 0, 1];
    by_v.column_names = vec!["v".into(), "k".into(), "g".into()];
    by_v.column_types = vec![DataType::Varchar, DataType::Integer, DataType::Integer];
    by_v.sort_keys = vec![vdb_types::SortKey::asc(0), vdb_types::SortKey::asc(1)];
    by_v.segmentation = Segmentation::hash_of(&[(1, "k")]);
    vec![by_k, by_v]
}

fn config(n_nodes: usize) -> ClusterConfig {
    ClusterConfig {
        n_nodes,
        k_safety: usize::from(n_nodes > 1),
        n_local_segments: 1,
        history_retention: 3,
        tuple_mover: TupleMoverConfig {
            strata_base_bytes: 2048,
            strata_factor: 4,
            merge_threshold: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Start (or restart) a cluster on `backends`, the way `Database::open_at`
/// does: replay the DDL so the stores reattach, restore the epoch clock
/// from the commit marker, truncate what was applied past it.
fn start(n_nodes: usize, partitioned: bool, backends: &[Arc<dyn StorageBackend>]) -> Cluster {
    let c = Cluster::with_backends(config(n_nodes), backends.to_vec());
    let partition_by = partitioned.then(|| Expr::col(1, "g"));
    c.create_table(schema(), partition_by).unwrap();
    for def in projections() {
        c.create_projection(def).unwrap();
    }
    let marker = c.last_durable_epoch();
    if marker > Epoch::ZERO {
        c.epochs.restore_current(marker.next());
        c.truncate_all_after(marker).unwrap();
    }
    c
}

fn mem_backends(n: usize) -> Vec<Arc<dyn StorageBackend>> {
    (0..n)
        .map(|_| Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>)
        .collect()
}

impl Cluster {
    /// The stores [`Cluster::catalog`] folds for `family`.
    fn catalog_stores(&self, family: &Family) -> Vec<Arc<RwLock<vdb_storage::ProjectionStore>>> {
        let take = if self.router.is_replicated(&family.def) {
            1
        } else {
            usize::MAX
        };
        self.up_nodes()
            .into_iter()
            .take(take)
            .map(|n| {
                self.nodes[n]
                    .engine
                    .projection(&family.replicas[0])
                    .unwrap()
            })
            .collect()
    }

    /// The catalog as it was assembled before containers carried
    /// summaries: sizes from `file_size`, encodings from the position
    /// indexes, the sample from reading every container whole. `windowed`
    /// keeps only sample rows inside their container's leading window —
    /// the documented definition; without it the sample is plain
    /// `visible_rows(snapshot)` cut to the sample size.
    fn reference_catalog(&self, windowed: bool) -> OptimizerCatalog {
        let snapshot = self.epochs.read_committed_snapshot();
        let mut catalog = OptimizerCatalog::default();
        for (tname, (schema, partition_by)) in self.tables.read().iter() {
            let mut projections = Vec::new();
            for (fname, family) in self.families.read().iter() {
                if &family.table != tname {
                    continue;
                }
                let arity = family.def.arity();
                let mut row_count = 0u64;
                let mut column_bytes = vec![0u64; arity];
                let mut column_encodings: Vec<Vec<(String, u64)>> = vec![Vec::new(); arity];
                let mut sample: Vec<Row> = Vec::new();
                let mut scan_morsels = 1usize;
                for store in self.catalog_stores(family) {
                    let s = store.read();
                    let backend = s.backend().as_ref();
                    row_count += s.wos_row_count() as u64;
                    let morsels = s.container_count() + usize::from(s.wos_row_count() > 0);
                    scan_morsels = scan_morsels.max(morsels);
                    let mut encodings: Vec<BTreeMap<&str, u64>> = vec![BTreeMap::new(); arity];
                    for c in s.containers() {
                        row_count += c.row_count;
                        for col in 0..arity {
                            column_bytes[col] += backend.file_size(&c.data_path(col)).unwrap()
                                + backend.file_size(&c.index_path(col)).unwrap();
                            for b in &c.indexes[col].blocks {
                                *encodings[col].entry(b.encoding.name()).or_insert(0) +=
                                    u64::from(b.count);
                            }
                        }
                    }
                    for (merged, encs) in column_encodings.iter_mut().zip(encodings) {
                        for (name, rows) in encs {
                            match merged.iter_mut().find(|(n, _)| n == name) {
                                Some((_, r)) => *r += rows,
                                None => merged.push((name.to_string(), rows)),
                            }
                        }
                    }
                    let rows: Vec<Row> = if windowed {
                        s.visible_rows_with_locations(snapshot)
                            .unwrap()
                            .into_iter()
                            .filter(|(loc, _)| match loc {
                                RowLocation::Ros(_, pos) => *pos < STATS_SAMPLE_ROWS as u64,
                                RowLocation::Wos(_) => true,
                            })
                            .map(|(_, row)| row)
                            .collect()
                    } else {
                        s.visible_rows(snapshot).unwrap()
                    };
                    let room = STATS_SAMPLE_ROWS - sample.len();
                    sample.extend(rows.into_iter().take(room));
                }
                let mut def = family.def.clone();
                def.name = fname.clone();
                projections.push(
                    ProjectionMeta::from_sample(def, row_count, column_bytes, &sample)
                        .with_scan_morsels(scan_morsels)
                        .with_column_encodings(column_encodings),
                );
            }
            catalog.tables.insert(
                tname.clone(),
                TableMeta {
                    schema: schema.clone(),
                    partition_by: partition_by.clone(),
                    projections,
                },
            );
        }
        catalog
    }

    /// Does some container of `family` that is longer than its leading
    /// window hold, inside the window, a row invisible at the snapshot?
    fn window_has_invisible_row(&self, family: &Family) -> bool {
        let snapshot = self.epochs.read_committed_snapshot();
        self.catalog_stores(family).iter().any(|store| {
            let s = store.read();
            let located = s.visible_rows_with_locations(snapshot).unwrap();
            let mut long = s
                .containers()
                .filter(|c| c.row_count > STATS_SAMPLE_ROWS as u64);
            long.any(|c| {
                let in_window = located.iter().filter(|(loc, _)| {
                    matches!(loc, RowLocation::Ros(id, pos)
                        if *id == c.id && *pos < STATS_SAMPLE_ROWS as u64)
                });
                in_window.count() < STATS_SAMPLE_ROWS
            })
        })
    }

    /// Visible rows of one family in table column order, sorted.
    fn family_table_rows(&self, family: &str) -> Vec<Row> {
        let family = self.family(family).unwrap();
        let snapshot = self.epochs.read_committed_snapshot();
        let mut rows: Vec<Row> = self
            .family_projected_rows(&family, snapshot)
            .unwrap()
            .into_iter()
            .map(|prow| {
                let mut row = vec![Value::Null; family.def.arity()];
                for (pi, &tc) in family.def.columns.iter().enumerate() {
                    row[tc] = prow[pi].clone();
                }
                row
            })
            .collect();
        rows.sort();
        rows
    }
}

/// The catalog equals the windowed reference always, and — projection by
/// projection — the plain `visible_rows` reference whenever no invisible
/// row sits inside a long container's leading window.
fn check_catalog(c: &Cluster) {
    let got = c.catalog().unwrap();
    let windowed = c.reference_catalog(true);
    assert_eq!(got, windowed);
    let plain = c.reference_catalog(false);
    for (fname, family) in c.families.read().iter() {
        if !c.window_has_invisible_row(family) {
            let pick = |cat: &OptimizerCatalog| {
                cat.tables["t"]
                    .projections
                    .iter()
                    .find(|p| &p.def.name == fname)
                    .cloned()
            };
            assert_eq!(pick(&got), pick(&plain), "projection {fname}");
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Bulk(usize),
    Trickle(usize),
    /// `DELETE WHERE k < lowest + n`: the head of the `k`-sorted windows.
    DeleteHead(i64),
    /// `DELETE WHERE k >= next - n`: only the newest rows.
    DeleteTail(i64),
    DeleteValue(i64),
    Update(i64),
    Tick {
        force_moveout: bool,
    },
    DropPartition(i64),
    KillAndReopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1200usize..2600).prop_map(Op::Bulk),
        (1200usize..2600).prop_map(Op::Bulk),
        (1usize..30).prop_map(Op::Trickle),
        (1usize..30).prop_map(Op::Trickle),
        (1i64..40).prop_map(Op::DeleteHead),
        (1i64..40).prop_map(Op::DeleteTail),
        (0i64..7).prop_map(Op::DeleteValue),
        (0i64..4000).prop_map(Op::Update),
        any::<bool>().prop_map(|force_moveout| Op::Tick { force_moveout }),
        (0i64..2).prop_map(Op::DropPartition),
        Just(Op::KillAndReopen),
    ]
}

fn k_cmp(op: BinOp, k: i64) -> Expr {
    Expr::binary(op, Expr::col(0, "k"), Expr::int(k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn catalog_equals_visible_rows_reference(
        n_nodes in prop_oneof![Just(1usize), Just(3usize)],
        ops in prop::collection::vec(arb_op(), 1..12),
    ) {
        let backends = mem_backends(n_nodes);
        let mut c = start(n_nodes, true, &backends);
        let mut next_k = 0i64;
        for op in ops {
            match op {
                Op::Bulk(n) | Op::Trickle(n) => {
                    let rows: Vec<Row> = (next_k..next_k + n as i64).map(row).collect();
                    next_k += n as i64;
                    c.load("t", &rows, matches!(op, Op::Bulk(_))).unwrap();
                }
                Op::DeleteHead(n) => {
                    let lowest = c.family_table_rows("t_by_k").first().map_or(0, |r| r[0].as_i64().unwrap());
                    c.delete("t", Some(&k_cmp(BinOp::Lt, lowest + n))).unwrap();
                }
                Op::DeleteTail(n) => {
                    c.delete("t", Some(&k_cmp(BinOp::Ge, next_k - n))).unwrap();
                }
                Op::DeleteValue(v) => {
                    let pred = Expr::eq(Expr::col(2, "v"), Expr::lit(Value::Varchar(format!("s{v}"))));
                    c.delete("t", Some(&pred)).unwrap();
                }
                Op::Update(k) => {
                    let set = (2, Expr::lit(Value::Varchar("updated".into())));
                    c.update("t", &[set], Some(&k_cmp(BinOp::Eq, k))).unwrap();
                }
                Op::Tick { force_moveout } => c.tuple_mover_tick(force_moveout).unwrap(),
                Op::DropPartition(g) => {
                    c.drop_partition("t", &Value::Integer(g)).unwrap();
                }
                Op::KillAndReopen => {
                    drop(c);
                    c = start(n_nodes, true, &backends);
                }
            }
            check_catalog(&c);
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The rows DELETE removes are the rows an exhaustive evaluation of
    /// the predicate removes, in every projection whatever its sort order
    /// — with literals on and beside container edges, so a DELETE that
    /// learns to skip containers by their min/max is pinned from day one.
    #[test]
    fn delete_removes_exactly_the_matching_rows_in_every_projection(
        chunks in prop::collection::vec(1usize..400, 1..5),
        trickle in 0usize..20,
        moveout in any::<bool>(),
        shape in 0usize..6,
        literals in prop::collection::vec((0usize..64, -1i64..2), 2..3),
    ) {
        let c = start(1, false, &mem_backends(1));
        let mut next_k = 0i64;
        // First and last `k` of each container: literals are drawn on and
        // beside them.
        let mut edges = Vec::new();
        for n in chunks {
            let rows: Vec<Row> = (next_k..next_k + n as i64).map(row).collect();
            edges.extend([next_k, next_k + n as i64 - 1]);
            next_k += n as i64 + 50; // gaps, so a bound can fall between containers
            c.load("t", &rows, true).unwrap();
        }
        let (a, b) = (
            edges[literals[0].0 % edges.len()] + literals[0].1,
            edges[literals[1].0 % edges.len()] + literals[1].1,
        );
        let rows: Vec<Row> = (next_k..next_k + trickle as i64).map(row).collect();
        if !rows.is_empty() {
            c.load("t", &rows, false).unwrap();
        }
        if moveout {
            c.tuple_mover_tick(true).unwrap();
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let v = |i: i64| Expr::lit(Value::Varchar(format!("s{}", i % 7)));
        let pred = match shape {
            0 => k_cmp(BinOp::Eq, a),
            1 => k_cmp(BinOp::Lt, a),
            2 => Expr::and(k_cmp(BinOp::Ge, lo), k_cmp(BinOp::Le, hi)),
            3 => Expr::and(k_cmp(BinOp::Gt, lo), Expr::eq(Expr::col(2, "v"), v(b))),
            4 => Expr::eq(Expr::col(2, "v"), v(a)),
            _ => Expr::binary(BinOp::Or, k_cmp(BinOp::Eq, a), k_cmp(BinOp::Eq, b)),
        };
        let before = c.family_table_rows("t_by_k");
        prop_assert_eq!(&before, &c.family_table_rows("t_by_v"));
        let (survivors, matching): (Vec<Row>, Vec<Row>) =
            before.into_iter().partition(|r| !pred.matches(r).unwrap());
        let (_, deleted) = c.delete("t", Some(&pred)).unwrap();
        prop_assert_eq!(deleted, matching.len() as u64);
        prop_assert_eq!(&c.family_table_rows("t_by_k"), &survivors);
        prop_assert_eq!(&c.family_table_rows("t_by_v"), &survivors);
    }
}

#[test]
fn catalog_rebuild_reads_no_byte_once_summaries_are_warm() {
    let counting = Arc::new(CountingBackend::default());
    let backends = vec![counting.clone() as Arc<dyn StorageBackend>];
    let c = start(1, false, &backends);
    c.load("t", &(0..1500).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    c.load("t", &(1500..1800).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    c.load("t", &[row(5000)], false).unwrap();
    // Sizes, encodings and counts come from the position indexes; the
    // sample costs one ranged read per column — epoch column included —
    // of the one container it reaches (its 1500 rows fill the sample),
    // once, and that read is the leading block's bytes, not the file.
    let leading_blocks = |c: &Cluster| -> Vec<IoCall> {
        ["t_by_k", "t_by_v"]
            .iter()
            .flat_map(|p| {
                let store = c.nodes[0].engine.projection(p).unwrap();
                let store = store.read();
                let first = store.containers().next().unwrap();
                assert_eq!(first.block_count(), 2, "1500 rows");
                (0..4)
                    .map(|col| IoCall {
                        op: IoOp::ReadRange,
                        path: first.data_path(col),
                        bytes: u64::from(first.indexes[col].blocks[0].byte_len),
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    counting.reset();
    let first = c.catalog().unwrap();
    assert_eq!(counting.calls(), leading_blocks(&c));
    assert_eq!(first, c.reference_catalog(false));

    // After an INSERT the epoch moved and the catalog is rebuilt — now
    // from the summaries alone: no read, no `stat`.
    c.load("t", &[row(5001)], false).unwrap();
    counting.reset();
    let second = c.catalog().unwrap();
    assert_ne!(second, first);
    assert_eq!(counting.calls(), vec![]);

    // Restarted on the same files, the same again: nothing of a summary
    // was persisted, and nothing but the leading blocks is needed back.
    drop(c);
    let c = start(1, false, &backends);
    counting.reset();
    let reopened = c.catalog().unwrap();
    assert_eq!(reopened, second);
    assert_eq!(counting.calls(), leading_blocks(&c));
    counting.reset();
    assert_eq!(c.catalog().unwrap(), reopened);
    assert_eq!(counting.calls(), vec![]);
}

/// Summaries live in the store: a dropped projection takes them with it.
#[test]
fn dropped_projection_leaves_no_summaries_behind() {
    let c = start(1, false, &mem_backends(1));
    c.load("t", &(0..1500).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    let store = c.nodes[0].engine.projection("t_by_v").unwrap();
    c.drop_projection("t_by_v").unwrap();
    assert!(c.nodes[0].engine.projection("t_by_v").is_err());
    assert_eq!(
        Arc::strong_count(&store),
        1,
        "only this test still holds it"
    );
    check_catalog(&c);
    assert_eq!(c.catalog().unwrap().tables["t"].projections.len(), 1);
}

/// A row counts once however many projections and copies hold it: the
/// first family here is replicated (three copies of every row), the other
/// two are segmented with a buddy each.
#[test]
fn delete_counts_table_rows_not_projection_rows() {
    let c = start(3, false, &mem_backends(3));
    let mut replicated = ProjectionDef::super_projection(&schema(), "a_everywhere", &[1], &[]);
    replicated.segmentation = Segmentation::Replicated;
    c.create_projection(replicated).unwrap();
    c.load("t", &(0..100).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    assert_eq!(c.delete("t", Some(&k_cmp(BinOp::Lt, 10))).unwrap().1, 10);
    let set = (2, Expr::lit(Value::Varchar("updated".into())));
    let (_, n) = c.update("t", &[set], Some(&k_cmp(BinOp::Ge, 95))).unwrap();
    assert_eq!(n, 5);
    assert_eq!(c.delete("t", None).unwrap().1, 90);
}

/// One load statement validates each row once and pivots each cell once,
/// however many projections, buddies and nodes take the rows: two families
/// × two replicas × two nodes here.
#[test]
fn a_load_validates_and_pivots_once_per_statement() {
    use vdb_storage::columnar::{cells_pivoted, rows_validated};
    let c = start(2, false, &mem_backends(2));
    let rows: Vec<Row> = (0..500).map(row).collect();
    let (validated, pivoted) = (rows_validated(), cells_pivoted());
    c.load("t", &rows, true).unwrap();
    assert_eq!(rows_validated() - validated, 500);
    assert_eq!(cells_pivoted() - pivoted, 500 * 3);
    // A trickle load goes to the WOS as rows: validated once, not pivoted.
    let (validated, pivoted) = (rows_validated(), cells_pivoted());
    c.load("t", &rows[..10], false).unwrap();
    assert_eq!(rows_validated() - validated, 10);
    assert_eq!(cells_pivoted(), pivoted);
    for family in ["t_by_k", "t_by_v"] {
        assert_eq!(c.family_table_rows(family).len(), 510, "{family}");
    }
}

/// A DELETE writes each touched container's `deletes.dv` once, however
/// many of its rows it hits.
#[test]
fn delete_writes_each_sidecar_once_per_statement() {
    let counting = Arc::new(CountingBackend::default());
    let backends = vec![counting.clone() as Arc<dyn StorageBackend>];
    let c = start(1, false, &backends);
    c.load("t", &(0..400).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    c.load("t", &(400..500).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    counting.reset();
    // 50 rows of the first container of each projection, none of the
    // second's.
    let (_, deleted) = c.delete("t", Some(&k_cmp(BinOp::Lt, 50))).unwrap();
    assert_eq!(deleted, 50);
    let mut writes: Vec<String> = counting
        .calls()
        .into_iter()
        .filter(|call| call.op == IoOp::WriteFile)
        .map(|call| call.path)
        .collect();
    writes.sort();
    assert_eq!(
        writes,
        vec![
            "commit.marker".to_string(),
            "t_by_k/ros1/deletes.dv".to_string(),
            "t_by_v/ros1/deletes.dv".to_string(),
        ]
    );
    // Restarted on the files, the statement is there in full.
    drop(c);
    let c = start(1, false, &backends);
    for family in ["t_by_k", "t_by_v"] {
        assert_eq!(c.family_table_rows(family).len(), 450, "{family}");
    }
}

/// Fails the `n`th write of a `deletes.dv` sidecar, once.
struct FailingSidecars {
    inner: Arc<dyn StorageBackend>,
    countdown: Mutex<Option<usize>>,
}

impl StorageBackend for FailingSidecars {
    fn write_file(&self, path: &str, bytes: &[u8]) -> DbResult<()> {
        if path.ends_with("deletes.dv") {
            let mut countdown = self.countdown.lock();
            match *countdown {
                Some(0) => {
                    *countdown = None;
                    return Err(DbError::Io(format!("injected: {path} not written")));
                }
                Some(n) => *countdown = Some(n - 1),
                None => {}
            }
        }
        self.inner.write_file(path, bytes)
    }
    fn read_file(&self, path: &str) -> DbResult<Vec<u8>> {
        self.inner.read_file(path)
    }
    fn read_range(&self, path: &str, offset: u64, len: usize) -> DbResult<Vec<u8>> {
        self.inner.read_range(path, offset, len)
    }
    fn delete_file(&self, path: &str) -> DbResult<()> {
        self.inner.delete_file(path)
    }
    fn file_size(&self, path: &str) -> DbResult<u64> {
        self.inner.file_size(path)
    }
    fn list_files(&self, prefix: &str) -> Vec<String> {
        self.inner.list_files(prefix)
    }
    fn hard_link(&self, src: &str, dst: &str) -> DbResult<()> {
        self.inner.hard_link(src, dst)
    }
}

/// A statement that dies between two containers' sidecar writes did not
/// happen: the first sidecar is on disk, but no commit marker vouches for
/// its epoch, so a restart truncates the mark away.
#[test]
fn a_delete_that_dies_between_two_sidecars_did_not_happen() {
    let failing = Arc::new(FailingSidecars {
        inner: Arc::new(MemBackend::new()),
        countdown: Mutex::new(None),
    });
    let backends = vec![failing.clone() as Arc<dyn StorageBackend>];
    let c = start(1, false, &backends);
    c.load("t", &(0..100).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    c.load("t", &(100..200).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    let before = c.epochs.current();
    *failing.countdown.lock() = Some(1);
    // k in 90..110 lives in both containers of `t_by_k`.
    let pred = Expr::and(k_cmp(BinOp::Ge, 90), k_cmp(BinOp::Lt, 110));
    let err = c.delete("t", Some(&pred)).unwrap_err();
    assert!(matches!(err, DbError::Io(_)), "{err}");
    assert!(
        failing.read_file("t_by_k/ros1/deletes.dv").is_ok(),
        "the first container's sidecar was written"
    );
    assert!(failing.read_file("t_by_k/ros2/deletes.dv").is_err());
    assert_eq!(c.epochs.current(), before, "nothing committed");
    drop(c);
    let c = start(1, false, &backends);
    for family in ["t_by_k", "t_by_v"] {
        assert_eq!(c.family_table_rows(family).len(), 200, "{family}");
    }
    // And the table still takes the statement afterwards.
    assert_eq!(c.delete("t", Some(&pred)).unwrap().1, 20);
    assert_eq!(c.family_table_rows("t_by_k").len(), 180);
}

/// UPDATE is one transaction: one epoch, old rows at the snapshot before
/// it, only new rows at it.
#[test]
fn update_commits_at_one_epoch() {
    let c = start(2, false, &mem_backends(2));
    c.load("t", &(0..100).map(row).collect::<Vec<_>>(), true)
        .unwrap();
    c.load("t", &(100..120).map(row).collect::<Vec<_>>(), false)
        .unwrap();
    let before = c.epochs.current();
    let set = (2, Expr::lit(Value::Varchar("updated".into())));
    let pred = Expr::and(k_cmp(BinOp::Ge, 95), k_cmp(BinOp::Lt, 105));
    let (epoch, n) = c.update("t", &[set], Some(&pred)).unwrap();
    assert_eq!(n, 10);
    assert_eq!(epoch, before, "the update commits at the pending epoch");
    assert_eq!(c.epochs.current(), before.next(), "and advances it once");
    let updated = |rows: &[Row]| {
        rows.iter()
            .filter(|r| r[2] == Value::Varchar("updated".into()))
            .count()
    };
    let old = c.table_rows("t", epoch.prev()).unwrap();
    assert_eq!((old.len(), updated(&old)), (120, 0));
    let new = c.table_rows("t", epoch).unwrap();
    assert_eq!((new.len(), updated(&new)), (120, 10));
    let mut keys: Vec<i64> = new.iter().map(|r| r[0].as_i64().unwrap()).collect();
    keys.sort_unstable();
    assert_eq!(keys, (0..120).collect::<Vec<_>>(), "no row lost or doubled");
    check_catalog(&c);
}
