//! The cluster: nodes, membership, quorum commit, routed loads,
//! distributed query execution and maintenance.

use crate::segmentation::RingRouter;
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use vdb_exec::plan::{execute_collect, ExecContext};
use vdb_optimizer::{
    MergeSpec, OptimizerCatalog, PlannedQuery, ProjectionMeta, TableAccess, TableMeta,
};
use vdb_storage::columnar::LoadBatch;
use vdb_storage::projection::ProjectionDef;
use vdb_storage::store::SnapshotScan;
use vdb_storage::{MemBackend, StorageEngine, TupleMover, TupleMoverConfig, STATS_SAMPLE_ROWS};
use vdb_txn::txn::Isolation;
use vdb_txn::{EpochManager, LockMode, TransactionManager};
use vdb_types::{DbError, DbResult, Epoch, Expr, Func, NodeId, Row, TableSchema, Value};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub n_nodes: usize,
    /// K-safety: segmented projections keep K+1 buddy replicas (§5.2).
    pub k_safety: usize,
    /// Local segments per node (§3.6, Figure 2 uses 3).
    pub n_local_segments: u32,
    /// AHM retention policy in epochs (§5.1).
    pub history_retention: u64,
    pub tuple_mover: TupleMoverConfig,
    /// When set, each node's storage lives on disk under
    /// `<data_root>/node<i>` and DML commits persist an epoch marker,
    /// making the cluster recoverable across process restarts (§5.1).
    /// `None` keeps everything in memory.
    pub data_root: Option<std::path::PathBuf>,
    /// Per-node WOS memory budget in bytes (§3.7 back-pressure). After a
    /// WOS-path commit, any up node whose total WOS footprint (across all
    /// its projection stores) exceeds this triggers an immediate forced
    /// moveout, spilling the WOS into sorted, encoded ROS instead of
    /// growing without bound. `None` = unbounded (moveout happens only on
    /// the tuple mover's own schedule).
    pub wos_budget_bytes: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            n_nodes: 3,
            k_safety: 1,
            n_local_segments: 3,
            history_retention: u64::MAX,
            tuple_mover: TupleMoverConfig::default(),
            data_root: None,
            wos_budget_bytes: None,
        }
    }
}

struct Node {
    /// Node identity (display/debug; the index in `nodes` is authoritative).
    #[allow(dead_code)]
    id: NodeId,
    engine: StorageEngine,
}

/// One logical projection family: K+1 physical buddy replicas.
#[derive(Debug, Clone)]
pub(crate) struct Family {
    pub(crate) table: String,
    /// The family definition (replica 0's def; its name is the family name).
    pub(crate) def: ProjectionDef,
    /// Physical replica projection names, index = buddy offset.
    pub(crate) replicas: Vec<String>,
}

/// A simulated shared-nothing cluster (§2.1: "Vertica is designed from the
/// ground up to be a distributed database").
pub struct Cluster {
    pub config: ClusterConfig,
    nodes: Vec<Node>,
    up: RwLock<Vec<bool>>,
    pub epochs: Arc<EpochManager>,
    pub txns: TransactionManager,
    router: RingRouter,
    families: RwLock<BTreeMap<String, Family>>,
    tables: RwLock<BTreeMap<String, (TableSchema, Option<Expr>)>>,
    mover: TupleMover,
    /// Highest commit epoch each node has fully applied; a down node's
    /// entry freezes at its failure point and drives recovery's truncation
    /// (its effective Last Good Epoch).
    applied: RwLock<Vec<Epoch>>,
    /// Serializes commit-epoch stamping, apply, and the commit-marker
    /// write across DML transactions. Table locks alone don't: I-locks
    /// are self-compatible (Table 1), and writers on *different* tables
    /// share the node-level marker. Without this, two transactions could
    /// stamp the same pending epoch E, one could persist marker=E while
    /// the other is mid-apply, and a crash would recover the second
    /// transaction's partial writes as committed. Held only after the
    /// table lock is granted, so lock ordering is table lock → commit
    /// lock everywhere and the mutex cannot deadlock.
    pub(crate) commit_serial: Mutex<()>,
    /// Shutdown flags of in-flight exchanges. `fail_node` sets every live
    /// flag so routers blocked on a channel whose consumer died drain and
    /// join cleanly; the aborted query retries against buddy replicas.
    exchange_aborts: Mutex<Vec<std::sync::Weak<std::sync::atomic::AtomicBool>>>,
    /// Bytes shipped through exchange resegmentation (network accounting).
    exchange_bytes: Arc<std::sync::atomic::AtomicU64>,
}

impl Cluster {
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster::try_new(config).expect("cluster construction failed")
    }

    /// Fallible construction — only durable clusters (`data_root` set) can
    /// actually fail, on filesystem errors creating node directories.
    pub fn try_new(config: ClusterConfig) -> DbResult<Cluster> {
        let backends = (0..config.n_nodes)
            .map(|i| -> DbResult<Arc<dyn vdb_storage::StorageBackend>> {
                Ok(match &config.data_root {
                    Some(root) => {
                        Arc::new(vdb_storage::FsBackend::new(root.join(format!("node{i}")))?)
                    }
                    None => Arc::new(MemBackend::new()),
                })
            })
            .collect::<DbResult<Vec<_>>>()?;
        Ok(Cluster::with_backends(config, backends))
    }

    /// A cluster over the given per-node backends. Tests pass wrappers
    /// here (to count I/O) or the backends of a dropped cluster (to
    /// restart on its durable state).
    fn with_backends(
        config: ClusterConfig,
        backends: Vec<Arc<dyn vdb_storage::StorageBackend>>,
    ) -> Cluster {
        assert_eq!(backends.len(), config.n_nodes);
        let epochs = Arc::new(EpochManager::new(config.history_retention));
        let nodes = backends
            .into_iter()
            .enumerate()
            .map(|(i, backend)| Node {
                id: NodeId(i as u32),
                engine: StorageEngine::new(backend, config.n_local_segments),
            })
            .collect();
        Cluster {
            commit_serial: Mutex::new(()),
            exchange_aborts: Mutex::new(Vec::new()),
            exchange_bytes: Arc::new(std::sync::atomic::AtomicU64::new(0)),
            applied: RwLock::new(vec![Epoch::ZERO; config.n_nodes]),
            router: RingRouter::new(config.n_nodes),
            up: RwLock::new(vec![true; config.n_nodes]),
            epochs: epochs.clone(),
            txns: TransactionManager::new(epochs),
            families: RwLock::new(BTreeMap::new()),
            tables: RwLock::new(BTreeMap::new()),
            mover: TupleMover::new(config.tuple_mover.clone()),
            nodes,
            config,
        }
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn node_engine(&self, node: usize) -> &StorageEngine {
        &self.nodes[node].engine
    }

    pub fn up_nodes(&self) -> Vec<usize> {
        self.up
            .read()
            .iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| i)
            .collect()
    }

    pub fn is_up(&self, node: usize) -> bool {
        self.up.read()[node]
    }

    // ------------------------------------------------------------------
    // membership / safety (§5.3)
    // ------------------------------------------------------------------

    /// Quorum: more than half the nodes must be up ("a N/2+1 quorum to
    /// protect against network partitions and avoid split brain").
    pub fn has_quorum(&self) -> bool {
        self.up_nodes().len() * 2 > self.nodes.len()
    }

    /// Is every ring position of every segmented family readable?
    pub fn data_available(&self) -> bool {
        let up = self.up.read().clone();
        self.families.read().values().all(|f| {
            if self.router.is_replicated(&f.def) {
                up.iter().any(|&u| u)
            } else {
                self.router
                    .all_positions_readable(&up, f.replicas.len() - 1)
            }
        })
    }

    /// The cluster keeps serving only with quorum AND availability.
    pub fn is_available(&self) -> bool {
        self.has_quorum() && self.data_available()
    }

    /// Eject a node (failure injection / failed commit apply). Freezes the
    /// AHM so history needed for recovery is preserved (§5.1).
    pub fn fail_node(&self, node: usize) {
        self.up.write()[node] = false;
        self.epochs.freeze_ahm(true);
        // A crash loses the in-memory WOS (§5.1): epochs whose data only
        // reached the WOS are NOT durable on this node, so its effective
        // Last Good Epoch drops to the minimum store LGE before the WOS
        // contents vanish. Recovery replays from there.
        let applied = self.applied.read()[node];
        let mut lge = applied;
        for pname in self.nodes[node].engine.projection_names() {
            if let Ok(store) = self.nodes[node].engine.projection(&pname) {
                lge = lge.min(store.read().last_good_epoch(applied));
            }
        }
        self.applied.write()[node] = lge;
        for pname in self.nodes[node].engine.projection_names() {
            if let Ok(store) = self.nodes[node].engine.projection(&pname) {
                store.write().lose_wos();
            }
        }
        // Wake every in-flight exchange: a router blocked sending to the
        // dead node's consumer would otherwise never return. Routers see
        // the flag, drain, and join with a retryable error.
        for weak in self.exchange_aborts.lock().drain(..) {
            if let Some(flag) = weak.upgrade() {
                flag.store(true, std::sync::atomic::Ordering::Release);
            }
        }
    }

    /// Create a shutdown flag wired to `fail_node` for one exchange run.
    fn register_exchange(&self) -> vdb_exec::exchange::ShutdownFlag {
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut reg = self.exchange_aborts.lock();
        reg.retain(|w| w.strong_count() > 0);
        reg.push(Arc::downgrade(&flag));
        flag
    }

    /// Total bytes shipped through exchange resegmentation so far.
    pub fn exchange_bytes_sent(&self) -> u64 {
        self.exchange_bytes
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    pub fn create_table(&self, schema: TableSchema, partition_by: Option<Expr>) -> DbResult<()> {
        for n in &self.nodes {
            n.engine
                .create_table(schema.clone(), partition_by.clone())?;
        }
        self.tables
            .write()
            .insert(schema.name.clone(), (schema, partition_by));
        Ok(())
    }

    pub fn table_schema(&self, name: &str) -> Option<TableSchema> {
        self.tables.read().get(name).map(|(s, _)| s.clone())
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Create a projection family: replicated projections get one replica;
    /// segmented ones get K+1 buddies (§5.2: "each projection must have at
    /// least one buddy projection ... no row is stored on the same node by
    /// both projections").
    pub fn create_projection(&self, def: ProjectionDef) -> DbResult<()> {
        let family_name = def.name.clone();
        if self.families.read().contains_key(&family_name) {
            return Err(DbError::AlreadyExists(format!("projection {family_name}")));
        }
        if !def.prejoin.is_empty() && !self.router.is_replicated(&def) {
            return Err(DbError::Plan(
                "prejoin projections must be replicated (UNSEGMENTED)".into(),
            ));
        }
        let n_replicas = if self.router.is_replicated(&def) {
            1
        } else {
            self.config.k_safety + 1
        };
        let mut replicas = Vec::with_capacity(n_replicas);
        for b in 0..n_replicas {
            let mut rdef = def.clone();
            rdef.name = if n_replicas == 1 {
                family_name.clone()
            } else {
                format!("{family_name}_b{b}")
            };
            for n in &self.nodes {
                n.engine.create_projection(rdef.clone())?;
            }
            replicas.push(rdef.name);
        }
        self.families.write().insert(
            family_name,
            Family {
                table: def.anchor_table.clone(),
                def,
                replicas,
            },
        );
        Ok(())
    }

    pub fn drop_projection(&self, family: &str) -> DbResult<()> {
        let f = self
            .families
            .write()
            .remove(family)
            .ok_or_else(|| DbError::NotFound(format!("projection {family}")))?;
        for r in &f.replicas {
            for n in &self.nodes {
                let _ = n.engine.drop_projection(r);
            }
        }
        Ok(())
    }

    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let families: Vec<String> = self
            .families
            .read()
            .iter()
            .filter(|(_, f)| f.table == name)
            .map(|(k, _)| k.clone())
            .collect();
        for f in families {
            self.drop_projection(&f)?;
        }
        for n in &self.nodes {
            n.engine.drop_table(name)?;
        }
        self.tables.write().remove(name);
        Ok(())
    }

    pub fn projection_families_of(&self, table: &str) -> Vec<String> {
        self.families
            .read()
            .iter()
            .filter(|(_, f)| f.table == table)
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Does `table` have at least one family covering every column?
    pub fn has_super_projection(&self, table: &str) -> bool {
        let Some((schema, _)) = self.tables.read().get(table).cloned() else {
            return false;
        };
        self.families
            .read()
            .values()
            .any(|f| f.table == table && f.def.is_super(schema.arity()))
    }

    // ------------------------------------------------------------------
    // DML (quorum commit, no 2PC — §5)
    // ------------------------------------------------------------------

    fn check_writable(&self) -> DbResult<()> {
        if !self.is_available() {
            return Err(DbError::Unavailable(
                "quorum or K-safety data coverage lost".into(),
            ));
        }
        Ok(())
    }

    /// Bulk/trickle load: routes each row to its owning node per replica.
    /// Returns the commit epoch.
    pub fn load(&self, table: &str, rows: &[Row], direct_ros: bool) -> DbResult<Epoch> {
        self.check_writable()?;
        if !self.has_super_projection(table) {
            return Err(DbError::Plan(format!(
                "table {table} has no super projection; create one before loading"
            )));
        }
        let txn = self.txns.begin(Isolation::ReadCommitted);
        self.txns.lock(&txn, table, LockMode::I)?;
        // Stamping the epoch inside the commit mutex gives this
        // transaction a commit epoch no concurrent DML shares, so the
        // marker written below never vouches for another transaction's
        // in-flight writes.
        let _commit = self.commit_serial.lock();
        let epoch = self.txns.pending_commit_epoch();
        let result = self
            .apply_load(table, rows, epoch, direct_ros)
            .and_then(|()| self.persist_commit_marker(epoch));
        match result {
            Ok(()) => {
                self.txns.commit(&txn, true)?;
                self.record_applied(epoch);
                if !direct_ros {
                    self.enforce_wos_budgets();
                }
                Ok(epoch)
            }
            Err(e) => {
                self.txns.rollback(&txn);
                Err(e)
            }
        }
    }

    /// Total WOS bytes across all of `node`'s projection stores.
    pub fn node_wos_bytes(&self, node: usize) -> usize {
        let engine = &self.nodes[node].engine;
        engine
            .projection_names()
            .iter()
            .filter_map(|name| engine.projection(name).ok())
            .map(|store| store.read().wos_bytes())
            .sum()
    }

    /// §3.7 back-pressure: force a moveout on every up node whose WOS
    /// footprint exceeds [`ClusterConfig::wos_budget_bytes`]. Runs after
    /// the commit completes (outside the table lock and commit mutex), so
    /// it never extends the writer's critical section. Best-effort: the
    /// rows are already durably committed, so a moveout error must not
    /// fail the load that triggered it — the next tick retries.
    fn enforce_wos_budgets(&self) {
        let Some(budget) = self.config.wos_budget_bytes else {
            return;
        };
        let epoch = self.epochs.read_committed_snapshot();
        for n in self.up_nodes() {
            if self.node_wos_bytes(n) <= budget {
                continue;
            }
            for pname in self.nodes[n].engine.projection_names() {
                if let Ok(store) = self.nodes[n].engine.projection(&pname) {
                    let _ = self.mover.run_moveout(&mut store.write(), epoch, true);
                }
            }
        }
    }

    fn apply_load(
        &self,
        table: &str,
        rows: &[Row],
        epoch: Epoch,
        direct_ros: bool,
    ) -> DbResult<()> {
        let families: Vec<Family> = self
            .families
            .read()
            .values()
            .filter(|f| f.table == table)
            .cloned()
            .collect();
        let (schema, _) = self
            .tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("table {table}")))?;
        // Validate — and for a direct load pivot into typed columns — once
        // per statement; every replica on every node takes its rows from
        // this one batch.
        let batch = LoadBatch::new(&schema, rows, epoch, direct_ros)?;
        for family in &families {
            self.load_family(family, &batch, epoch, direct_ros)?;
        }
        Ok(())
    }

    /// Route a validated batch into every replica of one family: all rows
    /// to every up node when replicated, otherwise each row to the node the
    /// ring assigns its segmentation value for that replica's buddy offset.
    /// Rows owned by a down node are skipped; recovery replays them from
    /// the buddy (§5.2).
    pub(crate) fn load_family(
        &self,
        family: &Family,
        batch: &LoadBatch,
        epoch: Epoch,
        direct_ros: bool,
    ) -> DbResult<()> {
        let up = self.up.read().clone();
        // Prejoin families are replicated (enforced at create), so
        // segmentation only ever sees ordinary projections.
        let segments = batch.segment_values(&family.def)?;
        for (b, replica) in family.replicas.iter().enumerate() {
            let Some(segments) = &segments else {
                for n in (0..self.nodes.len()).filter(|&n| up[n]) {
                    self.nodes[n]
                        .engine
                        .insert_batch(replica, batch, None, epoch, direct_ros)?;
                }
                continue;
            };
            let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); self.nodes.len()];
            for (row, &segment) in segments.iter().enumerate() {
                per_node[self.router.node_of(segment, b)].push(row as u32);
            }
            for (n, node_rows) in per_node.iter().enumerate() {
                if up[n] && !node_rows.is_empty() {
                    self.nodes[n].engine.insert_batch(
                        replica,
                        batch,
                        Some(node_rows),
                        epoch,
                        direct_ros,
                    )?;
                }
            }
        }
        Ok(())
    }

    /// DELETE: marks matching rows in every projection replica on every up
    /// node. Returns (commit epoch, table rows deleted).
    pub fn delete(&self, table: &str, predicate: Option<&Expr>) -> DbResult<(Epoch, u64)> {
        self.check_writable()?;
        let txn = self.txns.begin(Isolation::ReadCommitted);
        self.txns.lock(&txn, table, LockMode::X)?;
        // See `commit_serial`: writers on other tables share the marker.
        let _commit = self.commit_serial.lock();
        let epoch = self.txns.pending_commit_epoch();
        let result = self
            .apply_delete(table, predicate, epoch)
            .and_then(|deleted| self.persist_commit_marker(epoch).map(|()| deleted));
        match result {
            Ok(deleted_primary) => {
                self.txns.commit(&txn, true)?;
                self.record_applied(epoch);
                Ok((epoch, deleted_primary))
            }
            Err(e) => {
                self.txns.rollback(&txn);
                Err(e)
            }
        }
    }

    /// Marks matching rows deleted in every replica of every family.
    /// Returns how many *table* rows that was: the rows the first family's
    /// primary replica held (one node's copy when it is replicated), not
    /// one per projection.
    fn apply_delete(&self, table: &str, predicate: Option<&Expr>, epoch: Epoch) -> DbResult<u64> {
        let snapshot = epoch.prev();
        let mut deleted = 0u64;
        let families: Vec<Family> = self
            .families
            .read()
            .values()
            .filter(|f| f.table == table)
            .cloned()
            .collect();
        for (f, family) in families.iter().enumerate() {
            let one_copy_per_node = self.router.is_replicated(&family.def);
            for (b, replica) in family.replicas.iter().enumerate() {
                for (i, n) in self.up_nodes().into_iter().enumerate() {
                    let store = self.nodes[n].engine.projection(replica)?;
                    // Hold the write lock across scan AND mark: a
                    // concurrent moveout re-bases WOS positions on drain,
                    // so row locations must not go stale in between.
                    let mut s = store.write();
                    let def = s.def().clone();
                    let pred = match predicate {
                        None => None,
                        Some(p) => Some(
                            p.remap_columns(&|c| def.projection_column_of(c))
                                .ok_or_else(|| {
                                    DbError::Plan(format!(
                                        "DELETE predicate not coverable by projection {replica}"
                                    ))
                                })?,
                        ),
                    };
                    let mut locations = Vec::new();
                    for (loc, row) in s.visible_rows_with_locations(snapshot)? {
                        let keep = match &pred {
                            None => true,
                            Some(p) => p.matches(&row)?,
                        };
                        if keep {
                            locations.push(loc);
                        }
                    }
                    if f == 0 && b == 0 && (i == 0 || !one_copy_per_node) {
                        deleted += locations.len() as u64;
                    }
                    s.mark_deleted_many(&locations, epoch)?;
                }
            }
        }
        Ok(deleted)
    }

    /// UPDATE = DELETE + INSERT of modified rows (§3.7.1), as **one**
    /// transaction: one X lock, one commit epoch, one commit marker. The
    /// old rows are delete-marked and the new ones inserted (through the
    /// WOS) at the same epoch, so a snapshot sees either the old rows or
    /// the new ones, and a crash before the marker recovers to the old
    /// rows. Sets are (table column, value expr over table columns).
    pub fn update(
        &self,
        table: &str,
        sets: &[(usize, Expr)],
        predicate: Option<&Expr>,
    ) -> DbResult<(Epoch, u64)> {
        self.check_writable()?;
        let txn = self.txns.begin(Isolation::ReadCommitted);
        self.txns.lock(&txn, table, LockMode::X)?;
        // See `commit_serial`: writers on other tables share the marker.
        let _commit = self.commit_serial.lock();
        let epoch = self.txns.pending_commit_epoch();
        let apply = || -> DbResult<u64> {
            // The new rows, from the table image the delete is about to
            // mark: under the X lock nothing else can change it.
            let mut new_rows = Vec::new();
            for row in self.table_rows(table, epoch.prev())? {
                let matches = match predicate {
                    None => true,
                    Some(p) => p.matches(&row)?,
                };
                if matches {
                    let mut updated = row.clone();
                    for (col, e) in sets {
                        updated[*col] = e.eval(&row)?;
                    }
                    new_rows.push(updated);
                }
            }
            let deleted = self.apply_delete(table, predicate, epoch)?;
            if !new_rows.is_empty() {
                self.apply_load(table, &new_rows, epoch, false)?;
            }
            self.persist_commit_marker(epoch)?;
            Ok(deleted)
        };
        match apply() {
            Ok(deleted) => {
                self.txns.commit(&txn, true)?;
                self.record_applied(epoch);
                self.enforce_wos_budgets();
                Ok((epoch, deleted))
            }
            Err(e) => {
                self.txns.rollback(&txn);
                Err(e)
            }
        }
    }

    /// ALTER TABLE ... DROP PARTITION: file-level bulk delete on every
    /// replica (§3.5).
    pub fn drop_partition(&self, table: &str, key: &Value) -> DbResult<usize> {
        self.check_writable()?;
        let txn = self.txns.begin(Isolation::ReadCommitted);
        self.txns.lock(&txn, table, LockMode::O)?;
        // See `commit_serial`: writers on other tables share the marker.
        let _commit = self.commit_serial.lock();
        let epoch = self.txns.pending_commit_epoch();
        let apply = || -> DbResult<usize> {
            let mut dropped = 0;
            for n in self.up_nodes() {
                dropped += self.nodes[n].engine.drop_partition(table, key, epoch)?;
            }
            self.persist_commit_marker(epoch)?;
            Ok(dropped)
        };
        match apply() {
            Ok(dropped) => {
                self.txns.commit(&txn, true)?;
                self.record_applied(epoch);
                Ok(dropped)
            }
            Err(e) => {
                self.txns.rollback(&txn);
                Err(e)
            }
        }
    }

    /// All visible rows of a table (via the first covering family) — used
    /// by UPDATE and recovery tooling, not the query path.
    pub fn table_rows(&self, table: &str, snapshot: Epoch) -> DbResult<Vec<Row>> {
        self.table_rows_excluding(table, snapshot, None)
    }

    /// [`Cluster::table_rows`] with one family excluded as a source.
    /// Refresh MUST exclude the projection being populated: family lookup
    /// is map-ordered, so a freshly created identity-ordered projection
    /// could otherwise be chosen as its own (empty) refresh source.
    pub fn table_rows_excluding(
        &self,
        table: &str,
        snapshot: Epoch,
        exclude_family: Option<&str>,
    ) -> DbResult<Vec<Row>> {
        let (schema, _) = self
            .tables
            .read()
            .get(table)
            .cloned()
            .ok_or_else(|| DbError::NotFound(format!("table {table}")))?;
        // Prefer an identity-ordered super projection (the canonical super);
        // any covering projection works as a fallback.
        let fams = self.families.read();
        let eligible = |f: &&Family| {
            f.table == table
                && f.def.prejoin.is_empty()
                && Some(f.def.name.as_str()) != exclude_family
        };
        let family = fams
            .values()
            .find(|f| eligible(f) && f.def.columns == (0..schema.arity()).collect::<Vec<_>>())
            .or_else(|| {
                fams.values()
                    .find(|f| eligible(f) && f.def.is_super(schema.arity()))
            })
            .cloned()
            .ok_or_else(|| DbError::Plan(format!("no super projection on {table}")))?;
        drop(fams);
        let snaps = self.family_snapshot_per_node(&family, snapshot)?;
        let mut out = Vec::new();
        for (_, snap) in snaps {
            // Read rows directly from the snapshot containers.
            for sc in &snap.containers {
                let visible = sc.visible(sc.backend.as_ref())?;
                if matches!(visible, vdb_storage::store::VisibleSet::None) {
                    continue;
                }
                let rows = sc.container.read_rows(sc.backend.as_ref())?;
                for (i, mut row) in rows.into_iter().enumerate() {
                    if visible.is_visible(i as u64) {
                        row.pop();
                        // Reorder projection row into table column order.
                        let mut table_row = vec![Value::Null; schema.arity()];
                        for (pi, &tc) in family.def.columns.iter().enumerate() {
                            table_row[tc] = row[pi].clone();
                        }
                        out.push(table_row);
                    }
                }
            }
            out.extend(snap.wos_rows.into_iter().map(|row| {
                let mut table_row = vec![Value::Null; schema.arity()];
                for (pi, &tc) in family.def.columns.iter().enumerate() {
                    table_row[tc] = row[pi].clone();
                }
                table_row
            }));
            if self.router.is_replicated(&family.def) {
                break; // one node suffices for replicated data
            }
        }
        Ok(out)
    }

    /// Visible rows one family currently holds (buddy-aware), in the
    /// family's projected column shape. Used by refresh to subtract rows
    /// that already fanned out into a freshly created projection.
    pub(crate) fn family_projected_rows(
        &self,
        family: &Family,
        snapshot: Epoch,
    ) -> DbResult<Vec<Row>> {
        let snaps = self.family_snapshot_per_node(family, snapshot)?;
        let mut out = Vec::new();
        for (_, snap) in snaps {
            for sc in &snap.containers {
                let visible = sc.visible(sc.backend.as_ref())?;
                if matches!(visible, vdb_storage::store::VisibleSet::None) {
                    continue;
                }
                let rows = sc.container.read_rows(sc.backend.as_ref())?;
                for (i, mut row) in rows.into_iter().enumerate() {
                    if visible.is_visible(i as u64) {
                        row.pop(); // trailing epoch column
                        out.push(row);
                    }
                }
            }
            out.extend(snap.wos_rows);
            if self.router.is_replicated(&family.def) {
                break;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // snapshots (buddy-aware reads)
    // ------------------------------------------------------------------

    /// Per-up-node snapshot of one family at `snapshot`, applying buddy
    /// sourcing: node n reads its replica-b data exactly when it is the
    /// designated reader for ring position (n - b) mod N (§5.2).
    fn family_snapshot_per_node(
        &self,
        family: &Family,
        snapshot: Epoch,
    ) -> DbResult<Vec<(usize, SnapshotScan)>> {
        let up = self.up.read().clone();
        let n_nodes = self.nodes.len();
        let mut out = Vec::new();
        if self.router.is_replicated(&family.def) {
            for (n, &isup) in up.iter().enumerate() {
                if !isup {
                    continue;
                }
                let store = self.nodes[n].engine.projection(&family.replicas[0])?;
                let s = store.read();
                s.ensure_usable()?;
                out.push((n, s.scan_snapshot(snapshot)));
            }
            return Ok(out);
        }
        let max_buddy = family.replicas.len() - 1;
        for n in 0..n_nodes {
            if !up[n] {
                continue;
            }
            let mut combined: Option<SnapshotScan> = None;
            for (b, replica) in family.replicas.iter().enumerate() {
                let r = (n + n_nodes - b) % n_nodes;
                if self.router.reader_replica(r, n, &up, max_buddy) != Some(b) {
                    continue;
                }
                let store = self.nodes[n].engine.projection(replica)?;
                let guard = store.read();
                guard.ensure_usable()?;
                let snap = guard.scan_snapshot(snapshot);
                drop(guard);
                combined = Some(match combined {
                    None => snap,
                    Some(mut acc) => {
                        acc.containers.extend(snap.containers);
                        acc.wos_rows.extend(snap.wos_rows);
                        acc
                    }
                });
            }
            out.push((
                n,
                combined.unwrap_or(SnapshotScan {
                    containers: vec![],
                    wos_rows: vec![],
                }),
            ));
        }
        Ok(out)
    }

    /// Union of a family's data across all up nodes (broadcast gather).
    fn family_snapshot_union(&self, family: &Family, snapshot: Epoch) -> DbResult<SnapshotScan> {
        let mut acc = SnapshotScan {
            containers: vec![],
            wos_rows: vec![],
        };
        if self.router.is_replicated(&family.def) {
            let n = *self
                .up_nodes()
                .first()
                .ok_or_else(|| DbError::Unavailable("no up nodes".into()))?;
            let store = self.nodes[n].engine.projection(&family.replicas[0])?;
            let s = store.read();
            s.ensure_usable()?;
            return Ok(s.scan_snapshot(snapshot));
        }
        for (_, snap) in self.family_snapshot_per_node(family, snapshot)? {
            acc.containers.extend(snap.containers);
            acc.wos_rows.extend(snap.wos_rows);
        }
        Ok(acc)
    }

    // ------------------------------------------------------------------
    // query execution
    // ------------------------------------------------------------------

    /// Live projection families (all families remain *logically* live as
    /// long as every ring position is readable; a family is dead when data
    /// became unavailable).
    pub fn live_projections(&self) -> HashSet<String> {
        let up = self.up.read().clone();
        self.families
            .read()
            .iter()
            .filter(|(_, f)| {
                if self.router.is_replicated(&f.def) {
                    up.iter().any(|&u| u)
                } else {
                    self.router
                        .all_positions_readable(&up, f.replicas.len() - 1)
                }
            })
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Execute a planned query at a snapshot, retrying against buddy
    /// replicas when a node dies mid-query: the failed attempt surfaces a
    /// retryable error, the dead node is ejected, and snapshots re-resolve
    /// so the surviving buddies cover its ring positions (§5.2).
    pub fn execute(&self, planned: &PlannedQuery, snapshot: Epoch) -> DbResult<Vec<Row>> {
        let mut attempts = 0usize;
        loop {
            let err = match self.execute_once(planned, snapshot) {
                Ok(rows) => return Ok(rows),
                Err(e) => e,
            };
            attempts += 1;
            if attempts > self.nodes.len() || !err.is_retryable() {
                return Err(err);
            }
            // A worker reported a node death: eject it so the retry
            // re-resolves buddy-aware snapshots without it.
            if let DbError::NodeDown { node, .. } = &err {
                if self.is_up(*node) {
                    self.fail_node(*node);
                }
            }
            if !self.is_available() {
                return Err(DbError::Unavailable(format!(
                    "query cannot be retried after node loss: {err}"
                )));
            }
        }
    }

    /// One distributed execution attempt against the current up-mask.
    fn execute_once(&self, planned: &PlannedQuery, snapshot: Epoch) -> DbResult<Vec<Row>> {
        if !self.has_quorum() {
            return Err(DbError::Unavailable("cluster lost quorum".into()));
        }
        let families = self.families.read().clone();
        // Resolve every scanned family's per-node, broadcast, or
        // resegmented snapshot.
        let mut per_node_snapshots: HashMap<usize, HashMap<String, SnapshotScan>> = HashMap::new();
        let participants: Vec<usize> = if planned.single_node {
            vec![*self
                .up_nodes()
                .first()
                .ok_or_else(|| DbError::Unavailable("no up nodes".into()))?]
        } else {
            self.up_nodes()
        };
        for (fname, access) in &planned.table_access {
            let family = families
                .get(fname)
                .ok_or_else(|| DbError::NotFound(format!("projection {fname}")))?;
            match access {
                TableAccess::Local => {
                    for (n, snap) in self.family_snapshot_per_node(family, snapshot)? {
                        per_node_snapshots
                            .entry(n)
                            .or_default()
                            .insert(fname.clone(), snap);
                    }
                }
                TableAccess::Broadcast => {
                    let union = self.family_snapshot_union(family, snapshot)?;
                    for &n in &participants {
                        per_node_snapshots
                            .entry(n)
                            .or_default()
                            .insert(fname.clone(), union.clone());
                    }
                }
                TableAccess::Resegment { keys } => {
                    for (n, rows) in self.resegment_rows(family, snapshot, keys)? {
                        per_node_snapshots.entry(n).or_default().insert(
                            fname.clone(),
                            SnapshotScan {
                                containers: vec![],
                                wos_rows: rows,
                            },
                        );
                    }
                }
            }
        }
        // Run local plans as jobs on the shared worker pool. The
        // `cluster.exec.node<i>` fault points let tests kill a node at the
        // worst moment: mid-query, after its snapshots resolved.
        let local_plan = Arc::new(planned.local.clone());
        let mut jobs: Vec<vdb_exec::pool::Job<Vec<Row>>> = Vec::with_capacity(participants.len());
        for &n in &participants {
            let snaps = per_node_snapshots.remove(&n).unwrap_or_default();
            let backend = self.nodes[n].engine.backend().clone();
            let plan = local_plan.clone();
            jobs.push(Box::new(move || -> DbResult<Vec<Row>> {
                if vdb_storage::fault::fire(&format!("cluster.exec.node{n}")).is_err() {
                    return Err(DbError::NodeDown {
                        node: n,
                        detail: "node died while executing its local plan".into(),
                    });
                }
                let mut ctx = ExecContext::new(backend);
                ctx.snapshots = snaps;
                execute_collect(&plan, &mut ctx)
            }));
        }
        let node_rows = vdb_exec::pool::shared().run_tasks(jobs, "cluster local plan")?;
        let union_rows: Vec<Row> = node_rows.into_iter().flatten().collect();
        // Merge at the initiator.
        let arity = union_arity(&planned.merge, &union_rows);
        let merge_plan = planned.merge_plan(union_rows, arity);
        let mut ctx = ExecContext::new(self.nodes[participants[0]].engine.backend().clone());
        execute_collect(&merge_plan, &mut ctx)
    }

    /// Ship one family's rows through the exchange, re-segmented on `keys`
    /// (TABLE column indexes): every up node's buddy-aware local scan feeds
    /// a ring-routing Send, and each ring position's lane is delivered to
    /// the node currently designated to read the anchor side's rows for
    /// that position — so the downstream join stays node-local.
    fn resegment_rows(
        &self,
        family: &Family,
        snapshot: Epoch,
        keys: &[usize],
    ) -> DbResult<Vec<(usize, Vec<Row>)>> {
        let n_nodes = self.nodes.len();
        let up = self.up.read().clone();
        // Keys arrive as table columns; route on their projection positions.
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| {
                family
                    .def
                    .columns
                    .iter()
                    .position(|tc| tc == k)
                    .ok_or_else(|| {
                        DbError::Plan(format!(
                            "resegment key column {k} not stored by projection {}",
                            family.def.name
                        ))
                    })
            })
            .collect::<DbResult<_>>()?;
        let hash = Expr::call(
            Func::Hash,
            positions.iter().map(|&p| Expr::col(p, "seg")).collect(),
        );
        // Ring position -> the node reading the anchor's rows for it under
        // the current up-mask (primary holder, else the first live buddy).
        let max_buddy = self.config.k_safety;
        let reading_node: Vec<usize> = (0..n_nodes)
            .map(|r| {
                (0..=max_buddy)
                    .map(|b| (r + b) % n_nodes)
                    .find(|&node| up[node])
                    .ok_or_else(|| {
                        DbError::Unavailable(format!("ring position {r} has no live replica"))
                    })
            })
            .collect::<DbResult<_>>()?;
        // One lane per ring position; every source node's router sends into
        // all of them (the senders are MPSC clones).
        let mut senders = Vec::with_capacity(n_nodes);
        let mut receivers = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let (tx, rx) = crossbeam::channel::bounded::<vdb_exec::Batch>(4);
            senders.push(tx);
            receivers.push(rx);
        }
        let mut routers = Vec::new();
        for (_, snap) in self.family_snapshot_per_node(family, snapshot)? {
            let rows = snapshot_rows(&snap)?;
            if rows.is_empty() {
                continue;
            }
            let send = vdb_exec::exchange::SendOp::new(
                Box::new(vdb_exec::operator::ValuesOp::from_rows(rows)),
                vdb_exec::exchange::Routing::Ring(hash.clone()),
                senders.clone(),
                self.exchange_bytes.clone(),
            )
            .with_shutdown(self.register_exchange());
            routers.push(std::thread::spawn(move || send.run()));
        }
        drop(senders);
        let mut per_node: Vec<Vec<Row>> = vec![Vec::new(); n_nodes];
        drain_lanes(
            &receivers,
            || routers.iter().all(|h| h.is_finished()),
            |lane, batch: vdb_exec::Batch| per_node[reading_node[lane]].extend(batch.into_rows()),
        );
        for h in routers {
            h.join()
                .map_err(|_| DbError::Execution("exchange router panicked".into()))??;
        }
        Ok(up
            .iter()
            .enumerate()
            .filter(|&(_, &isup)| isup)
            .map(|(n, _)| (n, std::mem::take(&mut per_node[n])))
            .collect())
    }

    /// Build the optimizer catalog by folding storage's per-container
    /// summaries: row counts, encoded bytes and observed encodings are
    /// sums over them, and the statistics sample is the first
    /// [`STATS_SAMPLE_ROWS`] visible rows in container order, then the WOS
    /// (node by node). Containers are immutable, so with warm summaries
    /// this reads no column file — the cost is O(containers + sample), not
    /// O(rows). See ARCHITECTURE.md, "Statistics lifecycle".
    pub fn catalog(&self) -> DbResult<OptimizerCatalog> {
        let snapshot = self.epochs.read_committed_snapshot();
        let mut catalog = OptimizerCatalog::default();
        for (tname, (schema, partition_by)) in self.tables.read().iter() {
            let mut projections = Vec::new();
            for (fname, family) in self.families.read().iter() {
                if &family.table != tname {
                    continue;
                }
                let mut holders = self.up_nodes();
                if self.router.is_replicated(&family.def) {
                    holders.truncate(1); // one node's copy stands for all
                }
                let stores = holders
                    .into_iter()
                    .map(|n| self.nodes[n].engine.projection(&family.replicas[0]))
                    .collect::<DbResult<Vec<_>>>()?;
                // Read-locked together so the sample can borrow rows from
                // all of them until the statistics are built.
                let stores: Vec<_> = stores.iter().map(|s| s.read()).collect();
                let arity = family.def.arity();
                let mut row_count = 0u64;
                let mut column_bytes = vec![0u64; arity];
                let mut column_encodings: Vec<Vec<(String, u64)>> = vec![Vec::new(); arity];
                let mut sample: Vec<&[Value]> = Vec::new();
                // Max per-node morsel count: the planner's parallel-scan
                // DoP cap (each node executes its local plan, so the
                // block-range morsels one node holds are what bounds
                // useful workers).
                let mut scan_morsels = 1usize;
                for s in &stores {
                    row_count += s.row_count_estimate();
                    scan_morsels = scan_morsels.max(s.morsel_count());
                    for (total, b) in column_bytes.iter_mut().zip(s.column_bytes()) {
                        *total += b;
                    }
                    for (merged, encs) in column_encodings.iter_mut().zip(s.column_encodings()) {
                        for (name, rows) in encs {
                            match merged.iter_mut().find(|(n, _)| *n == name) {
                                Some((_, r)) => *r += rows,
                                None => merged.push((name, rows)),
                            }
                        }
                    }
                    if sample.len() < STATS_SAMPLE_ROWS {
                        let want = STATS_SAMPLE_ROWS - sample.len();
                        sample.extend(s.sample_rows(snapshot, want)?);
                    }
                }
                let mut def = family.def.clone();
                def.name = fname.clone();
                projections.push(
                    ProjectionMeta::from_sample_rows(def, row_count, column_bytes, &sample)
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
        Ok(catalog)
    }

    // ------------------------------------------------------------------
    // maintenance
    // ------------------------------------------------------------------

    /// Run the tuple mover over every store on every up node (§4).
    pub fn tuple_mover_tick(&self, force_moveout: bool) -> DbResult<()> {
        let epoch = self.epochs.read_committed_snapshot();
        let ahm = self.epochs.ahm();
        for n in self.up_nodes() {
            for pname in self.nodes[n].engine.projection_names() {
                let store = self.nodes[n].engine.projection(&pname)?;
                let mut s = store.write();
                self.mover.run_moveout(&mut s, epoch, force_moveout)?;
                self.mover.run_mergeout(&mut s, ahm)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // durability (§5.1)
    // ------------------------------------------------------------------

    /// Durably record that `epoch` committed: an 8-byte marker file written
    /// to every up node's backend. The marker is THE commit point for
    /// recovery — applied writes whose epoch exceeds the marker are
    /// truncated away on reopen. Fires the `commit.before_marker` fault
    /// point so crash tests can exercise exactly that window.
    fn persist_commit_marker(&self, epoch: Epoch) -> DbResult<()> {
        vdb_storage::fault::fire(vdb_storage::fault::COMMIT_BEFORE_MARKER)?;
        for n in self.up_nodes() {
            self.nodes[n]
                .engine
                .backend()
                .write_file("commit.marker", &epoch.0.to_le_bytes())?;
        }
        Ok(())
    }

    /// Highest durably committed epoch across all nodes (max of the commit
    /// markers; `Epoch::ZERO` on a fresh cluster).
    pub fn last_durable_epoch(&self) -> Epoch {
        let mut max = Epoch::ZERO;
        for n in &self.nodes {
            if let Ok(bytes) = n.engine.backend().read_file("commit.marker") {
                if let Ok(arr) = <[u8; 8]>::try_from(bytes.as_slice()) {
                    max = max.max(Epoch(u64::from_le_bytes(arr)));
                }
            }
        }
        max
    }

    /// Recovery truncation: discard every effect stamped after `epoch` on
    /// every node (a crashed commit applied writes but never reached its
    /// marker). Also re-checkpoints each WOS so the redo log converges.
    pub fn truncate_all_after(&self, epoch: Epoch) -> DbResult<()> {
        for n in &self.nodes {
            for pname in n.engine.projection_names() {
                let store = n.engine.projection(&pname)?;
                store.write().truncate_after(epoch)?;
            }
        }
        Ok(())
    }

    /// Hard-link backup of every projection on every up node (§5.2).
    pub fn backup(&self, tag: &str) -> DbResult<usize> {
        let mut files = 0;
        for n in self.up_nodes() {
            for pname in self.nodes[n].engine.projection_names() {
                let store = self.nodes[n].engine.projection(&pname)?;
                files += store.read().backup(tag)?;
            }
        }
        Ok(files)
    }

    /// Total ROS bytes across the cluster (replica 0 only — the logical
    /// data size; buddies double physical storage exactly as in Vertica).
    pub fn logical_ros_bytes(&self) -> u64 {
        let mut total = 0;
        for family in self.families.read().values() {
            for n in self.up_nodes() {
                if let Ok(store) = self.nodes[n].engine.projection(&family.replicas[0]) {
                    total += store.read().ros_bytes();
                }
                if self.router.is_replicated(&family.def) {
                    break;
                }
            }
        }
        total
    }

    pub(crate) fn family(&self, name: &str) -> Option<Family> {
        self.families.read().get(name).cloned()
    }

    pub(crate) fn router(&self) -> &RingRouter {
        &self.router
    }

    pub(crate) fn node_up_mask(&self) -> Vec<bool> {
        self.up.read().clone()
    }

    fn record_applied(&self, epoch: Epoch) {
        let up = self.up.read().clone();
        let mut applied = self.applied.write();
        for (n, a) in applied.iter_mut().enumerate() {
            if up[n] {
                *a = epoch;
            }
        }
    }

    pub(crate) fn applied_epoch(&self, node: usize) -> Epoch {
        self.applied.read()[node]
    }

    pub(crate) fn set_applied_epoch(&self, node: usize, epoch: Epoch) {
        self.applied.write()[node] = epoch;
    }

    pub(crate) fn mark_up(&self, node: usize) {
        self.up.write()[node] = true;
        if self.up.read().iter().all(|&u| u) {
            self.epochs.freeze_ahm(false);
        }
    }
}

/// Materialize a snapshot (visible container rows + the WOS tail) into
/// projection-shaped rows — the local scan feeding an exchange Send.
fn snapshot_rows(snap: &SnapshotScan) -> DbResult<Vec<Row>> {
    let mut out = snap.wos_rows.clone();
    for sc in &snap.containers {
        let visible = sc.visible(sc.backend.as_ref())?;
        if matches!(visible, vdb_storage::store::VisibleSet::None) {
            continue;
        }
        let rows = sc.container.read_rows(sc.backend.as_ref())?;
        for (i, mut row) in rows.into_iter().enumerate() {
            if visible.is_visible(i as u64) {
                row.pop(); // trailing epoch column
                out.push(row);
            }
        }
    }
    Ok(out)
}

fn union_arity(merge: &MergeSpec, rows: &[Row]) -> usize {
    rows.first().map(Vec::len).unwrap_or(match merge {
        MergeSpec::ReAggregate {
            group_columns,
            merge_aggs,
            ..
        } => group_columns.len() + merge_aggs.len(),
        _ => 1,
    })
}

/// Multiplexed drain of exchange lanes: a blocking per-lane drain could
/// deadlock with a router wedged on a full lane nobody reads yet, so every
/// lane is polled until all routers have finished and the lanes ran dry.
///
/// `routers_done` is asked *before* each sweep, not after a dry one: a
/// router that delivers its last batch and finishes between a dry sweep and
/// the question would leave that batch in a lane nobody reads again.
fn drain_lanes<T>(
    lanes: &[crossbeam::channel::Receiver<T>],
    routers_done: impl Fn() -> bool,
    mut deliver: impl FnMut(usize, T),
) {
    loop {
        let done = routers_done();
        let mut drained = false;
        for (lane, rx) in lanes.iter().enumerate() {
            while let Some(item) = rx.try_recv() {
                deliver(lane, item);
                drained = true;
            }
        }
        if !drained {
            if done {
                return; // no router was left when this sweep found the lanes dry
            }
            std::thread::yield_now();
        }
    }
}

#[cfg(test)]
mod catalog_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_types::{ColumnDef, DataType};

    /// The exchange drain against the worst-timed router: it delivers its
    /// last batch and finishes exactly when the drain asks whether the
    /// routers are done. Asking only after a dry sweep would lose that
    /// batch; asking before each sweep cannot.
    #[test]
    fn drain_lanes_reads_a_batch_sent_just_before_the_last_router_finished() {
        let (tx, rx) = crossbeam::channel::bounded::<u32>(4);
        tx.send(1).unwrap();
        let router = std::cell::Cell::new(Some(tx));
        let routers_done = || {
            // The router's final act, interleaved at the question.
            if let Some(tx) = router.take() {
                tx.send(2).unwrap();
            }
            true
        };
        let mut got = Vec::new();
        drain_lanes(&[rx], routers_done, |lane, item| got.push((lane, item)));
        assert_eq!(got, vec![(0, 1), (0, 2)]);
    }

    fn sales_schema() -> TableSchema {
        TableSchema::new(
            "sales",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("region", DataType::Integer),
                ColumnDef::new("amt", DataType::Integer),
            ],
        )
    }

    fn make_cluster(n: usize, k: usize) -> Cluster {
        let c = Cluster::new(ClusterConfig {
            n_nodes: n,
            k_safety: k,
            n_local_segments: 2,
            ..Default::default()
        });
        c.create_table(sales_schema(), None).unwrap();
        c.create_projection(ProjectionDef::super_projection(
            &sales_schema(),
            "sales_super",
            &[0],
            &[0],
        ))
        .unwrap();
        c
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Integer(i % 4),
                    Value::Integer(i * 10),
                ]
            })
            .collect()
    }

    #[test]
    fn load_replicates_k_plus_1_buddies() {
        let c = make_cluster(3, 1);
        c.load("sales", &rows(300), true).unwrap();
        // Each replica holds all 300 rows across the cluster.
        let snapshot = c.epochs.read_committed_snapshot();
        for replica in ["sales_super_b0", "sales_super_b1"] {
            let mut total = 0;
            for n in 0..3 {
                let store = c.node_engine(n).projection(replica).unwrap();
                total += store.read().visible_rows(snapshot).unwrap().len();
            }
            assert_eq!(total, 300, "replica {replica}");
        }
        // Buddy shift: per-node counts differ between replicas but each
        // node holds data for both.
        assert_eq!(c.table_rows("sales", snapshot).unwrap().len(), 300);
    }

    #[test]
    fn quorum_and_availability() {
        let c = make_cluster(3, 1);
        assert!(c.is_available());
        c.fail_node(0);
        assert!(c.has_quorum());
        assert!(c.data_available(), "K=1 tolerates one failure");
        assert!(c.is_available());
        c.fail_node(1);
        assert!(!c.has_quorum(), "2 of 3 down: no quorum");
        assert!(!c.is_available());
        // Writes refused without quorum.
        assert!(c.load("sales", &rows(1), true).is_err());
    }

    #[test]
    fn buddy_sourced_reads_after_failure() {
        let c = make_cluster(3, 1);
        c.load("sales", &rows(500), true).unwrap();
        let snapshot = c.epochs.read_committed_snapshot();
        let before = c.table_rows("sales", snapshot).unwrap().len();
        assert_eq!(before, 500);
        c.fail_node(1);
        let after = c.table_rows("sales", snapshot).unwrap().len();
        assert_eq!(after, 500, "buddy projections fill the gap");
    }

    #[test]
    fn delete_and_snapshot_reads() {
        let c = make_cluster(3, 1);
        c.load("sales", &rows(100), true).unwrap();
        let before = c.epochs.read_committed_snapshot();
        let pred = Expr::binary(vdb_types::BinOp::Lt, Expr::col(0, "id"), Expr::int(10));
        let (_, deleted) = c.delete("sales", Some(&pred)).unwrap();
        assert_eq!(deleted, 10);
        let now = c.epochs.read_committed_snapshot();
        assert_eq!(c.table_rows("sales", now).unwrap().len(), 90);
        assert_eq!(
            c.table_rows("sales", before).unwrap().len(),
            100,
            "historical snapshot unaffected"
        );
    }

    #[test]
    fn update_rewrites_rows() {
        let c = make_cluster(3, 1);
        c.load("sales", &rows(20), true).unwrap();
        let pred = Expr::eq(Expr::col(0, "id"), Expr::int(5));
        let sets = vec![(2usize, Expr::int(999))];
        c.update("sales", &sets, Some(&pred)).unwrap();
        let now = c.epochs.read_committed_snapshot();
        let all = c.table_rows("sales", now).unwrap();
        assert_eq!(all.len(), 20);
        let updated = all.iter().find(|r| r[0] == Value::Integer(5)).unwrap();
        assert_eq!(updated[2], Value::Integer(999));
    }

    #[test]
    fn load_rejected_without_super_projection() {
        let c = Cluster::new(ClusterConfig {
            n_nodes: 2,
            k_safety: 0,
            ..Default::default()
        });
        c.create_table(sales_schema(), None).unwrap();
        assert!(c.load("sales", &rows(1), true).is_err());
    }

    #[test]
    fn catalog_reflects_loaded_data() {
        let c = make_cluster(3, 1);
        c.load("sales", &rows(1000), true).unwrap();
        let cat = c.catalog().unwrap();
        let t = cat.table("sales").unwrap();
        assert_eq!(t.row_count(), 1000);
        let p = &t.projections[0];
        assert_eq!(p.def.name, "sales_super");
        assert!(p.column_bytes.iter().sum::<u64>() > 0);
        assert!(p.stats[0].distinct > 100);
        // Observed encodings flow from the position indexes into the
        // catalog: every column reports at least one concrete codec, and
        // the per-column row totals cover every ROS row.
        assert_eq!(p.column_encodings.len(), p.def.arity());
        for col in p.column_encodings.iter() {
            assert!(!col.is_empty());
            assert!(col.iter().map(|(_, r)| r).sum::<u64>() > 0);
        }
        assert!(p.dominant_encoding(0).is_some());
    }

    #[test]
    fn tuple_mover_consolidates_across_cluster() {
        let mut cfg = ClusterConfig {
            n_nodes: 2,
            k_safety: 0,
            n_local_segments: 1,
            ..Default::default()
        };
        cfg.tuple_mover.merge_threshold = 3;
        cfg.tuple_mover.strata_base_bytes = 1 << 20;
        let c = Cluster::new(cfg);
        c.create_table(sales_schema(), None).unwrap();
        c.create_projection(ProjectionDef::super_projection(
            &sales_schema(),
            "sales_super",
            &[0],
            &[0],
        ))
        .unwrap();
        for i in 0..6 {
            c.load("sales", &rows(20 + i), true).unwrap();
        }
        let count_containers = |c: &Cluster| -> usize {
            (0..2)
                .map(|n| {
                    c.node_engine(n)
                        .projection("sales_super")
                        .unwrap()
                        .read()
                        .container_count()
                })
                .sum()
        };
        let before = count_containers(&c);
        c.tuple_mover_tick(true).unwrap();
        let after = count_containers(&c);
        assert!(after < before, "{before} -> {after}");
        let snapshot = c.epochs.read_committed_snapshot();
        let total: usize = c.table_rows("sales", snapshot).unwrap().len();
        assert_eq!(total, (0..6).map(|i| 20 + i as usize).sum::<usize>());
    }

    #[test]
    fn over_budget_wos_triggers_forced_moveout() {
        // §3.7 back-pressure: with a per-node WOS budget configured, a
        // WOS-path load that pushes a node past the budget triggers a
        // forced moveout immediately — the node's WOS drains without
        // waiting for a tuple-mover tick.
        let make = |budget: Option<usize>| -> Cluster {
            let c = Cluster::new(ClusterConfig {
                n_nodes: 2,
                k_safety: 0,
                n_local_segments: 1,
                wos_budget_bytes: budget,
                ..Default::default()
            });
            c.create_table(sales_schema(), None).unwrap();
            c.create_projection(ProjectionDef::super_projection(
                &sales_schema(),
                "sales_super",
                &[0],
                &[0],
            ))
            .unwrap();
            c
        };

        // Unbounded control: repeated WOS loads pile up in memory.
        let free = make(None);
        for _ in 0..4 {
            free.load("sales", &rows(200), false).unwrap();
        }
        let unbounded: usize = (0..2).map(|n| free.node_wos_bytes(n)).sum();
        assert!(unbounded > 0, "WOS loads stay in WOS without a budget");

        // Budgeted: same traffic, WOS snaps back under the cap after
        // every over-budget commit.
        let budget = unbounded / 8;
        let capped = make(Some(budget));
        for _ in 0..4 {
            capped.load("sales", &rows(200), false).unwrap();
            for n in 0..2 {
                assert!(
                    capped.node_wos_bytes(n) <= budget,
                    "node {n} over budget after enforcement"
                );
            }
        }
        // Nothing lost: the moved-out rows are all visible.
        let snapshot = capped.epochs.read_committed_snapshot();
        assert_eq!(capped.table_rows("sales", snapshot).unwrap().len(), 800);
    }

    #[test]
    fn concurrent_loads_commit_at_distinct_epochs() {
        // I-locks are self-compatible, so only the commit mutex keeps two
        // in-flight loads from stamping the same pending epoch — which
        // would let one transaction's marker vouch for the other's
        // partial writes after a crash.
        let c = std::sync::Arc::new(make_cluster(2, 0));
        let mut handles = Vec::new();
        for t in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut epochs = Vec::new();
                for i in 0..10 {
                    let row = vec![
                        Value::Integer(t * 100 + i),
                        Value::Integer(0),
                        Value::Integer(0),
                    ];
                    epochs.push(c.load("sales", &[row], false).unwrap());
                }
                epochs
            }));
        }
        let mut all: Vec<Epoch> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "two DML transactions shared an epoch");
        let snapshot = c.epochs.read_committed_snapshot();
        assert_eq!(c.table_rows("sales", snapshot).unwrap().len(), 40);
    }
}
