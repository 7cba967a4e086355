//! The `Database` facade: SQL in, rows out.
//!
//! This is the executor's *row-pivot edge*: plans run columnar end to end
//! (typed vectors, selection vectors, vectorized expression evaluation —
//! see `vdb_exec::expr_vec`), and batches are expanded into `Vec<Row>`
//! results only when they leave the engine here, via
//! `vdb_exec::collect_rows` / `Batch::into_rows`.

use crate::trace::{QueryTrace, TraceFeatures, DEFAULT_TRACE_CAPACITY};
use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::Arc;
use vdb_cluster::{Cluster, ClusterConfig};
use vdb_exec::parallel::ExecOptions;
use vdb_optimizer::OptimizerCatalog;
use vdb_sql::{BoundStatement, SchemaProvider};
use vdb_types::{DbError, DbResult, Epoch, Row, TableSchema, Value};

/// Database construction parameters (wraps the cluster config).
#[derive(Debug, Clone, Default)]
pub struct DatabaseConfig {
    pub cluster: ClusterConfig,
    /// Executor thread budget per query (morsel-driven parallel scans).
    /// Defaults to `VDB_EXEC_THREADS` or the host's available
    /// parallelism; the planner clamps per scan to the projection's
    /// morsel count (block ranges of its containers, plus the WOS tail).
    pub exec: ExecOptions,
}

/// Result of a statement: column names plus rows (empty for DDL/DML, which
/// report a tag instead).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Human-readable command tag ("CREATE TABLE", "INSERT 3", ...).
    pub tag: String,
}

impl QueryResult {
    fn tag(tag: impl Into<String>) -> QueryResult {
        QueryResult {
            columns: vec![],
            rows: vec![],
            tag: tag.into(),
        }
    }

    /// Single-column convenience accessor.
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }
}

/// The database: a cluster plus SQL/plan caching glue. Construct one
/// through [`crate::Engine::builder`] (the engine derefs to its database);
/// [`Database::new`] remains the low-level explicit-config entry point.
///
/// # Examples
///
/// Create a table, insert through the WOS, and query — the whole
/// SQL→optimizer→executor→storage pipeline on one node:
///
/// ```
/// use vdb_core::{Engine, Value};
///
/// let db = Engine::builder().open().unwrap();
/// db.execute("CREATE TABLE t (id INT, name VARCHAR)").unwrap();
/// db.execute("CREATE PROJECTION t_super AS SELECT id, name FROM t ORDER BY id")
///     .unwrap();
/// db.execute("INSERT INTO t VALUES (1, 'ada')").unwrap();
/// db.execute("INSERT INTO t VALUES (2, 'grace')").unwrap();
///
/// let rows = db.query("SELECT name FROM t WHERE id = 2").unwrap();
/// assert_eq!(rows, vec![vec![Value::Varchar("grace".into())]]);
///
/// let count = db.execute("SELECT COUNT(*) FROM t").unwrap();
/// assert_eq!(count.scalar(), Some(&Value::Integer(2)));
/// ```
pub struct Database {
    cluster: Cluster,
    /// Executor thread budget handed to the planner per query.
    exec: ExecOptions,
    /// Catalog cache keyed by the epoch it was built at.
    catalog: RwLock<Option<(Epoch, Arc<OptimizerCatalog>)>>,
    /// Monotone counter bumped by every DDL-shaped catalog change
    /// (CREATE/DROP TABLE/PROJECTION, designer installs). Cached physical
    /// plans stamp the version they were planned under and are discarded
    /// when it moves — unlike the epoch-keyed catalog cache above, plain
    /// DML does NOT bump this, so plans survive inserts/deletes (they are
    /// templates; every execution re-snapshots its containers).
    ddl_version: std::sync::atomic::AtomicU64,
    /// Durable databases append every successful DDL statement here so
    /// reopen can rebuild the catalog before reattaching storage.
    ddl_log: Option<std::path::PathBuf>,
    /// Workload capture for the Database Designer: every SELECT executed
    /// here or through the serving layer folds into this bounded ring
    /// (durable databases spill it next to the DDL log).
    trace: QueryTrace,
}

impl Database {
    pub fn new(config: DatabaseConfig) -> Database {
        Database {
            cluster: Cluster::new(config.cluster),
            exec: config.exec,
            catalog: RwLock::new(None),
            ddl_version: std::sync::atomic::AtomicU64::new(0),
            ddl_log: None,
            trace: QueryTrace::new(DEFAULT_TRACE_CAPACITY, None),
        }
    }

    /// [`Database::new`] rooted at `root` for durability (the engine
    /// builder's durable path; `config.cluster.data_root` is overwritten).
    ///
    /// First open creates the directory; subsequent opens **recover**: the
    /// DDL log is replayed to rebuild tables and projections (projection
    /// stores reattach to their on-disk manifests, replaying each WOS redo
    /// log), the epoch clock restarts one past the last durable commit
    /// marker, and any effects stamped after that marker — writes applied
    /// by a transaction that crashed before its marker — are truncated
    /// away. See `ARCHITECTURE.md` ("Durability and crash recovery").
    pub(crate) fn open_at(
        root: impl AsRef<std::path::Path>,
        mut config: DatabaseConfig,
    ) -> DbResult<Database> {
        let root = root.as_ref();
        std::fs::create_dir_all(root)
            .map_err(|e| DbError::Io(format!("create data root {}: {e}", root.display())))?;
        config.cluster.data_root = Some(root.to_path_buf());
        let ddl_path = root.join("ddl.log");
        let existing_ddl = match std::fs::read_to_string(&ddl_path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(DbError::Io(format!("read ddl.log: {e}"))),
        };
        let db = Database {
            cluster: Cluster::try_new(config.cluster)?,
            exec: config.exec,
            catalog: RwLock::new(None),
            ddl_version: std::sync::atomic::AtomicU64::new(0),
            ddl_log: Some(ddl_path),
            trace: QueryTrace::new(DEFAULT_TRACE_CAPACITY, Some(root.join("query_trace.log"))),
        };
        if let Some(text) = existing_ddl {
            db.replay_ddl(&text)?;
            let marker = db.cluster.last_durable_epoch();
            db.cluster.epochs.restore_current(marker.next());
            db.cluster.truncate_all_after(marker)?;
        }
        Ok(db)
    }

    /// Rebuild the catalog from logged DDL. Statements are applied through
    /// the cluster directly — NOT [`Database::execute_bound`] — because
    /// `CREATE PROJECTION` must not re-run its populate-from-table refresh:
    /// the projection stores attach to their manifests with data already
    /// present.
    fn replay_ddl(&self, text: &str) -> DbResult<()> {
        let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
        for (i, line) in lines.iter().enumerate() {
            let sql = unescape_ddl(line);
            let stmt = match vdb_sql::compile(
                &sql,
                &Schemas {
                    cluster: &self.cluster,
                },
            ) {
                Ok(stmt) => stmt,
                // An unparseable, unterminated *final* line is debris from
                // a crash mid-append (the log is write-ahead); everything
                // before it already replayed, so recovery proceeds without
                // it — `append_ddl` truncates it before the next write.
                // Anywhere else it's genuine corruption.
                Err(_) if i + 1 == lines.len() && !text.ends_with('\n') => break,
                Err(e) => return Err(DbError::Corrupt(format!("ddl.log line {}: {e}", i + 1))),
            };
            let applied = match stmt {
                BoundStatement::CreateTable {
                    schema,
                    partition_by,
                } => self.cluster.create_table(schema, partition_by),
                BoundStatement::CreateProjection { def } => self.cluster.create_projection(def),
                BoundStatement::DropTable(name) => self.cluster.drop_table(&name),
                BoundStatement::DropProjection(name) => self.cluster.drop_projection(&name),
                _ => {
                    return Err(DbError::Corrupt(format!(
                        "non-DDL statement in ddl.log: {sql}"
                    )))
                }
            };
            if let Err(e) = applied {
                match e {
                    // The log is written ahead of the statement's effects,
                    // so a deterministic statement-level rejection
                    // (duplicate name, missing object, bad definition)
                    // just means the original execution failed after
                    // logging — it left nothing behind to recover.
                    DbError::AlreadyExists(_) | DbError::NotFound(_) | DbError::Plan(_) => {}
                    other => return Err(other),
                }
            }
        }
        Ok(())
    }

    /// Durably append one DDL statement to the log. Called *before* the
    /// statement executes (write-ahead): a crash between log and effects
    /// replays the statement on reopen instead of stranding orphaned
    /// on-disk state the vanished statement created. No-op in-memory.
    fn append_ddl(&self, sql: &str) -> DbResult<()> {
        let Some(path) = &self.ddl_log else {
            return Ok(());
        };
        use std::io::{Read, Seek, SeekFrom, Write};
        let io = |e: std::io::Error| DbError::Io(format!("append ddl.log: {e}"));
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(io)?;
        // A crash mid-append strands an unterminated final line; replay
        // skipped it, so drop it here — appending after it would weld the
        // new statement onto the debris.
        let mut contents = Vec::new();
        f.read_to_end(&mut contents).map_err(io)?;
        let keep = if contents.is_empty() || contents.ends_with(b"\n") {
            contents.len()
        } else {
            contents
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|i| i + 1)
                .unwrap_or(0)
        };
        if keep != contents.len() {
            f.set_len(keep as u64).map_err(io)?;
        }
        f.seek(SeekFrom::Start(keep as u64)).map_err(io)?;
        writeln!(f, "{}", escape_ddl(sql)).map_err(io)?;
        f.sync_all().map_err(io)
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The executor thread budget every query is planned with (the planner
    /// clamps per scan — and per parallel-join side — to the projection's
    /// morsel count).
    pub fn exec_options(&self) -> ExecOptions {
        self.exec
    }

    fn invalidate_catalog(&self) {
        *self.catalog.write() = None;
    }

    /// Record a DDL-shaped catalog change (see the `ddl_version` field).
    /// Called *after* the cluster mutation lands, so a plan stamped before
    /// the bump can never have observed the new catalog.
    fn bump_ddl_version(&self) {
        self.ddl_version
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    /// Current DDL/catalog version for plan-cache revalidation: a cached
    /// plan is valid iff the version it was stamped with (read *before*
    /// planning) still equals this.
    pub fn ddl_version(&self) -> u64 {
        self.ddl_version.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// May physical plans be cached right now? Plans bake in a projection
    /// choice; with nodes down the planner restricts itself to projections
    /// that are still fully live, so those degraded plans must not be
    /// cached (nor should cached healthy plans be served — the caller
    /// bypasses the cache entirely while degraded).
    pub fn can_cache_plans(&self) -> bool {
        self.cluster.up_nodes().len() == self.cluster.n_nodes()
    }

    /// Parse + bind one statement against the current catalog (the serving
    /// layer's entry point; [`Database::execute`] composes this with
    /// [`Database::execute_bound`]).
    pub fn compile(&self, sql: &str) -> DbResult<BoundStatement> {
        vdb_sql::compile(
            sql,
            &Schemas {
                cluster: &self.cluster,
            },
        )
    }

    /// Plan a bound SELECT into a reusable physical-plan template. The
    /// plan holds no epoch or container state — every
    /// [`Database::execute_planned`] re-snapshots — so it stays valid
    /// across DML; DDL invalidation is the caller's job via
    /// [`Database::ddl_version`] stamping.
    pub fn plan_select(
        &self,
        q: &vdb_optimizer::BoundQuery,
    ) -> DbResult<vdb_optimizer::PlannedQuery> {
        let catalog = self.optimizer_catalog()?;
        let live = self.live_projections();
        vdb_optimizer::plan(&catalog, q, live.as_ref(), &self.exec)
    }

    /// Execute a previously planned SELECT at a fresh read-committed
    /// snapshot.
    pub fn execute_planned(&self, planned: &vdb_optimizer::PlannedQuery) -> DbResult<QueryResult> {
        let snapshot = self.cluster.epochs.read_committed_snapshot();
        let rows = self.cluster.execute(planned, snapshot)?;
        Ok(QueryResult {
            columns: planned.output_names.clone(),
            tag: format!("SELECT {}", rows.len()),
            rows,
        })
    }

    /// Current optimizer catalog, shared: rebuilt when the epoch moved
    /// (any commit) or DDL cleared it. The rebuild is single-flight — the
    /// epoch is re-checked under the write lock, so sessions that all plan
    /// after one commit build one catalog between them.
    pub fn optimizer_catalog(&self) -> DbResult<Arc<OptimizerCatalog>> {
        let epoch = self.cluster.epochs.current();
        let fresh = |slot: &Option<(Epoch, Arc<OptimizerCatalog>)>| match slot {
            Some((e, cat)) if *e == epoch => Some(cat.clone()),
            _ => None,
        };
        if let Some(cat) = fresh(&self.catalog.read()) {
            return Ok(cat);
        }
        let mut slot = self.catalog.write();
        if let Some(cat) = fresh(&slot) {
            return Ok(cat);
        }
        let cat = Arc::new(self.cluster.catalog()?);
        *slot = Some((epoch, cat.clone()));
        Ok(cat)
    }

    /// Execute one SQL statement.
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        let stmt = self.compile(sql)?;
        let is_ddl = matches!(
            stmt,
            BoundStatement::CreateTable { .. }
                | BoundStatement::CreateProjection { .. }
                | BoundStatement::DropTable(_)
                | BoundStatement::DropProjection(_)
        );
        if is_ddl {
            self.append_ddl(sql)?;
        }
        let features = match &stmt {
            BoundStatement::Select(q) => Some(self.trace_features(q)),
            _ => None,
        };
        let result = self.execute_bound(stmt)?;
        if let Some(f) = features {
            self.trace
                .record(&canonical_sql(sql), f, result.rows.len() as u64);
        }
        Ok(result)
    }

    /// Convenience: run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> DbResult<Vec<Row>> {
        Ok(self.execute(sql)?.rows)
    }

    pub fn execute_bound(&self, stmt: BoundStatement) -> DbResult<QueryResult> {
        match stmt {
            BoundStatement::CreateTable {
                schema,
                partition_by,
            } => {
                self.cluster.create_table(schema, partition_by)?;
                self.invalidate_catalog();
                self.bump_ddl_version();
                Ok(QueryResult::tag("CREATE TABLE"))
            }
            BoundStatement::CreateProjection { def } => {
                self.cluster.create_projection(def.clone())?;
                // Populate from existing data if the table already has rows
                // (refresh, §5.2). The refresh's table lock conflicts with
                // in-flight DML and the lock manager rejects rather than
                // queues, so contention retries until an ingest window
                // opens; a terminal failure unregisters the projection
                // again — an empty replica the planner could route
                // queries to must never survive.
                if self
                    .cluster
                    .table_rows_excluding(
                        &def.anchor_table,
                        self.cluster.epochs.read_committed_snapshot(),
                        Some(&def.name),
                    )
                    .map(|r| !r.is_empty())
                    .unwrap_or(false)
                {
                    let mut attempts = 0;
                    let refreshed = loop {
                        match self.cluster.refresh_projection(&def.name) {
                            Ok(n) => break Ok(n),
                            Err(DbError::LockConflict { .. }) if attempts < 2000 => {
                                attempts += 1;
                                std::thread::sleep(std::time::Duration::from_millis(1));
                            }
                            Err(e) => break Err(e),
                        }
                    };
                    if let Err(e) = refreshed {
                        let _ = self.cluster.drop_projection(&def.name);
                        return Err(e);
                    }
                }
                self.invalidate_catalog();
                self.bump_ddl_version();
                Ok(QueryResult::tag("CREATE PROJECTION"))
            }
            BoundStatement::DropTable(name) => {
                self.cluster.drop_table(&name)?;
                self.invalidate_catalog();
                self.bump_ddl_version();
                Ok(QueryResult::tag("DROP TABLE"))
            }
            BoundStatement::DropProjection(name) => {
                self.cluster.drop_projection(&name)?;
                self.invalidate_catalog();
                self.bump_ddl_version();
                Ok(QueryResult::tag("DROP PROJECTION"))
            }
            BoundStatement::Insert { table, rows } => {
                let n = rows.len();
                // Trickle inserts land in the WOS (§3.7); bulk loads should
                // use Database::load / COPY which target the ROS directly.
                self.cluster.load(&table, &rows, false)?;
                self.invalidate_catalog();
                Ok(QueryResult::tag(format!("INSERT {n}")))
            }
            BoundStatement::Delete { table, predicate } => {
                let (_, n) = self.cluster.delete(&table, predicate.as_ref())?;
                self.invalidate_catalog();
                Ok(QueryResult::tag(format!("DELETE {n}")))
            }
            BoundStatement::Update {
                table,
                sets,
                predicate,
            } => {
                let (_, n) = self.cluster.update(&table, &sets, predicate.as_ref())?;
                self.invalidate_catalog();
                Ok(QueryResult::tag(format!("UPDATE {n}")))
            }
            BoundStatement::DropPartition { table, key } => {
                let n = self.cluster.drop_partition(&table, &key)?;
                self.invalidate_catalog();
                Ok(QueryResult::tag(format!("DROP PARTITION {n}")))
            }
            BoundStatement::Select(q) => Ok(self.run_select(&q)?.1),
            BoundStatement::Explain(q) => {
                let catalog = self.optimizer_catalog()?;
                let live = self.live_projections();
                let planned = vdb_optimizer::plan(&catalog, &q, live.as_ref(), &self.exec)?;
                let mut text = vdb_exec::plan::explain(&planned.local);
                // Distribution section: where each table's rows come from,
                // which nodes run the local plan, and how partials merge.
                let cluster = self.cluster();
                let up = cluster.up_nodes().len();
                let n = cluster.n_nodes();
                if planned.single_node {
                    text.push_str(&format!(
                        "-- single node (all projections replicated), initiator of {up}/{n} up\n"
                    ));
                } else {
                    text.push_str(&format!(
                        "-- distributed over {up}/{n} up nodes, k-safety={}\n",
                        cluster.config.k_safety
                    ));
                }
                for (proj, access) in &planned.table_access {
                    let how = match access {
                        vdb_optimizer::TableAccess::Local => {
                            "local segments (buddy-aware)".to_string()
                        }
                        vdb_optimizer::TableAccess::Broadcast => {
                            "gather + broadcast to all nodes".to_string()
                        }
                        vdb_optimizer::TableAccess::Resegment { keys } => {
                            format!("resegment through exchange on hash(cols {keys:?}) -> ring")
                        }
                    };
                    text.push_str(&format!("--   {proj}: {how}\n"));
                }
                text.push_str(&format!(
                    "-- merge at initiator: {}\n",
                    match &planned.merge {
                        // Top-k pushdown (ORDER BY + LIMIT): each node ships
                        // only its first limit+offset sorted rows; the
                        // initiator re-sorts the union and applies the
                        // real limit/offset.
                        vdb_optimizer::MergeSpec::Concat {
                            order_by,
                            limit: Some((n, offset)),
                        } if !order_by.is_empty() => format!(
                            "concat, re-sort, limit {n} (per-node top-{} pushdown)",
                            n + offset
                        ),
                        vdb_optimizer::MergeSpec::Concat { .. } => "concat".to_string(),
                        vdb_optimizer::MergeSpec::ReAggregate { .. } =>
                            "re-aggregate partials".to_string(),
                        vdb_optimizer::MergeSpec::WindowThenProject { .. } =>
                            "apply windows".to_string(),
                    },
                ));
                Ok(QueryResult {
                    columns: vec!["QUERY PLAN".into()],
                    rows: text
                        .lines()
                        .map(|l| vec![Value::Varchar(l.to_string())])
                        .collect(),
                    tag: "EXPLAIN".into(),
                })
            }
            // Session transaction syntax: DML here autocommits (each
            // statement is its own transaction under READ COMMITTED, §5);
            // BEGIN/COMMIT are accepted for compatibility.
            BoundStatement::Begin => Ok(QueryResult::tag("BEGIN")),
            BoundStatement::Commit => Ok(QueryResult::tag("COMMIT")),
            BoundStatement::Rollback => Ok(QueryResult::tag("ROLLBACK")),
        }
    }

    /// Run a SELECT and also report the epoch snapshot it executed at —
    /// what concurrent-correctness harnesses need to check snapshot
    /// isolation (the result must equal the committed state AT that epoch,
    /// no matter what commits raced the query).
    pub fn query_snapshot(&self, sql: &str) -> DbResult<(Epoch, QueryResult)> {
        let stmt = vdb_sql::compile(
            sql,
            &Schemas {
                cluster: &self.cluster,
            },
        )?;
        match stmt {
            BoundStatement::Select(q) => {
                let (epoch, result) = self.run_select(&q)?;
                self.trace.record(
                    &canonical_sql(sql),
                    self.trace_features(&q),
                    result.rows.len() as u64,
                );
                Ok((epoch, result))
            }
            _ => Err(DbError::Binder("query_snapshot requires a SELECT".into())),
        }
    }

    fn run_select(&self, q: &vdb_optimizer::BoundQuery) -> DbResult<(Epoch, QueryResult)> {
        let catalog = self.optimizer_catalog()?;
        let live = self.live_projections();
        let planned = vdb_optimizer::plan(&catalog, q, live.as_ref(), &self.exec)?;
        let snapshot = self.cluster.epochs.read_committed_snapshot();
        let rows = self.cluster.execute(&planned, snapshot)?;
        Ok((
            snapshot,
            QueryResult {
                columns: planned.output_names.clone(),
                tag: format!("SELECT {}", rows.len()),
                rows,
            },
        ))
    }

    /// Which projection families are currently usable (None = all up).
    fn live_projections(&self) -> Option<HashSet<String>> {
        if self.cluster.up_nodes().len() == self.cluster.n_nodes() {
            None
        } else {
            Some(self.cluster.live_projections())
        }
    }

    /// Bulk load rows through the direct-ROS path (§7: bulk loads bypass
    /// the WOS). Returns the commit epoch.
    pub fn load(&self, table: &str, rows: &[Row]) -> DbResult<Epoch> {
        let e = self.cluster.load(table, rows, true)?;
        self.invalidate_catalog();
        Ok(e)
    }

    /// Trickle load into the WOS.
    pub fn load_wos(&self, table: &str, rows: &[Row]) -> DbResult<Epoch> {
        let e = self.cluster.load(table, rows, false)?;
        self.invalidate_catalog();
        Ok(e)
    }

    /// Run the Database Designer (§6.3) over sample data + workload SQL and
    /// install the proposed projections. Returns their rationales.
    ///
    /// Durability caveat: designer-installed projections are not recorded
    /// in the DDL log (they have no SQL text), so they do not survive a
    /// reopen — re-run the designer or issue `CREATE PROJECTION` instead.
    pub fn run_designer(
        &self,
        table: &str,
        sample: &[Row],
        total_rows: u64,
        workload_sql: &[&str],
        policy: vdb_designer::DesignPolicy,
    ) -> DbResult<Vec<String>> {
        let schema = self
            .cluster
            .table_schema(table)
            .ok_or_else(|| DbError::NotFound(format!("table {table}")))?;
        let mut workload = Vec::new();
        for sql in workload_sql {
            match vdb_sql::compile(
                sql,
                &Schemas {
                    cluster: &self.cluster,
                },
            )? {
                BoundStatement::Select(q) => workload.push(q),
                _ => {
                    return Err(DbError::Binder(
                        "designer workload must be SELECT statements".into(),
                    ))
                }
            }
        }
        let designs = vdb_designer::design_table(&schema, sample, total_rows, &workload, policy)?;
        let mut rationales = Vec::new();
        for d in designs {
            self.cluster.create_projection(d.def.clone())?;
            if !sample.is_empty() {
                // Populate from existing table data if any.
                let _ = self.cluster.refresh_projection(&d.def.name);
            }
            rationales.push(format!("{}: {}", d.def.name, d.rationale));
        }
        self.invalidate_catalog();
        self.bump_ddl_version();
        Ok(rationales)
    }

    // -- automatic physical design (trace → enumerate → cost → deploy) ----

    /// The query-trace ring feeding [`Database::auto_design`].
    pub fn query_trace(&self) -> &QueryTrace {
        &self.trace
    }

    /// Extract trace features for a bound query against the live schemas.
    fn trace_features(&self, q: &vdb_optimizer::BoundQuery) -> TraceFeatures {
        TraceFeatures::of(q, &|t| self.cluster.table_schema(t))
    }

    /// Serving-layer capture hook: a SELECT that was planned outside
    /// [`Database::execute`] (plan-cache miss path).
    pub(crate) fn record_traced_select(
        &self,
        canonical_sql: &str,
        q: &vdb_optimizer::BoundQuery,
        result_rows: u64,
    ) {
        self.trace
            .record(canonical_sql, self.trace_features(q), result_rows);
    }

    /// Serving-layer capture hook: a plan-cache hit (no bound query at
    /// hand; folds into the entry recorded at plan time).
    pub(crate) fn record_traced_hit(&self, canonical_sql: &str, result_rows: u64) {
        self.trace.record_hit(canonical_sql, result_rows);
    }

    /// Close the workload → projection → optimizer loop (§6.3, automated):
    /// design projections from the traced workload and install them online.
    ///
    /// 1. Every distinct traced SELECT is re-compiled against the current
    ///    catalog (statements over dropped tables fall out naturally).
    /// 2. Per referenced table, `vdb_designer::design_from_trace`
    ///    enumerates candidates — sort orders from hot predicates and
    ///    group-bys, segmentation keys from join columns, encodings from
    ///    empirical trials seeded by the catalog's observed codec stats —
    ///    and scores them with the *planner's own* projection-choice cost
    ///    model ([`vdb_optimizer::query_scan_cost`]).
    /// 3. Accepted candidates are emitted as `CREATE PROJECTION` DDL and
    ///    executed through [`Database::execute`]: the statement is
    ///    write-ahead logged (the design survives reopen), the projection
    ///    backfills online from committed data (refresh, §5.2) while
    ///    concurrent queries keep answering from the old projections, and
    ///    the DDL version bump invalidates the serving layer's cached
    ///    plans so the planner starts choosing the new projection
    ///    immediately.
    ///
    /// A tuple-mover pass runs afterwards so any WOS tail written during
    /// the backfill moves into sorted, encoded ROS for the new projections.
    pub fn auto_design(&self, policy: vdb_designer::DesignPolicy) -> DbResult<AutoDesignReport> {
        const AUTO_DESIGN_SAMPLE: usize = 2048;
        let entries = self.trace.snapshot();
        let mut report = AutoDesignReport {
            traced_statements: entries.len(),
            installed: Vec::new(),
        };
        let mut workload: Vec<(vdb_optimizer::BoundQuery, u64)> = Vec::new();
        let mut tables: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for e in &entries {
            // Statements that no longer compile (dropped tables/columns)
            // describe a workload that can no longer occur: skip them.
            let Ok(BoundStatement::Select(q)) = self.compile(&e.sql) else {
                continue;
            };
            tables.extend(q.tables.iter().map(|t| t.table.clone()));
            workload.push((q, e.hits));
        }
        if workload.is_empty() {
            return Ok(report);
        }
        let catalog = self.optimizer_catalog()?;
        for table in tables {
            let snapshot = self.cluster.epochs.read_committed_snapshot();
            let mut sample = self
                .cluster
                .table_rows_excluding(&table, snapshot, None)
                .unwrap_or_default();
            sample.truncate(AUTO_DESIGN_SAMPLE);
            let designs =
                vdb_designer::design_from_trace(&catalog, &table, &sample, &workload, policy)?;
            for d in designs {
                // Deployment under concurrent DML: execute() already rides
                // out refresh-lock contention internally, so a conflict
                // surfacing here means the whole statement lost its window
                // — retry a few times before giving up.
                let mut attempts = 0;
                loop {
                    match self.execute(&d.ddl) {
                        Ok(_) => break,
                        Err(DbError::LockConflict { .. }) if attempts < 50 => {
                            attempts += 1;
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Err(e) => return Err(e),
                    }
                }
                report.installed.push(AutoDesignInstall {
                    table: table.clone(),
                    name: d.def.name.clone(),
                    ddl: d.ddl.clone(),
                    rationale: d.rationale.clone(),
                    predicted_speedup: d.predicted_speedup(),
                });
            }
        }
        if !report.installed.is_empty() {
            self.cluster.tuple_mover_tick(false)?;
        }
        Ok(report)
    }

    /// Total logical ROS bytes (disk space reporting for Table 3).
    pub fn disk_bytes(&self) -> u64 {
        self.cluster.logical_ros_bytes()
    }

    /// Run the tuple mover across the cluster.
    pub fn tuple_mover_tick(&self) -> DbResult<()> {
        self.cluster.tuple_mover_tick(true)
    }
}

/// One projection installed by [`Database::auto_design`].
#[derive(Debug, Clone)]
pub struct AutoDesignInstall {
    pub table: String,
    pub name: String,
    /// The executed `CREATE PROJECTION` statement (also in the DDL log).
    pub ddl: String,
    pub rationale: String,
    /// Traced-workload scan-cost ratio (before / after) predicted by the
    /// optimizer's cost model when the candidate was accepted.
    pub predicted_speedup: f64,
}

/// Outcome of one [`Database::auto_design`] round.
#[derive(Debug, Clone, Default)]
pub struct AutoDesignReport {
    /// Distinct statements in the trace when the round started.
    pub traced_statements: usize,
    pub installed: Vec<AutoDesignInstall>,
}

/// Canonical trace key for a statement: literals inlined into the
/// whitespace/keyword-normalized template, so the same query folds into
/// one trace entry whether it arrived through [`Database::execute`] or a
/// serving-layer session. Statements the normalizer rejects keep their
/// raw text (they will fail to re-compile at design time and be skipped).
fn canonical_sql(sql: &str) -> String {
    vdb_sql::normalize(sql)
        .and_then(|n| n.render(&[]))
        .unwrap_or_else(|_| sql.to_string())
}

/// One DDL statement per log line: escape backslashes and newlines.
fn escape_ddl(sql: &str) -> String {
    sql.replace('\\', "\\\\").replace('\n', "\\n")
}

fn unescape_ddl(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

struct Schemas<'a> {
    cluster: &'a Cluster,
}

impl SchemaProvider for Schemas<'_> {
    fn table_schema(&self, name: &str) -> Option<TableSchema> {
        self.cluster.table_schema(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_sales() -> crate::Engine {
        let db = crate::Engine::builder().open().unwrap();
        db.execute("CREATE TABLE sales (id INT, region VARCHAR, amt FLOAT, ts TIMESTAMP)")
            .unwrap();
        db.execute(
            "CREATE PROJECTION sales_super AS SELECT id, region, amt, ts FROM sales \
             ORDER BY ts SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
        db
    }

    #[test]
    fn end_to_end_sql_round_trip() {
        let db = db_with_sales();
        db.execute(
            "INSERT INTO sales VALUES \
             (1, 'east', 10.0, 1000), (2, 'west', 20.0, 2000), \
             (3, 'east', 30.0, 3000), (4, 'west', 40.0, 4000)",
        )
        .unwrap();
        let r = db
            .execute("SELECT region, COUNT(*), SUM(amt) FROM sales GROUP BY region ORDER BY region")
            .unwrap();
        assert_eq!(r.columns, vec!["region", "count", "sum"]);
        assert_eq!(
            r.rows,
            vec![
                vec![
                    Value::Varchar("east".into()),
                    Value::Integer(2),
                    Value::Float(40.0)
                ],
                vec![
                    Value::Varchar("west".into()),
                    Value::Integer(2),
                    Value::Float(60.0)
                ],
            ]
        );
    }

    #[test]
    fn where_order_limit() {
        let db = db_with_sales();
        let rows: Vec<Row> = (0..100)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Varchar(if i % 2 == 0 { "e" } else { "w" }.into()),
                    Value::Float(i as f64),
                    Value::Timestamp(i * 100),
                ]
            })
            .collect();
        db.load("sales", &rows).unwrap();
        let got = db
            .query("SELECT id FROM sales WHERE amt >= 90 ORDER BY id DESC LIMIT 3")
            .unwrap();
        assert_eq!(
            got,
            vec![
                vec![Value::Integer(99)],
                vec![Value::Integer(98)],
                vec![Value::Integer(97)]
            ]
        );
    }

    #[test]
    fn delete_update_and_snapshots() {
        let db = db_with_sales();
        db.execute("INSERT INTO sales VALUES (1, 'e', 1.0, 10), (2, 'w', 2.0, 20)")
            .unwrap();
        let r = db.execute("DELETE FROM sales WHERE id = 1").unwrap();
        assert_eq!(r.tag, "DELETE 1");
        assert_eq!(db.query("SELECT id FROM sales").unwrap().len(), 1);
        db.execute("UPDATE sales SET amt = 9.5 WHERE id = 2")
            .unwrap();
        let got = db.query("SELECT amt FROM sales WHERE id = 2").unwrap();
        assert_eq!(got[0][0], Value::Float(9.5));
    }

    /// The catalog is handed out shared, rebuilt after a commit, and built
    /// once however many sessions ask for it at the same moment.
    #[test]
    fn optimizer_catalog_is_shared_and_single_flight() {
        let db = db_with_sales();
        db.execute("INSERT INTO sales VALUES (1, 'e', 1.0, 10)")
            .unwrap();
        let first = db.optimizer_catalog().unwrap();
        assert!(Arc::ptr_eq(&first, &db.optimizer_catalog().unwrap()));
        db.execute("INSERT INTO sales VALUES (2, 'w', 2.0, 20)")
            .unwrap();
        let sessions = 8;
        let barrier = std::sync::Barrier::new(sessions);
        let built: Vec<Arc<OptimizerCatalog>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        db.optimizer_catalog().unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            !Arc::ptr_eq(&first, &built[0]),
            "the commit moved the epoch"
        );
        assert!(built.iter().all(|cat| Arc::ptr_eq(cat, &built[0])));
        assert_eq!(built[0].tables["sales"].projections[0].row_count, 2);
    }

    #[test]
    fn explain_mentions_scan_and_merge() {
        let db = db_with_sales();
        db.execute("INSERT INTO sales VALUES (1, 'e', 1.0, 10)")
            .unwrap();
        let r = db
            .execute("EXPLAIN SELECT region, COUNT(*) FROM sales GROUP BY region")
            .unwrap();
        let text: String = r.rows.iter().map(|row| format!("{}\n", row[0])).collect();
        assert!(text.contains("Scan sales_super"), "{text}");
        assert!(text.contains("re-aggregate"), "{text}");
    }

    #[test]
    fn joins_across_tables() {
        let db = db_with_sales();
        db.execute("CREATE TABLE region_names (code VARCHAR, full_name VARCHAR)")
            .unwrap();
        db.execute(
            "CREATE PROJECTION region_super AS SELECT code, full_name FROM region_names \
             ORDER BY code UNSEGMENTED ALL NODES",
        )
        .unwrap();
        db.execute("INSERT INTO region_names VALUES ('e', 'East Coast'), ('w', 'West Coast')")
            .unwrap();
        db.execute(
            "INSERT INTO sales VALUES (1, 'e', 10.0, 1), (2, 'w', 20.0, 2), (3, 'e', 30.0, 3)",
        )
        .unwrap();
        let rows = db
            .query(
                "SELECT full_name, COUNT(*) FROM sales JOIN region_names \
                 ON sales.region = region_names.code GROUP BY full_name ORDER BY full_name",
            )
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Varchar("East Coast".into()), Value::Integer(2)],
                vec![Value::Varchar("West Coast".into()), Value::Integer(1)],
            ]
        );
    }

    #[test]
    fn multinode_query_with_failure_and_recovery() {
        let db = crate::Engine::builder().nodes(3).open().unwrap();
        db.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        db.execute(
            "CREATE PROJECTION t_super AS SELECT id, v FROM t ORDER BY id \
             SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
        let rows: Vec<Row> = (0..500)
            .map(|i| vec![Value::Integer(i), Value::Integer(i % 7)])
            .collect();
        db.load("t", &rows).unwrap();
        let sum = |db: &Database| -> i64 {
            db.query("SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v")
                .unwrap()
                .iter()
                .map(|r| r[1].as_i64().unwrap())
                .sum()
        };
        assert_eq!(sum(&db), 500);
        db.cluster().fail_node(1);
        assert_eq!(sum(&db), 500, "buddy-sourced reads after failure");
        db.load("t", &[vec![Value::Integer(999), Value::Integer(0)]])
            .unwrap();
        db.cluster().recover_node(1).unwrap();
        assert_eq!(sum(&db), 501);
    }

    #[test]
    fn projection_created_after_load_is_refreshed() {
        let db = db_with_sales();
        db.execute("INSERT INTO sales VALUES (1, 'e', 1.0, 10), (2, 'w', 2.0, 20)")
            .unwrap();
        db.execute(
            "CREATE PROJECTION sales_by_region AS SELECT region, amt FROM sales \
             ORDER BY region UNSEGMENTED ALL NODES",
        )
        .unwrap();
        // The new projection serves queries immediately.
        let rows = db
            .query("SELECT region, SUM(amt) FROM sales GROUP BY region ORDER BY region")
            .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn window_functions_via_sql() {
        let db = db_with_sales();
        db.execute(
            "INSERT INTO sales VALUES \
             (1, 'e', 10.0, 100), (2, 'e', 20.0, 200), (3, 'w', 5.0, 300)",
        )
        .unwrap();
        let rows = db
            .query(
                "SELECT id, SUM(amt) OVER (PARTITION BY region ORDER BY ts) AS running \
                 FROM sales ORDER BY id",
            )
            .unwrap();
        assert_eq!(rows[0][1], Value::Float(10.0));
        assert_eq!(rows[1][1], Value::Float(30.0));
        assert_eq!(rows[2][1], Value::Float(5.0));
    }

    #[test]
    fn partition_pruning_and_drop_partition() {
        let db = crate::Engine::builder().open().unwrap();
        db.execute("CREATE TABLE events (id INT, ts TIMESTAMP) PARTITION BY YEAR_MONTH(ts)")
            .unwrap();
        db.execute(
            "CREATE PROJECTION events_super AS SELECT id, ts FROM events ORDER BY ts \
             SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
        let mar = vdb_types::date::timestamp_from_civil(2012, 3, 5, 0, 0, 0);
        let apr = vdb_types::date::timestamp_from_civil(2012, 4, 5, 0, 0, 0);
        let rows: Vec<Row> = (0..20)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Timestamp(if i % 2 == 0 { mar } else { apr }),
                ]
            })
            .collect();
        db.load("events", &rows).unwrap();
        let r = db
            .execute("ALTER TABLE events DROP PARTITION 201203")
            .unwrap();
        assert!(r.tag.starts_with("DROP PARTITION"));
        assert_eq!(db.query("SELECT id FROM events").unwrap().len(), 10);
    }

    #[test]
    fn designer_installs_projections() {
        let db = crate::Engine::builder().open().unwrap();
        db.execute("CREATE TABLE m (metric INT, meter INT, ts TIMESTAMP, value FLOAT)")
            .unwrap();
        let sample: Vec<Row> = (0..500)
            .map(|i| {
                vec![
                    Value::Integer(i % 5),
                    Value::Integer(i % 50),
                    Value::Timestamp(1000 + i * 300),
                    Value::Float((i % 9) as f64),
                ]
            })
            .collect();
        let rationales = db
            .run_designer(
                "m",
                &sample,
                1_000_000,
                &["SELECT meter, SUM(value) FROM m WHERE metric = 3 GROUP BY meter"],
                vdb_designer::DesignPolicy::Balanced,
            )
            .unwrap();
        assert!(!rationales.is_empty());
        db.load("m", &sample).unwrap();
        let rows = db
            .query("SELECT meter, SUM(value) FROM m WHERE metric = 3 GROUP BY meter")
            .unwrap();
        // metric = 3 ⇔ i ≡ 3 (mod 5); those i values hit 10 distinct meters.
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn auto_design_closes_the_loop() {
        let db = crate::Engine::builder().open().unwrap();
        db.execute("CREATE TABLE m (metric INT, meter INT, ts TIMESTAMP, value FLOAT)")
            .unwrap();
        // Superprojection sorted by ts: useless for a metric filter.
        db.execute("CREATE PROJECTION m_super AS SELECT * FROM m ORDER BY ts")
            .unwrap();
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                vec![
                    Value::Integer(i % 10),
                    Value::Integer(i % 100),
                    Value::Timestamp(1000 + i * 300),
                    Value::Float((i % 9) as f64),
                ]
            })
            .collect();
        db.load("m", &rows).unwrap();
        let hot = "SELECT meter, value FROM m WHERE metric = 3";
        for _ in 0..20 {
            db.query(hot).unwrap();
        }
        let trace = db.query_trace().snapshot();
        assert_eq!(trace.len(), 1, "identical statements fold into one entry");
        assert_eq!(trace[0].hits, 20);
        assert_eq!(trace[0].predicate_columns, vec!["m.metric"]);
        assert_eq!(trace[0].result_rows, 300);

        let mut before = db.query(hot).unwrap();
        let report = db
            .auto_design(vdb_designer::DesignPolicy::QueryOptimized)
            .unwrap();
        assert!(
            !report.installed.is_empty(),
            "hot selective trace must install a projection"
        );
        assert!(report.installed[0].predicted_speedup > 1.0);
        // The planner now routes the traced query to the new projection…
        let explain = db.execute(&format!("EXPLAIN {hot}")).unwrap();
        let plan_text: String = explain.rows.iter().map(|r| format!("{:?}", r[0])).collect();
        assert!(
            plan_text.contains(&report.installed[0].name),
            "EXPLAIN must scan {}: {plan_text}",
            report.installed[0].name
        );
        // …and the answers are identical (order-insensitive: projection
        // choice changes physical row order).
        let mut after = db.query(hot).unwrap();
        before.sort();
        after.sort();
        assert_eq!(before, after);
    }

    #[test]
    fn parallel_scan_group_by_end_to_end() {
        // Several direct loads → several ROS containers → the planner
        // picks a morsel-parallel plan; results must match the serial DB.
        let parallel = crate::Engine::builder().threads(4).open().unwrap();
        let serial = crate::Engine::builder().threads(1).open().unwrap();
        for db in [&parallel, &serial] {
            db.execute("CREATE TABLE t (g INT, v INT)").unwrap();
            db.execute(
                "CREATE PROJECTION t_super AS SELECT g, v FROM t ORDER BY v \
                 SEGMENTED BY HASH(v) ALL NODES",
            )
            .unwrap();
            for chunk in 0..6 {
                let rows: Vec<Row> = (0..2000)
                    .map(|i| {
                        let i = chunk * 2000 + i;
                        vec![Value::Integer(i % 7), Value::Integer(i)]
                    })
                    .collect();
                db.load("t", &rows).unwrap();
            }
        }
        let sql = "SELECT g, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t GROUP BY g ORDER BY g";
        assert_eq!(parallel.query(sql).unwrap(), serial.query(sql).unwrap());
        let explain = parallel.execute(&format!("EXPLAIN {sql}")).unwrap();
        let text: String = explain.rows.iter().map(|r| format!("{}\n", r[0])).collect();
        assert!(text.contains("ParallelScan t_super"), "{text}");
        assert!(text.contains("partial GroupBy"), "{text}");
        // Plain selects parallelize as order-preserving collects.
        assert_eq!(
            parallel.query("SELECT v FROM t WHERE v >= 11990").unwrap(),
            serial.query("SELECT v FROM t WHERE v >= 11990").unwrap()
        );
    }

    #[test]
    fn parallel_hash_join_end_to_end() {
        // Multi-container fact + dim: the planner rewrites the join to the
        // morsel-parallel partitioned hash join; results must match the
        // serial database exactly, and the SIP coupling must survive.
        let parallel = crate::Engine::builder().threads(4).open().unwrap();
        let serial = crate::Engine::builder().threads(1).open().unwrap();
        assert_eq!(parallel.exec_options().threads, 4);
        for db in [&parallel, &serial] {
            db.execute("CREATE TABLE f (k INT, v INT)").unwrap();
            db.execute(
                "CREATE PROJECTION f_super AS SELECT k, v FROM f ORDER BY v \
                 SEGMENTED BY HASH(v) ALL NODES",
            )
            .unwrap();
            db.execute("CREATE TABLE d (k INT, w INT)").unwrap();
            db.execute(
                "CREATE PROJECTION d_super AS SELECT k, w FROM d ORDER BY k \
                 UNSEGMENTED ALL NODES",
            )
            .unwrap();
            for chunk in 0..5 {
                let rows: Vec<Row> = (0..2000)
                    .map(|i| {
                        let i = chunk * 2000 + i;
                        vec![Value::Integer(i % 97), Value::Integer(i)]
                    })
                    .collect();
                db.load("f", &rows).unwrap();
            }
            let dims: Vec<Row> = (0..50)
                .map(|i| vec![Value::Integer(i), Value::Integer(i * 10)])
                .collect();
            db.load("d", &dims).unwrap();
        }
        let sql = "SELECT d.w, COUNT(*), SUM(f.v) FROM f JOIN d ON f.k = d.k \
                   GROUP BY d.w ORDER BY d.w";
        assert_eq!(parallel.query(sql).unwrap(), serial.query(sql).unwrap());
        let explain = parallel.execute(&format!("EXPLAIN {sql}")).unwrap();
        let text: String = explain.rows.iter().map(|r| format!("{}\n", r[0])).collect();
        assert!(text.contains("ParallelHashJoin INNER"), "{text}");
        assert!(text.contains("[builds SIP]"), "{text}");
        assert!(text.contains("[SIP x1]"), "{text}");
        assert!(
            text.contains("[partial group-by in probe workers"),
            "{text}"
        );
    }

    #[test]
    fn vectorized_expressions_sql_end_to_end() {
        // Arithmetic + CASE in the select list and a disjunctive WHERE:
        // the whole pipeline runs through the vectorized expression engine
        // (row-wise eval only as error fallback); results must match a
        // hand computation.
        let db = db_with_sales();
        let rows: Vec<Row> = (0..200)
            .map(|i| {
                vec![
                    Value::Integer(i),
                    Value::Varchar(if i % 3 == 0 { "e" } else { "w" }.into()),
                    Value::Float(i as f64),
                    Value::Timestamp(i * 100),
                ]
            })
            .collect();
        db.load("sales", &rows).unwrap();
        let got = db
            .query(
                "SELECT id, id * 2 + 1, \
                 CASE WHEN amt >= 150 THEN 'hot' WHEN region = 'e' THEN 'east' ELSE 'cold' END \
                 FROM sales WHERE region = 'e' OR amt > 180 ORDER BY id",
            )
            .unwrap();
        let expect: Vec<Row> = (0..200)
            .filter(|&i| i % 3 == 0 || i as f64 > 180.0)
            .map(|i| {
                let label = if i >= 150 {
                    "hot"
                } else if i % 3 == 0 {
                    "east"
                } else {
                    "cold"
                };
                vec![
                    Value::Integer(i),
                    Value::Integer(i * 2 + 1),
                    Value::Varchar(label.into()),
                ]
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn durable_open_recovers_committed_state() {
        let root = std::env::temp_dir().join(format!("vdb_open_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let db = crate::Engine::builder().data_dir(&root).open().unwrap();
            db.execute("CREATE TABLE t (id INT, v INT)").unwrap();
            db.execute(
                "CREATE PROJECTION t_super AS SELECT id, v FROM t ORDER BY id \
                 SEGMENTED BY HASH(id) ALL NODES",
            )
            .unwrap();
            // WOS inserts (redo-log durability) + a direct-ROS load
            // (manifest durability) + a delete (delete-vector / redo).
            db.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
            let bulk: Vec<Row> = (3..=4)
                .map(|i| vec![Value::Integer(i), Value::Integer(i * 10)])
                .collect();
            db.load("t", &bulk).unwrap();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
        }
        let db = crate::Engine::builder().data_dir(&root).open().unwrap();
        assert_eq!(
            db.query("SELECT id, v FROM t ORDER BY id").unwrap(),
            vec![
                vec![Value::Integer(2), Value::Integer(20)],
                vec![Value::Integer(3), Value::Integer(30)],
                vec![Value::Integer(4), Value::Integer(40)],
            ]
        );
        // The reopened database keeps working: epoch clock restored, new
        // commits land after the recovered ones.
        db.execute("INSERT INTO t VALUES (5, 50)").unwrap();
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(4))
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ddl_log_tolerates_failed_and_torn_statements() {
        let root = std::env::temp_dir().join(format!("vdb_ddlwal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let db = crate::Engine::builder().data_dir(&root).open().unwrap();
            db.execute("CREATE TABLE t (id INT, v INT)").unwrap();
            // Write-ahead logging records the statement even though it
            // fails (duplicate table); replay must skip it.
            assert!(db.execute("CREATE TABLE t (id INT, v INT)").is_err());
            db.execute(
                "CREATE PROJECTION t_super AS SELECT id, v FROM t ORDER BY id \
                 SEGMENTED BY HASH(id) ALL NODES",
            )
            .unwrap();
            db.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        }
        // A crash mid-append can strand a torn (unparseable) final line;
        // recovery must shrug it off.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(root.join("ddl.log"))
                .unwrap();
            write!(f, "CREATE TAB").unwrap();
        }
        let db = crate::Engine::builder().data_dir(&root).open().unwrap();
        assert_eq!(
            db.query("SELECT id, v FROM t").unwrap(),
            vec![vec![Value::Integer(1), Value::Integer(10)]]
        );
        // The log stays usable: new DDL lands after the torn line and a
        // second reopen still skips only the debris.
        db.execute("CREATE TABLE u (x INT)").unwrap();
        drop(db);
        let db = crate::Engine::builder().data_dir(&root).open().unwrap();
        db.execute(
            "CREATE PROJECTION u_super AS SELECT x FROM u ORDER BY x \
             SEGMENTED BY HASH(x) ALL NODES",
        )
        .unwrap();
        db.execute("INSERT INTO u VALUES (7)").unwrap();
        assert_eq!(
            db.query("SELECT x FROM u").unwrap(),
            vec![vec![Value::Integer(7)]]
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn ddl_escape_round_trip() {
        let sql = "CREATE TABLE t (\n  id INT, -- with \\ backslash\n  v INT)";
        assert_eq!(unescape_ddl(&escape_ddl(sql)), sql);
        assert!(!escape_ddl(sql).contains('\n'));
    }

    #[test]
    fn count_distinct_end_to_end() {
        let db = db_with_sales();
        db.execute(
            "INSERT INTO sales VALUES (1,'e',1.0,1),(2,'e',1.0,2),(3,'e',2.0,3),(4,'w',2.0,4)",
        )
        .unwrap();
        let rows = db
            .query("SELECT region, COUNT(DISTINCT amt) FROM sales GROUP BY region ORDER BY region")
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Varchar("e".into()), Value::Integer(2)],
                vec![Value::Varchar("w".into()), Value::Integer(1)],
            ]
        );
    }
}
