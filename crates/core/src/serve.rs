//! Multi-session serving layer: sessions, prepared statements, a plan
//! cache, and admission control in front of one [`Database`].
//!
//! The paper's Vertica serves thousands of concurrent sessions against one
//! cluster; this module is that front end for the reproduction:
//!
//! ```text
//!   Session ── execute/prepare ──► Server
//!        │  normalize (vdb_sql::normalize: canonical text + params)
//!        │  admission gate (bounded slots + bounded queue + timeouts)
//!        │  plan cache (normalized key → Arc<PlannedQuery>, LRU,
//!        │              DDL-version stamped)
//!        └► Database ── morsel task sets ──► shared worker pool
//! ```
//!
//! * **Sessions** are cheap handles onto one shared [`Server`]; each holds
//!   its own named prepared statements. All sessions' queries multiplex
//!   the process-wide worker pool (`vdb_exec::pool`) — concurrency is
//!   bounded by the admission gate, not by thread explosion.
//! * **Plan cache.** SELECTs are canonicalized ([`vdb_sql::normalize()`]);
//!   the cache key is the canonical template *plus* its literal values
//!   (plans embed constants). Each entry is stamped with the
//!   [`Database::ddl_version`] read *before* planning and revalidated
//!   against the current version on every hit, so any DDL (dropping or
//!   creating a projection, designer installs) atomically invalidates
//!   every stale plan — see `plan_cache_survives_dml_but_not_ddl`. The
//!   cache is bypassed entirely while cluster nodes are down
//!   ([`Database::can_cache_plans`]): degraded plans are never cached and
//!   healthy plans are never served degraded.
//! * **Admission control.** A bounded number of statements run at once;
//!   the overflow waits in a bounded queue with a deadline. Queue-full,
//!   queue-timeout, and query-timeout all return real
//!   [`DbError::Execution`] errors — a session never hangs. A query
//!   timeout detaches the statement to a helper thread that carries the
//!   admission slot with it, so the slot frees when the work actually
//!   finishes, not when the caller gives up.

use crate::database::{Database, QueryResult};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use vdb_optimizer::PlannedQuery;
use vdb_sql::{normalize, NormalizedSql};
use vdb_types::{DbError, DbResult, Row, Value};

/// Serving-layer tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Statements allowed to execute concurrently (admission slots).
    pub max_concurrent: usize,
    /// Statements allowed to wait for a slot before new arrivals are
    /// rejected outright with "admission queue full".
    pub max_queue: usize,
    /// How long a statement may wait in the admission queue before it
    /// fails with a queue-timeout error.
    pub queue_timeout: Duration,
    /// Per-statement execution deadline. `None` (the default) runs
    /// inline with no deadline; `Some` detaches the statement to a helper
    /// thread and returns an error to the caller on expiry (the statement
    /// still runs to completion in the background — mid-plan cancellation
    /// is future work — but its admission slot is released only when it
    /// truly finishes).
    pub query_timeout: Option<Duration>,
    /// Cached plans kept before LRU eviction. `0` disables the cache.
    pub plan_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_concurrent: 64,
            max_queue: 1024,
            queue_timeout: Duration::from_secs(10),
            query_timeout: None,
            plan_cache_capacity: 256,
        }
    }
}

/// Cumulative serving counters (see [`Server::stats`]).
#[derive(Debug, Default)]
struct ServerCounters {
    admitted: AtomicU64,
    queue_rejections: AtomicU64,
    queue_timeouts: AtomicU64,
    query_timeouts: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    /// Entries found but stamped with a stale DDL version (dropped).
    cache_invalidations: AtomicU64,
    /// Statements that skipped the cache (non-SELECT, cache disabled, or
    /// the cluster was degraded).
    cache_bypass: AtomicU64,
}

/// Snapshot of the server's cumulative counters for benchmarks and gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    pub admitted: u64,
    pub queue_rejections: u64,
    pub queue_timeouts: u64,
    pub query_timeouts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub cache_bypass: u64,
}

impl ServerStats {
    /// Hits over cache-eligible statements (hits + misses).
    pub fn cache_hit_rate(&self) -> f64 {
        let eligible = self.cache_hits + self.cache_misses;
        if eligible == 0 {
            0.0
        } else {
            self.cache_hits as f64 / eligible as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------------

struct GateState {
    running: usize,
    waiting: usize,
}

/// Bounded concurrent-statement slots with a bounded, deadline-checked
/// wait queue. Pure std sync (the vendored `parking_lot` shim has no
/// `Condvar`).
pub(crate) struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_concurrent: usize,
    max_queue: usize,
    queue_timeout: Duration,
}

/// An occupied admission slot; releases on drop.
pub(crate) struct AdmissionGuard {
    gate: Arc<AdmissionGate>,
}

impl std::fmt::Debug for AdmissionGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AdmissionGuard")
    }
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().expect("admission gate poisoned");
        s.running -= 1;
        drop(s);
        self.gate.freed.notify_one();
    }
}

impl AdmissionGate {
    fn new(max_concurrent: usize, max_queue: usize, queue_timeout: Duration) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState {
                running: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
            max_concurrent: max_concurrent.max(1),
            max_queue,
            queue_timeout,
        }
    }

    fn acquire(self: &Arc<Self>, counters: &ServerCounters) -> DbResult<AdmissionGuard> {
        let mut s = self.state.lock().expect("admission gate poisoned");
        if s.running < self.max_concurrent {
            s.running += 1;
            counters.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionGuard { gate: self.clone() });
        }
        if s.waiting >= self.max_queue {
            counters.queue_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(DbError::AdmissionQueueFull {
                running: s.running,
                waiting: s.waiting,
            });
        }
        s.waiting += 1;
        let deadline = Instant::now() + self.queue_timeout;
        loop {
            if s.running < self.max_concurrent {
                s.waiting -= 1;
                s.running += 1;
                counters.admitted.fetch_add(1, Ordering::Relaxed);
                return Ok(AdmissionGuard { gate: self.clone() });
            }
            let now = Instant::now();
            if now >= deadline {
                s.waiting -= 1;
                counters.queue_timeouts.fetch_add(1, Ordering::Relaxed);
                return Err(DbError::AdmissionTimeout {
                    waited_ms: self.queue_timeout.as_millis() as u64,
                });
            }
            let (guard, _) = self
                .freed
                .wait_timeout(s, deadline - now)
                .expect("admission gate poisoned");
            s = guard;
        }
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

struct CacheEntry {
    plan: Arc<PlannedQuery>,
    /// [`Database::ddl_version`] read before this plan was built.
    ddl_version: u64,
    /// Recency tick for LRU eviction.
    last_used: u64,
}

/// LRU cache of physical plans keyed by normalized SQL + literal values.
struct PlanCache {
    entries: Mutex<HashMap<String, CacheEntry>>,
    tick: AtomicU64,
    capacity: usize,
}

impl PlanCache {
    fn new(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            capacity,
        }
    }

    /// Look up a plan; a hit whose DDL-version stamp is stale is removed
    /// and reported as an invalidation, not a hit.
    fn get(
        &self,
        key: &str,
        current_ddl: u64,
        counters: &ServerCounters,
    ) -> Option<Arc<PlannedQuery>> {
        let mut entries = self.entries.lock().expect("plan cache poisoned");
        match entries.get_mut(key) {
            Some(e) if e.ddl_version == current_ddl => {
                e.last_used = self.tick.fetch_add(1, Ordering::Relaxed);
                counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                Some(e.plan.clone())
            }
            Some(_) => {
                entries.remove(key);
                counters.cache_invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => None,
        }
    }

    fn insert(&self, key: String, plan: Arc<PlannedQuery>, ddl_version: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut entries = self.entries.lock().expect("plan cache poisoned");
        let last_used = self.tick.fetch_add(1, Ordering::Relaxed);
        entries.insert(
            key,
            CacheEntry {
                plan,
                ddl_version,
                last_used,
            },
        );
        while entries.len() > self.capacity {
            // O(capacity) eviction scan — capacities are small (hundreds).
            let Some(oldest) = entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            entries.remove(&oldest);
        }
    }

    fn len(&self) -> usize {
        self.entries.lock().expect("plan cache poisoned").len()
    }
}

// ---------------------------------------------------------------------------
// Server + sessions
// ---------------------------------------------------------------------------

/// The serving front end over one shared [`Database`]. Cheap to share;
/// spawn [`Session`]s from it (one per client/thread).
pub struct Server {
    db: Arc<Database>,
    config: ServeConfig,
    gate: Arc<AdmissionGate>,
    cache: PlanCache,
    counters: ServerCounters,
}

impl Server {
    /// Assemble the serving layer (the engine builder's serve path).
    pub(crate) fn build(db: Arc<Database>, config: ServeConfig) -> Arc<Server> {
        let gate = Arc::new(AdmissionGate::new(
            config.max_concurrent,
            config.max_queue,
            config.queue_timeout,
        ));
        Arc::new(Server {
            cache: PlanCache::new(config.plan_cache_capacity),
            gate,
            counters: ServerCounters::default(),
            config,
            db,
        })
    }

    /// Open a new session. Sessions are independent: each carries its own
    /// prepared statements, and all share this server's admission gate,
    /// plan cache, and database.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            server: self.clone(),
            prepared: HashMap::new(),
        }
    }

    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    pub fn stats(&self) -> ServerStats {
        let c = &self.counters;
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            queue_rejections: c.queue_rejections.load(Ordering::Relaxed),
            queue_timeouts: c.queue_timeouts.load(Ordering::Relaxed),
            query_timeouts: c.query_timeouts.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            cache_invalidations: c.cache_invalidations.load(Ordering::Relaxed),
            cache_bypass: c.cache_bypass.load(Ordering::Relaxed),
        }
    }

    /// Cached plans currently resident (tests / introspection).
    pub fn plan_cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Admit, then run the statement under the configured query deadline.
    fn admit_and_run(self: &Arc<Self>, work: Statement) -> DbResult<QueryResult> {
        let guard = self.gate.acquire(&self.counters)?;
        match self.config.query_timeout {
            None => {
                let result = run_statement(self, work);
                drop(guard);
                result
            }
            Some(deadline) => {
                let server = self.clone();
                let outcome = run_with_deadline(deadline, move || {
                    let result = run_statement(&server, work);
                    // The slot rides with the work: it frees on true
                    // completion even if the caller timed out and left.
                    drop(guard);
                    result
                });
                if outcome.is_none() {
                    self.counters.query_timeouts.fetch_add(1, Ordering::Relaxed);
                }
                outcome.unwrap_or(Err(DbError::QueryTimeout {
                    deadline_ms: deadline.as_millis() as u64,
                }))
            }
        }
    }
}

/// One normalized statement plus its bound parameter values.
struct Statement {
    normalized: NormalizedSql,
    /// Original text (used verbatim for the non-cacheable path when there
    /// are no placeholders to substitute).
    sql: String,
    params: Vec<Value>,
}

/// Run `work` on a helper thread with a deadline. `Some(result)` if it
/// finished in time, `None` on deadline expiry (work keeps running).
fn run_with_deadline<F>(deadline: Duration, work: F) -> Option<DbResult<QueryResult>>
where
    F: FnOnce() -> DbResult<QueryResult> + Send + 'static,
{
    struct Slot {
        result: Mutex<Option<DbResult<QueryResult>>>,
        done: Condvar,
    }
    let slot = Arc::new(Slot {
        result: Mutex::new(None),
        done: Condvar::new(),
    });
    let thread_slot = slot.clone();
    let spawned = std::thread::Builder::new()
        .name("vdb-serve-deadline".into())
        .spawn(move || {
            let result = work();
            if let Ok(mut r) = thread_slot.result.lock() {
                *r = Some(result);
            }
            thread_slot.done.notify_all();
        });
    if spawned.is_err() {
        return Some(Err(DbError::Execution(
            "could not spawn deadline helper thread".into(),
        )));
    }
    let mut r = slot.result.lock().expect("deadline slot poisoned");
    let end = Instant::now() + deadline;
    while r.is_none() {
        let now = Instant::now();
        if now >= end {
            return None;
        }
        let (guard, _) = slot
            .done
            .wait_timeout(r, end - now)
            .expect("deadline slot poisoned");
        r = guard;
    }
    r.take()
}

/// The statement pipeline behind the gate: plan-cache lookup for SELECTs,
/// plain execution for everything else.
fn run_statement(server: &Arc<Server>, work: Statement) -> DbResult<QueryResult> {
    let Statement {
        normalized,
        sql,
        params,
    } = work;
    let db = &server.db;
    let cacheable = server.config.plan_cache_capacity > 0
        && normalized.leading_word() == "select"
        && db.can_cache_plans();
    if !cacheable {
        server.counters.cache_bypass.fetch_add(1, Ordering::Relaxed);
        let text = if normalized.placeholder_count() > 0 {
            normalized.render(&params)?
        } else if params.is_empty() {
            sql
        } else {
            return Err(DbError::Binder(format!(
                "statement has no parameter placeholders, got {} value(s)",
                params.len()
            )));
        };
        return db.execute(&text);
    }
    let key = normalized.cache_key(&params)?;
    let current_ddl = db.ddl_version();
    if let Some(plan) = server.cache.get(&key, current_ddl, &server.counters) {
        let result = db.execute_planned(&plan)?;
        db.record_traced_hit(&normalized.render(&params)?, result.rows.len() as u64);
        return Ok(result);
    }
    server.counters.cache_misses.fetch_add(1, Ordering::Relaxed);
    // Stamp BEFORE compiling/planning: if DDL lands while we plan, the
    // stamp is already stale and the entry self-invalidates on next use.
    let stamp = db.ddl_version();
    let text = normalized.render(&params)?;
    match db.compile(&text)? {
        vdb_sql::BoundStatement::Select(q) => {
            let plan = Arc::new(db.plan_select(&q)?);
            let result = db.execute_planned(&plan);
            if let Ok(result) = &result {
                server.cache.insert(key, plan, stamp);
                db.record_traced_select(&text, &q, result.rows.len() as u64);
            }
            result
        }
        // `leading_word() == "select"` should guarantee a SELECT, but fall
        // back gracefully rather than asserting on dialect drift.
        other => db.execute_bound(other),
    }
}

/// A client connection: prepared statements + the shared server.
///
/// # Examples
///
/// ```
/// use vdb_core::{Engine, Value};
///
/// let engine = Engine::builder().open().unwrap();
/// engine.execute("CREATE TABLE t (id INT, v INT)").unwrap();
/// engine.execute("CREATE PROJECTION t_super AS SELECT id, v FROM t ORDER BY id").unwrap();
/// engine.execute("INSERT INTO t VALUES (1, 10), (2, 20)").unwrap();
///
/// let server = engine.server();
/// let mut session = server.session();
/// session.prepare("get", "SELECT v FROM t WHERE id = ?").unwrap();
/// let rows = session
///     .execute_prepared("get", &[Value::Integer(2)])
///     .unwrap()
///     .rows;
/// assert_eq!(rows, vec![vec![Value::Integer(20)]]);
/// // Same statement, same binding — served from the plan cache.
/// // (A different binding would be a fresh plan: plans embed constants.)
/// session.execute_prepared("get", &[Value::Integer(2)]).unwrap();
/// assert!(server.stats().cache_hits >= 1);
/// ```
pub struct Session {
    server: Arc<Server>,
    prepared: HashMap<String, NormalizedSql>,
}

impl Session {
    /// Execute one SQL statement (no parameters).
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        let normalized = normalize(sql)?;
        if normalized.placeholder_count() > 0 {
            return Err(DbError::Binder(
                "statement has parameter placeholders; use prepare/execute_prepared".into(),
            ));
        }
        self.server.admit_and_run(Statement {
            normalized,
            sql: sql.to_string(),
            params: Vec::new(),
        })
    }

    /// Convenience: run a SELECT and return its rows.
    pub fn query(&self, sql: &str) -> DbResult<Vec<Row>> {
        Ok(self.execute(sql)?.rows)
    }

    /// Register a named prepared statement. `?` marks parameter slots.
    /// Re-preparing a name replaces it.
    pub fn prepare(&mut self, name: &str, sql: &str) -> DbResult<()> {
        let normalized = normalize(sql)?;
        self.prepared.insert(name.to_string(), normalized);
        Ok(())
    }

    /// Execute a prepared statement with `params` bound to its `?` slots
    /// in order.
    pub fn execute_prepared(&self, name: &str, params: &[Value]) -> DbResult<QueryResult> {
        let normalized = self
            .prepared
            .get(name)
            .ok_or_else(|| DbError::NotFound(format!("prepared statement {name}")))?
            .clone();
        let sql = normalized.render(params)?;
        self.server.admit_and_run(Statement {
            normalized,
            sql,
            params: params.to_vec(),
        })
    }

    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served_db() -> Arc<Database> {
        let db = crate::Engine::builder().open().unwrap().database().clone();
        db.execute("CREATE TABLE t (g INT, v INT)").unwrap();
        db.execute(
            "CREATE PROJECTION t_super AS SELECT g, v FROM t ORDER BY v \
             SEGMENTED BY HASH(v) ALL NODES",
        )
        .unwrap();
        let rows: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Integer(i % 7), Value::Integer(i)])
            .collect();
        db.load("t", &rows).unwrap();
        db
    }

    #[test]
    fn sessions_share_the_plan_cache() {
        let server = Server::build(served_db(), ServeConfig::default());
        let s1 = server.session();
        let s2 = server.session();
        let sql = "SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY g";
        let first = s1.query(sql).unwrap();
        // Different formatting, same canonical statement → cache hit.
        let second = s2
            .query("select G, count(*) from T group by g order by g")
            .unwrap();
        assert_eq!(first, second);
        let stats = server.stats();
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(server.plan_cache_len(), 1);
    }

    #[test]
    fn different_literals_do_not_share_plans() {
        let server = Server::build(served_db(), ServeConfig::default());
        let s = server.session();
        assert_eq!(s.query("SELECT v FROM t WHERE v = 3").unwrap().len(), 1);
        assert_eq!(s.query("SELECT v FROM t WHERE v = 4").unwrap().len(), 1);
        let stats = server.stats();
        assert_eq!(stats.cache_misses, 2, "distinct literals, distinct plans");
        // And re-running one of them hits.
        assert_eq!(
            s.query("SELECT v FROM t WHERE v = 3").unwrap(),
            vec![vec![Value::Integer(3)]]
        );
        assert_eq!(server.stats().cache_hits, 1);
    }

    #[test]
    fn plan_cache_survives_dml_but_not_ddl() {
        let server = Server::build(served_db(), ServeConfig::default());
        let s = server.session();
        let sql = "SELECT COUNT(*) FROM t";
        assert_eq!(
            s.execute(sql).unwrap().scalar(),
            Some(&Value::Integer(1000))
        );
        // DML: the cached plan template stays valid and sees the new rows.
        s.execute("INSERT INTO t VALUES (1, 5000)").unwrap();
        assert_eq!(
            s.execute(sql).unwrap().scalar(),
            Some(&Value::Integer(1001))
        );
        let stats = server.stats();
        assert_eq!(stats.cache_hits, 1, "DML must not invalidate plans");
        assert_eq!(stats.cache_invalidations, 0);
        // DDL: a projection with a different sort order replaces the one
        // the cached plan scans; the stale plan must be discarded and the
        // query replanned, not answered from the dropped projection.
        s.execute(
            "CREATE PROJECTION t_by_g AS SELECT g, v FROM t ORDER BY g \
             SEGMENTED BY HASH(g) ALL NODES",
        )
        .unwrap();
        s.execute("DROP PROJECTION t_super").unwrap();
        assert_eq!(
            s.execute(sql).unwrap().scalar(),
            Some(&Value::Integer(1001)),
            "replanned query must run against the surviving projection"
        );
        let stats = server.stats();
        assert!(
            stats.cache_invalidations >= 1,
            "DDL must invalidate the stamped entry: {stats:?}"
        );
    }

    #[test]
    fn auto_design_ddl_invalidates_cached_plans() {
        // Regression: an online CREATE PROJECTION issued by auto_design
        // must bump ddl_version so plans that bound the old projection set
        // are discarded — a stale cached plan would keep scanning the old
        // superprojection and never exploit the designed one.
        let db = served_db();
        let server = Server::build(db.clone(), ServeConfig::default());
        let s = server.session();
        // Filter on g: the existing superprojection (sorted by v) cannot
        // prune this, so the designer has a win available.
        let hot = "SELECT COUNT(*) FROM t WHERE g = 3";
        for _ in 0..10 {
            s.execute(hot).unwrap(); // miss, then 9 cache hits
        }
        let stamp_before = db.ddl_version();
        let report = db
            .auto_design(vdb_designer::DesignPolicy::QueryOptimized)
            .unwrap();
        assert!(
            !report.installed.is_empty(),
            "session traffic must reach the trace: {report:?}"
        );
        assert!(
            db.ddl_version() > stamp_before,
            "auto_design DDL must bump ddl_version"
        );
        let hits_before = server.stats().cache_hits;
        assert_eq!(
            s.execute(hot).unwrap().scalar(),
            Some(&Value::Integer(143)), // i % 7 == 3 for i in 0..1000
            "replanned query answers identically"
        );
        let stats = server.stats();
        assert_eq!(
            stats.cache_hits, hits_before,
            "stale plan must not be served from the cache"
        );
        assert!(
            stats.cache_invalidations >= 1,
            "stamped entry must self-invalidate: {stats:?}"
        );
        // The replanned query uses an auto-designed projection.
        let explain = db.execute(&format!("EXPLAIN {hot}")).unwrap();
        let text: String = explain.rows.iter().map(|r| format!("{:?}", r[0])).collect();
        assert!(
            report.installed.iter().any(|i| text.contains(&i.name)),
            "EXPLAIN must pick an auto-designed projection: {text}"
        );
    }

    #[test]
    fn prepared_statements_bind_params_and_hit_the_cache() {
        let server = Server::build(served_db(), ServeConfig::default());
        let mut s = server.session();
        s.prepare("by_v", "SELECT g FROM t WHERE v = ?").unwrap();
        assert_eq!(
            s.execute_prepared("by_v", &[Value::Integer(14)])
                .unwrap()
                .rows,
            vec![vec![Value::Integer(0)]]
        );
        // Same parameter → plan-cache hit; different parameter → miss
        // (plans embed their constants).
        s.execute_prepared("by_v", &[Value::Integer(14)]).unwrap();
        let stats = server.stats();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        s.execute_prepared("by_v", &[Value::Integer(15)]).unwrap();
        assert_eq!(server.stats().cache_misses, 2);
        // Wrong arity and unknown names are real errors.
        assert!(s.execute_prepared("by_v", &[]).is_err());
        assert!(matches!(
            s.execute_prepared("nope", &[]),
            Err(DbError::NotFound(_))
        ));
        // Bare execute of parameterized text is rejected.
        assert!(s.execute("SELECT g FROM t WHERE v = ?").is_err());
    }

    #[test]
    fn admission_gate_rejects_and_times_out_deterministically() {
        let counters = ServerCounters::default();
        let gate = Arc::new(AdmissionGate::new(1, 0, Duration::from_millis(10)));
        let held = gate.acquire(&counters).unwrap();
        // max_queue = 0: no waiting allowed — immediate rejection.
        match gate.acquire(&counters) {
            Err(e @ DbError::AdmissionQueueFull { running: 1, .. }) => {
                assert!(e.is_retryable(), "queue pressure is transient: {e}");
            }
            other => panic!("expected queue-full error, got {other:?}"),
        }
        drop(held);
        // Slot freed: admission works again.
        let _held = gate.acquire(&counters).unwrap();

        // max_queue = 1: the waiter times out with a real error.
        let gate = Arc::new(AdmissionGate::new(1, 1, Duration::from_millis(20)));
        let _held = gate.acquire(&counters).unwrap();
        let started = Instant::now();
        match gate.acquire(&counters) {
            Err(e @ DbError::AdmissionTimeout { waited_ms: 20 }) => {
                assert!(e.is_retryable(), "queue timeout is transient: {e}");
                assert!(started.elapsed() >= Duration::from_millis(20));
            }
            other => panic!("expected queue-timeout error, got {other:?}"),
        }
        assert_eq!(counters.queue_timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(counters.queue_rejections.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn queued_statement_proceeds_when_a_slot_frees() {
        let counters = Arc::new(ServerCounters::default());
        let gate = Arc::new(AdmissionGate::new(1, 4, Duration::from_secs(30)));
        let held = gate.acquire(&counters).unwrap();
        let waiter_gate = gate.clone();
        let waiter_counters = counters.clone();
        let waiter = std::thread::spawn(move || waiter_gate.acquire(&waiter_counters).map(|_| ()));
        // Give the waiter time to enqueue, then free the slot.
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert!(waiter.join().unwrap().is_ok());
        assert_eq!(counters.admitted.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn deadline_helper_times_out_and_still_finishes_the_work() {
        let finished = Arc::new(AtomicU64::new(0));
        let f = finished.clone();
        let outcome = run_with_deadline(Duration::from_millis(10), move || {
            std::thread::sleep(Duration::from_millis(80));
            f.store(1, Ordering::SeqCst);
            Ok(QueryResult {
                columns: vec![],
                rows: vec![],
                tag: "SLOW".into(),
            })
        });
        assert!(outcome.is_none(), "deadline must expire");
        // The detached work still completes (slot-release semantics).
        let waited = Instant::now();
        while finished.load(Ordering::SeqCst) == 0 {
            assert!(
                waited.elapsed() < Duration::from_secs(5),
                "work never finished"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // And a fast closure beats the deadline.
        let outcome = run_with_deadline(Duration::from_secs(5), || {
            Ok(QueryResult {
                columns: vec![],
                rows: vec![],
                tag: "FAST".into(),
            })
        });
        assert_eq!(outcome.unwrap().unwrap().tag, "FAST");
    }

    #[test]
    fn query_timeout_surfaces_as_an_error_not_a_hang() {
        let db = served_db();
        let server = Server::build(
            db,
            ServeConfig {
                query_timeout: Some(Duration::from_secs(30)),
                ..ServeConfig::default()
            },
        );
        // A normal query under a generous deadline just works.
        let s = server.session();
        assert_eq!(
            s.execute("SELECT COUNT(*) FROM t").unwrap().scalar(),
            Some(&Value::Integer(1000))
        );
        assert_eq!(server.stats().query_timeouts, 0);
    }

    #[test]
    fn lru_evicts_the_coldest_plan() {
        let db = served_db();
        let server = Server::build(
            db,
            ServeConfig {
                plan_cache_capacity: 2,
                ..ServeConfig::default()
            },
        );
        let s = server.session();
        s.query("SELECT v FROM t WHERE v = 1").unwrap();
        s.query("SELECT v FROM t WHERE v = 2").unwrap();
        s.query("SELECT v FROM t WHERE v = 1").unwrap(); // refresh #1
        s.query("SELECT v FROM t WHERE v = 3").unwrap(); // evicts #2
        assert_eq!(server.plan_cache_len(), 2);
        s.query("SELECT v FROM t WHERE v = 1").unwrap();
        let hits_before = server.stats().cache_hits;
        s.query("SELECT v FROM t WHERE v = 2").unwrap(); // must be a miss
        let stats = server.stats();
        assert_eq!(stats.cache_hits, hits_before);
        assert_eq!(stats.cache_misses, 4);
    }

    #[test]
    fn non_selects_bypass_the_cache() {
        let server = Server::build(served_db(), ServeConfig::default());
        let s = server.session();
        s.execute("INSERT INTO t VALUES (1, 2000)").unwrap();
        s.execute("EXPLAIN SELECT COUNT(*) FROM t").unwrap();
        let stats = server.stats();
        assert_eq!(stats.cache_bypass, 2);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
    }

    #[test]
    fn degraded_cluster_bypasses_the_plan_cache() {
        let db = crate::Engine::builder()
            .nodes(3)
            .open()
            .unwrap()
            .database()
            .clone();
        db.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        db.execute(
            "CREATE PROJECTION t_super AS SELECT id, v FROM t ORDER BY id \
             SEGMENTED BY HASH(id) ALL NODES",
        )
        .unwrap();
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Integer(i), Value::Integer(i % 5)])
            .collect();
        db.load("t", &rows).unwrap();
        let server = Server::build(db.clone(), ServeConfig::default());
        let s = server.session();
        let sql = "SELECT COUNT(*) FROM t";
        assert_eq!(s.execute(sql).unwrap().scalar(), Some(&Value::Integer(100)));
        db.cluster().fail_node(1);
        // Degraded: correct answer, no cache involvement.
        assert_eq!(s.execute(sql).unwrap().scalar(), Some(&Value::Integer(100)));
        let stats = server.stats();
        assert_eq!(stats.cache_bypass, 1);
        assert_eq!(stats.cache_hits, 0);
        db.cluster().recover_node(1).unwrap();
        // Healthy again: the cache resumes (original entry still valid —
        // node failure is not DDL).
        assert_eq!(s.execute(sql).unwrap().scalar(), Some(&Value::Integer(100)));
        assert_eq!(server.stats().cache_hits, 1);
    }
}
