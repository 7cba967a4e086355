//! One front door for every deployment shape.
//!
//! `Engine::builder()` is the only way to open a [`Database`] or a
//! [`Server`] (the per-shape constructors that once grew around both are
//! gone): the builder assembles the cluster topology, the executor budget, and
//! the serving layer in one place, and the resulting [`Engine`] exposes
//! the whole stack — direct statements through [`Database`] methods (the
//! engine derefs to its database) plus admission-controlled [`Session`]s
//! from the embedded [`Server`].
//!
//! ```
//! use vdb_core::{Engine, Value};
//!
//! let engine = Engine::builder().open().unwrap();
//! engine.execute("CREATE TABLE t (id INT, name VARCHAR)").unwrap();
//! engine
//!     .execute("CREATE PROJECTION t_super AS SELECT id, name FROM t ORDER BY id")
//!     .unwrap();
//! engine.execute("INSERT INTO t VALUES (1, 'ada')").unwrap();
//! let rows = engine.query("SELECT name FROM t WHERE id = 1").unwrap();
//! assert_eq!(rows, vec![vec![Value::Varchar("ada".into())]]);
//! ```
//!
//! A K-safe multi-node cluster with durable storage and a bounded
//! admission queue:
//!
//! ```no_run
//! use vdb_core::{Engine, ServeConfig};
//!
//! let engine = Engine::builder()
//!     .nodes(4)
//!     .k_safety(1)
//!     .data_dir("/var/lib/vdb")
//!     .threads(8)
//!     .serve(ServeConfig::default())
//!     .open()
//!     .unwrap();
//! let session = engine.session();
//! ```

use crate::database::{Database, DatabaseConfig};
use crate::serve::{ServeConfig, Server, Session};
use std::path::PathBuf;
use std::sync::Arc;
use vdb_cluster::ClusterConfig;
use vdb_exec::parallel::ExecOptions;
use vdb_types::{DbError, DbResult};

/// The assembled stack: a [`Database`] (cluster + SQL glue) plus the
/// serving layer over it. Cheap to clone (two `Arc`s); derefs to
/// [`Database`], so every database method is available directly.
#[derive(Clone)]
pub struct Engine {
    db: Arc<Database>,
    server: Arc<Server>,
}

impl Engine {
    /// Start configuring an engine. Defaults: one in-memory node, no
    /// K-safety, host-sized executor budget, default serving limits.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The shared database handle (for APIs that want an `Arc<Database>`).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The serving layer: admission gate, plan cache, session factory.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Open an admission-controlled session (one per client/thread).
    pub fn session(&self) -> Session {
        self.server.session()
    }
}

impl std::ops::Deref for Engine {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

/// Builder for [`Engine`]. Every knob is optional; `open()` validates the
/// combination and assembles the stack.
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    nodes: Option<usize>,
    k_safety: Option<usize>,
    local_segments: Option<u32>,
    data_dir: Option<PathBuf>,
    threads: Option<usize>,
    serve: Option<ServeConfig>,
    wos_budget: Option<usize>,
}

impl EngineBuilder {
    /// Number of logical nodes in the in-process cluster (default 1).
    pub fn nodes(mut self, n: usize) -> EngineBuilder {
        self.nodes = Some(n);
        self
    }

    /// K-safety: segmented projections keep K+1 buddy replicas. Defaults
    /// to 1 for multi-node clusters, 0 for a single node. Must be less
    /// than the node count.
    pub fn k_safety(mut self, k: usize) -> EngineBuilder {
        self.k_safety = Some(k);
        self
    }

    /// Local segments per node (defaults: 1 single-node, 3 multi-node).
    pub fn local_segments(mut self, segments: u32) -> EngineBuilder {
        self.local_segments = Some(segments);
        self
    }

    /// Root directory for durable storage. First open creates it;
    /// subsequent opens recover (DDL replay, WOS redo logs, epoch
    /// truncation past the last durable commit marker). Without this the
    /// engine is in-memory.
    pub fn data_dir(mut self, root: impl Into<PathBuf>) -> EngineBuilder {
        self.data_dir = Some(root.into());
        self
    }

    /// Executor thread budget per query (overrides `VDB_EXEC_THREADS` /
    /// host parallelism).
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.threads = Some(threads);
        self
    }

    /// Serving limits (admission concurrency/queue, plan cache size,
    /// query deadline). Defaults to [`ServeConfig::default`].
    pub fn serve(mut self, config: ServeConfig) -> EngineBuilder {
        self.serve = Some(config);
        self
    }

    /// Per-node WOS memory budget in bytes (§3.7 back-pressure): a
    /// WOS-path commit that leaves any node's total WOS footprint above
    /// this triggers an immediate forced moveout on that node. Default:
    /// unbounded (the periodic tuple-mover tick is the only drain).
    pub fn wos_budget(mut self, bytes: usize) -> EngineBuilder {
        self.wos_budget = Some(bytes);
        self
    }

    /// Validate the configuration and assemble the stack.
    pub fn open(self) -> DbResult<Engine> {
        let nodes = self.nodes.unwrap_or(1);
        if nodes == 0 {
            return Err(DbError::Cluster("engine needs at least one node".into()));
        }
        let k_safety = self.k_safety.unwrap_or(usize::from(nodes > 1));
        if k_safety >= nodes {
            return Err(DbError::Cluster(format!(
                "k_safety {k_safety} needs at least {} nodes, have {nodes}",
                k_safety + 1
            )));
        }
        let n_local_segments = self.local_segments.unwrap_or(if nodes == 1 {
            1
        } else {
            ClusterConfig::default().n_local_segments
        });
        let config = DatabaseConfig {
            cluster: ClusterConfig {
                n_nodes: nodes,
                k_safety,
                n_local_segments,
                wos_budget_bytes: self.wos_budget,
                ..Default::default()
            },
            exec: match self.threads {
                Some(t) => ExecOptions::with_threads(t),
                None => ExecOptions::default(),
            },
        };
        let db = Arc::new(match self.data_dir {
            Some(root) => Database::open_at(root, config)?,
            None => Database::new(config),
        });
        let server = Server::build(db.clone(), self.serve.unwrap_or_default());
        Ok(Engine { db, server })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_types::Value;

    #[test]
    fn default_builder_is_one_memory_node() {
        let engine = Engine::builder().open().unwrap();
        assert_eq!(engine.cluster().n_nodes(), 1);
        assert_eq!(engine.cluster().config.k_safety, 0);
        engine.execute("CREATE TABLE t (a INT)").unwrap();
        engine
            .execute("CREATE PROJECTION t_s AS SELECT a FROM t ORDER BY a")
            .unwrap();
        engine.execute("INSERT INTO t VALUES (7)").unwrap();
        assert_eq!(
            engine.query("SELECT a FROM t").unwrap(),
            vec![vec![Value::Integer(7)]]
        );
    }

    #[test]
    fn multi_node_defaults_to_k_safe() {
        let engine = Engine::builder().nodes(3).open().unwrap();
        assert_eq!(engine.cluster().n_nodes(), 3);
        assert_eq!(engine.cluster().config.k_safety, 1);
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert!(matches!(
            Engine::builder().nodes(0).open(),
            Err(DbError::Cluster(_))
        ));
        assert!(matches!(
            Engine::builder().nodes(2).k_safety(2).open(),
            Err(DbError::Cluster(_))
        ));
    }

    #[test]
    fn sessions_share_the_database() {
        let engine = Engine::builder().open().unwrap();
        let s = engine.session();
        s.execute("CREATE TABLE t (a INT)").unwrap();
        s.execute("CREATE PROJECTION t_s AS SELECT a FROM t ORDER BY a")
            .unwrap();
        s.execute("INSERT INTO t VALUES (1)").unwrap();
        // Visible both through another session and the direct path.
        assert_eq!(engine.session().query("SELECT a FROM t").unwrap().len(), 1);
        assert_eq!(engine.query("SELECT a FROM t").unwrap().len(), 1);
    }

    #[test]
    fn durable_engine_reopens() {
        let root = std::env::temp_dir().join(format!("vdb_engine_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            let engine = Engine::builder().data_dir(&root).open().unwrap();
            engine.execute("CREATE TABLE t (a INT)").unwrap();
            engine
                .execute("CREATE PROJECTION t_s AS SELECT a FROM t ORDER BY a")
                .unwrap();
            engine.execute("INSERT INTO t VALUES (42)").unwrap();
        }
        let engine = Engine::builder().data_dir(&root).open().unwrap();
        assert_eq!(
            engine.query("SELECT a FROM t").unwrap(),
            vec![vec![Value::Integer(42)]]
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
