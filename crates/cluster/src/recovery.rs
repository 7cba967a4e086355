//! Recovery, refresh (§5.2).
//!
//! "When a node rejoins the cluster after a failure, it recovers each
//! projection segment from a corresponding buddy projection segment.
//! First, the node truncates all tuples that were inserted after its LGE
//! ... Then recovery proceeds in two phases": a lock-free **historical
//! phase** up to an intermediate epoch, then a **current phase** under a
//! Shared lock for the remainder. Because "the data+epoch itself serves as
//! a log of past system activity", recovery is incremental DML replay, not
//! log shipping.

use crate::cluster::{Cluster, Family};
use vdb_txn::txn::Isolation;
use vdb_txn::LockMode;
use vdb_types::{DbError, DbResult, Epoch, Row};

/// Statistics from one node recovery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    pub projections_recovered: usize,
    pub historical_rows: u64,
    pub current_rows: u64,
}

/// Replay payload gathered from a buddy.
#[derive(Debug, Default)]
struct ReplaySet {
    rows: Vec<(Row, Epoch, Option<Epoch>)>,
    late_deletes: Vec<(Row, Epoch, Epoch)>,
}

impl Cluster {
    /// Recover a failed node and rejoin it to the cluster.
    pub fn recover_node(&self, node: usize) -> DbResult<RecoveryStats> {
        if self.is_up(node) {
            return Err(DbError::Cluster(format!("node {node} is not down")));
        }
        if !self.has_quorum() {
            return Err(DbError::Cluster(
                "cannot recover without a quorum of live nodes".into(),
            ));
        }
        let mut stats = RecoveryStats::default();
        let families: Vec<String> = {
            let mut v: Vec<String> = self
                .table_names()
                .iter()
                .flat_map(|t| self.projection_families_of(t))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        for fname in families {
            let family = self
                .family(&fname)
                .ok_or_else(|| DbError::NotFound(format!("projection {fname}")))?;
            for (b, replica) in family.replicas.iter().enumerate() {
                let store = self.node_engine(node).projection(replica)?;
                // 1. Truncate to the node's Last Good Epoch: the highest
                // epoch it had fully applied before failing (WOS data past
                // it was lost with the crash).
                let lge = self.applied_epoch(node);
                store.write().truncate_after(lge)?;
                // 2. Historical phase (no locks): replay (LGE, Eh].
                let eh = self.epochs.read_committed_snapshot();
                let hist = self.gather_replay_rows(&family.def, replica, b, node, lge, eh)?;
                stats.historical_rows += hist.rows.len() as u64;
                store.write().apply_history(hist.rows)?;
                store.write().apply_late_deletes(&hist.late_deletes)?;
                // 3. Current phase: Shared lock on the table, replay the
                // remainder so the projection is exactly current.
                let txn = self.txns.begin(Isolation::ReadCommitted);
                self.txns.lock(&txn, &family.table, LockMode::S)?;
                let current = self.epochs.current();
                let cur = self.gather_replay_rows(&family.def, replica, b, node, eh, current)?;
                stats.current_rows += cur.rows.len() as u64;
                store.write().apply_history(cur.rows)?;
                store.write().apply_late_deletes(&cur.late_deletes)?;
                self.txns.commit(&txn, false)?;
                stats.projections_recovered += 1;
            }
        }
        self.set_applied_epoch(node, self.epochs.read_committed_snapshot());
        self.mark_up(node);
        Ok(stats)
    }

    /// Rows (with epochs and delete marks) plus late deletes that replica
    /// `b` on `node` should hold with commit epoch in `(from, to]`,
    /// gathered from buddy replicas on live nodes.
    fn gather_replay_rows(
        &self,
        def: &vdb_storage::projection::ProjectionDef,
        _replica: &str,
        b: usize,
        node: usize,
        from: Epoch,
        to: Epoch,
    ) -> DbResult<ReplaySet> {
        let family = self
            .family(&family_name_of(def))
            .ok_or_else(|| DbError::NotFound("family".into()))?;
        let n_nodes = self.n_nodes();
        let up = self.node_up_mask();
        if self.router().is_replicated(&family.def) {
            // Copy from any live node's replica.
            let src = (0..n_nodes)
                .find(|&m| up[m] && m != node)
                .ok_or_else(|| DbError::RecoveryFailed("no live source replica".into()))?;
            let store = self.node_engine(src).projection(&family.replicas[0])?;
            let s = store.read();
            return Ok(ReplaySet {
                rows: s.history_between(from, to)?,
                late_deletes: s.late_deletes_between(from, to)?,
            });
        }
        // Segmented: this replica on this node owns ring position
        // r = (node - b) mod N. Source from any other replica j whose
        // holder node (r + j) mod N is up.
        let r = (node + n_nodes - b) % n_nodes;
        let mut source = None;
        for (j, other) in family.replicas.iter().enumerate() {
            let holder = (r + j) % n_nodes;
            if holder != node && up[holder] {
                source = Some((holder, other.clone()));
                break;
            }
        }
        let (src_node, src_replica) = source.ok_or_else(|| {
            DbError::Cluster(format!(
                "no live buddy holds ring position {r} for {}",
                family.def.name
            ))
        })?;
        let store = self.node_engine(src_node).projection(&src_replica)?;
        let s = store.read();
        let hist = s.history_between(from, to)?;
        let late = s.late_deletes_between(from, to)?;
        // The source store may hold several ring positions; keep only
        // rows whose ring position is r.
        let mut out = ReplaySet::default();
        for (row, e, d) in hist {
            if let Some(v) = family.def.segment_value(&row)? {
                if crate::segmentation::ring_node(v, n_nodes) == r {
                    out.rows.push((row, e, d));
                }
            }
        }
        for (row, e, d) in late {
            if let Some(v) = family.def.segment_value(&row)? {
                if crate::segmentation::ring_node(v, n_nodes) == r {
                    out.late_deletes.push((row, e, d));
                }
            }
        }
        Ok(out)
    }

    /// Refresh (§5.2): populate a projection family created after its
    /// table was loaded, from a super projection of the same table.
    pub fn refresh_projection(&self, family_name: &str) -> DbResult<u64> {
        let family = self
            .family(family_name)
            .ok_or_else(|| DbError::NotFound(format!("projection {family_name}")))?;
        // Current phase under a Shared lock (simplified single-phase
        // refresh; the table is small enough to copy in one step here).
        // The lock comes FIRST: the snapshot and both row sets below must
        // be stable against concurrent commits.
        let txn = self.txns.begin(Isolation::ReadCommitted);
        if let Err(e) = self.txns.lock(&txn, &family.table, LockMode::S) {
            self.txns.rollback(&txn);
            return Err(e);
        }
        // Locks release only at commit/rollback, so a mid-refresh error
        // must roll back or the S lock would block ingest forever.
        let copied = self.refresh_locked(&family, family_name, &txn);
        if copied.is_err() {
            self.txns.rollback(&txn);
        }
        copied
    }

    fn refresh_locked(
        &self,
        family: &Family,
        family_name: &str,
        txn: &vdb_txn::Transaction,
    ) -> DbResult<u64> {
        // Refresh stamps and commits a DML epoch like any writer, so it
        // serializes with them (see `Cluster::commit_serial`).
        let _commit = self.commit_serial.lock();
        let snapshot = self.epochs.read_committed_snapshot();
        // Never read the refresh target as its own source (it is empty).
        let all_rows = self.table_rows_excluding(&family.table, snapshot, Some(family_name))?;
        // Loads committed between the family's registration and this
        // refresh already fanned out into it; copying them again would
        // duplicate rows. Subtract the target's current visible multiset
        // (compared in the projected shape).
        let mut have: std::collections::BTreeMap<Row, u64> = std::collections::BTreeMap::new();
        for prow in self.family_projected_rows(family, snapshot)? {
            *have.entry(prow).or_insert(0) += 1;
        }
        let mut table_rows = Vec::with_capacity(all_rows.len());
        for row in all_rows {
            if let Some(n) = have.get_mut(&family.def.project_row(&row)?) {
                if *n > 0 {
                    *n -= 1;
                    continue;
                }
            }
            table_rows.push(row);
        }
        let epoch = self.txns.pending_commit_epoch();
        let schema = self
            .table_schema(&family.table)
            .ok_or_else(|| DbError::NotFound(format!("table {}", family.table)))?;
        let batch = vdb_storage::columnar::LoadBatch::new(&schema, &table_rows, epoch, true)?;
        self.load_family(family, &batch, epoch, true)?;
        self.txns.commit(txn, true)?;
        Ok(table_rows.len() as u64)
    }
}

fn family_name_of(def: &vdb_storage::projection::ProjectionDef) -> String {
    def.name.clone()
}

#[cfg(test)]
mod tests {
    use crate::cluster::{Cluster, ClusterConfig};
    use vdb_storage::projection::ProjectionDef;
    use vdb_types::{ColumnDef, DataType, Row, TableSchema, Value};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("v", DataType::Integer),
            ],
        )
    }

    fn cluster() -> Cluster {
        let c = Cluster::new(ClusterConfig {
            n_nodes: 3,
            k_safety: 1,
            n_local_segments: 1,
            ..Default::default()
        });
        c.create_table(schema(), None).unwrap();
        c.create_projection(ProjectionDef::super_projection(
            &schema(),
            "t_super",
            &[0],
            &[0],
        ))
        .unwrap();
        c
    }

    fn rows(lo: i64, hi: i64) -> Vec<Row> {
        (lo..hi)
            .map(|i| vec![Value::Integer(i), Value::Integer(i * 2)])
            .collect()
    }

    #[test]
    fn node_recovers_missed_loads() {
        let c = cluster();
        c.load("t", &rows(0, 100), true).unwrap();
        c.fail_node(1);
        // Loads continue while node 1 is down.
        c.load("t", &rows(100, 250), true).unwrap();
        let snapshot = c.epochs.read_committed_snapshot();
        assert_eq!(c.table_rows("t", snapshot).unwrap().len(), 250);
        // Recover and verify node 1 holds its share again.
        let stats = c.recover_node(1).unwrap();
        assert!(stats.historical_rows + stats.current_rows > 0);
        assert!(c.is_up(1));
        // All data present reading only primaries.
        let snapshot = c.epochs.read_committed_snapshot();
        assert_eq!(c.table_rows("t", snapshot).unwrap().len(), 250);
        // Node 1's replica-0 store holds exactly its ring share of all 250
        // rows; compare against node totals.
        let mut total = 0;
        for n in 0..3 {
            let store = c.node_engine(n).projection("t_super_b1").unwrap();
            total += store.read().visible_rows(snapshot).unwrap().len();
        }
        assert_eq!(total, 250);
    }

    #[test]
    fn recovery_replays_deletes() {
        let c = cluster();
        c.load("t", &rows(0, 50), true).unwrap();
        c.fail_node(2);
        let pred = vdb_types::Expr::binary(
            vdb_types::BinOp::Lt,
            vdb_types::Expr::col(0, "id"),
            vdb_types::Expr::int(10),
        );
        c.delete("t", Some(&pred)).unwrap();
        c.recover_node(2).unwrap();
        let snapshot = c.epochs.read_committed_snapshot();
        assert_eq!(c.table_rows("t", snapshot).unwrap().len(), 40);
    }

    #[test]
    fn cannot_recover_up_node_or_without_quorum() {
        let c = cluster();
        assert!(c.recover_node(0).is_err(), "node 0 is up");
        c.fail_node(0);
        c.fail_node(1);
        assert!(c.recover_node(0).is_err(), "no quorum");
    }

    #[test]
    fn refresh_populates_new_projection() {
        let c = cluster();
        c.load("t", &rows(0, 120), true).unwrap();
        // New narrow projection created after load.
        let def = ProjectionDef {
            name: "t_by_v".into(),
            anchor_table: "t".into(),
            columns: vec![1, 0],
            column_names: vec!["v".into(), "id".into()],
            column_types: vec![DataType::Integer, DataType::Integer],
            sort_keys: vec![vdb_types::SortKey::asc(0)],
            encodings: vec![vdb_encoding::EncodingType::Auto; 2],
            segmentation: vdb_storage::projection::Segmentation::hash_of(&[(1, "id")]),
            prejoin: vec![],
        };
        c.create_projection(def).unwrap();
        let copied = c.refresh_projection("t_by_v").unwrap();
        assert_eq!(copied, 120);
        let snapshot = c.epochs.read_committed_snapshot();
        let mut total = 0;
        for n in 0..3 {
            let store = c.node_engine(n).projection("t_by_v_b1").unwrap();
            total += store.read().visible_rows(snapshot).unwrap().len();
        }
        assert_eq!(total, 120);
    }

    #[test]
    fn ahm_freezes_while_node_down() {
        let c = Cluster::new(ClusterConfig {
            n_nodes: 3,
            k_safety: 1,
            history_retention: 1,
            ..Default::default()
        });
        c.create_table(schema(), None).unwrap();
        c.create_projection(ProjectionDef::super_projection(
            &schema(),
            "t_super",
            &[0],
            &[0],
        ))
        .unwrap();
        c.load("t", &rows(0, 10), true).unwrap();
        let ahm_before = c.epochs.ahm();
        c.fail_node(1);
        c.load("t", &rows(10, 20), true).unwrap();
        c.load("t", &rows(20, 30), true).unwrap();
        assert_eq!(c.epochs.ahm(), ahm_before, "AHM frozen while node down");
        c.recover_node(1).unwrap();
        c.load("t", &rows(30, 40), true).unwrap();
        assert!(c.epochs.ahm() > ahm_before, "AHM resumes after recovery");
    }
}
