//! Ring segmentation (§3.6).
//!
//! "Nodes are assigned to store ranges of segmentation expression values":
//! node i of N owns `[i·CMAX/N, (i+1)·CMAX/N)` with CMAX = 2⁶⁴ — "a classic
//! ring style segmentation scheme". Buddy replica b of a projection family
//! shifts ownership b nodes clockwise, so the rows node d owns in replica 0
//! are exactly the rows node (d+b) mod N holds in replica b.

use vdb_storage::projection::{ProjectionDef, Segmentation};

/// Ring position → owning node index (replica 0).
pub fn ring_node(seg_value: u64, n_nodes: usize) -> usize {
    ((seg_value as u128 * n_nodes as u128) >> 64) as usize
}

/// Routes rows of one projection family across the cluster.
#[derive(Debug, Clone)]
pub struct RingRouter {
    pub n_nodes: usize,
}

impl RingRouter {
    pub fn new(n_nodes: usize) -> RingRouter {
        assert!(n_nodes >= 1);
        RingRouter { n_nodes }
    }

    /// The node storing ring position `seg_value` for replica `buddy`.
    pub fn node_of(&self, seg_value: u64, buddy: usize) -> usize {
        (ring_node(seg_value, self.n_nodes) + buddy) % self.n_nodes
    }

    /// Which buddy replica node `n` should read for ring position `r`,
    /// given node liveness: the smallest `b` such that `(r + b) % N` is up.
    /// Returns Some(b) if that reader is node `n`.
    pub fn reader_replica(
        &self,
        r: usize,
        n: usize,
        up: &[bool],
        max_buddy: usize,
    ) -> Option<usize> {
        for b in 0..=max_buddy {
            let holder = (r + b) % self.n_nodes;
            if up[holder] {
                return (holder == n).then_some(b);
            }
        }
        None
    }

    /// Is every ring position readable with the given liveness and K+1
    /// replicas? (The data-availability half of K-safety, §5.3.)
    pub fn all_positions_readable(&self, up: &[bool], max_buddy: usize) -> bool {
        (0..self.n_nodes).all(|r| (0..=max_buddy).any(|b| up[(r + b) % self.n_nodes]))
    }

    pub fn is_replicated(&self, def: &ProjectionDef) -> bool {
        matches!(def.segmentation, Segmentation::Replicated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_contiguous_equal_slices() {
        let n = 4;
        assert_eq!(ring_node(0, n), 0);
        assert_eq!(ring_node(u64::MAX / 4 - 1, n), 0);
        assert_eq!(ring_node(u64::MAX / 4 + 2, n), 1);
        assert_eq!(ring_node(u64::MAX / 2 + 2, n), 2);
        assert_eq!(ring_node(u64::MAX, n), 3);
    }

    #[test]
    fn reader_replica_prefers_primary() {
        let r = RingRouter::new(3);
        let up = vec![true, true, true];
        // Ring position 1: primary holder node 1 reads replica 0.
        assert_eq!(r.reader_replica(1, 1, &up, 1), Some(0));
        assert_eq!(r.reader_replica(1, 2, &up, 1), None);
    }

    #[test]
    fn reader_replica_falls_to_buddy_on_failure() {
        let r = RingRouter::new(3);
        let up = vec![true, false, true];
        // Node 1 down: ring position 1 is read from node 2's replica 1.
        assert_eq!(r.reader_replica(1, 2, &up, 1), Some(1));
        assert_eq!(r.reader_replica(1, 0, &up, 1), None);
        // Ring position 0's primary (node 0) is up: unchanged.
        assert_eq!(r.reader_replica(0, 0, &up, 1), Some(0));
    }

    #[test]
    fn availability_check() {
        let r = RingRouter::new(4);
        // K=1 (2 replicas): one failure fine, two adjacent failures lose a
        // ring position.
        assert!(r.all_positions_readable(&[true, false, true, true], 1));
        assert!(!r.all_positions_readable(&[true, false, false, true], 1));
        // Non-adjacent double failure with K=1: position of the first down
        // node is covered by its successor... node1 down → buddy node2 down
        // too? [t,f,t,f]: position 1 read by node 2 (up) — ok; position 3
        // read by node 0 (up) — ok.
        assert!(r.all_positions_readable(&[true, false, true, false], 1));
        // K=2 (3 replicas) survives two adjacent failures.
        assert!(r.all_positions_readable(&[true, false, false, true], 2));
    }
}
