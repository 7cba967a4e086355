//! Delete vectors (§3.7.1).
//!
//! "Data in Vertica is never modified in place. When a tuple is deleted or
//! updated from either the WOS or ROS, Vertica creates a delete vector — a
//! list of positions of rows that have been deleted", each paired with the
//! epoch it was deleted at (§5). Delete vectors are stored like user data:
//! first in a DVWOS in memory, then moved to DVROS containers on disk by
//! the tuple mover "using efficient compression mechanisms" — here,
//! delta-varint positions plus RLE-style epoch runs.

use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbResult, Epoch};

/// Deleted positions (sorted, deduplicated) of one target store (a ROS
/// container or the WOS), each with its delete epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeleteVector {
    /// Sorted `(position, delete_epoch)` pairs.
    entries: Vec<(u64, Epoch)>,
}

impl DeleteVector {
    pub fn new() -> DeleteVector {
        DeleteVector::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record a deletion. Re-deleting the same position keeps the earliest
    /// epoch (a row can only die once; later marks are no-ops from replayed
    /// DML).
    pub fn mark(&mut self, position: u64, epoch: Epoch) {
        match self.entries.binary_search_by_key(&position, |e| e.0) {
            Ok(_) => {}
            Err(i) => self.entries.insert(i, (position, epoch)),
        }
    }

    /// Bulk-mark sorted positions at one epoch (the common DELETE path).
    pub fn mark_all(&mut self, positions: &[u64], epoch: Epoch) {
        for &p in positions {
            self.mark(p, epoch);
        }
    }

    /// Is `position` deleted as of snapshot `epoch`? (A row deleted at
    /// epoch E is invisible to queries with snapshot ≥ E.)
    pub fn is_deleted(&self, position: u64, as_of: Epoch) -> bool {
        match self.entries.binary_search_by_key(&position, |e| e.0) {
            Ok(i) => self.entries[i].1 <= as_of,
            Err(_) => false,
        }
    }

    /// Delete epoch of a position, if marked.
    pub fn delete_epoch(&self, position: u64) -> Option<Epoch> {
        self.entries
            .binary_search_by_key(&position, |e| e.0)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Iterate `(position, epoch)` pairs in position order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Epoch)> + '_ {
        self.entries.iter().copied()
    }

    /// The marks on positions `start..end`, in position order — what a scan
    /// of one block range consults instead of walking the whole vector.
    pub fn range(&self, positions: std::ops::Range<u64>) -> &[(u64, Epoch)] {
        let lo = self.entries.partition_point(|e| e.0 < positions.start);
        let hi = self.entries.partition_point(|e| e.0 < positions.end);
        &self.entries[lo..hi.max(lo)]
    }

    /// Number of rows deleted at or before `ahm` — candidates for purge.
    pub fn purgeable(&self, ahm: Epoch) -> usize {
        self.entries.iter().filter(|(_, e)| *e <= ahm).count()
    }

    /// Serialize (DVROS format): delta-varint positions + epoch values.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_uvarint(self.entries.len() as u64);
        let mut prev_pos = 0u64;
        for &(p, _) in &self.entries {
            w.put_uvarint(p - prev_pos);
            prev_pos = p;
        }
        // Epochs arrive in bursts (one DELETE statement marks many rows at
        // one epoch): run-length encode them.
        let mut i = 0;
        while i < self.entries.len() {
            let e = self.entries[i].1;
            let mut run = 1u64;
            while i + (run as usize) < self.entries.len() && self.entries[i + run as usize].1 == e {
                run += 1;
            }
            w.put_uvarint(run);
            w.put_uvarint(e.0);
            i += run as usize;
        }
        w.into_bytes()
    }

    pub fn decode(bytes: &[u8]) -> DbResult<DeleteVector> {
        let mut r = Reader::new(bytes);
        let n = r.get_uvarint()? as usize;
        let mut positions = Vec::with_capacity(n);
        let mut pos = 0u64;
        for i in 0..n {
            let d = r.get_uvarint()?;
            pos = if i == 0 { d } else { pos + d };
            positions.push(pos);
        }
        let mut entries = Vec::with_capacity(n);
        let mut i = 0usize;
        while i < n {
            let run = r.get_uvarint()? as usize;
            let e = Epoch(r.get_uvarint()?);
            for _ in 0..run {
                if i >= n {
                    return Err(vdb_types::DbError::Corrupt(
                        "delete vector epoch runs exceed positions".into(),
                    ));
                }
                entries.push((positions[i], e));
                i += 1;
            }
        }
        if i != n {
            return Err(vdb_types::DbError::Corrupt(
                "delete vector epoch runs short of positions".into(),
            ));
        }
        Ok(DeleteVector { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_returns_marks_inside_the_positions() {
        let mut dv = DeleteVector::new();
        for p in [3, 10, 11, 40] {
            dv.mark(p, Epoch(p));
        }
        let positions =
            |r: std::ops::Range<u64>| -> Vec<u64> { dv.range(r).iter().map(|e| e.0).collect() };
        assert_eq!(positions(0..100), vec![3, 10, 11, 40]);
        assert_eq!(positions(10..40), vec![10, 11]);
        assert_eq!(positions(4..10), Vec::<u64>::new());
        assert_eq!(positions(41..u64::MAX), Vec::<u64>::new());
    }

    #[test]
    fn mark_and_visibility() {
        let mut dv = DeleteVector::new();
        dv.mark(10, Epoch(5));
        dv.mark(3, Epoch(7));
        assert!(dv.is_deleted(10, Epoch(5)));
        assert!(dv.is_deleted(10, Epoch(9)));
        assert!(
            !dv.is_deleted(10, Epoch(4)),
            "historical query sees the row"
        );
        assert!(!dv.is_deleted(4, Epoch(100)));
        assert_eq!(dv.delete_epoch(3), Some(Epoch(7)));
        assert_eq!(dv.len(), 2);
    }

    #[test]
    fn double_delete_keeps_first_epoch() {
        let mut dv = DeleteVector::new();
        dv.mark(1, Epoch(3));
        dv.mark(1, Epoch(9));
        assert_eq!(dv.delete_epoch(1), Some(Epoch(3)));
        assert_eq!(dv.len(), 1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut dv = DeleteVector::new();
        // One bulk delete at epoch 4, another at epoch 9.
        dv.mark_all(&[5, 6, 7, 100, 10_000], Epoch(4));
        dv.mark_all(&[8, 200], Epoch(9));
        let bytes = dv.encode();
        assert_eq!(DeleteVector::decode(&bytes).unwrap(), dv);
    }

    #[test]
    fn bulk_deletes_compress_well() {
        // 10k consecutive positions deleted at one epoch: ~1 byte each for
        // the position delta, ~4 bytes total for the epoch run.
        let mut dv = DeleteVector::new();
        let positions: Vec<u64> = (0..10_000).collect();
        dv.mark_all(&positions, Epoch(2));
        let bytes = dv.encode();
        assert!(bytes.len() < 11_000, "dv bytes = {}", bytes.len());
        assert_eq!(DeleteVector::decode(&bytes).unwrap().len(), 10_000);
    }

    #[test]
    fn purgeable_counts_ancient_deletes() {
        let mut dv = DeleteVector::new();
        dv.mark(1, Epoch(2));
        dv.mark(2, Epoch(5));
        dv.mark(3, Epoch(9));
        assert_eq!(dv.purgeable(Epoch(5)), 2);
        assert_eq!(dv.purgeable(Epoch(1)), 0);
    }

    #[test]
    fn empty_round_trip() {
        let dv = DeleteVector::new();
        assert_eq!(DeleteVector::decode(&dv.encode()).unwrap(), dv);
        assert!(!dv.is_deleted(0, Epoch(100)));
    }

    #[test]
    fn corrupt_rejected() {
        let mut dv = DeleteVector::new();
        dv.mark_all(&[1, 2, 3], Epoch(1));
        let bytes = dv.encode();
        assert!(DeleteVector::decode(&bytes[..bytes.len() - 1]).is_err());
    }
}
