//! Write Optimized Store (§3.7).
//!
//! "Data in the WOS is solely in memory ... The WOS's primary purpose is to
//! buffer small data inserts, deletes and updates so that writes to
//! physical structures contain a sufficient number of rows to amortize the
//! cost of the writing. ... Data is not encoded or compressed when it is in
//! the WOS. However, it is segmented according to the projection's
//! segmentation expression." The paper notes the WOS flip-flopped between
//! row and column orientation with no measurable difference; we use row
//! orientation (the engineering-simplicity choice it landed on).

use crate::delete_vector::DeleteVector;
use vdb_types::{DbResult, Epoch, Row, Value};

/// One buffered row with its commit epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct WosRow {
    pub epoch: Epoch,
    pub row: Row,
}

/// The in-memory write buffer for one projection on one node. Rows keep
/// stable positions (indexes) until moveout so delete vectors can target
/// them — the DVWOS of §3.7.1.
#[derive(Debug, Default)]
pub struct Wos {
    rows: Vec<WosRow>,
    deletes: DeleteVector,
    approx_bytes: usize,
}

impl Wos {
    pub fn new() -> Wos {
        Wos::default()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rough memory footprint, used by the tuple mover's moveout trigger.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    pub fn insert(&mut self, row: Row, epoch: Epoch) -> u64 {
        self.approx_bytes += approx_row_bytes(&row);
        self.rows.push(WosRow { epoch, row });
        (self.rows.len() - 1) as u64
    }

    /// Mark a WOS position deleted (DVWOS).
    pub fn mark_deleted(&mut self, position: u64, epoch: Epoch) {
        self.deletes.mark(position, epoch);
    }

    pub fn deletes(&self) -> &DeleteVector {
        &self.deletes
    }

    /// Rows visible at `snapshot`, borrowed in insertion order: committed
    /// at or before it and not deleted at or before it.
    pub fn visible_iter(&self, snapshot: Epoch) -> impl Iterator<Item = &Row> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(move |(i, wr)| {
                wr.epoch <= snapshot && !self.deletes.is_deleted(*i as u64, snapshot)
            })
            .map(|(_, wr)| &wr.row)
    }

    /// Owned copy of [`Wos::visible_iter`] (a scan snapshot outlives the
    /// store lock).
    pub fn visible_rows(&self, snapshot: Epoch) -> Vec<Row> {
        self.visible_iter(snapshot).cloned().collect()
    }

    /// Iterate all rows with epochs and delete marks (for moveout, which
    /// must carry history forward).
    pub fn all_rows(&self) -> impl Iterator<Item = (u64, &WosRow, Option<Epoch>)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, wr)| (i as u64, wr, self.deletes.delete_epoch(i as u64)))
    }

    /// The lowest epoch present in the WOS (rows not yet moved out). The
    /// projection's Last Good Epoch is just below this (§5.1).
    pub fn min_epoch(&self) -> Option<Epoch> {
        self.rows.iter().map(|wr| wr.epoch).min()
    }

    /// Drain rows committed at or before `up_to` for moveout. Returns
    /// `(row, commit_epoch, delete_epoch)` triples; remaining rows keep
    /// fresh positions and their delete marks are re-based.
    pub fn drain_up_to(&mut self, up_to: Epoch) -> DbResult<Vec<(Row, Epoch, Option<Epoch>)>> {
        crate::fault::fire(crate::fault::WOS_BEFORE_DRAIN)?;
        let mut moved = Vec::new();
        let mut kept_rows = Vec::new();
        let mut kept_deletes = DeleteVector::new();
        for (i, wr) in self.rows.drain(..).enumerate() {
            let del = self.deletes.delete_epoch(i as u64);
            if wr.epoch <= up_to {
                moved.push((wr.row, wr.epoch, del));
            } else {
                if let Some(d) = del {
                    kept_deletes.mark(kept_rows.len() as u64, d);
                }
                kept_rows.push(wr);
            }
        }
        self.rows = kept_rows;
        self.deletes = kept_deletes;
        self.approx_bytes = self.rows.iter().map(|wr| approx_row_bytes(&wr.row)).sum();
        Ok(moved)
    }
}

/// Rough in-memory size of a row (uncompressed, per §3.7).
pub fn approx_row_bytes(row: &[Value]) -> usize {
    row.iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Integer(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Boolean(_) => 1,
            Value::Varchar(s) => 24 + s.len(),
        })
        .sum::<usize>()
        + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(i: i64) -> Row {
        vec![Value::Integer(i)]
    }

    #[test]
    fn insert_and_visibility() {
        let mut wos = Wos::new();
        wos.insert(row(1), Epoch(1));
        wos.insert(row(2), Epoch(2));
        wos.insert(row(3), Epoch(3));
        assert_eq!(wos.visible_rows(Epoch(2)), vec![row(1), row(2)]);
        assert_eq!(wos.visible_rows(Epoch(0)), Vec::<Row>::new());
        assert_eq!(wos.len(), 3);
        assert!(wos.approx_bytes() > 0);
    }

    #[test]
    fn deletes_respect_snapshots() {
        let mut wos = Wos::new();
        let p = wos.insert(row(1), Epoch(1));
        wos.insert(row(2), Epoch(1));
        wos.mark_deleted(p, Epoch(3));
        assert_eq!(wos.visible_rows(Epoch(2)), vec![row(1), row(2)]);
        assert_eq!(wos.visible_rows(Epoch(3)), vec![row(2)]);
    }

    #[test]
    fn drain_carries_history_and_rebases() {
        let mut wos = Wos::new();
        wos.insert(row(1), Epoch(1));
        wos.insert(row(2), Epoch(5)); // stays
        wos.insert(row(3), Epoch(2));
        wos.mark_deleted(0, Epoch(4)); // deleted row still moves out
        wos.mark_deleted(1, Epoch(6)); // delete on kept row must re-base
        let moved = wos.drain_up_to(Epoch(3)).unwrap();
        assert_eq!(
            moved,
            vec![(row(1), Epoch(1), Some(Epoch(4))), (row(3), Epoch(2), None),]
        );
        assert_eq!(wos.len(), 1);
        // The kept row (was position 1) is now position 0, delete intact.
        assert_eq!(wos.deletes().delete_epoch(0), Some(Epoch(6)));
        assert_eq!(wos.min_epoch(), Some(Epoch(5)));
    }

    #[test]
    fn min_epoch_tracks_lge() {
        let mut wos = Wos::new();
        assert_eq!(wos.min_epoch(), None);
        wos.insert(row(1), Epoch(7));
        wos.insert(row(2), Epoch(3));
        assert_eq!(wos.min_epoch(), Some(Epoch(3)));
    }
}
