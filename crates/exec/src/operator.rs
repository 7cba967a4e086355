//! The pull-model operator trait (§6.1).
//!
//! "Vertica's operators use a pull processing model: the most downstream
//! operator requests rows from the next operator upstream in the processing
//! pipeline." Operators are `Send` so the morsel pool can run pipelines on
//! its worker threads.

use crate::batch::Batch;
use vdb_types::{DbResult, Row};

/// A pull-model physical operator.
pub trait Operator: Send {
    /// Pull the next batch; `None` means end of stream. Once `None` is
    /// returned, further calls keep returning `None`.
    fn next_batch(&mut self) -> DbResult<Option<Batch>>;

    /// Operator name for EXPLAIN / debugging.
    fn name(&self) -> String;
}

pub type BoxedOperator = Box<dyn Operator>;

/// Drain an operator into row-major form (tests, DML application, and the
/// `Database` result facade — the single place a finished pipeline pivots
/// to rows). Batches are consumed via [`Batch::into_rows`] so plain column
/// values *move* instead of being cloned and then dropped.
pub fn collect_rows(op: &mut dyn Operator) -> DbResult<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(batch) = op.next_batch()? {
        out.extend(batch.into_rows());
    }
    Ok(out)
}

/// An operator yielding a fixed set of batches (test/utility source; also
/// the materialized input for replans and recovery plans).
pub struct ValuesOp {
    batches: std::vec::IntoIter<Batch>,
}

impl ValuesOp {
    pub fn new(batches: Vec<Batch>) -> ValuesOp {
        ValuesOp {
            batches: batches.into_iter(),
        }
    }

    pub fn from_rows(rows: Vec<Row>) -> ValuesOp {
        // Chunks are moved, not cloned — cloning here doubled peak memory
        // on the hash join's sort-merge fallback.
        ValuesOp::new(crate::batch::rows_into_batches(
            rows,
            crate::batch::BATCH_SIZE,
        ))
    }
}

impl Operator for ValuesOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        Ok(self.batches.next())
    }

    fn name(&self) -> String {
        "Values".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_types::Value;

    #[test]
    fn values_op_streams_batches() {
        let rows: Vec<Row> = (0..2500).map(|i| vec![Value::Integer(i)]).collect();
        let mut op = ValuesOp::from_rows(rows.clone());
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got, rows);
        assert!(op.next_batch().unwrap().is_none(), "stays exhausted");
    }
}
