//! RLE encoding (§3.4.1 type 2): `(run_length, value)` pairs.
//!
//! "Replaces sequences of identical values with a single pair that contains
//! the value and number of occurrences. This type is best for low
//! cardinality columns that are sorted." Because projections store data
//! totally sorted on their sort key (§3.1), RLE on leading sort columns is
//! the workhorse encoding — and the execution engine can consume the runs
//! *without expansion* ([`decode_runs`]), which is what "operators can
//! operate directly on encoded data" (§6.1) means for aggregation.

use crate::kernels::{run_count, runs, with_cells, BlockCells};
use crate::typed::TypedSlice;
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbResult, Value};

/// How many `(run_length, value)` pairs [`encode`] would write.
pub fn runs_in(block: &TypedSlice<'_>) -> usize {
    with_cells!(block, |c| run_count(c))
}

pub fn encode(block: &TypedSlice<'_>, w: &mut Writer) {
    with_cells!(block, |c| encode_cells(c, w))
}

pub(crate) fn encode_cells<C: BlockCells>(c: C, w: &mut Writer) {
    let runs = runs(c);
    w.put_uvarint(runs.len() as u64);
    for (first, n) in runs {
        w.put_uvarint(u64::from(n));
        match c.is_null(first) {
            true => w.put_u8(0),
            false => c.put(first, w),
        }
    }
}

/// Decode into expanded values.
pub fn decode(r: &mut Reader<'_>, count: usize) -> DbResult<Vec<Value>> {
    let runs = decode_runs(r, count)?;
    let mut out = Vec::with_capacity(count);
    for (v, n) in runs {
        for _ in 0..n {
            out.push(v.clone());
        }
    }
    Ok(out)
}

/// Decode into runs without expansion (encoded execution path).
pub fn decode_runs(r: &mut Reader<'_>, count: usize) -> DbResult<Vec<(Value, u32)>> {
    let nruns = r.get_uvarint()? as usize;
    let mut runs = Vec::with_capacity(nruns);
    let mut total = 0u64;
    for _ in 0..nruns {
        let n = r.get_uvarint()?;
        let v = r.get_value()?;
        total += n;
        runs.push((v, n as u32));
    }
    if total != count as u64 {
        return Err(vdb_types::DbError::Corrupt(format!(
            "rle run total {total} != block count {count}"
        )));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::typed::TypedColumn;

    #[test]
    fn round_trip_and_runs() {
        let vals: Vec<Value> = [1, 1, 1, 2, 2, 3, 3, 3, 3]
            .iter()
            .map(|&v| Value::Integer(v))
            .collect();
        let mut w = Writer::new();
        encode(&TypedColumn::from_values(&vals).view(), &mut w);
        let bytes = w.into_bytes();
        assert_eq!(decode(&mut Reader::new(&bytes), vals.len()).unwrap(), vals);
        let runs = decode_runs(&mut Reader::new(&bytes), vals.len()).unwrap();
        assert_eq!(
            runs,
            vec![
                (Value::Integer(1), 3),
                (Value::Integer(2), 2),
                (Value::Integer(3), 4)
            ]
        );
    }

    #[test]
    fn sorted_low_cardinality_compresses_hard() {
        // 10k sorted values over 5 distincts: RLE output is ~5 pairs.
        let mut vals = Vec::new();
        for d in 0..5 {
            vals.extend(std::iter::repeat_n(Value::Integer(d), 2000));
        }
        let mut w = Writer::new();
        encode(&TypedColumn::from_values(&vals).view(), &mut w);
        assert!(w.len() < 40, "rle bytes = {}", w.len());
    }

    #[test]
    fn nulls_form_runs_too() {
        let vals = vec![Value::Null, Value::Null, Value::Integer(1)];
        let mut w = Writer::new();
        encode(&TypedColumn::from_values(&vals).view(), &mut w);
        let bytes = w.into_bytes();
        assert_eq!(decode(&mut Reader::new(&bytes), 3).unwrap(), vals);
    }

    #[test]
    fn count_mismatch_is_corrupt() {
        let vals = vec![Value::Integer(1); 4];
        let mut w = Writer::new();
        encode(&TypedColumn::from_values(&vals).view(), &mut w);
        let bytes = w.into_bytes();
        assert!(decode(&mut Reader::new(&bytes), 5).is_err());
    }
}
