//! Block Dictionary encoding (§3.4.1 type 4).
//!
//! "Within a data block, distinct column values are stored in a dictionary
//! and actual values are replaced with references to the dictionary. This
//! type is best for few-valued, unsorted columns such as stock prices."
//!
//! The dictionary is sorted so that references are ordinal and the block's
//! min/max fall out of the first/last entries; indexes are bit-packed at
//! `ceil(log2(dict_len))` bits.

use crate::kernels::{BlockCells, KeySet};
use vdb_compress::bitio::{BitReader, BitWriter};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult, Value};

/// Dictionaries beyond this size stop paying for themselves; blocks with
/// more distinct values are not encoded this way.
pub const MAX_DICT: usize = 4096;

fn index_width(dict_len: usize) -> u32 {
    if dict_len <= 1 {
        0
    } else {
        (usize::BITS - (dict_len - 1).leading_zeros()).max(1)
    }
}

/// Encode the non-NULL cells of a block. Distinct cells are collected by
/// key in first-seen order, sorted once, and every cell is replaced by its
/// entry's rank.
pub(crate) fn encode_cells<C: BlockCells>(c: C, w: &mut Writer) -> DbResult<()> {
    let mut set = KeySet::with_cap(MAX_DICT.min(c.len()));
    let mut firsts: Vec<usize> = Vec::new();
    let mut seen: Vec<u32> = Vec::with_capacity(c.len());
    for i in (0..c.len()).filter(|&i| !c.is_null(i)) {
        let at = set.insert(c.key(i)).ok_or_else(|| {
            DbError::Execution(format!("block dictionary over {MAX_DICT} distinct values"))
        })?;
        if at as usize == firsts.len() {
            firsts.push(i);
        }
        seen.push(at);
    }
    let mut order: Vec<u32> = (0..firsts.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| c.cmp(firsts[a as usize], firsts[b as usize]));
    let mut rank = vec![0u64; order.len()];
    w.put_uvarint(order.len() as u64);
    for (r, &entry) in order.iter().enumerate() {
        rank[entry as usize] = r as u64;
        c.put(firsts[entry as usize], w);
    }
    let width = index_width(order.len());
    let mut bits = BitWriter::new();
    for at in seen {
        bits.write_bits(rank[at as usize], width);
    }
    w.put_bytes(&bits.finish());
    Ok(())
}

/// Decode into the dictionary plus per-row codes, without expanding values
/// (the execution engine keeps dictionary-coded columns coded).
pub fn decode_native(r: &mut Reader<'_>, count: usize) -> DbResult<(Vec<Value>, Vec<u32>)> {
    let dict_len = r.get_uvarint()? as usize;
    if dict_len > MAX_DICT {
        return Err(DbError::Corrupt("dictionary too large".into()));
    }
    let mut dict = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(r.get_value()?);
    }
    let packed = r.get_bytes()?;
    let width = index_width(dict_len);
    let mut bits = BitReader::new(packed);
    let mut codes = Vec::with_capacity(count);
    for _ in 0..count {
        let idx = bits
            .read_bits(width)
            .map_err(|e| DbError::Corrupt(e.to_string()))?;
        if idx as usize >= dict_len {
            return Err(DbError::Corrupt("dictionary index out of range".into()));
        }
        codes.push(idx as u32);
    }
    Ok((dict, codes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::with_cells;
    use crate::typed::TypedColumn;

    fn encode(vals: &[Value], w: &mut Writer) -> DbResult<()> {
        let col = TypedColumn::from_values(vals);
        with_cells!(&col.view(), |c| encode_cells(c, w))
    }

    fn decode(r: &mut Reader<'_>, count: usize) -> DbResult<Vec<Value>> {
        let (dict, codes) = decode_native(r, count)?;
        Ok(codes
            .into_iter()
            .map(|c| dict[c as usize].clone())
            .collect())
    }

    #[test]
    fn round_trip_strings() {
        let vals: Vec<Value> = ["GOOG", "HPQ", "GOOG", "IBM", "HPQ", "GOOG"]
            .iter()
            .map(|s| Value::Varchar((*s).into()))
            .collect();
        let mut w = Writer::new();
        encode(&vals, &mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(decode(&mut Reader::new(&bytes), 6).unwrap(), vals);
    }

    #[test]
    fn few_valued_floats_compress() {
        // "stock prices": a few distinct float values repeated many times,
        // unsorted.
        let prices = [101.25, 101.5, 101.75, 102.0];
        let vals: Vec<Value> = (0..4000)
            .map(|i| Value::Float(prices[(i * 7) % 4]))
            .collect();
        let mut w = Writer::new();
        encode(&vals, &mut w).unwrap();
        // 2-bit indexes: 4000 values ≈ 1000 bytes + tiny dict.
        assert!(w.len() < 1100, "dict bytes = {}", w.len());
        let bytes = w.into_bytes();
        assert_eq!(decode(&mut Reader::new(&bytes), 4000).unwrap(), vals);
    }

    #[test]
    fn single_distinct_value_uses_zero_width() {
        let vals = vec![Value::Integer(9); 100];
        let mut w = Writer::new();
        encode(&vals, &mut w).unwrap();
        assert!(w.len() < 16);
        let bytes = w.into_bytes();
        assert_eq!(decode(&mut Reader::new(&bytes), 100).unwrap(), vals);
    }

    #[test]
    fn nulls_stay_out_of_the_dictionary() {
        // NULL positions ride the block bitmap; the payload holds the one
        // non-NULL cell.
        let vals = vec![Value::Null, Value::Integer(1), Value::Null];
        let mut w = Writer::new();
        encode(&vals, &mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(
            decode(&mut Reader::new(&bytes), 1).unwrap(),
            vec![Value::Integer(1)]
        );
    }

    #[test]
    fn applicability_bound() {
        let many: Vec<Value> = (0..(MAX_DICT as i64 + 1)).map(Value::Integer).collect();
        assert!(encode(&many, &mut Writer::new()).is_err());
        let few: Vec<Value> = (0..10).map(Value::Integer).collect();
        assert!(encode(&few, &mut Writer::new()).is_ok());
    }
}
