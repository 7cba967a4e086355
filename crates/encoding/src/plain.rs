//! Plain (uncompressed) encoding: tagged values back to back.
//!
//! Fallback when no specialized scheme applies; also the reference decoder
//! against which all other codecs are property-tested.

use crate::kernels::{with_cells, BlockCells};
use crate::typed::TypedSlice;
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbResult, Value};

pub fn encode(block: &TypedSlice<'_>, w: &mut Writer) {
    with_cells!(block, |c| encode_cells(c, w))
}

pub(crate) fn encode_cells<C: BlockCells>(c: C, w: &mut Writer) {
    for i in 0..c.len() {
        match c.is_null(i) {
            true => w.put_u8(0),
            false => c.put(i, w),
        }
    }
}

pub fn decode(r: &mut Reader<'_>, count: usize) -> DbResult<Vec<Value>> {
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.get_value()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed() {
        let vals = vec![
            Value::Integer(1),
            Value::Varchar("x".into()),
            Value::Float(0.5),
            Value::Boolean(false),
            Value::Timestamp(99),
        ];
        let mut w = Writer::new();
        encode(&TypedSlice::Mixed(&vals), &mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(decode(&mut r, vals.len()).unwrap(), vals);
    }
}
