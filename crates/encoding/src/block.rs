//! Block-level encode/decode with centralized NULL handling.
//!
//! Layout of an encoded block:
//!
//! ```text
//! [encoding tag: u8] [count: uvarint] [null flag: u8]
//! [if nulls: null bitmap, ceil(count/8) bytes]
//! [codec payload over the non-null values]
//! ```
//!
//! The specialized codecs (delta/dictionary families) only see non-null
//! values; NULL positions are carried in the bitmap. RLE and Plain handle
//! NULLs natively (a NULL run is a perfectly good run), so they skip the
//! bitmap, keeping the common sorted-leading-column path allocation-free.
//!
//! Both directions are typed. [`decode_block_native`] lands a block in a
//! [`NativeBlock`]; [`encode_typed_block`] takes the same shapes back as a
//! [`TypedSlice`] (`i64`/`f64`/dictionary codes + NULL bitmap), resolves
//! the requested encoding, writes the block and returns its [`BlockMeta`].
//! [`encode_block`] is the `Value` adapter: it classifies the values into
//! a [`TypedColumn`] and encodes that, so both entries write the same
//! bytes. A block with no non-NULL cell has no type: it is encoded as the
//! integer family whatever column it belongs to.

use crate::kernels::{distinct_at_most, min_max, with_cells, BlockCells};
use crate::position_index::BlockMeta;
use crate::typed::{TypedColumn, TypedSlice};
use crate::{
    auto, block_dict, common_delta, delta_delta, delta_range, delta_value, for_bitpack, plain, rle,
    EncodingType,
};
use std::borrow::Cow;
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DataType, DbError, DbResult, Value};

/// Result of decoding a block: either expanded values or RLE runs (for the
/// encoded-execution path of §6.1).
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedBlock {
    Values(Vec<Value>),
    Runs(Vec<(Value, u32)>),
}

impl DecodedBlock {
    /// Expand to plain values.
    pub fn into_values(self) -> Vec<Value> {
        match self {
            DecodedBlock::Values(v) => v,
            DecodedBlock::Runs(runs) => {
                let total: usize = runs.iter().map(|(_, n)| *n as usize).sum();
                let mut out = Vec::with_capacity(total);
                for (v, n) in runs {
                    for _ in 0..n {
                        out.push(v.clone());
                    }
                }
                out
            }
        }
    }

    /// Row count without expansion.
    pub fn len(&self) -> usize {
        match self {
            DecodedBlock::Values(v) => v.len(),
            DecodedBlock::Runs(runs) => runs.iter().map(|(_, n)| *n as usize).sum(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Encode one block of values: the `Value` adapter over
/// [`encode_typed_block`]. Returns the concrete encoding actually used
/// (Auto resolves; inapplicable requests fall back to Plain — the storage
/// layer records the concrete tag in the position index).
pub fn encode_block(values: &[Value], requested: EncodingType, w: &mut Writer) -> EncodingType {
    let typed = TypedColumn::from_values(values);
    encode_typed_block(&typed.view(), requested, 0, w)
        .expect("a classified block is well-formed")
        .encoding
}

/// What the specialized codecs can see of a block: its non-NULL cells as
/// one native slice, compacted only when the block has NULLs.
pub(crate) enum Family<'a> {
    /// Integral values with their codec type tag (0 = Integer,
    /// 1 = Timestamp, 2 = Boolean). A block with no non-NULL cell is `Int`
    /// tag 0 with no values, whatever the column's type.
    Int {
        tag: u8,
        values: Cow<'a, [i64]>,
    },
    Float(Cow<'a, [f64]>),
    /// Strings and type-mixing blocks: Plain, RLE or dictionary only.
    Other,
}

fn non_null<'a, T: Copy>(values: &'a [T], nulls: Option<&[u8]>) -> Cow<'a, [T]> {
    match nulls {
        None => Cow::Borrowed(values),
        Some(b) => Cow::Owned(
            (0..values.len())
                .filter(|&i| !bitmap_is_null(b, i))
                .map(|i| values[i])
                .collect(),
        ),
    }
}

impl<'a> Family<'a> {
    pub(crate) fn of(block: &TypedSlice<'a>) -> Family<'a> {
        if block.null_count() == block.len() {
            return Family::Int {
                tag: 0,
                values: Cow::Borrowed(&[]),
            };
        }
        match *block {
            TypedSlice::I64 { ty, values, nulls } => Family::Int {
                tag: match ty {
                    DataType::Timestamp => 1,
                    DataType::Boolean => 2,
                    _ => 0,
                },
                values: non_null(values, nulls),
            },
            TypedSlice::F64 { values, nulls } => Family::Float(non_null(values, nulls)),
            _ => Family::Other,
        }
    }
}

/// Resolve a requested encoding against the data: Auto picks; inapplicable
/// specialized codecs fall back to Plain.
fn resolve<C: BlockCells>(c: C, family: &Family<'_>, requested: EncodingType) -> EncodingType {
    let applicable = match (requested, family) {
        (EncodingType::Auto, _) => return auto::choose(c, family),
        (EncodingType::Plain | EncodingType::Rle, _) => true,
        (EncodingType::BlockDict, _) => distinct_at_most(c, block_dict::MAX_DICT),
        (EncodingType::DeltaValue | EncodingType::ForBitPack, Family::Int { .. }) => true,
        (EncodingType::DeltaRange, Family::Float(_)) => true,
        (EncodingType::DeltaRange | EncodingType::DeltaDelta, Family::Int { tag: 0 | 1, .. }) => {
            true
        }
        (EncodingType::CommonDelta, Family::Int { tag: 0 | 1, values }) => {
            common_delta::applicable(values)
        }
        _ => false,
    };
    match applicable {
        true => requested,
        false => EncodingType::Plain,
    }
}

/// Encode one typed block at the end of `w` and describe it: the concrete
/// encoding (see [`encode_block`]), where its bytes lie in `w`, min/max and
/// NULL count. Malformed input ([`TypedSlice::check`]) is an error.
pub fn encode_typed_block(
    block: &TypedSlice<'_>,
    requested: EncodingType,
    start_position: u64,
    w: &mut Writer,
) -> DbResult<BlockMeta> {
    block.check()?;
    let byte_offset = w.len() as u64;
    let family = Family::of(block);
    let (encoding, (ends, null_count)) = with_cells!(block, |c| {
        let encoding = resolve(c, &family, requested);
        encode_cells(c, &family, encoding, w)?;
        (encoding, min_max(c))
    });
    let (min, max) = ends.map_or((Value::Null, Value::Null), |(lo, hi)| {
        (block.value_at(lo), block.value_at(hi))
    });
    Ok(BlockMeta {
        start_position,
        count: block.len() as u32,
        byte_offset,
        byte_len: (w.len() as u64 - byte_offset) as u32,
        encoding,
        min,
        max,
        null_count,
    })
}

/// Header, NULL bitmap and payload of one block in a resolved encoding.
fn encode_cells<C: BlockCells>(
    c: C,
    family: &Family<'_>,
    encoding: EncodingType,
    w: &mut Writer,
) -> DbResult<()> {
    let n = c.len();
    w.put_u8(encoding.tag());
    w.put_uvarint(n as u64);
    match encoding {
        // RLE and Plain carry NULLs in their payload.
        EncodingType::Plain => {
            w.put_u8(0);
            plain::encode_cells(c, w);
            return Ok(());
        }
        EncodingType::Rle => {
            w.put_u8(0);
            rle::encode_cells(c, w);
            return Ok(());
        }
        EncodingType::Auto => unreachable!("resolve() returns concrete encodings"),
        _ => {}
    }
    let mut bitmap = vec![0u8; n.div_ceil(8)];
    let mut has_nulls = false;
    for i in (0..n).filter(|&i| c.is_null(i)) {
        bitmap[i / 8] |= 1 << (i % 8);
        has_nulls = true;
    }
    w.put_u8(u8::from(has_nulls));
    if has_nulls {
        w.put_raw(&bitmap);
    }
    match (encoding, family) {
        (EncodingType::BlockDict, _) => block_dict::encode_cells(c, w)?,
        (EncodingType::DeltaValue, Family::Int { tag, values }) => {
            delta_value::encode(*tag, values, w)
        }
        (EncodingType::ForBitPack, Family::Int { tag, values }) => {
            for_bitpack::encode(*tag, values, w)
        }
        (EncodingType::DeltaDelta, Family::Int { tag, values }) => {
            delta_delta::encode(*tag, values, w)
        }
        (EncodingType::CommonDelta, Family::Int { tag, values }) => {
            common_delta::encode(*tag, values, w)?
        }
        (EncodingType::DeltaRange, Family::Int { tag, values }) => {
            delta_range::encode_ints(*tag, values, w)
        }
        (EncodingType::DeltaRange, Family::Float(values)) => delta_range::encode_floats(values, w),
        _ => unreachable!("resolve() guaranteed applicability"),
    }
    Ok(())
}

/// A decoded block in type-native form: the decode-into-vector surface the
/// execution engine's typed vectors are built from. Specialized codecs land
/// in native buffers without constructing a `Value` per row; `nulls` is the
/// on-disk null bitmap (bit set = NULL; values at null positions are
/// padding).
#[derive(Debug, Clone, PartialEq)]
pub enum NativeBlock {
    /// Integer-family payload; `ty` is `Integer`, `Timestamp` or `Boolean`.
    I64 {
        ty: DataType,
        values: Vec<i64>,
        nulls: Option<Vec<u8>>,
    },
    F64 {
        values: Vec<f64>,
        nulls: Option<Vec<u8>>,
    },
    /// Dictionary-coded strings: per-row codes into `dict`.
    Str {
        dict: Vec<String>,
        codes: Vec<u32>,
        nulls: Option<Vec<u8>>,
    },
    /// RLE runs, kept first-class for encoded execution.
    Runs(Vec<(Value, u32)>),
    /// Fallback for mixed-type or plain blocks.
    Values(Vec<Value>),
}

/// Is position `i` marked NULL in an on-disk null bitmap?
pub fn bitmap_is_null(bitmap: &[u8], i: usize) -> bool {
    bitmap[i / 8] & (1 << (i % 8)) != 0
}

impl NativeBlock {
    /// Row count without expansion.
    pub fn len(&self) -> usize {
        match self {
            NativeBlock::I64 { values, .. } => values.len(),
            NativeBlock::F64 { values, .. } => values.len(),
            NativeBlock::Str { codes, .. } => codes.len(),
            NativeBlock::Runs(runs) => runs.iter().map(|(_, n)| *n as usize).sum(),
            NativeBlock::Values(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand into the `Value`-level [`DecodedBlock`] form (compatibility
    /// edge for positional fetches and the legacy decode path).
    pub fn into_decoded(self) -> DecodedBlock {
        fn expand<T>(
            items: Vec<T>,
            nulls: Option<Vec<u8>>,
            mut make: impl FnMut(T) -> Value,
        ) -> Vec<Value> {
            match nulls {
                None => items.into_iter().map(make).collect(),
                Some(bitmap) => items
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| {
                        if bitmap_is_null(&bitmap, i) {
                            Value::Null
                        } else {
                            make(v)
                        }
                    })
                    .collect(),
            }
        }
        match self {
            NativeBlock::I64 { ty, values, nulls } => {
                DecodedBlock::Values(expand(values, nulls, |v| match ty {
                    DataType::Timestamp => Value::Timestamp(v),
                    DataType::Boolean => Value::Boolean(v != 0),
                    _ => Value::Integer(v),
                }))
            }
            NativeBlock::F64 { values, nulls } => {
                DecodedBlock::Values(expand(values, nulls, Value::Float))
            }
            NativeBlock::Str { dict, codes, nulls } => {
                DecodedBlock::Values(expand(codes, nulls, |c| {
                    Value::Varchar(dict[c as usize].clone())
                }))
            }
            NativeBlock::Runs(runs) => DecodedBlock::Runs(runs),
            NativeBlock::Values(v) => DecodedBlock::Values(v),
        }
    }
}

/// Scatter `non_null` values into a full-length buffer, placing `default`
/// at NULL positions.
fn scatter<T: Clone>(
    non_null: Vec<T>,
    bitmap: &[u8],
    count: usize,
    default: T,
) -> DbResult<Vec<T>> {
    let mut out = Vec::with_capacity(count);
    let mut it = non_null.into_iter();
    for i in 0..count {
        if bitmap_is_null(bitmap, i) {
            out.push(default.clone());
        } else {
            out.push(
                it.next()
                    .ok_or_else(|| DbError::Corrupt("null bitmap / payload mismatch".into()))?,
            );
        }
    }
    Ok(out)
}

/// Decode one block into native form (no per-row `Value` construction for
/// the specialized codecs).
pub fn decode_block_native(r: &mut Reader<'_>) -> DbResult<NativeBlock> {
    Ok(decode_block_native_selected(r, None)?.0)
}

/// Selection-pushdown decode (§6.1 late materialization): decode only what
/// the selection `sel` (sorted row indexes within the block) can observe.
///
/// The contract: the returned block always has the block's full row count,
/// but positions **outside** the selection hold unspecified padding — the
/// caller must only inspect selected positions. Serial codecs stop after
/// the last selected row; the fixed-stride frame-of-reference codec decodes
/// exactly the selected slots. The second return value counts the rows
/// whose decode work was skipped.
pub fn decode_block_native_selected(
    r: &mut Reader<'_>,
    sel: Option<&[u32]>,
) -> DbResult<(NativeBlock, u64)> {
    let encoding = EncodingType::from_tag(r.get_u8()?)?;
    let count = r.get_uvarint()? as usize;
    let has_nulls = r.get_u8()? != 0;
    // Serial codecs must decode every row up to (and including) the last
    // selected one; everything after is padding.
    let needed = match sel {
        Some(s) => s.last().map_or(0, |&m| m as usize + 1).min(count),
        None => count,
    };
    let tail_skipped = (count - needed) as u64;
    match encoding {
        EncodingType::Plain => {
            let mut vals = plain::decode(r, needed)?;
            vals.resize(count, Value::Null);
            Ok((NativeBlock::Values(vals), tail_skipped))
        }
        // Runs are already the compressed form — decoding them is O(runs),
        // so there is nothing worth skipping.
        EncodingType::Rle => Ok((NativeBlock::Runs(rle::decode_runs(r, count)?), 0)),
        EncodingType::Auto => Err(DbError::Corrupt("Auto tag on disk".into())),
        specialized => {
            let (null_bitmap, non_null_needed) = if has_nulls {
                let bitmap = r.get_raw(count.div_ceil(8))?.to_vec();
                let non_null = (0..needed).filter(|&i| !bitmap_is_null(&bitmap, i)).count();
                (Some(bitmap), non_null)
            } else {
                (None, needed)
            };
            let int_ty = |tag: u8| match tag {
                1 => DataType::Timestamp,
                2 => DataType::Boolean,
                _ => DataType::Integer,
            };
            // Scatter the decoded prefix over null positions, then pad the
            // unneeded tail.
            let finish_i64 = |ty: DataType, values: Vec<i64>| -> DbResult<NativeBlock> {
                let (mut values, nulls) = match &null_bitmap {
                    None => (values, None),
                    Some(b) => (scatter(values, b, needed, 0)?, null_bitmap.clone()),
                };
                values.resize(count, 0);
                Ok(NativeBlock::I64 { ty, values, nulls })
            };
            match specialized {
                EncodingType::DeltaValue => {
                    let (tag, values) = delta_value::decode_native(r, non_null_needed)?;
                    Ok((finish_i64(int_ty(tag), values)?, tail_skipped))
                }
                EncodingType::CommonDelta => {
                    let (tag, values) = common_delta::decode_native(r, non_null_needed)?;
                    Ok((finish_i64(int_ty(tag), values)?, tail_skipped))
                }
                EncodingType::DeltaDelta => {
                    let (tag, values) = delta_delta::decode_native(r, non_null_needed)?;
                    Ok((finish_i64(int_ty(tag), values)?, tail_skipped))
                }
                EncodingType::ForBitPack => match (sel, &null_bitmap) {
                    // Fixed stride + no nulls: slot index == row index, so
                    // decode exactly the selected rows.
                    (Some(s), None) => {
                        let (tag, values) = for_bitpack::decode_native_selected(r, count, s)?;
                        Ok((
                            NativeBlock::I64 {
                                ty: int_ty(tag),
                                values,
                                nulls: None,
                            },
                            (count - s.len()) as u64,
                        ))
                    }
                    _ => {
                        let (tag, values) = for_bitpack::decode_native(r, non_null_needed)?;
                        Ok((finish_i64(int_ty(tag), values)?, tail_skipped))
                    }
                },
                EncodingType::DeltaRange => match delta_range::decode_native(r, non_null_needed)? {
                    delta_range::NativeRange::I64(tag, values) => {
                        Ok((finish_i64(int_ty(tag), values)?, tail_skipped))
                    }
                    delta_range::NativeRange::F64(values) => {
                        let (mut values, nulls) = match &null_bitmap {
                            None => (values, None),
                            Some(b) => (scatter(values, b, needed, 0.0)?, null_bitmap.clone()),
                        };
                        values.resize(count, 0.0);
                        Ok((NativeBlock::F64 { values, nulls }, tail_skipped))
                    }
                },
                EncodingType::BlockDict => {
                    let (dict, codes) = block_dict::decode_native(r, non_null_needed)?;
                    let (mut codes, nulls) = match &null_bitmap {
                        None => (codes, None),
                        Some(b) => (scatter(codes, b, needed, 0)?, null_bitmap.clone()),
                    };
                    codes.resize(count, 0);
                    Ok((native_from_dict(dict, codes, nulls)?, tail_skipped))
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Lower a dictionary block into the tightest native form the dictionary's
/// value type allows.
fn native_from_dict(
    dict: Vec<Value>,
    codes: Vec<u32>,
    nulls: Option<Vec<u8>>,
) -> DbResult<NativeBlock> {
    let uniform = dict
        .first()
        .and_then(Value::data_type)
        .filter(|ty| dict.iter().all(|v| v.data_type() == Some(*ty)));
    match uniform {
        Some(DataType::Varchar) => {
            let dict = dict
                .into_iter()
                .map(|v| match v {
                    Value::Varchar(s) => s,
                    _ => unreachable!(),
                })
                .collect();
            Ok(NativeBlock::Str { dict, codes, nulls })
        }
        Some(ty @ (DataType::Integer | DataType::Timestamp | DataType::Boolean)) => {
            let native: Vec<i64> = dict.iter().map(|v| v.as_i64().unwrap()).collect();
            let values = codes.into_iter().map(|c| native[c as usize]).collect();
            Ok(NativeBlock::I64 { ty, values, nulls })
        }
        Some(DataType::Float) => {
            let native: Vec<f64> = dict.iter().map(|v| v.as_f64().unwrap()).collect();
            let values = codes.into_iter().map(|c| native[c as usize]).collect();
            Ok(NativeBlock::F64 { values, nulls })
        }
        // Mixed-type or all-NULL dictionary: fall back to expanded values.
        None => {
            let expand = |c: u32| dict[c as usize].clone();
            let values = match &nulls {
                None => codes.into_iter().map(expand).collect(),
                Some(bitmap) => codes
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| {
                        if bitmap_is_null(bitmap, i) {
                            Value::Null
                        } else {
                            expand(c)
                        }
                    })
                    .collect(),
            };
            Ok(NativeBlock::Values(values))
        }
    }
}

/// Decode one block to the `Value`-level form.
pub fn decode_block(r: &mut Reader<'_>) -> DbResult<DecodedBlock> {
    Ok(decode_block_native(r)?.into_decoded())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[Value], enc: EncodingType) -> EncodingType {
        let mut w = Writer::new();
        let used = encode_block(values, enc, &mut w);
        let bytes = w.into_bytes();
        let decoded = decode_block(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(decoded.len(), values.len());
        assert_eq!(decoded.into_values(), values);
        used
    }

    #[test]
    fn every_concrete_encoding_round_trips_ints() {
        let vals: Vec<Value> = (0..500).map(|i| Value::Integer(i % 37)).collect();
        for e in EncodingType::CONCRETE {
            round_trip(&vals, e);
        }
    }

    #[test]
    fn nulls_round_trip_through_specialized_codecs() {
        let vals: Vec<Value> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Integer(i)
                }
            })
            .collect();
        for e in [
            EncodingType::DeltaValue,
            EncodingType::BlockDict,
            EncodingType::DeltaRange,
            EncodingType::CommonDelta,
            EncodingType::Rle,
            EncodingType::Plain,
        ] {
            round_trip(&vals, e);
        }
    }

    #[test]
    fn inapplicable_request_falls_back_to_plain() {
        let vals = vec![Value::Varchar("a".into()), Value::Varchar("b".into())];
        let used = round_trip(&vals, EncodingType::DeltaValue);
        assert_eq!(used, EncodingType::Plain);
    }

    #[test]
    fn rle_blocks_decode_as_runs() {
        let vals = vec![Value::Integer(1); 100];
        let mut w = Writer::new();
        encode_block(&vals, EncodingType::Rle, &mut w);
        let bytes = w.into_bytes();
        match decode_block(&mut Reader::new(&bytes)).unwrap() {
            DecodedBlock::Runs(runs) => assert_eq!(runs, vec![(Value::Integer(1), 100)]),
            DecodedBlock::Values(_) => panic!("rle should decode to runs"),
        }
    }

    #[test]
    fn empty_block() {
        round_trip(&[], EncodingType::Plain);
        round_trip(&[], EncodingType::Rle);
    }

    #[test]
    fn auto_never_writes_auto_tag() {
        let vals: Vec<Value> = (0..100).map(Value::Integer).collect();
        let mut w = Writer::new();
        let used = encode_block(&vals, EncodingType::Auto, &mut w);
        assert_ne!(used, EncodingType::Auto);
        let bytes = w.into_bytes();
        assert_ne!(bytes[0], EncodingType::Auto.tag());
    }
}
