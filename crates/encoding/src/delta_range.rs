//! Compressed Delta Range encoding (§3.4.1 type 5).
//!
//! "Stores each value as a delta from the previous one. This type is ideal
//! for many-valued float columns that are either sorted or confined to a
//! range."
//!
//! Integral values use zig-zag varint deltas. Floats use XOR-against-
//! previous of the IEEE bits (varint-coded), which collapses to 1 byte for
//! repeated values and short codes for values in a confined range sharing
//! exponent and high mantissa bits.

use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult};

/// Encode non-NULL integral values; `tag` is 0 = Integer, 1 = Timestamp.
pub fn encode_ints(tag: u8, ints: &[i64], w: &mut Writer) {
    w.put_u8(tag);
    let mut prev = 0i64;
    for &i in ints {
        w.put_ivarint(i.wrapping_sub(prev));
        prev = i;
    }
}

/// Encode non-NULL floats (tag 2).
pub fn encode_floats(floats: &[f64], w: &mut Writer) {
    w.put_u8(2);
    let mut prev = 0u64;
    for f in floats {
        let bits = f.to_bits();
        w.put_uvarint(bits ^ prev);
        prev = bits;
    }
}

/// Native decode result: integral (tag 0=Integer, 1=Timestamp) or float.
pub enum NativeRange {
    I64(u8, Vec<i64>),
    F64(Vec<f64>),
}

/// Decode straight into a native buffer (no per-row `Value` construction).
pub fn decode_native(r: &mut Reader<'_>, count: usize) -> DbResult<NativeRange> {
    let tag = r.get_u8()?;
    match tag {
        2 => {
            let mut out = Vec::with_capacity(count);
            let mut prev = 0u64;
            for _ in 0..count {
                let bits = r.get_uvarint()? ^ prev;
                prev = bits;
                out.push(f64::from_bits(bits));
            }
            Ok(NativeRange::F64(out))
        }
        0 | 1 => {
            let mut out = Vec::with_capacity(count);
            let mut prev = 0i64;
            for _ in 0..count {
                let v = prev.wrapping_add(r.get_ivarint()?);
                prev = v;
                out.push(v);
            }
            Ok(NativeRange::I64(tag, out))
        }
        t => Err(DbError::Corrupt(format!("bad delta-range tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_ints(ints: &[i64]) -> usize {
        let mut w = Writer::new();
        encode_ints(0, ints, &mut w);
        let bytes = w.into_bytes();
        match decode_native(&mut Reader::new(&bytes), ints.len()).unwrap() {
            NativeRange::I64(0, back) => assert_eq!(back, ints),
            _ => panic!("integral block decodes as integers"),
        }
        bytes.len()
    }

    fn round_trip_floats(floats: &[f64]) -> usize {
        let mut w = Writer::new();
        encode_floats(floats, &mut w);
        let bytes = w.into_bytes();
        match decode_native(&mut Reader::new(&bytes), floats.len()).unwrap() {
            NativeRange::F64(back) => {
                let bits = |fs: &[f64]| fs.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&back), bits(floats));
            }
            NativeRange::I64(..) => panic!("float block decodes as floats"),
        }
        bytes.len()
    }

    #[test]
    fn round_trip_sorted_ints() {
        let ints: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        // Sorted with constant stride: 1 byte per delta.
        let len = round_trip_ints(&ints);
        assert!(len < 1100, "bytes = {len}");
    }

    #[test]
    fn round_trip_floats_confined_range() {
        let floats: Vec<f64> = (0..500).map(|i| 100.0 + f64::from(i % 50) * 0.25).collect();
        // Confined range: XOR deltas stay well under the 9 bytes a raw
        // tagged f64 needs.
        let len = round_trip_floats(&floats);
        assert!(len < 9 * floats.len(), "delta-range {len}");
    }

    #[test]
    fn repeated_floats_collapse() {
        let len = round_trip_floats(&[3.125; 1000]);
        assert!(len < 1020, "repeats are 1 byte each, got {len}");
    }

    #[test]
    fn special_float_values() {
        // NaN round-trips bit-exactly.
        round_trip_floats(&[f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE]);
    }

    #[test]
    fn overflow_safe_deltas() {
        round_trip_ints(&[i64::MIN, i64::MAX]);
    }
}
