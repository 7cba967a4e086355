//! Delta Value encoding (§3.4.1 type 3): difference from the block minimum.
//!
//! "Data is recorded as a difference from the smallest value in a data
//! block. This type is best used for many-valued, unsorted integer or
//! integer-based columns." Integer-based covers TIMESTAMP and BOOLEAN.

use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult};

/// Encode non-NULL integral values; `tag` (0 = Integer, 1 = Timestamp,
/// 2 = Boolean) is preserved so decode restores the value variant.
pub fn encode(tag: u8, ints: &[i64], w: &mut Writer) {
    let min = ints.iter().copied().min().unwrap_or(0);
    w.put_u8(tag);
    w.put_ivarint(min);
    for v in ints {
        // Difference from the smallest value is non-negative by definition,
        // so an unsigned varint is the tightest representation; taken
        // modulo 2^64 it also holds a block spanning more than `i64::MAX`.
        w.put_uvarint(v.wrapping_sub(min) as u64);
    }
}

/// Decode straight into a native `i64` buffer (no per-row `Value`
/// construction); the returned tag is 0=Integer, 1=Timestamp, 2=Boolean.
pub fn decode_native(r: &mut Reader<'_>, count: usize) -> DbResult<(u8, Vec<i64>)> {
    let tag = r.get_u8()?;
    if tag > 2 {
        return Err(DbError::Corrupt(format!("bad delta-value tag {tag}")));
    }
    let min = r.get_ivarint()?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(min.wrapping_add(r.get_uvarint()? as i64));
    }
    Ok((tag, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(tag: u8, ints: &[i64]) -> usize {
        let mut w = Writer::new();
        encode(tag, ints, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            decode_native(&mut Reader::new(&bytes), ints.len()).unwrap(),
            (tag, ints.to_vec())
        );
        bytes.len()
    }

    #[test]
    fn round_trip_unsorted_ints() {
        round_trip(0, &[500, 123, 999, 456, 123]);
    }

    #[test]
    fn round_trip_preserves_the_type_tag() {
        round_trip(1, &[1000, 2000]);
        round_trip(2, &[1, 0, 1]);
    }

    #[test]
    fn clustered_values_beat_plain() {
        // Values clustered near 1e12: plain tagged varints need ~6 bytes
        // each; deltas from min need ~2.
        let base = 1_000_000_000_000i64;
        let ints: Vec<i64> = (0..1000).map(|i| base + (i * 37) % 10_000).collect();
        let delta = round_trip(0, &ints);
        let mut pw = Writer::new();
        for &v in &ints {
            pw.put_value(&vdb_types::Value::Integer(v));
        }
        assert!(delta < pw.len() / 2, "delta {delta} vs plain {}", pw.len());
    }

    #[test]
    fn negative_values_and_the_full_range() {
        round_trip(0, &[-100, -5, -100, 0]);
        round_trip(0, &[i64::MAX, i64::MIN, 0, -1]);
    }
}
