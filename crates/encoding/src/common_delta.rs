//! Compressed Common Delta encoding (§3.4.1 type 6).
//!
//! "Builds a dictionary of all the deltas in the block and then stores
//! indexes into the dictionary using entropy coding. This type is best for
//! sorted data with predictable sequences and occasional sequence breaks.
//! For example, timestamps recorded at periodic intervals or primary keys."
//!
//! The delta dictionary is tiny for periodic data (often one entry); the
//! Huffman coder from `vdb-compress` then spends ~0 bits on the dominant
//! delta and a few bits on each sequence break.

use crate::kernels::KeySet;
use vdb_compress::bitio::{BitReader, BitWriter};
use vdb_compress::huffman::{HuffmanDecoder, HuffmanEncoder};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult};

/// More distinct deltas than this and the scheme degenerates; such blocks
/// are not encoded this way.
pub const MAX_DELTA_DICT: usize = 1024;

/// Each value's delta from its predecessor (the first from 0), wrapping.
fn deltas(ints: &[i64]) -> impl Iterator<Item = i64> + '_ {
    let prevs = std::iter::once(0).chain(ints.iter().copied());
    ints.iter()
        .zip(prevs)
        .map(|(&v, prev)| v.wrapping_sub(prev))
}

/// Do the values have at most `cap` distinct deltas? Stops at delta
/// `cap + 1`.
fn distinct_deltas_at_most(ints: &[i64], cap: usize) -> bool {
    let mut set = KeySet::with_cap(cap.min(ints.len()));
    deltas(ints).all(|d| set.insert(d as u64).is_some())
}

/// The codec's applicability condition on non-NULL integral values.
pub fn applicable(ints: &[i64]) -> bool {
    distinct_deltas_at_most(ints, MAX_DELTA_DICT)
}

/// Stricter gate for the Auto picker: the scheme only pays off when deltas
/// *repeat* ("predictable sequences with occasional breaks"); a near-full
/// dictionary means random data where the Huffman pass just burns CPU.
pub fn profitable(ints: &[i64]) -> bool {
    distinct_deltas_at_most(ints, MAX_DELTA_DICT.min(ints.len() / 8))
}

/// Encode non-NULL integral values (`tag` 0 = Integer, 1 = Timestamp)
/// whose deltas fit the dictionary.
pub fn encode(tag: u8, ints: &[i64], w: &mut Writer) -> DbResult<()> {
    let mut set = KeySet::with_cap(MAX_DELTA_DICT.min(ints.len()));
    let seen: Option<Vec<u32>> = deltas(ints).map(|d| set.insert(d as u64)).collect();
    let seen = seen.ok_or_else(|| {
        DbError::Execution(format!(
            "common-delta dictionary over {MAX_DELTA_DICT} entries"
        ))
    })?;
    // Dictionary: sorted deltas, themselves delta-coded for density.
    let mut dict: Vec<i64> = set.keys().iter().map(|&k| k as i64).collect();
    dict.sort_unstable();
    w.put_u8(tag);
    w.put_uvarint(dict.len() as u64);
    let mut prev = 0i64;
    for &d in &dict {
        w.put_ivarint(d.wrapping_sub(prev));
        prev = d;
    }
    // Entropy-coded indexes.
    let rank: Vec<usize> = set
        .keys()
        .iter()
        .map(|&k| dict.binary_search(&(k as i64)).expect("delta in dict"))
        .collect();
    let mut freqs = vec![0u64; dict.len()];
    for &at in &seen {
        freqs[rank[at as usize]] += 1;
    }
    let enc = HuffmanEncoder::from_freqs(&freqs);
    // Header: code lengths (4 bits each), then the bitstream.
    let mut bits = BitWriter::new();
    for &l in enc.lengths() {
        bits.write_bits(u64::from(l), 4);
    }
    for &at in &seen {
        enc.emit(&mut bits, rank[at as usize]);
    }
    w.put_bytes(&bits.finish());
    Ok(())
}

/// Decode straight into a native `i64` buffer (no per-row `Value`
/// construction); the returned tag is 0=Integer, 1=Timestamp.
pub fn decode_native(r: &mut Reader<'_>, count: usize) -> DbResult<(u8, Vec<i64>)> {
    let tag = r.get_u8()?;
    if tag > 1 {
        return Err(DbError::Corrupt(format!("bad common-delta tag {tag}")));
    }
    let dict_len = r.get_uvarint()? as usize;
    if dict_len > MAX_DELTA_DICT {
        return Err(DbError::Corrupt("common-delta dictionary too large".into()));
    }
    let mut dict = Vec::with_capacity(dict_len);
    let mut prev = 0i64;
    for _ in 0..dict_len {
        prev = prev.wrapping_add(r.get_ivarint()?);
        dict.push(prev);
    }
    let packed = r.get_bytes()?;
    let mut bits = BitReader::new(packed);
    let mut lengths = vec![0u32; dict_len];
    for l in lengths.iter_mut() {
        *l = bits
            .read_bits(4)
            .map_err(|e| DbError::Corrupt(e.to_string()))? as u32;
    }
    let dec =
        HuffmanDecoder::from_lengths(&lengths).map_err(|e| DbError::Corrupt(e.to_string()))?;
    let mut out = Vec::with_capacity(count);
    let mut acc = 0i64;
    for _ in 0..count {
        let idx = dec
            .read(&mut bits)
            .map_err(|e| DbError::Corrupt(e.to_string()))?;
        acc = acc.wrapping_add(dict[idx]);
        out.push(acc);
    }
    Ok((tag, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(tag: u8, ints: &[i64]) -> usize {
        let mut w = Writer::new();
        encode(tag, ints, &mut w).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(
            decode_native(&mut Reader::new(&bytes), ints.len()).unwrap(),
            (tag, ints.to_vec())
        );
        bytes.len()
    }

    #[test]
    fn periodic_timestamps_compress_to_almost_nothing() {
        // Meter readings every 300s with occasional 3600s gaps — the
        // paper's canonical use case.
        let mut ts = 1_600_000_000i64;
        let ints: Vec<i64> = (0..4096)
            .map(|i| {
                ts += if i % 97 == 0 { 3600 } else { 300 };
                ts
            })
            .collect();
        // Two-entry delta dictionary, ~1 bit per value ⇒ ~550 bytes.
        let len = round_trip(1, &ints);
        assert!(len < 800, "common-delta bytes = {len}");
    }

    #[test]
    fn primary_keys_single_delta() {
        let len = round_trip(0, &(1..=1000).collect::<Vec<i64>>());
        assert!(len < 200, "pk bytes = {len}");
    }

    #[test]
    fn round_trip_with_breaks_and_negatives() {
        round_trip(0, &[10, 20, 30, 25, 35, 45, 0, 10]);
        round_trip(0, &[i64::MAX, i64::MIN, i64::MAX, 0]);
        round_trip(0, &[]);
    }

    #[test]
    fn applicability() {
        // Random 64-bit values: every delta distinct → not applicable once
        // the block exceeds the dictionary cap.
        let mut x = 1u64;
        let many: Vec<i64> = (0..2000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        assert!(!applicable(&many));
        assert!(encode(0, &many, &mut Writer::new()).is_err());
        let periodic: Vec<i64> = (0..2000).map(|i| i * 5).collect();
        assert!(applicable(&periodic) && profitable(&periodic));
        assert!(applicable(&many[..100]) && !profitable(&many[..100]));
    }
}
