//! Delta-of-delta encoding for timestamp-like sequences.
//!
//! Stores the first value, then the *change in delta* between consecutive
//! values, in variable-width buckets: a steadily ticking timestamp column
//! (or an auto-incrementing key with drift) costs one bit per row once the
//! delta stabilizes. This covers the gap between Compressed Common Delta —
//! which needs deltas that *repeat* enough to amortize its dictionary —
//! and Delta Value: a drifting or accelerating sequence has many distinct
//! deltas but tiny second-order differences.

use vdb_compress::bitio::{BitReader, BitWriter};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult};

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Second-order differences (delta of delta), wrapping.
fn dods_of(ints: &[i64]) -> impl Iterator<Item = i64> + '_ {
    let mut prev_delta = 0i64;
    ints.windows(2).map(move |w| {
        let delta = w[1].wrapping_sub(w[0]);
        let dod = delta.wrapping_sub(prev_delta);
        prev_delta = delta;
        dod
    })
}

/// Auto-picker gate: the bucket scheme only pays when the delta is stable —
/// require ≥90% of the second-order differences to fit the 7-bit bucket.
pub fn profitable(ints: &[i64]) -> bool {
    if ints.len() < 8 {
        return false;
    }
    let small = dods_of(ints).filter(|&d| zigzag(d) < 1 << 7).count();
    small * 10 >= (ints.len() - 1) * 9
}

/// Bucket widths; prefix `k` one-bits (then a zero for k < 4) select
/// bucket `k`. Bucket 0 is the bare '0' bit meaning "delta unchanged".
const WIDTHS: [u32; 5] = [0, 7, 12, 20, 64];

fn emit_dod(bits: &mut BitWriter, dod: i64) {
    let z = zigzag(dod);
    let bucket = WIDTHS
        .iter()
        .position(|&w| w == 64 || z < 1u64 << w)
        .unwrap();
    for _ in 0..bucket {
        bits.write_bits(1, 1);
    }
    if bucket < WIDTHS.len() - 1 {
        bits.write_bits(0, 1);
    }
    let w = WIDTHS[bucket];
    if w == 64 {
        bits.write_bits(z & 0xffff_ffff, 32);
        bits.write_bits(z >> 32, 32);
    } else if w > 0 {
        bits.write_bits(z, w);
    }
}

fn read_dod(bits: &mut BitReader<'_>) -> DbResult<i64> {
    fn corrupt(e: impl std::fmt::Display) -> DbError {
        DbError::Corrupt(e.to_string())
    }
    let mut bucket = 0usize;
    while bucket < WIDTHS.len() - 1 && bits.read_bits(1).map_err(corrupt)? == 1 {
        bucket += 1;
    }
    let w = WIDTHS[bucket];
    let z = if w == 64 {
        let lo = bits.read_bits(32).map_err(corrupt)?;
        let hi = bits.read_bits(32).map_err(corrupt)?;
        hi << 32 | lo
    } else if w > 0 {
        bits.read_bits(w).map_err(corrupt)?
    } else {
        0
    };
    Ok(unzigzag(z))
}

/// Encode non-NULL integral values; `tag` is 0 = Integer, 1 = Timestamp.
pub fn encode(tag: u8, ints: &[i64], w: &mut Writer) {
    w.put_u8(tag);
    let Some(&first) = ints.first() else {
        return;
    };
    w.put_ivarint(first);
    let mut bits = BitWriter::new();
    for dod in dods_of(ints) {
        emit_dod(&mut bits, dod);
    }
    w.put_bytes(&bits.finish());
}

/// Decode straight into a native `i64` buffer; the returned tag is
/// 0=Integer, 1=Timestamp.
pub fn decode_native(r: &mut Reader<'_>, count: usize) -> DbResult<(u8, Vec<i64>)> {
    let tag = r.get_u8()?;
    if tag > 1 {
        return Err(DbError::Corrupt(format!("bad delta-delta tag {tag}")));
    }
    if count == 0 {
        return Ok((tag, Vec::new()));
    }
    let mut acc = r.get_ivarint()?;
    let packed = r.get_bytes()?;
    let mut bits = BitReader::new(packed);
    let mut out = Vec::with_capacity(count);
    out.push(acc);
    let mut delta = 0i64;
    for _ in 1..count {
        delta = delta.wrapping_add(read_dod(&mut bits)?);
        acc = acc.wrapping_add(delta);
        out.push(acc);
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
            (tag, ints.to_vec()),
            "{} values",
            ints.len()
        );
        bytes.len()
    }

    #[test]
    fn steady_timestamps_cost_about_a_bit_per_row() {
        let ints: Vec<i64> = (0..4096).map(|i| 1_600_000_000 + i * 300).collect();
        // First value + ~1 bit per row ⇒ well under a kilobyte.
        let len = round_trip(1, &ints);
        assert!(len < 600, "delta-delta bytes = {len}");
    }

    #[test]
    fn accelerating_sequence_round_trips() {
        // Every delta distinct (grows by i), every dod tiny — the case
        // common-delta's dictionary cannot amortize.
        let mut acc = 0i64;
        let ints: Vec<i64> = (0..2000)
            .map(|i| {
                acc += i;
                acc
            })
            .collect();
        assert!(profitable(&ints));
        round_trip(0, &ints);
    }

    #[test]
    fn edge_cases_round_trip() {
        round_trip(0, &[]);
        round_trip(0, &[-5]);
        round_trip(1, &[i64::MAX, i64::MIN]);
        round_trip(0, &[3; 100]);
        // Jittery but bounded dods exercise every bucket.
        let mut x = 3u64;
        let mut acc = 0i64;
        let jitter: Vec<i64> = (0..500)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add((x % 1_000_000_000) as i64 - 500_000_000);
                acc
            })
            .collect();
        round_trip(0, &jitter);
    }

    #[test]
    fn random_data_is_not_profitable() {
        let mut x = 1u64;
        let ints: Vec<i64> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as i64
            })
            .collect();
        assert!(!profitable(&ints));
        round_trip(0, &ints);
    }
}
