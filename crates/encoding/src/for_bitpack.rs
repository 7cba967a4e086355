//! Frame-of-reference + bit-packing for integer-based columns.
//!
//! Every value is stored as `value - block_min` in exactly `width` bits,
//! where `width` is the fewest bits that hold the largest offset in the
//! block. Unlike the varint-based Delta Value scheme (§3.4.1 type 3) the
//! payload has *fixed stride*, so a selection can decode exactly the rows
//! it needs — the random-access half of the selection-pushdown decode
//! contract ([`decode_native_selected`]).

use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult};

/// Frame minimum and the bit width of the widest offset from it.
fn frame_of(ints: &[i64]) -> (i64, u32) {
    let min = ints.iter().copied().min().unwrap_or(0);
    let max = ints.iter().copied().max().unwrap_or(0);
    let range = max.wrapping_sub(min) as u64;
    (min, 64 - range.leading_zeros())
}

fn uvarint_len(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Auto-picker gate: fixed-width packing must beat the Delta Value varint
/// payload by ≥10% on the same block; uniform offsets near the width
/// boundary win, skewed offsets with rare outliers lose (one outlier
/// inflates every row's stride but only its own varint).
pub fn profitable(ints: &[i64]) -> bool {
    if ints.len() < 8 {
        return false;
    }
    let (min, width) = frame_of(ints);
    let packed = (ints.len() * width as usize).div_ceil(8) + 12;
    let varint: usize = ints
        .iter()
        .map(|&v| uvarint_len(v.wrapping_sub(min) as u64))
        .sum::<usize>()
        + 12;
    packed * 10 <= varint * 9
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Encode non-NULL integral values; `tag` is 0 = Integer, 1 = Timestamp,
/// 2 = Boolean.
pub fn encode(tag: u8, ints: &[i64], w: &mut Writer) {
    let (min, width) = frame_of(ints);
    w.put_u8(tag);
    w.put_ivarint(min);
    w.put_u8(width as u8);
    // Fixed-stride payload, LSB-first within and across bytes: offsets are
    // shifted into a 128-bit window that is drained a word at a time.
    let mut packed = Vec::with_capacity((ints.len() * width as usize).div_ceil(8) + 8);
    let (mut window, mut held) = (0u128, 0u32);
    for &v in ints {
        window |= u128::from(v.wrapping_sub(min) as u64 & mask(width)) << held;
        held += width;
        if held >= 64 {
            packed.extend_from_slice(&(window as u64).to_le_bytes());
            window >>= 64;
            held -= 64;
        }
    }
    packed.extend_from_slice(&window.to_le_bytes()[..held.div_ceil(8) as usize]);
    w.put_bytes(&packed);
}

/// Fixed-stride slot reader over a validated payload, one word per value:
/// a slot of up to 64 bits starting at bit `shift` of byte `byte` lies
/// within the 9 bytes from `byte`, so it is one unaligned little-endian
/// `u64` plus, for the widths that can straddle it, a spill byte. Reads
/// that would run past the payload come from a zero-padded copy of its
/// last bytes instead. `width` and `mask` are fixed per block.
struct Packed<'a> {
    buf: &'a [u8],
    width: usize,
    mask: u64,
    /// `buf[tail_start..]` followed by zeros.
    tail: [u8; 32],
    tail_start: usize,
}

impl<'a> Packed<'a> {
    fn new(buf: &'a [u8], width: u32) -> Packed<'a> {
        let tail_start = buf.len().saturating_sub(16);
        let mut tail = [0u8; 32];
        tail[..buf.len() - tail_start].copy_from_slice(&buf[tail_start..]);
        Packed {
            buf,
            width: width as usize,
            mask: mask(width),
            tail,
            tail_start,
        }
    }

    /// Slot `idx`; the caller has validated that `buf` holds
    /// `(idx + 1) * width` bits. `SPILL` says whether a slot of this width
    /// can reach into a ninth byte (`width > 56`).
    #[inline]
    fn get<const SPILL: bool>(&self, idx: usize) -> u64 {
        let bit = idx * self.width;
        let (byte, shift) = (bit / 8, (bit % 8) as u32);
        let src: &[u8] = match self.buf.get(byte..byte + 9) {
            Some(src) => src,
            // Within 16 bytes of the end (or `width` is 0 and nothing is read).
            None => &self.tail[byte.saturating_sub(self.tail_start).min(16)..][..9],
        };
        let word = u64::from_le_bytes(src[..8].try_into().expect("8 bytes"));
        let spill = match shift {
            _ if !SPILL => 0,
            0 => 0,
            _ => u64::from(src[8]) << (64 - shift),
        };
        ((word >> shift) | spill) & self.mask
    }

    /// `f(slot)` with the reader specialised for this block's width.
    #[inline]
    fn for_each_of(&self, slots: impl Iterator<Item = usize>, mut f: impl FnMut(usize, u64)) {
        match self.width > 56 {
            true => slots.for_each(|i| f(i, self.get::<true>(i))),
            false => slots.for_each(|i| f(i, self.get::<false>(i))),
        }
    }
}

/// Header + validated payload slice for `count` packed slots.
fn read_header<'a>(r: &mut Reader<'a>, count: usize) -> DbResult<(u8, i64, Packed<'a>)> {
    let tag = r.get_u8()?;
    if tag > 2 {
        return Err(DbError::Corrupt(format!("bad for-bitpack tag {tag}")));
    }
    let min = r.get_ivarint()?;
    let width = u32::from(r.get_u8()?);
    if width > 64 {
        return Err(DbError::Corrupt(format!("bad for-bitpack width {width}")));
    }
    let packed = r.get_bytes()?;
    if (packed.len() as u128) * 8 < (count as u128) * u128::from(width) {
        return Err(DbError::Corrupt("for-bitpack payload truncated".into()));
    }
    Ok((tag, min, Packed::new(packed, width)))
}

/// Decode straight into a native `i64` buffer; the returned tag is
/// 0=Integer, 1=Timestamp, 2=Boolean.
pub fn decode_native(r: &mut Reader<'_>, count: usize) -> DbResult<(u8, Vec<i64>)> {
    let (tag, min, packed) = read_header(r, count)?;
    let mut out = Vec::with_capacity(count);
    packed.for_each_of(0..count, |_, v| out.push(min.wrapping_add(v as i64)));
    Ok((tag, out))
}

/// Selection-pushdown decode: materialize only the slots listed in `sel`
/// (sorted indexes into the block's value sequence) into a full-length
/// buffer. Unselected slots hold the frame minimum as padding — per the
/// selection-pushdown contract the caller never inspects them.
pub fn decode_native_selected(
    r: &mut Reader<'_>,
    count: usize,
    sel: &[u32],
) -> DbResult<(u8, Vec<i64>)> {
    let (tag, min, packed) = read_header(r, count)?;
    if sel.iter().any(|&p| p as usize >= count) {
        return Err(DbError::Corrupt("selection past block end".into()));
    }
    let mut out = vec![min; count];
    packed.for_each_of(sel.iter().map(|&p| p as usize), |p, v| {
        out[p] = min.wrapping_add(v as i64)
    });
    Ok((tag, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(tag: u8, ints: &[i64]) {
        let mut w = Writer::new();
        encode(tag, ints, &mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            decode_native(&mut Reader::new(&bytes), ints.len()).unwrap(),
            (tag, ints.to_vec()),
            "{} values",
            ints.len()
        );
    }

    #[test]
    fn round_trip_various_widths() {
        round_trip(0, &[]);
        round_trip(0, &[42]);
        round_trip(0, &(0..300).map(|i| i * 3 % 101).collect::<Vec<_>>());
        round_trip(0, &[i64::MIN, i64::MAX]);
        round_trip(0, &[7; 50]);
        round_trip(1, &[1_000_000, 999_983]);
        round_trip(2, &[1, 0]);
    }

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` values whose offsets from `min` need exactly `width` bits:
    /// the all-ones and the lowest `width`-bit offsets are always present.
    fn values_of_width(width: u32, len: usize, min: i64, rng: &mut u64) -> Vec<i64> {
        let top = mask(width);
        (0..len)
            .map(|i| {
                let offset = match i {
                    0 => top,
                    1 => 0,
                    2 if width > 0 => 1u64 << (width - 1),
                    _ => next(rng) & top,
                };
                min.wrapping_add(offset as i64)
            })
            .collect()
    }

    /// Every width the format can hold, at lengths around the word and
    /// block sizes, from frames at both ends of `i64`: the word-at-a-time
    /// reader returns what the byte-wise packer stored, in full and under
    /// random selections.
    #[test]
    fn every_width_round_trips_in_full_and_selected() {
        let mut rng = 7u64;
        for width in 0..=64u32 {
            for len in [1usize, 7, 8, 9, 1023, 1024] {
                for min in [0i64, -3, i64::MIN, i64::MAX - 5] {
                    let ints = values_of_width(width, len, min, &mut rng);
                    let mut w = Writer::new();
                    encode(0, &ints, &mut w);
                    let bytes = w.into_bytes();
                    let what = format!("width {width} len {len} min {min}");
                    let (tag, full) = decode_native(&mut Reader::new(&bytes), len).unwrap();
                    assert_eq!((tag, &full), (0, &ints), "{what}");
                    let sel: Vec<u32> = (0..len as u32)
                        .filter(|_| next(&mut rng).is_multiple_of(3))
                        .collect();
                    let (_, picked) =
                        decode_native_selected(&mut Reader::new(&bytes), len, &sel).unwrap();
                    assert_eq!(picked.len(), len, "{what}");
                    for &p in &sel {
                        assert_eq!(picked[p as usize], ints[p as usize], "{what} slot {p}");
                    }
                }
            }
        }
    }

    /// A payload shorter than its header promises, an impossible width and
    /// a selection past the block are `Corrupt` — never a panic, never a
    /// read outside the payload.
    #[test]
    fn malformed_blocks_are_corrupt_not_panics() {
        let is_corrupt = |r: DbResult<(u8, Vec<i64>)>| matches!(r, Err(DbError::Corrupt(_)));
        for width in [1u8, 7, 8, 18, 33, 57, 63, 64] {
            let count = 100usize;
            let need = (count * width as usize).div_ceil(8);
            for have in [0, 1, need.saturating_sub(9), need - 1] {
                let mut w = Writer::new();
                w.put_u8(0);
                w.put_ivarint(-5);
                w.put_u8(width);
                w.put_bytes(&vec![0xFF; have]);
                let bytes = w.into_bytes();
                assert!(
                    is_corrupt(decode_native(&mut Reader::new(&bytes), count)),
                    "width {width}: {have} of {need} bytes"
                );
                assert!(is_corrupt(decode_native_selected(
                    &mut Reader::new(&bytes),
                    count,
                    &[0, 99]
                )));
            }
            // Exactly enough bytes decodes, up to the last slot...
            let mut w = Writer::new();
            w.put_u8(1);
            w.put_ivarint(0);
            w.put_u8(width);
            w.put_bytes(&vec![0xFF; need]);
            let bytes = w.into_bytes();
            let (tag, full) = decode_native(&mut Reader::new(&bytes), count).unwrap();
            assert_eq!(tag, 1);
            assert!(full.iter().all(|&v| v as u64 == mask(u32::from(width))));
            // ... and a selection past the end is refused.
            assert!(is_corrupt(decode_native_selected(
                &mut Reader::new(&bytes),
                count,
                &[5, count as u32]
            )));
        }
        let mut w = Writer::new();
        w.put_u8(0);
        w.put_ivarint(0);
        w.put_u8(65);
        w.put_bytes(&[0u8; 1024]);
        let bytes = w.into_bytes();
        assert!(is_corrupt(decode_native(&mut Reader::new(&bytes), 8)));
        assert!(is_corrupt(decode_native_selected(
            &mut Reader::new(&bytes),
            8,
            &[1]
        )));
    }

    #[test]
    fn selected_decode_matches_full_decode_on_selected_slots() {
        let ints: Vec<i64> = (0..500).map(|i| 1_000_000 + (i * 7919) % 4096).collect();
        let mut w = Writer::new();
        encode(0, &ints, &mut w);
        let bytes = w.into_bytes();
        let (_, full) = decode_native(&mut Reader::new(&bytes), 500).unwrap();
        let sel: Vec<u32> = (0..500).step_by(13).map(|i| i as u32).collect();
        let (_, picked) = decode_native_selected(&mut Reader::new(&bytes), 500, &sel).unwrap();
        for &p in &sel {
            assert_eq!(picked[p as usize], full[p as usize], "slot {p}");
        }
    }

    #[test]
    fn clustered_values_beat_plain() {
        let base = 1_000_000_000_000i64;
        let ints: Vec<i64> = (0..1000).map(|i| base + (i * 37) % 10_000).collect();
        let mut fw = Writer::new();
        encode(0, &ints, &mut fw);
        let mut pw = Writer::new();
        for &v in &ints {
            pw.put_value(&vdb_types::Value::Integer(v));
        }
        assert!(
            fw.len() * 2 < pw.len(),
            "for-bitpack {} vs plain {}",
            fw.len(),
            pw.len()
        );
    }

    #[test]
    fn profitability_prefers_uniform_offsets_over_outliers() {
        // Uniform 20-bit offsets: fixed width beats varints.
        let mut x = 17u64;
        let uniform: Vec<i64> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 1_000_000) as i64
            })
            .collect();
        assert!(profitable(&uniform));
        // Tiny offsets with rare huge outliers: the outlier widens every
        // row's stride, varints only its own.
        let skewed: Vec<i64> = (0..1000)
            .map(|i| {
                if i % 97 == 0 {
                    1_000_000_000_000
                } else {
                    i % 100
                }
            })
            .collect();
        assert!(!profitable(&skewed));
    }
}
