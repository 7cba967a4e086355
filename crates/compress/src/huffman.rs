//! Canonical Huffman entropy coder for LZ77 token streams.
//!
//! Alphabet layout (a simplified DEFLATE):
//! * **lit/len alphabet** — symbols `0..=255` are literal bytes; symbols
//!   `256..` are match-length *buckets*. A value `v = len - MIN_MATCH` is
//!   coded as bucket `b = floor(log2(v+1))` followed by `b` extra raw bits.
//! * **distance alphabet** — buckets of `v = dist - 1` with the same scheme.
//!
//! Code lengths are limited to [`MAX_CODE_LEN`] bits; the header stores the
//! two length tables in 4 bits per symbol. Decoding uses a flat
//! lookup table per alphabet, `2^(longest code present)` entries.
//!
//! The [`HuffmanEncoder`]/[`HuffmanDecoder`] pair is also exposed directly
//! for `vdb-encoding`'s Compressed Common Delta scheme, which entropy-codes
//! dictionary indexes (§3.4.1, encoding type 6).

use crate::bitio::{BitReader, BitWriter};
use crate::error::{corrupt, CompressError};
use crate::lz77::{Token, MIN_MATCH};

/// Maximum Huffman code length in bits.
pub const MAX_CODE_LEN: u32 = 15;

const NUM_LITERALS: usize = 256;
/// len - MIN_MATCH ∈ [0, 254] → buckets 0..=7.
const NUM_LEN_BUCKETS: usize = 8;
const LITLEN_SYMBOLS: usize = NUM_LITERALS + NUM_LEN_BUCKETS;
/// dist - 1 ∈ [0, 32766] → buckets 0..=14.
const NUM_DIST_BUCKETS: usize = 15;

/// Gamma-style bucketing: value `v` → `(bucket, extra_bits_value)` where the
/// bucket index is also the extra-bit width.
#[inline]
fn bucket_of(v: u32) -> (usize, u64, u32) {
    let b = 31 - (v + 1).leading_zeros();
    let extra = u64::from((v + 1) - (1 << b));
    (b as usize, extra, b)
}

#[inline]
fn unbucket(b: usize, extra: u64) -> u32 {
    ((1u64 << b) + extra - 1) as u32
}

// ---------------------------------------------------------------------------
// Code-length construction (length-limited Huffman)
// ---------------------------------------------------------------------------

/// Build Huffman code lengths for the given symbol frequencies, limited to
/// `max_len` bits. Zero-frequency symbols get length 0 (absent).
pub fn build_code_lengths(freqs: &[u64], max_len: u32) -> Vec<u32> {
    let mut freqs = freqs.to_vec();
    loop {
        let lengths = huffman_depths(&freqs);
        let worst = lengths.iter().copied().max().unwrap_or(0);
        if worst <= max_len {
            return lengths;
        }
        // Flatten the distribution and retry; converges quickly because the
        // ratio between min and max frequency halves each round.
        for f in freqs.iter_mut() {
            if *f > 0 {
                *f = (*f >> 1) + 1;
            }
        }
    }
}

/// Plain (unlimited) Huffman depths via pairwise merging.
fn huffman_depths(freqs: &[u64]) -> Vec<u32> {
    #[derive(PartialEq, Eq)]
    struct Node {
        freq: u64,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reversed for min-heap; tie-break on id for determinism.
            other
                .freq
                .cmp(&self.freq)
                .then_with(|| other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let n = freqs.len();
    let present: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lengths = vec![0u32; n];
    match present.len() {
        0 => return lengths,
        1 => {
            lengths[present[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    // parent[k] for internal/leaf node ids; leaves are 0..n, internals n+.
    let mut parent = vec![usize::MAX; n + present.len()];
    let mut heap = std::collections::BinaryHeap::new();
    for &i in &present {
        heap.push(Node {
            freq: freqs[i],
            id: i,
        });
    }
    let mut next_id = n;
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        parent[a.id] = next_id;
        parent[b.id] = next_id;
        heap.push(Node {
            freq: a.freq + b.freq,
            id: next_id,
        });
        next_id += 1;
    }
    for &i in &present {
        let mut d = 0;
        let mut j = i;
        while parent[j] != usize::MAX {
            j = parent[j];
            d += 1;
        }
        lengths[i] = d;
    }
    lengths
}

/// Assign canonical codes (MSB-first numbering) from code lengths. Returns
/// codes with bits already reversed for LSB-first emission.
pub fn canonical_codes(lengths: &[u32]) -> Vec<u64> {
    let max = lengths.iter().copied().max().unwrap_or(0);
    let mut bl_count = vec![0u64; (max + 1) as usize];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u64; (max + 2) as usize];
    let mut code = 0u64;
    for bits in 1..=max {
        code = (code + bl_count[(bits - 1) as usize]) << 1;
        next_code[bits as usize] = code;
    }
    lengths
        .iter()
        .map(|&l| {
            if l == 0 {
                return 0;
            }
            let c = next_code[l as usize];
            next_code[l as usize] += 1;
            reverse_bits(c, l)
        })
        .collect()
}

#[inline]
fn reverse_bits(v: u64, n: u32) -> u64 {
    let mut out = 0u64;
    for i in 0..n {
        out |= ((v >> i) & 1) << (n - 1 - i);
    }
    out
}

// ---------------------------------------------------------------------------
// Encoder / decoder over a generic alphabet
// ---------------------------------------------------------------------------

/// Encodes symbols of one alphabet with canonical Huffman codes.
pub struct HuffmanEncoder {
    codes: Vec<u64>,
    lengths: Vec<u32>,
}

impl HuffmanEncoder {
    /// Build from symbol frequencies.
    pub fn from_freqs(freqs: &[u64]) -> HuffmanEncoder {
        let lengths = build_code_lengths(freqs, MAX_CODE_LEN);
        let codes = canonical_codes(&lengths);
        HuffmanEncoder { codes, lengths }
    }

    pub fn lengths(&self) -> &[u32] {
        &self.lengths
    }

    #[inline]
    pub fn emit(&self, w: &mut BitWriter, sym: usize) {
        debug_assert!(self.lengths[sym] > 0, "emitting absent symbol {sym}");
        w.write_bits(self.codes[sym], self.lengths[sym]);
    }
}

/// Flat-table canonical Huffman decoder. The table is sized by the longest
/// code present, not by [`MAX_CODE_LEN`]: a Common Delta block with a
/// handful of symbols gets a table of a few entries rather than 32 768.
pub struct HuffmanDecoder {
    /// `table[peek] = (symbol << 4) | code_len`; 0 means invalid. Holds
    /// `1 << max_len` entries (one, invalid, when no symbol is present).
    table: Vec<u32>,
    /// Longest code length present; the peek width.
    max_len: u32,
}

impl HuffmanDecoder {
    pub fn from_lengths(lengths: &[u32]) -> Result<HuffmanDecoder, CompressError> {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(corrupt("code length exceeds limit"));
        }
        let codes = canonical_codes(lengths);
        let mut table = vec![0u32; 1 << max_len];
        for (sym, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len == 0 {
                continue;
            }
            let step = 1usize << len;
            let mut idx = code as usize;
            while idx < table.len() {
                if table[idx] != 0 {
                    return Err(corrupt("overlapping huffman codes"));
                }
                table[idx] = ((sym as u32) << 4) | len;
                idx += step;
            }
        }
        Ok(HuffmanDecoder { table, max_len })
    }

    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<usize, CompressError> {
        let peek = r.peek_bits(self.max_len) as usize;
        let entry = self.table[peek];
        if entry == 0 {
            return Err(corrupt("invalid huffman code"));
        }
        let len = entry & 0xf;
        r.consume(len)?;
        Ok((entry >> 4) as usize)
    }
}

// ---------------------------------------------------------------------------
// Token-stream (de)serialization
// ---------------------------------------------------------------------------

/// Entropy-code an LZ77 token stream into bytes (header + bitstream).
pub fn encode_tokens(tokens: &[Token]) -> Vec<u8> {
    let mut litlen_freq = vec![0u64; LITLEN_SYMBOLS];
    let mut dist_freq = vec![0u64; NUM_DIST_BUCKETS];
    for t in tokens {
        match *t {
            Token::Literal(b) => litlen_freq[b as usize] += 1,
            Token::Match { len, dist } => {
                let (lb, _, _) = bucket_of(u32::from(len) - MIN_MATCH as u32);
                litlen_freq[NUM_LITERALS + lb] += 1;
                let (db, _, _) = bucket_of(u32::from(dist) - 1);
                dist_freq[db] += 1;
            }
        }
    }
    let litlen = HuffmanEncoder::from_freqs(&litlen_freq);
    let dist = HuffmanEncoder::from_freqs(&dist_freq);

    // Header: code lengths, 4 bits per symbol (length ≤ 15).
    let mut w = BitWriter::new();
    for &l in litlen.lengths() {
        w.write_bits(u64::from(l), 4);
    }
    for &l in dist.lengths() {
        w.write_bits(u64::from(l), 4);
    }
    for t in tokens {
        match *t {
            Token::Literal(b) => litlen.emit(&mut w, b as usize),
            Token::Match { len, dist: d } => {
                let (lb, lextra, lbits) = bucket_of(u32::from(len) - MIN_MATCH as u32);
                litlen.emit(&mut w, NUM_LITERALS + lb);
                w.write_bits(lextra, lbits);
                let (db, dextra, dbits) = bucket_of(u32::from(d) - 1);
                dist.emit(&mut w, db);
                w.write_bits(dextra, dbits);
            }
        }
    }
    w.finish()
}

/// Decode a token stream until it reproduces `orig_len` output bytes.
pub fn decode_tokens(bytes: &[u8], orig_len: usize) -> Result<Vec<Token>, CompressError> {
    let mut r = BitReader::new(bytes);
    let mut litlen_lengths = vec![0u32; LITLEN_SYMBOLS];
    for l in litlen_lengths.iter_mut() {
        *l = r.read_bits(4)? as u32;
    }
    let mut dist_lengths = vec![0u32; NUM_DIST_BUCKETS];
    for l in dist_lengths.iter_mut() {
        *l = r.read_bits(4)? as u32;
    }
    let litlen = HuffmanDecoder::from_lengths(&litlen_lengths)?;
    let has_dist = dist_lengths.iter().any(|&l| l > 0);
    let dist = if has_dist {
        Some(HuffmanDecoder::from_lengths(&dist_lengths)?)
    } else {
        None
    };

    let mut tokens = Vec::new();
    let mut produced = 0usize;
    while produced < orig_len {
        let sym = litlen.read(&mut r)?;
        if sym < NUM_LITERALS {
            tokens.push(Token::Literal(sym as u8));
            produced += 1;
        } else {
            let lb = sym - NUM_LITERALS;
            let lextra = r.read_bits(lb as u32)?;
            let len = unbucket(lb, lextra) + MIN_MATCH as u32;
            let dist_dec = dist
                .as_ref()
                .ok_or_else(|| corrupt("match token without distance table"))?;
            let db = dist_dec.read(&mut r)?;
            let dextra = r.read_bits(db as u32)?;
            let d = unbucket(db, dextra) + 1;
            if len as usize > crate::lz77::MAX_MATCH {
                return Err(corrupt("match length out of range"));
            }
            tokens.push(Token::Match {
                len: len as u16,
                dist: d as u16,
            });
            produced += len as usize;
        }
    }
    if produced != orig_len {
        return Err(corrupt("token stream overruns declared length"));
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip() {
        for v in [0u32, 1, 2, 3, 7, 8, 254, 255, 1000, 32_766] {
            let (b, e, bits) = bucket_of(v);
            assert_eq!(unbucket(b, e), v);
            assert_eq!(b as u32, bits);
        }
        assert_eq!(bucket_of(0).0, 0, "v=0 is bucket 0 (no extra bits)");
        assert_eq!(bucket_of(254).0, 7, "max length value fits 8 buckets");
        assert_eq!(bucket_of(32_766).0, 14, "max distance fits 15 buckets");
    }

    #[test]
    fn code_lengths_satisfy_kraft() {
        let freqs = vec![100, 50, 25, 12, 6, 3, 1, 1];
        let lengths = build_code_lengths(&freqs, MAX_CODE_LEN);
        let kraft: f64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-9, "Kraft inequality violated: {kraft}");
        // More frequent symbols get shorter (or equal) codes.
        assert!(lengths[0] <= lengths[7]);
    }

    #[test]
    fn length_limit_is_enforced() {
        // Fibonacci-ish frequencies force deep trees without limiting.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lengths = build_code_lengths(&freqs, MAX_CODE_LEN);
        assert!(lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        assert!(lengths.iter().all(|&l| l > 0), "all symbols present");
    }

    #[test]
    fn single_symbol_alphabet() {
        let lengths = build_code_lengths(&[0, 42, 0], MAX_CODE_LEN);
        assert_eq!(lengths, vec![0, 1, 0]);
        let dec = HuffmanDecoder::from_lengths(&lengths).unwrap();
        let enc = HuffmanEncoder::from_freqs(&[0, 42, 0]);
        let mut w = BitWriter::new();
        for _ in 0..5 {
            enc.emit(&mut w, 1);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for _ in 0..5 {
            assert_eq!(dec.read(&mut r).unwrap(), 1);
        }
    }

    /// Emit every present symbol (twice round, in a scrambled order) and
    /// read them back.
    fn round_trip(freqs: &[u64]) {
        let enc = HuffmanEncoder::from_freqs(freqs);
        let present: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let syms: Vec<usize> = (0..2 * present.len())
            .map(|i| present[(i * 7 + i / 3) % present.len()])
            .collect();
        let mut w = BitWriter::new();
        for &s in &syms {
            enc.emit(&mut w, s);
        }
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let longest = enc.lengths().iter().copied().max().unwrap();
        assert_eq!(dec.table.len(), 1 << longest, "table sized by longest code");
        let mut r = BitReader::new(&bytes);
        for &s in &syms {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn round_trip_over_alphabet_sizes_1_to_1024() {
        for n in 1..=1024usize {
            // Flat, skewed, and (for sparse alphabets) gappy frequencies.
            round_trip(&vec![1u64; n]);
            round_trip(
                &(0..n)
                    .map(|i| 1 + (i as u64 % 13) * (i as u64 % 5))
                    .collect::<Vec<_>>(),
            );
            round_trip(
                &(0..2 * n)
                    .map(|i| (i % 2) as u64 * (1 + i as u64))
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn fifteen_bit_code_round_trips() {
        // Fibonacci frequencies make the deepest possible tree; 40 symbols
        // overflow 15 bits, so the limiter pins the longest code at 15.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            (a, b) = (b, a + b);
        }
        let lengths = build_code_lengths(&freqs, MAX_CODE_LEN);
        assert_eq!(lengths.iter().copied().max(), Some(MAX_CODE_LEN));
        round_trip(&freqs);
    }

    #[test]
    fn bad_tables_and_streams_are_corrupt_not_panics() {
        let err = |lengths: &[u32]| {
            HuffmanDecoder::from_lengths(lengths)
                .err()
                .map(|e| e.to_string())
        };
        // Over-subscribed: three 1-bit codes.
        assert!(err(&[1, 1, 1])
            .unwrap()
            .contains("overlapping huffman codes"));
        assert!(err(&[2, 2, 2, 2, 15])
            .unwrap()
            .contains("overlapping huffman codes"));
        assert!(err(&[1, 16]).unwrap().contains("code length exceeds limit"));
        assert!(err(&[u32::MAX])
            .unwrap()
            .contains("code length exceeds limit"));
        // An empty alphabet decodes nothing, and says so.
        let none = HuffmanDecoder::from_lengths(&[0, 0]).unwrap();
        assert!(none.read(&mut BitReader::new(&[0xff])).is_err());
        // Under-subscribed table {0 -> "0", 1 -> "10"}: "11" is no code.
        let dec = HuffmanDecoder::from_lengths(&[1, 2]).unwrap();
        let e = dec.read(&mut BitReader::new(&[0b11])).unwrap_err();
        assert!(e.to_string().contains("invalid huffman code"), "{e}");
        // Truncated: one byte holds the first 8 one-bit symbols; the ninth
        // read peeks zero padding and must fail on consume, not index out.
        let one = HuffmanDecoder::from_lengths(&[0, 1]).unwrap();
        let mut r = BitReader::new(&[0x00]);
        for _ in 0..8 {
            assert_eq!(one.read(&mut r).unwrap(), 1);
        }
        assert!(one.read(&mut r).is_err(), "bitstream exhausted");
        let mut empty = BitReader::new(&[]);
        assert!(dec.read(&mut empty).is_err());
    }

    #[test]
    fn encoder_decoder_round_trip_random_symbols() {
        let mut freqs = vec![0u64; 64];
        let mut x = 5u64;
        let mut syms = Vec::new();
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Skewed distribution.
            let s = ((x % 64) * (x % 7) / 7 % 64) as usize;
            syms.push(s);
            freqs[s] += 1;
        }
        let enc = HuffmanEncoder::from_freqs(&freqs);
        let mut w = BitWriter::new();
        for &s in &syms {
            enc.emit(&mut w, s);
        }
        let bytes = w.finish();
        let dec = HuffmanDecoder::from_lengths(enc.lengths()).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in &syms {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn token_stream_round_trip() {
        let tokens = vec![
            Token::Literal(b'h'),
            Token::Literal(b'i'),
            Token::Match { len: 10, dist: 2 },
            Token::Literal(0),
            Token::Match {
                len: 258,
                dist: 32_767,
            },
            Token::Match { len: 4, dist: 1 },
        ];
        let orig_len: usize = tokens
            .iter()
            .map(|t| match t {
                Token::Literal(_) => 1,
                Token::Match { len, .. } => *len as usize,
            })
            .sum();
        let bytes = encode_tokens(&tokens);
        let back = decode_tokens(&bytes, orig_len).unwrap();
        assert_eq!(back, tokens);
    }

    #[test]
    fn literal_only_stream_has_no_distance_table_use() {
        let tokens: Vec<Token> = b"hello world".iter().map(|&b| Token::Literal(b)).collect();
        let bytes = encode_tokens(&tokens);
        let back = decode_tokens(&bytes, 11).unwrap();
        assert_eq!(back, tokens);
    }
}
