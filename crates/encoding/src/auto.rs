//! Auto encoding selection (§3.4.1 type 1).
//!
//! "The system automatically picks the most advantageous encoding type
//! based on properties of the data itself. This type is the default and is
//! used when insufficient usage examples are known."
//!
//! [`choose_encoding`] is the one chooser, over a typed block. It computes
//! a property only when the decision it is making needs it: the run count
//! first (and nothing else if RLE wins), then per family the delta,
//! second-difference, distinct-value and bit-width tests in order, each a
//! pass over a native slice that stops as soon as its answer is known.
//! [`choose_by_trial`] actually encodes with every applicable scheme and
//! keeps the smallest — the empirical method the Database Designer's
//! storage-optimization phase uses (§6.3), whose encoding choices the
//! paper notes users essentially never override.

use crate::block::{encode_typed_block, Family};
use crate::kernels::{distinct_at_most, run_count, with_cells, BlockCells};
use crate::typed::{TypedColumn, TypedSlice};
use crate::{block_dict, common_delta, delta_delta, for_bitpack, EncodingType};
use vdb_types::codec::Writer;
use vdb_types::Value;

/// Heuristic encoding choice for one typed block.
pub fn choose_encoding(block: &TypedSlice<'_>) -> EncodingType {
    with_cells!(block, |c| choose(c, &Family::of(block)))
}

pub(crate) fn choose<C: BlockCells>(c: C, family: &Family<'_>) -> EncodingType {
    let n = c.len();
    if n == 0 {
        return EncodingType::Plain;
    }
    // Long runs (low-cardinality sorted data): RLE wins outright.
    if n >= 8 && run_count(c) * 4 <= n {
        return EncodingType::Rle;
    }
    // `distinct * k <= n` with NULL counted as one distinct value, and few
    // enough values for a block dictionary.
    let has_nulls = usize::from((0..n).any(|i| c.is_null(i)));
    let few_valued = |k: usize| {
        (n / k)
            .checked_sub(has_nulls)
            .is_some_and(|cap| distinct_at_most(c, cap.min(block_dict::MAX_DICT)))
    };
    match family {
        Family::Int { tag: 0 | 1, values } if !values.is_empty() => {
            // Predictable sequences (repeating deltas) → delta dictionary +
            // entropy coding. Sortedness is not required: periodic
            // timestamps that reset at series boundaries still have a tiny
            // delta dictionary. The profitability gate (deltas must repeat
            // ≥8x on average) keeps random integers away from this scheme.
            if common_delta::profitable(values) {
                return EncodingType::CommonDelta;
            }
            // Stable-delta sequences whose deltas do not repeat (drift,
            // acceleration) → delta-of-delta buckets.
            if delta_delta::profitable(values) {
                return EncodingType::DeltaDelta;
            }
            // Few-valued unsorted → per-block dictionary.
            if few_valued(16) {
                return EncodingType::BlockDict;
            }
            // Offsets that fill their bit width uniformly → fixed-stride
            // frame-of-reference packing (also unlocks random-access
            // decode).
            if for_bitpack::profitable(values) {
                return EncodingType::ForBitPack;
            }
            // Many-valued unsorted integers → delta from block min.
            EncodingType::DeltaValue
        }
        Family::Float(_) if few_valued(16) => EncodingType::BlockDict,
        Family::Float(_) => EncodingType::DeltaRange,
        // Strings, booleans, all-NULL and type-mixing blocks: dictionary
        // when repetitive, else plain.
        _ if few_valued(4) => EncodingType::BlockDict,
        _ => EncodingType::Plain,
    }
}

/// Empirically choose the smallest encoding by trial (the DBD method).
/// Returns `(winner, encoded_sizes)` where sizes align with
/// [`EncodingType::CONCRETE`].
pub fn choose_by_trial(values: &[Value]) -> (EncodingType, Vec<(EncodingType, usize)>) {
    let typed = TypedColumn::from_values(values);
    let mut results = Vec::with_capacity(EncodingType::CONCRETE.len());
    for e in EncodingType::CONCRETE {
        let mut w = Writer::new();
        let meta = encode_typed_block(&typed.view(), e, 0, &mut w)
            .expect("a classified block is well-formed");
        // Only count schemes that actually applied (no silent Plain
        // fallback winning under another name).
        if meta.encoding == e {
            results.push((e, w.len()));
        }
    }
    let winner = results
        .iter()
        .min_by_key(|(_, size)| *size)
        .map(|(e, _)| *e)
        .unwrap_or(EncodingType::Plain);
    (winner, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pick(values: &[Value]) -> EncodingType {
        choose_encoding(&TypedColumn::from_values(values).view())
    }

    #[test]
    fn sorted_low_cardinality_picks_rle() {
        let mut vals = Vec::new();
        for d in 0..4 {
            vals.extend(std::iter::repeat_n(Value::Integer(d), 100));
        }
        assert_eq!(pick(&vals), EncodingType::Rle);
    }

    #[test]
    fn periodic_sorted_ints_pick_common_delta() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Integer(i * 300)).collect();
        assert_eq!(pick(&vals), EncodingType::CommonDelta);
    }

    #[test]
    fn many_valued_uniform_ints_pick_for_bitpack() {
        // Uniform offsets fill their 20-bit width: fixed-stride packing
        // beats per-value varints.
        let mut x = 17u64;
        let vals: Vec<Value> = (0..1000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Value::Integer((x % 1_000_000) as i64)
            })
            .collect();
        assert_eq!(pick(&vals), EncodingType::ForBitPack);
    }

    #[test]
    fn skewed_ints_with_outliers_pick_delta_value() {
        // Tiny offsets with rare huge outliers: one outlier widens every
        // fixed-stride slot, but only its own varint.
        let mut x = 5u64;
        let vals: Vec<Value> = (0..1000)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 97 == 0 {
                    Value::Integer((x % 1_000_000_000_000) as i64)
                } else {
                    Value::Integer((x % 500) as i64)
                }
            })
            .collect();
        assert_eq!(pick(&vals), EncodingType::DeltaValue);
    }

    #[test]
    fn drifting_timestamps_pick_delta_delta() {
        // Delta grows every row (never repeats → common-delta dictionary
        // cannot amortize) but the second-order difference is constant.
        let mut acc = 1_600_000_000i64;
        let vals: Vec<Value> = (0..1000)
            .map(|i| {
                acc += 300 + i;
                Value::Timestamp(acc)
            })
            .collect();
        assert_eq!(pick(&vals), EncodingType::DeltaDelta);
    }

    #[test]
    fn few_valued_unsorted_floats_pick_block_dict() {
        let prices = [10.0, 10.25, 10.5];
        let vals: Vec<Value> = (0..600)
            .map(|i| Value::Float(prices[(i * 7) % 3]))
            .collect();
        // Unsorted but few runs of equal neighbors: check not RLE-dominated.
        let e = pick(&vals);
        assert_eq!(e, EncodingType::BlockDict);
    }

    #[test]
    fn random_strings_pick_plain() {
        let vals: Vec<Value> = (0..100)
            .map(|i| Value::Varchar(format!("user_{i}_xyz")))
            .collect();
        assert_eq!(pick(&vals), EncodingType::Plain);
    }

    #[test]
    fn trial_choice_is_never_bigger_than_heuristic() {
        let vals: Vec<Value> = (0..2000).map(|i| Value::Integer(i / 10)).collect();
        let (winner, sizes) = choose_by_trial(&vals);
        let winner_size = sizes.iter().find(|(e, _)| *e == winner).unwrap().1;
        for (_, s) in &sizes {
            assert!(winner_size <= *s);
        }
    }

    #[test]
    fn null_is_one_more_distinct_value_and_its_own_run() {
        // 4 values, 2 distinct + NULL: 3 * 4 > 4, so no dictionary; three
        // runs, so no RLE.
        let vals = vec![
            Value::Integer(1),
            Value::Integer(1),
            Value::Integer(2),
            Value::Null,
        ];
        assert_eq!(pick(&vals), EncodingType::DeltaValue);
        // All NULL: one run.
        assert_eq!(pick(&vec![Value::Null; 8]), EncodingType::Rle);
        assert_eq!(pick(&vec![Value::Null; 4]), EncodingType::BlockDict);
        assert_eq!(pick(&vec![Value::Null; 3]), EncodingType::Plain);
    }
}
