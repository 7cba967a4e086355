//! Property-based tests: every encoding must round-trip arbitrary value
//! sequences (falling back to Plain where inapplicable), and the position
//! index must agree with the data file.

use proptest::prelude::*;
use vdb_encoding::{ColumnReader, ColumnWriter, EncodingType};
use vdb_types::codec::{Reader, Writer};
use vdb_types::Value;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        // Finite floats keep assertions simple; NaN handled in unit tests.
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Varchar),
        any::<bool>().prop_map(Value::Boolean),
        (-4_000_000_000i64..4_000_000_000).prop_map(Value::Timestamp),
    ]
}

/// Homogeneous columns: the realistic case (a column has one type).
fn arb_column() -> impl Strategy<Value = Vec<Value>> {
    prop_oneof![
        prop::collection::vec(
            prop_oneof![Just(Value::Null), (-1000i64..1000).prop_map(Value::Integer)],
            0..500
        ),
        prop::collection::vec(
            prop_oneof![Just(Value::Null), (0i64..50).prop_map(Value::Integer)],
            0..500
        ),
        prop::collection::vec((-1e6f64..1e6).prop_map(Value::Float), 0..300),
        prop::collection::vec("[a-c]{1,3}".prop_map(Value::Varchar), 0..300),
        prop::collection::vec(arb_value(), 0..200),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_encoding_round_trips(values in arb_column(), enc_idx in 0usize..8) {
        let enc = EncodingType::CONCRETE[enc_idx];
        let mut w = Writer::new();
        vdb_encoding::encode_block(&values, enc, &mut w);
        let bytes = w.into_bytes();
        let decoded = vdb_encoding::decode_block(&mut Reader::new(&bytes)).unwrap();
        prop_assert_eq!(decoded.into_values(), values);
    }

    #[test]
    fn auto_round_trips_and_never_beats_plain_badly(values in arb_column()) {
        let mut w = Writer::new();
        let used = vdb_encoding::encode_block(&values, EncodingType::Auto, &mut w);
        prop_assert_ne!(used, EncodingType::Auto);
        let bytes = w.into_bytes();
        let decoded = vdb_encoding::decode_block(&mut Reader::new(&bytes)).unwrap();
        prop_assert_eq!(decoded.into_values(), values);
    }

    #[test]
    fn column_writer_reader_round_trip(values in arb_column(), block in 1usize..200) {
        let mut w = ColumnWriter::with_block_size(EncodingType::Auto, block);
        w.extend(values.iter().cloned());
        let (data, index) = w.finish();
        let r = ColumnReader::new(&data, &index);
        prop_assert_eq!(r.total_rows() as usize, values.len());
        prop_assert_eq!(r.read_all().unwrap(), values.clone());
        // Positional fetches agree with the expanded column.
        if !values.is_empty() {
            let probe = values.len() / 2;
            prop_assert_eq!(r.value_at(probe as u64).unwrap(), values[probe].clone());
        }
    }

    #[test]
    fn block_min_max_bounds_all_values(values in arb_column()) {
        let mut w = ColumnWriter::with_block_size(EncodingType::Auto, 64);
        w.extend(values.iter().cloned());
        let (_, index) = w.finish();
        let mut pos = 0usize;
        for b in &index.blocks {
            for v in &values[pos..pos + b.count as usize] {
                if !v.is_null() {
                    prop_assert!(v >= &b.min && v <= &b.max);
                }
            }
            pos += b.count as usize;
        }
    }

    #[test]
    fn native_decode_agrees_with_value_decode(values in arb_column(), enc_idx in 0usize..8) {
        let enc = EncodingType::CONCRETE[enc_idx];
        let mut w = Writer::new();
        vdb_encoding::encode_block(&values, enc, &mut w);
        let bytes = w.into_bytes();
        let native = vdb_encoding::decode_block_native(&mut Reader::new(&bytes)).unwrap();
        prop_assert_eq!(native.len(), values.len());
        prop_assert_eq!(native.into_decoded().into_values(), values);
    }

    #[test]
    fn integer_codecs_decode_to_native_buffers(
        ints in prop::collection::vec((-10_000i64..10_000).prop_map(Value::Integer), 1..500),
        enc_idx in 0usize..5,
    ) {
        // Delta-family codecs over pure integer blocks must land in native
        // i64 buffers (no per-row Value) — the scan's typed fast path.
        let enc = [
            EncodingType::DeltaValue,
            EncodingType::DeltaRange,
            EncodingType::CommonDelta,
            EncodingType::ForBitPack,
            EncodingType::DeltaDelta,
        ][enc_idx];
        let mut w = Writer::new();
        let used = vdb_encoding::encode_block(&ints, enc, &mut w);
        prop_assert_eq!(used, enc, "codec applicable to pure ints");
        let bytes = w.into_bytes();
        let native = vdb_encoding::decode_block_native(&mut Reader::new(&bytes)).unwrap();
        match native {
            vdb_encoding::NativeBlock::I64 { values, nulls, .. } => {
                prop_assert!(nulls.is_none());
                let expect: Vec<i64> = ints.iter().map(|v| v.as_i64().unwrap()).collect();
                prop_assert_eq!(values, expect);
            }
            other => prop_assert!(false, "expected native i64 block, got {:?}", other),
        }
    }

    #[test]
    fn compressor_round_trips_bytes(data in prop::collection::vec(any::<u8>(), 0..4000)) {
        let c = vdb_compress::compress(&data);
        prop_assert_eq!(vdb_compress::decompress(&c).unwrap(), data);
    }

    #[test]
    fn selected_decode_agrees_with_full_decode(
        values in arb_column(),
        enc_idx in 0usize..8,
        stride in 1usize..7,
        offset in 0usize..7,
    ) {
        // Selection-pushdown contract: every *selected* position must match
        // the full decode; unselected positions are unspecified padding.
        let enc = EncodingType::CONCRETE[enc_idx];
        let mut w = Writer::new();
        vdb_encoding::encode_block(&values, enc, &mut w);
        let bytes = w.into_bytes();
        let full = vdb_encoding::decode_block_native(&mut Reader::new(&bytes))
            .unwrap()
            .into_decoded()
            .into_values();
        let sel: Vec<u32> = (offset..values.len()).step_by(stride).map(|i| i as u32).collect();
        let (native, skipped) =
            vdb_encoding::decode_block_native_selected(&mut Reader::new(&bytes), Some(&sel))
                .unwrap();
        prop_assert_eq!(native.len(), values.len());
        prop_assert!(skipped as usize <= values.len());
        let picked = native.into_decoded().into_values();
        for &p in &sel {
            prop_assert_eq!(&picked[p as usize], &full[p as usize], "position {}", p);
        }
    }

    #[test]
    fn new_codecs_round_trip_integral_blocks_with_nulls(
        raw in prop::collection::vec(
            prop_oneof![Just(Value::Null), (-5_000_000i64..5_000_000).prop_map(Value::Integer)],
            0..500
        ),
        enc_idx in 0usize..2,
    ) {
        // FOR/bit-pack and delta-of-delta must round-trip ≡ plain decode
        // over NULL-bearing integer blocks (NULLs ride the block bitmap).
        let enc = [EncodingType::ForBitPack, EncodingType::DeltaDelta][enc_idx];
        let mut w = Writer::new();
        let used = vdb_encoding::encode_block(&raw, enc, &mut w);
        prop_assert_eq!(used, enc);
        let bytes = w.into_bytes();
        let mut pw = Writer::new();
        vdb_encoding::encode_block(&raw, EncodingType::Plain, &mut pw);
        let pbytes = pw.into_bytes();
        let decoded = vdb_encoding::decode_block(&mut Reader::new(&bytes)).unwrap().into_values();
        let plain = vdb_encoding::decode_block(&mut Reader::new(&pbytes)).unwrap().into_values();
        prop_assert_eq!(decoded, plain);
    }

    #[test]
    fn trial_winner_never_loses_to_plain(values in arb_column()) {
        // The Database Designer's empirical pick must never choose a codec
        // that loses to Plain on its own trial size.
        let (winner, sizes) = vdb_encoding::auto::choose_by_trial(&values);
        let winner_size = sizes.iter().find(|(e, _)| *e == winner).unwrap().1;
        let plain_size = sizes
            .iter()
            .find(|(e, _)| *e == EncodingType::Plain)
            .unwrap()
            .1;
        prop_assert!(winner_size <= plain_size);
    }
}

// ---------------------------------------------------------------------
// The typed encode surface: same bytes as the `Value` adapter, and
// decode_native(encode_native(x)) == x down to the bit.
// ---------------------------------------------------------------------

use vdb_encoding::{encode_typed_block, NativeBlock, TypedColumn, TypedSlice};
use vdb_types::DataType;

/// A homogeneous block in both forms: native cells + NULL flags.
#[derive(Debug, Clone)]
enum Native {
    Ints(DataType, Vec<Option<i64>>),
    Floats(Vec<Option<f64>>),
    Strs(Vec<Option<String>>),
}

fn extreme_i64() -> impl Strategy<Value = i64> {
    prop_oneof![
        any::<i64>(),
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0),
        -3i64..3,
        1_600_000_000i64..1_600_001_000,
    ]
}

fn extreme_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(f64::NAN),
        Just(-0.0),
        Just(0.0),
        Just(f64::INFINITY),
        -1e6f64..1e6,
        (0i64..8).prop_map(|i| i as f64 * 0.25),
    ]
}

fn nullable<T: std::fmt::Debug>(
    cell: impl Strategy<Value = T>,
    max: usize,
) -> impl Strategy<Value = Vec<Option<T>>> {
    (
        prop::collection::vec(cell, 0..max),
        prop::collection::vec(0u8..6, 0..max),
        any::<bool>(),
    )
        .prop_map(|(cells, dice, with_nulls)| {
            cells
                .into_iter()
                .enumerate()
                .map(|(i, c)| match dice.get(i) {
                    Some(0) if with_nulls => None,
                    _ => Some(c),
                })
                .collect()
        })
}

fn arb_native() -> impl Strategy<Value = Native> {
    prop_oneof![
        nullable(extreme_i64(), 300).prop_map(|c| Native::Ints(DataType::Integer, c)),
        nullable(extreme_i64(), 300).prop_map(|c| Native::Ints(DataType::Timestamp, c)),
        nullable(0i64..2, 300).prop_map(|c| Native::Ints(DataType::Boolean, c)),
        nullable((0i64..40).prop_map(|i| i * 300), 300)
            .prop_map(|c| Native::Ints(DataType::Integer, c)),
        nullable(extreme_f64(), 300).prop_map(Native::Floats),
        nullable("[a-c]{0,3}", 300).prop_map(Native::Strs),
    ]
}

impl Native {
    fn values(&self) -> Vec<Value> {
        match self {
            Native::Ints(ty, cells) => cells
                .iter()
                .map(|c| match (c, ty) {
                    (None, _) => Value::Null,
                    (Some(v), DataType::Timestamp) => Value::Timestamp(*v),
                    (Some(v), DataType::Boolean) => Value::Boolean(*v != 0),
                    (Some(v), _) => Value::Integer(*v),
                })
                .collect(),
            Native::Floats(cells) => cells
                .iter()
                .map(|c| c.map_or(Value::Null, Value::Float))
                .collect(),
            Native::Strs(cells) => cells
                .iter()
                .map(|c| c.clone().map_or(Value::Null, Value::Varchar))
                .collect(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Native::Ints(_, c) => c.len(),
            Native::Floats(c) => c.len(),
            Native::Strs(c) => c.len(),
        }
    }

    /// `f` on the block as a hand-built `TypedSlice` — native buffers and
    /// a bitmap assembled here, not by `TypedColumn`.
    fn with_slice<R>(&self, f: impl FnOnce(&TypedSlice<'_>) -> R) -> R {
        fn bitmap<T>(cells: &[Option<T>]) -> Option<Vec<u8>> {
            let mut bits = vec![0u8; cells.len().div_ceil(8)];
            for (i, c) in cells.iter().enumerate() {
                if c.is_none() {
                    bits[i / 8] |= 1 << (i % 8);
                }
            }
            cells.iter().any(Option::is_none).then_some(bits)
        }
        match self {
            Native::Ints(ty, cells) => {
                let values: Vec<i64> = cells.iter().map(|c| c.unwrap_or(0)).collect();
                let nulls = bitmap(cells);
                f(&TypedSlice::I64 {
                    ty: *ty,
                    values: &values,
                    nulls: nulls.as_deref(),
                })
            }
            Native::Floats(cells) => {
                let values: Vec<f64> = cells.iter().map(|c| c.unwrap_or(0.0)).collect();
                let nulls = bitmap(cells);
                f(&TypedSlice::F64 {
                    values: &values,
                    nulls: nulls.as_deref(),
                })
            }
            Native::Strs(cells) => {
                let mut dict: Vec<String> = Vec::new();
                let codes: Vec<u32> = cells
                    .iter()
                    .map(|c| match c {
                        None => 0,
                        Some(s) => match dict.iter().position(|d| d == s) {
                            Some(at) => at as u32,
                            None => {
                                dict.push(s.clone());
                                dict.len() as u32 - 1
                            }
                        },
                    })
                    .collect();
                let nulls = bitmap(cells);
                f(&TypedSlice::Str {
                    dict: &dict,
                    codes: &codes,
                    nulls: nulls.as_deref(),
                })
            }
        }
    }
}

/// Cells of a decoded block, floats by their bits.
fn decoded_cells(block: NativeBlock) -> Vec<String> {
    let mut col = TypedColumn::new();
    col.append_native(block);
    (0..col.len())
        .map(|i| match col.value_at(i) {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect()
}

fn cells_of(values: &[Value]) -> Vec<String> {
    values
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("f{:016x}", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect()
}

fn any_encoding(idx: usize) -> EncodingType {
    match idx {
        0 => EncodingType::Auto,
        i => EncodingType::CONCRETE[i - 1],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn typed_entry_and_value_adapter_write_the_same_block(
        native in arb_native(),
        enc_idx in 0usize..9,
    ) {
        let enc = any_encoding(enc_idx);
        let values = native.values();
        let mut adapter = Writer::new();
        let used = vdb_encoding::encode_block(&values, enc, &mut adapter);
        let mut typed = Writer::new();
        let meta = native
            .with_slice(|slice| encode_typed_block(slice, enc, 0, &mut typed))
            .unwrap();
        prop_assert_eq!(meta.encoding, used);
        prop_assert_eq!(typed.into_bytes(), adapter.into_bytes());
        prop_assert_eq!(meta.count as usize, values.len());
        prop_assert_eq!(
            meta.null_count as usize,
            values.iter().filter(|v| v.is_null()).count()
        );
    }

    #[test]
    fn decode_native_inverts_encode_native(native in arb_native(), enc_idx in 0usize..9) {
        let mut w = Writer::new();
        native
            .with_slice(|slice| encode_typed_block(slice, any_encoding(enc_idx), 0, &mut w))
            .unwrap();
        let bytes = w.into_bytes();
        let block = vdb_encoding::decode_block_native(&mut Reader::new(&bytes)).unwrap();
        prop_assert_eq!(block.len(), native.len());
        prop_assert_eq!(decoded_cells(block), cells_of(&native.values()));
    }

    #[test]
    fn typed_and_value_columns_write_the_same_files(
        native in arb_native(),
        enc_idx in 0usize..9,
        block in 1usize..97,
        reverse in any::<bool>(),
    ) {
        // Whole columns through `ColumnWriter`: `Value`s pushed one by
        // one against the typed column gathered through the same
        // permutation (the identity, or the reverse).
        let enc = any_encoding(enc_idx);
        let values = native.values();
        let typed = TypedColumn::from_values(&values);
        let mut rows: Vec<u32> = (0..values.len() as u32).collect();
        if reverse {
            rows.reverse();
        }
        let mut by_value = ColumnWriter::with_block_size(enc, block);
        by_value.extend(rows.iter().map(|&r| values[r as usize].clone()));
        let mut by_column = ColumnWriter::with_block_size(enc, block);
        by_column.extend_gathered(&typed, &rows);
        let (data_a, index_a) = by_value.finish();
        let (data_b, index_b) = by_column.finish();
        prop_assert_eq!(data_a, data_b);
        prop_assert_eq!(index_a, index_b);
    }
}

/// Malformed typed input is an error, never a panic: bitmap/value length
/// mismatches, stray NULL bits, a float-typed integer block, a code outside
/// the dictionary.
#[test]
fn malformed_typed_blocks_are_errors() {
    let ints = [1i64, 2, 3, 4, 5, 6, 7, 8, 9];
    let dict = ["a".to_string()];
    let malformed = [
        TypedSlice::I64 {
            ty: DataType::Integer,
            values: &ints,
            nulls: Some(&[0b0000_0001]), // 9 values need 2 bytes
        },
        TypedSlice::I64 {
            ty: DataType::Integer,
            values: &ints,
            nulls: Some(&[0, 0, 0]),
        },
        TypedSlice::I64 {
            ty: DataType::Integer,
            values: &ints,
            nulls: Some(&[0, 0b0000_0010]), // bit 9 is past the end
        },
        TypedSlice::I64 {
            ty: DataType::Float,
            values: &ints,
            nulls: None,
        },
        TypedSlice::F64 {
            values: &[1.0, 2.0],
            nulls: Some(&[]),
        },
        TypedSlice::Str {
            dict: &dict,
            codes: &[0, 1],
            nulls: None,
        },
    ];
    for block in &malformed {
        for enc in std::iter::once(EncodingType::Auto).chain(EncodingType::CONCRETE) {
            let mut w = Writer::new();
            assert!(
                encode_typed_block(block, enc, 0, &mut w).is_err(),
                "{block:?} under {enc}"
            );
        }
    }
    // A padding code under a NULL bit is not malformed.
    let padded = TypedSlice::Str {
        dict: &dict,
        codes: &[0, 7],
        nulls: Some(&[0b10]),
    };
    let mut w = Writer::new();
    encode_typed_block(&padded, EncodingType::Auto, 0, &mut w).unwrap();
}
