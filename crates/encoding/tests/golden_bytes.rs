//! Golden bytes: the column files and position indexes `ColumnWriter`
//! produces are pinned, case by case, to digests recorded before the typed
//! encoders replaced the `Value` ones. A codec rewrite that changes one
//! byte of one block, picks another codec under `Auto`, or moves a block's
//! min/max/null count fails here and names the case.
//!
//! A case is (encoding incl. `Auto`) × (column type) × (NULL pattern) ×
//! (value shape); its digest folds every seed of [`SEED_CORPUS`] and every
//! length of [`LENGTHS`] (around the 1 024-row block boundary). The pinned
//! lines live in `golden_bytes.digests`; on a mismatch the lines this tree
//! produces are written under the test's temp directory so the first
//! differing case can be read off with `diff`.

use vdb_encoding::{ColumnWriter, EncodingType};
use vdb_types::Value;

const SEED_CORPUS: [u64; 3] = [1, 14, 0x00C0_FFEE];
const LENGTHS: [usize; 5] = [1, 7, 1023, 1024, 1025];
const TYPES: [&str; 5] = ["INT", "TIMESTAMP", "FLOAT", "VARCHAR", "BOOLEAN"];
const NULLS: [&str; 3] = ["none", "sparse", "all"];
const SHAPES: [&str; 5] = ["sorted", "periodic", "few", "random", "constant"];

const PINNED: &str = include_str!("golden_bytes.digests");

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The integers every integral shape is built from.
fn ints(shape: &str, len: usize, rng: &mut Rng) -> Vec<i64> {
    let mut acc = 1_600_000_000i64;
    (0..len)
        .map(|i| match shape {
            "sorted" => {
                acc += rng.below(50) as i64;
                acc
            }
            "periodic" => {
                acc += if i % 97 == 96 { 3600 } else { 300 };
                acc
            }
            "few" => [7, -3, 1_000_000, 42, 0][rng.below(5) as usize],
            "random" => (rng.below(1_000_000_000_000) as i64) - 500_000_000_000,
            _ => 77,
        })
        .collect()
}

fn column(ty: &str, nulls: &str, shape: &str, len: usize, seed: u64) -> Vec<Value> {
    let mut rng = Rng(seed ^ (len as u64) << 32);
    let mut values: Vec<Value> = match ty {
        "INT" => ints(shape, len, &mut rng)
            .into_iter()
            .map(Value::Integer)
            .collect(),
        "TIMESTAMP" => ints(shape, len, &mut rng)
            .into_iter()
            .map(Value::Timestamp)
            .collect(),
        "FLOAT" => {
            let base = ints(shape, len, &mut rng);
            base.into_iter()
                .enumerate()
                .map(|(i, v)| {
                    Value::Float(match shape {
                        "random" => match i % 64 {
                            0 => f64::NAN,
                            1 => -0.0,
                            2 => f64::INFINITY,
                            3 => f64::from_bits(rng.next()),
                            _ => v as f64 / 4.0,
                        },
                        "periodic" => 100.0 + (i % 50) as f64 * 0.25,
                        _ => v as f64 / 8.0,
                    })
                })
                .collect()
        }
        "VARCHAR" => {
            let base = ints(shape, len, &mut rng);
            base.into_iter()
                .enumerate()
                .map(|(i, v)| {
                    Value::Varchar(match shape {
                        "sorted" => format!("k{v:012}"),
                        "periodic" => format!("region-{}", i % 24),
                        "few" => format!("v{v}"),
                        "random" => {
                            let n = rng.below(14) as usize;
                            (0..n)
                                .map(|_| (b'a' + rng.below(26) as u8) as char)
                                .collect()
                        }
                        _ => "constant".to_string(),
                    })
                })
                .collect()
        }
        _ => (0..len)
            .map(|i| {
                Value::Boolean(match shape {
                    "sorted" => i * 3 >= len,
                    "periodic" => i % 3 == 0,
                    "constant" => true,
                    _ => rng.below(2) == 1,
                })
            })
            .collect(),
    };
    match nulls {
        "sparse" => {
            for v in values.iter_mut() {
                if rng.below(11) == 0 {
                    *v = Value::Null;
                }
            }
        }
        "all" => values.fill(Value::Null),
        _ => {}
    }
    values
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// One line per case: the folded digests of the data files and of the
/// encoded position indexes (chosen codec, min/max, null count per block).
fn produced() -> String {
    let mut out = String::new();
    let encodings = std::iter::once(EncodingType::Auto).chain(EncodingType::CONCRETE);
    for enc in encodings {
        for ty in TYPES {
            for nulls in NULLS {
                for shape in SHAPES {
                    let (mut data_h, mut index_h) =
                        (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
                    for seed in SEED_CORPUS {
                        for len in LENGTHS {
                            let mut w = ColumnWriter::new(enc);
                            w.extend(column(ty, nulls, shape, len, seed));
                            let (data, index) = w.finish();
                            fnv(&mut data_h, &(data.len() as u64).to_le_bytes());
                            fnv(&mut data_h, &data);
                            let index = index.encode();
                            fnv(&mut index_h, &(index.len() as u64).to_le_bytes());
                            fnv(&mut index_h, &index);
                        }
                    }
                    out.push_str(&format!(
                        "{} {ty} {nulls} {shape} {data_h:016x} {index_h:016x}\n",
                        enc.name()
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn column_files_and_position_indexes_match_the_pinned_digests() {
    let produced = produced();
    assert_eq!(produced.lines().count(), 9 * 5 * 3 * 5);
    if produced == PINNED {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_bytes.produced");
    std::fs::write(&path, &produced).expect("write the produced digests");
    let first = produced
        .lines()
        .zip(PINNED.lines().chain(std::iter::repeat("<missing>")))
        .find(|(got, want)| got != want)
        .expect("the texts differ");
    let differing = produced
        .lines()
        .zip(PINNED.lines().chain(std::iter::repeat("<missing>")))
        .filter(|(got, want)| got != want)
        .count();
    panic!(
        "{differing} cases differ from golden_bytes.digests; first:\n  produced {}\n  pinned   {}\n\
         all produced lines: {}",
        first.0,
        first.1,
        path.display()
    );
}
