//! What the typed encoders share: one view of a block's cells
//! ([`BlockCells`], monomorphised per native form) and the kernels the
//! chooser and the value-agnostic codecs (Plain, RLE, dictionary) run over
//! it — run count, capped distinct count, min/max.
//!
//! A cell's identity is an exact `u64` key (the integer, the float's bits,
//! the dictionary code, a mixed block's value rank), so equality, distinct
//! counting and dictionary building never compare `Value`s.

use crate::block::bitmap_is_null;
use std::cmp::Ordering;
use vdb_types::codec::Writer;
use vdb_types::{DataType, Value};

pub(crate) trait BlockCells: Copy {
    fn len(self) -> usize;
    fn is_null(self, i: usize) -> bool;
    /// Exact identity of non-NULL cell `i`: equal keys ⇔ equal cells.
    fn key(self, i: usize) -> u64;
    /// `Value` order of two non-NULL cells.
    fn cmp(self, a: usize, b: usize) -> Ordering;
    /// Non-NULL cell `i` as a tagged plain value.
    fn put(self, i: usize, w: &mut Writer);
}

fn null_at(nulls: Option<&[u8]>, i: usize) -> bool {
    nulls.is_some_and(|b| bitmap_is_null(b, i))
}

#[derive(Clone, Copy)]
pub(crate) struct IntCells<'a> {
    pub ty: DataType,
    pub values: &'a [i64],
    pub nulls: Option<&'a [u8]>,
}

impl BlockCells for IntCells<'_> {
    fn len(self) -> usize {
        self.values.len()
    }
    fn is_null(self, i: usize) -> bool {
        null_at(self.nulls, i)
    }
    fn key(self, i: usize) -> u64 {
        self.values[i] as u64
    }
    fn cmp(self, a: usize, b: usize) -> Ordering {
        self.values[a].cmp(&self.values[b])
    }
    fn put(self, i: usize, w: &mut Writer) {
        w.put_value(&match self.ty {
            DataType::Timestamp => Value::Timestamp(self.values[i]),
            DataType::Boolean => Value::Boolean(self.values[i] != 0),
            _ => Value::Integer(self.values[i]),
        });
    }
}

#[derive(Clone, Copy)]
pub(crate) struct FloatCells<'a> {
    pub values: &'a [f64],
    pub nulls: Option<&'a [u8]>,
}

impl BlockCells for FloatCells<'_> {
    fn len(self) -> usize {
        self.values.len()
    }
    fn is_null(self, i: usize) -> bool {
        null_at(self.nulls, i)
    }
    fn key(self, i: usize) -> u64 {
        self.values[i].to_bits()
    }
    fn cmp(self, a: usize, b: usize) -> Ordering {
        self.values[a].total_cmp(&self.values[b])
    }
    fn put(self, i: usize, w: &mut Writer) {
        w.put_value(&Value::Float(self.values[i]));
    }
}

#[derive(Clone, Copy)]
pub(crate) struct StrCells<'a> {
    pub dict: &'a [String],
    pub codes: &'a [u32],
    pub nulls: Option<&'a [u8]>,
}

impl BlockCells for StrCells<'_> {
    fn len(self) -> usize {
        self.codes.len()
    }
    fn is_null(self, i: usize) -> bool {
        null_at(self.nulls, i)
    }
    fn key(self, i: usize) -> u64 {
        u64::from(self.codes[i])
    }
    fn cmp(self, a: usize, b: usize) -> Ordering {
        self.dict[self.codes[a] as usize].cmp(&self.dict[self.codes[b] as usize])
    }
    fn put(self, i: usize, w: &mut Writer) {
        w.put_u8(3);
        w.put_str(&self.dict[self.codes[i] as usize]);
    }
}

/// A type-mixing block: cells are told apart by their rank in `Value`
/// order ([`mixed_ranks`]), so `1` and `1.0` are one cell value here
/// exactly as they are one dictionary entry and one run.
#[derive(Clone, Copy)]
pub(crate) struct MixedCells<'a> {
    pub values: &'a [Value],
    pub ranks: &'a [u32],
}

/// Rank of every value among the block's distinct values in `Value` order.
pub(crate) fn mixed_ranks(values: &[Value]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
    let mut ranks = vec![0u32; values.len()];
    let mut rank = 0;
    for (k, &i) in order.iter().enumerate() {
        if k > 0 && values[order[k - 1] as usize] != values[i as usize] {
            rank += 1;
        }
        ranks[i as usize] = rank;
    }
    ranks
}

impl BlockCells for MixedCells<'_> {
    fn len(self) -> usize {
        self.values.len()
    }
    fn is_null(self, i: usize) -> bool {
        self.values[i].is_null()
    }
    fn key(self, i: usize) -> u64 {
        u64::from(self.ranks[i])
    }
    fn cmp(self, a: usize, b: usize) -> Ordering {
        self.ranks[a].cmp(&self.ranks[b])
    }
    fn put(self, i: usize, w: &mut Writer) {
        w.put_value(&self.values[i]);
    }
}

/// Run `$body` with `$c` bound to the block's [`BlockCells`] form.
macro_rules! with_cells {
    ($block:expr, |$c:ident| $body:expr) => {
        match *$block {
            $crate::typed::TypedSlice::I64 { ty, values, nulls } => {
                let $c = $crate::kernels::IntCells { ty, values, nulls };
                $body
            }
            $crate::typed::TypedSlice::F64 { values, nulls } => {
                let $c = $crate::kernels::FloatCells { values, nulls };
                $body
            }
            $crate::typed::TypedSlice::Str { dict, codes, nulls } => {
                let $c = $crate::kernels::StrCells { dict, codes, nulls };
                $body
            }
            $crate::typed::TypedSlice::Mixed(values) => {
                let ranks = $crate::kernels::mixed_ranks(values);
                let $c = $crate::kernels::MixedCells {
                    values,
                    ranks: &ranks,
                };
                $body
            }
        }
    };
}
pub(crate) use with_cells;

/// Storage equality of two cells: NULL equals NULL.
fn same<C: BlockCells>(c: C, a: usize, b: usize) -> bool {
    match (c.is_null(a), c.is_null(b)) {
        (true, true) => true,
        (false, false) => c.key(a) == c.key(b),
        _ => false,
    }
}

/// `(first cell, length)` of every run of equal neighbours.
pub(crate) fn runs<C: BlockCells>(c: C) -> Vec<(usize, u32)> {
    let mut out: Vec<(usize, u32)> = Vec::new();
    for i in 0..c.len() {
        match out.last_mut() {
            Some((first, n)) if same(c, *first, i) => *n += 1,
            _ => out.push((i, 1)),
        }
    }
    out
}

pub(crate) fn run_count<C: BlockCells>(c: C) -> usize {
    (0..c.len())
        .filter(|&i| i == 0 || !same(c, i - 1, i))
        .count()
}

/// Distinct `u64` keys in first-seen order, refusing to grow past a cap:
/// an open-addressing table of indexes into the key list. A block is at
/// most a few thousand cells, so crafted keys cost a bounded number of
/// probes, never the allocator.
pub(crate) struct KeySet {
    /// `index + 1` into `keys`; 0 = empty.
    table: Vec<u32>,
    keys: Vec<u64>,
    cap: usize,
}

impl KeySet {
    pub fn with_cap(cap: usize) -> KeySet {
        KeySet {
            table: vec![0; (2 * (cap + 1)).next_power_of_two().max(16)],
            keys: Vec::new(),
            cap,
        }
    }

    /// Index of `key` in first-seen order, adding it if new; `None` when
    /// that would be key number `cap + 1`.
    pub fn insert(&mut self, key: u64) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 32;
        let mut slot = h as usize & mask;
        loop {
            match self.table[slot] {
                0 => {
                    if self.keys.len() == self.cap {
                        return None;
                    }
                    self.keys.push(key);
                    self.table[slot] = self.keys.len() as u32;
                    return Some(self.keys.len() as u32 - 1);
                }
                at if self.keys[at as usize - 1] == key => return Some(at - 1),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    pub fn keys(&self) -> &[u64] {
        &self.keys
    }
}

/// Does the block hold at most `cap` distinct non-NULL values? Stops at
/// value `cap + 1`.
pub(crate) fn distinct_at_most<C: BlockCells>(c: C, cap: usize) -> bool {
    let mut set = KeySet::with_cap(cap.min(c.len()));
    (0..c.len()).all(|i| c.is_null(i) || set.insert(c.key(i)).is_some())
}

/// The smallest and the largest non-NULL cell (none in an all-NULL block)
/// and the NULL count: the block's position-index entry.
pub(crate) fn min_max<C: BlockCells>(c: C) -> (Option<(usize, usize)>, u32) {
    let mut ends: Option<(usize, usize)> = None;
    let mut nulls = 0u32;
    let mut previous = None;
    for i in 0..c.len() {
        if c.is_null(i) {
            nulls += 1;
            continue;
        }
        // A cell equal to the one before it (runs, sorted data) cannot move
        // either end; the key test is cheaper than two value comparisons.
        let key = Some(c.key(i));
        if key == previous {
            continue;
        }
        previous = key;
        ends = Some(match ends {
            None => (i, i),
            Some((lo, hi)) => (
                if c.cmp(i, lo) == Ordering::Less {
                    i
                } else {
                    lo
                },
                if c.cmp(i, hi) == Ordering::Greater {
                    i
                } else {
                    hi
                },
            ),
        });
    }
    (ends, nulls)
}
