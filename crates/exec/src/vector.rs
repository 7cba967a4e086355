//! Typed column vectors, RLE vectors, and selection vectors — the §6.1
//! "operate directly on encoded data" layer of the executor.
//!
//! A [`TypedVector`] stores one batch column in a native buffer
//! (`Vec<i64>`/`Vec<f64>`, a [`Bitmap`] for booleans, dictionary codes for
//! strings) plus a validity bitmap for SQL NULLs. An [`RleVector`] keeps
//! run-length-encoded columns first-class, with cached prefix offsets so
//! `len` is O(1) and point access is O(log runs). A [`SelectionVector`]
//! lists surviving row positions, so filters, SIP and delete-vector
//! visibility mark survivors without materializing a single value.
//!
//! The `Value`-per-cell representation remains the compatibility edge:
//! [`TypedVector::to_values`] / [`TypedVector::from_values`] convert at the
//! boundary where row-pivoting operators (sort, exchange, analytic) take
//! over. The hash join is not one of them: its build side is typed vectors
//! concatenated with [`TypedVector::try_append`], and its output is a
//! [`TypedVector::take`] of both sides at the matching row indices.

use std::sync::Arc;
use vdb_types::{DataType, StringDictionary, Value};

// ---------------------------------------------------------------------------
// Bitmap
// ---------------------------------------------------------------------------

/// A fixed-length bit vector (64-bit words, LSB-first).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    pub fn new_filled(len: usize, value: bool) -> Bitmap {
        let word = if value { u64::MAX } else { 0 };
        let mut words = vec![word; len.div_ceil(64)];
        // Bits past `len` stay zero: `push` only ever sets a bit.
        if let (Some(last), false) = (words.last_mut(), len.is_multiple_of(64)) {
            *last &= (1u64 << (len % 64)) - 1;
        }
        Bitmap { words, len }
    }

    pub fn from_bools(bits: impl IntoIterator<Item = bool>) -> Bitmap {
        let mut b = Bitmap::default();
        for bit in bits {
            b.push(bit);
        }
        b
    }

    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    pub fn set(&mut self, i: usize, bit: bool) {
        debug_assert!(i < self.len);
        if bit {
            self.words[i / 64] |= 1 << (i % 64);
        } else {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        // Mask the tail beyond `len` (push never sets those bits, but set()
        // after a truncation could; cheap to be safe).
        let mut total = 0usize;
        for (w, &word) in self.words.iter().enumerate() {
            let bits_here = (self.len - w * 64).min(64);
            let mask = if bits_here == 64 {
                u64::MAX
            } else {
                (1u64 << bits_here) - 1
            };
            total += (word & mask).count_ones() as usize;
        }
        total
    }

    /// Gather the bits at `indices` into a new bitmap.
    pub fn gather(&self, indices: &[u32]) -> Bitmap {
        Bitmap::from_bools(indices.iter().map(|&i| self.get(i as usize)))
    }

    /// Append all of `other`'s bits.
    pub fn extend(&mut self, other: &Bitmap) {
        for i in 0..other.len() {
            self.push(other.get(i));
        }
    }
}

/// Build a validity bitmap (bit set = non-NULL) from an on-disk null bitmap
/// (bit set = NULL, byte-based). `None` when there are no nulls.
pub fn validity_from_null_bitmap(nulls: Option<&[u8]>, len: usize) -> Option<Bitmap> {
    nulls.map(|bitmap| Bitmap::from_bools((0..len).map(|i| bitmap[i / 8] & (1 << (i % 8)) == 0)))
}

// ---------------------------------------------------------------------------
// SelectionVector
// ---------------------------------------------------------------------------

/// Sorted physical row positions that survive filtering. Absence of a
/// selection vector (the `Option<SelectionVector>` on a batch) means "all
/// rows".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelectionVector {
    indices: Vec<u32>,
}

impl SelectionVector {
    pub fn new(indices: Vec<u32>) -> SelectionVector {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "sorted + unique");
        SelectionVector { indices }
    }

    pub fn from_mask(mask: &[bool]) -> SelectionVector {
        SelectionVector {
            indices: mask
                .iter()
                .enumerate()
                .filter_map(|(i, &keep)| keep.then_some(i as u32))
                .collect(),
        }
    }

    /// The identity selection over `len` rows.
    pub fn identity(len: usize) -> SelectionVector {
        SelectionVector {
            indices: (0..len as u32).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.indices.iter().map(|&i| i as usize)
    }

    /// Physical index of logical row `i`.
    #[inline]
    pub fn get(&self, i: usize) -> usize {
        self.indices[i] as usize
    }

    /// Keep only the positions whose *logical* index passes `mask`
    /// (composing a downstream filter with this selection).
    pub fn refine_by_mask(&self, mask: &[bool]) -> SelectionVector {
        debug_assert_eq!(mask.len(), self.indices.len());
        SelectionVector {
            indices: self
                .indices
                .iter()
                .zip(mask)
                .filter_map(|(&p, &keep)| keep.then_some(p))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// TypedVector
// ---------------------------------------------------------------------------

/// The "no such row" index: [`TypedVector::take`] turns it into a NULL. The
/// hash join pads the build side of an outer join's unmatched probe rows
/// with it.
pub const NO_ROW: u32 = u32::MAX;

/// Native payload of a typed vector.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorData {
    Int64(Vec<i64>),
    Timestamp(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Bitmap),
    /// Dictionary-coded strings; the dictionary is shared (`Arc`) so
    /// copying a column copies no string bytes.
    Dict {
        dict: Arc<StringDictionary>,
        codes: Vec<u32>,
    },
}

/// One batch column in type-native form with a validity bitmap
/// (`None` = no NULLs; bit set = value present).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedVector {
    data: VectorData,
    validity: Option<Bitmap>,
}

impl TypedVector {
    pub fn new(data: VectorData, validity: Option<Bitmap>) -> TypedVector {
        if let Some(v) = &validity {
            debug_assert_eq!(v.len(), data_len(&data));
        }
        TypedVector { data, validity }
    }

    pub fn data(&self) -> &VectorData {
        &self.data
    }

    /// Decompose into the native payload and validity bitmap (used by the
    /// vectorized expression engine to move buffers without cloning).
    pub fn into_parts(self) -> (VectorData, Option<Bitmap>) {
        (self.data, self.validity)
    }

    pub fn validity(&self) -> Option<&Bitmap> {
        self.validity.as_ref()
    }

    pub fn len(&self) -> usize {
        data_len(&self.data)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical column type.
    pub fn data_type(&self) -> DataType {
        match &self.data {
            VectorData::Int64(_) => DataType::Integer,
            VectorData::Timestamp(_) => DataType::Timestamp,
            VectorData::Float64(_) => DataType::Float,
            VectorData::Bool(_) => DataType::Boolean,
            VectorData::Dict { .. } => DataType::Varchar,
        }
    }

    /// Is row `i` non-NULL?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v.get(i))
    }

    /// Number of NULLs.
    pub fn null_count(&self) -> usize {
        match &self.validity {
            None => 0,
            Some(v) => v.len() - v.count_ones(),
        }
    }

    /// [`Value::hash64`] of row `i` computed natively — no `Value` is
    /// constructed. NULL rows hash as [`Value::hash64_null`]. Used by the
    /// SIP probes and the parallel hash join's typed probe path.
    #[inline]
    pub fn hash64_at(&self, i: usize) -> u64 {
        if !self.is_valid(i) {
            return Value::hash64_null();
        }
        match &self.data {
            VectorData::Int64(v) | VectorData::Timestamp(v) => Value::hash64_of_i64(v[i]),
            VectorData::Float64(v) => Value::hash64_of_f64(v[i]),
            VectorData::Bool(b) => Value::hash64_of_i64(i64::from(b.get(i))),
            VectorData::Dict { dict, codes } => Value::hash64_of_str(dict.get(codes[i])),
        }
    }

    /// Value at row `i` (constructs a `Value`; the compatibility edge).
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            VectorData::Int64(v) => Value::Integer(v[i]),
            VectorData::Timestamp(v) => Value::Timestamp(v[i]),
            VectorData::Float64(v) => Value::Float(v[i]),
            VectorData::Bool(b) => Value::Boolean(b.get(i)),
            VectorData::Dict { dict, codes } => Value::Varchar(dict.get(codes[i]).to_string()),
        }
    }

    /// Expand the whole vector to values.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value_at(i)).collect()
    }

    /// Gather the values at `indices`.
    pub fn gather_values(&self, indices: &[u32]) -> Vec<Value> {
        indices.iter().map(|&i| self.value_at(i as usize)).collect()
    }

    /// Gather rows at `sel` into a new vector of the same type.
    pub fn filter(&self, sel: &SelectionVector) -> TypedVector {
        self.take(sel.indices())
    }

    /// Gather the rows at `indices` — any order, repeats allowed — into a
    /// new vector of the same type; a [`NO_ROW`] index yields NULL. Native
    /// buffers copy natively, a dictionary is shared, no `Value` is built.
    pub fn take(&self, indices: &[u32]) -> TypedVector {
        fn gather<T: Copy + Default>(v: &[T], indices: &[u32]) -> Vec<T> {
            indices
                .iter()
                .map(|&i| v.get(i as usize).copied().unwrap_or_default())
                .collect()
        }
        debug_assert!(indices
            .iter()
            .all(|&i| i == NO_ROW || (i as usize) < self.len()));
        let data = match &self.data {
            VectorData::Int64(v) => VectorData::Int64(gather(v, indices)),
            VectorData::Timestamp(v) => VectorData::Timestamp(gather(v, indices)),
            VectorData::Float64(v) => VectorData::Float64(gather(v, indices)),
            VectorData::Bool(b) => VectorData::Bool(Bitmap::from_bools(
                indices.iter().map(|&i| i != NO_ROW && b.get(i as usize)),
            )),
            VectorData::Dict { dict, codes } => VectorData::Dict {
                dict: dict.clone(),
                codes: gather(codes, indices),
            },
        };
        let padded = indices.contains(&NO_ROW);
        let validity = (padded || self.validity.is_some()).then(|| {
            Bitmap::from_bools(
                indices
                    .iter()
                    .map(|&i| i != NO_ROW && self.is_valid(i as usize)),
            )
        });
        TypedVector { data, validity }
    }

    /// Append `other`'s rows when it holds the same native type, unifying
    /// dictionaries (the appended codes are re-interned into this vector's
    /// dictionary, once per distinct string). A vector of another type
    /// comes back untouched.
    pub fn try_append(&mut self, other: TypedVector) -> Result<(), TypedVector> {
        let (len, other_len) = (self.len(), other.len());
        match (&mut self.data, &other.data) {
            (VectorData::Int64(a), VectorData::Int64(b))
            | (VectorData::Timestamp(a), VectorData::Timestamp(b)) => a.extend_from_slice(b),
            (VectorData::Float64(a), VectorData::Float64(b)) => a.extend_from_slice(b),
            (VectorData::Bool(a), VectorData::Bool(b)) => a.extend(b),
            (
                VectorData::Dict { dict, codes },
                VectorData::Dict {
                    dict: other_dict,
                    codes: other_codes,
                },
            ) => {
                if Arc::ptr_eq(dict, other_dict) {
                    codes.extend_from_slice(other_codes);
                } else {
                    let dict = Arc::make_mut(dict);
                    let remap: Vec<u32> = other_dict
                        .entries()
                        .iter()
                        .map(|s| dict.intern(s))
                        .collect();
                    // An all-NULL chunk has padding codes and no entries.
                    codes.extend(
                        other_codes
                            .iter()
                            .map(|&c| remap.get(c as usize).copied().unwrap_or_default()),
                    );
                }
            }
            _ => return Err(other),
        }
        if self.validity.is_some() || other.validity.is_some() {
            let mut validity = self
                .validity
                .take()
                .unwrap_or_else(|| Bitmap::new_filled(len, true));
            match &other.validity {
                Some(v) => validity.extend(v),
                None => validity.extend(&Bitmap::new_filled(other_len, true)),
            }
            self.validity = Some(validity);
        }
        Ok(())
    }

    /// Build a typed vector from homogeneous values (NULLs allowed), taking
    /// ownership so `Varchar` strings move into the dictionary. Returns the
    /// input back when the values are mixed-type or all NULL.
    pub fn from_owned_values(values: Vec<Value>) -> Result<TypedVector, Vec<Value>> {
        let Some(ty) = values.iter().find_map(Value::data_type) else {
            return Err(values); // empty or all NULL: nothing to specialize on
        };
        if values
            .iter()
            .any(|v| !v.is_null() && v.data_type() != Some(ty))
        {
            return Err(values);
        }
        let n = values.len();
        let has_nulls = values.iter().any(Value::is_null);
        let validity = has_nulls.then(|| Bitmap::from_bools(values.iter().map(|v| !v.is_null())));
        let data = match ty {
            DataType::Integer => VectorData::Int64(
                values
                    .iter()
                    .map(|v| v.as_i64().unwrap_or_default())
                    .collect(),
            ),
            DataType::Timestamp => VectorData::Timestamp(
                values
                    .iter()
                    .map(|v| v.as_i64().unwrap_or_default())
                    .collect(),
            ),
            DataType::Float => VectorData::Float64(
                values
                    .iter()
                    .map(|v| v.as_f64().unwrap_or_default())
                    .collect(),
            ),
            DataType::Boolean => VectorData::Bool(Bitmap::from_bools(
                values.iter().map(|v| v.as_bool().unwrap_or_default()),
            )),
            DataType::Varchar => {
                let mut dict = StringDictionary::new();
                let mut codes = Vec::with_capacity(n);
                for v in values {
                    match v {
                        Value::Varchar(s) => codes.push(dict.intern_owned(s)),
                        _ => codes.push(0), // NULL padding; validity masks it
                    }
                }
                return Ok(TypedVector {
                    data: VectorData::Dict {
                        dict: Arc::new(dict),
                        codes,
                    },
                    validity,
                });
            }
        };
        Ok(TypedVector { data, validity })
    }

    /// Borrowing variant of [`TypedVector::from_owned_values`].
    pub fn from_values(values: &[Value]) -> Option<TypedVector> {
        TypedVector::from_owned_values(values.to_vec()).ok()
    }
}

fn data_len(data: &VectorData) -> usize {
    match data {
        VectorData::Int64(v) | VectorData::Timestamp(v) => v.len(),
        VectorData::Float64(v) => v.len(),
        VectorData::Bool(b) => b.len(),
        VectorData::Dict { codes, .. } => codes.len(),
    }
}

// ---------------------------------------------------------------------------
// RleVector
// ---------------------------------------------------------------------------

/// A run-length-encoded column kept first-class: `(value, run_length)`
/// pairs plus cached prefix offsets, so `len` is O(1) and point access is
/// a binary search instead of a linear run walk.
#[derive(Debug, Clone)]
pub struct RleVector {
    runs: Vec<(Value, u32)>,
    /// `offsets[i]` = first row of run `i`; a final entry holds the total.
    offsets: Vec<u64>,
}

impl PartialEq for RleVector {
    fn eq(&self, other: &RleVector) -> bool {
        self.runs == other.runs
    }
}

impl RleVector {
    pub fn new(runs: Vec<(Value, u32)>) -> RleVector {
        let mut offsets = Vec::with_capacity(runs.len() + 1);
        let mut total = 0u64;
        for (_, n) in &runs {
            offsets.push(total);
            total += u64::from(*n);
        }
        offsets.push(total);
        RleVector { runs, offsets }
    }

    /// Total row count — O(1) from the cached offsets.
    pub fn len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn runs(&self) -> &[(Value, u32)] {
        &self.runs
    }

    /// Start row of run `ri`.
    pub fn run_start(&self, ri: usize) -> usize {
        self.offsets[ri] as usize
    }

    /// Index of the run holding row `i` — O(log runs) via the cached
    /// prefix offsets.
    pub fn run_index_at(&self, i: usize) -> usize {
        assert!(i < self.len(), "row {i} out of bounds for rle vector");
        // partition_point returns the first offset > i; its predecessor is
        // the run containing i.
        self.offsets.partition_point(|&o| o <= i as u64) - 1
    }

    /// Value at row `i` — O(log runs).
    pub fn value_at(&self, i: usize) -> &Value {
        &self.runs[self.run_index_at(i)].0
    }

    /// Expand to plain values (cloning run values).
    pub fn to_values(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        for (v, n) in &self.runs {
            for _ in 0..*n {
                out.push(v.clone());
            }
        }
        out
    }

    /// Gather values at physical `indices` (sorted): O(indices + runs).
    pub fn gather_values(&self, indices: &[u32]) -> Vec<Value> {
        let mut out = Vec::with_capacity(indices.len());
        let mut ri = 0usize;
        for &i in indices {
            let i = u64::from(i);
            // indices are sorted, so the run pointer only moves forward.
            while self.offsets[ri + 1] <= i {
                ri += 1;
            }
            out.push(self.runs[ri].0.clone());
        }
        out
    }

    /// New RLE vector holding only the rows in `sel` — runs survive with
    /// shortened lengths (never expanded), empty runs are dropped.
    pub fn filter(&self, sel: &SelectionVector) -> RleVector {
        self.take_sorted(sel.indices())
    }

    /// The rows at non-decreasing `indices` (repeats allowed) as runs: a
    /// run survives with as many rows as `indices` lists from it.
    pub fn take_sorted(&self, indices: &[u32]) -> RleVector {
        debug_assert!(indices.windows(2).all(|w| w[0] <= w[1]));
        let mut out: Vec<(Value, u32)> = Vec::new();
        let mut ri = 0usize;
        let mut last_ri = usize::MAX;
        for &i in indices {
            let i = u64::from(i);
            while self.offsets[ri + 1] <= i {
                ri += 1;
            }
            if ri == last_ri {
                // Same run as the previous survivor: extend, no value
                // comparison needed.
                out.last_mut().unwrap().1 += 1;
            } else {
                out.push((self.runs[ri].0.clone(), 1));
                last_ri = ri;
            }
        }
        RleVector::new(out)
    }

    /// Keep rows where `mask[i]`, preserving run structure.
    pub fn filter_mask(&self, mask: &[bool]) -> RleVector {
        debug_assert_eq!(mask.len(), self.len());
        let mut out: Vec<(Value, u32)> = Vec::new();
        let mut pos = 0usize;
        for (v, n) in &self.runs {
            let kept = mask[pos..pos + *n as usize].iter().filter(|&&b| b).count() as u32;
            if kept > 0 {
                out.push((v.clone(), kept));
            }
            pos += *n as usize;
        }
        RleVector::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::from_bools([true, false, true]);
        assert_eq!(b.len(), 3);
        assert!(b.get(0) && !b.get(1) && b.get(2));
        assert_eq!(b.count_ones(), 2);
        b.set(1, true);
        assert_eq!(b.count_ones(), 3);
        let mut big = Bitmap::new_filled(130, true);
        assert_eq!(big.count_ones(), 130);
        // Growing a filled bitmap: the new bits are what was pushed.
        big.extend(&Bitmap::from_bools([false, true, false]));
        assert_eq!((big.len(), big.count_ones()), (133, 131));
        assert!(!big.get(130) && big.get(131) && !big.get(132));
    }

    #[test]
    fn selection_from_mask_and_refine() {
        let sel = SelectionVector::from_mask(&[true, false, true, true]);
        assert_eq!(sel.indices(), &[0, 2, 3]);
        let refined = sel.refine_by_mask(&[false, true, true]);
        assert_eq!(refined.indices(), &[2, 3]);
    }

    #[test]
    fn typed_round_trip_with_nulls() {
        let vals = vec![Value::Integer(1), Value::Null, Value::Integer(3)];
        let tv = TypedVector::from_values(&vals).unwrap();
        assert_eq!(tv.len(), 3);
        assert_eq!(tv.null_count(), 1);
        assert_eq!(tv.to_values(), vals);
        assert_eq!(tv.value_at(1), Value::Null);
    }

    #[test]
    fn dict_vector_shares_strings() {
        let vals = vec![
            Value::Varchar("a".into()),
            Value::Varchar("b".into()),
            Value::Varchar("a".into()),
        ];
        let tv = TypedVector::from_values(&vals).unwrap();
        let VectorData::Dict { dict, codes } = tv.data() else {
            panic!("expected dict vector");
        };
        assert_eq!(dict.len(), 2);
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(tv.to_values(), vals);
    }

    #[test]
    fn mixed_values_stay_plain() {
        let vals = vec![Value::Integer(1), Value::Varchar("x".into())];
        assert!(TypedVector::from_values(&vals).is_none());
        assert!(TypedVector::from_values(&[Value::Null, Value::Null]).is_none());
    }

    #[test]
    fn typed_filter_gathers() {
        let tv = TypedVector::from_values(&[
            Value::Integer(10),
            Value::Integer(20),
            Value::Null,
            Value::Integer(40),
        ])
        .unwrap();
        let sel = SelectionVector::new(vec![1, 2, 3]);
        let f = tv.filter(&sel);
        assert_eq!(
            f.to_values(),
            vec![Value::Integer(20), Value::Null, Value::Integer(40)]
        );
    }

    #[test]
    fn take_repeats_reorders_and_pads() {
        let ints = TypedVector::from_values(&[Value::Integer(10), Value::Null, Value::Integer(30)])
            .unwrap();
        let taken = ints.take(&[2, 2, NO_ROW, 0, 1]);
        assert_eq!(
            taken.to_values(),
            vec![
                Value::Integer(30),
                Value::Integer(30),
                Value::Null,
                Value::Integer(10),
                Value::Null
            ]
        );
        // No NULL in, no padding asked: no validity bitmap out.
        let dense = TypedVector::from_values(&[Value::Float(1.5), Value::Float(2.5)]).unwrap();
        assert!(dense.take(&[1, 0, 1]).validity().is_none());
        // Padding an empty vector (an outer join against an empty side).
        let strs = TypedVector::from_values(&[Value::Varchar("a".into())]).unwrap();
        let none = strs.take(&[]);
        assert_eq!(
            none.take(&[NO_ROW, NO_ROW]).to_values(),
            vec![Value::Null; 2]
        );
    }

    #[test]
    fn try_append_concatenates_same_types_and_unifies_dictionaries() {
        let s = |x: &str| Value::Varchar(x.into());
        let mut a = TypedVector::from_values(&[s("x"), s("y")]).unwrap();
        let b = TypedVector::from_values(&[s("y"), Value::Null, s("z")]).unwrap();
        a.try_append(b).unwrap();
        assert_eq!(
            a.to_values(),
            vec![s("x"), s("y"), s("y"), Value::Null, s("z")]
        );
        let VectorData::Dict { dict, .. } = a.data() else {
            panic!("still dictionary-coded");
        };
        assert_eq!(dict.len(), 3, "y interned once");
        // Validity appears with the first NULL-bearing chunk, either side.
        let mut ints = TypedVector::from_values(&[Value::Null, Value::Integer(1)]).unwrap();
        ints.try_append(TypedVector::from_values(&[Value::Integer(2)]).unwrap())
            .unwrap();
        assert_eq!(
            ints.to_values(),
            vec![Value::Null, Value::Integer(1), Value::Integer(2)]
        );
        // Another type comes back untouched.
        let floats = TypedVector::from_values(&[Value::Float(1.0)]).unwrap();
        assert_eq!(ints.try_append(floats.clone()), Err(floats));
        let ts = TypedVector::from_values(&[Value::Timestamp(1)]).unwrap();
        assert!(
            ints.try_append(ts).is_err(),
            "Integer and Timestamp stay apart"
        );
    }

    #[test]
    fn rle_offsets_cache_len_and_point_access() {
        let rv = RleVector::new(vec![
            (Value::Integer(7), 3),
            (Value::Integer(9), 2),
            (Value::Null, 4),
        ]);
        assert_eq!(rv.len(), 9);
        assert_eq!(rv.value_at(0), &Value::Integer(7));
        assert_eq!(rv.value_at(2), &Value::Integer(7));
        assert_eq!(rv.value_at(3), &Value::Integer(9));
        assert_eq!(rv.value_at(5), &Value::Null);
        assert_eq!(rv.value_at(8), &Value::Null);
    }

    #[test]
    fn rle_filter_preserves_runs() {
        let rv = RleVector::new(vec![(Value::Integer(1), 4), (Value::Integer(2), 4)]);
        // Keep rows 0,1,5 → runs (1,2),(2,1).
        let sel = SelectionVector::new(vec![0, 1, 5]);
        let f = rv.filter(&sel);
        assert_eq!(f.runs(), &[(Value::Integer(1), 2), (Value::Integer(2), 1)]);
        // Mask path: drop the whole first run.
        let f2 = rv.filter_mask(&[false, false, false, false, true, true, true, true]);
        assert_eq!(f2.runs(), &[(Value::Integer(2), 4)]);
        assert_eq!(f2.len(), 4);
    }
}
