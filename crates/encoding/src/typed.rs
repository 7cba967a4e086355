//! Typed columns: the encode-side mirror of [`NativeBlock`].
//!
//! A [`TypedColumn`] holds cells the way the decoders hand them out —
//! `i64` (INTEGER, TIMESTAMP, BOOLEAN as 0/1), `f64`, or dictionary codes
//! into a string dictionary, plus the NULL positions as the on-disk bitmap
//! — and a [`TypedSlice`] is the borrowed view of it the block encoders
//! take. Rows enter through [`TypedColumn::push`] (the one pivot: a cell is
//! classified once, a column that really mixes types degrades to
//! [`TypedSlice::Mixed`]), decoded blocks through
//! [`TypedColumn::append_native`] (no `Value` per cell), and a sorted
//! column is cut out of another through [`TypedColumn::extend_gather`].

use crate::block::{bitmap_is_null, NativeBlock};
use std::collections::HashMap;
use std::sync::Arc;
use vdb_types::{DataType, DbError, DbResult, Value};

/// NULL positions in the on-disk form: bit set = NULL, LSB first, always
/// `len.div_ceil(8)` bytes with no bit set at or past `len`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NullBits {
    bits: Vec<u8>,
    len: usize,
    count: usize,
}

impl NullBits {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many positions are NULL.
    pub fn count(&self) -> usize {
        self.count
    }

    pub fn is_null(&self, i: usize) -> bool {
        self.count > 0 && bitmap_is_null(&self.bits, i)
    }

    /// The bitmap, or `None` when nothing is NULL.
    pub fn bitmap(&self) -> Option<&[u8]> {
        (self.count > 0).then_some(&self.bits)
    }

    pub fn push(&mut self, null: bool) {
        self.push_n(null, 1);
    }

    pub fn push_n(&mut self, null: bool, n: usize) {
        let start = self.len;
        self.len += n;
        self.bits.resize(self.len.div_ceil(8), 0);
        if null {
            for i in start..self.len {
                self.bits[i / 8] |= 1 << (i % 8);
            }
            self.count += n;
        }
    }
}

/// A string dictionary under construction: distinct strings in first-seen
/// order and the lookup that keeps them distinct.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    strings: Vec<String>,
    lookup: HashMap<String, u32>,
    /// The code handed out last: run-heavy columns ask for it again.
    recent: u32,
}

impl StrDict {
    pub fn strings(&self) -> &[String] {
        &self.strings
    }

    fn intern(&mut self, s: &str) -> u32 {
        // One comparison instead of a hash when the string repeats.
        if self
            .strings
            .get(self.recent as usize)
            .is_some_and(|r| r == s)
        {
            return self.recent;
        }
        self.recent = match self.lookup.get(s) {
            Some(&code) => code,
            None => {
                self.strings.push(s.to_string());
                self.lookup
                    .insert(s.to_string(), self.strings.len() as u32 - 1);
                self.strings.len() as u32 - 1
            }
        };
        self.recent
    }
}

#[derive(Debug, Clone)]
enum Cells {
    /// `ty` is `Integer`, `Timestamp` or `Boolean` (stored 0/1).
    I64 {
        ty: DataType,
        values: Vec<i64>,
    },
    F64(Vec<f64>),
    Str {
        dict: Arc<StrDict>,
        codes: Vec<u32>,
    },
    /// More than one non-NULL type arrived.
    Mixed(Vec<Value>),
}

/// An owned, growable typed column. While every cell is NULL the column has
/// no type yet and adopts the first non-NULL cell's.
#[derive(Debug, Clone)]
pub struct TypedColumn {
    cells: Cells,
    nulls: NullBits,
}

impl Default for TypedColumn {
    fn default() -> TypedColumn {
        TypedColumn {
            cells: Cells::I64 {
                ty: DataType::Integer,
                values: Vec::new(),
            },
            nulls: NullBits::default(),
        }
    }
}

/// The borrowed form of a typed block or column: what the encoders take.
/// `nulls` is a bitmap over exactly these cells (see [`NullBits`]); values
/// at NULL positions are padding. Dictionary entries must be distinct for
/// the encoded bytes to be canonical (any dictionary round-trips).
#[derive(Debug, Clone, Copy)]
pub enum TypedSlice<'a> {
    /// `ty` is `Integer`, `Timestamp` or `Boolean`.
    I64 {
        ty: DataType,
        values: &'a [i64],
        nulls: Option<&'a [u8]>,
    },
    F64 {
        values: &'a [f64],
        nulls: Option<&'a [u8]>,
    },
    Str {
        dict: &'a [String],
        codes: &'a [u32],
        nulls: Option<&'a [u8]>,
    },
    /// A block that mixes types (or was never classified).
    Mixed(&'a [Value]),
}

impl TypedSlice<'_> {
    pub fn len(&self) -> usize {
        match self {
            TypedSlice::I64 { values, .. } => values.len(),
            TypedSlice::F64 { values, .. } => values.len(),
            TypedSlice::Str { codes, .. } => codes.len(),
            TypedSlice::Mixed(values) => values.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many cells are NULL.
    pub fn null_count(&self) -> usize {
        match self {
            TypedSlice::Mixed(values) => values.iter().filter(|v| v.is_null()).count(),
            _ => self
                .nulls()
                .map_or(0, |b| b.iter().map(|byte| byte.count_ones() as usize).sum()),
        }
    }

    fn nulls(&self) -> Option<&[u8]> {
        match self {
            TypedSlice::I64 { nulls, .. }
            | TypedSlice::F64 { nulls, .. }
            | TypedSlice::Str { nulls, .. } => *nulls,
            TypedSlice::Mixed(_) => None,
        }
    }

    /// Cell `i` as a `Value`.
    pub fn value_at(&self, i: usize) -> Value {
        if self.nulls().is_some_and(|b| bitmap_is_null(b, i)) {
            return Value::Null;
        }
        match self {
            TypedSlice::I64 { ty, values, .. } => match ty {
                DataType::Timestamp => Value::Timestamp(values[i]),
                DataType::Boolean => Value::Boolean(values[i] != 0),
                _ => Value::Integer(values[i]),
            },
            TypedSlice::F64 { values, .. } => Value::Float(values[i]),
            TypedSlice::Str { dict, codes, .. } => Value::Varchar(dict[codes[i] as usize].clone()),
            TypedSlice::Mixed(values) => values[i].clone(),
        }
    }

    /// Reject input the encoders cannot trust: a bitmap of the wrong length
    /// or with bits past the end, a non-integral `ty`, a code outside the
    /// dictionary.
    pub fn check(&self) -> DbResult<()> {
        let malformed =
            |what: String| Err(DbError::Execution(format!("malformed typed block: {what}")));
        let n = self.len();
        if let Some(bitmap) = self.nulls() {
            if bitmap.len() != n.div_ceil(8) {
                return malformed(format!("{n} values, null bitmap of {} bytes", bitmap.len()));
            }
            if !n.is_multiple_of(8) && bitmap[n / 8] >> (n % 8) != 0 {
                return malformed("null bits past the last value".into());
            }
        }
        match self {
            TypedSlice::I64 { ty, .. } => match ty {
                DataType::Integer | DataType::Timestamp | DataType::Boolean => Ok(()),
                other => malformed(format!("{other} is not an integral type")),
            },
            TypedSlice::Str { dict, codes, nulls } => {
                let bad = codes.iter().enumerate().find(|&(i, &c)| {
                    c as usize >= dict.len() && !nulls.is_some_and(|b| bitmap_is_null(b, i))
                });
                match bad {
                    Some((i, c)) => malformed(format!("code {c} at {i} outside the dictionary")),
                    None => Ok(()),
                }
            }
            _ => Ok(()),
        }
    }
}

impl TypedColumn {
    pub fn new() -> TypedColumn {
        TypedColumn::default()
    }

    /// Classify a run of values (the `Value` adapter's pivot).
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> TypedColumn {
        let mut col = TypedColumn::new();
        for v in values {
            col.push(v);
        }
        col
    }

    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn nulls(&self) -> &NullBits {
        &self.nulls
    }

    pub fn clear(&mut self) {
        *self = TypedColumn::default();
    }

    /// The whole column as an encoder input.
    pub fn view(&self) -> TypedSlice<'_> {
        let nulls = self.nulls.bitmap();
        match &self.cells {
            Cells::I64 { ty, values } => TypedSlice::I64 {
                ty: *ty,
                values,
                nulls,
            },
            Cells::F64(values) => TypedSlice::F64 { values, nulls },
            Cells::Str { dict, codes } => TypedSlice::Str {
                dict: dict.strings(),
                codes,
                nulls,
            },
            Cells::Mixed(values) => TypedSlice::Mixed(values),
        }
    }

    /// Cell `i` as a `Value` (tests, tools and the mixed-type fallback).
    pub fn value_at(&self, i: usize) -> Value {
        self.view().value_at(i)
    }

    fn all_null(&self) -> bool {
        self.nulls.count() == self.len()
    }

    /// Give an all-NULL column the type of the cells about to arrive:
    /// `empty` padded to this column's length.
    fn adopt(&mut self, mut empty: Cells) {
        debug_assert!(self.all_null());
        let n = self.len();
        match &mut empty {
            Cells::I64 { values, .. } => values.resize(n, 0),
            Cells::F64(values) => values.resize(n, 0.0),
            Cells::Str { codes, .. } => codes.resize(n, 0),
            Cells::Mixed(values) => values.resize(n, Value::Null),
        }
        self.cells = empty;
    }

    /// Degrade to [`TypedSlice::Mixed`]: every cell becomes a `Value`.
    fn make_mixed(&mut self) {
        if !matches!(self.cells, Cells::Mixed(_)) {
            self.cells = Cells::Mixed((0..self.len()).map(|i| self.value_at(i)).collect());
        }
    }

    /// Append one cell.
    pub fn push(&mut self, v: &Value) {
        self.push_n(v, 1);
    }

    /// Append `n` copies of a cell (an RLE run).
    pub fn push_n(&mut self, v: &Value, n: usize) {
        let (ty, int, float) = match v {
            Value::Null => (None, 0, 0.0),
            Value::Integer(i) => (Some(DataType::Integer), *i, 0.0),
            Value::Timestamp(i) => (Some(DataType::Timestamp), *i, 0.0),
            Value::Boolean(b) => (Some(DataType::Boolean), i64::from(*b), 0.0),
            Value::Float(f) => (Some(DataType::Float), 0, *f),
            Value::Varchar(_) => (Some(DataType::Varchar), 0, 0.0),
        };
        if let (Some(ty), true) = (ty, self.all_null()) {
            self.adopt(match ty {
                DataType::Float => Cells::F64(Vec::new()),
                DataType::Varchar => Cells::Str {
                    dict: Arc::default(),
                    codes: Vec::new(),
                },
                ty => Cells::I64 {
                    ty,
                    values: Vec::new(),
                },
            });
        }
        let fits = match (&self.cells, ty) {
            (_, None) | (Cells::Mixed(_), _) => true,
            (Cells::I64 { ty: have, .. }, Some(ty)) => *have == ty,
            (Cells::F64(_), Some(ty)) => ty == DataType::Float,
            (Cells::Str { .. }, Some(ty)) => ty == DataType::Varchar,
        };
        if !fits {
            self.make_mixed();
        }
        let grown = self.len() + n;
        match &mut self.cells {
            Cells::I64 { values, .. } => values.resize(grown, int),
            Cells::F64(values) => values.resize(grown, float),
            Cells::Str { dict, codes } => {
                let code = match v {
                    Value::Varchar(s) => Arc::make_mut(dict).intern(s),
                    _ => 0,
                };
                codes.resize(grown, code);
            }
            Cells::Mixed(values) => values.resize(grown, v.clone()),
        }
        self.nulls.push_n(ty.is_none(), n);
    }

    /// Append a decoded block without building a `Value` per cell: native
    /// buffers are copied, a block dictionary is interned once per entry,
    /// runs are appended a run at a time.
    pub fn append_native(&mut self, block: NativeBlock) {
        let all = 0..block.len();
        match &block {
            NativeBlock::I64 { ty, values, nulls } => {
                let nulls = nulls.as_deref();
                let src = TypedSlice::I64 {
                    ty: *ty,
                    values,
                    nulls,
                };
                self.extend_from(src, None, all)
            }
            NativeBlock::F64 { values, nulls } => {
                let nulls = nulls.as_deref();
                self.extend_from(TypedSlice::F64 { values, nulls }, None, all)
            }
            NativeBlock::Str { dict, codes, nulls } => {
                let nulls = nulls.as_deref();
                self.extend_from(TypedSlice::Str { dict, codes, nulls }, None, all)
            }
            NativeBlock::Runs(runs) => runs.iter().for_each(|(v, n)| self.push_n(v, *n as usize)),
            NativeBlock::Values(values) => values.iter().for_each(|v| self.push(v)),
        }
    }

    /// Append cells `rows` of `src`, in that order. Same-typed columns copy
    /// native cells (a string column adopts or shares `src`'s dictionary);
    /// anything else goes cell by cell.
    pub fn extend_gather(&mut self, src: &TypedColumn, rows: &[u32]) {
        let shared = match &src.cells {
            Cells::Str { dict, .. } => Some(dict),
            _ => None,
        };
        self.extend_from(src.view(), shared, rows.iter().map(|&r| r as usize));
    }

    /// Append cells `rows` of a typed slice. `shared` is the dictionary
    /// behind a string slice when it can be shared instead of re-interned.
    fn extend_from(
        &mut self,
        src: TypedSlice<'_>,
        shared: Option<&Arc<StrDict>>,
        rows: impl ExactSizeIterator<Item = usize> + Clone,
    ) {
        // A source without a non-NULL cell has no type to impose.
        if src.null_count() == src.len() {
            return self.push_n(&Value::Null, rows.len());
        }
        if self.all_null() {
            self.adopt(match src {
                TypedSlice::I64 { ty, .. } => Cells::I64 {
                    ty,
                    values: Vec::new(),
                },
                TypedSlice::F64 { .. } => Cells::F64(Vec::new()),
                TypedSlice::Str { .. } => Cells::Str {
                    dict: shared.cloned().unwrap_or_default(),
                    codes: Vec::new(),
                },
                TypedSlice::Mixed(_) => Cells::Mixed(Vec::new()),
            });
        }
        match (&mut self.cells, src) {
            (
                Cells::I64 { ty, values },
                TypedSlice::I64 {
                    ty: sty,
                    values: sv,
                    ..
                },
            ) if *ty == sty => values.extend(rows.clone().map(|r| sv[r])),
            (Cells::F64(values), TypedSlice::F64 { values: sv, .. }) => {
                values.extend(rows.clone().map(|r| sv[r]))
            }
            (Cells::Str { dict, codes }, TypedSlice::Str { codes: sc, .. })
                if shared.is_some_and(|s| Arc::ptr_eq(dict, s)) =>
            {
                codes.extend(rows.clone().map(|r| sc[r]))
            }
            (
                Cells::Str { dict, codes },
                TypedSlice::Str {
                    dict: sd,
                    codes: sc,
                    ..
                },
            ) => {
                let mine = Arc::make_mut(dict);
                let remap: Vec<u32> = sd.iter().map(|s| mine.intern(s)).collect();
                // Codes at NULL positions are padding and may be anything.
                let code = |r: usize| remap.get(sc[r] as usize).copied().unwrap_or(0);
                codes.extend(rows.clone().map(code))
            }
            _ => return rows.for_each(|r| self.push(&src.value_at(r))),
        }
        match src.nulls() {
            None => self.nulls.push_n(false, rows.len()),
            Some(b) => rows.for_each(|r| self.nulls.push(bitmap_is_null(b, r))),
        }
    }
}
