//! Column-oriented row batches.
//!
//! The engine is vectorized: operators exchange [`Batch`]es of ~[`BATCH_SIZE`]
//! rows rather than single tuples. A batch is column-major; a column arrives
//! from the scan as a [`TypedVector`] (native buffers, §6.1's "operate
//! directly on encoded data"), an [`RleVector`] (unexpanded runs), or plain
//! `Value`s. Filters, SIP and visibility record survivors in a
//! [`SelectionVector`] instead of materializing; operators that cannot
//! exploit columns call [`Batch::rows`]/[`Batch::into_rows`] — the row-pivot
//! compatibility edge — which applies the selection on the way out.

use crate::vector::{RleVector, SelectionVector, TypedVector, NO_ROW};
use std::cell::Cell;
use vdb_encoding::NativeBlock;
use vdb_types::{Row, Value};

/// Target rows per batch.
pub const BATCH_SIZE: usize = 1024;

thread_local! {
    /// Per-thread count of row pivots ([`Batch::rows`] /
    /// [`Batch::into_rows`] calls). The executor's goal is that a typed
    /// scan→filter→project→group-by pipeline performs **zero** pivots
    /// until the `Database` result edge; this counter lets tests assert it
    /// on the driving thread.
    static ROW_PIVOTS: Cell<u64> = const { Cell::new(0) };
}

/// Row pivots performed by the *current thread* so far.
pub fn row_pivot_count() -> u64 {
    ROW_PIVOTS.with(Cell::get)
}

#[inline]
fn note_pivot() {
    // Debugging aid: `VDB_TRACE_PIVOTS=1` prints a backtrace per pivot so
    // a stray pivot inside a supposedly columnar pipeline is easy to find.
    static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    if *TRACE.get_or_init(|| std::env::var_os("VDB_TRACE_PIVOTS").is_some()) {
        eprintln!("pivot at:\n{}", std::backtrace::Backtrace::force_capture());
    }
    ROW_PIVOTS.with(|c| c.set(c.get() + 1));
}

/// One column of a batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSlice {
    /// Expanded `Value`s (the compatibility representation).
    Plain(Vec<Value>),
    /// Unexpanded RLE runs with cached prefix offsets.
    Rle(RleVector),
    /// Type-native buffers with a validity bitmap.
    Typed(TypedVector),
}

impl ColumnSlice {
    /// Construct an RLE column from `(value, run_length)` pairs.
    pub fn rle(runs: Vec<(Value, u32)>) -> ColumnSlice {
        ColumnSlice::Rle(RleVector::new(runs))
    }

    /// Lower a decoded storage block into a column slice: native buffers
    /// stay native, runs stay runs, and homogeneous plain values are
    /// promoted to a typed vector.
    pub fn from_native(block: NativeBlock) -> ColumnSlice {
        use crate::vector::{validity_from_null_bitmap, VectorData};
        use vdb_types::DataType;
        match block {
            NativeBlock::I64 { ty, values, nulls } => {
                let validity = validity_from_null_bitmap(nulls.as_deref(), values.len());
                let data = match ty {
                    DataType::Timestamp => VectorData::Timestamp(values),
                    DataType::Boolean => VectorData::Bool(crate::vector::Bitmap::from_bools(
                        values.iter().map(|&v| v != 0),
                    )),
                    _ => VectorData::Int64(values),
                };
                ColumnSlice::Typed(TypedVector::new(data, validity))
            }
            NativeBlock::F64 { values, nulls } => {
                let validity = validity_from_null_bitmap(nulls.as_deref(), values.len());
                ColumnSlice::Typed(TypedVector::new(VectorData::Float64(values), validity))
            }
            NativeBlock::Str { dict, codes, nulls } => {
                let validity = validity_from_null_bitmap(nulls.as_deref(), codes.len());
                // Intern positionally: interning dedups, so remap each
                // on-disk dictionary position to its interned code (a
                // corrupt block with duplicate entries must not shift
                // codes or leave them dangling).
                let mut interned = vdb_types::StringDictionary::new();
                let remap: Vec<u32> = dict.into_iter().map(|s| interned.intern_owned(s)).collect();
                let codes = codes.into_iter().map(|c| remap[c as usize]).collect();
                let dict = std::sync::Arc::new(interned);
                ColumnSlice::Typed(TypedVector::new(VectorData::Dict { dict, codes }, validity))
            }
            NativeBlock::Runs(runs) => ColumnSlice::Rle(RleVector::new(runs)),
            NativeBlock::Values(values) => match TypedVector::from_owned_values(values) {
                Ok(tv) => ColumnSlice::Typed(tv),
                Err(values) => ColumnSlice::Plain(values),
            },
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::Plain(v) => v.len(),
            ColumnSlice::Rle(rv) => rv.len(),
            ColumnSlice::Typed(tv) => tv.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_rle(&self) -> bool {
        matches!(self, ColumnSlice::Rle(_))
    }

    pub fn is_typed(&self) -> bool {
        matches!(self, ColumnSlice::Typed(_))
    }

    /// Expand to plain values (cloning run values).
    pub fn to_values(&self) -> Vec<Value> {
        match self {
            ColumnSlice::Plain(v) => v.clone(),
            ColumnSlice::Rle(rv) => rv.to_values(),
            ColumnSlice::Typed(tv) => tv.to_values(),
        }
    }

    /// Value at *physical* row index (O(1) for plain/typed, O(log runs)
    /// for RLE).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnSlice::Plain(v) => v[i].clone(),
            ColumnSlice::Rle(rv) => rv.value_at(i).clone(),
            ColumnSlice::Typed(tv) => tv.value_at(i),
        }
    }

    /// Gather values at sorted physical `indices`.
    pub fn gather_values(&self, indices: &[u32]) -> Vec<Value> {
        match self {
            ColumnSlice::Plain(v) => indices.iter().map(|&i| v[i as usize].clone()).collect(),
            ColumnSlice::Rle(rv) => rv.gather_values(indices),
            ColumnSlice::Typed(tv) => tv.gather_values(indices),
        }
    }

    /// Materialize the rows in `sel`, preserving the representation (runs
    /// stay runs with shortened lengths, typed stays typed).
    pub fn filter_sel(&self, sel: &SelectionVector) -> ColumnSlice {
        self.take_sorted(sel.indices())
    }

    /// The rows at non-decreasing physical `indices` (repeats allowed),
    /// representation preserved — the probe side of a join's output, where
    /// a row repeats once per match.
    pub fn take_sorted(&self, indices: &[u32]) -> ColumnSlice {
        match self {
            ColumnSlice::Rle(rv) => ColumnSlice::Rle(rv.take_sorted(indices)),
            other => other.take(indices),
        }
    }

    /// The rows at `indices` in any order; [`NO_ROW`] yields NULL — the
    /// build side of a join's output. Typed stays typed (the padding is a
    /// validity bit); runs expand.
    pub fn take(&self, indices: &[u32]) -> ColumnSlice {
        let value_at = |i: u32| match i {
            NO_ROW => Value::Null,
            i => self.value_at(i as usize),
        };
        match self {
            ColumnSlice::Typed(tv) => ColumnSlice::Typed(tv.take(indices)),
            _ => ColumnSlice::Plain(indices.iter().map(|&i| value_at(i)).collect()),
        }
    }

    /// Consume into plain values (moved when already plain).
    pub fn into_values(self) -> Vec<Value> {
        match self {
            ColumnSlice::Plain(v) => v,
            other => other.to_values(),
        }
    }

    /// Append `other`'s rows. `other` is brought to a typed vector where
    /// its values allow it (an all-NULL chunk takes the type of the chunks
    /// around it), and the column stays typed while the chunks' types
    /// agree; a column that mixes types falls back to plain values for
    /// good. Never yields runs.
    pub fn append(&mut self, other: ColumnSlice) {
        let other = match other {
            ColumnSlice::Typed(tv) => ColumnSlice::Typed(tv),
            other => match TypedVector::from_owned_values(other.into_values()) {
                Ok(tv) => ColumnSlice::Typed(tv),
                Err(values) => ColumnSlice::Plain(values),
            },
        };
        if self.is_empty() {
            *self = other;
            return;
        }
        let all_null = |values: &[Value]| values.iter().all(Value::is_null);
        let nulls_like = |tv: &TypedVector, n: usize| tv.take(&vec![NO_ROW; n]);
        let mine = std::mem::replace(self, ColumnSlice::Plain(Vec::new()));
        *self = match (mine, other) {
            (ColumnSlice::Typed(mut mine), ColumnSlice::Typed(other)) => {
                match mine.try_append(other) {
                    Ok(()) => ColumnSlice::Typed(mine),
                    Err(other) => {
                        let mut values = mine.to_values();
                        values.extend(other.to_values());
                        ColumnSlice::Plain(values)
                    }
                }
            }
            (ColumnSlice::Typed(mut mine), ColumnSlice::Plain(v)) if all_null(&v) => {
                let nulls = nulls_like(&mine, v.len());
                mine.try_append(nulls).expect("same type");
                ColumnSlice::Typed(mine)
            }
            (ColumnSlice::Plain(v), ColumnSlice::Typed(other)) if all_null(&v) => {
                let mut nulls = nulls_like(&other, v.len());
                nulls.try_append(other).expect("same type");
                ColumnSlice::Typed(nulls)
            }
            (mine, other) => {
                let mut values = mine.into_values();
                values.extend(other.into_values());
                ColumnSlice::Plain(values)
            }
        };
    }
}

/// Chunk rows into batches of `chunk` rows, *moving* each chunk (no row is
/// cloned): callers hand over ownership of what can be a fully materialized
/// operator input.
pub(crate) fn rows_into_batches(rows: Vec<Row>, chunk: usize) -> Vec<Batch> {
    let mut batches = Vec::with_capacity(rows.len().div_ceil(chunk).max(1));
    let mut it = rows.into_iter();
    loop {
        let piece: Vec<Row> = it.by_ref().take(chunk).collect();
        if piece.is_empty() {
            break;
        }
        batches.push(Batch::from_rows(piece));
    }
    batches
}

/// Build a batch from rows an operator materialized internally (group-by
/// results, sorted output, unmatched-build emission), promoting each
/// homogeneous column to a [`TypedVector`] so downstream operators keep the
/// typed fast paths. Values are *moved* (rows are consumed column by
/// column), so this costs one transpose, not a copy.
pub(crate) fn typed_batch_from_rows(rows: Vec<Row>) -> Batch {
    if rows.is_empty() {
        return Batch::default();
    }
    let arity = rows[0].len();
    let len = rows.len();
    let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(len)).collect();
    for row in rows {
        for (c, v) in row.into_iter().enumerate() {
            cols[c].push(v);
        }
    }
    typed_batch_from_columns(cols)
}

/// [`typed_batch_from_rows`] for an operator that gathered its output by
/// column: each homogeneous column becomes a [`TypedVector`].
pub(crate) fn typed_batch_from_columns(columns: Vec<Vec<Value>>) -> Batch {
    let columns = columns
        .into_iter()
        .map(|values| match TypedVector::from_owned_values(values) {
            Ok(tv) => ColumnSlice::Typed(tv),
            Err(values) => ColumnSlice::Plain(values),
        })
        .collect();
    Batch::new(columns)
}

/// A column-major batch of rows with an optional selection vector.
///
/// `columns` hold *physical* rows; when `selection` is present only the
/// listed positions are logically in the batch. [`Batch::len`] and all
/// row-producing accessors honor the selection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Batch {
    pub columns: Vec<ColumnSlice>,
    physical_len: usize,
    selection: Option<SelectionVector>,
}

impl Batch {
    pub fn new(columns: Vec<ColumnSlice>) -> Batch {
        let physical_len = columns.first().map_or(0, ColumnSlice::len);
        debug_assert!(columns.iter().all(|c| c.len() == physical_len));
        Batch {
            columns,
            physical_len,
            selection: None,
        }
    }

    pub fn from_rows(rows: Vec<Row>) -> Batch {
        if rows.is_empty() {
            return Batch::default();
        }
        let arity = rows[0].len();
        let len = rows.len();
        let mut columns: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(len)).collect();
        for row in rows {
            for (c, v) in row.into_iter().enumerate() {
                columns[c].push(v);
            }
        }
        Batch {
            columns: columns.into_iter().map(ColumnSlice::Plain).collect(),
            physical_len: len,
            selection: None,
        }
    }

    /// Logical row count (after selection).
    pub fn len(&self) -> usize {
        match &self.selection {
            Some(sel) => sel.len(),
            None => self.physical_len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rows physically present in the columns (ignoring selection).
    pub fn physical_len(&self) -> usize {
        self.physical_len
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The active selection, if any.
    pub fn selection(&self) -> Option<&SelectionVector> {
        self.selection.as_ref()
    }

    /// Replace the selection (positions are physical row indexes).
    pub fn with_selection(mut self, sel: SelectionVector) -> Batch {
        debug_assert!(sel
            .indices()
            .iter()
            .all(|&i| (i as usize) < self.physical_len));
        self.selection = Some(sel);
        self
    }

    /// Physical index of logical row `i` (maps through the selection).
    #[inline]
    pub fn physical_index(&self, i: usize) -> usize {
        match &self.selection {
            Some(sel) => sel.get(i),
            None => i,
        }
    }

    /// Expand into row-major form (applies the selection).
    pub fn rows(&self) -> Vec<Row> {
        note_pivot();
        match &self.selection {
            None => {
                let cols: Vec<Vec<Value>> =
                    self.columns.iter().map(ColumnSlice::to_values).collect();
                (0..self.physical_len)
                    .map(|i| cols.iter().map(|c| c[i].clone()).collect())
                    .collect()
            }
            Some(sel) => {
                let cols: Vec<Vec<Value>> = self
                    .columns
                    .iter()
                    .map(|c| c.gather_values(sel.indices()))
                    .collect();
                (0..sel.len())
                    .map(|i| cols.iter().map(|c| c[i].clone()).collect())
                    .collect()
            }
        }
    }

    /// Expand into row-major form, consuming the batch (plain column
    /// values are *moved*, not cloned — the hot path for joins and
    /// aggregation over wide rows).
    pub fn into_rows(self) -> Vec<Row> {
        note_pivot();
        let Batch {
            columns,
            physical_len,
            selection,
        } = self;
        if let Some(sel) = selection {
            let mut rows: Vec<Row> = (0..sel.len())
                .map(|_| Vec::with_capacity(columns.len()))
                .collect();
            for col in &columns {
                let vals = col.gather_values(sel.indices());
                for (row, v) in rows.iter_mut().zip(vals) {
                    row.push(v);
                }
            }
            return rows;
        }
        let mut rows: Vec<Row> = (0..physical_len)
            .map(|_| Vec::with_capacity(columns.len()))
            .collect();
        for col in columns {
            match col {
                ColumnSlice::Plain(values) => {
                    for (row, v) in rows.iter_mut().zip(values) {
                        row.push(v);
                    }
                }
                ColumnSlice::Rle(rv) => {
                    let mut i = 0usize;
                    for (v, n) in rv.runs() {
                        for _ in 0..*n {
                            rows[i].push(v.clone());
                            i += 1;
                        }
                    }
                }
                ColumnSlice::Typed(tv) => {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.push(tv.value_at(i));
                    }
                }
            }
        }
        rows
    }

    /// Row at *logical* index (clones).
    pub fn row_at(&self, i: usize) -> Row {
        let p = self.physical_index(i);
        self.columns.iter().map(|c| c.value_at(p)).collect()
    }

    /// Keep only logical rows where `mask[i]` — zero-copy: the result
    /// shares the columns and carries a refined [`SelectionVector`]; no
    /// value is cloned and no run is expanded.
    pub fn into_filtered(self, mask: &[bool]) -> Batch {
        debug_assert_eq!(mask.len(), self.len());
        let sel = match &self.selection {
            Some(sel) => sel.refine_by_mask(mask),
            None => SelectionVector::from_mask(mask),
        };
        Batch {
            columns: self.columns,
            physical_len: self.physical_len,
            selection: Some(sel),
        }
    }

    /// Materialize the physical rows in `sel` into a new selection-free
    /// batch, preserving each column's representation (the exchange router
    /// uses this to slice per-lane sub-batches).
    pub(crate) fn materialized(&self, sel: &SelectionVector) -> Batch {
        Batch {
            columns: self.columns.iter().map(|c| c.filter_sel(sel)).collect(),
            physical_len: sel.len(),
            selection: None,
        }
    }

    /// Keep only logical rows where `mask[i]`, materializing new columns.
    /// Representations are preserved: RLE runs survive with shortened
    /// lengths instead of being expanded to plain values.
    pub fn filter_by_mask(&self, mask: &[bool]) -> Batch {
        debug_assert_eq!(mask.len(), self.len());
        let sel = match &self.selection {
            Some(sel) => sel.refine_by_mask(mask),
            None => SelectionVector::from_mask(mask),
        };
        self.materialized(&sel)
    }

    /// Apply the selection (if any), materializing compact columns with
    /// their representations preserved.
    pub fn compact(self) -> Batch {
        match &self.selection {
            None => self,
            Some(sel) => self.materialized(sel),
        }
    }

    /// Append `other`'s logical rows column by column
    /// ([`ColumnSlice::append`]); an empty batch takes `other`'s arity.
    /// The result carries no selection.
    pub fn append(&mut self, other: Batch) {
        let other = other.compact();
        if self.columns.is_empty() {
            self.columns = vec![ColumnSlice::Plain(Vec::new()); other.arity()];
        }
        debug_assert!(self.selection.is_none() && self.arity() == other.arity());
        self.physical_len += other.physical_len;
        for (mine, theirs) in self.columns.iter_mut().zip(other.columns) {
            mine.append(theirs);
        }
    }

    /// Approximate in-memory bytes (for memory budgeting).
    pub fn approx_bytes(&self) -> usize {
        use crate::vector::VectorData;
        self.columns
            .iter()
            .map(|c| match c {
                ColumnSlice::Plain(v) => v.iter().map(approx_value_bytes).sum::<usize>(),
                ColumnSlice::Rle(rv) => rv
                    .runs()
                    .iter()
                    .map(|(v, _)| approx_value_bytes(v) + 4)
                    .sum::<usize>(),
                ColumnSlice::Typed(tv) => match tv.data() {
                    VectorData::Int64(v) | VectorData::Timestamp(v) => v.len() * 8,
                    VectorData::Float64(v) => v.len() * 8,
                    VectorData::Bool(b) => b.len().div_ceil(8),
                    VectorData::Dict { dict, codes } => {
                        codes.len() * 4 + dict.entries().iter().map(|s| 24 + s.len()).sum::<usize>()
                    }
                },
            })
            .sum()
    }
}

pub(crate) fn approx_value_bytes(v: &Value) -> usize {
    match v {
        Value::Null | Value::Boolean(_) => 1,
        Value::Integer(_) | Value::Float(_) | Value::Timestamp(_) => 8,
        Value::Varchar(s) => 24 + s.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trip() {
        let rows = vec![
            vec![Value::Integer(1), Value::Varchar("a".into())],
            vec![Value::Integer(2), Value::Varchar("b".into())],
        ];
        let b = Batch::from_rows(rows.clone());
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.rows(), rows);
        assert_eq!(b.row_at(1), rows[1]);
    }

    #[test]
    fn rle_column_expansion_and_access() {
        let b = Batch::new(vec![
            ColumnSlice::rle(vec![(Value::Integer(7), 3), (Value::Integer(9), 2)]),
            ColumnSlice::Plain((0..5).map(Value::Integer).collect()),
        ]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.columns[0].value_at(2), Value::Integer(7));
        assert_eq!(b.columns[0].value_at(3), Value::Integer(9));
        assert_eq!(b.row_at(4), vec![Value::Integer(9), Value::Integer(4)]);
        assert!(b.columns[0].is_rle());
    }

    #[test]
    fn filter_by_mask() {
        let b = Batch::from_rows((0..6).map(|i| vec![Value::Integer(i)]).collect());
        let mask = [true, false, true, false, true, false];
        let f = b.filter_by_mask(&mask);
        assert_eq!(f.len(), 3);
        assert_eq!(
            f.rows(),
            vec![
                vec![Value::Integer(0)],
                vec![Value::Integer(2)],
                vec![Value::Integer(4)]
            ]
        );
    }

    #[test]
    fn filter_by_mask_preserves_rle_runs() {
        let b = Batch::new(vec![ColumnSlice::rle(vec![
            (Value::Integer(1), 3),
            (Value::Integer(2), 3),
        ])]);
        // Drop one row of the first run and the entire second run.
        let f = b.filter_by_mask(&[true, true, false, false, false, false]);
        assert_eq!(f.len(), 2);
        let ColumnSlice::Rle(rv) = &f.columns[0] else {
            panic!("RLE must be preserved, got {:?}", f.columns[0]);
        };
        assert_eq!(rv.runs(), &[(Value::Integer(1), 2)]);
    }

    #[test]
    fn into_filtered_is_zero_copy_selection() {
        let b = Batch::from_rows((0..6).map(|i| vec![Value::Integer(i)]).collect());
        let f = b.into_filtered(&[true, false, true, false, true, false]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.physical_len(), 6, "columns untouched");
        assert!(f.selection().is_some());
        assert_eq!(
            f.rows(),
            vec![
                vec![Value::Integer(0)],
                vec![Value::Integer(2)],
                vec![Value::Integer(4)]
            ]
        );
        // Selections compose.
        let g = f.into_filtered(&[false, true, true]);
        assert_eq!(
            g.rows(),
            vec![vec![Value::Integer(2)], vec![Value::Integer(4)]]
        );
        assert_eq!(g.row_at(1), vec![Value::Integer(4)]);
        // Compaction materializes and drops the selection.
        let c = g.compact();
        assert_eq!(c.physical_len(), 2);
        assert!(c.selection().is_none());
        assert_eq!(
            c.rows(),
            vec![vec![Value::Integer(2)], vec![Value::Integer(4)]]
        );
    }

    #[test]
    fn typed_column_round_trips_through_rows() {
        let tv =
            TypedVector::from_values(&[Value::Integer(1), Value::Null, Value::Integer(3)]).unwrap();
        let b = Batch::new(vec![ColumnSlice::Typed(tv)]);
        assert_eq!(
            b.rows(),
            vec![
                vec![Value::Integer(1)],
                vec![Value::Null],
                vec![Value::Integer(3)]
            ]
        );
        assert_eq!(b.clone().into_rows(), b.rows());
    }

    #[test]
    fn duplicate_dict_entries_remap_codes() {
        // A (corrupt or redundant) block dictionary with duplicate entries
        // must not shift or orphan codes when interning dedups it.
        let col = ColumnSlice::from_native(NativeBlock::Str {
            dict: vec!["a".into(), "a".into(), "b".into()],
            codes: vec![0, 1, 2],
            nulls: None,
        });
        assert_eq!(
            col.to_values(),
            vec![
                Value::Varchar("a".into()),
                Value::Varchar("a".into()),
                Value::Varchar("b".into()),
            ]
        );
    }

    #[test]
    fn append_keeps_typed_columns_typed_and_mixed_ones_plain() {
        let ints = |r: std::ops::Range<i64>| r.map(Value::Integer).collect::<Vec<_>>();
        let mut all = Batch::default();
        // A typed chunk under a selection, an RLE chunk, a plain (WOS) one.
        let typed = Batch::new(vec![
            ColumnSlice::Typed(TypedVector::from_values(&ints(0..4)).unwrap()),
            ColumnSlice::Plain(ints(0..4)),
        ])
        .with_selection(SelectionVector::new(vec![1, 3]));
        all.append(typed);
        all.append(Batch::new(vec![
            ColumnSlice::rle(vec![(Value::Integer(7), 2)]),
            ColumnSlice::Plain(vec![Value::Varchar("x".into()), Value::Null]),
        ]));
        all.append(Batch::from_rows(vec![vec![Value::Null, Value::Integer(9)]]));
        assert_eq!(all.len(), 5);
        assert!(all.selection().is_none());
        assert!(
            all.columns[0].is_typed(),
            "Integer chunks + a NULL stay typed"
        );
        assert_eq!(
            all.columns[0].to_values(),
            vec![
                Value::Integer(1),
                Value::Integer(3),
                Value::Integer(7),
                Value::Integer(7),
                Value::Null
            ]
        );
        assert!(
            matches!(all.columns[1], ColumnSlice::Plain(_)),
            "mixed types"
        );
        assert_eq!(all.row_at(2)[1], Value::Varchar("x".into()));
        assert_eq!(all.row_at(4)[1], Value::Integer(9));
    }

    #[test]
    fn empty_batch() {
        let b = Batch::from_rows(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.rows(), Vec::<Row>::new());
    }
}
