//! The columnar write path: rows bound for ROS containers, held as typed
//! columns from the door to the encoder (§3.7, §4, §7).
//!
//! A [`WriteChunk`] is a set of typed columns plus each row's commit epoch
//! and delete epoch. It is built **either** by one pivot over incoming
//! rows ([`WriteChunk::push_row`]: bulk load once per statement, moveout
//! once over the drained WOS, the row-shaped recovery entry points at
//! their door) **or** by native block decode of existing containers
//! ([`WriteChunk::append_container`]: mergeout, no `Value` per cell).
//! Everything after that works on row indexes: `group_rows` splits them
//! by (partition key, local segment), evaluating the partition and
//! segmentation expressions over only the columns they reference;
//! `RowOrder` normalises each row's typed sort-key cells into order-
//! preserving `u64`s once and orders a group with a stable sort of `u32`
//! positions that compares only those; and the container writer gathers
//! every column through that permutation straight into the typed encoders.
//! The stable sort is run-adaptive, so k already-sorted victims appended
//! one after another cost a k-way merge, not a sort, and ties keep arrival
//! order (victim, then position) — the order the row path produced.

use crate::delete_vector::DeleteVector;
use crate::partition::PartitionSpec;
use crate::projection::{ProjectionDef, Segmentation};
use crate::ros::RosContainer;
use crate::StorageBackend;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use vdb_encoding::{TypedColumn, TypedSlice};
use vdb_types::schema::{SortDirection, SortKey};
use vdb_types::{DbError, DbResult, Epoch, Expr, Row, TableSchema, Value};

thread_local! {
    static CELLS_PIVOTED: Cell<u64> = const { Cell::new(0) };
}

/// Cells this thread has pivoted from rows into typed columns: rows ×
/// columns for a bulk load (one pivot per statement), nothing for a
/// mergeout.
pub fn cells_pivoted() -> u64 {
    CELLS_PIVOTED.with(Cell::get)
}

thread_local! {
    static ROWS_VALIDATED: Cell<u64> = const { Cell::new(0) };
}

/// Rows this thread has validated against a table schema on their way in.
pub fn rows_validated() -> u64 {
    ROWS_VALIDATED.with(Cell::get)
}

/// One load statement's rows, validated against the table schema once
/// and — for a direct load — pivoted into table-shaped typed columns once,
/// however many projections, replicas and nodes they then go to.
#[derive(Debug, Clone)]
pub struct LoadBatch {
    rows: Vec<Row>,
    chunk: Option<WriteChunk>,
}

impl LoadBatch {
    pub fn new(
        schema: &TableSchema,
        rows: &[Row],
        epoch: Epoch,
        direct_ros: bool,
    ) -> DbResult<LoadBatch> {
        let mut validated: Vec<Row> = Vec::with_capacity(rows.len());
        for row in rows {
            let mut row = row.clone();
            schema.validate_row(&mut row)?;
            validated.push(row);
        }
        ROWS_VALIDATED.with(|c| c.set(c.get() + rows.len() as u64));
        let chunk = direct_ros.then(|| {
            WriteChunk::from_rows(schema.arity(), validated.iter().map(Vec::as_slice), epoch)
        });
        Ok(LoadBatch {
            rows: validated,
            chunk,
        })
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The validated table rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The table-shaped typed columns of a direct load.
    pub fn chunk(&self) -> Option<&WriteChunk> {
        self.chunk.as_ref()
    }

    /// The segmentation-ring value of every row under projection `def`
    /// (`None`: replicated), from the typed columns when there are any.
    pub fn segment_values(&self, def: &ProjectionDef) -> DbResult<Option<Vec<u64>>> {
        match &self.chunk {
            Some(chunk) => {
                let rows: Vec<u32> = (0..chunk.len() as u32).collect();
                chunk.project(&def.columns).segment_values(def, &rows)
            }
            None if matches!(def.segmentation, Segmentation::Replicated) => Ok(None),
            None => self
                .rows
                .iter()
                .map(|row| def.segment_value(&def.project_row(row)?))
                .collect(),
        }
    }
}

/// Rows on their way into ROS containers, column by column.
#[derive(Debug, Clone, Default)]
pub struct WriteChunk {
    columns: Vec<TypedColumn>,
    /// The hidden epoch column: each row's commit epoch.
    epochs: TypedColumn,
    /// Each row's delete epoch; shorter than the chunk (usually empty)
    /// when the trailing rows are not deleted.
    deletes: Vec<Option<Epoch>>,
}

impl WriteChunk {
    pub fn new(arity: usize) -> WriteChunk {
        WriteChunk {
            columns: vec![TypedColumn::new(); arity],
            ..WriteChunk::default()
        }
    }

    /// Pivot rows that all commit at `epoch` (a load statement).
    pub fn from_rows<'a>(
        arity: usize,
        rows: impl IntoIterator<Item = &'a [Value]>,
        epoch: Epoch,
    ) -> WriteChunk {
        let mut chunk = WriteChunk::new(arity);
        for row in rows {
            chunk.push_row(row, epoch, None);
        }
        chunk
    }

    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pivot: append one row of `arity` cells.
    pub fn push_row(&mut self, row: &[Value], epoch: Epoch, deleted: Option<Epoch>) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (column, v) in self.columns.iter_mut().zip(row) {
            column.push(v);
        }
        CELLS_PIVOTED.with(|c| c.set(c.get() + row.len() as u64));
        if deleted.is_some() {
            self.deletes.resize(self.len(), None);
            self.deletes.push(deleted);
        }
        self.epochs.push(&Value::Integer(epoch.0 as i64));
    }

    /// Append every row of a container — cells, commit epochs and delete
    /// marks — by decoding its blocks into the typed columns.
    pub fn append_container(
        &mut self,
        backend: &dyn StorageBackend,
        container: &RosContainer,
        deletes: &DeleteVector,
    ) -> DbResult<()> {
        let corrupt = |what: String| DbError::Corrupt(format!("{}: {what}", container.id));
        if container.indexes.len() != self.columns.len() + 1 {
            return Err(corrupt(format!(
                "{} column files, expected {}",
                container.indexes.len(),
                self.columns.len() + 1
            )));
        }
        let before = self.len();
        let targets = self.columns.iter_mut().chain([&mut self.epochs]);
        for (col, target) in targets.enumerate() {
            let index = &container.indexes[col];
            let bytes = container.read_blocks(backend, col, 0..index.blocks.len())?;
            let reader = bytes.reader(index);
            for b in 0..index.blocks.len() {
                target.append_native(reader.read_block_native(b)?);
            }
            if target.len() != before + container.row_count as usize {
                return Err(corrupt(format!(
                    "column {col} holds {} rows, container says {}",
                    target.len() - before,
                    container.row_count
                )));
            }
        }
        for (position, epoch) in deletes.iter() {
            let row = before + position as usize;
            if self.deletes.len() <= row {
                self.deletes.resize(row + 1, None);
            }
            self.deletes[row] = Some(epoch);
        }
        Ok(())
    }

    pub fn delete_epoch(&self, row: usize) -> Option<Epoch> {
        self.deletes.get(row).copied().flatten()
    }

    /// Every row's commit epoch, as stored in the hidden epoch column.
    pub fn epochs(&self) -> DbResult<&[i64]> {
        match self.epochs.view() {
            TypedSlice::I64 {
                values,
                nulls: None,
                ..
            } => Ok(values),
            _ => Err(DbError::Corrupt(
                "epoch column is not a NULL-free integer column".into(),
            )),
        }
    }

    /// All columns, in order.
    pub fn view(&self) -> ChunkView<'_> {
        self.project(&(0..self.columns.len()).collect::<Vec<_>>())
    }

    /// The chunk as a projection sees it: `columns` picks and orders the
    /// cell columns (a table-shaped chunk shared by every projection of
    /// the table); rows, epochs and delete marks are shared.
    pub fn project(&self, columns: &[usize]) -> ChunkView<'_> {
        ChunkView {
            columns: columns.iter().map(|&c| &self.columns[c]).collect(),
            chunk: self,
        }
    }
}

/// A [`WriteChunk`] in one projection's column order.
#[derive(Debug, Clone)]
pub struct ChunkView<'a> {
    columns: Vec<&'a TypedColumn>,
    chunk: &'a WriteChunk,
}

impl<'a> ChunkView<'a> {
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn delete_epoch(&self, row: u32) -> Option<Epoch> {
        self.chunk.delete_epoch(row as usize)
    }

    /// The projection's columns followed by the hidden epoch column: what
    /// a container stores.
    pub(crate) fn physical_columns(&self) -> impl Iterator<Item = &'a TypedColumn> + '_ {
        self.columns.iter().copied().chain([&self.chunk.epochs])
    }

    /// Evaluate `expr` (over this view's columns) for each of `rows`,
    /// building only the cells it references.
    fn eval(
        &self,
        expr: &Expr,
        rows: &[u32],
        mut each: impl FnMut(Value) -> DbResult<()>,
    ) -> DbResult<()> {
        let referenced = expr.referenced_columns();
        let mut cells = vec![Value::Null; self.columns.len()];
        for &row in rows {
            for &c in &referenced {
                cells[c] = self.columns[c].value_at(row as usize);
            }
            each(expr.eval(&cells)?)?;
        }
        Ok(())
    }

    /// The segmentation-ring value of each of `rows` under `def`, or
    /// `None` for a replicated projection.
    pub fn segment_values(&self, def: &ProjectionDef, rows: &[u32]) -> DbResult<Option<Vec<u64>>> {
        let Segmentation::ByExpr(expr) = &def.segmentation else {
            return Ok(None);
        };
        let mut out = Vec::with_capacity(rows.len());
        self.eval(expr, rows, |v| {
            let i = v.as_i64().ok_or_else(|| {
                DbError::Execution(format!(
                    "segmentation expression of {} must be integral, got {v}",
                    def.name
                ))
            })?;
            out.push(i as u64);
            Ok(())
        })?;
        Ok(Some(out))
    }
}

/// Row groups keyed by (partition key, local segment).
pub(crate) type RowGroups = BTreeMap<(Option<Value>, u32), Vec<u32>>;

/// Split `rows` by (partition key, local segment) into groups of
/// *positions in `rows`*, each in arrival order; the map's order is the
/// order containers are created in. With one local segment the
/// segmentation expression decides nothing here and is not evaluated.
pub(crate) fn group_rows(
    view: &ChunkView<'_>,
    rows: &[u32],
    def: &ProjectionDef,
    partition: Option<&PartitionSpec>,
    n_local_segments: u32,
) -> DbResult<RowGroups> {
    let mut partition_keys: Vec<Value> = Vec::new();
    if let Some(spec) = partition {
        partition_keys.reserve(rows.len());
        view.eval(&spec.expr, rows, |key| {
            partition_keys.push(key);
            Ok(())
        })?;
    }
    let segments = match n_local_segments {
        1 => None,
        _ => view.segment_values(def, rows)?,
    };
    let everyone = 0..rows.len() as u32;
    let mut groups = RowGroups::new();
    if partition.is_none() && segments.is_none() {
        groups.insert((None, 0), everyone.collect());
        return Ok(groups);
    }
    let mut partition_keys = partition_keys.into_iter();
    for at in everyone {
        // The ring is cut into `n_local_segments` equal ranges (§3.6).
        let segment = segments.as_ref().map_or(0, |s| {
            ((u128::from(s[at as usize]) * u128::from(n_local_segments)) >> 64) as u32
        });
        groups
            .entry((partition_keys.next(), segment))
            .or_default()
            .push(at);
    }
    Ok(groups)
}

/// The projection's sort order over some rows of a chunk — the one
/// ordering primitive of the write path. Each row's sort-key cells are
/// normalised once into `u64`s whose order is the cells' (`width` per row,
/// row-major), so a comparison is a slice comparison: integers with the
/// sign bit flipped, floats by the `total_cmp` bit trick, strings by their
/// rank in dictionary order, a type-mixing column by its rank under
/// `Value::cmp`; a NULL-bearing column spends one more `u64` per row on
/// "is not NULL" so NULLs sort first; DESC inverts the bits. Agrees with
/// `compare_rows` on the rows' `Value` form.
pub(crate) struct RowOrder {
    width: usize,
    keys: Vec<u64>,
}

impl RowOrder {
    /// Keys for `rows` of the view; positions passed to
    /// [`RowOrder::sort`] index into `rows`.
    pub fn new(view: &ChunkView<'_>, rows: &[u32], sort_keys: &[SortKey]) -> RowOrder {
        let mut columns: Vec<Vec<u64>> = Vec::new();
        for key in sort_keys {
            let flip = match key.direction {
                SortDirection::Asc => 0,
                SortDirection::Desc => u64::MAX,
            };
            let column = view.columns[key.column];
            if let Some(bitmap) = column.nulls().bitmap() {
                let not_null = |&r: &u32| u64::from(bitmap[r as usize / 8] & (1 << (r % 8)) == 0);
                columns.push(rows.iter().map(|r| not_null(r) ^ flip).collect());
            }
            let cells = |normalise: &dyn Fn(usize) -> u64| -> Vec<u64> {
                let cell = |&r: &u32| match column.nulls().is_null(r as usize) {
                    true => flip,
                    false => normalise(r as usize) ^ flip,
                };
                rows.iter().map(cell).collect()
            };
            columns.push(match column.view() {
                TypedSlice::I64 { values, .. } => cells(&|r| values[r] as u64 ^ (1 << 63)),
                TypedSlice::F64 { values, .. } => cells(&|r| {
                    let bits = values[r].to_bits();
                    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
                }),
                TypedSlice::Str { dict, codes, .. } => {
                    let rank = ranks(dict.len(), |a, b| dict[a].cmp(&dict[b]));
                    cells(&|r| rank[codes[r] as usize])
                }
                TypedSlice::Mixed(values) => {
                    let rank = ranks(values.len(), |a, b| values[a].cmp(&values[b]));
                    cells(&|r| rank[r])
                }
            });
        }
        let width = columns.len();
        let mut keys = Vec::with_capacity(width * rows.len());
        for at in 0..rows.len() {
            keys.extend(columns.iter().map(|column| column[at]));
        }
        RowOrder { width, keys }
    }

    pub fn compare(&self, a: u32, b: u32) -> Ordering {
        let key = |at: u32| &self.keys[at as usize * self.width..][..self.width];
        key(a).cmp(key(b))
    }

    /// Stable: equal rows keep their order in `positions`.
    pub fn sort(&self, positions: &mut [u32]) {
        positions.sort_by(|&a, &b| self.compare(a, b));
    }
}

/// Dense rank of each of `n` items under `cmp`: equal items share a rank.
fn ranks(n: usize, cmp: impl Fn(usize, usize) -> Ordering) -> Vec<u64> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cmp(a, b));
    let mut rank = vec![0u64; n];
    for pair in 0..order.len().saturating_sub(1) {
        let (a, b) = (order[pair], order[pair + 1]);
        rank[b] = rank[a] + u64::from(cmp(a, b) != Ordering::Equal);
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdb_types::schema::compare_rows;

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The normalised keys order rows exactly as `compare_rows` orders
    /// their `Value` form: every typed family, NULLs, NaN and `-0.0`,
    /// `i64` extremes, a column that mixes types, ASC and DESC.
    #[test]
    fn row_order_agrees_with_compare_rows() {
        let mut rng = 26u64;
        let floats = [
            f64::NAN,
            -0.0,
            0.0,
            1.5,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let ints = [i64::MIN, -1, 0, 1, 7, i64::MAX];
        let rows: Vec<Vec<Value>> = (0..120)
            .map(|_| {
                let mut pick = |n: u64| (next(&mut rng) % n) as usize;
                let null_or = |v: Value, dice: usize| if dice == 0 { Value::Null } else { v };
                vec![
                    null_or(Value::Integer(ints[pick(6)]), pick(5)),
                    null_or(Value::Float(floats[pick(7)]), pick(5)),
                    null_or(Value::Varchar(format!("s{}", pick(4))), pick(5)),
                    Value::Boolean(pick(2) == 1),
                    // Mixes types: compared by `Value::cmp` rank.
                    match pick(4) {
                        0 => Value::Null,
                        1 => Value::Integer(pick(3) as i64),
                        2 => Value::Float(pick(3) as f64),
                        _ => Value::Varchar("x".into()),
                    },
                    Value::Timestamp(pick(3) as i64),
                ]
            })
            .collect();
        let chunk = WriteChunk::from_rows(6, rows.iter().map(Vec::as_slice), Epoch(1));
        // A subset, out of order: positions index into it, not the chunk.
        let subset: Vec<u32> = (0..rows.len() as u32).rev().step_by(2).collect();
        for keys in [
            vec![SortKey::asc(0), SortKey::desc(1)],
            vec![SortKey::desc(2), SortKey::asc(3), SortKey::desc(0)],
            vec![SortKey::asc(4), SortKey::asc(5)],
            vec![SortKey::desc(4), SortKey::asc(1)],
            vec![],
        ] {
            let order = RowOrder::new(&chunk.view(), &subset, &keys);
            for a in 0..subset.len() {
                for b in 0..subset.len() {
                    let (ra, rb) = (&rows[subset[a] as usize], &rows[subset[b] as usize]);
                    assert_eq!(
                        order.compare(a as u32, b as u32),
                        compare_rows(ra, rb, &keys),
                        "{keys:?}: {ra:?} vs {rb:?}"
                    );
                }
            }
        }
    }
}
