//! GroupBy operators (§6.1 #2).
//!
//! "We have several different hash based algorithms depending on what is
//! needed for maximal performance, how much memory is allotted, and if the
//! operator must produce unique groups. Vertica also implements classic
//! pipelined (one-pass) aggregates, with a choice to keep the incoming data
//! encoded or not."
//!
//! * [`HashGroupByOp`] — hash aggregation with spill-to-disk partitioning
//!   when the memory budget is exceeded.
//! * [`PipelinedGroupByOp`] — the streaming strategy: one-pass aggregation
//!   over input sorted by the group columns, memory O(1) groups. Its state
//!   machine, `SortedFold`, is also what a morsel worker runs per morsel
//!   and what the morsel barrier runs over the partials
//!   ([`crate::parallel`]).
//!
//! Both strategies aggregate **a key run at a time**: `key_segments` cuts
//! a batch's selected rows where the group key changes — run ends for an
//! RLE key, native adjacent compares for typed and dictionary-coded keys,
//! the union of the columns' boundaries for a multi-column key — and each
//! segment costs one group lookup (a table probe, or a comparison with the
//! group in flight) and one span fold per aggregate
//! ([`AggState::fold`](crate::aggregate::AggState::fold)). No `Value` is
//! built per row unless a column has no native payload to loop over.
//!
//! Two-phase (partial → final) aggregation is assembled via
//! [`two_phase_aggs`]: it is how the morsel barrier merges per-worker
//! partials and how distributed aggregation merges per-node partials.

use crate::aggregate::{AggCall, AggFunc, AggState, Span};
use crate::batch::{Batch, ColumnSlice, BATCH_SIZE};
use crate::join::IntTable;
use crate::memory::MemoryBudget;
use crate::operator::{BoxedOperator, Operator};
use crate::vector::{SelectionVector, VectorData, NO_ROW};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DbError, DbResult, Expr, Row, Value};

// ---------------------------------------------------------------------------
// Key runs: what both strategies aggregate at a time
// ---------------------------------------------------------------------------

/// Exclusive logical end of every maximal stretch of adjacent logical rows
/// of `batch` (its selection honoured) that agree on all `group_columns`,
/// in order; the last is `batch.len()`. Equality is `Value` equality, NULL
/// equal to NULL.
fn key_segments(batch: &Batch, group_columns: &[usize]) -> Vec<u32> {
    let n = batch.len();
    let sel = batch.selection().map(SelectionVector::indices);
    let mut change = vec![false; n];
    for &c in group_columns {
        mark_key_changes(&batch.columns[c], sel, &mut change);
    }
    let inner = (1..n).filter(|&li| change[li]);
    inner.chain(std::iter::once(n)).map(|e| e as u32).collect()
}

/// Set `change[li]` where logical row `li` differs from `li - 1` in `col`.
fn mark_key_changes(col: &ColumnSlice, sel: Option<&[u32]>, change: &mut [bool]) {
    fn mark<K: PartialEq>(
        change: &mut [bool],
        sel: Option<&[u32]>,
        mut key: impl FnMut(usize) -> K,
    ) {
        let phys = |li: usize| sel.map_or(li, |s| s[li] as usize);
        if change.is_empty() {
            return;
        }
        let mut prev = key(phys(0));
        for (li, changed) in change.iter_mut().enumerate().skip(1) {
            let k = key(phys(li));
            *changed |= k != prev;
            prev = k;
        }
    }
    match col {
        ColumnSlice::Plain(values) => mark(change, sel, |i| &values[i]),
        // Runs are numbered by value change (neighbouring runs can hold one
        // value once a filter emptied the run between them); rows come in
        // order, so the run pointer only moves forward.
        ColumnSlice::Rle(rv) => {
            let runs = rv.runs();
            let mut id = 0u32;
            let ids: Vec<u32> = (0..runs.len())
                .map(|ri| {
                    id += u32::from(ri > 0 && runs[ri].0 != runs[ri - 1].0);
                    id
                })
                .collect();
            if sel.is_none() {
                // Dense: the boundaries are the run starts themselves.
                for ri in (1..runs.len()).filter(|&ri| ids[ri] != ids[ri - 1]) {
                    // (`get_mut`: an empty last run starts past the end.)
                    if let Some(changed) = change.get_mut(rv.run_start(ri)) {
                        *changed = true;
                    }
                }
                return;
            }
            let mut ri = 0usize;
            mark(change, sel, |i| {
                while rv.run_start(ri + 1) <= i {
                    ri += 1;
                }
                ids[ri]
            })
        }
        ColumnSlice::Typed(tv) => match tv.data() {
            VectorData::Int64(xs) | VectorData::Timestamp(xs) => {
                mark(change, sel, |i| tv.is_valid(i).then(|| xs[i]))
            }
            VectorData::Float64(xs) => {
                mark(change, sel, |i| tv.is_valid(i).then(|| xs[i].to_bits()))
            }
            VectorData::Dict { codes, .. } => {
                mark(change, sel, |i| tv.is_valid(i).then(|| codes[i]))
            }
            VectorData::Bool(bits) => mark(change, sel, |i| tv.is_valid(i).then(|| bits.get(i))),
        },
    }
}

/// The physical rows behind logical rows `start..end`.
fn span_of(sel: Option<&[u32]>, start: usize, end: usize) -> Span<'_> {
    match sel {
        Some(sel) => Span::Rows(&sel[start..end]),
        None => Span::Range { start, end },
    }
}

fn new_states(aggs: &[AggCall]) -> Vec<AggState> {
    aggs.iter().map(|a| AggState::new(a.func)).collect()
}

/// Fold one span of `batch` into a group's states, one fold per aggregate.
fn fold_aggs(
    aggs: &[AggCall],
    states: &mut [AggState],
    batch: &Batch,
    span: Span<'_>,
) -> DbResult<()> {
    for (a, s) in aggs.iter().zip(states) {
        match a.func {
            // COUNT(*) touches no column (its `input` may name none).
            AggFunc::CountStar => s.update_n(a.func, &Value::Null, span.len() as u64)?,
            _ => s.fold(a.func, &batch.columns[a.input], span)?,
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Hash GroupBy with spill partitions
// ---------------------------------------------------------------------------

/// Number of spill partitions (keys are hash-partitioned so each partition
/// fits in a fraction of the budget at finalize time).
const SPILL_PARTITIONS: usize = 16;

/// Group hash table specialized for single-column keys (no per-row
/// `Vec<Value>` allocation on the hot path).
enum GroupTable {
    One(HashMap<Value, Vec<AggState>>),
    Many(HashMap<Vec<Value>, Vec<AggState>>),
}

impl GroupTable {
    fn new(key_arity: usize) -> GroupTable {
        if key_arity == 1 {
            GroupTable::One(HashMap::new())
        } else {
            GroupTable::Many(HashMap::new())
        }
    }

    /// Get-or-insert the state vector for an owned single-column key;
    /// `new_group` is set when a fresh group was created (memory
    /// accounting).
    fn state_for_one(
        &mut self,
        key: Value,
        make: impl FnOnce() -> Vec<AggState>,
        new_group: &mut bool,
    ) -> &mut Vec<AggState> {
        let GroupTable::One(m) = self else {
            unreachable!("single-column table")
        };
        match m.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                *new_group = true;
                e.insert(make())
            }
        }
    }

    /// Multi-column variant of [`GroupTable::state_for_one`].
    fn state_for_many(
        &mut self,
        key: Vec<Value>,
        make: impl FnOnce() -> Vec<AggState>,
        new_group: &mut bool,
    ) -> &mut Vec<AggState> {
        let GroupTable::Many(m) = self else {
            unreachable!("multi-column table")
        };
        match m.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                *new_group = true;
                e.insert(make())
            }
        }
    }

    /// Check a single-column group's states out of the table, if it has
    /// any; [`GroupTable::put_one`] hands them back.
    fn take_one(&mut self, key: &Value) -> Option<Vec<AggState>> {
        let GroupTable::One(m) = self else {
            unreachable!("single-column table")
        };
        m.remove(key)
    }

    fn put_one(&mut self, key: Value, states: Vec<AggState>) {
        let GroupTable::One(m) = self else {
            unreachable!("single-column table")
        };
        m.insert(key, states);
    }

    fn drain_entries(&mut self) -> Vec<(Vec<Value>, Vec<AggState>)> {
        match self {
            GroupTable::One(m) => m.drain().map(|(k, v)| (vec![k], v)).collect(),
            GroupTable::Many(m) => m.drain().collect(),
        }
    }
}

pub struct HashGroupByOp {
    input: Option<BoxedOperator>,
    group_columns: Vec<usize>,
    aggs: Vec<AggCall>,
    budget: MemoryBudget,
    /// Finished groups waiting to be emitted.
    output: Vec<Row>,
    emitted: usize,
    spill_files: Vec<Option<std::fs::File>>,
    spill_dir: Option<std::path::PathBuf>,
    spilled: bool,
    /// Running states for the no-GROUP-BY (global aggregate) fast path.
    global: Option<Vec<AggState>>,
}

impl HashGroupByOp {
    pub fn new(
        input: BoxedOperator,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
        budget: MemoryBudget,
    ) -> HashGroupByOp {
        HashGroupByOp {
            input: Some(input),
            group_columns,
            aggs,
            budget,
            output: Vec::new(),
            emitted: 0,
            spill_files: (0..SPILL_PARTITIONS).map(|_| None).collect(),
            spill_dir: None,
            spilled: false,
            global: None,
        }
    }

    /// Global aggregates (no GROUP BY): the batch's selected rows are one
    /// span, folded once per aggregate — no hashing, no row materialization.
    fn consume_global(&mut self, batch: &Batch) -> DbResult<()> {
        let states = self.global.get_or_insert_with(|| new_states(&self.aggs));
        let sel = batch.selection().map(SelectionVector::indices);
        fold_aggs(&self.aggs, states, batch, span_of(sel, 0, batch.len()))
    }

    /// Grouped path: one table probe and one span fold per aggregate for
    /// every key run of the batch (`key_segments`). Folding run by run in
    /// batch order adds a group's floats in row order — the order a
    /// row-at-a-time loop would — so a float SUM has the same bits however
    /// its input happens to be coded.
    fn consume_grouped(
        &mut self,
        batch: &Batch,
        table: &mut GroupTable,
        approx: &mut usize,
    ) -> DbResult<()> {
        let ends = key_segments(batch, &self.group_columns);
        let sel = batch.selection().map(SelectionVector::indices);
        let per_group = self.aggs.len() * 24 + 48 + 16 * self.group_columns.len();
        let key_col = &batch.columns[self.group_columns[0]];
        let mut start = 0usize;
        // A single dictionary-coded or native integer key: each distinct
        // key of the batch checks its group's states out of the table at
        // its first run — one `Value` built and one hash lookup per
        // distinct key, found again per run through a code-indexed
        // (dictionary) or `i64` open-addressing (integer) slot array — and
        // the batch hands them back at its end.
        if let (&[_], ColumnSlice::Typed(tv)) = (self.group_columns.as_slice(), key_col) {
            enum Slots<'a> {
                Code(&'a [u32], Vec<u32>),
                Int(&'a [i64], IntTable),
            }
            let mut slots = match tv.data() {
                VectorData::Dict { dict, codes } => {
                    Some(Slots::Code(codes, vec![NO_ROW; dict.len()]))
                }
                VectorData::Int64(xs) | VectorData::Timestamp(xs) => {
                    Some(Slots::Int(xs, IntTable::for_rows(ends.len())))
                }
                _ => None,
            };
            if let Some(slots) = &mut slots {
                let mut groups: Vec<(Value, Vec<AggState>)> = Vec::new();
                let mut null_slot = NO_ROW;
                for &end in &ends {
                    let end = end as usize;
                    let pi = batch.physical_index(start);
                    let slot = match slots {
                        _ if !tv.is_valid(pi) => &mut null_slot,
                        Slots::Code(codes, by_code) => &mut by_code[codes[pi] as usize],
                        Slots::Int(xs, table) => table.head_mut(xs[pi]),
                    };
                    if *slot == NO_ROW {
                        let key = tv.value_at(pi);
                        let states = table.take_one(&key).unwrap_or_else(|| {
                            *approx += per_group;
                            new_states(&self.aggs)
                        });
                        *slot = groups.len() as u32;
                        groups.push((key, states));
                    }
                    let states = &mut groups[*slot as usize].1;
                    fold_aggs(&self.aggs, states, batch, span_of(sel, start, end))?;
                    start = end;
                }
                for (key, states) in groups {
                    table.put_one(key, states);
                }
                if self.budget.exceeded_by(*approx) {
                    self.spill_table(table)?;
                    *approx = 0;
                }
                return Ok(());
            }
        }
        // Any other key (RLE runs included): a `Value` key per run.
        for &end in &ends {
            let end = end as usize;
            let pi = batch.physical_index(start);
            let mut new_group = false;
            let states = match self.group_columns.as_slice() {
                [_] => table.state_for_one(
                    key_col.value_at(pi),
                    || new_states(&self.aggs),
                    &mut new_group,
                ),
                many => table.state_for_many(
                    many.iter()
                        .map(|&c| batch.columns[c].value_at(pi))
                        .collect(),
                    || new_states(&self.aggs),
                    &mut new_group,
                ),
            };
            if new_group {
                *approx += per_group;
            }
            fold_aggs(&self.aggs, states, batch, span_of(sel, start, end))?;
            start = end;
            if self.budget.exceeded_by(*approx) {
                self.spill_table(table)?;
                *approx = 0;
            }
        }
        Ok(())
    }

    pub fn did_spill(&self) -> bool {
        self.spilled
    }

    fn key_partition(key: &[Value]) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in key {
            h = h.rotate_left(19) ^ v.hash64();
        }
        (h as usize) % SPILL_PARTITIONS
    }

    fn spill_table(&mut self, table: &mut GroupTable) -> DbResult<()> {
        self.spilled = true;
        if self.spill_dir.is_none() {
            let dir = std::env::temp_dir().join(format!(
                "vdb-spill-{}-{:p}",
                std::process::id(),
                self as *const _
            ));
            std::fs::create_dir_all(&dir)?;
            self.spill_dir = Some(dir);
        }
        let dir = self.spill_dir.clone().unwrap();
        let mut buffers: Vec<Writer> = (0..SPILL_PARTITIONS).map(|_| Writer::new()).collect();
        for (key, states) in table.drain_entries() {
            let p = Self::key_partition(&key);
            let w = &mut buffers[p];
            w.put_uvarint(key.len() as u64);
            for v in &key {
                w.put_value(v);
            }
            for s in &states {
                encode_agg_state(s, w);
            }
        }
        for (p, w) in buffers.into_iter().enumerate() {
            if w.is_empty() {
                continue;
            }
            if self.spill_files[p].is_none() {
                let f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(dir.join(format!("part{p}.spill")))?;
                self.spill_files[p] = Some(f);
            }
            let bytes = w.into_bytes();
            let f = self.spill_files[p].as_mut().unwrap();
            f.write_all(&(bytes.len() as u64).to_le_bytes())?;
            f.write_all(&bytes)?;
        }
        Ok(())
    }

    fn consume_input(&mut self) -> DbResult<()> {
        let Some(mut input) = self.input.take() else {
            return Ok(());
        };
        let mut table = GroupTable::new(self.group_columns.len());
        let mut approx = 0usize;
        while let Some(batch) = input.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            if self.group_columns.is_empty() {
                self.consume_global(&batch)?;
            } else {
                self.consume_grouped(&batch, &mut table, &mut approx)?;
            }
        }
        if self.group_columns.is_empty() {
            let states = self.global.take().unwrap_or_else(|| new_states(&self.aggs));
            self.output = vec![finish_group(Vec::new(), states)];
            return Ok(());
        }
        if !self.spilled {
            self.output = table
                .drain_entries()
                .into_iter()
                .map(|(key, states)| finish_group(key, states))
                .collect();
            // Deterministic output order helps tests; real engines do not
            // guarantee one.
            self.output.sort();
            return Ok(());
        }
        // Spill path: flush the tail table, then merge partition by
        // partition (each partition's key set is disjoint).
        self.spill_table(&mut table)?;
        drop(table);
        let dir = self.spill_dir.clone().unwrap();
        for p in 0..SPILL_PARTITIONS {
            self.spill_files[p] = None; // close for reading
            let path = dir.join(format!("part{p}.spill"));
            let Ok(mut f) = std::fs::File::open(&path) else {
                continue;
            };
            let mut merged: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
            loop {
                let mut len_buf = [0u8; 8];
                match f.read_exact(&mut len_buf) {
                    Ok(()) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                    Err(e) => return Err(e.into()),
                }
                let len = u64::from_le_bytes(len_buf) as usize;
                let mut chunk = vec![0u8; len];
                f.read_exact(&mut chunk)?;
                let mut r = Reader::new(&chunk);
                while !r.is_empty() {
                    let klen = r.get_uvarint()? as usize;
                    let mut key = Vec::with_capacity(klen);
                    for _ in 0..klen {
                        key.push(r.get_value()?);
                    }
                    let mut states = Vec::with_capacity(self.aggs.len());
                    for _ in 0..self.aggs.len() {
                        states.push(decode_agg_state(&mut r)?);
                    }
                    match merged.get_mut(&key) {
                        Some(existing) => {
                            for (e, s) in existing.iter_mut().zip(states) {
                                e.merge(s)?;
                            }
                        }
                        None => {
                            merged.insert(key, states);
                        }
                    }
                }
            }
            self.output.extend(
                merged
                    .into_iter()
                    .map(|(key, states)| finish_group(key, states)),
            );
            let _ = std::fs::remove_file(&path);
        }
        let _ = std::fs::remove_dir(&dir);
        self.output.sort();
        Ok(())
    }
}

fn finish_group(key: Vec<Value>, states: Vec<AggState>) -> Row {
    let mut row = key;
    for s in states {
        row.push(s.finish());
    }
    row
}

impl Operator for HashGroupByOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if self.input.is_some() {
            self.consume_input()?;
        }
        if self.emitted >= self.output.len() {
            return Ok(None);
        }
        let end = (self.emitted + BATCH_SIZE).min(self.output.len());
        let rows: Vec<Row> = self.output[self.emitted..end].to_vec();
        self.emitted = end;
        // Finished groups go back out as typed columns so downstream
        // operators (projection, sort, HAVING) stay on the native paths.
        Ok(Some(crate::batch::typed_batch_from_rows(rows)))
    }

    fn name(&self) -> String {
        format!(
            "GroupByHash(keys={:?}, aggs={})",
            self.group_columns,
            self.aggs.len()
        )
    }
}

fn encode_agg_state(s: &AggState, w: &mut Writer) {
    match s {
        AggState::Count(c) => {
            w.put_u8(0);
            w.put_uvarint(*c);
        }
        AggState::CountDistinct(set) => {
            w.put_u8(1);
            w.put_uvarint(set.len() as u64);
            for v in set {
                w.put_value(v);
            }
        }
        AggState::SumInt(v, seen) => {
            w.put_u8(2);
            w.put_ivarint(*v);
            w.put_u8(u8::from(*seen));
        }
        AggState::SumFloat(v, seen) => {
            w.put_u8(3);
            w.put_f64(*v);
            w.put_u8(u8::from(*seen));
        }
        AggState::Min(v) => {
            w.put_u8(4);
            w.put_value(&v.clone().unwrap_or(Value::Null));
            w.put_u8(u8::from(v.is_some()));
        }
        AggState::Max(v) => {
            w.put_u8(5);
            w.put_value(&v.clone().unwrap_or(Value::Null));
            w.put_u8(u8::from(v.is_some()));
        }
        AggState::Avg(sum, count) => {
            w.put_u8(6);
            w.put_f64(*sum);
            w.put_uvarint(*count);
        }
    }
}

fn decode_agg_state(r: &mut Reader<'_>) -> DbResult<AggState> {
    Ok(match r.get_u8()? {
        0 => AggState::Count(r.get_uvarint()?),
        1 => {
            let n = r.get_uvarint()? as usize;
            let mut set = std::collections::BTreeSet::new();
            for _ in 0..n {
                set.insert(r.get_value()?);
            }
            AggState::CountDistinct(set)
        }
        2 => AggState::SumInt(r.get_ivarint()?, r.get_u8()? != 0),
        3 => AggState::SumFloat(r.get_f64()?, r.get_u8()? != 0),
        4 => {
            let v = r.get_value()?;
            let some = r.get_u8()? != 0;
            AggState::Min(some.then_some(v))
        }
        5 => {
            let v = r.get_value()?;
            let some = r.get_u8()? != 0;
            AggState::Max(some.then_some(v))
        }
        6 => AggState::Avg(r.get_f64()?, r.get_uvarint()?),
        t => return Err(DbError::Corrupt(format!("bad agg state tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Streaming (one-pass) GroupBy over sorted input
// ---------------------------------------------------------------------------

/// The streaming strategy's state machine: input arrives sorted by the
/// group columns, so one group is in flight at a time and finishes when
/// the key changes. Each key run of a batch (`key_segments`) costs one
/// comparison of its key with the group in flight and one span fold per
/// aggregate; an RLE key yields its runs without expansion. Nothing is
/// allocated per group: key and states are reused buffers, and finished
/// groups gather column by column. [`PipelinedGroupByOp`] drives it over a
/// whole input; a morsel worker drives it over one morsel at a time and
/// the morsel barrier over the morsel-ordered partials
/// ([`crate::parallel`]).
pub(crate) struct SortedFold {
    group_columns: Vec<usize>,
    aggs: Vec<AggCall>,
    /// Is a group in flight? Then `key` is its key and `states` its
    /// running states; otherwise `states` are fresh.
    open: bool,
    key: Vec<Value>,
    states: Vec<AggState>,
    /// The key run being looked at (scratch).
    probe: Vec<Value>,
    /// Finished groups not yet handed out, by output column: the group
    /// columns, then one per aggregate.
    finished: Vec<Vec<Value>>,
    encoded_rows: u64,
}

impl SortedFold {
    pub(crate) fn new(group_columns: Vec<usize>, aggs: Vec<AggCall>) -> SortedFold {
        SortedFold {
            open: false,
            key: Vec::new(),
            states: new_states(&aggs),
            probe: Vec::new(),
            finished: vec![Vec::new(); group_columns.len() + aggs.len()],
            encoded_rows: 0,
            group_columns,
            aggs,
        }
    }

    pub(crate) fn consume(&mut self, batch: &Batch) -> DbResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        let sel = batch.selection().map(SelectionVector::indices);
        let mut start = 0usize;
        for end in key_segments(batch, &self.group_columns) {
            let end = end as usize;
            let pi = batch.physical_index(start);
            self.probe.clear();
            let key_at = self
                .group_columns
                .iter()
                .map(|&c| batch.columns[c].value_at(pi));
            self.probe.extend(key_at);
            if !self.open || self.key != self.probe {
                self.close_group();
                std::mem::swap(&mut self.key, &mut self.probe);
                self.open = true;
            }
            fold_aggs(
                &self.aggs,
                &mut self.states,
                batch,
                span_of(sel, start, end),
            )?;
            start = end;
        }
        let value_free = |c: &ColumnSlice| !matches!(c, ColumnSlice::Plain(_));
        let keys_value_free = self
            .group_columns
            .iter()
            .all(|&c| value_free(&batch.columns[c]));
        let folds_natively =
            |a: &AggCall| AggState::folds_natively(a.func, batch.columns.get(a.input));
        if keys_value_free && self.aggs.iter().all(folds_natively) {
            self.encoded_rows += batch.len() as u64;
        }
        Ok(())
    }

    /// The group in flight is complete: its key will not come again (end
    /// of input), or what follows must not merge into it (end of a morsel).
    fn close_group(&mut self) {
        if !std::mem::take(&mut self.open) {
            return;
        }
        let (key_out, agg_out) = self.finished.split_at_mut(self.key.len());
        for (out, v) in key_out.iter_mut().zip(self.key.drain(..)) {
            out.push(v);
        }
        for ((out, s), a) in agg_out.iter_mut().zip(&mut self.states).zip(&self.aggs) {
            out.push(std::mem::replace(s, AggState::new(a.func)).finish());
        }
    }

    fn finished_groups(&self) -> usize {
        self.finished.first().map_or(0, Vec::len)
    }

    /// Hand out every finished group as one batch of typed columns, if
    /// there is any.
    fn take_finished(&mut self) -> Option<Batch> {
        if self.finished_groups() == 0 {
            return None;
        }
        let columns = self.finished.iter_mut().map(std::mem::take).collect();
        Some(crate::batch::typed_batch_from_columns(columns))
    }

    /// Close the group in flight and hand out every finished group.
    pub(crate) fn finish(&mut self) -> Option<Batch> {
        self.close_group();
        self.take_finished()
    }
}

/// One-pass aggregation: input must arrive sorted by the group columns
/// (projection sort order). Emits each group as soon as the key changes, so
/// memory is O(1) groups (`SortedFold`).
pub struct PipelinedGroupByOp {
    input: BoxedOperator,
    fold: SortedFold,
    done: bool,
}

impl PipelinedGroupByOp {
    pub fn new(
        input: BoxedOperator,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
    ) -> PipelinedGroupByOp {
        PipelinedGroupByOp {
            input,
            fold: SortedFold::new(group_columns, aggs),
            done: false,
        }
    }

    /// Rows aggregated without building or comparing a `Value` per row:
    /// their key columns arrived as runs or typed vectors and every
    /// aggregate folded natively.
    #[cfg(test)]
    fn run_aggregated_rows(&self) -> u64 {
        self.fold.encoded_rows
    }
}

impl Operator for PipelinedGroupByOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while !self.done && self.fold.finished_groups() < BATCH_SIZE {
            match self.input.next_batch()? {
                Some(batch) => self.fold.consume(&batch)?,
                None => {
                    self.fold.close_group();
                    self.done = true;
                }
            }
        }
        Ok(self.fold.take_finished())
    }

    fn name(&self) -> String {
        format!("GroupByPipelined(keys={:?})", self.fold.group_columns)
    }
}

// ---------------------------------------------------------------------------
// Two-phase plan helper
// ---------------------------------------------------------------------------

/// Split aggregate calls into a `(partial, final, projection)` triple:
///
/// * `partial` — what each morsel worker (or each node) computes over raw
///   input;
/// * `final` — what the final GroupBy computes over the partial rows
///   (column indexes refer to the partial layout: group columns first);
/// * `projection` — expressions over the final GroupBy's output producing
///   the user-visible columns (AVG = SUM/COUNT happens here).
///
/// Returns `None` when any aggregate is not decomposable (COUNT DISTINCT).
pub fn two_phase_aggs(
    group_arity: usize,
    aggs: &[AggCall],
) -> Option<(Vec<AggCall>, Vec<AggCall>, Vec<Expr>)> {
    let mut partial = Vec::new();
    let mut final_aggs = Vec::new();
    let mut project = Vec::new();
    // Final projection first lists the group columns unchanged.
    for g in 0..group_arity {
        project.push(Expr::col(g, format!("g{g}")));
    }
    for a in aggs {
        match a.func {
            AggFunc::CountDistinct => return None,
            AggFunc::CountStar | AggFunc::Count => {
                let pcol = group_arity + partial.len();
                partial.push(AggCall::new(
                    a.func,
                    a.input,
                    format!("p_{}", a.output_name),
                ));
                final_aggs.push(AggCall::new(AggFunc::Sum, pcol, a.output_name.clone()));
                project.push(Expr::col(
                    group_arity + final_aggs.len() - 1,
                    a.output_name.clone(),
                ));
            }
            AggFunc::Sum | AggFunc::SumFloat | AggFunc::Min | AggFunc::Max => {
                let pcol = group_arity + partial.len();
                partial.push(AggCall::new(
                    a.func,
                    a.input,
                    format!("p_{}", a.output_name),
                ));
                final_aggs.push(AggCall::new(a.func, pcol, a.output_name.clone()));
                project.push(Expr::col(
                    group_arity + final_aggs.len() - 1,
                    a.output_name.clone(),
                ));
            }
            // AVG's sum travels as a float — the accumulator the
            // single-phase state is — so it cannot overflow where the
            // single-phase AVG would not.
            AggFunc::Avg => {
                let sum_col = group_arity + partial.len();
                partial.push(AggCall::new(
                    AggFunc::SumFloat,
                    a.input,
                    format!("p_sum_{}", a.output_name),
                ));
                let cnt_col = group_arity + partial.len();
                partial.push(AggCall::new(
                    AggFunc::Count,
                    a.input,
                    format!("p_cnt_{}", a.output_name),
                ));
                let fsum = group_arity + final_aggs.len();
                final_aggs.push(AggCall::new(
                    AggFunc::SumFloat,
                    sum_col,
                    format!("f_sum_{}", a.output_name),
                ));
                let fcnt = group_arity + final_aggs.len();
                final_aggs.push(AggCall::new(
                    AggFunc::Sum,
                    cnt_col,
                    format!("f_cnt_{}", a.output_name),
                ));
                project.push(Expr::binary(
                    vdb_types::BinOp::Div,
                    Expr::Cast {
                        input: Box::new(Expr::col(fsum, "sum")),
                        to: vdb_types::DataType::Float,
                    },
                    Expr::Cast {
                        input: Box::new(Expr::col(fcnt, "cnt")),
                        to: vdb_types::DataType::Float,
                    },
                ));
            }
        }
    }
    Some((partial, final_aggs, project))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::ProjectOp;
    use crate::operator::{collect_rows, ValuesOp};
    use crate::vector::TypedVector;

    fn source_rows(n: i64, groups: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Integer(i % groups), Value::Integer(i)])
            .collect()
    }

    fn expected_counts(n: i64, groups: i64) -> Vec<Row> {
        (0..groups)
            .map(|g| {
                let count = (n / groups) + i64::from(g < n % groups);
                vec![Value::Integer(g), Value::Integer(count)]
            })
            .collect()
    }

    #[test]
    fn hash_groupby_counts() {
        let mut op = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(source_rows(10_000, 7))),
            vec![0],
            vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
            MemoryBudget::unlimited(),
        );
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(rows, expected_counts(10_000, 7));
        assert!(!op.did_spill());
    }

    #[test]
    fn hash_groupby_spills_and_stays_correct() {
        let mut op = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(source_rows(20_000, 5_000))),
            vec![0],
            vec![
                AggCall::new(AggFunc::CountStar, 0, "cnt"),
                AggCall::new(AggFunc::Sum, 1, "sum"),
                AggCall::new(AggFunc::Avg, 1, "avg"),
            ],
            MemoryBudget::new(64 * 1024),
        );
        let rows = collect_rows(&mut op).unwrap();
        assert!(op.did_spill(), "64KB budget must force a spill");
        assert_eq!(rows.len(), 5_000);
        // Spot-check group 0: members 0, 5000, 10000, 15000.
        let g0 = rows.iter().find(|r| r[0] == Value::Integer(0)).unwrap();
        assert_eq!(g0[1], Value::Integer(4));
        assert_eq!(g0[2], Value::Integer(30_000));
        assert_eq!(g0[3], Value::Float(7_500.0));
    }

    #[test]
    fn pipelined_matches_hash_on_sorted_input() {
        let mut rows = source_rows(5_000, 13);
        rows.sort();
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Min, 1, "min"),
            AggCall::new(AggFunc::Max, 1, "max"),
        ];
        let mut hash = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(rows.clone())),
            vec![0],
            aggs.clone(),
            MemoryBudget::unlimited(),
        );
        let mut pipe = PipelinedGroupByOp::new(Box::new(ValuesOp::from_rows(rows)), vec![0], aggs);
        let mut h = collect_rows(&mut hash).unwrap();
        let mut p = collect_rows(&mut pipe).unwrap();
        h.sort();
        p.sort();
        assert_eq!(h, p);
    }

    #[test]
    fn pipelined_consumes_rle_runs_without_expansion() {
        // Feed RLE batches directly: 3 runs over one column.
        let batch = Batch::new(vec![ColumnSlice::rle(vec![
            (Value::Integer(1), 1000),
            (Value::Integer(2), 500),
            (Value::Integer(3), 1),
        ])]);
        let mut op = PipelinedGroupByOp::new(
            Box::new(crate::operator::ValuesOp::new(vec![batch])),
            vec![0],
            vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
        );
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Integer(1), Value::Integer(1000)],
                vec![Value::Integer(2), Value::Integer(500)],
                vec![Value::Integer(3), Value::Integer(1)],
            ]
        );
        assert_eq!(op.run_aggregated_rows(), 1501, "all rows via run math");
    }

    #[test]
    fn rle_run_spanning_batches_merges() {
        // The same group value continuing across batch boundaries must not
        // produce two output groups.
        let b1 = Batch::new(vec![ColumnSlice::rle(vec![(Value::Integer(7), 100)])]);
        let b2 = Batch::new(vec![ColumnSlice::rle(vec![(Value::Integer(7), 50)])]);
        let mut op = PipelinedGroupByOp::new(
            Box::new(crate::operator::ValuesOp::new(vec![b1, b2])),
            vec![0],
            vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
        );
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(rows, vec![vec![Value::Integer(7), Value::Integer(150)]]);
    }

    /// Sorted rows `(a, b, c, f, i)` cut into batches of 700 (key runs
    /// straddle them), each under a selection that empties some runs:
    /// `a` in long runs with a NULL run first, `b` strings with NULLs, `c`
    /// a unique timestamp; `f` floats of mixed magnitude
    /// with NULLs, `i` integers. `encoded` picks RLE / dictionary / typed
    /// columns, otherwise everything is plain `Value`s.
    fn sorted_batches(encoded: bool) -> Vec<Batch> {
        let n = 5000usize;
        let mut rows: Vec<Row> = (0..n)
            .map(|r| {
                let a = match r / 900 {
                    0 => Value::Null,
                    run => Value::Integer(run as i64),
                };
                let b = match (r / 60) % 4 {
                    0 => Value::Null,
                    s => Value::Varchar(format!("b{s}")),
                };
                let f = match r % 11 {
                    0 => Value::Null,
                    _ => Value::Float(0.1 * r as f64 + if r % 7 == 0 { 1e15 } else { 0.0 }),
                };
                vec![
                    a,
                    b,
                    Value::Timestamp(r as i64),
                    f,
                    Value::Integer(r as i64 % 97 - 40),
                ]
            })
            .collect();
        rows.sort_by(|x, y| x[..3].cmp(&y[..3]));
        rows.chunks(700)
            .map(|chunk| {
                let col = |c: usize| chunk.iter().map(|r| r[c].clone()).collect::<Vec<Value>>();
                let typed =
                    |c: usize| ColumnSlice::Typed(TypedVector::from_values(&col(c)).unwrap());
                let columns = match encoded {
                    true => {
                        let mut runs: Vec<(Value, u32)> = Vec::new();
                        for v in col(0) {
                            match runs.last_mut() {
                                Some((last, n)) if *last == v => *n += 1,
                                _ => runs.push((v, 1)),
                            }
                        }
                        vec![
                            ColumnSlice::rle(runs),
                            typed(1),
                            typed(2),
                            typed(3),
                            typed(4),
                        ]
                    }
                    false => (0..5).map(|c| ColumnSlice::Plain(col(c))).collect(),
                };
                // Drops whole `(a, b)` runs (r / 60 even multiples of 5)
                // and scattered rows.
                let keep = |i: &u32| (i / 60) % 5 != 2 && !i.is_multiple_of(13);
                let sel = SelectionVector::new((0..chunk.len() as u32).filter(keep).collect());
                Batch::new(columns).with_selection(sel)
            })
            .collect()
    }

    fn every_agg() -> Vec<AggCall> {
        vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Count, 3, "cnt_f"),
            AggCall::new(AggFunc::Sum, 3, "sum_f"),
            AggCall::new(AggFunc::Avg, 3, "avg_f"),
            AggCall::new(AggFunc::Min, 3, "min_f"),
            AggCall::new(AggFunc::Sum, 4, "sum_i"),
            AggCall::new(AggFunc::Max, 4, "max_i"),
            AggCall::new(AggFunc::Avg, 2, "avg_ts"),
            AggCall::new(AggFunc::Max, 1, "max_s"),
            AggCall::new(AggFunc::Min, 0, "min_key"),
        ]
    }

    /// Streaming ≡ hash, bit for bit, for one-, two- and three-column
    /// sort-prefix keys over RLE, dictionary, typed and plain columns.
    #[test]
    fn pipelined_matches_hash_for_every_key_shape_and_representation() {
        let mut answers = Vec::new();
        for keys in [vec![0], vec![0, 1], vec![0, 1, 2]] {
            for encoded in [true, false] {
                let input = || Box::new(ValuesOp::new(sorted_batches(encoded)));
                let mut hash = HashGroupByOp::new(
                    input(),
                    keys.clone(),
                    every_agg(),
                    MemoryBudget::unlimited(),
                );
                let mut pipe = PipelinedGroupByOp::new(input(), keys.clone(), every_agg());
                let want = collect_rows(&mut hash).unwrap();
                // Sorted input: the streaming output is already in key order.
                assert_eq!(collect_rows(&mut pipe).unwrap(), want, "{keys:?} {encoded}");
                answers.push(want);
            }
        }
        assert_eq!(answers[0], answers[1], "encoded ≡ plain");
        assert_eq!(answers[4], answers[5], "encoded ≡ plain");
        assert_eq!(answers[0].len(), 6, "NULL and five values of `a`");
        let selected: usize = sorted_batches(true).iter().map(Batch::len).sum();
        assert_eq!(answers[4].len(), selected, "one group per row");
    }

    /// The shape the streaming strategy exists for — a run-length key and
    /// aggregates over *other* typed columns — folds a key run at a time:
    /// no `Value` is built per row and nothing pivots.
    #[test]
    fn pipelined_folds_typed_inputs_per_key_run_without_a_value_per_row() {
        let batches = sorted_batches(true);
        let rows: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 3, "sum"),
            AggCall::new(AggFunc::Avg, 3, "avg"),
            AggCall::new(AggFunc::Min, 2, "first_ts"),
        ];
        let mut op = PipelinedGroupByOp::new(Box::new(ValuesOp::new(batches)), vec![0], aggs);
        let pivots = crate::batch::row_pivot_count();
        let mut groups = 0;
        while let Some(b) = op.next_batch().unwrap() {
            groups += b.len();
        }
        assert_eq!(groups, 6);
        assert_eq!(op.run_aggregated_rows(), rows, "every row by span fold");
        assert_eq!(crate::batch::row_pivot_count(), pivots);
        // A dictionary-coded *input* still costs a `Value` per row.
        let aggs = vec![AggCall::new(AggFunc::Max, 1, "max_s")];
        let input = Box::new(ValuesOp::new(sorted_batches(true)));
        let mut op = PipelinedGroupByOp::new(input, vec![0], aggs);
        while op.next_batch().unwrap().is_some() {}
        assert_eq!(op.run_aggregated_rows(), 0);
    }

    #[test]
    fn two_phase_prepass_final_matches_single_phase() {
        let input_rows = source_rows(8_000, 11);
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Avg, 1, "avg"),
        ];
        // Single phase reference.
        let mut single = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(input_rows.clone())),
            vec![0],
            aggs.clone(),
            MemoryBudget::unlimited(),
        );
        let reference = collect_rows(&mut single).unwrap();
        // Two-phase: a partial GroupBy per input slice (what each morsel
        // worker runs) → final over the partials → AVG projection.
        let (partial, final_aggs, project) = two_phase_aggs(1, &aggs).unwrap();
        let mut partials = Vec::new();
        for slice in input_rows.chunks(700) {
            let mut prepass = HashGroupByOp::new(
                Box::new(ValuesOp::from_rows(slice.to_vec())),
                vec![0],
                partial.clone(),
                MemoryBudget::unlimited(),
            );
            partials.extend(collect_rows(&mut prepass).unwrap());
        }
        let final_gb = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(partials)),
            vec![0],
            final_aggs,
            MemoryBudget::unlimited(),
        );
        let mut proj = ProjectOp::new(Box::new(final_gb), project);
        let mut got = collect_rows(&mut proj).unwrap();
        got.sort();
        assert_eq!(got, reference);
    }

    /// Typed group keys (with NULLs and a selection, over several batches)
    /// must produce exactly the groups the plain value path produces —
    /// in memory and through the spill path.
    fn assert_typed_keys_match_plain_keys(key_of: impl Fn(usize) -> Value) {
        let n = 4000usize;
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Min, 1, "min"),
        ];
        let (mut typed, mut plain) = (Vec::new(), Vec::new());
        for from in (0..n).step_by(1000) {
            let keys: Vec<Value> = (from..from + 1000).map(&key_of).collect();
            let vals: Vec<Value> = (from..from + 1000)
                .map(|i| Value::Integer(i as i64))
                .collect();
            let sel = SelectionVector::new((0..1000u32).filter(|i| i % 3 != 0).collect());
            let batch = Batch::new(vec![
                ColumnSlice::Typed(TypedVector::from_values(&keys).unwrap()),
                ColumnSlice::Typed(TypedVector::from_values(&vals).unwrap()),
            ]);
            typed.push(batch.with_selection(sel.clone()));
            plain.push(
                Batch::new(vec![ColumnSlice::Plain(keys), ColumnSlice::Plain(vals)])
                    .with_selection(sel),
            );
        }
        for budget in [MemoryBudget::unlimited(), MemoryBudget::new(2048)] {
            let mut fast = HashGroupByOp::new(
                Box::new(ValuesOp::new(typed.clone())),
                vec![0],
                aggs.clone(),
                budget,
            );
            let mut reference = HashGroupByOp::new(
                Box::new(ValuesOp::new(plain.clone())),
                vec![0],
                aggs.clone(),
                budget,
            );
            assert_eq!(
                collect_rows(&mut fast).unwrap(),
                collect_rows(&mut reference).unwrap()
            );
            assert_eq!(fast.did_spill(), reference.did_spill());
        }
    }

    #[test]
    fn dict_coded_keys_match_plain_keys() {
        assert_typed_keys_match_plain_keys(|i| match i % 17 {
            0 => Value::Null,
            _ => Value::Varchar(format!("k{}", i % 7)),
        });
    }

    #[test]
    fn integer_and_timestamp_keys_match_plain_keys() {
        // Few groups, many groups (one per row: every batch's local table
        // is all inserts), negative and extreme keys; NULLs throughout.
        assert_typed_keys_match_plain_keys(|i| match i % 17 {
            0 => Value::Null,
            _ => Value::Integer(i as i64 % 7 - 3),
        });
        assert_typed_keys_match_plain_keys(|i| match i % 29 {
            0 => Value::Null,
            1 => Value::Integer(i64::MIN),
            2 => Value::Integer(i64::MAX),
            _ => Value::Integer(i as i64 * 1_000_003),
        });
        assert_typed_keys_match_plain_keys(|i| match i % 5 {
            0 => Value::Null,
            _ => Value::Timestamp(1_700_000_000 + (i as i64 % 11) * 3600),
        });
    }

    /// A float SUM depends on the order its terms are added in. The typed
    /// key paths must add in row order, like the plain path — not per-batch
    /// partials folded into the total — or the same query answers with
    /// different last bits depending on how its input happens to be coded.
    #[test]
    fn typed_keys_add_floats_in_the_plain_paths_order() {
        let aggs = vec![
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Avg, 1, "avg"),
        ];
        let dict_key = |i: usize| Value::Varchar(format!("k{}", i % 3));
        let int_key = |i: usize| Value::Integer(i as i64 % 3);
        let ts_key = |i: usize| Value::Timestamp(i as i64 % 3);
        let keys_of: [&dyn Fn(usize) -> Value; 3] = [&dict_key, &int_key, &ts_key];
        for key_of in keys_of {
            let (mut typed, mut plain) = (Vec::new(), Vec::new());
            for from in (0..3000usize).step_by(500) {
                let keys: Vec<Value> = (from..from + 500)
                    .map(|i| if i % 19 == 0 { Value::Null } else { key_of(i) })
                    .collect();
                // Terms of very different magnitude: any regrouping shows.
                let vals: Vec<Value> = (from..from + 500)
                    .map(|i| Value::Float(0.1 * i as f64 + if i % 7 == 0 { 1e15 } else { 0.0 }))
                    .collect();
                typed.push(Batch::new(vec![
                    ColumnSlice::Typed(TypedVector::from_values(&keys).unwrap()),
                    ColumnSlice::Typed(TypedVector::from_values(&vals).unwrap()),
                ]));
                plain.push(Batch::new(vec![
                    ColumnSlice::Plain(keys),
                    ColumnSlice::Plain(vals),
                ]));
            }
            let run = |batches: Vec<Batch>| {
                let input = Box::new(ValuesOp::new(batches));
                let mut op =
                    HashGroupByOp::new(input, vec![0], aggs.clone(), MemoryBudget::unlimited());
                collect_rows(&mut op).unwrap()
            };
            let (fast, reference) = (run(typed), run(plain));
            assert_eq!(fast.len(), 4, "three keys and NULL");
            assert_eq!(fast, reference, "bit for bit");
        }
    }

    #[test]
    fn rle_keys_match_plain_keys_in_hash_groupby() {
        let runs = vec![
            (Value::Integer(1), 1000u32),
            (Value::Integer(2), 500),
            (Value::Integer(1), 250),
            (Value::Null, 10),
        ];
        let expanded: Vec<Value> = runs
            .iter()
            .flat_map(|(v, n)| std::iter::repeat_n(v.clone(), *n as usize))
            .collect();
        // Terms of very different magnitude: the per-run fold must add
        // them in the plain path's (row) order.
        let vals: Vec<Value> = (0..expanded.len())
            .map(|i| Value::Float(0.1 * i as f64 + if i % 7 == 0 { 1e15 } else { 0.0 }))
            .collect();
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Avg, 1, "avg"),
        ];
        let rle_batch = Batch::new(vec![
            ColumnSlice::rle(runs),
            ColumnSlice::Typed(TypedVector::from_values(&vals).unwrap()),
        ]);
        let plain_batch = Batch::new(vec![
            ColumnSlice::Plain(expanded),
            ColumnSlice::Typed(TypedVector::from_values(&vals).unwrap()),
        ]);
        let mut fast = HashGroupByOp::new(
            Box::new(ValuesOp::new(vec![rle_batch])),
            vec![0],
            aggs.clone(),
            MemoryBudget::unlimited(),
        );
        let mut reference = HashGroupByOp::new(
            Box::new(ValuesOp::new(vec![plain_batch])),
            vec![0],
            aggs,
            MemoryBudget::unlimited(),
        );
        assert_eq!(
            collect_rows(&mut fast).unwrap(),
            collect_rows(&mut reference).unwrap()
        );
    }

    #[test]
    fn count_distinct_single_phase_only() {
        assert!(two_phase_aggs(1, &[AggCall::new(AggFunc::CountDistinct, 0, "d")]).is_none());
        let rows: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Integer(i % 3), Value::Integer(i % 50)])
            .collect();
        let mut op = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(rows)),
            vec![0],
            vec![AggCall::new(AggFunc::CountDistinct, 1, "d")],
            MemoryBudget::unlimited(),
        );
        let out = collect_rows(&mut op).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r[1] == Value::Integer(50)));
    }

    #[test]
    fn empty_input_yields_no_groups() {
        let mut op = HashGroupByOp::new(
            Box::new(ValuesOp::from_rows(vec![])),
            vec![0],
            vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
            MemoryBudget::unlimited(),
        );
        assert!(collect_rows(&mut op).unwrap().is_empty());
    }
}
