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
//! * [`PipelinedGroupByOp`] — one-pass aggregation over input sorted by the
//!   group columns; consumes RLE runs without expansion (encoded execution).
//! * [`PrepassGroupByOp`] — the §6.1 "prepass" operator: an L1-cache-sized
//!   hash table that aggregates immediately after the scan, emits partial
//!   results whenever it fills, and turns itself off at runtime if it is
//!   not actually reducing the row count.
//!
//! Two-phase (prepass → final) plans are assembled via [`two_phase_aggs`],
//! which is also how distributed aggregation merges per-node partials.

use crate::aggregate::{AggCall, AggFunc, AggState};
use crate::batch::{Batch, ColumnSlice, BATCH_SIZE};
use crate::join::IntTable;
use crate::memory::MemoryBudget;
use crate::operator::{BoxedOperator, Operator};
use crate::vector::{Bitmap, SelectionVector, TypedVector, VectorData, NO_ROW};
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use vdb_types::codec::{Reader, Writer};
use vdb_types::{DataType, DbError, DbResult, Expr, Row, Value};

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

    /// Global-aggregate path: COUNT(*) consumes whole batches by length;
    /// other aggregates fold per column — typed vectors natively, RLE by
    /// whole runs (SUM over a run is one multiply), honoring the batch's
    /// selection vector — without row materialization.
    fn consume_global(&mut self, batch: Batch) -> DbResult<()> {
        let states = self
            .global
            .get_or_insert_with(|| self.aggs.iter().map(|a| AggState::new(a.func)).collect());
        let n = batch.len() as u64;
        // Pure COUNT(*): no value access at all.
        if self.aggs.iter().all(|a| a.func == AggFunc::CountStar) {
            for s in states.iter_mut() {
                s.update_n(AggFunc::CountStar, &Value::Null, n)?;
            }
            return Ok(());
        }
        let sel = batch.selection();
        for (a, s) in self.aggs.iter().zip(states.iter_mut()) {
            if a.func == AggFunc::CountStar {
                s.update_n(AggFunc::CountStar, &Value::Null, n)?;
                continue;
            }
            match &batch.columns[a.input] {
                ColumnSlice::Plain(values) => match sel {
                    None => {
                        for v in values {
                            s.update(a.func, v)?;
                        }
                    }
                    Some(sel) => {
                        for i in sel.iter() {
                            s.update(a.func, &values[i])?;
                        }
                    }
                },
                ColumnSlice::Rle(rv) => {
                    let filtered;
                    let runs = match sel {
                        None => rv.runs(),
                        Some(sel) => {
                            filtered = rv.filter(sel);
                            filtered.runs()
                        }
                    };
                    for (v, len) in runs {
                        s.update_n(a.func, v, u64::from(*len))?;
                    }
                }
                ColumnSlice::Typed(tv) => update_global_typed(s, a.func, tv, sel)?,
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
        let per_group = self.aggs.len() * 24 + 48;
        while let Some(batch) = input.next_batch()? {
            // Global aggregates (no GROUP BY): fold without any hashing.
            if self.group_columns.is_empty() {
                self.consume_global(batch)?;
                continue;
            }
            // Grouped path: iterate logical rows through column accessors —
            // no row vector is ever materialized, and typed aggregate
            // inputs fold natively.
            let accessors: Vec<ColAccess<'_>> = self
                .aggs
                .iter()
                .map(|a| ColAccess::new(&batch.columns, a))
                .collect();
            let single_key = self.group_columns.len() == 1;
            let key_col = self.group_columns[0];
            // Compressed-domain fast paths for single-column keys: the hot
            // loop never constructs (or hashes) a key `Value` per row.
            if single_key {
                match &batch.columns[key_col] {
                    // Dictionary-coded and native integer keys: each distinct
                    // key of the batch checks its group's states out of the
                    // table at its first row — one `Value` built and one
                    // hash lookup per distinct key, found again per row
                    // through a code-indexed (dictionary) or `i64`
                    // open-addressing (integer) slot array — and the batch
                    // hands them back at its end. Rows fold into the
                    // checked-out states in row order, the order the plain
                    // path adds in, so a float SUM has the same bits
                    // whichever path ran.
                    ColumnSlice::Typed(tv) => {
                        let mut groups: Vec<(Value, Vec<AggState>)> = Vec::new();
                        let mut number = |slot: &mut u32,
                                          groups: &mut Vec<(Value, Vec<AggState>)>,
                                          key: &dyn Fn() -> Value|
                         -> usize {
                            if *slot == NO_ROW {
                                let key = key();
                                let states = table.take_one(&key).unwrap_or_else(|| {
                                    approx += per_group + 16;
                                    self.aggs.iter().map(|a| AggState::new(a.func)).collect()
                                });
                                *slot = groups.len() as u32;
                                groups.push((key, states));
                            }
                            *slot as usize
                        };
                        let mut null_slot = NO_ROW;
                        let handled = match tv.data() {
                            VectorData::Dict { dict, codes } => {
                                let mut by_code = vec![NO_ROW; dict.len()];
                                for li in 0..batch.len() {
                                    let pi = batch.physical_index(li);
                                    let g = if tv.is_valid(pi) {
                                        let code = codes[pi];
                                        let key = || Value::Varchar(dict.get(code).to_string());
                                        number(&mut by_code[code as usize], &mut groups, &key)
                                    } else {
                                        number(&mut null_slot, &mut groups, &|| Value::Null)
                                    };
                                    for (acc, s) in accessors.iter().zip(&mut groups[g].1) {
                                        acc.update(s, pi)?;
                                    }
                                }
                                true
                            }
                            VectorData::Int64(xs) | VectorData::Timestamp(xs) => {
                                let timestamp = matches!(tv.data(), VectorData::Timestamp(_));
                                let mut slots = IntTable::for_rows(batch.len());
                                for li in 0..batch.len() {
                                    let pi = batch.physical_index(li);
                                    let g = if tv.is_valid(pi) {
                                        let x = xs[pi];
                                        let key = || match timestamp {
                                            true => Value::Timestamp(x),
                                            false => Value::Integer(x),
                                        };
                                        number(slots.head_mut(x), &mut groups, &key)
                                    } else {
                                        number(&mut null_slot, &mut groups, &|| Value::Null)
                                    };
                                    for (acc, s) in accessors.iter().zip(&mut groups[g].1) {
                                        acc.update(s, pi)?;
                                    }
                                }
                                true
                            }
                            _ => false,
                        };
                        if handled {
                            for (key, states) in groups {
                                table.put_one(key, states);
                            }
                            if self.budget.exceeded_by(approx) {
                                self.spill_table(&mut table)?;
                                approx = 0;
                            }
                            continue;
                        }
                    }
                    // RLE keys probe the table once per *run*, not per row.
                    ColumnSlice::Rle(rv) => {
                        let filtered;
                        let runs = match batch.selection() {
                            None => rv.runs(),
                            Some(sel) => {
                                filtered = rv.filter(sel);
                                filtered.runs()
                            }
                        };
                        let mut li = 0usize;
                        for (v, n) in runs {
                            let mut new_group = false;
                            let states = table.state_for_one(
                                v.clone(),
                                || self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                                &mut new_group,
                            );
                            if new_group {
                                approx += per_group + 16;
                            }
                            for _ in 0..*n {
                                let pi = batch.physical_index(li);
                                li += 1;
                                for (acc, s) in accessors.iter().zip(states.iter_mut()) {
                                    acc.update(s, pi)?;
                                }
                            }
                            if self.budget.exceeded_by(approx) {
                                self.spill_table(&mut table)?;
                                approx = 0;
                            }
                        }
                        continue;
                    }
                    _ => {}
                }
            }
            for li in 0..batch.len() {
                let pi = batch.physical_index(li);
                let mut new_group = false;
                let states = if single_key {
                    table.state_for_one(
                        batch.columns[key_col].value_at(pi),
                        || self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                        &mut new_group,
                    )
                } else {
                    let key: Vec<Value> = self
                        .group_columns
                        .iter()
                        .map(|&c| batch.columns[c].value_at(pi))
                        .collect();
                    table.state_for_many(
                        key,
                        || self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
                        &mut new_group,
                    )
                };
                if new_group {
                    approx += per_group + 16 * self.group_columns.len();
                }
                for (acc, s) in accessors.iter().zip(states.iter_mut()) {
                    acc.update(s, pi)?;
                }
                if self.budget.exceeded_by(approx) {
                    self.spill_table(&mut table)?;
                    approx = 0;
                }
            }
        }
        if self.group_columns.is_empty() {
            let states = self
                .global
                .take()
                .unwrap_or_else(|| self.aggs.iter().map(|a| AggState::new(a.func)).collect());
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

/// Per-aggregate view of an input column, letting the grouped hash path
/// fold values straight from the column representation.
struct ColAccess<'a> {
    func: AggFunc,
    kind: ColAccessKind<'a>,
}

enum ColAccessKind<'a> {
    /// COUNT(*) touches no column.
    CountStar,
    /// Native integral buffer (`Integer`/`Timestamp`).
    I64(&'a [i64], Option<&'a Bitmap>, DataType),
    /// Native float buffer.
    F64(&'a [f64], Option<&'a Bitmap>),
    /// Plain values, folded by reference (no clone).
    PlainRef(&'a [Value]),
    /// Anything else (RLE, bool/dict vectors): point access.
    Generic(&'a ColumnSlice),
}

impl<'a> ColAccess<'a> {
    fn new(columns: &'a [ColumnSlice], a: &AggCall) -> ColAccess<'a> {
        let kind = if a.func == AggFunc::CountStar {
            ColAccessKind::CountStar
        } else {
            match &columns[a.input] {
                ColumnSlice::Plain(values) => ColAccessKind::PlainRef(values),
                ColumnSlice::Typed(tv) => match tv.data() {
                    VectorData::Int64(xs) => {
                        ColAccessKind::I64(xs, tv.validity(), DataType::Integer)
                    }
                    VectorData::Timestamp(xs) => {
                        ColAccessKind::I64(xs, tv.validity(), DataType::Timestamp)
                    }
                    VectorData::Float64(xs) => ColAccessKind::F64(xs, tv.validity()),
                    _ => ColAccessKind::Generic(&columns[a.input]),
                },
                other => ColAccessKind::Generic(other),
            }
        };
        ColAccess { func: a.func, kind }
    }

    /// Fold physical row `pi` into `s`.
    #[inline]
    fn update(&self, s: &mut AggState, pi: usize) -> DbResult<()> {
        match &self.kind {
            ColAccessKind::CountStar => s.update(self.func, &Value::Null),
            ColAccessKind::I64(xs, validity, ty) => {
                if validity.is_none_or(|v| v.get(pi)) {
                    s.update_i64(self.func, xs[pi], *ty)
                } else {
                    Ok(()) // NULL: every aggregate but COUNT(*) skips it
                }
            }
            ColAccessKind::F64(xs, validity) => {
                if validity.is_none_or(|v| v.get(pi)) {
                    s.update_f64(self.func, xs[pi])
                } else {
                    Ok(())
                }
            }
            ColAccessKind::PlainRef(values) => s.update(self.func, &values[pi]),
            ColAccessKind::Generic(col) => s.update(self.func, &col.value_at(pi)),
        }
    }
}

/// Fold a whole typed vector (optionally through a selection) into one
/// aggregate state — the global-aggregate typed fast path.
fn update_global_typed(
    s: &mut AggState,
    func: AggFunc,
    tv: &TypedVector,
    sel: Option<&SelectionVector>,
) -> DbResult<()> {
    let mut fold = |i: usize| -> DbResult<()> {
        if !tv.is_valid(i) {
            return Ok(());
        }
        match tv.data() {
            VectorData::Int64(xs) => s.update_i64(func, xs[i], DataType::Integer),
            VectorData::Timestamp(xs) => s.update_i64(func, xs[i], DataType::Timestamp),
            VectorData::Float64(xs) => s.update_f64(func, xs[i]),
            _ => s.update(func, &tv.value_at(i)),
        }
    };
    match sel {
        None => {
            for i in 0..tv.len() {
                fold(i)?;
            }
        }
        Some(sel) => {
            for i in sel.iter() {
                fold(i)?;
            }
        }
    }
    Ok(())
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
// Pipelined (one-pass) GroupBy over sorted input
// ---------------------------------------------------------------------------

/// One-pass aggregation: input must arrive sorted by the group columns
/// (projection sort order). Emits each group as soon as the key changes, so
/// memory is O(1) groups. When the (single) group column arrives as RLE
/// runs and the aggregates only need run-level math, runs are consumed
/// without expansion.
pub struct PipelinedGroupByOp {
    input: BoxedOperator,
    group_columns: Vec<usize>,
    aggs: Vec<AggCall>,
    current: Option<(Vec<Value>, Vec<AggState>)>,
    pending: Vec<Row>,
    done: bool,
    /// Count of values aggregated via whole-run updates (encoded-exec
    /// telemetry for the ablation bench).
    run_aggregated_rows: u64,
}

impl PipelinedGroupByOp {
    pub fn new(
        input: BoxedOperator,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
    ) -> PipelinedGroupByOp {
        PipelinedGroupByOp {
            input,
            group_columns,
            aggs,
            current: None,
            pending: Vec::new(),
            done: false,
            run_aggregated_rows: 0,
        }
    }

    pub fn run_aggregated_rows(&self) -> u64 {
        self.run_aggregated_rows
    }

    fn flush_current(&mut self) {
        if let Some((key, states)) = self.current.take() {
            self.pending.push(finish_group(key, states));
        }
    }

    fn update_group(&mut self, key: Vec<Value>, row_values: RunOrRow<'_>) -> DbResult<()> {
        let switch = match &self.current {
            Some((cur, _)) => cur != &key,
            None => true,
        };
        if switch {
            self.flush_current();
            self.current = Some((
                key,
                self.aggs.iter().map(|a| AggState::new(a.func)).collect(),
            ));
        }
        let (_, states) = self.current.as_mut().unwrap();
        match row_values {
            RunOrRow::Row { value_of } => {
                for (a, s) in self.aggs.iter().zip(states.iter_mut()) {
                    let v = if a.func == AggFunc::CountStar {
                        Value::Null
                    } else {
                        value_of(a.input)
                    };
                    s.update(a.func, &v)?;
                }
            }
            RunOrRow::Run { value_of, n } => {
                self.run_aggregated_rows += u64::from(n);
                for (a, s) in self.aggs.iter().zip(states.iter_mut()) {
                    let v = if a.func == AggFunc::CountStar {
                        Value::Null
                    } else {
                        value_of(a.input)
                    };
                    s.update_n(a.func, &v, u64::from(n))?;
                }
            }
        }
        Ok(())
    }

    /// Can this batch use the run fast path? Single group column arriving
    /// as RLE, and every aggregate input is either the group column itself
    /// or COUNT(*) — i.e. constant within a run.
    fn run_fast_path(&self, batch: &Batch) -> bool {
        if self.group_columns.len() != 1 {
            return false;
        }
        let gc = self.group_columns[0];
        if !batch.columns[gc].is_rle() {
            return false;
        }
        self.aggs
            .iter()
            .all(|a| a.func == AggFunc::CountStar || a.input == gc)
    }

    fn consume_batch(&mut self, batch: &Batch) -> DbResult<()> {
        if self.run_fast_path(batch) {
            let gc = self.group_columns[0];
            let ColumnSlice::Rle(rv) = &batch.columns[gc] else {
                unreachable!()
            };
            // A selection (from a filter or visibility) shortens runs but
            // never expands them.
            let filtered;
            let runs = match batch.selection() {
                None => rv.runs(),
                Some(sel) => {
                    filtered = rv.filter(sel);
                    filtered.runs()
                }
            };
            for (v, n) in runs {
                let key = vec![v.clone()];
                let vv = v.clone();
                self.update_group(
                    key,
                    RunOrRow::Run {
                        value_of: &|_| vv.clone(),
                        n: *n,
                    },
                )?;
            }
            return Ok(());
        }
        // Columnar path: walk logical rows through column accessors — the
        // group key and each aggregate input construct one `Value` per
        // row, never a full row vector.
        for li in 0..batch.len() {
            let pi = batch.physical_index(li);
            let key: Vec<Value> = self
                .group_columns
                .iter()
                .map(|&c| batch.columns[c].value_at(pi))
                .collect();
            let value_of = |c: usize| batch.columns[c].value_at(pi);
            self.update_group(
                key,
                RunOrRow::Row {
                    value_of: &value_of,
                },
            )?;
        }
        Ok(())
    }
}

enum RunOrRow<'a> {
    Row {
        value_of: &'a dyn Fn(usize) -> Value,
    },
    Run {
        value_of: &'a dyn Fn(usize) -> Value,
        n: u32,
    },
}

impl Operator for PipelinedGroupByOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        loop {
            if self.pending.len() >= BATCH_SIZE || (self.done && !self.pending.is_empty()) {
                let rows = std::mem::take(&mut self.pending);
                return Ok(Some(crate::batch::typed_batch_from_rows(rows)));
            }
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                Some(batch) => self.consume_batch(&batch)?,
                None => {
                    self.flush_current();
                    self.done = true;
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("GroupByPipelined(keys={:?})", self.group_columns)
    }
}

// ---------------------------------------------------------------------------
// Prepass GroupBy (§6.1): bounded hash table, adaptive shutoff
// ---------------------------------------------------------------------------

/// Default prepass table size: "an L1 cache sized hash table".
pub const PREPASS_GROUPS: usize = 1024;

/// Aggregates eagerly with a bounded table; emits partial rows whenever the
/// table fills; disables itself if it is not reducing cardinality ("the EE
/// will decide at runtime to stop if it is not actually reducing the number
/// of rows which pass").
pub struct PrepassGroupByOp {
    input: BoxedOperator,
    group_columns: Vec<usize>,
    /// Partial-form aggregates (see [`two_phase_aggs`]).
    aggs: Vec<AggCall>,
    max_groups: usize,
    table: HashMap<Vec<Value>, Vec<AggState>>,
    pending: Vec<Row>,
    rows_in: u64,
    rows_out: u64,
    disabled: bool,
    done: bool,
}

impl PrepassGroupByOp {
    pub fn new(
        input: BoxedOperator,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
        max_groups: usize,
    ) -> PrepassGroupByOp {
        PrepassGroupByOp {
            input,
            group_columns,
            aggs,
            max_groups,
            table: HashMap::new(),
            pending: Vec::new(),
            rows_in: 0,
            rows_out: 0,
            disabled: false,
            done: false,
        }
    }

    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    fn flush_table(&mut self) {
        for (key, states) in self.table.drain() {
            let mut row = key;
            for s in states {
                row.push(partial_value(s));
            }
            self.pending.push(row);
            self.rows_out += 1;
        }
    }

    /// A row passed through unaggregated, converted to partial layout.
    /// `key` is the already-gathered group key; `agg_value` yields each
    /// aggregate's input (column accessor — no row is materialized).
    fn passthrough_row(
        &mut self,
        key: Vec<Value>,
        agg_value: &dyn Fn(usize) -> Value,
    ) -> DbResult<()> {
        let mut out = key;
        for a in &self.aggs {
            let mut s = AggState::new(a.func);
            let v = if a.func == AggFunc::CountStar {
                Value::Null
            } else {
                agg_value(a.input)
            };
            s.update(a.func, &v)?;
            out.push(partial_value(s));
        }
        self.pending.push(out);
        self.rows_out += 1;
        Ok(())
    }
}

/// Partial state rendered as a value for transport between prepass and
/// final GroupBy (Avg is pre-split into SUM and COUNT by `two_phase_aggs`,
/// so every remaining state is single-valued).
fn partial_value(s: AggState) -> Value {
    s.finish()
}

impl Operator for PrepassGroupByOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        loop {
            if !self.pending.is_empty() {
                let take = self.pending.len().min(BATCH_SIZE);
                let rows: Vec<Row> = self.pending.drain(..take).collect();
                return Ok(Some(crate::batch::typed_batch_from_rows(rows)));
            }
            if self.done {
                return Ok(None);
            }
            match self.input.next_batch()? {
                None => {
                    self.flush_table();
                    self.done = true;
                }
                Some(batch) => {
                    // Columnar consume: group keys and aggregate inputs
                    // come from column accessors, not pivoted rows.
                    for li in 0..batch.len() {
                        let pi = batch.physical_index(li);
                        self.rows_in += 1;
                        let key: Vec<Value> = self
                            .group_columns
                            .iter()
                            .map(|&c| batch.columns[c].value_at(pi))
                            .collect();
                        let agg_value = |c: usize| batch.columns[c].value_at(pi);
                        if self.disabled {
                            self.passthrough_row(key, &agg_value)?;
                            continue;
                        }
                        if !self.table.contains_key(&key) && self.table.len() >= self.max_groups {
                            // Table full: emit current contents and start
                            // afresh with the next input (§6.1).
                            self.flush_table();
                            // Adaptive shutoff: if we are not reducing rows,
                            // stop paying the hashing cost.
                            if self.rows_in > 4096 && self.rows_out * 10 > self.rows_in * 9 {
                                self.disabled = true;
                                self.passthrough_row(key, &agg_value)?;
                                continue;
                            }
                        }
                        let states = self.table.entry(key).or_insert_with(|| {
                            self.aggs.iter().map(|a| AggState::new(a.func)).collect()
                        });
                        for (a, s) in self.aggs.iter().zip(states.iter_mut()) {
                            let v = if a.func == AggFunc::CountStar {
                                Value::Null
                            } else {
                                agg_value(a.input)
                            };
                            s.update(a.func, &v)?;
                        }
                    }
                }
            }
        }
    }

    fn name(&self) -> String {
        format!("GroupByPrepass(max_groups={})", self.max_groups)
    }
}

// ---------------------------------------------------------------------------
// Two-phase plan helper
// ---------------------------------------------------------------------------

/// Split aggregate calls into a `(partial, final, projection)` triple:
///
/// * `partial` — what the prepass (or each node) computes over raw input;
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
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
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
            AggFunc::Avg => {
                let sum_col = group_arity + partial.len();
                partial.push(AggCall::new(
                    AggFunc::Sum,
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
                    AggFunc::Sum,
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
        // Two-phase: prepass (tiny table to force partials) → final → proj.
        let (partial, final_aggs, project) = two_phase_aggs(1, &aggs).unwrap();
        let prepass = PrepassGroupByOp::new(
            Box::new(ValuesOp::from_rows(input_rows)),
            vec![0],
            partial,
            4, // pathological table size: lots of partial flushes
        );
        let final_gb = HashGroupByOp::new(
            Box::new(prepass),
            vec![0],
            final_aggs,
            MemoryBudget::unlimited(),
        );
        let mut proj = ProjectOp::new(Box::new(final_gb), project);
        let mut got = collect_rows(&mut proj).unwrap();
        got.sort();
        assert_eq!(got, reference);
    }

    #[test]
    fn prepass_disables_itself_on_high_cardinality() {
        // Every row is its own group: prepass cannot reduce and must give up.
        let rows: Vec<Row> = (0..20_000).map(|i| vec![Value::Integer(i)]).collect();
        let mut prepass = PrepassGroupByOp::new(
            Box::new(ValuesOp::from_rows(rows)),
            vec![0],
            vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
            PREPASS_GROUPS,
        );
        let out = collect_rows(&mut prepass).unwrap();
        assert!(prepass.is_disabled(), "adaptive shutoff should trigger");
        assert_eq!(out.len(), 20_000);
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
        let vals: Vec<Value> = (0..expanded.len())
            .map(|i| Value::Integer(i as i64))
            .collect();
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
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
