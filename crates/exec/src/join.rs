//! Join operators (§6.1 #3).
//!
//! "Vertica supports both hash join and merge join algorithms which are
//! capable of externalizing if necessary. All flavors of INNER, LEFT OUTER,
//! RIGHT OUTER, FULL OUTER, SEMI, and ANTI joins are supported."
//!
//! ## The hash-join core
//!
//! Both hash-join operators — [`HashJoinOp`] here and the morsel-parallel
//! [`crate::parallel_join::ParallelHashJoinOp`] — drive one columnar core,
//! `BuildSide`:
//!
//! * **Build layout.** The build (right) input is kept as its columns,
//!   concatenated in build-scan order ([`Batch::append`]: typed where the
//!   input is typed, dictionaries unified once, plain values only for a
//!   column that mixes types). A build row's id is its position.
//! * **Key table.** Key → chain of build row ids: the table holds the
//!   first id of each distinct key and `next[id]` links the rest, in
//!   ascending id order. A single `Integer`/`Timestamp` key column gets a
//!   native open-addressing table keyed by `i64`; everything else (other
//!   types, multi-column keys, columns that mix types) shares one map
//!   keyed by `Value`s, so [`Value`]'s Integer = Timestamp = integral
//!   Float equality holds whichever table is in use. NULL keys are never
//!   inserted and never probed.
//! * **Probe.** One lookup per row for native integer keys, one per
//!   *distinct code* for dictionary-coded probe columns, one per *run* for
//!   RLE ones. SEMI/ANTI refine the probe batch's selection. The emitting
//!   flavors produce `(probe row, build row id)` index pairs and the output
//!   batch is a typed `take` of the probe columns and the build columns at
//!   those indices — no row is cloned and no `Value` is built per row.
//!   LEFT/FULL OUTER misses carry [`NO_ROW`], which `take` turns into a
//!   cleared validity bit; RIGHT/FULL OUTER keep a matched bitmap over
//!   build row ids and emit the unmatched ones (NULL-keyed rows included —
//!   they are in the columns, just not in the table) after the probe.
//! * **Order.** Output follows probe order, and within one probe row the
//!   build matches come in build-scan order. Ids are assigned in scan
//!   order, which is all the parallel build has to reproduce.
//!
//! [`HashJoinOp`] builds on the right input. After the build it publishes
//! the key set to an attached [`SipFilter`] so the probe-side Scan can drop
//! non-matching rows early (§6.1 SIP). Its [`MemoryBudget`] counts the bytes
//! of the build columns plus `TABLE_BYTES_PER_ROW` for the key table; if
//! the build side exceeds it, the operator "will perform a sort-merge join
//! instead" — both sides are external-sorted on the keys and merged.
//!
//! [`MergeJoinOp`] joins two inputs already sorted on the join keys (the
//! projection-sort-order fast path the optimizer prefers for co-sorted
//! projections).

use crate::batch::{Batch, ColumnSlice, BATCH_SIZE};
use crate::exchange::UnionOp;
use crate::memory::MemoryBudget;
use crate::operator::{BoxedOperator, Operator, ValuesOp};
use crate::sip::SipFilter;
use crate::sort::SortOp;
use crate::vector::{Bitmap, VectorData, NO_ROW};
use std::collections::HashMap;
use std::sync::Arc;
use vdb_types::schema::SortKey;
use vdb_types::{DbError, DbResult, Row, Value};

/// Join flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
    Semi,
    Anti,
}

impl JoinType {
    pub fn name(self) -> &'static str {
        match self {
            JoinType::Inner => "INNER",
            JoinType::LeftOuter => "LEFT OUTER",
            JoinType::RightOuter => "RIGHT OUTER",
            JoinType::FullOuter => "FULL OUTER",
            JoinType::Semi => "SEMI",
            JoinType::Anti => "ANTI",
        }
    }

    /// Does the output include right-side columns?
    pub fn emits_right_columns(self) -> bool {
        !matches!(self, JoinType::Semi | JoinType::Anti)
    }

    /// Do probe rows without a match appear, NULL-padded?
    fn keeps_unmatched_probe(self) -> bool {
        matches!(self, JoinType::LeftOuter | JoinType::FullOuter)
    }

    /// Do build rows without a match appear, NULL-padded?
    fn keeps_unmatched_build(self) -> bool {
        matches!(self, JoinType::RightOuter | JoinType::FullOuter)
    }
}

/// What the memory budget charges per build row for the key table, on top
/// of the row's column bytes: its chain link plus its share of a
/// half-loaded slot array.
pub(crate) const TABLE_BYTES_PER_ROW: usize = 28;

/// Budgeted size of one build-side batch (call on a compacted batch).
pub(crate) fn build_bytes(batch: &Batch) -> usize {
    batch.approx_bytes() + batch.len() * TABLE_BYTES_PER_ROW
}

/// Open-addressing table from an `i64` key to a `u32` — for the join, the
/// head of the key's chain of build row ids (the hash group-by borrows it
/// to number a batch's distinct integer keys): linear probing,
/// power-of-two capacity, at most half full.
pub(crate) struct IntTable {
    keys: Vec<i64>,
    /// [`NO_ROW`] marks an empty slot.
    heads: Vec<u32>,
    shift: u32,
}

impl IntTable {
    /// A table for at most `rows` distinct keys.
    pub(crate) fn for_rows(rows: usize) -> IntTable {
        let capacity = (rows * 2).next_power_of_two().max(2);
        IntTable {
            keys: vec![0; capacity],
            heads: vec![NO_ROW; capacity],
            shift: 64 - capacity.trailing_zeros(),
        }
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    #[inline]
    fn slot_of(&self, key: i64) -> usize {
        let mask = self.keys.len() - 1;
        let mut slot = ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        while self.heads[slot] != NO_ROW && self.keys[slot] != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    #[inline]
    fn get(&self, key: i64) -> u32 {
        self.heads[self.slot_of(key)]
    }

    /// The entry of `key`, claiming a slot for a new key — which reads
    /// [`NO_ROW`] until the caller stores something else.
    pub(crate) fn head_mut(&mut self, key: i64) -> &mut u32 {
        let slot = self.slot_of(key);
        self.keys[slot] = key;
        &mut self.heads[slot]
    }

    fn keys(&self) -> impl Iterator<Item = i64> + '_ {
        self.keys
            .iter()
            .zip(&self.heads)
            .filter_map(|(&k, &head)| (head != NO_ROW).then_some(k))
    }
}

/// Key → first build row id of the key's chain.
enum KeyTable {
    /// A single key column of typed `Integer`s (or `Timestamp`s — which
    /// decides whether a `Boolean` probe value can match).
    Int { table: IntTable, timestamp: bool },
    /// Any other key, by `Value` equality.
    Generic(HashMap<Vec<Value>, u32>),
}

/// The build side of a hash join (module docs): columns in build-scan
/// order plus the key table. Immutable once built, so probe workers share
/// it.
pub(crate) struct BuildSide {
    columns: Vec<ColumnSlice>,
    rows: usize,
    keys: KeyTable,
    /// `next[id]`: the next build row with `id`'s key, or [`NO_ROW`].
    next: Vec<u32>,
}

impl BuildSide {
    /// Index `rows` — the concatenated build input ([`Batch::append`]), or
    /// an empty batch, in which case the columns are `arity` empty ones
    /// (`arity` covers `key_cols`) — on `key_cols`.
    pub(crate) fn new(mut rows: Batch, key_cols: &[usize], arity: usize) -> DbResult<BuildSide> {
        if rows.columns.is_empty() {
            rows = Batch::new(vec![ColumnSlice::Plain(Vec::new()); arity]);
        }
        let n = rows.len();
        if n >= NO_ROW as usize {
            return Err(DbError::Execution(format!(
                "hash join build side of {n} rows exceeds the 32-bit row id space"
            )));
        }
        let mut next = vec![NO_ROW; n];
        // Ids are inserted in descending order and pushed on the front of
        // their chain, so every chain reads in ascending (build-scan) order.
        let int_key = match key_cols {
            [c] => match &rows.columns[*c] {
                ColumnSlice::Typed(tv) => match tv.data() {
                    VectorData::Int64(xs) => Some((tv, xs, false)),
                    VectorData::Timestamp(xs) => Some((tv, xs, true)),
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        };
        let keys = if let Some((tv, xs, timestamp)) = int_key {
            let mut table = IntTable::for_rows(n);
            for id in (0..n).rev().filter(|&id| tv.is_valid(id)) {
                next[id] = std::mem::replace(table.head_mut(xs[id]), id as u32);
            }
            KeyTable::Int { table, timestamp }
        } else {
            let mut map: HashMap<Vec<Value>, u32> = HashMap::new();
            let mut key = Vec::with_capacity(key_cols.len());
            for id in (0..n).rev() {
                key.clear();
                key.extend(key_cols.iter().map(|&c| rows.columns[c].value_at(id)));
                if key.iter().any(Value::is_null) {
                    continue; // SQL: NULL keys never match
                }
                match map.get_mut(key.as_slice()) {
                    Some(head) => next[id] = std::mem::replace(head, id as u32),
                    None => {
                        map.insert(key.clone(), id as u32);
                    }
                }
            }
            KeyTable::Generic(map)
        };
        Ok(BuildSide {
            columns: rows.columns,
            rows: n,
            keys,
            next,
        })
    }

    /// Chain head for `key`, [`NO_ROW`] when absent or when any part of
    /// the key is NULL.
    fn lookup(&self, key: &[Value]) -> u32 {
        if key.iter().any(Value::is_null) {
            return NO_ROW;
        }
        match (&self.keys, key) {
            (KeyTable::Generic(map), key) => map.get(key).copied().unwrap_or(NO_ROW),
            (KeyTable::Int { table, .. }, [Value::Integer(x) | Value::Timestamp(x)]) => {
                table.get(*x)
            }
            // `Value` equality across the numeric family: a float matches
            // the integer it is exactly equal to, a boolean matches
            // Integer 0/1 (but no Timestamp).
            (KeyTable::Int { table, .. }, [Value::Float(f)]) => {
                let k = *f as i64;
                if (k as f64).total_cmp(f).is_eq() {
                    table.get(k)
                } else {
                    NO_ROW
                }
            }
            (
                KeyTable::Int {
                    table,
                    timestamp: false,
                },
                [Value::Boolean(b)],
            ) => table.get(i64::from(*b)),
            _ => NO_ROW,
        }
    }

    /// Chain head per *logical* row of `batch`.
    fn heads(&self, batch: &Batch, key_cols: &[usize]) -> Vec<u32> {
        let rows = (0..batch.len()).map(|li| batch.physical_index(li));
        let one = |v: &Value| self.lookup(std::slice::from_ref(v));
        let [c] = key_cols else {
            let mut key = Vec::with_capacity(key_cols.len());
            return rows
                .map(|pi| {
                    key.clear();
                    key.extend(key_cols.iter().map(|&c| batch.columns[c].value_at(pi)));
                    self.lookup(&key)
                })
                .collect();
        };
        match &batch.columns[*c] {
            ColumnSlice::Typed(tv) => match (tv.data(), &self.keys) {
                (
                    VectorData::Int64(xs) | VectorData::Timestamp(xs),
                    KeyTable::Int { table, .. },
                ) => rows
                    .map(|pi| match tv.is_valid(pi) {
                        true => table.get(xs[pi]),
                        false => NO_ROW,
                    })
                    .collect(),
                // One lookup per distinct string of the block.
                (VectorData::Dict { dict, codes }, _) => {
                    let by_code: Vec<u32> = dict
                        .entries()
                        .iter()
                        .map(|s| one(&Value::Varchar(s.clone())))
                        .collect();
                    rows.map(|pi| match tv.is_valid(pi) {
                        true => by_code[codes[pi] as usize],
                        false => NO_ROW,
                    })
                    .collect()
                }
                _ => rows.map(|pi| one(&tv.value_at(pi))).collect(),
            },
            // One lookup per run; rows ascend, so the run pointer only
            // moves forward.
            ColumnSlice::Rle(rv) => {
                let by_run: Vec<u32> = rv.runs().iter().map(|(v, _)| one(v)).collect();
                let mut ri = 0usize;
                rows.map(|pi| {
                    while rv.run_start(ri + 1) <= pi {
                        ri += 1;
                    }
                    by_run[ri]
                })
                .collect()
            }
            ColumnSlice::Plain(values) => rows.map(|pi| one(&values[pi])).collect(),
        }
    }

    /// Join one probe batch. SEMI/ANTI refine its selection (zero-copy);
    /// the other flavors emit probe ⊕ build columns taken at the matching
    /// `(probe row, build row id)` pairs, setting `matched` (RIGHT/FULL
    /// OUTER) for every build row that found a partner. `None` when no
    /// row comes out.
    pub(crate) fn probe(
        &self,
        batch: Batch,
        key_cols: &[usize],
        join_type: JoinType,
        mut matched: Option<&mut Bitmap>,
    ) -> Option<Batch> {
        let heads = self.heads(&batch, key_cols);
        if !join_type.emits_right_columns() {
            let semi = join_type == JoinType::Semi;
            let mask: Vec<bool> = heads.iter().map(|&h| (h != NO_ROW) == semi).collect();
            return mask.contains(&true).then(|| batch.into_filtered(&mask));
        }
        let mut probe_idx: Vec<u32> = Vec::with_capacity(heads.len());
        let mut build_idx: Vec<u32> = Vec::with_capacity(heads.len());
        for (li, &head) in heads.iter().enumerate() {
            let pi = batch.physical_index(li) as u32;
            if head == NO_ROW && join_type.keeps_unmatched_probe() {
                probe_idx.push(pi);
                build_idx.push(NO_ROW);
            }
            let mut id = head;
            while id != NO_ROW {
                probe_idx.push(pi);
                build_idx.push(id);
                if let Some(m) = matched.as_deref_mut() {
                    m.set(id as usize, true);
                }
                id = self.next[id as usize];
            }
        }
        if probe_idx.is_empty() {
            return None;
        }
        let probe_cols = batch.columns.iter().map(|c| c.take_sorted(&probe_idx));
        let build_cols = self.columns.iter().map(|c| c.take(&build_idx));
        Some(Batch::new(probe_cols.chain(build_cols).collect()))
    }

    /// RIGHT/FULL OUTER tail: the build rows `ids` behind `left_arity`
    /// all-NULL probe columns.
    fn unmatched_batch(&self, ids: &[u32], left_arity: usize) -> Batch {
        let nulls = ColumnSlice::Plain(vec![Value::Null; ids.len()]);
        let build_cols = self.columns.iter().map(|c| c.take(ids));
        Batch::new(
            std::iter::repeat_n(nulls, left_arity)
                .chain(build_cols)
                .collect(),
        )
    }

    /// Publish the distinct keys' [`SipFilter::key_hash`]es.
    pub(crate) fn publish_sip(&self, sip: &SipFilter) {
        match &self.keys {
            KeyTable::Int { table, .. } => sip.publish_iter(
                table
                    .keys()
                    .map(|k| SipFilter::key_hash_of_one(Value::hash64_of_i64(k))),
            ),
            KeyTable::Generic(map) => sip.publish_iter(
                map.keys()
                    .map(|k| SipFilter::key_hash(&k.iter().collect::<Vec<_>>())),
            ),
        }
    }
}

/// Hash join: builds on the right, probes with the left (module docs).
pub struct HashJoinOp {
    left: Option<BoxedOperator>,
    right: Option<BoxedOperator>,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    join_type: JoinType,
    budget: MemoryBudget,
    sip: Option<Arc<SipFilter>>,
    /// Input arities — what an outer join pads a side with. They start at
    /// the narrowest input that holds the side's key columns and only
    /// widen: to what [`HashJoinOp::with_arities`] declares (the plan
    /// always does) and, for an operator built without a plan, to the
    /// batches it sees.
    left_arity: usize,
    right_arity: usize,
    build: Option<BuildSide>,
    /// RIGHT/FULL OUTER: which build rows have found a partner.
    matched: Option<Bitmap>,
    /// RIGHT/FULL OUTER: unmatched build row ids still to emit.
    unmatched: Vec<u32>,
    state: JoinState,
    /// Filled when the build overflowed and we switched algorithms.
    fallback: Option<BoxedOperator>,
    switched_to_merge: bool,
}

enum JoinState {
    Building,
    Probing,
    /// Emitting `unmatched` from this position on.
    EmittingUnmatchedBuild(usize),
    Done,
}

impl HashJoinOp {
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        budget: MemoryBudget,
        sip: Option<Arc<SipFilter>>,
    ) -> HashJoinOp {
        assert_eq!(left_keys.len(), right_keys.len());
        let holding = |keys: &[usize]| keys.iter().max().map_or(0, |c| c + 1);
        HashJoinOp {
            left_arity: holding(&left_keys),
            right_arity: holding(&right_keys),
            left: Some(left),
            right: Some(right),
            left_keys,
            right_keys,
            join_type,
            budget,
            sip,
            build: None,
            matched: None,
            unmatched: Vec::new(),
            state: JoinState::Building,
            fallback: None,
            switched_to_merge: false,
        }
    }

    /// Declare how many columns the left and right inputs produce. An
    /// outer join pads a side that emitted no batch at all with that many
    /// NULLs, so whoever knows the arities (the plan does) states them:
    /// data cannot — an empty side has none.
    pub fn with_arities(mut self, left: usize, right: usize) -> HashJoinOp {
        self.left_arity = self.left_arity.max(left);
        self.right_arity = self.right_arity.max(right);
        self
    }

    /// Did the runtime switch to sort-merge (§6.1 algorithm switching)?
    pub fn switched_to_merge(&self) -> bool {
        self.switched_to_merge
    }

    fn build(&mut self) -> DbResult<()> {
        let mut right = self.right.take().expect("build called once");
        let mut rows = Batch::default();
        let mut bytes = 0usize;
        while let Some(batch) = right.next_batch()? {
            let batch = batch.compact();
            self.right_arity = self.right_arity.max(batch.arity());
            bytes += build_bytes(&batch);
            rows.append(batch);
            if self.budget.exceeded_by(bytes) {
                self.switched_to_merge = true;
                self.build_fallback(rows, right);
                return Ok(());
            }
        }
        let build = BuildSide::new(rows, &self.right_keys, self.right_arity)?;
        // Publish SIP keys now that the build side is complete.
        if let Some(sip) = &self.sip {
            build.publish_sip(sip);
        }
        if self.join_type.keeps_unmatched_build() {
            self.matched = Some(Bitmap::new_filled(build.rows, false));
        }
        self.build = Some(build);
        self.state = JoinState::Probing;
        Ok(())
    }

    /// Sort-merge fallback: external-sort both sides by key columns, then
    /// run the generic sorted-merge with identical semantics. The build
    /// rows read so far are *moved* into the fallback's right input, ahead
    /// of what the right operator has yet to produce — the build side
    /// already blew its memory budget, so it is neither copied nor read
    /// to its end here.
    fn build_fallback(&mut self, consumed: Batch, rest: BoxedOperator) {
        let left = self.left.take().expect("fallback before probe");
        let right: BoxedOperator = Box::new(UnionOp::new(vec![
            Box::new(ValuesOp::new(vec![consumed])),
            rest,
        ]));
        let sorted = |input: BoxedOperator, keys: &[usize]| -> BoxedOperator {
            Box::new(SortOp::new(
                input,
                keys.iter().map(|&c| SortKey::asc(c)).collect(),
                self.budget,
            ))
        };
        let merge = MergeJoinOp::new(
            sorted(left, &self.left_keys),
            sorted(right, &self.right_keys),
            self.left_keys.clone(),
            self.right_keys.clone(),
            self.join_type,
        )
        .with_arities(self.left_arity, self.right_arity);
        self.fallback = Some(Box::new(merge));
        self.state = JoinState::Probing;
    }
}

impl Operator for HashJoinOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if matches!(self.state, JoinState::Building) {
            self.build()?;
        }
        if let Some(fb) = &mut self.fallback {
            return fb.next_batch();
        }
        let build = self.build.as_ref().expect("built unless fallen back");
        loop {
            match self.state {
                JoinState::Probing => {
                    let left = self.left.as_mut().expect("probe side");
                    if let Some(batch) = left.next_batch()? {
                        self.left_arity = self.left_arity.max(batch.arity());
                        let out = build.probe(
                            batch,
                            &self.left_keys,
                            self.join_type,
                            self.matched.as_mut(),
                        );
                        if out.is_some() {
                            return Ok(out);
                        }
                    } else if let Some(matched) = self.matched.take() {
                        // Right/full outer: emit unmatched build rows.
                        self.unmatched = (0..build.rows as u32)
                            .filter(|&id| !matched.get(id as usize))
                            .collect();
                        self.state = JoinState::EmittingUnmatchedBuild(0);
                    } else {
                        self.state = JoinState::Done;
                    }
                }
                JoinState::EmittingUnmatchedBuild(from) => {
                    let ids = &self.unmatched[from..self.unmatched.len().min(from + BATCH_SIZE)];
                    if ids.is_empty() {
                        self.state = JoinState::Done;
                    } else {
                        self.state = JoinState::EmittingUnmatchedBuild(from + ids.len());
                        return Ok(Some(build.unmatched_batch(ids, self.left_arity)));
                    }
                }
                JoinState::Done => return Ok(None),
                JoinState::Building => unreachable!("build ran above"),
            }
        }
    }

    fn name(&self) -> String {
        format!(
            "HashJoin({}{})",
            self.join_type.name(),
            if self.sip.is_some() { ", SIP" } else { "" }
        )
    }
}

/// Merge join over inputs sorted ascending on their join keys. Handles all
/// flavors; duplicate keys produce the full cross product per key group.
pub struct MergeJoinOp {
    left: BoxedOperator,
    right: BoxedOperator,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    join_type: JoinType,
    left_buf: Vec<Row>,
    right_buf: Vec<Row>,
    left_done: bool,
    right_done: bool,
    left_pos: usize,
    right_pos: usize,
    left_arity: usize,
    right_arity: usize,
    pending: Vec<Row>,
    done: bool,
}

impl MergeJoinOp {
    pub fn new(
        left: BoxedOperator,
        right: BoxedOperator,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
    ) -> MergeJoinOp {
        MergeJoinOp {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            left_buf: Vec::new(),
            right_buf: Vec::new(),
            left_done: false,
            right_done: false,
            left_pos: 0,
            right_pos: 0,
            left_arity: 0,
            right_arity: 0,
            pending: Vec::new(),
            done: false,
        }
    }

    /// Declare the input arities (see [`HashJoinOp::with_arities`]): an
    /// outer join pads a side that never emitted a batch with them.
    pub fn with_arities(mut self, left: usize, right: usize) -> MergeJoinOp {
        self.left_arity = left;
        self.right_arity = right;
        self
    }

    fn fill_left(&mut self) -> DbResult<bool> {
        while self.left_pos >= self.left_buf.len() && !self.left_done {
            match self.left.next_batch()? {
                Some(b) => {
                    self.left_arity = b.arity();
                    self.left_buf = b.rows();
                    self.left_pos = 0;
                }
                None => self.left_done = true,
            }
        }
        Ok(self.left_pos < self.left_buf.len())
    }

    fn fill_right(&mut self) -> DbResult<bool> {
        while self.right_pos >= self.right_buf.len() && !self.right_done {
            match self.right.next_batch()? {
                Some(b) => {
                    self.right_arity = b.arity();
                    self.right_buf = b.rows();
                    self.right_pos = 0;
                }
                None => self.right_done = true,
            }
        }
        Ok(self.right_pos < self.right_buf.len())
    }

    /// Collect the group of consecutive rows with the current key.
    fn take_left_group(&mut self) -> DbResult<Vec<Row>> {
        let key: Vec<Value> = self
            .left_keys
            .iter()
            .map(|&c| self.left_buf[self.left_pos][c].clone())
            .collect();
        let mut group = Vec::new();
        loop {
            if !self.fill_left()? {
                break;
            }
            let row = &self.left_buf[self.left_pos];
            let rkey: Vec<Value> = self.left_keys.iter().map(|&c| row[c].clone()).collect();
            if rkey != key {
                break;
            }
            group.push(row.clone());
            self.left_pos += 1;
        }
        Ok(group)
    }

    fn take_right_group(&mut self) -> DbResult<Vec<Row>> {
        let key: Vec<Value> = self
            .right_keys
            .iter()
            .map(|&c| self.right_buf[self.right_pos][c].clone())
            .collect();
        let mut group = Vec::new();
        loop {
            if !self.fill_right()? {
                break;
            }
            let row = &self.right_buf[self.right_pos];
            let rkey: Vec<Value> = self.right_keys.iter().map(|&c| row[c].clone()).collect();
            if rkey != key {
                break;
            }
            group.push(row.clone());
            self.right_pos += 1;
        }
        Ok(group)
    }

    fn emit_left_unmatched(&mut self, rows: Vec<Row>) {
        match self.join_type {
            JoinType::LeftOuter | JoinType::FullOuter => {
                for mut r in rows {
                    r.extend(vec![Value::Null; self.right_arity]);
                    self.pending.push(r);
                }
            }
            JoinType::Anti => self.pending.extend(rows),
            _ => {}
        }
    }

    fn emit_right_unmatched(&mut self, rows: Vec<Row>) {
        if matches!(self.join_type, JoinType::RightOuter | JoinType::FullOuter) {
            for r in rows {
                let mut out = vec![Value::Null; self.left_arity];
                out.extend(r);
                self.pending.push(out);
            }
        }
    }

    fn emit_matched(&mut self, left: Vec<Row>, right: Vec<Row>) {
        match self.join_type {
            JoinType::Semi => self.pending.extend(left),
            JoinType::Anti => {}
            _ => {
                for l in &left {
                    for r in &right {
                        let mut out = l.clone();
                        out.extend(r.iter().cloned());
                        self.pending.push(out);
                    }
                }
            }
        }
    }

    fn advance(&mut self) -> DbResult<()> {
        loop {
            if !self.pending.is_empty() {
                return Ok(());
            }
            let has_left = self.fill_left()?;
            let has_right = self.fill_right()?;
            match (has_left, has_right) {
                (false, false) => {
                    self.done = true;
                    return Ok(());
                }
                (true, false) => {
                    let group = self.take_left_group()?;
                    self.emit_left_unmatched(group);
                    if self.pending.is_empty() {
                        continue;
                    }
                    return Ok(());
                }
                (false, true) => {
                    let group = self.take_right_group()?;
                    self.emit_right_unmatched(group);
                    if self.pending.is_empty() {
                        continue;
                    }
                    return Ok(());
                }
                (true, true) => {
                    let lkey: Vec<&Value> = self
                        .left_keys
                        .iter()
                        .map(|&c| &self.left_buf[self.left_pos][c])
                        .collect();
                    let rkey: Vec<&Value> = self
                        .right_keys
                        .iter()
                        .map(|&c| &self.right_buf[self.right_pos][c])
                        .collect();
                    let lnull = lkey.iter().any(|v| v.is_null());
                    let rnull = rkey.iter().any(|v| v.is_null());
                    let ord = lkey.cmp(&rkey);
                    // NULL keys sort first and never match.
                    if lnull || ord == std::cmp::Ordering::Less {
                        let group = self.take_left_group()?;
                        self.emit_left_unmatched(group);
                    } else if rnull || ord == std::cmp::Ordering::Greater {
                        let group = self.take_right_group()?;
                        self.emit_right_unmatched(group);
                    } else {
                        let l = self.take_left_group()?;
                        let r = self.take_right_group()?;
                        self.emit_matched(l, r);
                    }
                    if self.pending.is_empty() {
                        continue;
                    }
                    return Ok(());
                }
            }
        }
    }
}

impl Operator for MergeJoinOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        loop {
            if !self.pending.is_empty() {
                let take = self.pending.len().min(BATCH_SIZE * 4);
                let rows: Vec<Row> = self.pending.drain(..take).collect();
                return Ok(Some(Batch::from_rows(rows)));
            }
            if self.done {
                return Ok(None);
            }
            self.advance()?;
        }
    }

    fn name(&self) -> String {
        format!("MergeJoin({})", self.join_type.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_rows;
    use crate::vector::TypedVector;

    fn left_rows() -> Vec<Row> {
        vec![
            vec![Value::Integer(1), Value::Varchar("l1".into())],
            vec![Value::Integer(2), Value::Varchar("l2".into())],
            vec![Value::Integer(2), Value::Varchar("l2b".into())],
            vec![Value::Integer(4), Value::Varchar("l4".into())],
            vec![Value::Null, Value::Varchar("lnull".into())],
        ]
    }

    fn right_rows() -> Vec<Row> {
        vec![
            vec![Value::Integer(2), Value::Varchar("r2".into())],
            vec![Value::Integer(3), Value::Varchar("r3".into())],
            vec![Value::Integer(4), Value::Varchar("r4".into())],
            vec![Value::Integer(4), Value::Varchar("r4b".into())],
            vec![Value::Null, Value::Varchar("rnull".into())],
        ]
    }

    fn hash_join(jt: JoinType) -> Vec<Row> {
        let mut op = HashJoinOp::new(
            Box::new(ValuesOp::from_rows(left_rows())),
            Box::new(ValuesOp::from_rows(right_rows())),
            vec![0],
            vec![0],
            jt,
            MemoryBudget::unlimited(),
            None,
        );
        let mut rows = collect_rows(&mut op).unwrap();
        rows.sort();
        rows
    }

    fn merge_join(jt: JoinType) -> Vec<Row> {
        let mut l = left_rows();
        let mut r = right_rows();
        l.sort();
        r.sort();
        let mut op = MergeJoinOp::new(
            Box::new(ValuesOp::from_rows(l)),
            Box::new(ValuesOp::from_rows(r)),
            vec![0],
            vec![0],
            jt,
        );
        let mut rows = collect_rows(&mut op).unwrap();
        rows.sort();
        rows
    }

    #[test]
    fn dict_coded_probe_matches_plain_probe() {
        // Dictionary-coded probe keys (with NULLs and a selection) must
        // join identically to the same keys as plain values, across every
        // flavor the probe loop serves.
        use crate::vector::SelectionVector;
        let n = 2000usize;
        let keys: Vec<Value> = (0..n)
            .map(|i| {
                if i % 13 == 0 {
                    Value::Null
                } else {
                    Value::Varchar(format!("k{}", i % 11))
                }
            })
            .collect();
        let payload: Vec<Value> = (0..n).map(|i| Value::Integer(i as i64)).collect();
        let sel = SelectionVector::new((0..n as u32).filter(|i| i % 2 == 0).collect());
        let build_rows: Vec<Row> = (0..5)
            .map(|i| vec![Value::Varchar(format!("k{i}")), Value::Integer(i)])
            .collect();
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let dict_batch = Batch::new(vec![
                ColumnSlice::Typed(TypedVector::from_values(&keys).unwrap()),
                ColumnSlice::Typed(TypedVector::from_values(&payload).unwrap()),
            ])
            .with_selection(sel.clone());
            assert!(matches!(
                &dict_batch.columns[0],
                ColumnSlice::Typed(tv) if matches!(tv.data(), VectorData::Dict { .. })
            ));
            let plain_batch = Batch::new(vec![
                ColumnSlice::Plain(keys.clone()),
                ColumnSlice::Plain(payload.clone()),
            ])
            .with_selection(sel.clone());
            let mut fast = HashJoinOp::new(
                Box::new(ValuesOp::new(vec![dict_batch])),
                Box::new(ValuesOp::from_rows(build_rows.clone())),
                vec![0],
                vec![0],
                jt,
                MemoryBudget::unlimited(),
                None,
            );
            let mut reference = HashJoinOp::new(
                Box::new(ValuesOp::new(vec![plain_batch])),
                Box::new(ValuesOp::from_rows(build_rows.clone())),
                vec![0],
                vec![0],
                jt,
                MemoryBudget::unlimited(),
                None,
            );
            let mut f = collect_rows(&mut fast).unwrap();
            let mut r = collect_rows(&mut reference).unwrap();
            f.sort();
            r.sort();
            assert_eq!(f, r, "join type {jt:?}");
        }
    }

    /// Typed `(k, payload)` batches: integer keys, a float and a string
    /// payload on the left; integer keys and a string payload on the right.
    fn typed_sides() -> (Batch, Batch) {
        let typed =
            |values: Vec<Value>| ColumnSlice::Typed(TypedVector::from_values(&values).unwrap());
        let left = Batch::new(vec![
            typed((0..6).map(|i| Value::Integer(i % 4)).collect()),
            typed((0..6).map(|i| Value::Float(i as f64)).collect()),
            typed((0..6).map(|i| Value::Varchar(format!("l{i}"))).collect()),
        ]);
        let right = Batch::new(vec![
            typed(vec![
                Value::Integer(1),
                Value::Integer(2),
                Value::Integer(1),
            ]),
            typed(
                ["r1", "r2", "r1b"]
                    .map(|s| Value::Varchar(s.into()))
                    .to_vec(),
            ),
        ]);
        (left, right)
    }

    fn join_batches(jt: JoinType) -> Vec<Batch> {
        let (left, right) = typed_sides();
        let mut op = HashJoinOp::new(
            Box::new(ValuesOp::new(vec![left])),
            Box::new(ValuesOp::new(vec![right])),
            vec![0],
            vec![0],
            jt,
            MemoryBudget::unlimited(),
            None,
        );
        std::iter::from_fn(|| op.next_batch().unwrap()).collect()
    }

    #[test]
    fn inner_join_over_typed_inputs_emits_typed_columns_without_a_pivot() {
        let before = crate::batch::row_pivot_count();
        let out = join_batches(JoinType::Inner);
        assert_eq!(
            crate::batch::row_pivot_count(),
            before,
            "join must not pivot"
        );
        assert_eq!(out.len(), 1);
        assert!(
            out[0].columns.iter().all(ColumnSlice::is_typed),
            "every output column stays typed: {:?}",
            out[0].columns
        );
        // Probe order; a probe row's matches in build order (r1 before r1b).
        let payload = |r: &Row| (r[2].clone(), r[4].clone());
        let rows = out[0].rows();
        let got: Vec<_> = rows.iter().map(payload).collect();
        let s = |x: &str| Value::Varchar(x.into());
        assert_eq!(
            got,
            vec![
                (s("l1"), s("r1")),
                (s("l1"), s("r1b")),
                (s("l2"), s("r2")),
                (s("l5"), s("r1")),
                (s("l5"), s("r1b")),
            ]
        );
    }

    #[test]
    fn left_outer_padding_is_a_validity_bit_not_a_plain_column() {
        let out = join_batches(JoinType::LeftOuter);
        let [batch] = out.as_slice() else {
            panic!("one probe batch in, one batch out");
        };
        assert_eq!(batch.len(), 8, "5 matches + l0, l3, l4 unmatched");
        for col in &batch.columns[3..] {
            let ColumnSlice::Typed(tv) = col else {
                panic!("build column must stay typed under NULL padding: {col:?}");
            };
            assert_eq!(tv.null_count(), 3);
            assert!(!tv.is_valid(0), "l0 has no partner");
        }
        assert_eq!(batch.row_at(0)[3..], [Value::Null, Value::Null]);
    }

    /// An operator built without `with_arities` (tests, benches) meeting a
    /// side that emits no batch: nothing is known about that side but its
    /// key columns, so it is padded just wide enough to hold them — never
    /// a panic, whatever the flavor.
    #[test]
    fn an_empty_side_without_declared_arities_is_as_wide_as_its_keys() {
        let join = |left: Vec<Row>, right: Vec<Row>, jt| {
            let mut op = HashJoinOp::new(
                Box::new(ValuesOp::from_rows(left)),
                Box::new(ValuesOp::from_rows(right)),
                vec![0],
                vec![0],
                jt,
                MemoryBudget::unlimited(),
                None,
            );
            collect_rows(&mut op).unwrap()
        };
        let padded = |rows: Vec<Row>, pad_left: usize, pad_right: usize| -> Vec<Row> {
            let pad = |n| std::iter::repeat_n(Value::Null, n);
            rows.into_iter()
                .map(|r| pad(pad_left).chain(r).chain(pad(pad_right)).collect())
                .collect()
        };
        // Empty build side.
        for jt in [JoinType::Inner, JoinType::Semi, JoinType::RightOuter] {
            assert_eq!(join(left_rows(), vec![], jt), Vec::<Row>::new(), "{jt:?}");
        }
        assert_eq!(join(left_rows(), vec![], JoinType::Anti), left_rows());
        for jt in [JoinType::LeftOuter, JoinType::FullOuter] {
            let expected = padded(left_rows(), 0, 1);
            assert_eq!(join(left_rows(), vec![], jt), expected, "{jt:?}");
        }
        // Empty probe side.
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            assert_eq!(join(vec![], right_rows(), jt), Vec::<Row>::new(), "{jt:?}");
        }
        for jt in [JoinType::RightOuter, JoinType::FullOuter] {
            let expected = padded(right_rows(), 1, 0);
            assert_eq!(join(vec![], right_rows(), jt), expected, "{jt:?}");
        }
        // Declared arities win over the key columns' minimum.
        let mut op = HashJoinOp::new(
            Box::new(ValuesOp::from_rows(left_rows())),
            Box::new(ValuesOp::from_rows(vec![])),
            vec![0],
            vec![0],
            JoinType::LeftOuter,
            MemoryBudget::unlimited(),
            None,
        )
        .with_arities(2, 3);
        assert_eq!(collect_rows(&mut op).unwrap(), padded(left_rows(), 0, 3));
    }

    #[test]
    fn inner_join_counts() {
        let rows = hash_join(JoinType::Inner);
        // keys 2 (2 left × 1 right) + 4 (1 × 2) = 4 rows; NULLs never match.
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.len() == 4));
    }

    #[test]
    fn left_outer_keeps_unmatched_left() {
        let rows = hash_join(JoinType::LeftOuter);
        // 4 inner + l1 + lnull with null right sides.
        assert_eq!(rows.len(), 6);
        assert!(rows
            .iter()
            .any(|r| r[1] == Value::Varchar("l1".into()) && r[2].is_null()));
    }

    #[test]
    fn right_outer_keeps_unmatched_right() {
        let rows = hash_join(JoinType::RightOuter);
        // 4 inner + r3 + rnull.
        assert_eq!(rows.len(), 6);
        assert!(rows
            .iter()
            .any(|r| r[0].is_null() && r[3] == Value::Varchar("r3".into())));
    }

    #[test]
    fn full_outer_keeps_both() {
        let rows = hash_join(JoinType::FullOuter);
        // 4 inner + 2 left-unmatched + 2 right-unmatched.
        assert_eq!(rows.len(), 8);
    }

    #[test]
    fn semi_and_anti() {
        let semi = hash_join(JoinType::Semi);
        assert_eq!(semi.len(), 3, "l2, l2b, l4");
        assert!(semi.iter().all(|r| r.len() == 2), "left columns only");
        let anti = hash_join(JoinType::Anti);
        assert_eq!(anti.len(), 2, "l1 and lnull");
    }

    #[test]
    fn merge_join_matches_hash_join_all_flavors() {
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::RightOuter,
            JoinType::FullOuter,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            assert_eq!(hash_join(jt), merge_join(jt), "flavor {}", jt.name());
        }
    }

    #[test]
    fn sip_published_after_build() {
        let sip = SipFilter::new();
        let mut op = HashJoinOp::new(
            Box::new(ValuesOp::from_rows(left_rows())),
            Box::new(ValuesOp::from_rows(right_rows())),
            vec![0],
            vec![0],
            JoinType::Inner,
            MemoryBudget::unlimited(),
            Some(sip.clone()),
        );
        assert!(!sip.is_ready());
        let _ = collect_rows(&mut op).unwrap();
        assert!(sip.is_ready());
        assert!(sip.might_contain(&[&Value::Integer(2)]));
        assert!(!sip.might_contain(&[&Value::Integer(99)]));
    }

    #[test]
    fn memory_overflow_switches_to_sort_merge() {
        let big_right: Vec<Row> = (0..10_000)
            .map(|i| vec![Value::Integer(i % 100), Value::Integer(i)])
            .collect();
        let left: Vec<Row> = (0..100).map(|i| vec![Value::Integer(i)]).collect();
        let mut op = HashJoinOp::new(
            Box::new(ValuesOp::from_rows(left)),
            Box::new(ValuesOp::from_rows(big_right)),
            vec![0],
            vec![0],
            JoinType::Inner,
            MemoryBudget::new(8 * 1024),
            None,
        );
        let rows = collect_rows(&mut op).unwrap();
        assert!(op.switched_to_merge(), "tiny budget must trigger fallback");
        assert_eq!(rows.len(), 10_000, "every right row matches one left key");
    }

    /// Regression test for the sort-merge fallback over *unsorted* inputs:
    /// the overflowed build rows are moved (not cloned) into the fallback's
    /// `ValuesOp`, and the external sort + merge must still produce the
    /// same multiset of rows as the in-memory hash join, for inner and
    /// outer flavors, with NULL keys in play.
    #[test]
    fn sort_merge_fallback_matches_hash_join_on_unsorted_inputs() {
        // Deliberately unsorted, with duplicate and NULL keys.
        let mk_left: Vec<Row> = (0..600)
            .map(|i: i64| {
                let k = (i * 7919) % 37;
                vec![
                    if k == 5 {
                        Value::Null
                    } else {
                        Value::Integer(k)
                    },
                    Value::Integer(i),
                ]
            })
            .collect();
        let mk_right: Vec<Row> = (0..900)
            .map(|i: i64| {
                let k = (i * 104_729) % 41;
                vec![
                    if k == 7 {
                        Value::Null
                    } else {
                        Value::Integer(k)
                    },
                    Value::Integer(-i),
                ]
            })
            .collect();
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::RightOuter,
            JoinType::FullOuter,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let run = |budget: MemoryBudget| {
                let mut op = HashJoinOp::new(
                    Box::new(ValuesOp::from_rows(mk_left.clone())),
                    Box::new(ValuesOp::from_rows(mk_right.clone())),
                    vec![0],
                    vec![0],
                    jt,
                    budget,
                    None,
                );
                let mut rows = collect_rows(&mut op).unwrap();
                let switched = op.switched_to_merge();
                rows.sort();
                (rows, switched)
            };
            let (expected, s1) = run(MemoryBudget::unlimited());
            let (got, s2) = run(MemoryBudget::new(2 * 1024));
            assert!(!s1, "unlimited budget must not fall back");
            assert!(s2, "tiny budget must fall back to sort-merge");
            assert_eq!(got, expected, "flavor {}", jt.name());
        }
    }

    #[test]
    fn multi_column_keys() {
        let l = vec![
            vec![
                Value::Integer(1),
                Value::Integer(10),
                Value::Varchar("a".into()),
            ],
            vec![
                Value::Integer(1),
                Value::Integer(20),
                Value::Varchar("b".into()),
            ],
        ];
        let r = vec![vec![
            Value::Integer(1),
            Value::Integer(10),
            Value::Varchar("x".into()),
        ]];
        let mut op = HashJoinOp::new(
            Box::new(ValuesOp::from_rows(l)),
            Box::new(ValuesOp::from_rows(r)),
            vec![0, 1],
            vec![0, 1],
            JoinType::Inner,
            MemoryBudget::unlimited(),
            None,
        );
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Value::Varchar("a".into()));
    }
}
