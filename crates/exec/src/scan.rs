//! The Scan operator (§6.1 #1).
//!
//! "Reads data from a particular projection's ROS containers, and applies
//! predicates in the most advantageous manner possible." Advantageous here
//! means, in order:
//!
//! 1. **Partition pruning** — skip containers whose `PARTITION BY` key
//!    cannot satisfy the predicate (§3.5).
//! 2. **Container pruning** — skip containers whose column min/max (from
//!    the position index) cannot pass, the small-materialized-aggregates
//!    technique the paper cites as \[22\].
//! 3. **Block pruning** — the same test per 1024-row block.
//! 4. **Comparison conjuncts** — `column ⟨cmp⟩ literal` and `BETWEEN`
//!    conjuncts are split off the predicate once and applied, with their
//!    exact operator, to each such column as it is decoded — before the
//!    other columns are, so rows they rule out are never decoded there.
//!    Each conjunct is evaluated once: pruning (2–3) keeps its own
//!    inclusive, conservative bounds, and what step 6 evaluates no longer
//!    contains these conjuncts.
//! 5. **SIP filters** — membership tests against a join's hash table (§6.1).
//! 6. Residual predicate evaluation, vectorized per batch.
//!
//! Steps 1–3 run over the in-memory position indexes **before any I/O**
//! (`ScanOperator::cut`): what survives is cut into (container, block
//! range) morsels, and a morsel fetches only its blocks' bytes — one ranged
//! read per column per run of neighbouring survivors. A serial scan works
//! through its morsels in order; parallel operators hand the same morsels
//! to workers. There is one scan implementation either way.
//!
//! Blocks whose columns survive untouched keep RLE runs unexpanded, feeding
//! the encoded-execution path of pipelined GroupBy.

use crate::batch::{Batch, ColumnSlice};
use crate::filter::ColumnCmp;
use crate::operator::Operator;
use crate::sip::SipFilter;
use crate::vector::{SelectionVector, VectorData};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;
use vdb_storage::store::{ScanContainer, ScanMorsel, SnapshotScan, Visibility, VisibleSet};
use vdb_storage::{ColumnChunk, StorageBackend};
use vdb_types::{BinOp, DbResult, Expr, Row, Value};

/// A SIP filter bound to this scan: which output columns form the join key.
#[derive(Clone)]
pub struct SipBinding {
    pub filter: Arc<SipFilter>,
    /// Indexes into the scan's *output* columns.
    pub key_columns: Vec<usize>,
}

/// Counters exposed for EXPLAIN ANALYZE-style reporting and the pruning /
/// SIP benchmarks.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ScanStats {
    pub containers_total: usize,
    pub containers_pruned_partition: usize,
    pub containers_pruned_minmax: usize,
    pub blocks_total: usize,
    pub blocks_pruned: usize,
    pub rows_scanned: u64,
    pub rows_after_predicate: u64,
    pub rows_sip_filtered: u64,
    /// Row-decodes skipped by selection-pushdown decode, summed across
    /// columns: visibility masks and sorted-column bounds restrict what
    /// gets *decoded*, not just which blocks are read.
    pub rows_decode_skipped: u64,
}

/// Inclusive bounds extracted from predicate conjuncts, used for SMA
/// pruning: `low ≤ column ≤ high`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnBounds {
    pub column: usize,
    pub low: Option<Value>,
    pub high: Option<Value>,
}

/// Extract per-column bounds from the conjuncts of `pred` (column indexes
/// are in the predicate's own frame).
pub fn extract_bounds(pred: &Expr) -> Vec<ColumnBounds> {
    let mut out: Vec<ColumnBounds> = Vec::new();
    let mut add = |col: usize, low: Option<Value>, high: Option<Value>| match out
        .iter_mut()
        .find(|b| b.column == col)
    {
        Some(b) => {
            if let Some(l) = low {
                b.low = Some(match b.low.take() {
                    Some(prev) => prev.max(l),
                    None => l,
                });
            }
            if let Some(h) = high {
                b.high = Some(match b.high.take() {
                    Some(prev) => prev.min(h),
                    None => h,
                });
            }
        }
        None => out.push(ColumnBounds {
            column: col,
            low,
            high,
        }),
    };
    for conj in pred.clone().split_conjuncts() {
        match &conj {
            Expr::Binary { op, left, right } if op.is_comparison() => {
                let (col, lit, op) = match (left.as_ref(), right.as_ref()) {
                    (Expr::Column { index, .. }, Expr::Literal(v)) => (*index, v.clone(), *op),
                    (Expr::Literal(v), Expr::Column { index, .. }) => {
                        // Flip: lit op col ≡ col flipped-op lit.
                        let flipped = match *op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            other => other,
                        };
                        (*index, v.clone(), flipped)
                    }
                    _ => continue,
                };
                if lit.is_null() {
                    continue;
                }
                match op {
                    BinOp::Eq => add(col, Some(lit.clone()), Some(lit)),
                    BinOp::Lt | BinOp::Le => add(col, None, Some(lit)),
                    BinOp::Gt | BinOp::Ge => add(col, Some(lit), None),
                    _ => {}
                }
            }
            Expr::Between { input, low, high } => {
                if let (Expr::Column { index, .. }, Expr::Literal(lo), Expr::Literal(hi)) =
                    (input.as_ref(), low.as_ref(), high.as_ref())
                {
                    if !lo.is_null() && !hi.is_null() {
                        add(*index, Some(lo.clone()), Some(hi.clone()));
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Refine a selection over `rows` physical rows (`None` = all of them) by
/// one comparison conjunct over its decoded column. A test that keeps every
/// row leaves `None`, so downstream takes the dense path.
fn refine(
    col: &ColumnSlice,
    cmp: &ColumnCmp,
    sel: Option<Vec<u32>>,
    rows: usize,
) -> Option<Vec<u32>> {
    let cands = sel.unwrap_or_else(|| (0..rows as u32).collect());
    let kept = crate::filter::filter_cmp(col, cmp.op, &cmp.lit, cands);
    (kept.len() < rows).then_some(kept)
}

/// A `col IS [NOT] NULL` conjunct, used for null-count pruning: the block
/// metadata's null count tells whether any row can satisfy the test
/// without decoding the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NullTest {
    pub column: usize,
    pub negated: bool,
}

/// Extract `col IS [NOT] NULL` conjuncts from `pred` (column indexes are
/// in the predicate's own frame).
pub fn extract_null_tests(pred: &Expr) -> Vec<NullTest> {
    let mut out = Vec::new();
    for conj in pred.clone().split_conjuncts() {
        if let Expr::IsNull { input, negated } = &conj {
            if let Expr::Column { index, .. } = input.as_ref() {
                out.push(NullTest {
                    column: *index,
                    negated: *negated,
                });
            }
        }
    }
    out
}

/// The Scan operator over one projection's snapshot on one node.
pub struct ScanOperator {
    /// Projection column indexes this scan outputs, in output order.
    output_columns: Vec<usize>,
    /// The whole predicate over the *output* columns: what pruning derives
    /// its bounds and null tests from.
    predicate: Option<Expr>,
    /// Its `column ⟨cmp⟩ literal` conjuncts, applied exactly while the
    /// block's columns are decoded...
    cmps: Vec<ColumnCmp>,
    /// ... and the conjunction of its other conjuncts, evaluated per batch.
    residual: Option<Expr>,
    /// Inclusive bounds for container and block pruning, with `column` =
    /// output column index.
    bounds: Vec<ColumnBounds>,
    /// `IS [NOT] NULL` conjuncts for null-count pruning, same frame.
    null_tests: Vec<NullTest>,
    /// Predicate over the 1-column row `[partition_key]`.
    partition_predicate: Option<Expr>,
    sip: Vec<SipBinding>,
    /// A snapshot still to be pruned and cut — a serial scan does that on
    /// its first pull; a morsel worker is handed morsels instead.
    snapshot: Option<SnapshotScan>,
    /// Morsels to scan, in order.
    morsels: VecDeque<ScanMorsel>,
    /// The morsel being scanned.
    current: Option<MorselCursor>,
    stats: Arc<Mutex<ScanStats>>,
}

/// Progress through one container morsel: its runs of neighbouring
/// surviving blocks, one at a time.
struct MorselCursor {
    container: ScanContainer,
    runs: std::vec::IntoIter<Range<usize>>,
    run: Option<RunCursor>,
}

/// One run of neighbouring blocks, fetched: a chunk per output column (one
/// ranged read each) and the run's visibility.
struct RunCursor {
    columns: Vec<ColumnChunk>,
    /// Over the run's rows: index 0 is the row at `first_row`.
    visible: VisibleSet,
    first_row: u64,
    /// Blocks of the run not yet emitted.
    blocks: Range<usize>,
}

impl ScanOperator {
    /// A serial scan of a snapshot. (`_backend` is the node's default;
    /// containers carry their own, so cross-node container mixes — buddy
    /// reads, broadcast gathers — read from the right node.)
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        _backend: Arc<dyn StorageBackend>,
        containers: Vec<ScanContainer>,
        wos_rows: Vec<Row>,
        output_columns: Vec<usize>,
        predicate: Option<Expr>,
        partition_predicate: Option<Expr>,
        sip: Vec<SipBinding>,
    ) -> ScanOperator {
        let mut scan = Self::for_morsels(
            output_columns,
            predicate,
            partition_predicate,
            sip,
            Arc::new(Mutex::new(ScanStats::default())),
        );
        scan.snapshot = Some(SnapshotScan {
            containers,
            wos_rows,
        });
        scan
    }

    /// A scan with nothing to scan yet: `ScanOperator::cut` turns a
    /// snapshot into morsels, `ScanOperator::push_morsel` feeds them.
    /// Counters fold into `stats` — morsel-parallel scans share one handle
    /// across every worker so pruning/SIP telemetry stays whole-scan
    /// accurate.
    pub(crate) fn for_morsels(
        output_columns: Vec<usize>,
        predicate: Option<Expr>,
        partition_predicate: Option<Expr>,
        sip: Vec<SipBinding>,
        stats: Arc<Mutex<ScanStats>>,
    ) -> ScanOperator {
        let bounds = predicate.as_ref().map(extract_bounds).unwrap_or_default();
        let (cmps, residual) = match &predicate {
            Some(p) => crate::filter::split_column_cmps(p, output_columns.len()),
            None => (Vec::new(), None),
        };
        let null_tests = predicate
            .as_ref()
            .map(extract_null_tests)
            .unwrap_or_default();
        ScanOperator {
            output_columns,
            predicate,
            cmps,
            residual,
            bounds,
            null_tests,
            partition_predicate,
            sip,
            snapshot: None,
            morsels: VecDeque::new(),
            current: None,
            stats,
        }
    }

    /// Shared stats handle (inspect after draining).
    pub fn stats(&self) -> Arc<Mutex<ScanStats>> {
        self.stats.clone()
    }

    /// Queue one more morsel behind those already queued.
    pub(crate) fn push_morsel(&mut self, morsel: ScanMorsel) {
        self.morsels.push_back(morsel);
    }

    /// Steps 1–3 for a whole snapshot, on the position indexes alone: drop
    /// the containers and blocks that cannot satisfy the predicate, and cut
    /// the blocks that can into morsels. No I/O happens here — a point
    /// query learns it needs one or two blocks before it reads a byte.
    pub(crate) fn cut(&self, snapshot: &SnapshotScan) -> DbResult<Vec<ScanMorsel>> {
        // Held across the cut: it does no I/O and no worker has started.
        let mut stats = self.stats.lock();
        stats.containers_total += snapshot.containers.len();
        snapshot.morsels(|sc| self.surviving_blocks(sc, &mut stats))
    }

    /// The blocks of one container the scan still has to read.
    fn surviving_blocks(&self, sc: &ScanContainer, stats: &mut ScanStats) -> DbResult<Vec<usize>> {
        // 1. Partition pruning.
        if let (Some(pred), Some(key)) = (&self.partition_predicate, &sc.container.partition_key) {
            if !pred.matches(std::slice::from_ref(key))? {
                stats.containers_pruned_partition += 1;
                return Ok(Vec::new());
            }
        }
        let index_of = |column: usize| &sc.container.indexes[self.output_columns[column]];
        // 2. Container-level min/max pruning.
        let out_of_range = self.bounds.iter().any(|b| {
            index_of(b.column)
                .column_min_max()
                .is_some_and(|(min, max)| {
                    b.low.as_ref().is_some_and(|lo| &max < lo)
                        || b.high.as_ref().is_some_and(|hi| &min > hi)
                })
        });
        // 2b. Null-count pruning: an `IS [NOT] NULL` conjunct no block can
        // satisfy prunes the whole container.
        let null_test_fails = |t: &NullTest, meta: &vdb_encoding::BlockMeta| {
            if t.negated {
                !meta.might_contain_non_null()
            } else {
                !meta.might_contain_null()
            }
        };
        let never_null_matches = self.null_tests.iter().any(|t| {
            index_of(t.column)
                .blocks
                .iter()
                .all(|meta| null_test_fails(t, meta))
        });
        if out_of_range || never_null_matches {
            stats.containers_pruned_minmax += 1;
            return Ok(Vec::new());
        }
        // Nothing of the container is visible at the snapshot.
        if sc.visibility() == Visibility::None {
            return Ok(Vec::new());
        }
        // 3. Block-level pruning on bounded columns and null tests. Blocks
        // are row-aligned across columns, so the container-level count
        // applies to all of them.
        let num_blocks = if self.output_columns.is_empty() {
            0
        } else {
            sc.container.block_count()
        };
        stats.blocks_total += num_blocks;
        let surviving: Vec<usize> = (0..num_blocks)
            .filter(|&bi| {
                self.bounds.iter().all(|b| {
                    index_of(b.column).blocks[bi]
                        .might_contain_range(b.low.as_ref(), b.high.as_ref())
                }) && !self
                    .null_tests
                    .iter()
                    .any(|t| null_test_fails(t, &index_of(t.column).blocks[bi]))
            })
            .collect();
        stats.blocks_pruned += num_blocks - surviving.len();
        Ok(surviving)
    }

    /// Fetch one run of a morsel: its visibility first (a run with nothing
    /// visible reads no column), then one ranged read per output column.
    fn open_run(&self, sc: &ScanContainer, run: Range<usize>) -> DbResult<Option<RunCursor>> {
        let metas = &sc.container.indexes[self.output_columns[0]].blocks[run.clone()];
        let visible = sc.visible_in(sc.backend.as_ref(), run.clone())?;
        if matches!(visible, VisibleSet::None) {
            let rows: u64 = metas.iter().map(|m| u64::from(m.count)).sum();
            let mut st = self.stats.lock();
            st.rows_scanned += rows;
            st.rows_decode_skipped += rows * self.output_columns.len() as u64;
            return Ok(None);
        }
        let columns = self
            .output_columns
            .iter()
            .map(|&proj_col| {
                sc.container
                    .read_blocks(sc.backend.as_ref(), proj_col, run.clone())
            })
            .collect::<DbResult<Vec<_>>>()?;
        Ok(Some(RunCursor {
            columns,
            visible,
            first_row: metas.first().map_or(0, |m| m.start_position),
            blocks: run,
        }))
    }

    /// Produce the batch for the next block of the current morsel; `None`
    /// when the morsel is exhausted (or there is none).
    fn next_block_batch(&mut self) -> DbResult<Option<Batch>> {
        let Some(mut cur) = self.current.take() else {
            return Ok(None);
        };
        let batch = self.advance(&mut cur)?;
        if batch.is_some() {
            self.current = Some(cur);
        }
        Ok(batch)
    }

    /// Move `cur` to its next block that yields rows, fetching runs as it
    /// reaches them.
    fn advance(&self, cur: &mut MorselCursor) -> DbResult<Option<Batch>> {
        loop {
            let Some(bi) = cur.run.as_mut().and_then(|run| run.blocks.next()) else {
                let Some(next_run) = cur.runs.next() else {
                    return Ok(None);
                };
                cur.run = self.open_run(&cur.container, next_run)?;
                continue;
            };
            let run = cur.run.as_ref().expect("a block came from it");
            let indexes = &cur.container.container.indexes;
            let index_of = |column: usize| &indexes[self.output_columns[column]];
            let meta0 = &index_of(0).blocks[bi];
            let block_rows = meta0.count as usize;
            let ncols = run.columns.len();
            // Visibility (epoch + delete vector) becomes a selection
            // vector *before* decode: invisible rows restrict what gets
            // decoded, not just what gets emitted.
            let mut sel: Option<Vec<u32>> = if matches!(run.visible, VisibleSet::All) {
                None
            } else {
                let offset = meta0.start_position - run.first_row;
                let visible: Vec<u32> = (0..block_rows as u32)
                    .filter(|&i| run.visible.is_visible(offset + u64::from(i)))
                    .collect();
                if visible.len() < block_rows {
                    Some(visible)
                } else {
                    None
                }
            };
            // Decode the columns under comparison conjuncts first and refine
            // the selection with each conjunct, so rows they rule out are
            // never decoded in the remaining columns. Then decode the rest
            // under the final selection — straight into typed vectors
            // (native buffers) or RLE vectors; no per-row `Value`
            // construction for specialized encodings.
            let mut slices: Vec<Option<ColumnSlice>> = (0..ncols).map(|_| None).collect();
            let mut skipped = 0u64;
            let mut decode = |ci: usize, sel: Option<&[u32]>| -> DbResult<ColumnSlice> {
                let reader = run.columns[ci].reader(index_of(ci));
                let (native, sk) = reader.read_block_native_selected(bi, sel)?;
                skipped += sk;
                Ok(ColumnSlice::from_native(native))
            };
            for cmp in &self.cmps {
                if sel.as_ref().is_some_and(|s| s.is_empty()) {
                    break;
                }
                if slices[cmp.column].is_none() {
                    slices[cmp.column] = Some(decode(cmp.column, sel.as_deref())?);
                }
                let slice = slices[cmp.column].as_ref().expect("just decoded");
                sel = refine(slice, cmp, sel, block_rows);
            }
            if sel.as_ref().is_some_and(|s| s.is_empty()) {
                // Nothing visible, or the conjuncts eliminated every row:
                // the remaining columns are never decoded at all.
                let undecoded = slices.iter().filter(|s| s.is_none()).count() as u64;
                let mut st = self.stats.lock();
                st.rows_scanned += block_rows as u64;
                st.rows_decode_skipped += skipped + undecoded * block_rows as u64;
                continue;
            }
            for (ci, slot) in slices.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = Some(decode(ci, sel.as_deref())?);
                }
            }
            {
                let mut st = self.stats.lock();
                st.rows_scanned += block_rows as u64;
                st.rows_decode_skipped += skipped;
            }
            let mut batch = Batch::new(slices.into_iter().map(Option::unwrap).collect());
            if let Some(visible) = sel {
                batch = batch.with_selection(SelectionVector::new(visible));
            }
            let batch = self.apply_row_filters(batch)?;
            if batch.is_empty() {
                continue;
            }
            return Ok(Some(batch));
        }
    }

    /// 5+6: SIP filters then residual predicate, over a batch the
    /// comparison conjuncts have been applied to. Both stages refine the
    /// batch's selection vector — survivors are marked, not copied.
    fn apply_row_filters(&self, batch: Batch) -> DbResult<Batch> {
        let mut batch = batch;
        for binding in &self.sip {
            if !binding.filter.is_ready() || batch.is_empty() {
                continue;
            }
            let before = batch.len() as u64;
            let sel = Self::sip_selection(binding, &batch);
            let dropped = before - sel.len() as u64;
            if dropped > 0 {
                self.stats.lock().rows_sip_filtered += dropped;
                batch = batch.with_selection(sel);
            }
        }
        if let Some(pred) = &self.residual {
            if !batch.is_empty() {
                // Vectorized evaluation over typed/RLE columns; row-wise
                // fallback for predicates outside the vectorizable shape.
                match crate::filter::eval_predicate_selection(&batch, pred) {
                    Some(sel) => {
                        if sel.len() < batch.len() {
                            batch = batch.with_selection(sel);
                        }
                    }
                    None => {
                        let rows = batch.rows();
                        let mut mask = Vec::with_capacity(rows.len());
                        let mut all = true;
                        for row in &rows {
                            let keep = pred.matches(row)?;
                            all &= keep;
                            mask.push(keep);
                        }
                        if !all {
                            batch = batch.into_filtered(&mask);
                        }
                    }
                }
            }
        }
        self.stats.lock().rows_after_predicate += batch.len() as u64;
        Ok(batch)
    }

    /// Surviving physical positions after one SIP filter. Typed key
    /// columns hash natively (no `Value` construction); dictionary-coded
    /// keys probe once per distinct value; RLE keys probe once per run.
    fn sip_selection(binding: &SipBinding, batch: &Batch) -> SelectionVector {
        let cands: Vec<u32> = match batch.selection() {
            Some(sel) => sel.indices().to_vec(),
            None => (0..batch.physical_len() as u32).collect(),
        };
        let filter = binding.filter.as_ref();
        if let [only] = binding.key_columns.as_slice() {
            let kept: Vec<u32> = match &batch.columns[*only] {
                ColumnSlice::Plain(values) => cands
                    .into_iter()
                    .filter(|&i| filter.might_contain_one(&values[i as usize]))
                    .collect(),
                ColumnSlice::Rle(rv) => {
                    crate::filter::retain_by_run(rv, cands, |v| filter.might_contain_one(v))
                }
                ColumnSlice::Typed(tv) => {
                    let null_ok = || filter.might_contain_one_hash(Value::hash64_null());
                    match tv.data() {
                        VectorData::Int64(xs) | VectorData::Timestamp(xs) => cands
                            .into_iter()
                            .filter(|&i| {
                                let i = i as usize;
                                if tv.is_valid(i) {
                                    filter.might_contain_one_hash(Value::hash64_of_i64(xs[i]))
                                } else {
                                    null_ok()
                                }
                            })
                            .collect(),
                        VectorData::Float64(xs) => cands
                            .into_iter()
                            .filter(|&i| {
                                let i = i as usize;
                                if tv.is_valid(i) {
                                    filter.might_contain_one_hash(Value::hash64_of_f64(xs[i]))
                                } else {
                                    null_ok()
                                }
                            })
                            .collect(),
                        VectorData::Bool(bits) => cands
                            .into_iter()
                            .filter(|&i| {
                                let i = i as usize;
                                if tv.is_valid(i) {
                                    filter.might_contain_one_hash(Value::hash64_of_i64(i64::from(
                                        bits.get(i),
                                    )))
                                } else {
                                    null_ok()
                                }
                            })
                            .collect(),
                        VectorData::Dict { dict, codes } => {
                            // One membership probe per *distinct* string.
                            let keep: Vec<bool> = dict
                                .entries()
                                .iter()
                                .map(|s| filter.might_contain_one_hash(Value::hash64_of_str(s)))
                                .collect();
                            cands
                                .into_iter()
                                .filter(|&i| {
                                    let i = i as usize;
                                    if tv.is_valid(i) {
                                        keep[codes[i] as usize]
                                    } else {
                                        null_ok()
                                    }
                                })
                                .collect()
                        }
                    }
                }
            };
            return SelectionVector::new(kept);
        }
        // Multi-column keys: gather per candidate (cold path).
        let kept: Vec<u32> = cands
            .into_iter()
            .filter(|&i| {
                let key: Vec<Value> = binding
                    .key_columns
                    .iter()
                    .map(|&c| batch.columns[c].value_at(i as usize))
                    .collect();
                let refs: Vec<&Value> = key.iter().collect();
                filter.might_contain(&refs)
            })
            .collect();
        SelectionVector::new(kept)
    }

    /// Project + filter the WOS rows.
    fn wos_batch(&self, rows: Vec<Row>) -> DbResult<Option<Batch>> {
        if rows.is_empty() {
            return Ok(None);
        }
        self.stats.lock().rows_scanned += rows.len() as u64;
        let projected: Vec<Row> = rows
            .into_iter()
            .map(|r| self.output_columns.iter().map(|&c| r[c].clone()).collect())
            .collect();
        let mut batch = Batch::from_rows(projected);
        let rows = batch.len();
        let mut sel = None;
        for cmp in &self.cmps {
            sel = refine(&batch.columns[cmp.column], cmp, sel, rows);
        }
        if let Some(sel) = sel {
            batch = batch.with_selection(SelectionVector::new(sel));
        }
        let batch = self.apply_row_filters(batch)?;
        if batch.is_empty() {
            Ok(None)
        } else {
            Ok(Some(batch))
        }
    }
}

impl Operator for ScanOperator {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some(snapshot) = self.snapshot.take() {
            self.morsels = self.cut(&snapshot)?.into();
        }
        loop {
            if let Some(batch) = self.next_block_batch()? {
                return Ok(Some(batch));
            }
            match self.morsels.pop_front() {
                Some(ScanMorsel::Blocks {
                    container, runs, ..
                }) => {
                    self.current = Some(MorselCursor {
                        container,
                        runs: runs.into_iter(),
                        run: None,
                    });
                }
                Some(ScanMorsel::Wos(rows)) => {
                    if let Some(batch) = self.wos_batch(rows)? {
                        return Ok(Some(batch));
                    }
                }
                None => return Ok(None),
            }
        }
    }

    fn name(&self) -> String {
        match &self.predicate {
            Some(p) => format!("Scan(filter: {p})"),
            None => "Scan".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_rows;
    use std::sync::Arc;
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{ColumnDef, DataType, Epoch, TableSchema};

    fn make_store(rows: Vec<Row>) -> ProjectionStore {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[]);
        let mut s = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        s.insert_direct_ros(rows, Epoch(1)).unwrap();
        s
    }

    fn scan_of(store: &ProjectionStore, pred: Option<Expr>) -> ScanOperator {
        let snap = store.scan_snapshot(Epoch(1));
        ScanOperator::new(
            store.backend().clone(),
            snap.containers,
            snap.wos_rows,
            vec![0, 1],
            pred,
            None,
            vec![],
        )
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| vec![Value::Integer(i), Value::Integer(i % 10)])
            .collect()
    }

    #[test]
    fn full_scan_returns_everything() {
        let store = make_store(rows(3000));
        let mut scan = scan_of(&store, None);
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 3000);
    }

    #[test]
    fn predicate_filters_rows() {
        let store = make_store(rows(3000));
        let pred = Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(2995));
        let mut scan = scan_of(&store, Some(pred));
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn block_pruning_skips_sorted_ranges() {
        // 3000 sorted rows = 3 blocks of 1024ish; a >= 2995 predicate must
        // prune the first two blocks.
        let store = make_store(rows(3000));
        let pred = Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(2995));
        let mut scan = scan_of(&store, Some(pred));
        let stats = scan.stats();
        collect_rows(&mut scan).unwrap();
        let s = stats.lock().clone();
        assert!(s.blocks_pruned >= 2, "pruned {} blocks", s.blocks_pruned);
        assert!(s.rows_scanned < 3000, "scanned {}", s.rows_scanned);
    }

    #[test]
    fn selection_pushdown_skips_decode_of_unbounded_columns() {
        // `a BETWEEN 2100 AND 2150` survives only in the last block; the
        // bound column decodes first, its exact bounds shrink the
        // selection, and column b's decode stops at the last survivor.
        let store = make_store(rows(3000));
        let pred = Expr::Between {
            input: Box::new(Expr::col(0, "a")),
            low: Box::new(Expr::int(2100)),
            high: Box::new(Expr::int(2150)),
        };
        let mut scan = scan_of(&store, Some(pred));
        let stats = scan.stats();
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 51);
        let s = stats.lock().clone();
        assert!(s.blocks_pruned >= 2, "pruned {} blocks", s.blocks_pruned);
        assert!(
            s.rows_decode_skipped > 500,
            "decode-skipped {} rows",
            s.rows_decode_skipped
        );
    }

    #[test]
    fn null_count_prunes_is_null_scans() {
        // No NULLs anywhere: an IS NULL predicate prunes every container
        // from its null counts alone — nothing is decoded.
        let store = make_store(rows(3000));
        let pred = Expr::is_null(Expr::col(1, "b"), false);
        let mut scan = scan_of(&store, Some(pred));
        let stats = scan.stats();
        let got = collect_rows(&mut scan).unwrap();
        assert!(got.is_empty());
        let s = stats.lock().clone();
        assert_eq!(s.containers_pruned_minmax, 1);
        assert_eq!(s.rows_scanned, 0);
    }

    #[test]
    fn null_count_prunes_all_null_blocks_for_is_not_null() {
        // Column b: NULL for the first 2048 rows, set afterwards. The two
        // all-null blocks prune; the mixed block survives.
        let data: Vec<Row> = (0..3000)
            .map(|i| {
                let b = if i < 2048 {
                    Value::Null
                } else {
                    Value::Integer(i)
                };
                vec![Value::Integer(i), b]
            })
            .collect();
        let store = make_store(data);
        let pred = Expr::is_null(Expr::col(1, "b"), true);
        let mut scan = scan_of(&store, Some(pred));
        let stats = scan.stats();
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 952);
        let s = stats.lock().clone();
        assert_eq!(s.blocks_pruned, 2, "two all-null blocks pruned");
    }

    #[test]
    fn bounds_extraction() {
        let pred = Expr::and(
            Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(10)),
            Expr::and(
                Expr::binary(BinOp::Lt, Expr::col(0, "a"), Expr::int(20)),
                Expr::eq(Expr::col(1, "b"), Expr::int(5)),
            ),
        );
        let bounds = extract_bounds(&pred);
        assert_eq!(bounds.len(), 2);
        let a = bounds.iter().find(|b| b.column == 0).unwrap();
        assert_eq!(a.low, Some(Value::Integer(10)));
        assert_eq!(a.high, Some(Value::Integer(20)));
        let b = bounds.iter().find(|b| b.column == 1).unwrap();
        assert_eq!(b.low, Some(Value::Integer(5)));
        assert_eq!(b.high, Some(Value::Integer(5)));
        // Flipped literal side.
        let flipped = Expr::binary(BinOp::Gt, Expr::int(100), Expr::col(0, "a"));
        let fb = extract_bounds(&flipped);
        assert_eq!(fb[0].high, Some(Value::Integer(100)));
        assert_eq!(fb[0].low, None);
    }

    #[test]
    fn rle_blocks_stay_encoded_without_predicate() {
        // Column b cycles over 10 values but sorted data groups them:
        // build a store sorted by b so RLE applies.
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_by_b", &[1], &[]);
        let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        store.insert_direct_ros(rows(2048), Epoch(1)).unwrap();
        let snap = store.scan_snapshot(Epoch(1));
        let mut scan = ScanOperator::new(
            store.backend().clone(),
            snap.containers,
            snap.wos_rows,
            vec![1], // just column b
            None,
            None,
            vec![],
        );
        let batch = scan.next_batch().unwrap().unwrap();
        assert!(
            batch.columns[0].is_rle(),
            "sorted low-cardinality column should arrive as runs"
        );
    }

    #[test]
    fn scan_emits_typed_vectors_for_integer_columns() {
        // Integer projections decode into native i64 buffers (or RLE) —
        // never per-row `Value`s — feeding the typed executor fast path.
        let store = make_store(rows(2048));
        let mut scan = scan_of(&store, None);
        let batch = scan.next_batch().unwrap().unwrap();
        for (i, col) in batch.columns.iter().enumerate() {
            assert!(
                !matches!(col, ColumnSlice::Plain(_)),
                "column {i} of an integer projection arrived as plain values"
            );
        }
    }

    #[test]
    fn typed_scan_with_predicate_keeps_selection_not_copies() {
        let store = make_store(rows(2048));
        let pred = Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(1000));
        let mut scan = scan_of(&store, Some(pred));
        let mut total = 0usize;
        while let Some(batch) = scan.next_batch().unwrap() {
            total += batch.len();
            // The surviving batch still holds the full decoded block;
            // the predicate only refined the selection.
            if batch.len() < batch.physical_len() {
                assert!(batch.selection().is_some());
            }
            assert!(batch
                .columns
                .iter()
                .all(|c| !matches!(c, ColumnSlice::Plain(_))));
        }
        assert_eq!(total, 1048);
    }

    #[test]
    fn wos_rows_are_scanned_after_ros() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[]);
        let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        store.insert_direct_ros(rows(10), Epoch(1)).unwrap();
        store
            .insert_wos(vec![vec![Value::Integer(99), Value::Integer(9)]], Epoch(1))
            .unwrap();
        let snap = store.scan_snapshot(Epoch(1));
        let mut scan = ScanOperator::new(
            store.backend().clone(),
            snap.containers,
            snap.wos_rows,
            vec![0, 1],
            None,
            None,
            vec![],
        );
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 11);
        assert_eq!(got[10][0], Value::Integer(99));
    }

    #[test]
    fn sip_filters_rows_at_scan() {
        let store = make_store(rows(100));
        let snap = store.scan_snapshot(Epoch(1));
        let filter = SipFilter::new();
        let mut keys = std::collections::HashSet::new();
        for k in [3i64, 7] {
            keys.insert(SipFilter::key_hash(&[&Value::Integer(k)]));
        }
        filter.publish(keys);
        let mut scan = ScanOperator::new(
            store.backend().clone(),
            snap.containers,
            snap.wos_rows,
            vec![0, 1],
            None,
            None,
            vec![SipBinding {
                filter,
                key_columns: vec![0],
            }],
        );
        let stats = scan.stats();
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(stats.lock().rows_sip_filtered, 98);
    }

    #[test]
    fn deleted_rows_are_masked() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[]);
        let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        store.insert_direct_ros(rows(10), Epoch(1)).unwrap();
        let id = store.containers().next().unwrap().id;
        store
            .mark_deleted(vdb_storage::RowLocation::Ros(id, 0), Epoch(2))
            .unwrap();
        let snap = store.scan_snapshot(Epoch(2));
        let mut scan = ScanOperator::new(
            store.backend().clone(),
            snap.containers,
            snap.wos_rows,
            vec![0, 1],
            None,
            None,
            vec![],
        );
        let got = collect_rows(&mut scan).unwrap();
        assert_eq!(got.len(), 9);
        assert!(got.iter().all(|r| r[0] != Value::Integer(0)));
    }
}
