//! Morsel-driven parallel execution over ROS containers.
//!
//! §5 of the paper: "many operations, such as loading data or executing
//! queries, are executed with multiple threads" — ROS containers are
//! immutable and every block of a column file is independently readable
//! through the position index, so a scan decomposes into **morsels**: the
//! snapshot is pruned on its indexes first, and the blocks that survive
//! are cut into (container, block range) units of at most
//! [`MORSEL_BLOCKS`](vdb_storage::store::MORSEL_BLOCKS) blocks, plus the
//! WOS tail. One mergeout-sized container therefore feeds every worker,
//! while a pruned point query is one morsel and runs inline. A pool of
//! workers pulls morsels from a shared queue:
//!
//! ```text
//!            ┌────────────── morsel queue (shared) ──────────────────┐
//!            │ ros1[0..16) │ ros1[16..32) │ ... │ ros2[0..9) │ WOS   │
//!            └──┬──────┬──────┬───────────────┬──────────────────────┘
//!        worker 0  worker 1  worker 2   ...   (pull on demand)
//!   scan→visibility→SIP/predicate→[partial GroupBy | sort run | collect]
//!            └──────┴──────┴───────────────┴───────┘
//!                     single merge barrier
//!          (merge hash tables | k-way merge runs | concat)
//! ```
//!
//! Each worker runs the full scan pipeline — block decode into typed/RLE
//! vectors, delete-vector visibility, SIP probes and predicate evaluation
//! as selection vectors — plus an optional per-worker stage, entirely on
//! its own data. Worker states meet exactly once, at the barrier:
//!
//! * [`ParallelStage::GroupBy`] — partial aggregation in the workers; the
//!   barrier re-aggregates the partials, by the strategy the planner chose
//!   for the group-by. *Hash*: one table per worker across all its morsels,
//!   a hash table at the barrier. *Sorted input* (the group columns are a
//!   prefix of the projection's sort order): each worker runs the streaming
//!   fold ([`crate::groupby`]) **per morsel** — a key that continues into
//!   the next morsel leaves one partial row in each — and the barrier
//!   streams the same fold, with the merge aggregates, over the partials
//!   **in morsel order**, where adjacent equal keys collapse (only a
//!   morsel's first and last partial can; the rows between pass through).
//!   No hash table on either side, memory O(groups in flight) plus the
//!   partial rows; and since partials meet in morsel order, not worker
//!   order, a float SUM has the same bits at every DoP ≥ 2 and on every
//!   run.
//! * [`ParallelStage::Sort`] — per-worker sorted runs; the barrier k-way
//!   merges them.
//! * [`ParallelStage::Collect`] — scan/filter only; per-morsel outputs are
//!   concatenated **in morsel order**, so the result equals the serial
//!   scan row for row.
//!
//! The workers do not care what feeds them: a lane owns a
//! `MorselPipeline` — morsels in, batches out — and `run_stage` runs a
//! stage over any of them. [`ParallelScanOp`]'s pipeline is the scan
//! itself; the parallel hash join's ([`crate::parallel_join`]) is scan →
//! probe, so a join's partial aggregation happens in its probe workers and
//! merges at the same barrier. When pruning leaves a single morsel there is
//! nothing to split or merge, and the stage runs as the one serial operator
//! it would be in a `threads = 1` plan (`serial_stage`).
//!
//! Worker lanes are tasks on the process-wide shared pool
//! ([`crate::pool`]) — N concurrent queries multiplex one set of
//! persistent workers instead of each spawning their own. Workers never
//! `unwrap()`: every failure travels through the worker's `DbResult`
//! return value and the task set's result slots, surfacing as
//! `DbResult::Err` from the operator. `threads = 1` is the serial
//! degenerate case — the pipeline runs inline on the calling thread, no
//! pool round-trip.

use crate::aggregate::AggCall;
use crate::batch::{Batch, BATCH_SIZE};
use crate::filter::ProjectOp;
use crate::groupby::{two_phase_aggs, HashGroupByOp, PipelinedGroupByOp, SortedFold};
use crate::memory::MemoryBudget;
use crate::operator::{BoxedOperator, Operator, ValuesOp};
use crate::scan::{ScanOperator, ScanStats, SipBinding};
use crate::sort::SortOp;
use crate::vector::SelectionVector;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use vdb_storage::store::{ScanMorsel, SnapshotScan};
use vdb_storage::StorageBackend;
use vdb_types::schema::{compare_rows, SortKey};
use vdb_types::{DbResult, Expr, Row};

/// Environment knob overriding the executor's per-operator lane count
/// (CI's thread-stress job runs the suite at 1 and at 2× the core count).
/// Also the fallback size for the shared worker pool ([`crate::pool`])
/// when `VDB_POOL_WORKERS` is unset.
pub const THREADS_ENV: &str = "VDB_EXEC_THREADS";

/// Executor-wide tuning the query path plumbs from `Database` down to the
/// planner (which picks a degree of parallelism per scan from it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Upper bound on worker threads per parallel operator. `1` = serial.
    pub threads: usize,
}

impl ExecOptions {
    /// Strictly serial execution (the `threads = 1` degenerate case).
    pub fn serial() -> ExecOptions {
        ExecOptions { threads: 1 }
    }

    pub fn with_threads(threads: usize) -> ExecOptions {
        ExecOptions {
            threads: threads.max(1),
        }
    }

    /// Resolve from `VDB_EXEC_THREADS`, falling back to the shared worker
    /// pool's capacity when unset (or unparseable) — the planner's degree
    /// of parallelism tracks the pool all queries actually multiplex, not
    /// the raw core count. A set value is clamped like
    /// [`ExecOptions::with_threads`], so `VDB_EXEC_THREADS=0` means
    /// serial, not "pick for me".
    pub fn from_env() -> ExecOptions {
        match std::env::var(THREADS_ENV)
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
        {
            Some(threads) => ExecOptions::with_threads(threads),
            None => ExecOptions {
                threads: crate::pool::shared().workers(),
            },
        }
    }
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions::from_env()
    }
}

/// Scan parameters shared by every worker (cheap to clone: the backend and
/// SIP filters are `Arc`s).
#[derive(Clone)]
pub struct ParallelScanSpec {
    pub backend: Arc<dyn StorageBackend>,
    /// Projection column indexes to output, in order.
    pub output_columns: Vec<usize>,
    /// Residual predicate over the output columns.
    pub predicate: Option<Expr>,
    /// Predicate over the single-value row `[partition_key]`.
    pub partition_predicate: Option<Expr>,
    pub sip: Vec<SipBinding>,
}

impl ParallelScanSpec {
    pub fn new(backend: Arc<dyn StorageBackend>, output_columns: Vec<usize>) -> ParallelScanSpec {
        ParallelScanSpec {
            backend,
            output_columns,
            predicate: None,
            partition_predicate: None,
            sip: Vec::new(),
        }
    }

    /// Open the scan pipeline with no morsels queued yet, folding counters
    /// into the shared whole-scan stats.
    pub(crate) fn open(&self, stats: &Arc<Mutex<ScanStats>>) -> ScanOperator {
        ScanOperator::for_morsels(
            self.output_columns.clone(),
            self.predicate.clone(),
            self.partition_predicate.clone(),
            self.sip.clone(),
            stats.clone(),
        )
    }

    /// Prune `snapshot` on its position indexes and cut the surviving
    /// blocks into morsels (`ScanOperator::cut`) — before any I/O, on
    /// the calling thread.
    pub(crate) fn cut(
        &self,
        snapshot: &SnapshotScan,
        stats: &Arc<Mutex<ScanStats>>,
    ) -> DbResult<Vec<ScanMorsel>> {
        self.open(stats).cut(snapshot)
    }

    /// The serial scan of `morsels`, in order.
    pub(crate) fn scan_of(
        &self,
        morsels: Vec<ScanMorsel>,
        stats: &Arc<Mutex<ScanStats>>,
    ) -> ScanOperator {
        let mut scan = self.open(stats);
        for morsel in morsels {
            scan.push_morsel(morsel);
        }
        scan
    }
}

/// Per-worker stage between the scan and the merge barrier.
#[derive(Debug, Clone)]
pub enum ParallelStage {
    /// Scan + filter only; outputs concatenate in morsel order (equal to
    /// the serial scan). The barrier materializes the surviving batches —
    /// unlike the serial scan, which streams — so this stage counts as
    /// stateful for the §6.1 memory split; streaming morsel-ordered
    /// emission is future work.
    Collect,
    /// Partial aggregation in the workers, merged at the barrier.
    /// Non-decomposable aggregates (COUNT DISTINCT) parallelize the scan
    /// and aggregate once at the barrier instead — that fallback buffers
    /// the filtered scan output at the barrier (like a serial plan whose
    /// results are collected), so the planner only emits parallel
    /// group-bys for decomposable aggregates.
    GroupBy {
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
        /// The input arrives sorted by `group_columns` (they are a prefix
        /// of the scanned projection's sort order — a fact of the plan,
        /// not a choice): workers and barrier stream instead of hashing.
        sorted: bool,
    },
    /// Per-worker sorted runs; the barrier k-way merges them. Rows that
    /// compare equal on `keys` may interleave differently than a serial
    /// (stable) sort.
    Sort { keys: Vec<SortKey> },
}

impl ParallelStage {
    /// Output arity of the stage over an input of `input` columns.
    pub fn arity(&self, input: usize) -> usize {
        match self {
            ParallelStage::Collect | ParallelStage::Sort { .. } => input,
            ParallelStage::GroupBy {
                group_columns,
                aggs,
                ..
            } => group_columns.len() + aggs.len(),
        }
    }
}

/// Shared work queue: workers pull `(morsel index, morsel)` units until it
/// drains, which balances skew automatically. Morsels are dispensed
/// heaviest-first (by [`ScanMorsel::rows`], the longest-processing-time
/// heuristic; the sort is stable, so equally sized block-range morsels
/// stay in file order) so a large WOS tail or a full-size morsel isn't
/// picked up last to run alone after every other worker has drained the
/// queue; the index tag preserves each morsel's snapshot position for
/// order-sensitive merges.
pub struct MorselQueue {
    morsels: Mutex<VecDeque<(usize, ScanMorsel)>>,
}

impl MorselQueue {
    pub fn new(morsels: Vec<ScanMorsel>) -> MorselQueue {
        let mut tagged: Vec<(usize, ScanMorsel)> = morsels.into_iter().enumerate().collect();
        tagged.sort_by_key(|(_, m)| std::cmp::Reverse(m.rows()));
        MorselQueue {
            morsels: Mutex::new(tagged.into()),
        }
    }

    pub fn pop(&self) -> Option<(usize, ScanMorsel)> {
        self.morsels.lock().pop_front()
    }
}

/// What one worker lane runs its morsels through: morsels go in, batches
/// come out (the scan pipeline alone, or scan → join probe).
pub(crate) trait MorselPipeline: Send {
    /// Queue one more morsel behind those already queued.
    fn feed(&mut self, morsel: ScanMorsel);
    /// Next batch of the queued morsels; `None` once they are drained.
    fn pull(&mut self) -> DbResult<Option<Batch>>;
}

impl MorselPipeline for ScanOperator {
    fn feed(&mut self, morsel: ScanMorsel) {
        self.push_morsel(morsel);
    }

    fn pull(&mut self) -> DbResult<Option<Batch>> {
        self.next_batch()
    }
}

/// Makes one pipeline per worker lane.
pub(crate) type OpenPipeline = Arc<dyn Fn() -> Box<dyn MorselPipeline> + Send + Sync>;

/// Pull-model operator over the shared morsel queue: drains the current
/// morsel through the pipeline, then pops the next. One instance per
/// worker; the queue is the only shared state.
struct MorselSourceOp {
    queue: Arc<MorselQueue>,
    pipeline: Box<dyn MorselPipeline>,
}

impl Operator for MorselSourceOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        loop {
            if let Some(batch) = self.pipeline.pull()? {
                return Ok(Some(batch));
            }
            match self.queue.pop() {
                Some((_, morsel)) => self.pipeline.feed(morsel),
                None => return Ok(None),
            }
        }
    }

    fn name(&self) -> String {
        "MorselSource".into()
    }
}

/// What one worker hands the barrier.
enum WorkerOutput {
    /// `(morsel index, its batches)` pairs for order-preserving concat —
    /// scan output, or a sorted group-by's partials of that morsel; a hash
    /// group-by's partial batches (group columns first) under index 0.
    Batches(Vec<(usize, Vec<Batch>)>),
    /// One sorted run.
    Run(Vec<Row>),
}

/// What the barrier does with the worker outputs.
enum BarrierMerge {
    Concat,
    /// Re-aggregate rows with `aggs` grouped on `keys` — streaming when
    /// the morsel-ordered rows are `sorted` on them — then optionally
    /// project (AVG reconstitution).
    GroupBy {
        keys: Vec<usize>,
        aggs: Vec<AggCall>,
        sorted: bool,
        project: Option<Vec<Expr>>,
    },
    KWayMerge {
        keys: Vec<SortKey>,
    },
}

/// The morsel-driven parallel table operator: scan → visibility →
/// SIP/predicate → per-worker stage on `threads` workers, merged at one
/// barrier. Blocking (the barrier makes it a plan zone boundary, like
/// Sort); output then streams in [`BATCH_SIZE`] batches.
pub struct ParallelScanOp {
    pending: Option<Pending>,
    output: std::vec::IntoIter<Batch>,
    /// The stage as one serial operator, when a single morsel survived.
    serial: Option<BoxedOperator>,
    stats: Arc<Mutex<ScanStats>>,
    threads_used: usize,
}

struct Pending {
    spec: ParallelScanSpec,
    stage: ParallelStage,
    snapshot: SnapshotScan,
    threads: usize,
    budget: MemoryBudget,
}

impl ParallelScanOp {
    /// A parallel scan of `snapshot` on at most `threads` workers. The
    /// snapshot is pruned and cut into morsels when the operator first
    /// runs; the worker count clamps to what survives.
    pub fn new(
        spec: ParallelScanSpec,
        stage: ParallelStage,
        snapshot: SnapshotScan,
        threads: usize,
        budget: MemoryBudget,
    ) -> ParallelScanOp {
        ParallelScanOp {
            pending: Some(Pending {
                spec,
                stage,
                snapshot,
                threads,
                budget,
            }),
            output: Vec::new().into_iter(),
            serial: None,
            stats: Arc::new(Mutex::new(ScanStats::default())),
            threads_used: 0,
        }
    }

    /// Whole-scan stats handle (aggregated across all workers; inspect
    /// after draining).
    pub fn stats(&self) -> Arc<Mutex<ScanStats>> {
        self.stats.clone()
    }

    /// Workers actually launched (after clamping to the number of morsels
    /// that survived pruning); 1 means the pipeline ran inline on the
    /// calling thread, with no pool hand-off.
    pub fn threads_used(&self) -> usize {
        self.threads_used
    }

    fn run(&mut self, p: Pending) -> DbResult<()> {
        let morsels = p.spec.cut(&p.snapshot, &self.stats)?;
        let threads = p.threads.clamp(1, morsels.len().max(1));
        self.threads_used = threads;
        if threads <= 1 {
            // Nothing to split or merge: partial + final aggregation (or a
            // one-run merge) would only add copies over the serial plan.
            let scan = p.spec.scan_of(morsels, &self.stats);
            self.serial = Some(serial_stage(Box::new(scan), p.stage, p.budget));
            return Ok(());
        }
        let (spec, stats) = (p.spec, self.stats.clone());
        let open: OpenPipeline = Arc::new(move || Box::new(spec.open(&stats)));
        self.output = run_stage(
            morsels,
            threads,
            p.stage,
            p.budget,
            open,
            "parallel scan worker",
        )?
        .into_iter();
        Ok(())
    }
}

impl Operator for ParallelScanOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some(p) = self.pending.take() {
            self.run(p)?;
        }
        match &mut self.serial {
            Some(op) => op.next_batch(),
            None => Ok(self.output.next()),
        }
    }

    fn name(&self) -> String {
        "ParallelScan".into()
    }
}

/// `stage` as one serial operator over `source`: what a `threads = 1` plan
/// runs, and what a parallel operator delegates to when pruning leaves it
/// a single morsel.
pub(crate) fn serial_stage(
    source: BoxedOperator,
    stage: ParallelStage,
    budget: MemoryBudget,
) -> BoxedOperator {
    match stage {
        ParallelStage::Collect => source,
        ParallelStage::GroupBy {
            group_columns,
            aggs,
            sorted,
        } => group_by_op(source, group_columns, aggs, sorted, budget),
        ParallelStage::Sort { keys } => Box::new(SortOp::new(source, keys, budget)),
    }
}

/// The group-by operator of the strategy the plan names.
fn group_by_op(
    source: BoxedOperator,
    keys: Vec<usize>,
    aggs: Vec<AggCall>,
    sorted: bool,
    budget: MemoryBudget,
) -> BoxedOperator {
    match sorted {
        true => Box::new(PipelinedGroupByOp::new(source, keys, aggs)),
        false => Box::new(HashGroupByOp::new(source, keys, aggs, budget)),
    }
}

/// Run `stage` over `morsels` on `threads` worker lanes — each with its
/// own pipeline from `open`, pulling from one shared queue — and merge the
/// lanes' states at the barrier.
///
/// Lanes come from the shared process-wide pool ([`crate::pool`]) — no
/// per-query thread spawning; errors come home through the task set's
/// result slots, never a panic. One lane runs inline on the calling
/// thread. `budget` covers all lanes together: each lane's group-by/sort
/// state gets an equal slice, so N lanes spill at the same total footprint
/// the serial plan would.
pub(crate) fn run_stage(
    morsels: Vec<ScanMorsel>,
    threads: usize,
    stage: ParallelStage,
    budget: MemoryBudget,
    open: OpenPipeline,
    what: &str,
) -> DbResult<Vec<Batch>> {
    let (job, merge) = resolve_stage(stage);
    let queue = Arc::new(MorselQueue::new(morsels));
    let worker_budget = MemoryBudget::new(budget.bytes / threads.max(1));
    let outputs: Vec<WorkerOutput> = if threads <= 1 {
        vec![run_worker(queue, open(), job, worker_budget)?]
    } else {
        let jobs: Vec<crate::pool::Job<WorkerOutput>> = (0..threads)
            .map(|_| {
                let (queue, open, job) = (queue.clone(), open.clone(), job.clone());
                Box::new(move || run_worker(queue, open(), job, worker_budget))
                    as crate::pool::Job<WorkerOutput>
            })
            .collect();
        crate::pool::shared().run_tasks(jobs, what)?
    };
    merge_outputs(outputs, merge, budget)
}

/// Decompose the stage into the per-worker job (itself a stage, over the
/// worker's share of the morsels) and the barrier merge.
fn resolve_stage(stage: ParallelStage) -> (ParallelStage, BarrierMerge) {
    match stage {
        ParallelStage::Collect => (ParallelStage::Collect, BarrierMerge::Concat),
        ParallelStage::Sort { keys } => (
            ParallelStage::Sort { keys: keys.clone() },
            BarrierMerge::KWayMerge { keys },
        ),
        ParallelStage::GroupBy {
            group_columns,
            aggs,
            sorted,
        } => match two_phase_aggs(group_columns.len(), &aggs) {
            Some((partial, final_aggs, project)) => (
                ParallelStage::GroupBy {
                    group_columns: group_columns.clone(),
                    aggs: partial,
                    sorted,
                },
                BarrierMerge::GroupBy {
                    keys: (0..group_columns.len()).collect(),
                    aggs: final_aggs,
                    sorted,
                    project: Some(project),
                },
            ),
            // Non-decomposable (COUNT DISTINCT): parallelize the pipeline
            // only and aggregate once at the barrier (the morsel-ordered
            // concat is the serial scan, so sorted input stays sorted).
            None => (
                ParallelStage::Collect,
                BarrierMerge::GroupBy {
                    keys: group_columns,
                    aggs,
                    sorted,
                    project: None,
                },
            ),
        },
    }
}

/// One worker: pull morsels until the queue drains, applying the job.
/// Plain `DbResult` all the way down — no `unwrap`/`expect`.
fn run_worker(
    queue: Arc<MorselQueue>,
    mut pipeline: Box<dyn MorselPipeline>,
    job: ParallelStage,
    budget: MemoryBudget,
) -> DbResult<WorkerOutput> {
    // Per-morsel jobs, tagged with the morsel index: the scan output as it
    // is, or — sorted input — the streaming fold's partial groups of the
    // morsel, closed at its end so that partials only ever meet at the
    // barrier, in morsel order.
    let mut fold = match &job {
        ParallelStage::GroupBy {
            group_columns,
            aggs,
            sorted: true,
        } => Some(SortedFold::new(group_columns.clone(), aggs.clone())),
        _ => None,
    };
    if fold.is_some() || matches!(job, ParallelStage::Collect) {
        let mut out = Vec::new();
        while let Some((idx, morsel)) = queue.pop() {
            pipeline.feed(morsel);
            let mut batches = Vec::new();
            while let Some(b) = pipeline.pull()? {
                match &mut fold {
                    Some(fold) => fold.consume(&b)?,
                    None => batches.push(b),
                }
            }
            batches.extend(fold.as_mut().and_then(SortedFold::finish));
            out.push((idx, batches));
        }
        return Ok(WorkerOutput::Batches(out));
    }
    // One hash table (or sort buffer) per worker across all its morsels
    // ("partial aggregation per worker", not per morsel).
    let sorts = matches!(job, ParallelStage::Sort { .. });
    let source = Box::new(MorselSourceOp { queue, pipeline });
    let mut op = serial_stage(source, job, budget);
    Ok(if sorts {
        WorkerOutput::Run(crate::operator::collect_rows(op.as_mut())?)
    } else {
        WorkerOutput::Batches(vec![(0, drain(op.as_mut())?)])
    })
}

/// The single barrier: merge per-worker states into the final batch stream.
fn merge_outputs(
    outputs: Vec<WorkerOutput>,
    merge: BarrierMerge,
    budget: MemoryBudget,
) -> DbResult<Vec<Batch>> {
    let mut tagged: Vec<(usize, Vec<Batch>)> = Vec::new();
    let mut runs: Vec<Vec<Row>> = Vec::new();
    for out in outputs {
        match out {
            WorkerOutput::Batches(pairs) => tagged.extend(pairs),
            WorkerOutput::Run(run) => runs.push(run),
        }
    }
    // Morsel order == serial container order (+ WOS tail last).
    tagged.sort_by_key(|&(idx, _)| idx);
    let batches: Vec<Batch> = tagged.into_iter().flat_map(|(_, b)| b).collect();
    match merge {
        BarrierMerge::Concat => Ok(batches),
        BarrierMerge::GroupBy {
            keys,
            aggs,
            sorted,
            project,
        } => {
            // `project` is there exactly when the workers sent partial
            // groups rather than rows.
            let merged: BoxedOperator = match (&project, sorted) {
                (Some(_), true) => {
                    Box::new(ValuesOp::new(merge_sorted_partials(batches, keys, aggs)?))
                }
                _ => group_by_op(Box::new(ValuesOp::new(batches)), keys, aggs, sorted, budget),
            };
            let mut op: BoxedOperator = match project {
                Some(exprs) => Box::new(ProjectOp::new(merged, exprs)),
                None => merged,
            };
            drain(op.as_mut())
        }
        BarrierMerge::KWayMerge { keys } => Ok(kway_merge(runs, &keys)),
    }
}

/// The sorted group-by's barrier: stream the merge aggregates over the
/// morsel-ordered partials so that adjacent equal keys collapse. Each batch
/// is one morsel's partial groups, every row a distinct closed group — so
/// only a morsel's first and last rows can continue a neighbour's key, and
/// only they go through the streaming fold. The rows between are appended
/// as they are: merging one partial yields that partial.
fn merge_sorted_partials(
    batches: Vec<Batch>,
    keys: Vec<usize>,
    aggs: Vec<AggCall>,
) -> DbResult<Vec<Batch>> {
    let mut fold = SortedFold::new(keys, aggs);
    let mut out = Batch::default();
    let mut emit = |piece: Option<Batch>| piece.into_iter().for_each(|b| out.append(b));
    for batch in batches.into_iter().filter(|b| !b.is_empty()) {
        let batch = batch.compact();
        let n = batch.len() as u32;
        let rows = |range: std::ops::Range<u32>| SelectionVector::new(range.collect());
        fold.consume(&batch.materialized(&rows(0..1)))?;
        if n > 1 {
            // Row 1 has another key: the group row 0 went into is complete.
            emit(fold.finish());
            fold.consume(&batch.materialized(&rows(n - 1..n)))?;
            emit((n > 2).then(|| batch.with_selection(rows(1..n - 1))));
        }
    }
    emit(fold.finish());
    Ok(if out.is_empty() {
        Vec::new()
    } else {
        vec![out]
    })
}

fn drain(op: &mut dyn Operator) -> DbResult<Vec<Batch>> {
    let mut out = Vec::new();
    while let Some(b) = op.next_batch()? {
        out.push(b);
    }
    Ok(out)
}

/// K-way merge of per-worker sorted runs (ties broken by run index).
fn kway_merge(runs: Vec<Vec<Row>>, keys: &[SortKey]) -> Vec<Batch> {
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut cursors: Vec<(std::vec::IntoIter<Row>, Option<Row>)> = runs
        .into_iter()
        .map(|r| {
            let mut it = r.into_iter();
            let head = it.next();
            (it, head)
        })
        .collect();
    let mut merged = Vec::with_capacity(total);
    loop {
        let mut best: Option<usize> = None;
        for i in 0..cursors.len() {
            let Some(candidate) = &cursors[i].1 else {
                continue;
            };
            best = Some(match best {
                None => i,
                Some(j) => {
                    let current = cursors[j].1.as_ref().map_or(candidate, |r| r);
                    if compare_rows(candidate, current, keys) == std::cmp::Ordering::Less {
                        i
                    } else {
                        j
                    }
                }
            });
        }
        let Some(i) = best else { break };
        let next = cursors[i].0.next();
        if let Some(row) = std::mem::replace(&mut cursors[i].1, next) {
            merged.push(row);
        }
    }
    merged
        .chunks(BATCH_SIZE)
        .map(|c| Batch::from_rows(c.to_vec()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::operator::collect_rows;
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{BinOp, ColumnDef, DataType, Epoch, TableSchema, Value};

    /// `chunks` containers of `(g, v)` rows, `g = v % 13`, plus a small WOS
    /// tail.
    fn make_store(rows: i64, chunks: usize) -> ProjectionStore {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("g", DataType::Integer),
                ColumnDef::new("v", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[1], &[]);
        let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        let all: Vec<Row> = (0..rows)
            .map(|i| vec![Value::Integer(i % 13), Value::Integer(i)])
            .collect();
        for chunk in all.chunks((rows as usize).div_ceil(chunks.max(1))) {
            store.insert_direct_ros(chunk.to_vec(), Epoch(1)).unwrap();
        }
        store
            .insert_wos(
                vec![vec![Value::Integer(99), Value::Integer(rows)]],
                Epoch(1),
            )
            .unwrap();
        store
    }

    fn spec_of(store: &ProjectionStore) -> ParallelScanSpec {
        ParallelScanSpec::new(store.backend().clone(), vec![0, 1])
    }

    fn morsels_of(store: &ProjectionStore) -> SnapshotScan {
        store.scan_snapshot(Epoch(1))
    }

    fn serial_scan(store: &ProjectionStore) -> Vec<Row> {
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
        collect_rows(&mut scan).unwrap()
    }

    #[test]
    fn collect_reproduces_serial_scan_order() {
        let store = make_store(5000, 4);
        let expected = serial_scan(&store);
        for threads in [1, 2, 7] {
            let mut op = ParallelScanOp::new(
                spec_of(&store),
                ParallelStage::Collect,
                morsels_of(&store),
                threads,
                MemoryBudget::unlimited(),
            );
            let got = collect_rows(&mut op).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_groupby_matches_serial() {
        let store = make_store(20_000, 5);
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Avg, 1, "avg"),
            AggCall::new(AggFunc::Min, 1, "min"),
            AggCall::new(AggFunc::Max, 1, "max"),
        ];
        let snap = store.scan_snapshot(Epoch(1));
        let mut serial = HashGroupByOp::new(
            Box::new(ScanOperator::new(
                store.backend().clone(),
                snap.containers,
                snap.wos_rows,
                vec![0, 1],
                None,
                None,
                vec![],
            )),
            vec![0],
            aggs.clone(),
            MemoryBudget::unlimited(),
        );
        let expected = collect_rows(&mut serial).unwrap();
        for threads in [1, 2, 7] {
            let mut op = ParallelScanOp::new(
                spec_of(&store),
                ParallelStage::GroupBy {
                    group_columns: vec![0],
                    aggs: aggs.clone(),
                    sorted: false,
                },
                morsels_of(&store),
                threads,
                MemoryBudget::unlimited(),
            );
            let got = collect_rows(&mut op).unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    /// `(g, x, y)` sorted by `g`: one container three morsels long whose
    /// key runs (3000 rows) straddle blocks and morsels, a second container
    /// in which the keys start over, and a WOS tail. `x` is exactly
    /// representable (any grouping of its sums is exact), `y` is not.
    fn make_sorted_store() -> ProjectionStore {
        use vdb_storage::store::MORSEL_BLOCKS;
        let schema = TableSchema::new(
            "s",
            vec![
                ColumnDef::new("g", DataType::Integer),
                ColumnDef::new("x", DataType::Float),
                ColumnDef::new("y", DataType::Float),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "s_super", &[0], &[]);
        let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        let row = |i: usize| {
            let y = 0.1 * i as f64 + if i.is_multiple_of(7) { 1e15 } else { 0.0 };
            vec![
                Value::Integer(i as i64 / 3000),
                Value::Float((i % 4001) as f64 * 0.25),
                Value::Float(y),
            ]
        };
        let long = 2 * MORSEL_BLOCKS * vdb_encoding::BLOCK_SIZE + 5000;
        store
            .insert_direct_ros((0..long).map(row).collect(), Epoch(1))
            .unwrap();
        store
            .insert_direct_ros((0..7000).map(row).collect(), Epoch(1))
            .unwrap();
        store
            .insert_wos((6000..6100).map(row).collect(), Epoch(1))
            .unwrap();
        assert!(store.morsel_count() >= 5);
        store
    }

    /// The sorted-input strategy inside the morsel framework: per-morsel
    /// streaming partials merged by a morsel-ordered streaming barrier
    /// answer what the serial streaming operator answers — keys that start
    /// over in the next container stay separate rows in both — and a float
    /// SUM over inexact data has the same bits at every DoP ≥ 2, run after
    /// run, because partials meet in morsel order.
    #[test]
    fn sorted_groupby_streams_per_morsel_and_matches_serial() {
        let store = make_sorted_store();
        let exact = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Avg, 1, "avg"),
            AggCall::new(AggFunc::Min, 1, "min"),
            AggCall::new(AggFunc::Max, 2, "max"),
        ];
        let inexact = vec![
            AggCall::new(AggFunc::Sum, 2, "sum"),
            AggCall::new(AggFunc::Avg, 2, "avg"),
        ];
        let spec = || {
            let mut spec = ParallelScanSpec::new(store.backend().clone(), vec![0, 1, 2]);
            // Empties a whole key run and thins the others.
            spec.predicate = Some(Expr::and(
                Expr::binary(BinOp::Ne, Expr::col(0, "g"), Expr::int(3)),
                Expr::binary(BinOp::Lt, Expr::col(1, "x"), Expr::lit(Value::Float(900.0))),
            ));
            spec
        };
        let serial = |aggs: &[AggCall]| {
            let stats = Arc::new(Mutex::new(ScanStats::default()));
            let morsels = spec().cut(&morsels_of(&store), &stats).unwrap();
            let scan = spec().scan_of(morsels, &stats);
            let mut op = PipelinedGroupByOp::new(Box::new(scan), vec![0], aggs.to_vec());
            collect_rows(&mut op).unwrap()
        };
        let parallel = |aggs: &[AggCall], threads: usize| {
            let stage = ParallelStage::GroupBy {
                group_columns: vec![0],
                aggs: aggs.to_vec(),
                sorted: true,
            };
            let mut op = ParallelScanOp::new(
                spec(),
                stage,
                morsels_of(&store),
                threads,
                MemoryBudget::unlimited(),
            );
            let rows = collect_rows(&mut op).unwrap();
            assert_eq!(op.threads_used(), threads.min(store.morsel_count()));
            rows
        };
        let want = serial(&exact);
        let keys: Vec<i64> = want.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let restart = keys.iter().skip(1).position(|&g| g == keys[0]);
        assert!(
            restart.is_some_and(|at| at > 10),
            "keys start over: {keys:?}"
        );
        assert!(!keys.contains(&3), "the emptied run leaves no group");
        for threads in [1, 2, 7] {
            assert_eq!(parallel(&exact, threads), want, "threads={threads}");
        }
        let two = parallel(&inexact, 2);
        assert_eq!(two.len(), want.len());
        for _ in 0..3 {
            assert_eq!(
                parallel(&inexact, 7),
                two,
                "SUM bits moved with the DoP or the run"
            );
        }
        assert_eq!(
            parallel(&inexact, 1),
            serial(&inexact),
            "one lane is the serial operator"
        );
    }

    /// Sorted input never meets a hash table: the workers' job and the
    /// barrier's merge are both the streaming operator, decomposable
    /// aggregates or not.
    #[test]
    fn sorted_stage_streams_in_the_workers_and_at_the_barrier() {
        for func in [AggFunc::Avg, AggFunc::CountDistinct] {
            let (job, merge) = resolve_stage(ParallelStage::GroupBy {
                group_columns: vec![0],
                aggs: vec![AggCall::new(func, 1, "agg")],
                sorted: true,
            });
            let per_morsel_fold = matches!(job, ParallelStage::GroupBy { sorted: true, .. });
            assert_eq!(per_morsel_fold, func == AggFunc::Avg, "{job:?}");
            let BarrierMerge::GroupBy {
                keys,
                aggs,
                sorted,
                project,
            } = merge
            else {
                panic!("a group-by stage merges by group-by");
            };
            // Partials go through `merge_sorted_partials` (a `SortedFold`);
            // rows that could not be pre-aggregated through the operator.
            assert_eq!(project.is_some(), per_morsel_fold);
            let source = Box::new(ValuesOp::new(Vec::new()));
            let barrier = group_by_op(source, keys, aggs, sorted, MemoryBudget::unlimited());
            assert!(barrier.name().starts_with("GroupByPipelined"), "{func:?}");
        }
    }

    #[test]
    fn count_distinct_falls_back_to_barrier_aggregation() {
        let store = make_store(3000, 3);
        let aggs = vec![AggCall::new(AggFunc::CountDistinct, 1, "d")];
        let mut op = ParallelScanOp::new(
            spec_of(&store),
            ParallelStage::GroupBy {
                group_columns: vec![0],
                aggs,
                sorted: false,
            },
            morsels_of(&store),
            4,
            MemoryBudget::unlimited(),
        );
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got.len(), 14, "13 cyclic groups + the WOS group");
    }

    #[test]
    fn parallel_sort_merges_runs() {
        let store = make_store(8000, 4);
        let keys = vec![SortKey::asc(0), SortKey::desc(1)];
        for threads in [1, 3] {
            let mut op = ParallelScanOp::new(
                spec_of(&store),
                ParallelStage::Sort { keys: keys.clone() },
                morsels_of(&store),
                threads,
                MemoryBudget::unlimited(),
            );
            let got = collect_rows(&mut op).unwrap();
            assert_eq!(got.len(), 8001);
            assert!(got
                .windows(2)
                .all(|w| compare_rows(&w[0], &w[1], &keys) != std::cmp::Ordering::Greater));
        }
    }

    #[test]
    fn predicate_and_stats_shared_across_workers() {
        let store = make_store(10_000, 5);
        let mut spec = spec_of(&store);
        spec.predicate = Some(Expr::binary(BinOp::Ge, Expr::col(1, "v"), Expr::int(5000)));
        let mut op = ParallelScanOp::new(
            spec,
            ParallelStage::Collect,
            morsels_of(&store),
            4,
            MemoryBudget::unlimited(),
        );
        let stats = op.stats();
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got.len(), 5001, "5000..9999 plus the WOS row");
        let s = stats.lock().clone();
        assert_eq!(s.containers_total, 5);
        assert!(s.rows_scanned >= 5001);
        assert!(op.threads_used() > 1);
    }

    #[test]
    fn worker_errors_surface_as_dbresult() {
        let store = make_store(2000, 4);
        let mut spec = spec_of(&store);
        // Type error at eval time: v + 'x' fails inside the workers.
        spec.predicate = Some(Expr::binary(
            BinOp::Add,
            Expr::col(1, "v"),
            Expr::lit(Value::Varchar("x".into())),
        ));
        let mut op = ParallelScanOp::new(
            spec,
            ParallelStage::Collect,
            morsels_of(&store),
            4,
            MemoryBudget::unlimited(),
        );
        let err = collect_rows(&mut op);
        assert!(err.is_err(), "worker failure must propagate: {err:?}");
    }

    #[test]
    fn threads_clamp_to_morsel_count() {
        let store = make_store(100, 1);
        let mut op = ParallelScanOp::new(
            spec_of(&store),
            ParallelStage::Collect,
            morsels_of(&store),
            64,
            MemoryBudget::unlimited(),
        );
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got.len(), 101);
        assert_eq!(op.threads_used(), 2, "1 container + WOS tail = 2 morsels");
    }

    /// One large container no longer means one worker: it is cut into
    /// block-range morsels, and the cut happens after pruning, so a
    /// predicate that leaves one block leaves one morsel — run inline.
    #[test]
    fn one_container_splits_across_workers_unless_pruned_to_one_morsel() {
        use vdb_storage::store::MORSEL_BLOCKS;
        let rows = (3 * MORSEL_BLOCKS * vdb_encoding::BLOCK_SIZE) as i64;
        let store = make_store(rows, 1);
        assert_eq!(store.container_count(), 1);
        assert_eq!(store.morsel_count(), 3 + 1, "three block ranges + WOS");
        let expected = serial_scan(&store);
        let mut op = ParallelScanOp::new(
            spec_of(&store),
            ParallelStage::Collect,
            morsels_of(&store),
            64,
            MemoryBudget::unlimited(),
        );
        assert_eq!(collect_rows(&mut op).unwrap(), expected);
        assert_eq!(op.threads_used(), 4);

        // With the WOS row moved out (into a container the predicate's
        // bounds prune) a point predicate leaves one block of one container.
        let mut store = store;
        store.moveout(Epoch(1)).unwrap();
        let mut spec = spec_of(&store);
        spec.predicate = Some(Expr::eq(Expr::col(1, "v"), Expr::int(20_000)));
        let mut op = ParallelScanOp::new(
            spec,
            ParallelStage::Collect,
            morsels_of(&store),
            64,
            MemoryBudget::unlimited(),
        );
        let stats = op.stats();
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(
            got,
            vec![vec![Value::Integer(20_000 % 13), Value::Integer(20_000)]]
        );
        assert_eq!(op.threads_used(), 1, "one surviving block: inline");
        let s = stats.lock().clone();
        assert_eq!(s.containers_pruned_minmax, 1);
        assert_eq!(s.blocks_total - s.blocks_pruned, 1);
        assert_eq!(s.rows_scanned, 1024);
    }

    #[test]
    fn morsel_queue_dispenses_heaviest_first() {
        let weighted = |rows: usize| ScanMorsel::Wos(vec![Vec::new(); rows]);
        let queue = MorselQueue::new(vec![weighted(1), weighted(5), weighted(3)]);
        let order: Vec<(usize, u64)> = std::iter::from_fn(|| queue.pop())
            .map(|(idx, m)| (idx, m.rows()))
            .collect();
        assert_eq!(order, vec![(1, 5), (2, 3), (0, 1)], "LPT with index tags");
    }

    #[test]
    fn worker_budget_splits_across_lanes() {
        // A budget that fits one serial hash table but not four workers'
        // worth each: the split budget forces spills, results stay exact.
        let store = make_store(20_000, 5);
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
        ];
        let mut op = ParallelScanOp::new(
            spec_of(&store),
            ParallelStage::GroupBy {
                group_columns: vec![1], // v is unique: 20k groups
                aggs: aggs.clone(),
                sorted: false,
            },
            morsels_of(&store),
            4,
            MemoryBudget::new(256 * 1024),
        );
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got.len(), 20_001, "unique v groups + WOS row");
    }

    #[test]
    fn exec_options_env_round_trip() {
        assert_eq!(ExecOptions::serial().threads, 1);
        assert_eq!(ExecOptions::with_threads(0).threads, 1);
        assert!(ExecOptions::from_env().threads >= 1);
    }
}
