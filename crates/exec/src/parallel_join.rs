//! Morsel-parallel hash join over ROS containers (§5 + §6.1).
//!
//! The paper's join performance comes from parallel partitioned hash joins
//! tightly coupled with sideways information passing into the scan. This
//! module extends the PR 3 morsel framework ([`crate::parallel`]) to joins.
//! Both sides are pruned on their position indexes and cut into
//! (container, block range) morsels before either is read, so a side
//! stored as one large container still feeds every worker:
//!
//! ```text
//!   build side (right)                      probe side (left)
//!   ┌──── morsel queue ────┐                ┌──── morsel queue ────┐
//!   │ r1[0..16) │ … │ WOS  │                │ r1[0..16) │ … │ WOS  │
//!   └──┬──────┬───────┬────┘                └──┬──────┬───────┬────┘
//!   worker 0..B: scan → hash-partition      worker 0..P: scan → SIP →
//!   rows into B per-worker buckets          predicate → typed probe of the
//!      └──────┴───────┘                     merged partition tables
//!     build barrier: merge buckets             └──────┴───────┘
//!     per partition (seq-sorted), then      probe waves: one morsel per
//!     publish the SIP filter                worker, output in morsel order
//! ```
//!
//! * **Partitioned build, no locks.** Each build worker pulls morsels and
//!   hash-partitions rows by the combined key hash ([`SipFilter::key_hash`]
//!   over [`Value::hash64`], i.e. the `Value::hash64_of_*` family) into its
//!   own `B` buckets — workers never share a hash table. The barrier merges
//!   bucket `p` from every worker into partition table `p`; entries are
//!   sorted by their build-scan sequence number first, so per-key row lists
//!   match the serial [`HashJoinOp`]'s insertion order exactly.
//! * **SIP publication at the barrier.** Once the partition tables exist,
//!   the distinct key hashes (already computed for partitioning) are
//!   published to the attached [`SipFilter`] — probe-side workers have not
//!   started yet, so every probe scan sees a ready filter, exactly like the
//!   serial pull model.
//! * **Typed vectorized probe, in waves.** The probe side runs one wave
//!   of morsels at a time — one morsel per worker — and each wave's joined
//!   output streams downstream before the next wave starts, so the
//!   operator holds the output of `threads` morsels, never of the whole
//!   probe side. Probe workers scan their morsel and probe
//!   [`crate::vector::TypedVector`] key columns natively: i64/f64 keys hash
//!   via `Value::hash64_of_*` without constructing a `Value` per row,
//!   dictionary-coded keys probe once per distinct code, RLE keys once per
//!   run. SEMI/ANTI matches become a [`crate::vector::SelectionVector`]
//!   refinement of the batch (zero-copy); the emitting flavors gather
//!   probe-side columns at the match positions and transpose the matched
//!   build rows — no row pivot anywhere on the probe path.
//! * **Memory.** The operator's budget covers the whole build side. If the
//!   build exceeds it, the operator falls back to the serial [`HashJoinOp`]
//!   over the same morsels, which externalizes to sort-merge (§6.1
//!   algorithm switching).
//! * **Failures.** Worker lanes are tasks on the shared process-wide pool
//!   ([`crate::pool`]; no per-query thread spawning) and return `DbResult`
//!   through the task set's result slots — no `unwrap` on worker lanes;
//!   `threads = 1` runs inline.

use crate::batch::Batch;
use crate::join::{key_of, HashJoinOp, JoinType};
use crate::memory::MemoryBudget;
use crate::operator::{BoxedOperator, Operator};
use crate::parallel::{MorselQueue, ParallelScanSpec};
use crate::scan::ScanStats;
use crate::sip::SipFilter;
use crate::vector::VectorData;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdb_storage::store::{ScanMorsel, SnapshotScan};
use vdb_types::{DbError, DbResult, Row, Value};

/// Everything the operator needs to run both sides of the join.
pub struct ParallelJoinSpec {
    /// Probe (left) side scan parameters; its `sip` bindings may include
    /// the filter this very join publishes.
    pub probe: ParallelScanSpec,
    pub probe_snapshot: SnapshotScan,
    /// Probe-side degree of parallelism (clamped to the number of morsels
    /// that survive pruning).
    pub probe_threads: usize,
    /// Build (right) side scan parameters.
    pub build: ParallelScanSpec,
    pub build_snapshot: SnapshotScan,
    /// Build-side degree of parallelism; also the partition fan-out.
    pub build_threads: usize,
    /// Key columns over the probe scan's output.
    pub left_keys: Vec<usize>,
    /// Key columns over the build scan's output.
    pub right_keys: Vec<usize>,
    pub join_type: JoinType,
    /// SIP filter this join publishes at the build barrier.
    pub sip: Option<Arc<SipFilter>>,
}

/// One build-side entry awaiting the merge barrier: `(sequence, combined
/// key hash, key, row)`. The sequence encodes `(morsel index, row within
/// morsel)` so the barrier can restore serial build-insertion order.
type BuildEntry = (u64, u64, Vec<Value>, Row);

/// Merged build side: one table per partition, specialized like the serial
/// [`HashJoinOp`] for the dominant single-column-key case.
enum BuildTables {
    One(Vec<HashMap<Value, Vec<Row>>>),
    Many(Vec<HashMap<Vec<Value>, Vec<Row>>>),
}

impl BuildTables {
    fn partitions(&self) -> usize {
        match self {
            BuildTables::One(p) => p.len(),
            BuildTables::Many(p) => p.len(),
        }
    }

    /// Partition index for a combined key hash.
    #[inline]
    fn part_of(&self, kh: u64) -> usize {
        (kh % self.partitions() as u64) as usize
    }

    /// Single-key lookup with a precomputed [`Value::hash64`] — the typed
    /// probe path's entry point (no `Value` is constructed for the hash).
    #[inline]
    fn lookup_hashed(&self, value_hash: u64, key: &Value) -> Option<&Vec<Row>> {
        let kh = SipFilter::key_hash_of_one(value_hash);
        match self {
            BuildTables::One(parts) => parts[self.part_of(kh)].get(key),
            BuildTables::Many(_) => None,
        }
    }

    /// Single-key lookup from a borrowed `Value` (plain/RLE columns).
    fn lookup_one(&self, key: &Value) -> Option<&Vec<Row>> {
        if key.is_null() {
            return None;
        }
        self.lookup_hashed(key.hash64(), key)
    }

    /// Multi-column lookup (cold path).
    fn lookup_many(&self, key: &[Value]) -> Option<&Vec<Row>> {
        let refs: Vec<&Value> = key.iter().collect();
        let kh = SipFilter::key_hash(&refs);
        match self {
            BuildTables::Many(parts) => parts[self.part_of(kh)].get(key),
            BuildTables::One(_) => None,
        }
    }
}

/// Combined key hash matching [`SipFilter::key_hash`], from an owned key.
fn combined_hash(key: &[Value]) -> u64 {
    let refs: Vec<&Value> = key.iter().collect();
    SipFilter::key_hash(&refs)
}

/// The morsel-parallel partitioned hash join. Blocking on its build side
/// (the build barrier makes it a plan zone boundary); probe output then
/// streams wave by wave. Supports the join flavors that emit only during the
/// probe — INNER, LEFT OUTER, SEMI, ANTI; the planner keeps
/// RIGHT/FULL OUTER (which need build-side matched flags) on the serial
/// operator.
///
/// The operator counts as stateful for the §6.1 memory split: its
/// [`MemoryBudget`] bounds the build side, and beyond that it holds one
/// probe wave's joined output at a time (the serial join streams batch by
/// batch).
pub struct ParallelHashJoinOp {
    join_type: JoinType,
    pending: Option<(ParallelJoinSpec, MemoryBudget)>,
    /// The current probe wave's joined output, streaming out.
    output: std::vec::IntoIter<Batch>,
    /// The probe side's remaining morsels, once the build barrier is past.
    probe: Option<ProbePhase>,
    /// Serial fallback when the parallel build exceeds its budget.
    fallback: Option<BoxedOperator>,
    probe_stats: Arc<Mutex<ScanStats>>,
    build_stats: Arc<Mutex<ScanStats>>,
    build_threads_used: usize,
    probe_threads_used: usize,
    switched_to_serial: bool,
    build_ms: f64,
    probe_ms: f64,
}

impl ParallelHashJoinOp {
    pub fn new(spec: ParallelJoinSpec, budget: MemoryBudget) -> ParallelHashJoinOp {
        ParallelHashJoinOp {
            join_type: spec.join_type,
            pending: Some((spec, budget)),
            output: Vec::new().into_iter(),
            probe: None,
            fallback: None,
            probe_stats: Arc::new(Mutex::new(ScanStats::default())),
            build_stats: Arc::new(Mutex::new(ScanStats::default())),
            build_threads_used: 0,
            probe_threads_used: 0,
            switched_to_serial: false,
            build_ms: 0.0,
            probe_ms: 0.0,
        }
    }

    /// Probe-side scan stats handle (inspect after draining).
    pub fn probe_stats(&self) -> Arc<Mutex<ScanStats>> {
        self.probe_stats.clone()
    }

    /// Did the build overflow its budget and switch to the serial
    /// (externalizing) hash join?
    pub fn switched_to_serial(&self) -> bool {
        self.switched_to_serial
    }

    /// Workers actually launched per phase (after clamping).
    pub fn threads_used(&self) -> (usize, usize) {
        (self.build_threads_used, self.probe_threads_used)
    }

    /// Wall-clock spent in the build (scan + partition + merge + SIP) and
    /// probe phases, in milliseconds.
    pub fn phase_ms(&self) -> (f64, f64) {
        (self.build_ms, self.probe_ms)
    }

    fn run(&mut self, spec: ParallelJoinSpec, budget: MemoryBudget) -> DbResult<()> {
        if !matches!(
            spec.join_type,
            JoinType::Inner | JoinType::LeftOuter | JoinType::Semi | JoinType::Anti
        ) {
            return Err(DbError::Plan(format!(
                "parallel hash join does not support {} joins",
                spec.join_type.name()
            )));
        }
        // Prune and cut both sides before reading either (pruning needs
        // the predicates only, not the SIP filter the build will publish).
        let build_morsels = spec.build.cut(&spec.build_snapshot, &self.build_stats)?;
        let probe_morsels = spec.probe.cut(&spec.probe_snapshot, &self.probe_stats)?;
        let build_threads = spec.build_threads.clamp(1, build_morsels.len().max(1));
        let probe_threads = spec.probe_threads.clamp(1, probe_morsels.len().max(1));
        self.build_threads_used = build_threads;
        self.probe_threads_used = probe_threads;

        // Degenerate DoP 1 on both sides: hash-partitioning, the merge
        // barrier, and materialized probe output buy nothing without
        // parallelism — they only add copies over the serial operator.
        // Delegate to the serial hash join over the same morsels (identical
        // output order, streaming probe, same SIP publication point). This
        // is a plan-shape decision, not an overflow, so `switched_to_serial`
        // stays false.
        if build_threads <= 1 && probe_threads <= 1 {
            let t = Instant::now();
            let left = spec.probe.scan_of(probe_morsels, &self.probe_stats);
            let right = spec.build.scan_of(build_morsels, &self.build_stats);
            self.fallback = Some(Box::new(HashJoinOp::new(
                Box::new(left),
                Box::new(right),
                spec.left_keys,
                spec.right_keys,
                spec.join_type,
                budget,
                spec.sip,
            )));
            self.build_ms = t.elapsed().as_secs_f64() * 1000.0;
            return Ok(());
        }

        // ---- Phase 1: partitioned parallel build --------------------------
        let t = Instant::now();
        let queue = Arc::new(MorselQueue::new(build_morsels.clone()));
        let overflow = Arc::new(AtomicBool::new(false));
        let used_bytes = Arc::new(AtomicUsize::new(0));
        let bucket_sets: Vec<Vec<Vec<BuildEntry>>> = if build_threads <= 1 {
            vec![run_build_worker(
                &queue,
                &spec.build,
                &spec.right_keys,
                build_threads,
                budget,
                &used_bytes,
                &overflow,
                &self.build_stats,
            )?]
        } else {
            let jobs: Vec<crate::pool::Job<Vec<Vec<BuildEntry>>>> = (0..build_threads)
                .map(|_| {
                    let queue = queue.clone();
                    let bspec = spec.build.clone();
                    let keys = spec.right_keys.clone();
                    let used = used_bytes.clone();
                    let overflow = overflow.clone();
                    let stats = self.build_stats.clone();
                    Box::new(move || {
                        run_build_worker(
                            &queue,
                            &bspec,
                            &keys,
                            build_threads,
                            budget,
                            &used,
                            &overflow,
                            &stats,
                        )
                    }) as crate::pool::Job<Vec<Vec<BuildEntry>>>
                })
                .collect();
            crate::pool::shared().run_tasks(jobs, "parallel join build worker")?
        };
        if overflow.load(Ordering::Relaxed) {
            // Budget exceeded: hand both sides to the serial hash join,
            // which re-detects the overflow and externalizes to sort-merge.
            self.switched_to_serial = true;
            self.build_ms = t.elapsed().as_secs_f64() * 1000.0;
            let left = spec.probe.scan_of(probe_morsels, &self.probe_stats);
            let right = spec.build.scan_of(build_morsels, &self.build_stats);
            self.fallback = Some(Box::new(HashJoinOp::new(
                Box::new(left),
                Box::new(right),
                spec.left_keys,
                spec.right_keys,
                spec.join_type,
                budget,
                spec.sip,
            )));
            return Ok(());
        }

        // ---- Build barrier: merge partitions, publish SIP -----------------
        let single_key = spec.right_keys.len() == 1;
        let mut parts: Vec<Vec<BuildEntry>> = (0..build_threads).map(|_| Vec::new()).collect();
        for buckets in bucket_sets {
            for (p, bucket) in buckets.into_iter().enumerate() {
                parts[p].extend(bucket);
            }
        }
        let merged: Vec<(PartitionTable, Vec<u64>)> = if build_threads <= 1 {
            parts
                .into_iter()
                .map(|p| merge_partition(p, single_key))
                .collect()
        } else {
            let jobs: Vec<crate::pool::Job<(PartitionTable, Vec<u64>)>> = parts
                .into_iter()
                .map(|p| {
                    Box::new(move || Ok(merge_partition(p, single_key)))
                        as crate::pool::Job<(PartitionTable, Vec<u64>)>
                })
                .collect();
            crate::pool::shared().run_tasks(jobs, "parallel join merge worker")?
        };
        if let Some(sip) = &spec.sip {
            sip.publish_iter(merged.iter().flat_map(|(_, hashes)| hashes.iter().copied()));
        }
        let tables = if single_key {
            BuildTables::One(
                merged
                    .into_iter()
                    .map(|(t, _)| match t {
                        PartitionTable::One(m) => m,
                        PartitionTable::Many(_) => HashMap::new(),
                    })
                    .collect(),
            )
        } else {
            BuildTables::Many(
                merged
                    .into_iter()
                    .map(|(t, _)| match t {
                        PartitionTable::Many(m) => m,
                        PartitionTable::One(_) => HashMap::new(),
                    })
                    .collect(),
            )
        };
        self.build_ms = t.elapsed().as_secs_f64() * 1000.0;

        // ---- Phase 2: parallel typed probe, a wave at a time --------------
        self.probe = Some(ProbePhase {
            morsels: probe_morsels.into(),
            threads: probe_threads,
            prober: Arc::new(Prober {
                right_arity: spec.build.output_columns.len(),
                spec: spec.probe,
                tables,
                left_keys: spec.left_keys,
                join_type: spec.join_type,
                stats: self.probe_stats.clone(),
            }),
        });
        Ok(())
    }
}

/// The probe side after the build barrier. It runs in **waves** of one
/// morsel per worker, each wave's joined output handed downstream before
/// the next wave starts, so the operator holds what `threads` morsels
/// produce — not the whole joined probe side, which for a fact table
/// dwarfs anything else the query allocates.
struct ProbePhase {
    /// Probe morsels not yet run, in snapshot order.
    morsels: std::collections::VecDeque<ScanMorsel>,
    threads: usize,
    prober: Arc<Prober>,
}

/// What every probe worker needs, shared.
struct Prober {
    spec: ParallelScanSpec,
    tables: BuildTables,
    left_keys: Vec<usize>,
    join_type: JoinType,
    right_arity: usize,
    stats: Arc<Mutex<ScanStats>>,
}

impl ProbePhase {
    /// Probe the next `threads` morsels, one per worker, and return their
    /// joined output in morsel order — which is the serial probe's order.
    fn next_wave(&mut self) -> DbResult<Vec<Batch>> {
        let n = self.threads.min(self.morsels.len());
        if n == 1 {
            // A lone morsel runs inline on the calling thread.
            return self
                .morsels
                .pop_front()
                .map_or(Ok(Vec::new()), |m| self.prober.probe(m));
        }
        let jobs: Vec<crate::pool::Job<Vec<Batch>>> = self
            .morsels
            .drain(..n)
            .map(|morsel| {
                let prober = self.prober.clone();
                Box::new(move || prober.probe(morsel)) as crate::pool::Job<Vec<Batch>>
            })
            .collect();
        let outputs = crate::pool::shared().run_tasks(jobs, "parallel join probe worker")?;
        Ok(outputs.into_iter().flatten().collect())
    }
}

impl Prober {
    /// Probe one morsel: run the scan pipeline (visibility, SIP, predicate)
    /// over it and join each surviving batch against the partition tables.
    fn probe(&self, morsel: ScanMorsel) -> DbResult<Vec<Batch>> {
        let mut scan = self.spec.scan_of(vec![morsel], &self.stats);
        let mut out: Vec<Batch> = Vec::new();
        while let Some(batch) = scan.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            probe_batch(
                batch,
                &self.tables,
                &self.left_keys,
                self.join_type,
                self.right_arity,
                &mut out,
            );
        }
        Ok(out)
    }
}

impl Operator for ParallelHashJoinOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some((spec, budget)) = self.pending.take() {
            self.run(spec, budget)?;
        }
        if let Some(fb) = &mut self.fallback {
            return fb.next_batch();
        }
        loop {
            if let Some(batch) = self.output.next() {
                return Ok(Some(batch));
            }
            let Some(probe) = self.probe.as_mut().filter(|p| !p.morsels.is_empty()) else {
                return Ok(None);
            };
            let t = Instant::now();
            self.output = probe.next_wave()?.into_iter();
            self.probe_ms += t.elapsed().as_secs_f64() * 1000.0;
        }
    }

    fn name(&self) -> String {
        format!("ParallelHashJoin({})", self.join_type.name())
    }
}

/// One build worker: pull morsels, scan, hash-partition keyed rows into
/// this worker's private buckets. NULL-keyed rows are dropped (they can
/// never match, and the supported flavors never emit build-side rows).
#[allow(clippy::too_many_arguments)]
fn run_build_worker(
    queue: &Arc<MorselQueue>,
    spec: &ParallelScanSpec,
    right_keys: &[usize],
    nparts: usize,
    budget: MemoryBudget,
    used_bytes: &AtomicUsize,
    overflow: &AtomicBool,
    stats: &Arc<Mutex<ScanStats>>,
) -> DbResult<Vec<Vec<BuildEntry>>> {
    let mut buckets: Vec<Vec<BuildEntry>> = (0..nparts).map(|_| Vec::new()).collect();
    let mut scan = spec.open(stats);
    while let Some((idx, morsel)) = queue.pop() {
        if overflow.load(Ordering::Relaxed) {
            break; // another worker tripped the budget; fallback rescans
        }
        scan.push_morsel(morsel);
        let mut row_no: u64 = 0;
        while let Some(batch) = scan.next_batch()? {
            let bytes = batch.approx_bytes();
            let total = used_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            if budget.exceeded_by(total) {
                overflow.store(true, Ordering::Relaxed);
                return Ok(buckets);
            }
            for row in batch.into_rows() {
                let seq = ((idx as u64) << 32) | row_no;
                row_no += 1;
                if let Some(key) = key_of(&row, right_keys) {
                    let kh = combined_hash(&key);
                    buckets[(kh % nparts as u64) as usize].push((seq, kh, key, row));
                }
            }
        }
    }
    Ok(buckets)
}

/// One merged partition plus the distinct key hashes it contributes to the
/// SIP filter.
enum PartitionTable {
    One(HashMap<Value, Vec<Row>>),
    Many(HashMap<Vec<Value>, Vec<Row>>),
}

/// Merge one partition's entries (from every build worker) into its final
/// table. Sorting by the build-scan sequence number first makes each key's
/// row list identical to the serial operator's insertion order, so the
/// parallel join's output is row-for-row equal to [`HashJoinOp`]'s.
fn merge_partition(mut entries: Vec<BuildEntry>, single_key: bool) -> (PartitionTable, Vec<u64>) {
    entries.sort_unstable_by_key(|e| e.0);
    let mut hashes = Vec::new();
    if single_key {
        let mut map: HashMap<Value, Vec<Row>> = HashMap::new();
        for (_, kh, mut key, row) in entries {
            let Some(k) = key.pop() else { continue };
            match map.entry(k) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    hashes.push(kh);
                    e.insert(vec![row]);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(row),
            }
        }
        (PartitionTable::One(map), hashes)
    } else {
        let mut map: HashMap<Vec<Value>, Vec<Row>> = HashMap::new();
        for (_, kh, key, row) in entries {
            match map.entry(key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    hashes.push(kh);
                    e.insert(vec![row]);
                }
                std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().push(row),
            }
        }
        (PartitionTable::Many(map), hashes)
    }
}

/// Per-logical-row lookup results for one batch: the typed vectorized
/// probe path. Native i64/f64 key hashing, one probe per distinct
/// dictionary code, one probe per RLE run; `Value`-per-row construction
/// only on the plain / multi-column cold paths.
fn probe_hits<'t>(
    batch: &Batch,
    tables: &'t BuildTables,
    left_keys: &[usize],
) -> Vec<Option<&'t Vec<Row>>> {
    let cands: Vec<u32> = match batch.selection() {
        Some(sel) => sel.indices().to_vec(),
        None => (0..batch.physical_len() as u32).collect(),
    };
    if let (BuildTables::One(_), [only]) = (tables, left_keys) {
        return match &batch.columns[*only] {
            crate::batch::ColumnSlice::Typed(tv) => match tv.data() {
                VectorData::Int64(xs) | VectorData::Timestamp(xs) => cands
                    .into_iter()
                    .map(|i| {
                        let i = i as usize;
                        tv.is_valid(i).then(|| {
                            tables
                                .lookup_hashed(Value::hash64_of_i64(xs[i]), &Value::Integer(xs[i]))
                        })?
                    })
                    .collect(),
                VectorData::Float64(xs) => cands
                    .into_iter()
                    .map(|i| {
                        let i = i as usize;
                        tv.is_valid(i).then(|| {
                            tables.lookup_hashed(Value::hash64_of_f64(xs[i]), &Value::Float(xs[i]))
                        })?
                    })
                    .collect(),
                VectorData::Bool(bits) => cands
                    .into_iter()
                    .map(|i| {
                        let i = i as usize;
                        tv.is_valid(i)
                            .then(|| tables.lookup_one(&Value::Boolean(bits.get(i))))?
                    })
                    .collect(),
                VectorData::Dict { dict, codes } => {
                    // One table probe per *distinct* string in the block.
                    let code_hits: Vec<Option<&Vec<Row>>> = dict
                        .entries()
                        .iter()
                        .map(|s| {
                            tables
                                .lookup_hashed(Value::hash64_of_str(s), &Value::Varchar(s.clone()))
                        })
                        .collect();
                    cands
                        .into_iter()
                        .map(|i| {
                            let i = i as usize;
                            tv.is_valid(i).then(|| code_hits[codes[i] as usize])?
                        })
                        .collect()
                }
            },
            crate::batch::ColumnSlice::Rle(rv) => {
                // One probe per run; candidates are sorted, so a single
                // forward run pointer suffices.
                let decisions: Vec<Option<&Vec<Row>>> = rv
                    .runs()
                    .iter()
                    .map(|(v, _)| tables.lookup_one(v))
                    .collect();
                let mut ri = 0usize;
                cands
                    .into_iter()
                    .map(|i| {
                        while rv.run_start(ri + 1) <= i as usize {
                            ri += 1;
                        }
                        decisions[ri]
                    })
                    .collect()
            }
            crate::batch::ColumnSlice::Plain(values) => cands
                .into_iter()
                .map(|i| tables.lookup_one(&values[i as usize]))
                .collect(),
        };
    }
    // Multi-column keys: gather per candidate (cold path).
    cands
        .into_iter()
        .map(|i| {
            let key: Vec<Value> = left_keys
                .iter()
                .map(|&c| batch.columns[c].value_at(i as usize))
                .collect();
            if key.iter().any(Value::is_null) {
                None
            } else {
                tables.lookup_many(&key)
            }
        })
        .collect()
}

/// Probe one batch and append the joined output batches. SEMI/ANTI refine
/// the batch with a match selection (zero-copy via
/// [`Batch::into_filtered`], column representations preserved); INNER and
/// LEFT OUTER gather probe-side columns at the match positions and
/// transpose the matched build rows into output columns — the probe path
/// performs no row pivot.
fn probe_batch(
    batch: Batch,
    tables: &BuildTables,
    left_keys: &[usize],
    join_type: JoinType,
    right_arity: usize,
    out: &mut Vec<Batch>,
) {
    let hits = probe_hits(&batch, tables, left_keys);
    debug_assert_eq!(hits.len(), batch.len());
    match join_type {
        JoinType::Semi => {
            let mask: Vec<bool> = hits.iter().map(Option::is_some).collect();
            if mask.iter().any(|&b| b) {
                out.push(batch.into_filtered(&mask));
            }
        }
        JoinType::Anti => {
            let mask: Vec<bool> = hits.iter().map(Option::is_none).collect();
            if mask.iter().any(|&b| b) {
                out.push(batch.into_filtered(&mask));
            }
        }
        // INNER and LEFT OUTER (the only other flavors the operator
        // accepts) emit probe⊕build columns.
        _ => {
            let left_outer = join_type == JoinType::LeftOuter;
            let phys: Vec<u32> = match batch.selection() {
                Some(sel) => sel.indices().to_vec(),
                None => (0..batch.physical_len() as u32).collect(),
            };
            let mut probe_idx: Vec<u32> = Vec::new();
            let mut build_side: Vec<Option<Row>> = Vec::new();
            for (&pi, hit) in phys.iter().zip(hits) {
                match hit {
                    Some(matches) => {
                        for m in matches {
                            probe_idx.push(pi);
                            build_side.push(Some(m.clone()));
                        }
                    }
                    None if left_outer => {
                        probe_idx.push(pi);
                        build_side.push(None);
                    }
                    None => {}
                }
            }
            if probe_idx.is_empty() {
                return;
            }
            out.push(crate::batch::gather_join_output(
                &batch,
                &probe_idx,
                build_side,
                right_arity,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_rows;
    use crate::scan::{ScanOperator, SipBinding};
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{BinOp, ColumnDef, DataType, Epoch, Expr, TableSchema};

    /// `(k, v)` rows over `chunks` containers plus a WOS row; `k = v %
    /// modulo`, with NULL keys sprinkled in when `with_nulls`.
    fn make_store(
        name: &str,
        rows: i64,
        chunks: usize,
        modulo: i64,
        with_nulls: bool,
    ) -> ProjectionStore {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::Integer),
                ColumnDef::new("v", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, name, &[1], &[]);
        let mut store = ProjectionStore::new(def, None, 1, Arc::new(MemBackend::new()));
        let all: Vec<Row> = (0..rows)
            .map(|i| {
                let k = if with_nulls && i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Integer(i % modulo)
                };
                vec![k, Value::Integer(i)]
            })
            .collect();
        for chunk in all.chunks((rows as usize).div_ceil(chunks.max(1))) {
            store.insert_direct_ros(chunk.to_vec(), Epoch(1)).unwrap();
        }
        store
            .insert_wos(
                vec![vec![Value::Integer(1), Value::Integer(rows)]],
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

    fn serial_scan_over(spec: &ParallelScanSpec, snapshot: SnapshotScan) -> ScanOperator {
        ScanOperator::new(
            spec.backend.clone(),
            snapshot.containers,
            snapshot.wos_rows,
            spec.output_columns.clone(),
            spec.predicate.clone(),
            spec.partition_predicate.clone(),
            spec.sip.clone(),
        )
    }

    fn serial_join(
        probe: &ProjectionStore,
        build: &ProjectionStore,
        jt: JoinType,
        budget: MemoryBudget,
    ) -> Vec<Row> {
        let left = serial_scan_over(&spec_of(probe), morsels_of(probe));
        let right = serial_scan_over(&spec_of(build), morsels_of(build));
        let mut op = HashJoinOp::new(
            Box::new(left),
            Box::new(right),
            vec![0],
            vec![0],
            jt,
            budget,
            None,
        );
        collect_rows(&mut op).unwrap()
    }

    fn parallel_join_op(
        probe: &ProjectionStore,
        build: &ProjectionStore,
        jt: JoinType,
        threads: usize,
        sip: Option<Arc<SipFilter>>,
    ) -> ParallelHashJoinOp {
        let mut probe_spec = spec_of(probe);
        if let Some(f) = &sip {
            probe_spec.sip = vec![SipBinding {
                filter: f.clone(),
                key_columns: vec![0],
            }];
        }
        ParallelHashJoinOp::new(
            ParallelJoinSpec {
                probe: probe_spec,
                probe_snapshot: morsels_of(probe),
                probe_threads: threads,
                build: spec_of(build),
                build_snapshot: morsels_of(build),
                build_threads: threads,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: jt,
                sip,
            },
            MemoryBudget::unlimited(),
        )
    }

    #[test]
    fn parallel_join_equals_serial_across_lanes_and_flavors() {
        let probe = make_store("probe", 6000, 5, 97, true);
        let build = make_store("build", 400, 3, 61, true);
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let expected = serial_join(&probe, &build, jt, MemoryBudget::unlimited());
            for threads in [1, 2, 7] {
                let mut op = parallel_join_op(&probe, &build, jt, threads, None);
                let got = collect_rows(&mut op).unwrap();
                assert_eq!(got, expected, "flavor {} threads {threads}", jt.name());
            }
        }
    }

    #[test]
    fn sip_published_before_probe_and_filters_probe_rows() {
        let probe = make_store("probe", 3000, 4, 1000, false);
        let build = make_store("build", 30, 2, 10, false);
        let sip = SipFilter::new();
        let mut op = parallel_join_op(&probe, &build, JoinType::Inner, 4, Some(sip.clone()));
        let stats = op.probe_stats();
        let expected = serial_join(&probe, &build, JoinType::Inner, MemoryBudget::unlimited());
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got, expected);
        assert!(sip.is_ready(), "SIP must publish at the build barrier");
        assert!(
            stats.lock().rows_sip_filtered > 0,
            "probe-side scan must drop non-matching rows via SIP"
        );
    }

    #[test]
    fn budget_overflow_falls_back_to_serial_externalizing_join() {
        let probe = make_store("probe", 500, 3, 13, false);
        let build = make_store("build", 4000, 4, 13, false);
        let expected = serial_join(&probe, &build, JoinType::Inner, MemoryBudget::unlimited());
        let mut probe_spec = spec_of(&probe);
        probe_spec.predicate = None;
        let mut op = ParallelHashJoinOp::new(
            ParallelJoinSpec {
                probe: probe_spec,
                probe_snapshot: morsels_of(&probe),
                probe_threads: 3,
                build: spec_of(&build),
                build_snapshot: morsels_of(&build),
                build_threads: 3,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
                sip: None,
            },
            MemoryBudget::new(4 * 1024),
        );
        let mut got = collect_rows(&mut op).unwrap();
        assert!(
            op.switched_to_serial(),
            "tiny budget must trip the fallback"
        );
        // The serial fallback externalizes to sort-merge, which emits in
        // key order rather than probe order; compare as multisets.
        let mut expected = expected;
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn worker_errors_surface_as_dbresult() {
        let probe = make_store("probe", 2000, 4, 7, false);
        let build = make_store("build", 100, 2, 7, false);
        // Type error inside the probe workers: v + 'x'.
        let mut probe_spec = spec_of(&probe);
        probe_spec.predicate = Some(Expr::binary(
            BinOp::Add,
            Expr::col(1, "v"),
            Expr::lit(Value::Varchar("x".into())),
        ));
        let mut op = ParallelHashJoinOp::new(
            ParallelJoinSpec {
                probe: probe_spec,
                probe_snapshot: morsels_of(&probe),
                probe_threads: 4,
                build: spec_of(&build),
                build_snapshot: morsels_of(&build),
                build_threads: 2,
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
                sip: None,
            },
            MemoryBudget::unlimited(),
        );
        let err = collect_rows(&mut op);
        assert!(err.is_err(), "probe worker failure must propagate: {err:?}");
    }

    #[test]
    fn threads_clamp_and_inline_single_lane() {
        let probe = make_store("probe", 200, 1, 5, false);
        let build = make_store("build", 50, 1, 5, false);
        let expected = serial_join(&probe, &build, JoinType::Inner, MemoryBudget::unlimited());
        let mut op = parallel_join_op(&probe, &build, JoinType::Inner, 64, None);
        let got = collect_rows(&mut op).unwrap();
        assert_eq!(got, expected);
        // 1 container + WOS tail = 2 morsels per side.
        assert_eq!(op.threads_used(), (2, 2));
        let (build_ms, probe_ms) = op.phase_ms();
        assert!(build_ms >= 0.0 && probe_ms >= 0.0);
    }

    #[test]
    fn single_lane_delegates_to_serial_inline() {
        let probe = make_store("probe", 1500, 3, 17, true);
        let build = make_store("build", 90, 2, 17, true);
        for jt in [
            JoinType::Inner,
            JoinType::LeftOuter,
            JoinType::Semi,
            JoinType::Anti,
        ] {
            let expected = serial_join(&probe, &build, jt, MemoryBudget::unlimited());
            let mut op = parallel_join_op(&probe, &build, jt, 1, None);
            let got = collect_rows(&mut op).unwrap();
            assert_eq!(got, expected, "flavor {}", jt.name());
            assert_eq!(op.threads_used(), (1, 1));
            assert!(
                !op.switched_to_serial(),
                "DoP-1 delegation is a plan shape, not a budget overflow"
            );
        }
    }

    #[test]
    fn right_outer_is_rejected() {
        let probe = make_store("probe", 10, 1, 3, false);
        let build = make_store("build", 10, 1, 3, false);
        let mut op = parallel_join_op(&probe, &build, JoinType::RightOuter, 2, None);
        assert!(matches!(op.next_batch(), Err(DbError::Plan(_))));
    }
}
