//! Morsel-parallel hash join over ROS containers (§5 + §6.1).
//!
//! The paper's join performance comes from parallel hash joins tightly
//! coupled with sideways information passing into the scan. This module
//! runs the columnar join core of [`crate::join`] (`BuildSide`) on the
//! morsel framework of [`crate::parallel`]. Both sides are pruned on their
//! position indexes and cut into (container, block range) morsels before
//! either is read, so a side stored as one large container still feeds
//! every worker:
//!
//! ```text
//!   build side (right)                      probe side (left)
//!   ┌──── morsel queue ────┐                ┌──── morsel queue ────┐
//!   │ r1[0..16) │ … │ WOS  │                │ r1[0..16) │ … │ WOS  │
//!   └──┬──────┬───────┬────┘                └──┬──────┬───────┬────┘
//!   worker 0..B: scan → per-morsel          worker 0..P: scan → SIP →
//!   column chunks                           predicate → probe → [stage]
//!      └──────┴───────┘                        └──────┴───────┘
//!     build barrier: concatenate chunks     Collect: waves of one morsel
//!     in morsel order, index the keys,      per worker, in morsel order;
//!     publish the SIP filter                GroupBy: one merge barrier
//! ```
//!
//! * **Build: parallel scan, one index.** Build workers scan (decode,
//!   visibility, predicate) their morsels into compacted column batches —
//!   a [`ParallelStage::Collect`] run, so the barrier receives them in
//!   morsel order. It concatenates them ([`crate::batch::Batch::append`])
//!   and indexes the key column once (`BuildSide::new`). A build row's id
//!   is its position in build-scan order — the order the serial
//!   [`HashJoinOp`] sees — and chains list ids ascending, so the parallel
//!   join's output is row-for-row the serial operator's with nothing to
//!   sort or renumber.
//! * **SIP publication at the barrier.** The distinct keys' hashes are
//!   published to the attached [`SipFilter`] before any probe worker
//!   starts, so every probe scan sees a ready filter, exactly like the
//!   serial pull model.
//! * **Probe: index pairs, typed output.** A probe worker's pipeline is
//!   scan → `BuildSide::probe`; the build side is shared immutably.
//!   Output columns are typed `take`s of both sides at the matching
//!   indices, so whatever consumes them keeps its typed paths.
//! * **Where the stage runs.** With [`ParallelStage::Collect`] the probe
//!   runs in **waves** of one morsel per worker and each wave's output
//!   streams downstream before the next starts: the operator holds the
//!   output of `threads` morsels, never of the whole probe side. A
//!   [`ParallelStage::GroupBy`] stage runs *inside* the probe workers —
//!   each feeds its joined batches straight into its own partial
//!   aggregation, and only the partials meet at the merge barrier
//!   (`run_stage`, the very code a parallel scan uses). No planner rule
//!   puts a `Sort` stage on a join, and the operator rejects one.
//! * **Memory.** The budget covers the whole build side: the bytes of its
//!   columns plus the key table (`build_bytes`, metered by
//!   the build workers as they scan). If the build exceeds it, the
//!   operator falls back to the serial [`HashJoinOp`] over the same
//!   morsels, which externalizes to sort-merge (§6.1 algorithm switching).
//! * **One morsel per side** means nothing to parallelize: the operator
//!   delegates to the serial [`HashJoinOp`] (under the serial form of its
//!   stage), streaming.
//! * **Failures.** Worker lanes are tasks on the shared process-wide pool
//!   ([`crate::pool`]; no per-query thread spawning) and return `DbResult`
//!   through the task set's result slots — no `unwrap` on worker lanes.

use crate::batch::Batch;
use crate::join::{build_bytes, BuildSide, HashJoinOp, JoinType};
use crate::memory::MemoryBudget;
use crate::operator::{BoxedOperator, Operator};
use crate::parallel::{
    run_stage, serial_stage, MorselPipeline, OpenPipeline, ParallelScanSpec, ParallelStage,
};
use crate::scan::{ScanOperator, ScanStats};
use crate::sip::SipFilter;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vdb_storage::store::{ScanMorsel, SnapshotScan};
use vdb_types::{DbError, DbResult};

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
    /// Build-side degree of parallelism (clamped likewise).
    pub build_threads: usize,
    /// Key columns over the probe scan's output.
    pub left_keys: Vec<usize>,
    /// Key columns over the build scan's output.
    pub right_keys: Vec<usize>,
    pub join_type: JoinType,
    /// SIP filter this join publishes at the build barrier.
    pub sip: Option<Arc<SipFilter>>,
}

/// The morsel-parallel hash join. Blocking on its build side (the build
/// barrier makes it a plan zone boundary); probe output then streams wave
/// by wave, or — with a stage — arrives from the stage's merge barrier.
/// Supports the join flavors that emit only during the probe — INNER,
/// LEFT OUTER, SEMI, ANTI; the planner keeps RIGHT/FULL OUTER (whose
/// matched flags are one mutable bitmap over the build side) on the serial
/// operator.
///
/// The operator counts as stateful for the §6.1 memory split: its
/// [`MemoryBudget`] bounds the build side, and beyond that it holds one
/// probe wave's joined output at a time (the serial join streams batch by
/// batch).
pub struct ParallelHashJoinOp {
    join_type: JoinType,
    stage: ParallelStage,
    pending: Option<(ParallelJoinSpec, MemoryBudget)>,
    /// The current probe wave's joined output (or the stage's), streaming
    /// out.
    output: std::vec::IntoIter<Batch>,
    /// The probe side's remaining morsels, once the build barrier is past.
    probe: Option<ProbePhase>,
    /// The serial join (under the serial stage): one morsel per side, or
    /// a build that exceeded its budget.
    serial: Option<BoxedOperator>,
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
            stage: ParallelStage::Collect,
            pending: Some((spec, budget)),
            output: Vec::new().into_iter(),
            probe: None,
            serial: None,
            probe_stats: Arc::new(Mutex::new(ScanStats::default())),
            build_stats: Arc::new(Mutex::new(ScanStats::default())),
            build_threads_used: 0,
            probe_threads_used: 0,
            switched_to_serial: false,
            build_ms: 0.0,
            probe_ms: 0.0,
        }
    }

    /// Run `stage` — `Collect` or `GroupBy` — over the joined rows inside
    /// the probe workers (module docs); the operator then emits the stage's
    /// output, not the join's.
    pub fn with_stage(mut self, stage: ParallelStage) -> ParallelHashJoinOp {
        self.stage = stage;
        self
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

    /// Wall-clock spent in the build (scan + concatenate + index + SIP)
    /// and probe (scan + probe + stage) phases, in milliseconds. A serial
    /// delegate's time is not split and counts as build.
    #[cfg(test)]
    fn phase_ms(&self) -> (f64, f64) {
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
        if matches!(self.stage, ParallelStage::Sort { .. }) {
            return Err(DbError::Plan(
                "parallel hash join does not support a sort stage".into(),
            ));
        }
        // Prune and cut both sides before reading either (pruning needs
        // the predicates only, not the SIP filter the build will publish).
        let build_morsels = spec.build.cut(&spec.build_snapshot, &self.build_stats)?;
        let probe_morsels = spec.probe.cut(&spec.probe_snapshot, &self.probe_stats)?;
        let build_threads = spec.build_threads.clamp(1, build_morsels.len().max(1));
        let probe_threads = spec.probe_threads.clamp(1, probe_morsels.len().max(1));
        self.build_threads_used = build_threads;
        self.probe_threads_used = probe_threads;
        let stage = std::mem::replace(&mut self.stage, ParallelStage::Collect);
        let t = Instant::now();

        // ---- Phase 1: parallel build scan ---------------------------------
        // Skipped at DoP 1 on both sides, where a barrier and materialized
        // probe output buy nothing: that is the serial join's plan shape
        // (identical output order, streaming probe, same SIP publication
        // point), not an overflow, so `switched_to_serial` stays false.
        let chunks = if build_threads <= 1 && probe_threads <= 1 {
            None
        } else {
            let chunks =
                self.scan_build(&spec.build, build_morsels.clone(), build_threads, budget)?;
            // Budget exceeded: hand both sides to the serial hash join,
            // which re-detects the overflow and externalizes to sort-merge.
            self.switched_to_serial = chunks.is_none();
            chunks
        };
        let Some(chunks) = chunks else {
            let left = spec.probe.scan_of(probe_morsels, &self.probe_stats);
            let right = spec.build.scan_of(build_morsels, &self.build_stats);
            let join = HashJoinOp::new(
                Box::new(left),
                Box::new(right),
                spec.left_keys,
                spec.right_keys,
                spec.join_type,
                budget,
                spec.sip,
            )
            .with_arities(
                spec.probe.output_columns.len(),
                spec.build.output_columns.len(),
            );
            self.serial = Some(serial_stage(Box::new(join), stage, budget));
            self.build_ms = t.elapsed().as_secs_f64() * 1000.0;
            return Ok(());
        };

        // ---- Build barrier: concatenate, index, publish SIP ---------------
        let mut rows = Batch::default();
        for chunk in chunks {
            rows.append(chunk);
        }
        let build = BuildSide::new(rows, &spec.right_keys, spec.build.output_columns.len())?;
        if let Some(sip) = &spec.sip {
            build.publish_sip(sip);
        }
        self.build_ms = t.elapsed().as_secs_f64() * 1000.0;

        // ---- Phase 2: parallel probe --------------------------------------
        let prober = Arc::new(Prober {
            spec: spec.probe,
            build,
            left_keys: spec.left_keys,
            join_type: spec.join_type,
            stats: self.probe_stats.clone(),
        });
        let mut probe = ProbePhase {
            morsels: probe_morsels.into(),
            threads: probe_threads,
            prober,
            budget,
        };
        if matches!(stage, ParallelStage::Collect) {
            self.probe = Some(probe); // waves, pulled by `next_batch`
        } else {
            let t = Instant::now();
            self.output = probe.run(usize::MAX, stage)?.into_iter();
            self.probe_ms = t.elapsed().as_secs_f64() * 1000.0;
        }
        Ok(())
    }
}

impl ParallelHashJoinOp {
    /// Scan the build side on `threads` workers into compacted batches, in
    /// morsel order; `None` when they cross `budget`.
    fn scan_build(
        &self,
        build: &ParallelScanSpec,
        morsels: Vec<ScanMorsel>,
        threads: usize,
        budget: MemoryBudget,
    ) -> DbResult<Option<Vec<Batch>>> {
        let meter = Arc::new(BuildMeter {
            budget,
            used: AtomicUsize::new(0),
            overflow: AtomicBool::new(false),
        });
        let (build, stats, shared) = (build.clone(), self.build_stats.clone(), meter.clone());
        let open: OpenPipeline = Arc::new(move || {
            Box::new(MeteredScan {
                scan: build.open(&stats),
                meter: shared.clone(),
            })
        });
        let stage = ParallelStage::Collect;
        let what = "parallel join build worker";
        let chunks = run_stage(morsels, threads, stage, budget, open, what)?;
        Ok((!meter.overflow.load(Ordering::Relaxed)).then_some(chunks))
    }
}

/// Budget metering shared by the build workers.
struct BuildMeter {
    budget: MemoryBudget,
    /// Budgeted bytes of the build batches scanned so far, all workers.
    used: AtomicUsize,
    /// Set by the worker that crosses the budget; the others stop at
    /// their next batch. Publishes nothing but itself.
    overflow: AtomicBool,
}

/// A build worker's pipeline: the scan, compacted and metered against the
/// join's budget. Once the budget is crossed it produces nothing more —
/// the operator discards the partial build and rescans serially.
struct MeteredScan {
    scan: ScanOperator,
    meter: Arc<BuildMeter>,
}

impl MorselPipeline for MeteredScan {
    fn feed(&mut self, morsel: ScanMorsel) {
        self.scan.push_morsel(morsel);
    }

    fn pull(&mut self) -> DbResult<Option<Batch>> {
        if self.meter.overflow.load(Ordering::Relaxed) {
            return Ok(None);
        }
        let Some(batch) = self.scan.next_batch()? else {
            return Ok(None);
        };
        let batch = batch.compact();
        let bytes = build_bytes(&batch);
        let total = self.meter.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if self.meter.budget.exceeded_by(total) {
            self.meter.overflow.store(true, Ordering::Relaxed);
            return Ok(None);
        }
        Ok(Some(batch))
    }
}

/// The probe side after the build barrier.
struct ProbePhase {
    /// Probe morsels not yet run, in snapshot order.
    morsels: VecDeque<ScanMorsel>,
    threads: usize,
    prober: Arc<Prober>,
    budget: MemoryBudget,
}

/// What every probe worker needs, shared.
struct Prober {
    spec: ParallelScanSpec,
    build: BuildSide,
    left_keys: Vec<usize>,
    join_type: JoinType,
    stats: Arc<Mutex<ScanStats>>,
}

impl ProbePhase {
    /// Run `stage` over the next `limit` probe morsels (all that remain,
    /// if fewer), each worker's pipeline being scan → probe.
    ///
    /// A `Collect` stage is called a **wave** at a time — `threads`
    /// morsels, one per worker, a lone one inline — and returns the joined
    /// output in morsel order, which is the serial probe's order; handing
    /// each wave downstream before the next starts keeps the operator from
    /// holding the whole joined probe side, which for a fact table dwarfs
    /// anything else the query allocates.
    fn run(&mut self, limit: usize, stage: ParallelStage) -> DbResult<Vec<Batch>> {
        let n = limit.min(self.morsels.len());
        let prober = self.prober.clone();
        let open: OpenPipeline = Arc::new(move || {
            Box::new(ProbePipeline {
                scan: prober.spec.open(&prober.stats),
                prober: prober.clone(),
            })
        });
        run_stage(
            self.morsels.drain(..n).collect(),
            self.threads.min(n),
            stage,
            self.budget,
            open,
            "parallel join probe worker",
        )
    }
}

/// A probe worker's pipeline: the scan pipeline (visibility, SIP,
/// predicate) with each surviving batch joined against the build side.
struct ProbePipeline {
    scan: ScanOperator,
    prober: Arc<Prober>,
}

impl MorselPipeline for ProbePipeline {
    fn feed(&mut self, morsel: ScanMorsel) {
        self.scan.push_morsel(morsel);
    }

    fn pull(&mut self) -> DbResult<Option<Batch>> {
        let p = &self.prober;
        while let Some(batch) = self.scan.next_batch()? {
            let joined = p.build.probe(batch, &p.left_keys, p.join_type, None);
            if joined.is_some() {
                return Ok(joined);
            }
        }
        Ok(None)
    }
}

impl Operator for ParallelHashJoinOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        if let Some((spec, budget)) = self.pending.take() {
            self.run(spec, budget)?;
        }
        if let Some(op) = &mut self.serial {
            return op.next_batch();
        }
        loop {
            if let Some(batch) = self.output.next() {
                return Ok(Some(batch));
            }
            let Some(probe) = self.probe.as_mut().filter(|p| !p.morsels.is_empty()) else {
                return Ok(None);
            };
            let t = Instant::now();
            self.output = probe
                .run(probe.threads, ParallelStage::Collect)?
                .into_iter();
            self.probe_ms += t.elapsed().as_secs_f64() * 1000.0;
        }
    }

    fn name(&self) -> String {
        format!("ParallelHashJoin({})", self.join_type.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use crate::scan::{ScanOperator, SipBinding};
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{BinOp, ColumnDef, DataType, Epoch, Expr, Row, TableSchema, Value};

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
    fn probe_workers_emit_typed_columns_and_can_run_the_stage() {
        use crate::aggregate::{AggCall, AggFunc};
        use crate::groupby::HashGroupByOp;
        let probe = make_store("probe", 6000, 5, 97, true);
        let build = make_store("build", 400, 3, 61, true);
        let mut op = parallel_join_op(&probe, &build, JoinType::Inner, 2, None);
        let batches: Vec<Batch> = std::iter::from_fn(|| op.next_batch().unwrap()).collect();
        // Every ROS morsel's output is typed on both sides; only the WOS
        // morsel (plain values in, the last morsel out) may stay plain.
        let typed = |b: &Batch| b.columns.iter().all(crate::batch::ColumnSlice::is_typed);
        assert!(batches.len() > 2);
        assert!(batches[..batches.len() - 1].iter().all(typed));
        let (build_ms, probe_ms) = op.phase_ms();
        assert!(build_ms > 0.0 && probe_ms > 0.0, "phases timed apart");

        // The same join with the group-by inside the probe workers.
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
            AggCall::new(AggFunc::Avg, 3, "avg"),
        ];
        let stage = ParallelStage::GroupBy {
            group_columns: vec![2],
            aggs: aggs.clone(),
            sorted: false,
        };
        let joined = ValuesOp::new(batches);
        let mut above =
            HashGroupByOp::new(Box::new(joined), vec![2], aggs, MemoryBudget::unlimited());
        let expected = collect_rows(&mut above).unwrap();
        assert_eq!(expected.len(), 61, "one group per build key");
        for threads in [1, 2, 7] {
            let mut op = parallel_join_op(&probe, &build, JoinType::Inner, threads, None)
                .with_stage(stage.clone());
            assert_eq!(
                collect_rows(&mut op).unwrap(),
                expected,
                "threads {threads}"
            );
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
    fn sort_stage_is_rejected() {
        let probe = make_store("probe", 10, 1, 3, false);
        let build = make_store("build", 10, 1, 3, false);
        let keys = vec![vdb_types::schema::SortKey::asc(1)];
        let mut op = parallel_join_op(&probe, &build, JoinType::Inner, 2, None)
            .with_stage(ParallelStage::Sort { keys });
        assert!(matches!(op.next_batch(), Err(DbError::Plan(_))));
    }

    #[test]
    fn right_outer_is_rejected() {
        let probe = make_store("probe", 10, 1, 3, false);
        let build = make_store("build", 10, 1, 3, false);
        let mut op = parallel_join_op(&probe, &build, JoinType::RightOuter, 2, None);
        assert!(matches!(op.next_batch(), Err(DbError::Plan(_))));
    }
}
