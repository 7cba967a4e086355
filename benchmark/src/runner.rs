//! Runs one workload: set-up (several times, for a steady `setup_s`), the
//! oracle checks, the measured rounds, and the restart check.
//!
//! One client session, closed loop: the next statement is sent when the
//! previous one returns. A round is the whole op list, so its work is
//! fixed by count, and `--seconds` fixes the number of rounds. A slot's
//! latency is the median of its per-round latencies, so a neighbour's
//! burst in one round moves nothing, while a stall the program causes at
//! the same slot of every round survives.

use crate::gen::{Agg, FactGen};
use crate::host::{self, DataDir, ProcIo};
use crate::ops::{Call, Effect, Plan, Slot, Workload};
use crate::trace::{Span, SpanLog};
use crate::workloads::TRICKLE_METER_BASE;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::Instant;
use vdb_core::{DbError, DbResult, Engine, QueryResult, Session};
use vdb_sql::{BoundStatement, NormalizedSql};
use vdb_types::{Row, Value};

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where `trace_<workload>.jsonl` goes.
    pub out_dir: PathBuf,
    /// Where the engines' data directories are created (and removed).
    pub data_root: PathBuf,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// First few oracle or statement failures, and host warnings.
    pub complaints: Vec<String>,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A round is sized to take about this long on the reference box (2
/// vCPU), so `--seconds S` asks for `S / ROUND_SECONDS` rounds. The count
/// is fixed by the argument, not by a timer: parent and change run the
/// same rounds, however fast either is.
const ROUND_SECONDS: f64 = 2.0;
const MIN_ROUNDS: usize = 3;
/// Measured rounds use variants 1..=MAX_ROUNDS of the fresh-literal slots.
const MAX_ROUNDS: usize = 12;
/// On a box this many times slower than the reference, stop after the
/// round in which the time is up (the driver caps a run's length).
const OVERTIME: f64 = 1.5;
/// A run whose round walls spread wider than this is flagged.
pub const ROUND_SPREAD_LIMIT: f64 = 0.15;

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in 0..=1.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One pass over the op list.
pub struct Round {
    pub slot_ms: Vec<f64>,
    pub tick_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_ms: f64,
}

/// What the trickle region of `m` must hold, replayed from the effects of
/// the statements the engine acknowledged.
#[derive(Default)]
struct Shadow {
    meters: BTreeMap<i64, Agg>,
    rows_inserted: u64,
}

impl Shadow {
    fn total(&self) -> Agg {
        let mut total = Agg::default();
        for agg in self.meters.values() {
            total.merge(*agg);
        }
        total
    }
}

/// What the oracle knows and has seen; it outlives a restart of the
/// engine.
#[derive(Default)]
pub struct Oracle {
    shadow: Shadow,
    /// Fingerprint of each repeated-text slot's first answer.
    first_answer: Vec<Option<(usize, u64)>>,
    pub attempted: u64,
    pub failed: u64,
    pub lock_conflicts: u64,
    pub rows_out: u64,
    /// First few oracle or statement failures.
    pub complaints: Vec<String>,
}

impl Oracle {
    /// Add what another engine's oracle counted, if there was one.
    pub fn absorb(&mut self, other: Option<Oracle>) {
        if let Some(other) = other {
            self.attempted += other.attempted;
            self.failed += other.failed;
            self.lock_conflicts += other.lock_conflicts;
            self.complaints.extend(other.complaints);
        }
    }

    fn complain(&mut self, what: String) {
        self.failed += 1;
        if self.complaints.len() < 8 {
            self.complaints.push(what);
        }
    }
}

/// An open engine, its client session and the oracle.
pub struct Harness<'p> {
    pub plan: &'p Plan,
    pub engine: Engine,
    session: Session,
    prepared: HashMap<&'static str, NormalizedSql>,
    /// Plans of the repeated-text reads, by slot: what the serving layer's
    /// plan cache holds once the list has run. Decomposed rounds take the
    /// hit path for them.
    plans: HashMap<usize, vdb_optimizer::PlannedQuery>,
    pub oracle: Oracle,
    pub wos_rows_peak: usize,
    /// SELECTs the harness planned, and how many of them read a
    /// projection other than a super-projection.
    pub planned: u64,
    pub planned_nonsuper: u64,
    /// Numbers statement executions, for the spans.
    pub stmt_seq: u32,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Integers and timestamps must be equal, floats equal to 1e-9 relative.
fn value_matches(got: &Value, want: &Value) -> bool {
    match (got, want) {
        (Value::Varchar(a), Value::Varchar(b)) => a == b,
        (Value::Null, Value::Null) => true,
        (Value::Float(a), Value::Float(b)) => close(*a, *b),
        _ => got.as_i64().is_some() && got.as_i64() == want.as_i64(),
    }
}

fn rows_match(got: &[Row], want: &[Row]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| value_matches(a, b)))
}

/// Order-insensitive fingerprint of an answer; floats count to ten
/// significant digits.
fn fingerprint(rows: &[Row]) -> (usize, u64) {
    let mut sum = 0u64;
    for row in rows {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for value in row {
            let text = match value {
                Value::Float(f) => format!("{f:.9e}"),
                other => format!("{other:?}"),
            };
            for b in text.bytes().chain([0xff]) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        sum = sum.wrapping_add(h);
    }
    (rows.len(), sum)
}

/// `n` of a command tag such as `INSERT 100`.
fn tag_count(result: &QueryResult) -> Option<u64> {
    result.tag.rsplit(' ').next()?.parse().ok()
}

impl Oracle {
    /// Count the statement and hold its answer to what the oracle knows.
    fn judge(&mut self, slot: &Slot, index: usize, round: usize, result: DbResult<QueryResult>) {
        self.attempted += 1;
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                if matches!(e, DbError::LockConflict { .. }) {
                    self.lock_conflicts += 1;
                }
                return self.complain(format!("slot {index} round {round}: {e}"));
            }
        };
        self.rows_out += result.rows.len() as u64;
        let acknowledged = tag_count(&result);
        let problem = match &slot.effect {
            Effect::None if slot.calls.len() == 1 => {
                let answer = fingerprint(&result.rows);
                let first = *self.first_answer[index].get_or_insert(answer);
                (first != answer).then(|| "answer differs from the first one".to_string())
            }
            Effect::None => None,
            Effect::Insert { meter, count, sum } => {
                let agg = self.shadow.meters.entry(*meter).or_default();
                agg.count += count;
                agg.sum += sum;
                self.shadow.rows_inserted += count;
                (acknowledged != Some(*count)).then(|| format!("tag {:?}", result.tag))
            }
            // DELETE and UPDATE tags count a row once per projection of
            // the table, so they are not held to the model; the reads and
            // the restart check see what the statements did.
            Effect::Delete { meter } => {
                self.shadow.meters.remove(meter);
                None
            }
            Effect::Update { meter, value } => {
                let agg = self.shadow.meters.entry(*meter).or_default();
                agg.sum = agg.count as f64 * value;
                None
            }
            Effect::ReadMeter { meter } => {
                let agg = self.shadow.meters.get(meter).copied().unwrap_or_default();
                let want = count_sum_row(agg);
                (!rows_match(&result.rows, &want))
                    .then(|| format!("got {:?}, model says {:?}", result.rows, want))
            }
        };
        if let Some(problem) = problem {
            self.complain(format!("slot {index} round {round}: {problem}"));
        }
    }
}

impl<'p> Harness<'p> {
    /// Open the plan's engine: durable in `dir`, or in memory.
    fn open(plan: &'p Plan, dir: Option<&DataDir>) -> DbResult<Harness<'p>> {
        let mut builder = Engine::builder()
            .nodes(plan.engine.nodes)
            .k_safety(plan.engine.k_safety)
            .threads(plan.engine.threads);
        if let Some(dir) = dir {
            builder = builder.data_dir(dir.path());
        }
        let engine = builder.open()?;
        let session = engine.session();
        Ok(Harness {
            plan,
            engine,
            session,
            prepared: HashMap::new(),
            plans: HashMap::new(),
            oracle: Oracle {
                first_answer: vec![None; plan.ops.slots.len()],
                ..Oracle::default()
            },
            wos_rows_peak: 0,
            planned: 0,
            planned_nonsuper: 0,
            stmt_seq: 0,
        })
    }

    fn prepare(&mut self) -> DbResult<()> {
        for (name, sql) in &self.plan.ops.prepared {
            self.session.prepare(name, sql)?;
            self.prepared.insert(name, vdb_sql::normalize(sql)?);
        }
        Ok(())
    }

    fn send(&self, call: &Call) -> DbResult<QueryResult> {
        match call {
            Call::Sql(sql) => self.session.execute(sql),
            Call::Prepared { name, params } => self.session.execute_prepared(name, params),
        }
    }

    /// Run the tuple mover; milliseconds it took.
    fn tick(&mut self, spans: Option<&mut SpanLog>) -> f64 {
        let t = Instant::now();
        let outcome = match spans {
            Some(log) => {
                let span = log.root(self.stmt_seq, 0, "vdb_storage", "mover_tick");
                let outcome = self.engine.tuple_mover_tick();
                log.close(span);
                outcome
            }
            None => self.engine.tuple_mover_tick(),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = outcome {
            self.oracle.complain(format!("tuple_mover_tick: {e}"));
        }
        ms
    }

    fn fact_wos_rows(&self) -> usize {
        fact_store_names(&self.engine, self.plan.fact_projection)
            .iter()
            .filter_map(|(node, name)| {
                let store = self
                    .engine
                    .cluster()
                    .node_engine(*node)
                    .projection(name)
                    .ok()?;
                let rows = store.read().wos_row_count();
                Some(rows)
            })
            .sum()
    }

    /// What follows a slot: the mover tick the harness owes after every
    /// `tick_every_writes`-th write.
    fn after_slot(
        &mut self,
        slot: &Slot,
        writes: &mut usize,
        tick_ms: &mut Vec<f64>,
        spans: Option<&mut SpanLog>,
    ) {
        if !slot.is_write() {
            return;
        }
        *writes += 1;
        if spans.is_some() {
            self.wos_rows_peak = self.wos_rows_peak.max(self.fact_wos_rows());
        }
        let every = self.plan.ops.tick_every_writes;
        if every > 0 && writes.is_multiple_of(every) {
            tick_ms.push(self.tick(spans));
        }
    }

    /// One pass over the op list. `decomposed` takes every statement
    /// apart into spans (and needs `spans`); otherwise statements go
    /// through `Session::execute`, recorded as one span each when `spans`
    /// is given.
    pub fn run_round(
        &mut self,
        round: usize,
        mut spans: Option<&mut SpanLog>,
        decomposed: bool,
    ) -> Round {
        let plan = self.plan;
        let mut slot_ms = Vec::with_capacity(plan.ops.slots.len());
        let mut tick_ms = Vec::new();
        let mut writes = 0;
        let mut catalog_epoch = None;
        let cpu_before = host::cpu_ms();
        let started = Instant::now();
        for (index, slot) in plan.ops.slots.iter().enumerate() {
            self.stmt_seq += 1;
            let call = slot.call(round);
            let t = Instant::now();
            let result = match spans.as_deref_mut() {
                Some(log) if decomposed => {
                    let root = log.root(self.stmt_seq, slot.class, "harness", "decomposed");
                    let result = self.decomposed(index, call, &root, log, &mut catalog_epoch);
                    log.close(root);
                    result
                }
                Some(log) => {
                    let root = log.root(
                        self.stmt_seq,
                        slot.class,
                        "vdb_core::serve",
                        "session.execute",
                    );
                    let result = self.send(call);
                    log.close(root);
                    result
                }
                None => self.send(call),
            };
            slot_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.oracle.judge(slot, index, round, result);
            self.after_slot(slot, &mut writes, &mut tick_ms, spans.as_deref_mut());
        }
        if plan.ops.has_writes() {
            tick_ms.push(self.tick(spans));
        }
        Round {
            slot_ms,
            tick_ms,
            wall_s: started.elapsed().as_secs_f64(),
            cpu_ms: host::cpu_ms() - cpu_before,
        }
    }

    /// Compile and plan every repeated-text read, as the serving layer
    /// has by the time the list has run once.
    pub fn plan_repeated_reads(&mut self) -> DbResult<()> {
        let db = self.engine.database();
        for (index, slot) in self.plan.ops.slots.iter().enumerate() {
            if slot.calls.len() > 1 || slot.effect != Effect::None {
                continue;
            }
            let text = match &slot.calls[0] {
                Call::Sql(sql) => sql.clone(),
                Call::Prepared { name, params } => self.prepared[name].render(params)?,
            };
            if let BoundStatement::Select(query) = db.compile(&text)? {
                let planned = db.plan_select(&query)?;
                self.planned += 1;
                self.planned_nonsuper += u64::from(reads_nonsuper(&planned));
                self.plans.insert(index, planned);
            }
        }
        Ok(())
    }

    /// One statement as the calls the serving layer makes for it, each a
    /// child span of `root`: normalize, then on a plan-cache miss compile,
    /// optimizer catalog and plan, then snapshot and execute.
    fn decomposed(
        &mut self,
        index: usize,
        call: &Call,
        root: &Span,
        log: &mut SpanLog,
        catalog_epoch: &mut Option<vdb_types::Epoch>,
    ) -> DbResult<QueryResult> {
        let db = self.engine.database();
        let text = match call {
            Call::Sql(sql) => {
                log.child(root, "vdb_sql", "normalize", || vdb_sql::normalize(sql))?;
                sql.clone()
            }
            Call::Prepared { name, params } => {
                let template = &self.prepared[name];
                log.child(root, "vdb_sql", "normalize", || template.render(params))?
            }
        };
        let missed;
        let planned = match self.plans.get(&index) {
            Some(cached) => cached,
            None => {
                let stmt = log.child(root, "vdb_sql", "compile", || db.compile(&text))?;
                let BoundStatement::Select(query) = stmt else {
                    return log.child(root, "vdb_storage", "execute_bound", || {
                        db.execute_bound(stmt)
                    });
                };
                // The catalog is rebuilt by the first statement that plans
                // after a commit; later calls at the same epoch return the
                // cached one.
                let epoch = db.cluster().epochs.current();
                let name = if *catalog_epoch == Some(epoch) {
                    "catalog_cached"
                } else {
                    "catalog_rebuild"
                };
                *catalog_epoch = Some(epoch);
                log.child(root, "vdb_optimizer", name, || db.optimizer_catalog())?;
                missed = log.child(root, "vdb_optimizer", "plan", || db.plan_select(&query))?;
                self.planned += 1;
                self.planned_nonsuper += u64::from(reads_nonsuper(&missed));
                &missed
            }
        };
        let snapshot = log.child(root, "vdb_txn", "snapshot", || {
            db.cluster().epochs.read_committed_snapshot()
        });
        let rows = log.child(root, "vdb_exec", "execute", || {
            db.cluster().execute(planned, snapshot)
        })?;
        Ok(QueryResult {
            columns: planned.output_names.clone(),
            tag: format!("SELECT {}", rows.len()),
            rows,
        })
    }

    /// Hold each class's check statement to the generator's reference
    /// accumulators.
    fn run_checks(&mut self) {
        for check in &self.plan.checks {
            self.oracle.attempted += 1;
            let class = self.plan.ops.classes[check.class as usize];
            match self.send(&check.call) {
                Ok(result) if rows_match(&result.rows, &check.expect) => {}
                Ok(result) => self.oracle.complain(format!(
                    "check of class {class}: got {:?}, generator says {:?}",
                    result.rows.iter().take(3).collect::<Vec<_>>(),
                    check.expect.iter().take(3).collect::<Vec<_>>()
                )),
                Err(e) => self.oracle.complain(format!("check of class {class}: {e}")),
            }
        }
    }

    fn loaded_rows(&self) -> u64 {
        let side: usize = self
            .plan
            .side_tables
            .iter()
            .map(|(_, rows)| rows.len())
            .sum();
        (self.plan.facts.rows + side) as u64
    }

    pub fn live_rows(&self) -> u64 {
        self.loaded_rows() + self.oracle.shadow.total().count
    }

    pub fn rows_ingested(&self) -> u64 {
        self.loaded_rows() + self.oracle.shadow.rows_inserted
    }

    /// Bytes in every node's data directory.
    pub fn stored_bytes(&self) -> u64 {
        let cluster = self.engine.cluster();
        (0..cluster.n_nodes())
            .map(|node| cluster.node_engine(node).backend().total_size(""))
            .sum()
    }

    /// Drop the engine, open it again from `dir`, and hold what it then
    /// answers to the shadow model: every acknowledged write must be
    /// readable after a restart. Also returns the seconds the open took.
    pub fn restart(self, dir: &DataDir) -> Result<(Harness<'p>, f64), String> {
        let Harness {
            plan,
            engine,
            session,
            oracle,
            ..
        } = self;
        drop(session);
        drop(engine);
        let t = Instant::now();
        let mut reopened =
            Harness::open(plan, Some(dir)).map_err(|e| format!("reopen failed: {e}"))?;
        let reopen_s = t.elapsed().as_secs_f64();
        reopened.oracle = oracle;
        let total = reopened.oracle.shadow.total();
        let checks = [
            (
                "SELECT COUNT(*) FROM m".to_string(),
                vec![vec![Value::Integer(
                    (plan.facts.rows as u64 + total.count) as i64,
                )]],
            ),
            (
                format!("SELECT COUNT(*), SUM(value) FROM m WHERE meter >= {TRICKLE_METER_BASE}"),
                count_sum_row(total),
            ),
        ];
        for (sql, want) in checks {
            reopened.oracle.attempted += 1;
            match reopened.engine.query(&sql) {
                Ok(rows) if rows_match(&rows, &want) => {}
                Ok(rows) => reopened.oracle.complain(format!(
                    "after restart `{sql}` gave {rows:?}, want {want:?}"
                )),
                Err(e) => reopened
                    .oracle
                    .complain(format!("after restart `{sql}`: {e}")),
            }
        }
        Ok((reopened, reopen_s))
    }
}

/// Whether the plan reads a projection other than a super-projection.
fn reads_nonsuper(planned: &vdb_optimizer::PlannedQuery) -> bool {
    planned
        .scanned_projections()
        .iter()
        .any(|p| !p.contains("_super"))
}

fn count_sum_row(agg: Agg) -> Vec<Row> {
    let sum = if agg.count == 0 {
        Value::Null
    } else {
        Value::Float(agg.sum)
    };
    vec![vec![Value::Integer(agg.count as i64), sum]]
}

/// `(node, projection)` of every store of a projection family: the
/// projection itself, or its buddies `<family>_b<n>` on a K-safe cluster.
pub fn fact_store_names(engine: &Engine, family: &str) -> Vec<(usize, String)> {
    let cluster = engine.cluster();
    let buddy = format!("{family}_b");
    (0..cluster.n_nodes())
        .flat_map(|node| {
            let names = cluster.node_engine(node).projection_names();
            names
                .into_iter()
                .filter(|name| name == family || name.starts_with(&buddy))
                .map(move |name| (node, name))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A finished set-up: the engine is loaded, checked (when asked) and has
/// run its warm-up round.
pub struct SetUp<'p> {
    pub harness: Harness<'p>,
    pub dir: DataDir,
    /// Timed part: open, DDL, bulk loads, mover tick, prepare, warm-up
    /// round. Row generation and the oracle checks are not in it.
    pub seconds: f64,
    pub load_seconds: f64,
    pub io_at_open: ProcIo,
}

pub fn set_up<'p>(
    plan: &'p Plan,
    config: &Config,
    attempt: usize,
    check: bool,
    on_disk: bool,
) -> Result<SetUp<'p>, String> {
    let failed = |e: DbError| format!("set-up failed: {e}");
    let dir = DataDir::create(&config.data_root, attempt)?;
    let io_at_open = ProcIo::read()?;

    let t = Instant::now();
    let mut harness = Harness::open(plan, on_disk.then_some(&dir)).map_err(failed)?;
    for ddl in &plan.ddl {
        harness.engine.execute(ddl).map_err(failed)?;
    }
    let mut seconds = t.elapsed().as_secs_f64();

    let mut load_seconds = 0.0;
    let mut gen = FactGen::new(config.seed, plan.facts);
    while let Some(rows) = gen.next_chunk(None) {
        let t = Instant::now();
        harness.engine.load("m", &rows).map_err(failed)?;
        load_seconds += t.elapsed().as_secs_f64();
    }
    seconds += load_seconds;

    let t = Instant::now();
    for (table, rows) in &plan.side_tables {
        harness.engine.load(table, rows).map_err(failed)?;
    }
    harness.engine.tuple_mover_tick().map_err(failed)?;
    harness.prepare().map_err(failed)?;
    seconds += t.elapsed().as_secs_f64();

    if check {
        harness.run_checks();
    }

    let t = Instant::now();
    harness.run_round(0, None, false);
    seconds += t.elapsed().as_secs_f64();

    Ok(SetUp {
        harness,
        dir,
        seconds,
        load_seconds,
        io_at_open,
    })
}

/// The engine whose stored bytes, written bytes, files and restart are
/// counted: the timed one when it is on disk; otherwise a durable set-up
/// of its own (whose warm-up round is one round of the op list), and the
/// oracle of the in-memory engine it replaces.
pub fn counted_engine<'p>(
    mut timed: SetUp<'p>,
    plan: &'p Plan,
    config: &Config,
    attempt: usize,
    check: bool,
) -> Result<(SetUp<'p>, Option<Oracle>), String> {
    if plan.engine.timed_on_disk {
        return Ok((timed, None));
    }
    let oracle = std::mem::take(&mut timed.harness.oracle);
    drop(timed);
    Ok((set_up(plan, config, attempt, check, true)?, Some(oracle)))
}

/// Run `workload` once and report its metrics: the end-to-end ones
/// untraced, the per-layer ones traced.
pub fn run_workload(workload: &Workload, config: &Config) -> Result<Outcome, String> {
    ProcIo::read()?;
    let warm = host::warm_up();
    let plan = (workload.plan)(config.seed);
    if config.trace {
        crate::layers::traced_run(workload, &plan, config, warm)
    } else {
        untraced_run(&plan, config, warm)
    }
}

/// `degraded_host` when the host did not give the run its cores or the
/// rounds did not repeat.
pub fn host_complaint(warm: &host::HostWarm, round_spread: f64) -> Option<String> {
    (warm.par_ratio > host::PAR_RATIO_LIMIT || round_spread > ROUND_SPREAD_LIMIT).then(|| {
        format!(
            "degraded_host: par_ratio {:.2}, round_spread {round_spread:.3}",
            warm.par_ratio
        )
    })
}

/// How far any round's wall sits from the line through its neighbours',
/// as a share of the median wall. A workload that grows its table makes
/// each round a little longer than the last; that trend is not spread.
pub fn round_spread(rounds: &[Round]) -> f64 {
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    walls
        .windows(3)
        .map(|w| (w[1] - (w[0] + w[2]) / 2.0).abs())
        .fold(0.0, f64::max)
        / median(&walls)
}

fn untraced_run(plan: &Plan, config: &Config, warm: host::HostWarm) -> Result<Outcome, String> {
    let on_disk = plan.engine.timed_on_disk;
    let mut setup_seconds = Vec::new();
    for attempt in 1..SETUPS {
        setup_seconds.push(set_up(plan, config, attempt, false, on_disk)?.seconds);
    }
    let mut timed = set_up(plan, config, SETUPS, true, on_disk)?;
    setup_seconds.push(timed.seconds);
    let rss_is_of_rounds = host::reset_rss_peak();

    let wanted = ((config.seconds / ROUND_SECONDS).round() as usize).clamp(MIN_ROUNDS, MAX_ROUNDS);
    let mut rounds = Vec::new();
    let started = Instant::now();
    while rounds.len() < wanted
        && (rounds.len() < MIN_ROUNDS
            || started.elapsed().as_secs_f64() < OVERTIME * config.seconds)
    {
        rounds.push(timed.harness.run_round(rounds.len() + 1, None, false));
    }
    let rss_peak_mb = host::rss_peak_mb();

    let (counted, timed_oracle) = counted_engine(timed, plan, config, SETUPS + 1, true)?;
    let SetUp {
        harness,
        dir,
        io_at_open,
        ..
    } = counted;
    let stored_bytes = harness.stored_bytes();
    let written = ProcIo::read()?.since(&io_at_open).wchar;
    let live_rows = harness.live_rows();
    let rows_ingested = harness.rows_ingested();
    let (harness, _) = harness.restart(&dir)?;
    let mut oracle = harness.oracle;
    oracle.absorb(timed_oracle);

    let slots = plan.ops.slots.len();
    let slot_medians: Vec<f64> = (0..slots)
        .map(|i| median(&rounds.iter().map(|r| r.slot_ms[i]).collect::<Vec<_>>()))
        .collect();
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    let cpus: Vec<f64> = rounds.iter().map(|r| r.cpu_ms).collect();

    eprintln!(
        "set-ups {:.3?} s, round walls {:.3?} s, host warm-up {:.2} s",
        setup_seconds, walls, warm.seconds
    );
    let mut complaints = oracle.complaints.clone();
    complaints.extend(host_complaint(&warm, round_spread(&rounds)));
    if !rss_is_of_rounds {
        complaints.push("rss_peak_mb is whole-process: /proc/self/clear_refs refused".to_string());
    }
    // In the order of `spec::END_TO_END`.
    let values = [
        median(&setup_seconds),
        slots as f64 / median(&walls),
        percentile(&slot_medians, 0.50),
        percentile(&slot_medians, 0.95),
        median(&cpus) / slots as f64,
        rss_peak_mb,
        stored_bytes as f64 / live_rows as f64,
        written as f64 / rows_ingested as f64,
    ];
    Ok(Outcome {
        attempted: oracle.attempted,
        failed: oracle.failed,
        metrics: crate::spec::END_TO_END
            .iter()
            .zip(values)
            .map(|(spec, value)| Metric {
                name: spec.name.to_string(),
                value,
                unit: spec.unit,
            })
            .collect(),
        complaints,
    })
}
