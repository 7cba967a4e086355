//! What a workload is made of: the engine shape, the DDL, the data, the
//! seeded list of statement slots, and the check statements with the
//! answers the generator says they must give.

use crate::gen::{Cube, FactSpec};
use vdb_types::{Row, Value};

/// One statement as the client sends it.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// Unprepared text through `Session::execute`.
    Sql(String),
    /// `Session::execute_prepared` of a statement prepared at set-up.
    Prepared {
        name: &'static str,
        params: Vec<Value>,
    },
}

/// What a slot does to (or asks of) the trickle region of `m` — the rows
/// with `meter >= TRICKLE_METER_BASE`, which only the op list writes. The
/// harness replays these on a shadow model to know the right answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    None,
    /// Adds `count` rows of `meter` whose values sum to `sum`.
    Insert {
        meter: i64,
        count: u64,
        sum: f64,
    },
    /// Removes every row of `meter`.
    Delete {
        meter: i64,
    },
    /// Sets `value` on every row of `meter`.
    Update {
        meter: i64,
        value: f64,
    },
    /// Returns `COUNT(*), SUM(value)` of `meter`.
    ReadMeter {
        meter: i64,
    },
}

/// Most rounds a fresh-literal slot can run before its literals repeat.
pub const VARIANTS: usize = 16;

/// One position of the op list. Round `r` sends `calls[r % calls.len()]`:
/// a slot with one call repeats its text every round (and may hit the
/// plan cache), a slot with [`VARIANTS`] calls sends literals no earlier
/// round used (and must miss).
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// Index into [`OpList::classes`].
    pub class: u8,
    pub calls: Vec<Call>,
    pub effect: Effect,
}

impl Slot {
    pub fn repeated(class: u8, call: Call) -> Slot {
        Slot {
            class,
            calls: vec![call],
            effect: Effect::None,
        }
    }

    /// A slot that sends `calls[r]` in round `r`: literals no earlier
    /// round used.
    pub fn fresh(class: u8, calls: Vec<Call>) -> Slot {
        Slot {
            class,
            calls,
            effect: Effect::None,
        }
    }

    pub fn call(&self, round: usize) -> &Call {
        &self.calls[round % self.calls.len()]
    }

    pub fn is_write(&self) -> bool {
        matches!(
            self.effect,
            Effect::Insert { .. } | Effect::Delete { .. } | Effect::Update { .. }
        )
    }
}

/// The seeded statement list one round executes, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct OpList {
    /// Statement classes, indexed by [`Slot::class`].
    pub classes: Vec<&'static str>,
    /// `(name, text)` of the statements prepared at set-up.
    pub prepared: Vec<(&'static str, String)>,
    pub slots: Vec<Slot>,
    /// The harness runs the tuple mover after every this-many write
    /// slots (0 = only at the end of a round with writes).
    pub tick_every_writes: usize,
}

impl OpList {
    /// Canonical bytes of the whole list, for the determinism test.
    pub fn to_bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }

    pub fn has_writes(&self) -> bool {
        self.slots.iter().any(Slot::is_write)
    }
}

/// A statement whose full answer the generator knows.
#[derive(Debug, Clone)]
pub struct Check {
    pub class: u8,
    pub call: Call,
    pub expect: Vec<Row>,
}

/// Shape of the engine a workload opens.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub nodes: usize,
    pub k_safety: usize,
    pub threads: usize,
    /// Whether the timed rounds run on an engine with a data directory.
    /// A statement that commits spends ~98 % of its time in the disk's
    /// fsync, and a shared disk's fsync drifts by tens of percent between
    /// runs; a workload that times commits therefore times them on an
    /// in-memory engine and counts what a durable one writes in a pass of
    /// its own.
    pub timed_on_disk: bool,
}

/// Everything a workload needs, built from the seed before any clock
/// starts.
pub struct Plan {
    pub engine: EngineSpec,
    pub ddl: Vec<String>,
    pub facts: FactSpec,
    /// Small tables loaded whole: `(table, rows)`.
    pub side_tables: Vec<(&'static str, Vec<Row>)>,
    /// The fact projection the storage and encoding probes read.
    pub fact_projection: &'static str,
    pub ops: OpList,
    pub checks: Vec<Check>,
    pub cube: Cube,
}

/// One workload of the benchmark.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub plan: fn(seed: u64) -> Plan,
}

/// Deal `counts[class]` slots of each class into one list and shuffle it,
/// so every seed has exactly the same class mix in a different order.
pub fn deal(rng: &mut crate::gen::Rng, counts: &[usize]) -> Vec<u8> {
    let mut classes: Vec<u8> = counts
        .iter()
        .enumerate()
        .flat_map(|(class, &n)| std::iter::repeat_n(class as u8, n))
        .collect();
    rng.shuffle(&mut classes);
    classes
}

pub fn int(v: i64) -> Value {
    Value::Integer(v)
}

pub fn float(v: f64) -> Value {
    Value::Float(v)
}

pub fn text(v: &str) -> Value {
    Value::Varchar(v.to_string())
}
