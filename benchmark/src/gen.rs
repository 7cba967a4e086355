//! Seeded data: the fact table `m`, the dimension `d`, the events table
//! `e`, and the reference accumulators folded while rows are generated.
//!
//! `--seed` is the only source of randomness; the engine receives only
//! what this module generates.

use vdb_types::{Row, Value};

/// SplitMix64: small, fast, and fixed by this file — a run's inputs never
/// depend on a library's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated by `stream` so that data, op lists
    /// and literals do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next();
        rng
    }

    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

pub const METRICS: i64 = 20;
pub const REGIONS: [&str; 8] = [
    "apac-east",
    "apac-south",
    "emea-north",
    "emea-west",
    "latam",
    "us-central",
    "us-east",
    "us-west",
];
pub const TIERS: i64 = 4;
pub const EVENT_KINDS: i64 = 5;
/// First timestamp; row `i` of the fact table is stamped `T0 + i`.
pub const T0: i64 = 1_600_000_000;
/// `value` is a multiple of 0.25 below this, so every SUM is exact in an
/// `f64` whatever order the executor adds in.
pub const VALUE_MAX: f64 = 1000.0;
/// The reference accumulators split values at this threshold.
pub const CHECK_VALUE: f64 = 500.0;

pub fn region_of(meter: i64) -> &'static str {
    REGIONS[(meter % REGIONS.len() as i64) as usize]
}

pub fn tier_of(meter: i64) -> i64 {
    (meter / 3) % TIERS
}

/// Shape of the fact table.
#[derive(Debug, Clone, Copy)]
pub struct FactSpec {
    pub rows: usize,
    /// Bulk loads (one ROS container per projection each).
    pub chunks: usize,
    pub meters: i64,
}

/// COUNT and SUM(value) of a set of rows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub sum: f64,
}

impl Agg {
    pub fn add(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
    }

    pub fn merge(&mut self, other: Agg) {
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// Reference accumulators per `(metric, meter)`: all rows, and the rows
/// with `value < CHECK_VALUE`. Every check statement's expected answer is
/// a fold over these.
#[derive(Debug, Clone)]
pub struct Cube {
    pub spec: FactSpec,
    all: Vec<Agg>,
    low: Vec<Agg>,
    /// The first 50 `(ts, value)` of meter 0 in time order.
    pub meter0_head: Vec<(i64, f64)>,
}

impl Cube {
    fn new(spec: FactSpec) -> Cube {
        let cells = (METRICS * spec.meters) as usize;
        Cube {
            spec,
            all: vec![Agg::default(); cells],
            low: vec![Agg::default(); cells],
            meter0_head: Vec::new(),
        }
    }

    fn cell(&self, metric: i64, meter: i64) -> usize {
        (metric * self.spec.meters + meter) as usize
    }

    fn fold(&mut self, metric: i64, meter: i64, ts: i64, value: f64) {
        let cell = self.cell(metric, meter);
        self.all[cell].add(value);
        if value < CHECK_VALUE {
            self.low[cell].add(value);
        }
        if meter == 0 && self.meter0_head.len() < 50 {
            self.meter0_head.push((ts, value));
        }
    }

    pub fn all(&self, metric: i64, meter: i64) -> Agg {
        self.all[self.cell(metric, meter)]
    }

    pub fn low(&self, metric: i64, meter: i64) -> Agg {
        self.low[self.cell(metric, meter)]
    }

    /// Fold every cell (its low half when `low_only`) into groups keyed by
    /// `key(metric, meter)`; cells whose key is `None` and empty groups are
    /// left out, as SQL does.
    pub fn group_by<K: Ord>(
        &self,
        key: impl Fn(i64, i64) -> Option<K>,
        low_only: bool,
    ) -> std::collections::BTreeMap<K, Agg> {
        let mut groups = std::collections::BTreeMap::new();
        for metric in 0..METRICS {
            for meter in 0..self.spec.meters {
                let agg = if low_only {
                    self.low(metric, meter)
                } else {
                    self.all(metric, meter)
                };
                if agg.count == 0 {
                    continue;
                }
                if let Some(k) = key(metric, meter) {
                    groups.entry(k).or_insert_with(Agg::default).merge(agg);
                }
            }
        }
        groups
    }
}

/// Generator of the fact table, chunk by chunk. Two generators from one
/// seed and spec yield identical rows.
pub struct FactGen {
    spec: FactSpec,
    rng: Rng,
    next_row: usize,
    chunk: usize,
}

impl FactGen {
    pub fn new(seed: u64, spec: FactSpec) -> FactGen {
        FactGen {
            spec,
            rng: Rng::new(seed, 1),
            next_row: 0,
            chunk: 0,
        }
    }

    /// The next bulk-load chunk, folded into `cube` when one is given.
    pub fn next_chunk(&mut self, mut cube: Option<&mut Cube>) -> Option<Vec<Row>> {
        if self.chunk == self.spec.chunks {
            return None;
        }
        self.chunk += 1;
        let end = self.spec.rows * self.chunk / self.spec.chunks;
        let mut rows = Vec::with_capacity(end - self.next_row);
        for i in self.next_row..end {
            let metric = self.rng.below(METRICS as u64) as i64;
            let meter = self.rng.below(self.spec.meters as u64) as i64;
            let ts = T0 + i as i64;
            let value = self.rng.below((VALUE_MAX * 4.0) as u64) as f64 * 0.25;
            if let Some(cube) = cube.as_deref_mut() {
                cube.fold(metric, meter, ts, value);
            }
            rows.push(vec![
                Value::Integer(metric),
                Value::Integer(meter),
                Value::Timestamp(ts),
                Value::Varchar(region_of(meter).to_string()),
                Value::Float(value),
            ]);
        }
        self.next_row = end;
        Some(rows)
    }
}

/// One pass over the generator that keeps only the accumulators.
pub fn build_cube(seed: u64, spec: FactSpec) -> Cube {
    let mut cube = Cube::new(spec);
    let mut gen = FactGen::new(seed, spec);
    while gen.next_chunk(Some(&mut cube)).is_some() {}
    cube
}

/// Dimension `d(meter, city, tier)`: one row per meter.
pub fn dim_rows(meters: i64) -> Vec<Row> {
    (0..meters)
        .map(|meter| {
            vec![
                Value::Integer(meter),
                Value::Varchar(format!("city{:03}", meter % 97)),
                Value::Integer(tier_of(meter)),
            ]
        })
        .collect()
}

/// Kind of event `event_id`.
pub fn event_kind(event_id: i64) -> i64 {
    (event_id * 7 + event_id / 11) % EVENT_KINDS
}

/// Events `e(event_id, meter, kind, ts)`: `per_meter` events for every
/// meter, so `m JOIN e ON meter` multiplies each fact row by `per_meter`.
pub fn event_rows(meters: i64, per_meter: i64) -> Vec<Row> {
    (0..meters * per_meter)
        .map(|event_id| {
            vec![
                Value::Integer(event_id),
                Value::Integer(event_id % meters),
                Value::Integer(event_kind(event_id)),
                Value::Timestamp(T0 + event_id),
            ]
        })
        .collect()
}
