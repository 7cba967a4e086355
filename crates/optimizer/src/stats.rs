//! Statistics: sample-based distinct estimation and equi-height
//! histograms (§6.2: "equi-height histograms to calculate selectivity,
//! applying sample-based estimates of the number of distinct values").

use vdb_types::{BinOp, Expr, Value};

/// Number of histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Per-column statistics gathered from a sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStatsData {
    pub rows: u64,
    pub nulls: u64,
    pub min: Option<Value>,
    pub max: Option<Value>,
    pub distinct: u64,
    pub avg_bytes: f64,
    /// Equi-height bucket upper bounds (sorted). `rows/buckets` rows fall
    /// at or below each bound.
    pub histogram: Vec<Value>,
}

/// Build stats from a sample of `sample` values drawn from a column with
/// `total_rows` rows.
pub fn build_column_stats(sample: &[Value], total_rows: u64) -> ColumnStatsData {
    column_stats_of(sample.iter(), total_rows)
}

/// [`build_column_stats`] over borrowed values in any order — the catalog
/// feeds it one column of rows it only borrows from storage.
pub fn column_stats_of<'a>(
    sample: impl Iterator<Item = &'a Value>,
    total_rows: u64,
) -> ColumnStatsData {
    let mut sampled = 0usize;
    let mut bytes = 0usize;
    let mut non_null: Vec<&Value> = Vec::with_capacity(sample.size_hint().0);
    for v in sample {
        sampled += 1;
        bytes += match v {
            Value::Null | Value::Boolean(_) => 1usize,
            Value::Integer(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Varchar(s) => s.len() + 4,
        };
        if !v.is_null() {
            non_null.push(v);
        }
    }
    let nulls_in_sample = sampled - non_null.len();
    sort_values(&mut non_null);
    let d_sample = {
        let mut d = 0u64;
        let mut prev: Option<&&Value> = None;
        for v in &non_null {
            if prev != Some(v) {
                d += 1;
            }
            prev = Some(v);
        }
        d
    };
    // First-order jackknife / GEE-flavored scale-up (Haas et al. [16]):
    // d̂ = d * sqrt(N / n), capped at N.
    let n = sampled.max(1) as f64;
    let scale = (total_rows as f64 / n).max(1.0).sqrt();
    let distinct = ((d_sample as f64) * scale).round().min(total_rows as f64) as u64;
    let mut histogram = Vec::new();
    if !non_null.is_empty() {
        for b in 1..=HISTOGRAM_BUCKETS {
            let idx = (b * non_null.len() / HISTOGRAM_BUCKETS).saturating_sub(1);
            histogram.push(non_null[idx].clone());
        }
        histogram.dedup();
    }
    let avg_bytes = if sampled == 0 {
        8.0
    } else {
        bytes as f64 / sampled as f64
    };
    let null_fraction = nulls_in_sample as f64 / n;
    ColumnStatsData {
        rows: total_rows,
        nulls: (null_fraction * total_rows as f64) as u64,
        min: non_null.first().map(|v| (*v).clone()),
        max: non_null.last().map(|v| (*v).clone()),
        distinct: distinct.max(u64::from(d_sample > 0)),
        avg_bytes,
        histogram,
    }
}

/// Sort by `Value::cmp`. A column of one type family — the usual case —
/// sorts on keys extracted once instead of comparing enums through two
/// pointers: the sort is most of what a catalog rebuild costs. Within a
/// family equal keys are equal values, so the result is the same.
fn sort_values(values: &mut [&Value]) {
    /// Sort on `key` if it is defined for every value.
    fn by_key<'a, K: Ord + Copy>(
        values: &mut [&'a Value],
        key: impl Fn(&'a Value) -> Option<K>,
    ) -> bool {
        let keyed: Option<Vec<(K, &Value)>> =
            values.iter().map(|&v| key(v).map(|k| (k, v))).collect();
        let Some(mut keyed) = keyed else {
            return false;
        };
        keyed.sort_unstable_by_key(|k| k.0);
        for (slot, (_, v)) in values.iter_mut().zip(keyed) {
            *slot = v;
        }
        true
    }
    let sorted = by_key(values, |v| match v {
        Value::Integer(i) | Value::Timestamp(i) => Some(*i),
        _ => None,
    }) || by_key(values, |v| match v {
        // `f64::total_cmp`'s order as an integer.
        Value::Float(f) => {
            let bits = f.to_bits() as i64;
            Some(bits ^ (((bits >> 63) as u64) >> 1) as i64)
        }
        _ => None,
    }) || by_key(values, |v| match v {
        Value::Varchar(s) => Some(s.as_str()),
        _ => None,
    });
    if !sorted {
        values.sort();
    }
}

impl ColumnStatsData {
    /// Fraction of rows at or below `v`, from the histogram (falling back
    /// to linear interpolation on min/max for numerics).
    pub fn fraction_le(&self, v: &Value) -> f64 {
        if !self.histogram.is_empty() {
            let below = self.histogram.partition_point(|b| b < v);
            return (below as f64 / self.histogram.len() as f64).clamp(0.0, 1.0);
        }
        match (&self.min, &self.max, v.as_f64()) {
            (Some(min), Some(max), Some(x)) => {
                let (lo, hi) = (min.as_f64().unwrap_or(0.0), max.as_f64().unwrap_or(0.0));
                if hi <= lo {
                    return 0.5;
                }
                ((x - lo) / (hi - lo)).clamp(0.0, 1.0)
            }
            _ => 0.5,
        }
    }

    /// Estimated selectivity of `column op literal`.
    pub fn selectivity(&self, op: BinOp, v: &Value) -> f64 {
        match op {
            BinOp::Eq => 1.0 / self.distinct.max(1) as f64,
            BinOp::Ne => 1.0 - 1.0 / self.distinct.max(1) as f64,
            BinOp::Lt | BinOp::Le => self.fraction_le(v),
            BinOp::Gt | BinOp::Ge => 1.0 - self.fraction_le(v),
            _ => 1.0,
        }
    }
}

/// Estimated selectivity of a predicate over one table's columns.
/// Conjuncts multiply (independence assumption); unknown shapes cost 0.5.
pub fn predicate_selectivity(pred: &Expr, stats: &[ColumnStatsData]) -> f64 {
    pred.clone()
        .split_conjuncts()
        .iter()
        .map(|c| conjunct_selectivity(c, stats))
        .product::<f64>()
        .clamp(0.0, 1.0)
}

fn conjunct_selectivity(conj: &Expr, stats: &[ColumnStatsData]) -> f64 {
    match conj {
        Expr::Binary { op, left, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column { index, .. }, Expr::Literal(v))
                | (Expr::Literal(v), Expr::Column { index, .. }) => {
                    stats.get(*index).map_or(0.3, |s| s.selectivity(*op, v))
                }
                _ => 0.5,
            }
        }
        Expr::Between { input, low, high } => {
            if let (Expr::Column { index, .. }, Expr::Literal(lo), Expr::Literal(hi)) =
                (input.as_ref(), low.as_ref(), high.as_ref())
            {
                if let Some(s) = stats.get(*index) {
                    return (s.fraction_le(hi) - s.fraction_le(lo)).clamp(0.001, 1.0);
                }
            }
            0.25
        }
        Expr::InList { input, list, .. } => {
            if let Expr::Column { index, .. } = input.as_ref() {
                if let Some(s) = stats.get(*index) {
                    return (list.len() as f64 / s.distinct.max(1) as f64).min(1.0);
                }
            }
            0.2
        }
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let a = conjunct_selectivity(left, stats);
            let b = conjunct_selectivity(right, stats);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::IsNull { .. } => 0.05,
        _ => 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_sample(n: i64) -> Vec<Value> {
        (0..n).map(Value::Integer).collect()
    }

    #[test]
    fn distinct_estimation_scales_up() {
        // Sample of 1000 distinct values from 100k rows: estimate should be
        // well above the sample count but at most the row count.
        let s = build_column_stats(&int_sample(1000), 100_000);
        assert!(s.distinct > 1000, "distinct = {}", s.distinct);
        assert!(s.distinct <= 100_000);
        assert_eq!(s.min, Some(Value::Integer(0)));
        assert_eq!(s.max, Some(Value::Integer(999)));
    }

    #[test]
    fn low_cardinality_detected() {
        let sample: Vec<Value> = (0..1000).map(|i| Value::Integer(i % 5)).collect();
        let s = build_column_stats(&sample, 1_000_000);
        // 5 distinct in a big sample: the estimate must stay small-ish.
        assert!(s.distinct < 200, "distinct = {}", s.distinct);
    }

    #[test]
    fn histogram_fractions() {
        let s = build_column_stats(&int_sample(1000), 1000);
        let f = s.fraction_le(&Value::Integer(500));
        assert!((f - 0.5).abs() < 0.1, "fraction = {f}");
        assert!(s.fraction_le(&Value::Integer(-10)) < 0.05);
        assert!(s.fraction_le(&Value::Integer(2000)) > 0.95);
    }

    #[test]
    fn selectivity_of_operators() {
        let s = build_column_stats(&int_sample(1000), 1000);
        assert!(s.selectivity(BinOp::Eq, &Value::Integer(5)) < 0.01);
        let lt = s.selectivity(BinOp::Lt, &Value::Integer(100));
        assert!(lt > 0.02 && lt < 0.2, "lt = {lt}");
    }

    #[test]
    fn predicate_selectivity_multiplies_conjuncts() {
        let stats = vec![
            build_column_stats(&int_sample(1000), 1000),
            build_column_stats(&int_sample(10), 1000),
        ];
        let pred = Expr::and(
            Expr::binary(BinOp::Lt, Expr::col(0, "a"), Expr::int(500)),
            Expr::eq(Expr::col(1, "b"), Expr::int(3)),
        );
        let sel = predicate_selectivity(&pred, &stats);
        let a = conjunct_selectivity(
            &Expr::binary(BinOp::Lt, Expr::col(0, "a"), Expr::int(500)),
            &stats,
        );
        let b = conjunct_selectivity(&Expr::eq(Expr::col(1, "b"), Expr::int(3)), &stats);
        assert!((sel - a * b).abs() < 1e-9);
    }

    #[test]
    fn nulls_counted() {
        let mut sample = int_sample(100);
        sample.extend(std::iter::repeat_n(Value::Null, 100));
        let s = build_column_stats(&sample, 2000);
        assert!(s.nulls > 800 && s.nulls < 1200, "nulls = {}", s.nulls);
    }

    /// The keyed sort is `Value::cmp`'s order for every column shape.
    #[test]
    fn keyed_sort_matches_value_order() {
        let floats = [
            3.5,
            -0.0,
            0.0,
            -7.25,
            f64::NAN,
            f64::INFINITY,
            -f64::NAN,
            1e-300,
        ];
        let columns: Vec<Vec<Value>> = vec![
            (0..200)
                .map(|i| Value::Integer((i * 7919) % 101 - 50))
                .collect(),
            (0..50).map(|i| Value::Timestamp(1000 - i)).collect(),
            vec![
                Value::Integer(5),
                Value::Timestamp(-3),
                Value::Integer(i64::MIN),
            ],
            floats.iter().map(|&f| Value::Float(f)).collect(),
            ["pear", "", "apple", "pear", "Zed"]
                .iter()
                .map(|s| Value::Varchar(s.to_string()))
                .collect(),
            vec![Value::Integer(2), Value::Float(1.5), Value::Boolean(true)],
            vec![],
        ];
        for col in &columns {
            let mut keyed: Vec<&Value> = col.iter().collect();
            let mut plain = keyed.clone();
            sort_values(&mut keyed);
            plain.sort();
            assert_eq!(keyed, plain);
        }
    }
}
