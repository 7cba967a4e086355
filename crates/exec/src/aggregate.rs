//! Aggregate functions with decomposable partial states, and the one
//! kernel that feeds them: the **span fold**.
//!
//! Partial states make two §6.1 techniques possible: parallel GroupBys
//! (per-morsel-worker partials merged at the barrier, see
//! [`crate::parallel`]) and distributed aggregation where per-node
//! partials are merged after a Send/Recv.
//!
//! Every group-by strategy ([`crate::groupby`]) cuts a batch into segments
//! of rows that share a group and hands each segment to
//! [`AggState::fold`] as a [`Span`] of physical rows — a contiguous range,
//! or a slice of the batch's selection vector. The fold runs a monomorphic
//! loop over `&[i64]` / `&[f64]` (validity honoured) for typed vectors,
//! one [`AggState::update_n`] per run for RLE vectors, and falls back to
//! the per-row [`AggState::update`] only for representations without a
//! native payload to loop over (`Plain`, dictionary, boolean). Floats are
//! always added in row order, so a SUM has the same bits whichever
//! representation or strategy carried it.
//!
//! An integer SUM is checked: a total that leaves `i64` is a structured
//! `integer overflow in SUM` error, never a wrapped number. AVG (and its
//! two-phase partial, [`AggFunc::SumFloat`]) accumulates in `f64`, so it
//! cannot overflow.

use crate::batch::ColumnSlice;
use crate::vector::{Bitmap, RleVector, VectorData};
use vdb_types::{DbError, DbResult, Value};

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Count,
    CountDistinct,
    Sum,
    /// SUM accumulated in `f64` whatever the input type: AVG's partial in
    /// a two-phase plan (see [`crate::groupby::two_phase_aggs`]), the
    /// accumulator the single-phase [`AggState::Avg`] already is. Not
    /// reachable from SQL.
    SumFloat,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::CountDistinct => "COUNT DISTINCT",
            AggFunc::Sum => "SUM",
            AggFunc::SumFloat => "SUM(float)",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }

    /// The aggregate a SQL call names, if it is one.
    pub fn parse(name: &str, distinct: bool) -> Option<AggFunc> {
        Some(match (name.to_ascii_uppercase().as_str(), distinct) {
            ("COUNT", false) => AggFunc::Count,
            ("COUNT", true) => AggFunc::CountDistinct,
            ("SUM", false) => AggFunc::Sum,
            ("MIN", false) => AggFunc::Min,
            ("MAX", false) => AggFunc::Max,
            ("AVG", false) => AggFunc::Avg,
            _ => return None,
        })
    }
}

/// One aggregate call: function + input column (of the operator's input).
/// `input` is ignored for `CountStar`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    pub input: usize,
    pub output_name: String,
}

impl AggCall {
    pub fn new(func: AggFunc, input: usize, output_name: impl Into<String>) -> AggCall {
        AggCall {
            func,
            input,
            output_name: output_name.into(),
        }
    }
}

/// Physical rows of a batch's columns, in row order: what one
/// [`AggState::fold`] call consumes.
#[derive(Debug, Clone, Copy)]
pub enum Span<'a> {
    /// The contiguous rows `start..end`.
    Range { start: usize, end: usize },
    /// The listed rows — a slice of a selection vector's sorted indices.
    Rows(&'a [u32]),
}

impl Span<'_> {
    pub fn len(&self) -> usize {
        match self {
            Span::Range { start, end } => end - start,
            Span::Rows(rows) => rows.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn for_each(self, mut f: impl FnMut(usize)) {
        match self {
            Span::Range { start, end } => (start..end).for_each(f),
            Span::Rows(rows) => rows.iter().for_each(|&i| f(i as usize)),
        }
    }

    fn try_for_each(self, mut f: impl FnMut(usize) -> DbResult<()>) -> DbResult<()> {
        match self {
            Span::Range { start, end } => (start..end).try_for_each(f),
            Span::Rows(rows) => rows.iter().try_for_each(|&i| f(i as usize)),
        }
    }

    /// Visit the span's non-NULL rows.
    #[inline]
    fn for_each_valid(self, validity: Option<&Bitmap>, mut f: impl FnMut(usize)) {
        match validity {
            None => self.for_each(f),
            Some(valid) => self.for_each(|i| {
                if valid.get(i) {
                    f(i)
                }
            }),
        }
    }

    fn count_valid(self, validity: Option<&Bitmap>) -> u64 {
        match validity {
            None => self.len() as u64,
            Some(_) => {
                let mut n = 0;
                self.for_each_valid(validity, |_| n += 1);
                n
            }
        }
    }
}

/// Running state of one aggregate within one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggState {
    Count(u64),
    /// Distinct values seen (hash of value → kept small by hashing; exact
    /// values retained for correctness).
    CountDistinct(std::collections::BTreeSet<Value>),
    /// SUM with integer/float duality: stays integer until a float arrives.
    SumInt(i64, bool),
    SumFloat(f64, bool),
    Min(Option<Value>),
    Max(Option<Value>),
    /// (sum, count) for AVG.
    Avg(f64, u64),
}

fn sum_overflow() -> DbError {
    DbError::Execution("integer overflow in SUM".into())
}

fn not_numeric(what: &str, found: &Value) -> DbError {
    DbError::TypeMismatch {
        expected: format!("numeric for {what}"),
        found: found.to_string(),
    }
}

impl AggState {
    pub fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(Default::default()),
            AggFunc::Sum => AggState::SumInt(0, false),
            AggFunc::SumFloat => AggState::SumFloat(0.0, false),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Avg => AggState::Avg(0.0, 0),
        }
    }

    /// Fold in one value (`Value::Null` for CountStar's placeholder). SQL
    /// semantics: NULLs are ignored by every aggregate except COUNT(*).
    pub fn update(&mut self, func: AggFunc, v: &Value) -> DbResult<()> {
        self.update_n(func, v, 1)
    }

    /// Fold in `n` copies of one value — the RLE fast path: a run of
    /// identical values updates the state once (§6.1 "operate directly on
    /// encoded data").
    pub fn update_n(&mut self, func: AggFunc, v: &Value, n: u64) -> DbResult<()> {
        if n == 0 {
            return Ok(());
        }
        match self {
            AggState::Count(c) => {
                if func == AggFunc::CountStar || !v.is_null() {
                    *c += n;
                }
            }
            AggState::CountDistinct(set) => {
                if !v.is_null() {
                    set.insert(v.clone());
                }
            }
            AggState::SumInt(acc, seen) => match v {
                Value::Null => {}
                Value::Integer(i) => {
                    let total = i128::from(*acc) + i128::from(*i) * i128::from(n);
                    *acc = i64::try_from(total).map_err(|_| sum_overflow())?;
                    *seen = true;
                }
                Value::Float(f) => {
                    let new = *acc as f64 + f * n as f64;
                    *self = AggState::SumFloat(new, true);
                }
                other => return Err(not_numeric("SUM", other)),
            },
            AggState::SumFloat(acc, seen) => match v {
                Value::Null => {}
                other => {
                    let f = other.as_f64().ok_or_else(|| not_numeric("SUM", other))?;
                    *acc += f * n as f64;
                    *seen = true;
                }
            },
            AggState::Min(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v < cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Max(m) => {
                if !v.is_null() && m.as_ref().is_none_or(|cur| v > cur) {
                    *m = Some(v.clone());
                }
            }
            AggState::Avg(sum, count) => {
                if !v.is_null() {
                    let f = v.as_f64().ok_or_else(|| not_numeric("AVG", v))?;
                    *sum += f * n as f64;
                    *count += n;
                }
            }
        }
        Ok(())
    }

    /// The span fold: fold the rows `span` of `col` into this state, in
    /// row order. Typed `Integer`/`Timestamp`/`Float` vectors run a native
    /// loop and build no `Value` except where the state must *store* one
    /// (MIN/MAX once per span, COUNT DISTINCT per row); RLE vectors fold
    /// one [`AggState::update_n`] per run the span touches; `Plain`,
    /// dictionary and boolean columns fold [`AggState::update`] per row.
    /// Results and type errors are those of the per-row path.
    pub fn fold(&mut self, func: AggFunc, col: &ColumnSlice, span: Span<'_>) -> DbResult<()> {
        if func == AggFunc::CountStar {
            return self.update_n(func, &Value::Null, span.len() as u64);
        }
        match col {
            ColumnSlice::Plain(values) => span.try_for_each(|i| self.update(func, &values[i])),
            ColumnSlice::Rle(rv) => self.fold_runs(func, rv, span),
            ColumnSlice::Typed(tv) => match tv.data() {
                VectorData::Int64(xs) => self.fold_i64(xs, tv.validity(), false, span),
                VectorData::Timestamp(xs) if func != AggFunc::Sum => {
                    self.fold_i64(xs, tv.validity(), true, span)
                }
                VectorData::Float64(xs) => {
                    self.fold_f64(xs, tv.validity(), span);
                    Ok(())
                }
                // No native payload to loop over — or SUM over timestamps,
                // a type error the row path reports.
                _ => span.try_for_each(|i| self.update(func, &tv.value_at(i))),
            },
        }
    }

    /// Does [`AggState::fold`] run `func` over `col` without building a
    /// `Value` per row?
    pub(crate) fn folds_natively(func: AggFunc, col: Option<&ColumnSlice>) -> bool {
        match (func, col) {
            (AggFunc::CountStar, _) => true,
            (AggFunc::CountDistinct, _) | (_, None | Some(ColumnSlice::Plain(_))) => false,
            (_, Some(ColumnSlice::Rle(_))) => true,
            (_, Some(ColumnSlice::Typed(tv))) => {
                !matches!(tv.data(), VectorData::Bool(_) | VectorData::Dict { .. })
            }
        }
    }

    /// One `update_n` per run of `rv` that `span` touches.
    fn fold_runs(&mut self, func: AggFunc, rv: &RleVector, span: Span<'_>) -> DbResult<()> {
        match span {
            Span::Range { start, end } => {
                let mut at = start;
                let mut ri = if start < end {
                    rv.run_index_at(start)
                } else {
                    0
                };
                while at < end {
                    let run_end = rv.run_start(ri + 1).min(end);
                    self.update_n(func, &rv.runs()[ri].0, (run_end - at) as u64)?;
                    at = run_end;
                    ri += 1;
                }
            }
            Span::Rows(rows) => {
                let (mut ri, mut k) = (0usize, 0usize);
                while k < rows.len() {
                    while rv.run_start(ri + 1) <= rows[k] as usize {
                        ri += 1;
                    }
                    let run_end = rv.run_start(ri + 1);
                    let n = rows[k..].partition_point(|&i| (i as usize) < run_end);
                    self.update_n(func, &rv.runs()[ri].0, n as u64)?;
                    k += n;
                }
            }
        }
        Ok(())
    }

    /// Native fold of non-NULL `Integer` (or `Timestamp`) payloads.
    fn fold_i64(
        &mut self,
        xs: &[i64],
        validity: Option<&Bitmap>,
        timestamp: bool,
        span: Span<'_>,
    ) -> DbResult<()> {
        if let AggState::SumInt(acc, seen) = self {
            // A span of i64s cannot leave i128; the running total is
            // checked once per span.
            let mut wide = i128::from(*acc);
            span.for_each_valid(validity, |i| {
                wide += i128::from(xs[i]);
                *seen = true;
            });
            *acc = i64::try_from(wide).map_err(|_| sum_overflow())?;
            return Ok(());
        }
        let value = |x: i64| match timestamp {
            true => Value::Timestamp(x),
            false => Value::Integer(x),
        };
        self.fold_native(xs, validity, span, |x| x as f64, value, i64::cmp);
        Ok(())
    }

    /// Native fold of non-NULL `Float` payloads, added in row order.
    fn fold_f64(&mut self, xs: &[f64], validity: Option<&Bitmap>, span: Span<'_>) {
        if let AggState::SumInt(acc, seen) = *self {
            // The first float turns an integer SUM into a float one.
            if span.count_valid(validity) == 0 {
                return;
            }
            *self = AggState::SumFloat(acc as f64, seen);
        }
        self.fold_native(xs, validity, span, |x| x, Value::Float, f64::total_cmp);
    }

    /// What the native folds share: every state but the integer SUM (its
    /// callers' business) over a payload that converts to `f64`, to a
    /// `Value`, and orders like one.
    fn fold_native<T: Copy>(
        &mut self,
        xs: &[T],
        validity: Option<&Bitmap>,
        span: Span<'_>,
        as_f64: impl Fn(T) -> f64,
        value: impl Fn(T) -> Value,
        cmp: impl Fn(&T, &T) -> std::cmp::Ordering,
    ) {
        let min = matches!(self, AggState::Min(_));
        match self {
            AggState::Count(c) => *c += span.count_valid(validity),
            AggState::CountDistinct(set) => span.for_each_valid(validity, |i| {
                set.insert(value(xs[i]));
            }),
            AggState::SumInt(..) => unreachable!("the callers fold an integer SUM"),
            AggState::SumFloat(acc, seen) => {
                let mut sum = *acc;
                span.for_each_valid(validity, |i| {
                    sum += as_f64(xs[i]);
                    *seen = true;
                });
                *acc = sum;
            }
            AggState::Min(m) | AggState::Max(m) => {
                let wanted = match min {
                    true => std::cmp::Ordering::Less,
                    false => std::cmp::Ordering::Greater,
                };
                let mut best: Option<T> = None;
                span.for_each_valid(validity, |i| {
                    if best.is_none_or(|b| cmp(&xs[i], &b) == wanted) {
                        best = Some(xs[i]);
                    }
                });
                if let Some(best) = best {
                    Self::keep_extreme(m, value(best), min);
                }
            }
            AggState::Avg(sum, count) => {
                let (mut s, mut n) = (*sum, 0u64);
                span.for_each_valid(validity, |i| {
                    s += as_f64(xs[i]);
                    n += 1;
                });
                (*sum, *count) = (s, *count + n);
            }
        }
    }

    /// Store `candidate` in a MIN (or MAX) slot if it beats what is there.
    fn keep_extreme(slot: &mut Option<Value>, candidate: Value, min: bool) {
        let beats = |cur: &Value| {
            if min {
                &candidate < cur
            } else {
                &candidate > cur
            }
        };
        if slot.as_ref().is_none_or(beats) {
            *slot = Some(candidate);
        }
    }

    /// Merge another partial state (worker → barrier, node → coordinator).
    pub fn merge(&mut self, other: AggState) -> DbResult<()> {
        match (&mut *self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::CountDistinct(a), AggState::CountDistinct(b)) => a.extend(b),
            (AggState::SumInt(a, sa), AggState::SumInt(b, sb)) => {
                *a = a.checked_add(b).ok_or_else(sum_overflow)?;
                *sa |= sb;
            }
            (AggState::SumInt(a, sa), AggState::SumFloat(b, sb)) => {
                *self = AggState::SumFloat(*a as f64 + b, *sa || sb);
            }
            (AggState::SumFloat(a, sa), AggState::SumInt(b, sb)) => {
                *a += b as f64;
                *sa |= sb;
            }
            (AggState::SumFloat(a, sa), AggState::SumFloat(b, sb)) => {
                *a += b;
                *sa |= sb;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(bv) = b {
                    Self::keep_extreme(a, bv, true);
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(bv) = b {
                    Self::keep_extreme(a, bv, false);
                }
            }
            (AggState::Avg(s, c), AggState::Avg(s2, c2)) => {
                *s += s2;
                *c += c2;
            }
            (a, b) => {
                return Err(DbError::Execution(format!(
                    "cannot merge aggregate states {a:?} and {b:?}"
                )))
            }
        }
        Ok(())
    }

    /// Final SQL value.
    pub fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Integer(c as i64),
            AggState::CountDistinct(set) => Value::Integer(set.len() as i64),
            AggState::SumInt(v, seen) => {
                if seen {
                    Value::Integer(v)
                } else {
                    Value::Null
                }
            }
            AggState::SumFloat(v, seen) => {
                if seen {
                    Value::Float(v)
                } else {
                    Value::Null
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::Avg(sum, count) => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
        }
    }

    /// Approximate bytes held (memory budgeting; only CountDistinct grows).
    pub fn approx_bytes(&self) -> usize {
        match self {
            AggState::CountDistinct(set) => {
                32 + set
                    .iter()
                    .map(crate::batch::approx_value_bytes)
                    .sum::<usize>()
            }
            _ => 24,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_FUNCS: [AggFunc; 8] = [
        AggFunc::CountStar,
        AggFunc::Count,
        AggFunc::CountDistinct,
        AggFunc::Sum,
        AggFunc::SumFloat,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];

    /// Every representation the fold specialises on (and those it does
    /// not), NULLs included, over a range span and a selection span: the
    /// result — value or type error — is the per-row path's.
    #[test]
    fn span_fold_matches_per_row_updates() {
        use crate::vector::TypedVector;
        let n = 40usize;
        let nullable = |i: usize, v: Value| if i % 7 == 3 { Value::Null } else { v };
        let ints: Vec<Value> = (0..n)
            .map(|i| nullable(i, Value::Integer((i as i64 * 37) % 11 - 5)))
            .collect();
        let stamps: Vec<Value> = (0..n).map(|i| Value::Timestamp(1_000 + i as i64)).collect();
        let floats: Vec<Value> = (0..n)
            .map(|i| {
                nullable(
                    i,
                    Value::Float(0.1 * i as f64 + if i % 5 == 0 { 1e15 } else { 0.0 }),
                )
            })
            .collect();
        let strings: Vec<Value> = (0..n)
            .map(|i| nullable(i, Value::Varchar(format!("s{}", i % 3))))
            .collect();
        let bools: Vec<Value> = (0..n).map(|i| Value::Boolean(i % 2 == 0)).collect();
        let typed = |v: &[Value]| ColumnSlice::Typed(TypedVector::from_values(v).unwrap());
        let columns = [
            typed(&ints),
            typed(&stamps),
            typed(&floats),
            typed(&strings),
            typed(&bools),
            ColumnSlice::Plain(floats.clone()),
            ColumnSlice::Plain(vec![Value::Null; n]),
            ColumnSlice::rle(vec![
                (Value::Integer(4), 9),
                (Value::Null, 5),
                (Value::Integer(-2), 20),
                (Value::Float(0.5), 6),
            ]),
        ];
        let rows: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        let spans = [
            Span::Range { start: 0, end: n },
            Span::Range { start: 7, end: 31 },
            Span::Range { start: 5, end: 5 },
            Span::Rows(&rows),
            Span::Rows(&rows[4..9]),
        ];
        for (ci, col) in columns.iter().enumerate() {
            for func in ALL_FUNCS {
                for span in spans {
                    let mut folded = AggState::new(func);
                    let got = folded.fold(func, col, span).map(|()| folded.finish());
                    let mut state = AggState::new(func);
                    let mut want = Ok(());
                    span.for_each(|i| {
                        if want.is_ok() {
                            want = state.update(func, &col.value_at(i));
                        }
                    });
                    let want = want.map(|()| state.finish());
                    assert_eq!(
                        got.as_ref().ok(),
                        want.as_ref().ok(),
                        "column {ci} {func:?} {span:?}"
                    );
                    assert_eq!(got.is_err(), want.is_err(), "column {ci} {func:?} {span:?}");
                }
            }
        }
    }

    #[test]
    fn sum_of_timestamps_errors_and_avg_does_not() {
        use crate::vector::TypedVector;
        let col = ColumnSlice::Typed(
            TypedVector::from_values(&[Value::Timestamp(100), Value::Timestamp(200)]).unwrap(),
        );
        let all = Span::Range { start: 0, end: 2 };
        assert!(AggState::new(AggFunc::Sum)
            .fold(AggFunc::Sum, &col, all)
            .is_err());
        // AVG — single-phase and through its float partial — works.
        for func in [AggFunc::Avg, AggFunc::SumFloat] {
            let mut a = AggState::new(func);
            a.fold(func, &col, all).unwrap();
            let want = if func == AggFunc::Avg { 150.0 } else { 300.0 };
            assert_eq!(a.finish(), Value::Float(want));
        }
    }

    /// An integer SUM that leaves `i64` is an error on every path a value
    /// can take into the state; AVG and its float partial never overflow.
    #[test]
    fn integer_sum_overflow_is_an_error_never_a_wrap() {
        use crate::vector::TypedVector;
        let huge = Value::Integer(i64::MAX);
        let is_overflow = |r: DbResult<()>| matches!(r, Err(DbError::Execution(m)) if m == "integer overflow in SUM");
        let mut s = AggState::new(AggFunc::Sum);
        s.update(AggFunc::Sum, &huge).unwrap();
        assert!(is_overflow(s.update(AggFunc::Sum, &huge)));
        assert!(is_overflow(AggState::new(AggFunc::Sum).update_n(
            AggFunc::Sum,
            &huge,
            2
        )));
        let col =
            ColumnSlice::Typed(TypedVector::from_values(&[huge.clone(), huge.clone()]).unwrap());
        let all = Span::Range { start: 0, end: 2 };
        assert!(is_overflow(AggState::new(AggFunc::Sum).fold(
            AggFunc::Sum,
            &col,
            all
        )));
        let mut a = AggState::SumInt(i64::MAX, true);
        assert!(is_overflow(a.merge(AggState::SumInt(1, true))));
        // A span whose running total dips out and back in is still exact.
        let back = ColumnSlice::Typed(
            TypedVector::from_values(&[huge.clone(), huge.clone(), Value::Integer(-i64::MAX)])
                .unwrap(),
        );
        let mut s = AggState::new(AggFunc::Sum);
        s.fold(AggFunc::Sum, &back, Span::Range { start: 0, end: 3 })
            .unwrap();
        assert_eq!(s.finish(), Value::Integer(i64::MAX));
        for func in [AggFunc::Avg, AggFunc::SumFloat] {
            let mut a = AggState::new(func);
            a.fold(func, &col, all).unwrap();
            let Value::Float(f) = a.finish() else {
                panic!("float result")
            };
            let want = if func == AggFunc::Avg { 1.0 } else { 2.0 } * i64::MAX as f64;
            assert!((f - want).abs() / want < 1e-12, "{func:?}: {f}");
        }
    }

    #[test]
    fn count_ignores_nulls_count_star_does_not() {
        let mut c = AggState::new(AggFunc::Count);
        c.update(AggFunc::Count, &Value::Null).unwrap();
        c.update(AggFunc::Count, &Value::Integer(1)).unwrap();
        assert_eq!(c.finish(), Value::Integer(1));
        let mut cs = AggState::new(AggFunc::CountStar);
        cs.update(AggFunc::CountStar, &Value::Null).unwrap();
        cs.update(AggFunc::CountStar, &Value::Null).unwrap();
        assert_eq!(cs.finish(), Value::Integer(2));
    }

    #[test]
    fn sum_integer_until_float_appears() {
        let mut s = AggState::new(AggFunc::Sum);
        s.update(AggFunc::Sum, &Value::Integer(5)).unwrap();
        s.update(AggFunc::Sum, &Value::Integer(7)).unwrap();
        assert_eq!(s.clone().finish(), Value::Integer(12));
        s.update(AggFunc::Sum, &Value::Float(0.5)).unwrap();
        assert_eq!(s.finish(), Value::Float(12.5));
        // Empty SUM is NULL.
        assert_eq!(AggState::new(AggFunc::Sum).finish(), Value::Null);
    }

    #[test]
    fn min_max_avg() {
        let mut mn = AggState::new(AggFunc::Min);
        let mut mx = AggState::new(AggFunc::Max);
        let mut av = AggState::new(AggFunc::Avg);
        for v in [3i64, 1, 4, 1, 5] {
            mn.update(AggFunc::Min, &Value::Integer(v)).unwrap();
            mx.update(AggFunc::Max, &Value::Integer(v)).unwrap();
            av.update(AggFunc::Avg, &Value::Integer(v)).unwrap();
        }
        assert_eq!(mn.finish(), Value::Integer(1));
        assert_eq!(mx.finish(), Value::Integer(5));
        assert_eq!(av.finish(), Value::Float(2.8));
    }

    #[test]
    fn count_distinct_dedups_across_merge() {
        let mut a = AggState::new(AggFunc::CountDistinct);
        let mut b = AggState::new(AggFunc::CountDistinct);
        for v in [1i64, 2, 2] {
            a.update(AggFunc::CountDistinct, &Value::Integer(v))
                .unwrap();
        }
        for v in [2i64, 3] {
            b.update(AggFunc::CountDistinct, &Value::Integer(v))
                .unwrap();
        }
        a.merge(b).unwrap();
        assert_eq!(a.finish(), Value::Integer(3));
    }

    #[test]
    fn rle_update_n_equals_n_updates() {
        let mut bulk = AggState::new(AggFunc::Avg);
        bulk.update_n(AggFunc::Avg, &Value::Integer(10), 1000)
            .unwrap();
        bulk.update_n(AggFunc::Avg, &Value::Integer(20), 1000)
            .unwrap();
        let mut single = AggState::new(AggFunc::Avg);
        for _ in 0..1000 {
            single.update(AggFunc::Avg, &Value::Integer(10)).unwrap();
            single.update(AggFunc::Avg, &Value::Integer(20)).unwrap();
        }
        assert_eq!(bulk.finish(), single.finish());
        let mut c = AggState::new(AggFunc::CountStar);
        c.update_n(AggFunc::CountStar, &Value::Null, 42).unwrap();
        assert_eq!(c.finish(), Value::Integer(42));
    }

    #[test]
    fn partial_merge_matches_single_pass() {
        let values: Vec<i64> = (0..100).collect();
        let mut single = AggState::new(AggFunc::Sum);
        for v in &values {
            single.update(AggFunc::Sum, &Value::Integer(*v)).unwrap();
        }
        let mut p1 = AggState::new(AggFunc::Sum);
        let mut p2 = AggState::new(AggFunc::Sum);
        for v in &values[..50] {
            p1.update(AggFunc::Sum, &Value::Integer(*v)).unwrap();
        }
        for v in &values[50..] {
            p2.update(AggFunc::Sum, &Value::Integer(*v)).unwrap();
        }
        p1.merge(p2).unwrap();
        assert_eq!(p1.finish(), single.finish());
    }

    #[test]
    fn sum_rejects_strings() {
        let mut s = AggState::new(AggFunc::Sum);
        assert!(s.update(AggFunc::Sum, &Value::Varchar("x".into())).is_err());
    }
}
