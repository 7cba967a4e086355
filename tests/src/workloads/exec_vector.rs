//! Workload for the typed-vector executor hot path: filter → group-by →
//! SUM over plain and typed batches, with a pre-refactor row-at-a-time
//! baseline to measure the typed/selection-vector path against, and the
//! sorted run-length shape the two group-by strategies race on.

use vdb_exec::aggregate::{AggCall, AggFunc, AggState};
use vdb_exec::batch::{Batch, ColumnSlice};
use vdb_exec::filter::FilterOp;
use vdb_exec::groupby::{HashGroupByOp, PipelinedGroupByOp};
use vdb_exec::operator::{collect_rows, Operator, ValuesOp};
use vdb_exec::vector::{TypedVector, VectorData};
use vdb_exec::MemoryBudget;
use vdb_types::{BinOp, DbResult, Expr, Row, Value};

/// Distinct groups in the generated data.
pub const GROUPS: i64 = 100;

const BATCH: usize = 1024;

/// `(group, value)` rows: group cycles over [`GROUPS`], value counts up.
fn row(i: i64) -> Row {
    vec![Value::Integer(i % GROUPS), Value::Integer(i)]
}

/// Plain `Value` batches — the representation the pre-refactor engine ran
/// on.
pub fn plain_batches(rows: usize) -> Vec<Batch> {
    (0..rows as i64)
        .collect::<Vec<_>>()
        .chunks(BATCH)
        .map(|c| Batch::from_rows(c.iter().map(|&i| row(i)).collect()))
        .collect()
}

/// The same data as typed vectors (native `i64` buffers).
pub fn typed_batches(rows: usize) -> Vec<Batch> {
    (0..rows as i64)
        .collect::<Vec<_>>()
        .chunks(BATCH)
        .map(|c| {
            let group: Vec<i64> = c.iter().map(|&i| i % GROUPS).collect();
            let value: Vec<i64> = c.to_vec();
            Batch::new(vec![
                ColumnSlice::Typed(TypedVector::new(VectorData::Int64(group), None)),
                ColumnSlice::Typed(TypedVector::new(VectorData::Int64(value), None)),
            ])
        })
        .collect()
}

/// `WHERE value >= rows/2` — keeps half the data.
pub fn half_predicate(rows: usize) -> Expr {
    Expr::binary(BinOp::Ge, Expr::col(1, "value"), Expr::int(rows as i64 / 2))
}

/// Typed path: vectorized FilterOp (selection vectors) into the hash
/// group-by's column accessors. Returns the number of groups.
pub fn run_filter_groupby(batches: Vec<Batch>, pred: Expr) -> DbResult<usize> {
    let filter = FilterOp::new(Box::new(ValuesOp::new(batches)), pred);
    let mut gb = HashGroupByOp::new(
        Box::new(filter),
        vec![0],
        vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
        ],
        MemoryBudget::unlimited(),
    );
    Ok(collect_rows(&mut gb)?.len())
}

/// Pre-refactor baseline: pivot every batch into rows, evaluate the
/// predicate per row, rebuild row batches, and aggregate row-at-a-time —
/// exactly what the engine did before typed vectors and selection vectors.
pub fn run_row_baseline(batches: Vec<Batch>, pred: Expr) -> DbResult<usize> {
    let mut table: std::collections::HashMap<Value, Vec<AggState>> =
        std::collections::HashMap::new();
    for batch in batches {
        let mut kept: Vec<Row> = Vec::new();
        for row in batch.into_rows() {
            if pred.matches(&row)? {
                kept.push(row);
            }
        }
        for row in Batch::from_rows(kept).into_rows() {
            let states = table.entry(row[0].clone()).or_insert_with(|| {
                vec![
                    AggState::new(AggFunc::CountStar),
                    AggState::new(AggFunc::Sum),
                ]
            });
            states[0].update(AggFunc::CountStar, &Value::Null)?;
            states[1].update(AggFunc::Sum, &row[1])?;
        }
    }
    Ok(table.len())
}

/// Twenty long key runs as RLE (cut at batch boundaries) beside a typed
/// float column: the shape the streaming group-by strategy exists for.
pub fn sorted_float_batches(rows: usize) -> Vec<Batch> {
    let run_len = rows.div_ceil(20).max(1);
    (0..rows)
        .step_by(BATCH)
        .map(|from| {
            let to = (from + BATCH).min(rows);
            let mut runs: Vec<(Value, u32)> = Vec::new();
            for i in from..to {
                let key = Value::Integer((i / run_len) as i64);
                match runs.last_mut() {
                    Some((last, n)) if *last == key => *n += 1,
                    _ => runs.push((key, 1)),
                }
            }
            let value: Vec<f64> = (from..to).map(|i| (i % 4001) as f64 * 0.25).collect();
            Batch::new(vec![
                ColumnSlice::rle(runs),
                ColumnSlice::Typed(TypedVector::new(VectorData::Float64(value), None)),
            ])
        })
        .collect()
}

/// `SUM`/`AVG` of the float column grouped on the sorted run-length key,
/// by the streaming strategy or the hash one. Returns the groups.
pub fn run_sorted_groupby(batches: Vec<Batch>, streaming: bool) -> DbResult<Vec<Row>> {
    let input = Box::new(ValuesOp::new(batches));
    let aggs = vec![
        AggCall::new(AggFunc::Sum, 1, "sum"),
        AggCall::new(AggFunc::Avg, 1, "avg"),
    ];
    let mut gb: Box<dyn Operator> = match streaming {
        true => Box::new(PipelinedGroupByOp::new(input, vec![0], aggs)),
        false => Box::new(HashGroupByOp::new(
            input,
            vec![0],
            aggs,
            MemoryBudget::unlimited(),
        )),
    };
    collect_rows(gb.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_and_baseline_agree() {
        let rows = 10_000;
        let t = run_filter_groupby(typed_batches(rows), half_predicate(rows)).unwrap();
        let p = run_filter_groupby(plain_batches(rows), half_predicate(rows)).unwrap();
        let b = run_row_baseline(plain_batches(rows), half_predicate(rows)).unwrap();
        assert_eq!(t, GROUPS as usize);
        assert_eq!(t, p);
        assert_eq!(t, b);
    }

    #[test]
    fn sorted_groupby_strategies_agree() {
        let streamed = run_sorted_groupby(sorted_float_batches(50_000), true).unwrap();
        let hashed = run_sorted_groupby(sorted_float_batches(50_000), false).unwrap();
        assert_eq!(streamed.len(), 20);
        assert_eq!(streamed, hashed);
    }
}
