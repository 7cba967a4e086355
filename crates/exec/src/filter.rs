//! ExprEval (§6.1 #4) and Filter: predicate application and expression
//! projection over batches.
//!
//! [`FilterOp`] first tries the hand-specialized conjunct/disjunct path:
//! AND/OR combinations of `column ⟨cmp⟩ literal`, `BETWEEN`, `IS NULL` and
//! `IN (literal list)` are evaluated column-at-a-time against typed
//! vectors, RLE runs (one test per run), and dictionary-coded strings (one
//! test per distinct value) — survivors are recorded in a
//! [`SelectionVector`] with no row materialization. Predicates outside
//! that shape (computed operands, CASE, function calls, ...) are handed to
//! the vectorized expression engine ([`crate::expr_vec`]); row-wise
//! evaluation survives only as the error-reporting fallback.
//!
//! [`ProjectOp`] evaluates its select-list through the same engine,
//! emitting computed [`ColumnSlice`]s — the executor pipeline stays
//! columnar end to end.

use crate::batch::{Batch, ColumnSlice};
use crate::expr_vec::{self, VectorizedExpr};
use crate::operator::{BoxedOperator, Operator};
use crate::vector::{SelectionVector, VectorData};
use std::cmp::Ordering;
use vdb_types::{BinOp, DbResult, Expr, Value};

/// Does `ord` satisfy the comparison operator?
fn ord_matches(op: BinOp, ord: Ordering) -> bool {
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        _ => unreachable!("not a comparison"),
    }
}

/// SQL comparison semantics for one value: NULL never matches.
pub(crate) fn value_matches(op: BinOp, v: &Value, lit: &Value) -> bool {
    if v.is_null() || lit.is_null() {
        return false;
    }
    ord_matches(op, v.cmp(lit))
}

/// One vectorizable conjunct.
enum Conjunct<'a> {
    Cmp {
        col: usize,
        op: BinOp,
        lit: &'a Value,
    },
    IsNull {
        col: usize,
        negated: bool,
    },
    /// `col [NOT] IN (literal list)`.
    In {
        col: usize,
        list: &'a [Value],
        negated: bool,
    },
}

impl Conjunct<'_> {
    fn col(&self) -> usize {
        match self {
            Conjunct::Cmp { col, .. } | Conjunct::IsNull { col, .. } | Conjunct::In { col, .. } => {
                *col
            }
        }
    }
}

/// Flatten a predicate into vectorizable conjuncts; `false` when any part
/// is outside the supported shape.
fn collect_conjuncts<'a>(e: &'a Expr, out: &mut Vec<Conjunct<'a>>) -> bool {
    match e {
        Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } => collect_conjuncts(left, out) && collect_conjuncts(right, out),
        Expr::Binary { op, left, right } if op.is_comparison() => {
            match (left.as_ref(), right.as_ref()) {
                (Expr::Column { index, .. }, Expr::Literal(v)) => {
                    out.push(Conjunct::Cmp {
                        col: *index,
                        op: *op,
                        lit: v,
                    });
                    true
                }
                (Expr::Literal(v), Expr::Column { index, .. }) => {
                    let flipped = match *op {
                        BinOp::Lt => BinOp::Gt,
                        BinOp::Le => BinOp::Ge,
                        BinOp::Gt => BinOp::Lt,
                        BinOp::Ge => BinOp::Le,
                        other => other,
                    };
                    out.push(Conjunct::Cmp {
                        col: *index,
                        op: flipped,
                        lit: v,
                    });
                    true
                }
                _ => false,
            }
        }
        Expr::Between { input, low, high } => match (input.as_ref(), low.as_ref(), high.as_ref()) {
            (Expr::Column { index, .. }, Expr::Literal(lo), Expr::Literal(hi)) => {
                out.push(Conjunct::Cmp {
                    col: *index,
                    op: BinOp::Ge,
                    lit: lo,
                });
                out.push(Conjunct::Cmp {
                    col: *index,
                    op: BinOp::Le,
                    lit: hi,
                });
                true
            }
            _ => false,
        },
        Expr::IsNull { input, negated } => match input.as_ref() {
            Expr::Column { index, .. } => {
                out.push(Conjunct::IsNull {
                    col: *index,
                    negated: *negated,
                });
                true
            }
            _ => false,
        },
        Expr::InList {
            input,
            list,
            negated,
        } => match input.as_ref() {
            Expr::Column { index, .. } => {
                out.push(Conjunct::In {
                    col: *index,
                    list,
                    negated: *negated,
                });
                true
            }
            _ => false,
        },
        _ => false,
    }
}

/// One `column ⟨cmp⟩ literal` test split off a scan predicate.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnCmp {
    pub(crate) column: usize,
    pub(crate) op: BinOp,
    pub(crate) lit: Value,
}

/// Split `pred` into the top-level conjuncts that are `column ⟨cmp⟩
/// literal` tests on a column below `arity` (either operand order;
/// `BETWEEN` is two of them) — which [`filter_cmp`] evaluates exactly on any
/// column representation — and the conjunction of everything else.
pub(crate) fn split_column_cmps(pred: &Expr, arity: usize) -> (Vec<ColumnCmp>, Option<Expr>) {
    let (mut cmps, mut rest) = (Vec::new(), Vec::new());
    for conjunct in pred.clone().split_conjuncts() {
        let mut parts = Vec::new();
        let all_cmps = collect_conjuncts(&conjunct, &mut parts)
            && parts
                .iter()
                .all(|c| matches!(c, Conjunct::Cmp { col, .. } if *col < arity));
        if all_cmps {
            cmps.extend(parts.iter().map(|c| match c {
                Conjunct::Cmp { col, op, lit } => ColumnCmp {
                    column: *col,
                    op: *op,
                    lit: (*lit).clone(),
                },
                _ => unreachable!("checked above"),
            }));
        } else {
            rest.push(conjunct);
        }
    }
    (cmps, Expr::conjunction(rest))
}

/// Flatten the top-level `OR` tree into its disjunct groups.
fn split_disjuncts<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            split_disjuncts(left, out);
            split_disjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// Evaluate `pred` column-at-a-time over the batch's candidate rows,
/// returning the surviving *physical* positions (a subset of the batch's
/// current selection).
///
/// The hand-specialized path covers `OR` disjunctions of `AND` conjunct
/// groups over `col ⟨cmp⟩ literal`, `BETWEEN`, `IS [NOT] NULL` and
/// `col [NOT] IN (literal list)`. Everything else delegates to the
/// vectorized expression engine ([`crate::expr_vec`]), so computed
/// operands, CASE predicates and function calls also evaluate without row
/// materialization. `None` is returned only when evaluation *fails* (the
/// row-wise fallback then reproduces and reports the error).
pub fn eval_predicate_selection(batch: &Batch, pred: &Expr) -> Option<SelectionVector> {
    let cands: Vec<u32> = match batch.selection() {
        Some(sel) => sel.indices().to_vec(),
        None => (0..batch.physical_len() as u32).collect(),
    };
    let mut groups = Vec::new();
    split_disjuncts(pred, &mut groups);
    if let Some(sel) = eval_disjunct_groups(batch, &groups, &cands) {
        return Some(sel);
    }
    expr_vec::eval_predicate(batch, pred).ok()
}

/// Specialized disjunction evaluation: each group refines the shared
/// candidate set independently; survivors are the (sorted, deduplicated)
/// union. `None` when any group is outside the specialized shape.
fn eval_disjunct_groups(batch: &Batch, groups: &[&Expr], cands: &[u32]) -> Option<SelectionVector> {
    let mut survivors: Vec<u32> = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        let mut conjs = Vec::new();
        if !collect_conjuncts(group, &mut conjs) {
            return None;
        }
        if conjs.iter().any(|c| c.col() >= batch.arity()) {
            return None;
        }
        let mut group_cands = cands.to_vec();
        for c in &conjs {
            group_cands = match c {
                Conjunct::IsNull { col, negated } => {
                    filter_is_null(&batch.columns[*col], *negated, group_cands)
                }
                Conjunct::Cmp { col, op, lit } => {
                    filter_cmp(&batch.columns[*col], *op, lit, group_cands)
                }
                Conjunct::In { col, list, negated } => {
                    filter_in(&batch.columns[*col], list, *negated, group_cands)?
                }
            };
            if group_cands.is_empty() {
                break;
            }
        }
        if gi == 0 {
            survivors = group_cands;
        } else {
            survivors = merge_sorted(survivors, group_cands);
        }
    }
    Some(SelectionVector::new(survivors))
}

/// Union of two sorted position lists, deduplicated.
fn merge_sorted(a: Vec<u32>, b: Vec<u32>) -> Vec<u32> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => {
                if x <= y {
                    i += 1;
                    if x == y {
                        j += 1;
                    }
                    x
                } else {
                    j += 1;
                    y
                }
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => break,
        };
        out.push(next);
    }
    out
}

fn filter_is_null(col: &ColumnSlice, negated: bool, cands: Vec<u32>) -> Vec<u32> {
    match col {
        ColumnSlice::Plain(values) => cands
            .into_iter()
            .filter(|&i| values[i as usize].is_null() != negated)
            .collect(),
        ColumnSlice::Typed(tv) => cands
            .into_iter()
            .filter(|&i| tv.is_valid(i as usize) == negated)
            .collect(),
        ColumnSlice::Rle(rv) => retain_by_run(rv, cands, |v| v.is_null() != negated),
    }
}

/// Retain candidates via a per-run decision (one test per run, not per row).
pub(crate) fn retain_by_run(
    rv: &crate::vector::RleVector,
    cands: Vec<u32>,
    keep: impl Fn(&Value) -> bool,
) -> Vec<u32> {
    let decisions: Vec<bool> = rv.runs().iter().map(|(v, _)| keep(v)).collect();
    let mut ri = 0usize;
    cands
        .into_iter()
        .filter(|&i| {
            while rv.run_start(ri + 1) <= i as usize {
                ri += 1;
            }
            decisions[ri]
        })
        .collect()
}

/// Retain the candidates where `col ⟨op⟩ lit` holds (a NULL on either side
/// never does). Typed vectors compare natively where payload and literal
/// pair up, RLE once per run, dictionaries once per distinct value; any
/// other pairing compares `Value`s — the row path's total order.
pub(crate) fn filter_cmp(col: &ColumnSlice, op: BinOp, lit: &Value, cands: Vec<u32>) -> Vec<u32> {
    if lit.is_null() {
        // `x ⟨cmp⟩ NULL` is NULL — never true.
        return Vec::new();
    }
    fn retain(cands: Vec<u32>, keep: impl Fn(usize) -> bool) -> Vec<u32> {
        cands.into_iter().filter(|&i| keep(i as usize)).collect()
    }
    match col {
        ColumnSlice::Plain(values) => retain(cands, |i| value_matches(op, &values[i], lit)),
        ColumnSlice::Rle(rv) => retain_by_run(rv, cands, |v| value_matches(op, v, lit)),
        ColumnSlice::Typed(tv) => {
            let valid = |i: usize| tv.is_valid(i);
            match (tv.data(), lit) {
                (
                    VectorData::Int64(xs) | VectorData::Timestamp(xs),
                    Value::Integer(k) | Value::Timestamp(k),
                ) => retain(cands, |i| valid(i) && ord_matches(op, xs[i].cmp(k))),
                (VectorData::Int64(xs), Value::Boolean(b)) => {
                    let k = i64::from(*b);
                    retain(cands, |i| valid(i) && ord_matches(op, xs[i].cmp(&k)))
                }
                (VectorData::Int64(xs) | VectorData::Timestamp(xs), Value::Float(f)) => {
                    retain(cands, |i| {
                        valid(i) && ord_matches(op, (xs[i] as f64).total_cmp(f))
                    })
                }
                (
                    VectorData::Float64(xs),
                    Value::Float(_) | Value::Integer(_) | Value::Timestamp(_),
                ) => {
                    let k = lit.as_f64().expect("numeric literal");
                    retain(cands, |i| valid(i) && ord_matches(op, xs[i].total_cmp(&k)))
                }
                (VectorData::Bool(bits), Value::Boolean(k)) => {
                    retain(cands, |i| valid(i) && ord_matches(op, bits.get(i).cmp(k)))
                }
                (VectorData::Dict { dict, codes }, Value::Varchar(s)) => {
                    // One comparison per *distinct* value, then a code test
                    // per row.
                    let keep: Vec<bool> = dict
                        .entries()
                        .iter()
                        .map(|e| ord_matches(op, e.as_str().cmp(s.as_str())))
                        .collect();
                    retain(cands, |i| valid(i) && keep[codes[i] as usize])
                }
                _ => retain(cands, |i| value_matches(op, &tv.value_at(i), lit)),
            }
        }
    }
}

/// Retain candidates where `col [NOT] IN (list)` holds. NULL inputs never
/// match (SQL: `NULL IN (...)` is NULL), regardless of negation. Typed
/// columns test natively: integral columns probe a hash set (plus a float
/// residue compared by `total_cmp` for cross-type equality), dictionary
/// columns test once per distinct value, RLE once per run.
fn filter_in(
    col: &ColumnSlice,
    list: &[Value],
    negated: bool,
    cands: Vec<u32>,
) -> Option<Vec<u32>> {
    let value_found = |v: &Value| list.iter().any(|x| x == v);
    match col {
        ColumnSlice::Plain(values) => Some(
            cands
                .into_iter()
                .filter(|&i| {
                    let v = &values[i as usize];
                    !v.is_null() && (value_found(v) != negated)
                })
                .collect(),
        ),
        ColumnSlice::Rle(rv) => Some(retain_by_run(rv, cands, |v| {
            !v.is_null() && (value_found(v) != negated)
        })),
        ColumnSlice::Typed(tv) => {
            let valid = |i: u32| tv.is_valid(i as usize);
            match tv.data() {
                // The cross-type equality rules (integral hash set,
                // float residue, boolean-vs-integer only) are shared with
                // the expression engine's IN kernel.
                VectorData::Int64(xs) | VectorData::Timestamp(xs) => {
                    let ts = matches!(tv.data(), VectorData::Timestamp(_));
                    let (ints, floats) = expr_vec::in_list_int_sets(list, ts);
                    Some(
                        cands
                            .into_iter()
                            .filter(|&i| {
                                valid(i)
                                    && (expr_vec::in_list_int_found(xs[i as usize], &ints, &floats)
                                        != negated)
                            })
                            .collect(),
                    )
                }
                VectorData::Float64(xs) => {
                    let nums: Vec<f64> = list.iter().filter_map(Value::as_f64).collect();
                    Some(
                        cands
                            .into_iter()
                            .filter(|&i| {
                                if !valid(i) {
                                    return false;
                                }
                                let x = xs[i as usize];
                                let found = nums.iter().any(|f| x.total_cmp(f) == Ordering::Equal);
                                found != negated
                            })
                            .collect(),
                    )
                }
                VectorData::Dict { dict, codes } => {
                    let keep: Vec<bool> = expr_vec::in_list_dict_keep(dict, list)
                        .into_iter()
                        .map(|found| found != negated)
                        .collect();
                    Some(
                        cands
                            .into_iter()
                            .filter(|&i| valid(i) && keep[codes[i as usize] as usize])
                            .collect(),
                    )
                }
                VectorData::Bool(bits) => Some(
                    cands
                        .into_iter()
                        .filter(|&i| {
                            valid(i)
                                && (value_found(&Value::Boolean(bits.get(i as usize))) != negated)
                        })
                        .collect(),
                ),
            }
        }
    }
}

/// Applies a predicate, keeping matching rows (used for HAVING and for
/// residual predicates that could not be pushed into a Scan).
pub struct FilterOp {
    input: BoxedOperator,
    predicate: Expr,
}

impl FilterOp {
    pub fn new(input: BoxedOperator, predicate: Expr) -> FilterOp {
        FilterOp { input, predicate }
    }
}

impl Operator for FilterOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        while let Some(batch) = self.input.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            // Vectorized path: survivors become a selection vector; no
            // value is touched beyond the compared column(s).
            if let Some(sel) = eval_predicate_selection(&batch, &self.predicate) {
                if sel.is_empty() {
                    continue;
                }
                return Ok(Some(batch.with_selection(sel)));
            }
            // Row-wise fallback.
            let rows = batch.rows();
            let mut mask = Vec::with_capacity(rows.len());
            let mut any = false;
            for row in &rows {
                let keep = self.predicate.matches(row)?;
                any |= keep;
                mask.push(keep);
            }
            if !any {
                continue;
            }
            if mask.iter().all(|&b| b) {
                return Ok(Some(batch));
            }
            return Ok(Some(batch.into_filtered(&mask)));
        }
        Ok(None)
    }

    fn name(&self) -> String {
        format!("Filter({})", self.predicate)
    }
}

/// Evaluates a list of expressions over each input batch (ExprEval):
/// projection, computed columns, select-list expressions. Expressions are
/// compiled once into [`VectorizedExpr`]s and evaluated column-at-a-time —
/// the output batch is assembled from computed [`ColumnSlice`]s with no
/// row pivot.
pub struct ProjectOp {
    input: BoxedOperator,
    exprs: Vec<VectorizedExpr>,
}

impl ProjectOp {
    pub fn new(input: BoxedOperator, exprs: Vec<Expr>) -> ProjectOp {
        ProjectOp {
            input,
            exprs: exprs.into_iter().map(VectorizedExpr::new).collect(),
        }
    }

    /// Column indexes when every expression is a bare column reference.
    fn column_only(&self) -> Option<Vec<usize>> {
        self.exprs
            .iter()
            .map(|e| match e.expr() {
                Expr::Column { index, .. } => Some(*index),
                _ => None,
            })
            .collect()
    }
}

impl Operator for ProjectOp {
    fn next_batch(&mut self) -> DbResult<Option<Batch>> {
        match self.input.next_batch()? {
            None => Ok(None),
            Some(batch) => {
                // Pure-projection fast path: reorder columns, keep the
                // representation (and selection) intact.
                if let Some(cols) = self.column_only() {
                    if cols.iter().all(|&c| c < batch.arity()) {
                        let columns: Vec<ColumnSlice> =
                            cols.iter().map(|&c| batch.columns[c].clone()).collect();
                        let mut out = Batch::new(columns);
                        if let Some(sel) = batch.selection() {
                            out = out.with_selection(sel.clone());
                        }
                        return Ok(Some(out));
                    }
                }
                // Vectorized expression evaluation: one computed column
                // per expression, batch selection applied during eval.
                let columns = self
                    .exprs
                    .iter()
                    .map(|e| e.eval_column(&batch))
                    .collect::<DbResult<Vec<_>>>()?;
                Ok(Some(Batch::new(columns)))
            }
        }
    }

    fn name(&self) -> String {
        let list: Vec<String> = self.exprs.iter().map(|e| e.expr().to_string()).collect();
        format!("ExprEval({})", list.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{collect_rows, ValuesOp};
    use crate::vector::TypedVector;
    use vdb_types::{BinOp, Value};

    fn source(n: i64) -> BoxedOperator {
        Box::new(ValuesOp::from_rows(
            (0..n)
                .map(|i| vec![Value::Integer(i), Value::Integer(i * 10)])
                .collect(),
        ))
    }

    #[test]
    fn filter_keeps_matching() {
        let pred = Expr::binary(BinOp::Lt, Expr::col(0, "a"), Expr::int(3));
        let mut op = FilterOp::new(source(10), pred);
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn filter_skips_empty_batches() {
        let pred = Expr::eq(Expr::col(0, "a"), Expr::int(-1));
        let mut op = FilterOp::new(source(5000), pred);
        assert!(collect_rows(&mut op).unwrap().is_empty());
    }

    #[test]
    fn vectorized_filter_emits_selection_not_copies() {
        let tv =
            TypedVector::from_values(&(0..100).map(Value::Integer).collect::<Vec<_>>()).unwrap();
        let batch = Batch::new(vec![ColumnSlice::Typed(tv)]);
        let pred = Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(90));
        let mut op = FilterOp::new(Box::new(ValuesOp::new(vec![batch])), pred);
        let out = op.next_batch().unwrap().unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out.physical_len(), 100, "no materialization");
        assert!(out.selection().is_some());
        assert!(out.columns[0].is_typed());
    }

    #[test]
    fn vectorized_matches_row_path_on_nulls_and_types() {
        // Mixed NULLs, RLE, dict strings and floats: every supported shape
        // must agree with Expr::matches row-by-row.
        let col_int = TypedVector::from_values(&[
            Value::Integer(1),
            Value::Null,
            Value::Integer(3),
            Value::Integer(4),
        ])
        .unwrap();
        let col_str = TypedVector::from_values(&[
            Value::Varchar("a".into()),
            Value::Varchar("b".into()),
            Value::Null,
            Value::Varchar("a".into()),
        ])
        .unwrap();
        let col_rle = ColumnSlice::rle(vec![(Value::Integer(7), 2), (Value::Null, 2)]);
        let batch = Batch::new(vec![
            ColumnSlice::Typed(col_int),
            ColumnSlice::Typed(col_str),
            col_rle,
        ]);
        let preds = vec![
            Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(3)),
            Expr::binary(BinOp::Lt, Expr::int(2), Expr::col(0, "a")),
            Expr::eq(Expr::col(1, "s"), Expr::lit(Value::Varchar("a".into()))),
            Expr::binary(BinOp::Ne, Expr::col(2, "r"), Expr::int(7)),
            Expr::and(
                Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(1)),
                Expr::eq(Expr::col(2, "r"), Expr::int(7)),
            ),
            Expr::binary(BinOp::Le, Expr::col(0, "a"), Expr::lit(Value::Float(3.5))),
            Expr::IsNull {
                input: Box::new(Expr::col(1, "s")),
                negated: false,
            },
            Expr::IsNull {
                input: Box::new(Expr::col(0, "a")),
                negated: true,
            },
        ];
        let rows = batch.rows();
        for pred in preds {
            let sel = eval_predicate_selection(&batch, &pred)
                .unwrap_or_else(|| panic!("{pred} should vectorize"));
            let expect: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter_map(|(i, r)| pred.matches(r).unwrap().then_some(i as u32))
                .collect();
            assert_eq!(sel.indices(), expect.as_slice(), "pred {pred}");
        }
    }

    #[test]
    fn or_and_in_predicates_vectorize() {
        let col = TypedVector::from_values(
            &(0..100)
                .map(|i| {
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Integer(i)
                    }
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let strs = TypedVector::from_values(
            &(0..100)
                .map(|i| Value::Varchar(format!("s{}", i % 5)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let batch = Batch::new(vec![ColumnSlice::Typed(col), ColumnSlice::Typed(strs)]);
        let rows = batch.rows();
        let preds = vec![
            // OR of conjunct groups.
            Expr::or(
                Expr::binary(BinOp::Lt, Expr::col(0, "a"), Expr::int(10)),
                Expr::and(
                    Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(90)),
                    Expr::binary(BinOp::Ne, Expr::col(0, "a"), Expr::int(95)),
                ),
            ),
            // IN / NOT IN over int and dict columns.
            Expr::in_list(
                Expr::col(0, "a"),
                vec![Value::Integer(3), Value::Integer(97), Value::Float(50.0)],
                false,
            ),
            Expr::in_list(
                Expr::col(1, "s"),
                vec![Value::Varchar("s1".into()), Value::Varchar("s4".into())],
                true,
            ),
            // Disjunction mixing IN with IS NULL.
            Expr::or(
                Expr::in_list(Expr::col(1, "s"), vec![Value::Varchar("s0".into())], false),
                Expr::is_null(Expr::col(0, "a"), false),
            ),
        ];
        for pred in preds {
            let sel = eval_predicate_selection(&batch, &pred)
                .unwrap_or_else(|| panic!("{pred} should vectorize"));
            let expect: Vec<u32> = rows
                .iter()
                .enumerate()
                .filter_map(|(i, r)| pred.matches(r).unwrap().then_some(i as u32))
                .collect();
            assert_eq!(sel.indices(), expect.as_slice(), "pred {pred}");
        }
    }

    #[test]
    fn computed_operand_predicates_use_the_engine() {
        // `a + b > 25` has no column-vs-literal shape; the expression
        // engine evaluates it without row materialization.
        let batch = Batch::new(vec![
            ColumnSlice::Typed(
                TypedVector::from_values(&(0..50).map(Value::Integer).collect::<Vec<_>>()).unwrap(),
            ),
            ColumnSlice::Typed(
                TypedVector::from_values(
                    &(0..50).map(|i| Value::Integer(i * 2)).collect::<Vec<_>>(),
                )
                .unwrap(),
            ),
        ]);
        let pred = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Add, Expr::col(0, "a"), Expr::col(1, "b")),
            Expr::int(25),
        );
        let sel = eval_predicate_selection(&batch, &pred).expect("engine path");
        let expect: Vec<u32> = batch
            .rows()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| pred.matches(r).unwrap().then_some(i as u32))
            .collect();
        assert_eq!(sel.indices(), expect.as_slice());
    }

    #[test]
    fn erroring_predicates_fall_back_to_row_path() {
        // Dividing by a zero column value errors; the vectorized path
        // declines (None) and FilterOp's row fallback surfaces the error.
        let batch = Batch::from_rows(vec![vec![Value::Integer(1), Value::Integer(0)]]);
        let pred = Expr::binary(
            BinOp::Gt,
            Expr::binary(BinOp::Div, Expr::col(0, "a"), Expr::col(1, "b")),
            Expr::int(0),
        );
        assert!(eval_predicate_selection(&batch, &pred).is_none());
        let mut op = FilterOp::new(Box::new(ValuesOp::new(vec![batch])), pred);
        assert!(op.next_batch().is_err(), "division by zero must surface");
    }

    #[test]
    fn project_computes_expressions() {
        let exprs = vec![
            Expr::binary(BinOp::Add, Expr::col(0, "a"), Expr::col(1, "b")),
            Expr::lit(Value::Varchar("k".into())),
        ];
        let mut op = ProjectOp::new(source(3), exprs);
        let rows = collect_rows(&mut op).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Integer(0), Value::Varchar("k".into())],
                vec![Value::Integer(11), Value::Varchar("k".into())],
                vec![Value::Integer(22), Value::Varchar("k".into())],
            ]
        );
    }

    #[test]
    fn project_column_only_keeps_columns_typed() {
        let tv = TypedVector::from_values(&[Value::Integer(1), Value::Integer(2)]).unwrap();
        let batch = Batch::new(vec![
            ColumnSlice::Typed(tv.clone()),
            ColumnSlice::Plain(vec![Value::Varchar("x".into()), Value::Varchar("y".into())]),
        ]);
        let exprs = vec![Expr::col(1, "b"), Expr::col(0, "a")];
        let mut op = ProjectOp::new(Box::new(ValuesOp::new(vec![batch])), exprs);
        let out = op.next_batch().unwrap().unwrap();
        assert!(out.columns[1].is_typed(), "representation preserved");
        assert_eq!(
            out.rows(),
            vec![
                vec![Value::Varchar("x".into()), Value::Integer(1)],
                vec![Value::Varchar("y".into()), Value::Integer(2)],
            ]
        );
    }
}
