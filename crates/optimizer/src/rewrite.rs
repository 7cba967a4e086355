//! Query rewrites (§6.2): transitive predicates from join keys and
//! outer→inner join conversion — two of the "best practices developed over
//! the past 30 years of optimizer research" V2Opt incorporates.

use crate::query::BoundQuery;
use vdb_exec::plan::JoinType;
use vdb_types::{BinOp, Expr, Value};

/// Apply all rewrites in place. `arities[t]` is the column count of FROM
/// table `t` (what maps its local columns into the global column space).
pub fn rewrite(q: &mut BoundQuery, arities: &[usize]) {
    outer_to_inner(q, arities);
    transitive_predicates(q);
    or_chains_to_in_lists(q);
}

/// Rewrite `c = v1 OR c = v2 OR ...` chains (same column, all
/// equality-vs-literal, `IN` disjuncts included) into `c IN (v1, v2, ...)`
/// across every predicate slot the planner emits. The executor's
/// vectorizer then sees a single IN conjunct — one hash-set membership
/// test per row (or one per distinct dictionary code) instead of an
/// OR-combined selection per disjunct — keeping planner-produced
/// predicates in vectorizable form.
pub fn or_chains_to_in_lists(q: &mut BoundQuery) {
    for slot in q.table_filters.iter_mut().flatten() {
        *slot = fold_or_to_in(slot.clone());
    }
    for pred in &mut q.residual_filters {
        *pred = fold_or_to_in(pred.clone());
    }
    if let Some(h) = &mut q.having {
        *h = fold_or_to_in(h.clone());
    }
}

/// One disjunct's `(column index, display name, values)` when it is an
/// equality or IN against literals.
fn eq_disjunct(e: &Expr) -> Option<(usize, String, Vec<Value>)> {
    match e {
        Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (Expr::Column { index, name }, Expr::Literal(v))
            | (Expr::Literal(v), Expr::Column { index, name }) => {
                Some((*index, name.clone(), vec![v.clone()]))
            }
            _ => None,
        },
        Expr::InList {
            input,
            list,
            negated: false,
        } => match input.as_ref() {
            Expr::Column { index, name } => Some((*index, name.clone(), list.clone())),
            _ => None,
        },
        _ => None,
    }
}

/// Bottom-up fold of OR chains into IN lists wherever every disjunct is an
/// equality (or IN) on the same column.
fn fold_or_to_in(e: Expr) -> Expr {
    match e {
        Expr::Binary {
            op: BinOp::Or,
            left,
            right,
        } => {
            let left = fold_or_to_in(*left);
            let right = fold_or_to_in(*right);
            if let (Some((lc, name, mut lv)), Some((rc, _, rv))) =
                (eq_disjunct(&left), eq_disjunct(&right))
            {
                if lc == rc {
                    for v in rv {
                        if !lv.contains(&v) {
                            lv.push(v);
                        }
                    }
                    return Expr::in_list(Expr::col(lc, name), lv, false);
                }
            }
            Expr::or(left, right)
        }
        Expr::Binary { op, left, right } => {
            Expr::binary(op, fold_or_to_in(*left), fold_or_to_in(*right))
        }
        other => other,
    }
}

/// WHERE filters on the null-supplying side of an outer join.
///
/// A null-rejecting filter on a nullable side removes every row that side
/// pads, so the join stops preserving the other side: `a FULL JOIN b`
/// becomes RIGHT under such a filter on `b`, LEFT under one on `a`, and
/// INNER under both; LEFT (RIGHT) becomes INNER under one on its right
/// (left) side. Any filter still left on a null-supplying side must see
/// the padded rows, so it moves above the join tree into
/// `residual_filters`.
pub fn outer_to_inner(q: &mut BoundQuery, arities: &[usize]) {
    let rejects = |q: &BoundQuery, t: usize| {
        q.table_filters
            .get(t)
            .and_then(|f| f.as_ref())
            .is_some_and(null_rejecting)
    };
    for e in 0..q.joins.len() {
        let edge = &q.joins[e];
        let (left, right) = (rejects(q, edge.left_table), rejects(q, edge.right_table));
        q.joins[e].join_type = match (edge.join_type, left, right) {
            (JoinType::FullOuter, true, true)
            | (JoinType::LeftOuter, _, true)
            | (JoinType::RightOuter, true, _) => JoinType::Inner,
            (JoinType::FullOuter, false, true) => JoinType::RightOuter,
            (JoinType::FullOuter, true, false) => JoinType::LeftOuter,
            (other, _, _) => other,
        };
    }
    let mut nullable = vec![false; q.table_filters.len()];
    for edge in &q.joins {
        match edge.join_type {
            JoinType::LeftOuter => nullable[edge.right_table] = true,
            JoinType::RightOuter => nullable[edge.left_table] = true,
            JoinType::FullOuter => {
                nullable[edge.left_table] = true;
                nullable[edge.right_table] = true;
            }
            _ => {}
        }
    }
    for t in (0..nullable.len()).filter(|&t| nullable[t]) {
        if let Some(filter) = q.table_filters[t].take() {
            let offset: usize = arities[..t].iter().sum();
            let global = filter
                .remap_columns(&|c| Some(c + offset))
                .expect("shifting every column succeeds");
            q.residual_filters.push(global);
        }
    }
}

/// Does the predicate reject NULL inputs? Comparisons and BETWEEN do (NULL
/// compares to NULL, which is not true); `IS NULL` does not.
fn null_rejecting(pred: &Expr) -> bool {
    pred.clone().split_conjuncts().iter().any(|c| match c {
        Expr::Binary { op, .. } => op.is_comparison(),
        Expr::Between { .. } => true,
        Expr::InList { negated, .. } => !negated,
        Expr::IsNull { negated, .. } => *negated,
        _ => false,
    })
}

/// For every single-column inner-join edge, copy `col op literal`
/// conjuncts across the equality: `fact.k = dim.k AND dim.k > 5` implies
/// `fact.k > 5`, which can prune fact containers.
pub fn transitive_predicates(q: &mut BoundQuery) {
    for edge in &q.joins {
        if edge.join_type != JoinType::Inner || edge.left_columns.len() != 1 {
            continue;
        }
        let (lt, lc) = (edge.left_table, edge.left_columns[0]);
        let (rt, rc) = (edge.right_table, edge.right_columns[0]);
        let from_left = extract_literal_conjuncts(q.table_filters[lt].as_ref(), lc);
        let from_right = extract_literal_conjuncts(q.table_filters[rt].as_ref(), rc);
        for (op, lit) in from_left {
            add_conjunct(
                &mut q.table_filters[rt],
                Expr::binary(op, Expr::col(rc, "tp"), Expr::Literal(lit)),
            );
        }
        for (op, lit) in from_right {
            add_conjunct(
                &mut q.table_filters[lt],
                Expr::binary(op, Expr::col(lc, "tp"), Expr::Literal(lit)),
            );
        }
    }
}

fn extract_literal_conjuncts(pred: Option<&Expr>, col: usize) -> Vec<(BinOp, vdb_types::Value)> {
    let Some(pred) = pred else {
        return Vec::new();
    };
    pred.clone()
        .split_conjuncts()
        .into_iter()
        .filter_map(|c| match c {
            Expr::Binary { op, left, right } if op.is_comparison() => match (*left, *right) {
                (Expr::Column { index, .. }, Expr::Literal(v)) if index == col => Some((op, v)),
                _ => None,
            },
            _ => None,
        })
        .collect()
}

fn add_conjunct(slot: &mut Option<Expr>, conjunct: Expr) {
    // Skip if an identical conjunct is already present.
    if let Some(existing) = slot {
        if existing
            .clone()
            .split_conjuncts()
            .iter()
            .any(|c| c == &conjunct)
        {
            return;
        }
        *slot = Some(Expr::and(existing.clone(), conjunct));
    } else {
        *slot = Some(conjunct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{JoinEdge, QueryTable};

    const ARITIES: [usize; 2] = [4, 4];

    fn two_table_query(join_type: JoinType) -> BoundQuery {
        BoundQuery {
            tables: vec![
                QueryTable {
                    table: "fact".into(),
                    alias: "f".into(),
                },
                QueryTable {
                    table: "dim".into(),
                    alias: "d".into(),
                },
            ],
            table_filters: vec![None, None],
            joins: vec![JoinEdge {
                left_table: 0,
                left_columns: vec![1],
                right_table: 1,
                right_columns: vec![0],
                join_type,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn left_outer_with_null_rejecting_filter_becomes_inner() {
        let mut q = two_table_query(JoinType::LeftOuter);
        q.table_filters[1] = Some(Expr::binary(BinOp::Gt, Expr::col(2, "x"), Expr::int(5)));
        rewrite(&mut q, &ARITIES);
        assert_eq!(q.joins[0].join_type, JoinType::Inner);
    }

    #[test]
    fn left_outer_with_is_null_filter_stays_outer() {
        let mut q = two_table_query(JoinType::LeftOuter);
        q.table_filters[1] = Some(Expr::IsNull {
            input: Box::new(Expr::col(2, "x")),
            negated: false,
        });
        rewrite(&mut q, &ARITIES);
        assert_eq!(q.joins[0].join_type, JoinType::LeftOuter);
    }

    #[test]
    fn filters_left_on_a_nullable_side_move_above_the_join() {
        let is_null = |c: usize| Expr::IsNull {
            input: Box::new(Expr::col(c, "x")),
            negated: false,
        };
        // LEFT: `dim` (table 1) pads; its filter moves, shifted past the
        // four `fact` columns. `fact`'s filter stays in its scan.
        let mut q = two_table_query(JoinType::LeftOuter);
        q.table_filters = vec![Some(is_null(0)), Some(is_null(2))];
        rewrite(&mut q, &ARITIES);
        assert_eq!(q.joins[0].join_type, JoinType::LeftOuter);
        assert_eq!(q.table_filters, vec![Some(is_null(0)), None]);
        assert_eq!(q.residual_filters, vec![is_null(6)]);
        // FULL: both sides pad, so both filters move.
        let mut q = two_table_query(JoinType::FullOuter);
        q.table_filters = vec![Some(is_null(1)), Some(is_null(2))];
        rewrite(&mut q, &ARITIES);
        assert_eq!(q.joins[0].join_type, JoinType::FullOuter);
        assert_eq!(q.table_filters, vec![None, None]);
        assert_eq!(q.residual_filters, vec![is_null(1), is_null(6)]);
    }

    #[test]
    fn full_outer_sheds_the_sides_a_null_rejecting_filter_empties() {
        let gt = |c: usize| Expr::binary(BinOp::Gt, Expr::col(c, "x"), Expr::int(5));
        for (filters, expected) in [
            ([None, Some(gt(2))], JoinType::RightOuter),
            ([Some(gt(2)), None], JoinType::LeftOuter),
            ([Some(gt(2)), Some(gt(2))], JoinType::Inner),
        ] {
            let mut q = two_table_query(JoinType::FullOuter);
            q.table_filters = filters.to_vec();
            rewrite(&mut q, &ARITIES);
            assert_eq!(q.joins[0].join_type, expected, "{filters:?}");
            assert!(q.residual_filters.is_empty(), "{filters:?}");
        }
    }

    #[test]
    fn transitive_predicate_copies_across_join_key() {
        let mut q = two_table_query(JoinType::Inner);
        // dim.key > 100 — the fact side should inherit fact.fk > 100.
        q.table_filters[1] = Some(Expr::binary(BinOp::Gt, Expr::col(0, "key"), Expr::int(100)));
        rewrite(&mut q, &ARITIES);
        let fact_filter = q.table_filters[0].as_ref().unwrap();
        let conjuncts = fact_filter.clone().split_conjuncts();
        assert!(conjuncts.iter().any(|c| matches!(
            c,
            Expr::Binary { op: BinOp::Gt, left, .. }
            if matches!(left.as_ref(), Expr::Column { index: 1, .. })
        )));
    }

    #[test]
    fn transitive_predicates_do_not_duplicate() {
        let mut q = two_table_query(JoinType::Inner);
        q.table_filters[1] = Some(Expr::binary(BinOp::Gt, Expr::col(0, "key"), Expr::int(100)));
        rewrite(&mut q, &ARITIES);
        let before = q.table_filters[0].clone().unwrap().split_conjuncts().len();
        rewrite(&mut q, &ARITIES);
        let after = q.table_filters[0].clone().unwrap().split_conjuncts().len();
        assert_eq!(before, after, "second pass adds nothing");
    }

    #[test]
    fn or_chain_folds_to_in_list() {
        use vdb_types::Value;
        let mut q = two_table_query(JoinType::Inner);
        // (k = 1 OR k = 2) OR k IN (2, 3) → k IN (1, 2, 3).
        q.table_filters[0] = Some(Expr::or(
            Expr::or(
                Expr::eq(Expr::col(2, "k"), Expr::int(1)),
                Expr::eq(Expr::int(2), Expr::col(2, "k")),
            ),
            Expr::in_list(
                Expr::col(2, "k"),
                vec![Value::Integer(2), Value::Integer(3)],
                false,
            ),
        ));
        rewrite(&mut q, &ARITIES);
        let Some(Expr::InList {
            input,
            list,
            negated: false,
        }) = &q.table_filters[0]
        else {
            panic!("expected IN list, got {:?}", q.table_filters[0]);
        };
        assert!(matches!(input.as_ref(), Expr::Column { index: 2, .. }));
        assert_eq!(
            list,
            &vec![Value::Integer(1), Value::Integer(2), Value::Integer(3)]
        );
    }

    #[test]
    fn mixed_column_or_stays_or() {
        let mut q = two_table_query(JoinType::Inner);
        let pred = Expr::or(
            Expr::eq(Expr::col(2, "a"), Expr::int(1)),
            Expr::eq(Expr::col(3, "b"), Expr::int(2)),
        );
        q.table_filters[0] = Some(pred.clone());
        rewrite(&mut q, &ARITIES);
        assert_eq!(q.table_filters[0], Some(pred));
    }

    #[test]
    fn filters_on_non_key_columns_do_not_transfer() {
        let mut q = two_table_query(JoinType::Inner);
        q.table_filters[1] = Some(Expr::binary(BinOp::Gt, Expr::col(3, "other"), Expr::int(1)));
        rewrite(&mut q, &ARITIES);
        assert!(q.table_filters[0].is_none());
    }
}
