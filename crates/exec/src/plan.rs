//! Physical plans: the tree the optimizer hands to the engine.
//!
//! [`PhysicalPlan`] is a serializable description; [`build_operator`] turns
//! it into a live operator pipeline against an [`ExecContext`] holding the
//! projection snapshots for one node. EXPLAIN output (Figure 3's plan
//! rendering) comes from [`explain`].

use crate::aggregate::AggCall;
use crate::analytic::{AnalyticOp, WindowFunc};
use crate::exchange::UnionOp;
use crate::filter::{FilterOp, ProjectOp};
use crate::groupby::{HashGroupByOp, PipelinedGroupByOp};
pub use crate::join::JoinType;
use crate::join::{HashJoinOp, MergeJoinOp};
use crate::memory::{MemoryBudget, ResourcePolicy};
use crate::operator::{BoxedOperator, ValuesOp};
pub use crate::parallel::ParallelStage;
use crate::parallel::{ParallelScanOp, ParallelScanSpec};
use crate::parallel_join::{ParallelHashJoinOp, ParallelJoinSpec};
use crate::scan::{ScanOperator, SipBinding};
use crate::sip::SipFilter;
use crate::sort::{LimitOp, SortOp};
use std::collections::HashMap;
use std::sync::Arc;
use vdb_storage::store::SnapshotScan;
use vdb_storage::StorageBackend;
use vdb_types::schema::SortKey;
use vdb_types::{DbError, DbResult, Expr, Row};

/// A SIP filter edge: the join that builds it and the scan that consumes
/// it share the id.
pub type SipId = usize;

/// Physical plan nodes.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Scan one projection's snapshot on this node.
    Scan {
        projection: String,
        /// Projection column indexes to output, in order.
        output_columns: Vec<usize>,
        /// Residual predicate over the output columns.
        predicate: Option<Expr>,
        /// Predicate over the single-value row `[partition_key]`.
        partition_predicate: Option<Expr>,
        /// `(sip id, key columns of the scan output)`.
        sip: Vec<(SipId, Vec<usize>)>,
    },
    /// Morsel-driven parallel scan: up to `threads` workers pull
    /// (container, block range) morsels from a shared queue, run scan →
    /// visibility → SIP/predicate (plus the per-worker `stage`)
    /// independently, and merge at a single barrier. `threads = 1`, or a
    /// scan that pruning leaves with a single morsel, runs the same
    /// pipeline inline on the calling thread.
    ParallelScan {
        projection: String,
        output_columns: Vec<usize>,
        predicate: Option<Expr>,
        partition_predicate: Option<Expr>,
        sip: Vec<(SipId, Vec<usize>)>,
        stage: ParallelStage,
        threads: usize,
    },
    /// Literal rows (DML sources, replan inputs, tests).
    Values { rows: Vec<Row>, arity: usize },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<Expr>,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        /// SIP filter this join publishes (consumed by a Scan below left).
        sip: Option<SipId>,
    },
    MergeJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
    },
    /// Morsel-parallel hash join over two projection scans:
    /// `build_threads` workers scan the build (right) side from its morsel
    /// queue, the barrier concatenates their column chunks in morsel
    /// order, indexes the keys and publishes the SIP filter, then
    /// `probe_threads` workers probe typed key columns directly from the
    /// probe (left) side's morsel queue and run `stage` over what they
    /// join. Both children must be [`PhysicalPlan::Scan`] nodes;
    /// `threads = 1` shapes stay on the serial [`PhysicalPlan::HashJoin`].
    ParallelHashJoin {
        /// Probe side (must be a `Scan`).
        left: Box<PhysicalPlan>,
        /// Build side (must be a `Scan`).
        right: Box<PhysicalPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        /// SIP filter this join publishes at the build barrier.
        sip: Option<SipId>,
        probe_threads: usize,
        build_threads: usize,
        /// What the probe workers do with the joined rows: `Collect`
        /// emits them (in serial order); `GroupBy` aggregates them per
        /// worker and merges the partials at one barrier, so the node
        /// outputs groups, not joined rows.
        stage: ParallelStage,
    },
    HashGroupBy {
        input: Box<PhysicalPlan>,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
    },
    /// One-pass aggregation over input sorted by the group columns.
    PipelinedGroupBy {
        input: Box<PhysicalPlan>,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        limit: usize,
        offset: usize,
    },
    Analytic {
        input: Box<PhysicalPlan>,
        partition_by: Vec<usize>,
        order_by: Vec<SortKey>,
        funcs: Vec<WindowFunc>,
        pre_sorted: bool,
    },
    /// Concatenate children (same schema).
    Union { inputs: Vec<PhysicalPlan> },
}

impl PhysicalPlan {
    /// Number of columns the node outputs — known from the plan alone, so
    /// an outer join can pad a side that turns out to hold no rows.
    pub fn arity(&self) -> usize {
        let grouped = |group_columns: &[usize], aggs: &[AggCall]| group_columns.len() + aggs.len();
        match self {
            PhysicalPlan::Scan { output_columns, .. } => output_columns.len(),
            PhysicalPlan::ParallelScan {
                output_columns,
                stage,
                ..
            } => stage.arity(output_columns.len()),
            PhysicalPlan::Values { arity, .. } => *arity,
            PhysicalPlan::Project { exprs, .. } => exprs.len(),
            PhysicalPlan::HashJoin {
                left,
                right,
                join_type,
                ..
            }
            | PhysicalPlan::MergeJoin {
                left,
                right,
                join_type,
                ..
            } => join_arity(left, right, *join_type),
            PhysicalPlan::ParallelHashJoin {
                left,
                right,
                join_type,
                stage,
                ..
            } => stage.arity(join_arity(left, right, *join_type)),
            PhysicalPlan::HashGroupBy {
                group_columns,
                aggs,
                ..
            }
            | PhysicalPlan::PipelinedGroupBy {
                group_columns,
                aggs,
                ..
            } => grouped(group_columns, aggs),
            PhysicalPlan::Analytic { input, funcs, .. } => input.arity() + funcs.len(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => input.arity(),
            PhysicalPlan::Union { inputs } => inputs.first().map_or(0, PhysicalPlan::arity),
        }
    }
}

fn join_arity(left: &PhysicalPlan, right: &PhysicalPlan, join_type: JoinType) -> usize {
    match join_type.emits_right_columns() {
        true => left.arity() + right.arity(),
        false => left.arity(),
    }
}

/// Everything needed to instantiate a plan on one node.
pub struct ExecContext {
    pub backend: Arc<dyn StorageBackend>,
    /// Projection name → snapshot to scan.
    pub snapshots: HashMap<String, SnapshotScan>,
    pub policy: ResourcePolicy,
    /// SIP filters keyed by id, shared between joins and scans.
    pub sip_filters: HashMap<SipId, Arc<SipFilter>>,
}

impl ExecContext {
    pub fn new(backend: Arc<dyn StorageBackend>) -> ExecContext {
        ExecContext {
            backend,
            snapshots: HashMap::new(),
            policy: ResourcePolicy::default(),
            sip_filters: HashMap::new(),
        }
    }

    fn sip(&mut self, id: SipId) -> Arc<SipFilter> {
        self.sip_filters.entry(id).or_default().clone()
    }
}

/// Count stateful operators for the §6.1 memory split.
fn stateful_count(plan: &PhysicalPlan) -> usize {
    match plan {
        PhysicalPlan::Scan { .. } | PhysicalPlan::Values { .. } => 0,
        // Per-worker aggregation/sort state plus the barrier; Collect
        // holds the materialized scan output until downstream drains it.
        PhysicalPlan::ParallelScan { .. } => 1,
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Limit { input, .. } => stateful_count(input),
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::MergeJoin { left, right, .. } => {
            1 + stateful_count(left) + stateful_count(right)
        }
        // The build side, plus the probe workers' group-by/sort state.
        PhysicalPlan::ParallelHashJoin { stage, .. } => match stage {
            ParallelStage::Collect => 1,
            _ => 2,
        },
        PhysicalPlan::HashGroupBy { input, .. }
        | PhysicalPlan::PipelinedGroupBy { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Analytic { input, .. } => 1 + stateful_count(input),
        PhysicalPlan::Union { inputs } => inputs.iter().map(stateful_count).sum(),
    }
}

/// Instantiate a plan into an operator pipeline.
pub fn build_operator(plan: &PhysicalPlan, ctx: &mut ExecContext) -> DbResult<BoxedOperator> {
    let budget = ctx.policy.per_operator(stateful_count(plan).max(1));
    build_inner(plan, ctx, budget)
}

fn build_inner(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext,
    budget: MemoryBudget,
) -> DbResult<BoxedOperator> {
    Ok(match plan {
        PhysicalPlan::Scan { .. } => {
            let (spec, snapshot) = scan_parts(plan, ctx)?;
            Box::new(ScanOperator::new(
                spec.backend,
                snapshot.containers,
                snapshot.wos_rows,
                spec.output_columns,
                spec.predicate,
                spec.partition_predicate,
                spec.sip,
            ))
        }
        PhysicalPlan::ParallelScan { stage, threads, .. } => {
            let (spec, snapshot) = scan_parts(plan, ctx)?;
            Box::new(ParallelScanOp::new(
                spec,
                stage.clone(),
                snapshot,
                *threads,
                budget,
            ))
        }
        PhysicalPlan::Values { rows, .. } => Box::new(ValuesOp::from_rows(rows.clone())),
        PhysicalPlan::Filter { input, predicate } => Box::new(FilterOp::new(
            build_inner(input, ctx, budget)?,
            predicate.clone(),
        )),
        PhysicalPlan::Project { input, exprs } => Box::new(ProjectOp::new(
            build_inner(input, ctx, budget)?,
            exprs.clone(),
        )),
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
        } => {
            let sip_filter = sip.map(|id| ctx.sip(id));
            // Build right first so the SIP filter exists before the probe
            // side's scan is constructed (construction order is irrelevant
            // at runtime — the filter fills during build — but keeping the
            // id registered is required).
            let right_op = build_inner(right, ctx, budget)?;
            let left_op = build_inner(left, ctx, budget)?;
            Box::new(
                HashJoinOp::new(
                    left_op,
                    right_op,
                    left_keys.clone(),
                    right_keys.clone(),
                    *join_type,
                    budget,
                    sip_filter,
                )
                .with_arities(left.arity(), right.arity()),
            )
        }
        PhysicalPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => Box::new(
            MergeJoinOp::new(
                build_inner(left, ctx, budget)?,
                build_inner(right, ctx, budget)?,
                left_keys.clone(),
                right_keys.clone(),
                *join_type,
            )
            .with_arities(left.arity(), right.arity()),
        ),
        PhysicalPlan::ParallelHashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
            probe_threads,
            build_threads,
            stage,
        } => {
            let sip_filter = sip.map(|id| ctx.sip(id));
            let (build, build_snapshot) = parallel_scan_parts(right, ctx)?;
            let (probe, probe_snapshot) = parallel_scan_parts(left, ctx)?;
            Box::new(
                ParallelHashJoinOp::new(
                    ParallelJoinSpec {
                        probe,
                        probe_snapshot,
                        probe_threads: *probe_threads,
                        build,
                        build_snapshot,
                        build_threads: *build_threads,
                        left_keys: left_keys.clone(),
                        right_keys: right_keys.clone(),
                        join_type: *join_type,
                        sip: sip_filter,
                    },
                    budget,
                )
                .with_stage(stage.clone()),
            )
        }
        PhysicalPlan::HashGroupBy {
            input,
            group_columns,
            aggs,
        } => Box::new(HashGroupByOp::new(
            build_inner(input, ctx, budget)?,
            group_columns.clone(),
            aggs.clone(),
            budget,
        )),
        PhysicalPlan::PipelinedGroupBy {
            input,
            group_columns,
            aggs,
        } => Box::new(PipelinedGroupByOp::new(
            build_inner(input, ctx, budget)?,
            group_columns.clone(),
            aggs.clone(),
        )),
        PhysicalPlan::Sort { input, keys } => Box::new(SortOp::new(
            build_inner(input, ctx, budget)?,
            keys.clone(),
            budget,
        )),
        PhysicalPlan::Limit {
            input,
            limit,
            offset,
        } => Box::new(LimitOp::new(
            build_inner(input, ctx, budget)?,
            *limit,
            *offset,
        )),
        PhysicalPlan::Analytic {
            input,
            partition_by,
            order_by,
            funcs,
            pre_sorted,
        } => Box::new(AnalyticOp::new(
            build_inner(input, ctx, budget)?,
            partition_by.clone(),
            order_by.clone(),
            funcs.clone(),
            *pre_sorted,
            budget,
        )),
        PhysicalPlan::Union { inputs } => {
            let children = inputs
                .iter()
                .map(|p| build_inner(p, ctx, budget))
                .collect::<DbResult<Vec<_>>>()?;
            Box::new(UnionOp::new(children))
        }
    })
}

/// Resolve one side of a [`PhysicalPlan::ParallelHashJoin`] — the morsel
/// framework scans projections directly, so the child must be a `Scan`.
fn parallel_scan_parts(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext,
) -> DbResult<(ParallelScanSpec, SnapshotScan)> {
    if !matches!(plan, PhysicalPlan::Scan { .. }) {
        return Err(DbError::Plan(
            "parallel hash join requires Scan inputs on both sides".into(),
        ));
    }
    scan_parts(plan, ctx)
}

/// What every scan shape starts from: the scan parameters of a `Scan` or
/// `ParallelScan` node with their SIP filters bound, and the projection's
/// snapshot (pointer copies of its containers plus the visible WOS rows;
/// the context keeps its own, since a plan may scan one projection twice).
fn scan_parts(
    plan: &PhysicalPlan,
    ctx: &mut ExecContext,
) -> DbResult<(ParallelScanSpec, SnapshotScan)> {
    let (PhysicalPlan::Scan {
        projection,
        output_columns,
        predicate,
        partition_predicate,
        sip,
    }
    | PhysicalPlan::ParallelScan {
        projection,
        output_columns,
        predicate,
        partition_predicate,
        sip,
        ..
    }) = plan
    else {
        return Err(DbError::Plan("not a scan node".into()));
    };
    let bindings: Vec<SipBinding> = sip
        .iter()
        .map(|(id, cols)| SipBinding {
            filter: ctx.sip(*id),
            key_columns: cols.clone(),
        })
        .collect();
    let snapshot = ctx
        .snapshots
        .get(projection)
        .ok_or_else(|| DbError::Plan(format!("no snapshot for projection {projection}")))?
        .clone();
    Ok((
        ParallelScanSpec {
            backend: ctx.backend.clone(),
            output_columns: output_columns.clone(),
            predicate: predicate.clone(),
            partition_predicate: partition_predicate.clone(),
            sip: bindings,
        },
        snapshot,
    ))
}

/// Execute a plan to completion on one node, returning all rows.
pub fn execute_collect(plan: &PhysicalPlan, ctx: &mut ExecContext) -> DbResult<Vec<Row>> {
    let mut op = build_operator(plan, ctx)?;
    crate::operator::collect_rows(op.as_mut())
}

/// Render an EXPLAIN tree (Figure 3 style).
pub fn explain(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

fn render(plan: &PhysicalPlan, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let line = match plan {
        PhysicalPlan::Scan {
            projection,
            output_columns,
            predicate,
            partition_predicate,
            sip,
        } => {
            let mut s = format!("Scan {projection} cols={output_columns:?}");
            if let Some(p) = predicate {
                s.push_str(&format!(" filter=({p})"));
            }
            if partition_predicate.is_some() {
                s.push_str(" [partition-pruned]");
            }
            if !sip.is_empty() {
                s.push_str(&format!(" [SIP x{}]", sip.len()));
            }
            s
        }
        PhysicalPlan::ParallelScan {
            projection,
            output_columns,
            predicate,
            stage,
            threads,
            sip,
            ..
        } => {
            let mut s = format!("ParallelScan {projection} cols={output_columns:?}");
            if let Some(p) = predicate {
                s.push_str(&format!(" filter=({p})"));
            }
            if !sip.is_empty() {
                s.push_str(&format!(" [SIP x{}]", sip.len()));
            }
            s.push_str(&match stage {
                ParallelStage::Collect => format!(" [morsels -> {threads} threads]"),
                ParallelStage::GroupBy {
                    group_columns,
                    sorted,
                    ..
                } => format!(
                    " [morsels -> {threads} threads, partial GroupBy keys={group_columns:?}{}, merge barrier]",
                    if *sorted { " (sorted input)" } else { "" }
                ),
                ParallelStage::Sort { keys } => format!(
                    " [morsels -> {threads} threads, sort runs ({} keys), k-way merge]",
                    keys.len()
                ),
            });
            s
        }
        PhysicalPlan::Values { rows, .. } => format!("Values ({} rows)", rows.len()),
        PhysicalPlan::Filter { predicate, .. } => format!("Filter ({predicate})"),
        PhysicalPlan::Project { exprs, .. } => {
            let list: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
            format!("ExprEval [{}]", list.join(", "))
        }
        PhysicalPlan::HashJoin {
            join_type,
            left_keys,
            right_keys,
            sip,
            ..
        } => format!(
            "HashJoin {} on {left_keys:?}={right_keys:?}{}",
            join_type.name(),
            if sip.is_some() { " [builds SIP]" } else { "" }
        ),
        PhysicalPlan::MergeJoin {
            join_type,
            left_keys,
            right_keys,
            ..
        } => format!(
            "MergeJoin {} on {left_keys:?}={right_keys:?}",
            join_type.name()
        ),
        PhysicalPlan::ParallelHashJoin {
            join_type,
            left_keys,
            right_keys,
            sip,
            probe_threads,
            build_threads,
            stage,
            ..
        } => format!(
            "ParallelHashJoin {} on {left_keys:?}={right_keys:?} \
             [build: {build_threads} workers, probe: {probe_threads} workers]{}{}",
            join_type.name(),
            if sip.is_some() { " [builds SIP]" } else { "" },
            match stage {
                ParallelStage::Collect => String::new(),
                ParallelStage::GroupBy { group_columns, .. } => format!(
                    " [partial group-by in probe workers keys={group_columns:?}, merge barrier]"
                ),
                ParallelStage::Sort { .. } => " [sort stage: not supported]".into(),
            }
        ),
        PhysicalPlan::HashGroupBy {
            group_columns,
            aggs,
            ..
        } => format!(
            "GroupByHash keys={group_columns:?} aggs=[{}]",
            aggs.iter()
                .map(|a| a.func.name())
                .collect::<Vec<_>>()
                .join(", ")
        ),
        PhysicalPlan::PipelinedGroupBy { group_columns, .. } => {
            format!("GroupByPipelined keys={group_columns:?} (sorted input, encoded-aware)")
        }
        PhysicalPlan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
        PhysicalPlan::Limit { limit, offset, .. } => {
            format!("Limit {limit} offset {offset}")
        }
        PhysicalPlan::Analytic { funcs, .. } => format!(
            "Analytic [{}]",
            funcs
                .iter()
                .map(WindowFunc::name)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        PhysicalPlan::Union { inputs } => format!("StorageUnion ({} inputs)", inputs.len()),
    };
    out.push_str(&pad);
    out.push_str(&line);
    out.push('\n');
    match plan {
        PhysicalPlan::Scan { .. }
        | PhysicalPlan::ParallelScan { .. }
        | PhysicalPlan::Values { .. } => {}
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::HashGroupBy { input, .. }
        | PhysicalPlan::PipelinedGroupBy { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. }
        | PhysicalPlan::Analytic { input, .. } => render(input, depth + 1, out),
        PhysicalPlan::HashJoin { left, right, .. }
        | PhysicalPlan::MergeJoin { left, right, .. }
        | PhysicalPlan::ParallelHashJoin { left, right, .. } => {
            render(left, depth + 1, out);
            render(right, depth + 1, out);
        }
        PhysicalPlan::Union { inputs } => {
            for i in inputs {
                render(i, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::batch::Batch;
    use vdb_storage::projection::ProjectionDef;
    use vdb_storage::{MemBackend, ProjectionStore};
    use vdb_types::{BinOp, ColumnDef, DataType, Epoch, TableSchema, Value};

    fn ctx_with_store(rows: Vec<Row>) -> ExecContext {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[]);
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let mut store = ProjectionStore::new(def, None, 1, backend.clone());
        store.insert_direct_ros(rows, Epoch(1)).unwrap();
        let mut ctx = ExecContext::new(backend);
        ctx.snapshots
            .insert("t_super".into(), store.scan_snapshot(Epoch(1)));
        ctx
    }

    fn scan_plan(pred: Option<Expr>) -> PhysicalPlan {
        PhysicalPlan::Scan {
            projection: "t_super".into(),
            output_columns: vec![0, 1],
            predicate: pred,
            partition_predicate: None,
            sip: vec![],
        }
    }

    #[test]
    fn end_to_end_scan_groupby_sort() {
        let rows: Vec<Row> = (0..1000)
            .map(|i| vec![Value::Integer(i), Value::Integer(i % 4)])
            .collect();
        let mut ctx = ctx_with_store(rows);
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::HashGroupBy {
                input: Box::new(scan_plan(None)),
                group_columns: vec![1],
                aggs: vec![AggCall::new(AggFunc::CountStar, 0, "cnt")],
            }),
            keys: vec![SortKey::asc(0)],
        };
        let got = execute_collect(&plan, &mut ctx).unwrap();
        assert_eq!(got.len(), 4);
        assert!(got.iter().all(|r| r[1] == Value::Integer(250)));
    }

    #[test]
    fn typed_pipeline_performs_zero_row_pivots() {
        // Acceptance gate for the columnar operator protocol: a typed
        // scan → Filter (disjunctive) → ExprEval (arithmetic + CASE) →
        // GroupBy pipeline must run without a single `rows()`/`into_rows()`
        // pivot — the row pivot happens only at the Database result edge.
        let rows: Vec<Row> = (0..4000)
            .map(|i| vec![Value::Integer(i), Value::Integer(i % 10)])
            .collect();
        let mut ctx = ctx_with_store(rows);
        let plan = PhysicalPlan::HashGroupBy {
            input: Box::new(PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(scan_plan(None)),
                    predicate: Expr::or(
                        Expr::binary(BinOp::Lt, Expr::col(0, "a"), Expr::int(2000)),
                        Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(3500)),
                    ),
                }),
                exprs: vec![
                    Expr::col(1, "g"),
                    Expr::case(
                        vec![(
                            Expr::binary(BinOp::Ge, Expr::col(0, "a"), Expr::int(3500)),
                            Expr::binary(BinOp::Mul, Expr::col(0, "a"), Expr::int(2)),
                        )],
                        Some(Expr::col(0, "a")),
                    ),
                ],
            }),
            group_columns: vec![0],
            aggs: vec![
                AggCall::new(AggFunc::CountStar, 0, "cnt"),
                AggCall::new(AggFunc::Sum, 1, "sum"),
            ],
        };
        let mut op = build_operator(&plan, &mut ctx).unwrap();
        let before = crate::batch::row_pivot_count();
        let mut groups = 0usize;
        let mut batches = Vec::new();
        while let Some(b) = op.next_batch().unwrap() {
            groups += b.len();
            batches.push(b);
        }
        assert_eq!(
            crate::batch::row_pivot_count() - before,
            0,
            "pipeline must not pivot rows"
        );
        assert_eq!(groups, 10);
        // The facade edge is the one and only pivot.
        let rows: Vec<Row> = batches.into_iter().flat_map(Batch::into_rows).collect();
        assert!(crate::batch::row_pivot_count() > before);
        let count: i64 = rows.iter().map(|r| r[1].as_i64().unwrap()).sum();
        assert_eq!(count, 2500, "2000 + 500 survivors");
        let total: i64 = rows.iter().map(|r| r[2].as_i64().unwrap()).sum();
        // Survivors: 0..2000 (value a) and 3500..4000 (value 2a).
        let expect: i64 = (0..2000).sum::<i64>() + (3500..4000).map(|a| 2 * a).sum::<i64>();
        assert_eq!(total, expect);
    }

    #[test]
    fn sip_wired_between_join_and_scan() {
        let rows: Vec<Row> = (0..100)
            .map(|i| vec![Value::Integer(i), Value::Integer(i)])
            .collect();
        let mut ctx = ctx_with_store(rows);
        // Join probe side scans t_super with SIP id 0; build side is a
        // 3-row Values.
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Scan {
                projection: "t_super".into(),
                output_columns: vec![0, 1],
                predicate: None,
                partition_predicate: None,
                sip: vec![(0, vec![0])],
            }),
            right: Box::new(PhysicalPlan::Values {
                rows: vec![
                    vec![Value::Integer(5)],
                    vec![Value::Integer(50)],
                    vec![Value::Integer(500)],
                ],
                arity: 1,
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
            sip: Some(0),
        };
        let got = execute_collect(&plan, &mut ctx).unwrap();
        assert_eq!(got.len(), 2, "keys 5 and 50 exist, 500 does not");
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::HashGroupBy {
                input: Box::new(scan_plan(Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(0, "a"),
                    Expr::int(10),
                )))),
                group_columns: vec![1],
                aggs: vec![AggCall::new(AggFunc::Sum, 0, "s")],
            }),
            limit: 5,
            offset: 0,
        };
        let text = explain(&plan);
        assert!(text.contains("Limit 5"));
        assert!(text.contains("GroupByHash keys=[1] aggs=[SUM]"));
        assert!(text.contains("Scan t_super"));
        assert!(text.contains("filter=((a > 10))"));
        // Indentation reflects depth.
        assert!(text.lines().nth(2).unwrap().starts_with("    "));
    }

    #[test]
    fn parallel_groupby_plan_matches_serial() {
        let rows: Vec<Row> = (0..5000)
            .map(|i| vec![Value::Integer(i), Value::Integer(i % 7)])
            .collect();
        let serial = PhysicalPlan::HashGroupBy {
            input: Box::new(scan_plan(None)),
            group_columns: vec![1],
            aggs: vec![AggCall::new(AggFunc::Sum, 0, "s")],
        };
        let parallel = PhysicalPlan::ParallelScan {
            projection: "t_super".into(),
            output_columns: vec![0, 1],
            predicate: None,
            partition_predicate: None,
            sip: vec![],
            stage: ParallelStage::GroupBy {
                group_columns: vec![1],
                aggs: vec![AggCall::new(AggFunc::Sum, 0, "s")],
                sorted: false,
            },
            threads: 4,
        };
        let mut ctx1 = ctx_with_store(rows.clone());
        let mut s = execute_collect(&serial, &mut ctx1).unwrap();
        let mut ctx2 = ctx_with_store(rows);
        let mut p = execute_collect(&parallel, &mut ctx2).unwrap();
        s.sort();
        p.sort();
        assert_eq!(s, p);
    }

    #[test]
    fn missing_projection_is_plan_error() {
        let mut ctx = ExecContext::new(Arc::new(MemBackend::new()));
        let err = execute_collect(&scan_plan(None), &mut ctx);
        assert!(matches!(err, Err(DbError::Plan(_))));
    }

    /// Multi-container self-join fixture: rows land in several ROS
    /// containers so the parallel join has real morsels on both sides.
    fn join_ctx(rows: i64, chunks: usize) -> ExecContext {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Integer),
                ColumnDef::new("b", DataType::Integer),
            ],
        );
        let def = ProjectionDef::super_projection(&schema, "t_super", &[0], &[]);
        let backend: Arc<dyn StorageBackend> = Arc::new(MemBackend::new());
        let mut store = ProjectionStore::new(def, None, 1, backend.clone());
        let all: Vec<Row> = (0..rows)
            .map(|i| vec![Value::Integer(i % 50), Value::Integer(i)])
            .collect();
        for chunk in all.chunks((rows as usize).div_ceil(chunks)) {
            store.insert_direct_ros(chunk.to_vec(), Epoch(1)).unwrap();
        }
        let mut ctx = ExecContext::new(backend);
        ctx.snapshots
            .insert("t_super".into(), store.scan_snapshot(Epoch(1)));
        ctx
    }

    #[test]
    fn parallel_hash_join_plan_matches_serial_with_sip() {
        let probe_scan = PhysicalPlan::Scan {
            projection: "t_super".into(),
            output_columns: vec![0, 1],
            predicate: None,
            partition_predicate: None,
            sip: vec![(0, vec![0])],
        };
        let build_scan = PhysicalPlan::Scan {
            projection: "t_super".into(),
            output_columns: vec![0, 1],
            predicate: Some(Expr::binary(BinOp::Gt, Expr::col(1, "b"), Expr::int(3970))),
            partition_predicate: None,
            sip: vec![],
        };
        let serial = PhysicalPlan::HashJoin {
            left: Box::new(probe_scan.clone()),
            right: Box::new(build_scan.clone()),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
            sip: Some(0),
        };
        let parallel = PhysicalPlan::ParallelHashJoin {
            left: Box::new(probe_scan),
            right: Box::new(build_scan),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
            sip: Some(0),
            probe_threads: 4,
            build_threads: 2,
            stage: ParallelStage::Collect,
        };
        let expected = execute_collect(&serial, &mut join_ctx(4000, 4)).unwrap();
        let got = execute_collect(&parallel, &mut join_ctx(4000, 4)).unwrap();
        assert_eq!(got, expected);
        let text = explain(&parallel);
        assert!(text.contains("ParallelHashJoin INNER"), "{text}");
        assert!(text.contains("[builds SIP]"), "{text}");
        assert!(text.contains("probe: 4 workers"), "{text}");
        assert!(text.contains("[SIP x1]"), "{text}");
    }

    #[test]
    fn scan_join_groupby_performs_zero_row_pivots() {
        // The join is not a pivot edge: build and probe stay columnar, the
        // output is typed, and the group-by above it keeps its typed paths
        // — serially, and with the group-by staged in the probe workers
        // (run inline here: the pivot counter is per thread).
        let scan = |pred| PhysicalPlan::Scan {
            projection: "t_super".into(),
            output_columns: vec![0, 1],
            predicate: pred,
            partition_predicate: None,
            sip: vec![],
        };
        let build_pred = Expr::binary(BinOp::Lt, Expr::col(1, "b"), Expr::int(40));
        let aggs = vec![
            AggCall::new(AggFunc::CountStar, 0, "cnt"),
            AggCall::new(AggFunc::Sum, 1, "sum"),
        ];
        let serial = PhysicalPlan::HashGroupBy {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan(None)),
                right: Box::new(scan(Some(build_pred.clone()))),
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
                sip: None,
            }),
            group_columns: vec![2],
            aggs: aggs.clone(),
        };
        let staged = PhysicalPlan::ParallelHashJoin {
            left: Box::new(scan(None)),
            right: Box::new(scan(Some(build_pred))),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
            sip: None,
            probe_threads: 1,
            build_threads: 1,
            stage: ParallelStage::GroupBy {
                group_columns: vec![2],
                aggs,
                sorted: false,
            },
        };
        assert_eq!(serial.arity(), 3);
        assert_eq!(staged.arity(), 3);
        let mut answers = Vec::new();
        for plan in [&serial, &staged] {
            let mut op = build_operator(plan, &mut join_ctx(4000, 4)).unwrap();
            let before = crate::batch::row_pivot_count();
            let batches: Vec<Batch> = std::iter::from_fn(|| op.next_batch().unwrap()).collect();
            assert_eq!(
                crate::batch::row_pivot_count(),
                before,
                "scan → join → group-by must not pivot rows"
            );
            answers.push(
                batches
                    .into_iter()
                    .flat_map(Batch::into_rows)
                    .collect::<Vec<Row>>(),
            );
        }
        // a = i % 50 joins the 40 build rows with b < 40: 40 groups of 80.
        assert_eq!(answers[0].len(), 40);
        assert!(answers[0].iter().all(|r| r[1] == Value::Integer(80)));
        assert_eq!(answers[0], answers[1]);
    }

    #[test]
    fn parallel_hash_join_rejects_non_scan_children() {
        let plan = PhysicalPlan::ParallelHashJoin {
            left: Box::new(PhysicalPlan::Values {
                rows: vec![vec![Value::Integer(1)]],
                arity: 1,
            }),
            right: Box::new(scan_plan(None)),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
            sip: None,
            probe_threads: 2,
            build_threads: 2,
            stage: ParallelStage::Collect,
        };
        let err = execute_collect(&plan, &mut join_ctx(100, 1));
        assert!(matches!(err, Err(DbError::Plan(_))), "{err:?}");
    }
}
