//! The V2Opt-style planner (§6.2).
//!
//! Planning walks the paper's physical-property checklist: which
//! projections cover the query (including prejoin availability, §3.3),
//! which sort orders enable pipelined aggregation and partition/block
//! pruning, which segmentations allow fully local joins, and where SIP
//! filters can be pushed. Join ordering is StarOpt: the fact table (the
//! largest input) joins its most selective dimensions first.
//!
//! Node failures replan by passing the live projection set: the planner
//! simply re-costs against whatever projections remain (buddies included).

use crate::catalog::{OptimizerCatalog, ProjectionMeta, TableMeta};
use crate::plan_out::{MergeSpec, PlannedQuery, TableAccess};
use crate::query::BoundQuery;
use crate::stats::predicate_selectivity;
use std::collections::{BTreeSet, HashMap, HashSet};
use vdb_exec::aggregate::AggCall;
use vdb_exec::groupby::two_phase_aggs;
use vdb_exec::parallel::{ExecOptions, ParallelStage};
use vdb_exec::plan::{JoinType, PhysicalPlan};
use vdb_storage::projection::Segmentation;
use vdb_types::schema::SortKey;
use vdb_types::{DbError, DbResult, Expr, Func, Value};

/// Plan a bound query. `live_projections`: projections currently available
/// (None = all); node-down replans pass the surviving set (§6.2). `exec`
/// bounds the degree of parallelism the plan may use per scan — the
/// planner picks the actual DoP per projection from its block-range
/// morsel count ([`ProjectionMeta::scan_morsels`]), and
/// [`ExecOptions::serial`] keeps every plan single-threaded.
pub fn plan(
    catalog: &OptimizerCatalog,
    query: &BoundQuery,
    live_projections: Option<&HashSet<String>>,
    exec: &ExecOptions,
) -> DbResult<PlannedQuery> {
    let arities = table_arities(catalog, query);
    let mut query = query.clone();
    crate::rewrite::rewrite(&mut query, &arities);
    Planner {
        catalog,
        query,
        live: live_projections,
        exec: *exec,
    }
    .run()
}

/// Compression-aware scan cost of answering a table access with `p`, or
/// `None` if `p` does not cover the `needed` table columns. This is the
/// exact metric [`plan`] minimizes when it chooses a projection per table
/// (selectivity from column stats, sort-prefix prune credit, per-column
/// encoded byte counts), exposed so the Database Designer can score
/// hypothetical projections with the model the planner will actually
/// apply once they exist — there is no separate designer cost model to
/// drift out of sync.
pub fn projection_scan_cost(
    p: &ProjectionMeta,
    needed: &BTreeSet<usize>,
    filter: Option<&Expr>,
) -> Option<f64> {
    let covers = needed
        .iter()
        .all(|&c| p.def.projection_column_of(c).is_some());
    if !covers {
        return None;
    }
    let proj_cols: Vec<usize> = needed
        .iter()
        .map(|&c| p.def.projection_column_of(c).unwrap())
        .collect();
    // Compression-aware scan cost with sort-prefix prune credit.
    let (selectivity, prunable) = match filter {
        None => (1.0, false),
        Some(f) => {
            let remapped = f.remap_columns(&|c| p.def.projection_column_of(c));
            match remapped {
                None => (1.0, false),
                Some(rf) => {
                    let sel = predicate_selectivity(&rf, &p.stats);
                    let bounded: Vec<usize> = vdb_exec::scan::extract_bounds(&rf)
                        .iter()
                        .map(|b| b.column)
                        .collect();
                    let prefix = p.def.sort_prefix();
                    let prunable =
                        !bounded.is_empty() && bounded.iter().all(|c| prefix.first() == Some(c));
                    (sel, prunable)
                }
            }
        }
    };
    let prune_fraction = if prunable { selectivity.max(0.01) } else { 1.0 };
    Some(crate::cost::scan_cost(p, &proj_cols, prune_fraction, selectivity).total())
}

/// Estimated scan cost of `query` under `catalog`: for each FROM table,
/// the cheapest covering projection's [`projection_scan_cost`]. Join and
/// merge costs are deliberately excluded — projection choice only changes
/// the scans, so comparing this figure before and after adding a
/// candidate projection measures exactly the benefit the planner would
/// realize. Returns an error if some table has no covering projection.
pub fn query_scan_cost(catalog: &OptimizerCatalog, query: &BoundQuery) -> DbResult<f64> {
    let arities = table_arities(catalog, query);
    let mut query = query.clone();
    crate::rewrite::rewrite(&mut query, &arities);
    let planner = Planner {
        catalog,
        query,
        live: None,
        exec: ExecOptions::serial(),
    };
    let metas: Vec<&TableMeta> = planner
        .query
        .tables
        .iter()
        .map(|t| {
            planner
                .catalog
                .table(&t.table)
                .ok_or_else(|| DbError::NotFound(format!("table {}", t.table)))
        })
        .collect::<DbResult<_>>()?;
    let offsets = planner.offsets(&metas);
    let needed = planner.needed_columns(&metas, &offsets)?;
    let mut total = 0.0;
    for (t, meta) in metas.iter().enumerate() {
        let filter = planner.query.table_filters[t].clone();
        let p = planner.choose_projection(meta, &needed[t], filter.as_ref())?;
        total += projection_scan_cost(p, &needed[t], filter.as_ref())
            .expect("chosen projection covers the query");
    }
    Ok(total)
}

struct Planner<'a> {
    catalog: &'a OptimizerCatalog,
    query: BoundQuery,
    live: Option<&'a HashSet<String>>,
    exec: ExecOptions,
}

/// Per-table scan decision.
struct TableScan {
    projection: String,
    plan: PhysicalPlan,
    /// table column → scan output position.
    map: HashMap<usize, usize>,
    est_rows: f64,
    /// Sort-prefix columns as table columns present in the output.
    sorted_prefix: Vec<usize>,
    replicated: bool,
    /// Table columns the segmentation hashes over (None = not hash-style).
    seg_columns: Option<Vec<usize>>,
    arity: usize,
}

impl<'a> Planner<'a> {
    fn run(mut self) -> DbResult<PlannedQuery> {
        if self.query.tables.is_empty() {
            return Err(DbError::Plan("query has no tables".into()));
        }
        let metas: Vec<&TableMeta> = self
            .query
            .tables
            .iter()
            .map(|t| {
                self.catalog
                    .table(&t.table)
                    .ok_or_else(|| DbError::NotFound(format!("table {}", t.table)))
            })
            .collect::<DbResult<_>>()?;
        let offsets = self.offsets(&metas);
        let needed = self.needed_columns(&metas, &offsets)?;

        // Prejoin projection special case (§3.3): one inner join fully
        // covered by a prejoin projection of the fact.
        if let Some(planned) = self.try_prejoin(&metas, &offsets, &needed)? {
            return Ok(planned);
        }

        // Choose a projection + build a scan per table.
        let mut scans = Vec::with_capacity(metas.len());
        for (t, meta) in metas.iter().enumerate() {
            scans.push(self.build_scan(t, meta, &needed[t])?);
        }

        // Join order + tree.
        let (plan, layout, table_order) = self.join_tree(&scans)?;
        let global_pos = |g: usize| -> Option<usize> {
            let (t, c) = locate(g, &offsets);
            layout.iter().position(|&(lt, lc)| lt == t && lc == c)
        };

        // Residual cross-table filters.
        let mut plan = plan;
        for f in &self.query.residual_filters {
            let remapped = f
                .remap_columns(&|g| global_pos(g))
                .ok_or_else(|| DbError::Plan("residual filter references pruned column".into()))?;
            plan = PhysicalPlan::Filter {
                input: Box::new(plan),
                predicate: remapped,
            };
        }

        // Access modes for the cluster layer.
        let table_access = self.access_modes(&scans, &table_order);
        let single_node = scans.iter().all(|s| s.replicated);
        let output_names = self.query.output_names();

        // Aggregation / windows / plain select.
        let (local, merge) = if self.query.is_aggregate() || self.query.distinct {
            self.plan_aggregate(plan, &scans, &layout, &offsets, &global_pos)?
        } else if !self.query.windows.is_empty() {
            self.plan_windows(plan, &global_pos)?
        } else {
            self.plan_plain(plan, &global_pos)?
        };
        let local = self.parallelize(local);

        Ok(PlannedQuery {
            local,
            merge,
            output_names,
            table_access,
            single_node,
        })
    }

    /// Degree of parallelism for one projection's scan: bounded by
    /// [`ExecOptions::threads`] and by the projection's morsel count —
    /// (container, block range) units of ~16 k rows, so a single large
    /// container still yields many — since workers beyond the number of
    /// morsels would idle. This is the unpruned count: a plan may ask for
    /// more workers than a selective predicate leaves morsels for, and the
    /// operator clamps to what survives pruning when it runs (a point
    /// query ends up inline on the calling thread).
    fn scan_dop(&self, projection: &str) -> usize {
        self.exec
            .threads
            .min(self.catalog.scan_morsels(projection))
            .max(1)
    }

    /// Rewrite serial scan shapes into morsel-parallel ones where the DoP
    /// is > 1. Conservative by design: only single-table shapes whose
    /// barrier semantics exactly reproduce the serial result are touched —
    /// a GroupBy directly over a scan becomes partial aggregation in the
    /// morsel workers + merge barrier, by the strategy already chosen for
    /// it: a hash group-by keeps a table per worker, a pipelined one (its
    /// group columns are a sort-order prefix) streams per morsel and at a
    /// morsel-ordered barrier (`ParallelStage::GroupBy { sorted }`); a hash
    /// GroupBy over a join that went parallel
    /// (`Planner::parallelize_join`) moves into the probe workers, which
    /// then aggregate what they join; and a bare scan (under
    /// Project/Filter) becomes a parallel collect whose morsel-ordered
    /// concat equals the serial scan row for row. Sort barriers (and the
    /// top-k `Limit{Sort{..}}` shape) recurse — they re-order their whole
    /// input, so morsel order underneath is invisible. Group-bys with
    /// non-decomposable aggregates, joins above the innermost and bare
    /// LIMIT-bounded scans stay serial; `threads=1` leaves every plan
    /// untouched.
    fn parallelize(&self, plan: PhysicalPlan) -> PhysicalPlan {
        if self.exec.threads <= 1 {
            return plan;
        }
        match plan {
            PhysicalPlan::HashGroupBy {
                input,
                group_columns,
                aggs,
            } => match *input {
                scan @ PhysicalPlan::Scan { .. } => {
                    self.parallelize_group_by(scan, group_columns, aggs, false)
                }
                other => match self.parallelize(other) {
                    // Aggregate where the rows are joined: the probe
                    // workers each keep a partial table and only the
                    // partials meet at the barrier, instead of one serial
                    // group-by pulling every joined row through it.
                    PhysicalPlan::ParallelHashJoin {
                        left,
                        right,
                        left_keys,
                        right_keys,
                        join_type,
                        sip,
                        probe_threads,
                        build_threads,
                        stage: ParallelStage::Collect,
                    } if two_phase_aggs(group_columns.len(), &aggs).is_some() => {
                        PhysicalPlan::ParallelHashJoin {
                            left,
                            right,
                            left_keys,
                            right_keys,
                            join_type,
                            sip,
                            probe_threads,
                            build_threads,
                            stage: ParallelStage::GroupBy {
                                group_columns,
                                aggs,
                                sorted: false,
                            },
                        }
                    }
                    input => PhysicalPlan::HashGroupBy {
                        input: Box::new(input),
                        group_columns,
                        aggs,
                    },
                },
            },
            PhysicalPlan::PipelinedGroupBy {
                input,
                group_columns,
                aggs,
            } if matches!(*input, PhysicalPlan::Scan { .. }) => {
                self.parallelize_group_by(*input, group_columns, aggs, true)
            }
            PhysicalPlan::Scan {
                projection,
                output_columns,
                predicate,
                partition_predicate,
                sip,
            } if self.scan_dop(&projection) > 1 => {
                let threads = self.scan_dop(&projection);
                PhysicalPlan::ParallelScan {
                    projection,
                    output_columns,
                    predicate,
                    partition_predicate,
                    sip,
                    stage: ParallelStage::Collect,
                    threads,
                }
            }
            PhysicalPlan::Project { input, exprs } => PhysicalPlan::Project {
                input: Box::new(self.parallelize(*input)),
                exprs,
            },
            PhysicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
                input: Box::new(self.parallelize(*input)),
                predicate,
            },
            plan @ PhysicalPlan::HashJoin { .. } => self.parallelize_join(plan),
            // A Sort is a full barrier that reorders its entire input, so
            // the morsel-concat order of a parallel collect underneath
            // cannot leak into the result; recursing keeps ORDER BY
            // queries (including the pushed-down per-node top-k) on
            // parallel scans.
            PhysicalPlan::Sort { input, keys } => PhysicalPlan::Sort {
                input: Box::new(self.parallelize(*input)),
                keys,
            },
            // A LIMIT bounds how much of its input is *consumed*; over a
            // Sort barrier the input is fully materialized anyway, so the
            // top-k shape Limit{Sort{..}} may parallelize underneath. Any
            // other LIMIT stays serial — a parallel scan under it would
            // over-scan.
            PhysicalPlan::Limit {
                input,
                limit,
                offset,
            } if matches!(*input, PhysicalPlan::Sort { .. }) => PhysicalPlan::Limit {
                input: Box::new(self.parallelize(*input)),
                limit,
                offset,
            },
            // Everything else (bare limits, windows) stays serial.
            other => other,
        }
    }

    /// A group-by directly over `scan`, staged in the scan's morsel workers
    /// when the scan has more than one and the aggregates decompose into
    /// partials. Non-decomposable ones (COUNT DISTINCT) would fall back to
    /// buffering the whole filtered scan at the runtime barrier, so they
    /// keep the serial streaming operator. `sorted` is the strategy the
    /// group-by was planned with: pipelined (`true`) or hash.
    fn parallelize_group_by(
        &self,
        scan: PhysicalPlan,
        group_columns: Vec<usize>,
        aggs: Vec<AggCall>,
        sorted: bool,
    ) -> PhysicalPlan {
        match scan {
            PhysicalPlan::Scan {
                projection,
                output_columns,
                predicate,
                partition_predicate,
                sip,
            } if self.scan_dop(&projection) > 1
                && two_phase_aggs(group_columns.len(), &aggs).is_some() =>
            {
                let threads = self.scan_dop(&projection);
                PhysicalPlan::ParallelScan {
                    projection,
                    output_columns,
                    predicate,
                    partition_predicate,
                    sip,
                    stage: ParallelStage::GroupBy {
                        group_columns,
                        aggs,
                        sorted,
                    },
                    threads,
                }
            }
            input if sorted => PhysicalPlan::PipelinedGroupBy {
                input: Box::new(input),
                group_columns,
                aggs,
            },
            input => PhysicalPlan::HashGroupBy {
                input: Box::new(input),
                group_columns,
                aggs,
            },
        }
    }

    /// Rewrite `HashJoin{Scan, Scan}` shapes into morsel-parallel
    /// partitioned hash joins. The probe-side DoP comes from the probe
    /// projection's morsel count (like `ParallelScan`), the
    /// build-side DoP from the build projection's; a probe DoP of 1 keeps
    /// the serial operator. Left-deep join trees recurse down the probe
    /// spine, so the innermost (fact ⋈ first dimension) join — the hot
    /// one — parallelizes while outer joins keep the serial pull pipeline.
    /// RIGHT/FULL OUTER need build-side matched flags and stay serial.
    fn parallelize_join(&self, plan: PhysicalPlan) -> PhysicalPlan {
        match plan {
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
                sip,
            } => {
                let left = Box::new(self.parallelize_join(*left));
                self.try_parallel_join(left, right, left_keys, right_keys, join_type, sip)
            }
            other => other,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn try_parallel_join(
        &self,
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        join_type: JoinType,
        sip: Option<usize>,
    ) -> PhysicalPlan {
        let probe_dop = match left.as_ref() {
            PhysicalPlan::Scan { projection, .. } => self.scan_dop(projection),
            _ => 1,
        };
        let flavor_ok = matches!(
            join_type,
            JoinType::Inner | JoinType::LeftOuter | JoinType::Semi | JoinType::Anti
        );
        if flavor_ok && probe_dop > 1 {
            if let PhysicalPlan::Scan {
                projection: build_projection,
                ..
            } = right.as_ref()
            {
                return PhysicalPlan::ParallelHashJoin {
                    build_threads: self.scan_dop(build_projection),
                    probe_threads: probe_dop,
                    left,
                    right,
                    left_keys,
                    right_keys,
                    join_type,
                    sip,
                    stage: ParallelStage::Collect,
                };
            }
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
            sip,
        }
    }

    fn offsets(&self, metas: &[&TableMeta]) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(metas.len());
        let mut acc = 0;
        for m in metas {
            offsets.push(acc);
            acc += m.schema.arity();
        }
        offsets
    }

    /// Columns each table must produce.
    fn needed_columns(
        &self,
        metas: &[&TableMeta],
        offsets: &[usize],
    ) -> DbResult<Vec<BTreeSet<usize>>> {
        let mut needed: Vec<BTreeSet<usize>> = metas.iter().map(|_| BTreeSet::new()).collect();
        for (t, f) in self.query.table_filters.iter().enumerate() {
            if let Some(f) = f {
                needed[t].extend(f.referenced_columns());
            }
        }
        for e in &self.query.joins {
            needed[e.left_table].extend(e.left_columns.iter().copied());
            needed[e.right_table].extend(e.right_columns.iter().copied());
        }
        let mut globals: Vec<usize> = Vec::new();
        for (e, _) in &self.query.select {
            globals.extend(e.referenced_columns());
        }
        for e in &self.query.group_by {
            globals.extend(e.referenced_columns());
        }
        for a in &self.query.aggregates {
            if let Some(e) = &a.input {
                globals.extend(e.referenced_columns());
            }
        }
        for w in &self.query.windows {
            globals.extend(w.partition_by.iter().copied());
            globals.extend(w.order_by.iter().map(|(c, _)| *c));
            match &w.func {
                vdb_exec::analytic::WindowFunc::Lag(c)
                | vdb_exec::analytic::WindowFunc::Lead(c)
                | vdb_exec::analytic::WindowFunc::Agg(_, c) => globals.push(*c),
                _ => {}
            }
        }
        for f in &self.query.residual_filters {
            globals.extend(f.referenced_columns());
        }
        for g in globals {
            let (t, c) = locate(g, offsets);
            if t >= needed.len() || c >= metas[t].schema.arity() {
                return Err(DbError::Plan(format!("column reference {g} out of range")));
            }
            needed[t].insert(c);
        }
        // A scan must output at least one column.
        for n in needed.iter_mut() {
            if n.is_empty() {
                n.insert(0);
            }
        }
        Ok(needed)
    }

    fn is_live(&self, name: &str) -> bool {
        self.live.is_none_or(|set| set.contains(name))
    }

    /// Choose the cheapest live projection covering `needed`.
    fn choose_projection<'m>(
        &self,
        meta: &'m TableMeta,
        needed: &BTreeSet<usize>,
        filter: Option<&Expr>,
    ) -> DbResult<&'m ProjectionMeta> {
        let mut best: Option<(&ProjectionMeta, f64)> = None;
        for p in &meta.projections {
            if !self.is_live(&p.def.name) || !p.def.prejoin.is_empty() {
                continue;
            }
            let Some(cost) = projection_scan_cost(p, needed, filter) else {
                continue;
            };
            if best.is_none_or(|(_, c)| cost < c) {
                best = Some((p, cost));
            }
        }
        best.map(|(p, _)| p).ok_or_else(|| {
            DbError::Plan(format!(
                "no live projection of {} covers the query (node down without buddy?)",
                meta.schema.name
            ))
        })
    }

    fn build_scan(
        &self,
        t: usize,
        meta: &TableMeta,
        needed: &BTreeSet<usize>,
    ) -> DbResult<TableScan> {
        let filter = self.query.table_filters[t].clone();
        let pmeta = self.choose_projection(meta, needed, filter.as_ref())?;
        let def = &pmeta.def;
        // Output the needed columns in ascending projection-column order.
        let mut proj_cols: Vec<(usize, usize)> = needed
            .iter()
            .map(|&c| (def.projection_column_of(c).unwrap(), c))
            .collect();
        proj_cols.sort_unstable();
        let output_columns: Vec<usize> = proj_cols.iter().map(|&(p, _)| p).collect();
        let map: HashMap<usize, usize> = proj_cols
            .iter()
            .enumerate()
            .map(|(pos, &(_, c))| (c, pos))
            .collect();
        // Predicate over scan output positions.
        let predicate = match &filter {
            None => None,
            Some(f) => Some(f.remap_columns(&|c| map.get(&c).copied()).ok_or_else(|| {
                DbError::Plan("filter references column missing from scan".into())
            })?),
        };
        let partition_predicate =
            derive_partition_predicate(meta.partition_by.as_ref(), filter.as_ref());
        let est_rows = {
            let sel = match &filter {
                None => 1.0,
                Some(f) => f
                    .remap_columns(&|c| def.projection_column_of(c))
                    .map(|rf| predicate_selectivity(&rf, &pmeta.stats))
                    .unwrap_or(0.5),
            };
            pmeta.row_count as f64 * sel
        };
        // Sort prefix as table columns, but only those present in the
        // output (useful for pipelined group-by detection).
        let mut sorted_prefix = Vec::new();
        for k in &def.sort_keys {
            let table_col = def.columns.get(k.column).copied();
            match table_col {
                Some(c) if map.contains_key(&c) => sorted_prefix.push(c),
                _ => break,
            }
        }
        let (replicated, seg_columns) = match &def.segmentation {
            Segmentation::Replicated => (true, None),
            Segmentation::ByExpr(e) => (false, hash_columns_of(e, def)),
        };
        Ok(TableScan {
            projection: def.name.clone(),
            plan: PhysicalPlan::Scan {
                projection: def.name.clone(),
                output_columns,
                predicate,
                partition_predicate,
                sip: vec![],
            },
            map,
            est_rows,
            sorted_prefix,
            replicated,
            seg_columns,
            arity: proj_cols.len(),
        })
    }

    /// StarOpt join ordering + left-deep tree with SIP pushed to the fact
    /// scan. Returns (plan, layout, table order).
    #[allow(clippy::type_complexity)]
    fn join_tree(
        &mut self,
        scans: &[TableScan],
    ) -> DbResult<(PhysicalPlan, Vec<(usize, usize)>, Vec<usize>)> {
        let n = scans.len();
        if n == 1 {
            let layout: Vec<(usize, usize)> = ordered_layout(0, &scans[0]);
            return Ok((scans[0].plan.clone(), layout, vec![0]));
        }
        let all_inner = self
            .query
            .joins
            .iter()
            .all(|e| e.join_type == JoinType::Inner);
        // Order: fact (largest estimate) first, then ascending estimates
        // (most selective dimension first). Non-inner queries keep FROM
        // order for orientation safety.
        let order: Vec<usize> = if all_inner {
            let fact = (0..n)
                .max_by(|&a, &b| scans[a].est_rows.total_cmp(&scans[b].est_rows))
                .unwrap();
            let mut dims: Vec<usize> = (0..n).filter(|&t| t != fact).collect();
            dims.sort_by(|&a, &b| scans[a].est_rows.total_cmp(&scans[b].est_rows));
            std::iter::once(fact).chain(dims).collect()
        } else {
            (0..n).collect()
        };
        let fact = order[0];
        let mut joined: HashSet<usize> = HashSet::from([fact]);
        let mut layout = ordered_layout(fact, &scans[fact]);
        let fact_arity = scans[fact].arity;
        let mut plan = scans[fact].plan.clone();
        let mut edges: Vec<crate::query::JoinEdge> = self.query.joins.clone();
        let mut next_sip: usize = 0;
        let mut fact_sips: Vec<(usize, Vec<usize>)> = Vec::new();
        let mut remaining: Vec<usize> = order[1..].to_vec();
        while !remaining.is_empty() {
            // Pick the first remaining table connected to the joined set.
            let pick = remaining
                .iter()
                .position(|&t| {
                    edges.iter().any(|e| {
                        (e.left_table == t && joined.contains(&e.right_table))
                            || (e.right_table == t && joined.contains(&e.left_table))
                    })
                })
                .ok_or_else(|| {
                    DbError::Plan("cross joins without join predicates are not supported".into())
                })?;
            let t = remaining.remove(pick);
            let eidx = edges
                .iter()
                .position(|e| {
                    (e.left_table == t && joined.contains(&e.right_table))
                        || (e.right_table == t && joined.contains(&e.left_table))
                })
                .unwrap();
            let edge = edges.remove(eidx);
            // Orient: probe = joined side, build = t.
            let (probe_cols, build_cols, join_type) = if joined.contains(&edge.left_table) {
                (
                    edge.left_columns.clone(),
                    edge.right_columns.clone(),
                    edge.join_type,
                )
            } else {
                let flipped = match edge.join_type {
                    JoinType::LeftOuter => JoinType::RightOuter,
                    JoinType::RightOuter => JoinType::LeftOuter,
                    JoinType::Semi | JoinType::Anti => {
                        return Err(DbError::Plan(
                            "SEMI/ANTI join must have its outer side first".into(),
                        ))
                    }
                    other => other,
                };
                (
                    edge.right_columns.clone(),
                    edge.left_columns.clone(),
                    flipped,
                )
            };
            let probe_table = if joined.contains(&edge.left_table) {
                edge.left_table
            } else {
                edge.right_table
            };
            let left_keys: Vec<usize> = probe_cols
                .iter()
                .map(|&c| {
                    layout
                        .iter()
                        .position(|&(lt, lc)| lt == probe_table && lc == c)
                        .ok_or_else(|| DbError::Plan("join key missing from layout".into()))
                })
                .collect::<DbResult<_>>()?;
            let right_keys: Vec<usize> = build_cols.iter().map(|&c| scans[t].map[&c]).collect();
            // SIP: push to the fact scan when the probe keys live in the
            // fact prefix of the layout and the join type allows it.
            let sip_id = if matches!(join_type, JoinType::Inner | JoinType::Semi)
                && left_keys.iter().all(|&k| k < fact_arity)
            {
                let id = next_sip;
                next_sip += 1;
                fact_sips.push((id, left_keys.clone()));
                Some(id)
            } else {
                None
            };
            plan = PhysicalPlan::HashJoin {
                left: Box::new(plan),
                right: Box::new(scans[t].plan.clone()),
                left_keys,
                right_keys,
                join_type,
                sip: sip_id,
            };
            if join_type.emits_right_columns() {
                layout.extend(ordered_layout(t, &scans[t]));
            }
            joined.insert(t);
        }
        if !edges.is_empty() {
            // Extra edges between already-joined tables become filters.
            for e in edges {
                let l: Vec<usize> = e
                    .left_columns
                    .iter()
                    .map(|&c| {
                        layout
                            .iter()
                            .position(|&(lt, lc)| lt == e.left_table && lc == c)
                            .ok_or_else(|| DbError::Plan("edge column pruned".into()))
                    })
                    .collect::<DbResult<_>>()?;
                let r: Vec<usize> = e
                    .right_columns
                    .iter()
                    .map(|&c| {
                        layout
                            .iter()
                            .position(|&(lt, lc)| lt == e.right_table && lc == c)
                            .ok_or_else(|| DbError::Plan("edge column pruned".into()))
                    })
                    .collect::<DbResult<_>>()?;
                let preds: Vec<Expr> = l
                    .iter()
                    .zip(&r)
                    .map(|(&a, &b)| Expr::eq(Expr::col(a, "l"), Expr::col(b, "r")))
                    .collect();
                plan = PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: Expr::conjunction(preds).unwrap(),
                };
            }
        }
        // Install accumulated SIP bindings on the fact scan.
        if !fact_sips.is_empty() {
            install_sips(&mut plan, &scans[fact].projection, &fact_sips);
        }
        let mut order_out = vec![fact];
        order_out.extend(order[1..].iter().copied());
        Ok((plan, layout, order_out))
    }

    fn access_modes(&self, scans: &[TableScan], order: &[usize]) -> Vec<(String, TableAccess)> {
        let fact = order[0];
        (0..scans.len())
            .map(|t| {
                let access = if t == fact || scans[t].replicated {
                    TableAccess::Local
                } else {
                    // Co-located if both ends of the edge hash-segment on
                    // exactly the join key columns. Failing that, an inner
                    // edge whose other side IS segmented on its join keys
                    // can re-segment this table through the exchange
                    // instead of broadcasting it everywhere.
                    let mut co_located = false;
                    let mut resegment: Option<Vec<usize>> = None;
                    for e in &self.query.joins {
                        let (dim, dim_cols, other, other_cols) = if e.left_table == t {
                            (t, &e.left_columns, e.right_table, &e.right_columns)
                        } else if e.right_table == t {
                            (t, &e.right_columns, e.left_table, &e.left_columns)
                        } else {
                            continue;
                        };
                        let dim_seg = scans[dim].seg_columns.as_deref();
                        let other_seg = scans[other].seg_columns.as_deref();
                        if matches_cols(dim_seg, dim_cols)
                            && (scans[other].replicated || matches_cols(other_seg, other_cols))
                        {
                            co_located = true;
                            break;
                        }
                        if e.join_type == JoinType::Inner
                            && !scans[other].replicated
                            && matches_cols(other_seg, other_cols)
                            && resegment.is_none()
                        {
                            resegment = Some(dim_cols.clone());
                        }
                    }
                    if co_located {
                        TableAccess::Local
                    } else if let Some(keys) = resegment {
                        TableAccess::Resegment { keys }
                    } else {
                        TableAccess::Broadcast
                    }
                };
                (scans[t].projection.clone(), access)
            })
            .collect()
    }

    /// Aggregate (or DISTINCT) query: local partial aggregation + merge
    /// re-aggregation.
    fn plan_aggregate(
        &self,
        input: PhysicalPlan,
        scans: &[TableScan],
        layout: &[(usize, usize)],
        offsets: &[usize],
        global_pos: &dyn Fn(usize) -> Option<usize>,
    ) -> DbResult<(PhysicalPlan, MergeSpec)> {
        let remap = |e: &Expr| -> DbResult<Expr> {
            e.remap_columns(&|g| global_pos(g))
                .ok_or_else(|| DbError::Plan("expression references pruned column".into()))
        };
        // DISTINCT without GROUP BY: group by the select list.
        let (group_exprs, aggs): (Vec<Expr>, Vec<crate::query::AggItem>) =
            if self.query.is_aggregate() {
                (self.query.group_by.clone(), self.query.aggregates.clone())
            } else {
                (
                    self.query.select.iter().map(|(e, _)| e.clone()).collect(),
                    vec![],
                )
            };
        let g = group_exprs.len();
        // Simple-column groups over a single sorted table use the
        // pipelined, encoded-aware one-pass aggregate.
        let simple_group_cols: Option<Vec<usize>> = group_exprs
            .iter()
            .map(|e| match e {
                Expr::Column { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        let simple_agg_inputs: Option<Vec<Option<usize>>> = aggs
            .iter()
            .map(|a| match &a.input {
                None => Some(None),
                Some(Expr::Column { index, .. }) => Some(Some(*index)),
                _ => None,
            })
            .collect();
        let use_pipelined = match (&simple_group_cols, &simple_agg_inputs) {
            (Some(gcols), Some(_)) if self.query.tables.len() == 1 && !gcols.is_empty() => {
                let table_cols: Vec<usize> =
                    gcols.iter().map(|&gc| locate(gc, offsets).1).collect();
                let prefix = &scans[0].sorted_prefix;
                table_cols.len() <= prefix.len() && {
                    let mut a = table_cols.clone();
                    let mut b = prefix[..table_cols.len()].to_vec();
                    a.sort_unstable();
                    b.sort_unstable();
                    a == b
                }
            }
            _ => false,
        };

        // Build the groupby input: either the raw join output (simple
        // columns, remapped) or an ExprEval projecting group + agg inputs.
        let (gb_input, group_columns, agg_calls): (PhysicalPlan, Vec<usize>, Vec<AggCall>) =
            if let (Some(gcols), Some(ainputs)) = (&simple_group_cols, &simple_agg_inputs) {
                let group_columns: Vec<usize> = gcols
                    .iter()
                    .map(|&gc| {
                        global_pos(gc).ok_or_else(|| DbError::Plan("group column pruned".into()))
                    })
                    .collect::<DbResult<_>>()?;
                let agg_calls: Vec<AggCall> = aggs
                    .iter()
                    .zip(ainputs)
                    .map(|(a, input)| {
                        let col = match input {
                            None => 0,
                            Some(gc) => global_pos(*gc)
                                .ok_or_else(|| DbError::Plan("agg column pruned".into()))?,
                        };
                        Ok(AggCall::new(a.func, col, a.output_name.clone()))
                    })
                    .collect::<DbResult<_>>()?;
                (input, group_columns, agg_calls)
            } else {
                // Project: group exprs then agg input exprs.
                let mut exprs: Vec<Expr> =
                    group_exprs.iter().map(&remap).collect::<DbResult<_>>()?;
                for a in &aggs {
                    exprs.push(match &a.input {
                        None => Expr::lit(Value::Integer(1)),
                        Some(e) => remap(e)?,
                    });
                }
                let agg_calls: Vec<AggCall> = aggs
                    .iter()
                    .enumerate()
                    .map(|(i, a)| AggCall::new(a.func, g + i, a.output_name.clone()))
                    .collect();
                (
                    PhysicalPlan::Project {
                        input: Box::new(input),
                        exprs,
                    },
                    (0..g).collect(),
                    agg_calls,
                )
            };

        let order_by = self.order_keys();
        let limit = self.limit();
        match two_phase_aggs(g, &agg_calls) {
            Some((partial, final_aggs, project)) => {
                let local = if use_pipelined {
                    PhysicalPlan::PipelinedGroupBy {
                        input: Box::new(gb_input),
                        group_columns,
                        aggs: partial,
                    }
                } else {
                    PhysicalPlan::HashGroupBy {
                        input: Box::new(gb_input),
                        group_columns,
                        aggs: partial,
                    }
                };
                Ok((
                    local,
                    MergeSpec::ReAggregate {
                        group_columns: (0..g).collect(),
                        merge_aggs: final_aggs,
                        project,
                        having: self.query.having.clone(),
                        order_by,
                        limit,
                    },
                ))
            }
            None => {
                // Non-decomposable (COUNT DISTINCT): ship raw grouped rows
                // and aggregate once at the initiator. The local side still
                // projects down to group + agg input columns.
                let local = match &gb_input {
                    p @ PhysicalPlan::Project { .. } => p.clone(),
                    other => PhysicalPlan::Project {
                        input: Box::new(other.clone()),
                        exprs: group_columns
                            .iter()
                            .map(|&c| Expr::col(c, format!("g{c}")))
                            .chain(
                                agg_calls
                                    .iter()
                                    .map(|a| Expr::col(a.input, a.output_name.clone())),
                            )
                            .collect(),
                    },
                };
                let merge_aggs: Vec<AggCall> = agg_calls
                    .iter()
                    .enumerate()
                    .map(|(i, a)| AggCall::new(a.func, g + i, a.output_name.clone()))
                    .collect();
                let project: Vec<Expr> = (0..g + merge_aggs.len())
                    .map(|i| Expr::col(i, format!("c{i}")))
                    .collect();
                let _ = layout;
                Ok((
                    local,
                    MergeSpec::ReAggregate {
                        group_columns: (0..g).collect(),
                        merge_aggs,
                        project,
                        having: self.query.having.clone(),
                        order_by,
                        limit,
                    },
                ))
            }
        }
    }

    /// Window query: local plan ships base columns; windows run globally.
    fn plan_windows(
        &self,
        input: PhysicalPlan,
        global_pos: &dyn Fn(usize) -> Option<usize>,
    ) -> DbResult<(PhysicalPlan, MergeSpec)> {
        // Compact needed globals: every global column used by select or
        // window specs, in ascending order.
        let mut needed: BTreeSet<usize> = BTreeSet::new();
        for (e, _) in &self.query.select {
            needed.extend(e.referenced_columns());
        }
        for w in &self.query.windows {
            needed.extend(w.partition_by.iter().copied());
            needed.extend(w.order_by.iter().map(|(c, _)| *c));
            match &w.func {
                vdb_exec::analytic::WindowFunc::Lag(c)
                | vdb_exec::analytic::WindowFunc::Lead(c)
                | vdb_exec::analytic::WindowFunc::Agg(_, c) => {
                    needed.insert(*c);
                }
                _ => {}
            }
        }
        let needed: Vec<usize> = needed.into_iter().collect();
        let compact: HashMap<usize, usize> =
            needed.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        let exprs: Vec<Expr> = needed
            .iter()
            .map(|&gc| {
                global_pos(gc)
                    .map(|p| Expr::col(p, format!("c{gc}")))
                    .ok_or_else(|| DbError::Plan("window column pruned".into()))
            })
            .collect::<DbResult<_>>()?;
        let local = PhysicalPlan::Project {
            input: Box::new(input),
            exprs,
        };
        // All window calls must share one spec in this implementation.
        let first = &self.query.windows[0];
        for w in &self.query.windows[1..] {
            if w.partition_by != first.partition_by || w.order_by != first.order_by {
                return Err(DbError::Plan(
                    "multiple distinct window specifications are not supported".into(),
                ));
            }
        }
        let partition_by: Vec<usize> = first.partition_by.iter().map(|c| compact[c]).collect();
        let order_by_window: Vec<SortKey> = first
            .order_by
            .iter()
            .map(|&(c, asc)| {
                if asc {
                    SortKey::asc(compact[&c])
                } else {
                    SortKey::desc(compact[&c])
                }
            })
            .collect();
        let funcs: Vec<vdb_exec::analytic::WindowFunc> = self
            .query
            .windows
            .iter()
            .map(|w| match &w.func {
                vdb_exec::analytic::WindowFunc::Lag(c) => {
                    vdb_exec::analytic::WindowFunc::Lag(compact[c])
                }
                vdb_exec::analytic::WindowFunc::Lead(c) => {
                    vdb_exec::analytic::WindowFunc::Lead(compact[c])
                }
                vdb_exec::analytic::WindowFunc::Agg(f, c) => {
                    vdb_exec::analytic::WindowFunc::Agg(*f, compact[c])
                }
                other => other.clone(),
            })
            .collect();
        // Final projection: select exprs (over compact layout) then window
        // outputs (appended after the compact columns).
        let base = needed.len();
        let mut project: Vec<Expr> = self
            .query
            .select
            .iter()
            .map(|(e, _)| {
                e.remap_columns(&|g| compact.get(&g).copied())
                    .ok_or_else(|| DbError::Plan("select column pruned".into()))
            })
            .collect::<DbResult<_>>()?;
        for (i, w) in self.query.windows.iter().enumerate() {
            project.push(Expr::col(base + i, w.output_name.clone()));
        }
        Ok((
            local,
            MergeSpec::WindowThenProject {
                partition_by,
                order_by_window,
                funcs,
                project,
                order_by: self.order_keys(),
                limit: self.limit(),
            },
        ))
    }

    /// Plain select: project locally, concat at the initiator.
    fn plan_plain(
        &self,
        input: PhysicalPlan,
        global_pos: &dyn Fn(usize) -> Option<usize>,
    ) -> DbResult<(PhysicalPlan, MergeSpec)> {
        let exprs: Vec<Expr> = self
            .query
            .select
            .iter()
            .map(|(e, _)| {
                e.remap_columns(&|g| global_pos(g))
                    .ok_or_else(|| DbError::Plan("select column pruned".into()))
            })
            .collect::<DbResult<_>>()?;
        let mut local = PhysicalPlan::Project {
            input: Box::new(input),
            exprs,
        };
        // Limit without order can be applied per node too.
        if self.query.order_by.is_empty() {
            if let Some(n) = self.query.limit {
                local = PhysicalPlan::Limit {
                    input: Box::new(local),
                    limit: n + self.query.offset,
                    offset: 0,
                };
            }
        } else if let Some(n) = self.query.limit {
            // ORDER BY + LIMIT: push a partial top-k to each node. Every
            // node sorts its own rows and ships only the first
            // limit+offset — rows past that bound can never appear in the
            // global answer, since the initiator re-sorts the union and
            // applies the real limit/offset itself (MergeSpec below).
            local = PhysicalPlan::Limit {
                input: Box::new(PhysicalPlan::Sort {
                    input: Box::new(local),
                    keys: self.order_keys(),
                }),
                limit: n + self.query.offset,
                offset: 0,
            };
        }
        Ok((
            local,
            MergeSpec::Concat {
                order_by: self.order_keys(),
                limit: self.limit(),
            },
        ))
    }

    fn order_keys(&self) -> Vec<SortKey> {
        self.query
            .order_by
            .iter()
            .map(|o| {
                if o.ascending {
                    SortKey::asc(o.output_column)
                } else {
                    SortKey::desc(o.output_column)
                }
            })
            .collect()
    }

    fn limit(&self) -> Option<(usize, usize)> {
        self.query.limit.map(|n| (n, self.query.offset))
    }

    /// §3.3 prejoin projection: single inner join fully covered.
    fn try_prejoin(
        &self,
        metas: &[&TableMeta],
        offsets: &[usize],
        needed: &[BTreeSet<usize>],
    ) -> DbResult<Option<PlannedQuery>> {
        if self.query.tables.len() != 2 || self.query.joins.len() != 1 {
            return Ok(None);
        }
        let edge = &self.query.joins[0];
        if edge.join_type != JoinType::Inner || edge.left_columns.len() != 1 {
            return Ok(None);
        }
        // Identify fact (anchor) and dim sides against each candidate.
        for (fact_t, dim_t) in [
            (edge.left_table, edge.right_table),
            (edge.right_table, edge.left_table),
        ] {
            let (fact_key, dim_key) = if fact_t == edge.left_table {
                (edge.left_columns[0], edge.right_columns[0])
            } else {
                (edge.right_columns[0], edge.left_columns[0])
            };
            let fact_meta = metas[fact_t];
            for p in &fact_meta.projections {
                if !self.is_live(&p.def.name) || p.def.prejoin.len() != 1 {
                    continue;
                }
                let pj = &p.def.prejoin[0];
                if pj.dim_table != self.query.tables[dim_t].table
                    || pj.fact_key != fact_key
                    || pj.dim_key != dim_key
                {
                    continue;
                }
                // Coverage: fact needed in anchor columns; dim needed in
                // pj.dim_columns.
                let fact_ok = needed[fact_t]
                    .iter()
                    .all(|&c| p.def.projection_column_of(c).is_some());
                let dim_ok = needed[dim_t].iter().all(|&c| pj.dim_columns.contains(&c));
                if !fact_ok || !dim_ok {
                    continue;
                }
                return Ok(Some(
                    self.plan_over_prejoin(p, fact_t, dim_t, offsets, needed)?,
                ));
            }
        }
        Ok(None)
    }

    fn plan_over_prejoin(
        &self,
        pmeta: &ProjectionMeta,
        fact_t: usize,
        dim_t: usize,
        offsets: &[usize],
        needed: &[BTreeSet<usize>],
    ) -> DbResult<PlannedQuery> {
        let def = &pmeta.def;
        let pj = &def.prejoin[0];
        // Map (table, col) → projection column.
        let to_proj = |t: usize, c: usize| -> Option<usize> {
            if t == fact_t {
                def.projection_column_of(c)
            } else {
                pj.dim_columns
                    .iter()
                    .position(|&dc| dc == c)
                    .map(|i| def.num_anchor_columns() + i)
            }
        };
        // Scan outputs: all needed columns in projection order.
        let mut proj_cols: Vec<(usize, usize, usize)> = Vec::new(); // (proj col, t, c)
        for (t, set) in [(fact_t, &needed[fact_t]), (dim_t, &needed[dim_t])] {
            for &c in set {
                let p = to_proj(t, c)
                    .ok_or_else(|| DbError::Plan("prejoin coverage check failed".into()))?;
                proj_cols.push((p, t, c));
            }
        }
        proj_cols.sort_unstable();
        proj_cols.dedup();
        let output_columns: Vec<usize> = proj_cols.iter().map(|&(p, _, _)| p).collect();
        let pos_of = |t: usize, c: usize| -> Option<usize> {
            proj_cols.iter().position(|&(_, pt, pc)| pt == t && pc == c)
        };
        // Combined predicate: both tables' filters.
        let mut preds = Vec::new();
        for (t, f) in self.query.table_filters.iter().enumerate() {
            if let Some(f) = f {
                preds.push(
                    f.remap_columns(&|c| pos_of(t, c))
                        .ok_or_else(|| DbError::Plan("prejoin filter remap failed".into()))?,
                );
            }
        }
        let scan = PhysicalPlan::Scan {
            projection: def.name.clone(),
            output_columns,
            predicate: Expr::conjunction(preds),
            partition_predicate: None,
            sip: vec![],
        };
        let global_pos = |g: usize| -> Option<usize> {
            let (t, c) = locate(g, offsets);
            pos_of(t, c)
        };
        let replicated = matches!(def.segmentation, Segmentation::Replicated);
        let (local, merge) = if self.query.is_aggregate() || self.query.distinct {
            // Reuse the aggregate path with a fake single-scan context.
            let scans = vec![TableScan {
                projection: def.name.clone(),
                plan: scan.clone(),
                map: HashMap::new(),
                est_rows: pmeta.row_count as f64,
                sorted_prefix: vec![],
                replicated,
                seg_columns: None,
                arity: proj_cols.len(),
            }];
            let layout: Vec<(usize, usize)> = proj_cols.iter().map(|&(_, t, c)| (t, c)).collect();
            self.plan_aggregate(scan, &scans, &layout, offsets, &global_pos)?
        } else if !self.query.windows.is_empty() {
            self.plan_windows(scan, &global_pos)?
        } else {
            self.plan_plain(scan, &global_pos)?
        };
        Ok(PlannedQuery {
            local: self.parallelize(local),
            merge,
            output_names: self.query.output_names(),
            table_access: vec![(def.name.clone(), TableAccess::Local)],
            single_node: replicated,
        })
    }
}

/// Attach SIP bindings to the Scan of `projection` in the left spine of
/// the plan (the fact scan of a left-deep join tree).
fn install_sips(plan: &mut PhysicalPlan, projection: &str, bindings: &[(usize, Vec<usize>)]) {
    match plan {
        PhysicalPlan::Scan {
            projection: p, sip, ..
        } if p == projection => {
            sip.extend(bindings.iter().cloned());
        }
        PhysicalPlan::HashJoin { left, .. } | PhysicalPlan::MergeJoin { left, .. } => {
            install_sips(left, projection, bindings)
        }
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            install_sips(input, projection, bindings)
        }
        _ => {}
    }
}

/// Scan output layout of one table as (table, table_col) pairs, in scan
/// output order.
fn ordered_layout(t: usize, scan: &TableScan) -> Vec<(usize, usize)> {
    let mut pairs: Vec<(usize, usize)> = scan.map.iter().map(|(&c, &pos)| (pos, c)).collect();
    pairs.sort_unstable();
    pairs.into_iter().map(|(_, c)| (t, c)).collect()
}

/// (table index, local column) of a global column.
/// Column count of each FROM table (0 for an unknown table, which the
/// planner rejects by name before any column is mapped).
fn table_arities(catalog: &OptimizerCatalog, query: &BoundQuery) -> Vec<usize> {
    query
        .tables
        .iter()
        .map(|t| catalog.table(&t.table).map_or(0, |m| m.schema.arity()))
        .collect()
}

fn locate(g: usize, offsets: &[usize]) -> (usize, usize) {
    let t = offsets.partition_point(|&o| o <= g) - 1;
    (t, g - offsets[t])
}

/// If `e` is `HASH(col, col, ...)`, the table columns hashed (projection
/// columns mapped through the def).
fn hash_columns_of(e: &Expr, def: &vdb_storage::projection::ProjectionDef) -> Option<Vec<usize>> {
    match e {
        Expr::Call {
            func: Func::Hash,
            args,
        } => args
            .iter()
            .map(|a| match a {
                Expr::Column { index, .. } => def.columns.get(*index).copied(),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

fn matches_cols(seg: Option<&[usize]>, cols: &[usize]) -> bool {
    match seg {
        None => false,
        Some(seg) => {
            let mut a = seg.to_vec();
            let mut b = cols.to_vec();
            a.sort_unstable();
            b.sort_unstable();
            a == b
        }
    }
}

/// Derive a partition-key predicate from a table filter when the partition
/// expression is a monotone date extraction (§3.5's month/year pattern).
/// The returned predicate is over the single-column row `[partition_key]`.
pub fn derive_partition_predicate(
    partition_by: Option<&Expr>,
    filter: Option<&Expr>,
) -> Option<Expr> {
    let partition_by = partition_by?;
    let filter = filter?;
    let (mono_fn, col): (fn(i64) -> i64, usize) = match partition_by {
        Expr::Call {
            func: Func::YearMonth,
            args,
        } => match args.as_slice() {
            [Expr::Column { index, .. }] => (vdb_types::date::year_month, *index),
            _ => return None,
        },
        Expr::Call {
            func: Func::ExtractYear,
            args,
        } => match args.as_slice() {
            [Expr::Column { index, .. }] => (vdb_types::date::year, *index),
            _ => return None,
        },
        Expr::Column { index, .. } => (|v| v, *index),
        _ => return None,
    };
    let bounds = vdb_exec::scan::extract_bounds(filter);
    let b = bounds.iter().find(|b| b.column == col)?;
    let mut preds = Vec::new();
    if let Some(lo) = &b.low {
        let v = lo.as_i64()?;
        preds.push(Expr::binary(
            vdb_types::BinOp::Ge,
            Expr::col(0, "pk"),
            Expr::int(mono_fn(v)),
        ));
    }
    if let Some(hi) = &b.high {
        let v = hi.as_i64()?;
        preds.push(Expr::binary(
            vdb_types::BinOp::Le,
            Expr::col(0, "pk"),
            Expr::int(mono_fn(v)),
        ));
    }
    Expr::conjunction(preds)
}

/// Re-export for external callers (Database Designer scores candidate
/// projections with the same function the planner uses).
pub use crate::cost::scan_cost;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ProjectionMeta, TableMeta};
    use crate::query::{AggItem, JoinEdge, OrderItem, QueryTable};
    use vdb_exec::aggregate::AggFunc;
    use vdb_storage::projection::ProjectionDef;
    use vdb_types::{BinOp, ColumnDef, DataType, Row, TableSchema};

    fn sample_rows(n: i64, arity: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                (0..arity)
                    .map(|c| Value::Integer(i * (c as i64 + 1)))
                    .collect()
            })
            .collect()
    }

    /// fact(id, dim_id, amount, ts) segmented by HASH(id);
    /// dim(id, name_code) replicated.
    fn catalog() -> OptimizerCatalog {
        let fact_schema = TableSchema::new(
            "fact",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("dim_id", DataType::Integer),
                ColumnDef::new("amount", DataType::Integer),
                ColumnDef::new("ts", DataType::Timestamp),
            ],
        );
        let dim_schema = TableSchema::new(
            "dim",
            vec![
                ColumnDef::new("id", DataType::Integer),
                ColumnDef::new("name_code", DataType::Integer),
            ],
        );
        let fact_proj = ProjectionDef::super_projection(&fact_schema, "fact_super", &[3, 0], &[0]);
        let fact_meta = ProjectionMeta::from_sample(
            fact_proj,
            100_000,
            vec![80_000, 40_000, 120_000, 20_000, 10_000],
            &sample_rows(1000, 4),
        );
        let dim_proj = ProjectionDef::super_projection(&dim_schema, "dim_super", &[0], &[]);
        let dim_meta =
            ProjectionMeta::from_sample(dim_proj, 100, vec![500, 700], &sample_rows(100, 2));
        let mut cat = OptimizerCatalog::default();
        cat.tables.insert(
            "fact".into(),
            TableMeta {
                schema: fact_schema,
                partition_by: None,
                projections: vec![fact_meta],
            },
        );
        cat.tables.insert(
            "dim".into(),
            TableMeta {
                schema: dim_schema,
                partition_by: None,
                projections: vec![dim_meta],
            },
        );
        cat
    }

    fn join_query() -> BoundQuery {
        // SELECT dim.name_code, COUNT(*) FROM fact JOIN dim ON
        // fact.dim_id = dim.id WHERE fact.amount > 50 GROUP BY name_code
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
            table_filters: vec![
                Some(Expr::binary(
                    BinOp::Gt,
                    Expr::col(2, "amount"),
                    Expr::int(50),
                )),
                None,
            ],
            joins: vec![JoinEdge {
                left_table: 0,
                left_columns: vec![1],
                right_table: 1,
                right_columns: vec![0],
                join_type: JoinType::Inner,
            }],
            select: vec![(Expr::col(5, "name_code"), "name_code".into())],
            group_by: vec![Expr::col(5, "name_code")],
            aggregates: vec![AggItem {
                func: AggFunc::CountStar,
                input: None,
                output_name: "cnt".into(),
            }],
            order_by: vec![OrderItem {
                output_column: 0,
                ascending: true,
            }],
            ..Default::default()
        }
    }

    #[test]
    fn plans_star_join_with_sip_on_fact_scan() {
        let planned = plan(&catalog(), &join_query(), None, &ExecOptions::serial()).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("HashJoin INNER"), "{text}");
        assert!(text.contains("[builds SIP]"), "{text}");
        assert!(text.contains("Scan fact_super"), "{text}");
        assert!(text.contains("[SIP x1]"), "{text}");
        // Replicated dim: local join, no broadcast.
        assert!(planned
            .table_access
            .iter()
            .all(|(_, a)| *a == TableAccess::Local));
        assert!(!planned.single_node, "fact is segmented");
        assert!(matches!(planned.merge, MergeSpec::ReAggregate { .. }));
        assert_eq!(planned.output_names, vec!["name_code", "cnt"]);
    }

    #[test]
    fn single_table_sorted_groupby_uses_pipelined() {
        // GROUP BY ts on fact (sorted by ts first).
        let q = BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![None],
            select: vec![(Expr::col(3, "ts"), "ts".into())],
            group_by: vec![Expr::col(3, "ts")],
            aggregates: vec![AggItem {
                func: AggFunc::CountStar,
                input: None,
                output_name: "cnt".into(),
            }],
            ..Default::default()
        };
        let planned = plan(&catalog(), &q, None, &ExecOptions::serial()).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("GroupByPipelined"), "{text}");
    }

    #[test]
    fn unsorted_groupby_uses_hash() {
        let q = BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![None],
            select: vec![(Expr::col(2, "amount"), "amount".into())],
            group_by: vec![Expr::col(2, "amount")],
            aggregates: vec![AggItem {
                func: AggFunc::CountStar,
                input: None,
                output_name: "cnt".into(),
            }],
            ..Default::default()
        };
        let planned = plan(&catalog(), &q, None, &ExecOptions::serial()).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("GroupByHash"), "{text}");
    }

    #[test]
    fn node_down_replan_fails_without_live_projection() {
        let live: HashSet<String> = HashSet::from(["dim_super".to_string()]);
        let err = plan(
            &catalog(),
            &join_query(),
            Some(&live),
            &ExecOptions::serial(),
        );
        assert!(matches!(err, Err(DbError::Plan(_))));
    }

    #[test]
    fn buddy_projection_used_when_primary_down() {
        let mut cat = catalog();
        // Add a buddy projection of fact with a different sort order.
        let fact = cat.tables.get_mut("fact").unwrap();
        let buddy_def = ProjectionDef::super_projection(&fact.schema, "fact_b1", &[0], &[0]);
        fact.projections.push(ProjectionMeta::from_sample(
            buddy_def,
            100_000,
            vec![80_000, 40_000, 120_000, 20_000, 10_000],
            &sample_rows(1000, 4),
        ));
        let live: HashSet<String> = HashSet::from(["dim_super".to_string(), "fact_b1".to_string()]);
        let planned = plan(&cat, &join_query(), Some(&live), &ExecOptions::serial()).unwrap();
        assert!(planned.table_access.iter().any(|(p, _)| p == "fact_b1"));
    }

    #[test]
    fn segmented_dim_without_colocation_is_broadcast() {
        let mut cat = catalog();
        // Make dim segmented on name_code (not the join key).
        let dim = cat.tables.get_mut("dim").unwrap();
        dim.projections[0].def.segmentation = Segmentation::hash_of(&[(1, "name_code")]);
        let planned = plan(&cat, &join_query(), None, &ExecOptions::serial()).unwrap();
        let dim_access = planned
            .table_access
            .iter()
            .find(|(p, _)| p == "dim_super")
            .unwrap();
        assert_eq!(dim_access.1, TableAccess::Broadcast);
    }

    #[test]
    fn dim_resegments_when_fact_is_segmented_on_join_keys() {
        let mut cat = catalog();
        // dim segmented on name_code (not the join key) but fact segmented
        // on dim_id (exactly its join key): dim rows can be re-routed by
        // hash(dim.id) to land next to their matching fact rows.
        let dim = cat.tables.get_mut("dim").unwrap();
        dim.projections[0].def.segmentation = Segmentation::hash_of(&[(1, "name_code")]);
        let fact = cat.tables.get_mut("fact").unwrap();
        fact.projections[0].def.segmentation = Segmentation::hash_of(&[(1, "dim_id")]);
        let planned = plan(&cat, &join_query(), None, &ExecOptions::serial()).unwrap();
        let dim_access = planned
            .table_access
            .iter()
            .find(|(p, _)| p == "dim_super")
            .unwrap();
        assert_eq!(
            dim_access.1,
            TableAccess::Resegment { keys: vec![0] },
            "dim join key is table column 0 (id)"
        );
        // Outer joins must not resegment: unmatched dim rows would emit on
        // one node only by luck of routing — keep the conservative broadcast.
        let mut q = join_query();
        q.joins[0].join_type = JoinType::LeftOuter;
        let planned = plan(&cat, &q, None, &ExecOptions::serial()).unwrap();
        let dim_access = planned
            .table_access
            .iter()
            .find(|(p, _)| p == "dim_super")
            .unwrap();
        assert_eq!(dim_access.1, TableAccess::Broadcast);
    }

    #[test]
    fn colocated_dim_stays_local() {
        let mut cat = catalog();
        // dim segmented on its join key AND fact segmented on its join key.
        let dim = cat.tables.get_mut("dim").unwrap();
        dim.projections[0].def.segmentation = Segmentation::hash_of(&[(0, "id")]);
        let fact = cat.tables.get_mut("fact").unwrap();
        fact.projections[0].def.segmentation = Segmentation::hash_of(&[(1, "dim_id")]);
        let planned = plan(&cat, &join_query(), None, &ExecOptions::serial()).unwrap();
        assert!(planned
            .table_access
            .iter()
            .all(|(_, a)| *a == TableAccess::Local));
    }

    #[test]
    fn partition_predicate_derived_from_monotone_filter() {
        let part = Expr::call(Func::YearMonth, vec![Expr::col(3, "ts")]);
        let mar1 = vdb_types::date::timestamp_from_civil(2012, 3, 1, 0, 0, 0);
        let may31 = vdb_types::date::timestamp_from_civil(2012, 5, 31, 0, 0, 0);
        let filter = Expr::and(
            Expr::binary(
                BinOp::Ge,
                Expr::col(3, "ts"),
                Expr::lit(Value::Timestamp(mar1)),
            ),
            Expr::binary(
                BinOp::Le,
                Expr::col(3, "ts"),
                Expr::lit(Value::Timestamp(may31)),
            ),
        );
        let pred = derive_partition_predicate(Some(&part), Some(&filter)).unwrap();
        // Key 201202 excluded, 201204 included, 201206 excluded.
        assert!(!pred.matches(&[Value::Integer(201_202)]).unwrap());
        assert!(pred.matches(&[Value::Integer(201_204)]).unwrap());
        assert!(!pred.matches(&[Value::Integer(201_206)]).unwrap());
    }

    /// The unsorted single-table GROUP BY from `unsorted_groupby_uses_hash`.
    fn hash_groupby_query() -> BoundQuery {
        BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![None],
            select: vec![(Expr::col(2, "amount"), "amount".into())],
            group_by: vec![Expr::col(2, "amount")],
            aggregates: vec![AggItem {
                func: AggFunc::CountStar,
                input: None,
                output_name: "cnt".into(),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn multi_morsel_groupby_parallelizes() {
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let planned = plan(
            &cat,
            &hash_groupby_query(),
            None,
            &ExecOptions::with_threads(4),
        )
        .unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("ParallelScan fact_super"), "{text}");
        assert!(text.contains("4 threads, partial GroupBy"), "{text}");
        assert!(text.contains("merge barrier"), "{text}");
    }

    #[test]
    fn dop_clamps_to_morsel_count() {
        // Two block-range morsels — say one 20k-row container, or one
        // small container and a WOS tail — bound the plan at two workers.
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 2;
        let planned = plan(
            &cat,
            &hash_groupby_query(),
            None,
            &ExecOptions::with_threads(16),
        )
        .unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("2 threads"), "{text}");
    }

    #[test]
    fn single_morsel_projection_stays_serial() {
        // from_sample defaults to one morsel: nothing to parallelize over.
        let planned = plan(
            &catalog(),
            &hash_groupby_query(),
            None,
            &ExecOptions::with_threads(8),
        )
        .unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(!text.contains("ParallelScan"), "{text}");
        assert!(text.contains("GroupByHash"), "{text}");
    }

    /// `GROUP BY ts` on `fact` (sorted by `ts` first) with `agg`.
    fn sorted_groupby_query(func: AggFunc, input: Option<Expr>) -> BoundQuery {
        BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![None],
            select: vec![(Expr::col(3, "ts"), "ts".into())],
            group_by: vec![Expr::col(3, "ts")],
            aggregates: vec![AggItem {
                func,
                input,
                output_name: "agg".into(),
            }],
            ..Default::default()
        }
    }

    #[test]
    fn sorted_groupby_streams_inside_morsel_workers() {
        // GROUP BY ts rides the projection sort order: the strategy stays
        // streaming, and with workers to use it runs per morsel inside
        // them, merged at a morsel-ordered streaming barrier.
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let q = sorted_groupby_query(AggFunc::CountStar, None);
        let planned = plan(&cat, &q, None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("ParallelScan"), "{text}");
        assert!(
            text.contains("4 threads, partial GroupBy keys=[0] (sorted input), merge barrier]"),
            "{text}"
        );
        assert!(!text.contains("GroupByPipelined"), "{text}");
        // An unsorted group-by over the same scan is not marked sorted.
        let planned = plan(
            &cat,
            &hash_groupby_query(),
            None,
            &ExecOptions::with_threads(4),
        )
        .unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("partial GroupBy"), "{text}");
        assert!(!text.contains("(sorted input)"), "{text}");
        // Serial options (or a one-morsel projection) keep the operator.
        for (cat, exec) in [
            (&cat, ExecOptions::serial()),
            (&catalog(), ExecOptions::with_threads(4)),
        ] {
            let text = vdb_exec::plan::explain(&plan(cat, &q, None, &exec).unwrap().local);
            assert!(text.contains("GroupByPipelined"), "{text}");
            assert!(!text.contains("ParallelScan"), "{text}");
        }
    }

    #[test]
    fn count_distinct_over_a_sorted_key_is_not_staged_in_workers() {
        // Not decomposable into partials: no group-by stage, sorted or not
        // (the raw grouped rows ship to the initiator, as at threads = 1).
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let q = sorted_groupby_query(AggFunc::CountDistinct, Some(Expr::col(2, "amount")));
        let planned = plan(&cat, &q, None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(!text.contains("partial GroupBy"), "{text}");
        assert!(!text.contains("GroupByPipelined"), "{text}");
    }

    #[test]
    fn plain_select_parallelizes_the_scan_collect() {
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let q = BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![Some(Expr::binary(
                BinOp::Gt,
                Expr::col(2, "amount"),
                Expr::int(50),
            ))],
            select: vec![(Expr::col(0, "id"), "id".into())],
            ..Default::default()
        };
        let planned = plan(&cat, &q, None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("ParallelScan fact_super"), "{text}");
        assert!(text.contains("[morsels -> 4 threads]"), "{text}");
        assert!(text.contains("filter=((amount > 50))"), "{text}");
    }

    #[test]
    fn limit_bounded_scan_stays_serial() {
        // LIMIT without ORDER BY applies locally; a parallel collect would
        // scan everything before limiting, so the planner keeps it serial.
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let q = BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![None],
            select: vec![(Expr::col(0, "id"), "id".into())],
            limit: Some(5),
            ..Default::default()
        };
        let planned = plan(&cat, &q, None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(!text.contains("ParallelScan"), "{text}");
        assert!(text.contains("Limit 5"), "{text}");
    }

    #[test]
    fn multi_morsel_star_join_parallelizes_with_sip() {
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        cat.tables.get_mut("dim").unwrap().projections[0].scan_morsels = 3;
        let planned = plan(&cat, &join_query(), None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("ParallelHashJoin INNER"), "{text}");
        assert!(text.contains("probe: 4 workers"), "{text}");
        assert!(text.contains("build: 3 workers"), "{text}");
        assert!(text.contains("[builds SIP]"), "{text}");
        // The probe-side fact scan still consumes the SIP filter.
        assert!(text.contains("Scan fact_super"), "{text}");
        assert!(text.contains("[SIP x1]"), "{text}");
        // The group-by above the join runs in the join's probe workers:
        // the stage sits on the join line and no serial GroupByHash pulls
        // the joined rows through one thread.
        assert!(
            text.contains("[partial group-by in probe workers"),
            "{text}"
        );
        assert!(!text.contains("GroupByHash"), "{text}");
    }

    #[test]
    fn count_distinct_over_a_parallel_join_is_not_staged() {
        // A non-decomposable aggregate ships raw rows to the initiator
        // (no local group-by), so the join keeps emitting joined rows.
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let mut q = join_query();
        q.aggregates[0] = AggItem {
            func: AggFunc::CountDistinct,
            input: Some(Expr::col(2, "amount")),
            output_name: "d".into(),
        };
        let planned = plan(&cat, &q, None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(text.contains("ParallelHashJoin INNER"), "{text}");
        assert!(!text.contains("in probe workers"), "{text}");
    }

    #[test]
    fn single_morsel_fact_join_stays_serial() {
        // Default catalog: one morsel per projection → nothing to pull in
        // parallel, the serial hash join remains.
        let planned = plan(
            &catalog(),
            &join_query(),
            None,
            &ExecOptions::with_threads(8),
        )
        .unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(!text.contains("ParallelHashJoin"), "{text}");
        assert!(text.contains("HashJoin INNER"), "{text}");
    }

    #[test]
    fn right_outer_join_stays_serial() {
        let mut cat = catalog();
        cat.tables.get_mut("fact").unwrap().projections[0].scan_morsels = 8;
        let mut q = join_query();
        // fact RIGHT OUTER JOIN dim: needs build-side matched flags. Drop
        // the fact filter so the outer→inner rewrite cannot simplify it.
        q.joins[0].join_type = JoinType::RightOuter;
        q.table_filters[0] = None;
        let planned = plan(&cat, &q, None, &ExecOptions::with_threads(4)).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(!text.contains("ParallelHashJoin"), "{text}");
        assert!(text.contains("HashJoin RIGHT OUTER"), "{text}");
    }

    #[test]
    fn count_distinct_ships_raw_rows() {
        let q = BoundQuery {
            tables: vec![QueryTable {
                table: "fact".into(),
                alias: "f".into(),
            }],
            table_filters: vec![None],
            select: vec![(Expr::col(3, "ts"), "ts".into())],
            group_by: vec![Expr::col(3, "ts")],
            aggregates: vec![AggItem {
                func: AggFunc::CountDistinct,
                input: Some(Expr::col(1, "dim_id")),
                output_name: "d".into(),
            }],
            ..Default::default()
        };
        let planned = plan(&catalog(), &q, None, &ExecOptions::serial()).unwrap();
        let text = vdb_exec::plan::explain(&planned.local);
        assert!(
            !text.contains("GroupBy"),
            "local side must not pre-aggregate COUNT DISTINCT: {text}"
        );
        match planned.merge {
            MergeSpec::ReAggregate { merge_aggs, .. } => {
                assert_eq!(merge_aggs[0].func, AggFunc::CountDistinct);
            }
            _ => panic!("expected re-aggregation"),
        }
    }
}
