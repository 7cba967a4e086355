//! `vdb-exec` — the Vertica Execution Engine (§6.1 of the paper).
//!
//! A multi-threaded, pipelined, vectorized **pull-model** engine: operators
//! implement [`operator::Operator::next_batch`] and request blocks of rows
//! from upstream. The operator set matches §6.1's enumeration:
//!
//! | Paper operator | Module |
//! |---|---|
//! | Scan (predicate pushdown, SMA/partition/block pruning, SIP) | [`scan`] |
//! | GroupBy (hash, pipelined one-pass) | [`groupby`] |
//! | Join (hash + merge, externalizing, all flavors, SIP build) | [`join`] |
//! | ExprEval (vectorized expression engine + Filter/Project) | [`expr_vec`], [`filter`] |
//! | Sort (externalizing) + Limit | [`sort`] |
//! | Analytic (SQL-99 windowed aggregates) | [`analytic`] |
//! | Send (segment-aware routing) / StorageUnion | [`exchange`] |
//! | ParallelUnion: morsel-driven parallel scan/aggregate/sort over ROS containers | [`parallel`] |
//! | Morsel-parallel partitioned hash join (typed probe, SIP at barrier) | [`parallel_join`] |
//!
//! Operators run "directly on encoded data" (§6.1): the scan decodes
//! storage blocks into [`vector::TypedVector`]s (native buffers + validity
//! bitmaps, dictionary-coded strings) and [`vector::RleVector`]s
//! (unexpanded runs); filters, SIP and delete-vector visibility mark
//! survivors in a [`vector::SelectionVector`] instead of materializing;
//! scalar expressions evaluate through the vectorized engine
//! ([`expr_vec`]: native kernels, constant folding, per-run and
//! per-dictionary-code short-circuits, CASE/boolean logic via domain
//! combination); joins probe keys through column accessors and gather
//! their output columns; and aggregation consumes runs and native buffers
//! without per-row `Value` construction. The row pivot
//! ([`batch::Batch::rows`] / [`batch::Batch::into_rows`]) happens at the
//! end of a finished pipeline ([`operator::collect_rows`], the `Database`
//! result facade) — a typed scan→filter→project→group-by plan performs
//! zero pivots, observable via [`batch::row_pivot_count`]. Every stateful
//! operator takes a [`memory::MemoryBudget`] and spills to the storage
//! backend when it is exceeded (§6.1: "all operators are capable of
//! handling arbitrary sized inputs ... by externalizing their buffers to
//! disk").

#![deny(rustdoc::broken_intra_doc_links)]

pub mod aggregate;
pub mod analytic;
pub mod batch;
pub mod exchange;
pub mod expr_vec;
pub mod filter;
pub mod groupby;
pub mod join;
pub mod memory;
pub mod operator;
pub mod parallel;
pub mod parallel_join;
pub mod plan;
pub mod pool;
pub mod scan;
pub mod sip;
pub mod sort;
pub mod vector;

pub use aggregate::{AggCall, AggFunc};
pub use batch::{row_pivot_count, Batch, ColumnSlice};
pub use expr_vec::VectorizedExpr;
pub use memory::MemoryBudget;
pub use operator::{collect_rows, BoxedOperator, Operator};
pub use parallel::{ExecOptions, ParallelStage};
pub use parallel_join::{ParallelHashJoinOp, ParallelJoinSpec};
pub use plan::{build_operator, ExecContext, JoinType, PhysicalPlan};
pub use sip::SipFilter;
pub use vector::{Bitmap, RleVector, SelectionVector, TypedVector, VectorData};
