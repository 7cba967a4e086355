//! `vdb-storage` — the physical storage layer (§3 and §4 of the paper).
//!
//! Table data is physically organized into **projections**: sorted subsets
//! of a table's attributes ([`projection`]). Each projection's data lives in
//! immutable **ROS containers** ([`ros`]) — a pair of files per column
//! (data plus position index) on a [`backend`] — plus an in-memory, unsorted,
//! unencoded **WOS** ([`wos`]) that buffers trickle loads. Deletes never
//! modify storage: they append to **delete vectors** ([`delete_vector`]).
//! The **tuple mover** ([`tuple_mover`]) runs moveout (WOS→ROS) and
//! strata-based mergeout, preserving `PARTITION BY` ([`partition`]) and
//! local-segment boundaries. What the planner needs to know about a
//! container is summarized once, beside it ([`container_stats`]). A node's
//! projections are collected in a [`engine::StorageEngine`].
//!
//! Durability (§5.1): the volatile WOS is backed by a per-projection
//! **redo log** ([`redo`]), the live container set by a per-projection
//! manifest committed with whole-file writes, and crash windows are
//! testable through deterministic **fault injection** ([`fault`]).

#![deny(rustdoc::broken_intra_doc_links)]

pub mod backend;
pub mod columnar;
pub mod container_stats;
pub mod delete_vector;
pub mod engine;
pub mod fault;
pub mod layout;
pub mod partition;
pub mod projection;
pub mod redo;
pub mod ros;
pub mod store;
pub mod tuple_mover;
pub mod wos;

pub use backend::{CountingBackend, FsBackend, IoCall, IoOp, MemBackend, StorageBackend};
pub use columnar::{ChunkView, WriteChunk};
pub use container_stats::{ColumnSummary, ContainerStats, STATS_SAMPLE_ROWS};
pub use delete_vector::DeleteVector;
pub use engine::StorageEngine;
pub use projection::{ProjectionDef, Segmentation};
pub use redo::{RedoLog, RedoRecord};
pub use ros::{ColumnChunk, ContainerId, RosContainer};
pub use store::{ContainerPin, ProjectionStore, RowLocation, SnapshotScan};
pub use tuple_mover::{TupleMover, TupleMoverConfig};
