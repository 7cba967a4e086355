//! Integration test package (suites live in `tests/`), plus what they
//! share: the trickle-load [`torture`] harness (also driven by the
//! fault-tolerance example), the [`cstore`] baseline of Table 3, and the
//! [`workloads`] the paper-claim suite measures, with quick-scale [`repro`]
//! checks of the evaluation tables.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod cstore;
pub mod repro;
pub mod torture;
pub mod workloads;
