//! Workload generators and fixtures for the paper-claim suite
//! (`tests/paper_claims.rs`), each beside the unit tests that check its
//! representations agree.

pub mod cluster;
pub mod cstore7;
pub mod exec_compressed;
pub mod exec_expr;
pub mod exec_parallel;
pub mod exec_parallel_join;
pub mod exec_vector;
pub mod meter;
pub mod random_ints;
pub mod serve;
