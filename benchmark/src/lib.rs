//! The repository's benchmark: four closed-loop workloads over durable
//! engines, eight end-to-end metrics each, and a traced run that times the
//! calls into each crate's public functions. See `README.md`.

pub mod aa;
pub mod gen;
pub mod host;
pub mod json;
pub mod layers;
pub mod ops;
pub mod runner;
pub mod spec;
pub mod trace;
pub mod workloads;
