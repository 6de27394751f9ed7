//! The oocp reproduction's benchmark: end-to-end host and simulated
//! metrics for three workloads, and a traced run that splits host time
//! by layer from outside the program. See `README.md` in this
//! directory.

pub mod bench7;
pub mod catalog;
pub mod cells;
pub mod host;
pub mod hub;
pub mod run;
pub mod traced;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 35;
