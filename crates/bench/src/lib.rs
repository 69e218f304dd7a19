//! Experiment harness for the fault sneaking attack reproduction.
//!
//! One binary per paper table/figure lives in `src/bin/`; they share the
//! [`artifacts`] pipeline (synthesize data → extract conv features → train
//! the FC head → cache everything on disk) and the [`report`] table
//! printers. Micro-benchmarks live in `benches/` on the in-repo [`timing`]
//! harness (`cargo bench -p fsa-bench`). End-to-end and per-layer
//! measurements belong to the repository benchmark in `benchmark/`; the
//! claims the victims of [`fixture`] must keep are tests in `tests/`
//! (`cargo test -p fsa-bench`), except the telemetry overhead gate,
//! which the `profile` bin runs on the optimized build.
//!
//! Run, from the workspace root:
//!
//! ```text
//! cargo run --release -p fsa-bench --bin table1
//! cargo run --release -p fsa-bench --bin table2
//! cargo run --release -p fsa-bench --bin table3
//! cargo run --release -p fsa-bench --bin table4
//! cargo run --release -p fsa-bench --bin fig1
//! cargo run --release -p fsa-bench --bin fig2
//! cargo run --release -p fsa-bench --bin fig3
//! cargo run --release -p fsa-bench --bin ablation
//! cargo run --release -p fsa-bench --bin baseline_cmp
//! cargo run --release -p fsa-bench --bin fault_plan
//! cargo run --release -p fsa-bench --bin profile
//! ```
//!
//! The first run builds `artifacts/{digits,objects}.bin` (a couple of
//! minutes); later runs load them in milliseconds.

#![warn(missing_docs)]

pub mod artifacts;
pub mod exp;
pub mod fixture;
pub mod report;
pub mod timing;

pub use artifacts::{Artifacts, Kind};
