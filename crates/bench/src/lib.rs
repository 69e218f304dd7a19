//! Experiment harness for the fault sneaking attack reproduction.
//!
//! [`exp`] declares each paper table and figure as a grid and runs it
//! through one runner; [`artifacts`] builds and caches the victims
//! (data → conv features → trained FC head); [`report`] prints a grid.
//! The `paper` bin prints the tables and `tests/paper.rs` (optimized
//! builds only) asserts the paper's claims on the same values.
//! `tests/claims.rs` asserts the extension claims on the small victims
//! of [`fixture`]; [`timing`] is the harness of `benches/`. End-to-end
//! measurements belong to the repository benchmark in `benchmark/`; the
//! telemetry overhead gate is the `profile` bin.
//!
//! Run, from the workspace root:
//!
//! ```text
//! cargo run --release -p fsa-bench --bin paper [table ...]
//! cargo test --release -p fsa-bench --test paper
//! cargo run --release -p fsa-bench --bin profile
//! ```
//!
//! Table names, in paper order: `table1`, `table2`, `table3`, `fig1`,
//! `fig2`, `table4`, `baseline_cmp`, `fig3`, `ablation`, `fault_plan`;
//! none prints all. The first run builds `artifacts/{digits,objects}.bin`
//! (about 10 s each on a 2-core host); later runs load them in
//! milliseconds.

#![warn(missing_docs)]

pub mod artifacts;
pub mod exp;
pub mod fixture;
pub mod report;
pub mod timing;

pub use artifacts::{Artifacts, Kind};
