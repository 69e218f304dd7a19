//! Experiment harness for the fault sneaking attack reproduction.
//!
//! One binary per paper table/figure lives in `src/bin/`; they share the
//! [`artifacts`] pipeline (synthesize data → extract conv features → train
//! the FC head → cache everything on disk) and the [`report`] table
//! printers. Micro-benchmarks live in `benches/` on the in-repo [`timing`]
//! harness (`cargo bench -p fsa-bench`); `cargo run --release -p
//! fsa-bench --bin perf` additionally writes the machine-readable
//! `BENCH_PR1.json` perf artifact.
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
//! cargo run --release -p fsa-bench --bin baseline_cmp
//! cargo run --release -p fsa-bench --bin fault_plan
//! cargo run --release -p fsa-bench --bin campaign
//! ```
//!
//! `campaign` runs the concurrent attack-campaign sweep (shared feature
//! cache, serial-vs-concurrent bit-identity checks) and writes
//! `BENCH_PR3.json`; pass `--smoke` for the fast CI variant.
//!
//! The first run builds `artifacts/{digits,objects}.bin` (a couple of
//! minutes); later runs load them in milliseconds.

#![warn(missing_docs)]

pub mod artifacts;
pub mod baseline;
pub mod exp;
pub mod fixture;
pub mod report;
pub mod timing;
pub mod trace;

pub use artifacts::{Artifacts, Kind};
