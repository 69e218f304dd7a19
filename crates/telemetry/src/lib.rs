//! Deterministic-safe observability for the fault-sneaking workspace.
//!
//! This crate is the measurement substrate under every other layer:
//! hierarchical [spans](span) with monotonic timing, [counters](counter),
//! and per-iteration ADMM [convergence traces](convergence_trace). A
//! drained [`Snapshot`] also has room for fixed-boundary [`Histogram`]s
//! and structured [`Event`]s, which only readers that merge snapshots
//! fill: the library records neither. It is std-only and has no
//! dependencies, so it can sit below `fsa-tensor` without disturbing
//! the workspace's zero-external-deps constraint.
//!
//! # Identity-only contract
//!
//! Telemetry observes; it never participates in results:
//!
//! - **Off by default, near-zero cost.** Every recording entry point is
//!   gated on one relaxed atomic load ([`enabled`]); until
//!   [`set_enabled`]`(true)` is called nothing allocates and nothing is
//!   written.
//! - **Never perturbs results.** Recording goes to per-thread buffers
//!   (no locks in steady state) that fold into a global sink when a
//!   worker closure ends ([`flush_thread`]) or, as a backstop, when the
//!   thread exits; the instrumented code paths compute exactly the same
//!   values with telemetry on or off, at any `FSA_THREADS`. The
//!   workspace enforces this with fingerprint-identity tests.
//! - **No timing value ever enters a fingerprint or golden file.**
//!   Durations exist only in drained snapshots and trace artifacts.
//!
//! # Example
//!
//! ```
//! fsa_telemetry::set_enabled(true);
//! {
//!     let _outer = fsa_telemetry::span("demo");
//!     let _inner = fsa_telemetry::span("step");
//!     fsa_telemetry::counter("demo.items", 3);
//! }
//! let snap = fsa_telemetry::drain();
//! assert!(snap.spans.iter().any(|(path, _)| path == "demo/step"));
//! assert_eq!(snap.counters, vec![("demo.items".to_string(), 3)]);
//! fsa_telemetry::set_enabled(false);
//! ```
//!
//! Snapshots export to JSON with [`Snapshot::to_json`] (written through
//! the in-repo io layer by callers) and render as a text profile tree
//! with [`Snapshot::render_tree`].

#![warn(missing_docs)]

pub mod clock;
mod metrics;
mod record;
mod snapshot;

pub use metrics::{ConvergenceRecord, ConvergenceTrace, Event, Histogram, SpanStat, Value};
pub use record::{
    convergence_trace, counter, current_path, drain, enabled, flush_thread, set_enabled, span,
    with_path, Span,
};
pub use snapshot::{json_string, Snapshot};
