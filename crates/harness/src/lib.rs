//! Fault-tolerant sharded campaign executor.
//!
//! The campaign engine (`fsa_attack::campaign`) is bit-deterministic
//! across thread counts *inside* one process; this crate extends the
//! same guarantee across process boundaries, and then — the part that
//! makes a process fleet usable — **under faults**. A
//! [`ShardedCampaign`] shards the scenario
//! matrix across worker processes (the host binary re-spawned in a
//! hidden `--worker` mode), ships each shard as a checksummed
//! [`wire`](fsa_attack::campaign::wire) job frame, and merges the
//! returned [`ScenarioOutcome`](fsa_attack::campaign::ScenarioOutcome)
//! frames in documented scenario order, so the merged
//! [`CampaignReport`](fsa_attack::campaign::CampaignReport) fingerprint
//! equals the single-process one.
//!
//! Robustness is the design center, not an afterthought:
//!
//! * a [`supervisor`] wraps every shard in a per-attempt deadline and a
//!   heartbeat window, and classifies failures as **crash** (non-zero
//!   exit, reset link), **hang** (deadline or heartbeat-window expiry →
//!   kill), or **corrupt frame** (checksum/decode/registration failure
//!   on a clean exit);
//! * retries follow a bounded exponential-backoff schedule with seeded
//!   jitter (in-repo [`fsa_tensor::Prng`]) — the schedule is a pure
//!   function of `(seed, shard, attempt)`, so tests can assert it;
//! * a shard that exhausts its retries is re-run **in process** over
//!   the exact same `Campaign::run_indices` code path, so the campaign
//!   always completes with a full report — degraded means slower, never
//!   different bits;
//! * every fault handled is recorded in a structured
//!   [`ExecutionLog`].
//!
//! The worker link is a pluggable [`transport`]: the default
//! [`PipeTransport`] is a stdin/stdout pipe pair, and
//! [`SocketTransport`] a loopback TCP connection the worker makes back
//! to a supervisor listener. Both carry one protocol through one
//! attempt loop: the worker registers with a versioned hello frame
//! (worker id, protocol version, capability word), receives its job,
//! and streams outcomes while a dedicated thread beats a heartbeat, so
//! a silent link is declared dead (**hang**) without waiting out the
//! full deadline. The merged report stays bit-identical by construction
//! whichever link carried each shard.
//!
//! The [`injector`] drives the proof: deterministic, env-gated fault
//! directives (kill-after-N-scenarios, stall past the deadline,
//! truncate, bit-flip, duplicate, or reorder result frames — the flip
//! routed through [`fsa_memfault::bits`] — partition the link, or pace
//! it past the heartbeat window) that the test battery
//! (`tests/supervision.rs`) uses to show the merged report is
//! bit-identical under every injected failure mode, on either link.

#![warn(missing_docs)]

pub mod injector;
pub mod proto;
pub mod supervisor;
pub mod transport;
pub mod worker;

pub use injector::{FaultDirective, FaultPlanner};
pub use supervisor::{ExecutionLog, ExecutorConfig, FaultKind, ShardedCampaign, ShardedRun};
pub use transport::{
    HeartbeatMonitor, PipeTransport, SocketConfig, SocketTransport, Transport, WorkerLink,
};
