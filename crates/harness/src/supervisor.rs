//! The supervisor: shard, spawn, watch, retry, degrade, merge.
//!
//! [`ShardedCampaign::run`] splits a campaign's scenario matrix into
//! contiguous shards ([`fsa_tensor::parallel::split_ranges`], so the
//! shard→scenario mapping is documented and order-preserving), spawns
//! one worker process per shard, and supervises each one:
//!
//! * **deadline and heartbeats** — an attempt that outlives
//!   [`ExecutorConfig::deadline`], or whose link goes silent for longer
//!   than the transport's heartbeat window, is killed and classified as
//!   a [`FaultKind::Hang`];
//! * **exit status** — a non-zero exit is a [`FaultKind::Crash`];
//! * **stream integrity** — a clean exit whose output fails frame
//!   decoding, checksum verification, or index/count validation is a
//!   [`FaultKind::CorruptFrame`];
//! * **retry** — failed attempts are retried up to
//!   [`ExecutorConfig::max_retries`] times, sleeping
//!   [`backoff_ms`] (exponential base + seeded jitter, a pure function
//!   of `(seed, shard, attempt)`) between attempts;
//! * **degrade** — a shard that exhausts its retries is re-run in
//!   process over the exact same `Campaign::run_indices` path, so the
//!   campaign always completes and the merged report is bit-identical
//!   no matter which recovery path produced each shard.
//!
//! The worker link itself is pluggable ([`ExecutorConfig::transport`]):
//! the default [`PipeTransport`] talks over a stdin/stdout pipe pair,
//! and [`crate::transport::SocketTransport`] over a loopback TCP
//! connection. Both carry the same protocol — registration, job,
//! outcomes with heartbeats, END — through one attempt loop, so
//! failures classify into the same [`FaultKind`]s feeding the same
//! policy above, and the transport never changes the merged bits.
//!
//! Because shards are contiguous index ranges and outcomes are merged
//! in shard order, the merged outcome vector is in scenario order by
//! construction — the same order `Campaign::run_method` produces — and
//! the merged [`CampaignReport`]'s FNV fingerprint equals the
//! single-process one.
//!
//! Every handled fault and every shard's resolution land in the run's
//! [`ExecutionLog`], the one record of what the supervisor did. With
//! telemetry on, the merge adds the log's totals to the `harness.*`
//! counters (`harness.faults.<kind>`, `harness.attempts`,
//! `harness.degraded`, …); telemetry keeps no copy of the faults.

use crate::injector::FaultPlanner;
use crate::proto::ShardJob;
use crate::transport::{run_attempt, AttemptContext, AttemptStats, PipeTransport, Transport};
use crate::worker::WORKER_FLAG;
use fsa_attack::campaign::{CampaignReport, CampaignSpec, ScenarioOutcome};
use fsa_attack::{Campaign, ParamSelection};
use fsa_nn::feature_cache::FeatureCache;
use fsa_nn::head::FcHead;
use fsa_tensor::parallel::split_ranges;
use fsa_tensor::Prng;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// How a failed worker attempt was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker exited with a non-zero status (or was signal-killed
    /// by something other than the supervisor's deadline).
    Crash,
    /// The worker outlived the per-attempt deadline, or its link went
    /// silent past the heartbeat window, and it was killed.
    Hang,
    /// The worker exited cleanly but its result stream failed
    /// validation (checksum mismatch, truncated frame, wrong indices).
    CorruptFrame,
    /// The worker could not be spawned or its link could not be
    /// established (host-level failure, not worker behaviour).
    Spawn,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::Crash => "crash",
            FaultKind::Hang => "hang",
            FaultKind::CorruptFrame => "corrupt-frame",
            FaultKind::Spawn => "spawn",
        })
    }
}

/// One handled fault: which shard, which attempt, what happened, and
/// how long the supervisor backed off before the next attempt (`None`
/// when retries were already exhausted).
///
/// Its position in [`ExecutionLog::events`] is its sequence number:
/// the log lists faults in `(shard, attempt)` order on every same-seed
/// run, whichever supervision thread finished first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Shard index.
    pub shard: usize,
    /// Attempt number (0-based) that failed.
    pub attempt: u32,
    /// Fault classification.
    pub kind: FaultKind,
    /// Human-readable detail (exit code, decode error, …).
    pub detail: String,
    /// Backoff slept before the next attempt, if one followed.
    pub backoff_ms: Option<u64>,
}

/// How a shard ultimately produced its outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardResolution {
    /// A worker process completed the shard.
    Clean {
        /// Shard index.
        shard: usize,
        /// Total spawn attempts it took (1 = first try).
        attempts: u32,
    },
    /// Every attempt failed; the shard was re-run in process.
    Degraded {
        /// Shard index.
        shard: usize,
    },
}

impl ShardResolution {
    /// The shard this resolution belongs to.
    pub fn shard(&self) -> usize {
        match self {
            ShardResolution::Clean { shard, .. } | ShardResolution::Degraded { shard } => *shard,
        }
    }
}

/// Structured record of everything the supervisor handled during one
/// sharded run: every fault, every backoff, and how each shard was
/// finally resolved. It is the only record of a handled fault; with
/// telemetry on, the run adds its totals to the `harness.*` counters.
#[derive(Debug, Clone, Default)]
pub struct ExecutionLog {
    /// Every classified fault, in `(shard, attempt)` order.
    pub events: Vec<FaultEvent>,
    /// One resolution per shard, in shard order.
    pub resolutions: Vec<ShardResolution>,
    /// Heartbeat frames received across all attempts. The count
    /// depends on wall-clock timing, so it is excluded from equality —
    /// see the `PartialEq` impl.
    pub heartbeats: u64,
    /// Worker registrations accepted (valid hello frames). Excluded
    /// from equality alongside `heartbeats`: liveness bookkeeping, not
    /// result bits.
    pub registrations: u64,
}

// Manual equality: determinism tests compare whole logs across
// same-seed runs, and the liveness counters (how many heartbeats fit in
// a wall-clock window, whether a worker registered before an injected
// fault felled it) are the fields that legitimately differ between them.
impl PartialEq for ExecutionLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events && self.resolutions == other.resolutions
    }
}

impl Eq for ExecutionLog {}

impl ExecutionLog {
    /// Number of recorded faults of `kind`.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Number of shards that fell back to the in-process path.
    pub fn degraded(&self) -> usize {
        self.resolutions
            .iter()
            .filter(|r| matches!(r, ShardResolution::Degraded { .. }))
            .count()
    }

    /// Total worker spawn attempts across all shards (degraded shards
    /// contribute their failed attempts).
    pub fn total_attempts(&self) -> usize {
        self.resolutions
            .iter()
            .map(|r| match r {
                ShardResolution::Clean { attempts, .. } => *attempts as usize,
                ShardResolution::Degraded { shard } => {
                    self.events.iter().filter(|e| e.shard == *shard).count()
                }
            })
            .sum()
    }

    /// One-line summary for logs and bench output.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} shards, {} faults (crash {}, hang {}, corrupt {}, spawn {}), {} degraded",
            self.resolutions.len(),
            self.events.len(),
            self.count(FaultKind::Crash),
            self.count(FaultKind::Hang),
            self.count(FaultKind::CorruptFrame),
            self.count(FaultKind::Spawn),
            self.degraded()
        );
        if self.registrations > 0 || self.heartbeats > 0 {
            s.push_str(&format!(
                ", {} registrations, {} heartbeats",
                self.registrations, self.heartbeats
            ));
        }
        s
    }

    /// Adds the log's totals to the `harness.*` telemetry counters,
    /// one `harness.faults.<kind>` per fault kind seen. No-op while
    /// telemetry is disabled.
    fn bridge_telemetry(&self) {
        if !fsa_telemetry::enabled() {
            return;
        }
        fsa_telemetry::counter("harness.shards", self.resolutions.len() as u64);
        fsa_telemetry::counter("harness.attempts", self.total_attempts() as u64);
        fsa_telemetry::counter("harness.degraded", self.degraded() as u64);
        fsa_telemetry::counter("harness.faults", self.events.len() as u64);
        fsa_telemetry::counter("harness.registrations", self.registrations);
        fsa_telemetry::counter("harness.heartbeats", self.heartbeats);
        for e in &self.events {
            fsa_telemetry::counter(&format!("harness.faults.{}", e.kind), 1);
        }
    }
}

/// Supervisor policy and worker-spawn configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Number of worker shards (clamped to the scenario count at run
    /// time; 0 is treated as 1).
    pub shards: usize,
    /// Per-attempt wall-clock deadline; an attempt still running when
    /// it expires is killed and classified as a hang (a silent link is
    /// caught sooner, by the transport's heartbeat window).
    pub deadline: Duration,
    /// Retries per shard after the first attempt (so a shard gets
    /// `max_retries + 1` spawns before degrading).
    pub max_retries: u32,
    /// Backoff base: attempt `a` sleeps `backoff_base_ms << a` plus
    /// jitter before the next spawn.
    pub backoff_base_ms: u64,
    /// Upper bound (exclusive) of the seeded jitter added to each
    /// backoff; 0 disables jitter.
    pub backoff_jitter_ms: u64,
    /// Seed for the jitter draws — the full backoff schedule is a pure
    /// function of `(retry_seed, shard, attempt)`.
    pub retry_seed: u64,
    /// Program to spawn as the worker; defaults to the current
    /// executable (the self-spawn pattern).
    pub worker_program: PathBuf,
    /// Arguments passed to the worker program; defaults to
    /// `["--worker"]`.
    pub worker_args: Vec<String>,
    /// Fault plan applied to worker spawns; `None` runs clean.
    pub planner: Option<FaultPlanner>,
    /// How jobs reach workers and results come back; defaults to
    /// [`PipeTransport`]. Shared, not cloned — transports are
    /// stateless policy objects.
    pub transport: Arc<dyn Transport>,
}

impl ExecutorConfig {
    /// Defaults for `shards` workers: 30 s deadline, 2 retries,
    /// 50 ms backoff base with 25 ms jitter, self-spawn via
    /// `current_exe`, and no fault planner.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            deadline: Duration::from_secs(30),
            max_retries: 2,
            backoff_base_ms: 50,
            backoff_jitter_ms: 25,
            retry_seed: 0x5eed_5eed,
            worker_program: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("")),
            worker_args: vec![WORKER_FLAG.to_string()],
            planner: None,
            transport: Arc::new(PipeTransport),
        }
    }

    /// Replaces the per-attempt deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replaces the retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Replaces the backoff base and jitter bound (milliseconds).
    pub fn with_backoff(mut self, base_ms: u64, jitter_ms: u64) -> Self {
        self.backoff_base_ms = base_ms;
        self.backoff_jitter_ms = jitter_ms;
        self
    }

    /// Replaces the fault planner (`None` runs clean).
    pub fn with_planner(mut self, planner: Option<FaultPlanner>) -> Self {
        self.planner = planner;
        self
    }

    /// Replaces the worker program and arguments (tests point this at
    /// a dedicated worker bin via `CARGO_BIN_EXE_*`).
    pub fn with_worker(mut self, program: PathBuf, args: Vec<String>) -> Self {
        self.worker_program = program;
        self.worker_args = args;
        self
    }

    /// Replaces the worker transport (e.g.
    /// [`crate::transport::SocketTransport`] for loopback TCP links).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
    }
}

/// The backoff (milliseconds) slept after `attempt` of `shard` fails:
/// `base << attempt` plus a jitter draw below `jitter`. Pure in all
/// arguments — tests assert the schedule, and reruns reproduce it.
pub fn backoff_ms(base: u64, jitter: u64, seed: u64, shard: usize, attempt: u32) -> u64 {
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    if jitter == 0 {
        return exp;
    }
    let mut rng = Prng::new(seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .fork(0x4a11 + attempt as u64);
    exp.saturating_add(rng.below(jitter as usize) as u64)
}

/// The result of a sharded run: the merged report plus the execution
/// log describing how it was produced.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// Merged campaign report, in scenario order — bit-identical to the
    /// single-process `Campaign::run_method` report.
    pub report: CampaignReport,
    /// Every fault handled and every shard's resolution.
    pub log: ExecutionLog,
}

/// A campaign bound to its victim, ready to be executed across worker
/// processes.
///
/// Wraps the in-process [`Campaign`]; `run` ships its inputs to each
/// worker as a [`ShardJob`] and keeps it locally for spec validation
/// and the degraded in-process fallback.
pub struct ShardedCampaign<'a> {
    campaign: Campaign<'a>,
}

impl<'a> ShardedCampaign<'a> {
    /// Binds the victim. Panics on the same invariant violations as
    /// [`Campaign::new`] (size mismatches, invalid selection) — here,
    /// rather than inside every worker.
    pub fn new(
        head: &'a FcHead,
        selection: ParamSelection,
        cache: FeatureCache,
        labels: Vec<usize>,
    ) -> Self {
        Self {
            campaign: Campaign::new(head, selection, cache, labels),
        }
    }

    /// Executes the campaign for `method_name` across
    /// [`ExecutorConfig::shards`] worker processes and merges the
    /// outcomes in scenario order.
    ///
    /// Always completes: shards whose workers exhaust their retries are
    /// re-run in process. Panics, before any worker is spawned, only if
    /// `method_name` is unknown, the spec is empty, or the spec fails
    /// [`Campaign::validate`] — a deterministic failure no retry could
    /// fix.
    pub fn run(&self, spec: &CampaignSpec, method_name: &str, cfg: &ExecutorConfig) -> ShardedRun {
        let _span = fsa_telemetry::span("sharded_campaign");
        let method = crate::worker::method_from_name(method_name)
            .unwrap_or_else(|| panic!("unknown campaign method {method_name:?}"));
        let n = spec.len();
        assert!(n > 0, "cannot shard an empty campaign spec");
        self.campaign
            .validate(spec)
            .unwrap_or_else(|e| panic!("{e}"));
        let shards = cfg.shards.clamp(1, n);
        let ranges = split_ranges(n, shards);

        // One supervision thread per shard. Worker processes do the
        // actual compute, so these threads spend their lives blocked in
        // `wait`/`sleep` — the thread count is not a scheduler concern.
        type ShardResult = (
            Vec<ScenarioOutcome>,
            Vec<FaultEvent>,
            ShardResolution,
            AttemptStats,
        );
        let mut results: Vec<Option<ShardResult>> = (0..ranges.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(ranges.len());
            for (shard, range) in ranges.iter().enumerate() {
                let indices: Vec<usize> = range.clone().collect();
                let job = ShardJob {
                    head: self.campaign.head().clone(),
                    selection: self.campaign.selection().clone(),
                    labels: self.campaign.labels().to_vec(),
                    features: self.campaign.cache().features().clone(),
                    spec: spec.clone(),
                    method: method_name.to_string(),
                    indices,
                };
                handles.push(scope.spawn(move || {
                    let out = self.supervise_shard(shard, job, spec, cfg);
                    // A degraded in-process fallback records telemetry
                    // on this thread; flush before the closure ends so
                    // the merging thread's drain is guaranteed to see
                    // it (TLS teardown may outlive the scope join).
                    fsa_telemetry::flush_thread();
                    out
                }));
            }
            for (shard, h) in handles.into_iter().enumerate() {
                results[shard] = Some(h.join().expect("shard supervision thread panicked"));
            }
        });

        let mut outcomes = Vec::with_capacity(n);
        // Shards merge in shard order and each records its faults in
        // attempt order, so the log is in (shard, attempt) order however
        // the supervision threads finished.
        let mut log = ExecutionLog::default();
        for r in results.into_iter().flatten() {
            let (mut shard_outcomes, events, resolution, stats) = r;
            outcomes.append(&mut shard_outcomes);
            log.events.extend(events);
            log.resolutions.push(resolution);
            log.heartbeats += stats.heartbeats;
            log.registrations += stats.registrations;
        }
        log.bridge_telemetry();
        debug_assert!(
            outcomes
                .windows(2)
                .all(|w| w[0].scenario.index < w[1].scenario.index),
            "merged outcomes out of scenario order"
        );
        let report = CampaignReport {
            method: method.name(),
            precision: spec.precision,
            stealth: spec.stealth,
            suite_seed: spec.suite_seed,
            outcomes,
        };
        ShardedRun { report, log }
    }

    /// Supervises one shard to completion: spawn/validate/retry until a
    /// clean worker run, or fall back in process.
    fn supervise_shard(
        &self,
        shard: usize,
        job: ShardJob,
        spec: &CampaignSpec,
        cfg: &ExecutorConfig,
    ) -> (
        Vec<ScenarioOutcome>,
        Vec<FaultEvent>,
        ShardResolution,
        AttemptStats,
    ) {
        let job_bytes = job.encode();
        let mut events = Vec::new();
        let mut stats = AttemptStats::default();
        for attempt in 0..=cfg.max_retries {
            let directive = cfg
                .planner
                .as_ref()
                .and_then(|p| p.directive(shard, attempt, cfg.deadline, job.indices.len()));
            let ctx = AttemptContext {
                shard,
                job_bytes: &job_bytes,
                indices: &job.indices,
                directive,
            };
            let (result, attempt_stats) = run_attempt(cfg.transport.as_ref(), &ctx, cfg);
            stats.heartbeats += attempt_stats.heartbeats;
            stats.registrations += attempt_stats.registrations;
            match result {
                Ok(outcomes) => {
                    return (
                        outcomes,
                        events,
                        ShardResolution::Clean {
                            shard,
                            attempts: attempt + 1,
                        },
                        stats,
                    );
                }
                Err((kind, detail)) => {
                    let backoff = (attempt < cfg.max_retries).then(|| {
                        backoff_ms(
                            cfg.backoff_base_ms,
                            cfg.backoff_jitter_ms,
                            cfg.retry_seed,
                            shard,
                            attempt,
                        )
                    });
                    events.push(FaultEvent {
                        shard,
                        attempt,
                        kind,
                        detail,
                        backoff_ms: backoff,
                    });
                    if let Some(ms) = backoff {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
        }
        // Retries exhausted: degrade to the in-process path. Same
        // Campaign::run_indices code the workers execute, so the bits
        // are identical — degraded means slower, never different.
        let method =
            crate::worker::method_from_name(&job.method).expect("method validated before sharding");
        let outcomes = self
            .campaign
            .run_indices(spec, method.as_ref(), &job.indices);
        (outcomes, events, ShardResolution::Degraded { shard }, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_runs_clean() {
        assert!(ExecutorConfig::new(2).planner.is_none());
    }

    #[test]
    fn backoff_schedule_is_pure_and_exponential() {
        for shard in 0..4 {
            for attempt in 0..5 {
                let a = backoff_ms(50, 25, 7, shard, attempt);
                let b = backoff_ms(50, 25, 7, shard, attempt);
                assert_eq!(a, b);
                let base = 50u64 << attempt;
                assert!(a >= base && a < base + 25, "attempt {attempt}: {a}");
            }
        }
        // Different seeds shift the jitter.
        assert_ne!(
            (0..8)
                .map(|s| backoff_ms(50, 25, 1, s, 1))
                .collect::<Vec<_>>(),
            (0..8)
                .map(|s| backoff_ms(50, 25, 2, s, 1))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn backoff_without_jitter_is_exact() {
        assert_eq!(backoff_ms(100, 0, 9, 3, 0), 100);
        assert_eq!(backoff_ms(100, 0, 9, 3, 3), 800);
        // Saturates instead of overflowing for absurd attempt counts.
        assert_eq!(backoff_ms(u64::MAX / 2, 0, 9, 3, 16), u64::MAX);
    }

    fn sample_log() -> ExecutionLog {
        ExecutionLog {
            events: vec![
                FaultEvent {
                    shard: 0,
                    attempt: 0,
                    kind: FaultKind::Crash,
                    detail: "x".into(),
                    backoff_ms: Some(50),
                },
                FaultEvent {
                    shard: 1,
                    attempt: 0,
                    kind: FaultKind::Hang,
                    detail: "quote \" and newline \n".into(),
                    backoff_ms: None,
                },
            ],
            resolutions: vec![
                ShardResolution::Clean {
                    shard: 0,
                    attempts: 2,
                },
                ShardResolution::Degraded { shard: 1 },
            ],
            heartbeats: 7,
            registrations: 2,
        }
    }

    #[test]
    fn execution_log_counts() {
        let log = sample_log();
        assert_eq!(log.count(FaultKind::Crash), 1);
        assert_eq!(log.count(FaultKind::Hang), 1);
        assert_eq!(log.count(FaultKind::CorruptFrame), 0);
        assert_eq!(log.degraded(), 1);
        assert_eq!(log.total_attempts(), 3);
        assert!(log.summary().contains("2 shards"));
    }

    #[test]
    fn execution_log_equality_ignores_liveness_counters() {
        let log = sample_log();
        let mut other = log.clone();
        // Liveness counters are wall-clock artifacts: a run that fit
        // more heartbeats into the window is still "the same run".
        other.heartbeats += 99;
        other.registrations += 1;
        assert_eq!(log, other);
        other.events[0].attempt = 1;
        assert_ne!(log, other);
    }
}
