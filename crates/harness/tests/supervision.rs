//! Supervisor battery: the merged sharded report is bit-identical to
//! the single-process one — on clean runs, under every injected fault
//! class, and on the degraded in-process fallback — over both links,
//! with the [`ExecutionLog`] recording every retry, fallback,
//! registration, and heartbeat.
//!
//! Workers are real processes: the tests spawn the crate's
//! `shard_worker` bin (via the `CARGO_BIN_EXE_shard_worker` path Cargo
//! exports to integration tests) over a pipe pair or a loopback TCP
//! connection, so the full spawn/hello/heartbeat/deadline/exit-status
//! machinery is exercised, not a mock. Both links carry one protocol,
//! so every link-sensitive test takes the link as one more input and
//! asserts the same classification contract on each:
//!
//! | injected fault            | classification   |
//! |---------------------------|------------------|
//! | worker kill / partition   | `Crash`          |
//! | stall past the deadline   | `Hang`           |
//! | slow link (paced writes)  | `Hang`           |
//! | bit flip / truncation     | `CorruptFrame`   |
//! | duplicated / reordered    | `CorruptFrame`   |

use fsa_attack::campaign::{CampaignReport, CampaignSpec};
use fsa_attack::solver::AttackConfig;
use fsa_attack::{Campaign, FsaMethod, ParamSelection, StealthObjective};
use fsa_harness::injector::{FaultDirective, FaultPlanner};
use fsa_harness::supervisor::{
    ExecutionLog, ExecutorConfig, FaultKind, ShardResolution, ShardedCampaign,
};
use fsa_harness::transport::{PipeTransport, SocketConfig, SocketTransport, Transport};
use fsa_memfault::dram::DramGeometry;
use fsa_nn::feature_cache::FeatureCache;
use fsa_nn::head::FcHead;
use fsa_telemetry::Snapshot;
use fsa_tensor::{Prng, Tensor};
use std::path::PathBuf;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

/// A small victim: big enough that every scenario has distinct work,
/// small enough that a full battery stays seconds-fast.
fn fixture() -> (FcHead, FeatureCache, Vec<usize>) {
    let mut rng = Prng::new(41);
    let head = FcHead::from_dims(&[8, 16, 4], &mut rng);
    let pool = Tensor::randn(&[30, 8], 1.0, &mut rng);
    let labels = head.predict(&pool);
    (head, FeatureCache::from_features(pool), labels)
}

/// Six scenarios (S ∈ {1,2} × K ∈ {2,3,4}), short solves.
fn spec() -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![2, 3, 4]).with_config(AttackConfig {
        iterations: 25,
        ..AttackConfig::default()
    })
}

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_shard_worker"))
}

/// Both links: the default pipe pair, and loopback TCP with the same
/// default liveness policy.
fn links() -> [Arc<dyn Transport>; 2] {
    [
        Arc::new(PipeTransport),
        Arc::new(SocketTransport::default()),
    ]
}

/// Config pointed at the dedicated worker bin (self-spawn would re-run
/// the test harness), with fast backoff so fault tests stay quick.
fn config(shards: usize, link: &Arc<dyn Transport>) -> ExecutorConfig {
    ExecutorConfig::new(shards)
        .with_worker(worker_bin(), vec![])
        .with_backoff(5, 3)
        .with_transport(Arc::clone(link))
}

fn reference(spec: &CampaignSpec) -> CampaignReport {
    let (head, cache, labels) = fixture();
    let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
    campaign.run_method(spec, &FsaMethod)
}

/// Telemetry's switch and sink are process-wide, and this binary's
/// tests run concurrently. Every sharded run holds this lock shared, and
/// a traced run holds it exclusively ([`traced`]), so what a traced run
/// drains is its own.
static TRACE: RwLock<()> = RwLock::new(());

fn sharded(spec: &CampaignSpec, cfg: &ExecutorConfig) -> (CampaignReport, ExecutionLog) {
    let _shared = TRACE.read().unwrap_or_else(PoisonError::into_inner);
    run_sharded(spec, cfg)
}

/// Runs `f` with telemetry on and no other sharded run in flight, and
/// returns its result with the snapshot it recorded.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let _exclusive = TRACE.write().unwrap_or_else(PoisonError::into_inner);
    fsa_telemetry::set_enabled(true);
    let out = f();
    fsa_telemetry::set_enabled(false);
    (out, fsa_telemetry::drain())
}

/// [`sharded`] without the lock, for use inside [`traced`].
fn run_sharded(spec: &CampaignSpec, cfg: &ExecutorConfig) -> (CampaignReport, ExecutionLog) {
    let (head, cache, labels) = fixture();
    let campaign = ShardedCampaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
    let run = campaign.run(spec, "fsa", cfg);
    (run.report, run.log)
}

/// Runs `directive` on every shard's first attempt over `link` and
/// asserts the retry lands on the reference bits with exactly one
/// `expected` fault per shard.
fn assert_recovers(
    link: &Arc<dyn Transport>,
    cfg: ExecutorConfig,
    directive: FaultDirective,
    expected: FaultKind,
) -> ExecutionLog {
    let spec = spec();
    let reference = reference(&spec);
    let cfg = cfg.with_planner(Some(FaultPlanner::always(directive, 1)));
    let (report, log) = sharded(&spec, &cfg);
    let name = link.name();
    assert_eq!(report, reference, "{name}: under {directive:?}");
    assert_eq!(report.fingerprint(), reference.fingerprint());
    assert_eq!(
        log.count(expected),
        2,
        "{name}: under {directive:?}: {}",
        log.summary()
    );
    assert_eq!(log.events.len(), 2, "{name}: {}", log.summary());
    assert_eq!(log.degraded(), 0, "{name}: under {directive:?}");
    assert!(log
        .resolutions
        .iter()
        .all(|r| matches!(r, ShardResolution::Clean { attempts: 2, .. })));
    log
}

#[test]
fn clean_sharded_runs_match_single_process_bit_for_bit() {
    let spec = spec();
    let reference = reference(&spec);
    for shards in [1, 2, 3, 8] {
        let [pipe, socket] = links().map(|link| {
            let (report, log) = sharded(&spec, &config(shards, &link));
            let name = link.name();
            assert_eq!(report, reference, "{shards} shards over {name} diverged");
            assert_eq!(report.fingerprint(), reference.fingerprint());
            assert!(
                log.events.is_empty(),
                "clean {name} run logged faults: {log:?}"
            );
            let effective = shards.min(spec.len());
            assert_eq!(log.resolutions.len(), effective);
            assert!(log
                .resolutions
                .iter()
                .all(|r| matches!(r, ShardResolution::Clean { attempts: 1, .. })));
            // Every clean attempt registered exactly once over the link.
            assert_eq!(
                log.registrations, effective as u64,
                "{shards} shards over {name}: wrong registration count"
            );
            report
        });
        assert_eq!(pipe, socket, "{shards} shards: pipe and socket disagree");
    }
}

#[test]
fn worker_kill_is_a_crash_and_retry_recovers_the_bits() {
    for link in links() {
        // Kill every shard's first attempt after one emitted frame.
        let log = assert_recovers(
            &link,
            config(2, &link),
            FaultDirective::KillAfter(1),
            FaultKind::Crash,
        );
        for e in &log.events {
            assert!(e.detail.contains("86"), "kill exit code lost: {e:?}");
            assert!(e.backoff_ms.is_some(), "retry without recorded backoff");
        }
    }
}

#[test]
fn partition_mid_stream_is_a_crash_and_retry_recovers_the_bits() {
    for link in links() {
        let log = assert_recovers(
            &link,
            config(2, &link),
            FaultDirective::Partition(1),
            FaultKind::Crash,
        );
        assert_eq!(log.count(FaultKind::Hang), 0);
        assert_eq!(log.count(FaultKind::CorruptFrame), 0);
    }
}

#[test]
fn stall_past_deadline_is_a_hang_not_a_crash() {
    for link in links() {
        // The deadline must be long enough for a clean retry to finish
        // its shard, and the stall long enough to blow well past it.
        // Heartbeats keep the stalled worker's link alive, so it is the
        // deadline that fires.
        let log = assert_recovers(
            &link,
            config(2, &link).with_deadline(Duration::from_secs(2)),
            FaultDirective::StallMs(30_000),
            FaultKind::Hang,
        );
        assert_eq!(log.count(FaultKind::Crash), 0);
        for e in &log.events {
            assert!(e.detail.contains("deadline"), "{e:?}");
        }
    }
}

#[test]
fn heartbeats_keep_a_slow_but_alive_worker_off_the_fault_log() {
    // The worker stalls for twice the silence window before doing any
    // work, but its heartbeat thread beats throughout, so the
    // supervisor must NOT classify a hang. This is the non-vacuity
    // proof that heartbeats actually flow and actually feed the
    // liveness policy on each link: a 600 ms stall through a 300 ms
    // window on the socket, and through the pipe's fixed default
    // (2 s window) a 4 s stall.
    let spec = spec();
    let reference = reference(&spec);
    let fast = SocketConfig {
        heartbeat_ms: 20,
        miss_threshold: 15, // 300 ms window
    };
    let cases: [(Arc<dyn Transport>, u64); 2] = [
        (
            Arc::new(PipeTransport),
            2 * PipeTransport.liveness().window_ms(),
        ),
        (Arc::new(SocketTransport::new(fast)), 2 * fast.window_ms()),
    ];
    for (link, stall_ms) in cases {
        let cfg = config(2, &link)
            .with_deadline(Duration::from_secs(30))
            .with_planner(Some(FaultPlanner::always(
                FaultDirective::StallMs(stall_ms),
                1,
            )));
        let (report, log) = sharded(&spec, &cfg);
        let name = link.name();
        assert_eq!(report, reference, "{name}");
        assert!(
            log.events.is_empty(),
            "{name}: heartbeats failed to keep the stalled worker alive: {}",
            log.summary()
        );
        // Two windows of stall at 10 beats per window per shard: dozens
        // of heartbeats.
        assert!(
            log.heartbeats >= 20,
            "{name}: implausibly few heartbeats for a {stall_ms} ms stall: {}",
            log.heartbeats
        );
    }
}

#[test]
fn slow_link_trips_the_heartbeat_window_and_classifies_a_hang() {
    // Paced writes far beyond the silence window, heartbeats
    // suppressed: the link itself is healthy and every frame that ever
    // lands is checksum-clean — only liveness fails, and well before
    // the 30 s deadline.
    let socket: Arc<dyn Transport> = Arc::new(SocketTransport::new(SocketConfig {
        heartbeat_ms: 50,
        miss_threshold: 6, // 300 ms window keeps the faulty attempts fast
    }));
    for link in [Arc::new(PipeTransport) as Arc<dyn Transport>, socket] {
        let log = assert_recovers(
            &link,
            config(2, &link).with_deadline(Duration::from_secs(30)),
            FaultDirective::SlowLinkMs(30_000),
            FaultKind::Hang,
        );
        assert_eq!(log.count(FaultKind::Crash), 0);
        for e in &log.events {
            assert!(
                e.detail.contains("heartbeat window expired"),
                "hang not attributed to the heartbeat window (deadline was 30 s): {e:?}"
            );
        }
    }
}

#[test]
fn corrupted_result_frames_are_caught_by_the_checksum() {
    for link in links() {
        for directive in [
            FaultDirective::FlipBit {
                frame: 0,
                byte: 40,
                bit: 3,
            },
            FaultDirective::TruncateFrame(1),
        ] {
            assert_recovers(&link, config(2, &link), directive, FaultKind::CorruptFrame);
        }
    }
}

#[test]
fn duplicated_result_frames_are_rejected_and_retried() {
    // A replayed link write emits one outcome frame twice. Both copies
    // are individually valid and checksummed, so only the stream-level
    // duplicate-index check can catch it; the supervisor must classify
    // the stream as corrupt, retry, and land on the reference bits —
    // never merge a duplicated outcome.
    for link in links() {
        let log = assert_recovers(
            &link,
            config(2, &link),
            FaultDirective::DuplicateFrame(1),
            FaultKind::CorruptFrame,
        );
        for e in &log.events {
            assert!(
                e.detail.contains("duplicates scenario index"),
                "fault not attributed to the duplicate check: {e:?}"
            );
        }
    }
}

#[test]
fn reordered_delivery_is_a_corrupt_frame() {
    for link in links() {
        for directive in [
            // Frame 0 delivered after frame 1: out-of-order valid frames.
            FaultDirective::ReorderFrames(0),
            // The *last* frame (3-scenario shards) held past END: its END
            // count can no longer match, and the late frame is trailing
            // bytes.
            FaultDirective::ReorderFrames(2),
        ] {
            assert_recovers(&link, config(2, &link), directive, FaultKind::CorruptFrame);
        }
    }
}

/// A spec no worker could run fails on the caller's thread with the
/// draw's own message, before any worker is spawned — not as a crash,
/// a retry, a degraded rerun, and finally an anonymous supervision
/// thread panic.
#[test]
#[should_panic(expected = "needs R =")]
fn oversized_spec_is_rejected_before_any_worker_spawns() {
    let spec = CampaignSpec::grid(vec![1], vec![2, 1000]).with_config(AttackConfig {
        iterations: 25,
        ..AttackConfig::default()
    });
    let link: Arc<dyn Transport> = Arc::new(PipeTransport);
    sharded(&spec, &config(2, &link).with_max_retries(0));
}

/// A ρ the z-step cannot use is refused the same way, instead of
/// panicking inside a worker's proximal operator.
#[test]
#[should_panic(expected = "rho = NaN must be finite and > 0")]
fn invalid_rho_is_rejected_before_any_worker_spawns() {
    let spec = CampaignSpec::grid(vec![1], vec![2]).with_config(AttackConfig {
        rho: f32::NAN,
        iterations: 25,
        ..AttackConfig::default()
    });
    let link: Arc<dyn Transport> = Arc::new(PipeTransport);
    sharded(&spec, &config(2, &link).with_max_retries(0));
}

/// A method name no worker can resolve is refused the same way: a
/// campaign method is its name, so a name is all a worker receives.
#[test]
#[should_panic(expected = "unknown campaign method")]
fn unknown_method_is_rejected_before_any_worker_spawns() {
    let spec = CampaignSpec::grid(vec![1], vec![2]).with_config(AttackConfig {
        iterations: 25,
        ..AttackConfig::default()
    });
    let link: Arc<dyn Transport> = Arc::new(PipeTransport);
    let (head, cache, labels) = fixture();
    let campaign = ShardedCampaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
    let _shared = TRACE.read().unwrap_or_else(PoisonError::into_inner);
    campaign.run(&spec, "pgd", &config(2, &link).with_max_retries(0));
}

/// A stealth objective out of `StealthObjective::new`'s bounds is
/// refused the same way, even by a one-shard run, instead of dividing by
/// zero (or tripping an assert) inside a worker.
#[test]
#[should_panic(expected = "stealth objective needs block_params > 0")]
fn invalid_stealth_is_rejected_before_any_worker_spawns() {
    let stealth = StealthObjective::new(
        16,
        0.5,
        DramGeometry {
            banks: 2,
            rows_per_bank: 512,
            row_bytes: 64,
        },
        0.75,
    );
    let spec = CampaignSpec::grid(vec![1], vec![2])
        .with_config(AttackConfig {
            iterations: 25,
            ..AttackConfig::default()
        })
        .with_stealth(Some(StealthObjective {
            block_params: 0,
            ..stealth
        }));
    let link: Arc<dyn Transport> = Arc::new(PipeTransport);
    sharded(&spec, &config(1, &link).with_max_retries(0));
}

#[test]
fn exhausted_retries_degrade_in_process_and_preserve_the_fingerprint() {
    let spec = spec();
    let reference = reference(&spec);
    let guard = fsa_tensor::parallel::lock_threads();
    for link in links() {
        // Every attempt crashes immediately: no worker can ever succeed.
        let cfg = config(3, &link)
            .with_max_retries(1)
            .with_planner(Some(FaultPlanner::persistent(FaultDirective::KillAfter(0))));
        for threads in [1usize, 2, 3, 8] {
            guard.set(threads);
            let (report, log) = sharded(&spec, &cfg);
            assert_eq!(
                report,
                reference,
                "degraded {} run diverged at {threads} threads",
                link.name()
            );
            assert_eq!(report.fingerprint(), reference.fingerprint());
            assert_eq!(log.degraded(), 3, "{}", log.summary());
            // 3 shards × 2 attempts, all crashes.
            assert_eq!(log.count(FaultKind::Crash), 6);
            assert!(log
                .resolutions
                .iter()
                .all(|r| matches!(r, ShardResolution::Degraded { .. })));
        }
    }
}

#[test]
fn seeded_fault_plan_always_converges_to_the_reference_bits() {
    let spec = spec();
    let reference = reference(&spec);
    // The socket leg keeps a 300 ms window so slow-link draws resolve
    // fast; the pipe runs its fixed default.
    let socket: Arc<dyn Transport> = Arc::new(SocketTransport::new(SocketConfig {
        heartbeat_ms: 50,
        miss_threshold: 6,
    }));
    let cases: [(Arc<dyn Transport>, &[u64]); 2] = [
        (Arc::new(PipeTransport), &[1, 99, 0xfa]),
        (socket, &[3, 0x50c7]),
    ];
    for (link, seeds) in cases {
        let name = link.name();
        for &seed in seeds {
            // Short deadline: an injected stall (deadline + ~200-400 ms)
            // then costs seconds, not the default 30 s.
            let cfg = config(3, &link)
                .with_deadline(Duration::from_secs(2))
                .with_planner(Some(FaultPlanner::seeded(seed)));
            let (report, log) = sharded(&spec, &cfg);
            assert_eq!(report, reference, "{name}: seed {seed} diverged");
            assert_eq!(report.fingerprint(), reference.fingerprint());
            // Seeded plans inject only on attempts 0–1; the default
            // retry budget (2) guarantees a clean worker run for every
            // shard.
            assert_eq!(log.degraded(), 0, "{name}: seed {seed}: {}", log.summary());
            // Replaying the same seed replays the same faults (equality
            // ignores the wall-clock-dependent liveness counters).
            let (report2, log2) = sharded(&spec, &cfg);
            assert_eq!(report2, reference);
            assert_eq!(
                log, log2,
                "{name}: seed {seed} fault plan not deterministic"
            );
        }
    }
}

/// The identity-only contract at the executor level, on both links:
/// enabling telemetry around a sharded run (worker processes,
/// supervision threads, merge) never changes a bit of the merged report,
/// and the drained snapshot actually contains the executor's records —
/// the per-link attempt spans and the registration counter.
#[test]
fn sharded_fingerprints_are_bit_identical_with_telemetry_on_or_off() {
    let spec = spec();
    let reference = reference(&spec);
    for link in links() {
        let name = link.name();
        let cfg = config(3, &link);

        let (report_off, log_off) = sharded(&spec, &cfg);
        assert_eq!(report_off, reference);

        let ((report_on, log_on), snap) = traced(|| run_sharded(&spec, &cfg));

        assert_eq!(
            report_on, reference,
            "telemetry perturbed the sharded {name} report"
        );
        assert_eq!(report_on.fingerprint(), reference.fingerprint());
        assert_eq!(
            log_on, log_off,
            "telemetry perturbed the execution log (equality ignores liveness counters)"
        );

        assert!(
            snap.spans.iter().any(|(p, _)| p == "sharded_campaign"),
            "no sharded_campaign span in the drained snapshot"
        );
        let attempt_span = format!("{name}_attempt");
        assert!(
            snap.spans.iter().any(|(p, _)| p.contains(&attempt_span)),
            "no {attempt_span} span in the drained snapshot"
        );
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "harness.shards" && *v >= 3),
            "harness.shards counter missing or too small: {:?}",
            snap.counters
        );
        assert!(
            snap.counters
                .iter()
                .any(|(n, v)| n == "harness.registrations" && *v >= 3),
            "registration counter missing or too small: {:?}",
            snap.counters
        );
    }
}

/// The execution log is the one record of a handled fault: a traced run
/// with injected faults drains `harness.*` counters equal to the log's
/// own counts and no events at all.
#[test]
fn traced_fault_counters_equal_the_execution_log() {
    let spec = spec();
    let pipe: Arc<dyn Transport> = Arc::new(PipeTransport);
    let cases = [
        // Every first attempt crashes mid-shard; the retries run clean.
        config(3, &pipe).with_planner(Some(FaultPlanner::always(FaultDirective::KillAfter(1), 1))),
        // Every first attempt's stream is torn; the retries run clean.
        config(2, &pipe).with_planner(Some(FaultPlanner::always(
            FaultDirective::TruncateFrame(1),
            1,
        ))),
        // Every attempt crashes: each shard degrades after two.
        config(2, &pipe)
            .with_max_retries(1)
            .with_planner(Some(FaultPlanner::persistent(FaultDirective::KillAfter(0)))),
    ];
    for cfg in &cases {
        let ((_, log), snap) = traced(|| run_sharded(&spec, cfg));
        assert!(!log.events.is_empty(), "no fault was injected");
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v as usize)
        };
        for kind in [
            FaultKind::Crash,
            FaultKind::Hang,
            FaultKind::CorruptFrame,
            FaultKind::Spawn,
        ] {
            assert_eq!(
                counter(&format!("harness.faults.{kind}")),
                log.count(kind),
                "{kind}: {}",
                log.summary()
            );
        }
        assert_eq!(counter("harness.faults"), log.events.len());
        assert_eq!(counter("harness.attempts"), log.total_attempts());
        assert_eq!(counter("harness.degraded"), log.degraded());
        assert_eq!(counter("harness.shards"), log.resolutions.len());
        assert!(
            snap.events.is_empty(),
            "telemetry recorded events: {:?}",
            snap.events
        );
    }
}

#[test]
fn sba_and_gda_methods_shard_identically_too() {
    let spec = spec();
    let (head, cache, labels) = fixture();
    let pipe: Arc<dyn Transport> = Arc::new(PipeTransport);
    for method in ["sba", "gda"] {
        let campaign = Campaign::new(
            &head,
            ParamSelection::last_layer(&head),
            cache.clone(),
            labels.clone(),
        );
        let reference = campaign.run_method(&spec, fsa_attack::campaign::method(method).unwrap());
        let sharded_campaign = ShardedCampaign::new(
            &head,
            ParamSelection::last_layer(&head),
            cache.clone(),
            labels.clone(),
        );
        let _shared = TRACE.read().unwrap_or_else(PoisonError::into_inner);
        let run = sharded_campaign.run(&spec, method, &config(2, &pipe));
        assert_eq!(run.report, reference, "{method} diverged when sharded");
    }
}
