//! Fault-tolerant sharded campaign execution — the PR 6 bench artifact.
//!
//! Runs the Table-2-style scenario grid through
//! [`fsa_harness::ShardedCampaign`]: the grid is split into contiguous
//! shards, each shard runs in a separate **worker process** (this very
//! binary, re-spawned with a hidden `--worker` flag), and the merged
//! report must be bit-identical to the single-process reference —
//! first on clean runs at 1/2/3/8 shards, then under every injected
//! fault class (worker kill, hang past the deadline, bit-flipped and
//! truncated result frames, partition, slow link, duplicated and
//! reordered delivery), and finally under a seeded pseudo-random fault
//! plan over the same eight classes. The run aborts (non-zero exit) on
//! any divergence.
//!
//! `--transport pipe|socket` picks the worker link (pipe by default);
//! both carry the same protocol, so the battery is the same on either.
//! Over the loopback [`SocketTransport`], clean sweeps are additionally
//! cross-checked bit-for-bit against a pipe run at every shard count.
//!
//! Emits `BENCH_PR6.json` (pipe) or `BENCH_PR10.json` (socket) at the
//! workspace root.
//!
//! Run: `cargo run --release -p fsa-bench --bin sharded`
//! CI smoke: `cargo run -p fsa-bench --bin sharded -- --smoke`
//! (2-scenario grid, no JSON artifact; the CI matrix also sets
//! `FSA_FAULT_SEED` so the env-gated planner path is exercised).

use fsa_attack::campaign::{Campaign, CampaignReport, CampaignSpec, SparsityBudget};
use fsa_attack::{AttackConfig, FsaMethod, ParamSelection};
use fsa_bench::fixture;
use fsa_harness::injector::{FaultDirective, FaultPlanner};
use fsa_harness::supervisor::{ExecutorConfig, FaultKind, ShardedCampaign, ShardedRun};
use fsa_harness::transport::{SocketConfig, SocketTransport};
use fsa_nn::FeatureCache;
use fsa_tensor::Prng;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Asserts a sharded run reproduced the reference bits and reports it.
fn check(label: &str, run: &ShardedRun, reference: &CampaignReport) {
    assert!(
        run.report == *reference,
        "{label}: merged report diverged from the single-process reference"
    );
    assert_eq!(
        run.report.fingerprint(),
        reference.fingerprint(),
        "{label}: fingerprint diverged"
    );
    println!("{label}: bit-identical ({})", run.log.summary());
}

fn main() {
    // Worker mode: everything below never runs in a worker process.
    fsa_harness::worker::maybe_run_worker();

    let traced = fsa_bench::trace::arm_from_args();
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let socket = match args.iter().position(|a| a == "--transport") {
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("socket") => true,
            Some("pipe") => false,
            other => panic!("--transport takes `pipe` or `socket`, got {other:?}"),
        },
        None => false,
    };
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== fault-tolerant sharded campaign (host cores: {host_cores}, transport: {}{}) ==",
        if socket { "socket" } else { "pipe" },
        if smoke { ", smoke" } else { "" }
    );

    let mut rng = Prng::new(0xDAC6);
    let (model, pool_images, pool_labels) = fixture::campaign_victim(&mut rng);
    let cache = FeatureCache::build(&model, &pool_images);

    let spec = if smoke {
        CampaignSpec::grid(vec![1], vec![2, 4]).with_config(AttackConfig {
            iterations: 60,
            ..AttackConfig::default()
        })
    } else {
        CampaignSpec::grid(vec![1, 2], vec![0, 4, 8])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_config(AttackConfig {
                iterations: 150,
                ..AttackConfig::default()
            })
    };
    let n_scenarios = spec.len();
    assert!(
        smoke || n_scenarios >= 12,
        "full sweep must cover ≥ 12 scenarios"
    );
    println!("scenario matrix: {n_scenarios} scenarios");

    let selection = ParamSelection::last_layer(&model.head);

    // Single-process reference through the in-process engine.
    let campaign = Campaign::new(
        &model.head,
        selection.clone(),
        cache.clone(),
        pool_labels.clone(),
    );
    let t = Instant::now();
    let reference = campaign.run_method(&spec, &FsaMethod);
    let single_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "single-process reference: {single_ms:.1} ms, fingerprint {:#018x}",
        reference.fingerprint()
    );
    assert!(
        reference.mean_success_rate() > 0.9,
        "campaign fixture attacks mostly failed; victim or sweep misconfigured"
    );

    let sharded = ShardedCampaign::new(&model.head, selection, cache, pool_labels);
    let deadline = Duration::from_secs(if smoke { 60 } else { 120 });
    // Clean runs must never pick up an ambient FSA_FAULT_SEED — the
    // env-gated planner gets its own dedicated section below.
    let pipe_config = |shards: usize| {
        ExecutorConfig::new(shards)
            .with_deadline(deadline)
            .with_planner(None)
    };
    // Socket runs keep a tight liveness policy (50 ms beats, 300 ms
    // silence window) so the slow-link case resolves fast; pipes run
    // the fixed default (2 s window). Heartbeats keep clean shards
    // alive through arbitrarily long solves on either link.
    let transport: Option<Arc<SocketTransport>> = socket.then(|| {
        Arc::new(SocketTransport::new(SocketConfig {
            heartbeat_ms: 50,
            miss_threshold: 6,
        }))
    });
    let clean_config = |shards: usize| match &transport {
        Some(t) => pipe_config(shards).with_transport(t.clone()),
        None => pipe_config(shards),
    };

    // Clean shard-count sweep: every merged report must equal the
    // reference bit for bit, with an empty fault log. Over the socket
    // transport, every count is additionally cross-checked against a
    // pipe-transport run of the same sweep.
    let shard_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 3, 8] };
    let mut sweep_lines = Vec::new();
    for &shards in shard_counts {
        let t = Instant::now();
        let run = sharded.run(&spec, "fsa", &clean_config(shards));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        check(&format!("{shards} shards (clean)"), &run, &reference);
        assert!(run.log.events.is_empty(), "clean run recorded faults");
        if socket {
            let t = Instant::now();
            let pipe_run = sharded.run(&spec, "fsa", &pipe_config(shards));
            let pipe_ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(
                run.report == pipe_run.report,
                "{shards} shards: socket and pipe transports disagree"
            );
            assert_eq!(run.report.fingerprint(), pipe_run.report.fingerprint());
            println!("{shards} shards (pipe cross-check): bit-identical");
            sweep_lines.push(format!(
                "{{\"shards\": {shards}, \"socket_ms\": {ms:.3}, \
                 \"pipe_ms\": {pipe_ms:.3}, \"registrations\": {}, \
                 \"bit_identical\": true}}",
                run.log.registrations
            ));
        } else {
            sweep_lines.push(format!(
                "{{\"shards\": {shards}, \"campaign_ms\": {ms:.3}, \"bit_identical\": true}}"
            ));
        }
    }

    // Fault battery: each class injected on every shard's first
    // attempt; the retry (or checksum rejection + retry) must recover
    // the exact reference bits. Smoke shards hold a single scenario, so
    // mid-stream faults target frame 0 there.
    let mid = u32::from(!smoke);
    let fault_cases = [
        (
            "worker-kill",
            FaultDirective::KillAfter(0),
            FaultKind::Crash,
        ),
        (
            "worker-hang",
            FaultDirective::StallMs(600_000),
            FaultKind::Hang,
        ),
        (
            "bit-flipped-frame",
            FaultDirective::FlipBit {
                frame: 0,
                byte: 40,
                bit: 3,
            },
            FaultKind::CorruptFrame,
        ),
        (
            "truncated-frame",
            FaultDirective::TruncateFrame(0),
            FaultKind::CorruptFrame,
        ),
        (
            "network-partition",
            FaultDirective::Partition(mid),
            FaultKind::Crash,
        ),
        (
            "slow-link",
            FaultDirective::SlowLinkMs(30_000),
            FaultKind::Hang,
        ),
        (
            "duplicate-delivery",
            FaultDirective::DuplicateFrame(mid),
            FaultKind::CorruptFrame,
        ),
        (
            "reorder-delivery",
            FaultDirective::ReorderFrames(0),
            FaultKind::CorruptFrame,
        ),
    ];
    // The hang case waits out one full deadline per shard; keep it
    // short here so the battery stays minutes-fast.
    let fault_deadline = Duration::from_secs(if smoke { 20 } else { 45 });
    let mut fault_lines = Vec::new();
    for (label, directive, expected) in &fault_cases {
        let cfg = clean_config(2)
            .with_deadline(fault_deadline)
            .with_planner(Some(FaultPlanner::always(*directive, 1)));
        let t = Instant::now();
        let run = sharded.run(&spec, "fsa", &cfg);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        check(&format!("fault {label}"), &run, &reference);
        assert_eq!(
            run.log.count(*expected),
            2,
            "fault {label}: expected one {expected} per shard, log: {}",
            run.log.summary()
        );
        assert_eq!(
            run.log.degraded(),
            0,
            "fault {label} should recover by retry"
        );
        fault_lines.push(format!(
            "{{\"fault\": \"{label}\", \"classified_as\": \"{expected}\", \
             \"faults_handled\": {}, \"degraded_shards\": 0, \
             \"campaign_ms\": {ms:.3}, \"bit_identical\": true}}",
            run.log.events.len()
        ));
    }

    // Degraded path: persistent crashes exhaust the retries, forcing
    // the in-process fallback — same bits, logged as degraded.
    let cfg = clean_config(2)
        .with_max_retries(1)
        .with_planner(Some(FaultPlanner::persistent(FaultDirective::KillAfter(0))));
    let run = sharded.run(&spec, "fsa", &cfg);
    check("persistent-crash (degraded fallback)", &run, &reference);
    assert_eq!(run.log.degraded(), 2, "both shards should degrade");
    let degraded_summary = run.log.summary();

    // Env-gated planner: when the CI matrix sets FSA_FAULT_SEED, run
    // the seeded plan it selects; otherwise exercise a fixed seed.
    let (seed_label, seeded_planner) = match FaultPlanner::from_env() {
        Some(p) => ("FSA_FAULT_SEED (env)", p),
        None => ("seed 0xfa (built-in)", FaultPlanner::seeded(0xfa)),
    };
    let cfg = clean_config(3)
        .with_deadline(fault_deadline)
        .with_planner(Some(seeded_planner));
    let run = sharded.run(&spec, "fsa", &cfg);
    check(
        &format!("seeded fault plan [{seed_label}]"),
        &run,
        &reference,
    );
    let seeded_summary = run.log.summary();

    let transport_name = if socket { "socket" } else { "pipe" };
    if smoke {
        println!(
            "smoke OK [{transport_name}]: {n_scenarios} scenarios bit-identical \
             across sharding, every fault class, degraded fallback, and the \
             seeded plan"
        );
        fsa_bench::trace::finish(traced, "sharded");
        return;
    }

    let (pr, artifact) = if socket {
        (10, "BENCH_PR10.json")
    } else {
        (6, "BENCH_PR6.json")
    };
    let json = format!(
        "{{\n  \"pr\": {pr},\n  \"transport\": \"{transport_name}\",\n  \
         \"host_cores\": {host_cores},\n  \"config\": \"cw_tiny_20px\",\n  \
         \"scenarios\": {n_scenarios},\n  \
         \"single_process_ms\": {single_ms:.3},\n  \
         \"report_fingerprint\": \"{:#018x}\",\n  \
         \"bit_identical_across_shard_counts\": true,\n  {}\
         \"bit_identical_under_all_fault_classes\": true,\n  \
         \"degraded_fallback\": \"{degraded_summary}\",\n  \
         \"seeded_plan\": \"{seeded_summary}\",\n  \
         \"note\": \"{}\",\n  \
         \"shard_sweep\": [\n    {}\n  ],\n  \"fault_battery\": [\n    {}\n  ]\n}}\n",
        reference.fingerprint(),
        if socket {
            "\"bit_identical_to_pipe_transport\": true,\n  "
        } else {
            ""
        },
        if host_cores == 1 {
            "single-core host: process sharding is correctness-verified \
             (bit-identical at every shard count and under every injected \
             fault) but cannot beat single-process wall-clock; rerun on a \
             multi-core box for real scaling"
        } else {
            "multi-core host: shard_sweep campaign_ms is the process-level \
             parallel win"
        },
        sweep_lines.join(",\n    "),
        fault_lines.join(",\n    ")
    );
    let path: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(artifact);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("failed to write {artifact}: {e}"));
    println!("\nwrote {}", path.display());
    print!("{json}");
    fsa_bench::trace::finish(traced, "sharded");
}
