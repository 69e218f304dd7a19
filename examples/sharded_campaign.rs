//! Sharded campaign: run a scenario grid across supervised worker
//! processes, inject a fault, and watch the retry recover the exact
//! same bits — over a pipe pair, then over loopback TCP. Each run also
//! asserts its execution log: a clean run handles no fault, an injected
//! one exactly one per shard, and no shard degrades.
//!
//! This example *is* its own worker: the supervisor re-spawns this
//! binary with a hidden `--worker` flag. The worker registers with a
//! hello frame, receives its shard as a checksummed wire frame, and
//! streams outcome frames back with heartbeats in between — over
//! stdin/stdout by default, or over a TCP connection back to the
//! supervisor when the socket transport hands it an address. The first
//! line of `main` is the worker dispatch — in a worker process nothing
//! below it ever runs.
//!
//! ```text
//! cargo run --release --example sharded_campaign
//! ```

use fault_sneaking::attack::campaign::{CampaignReport, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, Campaign, FsaMethod, ParamSelection};
use fault_sneaking::harness::injector::{FaultDirective, FaultPlanner};
use fault_sneaking::harness::supervisor::{ExecutorConfig, ShardedCampaign, ShardedRun};
use fault_sneaking::harness::transport::SocketTransport;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::{Prng, Tensor};
use std::sync::Arc;

fn main() {
    // Worker dispatch: when re-spawned with `--worker`, run the shard
    // job over the link and exit — the supervisor code below never runs.
    fault_sneaking::harness::worker::maybe_run_worker();

    // 1. A small victim and its pooled working set.
    let mut rng = Prng::new(2026);
    let head = FcHead::from_dims(&[10, 20, 4], &mut rng);
    let pool = Tensor::randn(&[40, 10], 1.0, &mut rng);
    let labels = head.predict(&pool);
    let cache = FeatureCache::from_features(pool);

    // 2. A Table-2-style grid: S ∈ {1,2} × K ∈ {2,6}, short solves.
    let spec = CampaignSpec::grid(vec![1, 2], vec![2, 6]).with_config(AttackConfig {
        iterations: 60,
        ..AttackConfig::default()
    });

    // 3. Single-process reference.
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), cache.clone(), labels.clone());
    let reference = campaign.run_method(&spec, &FsaMethod);
    println!(
        "single-process: {} scenarios, fingerprint {:#018x}",
        reference.len(),
        reference.fingerprint()
    );

    // 4. The same grid across 2 worker processes, clean.
    let sharded = ShardedCampaign::new(&head, selection, cache, labels);
    let clean = sharded.run(&spec, "fsa", &ExecutorConfig::new(2));
    report("2 shards (clean)", &clean, &reference, 0);

    // 5. Same again, but every shard's first attempt is killed
    //    mid-shard. The supervisor classifies the crashes, backs off,
    //    retries — and the merged report is still the same bits.
    let faulty_cfg = ExecutorConfig::new(2)
        .with_planner(Some(FaultPlanner::always(FaultDirective::KillAfter(1), 1)));
    let recovered = sharded.run(&spec, "fsa", &faulty_cfg);
    report(
        "2 shards (first attempts killed)",
        &recovered,
        &reference,
        1,
    );

    // 6. The same grid over loopback TCP (default liveness policy:
    //    100 ms heartbeats, 2 s silence window), clean and then with
    //    every shard's first connection partitioned mid-stream. Same
    //    protocol, same recovery, same bits.
    let socket_cfg = ExecutorConfig::new(2).with_transport(Arc::new(SocketTransport::default()));
    let clean = sharded.run(&spec, "fsa", &socket_cfg);
    report("2 shards over TCP (clean)", &clean, &reference, 0);
    let partitioned_cfg =
        socket_cfg.with_planner(Some(FaultPlanner::always(FaultDirective::Partition(1), 1)));
    let recovered = sharded.run(&spec, "fsa", &partitioned_cfg);
    report(
        "2 shards over TCP (links partitioned)",
        &recovered,
        &reference,
        1,
    );
}

/// Checks a sharded run reproduced the reference bits, logged
/// `faults_per_shard` faults on every shard and degraded none, and
/// prints it with every fault the supervisor handled on the way.
fn report(label: &str, run: &ShardedRun, reference: &CampaignReport, faults_per_shard: usize) {
    assert!(
        run.report == *reference,
        "{label}: sharded run changed bits"
    );
    let log = &run.log;
    assert_eq!(log.degraded(), 0, "{label}: {}", log.summary());
    for r in &log.resolutions {
        let faults = log.events.iter().filter(|e| e.shard == r.shard()).count();
        assert_eq!(
            faults,
            faults_per_shard,
            "{label}: shard {} ({})",
            r.shard(),
            log.summary()
        );
    }
    println!(
        "{label}: fingerprint {:#018x} — bit-identical ({})",
        run.report.fingerprint(),
        run.log.summary()
    );
    for e in &run.log.events {
        println!(
            "  handled: shard {} attempt {} -> {} ({}), backoff {:?} ms",
            e.shard, e.attempt, e.kind, e.detail, e.backoff_ms
        );
    }
}
