//! Traced campaign: run a scenario sweep with telemetry on and read
//! what it observed.
//!
//! The three-minute tour of the observability layer: enable the global
//! switch, run a small campaign grid, drain the snapshot, and walk its
//! three kinds of data — the span tree (where the time went), the
//! counters (what the scheduler and caches did), and one ADMM
//! convergence summary per scenario (where each run stopped). The
//! per-iteration curves behind those summaries (the paper's §4/§5
//! curves) come from the report itself: every result keeps its
//! `admm_history`. The enabled run is **identity-only**: an assert
//! checks the report fingerprint matches a telemetry-off run bit for
//! bit.
//!
//! ```text
//! cargo run --release --example traced_campaign
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, ParamSelection};
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::telemetry;
use fault_sneaking::tensor::{Prng, Tensor};

fn main() {
    let mut rng = Prng::new(2026);

    // 1. A small victim and a 4-scenario grid (S ∈ {1,2} × K ∈ {4,8}).
    let (features, labels) = clustered_features(100, 12, 4, &mut rng);
    let mut head = FcHead::from_dims(&[12, 24, 4], &mut rng);
    train_head(
        &mut head,
        &features,
        &labels,
        &HeadTrainConfig {
            epochs: 20,
            ..Default::default()
        },
        &mut rng,
    );
    let campaign = Campaign::new(
        &head,
        ParamSelection::last_layer(&head),
        FeatureCache::from_features(features),
        labels,
    );
    let spec = CampaignSpec::grid(vec![1, 2], vec![4, 8]).with_config(AttackConfig {
        iterations: 50,
        ..AttackConfig::default()
    });

    // 2. Reference run with telemetry off (the default state).
    let reference = campaign.run(&spec);

    // 3. The same run, observed: enable, run, disable, drain.
    telemetry::set_enabled(true);
    let observed = campaign.run(&spec);
    telemetry::set_enabled(false);
    let snap = telemetry::drain();

    // 4. Identity-only: observation never changed a bit.
    assert_eq!(observed.fingerprint(), reference.fingerprint());
    println!(
        "fingerprint {:#018x} — identical with telemetry on and off\n",
        observed.fingerprint()
    );

    // 5. The rendered profile: span tree (hierarchical wall-clock
    //    attribution; a `worker` path segment appears only where the
    //    dispatcher actually spawned scoped threads), counters
    //    (dispatches, cache traffic, solver totals), and a
    //    one-line summary per ADMM run.
    println!("{}", snap.render_tree());

    // 6. The structured data behind the rendering — e.g. one counter…
    let scenarios = snap
        .counters
        .iter()
        .find(|(name, _)| name == "campaign.scenarios")
        .map_or(0, |(_, v)| *v);
    println!("campaign.scenarios counter: {scenarios}");

    // 7. …and the convergence summaries: one per scenario — iterations,
    //    stop, last objective and residuals, δ support size, keep-set
    //    violations.
    println!("\n== convergence summaries ==");
    assert_eq!(snap.convergence.len(), observed.outcomes.len());
    for t in &snap.convergence {
        println!(
            "  {}/{}: {} iters (converged {}), objective {:.4} primal {:.3e} dual {:.3e} support {} keep_violations {}",
            t.ctx, t.name, t.iters, t.converged, t.objective, t.primal, t.dual, t.support, t.keep_violations
        );
    }

    // 8. The per-iteration curves live in the report: one `IterStats`
    //    (objective, primal and dual residual) per ADMM iteration.
    println!("\n== objective curve (first and last iteration per scenario) ==");
    for o in &observed.outcomes {
        let history = &o.result.admm_history;
        let (first, last) = (&history[0], &history[history.len() - 1]);
        println!(
            "  scenario {}: iter 0 objective {:.4} -> iter {} objective {:.4}",
            o.scenario.index,
            first.objective,
            history.len() - 1,
            last.objective
        );
    }

    // Snapshots serialize to JSON for artifacts (`Snapshot::to_json`);
    // a traced repository benchmark run (`--trace 1`) writes one to
    // benchmark/results/.
    println!("\nsnapshot JSON: {} bytes", snap.to_json().len());
}

/// Class-clustered Gaussian features (class k concentrates on coordinates
/// `j ≡ k mod classes`).
fn clustered_features(n: usize, d: usize, classes: usize, rng: &mut Prng) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::zeros(&[n, d]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        for j in 0..d {
            let center = if j % classes == class { 2.0 } else { 0.0 };
            x.row_mut(i)[j] = rng.normal(center, 0.4);
        }
    }
    (x, labels)
}
