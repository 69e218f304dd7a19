//! The ADMM loop's telemetry is a view of the result.
//!
//! A traced run must emit one `admm` convergence summary whose last
//! objective and residuals repeat the last `admm_history` record bit for
//! bit, plus the `admm.*` counters that tally the same run; a run that
//! takes no iteration emits no summary. One test function on purpose:
//! telemetry's enable flag is process-global, so this binary holds
//! nothing else.

use fsa_attack::{AttackConfig, AttackResult, AttackSpec, FaultSneakingAttack, ParamSelection};
use fsa_nn::head::FcHead;
use fsa_nn::head_train::{train_head, HeadTrainConfig};
use fsa_telemetry::Snapshot;
use fsa_tensor::{Prng, Tensor};

/// A 10→16→3 head trained on class-clustered points, and a working set
/// of its first 12 points with the first two retargeted.
fn victim() -> (FcHead, AttackSpec) {
    let mut rng = Prng::new(5150);
    let (n, d, classes) = (90, 10, 3);
    let mut x = Tensor::zeros(&[n, d]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        labels.push(i % classes);
        for j in 0..d {
            let center = if j % classes == i % classes { 2.0 } else { 0.0 };
            x.row_mut(i)[j] = rng.normal(center, 0.4);
        }
    }
    let mut head = FcHead::from_dims(&[d, 16, classes], &mut rng);
    let cfg = HeadTrainConfig {
        epochs: 20,
        ..Default::default()
    };
    train_head(&mut head, &x, &labels, &cfg, &mut rng);
    let r = 12;
    let mut working = Tensor::zeros(&[r, d]);
    for i in 0..r {
        working.row_mut(i).copy_from_slice(x.row(i));
    }
    let targets = labels[..2].iter().map(|&l| (l + 1) % classes).collect();
    (
        head,
        AttackSpec::new(working, labels[..r].to_vec(), targets),
    )
}

/// Runs `attack` untraced, then traced, and returns the traced result
/// with its drained snapshot. Telemetry must not move a bit.
fn traced(attack: &FaultSneakingAttack, spec: &AttackSpec) -> (AttackResult, Snapshot) {
    let untraced = attack.run(spec);
    fsa_telemetry::set_enabled(true);
    let _ = fsa_telemetry::drain();
    let result = attack.run(spec);
    let snap = fsa_telemetry::drain();
    fsa_telemetry::set_enabled(false);
    assert_eq!(result, untraced, "telemetry changed the result");
    (result, snap)
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |&(_, v)| v)
}

#[test]
fn traced_admm_summary_is_a_view_of_the_result() {
    let (head, spec) = victim();
    let selection = ParamSelection::last_layer(&head);
    let cfg = AttackConfig {
        iterations: 60,
        refine: None,
        ..AttackConfig::default()
    };
    let (result, snap) = traced(
        &FaultSneakingAttack::new(&head, selection.clone(), cfg),
        &spec,
    );

    let traces: Vec<_> = snap
        .convergence
        .iter()
        .filter(|t| t.name == "admm")
        .collect();
    assert_eq!(traces.len(), 1, "one summary per run");
    let trace = traces[0];
    assert_eq!(trace.ctx, "attack", "emitted under the attack span");
    assert_eq!(trace.iters as usize, result.admm_history.len());
    assert_eq!(trace.converged, result.converged);
    let last = result.admm_history.last().unwrap();
    assert_eq!(trace.objective.to_bits(), last.objective.to_bits());
    assert_eq!(trace.primal.to_bits(), last.primal_residual.to_bits());
    assert_eq!(trace.dual.to_bits(), last.dual_residual.to_bits());
    // With refine off and no stealth the answer is the last z-step, so
    // the summary's support is the reported ℓ0.
    assert_eq!(trace.support as usize, result.l0);

    assert_eq!(counter(&snap, "admm.runs"), 1);
    assert_eq!(
        counter(&snap, "admm.iterations"),
        result.admm_history.len() as u64
    );
    let stop = if result.converged {
        "admm.converged"
    } else {
        "admm.hit_cap"
    };
    assert_eq!(counter(&snap, stop), 1);
    assert!(snap.spans.iter().any(|(path, _)| path == "attack/admm"));

    // A run capped at zero iterations has nothing to summarize.
    let idle = AttackConfig {
        iterations: 0,
        refine: None,
        ..AttackConfig::default()
    };
    let (result, snap) = traced(&FaultSneakingAttack::new(&head, selection, idle), &spec);
    assert!(result.admm_history.is_empty());
    assert!(snap.convergence.is_empty(), "no iteration, no summary");
    assert_eq!(counter(&snap, "admm.runs"), 1);
    assert_eq!(counter(&snap, "admm.iterations"), 0);
}
