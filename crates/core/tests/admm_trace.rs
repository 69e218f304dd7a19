//! The ADMM loop's telemetry is a view of the result, record for record.
//!
//! A traced run must emit one `admm` convergence trace whose records
//! repeat `objective_history` and `admm_history` bit for bit, plus the
//! `admm.*` counters that tally the same run. One test function on
//! purpose: telemetry's enable flag is process-global, so this binary
//! holds nothing else.

use fsa_attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fsa_nn::head::FcHead;
use fsa_nn::head_train::{train_head, HeadTrainConfig};
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

#[test]
fn traced_admm_records_repeat_the_reported_histories() {
    let (head, spec) = victim();
    let selection = ParamSelection::last_layer(&head);
    let cfg = AttackConfig {
        iterations: 60,
        refine: None,
        ..AttackConfig::default()
    };
    let attack = FaultSneakingAttack::new(&head, selection, cfg);

    let untraced = attack.run(&spec);
    fsa_telemetry::set_enabled(true);
    let _ = fsa_telemetry::drain();
    let result = attack.run(&spec);
    let snap = fsa_telemetry::drain();
    fsa_telemetry::set_enabled(false);
    assert_eq!(result, untraced, "telemetry changed the result");

    let traces: Vec<_> = snap
        .convergence
        .iter()
        .filter(|t| t.name == "admm")
        .collect();
    assert_eq!(traces.len(), 1, "one trace per run");
    assert_eq!(traces[0].ctx, "attack", "emitted under the attack span");
    let records = &traces[0].records;
    assert_eq!(records.len(), result.admm_history.len());
    assert_eq!(records.len(), result.objective_history.len());
    for ((rec, it), &obj) in records
        .iter()
        .zip(&result.admm_history)
        .zip(&result.objective_history)
    {
        assert_eq!(rec.iter as usize, it.iter);
        assert_eq!(rec.objective.to_bits(), obj.to_bits());
        assert_eq!(rec.primal.to_bits(), it.primal_residual.to_bits());
        assert_eq!(rec.dual.to_bits(), it.dual_residual.to_bits());
        assert_eq!(rec.rho.to_bits(), it.rho.to_bits());
    }
    // With refine off and no stealth the answer is the last z-step, so
    // the last record's support is the reported ℓ0.
    assert_eq!(records.last().unwrap().support as usize, result.l0);

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    assert_eq!(counter("admm.runs"), 1);
    assert_eq!(counter("admm.iterations"), records.len() as u64);
    let stop = if result.converged {
        "admm.converged"
    } else {
        "admm.hit_cap"
    };
    assert_eq!(counter(stop), 1);
    assert!(snap.spans.iter().any(|(path, _)| path == "attack/admm"));
}
