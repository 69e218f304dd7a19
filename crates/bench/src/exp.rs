//! Frozen experiment configuration and the single-run helper shared by
//! every table/figure binary.
//!
//! Hyperparameters were tuned once on the digits victim and are
//! *frozen here* so every binary reports the same attack (ROADMAP.md,
//! direction 1, tracks how quality moves with the iteration cap):
//!
//! * `c_attack = 10, c_keep = 1` — the paper's `c_i` "relative
//!   importance" (Sec. 3.2): designated faults outweigh individual
//!   keep-set images;
//! * 600 ADMM iterations, ρ = 5, λ = 0.001, κ = 1, a 60-step refine
//!   pass, and the solver's one Bregman stiffness rule (measured
//!   gradient leverage × 2.0, not a setting) — see
//!   [`fsa_attack::AttackConfig`].

use crate::artifacts::Artifacts;
use fsa_attack::{AttackConfig, AttackResult, FaultSneakingAttack, ParamSelection};

/// Weight on the `S` designated-fault hinge terms.
pub const C_ATTACK: f32 = 10.0;
/// Weight on each keep-set hinge term.
pub const C_KEEP: f32 = 1.0;
/// Base seed for spec sampling; vary to average over draws.
pub const BASE_SEED: u64 = 42;

/// The frozen attack configuration used by all experiments.
pub fn experiment_config() -> AttackConfig {
    AttackConfig {
        iterations: 600,
        ..AttackConfig::default()
    }
}

/// Configuration for bias-only selections (Table 2): bias coordinates get
/// `O(c)` gradients with no activation leverage, so the ratchet toward
/// the needed logit shift needs more iterations.
pub fn bias_experiment_config() -> AttackConfig {
    AttackConfig {
        iterations: 2000,
        ..AttackConfig::default()
    }
}

/// Everything a table row needs about one attack run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// Raw attack result.
    pub result: AttackResult,
    /// Test accuracy of the modified model.
    pub test_accuracy: f32,
}

/// Runs one `(S, R)` attack configuration against `art` and measures it.
pub fn run_one(
    art: &Artifacts,
    selection: &ParamSelection,
    s: usize,
    r: usize,
    seed: u64,
    config: &AttackConfig,
) -> RunMetrics {
    let spec = art.make_spec(s, r, seed).with_weights(C_ATTACK, C_KEEP);
    let attack = FaultSneakingAttack::new(art.head(), selection.clone(), config.clone());
    let result = attack.run(&spec);
    assert_sane(
        &result,
        selection.dim(art.head()),
        &format!("S={s}, R={r}, seed={seed}"),
    );
    let mut attacked = art.head().clone();
    fsa_attack::eval::apply_delta(&mut attacked, selection, attack.theta0(), &result.delta);
    let test_accuracy = art.test_accuracy(&attacked, selection.start_layer());
    assert!(
        (0.0..=1.0).contains(&test_accuracy),
        "test accuracy {test_accuracy} out of range"
    );
    RunMetrics {
        result,
        test_accuracy,
    }
}

/// The sanity gate every attack run passes: a finite δ of the
/// selection's length `dim`, consistent norms, and possible counters.
/// A run that produces structurally impossible numbers must abort its
/// binary or test (non-zero exit) instead of flowing silently into a
/// report row or a claim.
///
/// # Panics
///
/// Panics, naming the broken invariant and `context`, when `result`
/// breaks one.
pub fn assert_sane(result: &AttackResult, dim: usize, context: &str) {
    assert_eq!(
        result.delta.len(),
        dim,
        "{context}: δ length disagrees with the selection dimension"
    );
    assert!(
        result.delta.iter().all(|v| v.is_finite()),
        "{context}: attack produced a non-finite δ"
    );
    assert!(
        result.l0 <= result.delta.len() && result.l2.is_finite() && result.l2 >= 0.0,
        "{context}: inconsistent δ norms (l0={}, l2={})",
        result.l0,
        result.l2
    );
    assert!(
        result.s_success <= result.s_total && result.keep_unchanged <= result.keep_total,
        "{context}: impossible success/keep counters ({}/{}, {}/{})",
        result.s_success,
        result.s_total,
        result.keep_unchanged,
        result.keep_total
    );
}

/// Runs `seeds` independent draws and averages the scalar metrics
/// (`l0`, `l2`, success rate, unchanged rate, test accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanMetrics {
    /// Mean `‖δ‖₀`.
    pub l0: f64,
    /// Mean `‖δ‖₂`.
    pub l2: f64,
    /// Mean fault success rate.
    pub success_rate: f64,
    /// Mean successful-fault count.
    pub s_success: f64,
    /// Mean keep-set unchanged rate.
    pub unchanged_rate: f64,
    /// Mean test accuracy after the attack.
    pub test_accuracy: f64,
}

/// Averages [`run_one`] over `n_seeds` seeds.
pub fn run_mean(
    art: &Artifacts,
    selection: &ParamSelection,
    s: usize,
    r: usize,
    n_seeds: u64,
    config: &AttackConfig,
) -> MeanMetrics {
    assert!(n_seeds > 0, "need at least one seed");
    let mut acc = MeanMetrics {
        l0: 0.0,
        l2: 0.0,
        success_rate: 0.0,
        s_success: 0.0,
        unchanged_rate: 0.0,
        test_accuracy: 0.0,
    };
    for k in 0..n_seeds {
        let m = run_one(art, selection, s, r, BASE_SEED + 1000 * k, config);
        acc.l0 += m.result.l0 as f64;
        acc.l2 += m.result.l2 as f64;
        acc.success_rate += m.result.success_rate() as f64;
        acc.s_success += m.result.s_success as f64;
        acc.unchanged_rate += m.result.unchanged_rate() as f64;
        acc.test_accuracy += m.test_accuracy as f64;
    }
    let n = n_seeds as f64;
    acc.l0 /= n;
    acc.l2 /= n;
    acc.success_rate /= n;
    acc.s_success /= n;
    acc.unchanged_rate /= n;
    acc.test_accuracy /= n;
    acc
}
