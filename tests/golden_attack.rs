//! Golden-artifact regression: the quickstart attack spec (seed 2024,
//! `examples/quickstart.rs`) run end-to-end and asserted against the
//! committed fixture `tests/golden_quickstart.txt`, so solver or
//! kernel refactors cannot silently drift the attack's accuracy
//! behaviour. The whole stack is bit-deterministic in the thread count,
//! so the fixture pins exact predictions and support size; only the
//! float magnitudes carry a tolerance.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_attack
//! ```

use fault_sneaking::attack::{
    eval, AttackConfig, AttackResult, AttackSpec, FaultSneakingAttack, ParamSelection,
    StealthObjective,
};
use fault_sneaking::memfault::dram::DramGeometry;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::hash::Fnv1a;
use fault_sneaking::tensor::{Prng, Tensor};

mod common;
use common::{clustered, train};
#[path = "common/golden.rs"]
mod golden;
#[path = "common/rows.rs"]
mod rows;
use rows::rows;

/// The quickstart victim: a 12→24→3 head trained on 120 clustered
/// points (seed 2024), with its training features and labels.
fn quickstart_victim() -> (FcHead, Tensor, Vec<usize>) {
    let mut rng = Prng::new(2024);
    let (features, labels) = clustered(120, 12, 3, 2.0, 0.4, &mut rng);
    let head = train(&[12, 24, 3], &features, &labels, 30, &mut rng);
    (head, features, labels)
}

/// The quickstart working set: the first 20 points, the first `s` of
/// them retargeted to the next class.
fn quickstart_spec(features: &Tensor, labels: &[usize], s: usize) -> AttackSpec {
    let (working, working_labels) = rows(features, labels, 0..20);
    let targets = working_labels[..s].iter().map(|&l| (l + 1) % 3).collect();
    AttackSpec::new(working, working_labels, targets).with_weights(10.0, 1.0)
}

#[test]
fn quickstart_attack_matches_golden_fixture() {
    let (head, features, labels) = quickstart_victim();
    let victim_accuracy = head.accuracy(&features, &labels);

    let spec = quickstart_spec(&features, &labels, 1);
    let target = spec.targets[0];

    let selection = ParamSelection::last_layer(&head);
    let attack = FaultSneakingAttack::new(&head, selection.clone(), AttackConfig::default());
    let result = attack.run(&spec);

    let mut attacked = head.clone();
    eval::apply_delta(&mut attacked, &selection, attack.theta0(), &result.delta);
    let attacked_accuracy = attacked.accuracy(&features, &labels);
    let post_preds = attacked.predict(&features);

    // Semantic constraints first — these hold regardless of the fixture.
    assert_eq!(result.s_success, 1, "designated fault must land");
    assert_eq!(
        post_preds[0], target,
        "image 0 must be misrouted to its target"
    );
    let keep_hits = (1..20).filter(|&i| post_preds[i] == labels[i]).count();
    assert_eq!(
        keep_hits, result.keep_unchanged,
        "keep accounting disagrees with full-model predictions"
    );
    assert!(
        result.unchanged_rate() >= 0.9,
        "classification-preserving constraint broken: {result:?}"
    );
    assert!(
        result.l0 > 0 && result.l0 < result.delta.len(),
        "δ support must be sparse and non-empty"
    );

    let rendered = format!(
        "# Golden fixture for the quickstart attack spec (seed 2024).\n\
         # Written by `GOLDEN_REGEN=1 cargo test --test golden_attack`.\n\
         s_success={}\n\
         keep_unchanged={}\n\
         l0={}\n\
         l2={:.6}\n\
         victim_accuracy={:.6}\n\
         attacked_accuracy={:.6}\n\
         post_attack_preds={}\n",
        result.s_success,
        result.keep_unchanged,
        result.l0,
        result.l2,
        victim_accuracy,
        attacked_accuracy,
        post_preds
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(","),
    );

    let Some(golden) = golden::load("golden_quickstart.txt", &rendered) else {
        return;
    };
    let get = |k: &str| golden.get(k);

    assert_eq!(get("s_success"), result.s_success.to_string(), "s_success");
    assert_eq!(
        get("keep_unchanged"),
        result.keep_unchanged.to_string(),
        "keep_unchanged"
    );
    assert_eq!(get("l0"), result.l0.to_string(), "l0 support size drifted");
    let l2_expect: f32 = get("l2").parse().unwrap();
    assert!(
        (result.l2 - l2_expect).abs() <= 1e-4 * (1.0 + l2_expect.abs()),
        "l2 drifted: {} vs fixture {}",
        result.l2,
        l2_expect
    );
    for (key, got) in [
        ("victim_accuracy", victim_accuracy),
        ("attacked_accuracy", attacked_accuracy),
    ] {
        let expect: f32 = get(key).parse().unwrap();
        assert!(
            (got - expect).abs() <= 1e-6 + 1e-4 * expect.abs(),
            "{key} drifted: {got} vs fixture {expect}"
        );
    }
    let preds_expect: Vec<usize> = get("post_attack_preds")
        .split(',')
        .map(|s| s.parse().unwrap())
        .collect();
    assert_eq!(
        post_preds, preds_expect,
        "post-attack predictions drifted from the committed fixture"
    );
}

/// FNV-1a over everything an ADMM run reports: δ bits, every objective
/// and residual record, the stop flag and both hinge counts. The
/// history is fed as its objectives, then `(index, primal, dual, ρ)` per
/// iteration with the run's fixed ρ.
fn run_digest(result: &AttackResult, rho: f32) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(result.delta.len() as u64);
    for &d in &result.delta {
        h.write_f32_bits(d);
    }
    h.write_u64(result.admm_history.len() as u64);
    for it in &result.admm_history {
        h.write_f32_bits(it.objective);
    }
    h.write_u64(result.admm_history.len() as u64);
    for (i, it) in result.admm_history.iter().enumerate() {
        h.write_u64(i as u64);
        h.write_f32_bits(it.primal_residual);
        h.write_f32_bits(it.dual_residual);
        h.write_f32_bits(rho);
    }
    h.write_u64(u64::from(result.converged));
    h.write_u64(result.s_success as u64);
    h.write_u64(result.keep_unchanged as u64);
    h.finish()
}

/// Pins the whole ADMM trajectory, not just its answer: for the
/// quickstart victim, S ∈ {0, 2} × stealth off/on × four configs, the
/// digest of δ, the objective and residual histories, `converged` and
/// the hinge counts. The constants move only with an intended change
/// to the iteration; the failure message prints the new digests.
#[test]
fn quickstart_admm_histories_match_their_recorded_digests() {
    const RECORDED: [u64; 16] = [
        0x44df1d53f8e32055,
        0x1fc751ddf60b6c0e,
        0x44df1d53f8e32055,
        0x26687e5c7fdd33ab,
        0xfe56e9d12d3d30d5,
        0x08539a2ae9dc7bc7,
        0xfe56e9d12d3d30d5,
        0x26687e5c7fdd33ab,
        0xb535dbf22095820f,
        0x3d8f9c5b4b41e8f9,
        0x9e9eacf37596316f,
        0xed8b09beced75c70,
        0x8b10dfcbc43d4d50,
        0x8dcc01f72b557ea3,
        0x453dc2497f5aedd7,
        0x32768c0767895599,
    ];
    let (head, features, labels) = quickstart_victim();
    let stealth = StealthObjective::new(
        16,
        0.5,
        DramGeometry {
            banks: 2,
            rows_per_bank: 512,
            row_bytes: 64,
        },
        0.75,
    )
    .with_block_cap(3);
    let configs = [
        AttackConfig::default(),
        AttackConfig::l2(),
        AttackConfig {
            refine: None,
            ..AttackConfig::default()
        },
        AttackConfig {
            kappa: 0.0,
            ..AttackConfig::default()
        },
    ];
    let mut got = Vec::new();
    let mut stops = Vec::new();
    for s in [0, 2] {
        for objective in [None, Some(stealth)] {
            let spec = quickstart_spec(&features, &labels, s).with_stealth(objective);
            for cfg in &configs {
                let result =
                    FaultSneakingAttack::new(&head, ParamSelection::last_layer(&head), cfg.clone())
                        .run(&spec);
                stops.push((result.converged, result.admm_history.len()));
                got.push(run_digest(&result, cfg.rho));
            }
        }
    }
    // Both stop paths are exercised: κ = 0 at S = 0 starts with every
    // hinge satisfied and stops after one iteration, the S = 2 runs end
    // at the cap.
    assert!(
        stops.contains(&(true, 1)),
        "no run stopped on the residual rule"
    );
    assert!(
        stops.contains(&(false, 400)),
        "no run hit the iteration cap"
    );
    let rendered: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, RECORDED, "digests now: [{}]", rendered.join(", "));
}
