//! Integration: the **randomized defense suite** keeps the arena's
//! bit-determinism guarantee. Every seeded monitor draws its schedule
//! once, at calibration — scoring is a pure fixed-order function of the
//! observation — so for a pinned audit-schedule seed the whole
//! campaign-plus-scoring pipeline must be bit-identical at
//! `FSA_THREADS` = 1, 2, 3, 8 in both precisions, rebuilding the suite
//! from the same seed must reproduce the scored matrix exactly, and a
//! different seed must be a visibly different experiment (different
//! detector names, different arena fingerprint).

use fault_sneaking::attack::campaign::{Campaign, CampaignReport, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, ParamSelection, Precision, StealthObjective};
use fault_sneaking::defense::{ArenaReport, DefenseSuite, StealthArena};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::tensor::parallel::lock_threads;
use fault_sneaking::tensor::{Prng, Tensor};

mod common;
#[path = "common/rows.rs"]
mod rows;
#[path = "common/victim.rs"]
mod victim;
use victim::victim;

const AUDIT_SEED: u64 = 0xA0D1_7EED;

/// The held-out drift probe: a fresh stream the attack pipeline never
/// touches.
fn holdout() -> FeatureCache {
    let mut rng = Prng::new(0xC0DE);
    FeatureCache::from_features(Tensor::randn(&[40, 14], 1.0, &mut rng))
}

fn geometry() -> DramGeometry {
    DramGeometry {
        banks: 2,
        rows_per_bank: 256,
        row_bytes: 64,
    }
}

fn rearmed_suite(
    reference: &FcHead,
    probe: &FeatureCache,
    labels: &[usize],
    seed: u64,
) -> DefenseSuite {
    DefenseSuite::randomized(
        reference,
        probe,
        labels,
        &holdout(),
        geometry(),
        0.1,
        0.75,
        0.75,
        seed,
    )
}

fn sweep(precision: Precision, stealth: Option<StealthObjective>) -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![4, 10])
        .with_config(AttackConfig {
            iterations: 80,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0)
        .with_precision(precision)
        .with_stealth(stealth)
        .with_suite_seed(Some(AUDIT_SEED))
}

#[test]
fn randomized_suite_scoring_is_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let (head, pool, pool_labels, probe, probe_labels) = victim(727272, &[14, 20, 3], 110, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), pool, pool_labels);
    let deq = QuantizedHead::quantize(&head).dequantized_head();

    let f32_arena = StealthArena::new(
        &head,
        selection.clone(),
        rearmed_suite(&head, &probe, &probe_labels, AUDIT_SEED),
    );
    let int8_arena = StealthArena::new(
        &deq,
        selection.clone(),
        rearmed_suite(&deq, &probe, &probe_labels, AUDIT_SEED),
    )
    .with_precision(Precision::Int8);

    // Plain and detector-aware rows in both precisions: the stealth
    // rows exercise every monitor the re-armed suite adds (shifted
    // audit phases over a co-located support, parity-even plans against
    // the CRC family, the held-out drift column).
    let objective = StealthObjective::new(16, 0.5, geometry(), 10.0).with_block_cap(2);
    let specs = [
        sweep(Precision::F32, None),
        sweep(Precision::F32, Some(objective)),
        sweep(Precision::Int8, None),
        sweep(Precision::Int8, Some(objective)),
    ];
    let score = |r: &CampaignReport| -> ArenaReport {
        match r.precision {
            Precision::F32 => f32_arena.score_report(r),
            Precision::Int8 => int8_arena.score_report(r),
        }
    };

    guard.set(1);
    let reference: Vec<(CampaignReport, ArenaReport)> = specs
        .iter()
        .map(|s| {
            let r = campaign.run(s);
            let a = score(&r);
            (r, a)
        })
        .collect();
    for (r, a) in &reference {
        // The seed rides spec → report → arena row intact.
        assert_eq!(r.suite_seed, Some(AUDIT_SEED));
        assert_eq!(a.suite_seed, Some(AUDIT_SEED));
        assert!(a.clean.iter().all(|v| !v.detected), "clean row alarmed");
    }

    for threads in [2, 3, 8] {
        guard.set(threads);
        for (spec, (want_r, want_a)) in specs.iter().zip(&reference) {
            let got_r = campaign.run(spec);
            let got_a = score(&got_r);
            assert!(
                got_r == *want_r,
                "campaign report changed bits at {threads} threads ({:?})",
                spec.precision
            );
            assert!(
                got_a == *want_a,
                "randomized-suite arena report changed bits at {threads} threads ({:?})",
                spec.precision
            );
        }
    }
    drop(guard);

    // Same seed, fresh suite: the scored matrix is reproduced exactly.
    let rebuilt = StealthArena::new(
        &head,
        selection.clone(),
        rearmed_suite(&head, &probe, &probe_labels, AUDIT_SEED),
    );
    assert!(
        rebuilt.score_report(&reference[1].0) == reference[1].1,
        "rebuilding the suite from the same schedule seed moved bits"
    );

    // Different seed: different schedule, different detector names,
    // different fingerprint — never a silent collision.
    let other = StealthArena::new(
        &head,
        selection.clone(),
        rearmed_suite(&head, &probe, &probe_labels, AUDIT_SEED ^ 1),
    );
    let other_scored = other.score_report(&reference[1].0);
    assert_ne!(other_scored.detectors, reference[1].1.detectors);
    assert_ne!(other_scored.fingerprint(), reference[1].1.fingerprint());
}
