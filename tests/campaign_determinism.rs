//! Integration: the concurrent attack-campaign engine is
//! **bit-deterministic in the thread count** — the full
//! `CampaignReport` (every scenario's δ, counters, and histories) is
//! identical whether the scenario matrix runs serially or concurrently,
//! at `FSA_THREADS` = 1, 2, 3, and 8. This extends the single-attack
//! guarantee of `tests/thread_determinism.rs` up one nesting level:
//! attack-level workers and kernel-level row blocks must compose
//! without leaking the partition into any result.

use fault_sneaking::attack::campaign::{Campaign, CampaignSpec, SparsityBudget};
use fault_sneaking::attack::{AttackConfig, ParamSelection};
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::parallel::lock_threads;
use fault_sneaking::tensor::{parallel, Prng};

mod common;
use common::{clustered, train};

/// A trained head over clustered features plus its feature-cache pool.
fn victim() -> (FcHead, FeatureCache, Vec<usize>) {
    let mut rng = Prng::new(515151);
    let (x, labels) = clustered(140, 16, 4, 1.5, 0.4, &mut rng);
    let head = train(&[16, 24, 24, 4], &x, &labels, 10, &mut rng);
    (head, FeatureCache::from_features(x), labels)
}

fn sweep() -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![2, 6])
        .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
        .with_seeds(vec![42, 43])
        .with_config(AttackConfig {
            iterations: 80,
            ..AttackConfig::default()
        })
}

#[test]
fn campaign_report_is_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let (head, cache, labels) = victim();
    let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
    let spec = sweep();
    assert_eq!(spec.len(), 16, "fixture sweep should cover 16 scenarios");

    guard.set(1);
    let reference = campaign.run(&spec);
    assert_eq!(reference.len(), 16);
    assert!(
        reference
            .outcomes
            .iter()
            .any(|o| o.result.delta.iter().any(|&v| v != 0.0)),
        "fixture campaign produced only empty δs; the comparison is vacuous"
    );
    assert!(
        reference.mean_success_rate() > 0.8,
        "fixture campaign mostly failed: {}",
        reference.mean_success_rate()
    );

    for threads in [2, 3, 8] {
        guard.set(threads);
        let got = campaign.run(&spec);
        assert!(
            got == reference,
            "campaign report changed bits at {threads} threads — \
             attack-level dispatch leaked into results"
        );
        assert_eq!(got.fingerprint(), reference.fingerprint());
    }
}

/// A campaign walled off under `with_budget(1, ..)` must degrade to a
/// serial sweep of the same bits — the budget contract of the nesting
/// level the campaign adds.
#[test]
fn campaign_respects_thread_budget_walls() {
    let guard = lock_threads();
    let (head, cache, labels) = victim();
    let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
    let spec = CampaignSpec::grid(vec![1], vec![3]).with_config(AttackConfig {
        iterations: 50,
        ..AttackConfig::default()
    });

    guard.set(8);
    let wide = campaign.run(&spec);
    let walled = parallel::with_budget(1, || campaign.run(&spec));
    assert!(
        wide == walled,
        "budget-walled campaign diverged from the wide-budget run"
    );
}
