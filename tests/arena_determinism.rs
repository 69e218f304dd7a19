//! Integration: the attack-vs-defense stealth arena is
//! **bit-deterministic in the thread count** — for every attack method
//! (FSA, SBA, GDA), both the campaign report and the full
//! attack×detector [`ArenaReport`] (every verdict's score bits and
//! decision) are identical whether scenario scoring runs serially or
//! concurrently, at `FSA_THREADS` = 1, 2, 3, and 8. This extends the
//! campaign guarantee of `tests/campaign_determinism.rs` across the
//! defense layer: detector evaluation must be a pure fixed-order
//! function of bit-deterministic model outputs at every nesting level.

use fault_sneaking::attack::campaign::{AttackMethod, Campaign, CampaignSpec, FsaMethod};
use fault_sneaking::attack::{AttackConfig, GdaMethod, ParamSelection, SbaMethod};
use fault_sneaking::defense::{ArenaReport, DefenseSuite, StealthArena};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::parallel::{self, lock_threads};

mod common;
#[path = "common/rows.rs"]
mod rows;
#[path = "common/victim.rs"]
mod victim;
use victim::victim;

fn suite(head: &FcHead, probe: &FeatureCache, probe_labels: &[usize]) -> DefenseSuite {
    DefenseSuite::standard(
        head,
        probe,
        probe_labels,
        // Small rows (16 params each) so the parity monitor has real
        // granularity over this head's ~1.1k parameters.
        DramGeometry {
            banks: 2,
            rows_per_bank: 256,
            row_bytes: 64,
        },
        0.1,
        0.75,
    )
}

fn sweep() -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![4, 12])
        .with_config(AttackConfig {
            iterations: 80,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0)
}

#[test]
fn arena_matrix_is_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let (head, pool, pool_labels, probe, probe_labels) = victim(616161, &[16, 24, 24, 4], 120, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), pool, pool_labels);
    let arena = StealthArena::new(&head, selection, suite(&head, &probe, &probe_labels));
    let spec = sweep();
    let methods: Vec<&dyn AttackMethod> = vec![&FsaMethod, &SbaMethod, &GdaMethod];

    guard.set(1);
    let reference: Vec<ArenaReport> = methods
        .iter()
        .map(|m| arena.score_report(&campaign.run_method(&spec, *m)))
        .collect();
    // The comparison must not be vacuous: some attack must trip some
    // detector, and the clean row must trip none.
    assert!(
        reference.iter().any(|r| r
            .rows
            .iter()
            .any(|row| row.verdicts.iter().any(|v| v.detected))),
        "no attack tripped any detector; the fixture is too weak"
    );
    for r in &reference {
        assert_eq!(r.len(), spec.len());
        assert!(
            r.clean.iter().all(|v| !v.detected),
            "{}: clean model tripped a detector",
            r.method
        );
    }

    for threads in [2, 3, 8] {
        guard.set(threads);
        for (m, want) in methods.iter().zip(&reference) {
            let got = arena.score_report(&campaign.run_method(&spec, *m));
            assert!(
                got == *want,
                "{} arena report changed bits at {threads} threads — \
                 scenario scoring leaked the partition into a verdict",
                want.method
            );
            assert_eq!(got.fingerprint(), want.fingerprint());
        }
    }
}

/// An arena walled off under `with_budget(1, ..)` must degrade to a
/// serial sweep of the same bits — the budget contract of the nesting
/// level the arena adds on top of campaigns.
#[test]
fn arena_respects_thread_budget_walls() {
    let guard = lock_threads();
    let (head, pool, pool_labels, probe, probe_labels) = victim(616161, &[16, 24, 24, 4], 120, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), pool, pool_labels);
    let arena = StealthArena::new(&head, selection, suite(&head, &probe, &probe_labels));
    let spec = CampaignSpec::grid(vec![1], vec![6]).with_config(AttackConfig {
        iterations: 50,
        ..AttackConfig::default()
    });

    guard.set(8);
    let report = campaign.run(&spec);
    let wide = arena.score_report(&report);
    let walled = parallel::with_budget(1, || arena.score_report(&report));
    assert!(
        wide == walled,
        "budget-walled arena diverged from the wide-budget run"
    );
}
