//! Golden-artifact regression for the **randomized defense suite**: the
//! tiny seed-2027 stealth campaign (the `golden_stealth` fixture
//! victim) scored under a pinned audit schedule, with per-detector
//! alarm counts pinned against the committed fixture
//! `tests/golden_codefense.txt`. The schedule is part of the pin: the
//! detector names embed the forked per-granularity seeds, so a change
//! to the seed plumbing, the phase-offset draw, the parity family, or
//! the expected-detection closed form shows up as a fixture diff — the
//! re-armed suite cannot silently drift.
//!
//! Alarm counts are integers and the clean row is a bit (`detect_at`
//! ties alarm), so every pinned value is exact — no tolerances.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_codefense
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignReport};
use fault_sneaking::attack::ParamSelection;
use fault_sneaking::defense::{DefenseSuite, StealthArena};
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::Prng;

mod common;
use common::clustered;
#[path = "common/golden.rs"]
mod golden;
#[path = "common/stealth_sweep.rs"]
mod stealth_sweep;
use stealth_sweep::{geometry, sweep};

const AUDIT_SEED: u64 = 0xA0D1_7EED;

/// The `golden_stealth` fixture campaign — same seed, same victim, same
/// 2×2 grid — plus a probe split and a held-out probe for calibrating
/// the re-armed suite. The probe draws come *after* every campaign
/// draw, so the attack bits stay aligned with the stealth fixture.
fn run_fixture() -> (
    FcHead,
    CampaignReport,
    FeatureCache,
    Vec<usize>,
    FeatureCache,
) {
    let (head, features, labels, mut rng) = stealth_sweep::victim();
    let (probe, probe_labels) = clustered(40, 12, 3, 2.0, 0.4, &mut rng);
    let mut holdout_rng = Prng::new(0xC0DE);
    let (holdout, _) = clustered(40, 12, 3, 2.0, 0.4, &mut holdout_rng);
    let campaign = Campaign::new(
        &head,
        ParamSelection::last_layer(&head),
        FeatureCache::from_features(features),
        labels,
    );
    let report = campaign.run(&sweep().with_suite_seed(Some(AUDIT_SEED)));
    (
        head,
        report,
        FeatureCache::from_features(probe),
        probe_labels,
        FeatureCache::from_features(holdout),
    )
}

#[test]
fn randomized_suite_scoring_matches_golden_fixture() {
    let (head, report, probe, probe_labels, holdout) = run_fixture();
    assert_eq!(report.len(), 4, "2×2 sweep must yield 4 scenarios");

    let suite = DefenseSuite::randomized(
        &head,
        &probe,
        &probe_labels,
        &holdout,
        geometry(),
        0.1,
        0.75,
        0.75,
        AUDIT_SEED,
    );
    let arena = StealthArena::new(&head, ParamSelection::last_layer(&head), suite);
    let scored = arena.score_report(&report);

    // Semantic constraints that hold regardless of the fixture: the
    // clean row never alarms, the seed is stamped on the matrix, and
    // the CRC family catches every parity-even stealth plan (the whole
    // point of the re-armed suite).
    assert_eq!(scored.suite_seed, Some(AUDIT_SEED));
    assert!(
        scored.clean.iter().all(|v| !v.detected),
        "clean row alarmed"
    );
    let crc = scored.column("dram_row_crc").expect("row CRC column");
    assert_eq!(
        scored.detection_rate(crc),
        1.0,
        "row CRC must catch every stealth plan"
    );

    let mut rendered = String::from(
        "# Golden fixture for the randomized-suite scoring of the seed-2027 stealth sweep.\n\
         # Written by `GOLDEN_REGEN=1 cargo test --test golden_codefense`.\n\
         # alarms_<detector> = number of the 4 scenarios that detector flags\n",
    );
    rendered.push_str(&format!("n_scenarios={}\n", scored.len()));
    rendered.push_str(&format!("suite_seed={:#010x}\n", AUDIT_SEED));
    rendered.push_str(&format!(
        "arena_fingerprint={:#018x}\n",
        scored.fingerprint()
    ));
    rendered.push_str(&format!("detectors={}\n", scored.detectors.join(",")));
    for (c, name) in scored.detectors.iter().enumerate() {
        let alarms = scored
            .rows
            .iter()
            .filter(|r| r.verdicts[c].detected)
            .count();
        rendered.push_str(&format!("alarms_{name}={alarms}\n"));
    }

    let Some(golden) = golden::load("golden_codefense.txt", &rendered) else {
        return;
    };
    let get = |k: &str| golden.get(k);

    assert_eq!(get("n_scenarios"), scored.len().to_string());
    assert_eq!(get("suite_seed"), format!("{AUDIT_SEED:#010x}"));
    assert_eq!(
        get("arena_fingerprint"),
        format!("{:#018x}", scored.fingerprint()),
        "arena fingerprint drifted — schedule, scores, or seed plumbing changed"
    );
    assert_eq!(
        get("detectors"),
        scored.detectors.join(","),
        "detector roster (or an embedded schedule seed) drifted"
    );
    for (c, name) in scored.detectors.iter().enumerate() {
        let alarms = scored
            .rows
            .iter()
            .filter(|r| r.verdicts[c].detected)
            .count();
        assert_eq!(
            get(&format!("alarms_{name}")),
            alarms.to_string(),
            "{name}: alarm count drifted from fixture"
        );
    }
}
