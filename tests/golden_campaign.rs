//! Golden-artifact regression: a tiny 2×2 campaign sweep (S ∈ {1, 2} ×
//! K ∈ {4, 8}, seed 2024) pinned against the committed fixture
//! `tests/golden_campaign.txt`, so campaign-engine or solver refactors
//! cannot silently drift any scenario's outcome. Integer outcomes
//! (successes, keeps, ℓ0 supports, targets) are pinned exactly — the
//! stack is bit-deterministic — and only the float magnitudes carry a
//! tolerance.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_campaign
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignReport, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, ParamSelection};
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::tensor::Prng;

mod common;
use common::{clustered, train};
#[path = "common/golden.rs"]
mod golden;

fn run_fixture_campaign() -> CampaignReport {
    let mut rng = Prng::new(2024);
    let (features, labels) = clustered(120, 12, 3, 2.0, 0.4, &mut rng);
    let head = train(&[12, 24, 3], &features, &labels, 30, &mut rng);
    let campaign = Campaign::new(
        &head,
        ParamSelection::last_layer(&head),
        FeatureCache::from_features(features),
        labels,
    );
    // The 2×2 grid: S ∈ {1, 2} × K ∈ {4, 8}, default ℓ0 budget.
    let spec = CampaignSpec::grid(vec![1, 2], vec![4, 8])
        .with_seeds(vec![2024])
        .with_config(AttackConfig {
            iterations: 200,
            ..AttackConfig::default()
        });
    campaign.run(&spec)
}

#[test]
fn tiny_campaign_sweep_matches_golden_fixture() {
    let report = run_fixture_campaign();
    assert_eq!(report.len(), 4, "2×2 sweep must yield 4 scenarios");

    // Semantic constraints first — these hold regardless of the fixture.
    for o in &report.outcomes {
        assert_eq!(
            o.result.s_success, o.scenario.s,
            "scenario {} fault(s) must land: {:?}",
            o.scenario.index, o.result
        );
        assert!(
            o.result.unchanged_rate() >= 0.75,
            "scenario {} lost stealth: {:?}",
            o.scenario.index,
            o.result
        );
        assert!(
            o.result.l0 > 0 && o.result.l0 < o.result.delta.len(),
            "scenario {} δ support must be sparse and non-empty",
            o.scenario.index
        );
    }

    let mut rendered = String::from(
        "# Golden fixture for the 2x2 campaign sweep (seed 2024).\n\
         # Written by `GOLDEN_REGEN=1 cargo test --test golden_campaign`.\n\
         # scenario_<i> = s,k,s_success,keep_unchanged,l0,l2,targets(+-joined)\n",
    );
    rendered.push_str(&format!("n_scenarios={}\n", report.len()));
    rendered.push_str(&format!(
        "mean_success_rate={:.6}\n",
        report.mean_success_rate()
    ));
    rendered.push_str(&format!(
        "mean_unchanged_rate={:.6}\n",
        report.mean_unchanged_rate()
    ));
    for o in &report.outcomes {
        rendered.push_str(&format!(
            "scenario_{}={},{},{},{},{},{:.6},{}\n",
            o.scenario.index,
            o.scenario.s,
            o.scenario.k,
            o.result.s_success,
            o.result.keep_unchanged,
            o.result.l0,
            o.result.l2,
            o.targets
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        ));
    }

    let Some(golden) = golden::load("golden_campaign.txt", &rendered) else {
        return;
    };
    let get = |k: &str| golden.get(k);

    assert_eq!(get("n_scenarios"), report.len().to_string());
    for (key, got) in [
        ("mean_success_rate", report.mean_success_rate()),
        ("mean_unchanged_rate", report.mean_unchanged_rate()),
    ] {
        let expect: f64 = get(key).parse().unwrap();
        assert!(
            (got - expect).abs() <= 1e-6 + 1e-4 * expect.abs(),
            "{key} drifted: {got} vs fixture {expect}"
        );
    }
    for o in &report.outcomes {
        let line = get(&format!("scenario_{}", o.scenario.index));
        let parts: Vec<&str> = line.split(',').collect();
        assert_eq!(parts.len(), 7, "malformed fixture line: {line}");
        assert_eq!(parts[0], o.scenario.s.to_string(), "s drifted");
        assert_eq!(parts[1], o.scenario.k.to_string(), "k drifted");
        assert_eq!(
            parts[2],
            o.result.s_success.to_string(),
            "scenario {} s_success drifted",
            o.scenario.index
        );
        assert_eq!(
            parts[3],
            o.result.keep_unchanged.to_string(),
            "scenario {} keep_unchanged drifted",
            o.scenario.index
        );
        assert_eq!(
            parts[4],
            o.result.l0.to_string(),
            "scenario {} ℓ0 support drifted",
            o.scenario.index
        );
        let l2_expect: f32 = parts[5].parse().unwrap();
        assert!(
            (o.result.l2 - l2_expect).abs() <= 1e-4 * (1.0 + l2_expect.abs()),
            "scenario {} ℓ2 drifted: {} vs fixture {l2_expect}",
            o.scenario.index,
            o.result.l2
        );
        let targets_expect = if parts[6].is_empty() {
            Vec::new()
        } else {
            parts[6]
                .split('+')
                .map(|s| s.parse::<usize>().unwrap())
                .collect()
        };
        assert_eq!(
            o.targets, targets_expect,
            "scenario {} targets drifted",
            o.scenario.index
        );
    }
}
