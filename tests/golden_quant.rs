//! Golden-artifact regression for the **int8 precision row**: a tiny
//! 2×2 quantized campaign sweep (S ∈ {1, 2} × K ∈ {4, 8}, seed 2024,
//! `Precision::Int8`) pinned against the committed fixture
//! `tests/golden_quant.txt`, so neither the quantizer (scales,
//! rounding), the grid projection, nor the int8 inference path can
//! silently drift any scenario's outcome. Integer outcomes (successes,
//! keeps, ℓ0 supports, modified bytes, bit flips, targets) are pinned
//! exactly — the quantized stack is bit-deterministic, and its ℓ0/byte
//! counts are *discrete* — and only the ℓ2 magnitude carries a
//! tolerance.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_quant
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignReport, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, ParamSelection, Precision, QuantizedSelection};
use fault_sneaking::memfault::FaultPlan;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::tensor::Prng;

mod common;
use common::{clustered, train};
#[path = "common/golden.rs"]
mod golden;

fn run_fixture_campaign() -> (FcHead, CampaignReport) {
    let mut rng = Prng::new(2024);
    let (features, labels) = clustered(120, 12, 3, 2.0, 0.4, &mut rng);
    let head = train(&[12, 24, 3], &features, &labels, 30, &mut rng);
    let campaign = Campaign::new(
        &head,
        ParamSelection::last_layer(&head),
        FeatureCache::from_features(features),
        labels,
    );
    // The same 2×2 grid as the f32 golden campaign, on int8 storage.
    let spec = CampaignSpec::grid(vec![1, 2], vec![4, 8])
        .with_seeds(vec![2024])
        .with_config(AttackConfig {
            iterations: 200,
            ..AttackConfig::default()
        })
        .with_precision(Precision::Int8);
    let report = campaign.run(&spec);
    (head, report)
}

#[test]
fn tiny_quantized_campaign_matches_golden_fixture() {
    let (head, report) = run_fixture_campaign();
    assert_eq!(report.len(), 4, "2×2 sweep must yield 4 scenarios");
    assert_eq!(report.precision, Precision::Int8);

    let qclean = QuantizedHead::quantize(&head);
    let qsel = QuantizedSelection::gather(&qclean, &ParamSelection::last_layer(&head));

    // Semantic constraints first — these hold regardless of the fixture.
    for o in &report.outcomes {
        assert_eq!(
            o.result.s_success, o.scenario.s,
            "scenario {} fault(s) must survive grid projection: {:?}",
            o.scenario.index, o.result
        );
        assert!(
            o.result.unchanged_rate() >= 0.75,
            "scenario {} lost stealth on the int8 backend: {:?}",
            o.scenario.index,
            o.result
        );
        // The realized δ lies on the grid (projection is idempotent).
        let (_, reprojected) = qsel.project(&o.result.delta);
        assert_eq!(reprojected, o.result.delta, "δ left the int8 grid");
    }

    // Bit-level plans: each scenario's weight-byte image change,
    // compiled. Modified bytes plus touched f32 bias words must account
    // for exactly the realized ℓ0.
    let plans: Vec<FaultPlan> = report
        .outcomes
        .iter()
        .map(|o| {
            let (q_new, _) = qsel.project(&o.result.delta);
            FaultPlan::compile_bytes(qsel.q0(), &q_new)
        })
        .collect();
    for (o, plan) in report.outcomes.iter().zip(&plans) {
        let bias_words = o
            .result
            .delta
            .iter()
            .enumerate()
            .filter(|&(i, &r)| qsel.byte_index(i).is_none() && r != 0.0)
            .count();
        assert_eq!(
            plan.words() + bias_words,
            o.result.l0,
            "scenario {}: bytes + bias words must equal the realized ℓ0",
            o.scenario.index
        );
    }

    let mut rendered = String::from(
        "# Golden fixture for the 2x2 int8 campaign sweep (seed 2024).\n\
         # Written by `GOLDEN_REGEN=1 cargo test --test golden_quant`.\n\
         # scenario_<i> = s,k,s_success,keep_unchanged,l0,l2,bytes,bit_flips,targets(+-joined)\n",
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
    for (o, plan) in report.outcomes.iter().zip(&plans) {
        rendered.push_str(&format!(
            "scenario_{}={},{},{},{},{},{:.6},{},{},{}\n",
            o.scenario.index,
            o.scenario.s,
            o.scenario.k,
            o.result.s_success,
            o.result.keep_unchanged,
            o.result.l0,
            o.result.l2,
            plan.words(),
            plan.total_bit_flips,
            o.targets
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        ));
    }

    let Some(golden) = golden::load("golden_quant.txt", &rendered) else {
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
    for (o, plan) in report.outcomes.iter().zip(&plans) {
        let line = get(&format!("scenario_{}", o.scenario.index));
        let parts: Vec<&str> = line.split(',').collect();
        assert_eq!(parts.len(), 9, "malformed fixture line: {line}");
        let idx = o.scenario.index;
        assert_eq!(parts[0], o.scenario.s.to_string(), "s drifted");
        assert_eq!(parts[1], o.scenario.k.to_string(), "k drifted");
        assert_eq!(
            parts[2],
            o.result.s_success.to_string(),
            "scenario {idx} s_success drifted"
        );
        assert_eq!(
            parts[3],
            o.result.keep_unchanged.to_string(),
            "scenario {idx} keep_unchanged drifted"
        );
        assert_eq!(
            parts[4],
            o.result.l0.to_string(),
            "scenario {idx} ℓ0 support drifted"
        );
        let l2_expect: f32 = parts[5].parse().unwrap();
        assert!(
            (o.result.l2 - l2_expect).abs() <= 1e-4 * (1.0 + l2_expect.abs()),
            "scenario {idx} ℓ2 drifted: {} vs fixture {l2_expect}",
            o.result.l2
        );
        assert_eq!(
            parts[6],
            plan.words().to_string(),
            "scenario {idx} modified-byte count drifted"
        );
        assert_eq!(
            parts[7],
            plan.total_bit_flips.to_string(),
            "scenario {idx} bit-flip count drifted"
        );
        let targets_expect: Vec<usize> = if parts[8].is_empty() {
            Vec::new()
        } else {
            parts[8]
                .split('+')
                .map(|s| s.parse::<usize>().unwrap())
                .collect()
        };
        assert_eq!(o.targets, targets_expect, "scenario {idx} targets drifted");
    }
}
