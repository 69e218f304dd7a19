//! Golden-artifact regression for the **detector-aware planner**: a
//! tiny 2×2 stealth campaign (S ∈ {1, 2} × K ∈ {4, 8}, seed 2027, block
//! cap 3, binding soft penalty) pinned against the committed fixture
//! `tests/golden_stealth.txt`, so neither the block-structured z-step,
//! the drift-budget wall, nor the parity repair pass can silently drift
//! any scenario's outcome. Integer outcomes (successes, keeps, ℓ0
//! supports, dirty blocks, odd rows, plan words, bit flips, targets)
//! are pinned exactly — the stealth pipeline is bit-deterministic and
//! its plan observables are *discrete* — and only the ℓ2 magnitude
//! carries a tolerance.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_stealth
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignReport};
use fault_sneaking::attack::stealth::prune_to_block_budget;
use fault_sneaking::attack::ParamSelection;
use fault_sneaking::memfault::dram::ParamLayout;
use fault_sneaking::memfault::parity::{indexed_row_flips, RowCode, RowSignature};
use fault_sneaking::memfault::plan::FaultPlan;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;

mod common;
#[path = "common/golden.rs"]
mod golden;
#[path = "common/stealth_sweep.rs"]
mod stealth_sweep;
use stealth_sweep::{geometry, objective, sweep};

fn run_fixture_campaign() -> (FcHead, CampaignReport) {
    let (head, features, labels, _) = stealth_sweep::victim();
    let campaign = Campaign::new(
        &head,
        ParamSelection::last_layer(&head),
        FeatureCache::from_features(features),
        labels,
    );
    let report = campaign.run(&sweep());
    (head, report)
}

#[test]
fn tiny_stealth_campaign_matches_golden_fixture() {
    let (head, report) = run_fixture_campaign();
    assert_eq!(report.len(), 4, "2×2 sweep must yield 4 scenarios");
    assert_eq!(report.stealth, Some(objective()));

    let selection = ParamSelection::last_layer(&head);
    let gidx = selection.global_indices(&head);
    let theta0 = selection.gather(&head);
    let blocks = objective().delta_blocks(&gidx);
    let layout = ParamLayout::new(geometry(), 0, head.param_count());
    let clean_flat: Vec<f32> = (0..head.num_layers())
        .flat_map(|i| head.layer_flat_params(i))
        .collect();
    let parity = RowSignature::capture(RowCode::Parity, layout.clone(), &clean_flat);

    // Semantic constraints first — these hold regardless of the fixture:
    // block cap respected, zero odd-parity rows, faults still land.
    let mut observables = Vec::new();
    for o in &report.outcomes {
        assert_eq!(
            o.result.s_success, o.scenario.s,
            "scenario {} fault(s) must survive the stealth objective: {:?}",
            o.scenario.index, o.result
        );
        let mut d = o.result.delta.clone();
        let dirty = prune_to_block_budget(&mut d, &blocks, 0);
        assert!(
            dirty <= objective().max_dirty_blocks,
            "scenario {} dirties {dirty} blocks (cap {})",
            o.scenario.index,
            objective().max_dirty_blocks
        );
        let mut attacked = clean_flat.clone();
        for (&g, &dv) in gidx.iter().zip(&o.result.delta) {
            attacked[g] += dv;
        }
        assert_eq!(
            parity.violations(&attacked),
            Vec::new(),
            "scenario {} plan trips the parity monitor",
            o.scenario.index
        );
        let plan = FaultPlan::compile(&theta0, &o.result.delta);
        let odd = indexed_row_flips(
            &layout,
            plan.changes
                .iter()
                .map(|c| (gidx[c.index], c.flipped_bits.len() as u64)),
        )
        .iter()
        .filter(|&&(_, n)| n % 2 == 1)
        .count();
        assert_eq!(odd, 0, "scenario {} has odd rows", o.scenario.index);
        observables.push((dirty, plan.words(), plan.total_bit_flips));
    }

    let mut rendered = String::from(
        "# Golden fixture for the 2x2 detector-aware stealth sweep (seed 2027).\n\
         # Written by `GOLDEN_REGEN=1 cargo test --test golden_stealth`.\n\
         # scenario_<i> = s,k,s_success,keep_unchanged,l0,l2,dirty_blocks,words,bit_flips,targets(+-joined)\n",
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
    for (o, &(dirty, words, flips)) in report.outcomes.iter().zip(&observables) {
        rendered.push_str(&format!(
            "scenario_{}={},{},{},{},{},{:.6},{},{},{},{}\n",
            o.scenario.index,
            o.scenario.s,
            o.scenario.k,
            o.result.s_success,
            o.result.keep_unchanged,
            o.result.l0,
            o.result.l2,
            dirty,
            words,
            flips,
            o.targets
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        ));
    }

    let Some(golden) = golden::load("golden_stealth.txt", &rendered) else {
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
    for (o, &(dirty, words, flips)) in report.outcomes.iter().zip(&observables) {
        let line = get(&format!("scenario_{}", o.scenario.index));
        let parts: Vec<&str> = line.split(',').collect();
        assert_eq!(parts.len(), 10, "malformed fixture line: {line}");
        let ints = [
            ("s", o.scenario.s, parts[0]),
            ("k", o.scenario.k, parts[1]),
            ("s_success", o.result.s_success, parts[2]),
            ("keep_unchanged", o.result.keep_unchanged, parts[3]),
            ("l0", o.result.l0, parts[4]),
            ("dirty_blocks", dirty, parts[6]),
            ("words", words, parts[7]),
            ("bit_flips", flips as usize, parts[8]),
        ];
        for (name, got, want) in ints {
            assert_eq!(
                got.to_string(),
                want,
                "scenario {}: {name} drifted from fixture",
                o.scenario.index
            );
        }
        let l2: f32 = parts[5].parse().unwrap();
        assert!(
            (o.result.l2 - l2).abs() <= 1e-5 + 1e-3 * l2.abs(),
            "scenario {}: l2 drifted: {} vs fixture {l2}",
            o.scenario.index,
            o.result.l2
        );
        let targets = o
            .targets
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join("+");
        assert_eq!(
            targets, parts[9],
            "scenario {}: targets drifted",
            o.scenario.index
        );
    }
}
