//! Golden-artifact regression: a tiny 2×2 campaign (S ∈ {1, 2} ×
//! K ∈ {6, 12}, seed 2025) scored through the standard defense suite
//! and pinned against the committed fixture `tests/golden_arena.txt`,
//! so detector or arena refactors cannot silently drift any cell of
//! the attack×detector matrix. Detection decisions are pinned exactly —
//! the stack is bit-deterministic and `detected` is a hard boolean —
//! and only the float scores carry a tolerance.
//!
//! Regenerate (after an *intentional* behaviour change) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_arena
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, ParamSelection};
use fault_sneaking::defense::{ArenaReport, DefenseSuite, StealthArena};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::tensor::Prng;

mod common;
use common::{clustered, train};
#[path = "common/golden.rs"]
mod golden;

fn run_fixture_arena() -> ArenaReport {
    let mut rng = Prng::new(2025);
    let (pool, pool_labels) = clustered(120, 12, 3, 2.0, 0.5, &mut rng);
    let (probe, probe_labels_src) = clustered(48, 12, 3, 2.0, 0.5, &mut rng);
    let head = train(&[12, 24, 3], &pool, &pool_labels, 30, &mut rng);
    // Probe labels are the *reference model's* predictions: the probe
    // monitors behaviour drift from deployment, not ground truth.
    let probe_labels: Vec<usize> = {
        let _ = probe_labels_src;
        head.predict(&probe)
    };
    let probe_cache = FeatureCache::from_features(probe);
    let suite = DefenseSuite::standard(
        &head,
        &probe_cache,
        &probe_labels,
        DramGeometry {
            banks: 2,
            rows_per_bank: 256,
            row_bytes: 64,
        },
        0.1,
        0.75,
    );
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(
        &head,
        selection.clone(),
        FeatureCache::from_features(pool),
        pool_labels,
    );
    let spec = CampaignSpec::grid(vec![1, 2], vec![6, 12])
        .with_seeds(vec![2025])
        .with_config(AttackConfig {
            iterations: 200,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0);
    let arena = StealthArena::new(&head, selection, suite);
    arena.score_report(&campaign.run(&spec))
}

#[test]
fn tiny_arena_matrix_matches_golden_fixture() {
    let report = run_fixture_arena();
    assert_eq!(report.len(), 4, "2×2 sweep must yield 4 rows");
    assert_eq!(report.detectors.len(), 6, "standard suite has 6 detectors");

    // Semantic constraints first — these hold regardless of the fixture.
    assert!(
        report.clean.iter().all(|v| !v.detected),
        "clean model tripped a detector"
    );
    for row in &report.rows {
        assert_eq!(row.verdicts.len(), report.detectors.len());
        for v in &row.verdicts {
            assert!(
                v.score.is_finite(),
                "{} scored a non-finite value",
                v.detector
            );
            assert!(v.score >= 0.0, "{} scored negative", v.detector);
        }
    }

    let mut rendered = String::from(
        "# Golden fixture for the 2x2 stealth-arena matrix (seed 2025).\n\
         # Written by `GOLDEN_REGEN=1 cargo test --test golden_arena`.\n\
         # row_<i> = s,k,then per detector score:detected joined with ';'\n",
    );
    rendered.push_str(&format!("method={}\n", report.method));
    rendered.push_str(&format!("detectors={}\n", report.detectors.join(",")));
    for (i, row) in report.rows.iter().enumerate() {
        let cells: Vec<String> = row
            .verdicts
            .iter()
            .map(|v| format!("{:.6}:{}", v.score, u8::from(v.detected)))
            .collect();
        rendered.push_str(&format!(
            "row_{i}={},{},{}\n",
            row.scenario.s,
            row.scenario.k,
            cells.join(";")
        ));
    }

    let Some(golden) = golden::load("golden_arena.txt", &rendered) else {
        return;
    };
    let get = |k: &str| golden.get(k);

    assert_eq!(get("method"), report.method);
    assert_eq!(get("detectors"), report.detectors.join(","));
    for (i, row) in report.rows.iter().enumerate() {
        let line = get(&format!("row_{i}"));
        let parts: Vec<&str> = line.splitn(3, ',').collect();
        assert_eq!(parts.len(), 3, "malformed fixture line: {line}");
        assert_eq!(parts[0], row.scenario.s.to_string(), "row {i} s drifted");
        assert_eq!(parts[1], row.scenario.k.to_string(), "row {i} k drifted");
        let cells: Vec<&str> = parts[2].split(';').collect();
        assert_eq!(cells.len(), row.verdicts.len(), "row {i} cell count");
        for (v, cell) in row.verdicts.iter().zip(&cells) {
            let (score_s, detected_s) = cell
                .split_once(':')
                .unwrap_or_else(|| panic!("malformed cell {cell:?}"));
            let score_expect: f32 = score_s.parse().unwrap();
            assert!(
                (v.score - score_expect).abs() <= 1e-4 * (1.0 + score_expect.abs()),
                "row {i} {} score drifted: {} vs fixture {score_expect}",
                v.detector,
                v.score
            );
            assert_eq!(
                u8::from(v.detected).to_string(),
                *detected_s,
                "row {i} {} decision drifted",
                v.detector
            );
        }
    }
}
