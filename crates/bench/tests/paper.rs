//! The paper's claims, asserted on the values the `paper` bin prints.
//!
//! Each test runs the same [`fsa_bench::exp`] declarations as the bin,
//! at full size: no grid shrunk, no seed or iteration count changed. So
//! the file is compiled only into optimized builds:
//!
//! ```text
//! cargo test --release -p fsa-bench --test paper
//! ```
//!
//! Claims are checked on raw values, not on the one-decimal print, and
//! in the form the paper (or the bin's prose) states them. Printed
//! claims that do not hold are listed here with their numbers and are
//! not asserted:
//!
//! * Table 4, "accuracy increases down each column (R up)", holds only
//!   end to end (R = 50 against R = 1000). Step by step it dips: digits
//!   S = 1 reads 98.65% at R = 100 and 98.15% at R = 200, digits S = 2
//!   98.35% and 97.65%, objects S = 1 79.65% at R = 50 and 79.45% at
//!   R = 100; objects S = 1 ties at R = 500 and 1000 (79.85%), objects
//!   S = 2 at R = 50 and 100 (78.90%). The digits S = 1 dip is the
//!   600-iteration cap's: at 2400 iterations the same two cells read
//!   98.45% and 98.80%.
//! * Fig. 1, "for small S the count shrinks as R grows": digits S = 1
//!   reads 247, 260, 368, 384, 314 over R = 50 … 1000, so it grows up to
//!   R = 500 and shrinks only on the last step.
//! * Fig. 3, a successful-fault count that saturates near the victim's
//!   tolerance (≈10): the count keeps growing with S in every series
//!   (digits R = 1000: 9.0 at S = 10, 15.5 at S = 24). The decline at
//!   R = 1000 is the 600-iteration cap's: with 2400 iterations S = 8
//!   lands all 16 faults on both victims, and with 9600 S = 24 lands all
//!   48 (ROADMAP.md).
//! * The ablation's "ρ trades sparsity against success": ρ = 1, 5 and 25
//!   read ℓ0 744, 985 and 1137, but every one lands 100% of its faults.
//! * The fault plans' "fewer words and rows": the ℓ0 plan writes 96
//!   words against 262, but both fit in one DRAM row.

#![cfg(not(debug_assertions))]

use fsa_bench::exp::{self, run_grid, sweep_runs, FIG3_R, FIG3_S, SWEEP_R, SWEEP_S};
use fsa_bench::Kind;

const KINDS: [Kind; 2] = [Kind::Digits, Kind::Objects];

/// Asserts `values` strictly decrease, naming each pair that does not.
fn assert_falling(values: &[f64], what: &str) {
    for (i, w) in values.windows(2).enumerate() {
        assert!(w[1] < w[0], "{what}: step {i} → {} is {w:?}", i + 1);
    }
}

/// Asserts `values` strictly increase, naming each pair that does not.
fn assert_rising(values: &[f64], what: &str) {
    for (i, w) in values.windows(2).enumerate() {
        assert!(w[1] > w[0], "{what}: step {i} → {} is {w:?}", i + 1);
    }
}

/// The index of the variant labelled `label`.
fn variant(runs: &exp::GridRuns, label: &str) -> usize {
    runs.grid
        .variants
        .iter()
        .position(|v| v.label == label)
        .unwrap_or_else(|| panic!("no variant `{label}`"))
}

#[test]
fn table1_l0_grows_with_s_and_the_last_layer_needs_the_fewest() {
    let runs = run_grid(&exp::table1());
    let g = &runs.grid;
    let last = g.variants.len() - 1;
    for (v, variant) in g.variants.iter().enumerate() {
        let l0: Vec<f64> = g
            .cells
            .iter()
            .map(|&(s, r)| runs.mean(v, s, r).l0)
            .collect();
        assert_rising(&l0, &format!("Table 1 {} l0 over S=R", variant.label));
    }
    for &(s, r) in &g.cells {
        let ours = runs.mean(last, s, r).l0;
        for v in 0..last {
            let other = runs.mean(v, s, r).l0;
            assert!(
                ours < other,
                "Table 1 S={s},R={r}: last layer l0 {ours} not below {} l0 {other}",
                g.variants[v].label
            );
        }
    }
}

#[test]
fn table2_bias_only_is_sparse_but_fails_as_s_grows_while_weights_always_land() {
    let runs = run_grid(&exp::table2());
    let (weights, bias) = (variant(&runs, "weights"), variant(&runs, "bias"));
    let cells = &runs.grid.cells;
    for &(s, r) in cells {
        let (w, b) = (runs.mean(weights, s, r), runs.mean(bias, s, r));
        assert!(
            b.l0 < w.l0,
            "Table 2 S={s}: bias l0 {} ≥ weights {}",
            b.l0,
            w.l0
        );
        assert_eq!(w.success_rate, 1.0, "Table 2 S={s}: weights-only missed");
    }
    let bias_success: Vec<f64> = cells
        .iter()
        .map(|&(s, r)| runs.mean(bias, s, r).success_rate)
        .collect();
    assert_falling(&bias_success, "Table 2 bias-only success over S");
}

#[test]
fn table3_each_attack_has_the_smaller_norm_it_minimizes() {
    let runs = run_grid(&exp::table3());
    let (l0_attack, l2_attack) = (variant(&runs, "l0 attack"), variant(&runs, "l2 attack"));
    for &(s, r) in &runs.grid.cells {
        let (a0, a2) = (runs.mean(l0_attack, s, r), runs.mean(l2_attack, s, r));
        assert!(
            a0.l0 < a2.l0,
            "Table 3 S={s},R={r}: l0 {} ≥ {}",
            a0.l0,
            a2.l0
        );
        assert!(
            a2.l2 < a0.l2,
            "Table 3 S={s},R={r}: l2 {} ≥ {}",
            a2.l2,
            a0.l2
        );
    }
}

#[test]
fn figs1_2_l0_grows_down_each_column() {
    for kind in KINDS {
        let runs = sweep_runs(kind);
        for r in SWEEP_R {
            let l0: Vec<f64> = SWEEP_S.iter().map(|&s| runs.mean(0, s, r).l0).collect();
            assert_rising(&l0, &format!("{} l0 over S at R={r}", kind.name()));
        }
    }
}

#[test]
fn fig2_objects_need_fewer_modifications_than_digits_at_small_s() {
    let (digits, objects) = (sweep_runs(Kind::Digits), sweep_runs(Kind::Objects));
    for s in [1, 2] {
        for r in SWEEP_R {
            let (d, o) = (digits.mean(0, s, r).l0, objects.mean(0, s, r).l0);
            assert!(o < d, "S={s},R={r}: objects l0 {o} ≥ digits {d}");
        }
    }
}

#[test]
fn table4_accuracy_falls_with_s_recovers_with_r_and_costs_one_point_at_s1() {
    for kind in KINDS {
        let runs = sweep_runs(kind);
        let acc = |s, r| runs.run(0, s, r, 0).test_accuracy;
        let name = kind.name();
        for r in SWEEP_R {
            let row: Vec<f64> = SWEEP_S.iter().map(|&s| acc(s, r)).collect();
            assert_falling(&row, &format!("Table 4 {name} R={r} accuracy over S"));
        }
        for s in SWEEP_S {
            let (low, high) = (acc(s, 50), acc(s, 1000));
            assert!(
                high > low,
                "Table 4 {name} S={s}: R=1000 {high} ≤ R=50 {low}"
            );
        }
        let (r0, s_max) = (SWEEP_R[0], SWEEP_S[SWEEP_S.len() - 1]);
        let corner = acc(s_max, r0);
        for s in SWEEP_S {
            for r in SWEEP_R {
                assert!(
                    acc(s, r) >= corner,
                    "Table 4 {name}: S={s},R={r} below the S={s_max},R={r0} collapse"
                );
            }
        }
        let clean = f64::from(exp::victim(kind).baseline_accuracy);
        let drop = clean - acc(1, 1000);
        assert!(
            drop <= 0.01,
            "Table 4 {name}: S=1,R=1000 costs {drop} against clean {clean}"
        );
    }
}

#[test]
fn fig3_success_is_full_at_small_s_and_falls_at_r1000_s24() {
    for kind in KINDS {
        let runs = run_grid(&exp::fig3(kind));
        let name = kind.name();
        for r in FIG3_R {
            for &s in FIG3_S.iter().filter(|&&s| s <= 4) {
                let m = runs.mean(0, s, r);
                assert_eq!(m.success_rate, 1.0, "Fig. 3 {name} S={s},R={r}");
            }
        }
        let m = runs.mean(0, 24, 1000);
        assert!(
            m.success_rate < 1.0,
            "Fig. 3 {name} S=24,R=1000 landed every fault"
        );
    }
}

#[test]
fn baseline_cmp_fault_sneaking_costs_the_least_accuracy() {
    for kind in KINDS {
        let [ours, gda, sba] = exp::baseline_cmp(kind);
        for a in [ours, gda, sba] {
            assert!(a.success, "§5.4 {}: {} missed", kind.name(), a.label);
        }
        for other in [gda, sba] {
            assert!(
                ours.test_accuracy > other.test_accuracy,
                "§5.4 {}: {} keeps {} against ours {}",
                kind.name(),
                other.label,
                other.test_accuracy,
                ours.test_accuracy
            );
        }
    }
}

#[test]
fn ablation_margin_and_refinement_buy_success() {
    let runs = run_grid(&exp::ablation());
    let (s, r) = runs.grid.cells[0];
    let at = |label| runs.mean(variant(&runs, label), s, r);
    let full = at("full (κ=1, refine)");
    let no_refine = at("no refine");
    let bare = at("κ=0, no refine");
    assert!(
        no_refine.success_rate < full.success_rate,
        "refinement buys no success"
    );
    assert!(
        bare.success_rate < full.success_rate && bare.l0 < full.l0,
        "κ=1 + refinement should buy success at a higher l0"
    );
    assert!(
        bare.success_rate < no_refine.success_rate,
        "without refinement the κ=0 hinge should lose more faults than κ=1"
    );
}

#[test]
fn fault_plan_l0_writes_fewer_words_and_needs_less_laser_time() {
    let [l0, l2] = exp::fault_plans();
    assert!(l0.plan.words() < l2.plan.words());
    let (l0_s, l2_s) = (l0.laser.seconds, l2.laser.seconds);
    assert!(l0_s < l2_s, "laser time {l0_s}s ≥ {l2_s}s");
    for p in [&l0, &l2] {
        assert!(
            p.hammer.achievement_rate() < 1.0,
            "{:?} fully hammered",
            p.norm
        );
    }
}
