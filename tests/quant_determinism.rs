//! Integration: the **int8 precision row** of the campaign/arena stack
//! is bit-deterministic in the thread count. For every attack method
//! (FSA, SBA, GDA) under `Precision::Int8` — grid projection of the
//! optimized δ, re-measurement under the i8×i8→i32 inference path, and
//! the full attack×detector arena matrix over the dequantized reference
//! — reports are identical whether scenarios run serially or
//! concurrently, at `FSA_THREADS` = 1, 2, 3, and 8. The quantization
//! step itself (absmax calibration, rounding) happens once per run and
//! is an exact fold, so this extends the f32 guarantees of
//! `tests/campaign_determinism.rs` / `tests/arena_determinism.rs` to
//! the quantized backend.

use fault_sneaking::attack::campaign::{AttackMethod, Campaign, CampaignSpec, FsaMethod};
use fault_sneaking::attack::{AttackConfig, GdaMethod, ParamSelection, Precision, SbaMethod};
use fault_sneaking::defense::{ArenaReport, DefenseSuite, StealthArena};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::tensor::parallel::lock_threads;
mod common;
#[path = "common/rows.rs"]
mod rows;
#[path = "common/victim.rs"]
mod victim;
use victim::victim;

fn int8_sweep() -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![4, 10])
        .with_config(AttackConfig {
            iterations: 80,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0)
        .with_precision(Precision::Int8)
}

#[test]
fn int8_campaign_and_arena_are_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let (head, pool, pool_labels, probe, probe_labels) = victim(818181, &[14, 20, 3], 110, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), pool, pool_labels);

    // The int8 arena is bound to the deployed artifact: the dequantized
    // clean quantized head, with the suite calibrated on it.
    let deq = QuantizedHead::quantize(&head).dequantized_head();
    let suite = DefenseSuite::standard(
        &deq,
        &probe,
        &probe_labels,
        DramGeometry {
            banks: 2,
            rows_per_bank: 256,
            row_bytes: 64,
        },
        0.1,
        0.75,
    );
    let arena = StealthArena::new(&deq, selection, suite).with_precision(Precision::Int8);
    let spec = int8_sweep();
    let methods: Vec<&dyn AttackMethod> = vec![&FsaMethod, &SbaMethod, &GdaMethod];

    guard.set(1);
    let reference: Vec<ArenaReport> = methods
        .iter()
        .map(|m| arena.score_report(&campaign.run_method(&spec, *m)))
        .collect();
    for r in &reference {
        assert_eq!(r.precision, Precision::Int8);
        assert_eq!(r.len(), spec.len());
        assert!(
            r.clean.iter().all(|v| !v.detected),
            "{}: clean dequantized model tripped a detector — \
             the int8 arena must calibrate on the deployed artifact",
            r.method
        );
    }
    assert!(
        reference.iter().any(|r| r
            .rows
            .iter()
            .any(|row| row.verdicts.iter().any(|v| v.detected))),
        "no attack tripped any detector; the fixture is too weak"
    );

    for threads in [2, 3, 8] {
        guard.set(threads);
        for (m, want) in methods.iter().zip(&reference) {
            let campaign_report = campaign.run_method(&spec, *m);
            let got = arena.score_report(&campaign_report);
            assert!(
                got == *want,
                "{} int8 arena report changed bits at {threads} threads",
                want.method
            );
            assert_eq!(got.fingerprint(), want.fingerprint());
        }
    }
}

/// Campaign fingerprints of the SBA and GDA baselines over
/// [`int8_sweep`] and its F32 twin, as recorded before the baselines
/// moved into `fsa-attack`: (SBA F32, SBA Int8, GDA F32, GDA Int8).
const BASELINE_RECORDED: [u64; 4] = [
    0xe621_6bc0_3112_df05,
    0x4db0_af52_49ef_53d4,
    0x5d39_421b_1295_ea0b,
    0x43f0_158a_ff60_0bdf,
];

/// Nothing else pins the baselines' bits: the goldens and the claims'
/// recorded rows cover the fault sneaking attack only.
#[test]
fn baseline_reports_reproduce_their_recorded_fingerprints() {
    let _guard = lock_threads();
    let (head, pool, pool_labels, _, _) = victim(818181, &[14, 20, 3], 110, 40);
    let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), pool, pool_labels);
    let int8_spec = int8_sweep();
    let f32_spec = CampaignSpec {
        precision: Precision::F32,
        ..int8_spec.clone()
    };
    let methods: [&dyn AttackMethod; 2] = [&SbaMethod, &GdaMethod];
    let got: Vec<u64> = methods
        .iter()
        .flat_map(|m| [&f32_spec, &int8_spec].map(|spec| campaign.run_method(spec, *m)))
        .map(|report| report.fingerprint())
        .collect();
    assert_eq!(
        got, BASELINE_RECORDED,
        "baseline fingerprints moved; new values: {got:#018x?}"
    );
}

/// The two precision rows of one sweep attack the same cells: same
/// scenarios, same working-set draws, same targets — only the storage
/// (and therefore the realized δ) differs.
#[test]
fn precision_rows_are_cell_aligned() {
    let _guard = lock_threads();
    let (head, pool, pool_labels, _, _) = victim(818181, &[14, 20, 3], 110, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection, pool, pool_labels);
    let int8_spec = CampaignSpec::grid(vec![1], vec![4])
        .with_config(AttackConfig {
            iterations: 50,
            ..AttackConfig::default()
        })
        .with_precision(Precision::Int8);
    let f32_spec = CampaignSpec {
        precision: Precision::F32,
        ..int8_spec.clone()
    };
    let a = campaign.run(&f32_spec);
    let b = campaign.run(&int8_spec);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.scenario, y.scenario);
        assert_eq!(x.targets, y.targets);
    }
    assert_eq!(a.precision, Precision::F32);
    assert_eq!(b.precision, Precision::Int8);
    assert_ne!(a.fingerprint(), b.fingerprint());
}
