//! Integration: the **detector-aware planner** keeps the engine's
//! bit-determinism guarantee. A stealth-objective campaign adds three
//! order-sensitive stages to the solve — the block-structured z-step,
//! the drift-budget wall inside refinement (whose revert path restores
//! saved bit patterns), and the parity repair pass on the compiled plan
//! — and every one of them must be a pure fixed-order function of its
//! inputs. Both precision rows are exercised at `FSA_THREADS` = 1, 2,
//! 3, 8, including a run with a *binding* drift budget (the wall
//! actually fires and reverts steps) and a binding block cap.

use fault_sneaking::attack::campaign::{Campaign, CampaignReport, CampaignSpec};
use fault_sneaking::attack::stealth::prune_to_block_budget;
use fault_sneaking::attack::{AttackConfig, ParamSelection, Precision, StealthObjective};
use fault_sneaking::defense::{ArenaReport, DefenseSuite, StealthArena};
use fault_sneaking::memfault::dram::ParamLayout;
use fault_sneaking::memfault::parity::{RowCode, RowSignature};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::tensor::parallel::lock_threads;

mod common;
#[path = "common/rows.rs"]
mod rows;
#[path = "common/victim.rs"]
mod victim;
use victim::victim;

fn geometry() -> DramGeometry {
    DramGeometry {
        banks: 2,
        rows_per_bank: 256,
        row_bytes: 64,
    }
}

fn stealth_sweep(objective: StealthObjective, precision: Precision) -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![4, 10])
        .with_config(AttackConfig {
            iterations: 80,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0)
        .with_precision(precision)
        .with_stealth(Some(objective))
}

#[test]
fn stealth_campaign_and_arena_are_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let (head, pool, pool_labels, probe, probe_labels) = victim(727272, &[14, 20, 3], 110, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), pool, pool_labels);
    let f32_suite = DefenseSuite::standard(&head, &probe, &probe_labels, geometry(), 0.1, 0.75);
    let f32_arena = StealthArena::new(&head, selection.clone(), f32_suite);
    let deq = QuantizedHead::quantize(&head).dequantized_head();
    let int8_suite = DefenseSuite::standard(&deq, &probe, &probe_labels, geometry(), 0.1, 0.75);
    let int8_arena =
        StealthArena::new(&deq, selection.clone(), int8_suite).with_precision(Precision::Int8);

    // Three objectives along the axes that change control flow: a soft
    // penalty alone, a binding hard block cap, and a binding drift
    // budget (the refinement wall fires and takes the revert path).
    let objectives = [
        StealthObjective::new(16, 0.5, geometry(), 10.0),
        StealthObjective::new(16, 0.1, geometry(), 10.0).with_block_cap(2),
        StealthObjective::new(16, 0.1, geometry(), 0.0).with_block_cap(2),
    ];
    let specs: Vec<CampaignSpec> = objectives
        .iter()
        .flat_map(|&o| {
            [
                stealth_sweep(o, Precision::F32),
                stealth_sweep(o, Precision::Int8),
            ]
        })
        .collect();
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

    // The wall must actually bind: the zero-budget f32 row differs from
    // the loose-budget one (same cap, same λ_b — only the wall moved).
    assert_ne!(
        reference[2].0.fingerprint(),
        reference[4].0.fingerprint(),
        "the drift wall never fired — the battery is not exercising the revert path"
    );

    // Every f32 stealth plan respects its block cap and leaves the
    // deployed word surface parity-even (the int8 surface has its own
    // unit battery in `fsa_attack::stealth`).
    let gidx = selection.global_indices(&head);
    let layout = ParamLayout::new(geometry(), 0, head.param_count());
    let clean_flat: Vec<f32> = (0..head.num_layers())
        .flat_map(|i| head.layer_flat_params(i))
        .collect();
    for (spec, (report, _)) in specs.iter().zip(&reference) {
        if spec.precision != Precision::F32 {
            continue;
        }
        let objective = spec.stealth.unwrap();
        let blocks = objective.delta_blocks(&gidx);
        let parity = RowSignature::capture(RowCode::Parity, layout.clone(), &clean_flat);
        for o in &report.outcomes {
            let mut d = o.result.delta.clone();
            let dirty = prune_to_block_budget(&mut d, &blocks, 0);
            if objective.max_dirty_blocks > 0 {
                assert!(
                    dirty <= objective.max_dirty_blocks,
                    "scenario {} dirties {dirty} blocks (cap {})",
                    o.scenario.index,
                    objective.max_dirty_blocks
                );
            }
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
        }
    }

    for threads in [2, 3, 8] {
        guard.set(threads);
        for (spec, (want_r, want_a)) in specs.iter().zip(&reference) {
            let got_r = campaign.run(spec);
            let got_a = score(&got_r);
            assert!(
                got_r == *want_r,
                "stealth campaign report changed bits at {threads} threads \
                 (objective {:?}, {:?})",
                spec.stealth,
                spec.precision
            );
            assert!(
                got_a == *want_a,
                "stealth arena report changed bits at {threads} threads"
            );
        }
    }
}
