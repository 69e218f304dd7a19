//! Integration: attack δ → bit-flip plan → injector simulation → model
//! behaviour, spanning fsa-attack and fsa-memfault.

use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fault_sneaking::memfault::dram::ParamLayout;
use fault_sneaking::memfault::{DramGeometry, FaultPlan, LaserInjector, RowhammerInjector};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::Prng;

mod common;
use common::{clustered, train};
#[path = "common/rows.rs"]
mod rows;
use rows::rows;

fn attacked_victim() -> (FcHead, ParamSelection, Vec<f32>, Vec<f32>, AttackSpec) {
    let mut rng = Prng::new(66);
    let (x, labels) = clustered(160, 12, 3, 2.0, 0.4, &mut rng);
    let head = train(&[12, 20, 3], &x, &labels, 25, &mut rng);

    let (features, wl) = rows(&x, &labels, 0..20);
    let target = (wl[0] + 1) % 3;
    let spec = AttackSpec::new(features, wl, vec![target]).with_weights(10.0, 1.0);

    let selection = ParamSelection::last_layer(&head);
    let attack = FaultSneakingAttack::new(&head, selection.clone(), AttackConfig::default());
    let result = attack.run(&spec);
    assert_eq!(result.s_success, 1, "fixture attack failed");
    let theta0 = attack.theta0().to_vec();
    (head, selection, theta0, result.delta, spec)
}

#[test]
fn laser_plan_realizes_attack_exactly() {
    let (head, selection, theta0, delta, spec) = attacked_victim();

    let plan = FaultPlan::compile(&theta0, &delta);
    assert!(plan.words() > 0);
    assert_eq!(plan.words(), fault_sneaking::tensor::norms::l0(&delta, 0.0));

    let mut lasered = theta0.clone();
    LaserInjector.apply(&plan.changes, &mut lasered);
    let realized = FaultPlan::realized_delta(&theta0, &lasered);

    // The laser is exact: the realized head must classify identically to
    // applying δ directly.
    let mut direct = head.clone();
    fault_sneaking::attack::eval::apply_delta(&mut direct, &selection, &theta0, &delta);
    let mut hw = head.clone();
    fault_sneaking::attack::eval::apply_delta(&mut hw, &selection, &theta0, &realized);
    assert_eq!(direct.predict(&spec.features), hw.predict(&spec.features));
}

#[test]
fn rowhammer_achieves_a_subset_and_stays_in_plan() {
    let (_head, _selection, theta0, delta, _spec) = attacked_victim();
    let plan = FaultPlan::compile(&theta0, &delta);
    let layout = ParamLayout::new(DramGeometry::default(), 0, theta0.len());

    let mut hammered = theta0.clone();
    let outcome = plan.hammer(&RowhammerInjector::default(), &layout, &mut hammered);

    assert_eq!(outcome.requested, plan.total_bit_flips as usize);
    assert!(outcome.achieved <= outcome.requested);
    // Every changed word must be one the plan targeted.
    let planned: std::collections::HashSet<usize> = plan.changes.iter().map(|c| c.index).collect();
    for (i, (&a, &b)) in theta0.iter().zip(&hammered).enumerate() {
        if a.to_bits() != b.to_bits() {
            assert!(planned.contains(&i), "rowhammer touched unplanned word {i}");
        }
    }
    // Costs are reported.
    assert!(outcome.activations > 0);
    assert!(outcome.rows_hammered >= 1);
}

#[test]
fn l0_plan_is_cheaper_than_l2_plan_under_laser() {
    let (head, selection, theta0, _delta, spec) = attacked_victim();
    let l2_attack = FaultSneakingAttack::new(
        &head,
        selection,
        AttackConfig {
            norm: fault_sneaking::attack::Norm::L2,
            ..AttackConfig::default()
        },
    );
    let l2_delta = l2_attack.run(&spec).delta;

    let l0_plan = FaultPlan::compile(&theta0, &_delta);
    let l2_plan = FaultPlan::compile(&theta0, &l2_delta);
    let laser = LaserInjector;
    assert!(
        l0_plan.laser_cost(&laser).seconds <= l2_plan.laser_cost(&laser).seconds,
        "l0 plan should be cheaper: {} vs {}",
        l0_plan.laser_cost(&laser).seconds,
        l2_plan.laser_cost(&laser).seconds
    );
}
