//! Integration: the fault sneaking attack vs the ICCAD'17 baselines on
//! the same victim and the same fault — the §5.4 stealth claim.

use fault_sneaking::attack::eval::attacked_head;
use fault_sneaking::attack::{
    AttackConfig, AttackMethod, AttackSpec, FaultSneakingAttack, GdaMethod, ParamSelection,
    SbaMethod,
};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::{Prng, Tensor};

mod common;
use common::{clustered, train};
#[path = "common/rows.rs"]
mod rows;
use rows::rows;

fn victim() -> (FcHead, Tensor, Vec<usize>) {
    let mut rng = Prng::new(55);
    let (x, labels) = clustered(300, 16, 4, 2.0, 0.5, &mut rng);
    let head = train(&[16, 24, 4], &x, &labels, 25, &mut rng);
    (head, x, labels)
}

#[test]
fn sneaking_attack_is_stealthier_than_sba() {
    let (head, x, labels) = victim();
    let base = head.accuracy(&x, &labels);
    assert!(base > 0.95);

    // Shared fault: image 0 -> next class, with a 60-image keep-set for
    // the sneaking attack.
    let (features, wl) = rows(&x, &labels, 0..60);
    let target = (wl[0] + 1) % 4;
    let spec = AttackSpec::new(features.clone(), wl, vec![target]).with_weights(10.0, 1.0);
    let selection = ParamSelection::last_layer(&head);

    // Ours.
    let attack = FaultSneakingAttack::new(&head, selection.clone(), AttackConfig::default());
    let ours = attack.run(&spec);
    assert_eq!(ours.s_success, 1);
    let mut ours_head = head.clone();
    fault_sneaking::attack::eval::apply_delta(
        &mut ours_head,
        &selection,
        attack.theta0(),
        &ours.delta,
    );
    let ours_acc = ours_head.accuracy(&x, &labels);

    // SBA: single bias shift for the same image/target.
    let sba = SbaMethod.run_scenario(&head, &selection, &AttackConfig::default(), &spec);
    assert_eq!(sba.s_success, 1);
    let sba_head = attacked_head(&head, &selection, attack.theta0(), &sba.delta);
    let sba_acc = sba_head.accuracy(&x, &labels);

    assert!(
        ours_acc >= sba_acc,
        "sneaking attack ({ours_acc}) should preserve accuracy at least as well as SBA ({sba_acc})"
    );
    assert!(
        base - ours_acc < 0.1,
        "sneaking attack lost too much accuracy"
    );
}

#[test]
fn gda_injects_but_without_keep_guarantees() {
    let (head, x, labels) = victim();
    let (features, wl) = rows(&x, &labels, 0..40);
    let targets: Vec<usize> = wl[..2].iter().map(|&l| (l + 1) % 4).collect();
    let spec = AttackSpec::new(features, wl, targets);
    let selection = ParamSelection::last_layer(&head);

    let result = GdaMethod.run_scenario(&head, &selection, &AttackConfig::default(), &spec);
    assert_eq!(result.s_success, 2, "GDA should inject both faults");
    assert!(result.l0 > 0);

    // GDA's compression keeps the faults: re-verify via application.
    let gda_head = attacked_head(&head, &selection, &selection.gather(&head), &result.delta);
    let preds = gda_head.predict(&spec.features);
    assert_eq!(preds[0], spec.targets[0]);
    assert_eq!(preds[1], spec.targets[1]);
}
