//! End-to-end integration: synthetic data → CNN victim → fault sneaking
//! attack → stealth audit, spanning every substrate crate.

use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, Norm, ParamSelection};
use fault_sneaking::data::dataset::Synthesizer;
use fault_sneaking::data::SynthDigits;
use fault_sneaking::nn::cw::{CwConfig, CwModel};
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::tensor::{Prng, Tensor};

/// Builds a small trained digit victim shared by the tests in this file.
fn victim() -> (CwModel, Tensor, Vec<usize>) {
    let mut rng = Prng::new(2025);
    let gen = SynthDigits::default();
    let (train, test) = gen.train_test(700, 200, 11);
    let mut model = CwModel::new_random(CwConfig::mnist(), &mut rng);
    let f_train = model.extract_features(&train.images);
    let f_test = model.extract_features(&test.images);
    let mut head = model.head.clone();
    train_head(
        &mut head,
        &f_train,
        &train.labels,
        &HeadTrainConfig {
            epochs: 16,
            ..Default::default()
        },
        &mut rng,
    );
    model.head = head;
    (model, f_test, test.labels)
}

fn working_spec(
    model: &CwModel,
    f_test: &Tensor,
    labels: &[usize],
    s: usize,
    r: usize,
) -> AttackSpec {
    let preds = model.head.predict(f_test);
    let good: Vec<usize> = (0..labels.len())
        .filter(|&i| preds[i] == labels[i])
        .collect();
    assert!(
        good.len() >= r,
        "victim too weak for the test ({} usable)",
        good.len()
    );
    let d = f_test.shape()[1];
    let mut features = Tensor::zeros(&[r, d]);
    let mut wl = Vec::with_capacity(r);
    for (row, &i) in good[..r].iter().enumerate() {
        features.row_mut(row).copy_from_slice(f_test.row(i));
        wl.push(labels[i]);
    }
    let targets: Vec<usize> = wl[..s].iter().map(|&l| (l + 1) % 10).collect();
    AttackSpec::new(features, wl, targets).with_weights(10.0, 1.0)
}

#[test]
fn single_fault_is_injected_and_stealthy() {
    let (model, f_test, labels) = victim();
    let base_acc = model.head.accuracy(&f_test, &labels);
    assert!(base_acc > 0.85, "victim accuracy only {base_acc}");

    let spec = working_spec(&model, &f_test, &labels, 1, 40);
    let selection = ParamSelection::last_layer(&model.head);
    let attack = FaultSneakingAttack::new(&model.head, selection.clone(), AttackConfig::default());
    let result = attack.run(&spec);

    assert_eq!(result.s_success, 1, "fault not injected: {result:?}");
    assert!(
        result.unchanged_rate() >= 0.9,
        "keep-set broken: {result:?}"
    );
    assert!(
        result.l0 > 0 && result.l0 < result.delta.len() / 2,
        "l0 = {}",
        result.l0
    );

    // Stealth: the full held-out test set barely moves.
    let mut attacked = model.head.clone();
    fault_sneaking::attack::eval::apply_delta(
        &mut attacked,
        &selection,
        attack.theta0(),
        &result.delta,
    );
    let post_acc = attacked.accuracy(&f_test, &labels);
    assert!(
        base_acc - post_acc < 0.15,
        "accuracy collapsed: {base_acc} -> {post_acc}"
    );
}

#[test]
fn l0_and_l2_attacks_trade_off() {
    let (model, f_test, labels) = victim();
    let spec = working_spec(&model, &f_test, &labels, 2, 30);
    let selection = ParamSelection::last_layer(&model.head);

    let l0_res = FaultSneakingAttack::new(&model.head, selection.clone(), AttackConfig::default())
        .run(&spec);
    let l2_res = FaultSneakingAttack::new(
        &model.head,
        selection,
        AttackConfig {
            norm: Norm::L2,
            ..AttackConfig::default()
        },
    )
    .run(&spec);

    assert!(l0_res.success_rate() > 0.99 && l2_res.success_rate() > 0.99);
    assert!(
        l0_res.l0 <= l2_res.l0,
        "l0 attack not sparser: {} vs {}",
        l0_res.l0,
        l2_res.l0
    );
    assert!(
        l2_res.l2 <= l0_res.l2 * 1.05,
        "l2 attack not smaller: {} vs {}",
        l2_res.l2,
        l0_res.l2
    );
}
