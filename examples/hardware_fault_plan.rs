//! From optimization to hardware: compile an attack δ into bit flips and
//! cost it under the simulated laser and rowhammer injectors.
//!
//! This is the paper's §5.5 motivation made concrete: an `ℓ0`-minimized
//! δ names few parameter words, so realizing it costs few precisely
//! targeted laser flips and touches few DRAM rows for a rowhammer
//! campaign. The example compiles the same attack under both budgets
//! into [`FaultPlan`]s, prints words/bits/rows and per-injector cost,
//! then actually *simulates* rowhammer injection and re-measures the
//! attack on the corrupted parameters — the realized-δ loop. (For the
//! int8 storage version of this pipeline see
//! `examples/quantized_attack.rs`.)
//!
//! ```text
//! cargo run --release --example hardware_fault_plan
//! ```

use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fault_sneaking::memfault::dram::ParamLayout;
use fault_sneaking::memfault::{DramGeometry, FaultPlan, LaserInjector, RowhammerInjector};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::tensor::{Prng, Tensor};

fn main() {
    // A trained victim head and a single designated fault.
    let mut rng = Prng::new(99);
    let (features, labels) = blobs(150, 16, 4, &mut rng);
    let mut head = FcHead::from_dims(&[16, 32, 4], &mut rng);
    train_head(
        &mut head,
        &features,
        &labels,
        &HeadTrainConfig {
            epochs: 30,
            ..Default::default()
        },
        &mut rng,
    );

    let working = {
        let mut t = Tensor::zeros(&[12, 16]);
        for r in 0..12 {
            t.row_mut(r).copy_from_slice(features.row(r));
        }
        t
    };
    let wl = labels[..12].to_vec();
    let target = (wl[0] + 1) % 4;
    let spec = AttackSpec::new(working, wl, vec![target]).with_weights(10.0, 1.0);

    let selection = ParamSelection::last_layer(&head);
    let attack = FaultSneakingAttack::new(&head, selection.clone(), AttackConfig::default());
    let result = attack.run(&spec);
    println!("attack δ: {} words, l2 = {:.3}", result.l0, result.l2);

    // Lay the victim's parameters out in simulated DRAM and compile.
    let theta0 = attack.theta0();
    let layout = ParamLayout::new(DramGeometry::default(), 0, theta0.len());
    let plan = FaultPlan::compile(theta0, &result.delta);
    println!(
        "fault plan: {} words, {} bit flips ({:.1} bits/word), {} DRAM rows",
        plan.words(),
        plan.total_bit_flips,
        plan.bits_per_word(),
        plan.rows_touched(&layout)
    );

    // Laser: precise and exact, pays per-word targeting time.
    let laser = LaserInjector;
    let cost = plan.laser_cost(&laser);
    println!(
        "laser: {} targets, {} pulses, ~{:.0}s of bench time",
        cost.words, cost.pulses, cost.seconds
    );
    let mut lasered = theta0.to_vec();
    laser.apply(&plan.changes, &mut lasered);
    let realized = FaultPlan::realized_delta(theta0, &lasered);
    let mut laser_head = head.clone();
    fault_sneaking::attack::eval::apply_delta(&mut laser_head, &selection, theta0, &realized);
    let (hits, _) = fault_sneaking::attack::objective::count_satisfied(
        &spec,
        &laser_head.forward(&spec.features),
    );
    println!("laser-realized fault: {hits}/1");

    // Rowhammer: row-granular, probabilistic, direction-constrained.
    let hammer = RowhammerInjector::default();
    let mut hammered = theta0.to_vec();
    let outcome = plan.hammer(&hammer, &layout, &mut hammered);
    println!(
        "rowhammer: {}/{} flips achieved ({:.0}%), {} rows, {:.1}M activations",
        outcome.achieved,
        outcome.requested,
        100.0 * outcome.achievement_rate(),
        outcome.rows_hammered,
        outcome.activations as f64 / 1e6
    );
    let realized = FaultPlan::realized_delta(theta0, &hammered);
    let mut rh_head = head.clone();
    fault_sneaking::attack::eval::apply_delta(&mut rh_head, &selection, theta0, &realized);
    let (hits, _) =
        fault_sneaking::attack::objective::count_satisfied(&spec, &rh_head.forward(&spec.features));
    println!("rowhammer-realized fault: {hits}/1 (partial plans may or may not land it)");
}

fn blobs(n: usize, d: usize, classes: usize, rng: &mut Prng) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::zeros(&[n, d]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        for j in 0..d {
            let center = if j % classes == class { 2.0 } else { 0.0 };
            x.row_mut(i)[j] = rng.normal(center, 0.4);
        }
    }
    (x, labels)
}
