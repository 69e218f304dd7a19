//! Integration: the full pipeline is bit-reproducible from its seeds —
//! the property every experiment binary relies on.

use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fault_sneaking::data::dataset::Synthesizer;
use fault_sneaking::data::{SynthDigits, SynthObjects};
use fault_sneaking::tensor::Prng;

mod common;
use common::{clustered, train};
#[path = "common/rows.rs"]
mod rows;
use rows::rows;

#[test]
fn datasets_are_reproducible() {
    let d1 = SynthDigits::default().generate(64, 123);
    let d2 = SynthDigits::default().generate(64, 123);
    assert_eq!(d1, d2);
    let o1 = SynthObjects::default().generate(32, 9);
    let o2 = SynthObjects::default().generate(32, 9);
    assert_eq!(o1, o2);
}

#[test]
fn training_and_attack_are_reproducible() {
    let run = || {
        let mut rng = Prng::new(31337);
        let (x, labels) = clustered(90, 8, 3, 1.5, 0.4, &mut rng);
        let head = train(&[8, 12, 3], &x, &labels, 10, &mut rng);

        let (features, wl) = rows(&x, &labels, 0..10);
        let target = (wl[0] + 1) % 3;
        let spec = AttackSpec::new(features, wl, vec![target]).with_weights(10.0, 1.0);
        let attack = FaultSneakingAttack::new(
            &head,
            ParamSelection::last_layer(&head),
            AttackConfig::default(),
        );
        attack.run(&spec)
    };
    let a = run();
    let b = run();
    assert_eq!(a.delta, b.delta, "attack output must be bit-reproducible");
    assert_eq!(a.l0, b.l0);
    assert_eq!(a.s_success, b.s_success);
}

#[test]
fn different_seeds_give_different_data() {
    let d1 = SynthDigits::default().generate(64, 1);
    let d2 = SynthDigits::default().generate(64, 2);
    assert_ne!(d1, d2);
}
