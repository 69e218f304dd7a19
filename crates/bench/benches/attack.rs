//! Benchmarks for the attack itself: head passes, one ADMM iteration's
//! work, and a small end-to-end run, timed on the in-repo
//! [`fsa_bench::timing`] harness.

use fsa_attack::objective::{evaluate_hinge_into, HingeEval};
use fsa_attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fsa_bench::timing::bench;
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_tensor::{Prng, Tensor};
use std::hint::black_box;

/// Paper-scale head (1024→200→200→10) and a last-layer working batch.
fn paper_head() -> (FcHead, Tensor, Vec<usize>) {
    let mut rng = Prng::new(11);
    let head = FcHead::new_random(1024, 200, 200, 10, &mut rng);
    let features = Tensor::randn(&[100, 1024], 1.0, &mut rng);
    let labels = head.predict(&features);
    (head, features, labels)
}

fn bench_head_passes() {
    let (head, features, _) = paper_head();
    let start = head.num_layers() - 1;
    let acts = head.activations_before(start, &features);
    bench("head_forward_full_100x1024", || {
        black_box(head.forward(black_box(&features)))
    });
    bench("head_forward_truncated_100", || {
        black_box(head.forward_from(start, black_box(&acts)))
    });
    // Dense random `g` (training-shaped: every row active) and a
    // hinge-shaped `g`: 15 of the 100 rows active, each with +c/−c at
    // two classes, as the ADMM δ-step sees once most margins are met.
    let mut rng = Prng::new(12);
    let dense = Tensor::randn(&[100, 10], 1.0, &mut rng);
    let mut hinge = Tensor::zeros(&[100, 10]);
    for r in (0..100).step_by(7).take(15) {
        let row = hinge.row_mut(r);
        row[r % 10] = 2.0;
        row[(r + 3) % 10] = -2.0;
    }
    bench("head_logit_backward_truncated_100", || {
        black_box(head.logit_backward(start, black_box(&acts), black_box(&dense)))
    });
    bench("head_logit_backward_truncated_100_hinge15", || {
        black_box(head.logit_backward(start, black_box(&acts), black_box(&hinge)))
    });
    // The backward alone, on held buffers (the solver's steady state).
    let mut bufs = HeadBuffers::new();
    head.forward_from_caching(start, &acts, &mut bufs);
    for (name, g) in [("dense", &dense), ("hinge15", &hinge)] {
        bench(&format!("head_backward_from_cache_100_{name}"), || {
            black_box(
                head.backward_from_cache(start, black_box(&acts), g, &mut bufs)
                    .len(),
            )
        });
    }
}

/// Hinge evaluation at the paper's R = 100 and the larger working sets
/// of the R sweeps (Figs. 1–2), into a reused [`HingeEval`].
fn bench_hinge() {
    let (head, _, _) = paper_head();
    let mut rng = Prng::new(13);
    for r in [100, 256, 1000] {
        let features = Tensor::randn(&[r, 1024], 1.0, &mut rng);
        let labels = head.predict(&features);
        let targets = vec![(labels[0] + 1) % 10];
        let logits = head.forward(&features);
        let spec = AttackSpec::new(features, labels, targets);
        let mut out = HingeEval::default();
        bench(&format!("hinge_eval_{r}_images"), || {
            evaluate_hinge_into(black_box(&spec), black_box(&logits), 1.0, &mut out);
            black_box(out.total)
        });
    }
}

fn bench_end_to_end() {
    let (head, features, labels) = paper_head();
    let targets = vec![(labels[0] + 1) % 10];
    let spec = AttackSpec::new(features, labels, targets).with_weights(10.0, 1.0);
    let sel = ParamSelection::last_layer(&head);
    let cfg = AttackConfig {
        iterations: 50,
        refine: None,
        ..AttackConfig::default()
    };
    bench("attack_50iters_S1_R100_last_layer", || {
        let attack = FaultSneakingAttack::new(&head, sel.clone(), cfg.clone());
        black_box(attack.run(black_box(&spec)))
    });
}

fn main() {
    println!(
        "== attack benchmarks ({} threads) ==",
        fsa_tensor::parallel::max_threads()
    );
    bench_head_passes();
    bench_hinge();
    bench_end_to_end();
}
