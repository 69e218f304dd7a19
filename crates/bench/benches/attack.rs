//! Benchmarks for the attack itself: head passes, one ADMM iteration's
//! work, and a small end-to-end run, timed on the in-repo
//! [`fsa_bench::timing`] harness.

use fsa_attack::eval::apply_delta;
use fsa_attack::objective::{evaluate_hinge_into, HingeEval};
use fsa_attack::refine::{refine_on_support, RefineConfig};
use fsa_attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fsa_bench::timing::bench;
use fsa_defense::{DefenseSuite, Observation};
use fsa_memfault::DramGeometry;
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_nn::quant::QuantizedHead;
use fsa_nn::stats::{cached_forward_stats, head_forward_stats, max_normalized_drift};
use fsa_nn::FeatureCache;
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
    // The backward visits exactly the active rows (every logit is
    // finite).
    let mut hinge = Tensor::zeros(&[100, 10]);
    let rows: Vec<usize> = (0..100).step_by(7).take(15).collect();
    for &r in &rows {
        let row = hinge.row_mut(r);
        row[r % 10] = 2.0;
        row[(r + 3) % 10] = -2.0;
    }
    // The backward on held buffers (the solver's steady state):
    // every row for the dense `g`, the listed rows for the hinge one.
    let mut bufs = HeadBuffers::new();
    head.forward_from_caching(start, &acts, &mut bufs);
    bench("head_backward_from_cache_100_dense", || {
        black_box(
            head.backward_from_cache(start, black_box(&acts), &dense, &mut bufs)
                .len(),
        )
    });
    bench("head_backward_from_cache_100_hinge15", || {
        black_box(
            head.backward_rows(start, black_box(&acts), &hinge, &rows, &mut bufs)
                .len(),
        )
    });
}

/// The arena-shaped twin of `head_backward_from_cache_100_hinge15`: a
/// 32→32→32→4 head truncated to its last (32→4) layer, R = 260 (two
/// `KC` tiles), 80 rows active with `+c`/`−c` at two of the 4 classes.
fn bench_arena_backward() {
    let mut rng = Prng::new(15);
    let head = FcHead::from_dims(&[32, 32, 32, 4], &mut rng);
    let start = head.num_layers() - 1;
    let features = Tensor::randn(&[260, 32], 1.0, &mut rng);
    let acts = head.activations_before(start, &features);
    let mut hinge = Tensor::zeros(&[260, 4]);
    let rows: Vec<usize> = (0..260).step_by(3).take(80).collect();
    for &r in &rows {
        let row = hinge.row_mut(r);
        row[r % 4] = 40.0;
        row[(r + 1) % 4] = -40.0;
    }
    let mut bufs = HeadBuffers::new();
    head.forward_from_caching(start, &acts, &mut bufs);
    bench("head_backward_from_cache_260_hinge80", || {
        black_box(
            head.backward_rows(start, black_box(&acts), &hinge, &rows, &mut bufs)
                .len(),
        )
    });
}

/// The top layer's list-driven backward across class counts and input
/// widths: one `W → C` layer at R = 260 (two `KC` tiles), 80 rows active
/// with `+c`/`−c` at two classes. These rows set where the top layer's
/// register build stops paying (`fsa_nn::head`'s `WIDE_MAX_CLASSES`).
fn bench_class_sweep() {
    let mut rng = Prng::new(16);
    for width in [32, 200] {
        for classes in [4, 6, 8, 10] {
            let head = FcHead::from_dims(&[width, classes], &mut rng);
            let acts = Tensor::randn(&[260, width], 1.0, &mut rng);
            let mut hinge = Tensor::zeros(&[260, classes]);
            let rows: Vec<usize> = (0..260).step_by(3).take(80).collect();
            for &r in &rows {
                let row = hinge.row_mut(r);
                row[r % classes] = 40.0;
                row[(r + 1) % classes] = -40.0;
            }
            let mut bufs = HeadBuffers::new();
            head.forward_from_caching(0, &acts, &mut bufs);
            bench(
                &format!("backward_rows_260x{width}_to_{classes}_hinge80"),
                || {
                    black_box(
                        head.backward_rows(0, black_box(&acts), &hinge, &rows, &mut bufs)
                            .len(),
                    )
                },
            );
        }
    }
}

/// A scenario's inputs to the paper head's last layer: the frozen
/// 1024→200→200 prefix run over its 100 rows, against a row gather from
/// that prefix run once over a 180-image pool (what a campaign spec
/// hands the attack).
fn bench_prefix() {
    let (head, _, _) = paper_head();
    let start = head.num_layers() - 1;
    let mut rng = Prng::new(16);
    let pool = Tensor::randn(&[180, 1024], 1.0, &mut rng);
    let rows: Vec<usize> = (0..100).map(|k| (k * 7) % 180).collect();
    let features = FeatureCache::from_features(pool.clone()).gather(&rows);
    let pool_acts = FeatureCache::from_features(head.activations_before(start, &pool));
    bench("prefix_activations_before_100x1024", || {
        black_box(head.activations_before(start, black_box(&features)))
    });
    bench("prefix_gather_100_of_180", || {
        black_box(pool_acts.gather(black_box(&rows)))
    });
}

/// The arena's non-ADMM work on its 32→32→32→4 head (2,244 parameters):
/// the randomized suite scoring a head whose last layer carries a
/// 56-word δ (the arena's mean ℓ0), and the int8 measurement of an
/// R = 260 working set, in full and from a 400-image pool prefix below
/// the last layer.
fn bench_arena_scoring() {
    let mut rng = Prng::new(19);
    let head = FcHead::from_dims(&[32, 32, 32, 4], &mut rng);
    let probe = Tensor::randn(&[60, 32], 1.0, &mut rng);
    let probe_labels = head.predict(&probe);
    let holdout = FeatureCache::from_features(Tensor::randn(&[60, 32], 1.0, &mut rng));
    let geometry = DramGeometry {
        banks: 4,
        rows_per_bank: 4096,
        row_bytes: 256,
    };
    let suite = DefenseSuite::randomized(
        &head,
        &FeatureCache::from_features(probe),
        &probe_labels,
        &holdout,
        geometry,
        0.25,
        0.75,
        0.75,
        0xAD17_5EED,
    );
    let start = head.num_layers() - 1;
    let mut tampered = head.clone();
    let mut top = tampered.layer_flat_params(start);
    for k in rng.choose_distinct(top.len(), 56) {
        top[k] += 0.05;
    }
    tampered.set_layer_flat_params(start, &top);
    bench("arena_suite_eval_2244_last_layer_l0_56", || {
        black_box(suite.evaluate(&Observation {
            head: black_box(&tampered),
        }))
    });

    let qhead = QuantizedHead::quantize(&head);
    let pool = Tensor::randn(&[400, 32], 1.0, &mut rng);
    let rows: Vec<usize> = (0..260).map(|k| (k * 3) % 400).collect();
    let features = FeatureCache::from_features(pool.clone()).gather(&rows);
    let pool_acts = FeatureCache::from_features(qhead.activations_before(start, &pool));
    bench("int8_measure_R260_full", || {
        black_box(qhead.forward(black_box(&features)))
    });
    bench("int8_measure_R260_prefix", || {
        black_box(qhead.forward_from(start, &pool_acts.gather(black_box(&rows))))
    });
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

/// The hinge at the stealth arena's shape: R = 260 images over 4
/// classes at κ = 2, four of them faults, and about 70 rows active (each
/// keep row's label logit leads the others' range by 0.5 or by 3).
fn bench_arena_hinge() {
    let mut rng = Prng::new(17);
    let (r, classes) = (260, 4);
    let labels: Vec<usize> = (0..r).map(|i| i % classes).collect();
    let targets: Vec<usize> = labels[..4].iter().map(|&l| (l + 1) % classes).collect();
    let mut logits = Tensor::rand_uniform(&[r, classes], -1.0, 1.0, &mut rng);
    for (i, &l) in labels.iter().enumerate() {
        let row = logits.row_mut(i);
        let lead = if i % 26 < 7 { 0.5 } else { 3.0 };
        row[l] = 1.0 + lead;
    }
    let spec = AttackSpec::new(Tensor::zeros(&[r, 1]), labels, targets).with_weights(40.0, 1.0);
    let mut out = HingeEval::default();
    evaluate_hinge_into(&spec, &logits, 2.0, &mut out);
    println!("hinge at R = 260, 4 classes: {} rows active", out.active);
    bench("hinge_eval_260x4", || {
        evaluate_hinge_into(black_box(&spec), black_box(&logits), 2.0, &mut out);
        black_box(out.total)
    });
}

/// One δ-step's hinge and backward over the rows it lists, on a head's
/// last layer: the paper's 200→10 at R = 100 with 15 rows active, and the
/// arena's 32→4 at R = 260 with 80. Each active keep row enforces its
/// runner-up class in place of its prediction.
fn bench_hinge_backward() {
    let mut rng = Prng::new(18);
    for (dims, r, active, name) in [
        (
            &[1024, 200, 200, 10][..],
            100,
            15,
            "hinge_backward_100x200_to_10_hinge15",
        ),
        (
            &[32, 32, 32, 4][..],
            260,
            80,
            "hinge_backward_260x32_to_4_hinge80",
        ),
    ] {
        let head = FcHead::from_dims(dims, &mut rng);
        let start = head.num_layers() - 1;
        let features = Tensor::randn(&[r, dims[0]], 1.0, &mut rng);
        let acts = head.activations_before(start, &features);
        let mut bufs = HeadBuffers::new();
        let logits = head.forward_from_caching(start, &acts, &mut bufs).clone();
        // The prediction and the runner-up of each row.
        let ranked: Vec<(usize, usize)> = (0..r)
            .map(|i| {
                let mut order: Vec<usize> = (0..head.classes()).collect();
                order.sort_by(|&a, &b| logits.row(i)[b].total_cmp(&logits.row(i)[a]));
                (order[0], order[1])
            })
            .collect();
        // Image 0 is the fault, its target the runner-up; then every
        // (r / active)-th keep row enforces its runner-up.
        let stride = r / active;
        let labels: Vec<usize> = (0..r)
            .map(|i| {
                let (top, second) = ranked[i];
                if i > 0 && i % stride == 0 && i / stride < active {
                    second
                } else {
                    top
                }
            })
            .collect();
        let spec = AttackSpec::new(features, labels, vec![ranked[0].1]);
        let mut hinge = HingeEval::default();
        evaluate_hinge_into(&spec, &logits, 0.0, &mut hinge);
        println!("{name}: {} rows active", hinge.active);
        bench(name, || {
            evaluate_hinge_into(&spec, black_box(&logits), 0.0, &mut hinge);
            black_box(
                head.backward_rows(start, &acts, &hinge.logit_grad, hinge.rows(), &mut bufs)
                    .len(),
            )
        });
    }
}

/// Refine at the stealth arena's shape: a 32→32→32→4 head, R = 260
/// (four faults), last-layer selection and the default 60-step pass,
/// under a drift budget that binds partway and under one that never
/// binds.
fn bench_refine_drift_wall() {
    let mut rng = Prng::new(14);
    let head = FcHead::from_dims(&[32, 32, 32, 4], &mut rng);
    let features = Tensor::randn(&[260, 32], 1.0, &mut rng);
    let labels = head.predict(&features);
    let targets = (0..4).map(|i| (labels[i] + 1) % 4).collect();
    let spec = AttackSpec::new(features, labels, targets).with_weights(40.0, 1.0);
    let sel = ParamSelection::last_layer(&head);
    let start = sel.start_layer();
    let theta0 = sel.gather(&head);
    let acts = head.activations_before(start, &spec.features);
    let mut bufs = HeadBuffers::new();
    head.forward_from_caching(start, &acts, &mut bufs);
    let mut reference = Vec::new();
    cached_forward_stats(&bufs, &mut reference);
    // A sparse starting δ, as ADMM hands one over: every third weight.
    let delta0: Vec<f32> = (0..theta0.len())
        .map(|i| if i % 3 == 0 { 0.01 } else { 0.0 })
        .collect();
    let mut work = head.clone();
    let mut run = |iterations: usize, budget: f32, delta: &mut [f32]| {
        delta.copy_from_slice(&delta0);
        // A small fixed step keeps the drift climbing steadily, so the
        // budget taken from half the pass binds near its middle.
        let cfg = RefineConfig {
            iterations,
            step: Some(1e-3),
        };
        refine_on_support(
            &mut work,
            &sel,
            &theta0,
            &spec,
            &acts,
            2.0,
            1.0,
            &cfg,
            Some((&reference, budget)),
            delta,
        )
    };
    // The binding budget is the whole-head drift after half the pass.
    let steps = RefineConfig::default().iterations;
    let mut delta = delta0.clone();
    run(steps / 2, f32::MAX, &mut delta);
    let mut attacked = head.clone();
    apply_delta(&mut attacked, &sel, &theta0, &delta);
    let full = head_forward_stats(&head, &spec.features).1;
    let binding =
        max_normalized_drift(&head_forward_stats(&attacked, &spec.features).1, &full) as f32;
    println!(
        "refine at R = 260: slack pass {} steps, binding budget {binding:.3} stops at {}",
        run(steps, f32::MAX, &mut delta),
        run(steps, binding, &mut delta)
    );
    for (name, budget) in [("binding", binding), ("slack", f32::MAX)] {
        bench(&format!("refine_arena_R260_drift_{name}"), || {
            black_box(run(steps, black_box(budget), &mut delta))
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
    bench_arena_backward();
    bench_class_sweep();
    bench_prefix();
    bench_hinge();
    bench_arena_hinge();
    bench_arena_scoring();
    bench_hinge_backward();
    bench_refine_drift_wall();
    bench_end_to_end();
}
