//! Integration: the parallel kernel engine is **bit-deterministic in the
//! thread count** — the same attack run on 1 worker thread and on N
//! worker threads produces byte-identical results. This is the contract
//! that lets `FSA_THREADS`/core-count vary across machines without
//! perturbing any experiment.

use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fault_sneaking::nn::conv::{Conv2d, VolumeDims};
use fault_sneaking::nn::cw::{CwConfig, CwModel};
use fault_sneaking::nn::layer::Layer;
use fault_sneaking::tensor::parallel::{lock_threads, ThreadGuard};
use fault_sneaking::tensor::{parallel, Prng, Tensor};

mod common;
use common::{clustered, train};
#[path = "common/rows.rs"]
mod rows;
use rows::rows;

/// Builds a trained head + spec and runs the attack under `threads`
/// worker threads, returning the full δ vector.
fn run_attack(guard: &ThreadGuard, threads: usize) -> Vec<f32> {
    guard.set(threads);
    let mut rng = Prng::new(424242);
    let (x, labels) = clustered(120, 16, 4, 1.5, 0.4, &mut rng);
    let head = train(&[16, 24, 24, 4], &x, &labels, 8, &mut rng);

    let (features, wl) = rows(&x, &labels, 0..20);
    let targets = vec![(wl[0] + 1) % 4, (wl[1] + 2) % 4];
    let spec = AttackSpec::new(features, wl, targets).with_weights(10.0, 1.0);
    let attack = FaultSneakingAttack::new(
        &head,
        ParamSelection::last_layer(&head),
        AttackConfig {
            iterations: 120,
            ..AttackConfig::default()
        },
    );
    attack.run(&spec).delta
}

#[test]
fn attack_is_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let single = run_attack(&guard, 1);
    assert!(
        single.iter().any(|&d| d != 0.0),
        "fixture attack produced an empty δ"
    );
    for threads in [2, 4, 7] {
        let multi = run_attack(&guard, threads);
        assert!(
            single == multi,
            "δ differs between 1 and {threads} threads — kernel partitioning leaked into results"
        );
    }
}

/// The batched conv feature-extraction pipeline (network-level batch
/// dispatch → per-conv batch dispatch → row-block kernels, all routed
/// through `parallel::par_row_blocks`) produces byte-identical features at
/// every thread count — including a strided non-square conv the C&W
/// stack never exercises.
#[test]
fn batched_conv_pipeline_is_bit_identical_for_any_thread_count() {
    let guard = lock_threads();
    let mut rng = Prng::new(909);
    // Paper-scale extractor so the network-level batch dispatch engages.
    let cfg = CwConfig::mnist();
    let model = CwModel::new_random(cfg, &mut rng);
    let images = Tensor::rand_uniform(&[6, cfg.input.features()], 0.0, 1.0, &mut rng);
    // Odd geometry exercising the general im2col paths.
    let dims = VolumeDims::new(3, 11, 9);
    let odd_conv = Conv2d::new_random_strided(dims, 5, (3, 2), 2, &mut rng);
    let odd_x = Tensor::rand_uniform(&[13, dims.features()], -1.0, 1.0, &mut rng);

    let run = |threads: usize| {
        guard.set(threads);
        let feats = model.extract_features(&images);
        let odd = odd_conv.forward_infer(&odd_x);
        (feats, odd)
    };
    let base = run(1);
    assert!(
        base.0.as_slice().iter().any(|&v| v != 0.0),
        "extractor produced all-zero features; fixture is vacuous"
    );
    for threads in [2, 3, 8] {
        let got = run(threads);
        assert!(
            base == got,
            "batched conv pipeline changed bits at {threads} threads"
        );
    }
}

/// Nested dispatch itself: thread counts and budget walls that split
/// work differently between batch-level workers and their inner
/// kernels must compute identical results.
#[test]
fn nested_scheduler_plans_do_not_change_results() {
    let guard = lock_threads();
    let mut rng = Prng::new(910);
    let dims = VolumeDims::new(2, 12, 12);
    let conv = Conv2d::new_random(dims, 8, 3, &mut rng);
    let x = Tensor::rand_uniform(&[9, dims.features()], -1.0, 1.0, &mut rng);
    let run = |threads: usize, budget: usize| {
        guard.set(threads);
        parallel::with_budget(budget, || conv.forward_infer(&x))
    };
    let base = run(1, 1);
    for (threads, budget) in [(1, 2), (2, 3), (3, 8), (8, 2), (8, 8)] {
        assert!(
            base == run(threads, budget),
            "plan for threads={threads} budget={budget} changed conv bits"
        );
    }
}

#[test]
fn kernel_outputs_are_bit_identical_for_any_thread_count() {
    use fault_sneaking::tensor::linalg::{gemm, gemm_nt, gemm_tn};
    let guard = lock_threads();
    let mut rng = Prng::new(7);
    let (m, k, n) = (93, 310, 71);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
    let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);

    let run = |threads: usize| {
        guard.set(threads);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, a.as_slice(), b.as_slice(), &mut c, 1.3, 0.0);
        let mut ct = vec![0.0f32; k * k]; // (m×k)ᵀ · (m×? ) — use A as both operands
        gemm_tn(k, m, k, a.as_slice(), a.as_slice(), &mut ct, 1.0, 0.0);
        let mut cnt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, a.as_slice(), bt.as_slice(), &mut cnt, 1.0, 0.0);
        (c, ct, cnt)
    };
    let base = run(1);
    for threads in [2, 3, 5, 16] {
        assert!(
            base == run(threads),
            "kernel bits changed at {threads} threads"
        );
    }
}

/// The same contract above the kernels' work floors
/// (`parallel::min_rows_for_work`), where a dispatch really splits:
/// about 5.4 MFLOP per worker for the GEMMs (rows of `2·k·n` flops, so
/// 166 rows at k = 256, n = 64, and 665 for the 4-class layer at
/// k = 1024) and 0.64 MOP for `gemm_i8_nt` (20 rows at k = 256, n = 64).
/// Each shape below holds more than two workers' worth of rows. The
/// 4-class `gemm_nt_bias` runs 2-row whole-row tiles over an odd row
/// count, so its blocks start at odd rows (1001 at 2 threads, 667 at 3).
#[test]
fn kernels_split_above_their_work_floor_keep_their_bits() {
    use fault_sneaking::tensor::linalg::{gemm, gemm_nt, gemm_nt_bias, gemm_tn};
    use fault_sneaking::tensor::quant::gemm_i8_nt;
    let guard = lock_threads();
    let mut rng = Prng::new(8);
    let (m, k, n) = (400, 256, 64);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
    let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
    let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
    let qa: Vec<i8> = (0..m * k).map(|i| (i * 37 % 255) as i8).collect();
    let qb: Vec<i8> = (0..n * k).map(|i| (i * 91 % 253) as i8).collect();
    let (m4, k4, n4) = (2001, 1024, 4);
    let x4 = Tensor::rand_uniform(&[m4, k4], -1.0, 1.0, &mut rng);
    let w4 = Tensor::rand_uniform(&[n4, k4], -1.0, 1.0, &mut rng);
    let b4 = Tensor::rand_uniform(&[n4], -1.0, 1.0, &mut rng);

    let run = |threads: usize| {
        guard.set(threads);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, a.as_slice(), b.as_slice(), &mut c, 1.3, 0.0);
        let mut ct = vec![0.0f32; m * n];
        gemm_tn(m, k, n, at.as_slice(), b.as_slice(), &mut ct, 1.0, 0.0);
        let mut cnt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, a.as_slice(), bt.as_slice(), &mut cnt, 1.0, 0.0);
        let mut qc = vec![0i32; m * n];
        gemm_i8_nt(m, k, n, &qa, &qb, &mut qc);
        let mut y4 = vec![0.0f32; m4 * n4];
        let (x4, w4, b4) = (x4.as_slice(), w4.as_slice(), b4.as_slice());
        gemm_nt_bias(m4, k4, n4, x4, w4, b4, &mut y4);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits(&c), bits(&ct), bits(&cnt), qc, bits(&y4))
    };
    let base = run(1);
    for threads in [2, 3, 5, 16] {
        assert!(
            base == run(threads),
            "kernel bits changed at {threads} threads"
        );
    }
}

/// The guard's two promises: a test that panics while holding it
/// leaves the thread count at its default, and the next test can still
/// take it. The panicking holder sets a count other than the default,
/// so a count it left behind would show.
#[test]
fn thread_guard_survives_a_panicking_holder() {
    let default = {
        let _guard = lock_threads();
        parallel::max_threads()
    };
    let other = if default == 1 { 2 } else { 1 };
    let holder = std::thread::spawn(move || {
        let guard = lock_threads();
        guard.set(other);
        panic!("a failing test body, holding the thread guard");
    });
    assert!(holder.join().is_err(), "the holder must have panicked");
    let _guard = lock_threads();
    assert_eq!(
        parallel::max_threads(),
        default,
        "a panicking holder left its thread count behind"
    );
}

/// An override past the host's core count is taken verbatim, so the
/// `[2, 3, 8]` sweeps above really split work 3 and 8 ways on a 2-core
/// host instead of comparing 1 thread against 2 again.
#[test]
fn set_threads_takes_a_count_past_the_core_count_verbatim() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let guard = lock_threads();
    guard.set(cores + 1);
    assert_eq!(parallel::max_threads(), cores + 1);
}
