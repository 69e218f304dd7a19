//! Integration: the parallel kernel engine is **bit-deterministic in the
//! thread count** — the same attack run on 1 worker thread and on N
//! worker threads produces byte-identical results. This is the contract
//! that lets `FSA_THREADS`/core-count vary across machines without
//! perturbing any experiment.

use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fault_sneaking::nn::conv::{Conv2d, VolumeDims};
use fault_sneaking::nn::cw::{CwConfig, CwModel};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::nn::layer::Layer;
use fault_sneaking::tensor::{parallel, Prng, Tensor};
use std::sync::Mutex;

/// Serializes the tests in this binary: both mutate the process-global
/// thread override, and a concurrent `set_threads` would let the
/// "1-thread" baseline silently run multi-threaded, making the
/// comparison vacuous.
static THREAD_LOCK: Mutex<()> = Mutex::new(());

/// Builds a trained head + spec and runs the attack under `threads`
/// worker threads, returning the full δ vector.
fn run_attack(threads: usize) -> Vec<f32> {
    parallel::set_threads(threads);
    let mut rng = Prng::new(424242);
    let mut x = Tensor::zeros(&[120, 16]);
    let mut labels = Vec::new();
    for i in 0..120 {
        let class = i % 4;
        labels.push(class);
        for j in 0..16 {
            let center = if j % 4 == class { 1.5 } else { 0.0 };
            x.row_mut(i)[j] = rng.normal(center, 0.4);
        }
    }
    let mut head = FcHead::from_dims(&[16, 24, 24, 4], &mut rng);
    train_head(
        &mut head,
        &x,
        &labels,
        &HeadTrainConfig {
            epochs: 8,
            ..Default::default()
        },
        &mut rng,
    );

    let r = 20;
    let mut features = Tensor::zeros(&[r, 16]);
    for i in 0..r {
        features.row_mut(i).copy_from_slice(x.row(i));
    }
    let wl = labels[..r].to_vec();
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
    let result = attack.run(&spec);
    parallel::set_threads(0);
    result.delta
}

#[test]
fn attack_is_bit_identical_for_any_thread_count() {
    let _guard = THREAD_LOCK.lock().unwrap();
    let single = run_attack(1);
    assert!(
        single.iter().any(|&d| d != 0.0),
        "fixture attack produced an empty δ"
    );
    for threads in [2, 4, 7] {
        let multi = run_attack(threads);
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
    let _guard = THREAD_LOCK.lock().unwrap();
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
        parallel::set_threads(threads);
        let feats = model.extract_features(&images);
        let odd = odd_conv.forward_infer(&odd_x);
        parallel::set_threads(0);
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
    let _guard = THREAD_LOCK.lock().unwrap();
    let mut rng = Prng::new(910);
    let dims = VolumeDims::new(2, 12, 12);
    let conv = Conv2d::new_random(dims, 8, 3, &mut rng);
    let x = Tensor::rand_uniform(&[9, dims.features()], -1.0, 1.0, &mut rng);
    let run = |threads: usize, budget: usize| {
        parallel::set_threads(threads);
        let y = parallel::with_budget(budget, || conv.forward_infer(&x));
        parallel::set_threads(0);
        y
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
    use fault_sneaking::tensor::linalg::{gemm, gemm_nt, gemm_tn, gemv};
    let _guard = THREAD_LOCK.lock().unwrap();
    let mut rng = Prng::new(7);
    let (m, k, n) = (93, 310, 71);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
    let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
    let x = Tensor::rand_uniform(&[k], -1.0, 1.0, &mut rng);

    let run = |threads: usize| {
        parallel::set_threads(threads);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, a.as_slice(), b.as_slice(), &mut c, 1.3, 0.0);
        let mut ct = vec![0.0f32; k * k]; // (m×k)ᵀ · (m×? ) — use A as both operands
        gemm_tn(k, m, k, a.as_slice(), a.as_slice(), &mut ct, 1.0, 0.0);
        let mut cnt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, a.as_slice(), bt.as_slice(), &mut cnt, 1.0, 0.0);
        let mut y = vec![0.0f32; m];
        gemv(m, k, a.as_slice(), x.as_slice(), &mut y, 1.0, 0.0);
        parallel::set_threads(0);
        (c, ct, cnt, y)
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
/// 166 rows at k = 256, n = 64), 2.2 MFLOP for `gemv` (1063 rows at
/// n = 1024) and 0.64 MOP for `gemm_i8_nt` (20 rows at k = 256, n = 64).
/// Each shape below holds more than two workers' worth of rows.
#[test]
fn kernels_split_above_their_work_floor_keep_their_bits() {
    use fault_sneaking::tensor::linalg::{gemm, gemm_nt, gemm_tn, gemv};
    use fault_sneaking::tensor::quant::gemm_i8_nt;
    let _guard = THREAD_LOCK.lock().unwrap();
    let mut rng = Prng::new(8);
    let (m, k, n) = (400, 256, 64);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
    let bt = Tensor::rand_uniform(&[n, k], -1.0, 1.0, &mut rng);
    let at = Tensor::rand_uniform(&[k, m], -1.0, 1.0, &mut rng);
    let (gm, gn) = (2200, 1024);
    let ga = Tensor::rand_uniform(&[gm, gn], -1.0, 1.0, &mut rng);
    let gx = Tensor::rand_uniform(&[gn], -1.0, 1.0, &mut rng);
    let qa: Vec<i8> = (0..m * k).map(|i| (i * 37 % 255) as i8).collect();
    let qb: Vec<i8> = (0..n * k).map(|i| (i * 91 % 253) as i8).collect();

    let run = |threads: usize| {
        parallel::set_threads(threads);
        let mut c = vec![0.0f32; m * n];
        gemm(m, k, n, a.as_slice(), b.as_slice(), &mut c, 1.3, 0.0);
        let mut ct = vec![0.0f32; m * n];
        gemm_tn(m, k, n, at.as_slice(), b.as_slice(), &mut ct, 1.0, 0.0);
        let mut cnt = vec![0.0f32; m * n];
        gemm_nt(m, k, n, a.as_slice(), bt.as_slice(), &mut cnt, 1.0, 0.0);
        let mut y = vec![0.0f32; gm];
        gemv(gm, gn, ga.as_slice(), gx.as_slice(), &mut y, 1.0, 0.0);
        let mut qc = vec![0i32; m * n];
        gemm_i8_nt(m, k, n, &qa, &qb, &mut qc);
        parallel::set_threads(0);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (bits(&c), bits(&ct), bits(&cnt), bits(&y), qc)
    };
    let base = run(1);
    for threads in [2, 3, 5, 16] {
        assert!(
            base == run(threads),
            "kernel bits changed at {threads} threads"
        );
    }
}
