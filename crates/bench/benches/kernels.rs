//! Micro-benchmarks for the numeric substrate: the kernels that dominate
//! feature extraction and the attack's inner loop, timed on the in-repo
//! [`fsa_bench::timing`] harness (`gemm_naive` included as the scalar
//! baseline the tiled engine is measured against).

use fsa_bench::timing::bench;
use fsa_nn::conv::{Conv2d, VolumeDims};
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_nn::layer::Layer;
use fsa_tensor::linalg::{gemm, gemm_naive, gemm_nt, gemm_tn};
use fsa_tensor::{Prng, Tensor};
use std::hint::black_box;

fn bench_gemm() {
    let mut rng = Prng::new(1);
    let n = 128;
    let a: Vec<f32> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..n * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let mut out = vec![0.0f32; n * n];
    let flops = 2.0 * (n * n * n) as f64;
    let naive = bench("gemm_naive_128", || {
        gemm_naive(n, n, n, black_box(&a), black_box(&b), &mut out);
        black_box(out[0])
    });
    let tiled = bench("gemm_128", || {
        gemm(n, n, n, black_box(&a), black_box(&b), &mut out, 1.0, 0.0);
        black_box(out[0])
    });
    println!(
        "  gemm_128: {:.2} GFLOP/s tiled vs {:.2} GFLOP/s naive ({:.2}x)",
        tiled.gflops(flops),
        naive.gflops(flops),
        naive.ns_per_iter / tiled.ns_per_iter
    );
    bench("gemm_tn_128", || {
        gemm_tn(n, n, n, black_box(&a), black_box(&b), &mut out, 1.0, 0.0);
        black_box(out[0])
    });
    bench("gemm_nt_128", || {
        gemm_nt(n, n, n, black_box(&a), black_box(&b), &mut out, 1.0, 0.0);
        black_box(out[0])
    });
}

/// `gemm_nt` at the paper's shapes (R = 100 images, m×k→n): the ADMM and
/// refine head forward, and the two layers of `activations_before`.
fn bench_gemm_nt_paper() {
    let mut rng = Prng::new(4);
    for (name, m, k, n) in [
        ("gemm_nt_100x200_to_10", 100, 200, 10),
        ("gemm_nt_100x1024_to_200", 100, 1024, 200),
        ("gemm_nt_100x200_to_200", 100, 200, 200),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut out = vec![0.0f32; m * n];
        let t = bench(name, || {
            gemm_nt(m, k, n, black_box(&a), black_box(&b), &mut out, 1.0, 0.0);
            black_box(out[0])
        });
        println!(
            "  {name}: {:.2} GFLOP/s",
            t.gflops(2.0 * (m * k * n) as f64)
        );
    }
}

/// The arena's 32→4 top layer over its R = 132 and 260 working sets: the
/// ADMM forward of `arena_int8_stealth`, timed as the attack runs it (a
/// one-layer head's `forward_from_caching`, buffers reused), so the
/// bias write-back is inside the number.
fn bench_linear_forward_arena() {
    let mut rng = Prng::new(5);
    let head = FcHead::from_dims(&[32, 4], &mut rng);
    for (name, m) in [
        ("linear_forward_132x32_to_4", 132),
        ("linear_forward_260x32_to_4", 260),
    ] {
        let x = Tensor::rand_uniform(&[m, 32], -1.0, 1.0, &mut rng);
        let mut bufs = HeadBuffers::new();
        bench(name, || {
            black_box(
                head.forward_from_caching(0, black_box(&x), &mut bufs)
                    .as_slice()[0],
            )
        });
    }
}

fn bench_conv_forward() {
    // The first C&W conv layer on one MNIST-shaped image.
    let mut rng = Prng::new(2);
    let conv = Conv2d::new_random(VolumeDims::new(1, 28, 28), 32, 3, &mut rng);
    let x = Tensor::randn(&[1, 784], 1.0, &mut rng);
    bench("conv2d_28x28_c32", || {
        black_box(conv.forward_infer(black_box(&x)))
    });
}

fn bench_prox() {
    // Prox operators on a last-FC-layer-sized vector (2010 params).
    let mut rng = Prng::new(3);
    let v: Vec<f32> = (0..2010).map(|_| rng.uniform(-0.1, 0.1)).collect();
    let mut out = vec![0.0f32; 2010];
    bench("prox_hard_threshold_2010", || {
        fsa_admm::prox::hard_threshold(black_box(&v), 0.001, 5.0, &mut out);
        black_box(out[0])
    });
    bench("prox_block_soft_2010", || {
        fsa_admm::prox::block_soft_threshold(black_box(&v), 0.001, 5.0, &mut out);
        black_box(out[0])
    });
}

fn main() {
    println!(
        "== kernel micro-benchmarks ({} threads) ==",
        fsa_tensor::parallel::max_threads()
    );
    bench_gemm();
    bench_gemm_nt_paper();
    bench_linear_forward_arena();
    bench_conv_forward();
    bench_prox();
}
