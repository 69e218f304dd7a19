//! Integration: the int8 backend against its `f32` oracles.
//!
//! Three layers of evidence that quantized inference computes what it
//! claims:
//!
//! 1. **Storage round-trip** — quantize → dequantize moves every
//!    parameter by at most half a grid step, and the dequantized head's
//!    *accuracy* stays within a small margin of the `f32` oracle on a
//!    separable dataset (the "accuracy drop from quantization" bound the
//!    bench artifact reports).
//! 2. **Kernel tolerance oracle** — `gemm_i8_nt` over quantized
//!    operands approximates the `f32` GEMM of the *dequantized* operands
//!    to the error budget quantization theory predicts (the integer
//!    kernel is exact; all error is representational and bounded by
//!    `k · (|a|·s_b/2 + |b|·s_a/2 + s_a·s_b/4)` per output).
//! 3. **End-to-end agreement** — int8 logits track `f32` logits closely
//!    enough that argmax agrees on a large majority of well-separated
//!    samples.

use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::tensor::linalg::gemm_naive;
use fault_sneaking::tensor::quant::{dequantize_slice, gemm_i8_nt, quantize_slice, QuantParams};
use fault_sneaking::tensor::Prng;

mod common;
use common::{clustered, train};

#[test]
fn quantized_head_accuracy_tracks_the_f32_oracle() {
    let mut rng = Prng::new(7001);
    let (x, labels) = clustered(200, 16, 4, 2.0, 0.4, &mut rng);
    let head = train(&[16, 24, 4], &x, &labels, 40, &mut rng);
    let f32_acc = head.accuracy(&x, &labels);
    assert!(f32_acc > 0.95, "victim failed to train ({f32_acc})");

    let qhead = QuantizedHead::quantize(&head);
    // The dequantized head (storage round-trip through the grid) and
    // the true int8 inference path must both stay within a few points.
    let deq_acc = qhead.dequantized_head().accuracy(&x, &labels);
    let int8_acc = qhead.accuracy(&x, &labels);
    assert!(
        (f32_acc - deq_acc).abs() <= 0.05,
        "dequantized storage lost {} accuracy",
        f32_acc - deq_acc
    );
    assert!(
        (f32_acc - int8_acc).abs() <= 0.05,
        "int8 inference lost {} accuracy",
        f32_acc - int8_acc
    );
}

#[test]
fn int8_gemm_meets_the_quantization_error_budget() {
    let mut rng = Prng::new(7002);
    for &(m, k, n) in &[(4, 8, 3), (7, 32, 5), (12, 64, 9)] {
        let a: Vec<f32> = (0..m * k).map(|_| rng.normal(0.0, 1.0)).collect();
        let b: Vec<f32> = (0..n * k).map(|_| rng.normal(0.0, 1.0)).collect();
        let ap = QuantParams::from_absmax(&a);
        let bp = QuantParams::from_absmax(&b);
        let aq = quantize_slice(ap, &a);
        let bq = quantize_slice(bp, &b);

        // Integer kernel, then rescale.
        let mut acc = vec![0i32; m * n];
        gemm_i8_nt(m, k, n, &aq, &bq, &mut acc);
        let rescale = ap.scale * bp.scale;
        let got: Vec<f32> = acc.iter().map(|&v| v as f32 * rescale).collect();

        // Exact f32 oracle over the ORIGINAL operands (b transposed into
        // k×n for the NN kernel).
        let mut bt = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                bt[p * n + j] = b[j * k + p];
            }
        }
        let mut oracle = vec![0.0f32; m * n];
        gemm_naive(m, k, n, &a, &bt, &mut oracle);

        // Per-element representational error bound: each product a·b is
        // perturbed by at most |a|·s_b/2 + |b|·s_a/2 + s_a·s_b/4, summed
        // over k terms. Use the max |a|, |b| for a conservative bound.
        let amax = a.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let bmax = b.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let budget =
            k as f32 * (amax * bp.scale / 2.0 + bmax * ap.scale / 2.0 + ap.scale * bp.scale / 4.0);
        for (i, (&g, &o)) in got.iter().zip(&oracle).enumerate() {
            assert!(
                (g - o).abs() <= budget,
                "({m},{k},{n}) element {i}: |{g} - {o}| = {} exceeds budget {budget}",
                (g - o).abs()
            );
        }

        // And the dequantized-operand oracle agrees even more tightly:
        // the integer kernel is EXACT on the grid, so the only residual
        // vs this oracle is f32 rounding of the rescale itself.
        let adq = dequantize_slice(ap, &aq);
        let bdq = dequantize_slice(bp, &bq);
        let mut btdq = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                btdq[p * n + j] = bdq[j * k + p];
            }
        }
        let mut grid_oracle = vec![0.0f32; m * n];
        gemm_naive(m, k, n, &adq, &btdq, &mut grid_oracle);
        for (&g, &o) in got.iter().zip(&grid_oracle) {
            let tol = 1e-4 * o.abs().max(1.0);
            assert!(
                (g - o).abs() <= tol,
                "grid oracle drift {} exceeds f32 rounding tolerance {tol}",
                (g - o).abs()
            );
        }
    }
}

#[test]
fn int8_logits_argmax_mostly_agrees_with_f32() {
    let mut rng = Prng::new(7003);
    let (x, labels) = clustered(160, 12, 3, 2.0, 0.4, &mut rng);
    let head = train(&[12, 20, 3], &x, &labels, 40, &mut rng);
    let qhead = QuantizedHead::quantize(&head);
    let f32_preds = head.predict(&x);
    let int8_preds = qhead.predict(&x);
    let agree = f32_preds
        .iter()
        .zip(&int8_preds)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        agree as f32 / f32_preds.len() as f32 >= 0.95,
        "int8 argmax agrees on only {agree}/{} samples",
        f32_preds.len()
    );
}
