//! Property tests pitting the batched conv forward pipeline against a
//! naive per-image direct-convolution oracle — the conv analogue of the
//! gemm-vs-`gemm_naive` suite in `fsa-tensor::linalg`.
//!
//! Shapes deliberately hit what the fast paths do not privilege:
//! non-square kernels, stride > 1, batch of 1, channels = 1, and a
//! kernel covering the whole input. Budgets are varied through
//! [`parallel::with_budget`] (thread-local, so this test is race-free)
//! to drive dispatch through serial, batch-level, and mixed
//! partitions.

use fault_sneaking::nn::conv::{Conv2d, VolumeDims};
use fault_sneaking::nn::layer::Layer;
use fault_sneaking::tensor::{parallel, Prng, Tensor};

/// Direct (quadruple-loop, no im2col) valid-padding convolution of one
/// image, accumulated in `f64` — the oracle.
#[allow(clippy::too_many_arguments)]
fn conv_naive_single(
    x: &[f32],
    dims: VolumeDims,
    out_channels: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    weight: &[f32],
    bias: &[f32],
) -> Vec<f32> {
    let (c, h, w) = (dims.channels, dims.height, dims.width);
    let oh = (h - kh) / stride + 1;
    let ow = (w - kw) / stride + 1;
    let kk = c * kh * kw;
    let mut y = vec![0.0f32; out_channels * oh * ow];
    for oc in 0..out_channels {
        for oi in 0..oh {
            for oj in 0..ow {
                let mut acc = 0.0f64;
                for ch in 0..c {
                    for ki in 0..kh {
                        for kj in 0..kw {
                            let xv = x[(ch * h + oi * stride + ki) * w + oj * stride + kj];
                            let wv = weight[oc * kk + (ch * kh + ki) * kw + kj];
                            acc += xv as f64 * wv as f64;
                        }
                    }
                }
                y[(oc * oh + oi) * ow + oj] = acc as f32 + bias[oc];
            }
        }
    }
    y
}

/// `(channels, height, width, out_channels, kh, kw, stride, batch)`.
type ConvCase = (usize, usize, usize, usize, usize, usize, usize, usize);

/// Cases covering the odd-shape corners.
const SHAPES: &[ConvCase] = &[
    (1, 4, 4, 1, 2, 2, 1, 1),   // batch of 1, single channel
    (1, 5, 7, 2, 3, 1, 1, 2),   // non-square kernel (tall)
    (1, 6, 5, 3, 1, 3, 1, 3),   // non-square kernel (wide)
    (2, 7, 7, 2, 3, 3, 2, 2),   // stride 2
    (3, 8, 6, 4, 2, 3, 2, 4),   // stride 2, rectangular, multi-channel
    (1, 9, 9, 1, 9, 9, 1, 1),   // kernel == input (single output pixel)
    (2, 10, 11, 5, 3, 2, 3, 5), // stride 3
    (1, 12, 12, 8, 3, 3, 1, 7), // enough rows to trigger batch dispatch
];

fn assert_close(a: &[f32], b: &[f32], tol: f32, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "{ctx} index {i}: {x} vs {y}"
        );
    }
}

#[test]
fn batched_conv_forward_matches_naive_oracle_on_odd_shapes() {
    let mut rng = Prng::new(41);
    for &(c, h, w, oc, kh, kw, stride, batch) in SHAPES {
        let dims = VolumeDims::new(c, h, w);
        let mut conv = Conv2d::new_random_strided(dims, oc, (kh, kw), stride, &mut rng);
        // Non-zero bias so the bias path is part of the property.
        for b in conv.bias_mut().as_mut_slice() {
            *b = rng.uniform(-0.5, 0.5);
        }
        let x = Tensor::rand_uniform(&[batch, dims.features()], -1.0, 1.0, &mut rng);
        let y = conv.forward_infer(&x);
        let ctx = format!("c{c} {h}x{w} oc{oc} k{kh}x{kw} s{stride} b{batch}");
        for n in 0..batch {
            let oracle = conv_naive_single(
                x.row(n),
                dims,
                oc,
                kh,
                kw,
                stride,
                conv.weight().as_slice(),
                conv.bias().as_slice(),
            );
            assert_close(y.row(n), &oracle, 1e-4, &format!("{ctx} image {n}"));
        }
    }
}

#[test]
fn batched_conv_forward_is_bit_identical_to_per_image_under_any_plan() {
    let mut rng = Prng::new(42);
    for &(c, h, w, oc, kh, kw, stride, batch) in SHAPES {
        let dims = VolumeDims::new(c, h, w);
        let conv = Conv2d::new_random_strided(dims, oc, (kh, kw), stride, &mut rng);
        let x = Tensor::rand_uniform(&[batch, dims.features()], -1.0, 1.0, &mut rng);

        // Per-image reference, pinned to a serial budget.
        let reference: Vec<Vec<f32>> = parallel::with_budget(1, || {
            (0..batch)
                .map(|n| {
                    let mut one = Tensor::zeros(&[1, dims.features()]);
                    one.row_mut(0).copy_from_slice(x.row(n));
                    conv.forward_infer(&one).as_slice().to_vec()
                })
                .collect()
        });

        for budget in [1usize, 2, 3, 8] {
            let y = parallel::with_budget(budget, || conv.forward_infer(&x));
            for (n, per_image) in reference.iter().enumerate() {
                assert!(
                    y.row(n) == per_image.as_slice(),
                    "budget {budget} changed bits: c{c} {h}x{w} oc{oc} k{kh}x{kw} s{stride} image {n}"
                );
            }
        }
    }
}
