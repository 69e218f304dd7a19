//! Pins the exact bits of the two dense-GEMM consumers every experiment
//! runs before its first attack: conv feature extraction
//! (`CwModel::extract_features`, im2col + `gemm`) and head training
//! (`train_head`, whose dense backward runs `gemm_tn` for `dW` and
//! `gemm` for `dX`).
//!
//! Each fixture is fixed (seeded weights and inputs), and an FNV-1a
//! digest of its output is compared against a recorded constant, so a
//! kernel rewrite that moves a single bit on either path fails here.
//! The extraction batches include an image with NaN, ±Inf and −0.0
//! pixels, so non-finite propagation through the kernels is pinned too.
//! NaN values are hashed as one canonical pattern: Rust does not pin NaN
//! payloads, so two correct kernels may legally differ there and nowhere
//! else. The constants move only with a deliberate change of results;
//! the failure message prints the new digests.

use fault_sneaking::nn::cw::{CwConfig, CwModel};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::tensor::hash::Fnv1a;
use fault_sneaking::tensor::{Prng, Tensor};

/// FNV-1a over the shape and the bits of `values`, every NaN as one
/// canonical quiet NaN.
fn digest(shape: &[usize], values: &[f32]) -> u64 {
    let mut h = Fnv1a::new();
    for &d in shape {
        h.write_u64(d as u64);
    }
    for &v in values {
        h.write_f32_bits(if v.is_nan() { f32::NAN } else { v });
    }
    h.finish()
}

/// Features of a seeded victim over `batch` seeded images; the last
/// image carries NaN, +Inf, −Inf and −0.0 pixels.
fn extraction_digest(cfg: CwConfig, seed: u64, batch: usize) -> u64 {
    let mut rng = Prng::new(seed);
    let model = CwModel::new_random(cfg, &mut rng);
    let dim = cfg.input.channels * cfg.input.height * cfg.input.width;
    let mut images = Tensor::rand_uniform(&[batch, dim], 0.0, 1.0, &mut rng);
    let planted = images.row_mut(batch - 1);
    planted[dim / 5] = f32::NAN;
    planted[dim / 3] = f32::INFINITY;
    planted[dim / 2] = f32::NEG_INFINITY;
    planted[2 * dim / 3] = -0.0;
    let features = model.extract_features(&images);
    assert_eq!(features.shape(), &[batch, cfg.feature_dim()]);
    digest(features.shape(), features.as_slice())
}

/// Trained weights, biases and loss history of a 100→40→24→10 head on
/// seeded features: every layer's `dW` runs the dense `gemm_tn` path
/// (softmax cross-entropy gradients have no zero rows), the layers
/// below the top run `gemm` for `dX`, and the widths cover full
/// 16-column tiles, 8- and 4-column remainders.
fn training_digest() -> u64 {
    let mut rng = Prng::new(0x7EAD);
    let (n, d, classes) = (150, 100, 10);
    let features = Tensor::rand_uniform(&[n, d], -1.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| (i * 7) % classes).collect();
    let mut head = FcHead::from_dims(&[d, 40, 24, classes], &mut rng);
    let cfg = HeadTrainConfig {
        epochs: 3,
        batch_size: 32,
        lr: 5e-3,
        verbose: false,
    };
    let history = train_head(&mut head, &features, &labels, &cfg, &mut rng);
    let mut h = Fnv1a::new();
    for i in 0..head.num_layers() {
        let layer = head.layer(i);
        h.write_u64(digest(layer.weight().shape(), layer.weight().as_slice()));
        h.write_u64(digest(layer.bias().shape(), layer.bias().as_slice()));
    }
    h.write_u64(digest(&[history.len()], &history));
    h.finish()
}

#[test]
fn extraction_and_head_training_match_their_recorded_digests() {
    let got = [
        (
            "mnist extraction",
            extraction_digest(CwConfig::mnist(), 0xD16, 5),
        ),
        (
            "cifar extraction",
            extraction_digest(CwConfig::cifar(), 0xC1F, 3),
        ),
        ("head training", training_digest()),
    ];
    let expected: [u64; 3] = [0xddfa6846393182af, 0x63a4d0d7bd9f6f28, 0x1287850e92873bff];
    let moved: Vec<String> = got
        .iter()
        .zip(expected)
        .filter(|((_, g), e)| *g != *e)
        .map(|((name, g), e)| format!("{name}: {g:#018x} (recorded {e:#018x})"))
        .collect();
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}
