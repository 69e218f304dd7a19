//! Training the FC head directly on cached convolutional features.
//!
//! The experiment pipeline (see `ARCHITECTURE.md`) freezes the conv stack and trains
//! only the head: features are extracted once, then the head is fit with
//! Adam. Because [`FcHead::backward_from_cache`] computes gradients of
//! `⟨G, Z⟩` for an arbitrary upstream matrix `G`, and the softmax
//! cross-entropy gradient *is* such a matrix, training reuses the exact
//! code path the attack uses, with one [`HeadBuffers`] set held across
//! every batch.

use crate::head::{FcHead, HeadBuffers};
use crate::loss::softmax_cross_entropy;
use crate::trainer::gather_rows;
use fsa_tensor::{Prng, Tensor};

/// Configuration for [`train_head`].
#[derive(Debug, Clone)]
pub struct HeadTrainConfig {
    /// Passes over the feature set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Print a line per epoch.
    pub verbose: bool,
}

impl Default for HeadTrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 64,
            lr: 1e-3,
            verbose: false,
        }
    }
}

/// Adam state for one head (per-layer weight/bias moments).
#[derive(Debug)]
struct AdamState {
    m: Vec<(Tensor, Tensor)>,
    v: Vec<(Tensor, Tensor)>,
    t: u64,
}

impl AdamState {
    fn new(head: &FcHead) -> Self {
        let shape_of = |head: &FcHead, i: usize| {
            let l = head.layer(i);
            (
                Tensor::zeros(l.weight().shape()),
                Tensor::zeros(l.bias().shape()),
            )
        };
        let n = head.num_layers();
        Self {
            m: (0..n).map(|i| shape_of(head, i)).collect(),
            v: (0..n).map(|i| shape_of(head, i)).collect(),
            t: 0,
        }
    }

    fn apply(&mut self, head: &mut FcHead, grads: &[(Tensor, Tensor)], lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        for (i, (dw, db)) in grads.iter().enumerate() {
            let layer = head.layer_mut(i);
            let (mw, mb) = &mut self.m[i];
            let (vw, vb) = &mut self.v[i];
            adam_update(
                layer.weight_mut().as_mut_slice(),
                dw.as_slice(),
                mw.as_mut_slice(),
                vw.as_mut_slice(),
                lr,
                bc1,
                bc2,
                B1,
                B2,
                EPS,
            );
            adam_update(
                layer.bias_mut().as_mut_slice(),
                db.as_slice(),
                mb.as_mut_slice(),
                vb.as_mut_slice(),
                lr,
                bc1,
                bc2,
                B1,
                B2,
                EPS,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn adam_update(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    b1: f32,
    b2: f32,
    eps: f32,
) {
    for i in 0..p.len() {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        p[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + eps);
    }
}

/// Trains `head` on `(features, labels)` with Adam + cross-entropy.
///
/// Returns the mean loss per epoch.
///
/// # Panics
///
/// Panics if `features` and `labels` disagree on sample count or the set is
/// empty.
pub fn train_head(
    head: &mut FcHead,
    features: &Tensor,
    labels: &[usize],
    cfg: &HeadTrainConfig,
    rng: &mut Prng,
) -> Vec<f32> {
    let n = features.shape()[0];
    assert!(n > 0, "empty feature set");
    assert_eq!(labels.len(), n, "features/labels mismatch");
    let mut adam = AdamState::new(head);
    let mut bufs = HeadBuffers::new();
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = Vec::with_capacity(cfg.epochs);
    for epoch in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            let bx = gather_rows(features, chunk);
            let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let logits = head.forward_from_caching(0, &bx, &mut bufs);
            let (loss, dlogits) = softmax_cross_entropy(logits, &by);
            let grads = head.backward_from_cache(0, &bx, &dlogits, &mut bufs);
            adam.apply(head, grads, cfg.lr);
            loss_sum += loss as f64;
            batches += 1;
        }
        let mean = (loss_sum / batches as f64) as f32;
        if cfg.verbose {
            println!("head epoch {epoch}: loss {mean:.4}");
        }
        history.push(mean);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_learns_linearly_separable_features() {
        let mut rng = Prng::new(21);
        let n = 120;
        let d = 8;
        let classes = 3;
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
        let mut head = FcHead::from_dims(&[d, 16, classes], &mut rng);
        let cfg = HeadTrainConfig {
            epochs: 25,
            batch_size: 16,
            lr: 5e-3,
            verbose: false,
        };
        let hist = train_head(&mut head, &x, &labels, &cfg, &mut rng);
        assert!(
            hist.last().unwrap() < &0.1,
            "final loss {}",
            hist.last().unwrap()
        );
        assert!(head.accuracy(&x, &labels) > 0.97);
    }

    #[test]
    fn loss_history_monotone_enough() {
        // Not strictly monotone, but the tail should beat the start.
        let mut rng = Prng::new(22);
        let x = Tensor::randn(&[40, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let mut head = FcHead::from_dims(&[4, 8, 2], &mut rng);
        let cfg = HeadTrainConfig {
            epochs: 10,
            batch_size: 8,
            lr: 3e-3,
            verbose: false,
        };
        let hist = train_head(&mut head, &x, &labels, &cfg, &mut rng);
        assert!(hist.last().unwrap() <= hist.first().unwrap());
    }
}
