//! The misclassification objective `G` and its logit-space gradient.
//!
//! Per image `i` the paper uses the C&W-style logit hinge (eqs. 3, 5, 6):
//!
//! ```text
//! g_i = c_i · max( max_{j≠t} Z_j − Z_t , 0 )
//! ```
//!
//! with `t = t_i` (target) for the `S` attack images and `t = l_i`
//! (original label) for the keep images. When the hinge is active its
//! gradient in logit space is `+c_i` at the runner-up class `j*` and
//! `−c_i` at the enforced class `t`; this matrix feeds
//! [`fsa_nn::head::FcHead::logit_backward`] to produce parameter-space
//! gradients.

use crate::spec::AttackSpec;
use fsa_tensor::Tensor;

/// Hinge value and logit-gradient of the full objective at given logits.
///
/// Reusable: hold one across ADMM iterations and refill it with
/// [`evaluate_hinge_into`] — steady-state evaluations allocate nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HingeEval {
    /// `Σ_i g_i` (weighted).
    pub total: f32,
    /// Per-image hinge values (weighted).
    pub per_image: Vec<f32>,
    /// Upstream gradient matrix `[R, classes]` for the head backward pass.
    pub logit_grad: Tensor,
    /// Number of images whose hinge is active (objective unsatisfied).
    pub active: usize,
    /// Per-image raw margins (before weighting); an image is active iff
    /// its margin is positive, independent of its `c_i` weight.
    margins: Vec<f32>,
}

impl HingeEval {
    /// Number of active (violated) hinges among the keep images
    /// (`i ≥ s`) — the per-iteration keep-set health that telemetry
    /// convergence traces record.
    pub fn active_keep(&self, s: usize) -> usize {
        self.margins.iter().skip(s).filter(|&&m| m > 0.0).count()
    }
}

/// Evaluates the hinge objective and its logit gradient.
///
/// `kappa ≥ 0` adds a confidence margin: an image only counts as satisfied
/// once its enforced logit beats the runner-up by `kappa` (the paper uses
/// `kappa = 0`; a small positive margin hardens the faults against the
/// thresholding in the z-step).
///
/// # Panics
///
/// Panics if `logits` is not `[R, classes]` for the spec.
pub fn evaluate_hinge(spec: &AttackSpec, logits: &Tensor, kappa: f32) -> HingeEval {
    let mut out = HingeEval::default();
    evaluate_hinge_into(spec, logits, kappa, &mut out);
    out
}

/// [`evaluate_hinge`] into a reusable [`HingeEval`] (allocation-free once
/// shapes repeat).
///
/// A hinge row is one logit scan, far cheaper than a thread spawn, so
/// the per-image terms run serially; the scalar reductions (`total`,
/// `active`) fold in image order.
///
/// # Panics
///
/// Panics if `logits` is not `[R, classes]` for the spec.
pub fn evaluate_hinge_into(spec: &AttackSpec, logits: &Tensor, kappa: f32, out: &mut HingeEval) {
    let r = spec.r();
    assert_eq!(logits.ndim(), 2, "logits must be [R, classes]");
    assert_eq!(logits.shape()[0], r, "logits rows must equal R");
    let classes = logits.shape()[1];

    out.logit_grad.reuse_as(&[r, classes]);
    out.logit_grad.as_mut_slice().fill(0.0);
    out.per_image.clear();
    out.per_image.resize(r, 0.0);
    out.margins.clear();
    out.margins.resize(r, 0.0);

    let grad = out.logit_grad.as_mut_slice();
    for i in 0..r {
        let t = spec.enforced_label(i);
        assert!(t < classes, "enforced label {t} out of range");
        let row = logits.row(i);
        // Runner-up: the largest logit excluding the enforced class.
        let mut j_star = usize::MAX;
        let mut best = f32::NEG_INFINITY;
        for (j, &z) in row.iter().enumerate() {
            if j != t && z > best {
                best = z;
                j_star = j;
            }
        }
        let margin = best - row[t] + kappa;
        out.margins[i] = margin;
        if margin > 0.0 {
            let c = spec.weight(i);
            out.per_image[i] = c * margin;
            let grow = &mut grad[i * classes..(i + 1) * classes];
            grow[j_star] += c;
            grow[t] -= c;
        }
    }

    let mut total = 0.0f64;
    for &g in &out.per_image {
        total += g as f64;
    }
    out.total = total as f32;
    out.active = out.margins.iter().filter(|&&m| m > 0.0).count();
}

/// Counts how many of the first `S` images are classified as their targets
/// and how many of the rest keep their labels, from raw logits.
///
/// Returns `(s_hits, keep_hits)`.
pub fn count_satisfied(spec: &AttackSpec, logits: &Tensor) -> (usize, usize) {
    let mut s_hits = 0;
    let mut keep_hits = 0;
    for i in 0..spec.r() {
        let pred = fsa_nn::loss::argmax_slice(logits.row(i));
        if i < spec.s() {
            if pred == spec.targets[i] {
                s_hits += 1;
            }
        } else if pred == spec.labels[i] {
            keep_hits += 1;
        }
    }
    (s_hits, keep_hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec2() -> AttackSpec {
        // R = 2, S = 1: image 0 must become class 2; image 1 stays class 0.
        AttackSpec::new(Tensor::zeros(&[2, 3]), vec![1, 0], vec![2])
    }

    #[test]
    fn satisfied_images_have_zero_hinge_and_grad() {
        let spec = spec2();
        // Image 0 already classified 2, image 1 already 0.
        let logits = Tensor::from_vec(vec![0.0, 1.0, 5.0, 9.0, 2.0, 1.0], &[2, 3]);
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        assert_eq!(eval.total, 0.0);
        assert_eq!(eval.active, 0);
        assert!(eval.logit_grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn violated_image_gets_signed_gradient() {
        let spec = spec2();
        // Image 0: class 1 logit dominates (4.0), target 2 at 1.0 → active.
        let logits = Tensor::from_vec(vec![0.0, 4.0, 1.0, 9.0, 2.0, 1.0], &[2, 3]);
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        assert_eq!(eval.active, 1);
        assert!((eval.per_image[0] - 3.0).abs() < 1e-6);
        let g = eval.logit_grad.row(0);
        assert_eq!(g, &[0.0, 1.0, -1.0]);
        assert_eq!(eval.logit_grad.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn weights_scale_gradient() {
        let spec = spec2().with_weights(5.0, 0.5);
        let logits = Tensor::from_vec(vec![0.0, 4.0, 1.0, 2.0, 9.0, 1.0], &[2, 3]);
        // Image 0 violated (weight 5), image 1 violated: pred 1 ≠ 0 (weight 0.5).
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        assert_eq!(eval.logit_grad.row(0), &[0.0, 5.0, -5.0]);
        assert_eq!(eval.logit_grad.row(1), &[-0.5, 0.5, 0.0]);
    }

    #[test]
    fn kappa_demands_margin() {
        let spec = spec2();
        // Image 0 satisfied by 0.5 — but kappa = 1 makes it active.
        let logits = Tensor::from_vec(vec![0.0, 1.0, 1.5, 9.0, 0.0, 0.0], &[2, 3]);
        assert_eq!(evaluate_hinge(&spec, &logits, 0.0).active, 0);
        assert_eq!(evaluate_hinge(&spec, &logits, 1.0).active, 1);
    }

    #[test]
    fn count_satisfied_partitions() {
        let spec = spec2();
        let logits = Tensor::from_vec(vec![0.0, 1.0, 5.0, 1.0, 9.0, 0.0], &[2, 3]);
        // Image 0: pred 2 == target ✓; image 1: pred 1 ≠ label 0 ✗.
        assert_eq!(count_satisfied(&spec, &logits), (1, 0));
    }

    #[test]
    fn hinge_gradient_matches_finite_difference() {
        let spec = spec2().with_weights(2.0, 3.0);
        let logits = Tensor::from_vec(vec![0.3, 0.9, 0.1, 0.2, 0.8, 0.4], &[2, 3]);
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        let eps = 1e-3;
        for idx in 0..logits.numel() {
            let mut p = logits.clone();
            p.as_mut_slice()[idx] += eps;
            let mut m = logits.clone();
            m.as_mut_slice()[idx] -= eps;
            let fp = evaluate_hinge(&spec, &p, 0.0).total;
            let fm = evaluate_hinge(&spec, &m, 0.0).total;
            let num = (fp - fm) / (2.0 * eps);
            let ana = eval.logit_grad.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "idx {idx}: {num} vs {ana}");
        }
    }
}
