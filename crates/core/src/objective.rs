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
/// One serial pass over the logit rows (a hinge row is one logit scan,
/// far cheaper than a thread spawn) fills each image's margin, weighted
/// value and gradient row, and folds `total` (in `f64`, in image order)
/// and `active` as it goes. Image `i` enforces its target with weight
/// `c_attack` for `i < S`, its label with `c_keep` after.
///
/// # Panics
///
/// Panics if `logits` is not `[R, classes]` for the spec, or an enforced
/// label is not below `classes`.
pub fn evaluate_hinge_into(spec: &AttackSpec, logits: &Tensor, kappa: f32, out: &mut HingeEval) {
    let r = spec.r();
    assert_eq!(logits.ndim(), 2, "logits must be [R, classes]");
    assert_eq!(logits.shape()[0], r, "logits rows must equal R");
    let classes = logits.shape()[1];

    out.logit_grad.reuse_as(&[r, classes]);
    out.per_image.resize(r, 0.0);
    out.margins.resize(r, 0.0);
    let grad = out.logit_grad.as_mut_slice();
    grad.fill(0.0);

    // No label is below zero classes; with a class, `chunks_exact` below
    // yields exactly the `r` rows.
    assert!(
        r == 0 || classes > 0,
        "enforced labels out of range of 0 classes"
    );
    let mut images = logits
        .as_slice()
        .chunks_exact(classes.max(1))
        .zip(grad.chunks_exact_mut(classes.max(1)))
        .zip(out.margins.iter_mut().zip(&mut out.per_image));
    let mut total = 0.0f64;
    let mut active = 0;
    let s = spec.s();
    for (enforced, c) in [
        (&spec.targets[..], spec.c_attack),
        (&spec.labels[s..], spec.c_keep),
    ] {
        // Labels first: `zip` stops on them without taking an image.
        for (&t, ((row, grow), (margin_i, value_i))) in enforced.iter().zip(images.by_ref()) {
            assert!(t < classes, "enforced label {t} out of range");
            // Runner-up: the first strict maximum over the classes other
            // than `t`. `z > best` is false for NaN, so NaN is never
            // chosen, and a row with nothing above −∞ keeps the sentinel.
            let mut j_star = usize::MAX;
            let mut best = f32::NEG_INFINITY;
            for (j, &z) in row.iter().enumerate() {
                let take = j != t && z > best;
                best = if take { z } else { best };
                j_star = if take { j } else { j_star };
            }
            let margin = best - row[t] + kappa;
            *margin_i = margin;
            // `margin > 0` implies a finite `best`, so `j_star` is a class.
            *value_i = if margin > 0.0 {
                grow[j_star] += c;
                grow[t] -= c;
                active += 1;
                c * margin
            } else {
                0.0
            };
            total += *value_i as f64;
        }
    }
    out.total = total as f32;
    out.active = active;
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
    use fsa_tensor::Prng;

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

    /// The per-row hinge this module ran before the one-pass form, kept
    /// as the oracle the one-pass form must match bit for bit: returns
    /// `(total, per_image, margins, logit_grad, active)`.
    fn hinge_oracle(
        spec: &AttackSpec,
        logits: &Tensor,
        kappa: f32,
    ) -> (f32, Vec<f32>, Vec<f32>, Vec<f32>, usize) {
        let r = spec.r();
        let classes = logits.shape()[1];
        let mut grad = vec![0.0f32; r * classes];
        let mut per_image = vec![0.0f32; r];
        let mut margins = vec![0.0f32; r];
        for i in 0..r {
            let t = spec.enforced_label(i);
            assert!(t < classes, "enforced label {t} out of range");
            let row = logits.row(i);
            let mut j_star = usize::MAX;
            let mut best = f32::NEG_INFINITY;
            for (j, &z) in row.iter().enumerate() {
                if j != t && z > best {
                    best = z;
                    j_star = j;
                }
            }
            let margin = best - row[t] + kappa;
            margins[i] = margin;
            if margin > 0.0 {
                let c = spec.weight(i);
                per_image[i] = c * margin;
                let grow = &mut grad[i * classes..(i + 1) * classes];
                grow[j_star] += c;
                grow[t] -= c;
            }
        }
        let mut total = 0.0f64;
        for &g in &per_image {
            total += g as f64;
        }
        let active = margins.iter().filter(|&&m| m > 0.0).count();
        (total as f32, per_image, margins, grad, active)
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    /// Seeded logits whose rows mix plain values with the hinge's edge
    /// cases: a NaN, ±∞, all NaN (no runner-up: the sentinel), all −∞,
    /// ties (including +0.0 against −0.0), and a −0.0 enforced logit.
    fn edge_logits(r: usize, classes: usize, rng: &mut Prng) -> Tensor {
        let mut z: Vec<f32> = (0..r * classes).map(|_| rng.uniform(-2.0, 2.0)).collect();
        for (i, row) in z.chunks_exact_mut(classes).enumerate() {
            let j = rng.below(classes);
            match i % 9 {
                1 => row[j] = f32::NAN,
                2 => row[j] = f32::INFINITY,
                3 => row[j] = f32::NEG_INFINITY,
                4 => row.fill(f32::NAN),
                5 => row.fill(f32::NEG_INFINITY),
                6 => row.fill(row[j]),
                7 => {
                    row.fill(0.0);
                    row[j] = -0.0;
                }
                8 => row[j] = row[(j + 1) % classes],
                _ => {}
            }
        }
        Tensor::from_vec(z, &[r, classes])
    }

    #[test]
    fn one_pass_hinge_matches_the_per_row_oracle_bit_for_bit() {
        let mut rng = Prng::new(41);
        // One eval reused across every case, as the ADMM loop does, so a
        // stale value from a larger or different earlier case would show.
        let mut eval = HingeEval::default();
        let mut cases = 0;
        for classes in [1usize, 2, 3, 4, 10] {
            for r in [0usize, 1, 9, 40] {
                let s_values = if classes == 1 {
                    vec![0]
                } else {
                    vec![0, r / 3, r]
                };
                for s in s_values {
                    for (c_attack, c_keep) in
                        [(1.0f32, 1.0f32), (0.0, 2.5), (3.0, 0.0), (0.5, -0.0)]
                    {
                        for kappa in [0.0f32, 0.25] {
                            let labels: Vec<usize> = (0..r).map(|_| rng.below(classes)).collect();
                            let targets: Vec<usize> = labels[..s]
                                .iter()
                                .map(|&l| (l + 1 + rng.below(classes - 1)) % classes)
                                .collect();
                            let spec = AttackSpec::new(Tensor::zeros(&[r, 1]), labels, targets)
                                .with_weights(c_attack, c_keep);
                            let logits = edge_logits(r, classes, &mut rng);
                            evaluate_hinge_into(&spec, &logits, kappa, &mut eval);
                            let (total, per_image, margins, grad, active) =
                                hinge_oracle(&spec, &logits, kappa);
                            let what = format!(
                                "classes={classes} R={r} S={s} c=({c_attack}, {c_keep}) kappa={kappa}"
                            );
                            assert_same_bits(&[eval.total], &[total], &format!("{what} total"));
                            assert_same_bits(
                                &eval.per_image,
                                &per_image,
                                &format!("{what} per_image"),
                            );
                            assert_same_bits(&eval.margins, &margins, &format!("{what} margins"));
                            assert_same_bits(
                                eval.logit_grad.as_slice(),
                                &grad,
                                &format!("{what} grad"),
                            );
                            assert_eq!(eval.logit_grad.shape(), &[r, classes], "{what}");
                            assert_eq!(eval.active, active, "{what} active");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 300, "{cases} cases");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_pass_hinge_refuses_an_enforced_label_past_the_classes() {
        let spec = AttackSpec::new(Tensor::zeros(&[2, 1]), vec![0, 3], vec![]);
        evaluate_hinge(&spec, &Tensor::zeros(&[2, 3]), 0.0);
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
