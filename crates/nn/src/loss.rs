//! Softmax and cross-entropy loss.
//!
//! The paper's attack objective deliberately works on **logits**, not
//! softmax outputs (Sec. 3.2): in a well-trained model the softmax saturates
//! and gradients vanish. The softmax here is used only for *training* the
//! victim model.

use fsa_tensor::Tensor;

/// Numerically stable softmax over the last axis of `[batch, classes]`.
pub fn softmax(logits: &Tensor) -> Tensor {
    assert_eq!(logits.ndim(), 2, "softmax expects [batch, classes]");
    let mut out = logits.clone();
    let classes = logits.shape()[1];
    for r in 0..logits.shape()[0] {
        let row = out.row_mut(r);
        let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut z = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - m).exp();
            z += *v;
        }
        debug_assert!(z > 0.0 && classes > 0);
        for v in row.iter_mut() {
            *v /= z;
        }
    }
    out
}

/// Mean cross-entropy loss and its gradient with respect to the logits.
///
/// Returns `(loss, dlogits)` where `dlogits = (softmax(z) − onehot) / batch`.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.ndim(), 2, "loss expects [batch, classes]");
    let (batch, classes) = (logits.shape()[0], logits.shape()[1]);
    assert_eq!(labels.len(), batch, "labels/batch mismatch");
    let mut dlogits = softmax(logits);
    let mut loss = 0.0f64;
    let inv_batch = 1.0 / batch.max(1) as f32;
    for (r, &label) in labels.iter().enumerate() {
        assert!(
            label < classes,
            "label {label} out of range for {classes} classes"
        );
        let row = dlogits.row_mut(r);
        // -log p_label, clamped away from log(0).
        loss += -(row[label].max(1e-12) as f64).ln();
        row[label] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_batch;
        }
    }
    ((loss / batch.max(1) as f64) as f32, dlogits)
}

/// Index of the maximum element of a slice (first occurrence on ties).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax_slice(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0], &[2, 3]);
        let p = softmax(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
        let b = softmax(&Tensor::from_vec(vec![1001.0, 1002.0], &[1, 2]));
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(b.is_finite());
    }

    #[test]
    fn loss_gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.1, 0.5, -0.7], &[2, 3]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for idx in 0..logits.numel() {
            let mut plus = logits.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.as_slice()[idx]).abs() < 1e-3,
                "idx {idx}: numeric {num} vs analytic {}",
                grad.as_slice()[idx]
            );
        }
    }

    #[test]
    fn perfect_prediction_has_small_loss() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss < 1e-3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor::zeros(&[1, 3]);
        let _ = softmax_cross_entropy(&logits, &[3]);
    }
}
