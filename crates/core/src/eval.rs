//! Applying and measuring attack results.

use crate::selection::ParamSelection;
use fsa_nn::head::FcHead;
use fsa_tensor::Tensor;

/// Applies `θ_sel + δ` to a head in place.
///
/// # Panics
///
/// Panics if lengths disagree with the selection.
pub fn apply_delta(head: &mut FcHead, selection: &ParamSelection, theta0: &[f32], delta: &[f32]) {
    assert_eq!(theta0.len(), delta.len(), "theta0/delta length mismatch");
    let theta: Vec<f32> = theta0.iter().zip(delta).map(|(&t, &d)| t + d).collect();
    selection.scatter(head, &theta);
}

/// Returns a modified copy of `head` with `θ_sel + δ` applied.
pub fn attacked_head(
    head: &FcHead,
    selection: &ParamSelection,
    theta0: &[f32],
    delta: &[f32],
) -> FcHead {
    let mut out = head.clone();
    apply_delta(&mut out, selection, theta0, delta);
    out
}

/// Classification accuracy computed from *truncated* activations: `acts`
/// are inputs to head layer `start` (see
/// [`FcHead::activations_before`]). Exact, and much cheaper than a full
/// forward when only a late layer was modified — the experiment sweeps use
/// this for Table 4's test-accuracy column.
///
/// # Panics
///
/// Panics if lengths mismatch.
pub fn accuracy_from(head: &FcHead, start: usize, acts: &Tensor, labels: &[usize]) -> f32 {
    let logits = head.forward_from(start, acts);
    assert_eq!(logits.shape()[0], labels.len(), "acts/labels mismatch");
    if labels.is_empty() {
        return 0.0;
    }
    let mut hits = 0usize;
    for (r, &l) in labels.iter().enumerate() {
        if fsa_nn::loss::argmax_slice(logits.row(r)) == l {
            hits += 1;
        }
    }
    hits as f32 / labels.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::ParamKind;
    use fsa_tensor::Prng;

    #[test]
    fn accuracy_from_matches_full_accuracy() {
        let mut rng = Prng::new(4);
        let head = FcHead::from_dims(&[5, 6, 7, 3], &mut rng);
        let x = Tensor::randn(&[12, 5], 1.0, &mut rng);
        let labels = head.predict(&x);
        for start in 0..head.num_layers() {
            let acts = head.activations_before(start, &x);
            assert_eq!(accuracy_from(&head, start, &acts, &labels), 1.0);
        }
    }

    #[test]
    fn apply_delta_adds_to_selected_params() {
        let mut rng = Prng::new(1);
        let mut head = FcHead::from_dims(&[3, 4, 2], &mut rng);
        let sel = ParamSelection::layer(1, ParamKind::Bias);
        let theta0 = sel.gather(&head);
        let delta = vec![0.5, -0.5];
        apply_delta(&mut head, &sel, &theta0, &delta);
        let now = sel.gather(&head);
        assert!((now[0] - (theta0[0] + 0.5)).abs() < 1e-6);
        assert!((now[1] - (theta0[1] - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn attacked_head_leaves_original_untouched() {
        let mut rng = Prng::new(3);
        let head = FcHead::from_dims(&[3, 4, 2], &mut rng);
        let sel = ParamSelection::last_layer(&head);
        let theta0 = sel.gather(&head);
        let delta = vec![1.0; sel.dim(&head)];
        let modified = attacked_head(&head, &sel, &theta0, &delta);
        assert_eq!(sel.gather(&head), theta0, "original mutated");
        assert_ne!(sel.gather(&modified), theta0);
    }
}
