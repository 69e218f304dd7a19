//! Applying and measuring attack results.

use crate::selection::ParamSelection;
use crate::spec::AttackSpec;
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

/// Full post-attack measurement on a spec plus a held-out test set —
/// everything the paper's tables report about one run.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Success rate over the `S` designated faults.
    pub success_rate: f32,
    /// Fraction of keep-set images retaining their labels.
    pub unchanged_rate: f32,
    /// Test accuracy of the modified model (Table 4's metric).
    pub test_accuracy: f32,
    /// Test accuracy of the original model.
    pub baseline_accuracy: f32,
    /// `‖δ‖₀`.
    pub l0: usize,
    /// `‖δ‖₂`.
    pub l2: f32,
}

/// Measures an attack end to end.
///
/// `test_features`/`test_labels` are the held-out set used for Table 4's
/// accuracy metric (head-input features, so the conv stack is shared).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn measure(
    head: &FcHead,
    selection: &ParamSelection,
    theta0: &[f32],
    delta: &[f32],
    spec: &AttackSpec,
    test_features: &Tensor,
    test_labels: &[usize],
) -> AttackOutcome {
    let baseline_accuracy = head.accuracy(test_features, test_labels);
    let attacked = attacked_head(head, selection, theta0, delta);
    let logits = attacked.forward(&spec.features);
    let (s_hits, keep_hits) = crate::objective::count_satisfied(spec, &logits);
    let keep_total = spec.r() - spec.s();
    AttackOutcome {
        success_rate: if spec.s() == 0 {
            1.0
        } else {
            s_hits as f32 / spec.s() as f32
        },
        unchanged_rate: if keep_total == 0 {
            1.0
        } else {
            keep_hits as f32 / keep_total as f32
        },
        test_accuracy: attacked.accuracy(test_features, test_labels),
        baseline_accuracy,
        l0: fsa_tensor::norms::l0(delta, 0.0),
        l2: fsa_tensor::norms::l2(delta),
    }
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
    fn zero_delta_outcome_is_baseline() {
        let mut rng = Prng::new(2);
        let head = FcHead::from_dims(&[3, 4, 2], &mut rng);
        let sel = ParamSelection::last_layer(&head);
        let theta0 = sel.gather(&head);
        let delta = vec![0.0; sel.dim(&head)];

        let features = Tensor::randn(&[4, 3], 1.0, &mut rng);
        let labels = head.predict(&features);
        let target = 1 - labels[0].min(1); // any different class in {0,1}
        let spec = AttackSpec::new(features.clone(), labels.clone(), vec![target]);

        let outcome = measure(&head, &sel, &theta0, &delta, &spec, &features, &labels);
        assert_eq!(outcome.test_accuracy, outcome.baseline_accuracy);
        assert_eq!(outcome.l0, 0);
        assert_eq!(outcome.unchanged_rate, 1.0);
        assert_eq!(
            outcome.success_rate, 0.0,
            "unmodified model cannot satisfy the fault"
        );
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
