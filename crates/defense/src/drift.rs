//! Per-layer activation-statistic drift monitor.
//!
//! Between the byte-level integrity checks and the end-to-end accuracy
//! probe sits a behavioural middle ground: watch the *distribution* of
//! each layer's activations on a fixed probe batch. A modification that
//! flips even one designated image must push some layer's activations
//! somewhere; the question is whether it pushes them further than the
//! monitor's tolerance. The statistics come from the
//! [`fsa_nn::stats`] tap ([`head_forward_stats`]), so they are a
//! fixed-order function of bit-deterministic layer outputs.
//!
//! Score: per layer, both the mean shift and the spread shift are
//! normalized by the reference standard deviation
//! (`|μ−μ₀| / σ₀` and `|σ−σ₀| / σ₀`); the score is the maximum over
//! layers and both terms — "how many reference standard deviations has
//! any layer's distribution moved".

use crate::detector::Detector;
use fsa_nn::head::FcHead;
use fsa_nn::stats::{head_forward_stats, max_normalized_drift, normalized_drift, ActivationStats};
use fsa_nn::FeatureCache;

/// An activation-drift monitor over a fixed probe batch.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    name: String,
    probe: FeatureCache,
    reference: Vec<ActivationStats>,
    threshold: f32,
}

impl DriftDetector {
    /// Calibrates per-layer reference statistics of the clean model on
    /// the probe batch; alarms when any layer's normalized drift
    /// reaches `threshold` (in units of reference standard deviations).
    ///
    /// # Panics
    ///
    /// Panics if the probe is empty or its width differs from the head
    /// input.
    pub fn new(reference: &FcHead, probe: FeatureCache, threshold: f32) -> Self {
        Self::named("activation_drift", reference, probe, threshold)
    }

    /// Like [`DriftDetector::new`], but with an explicit suite-column
    /// name. A suite can then deploy *several* drift monitors — notably
    /// a held-out one calibrated on a probe split the attacker's
    /// drift-budget wall was never tuned against.
    ///
    /// # Panics
    ///
    /// Panics if the probe is empty or its width differs from the head
    /// input.
    pub fn named(name: &str, reference: &FcHead, probe: FeatureCache, threshold: f32) -> Self {
        assert!(!probe.is_empty(), "drift probe needs at least one image");
        let (_, stats) = head_forward_stats(reference, probe.features());
        Self {
            name: name.to_string(),
            probe,
            reference: stats,
            threshold,
        }
    }

    /// The calibrated per-layer reference statistics.
    pub fn reference(&self) -> &[ActivationStats] {
        &self.reference
    }

    /// Per-layer activation statistics of an observed head on the probe.
    fn observe(&self, head: &FcHead) -> Vec<ActivationStats> {
        let (_, now) = head_forward_stats(head, self.probe.features());
        assert_eq!(
            now.len(),
            self.reference.len(),
            "observed model has a different layer count than calibrated"
        );
        now
    }

    /// Per-layer normalized drift of an observed head against the
    /// reference (same order as the head's layers).
    pub fn layer_drift(&self, head: &FcHead) -> Vec<f64> {
        self.observe(head)
            .iter()
            .zip(&self.reference)
            .map(|(n, r)| normalized_drift(n, r))
            .collect()
    }
}

impl Detector for DriftDetector {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    /// [`max_normalized_drift`]: the maximum per-layer drift, infinite
    /// on any NaN layer — the same score refinement's drift wall
    /// budgets against, so monitor and planner measure one quantity.
    fn score(&self, head: &FcHead) -> f32 {
        max_normalized_drift(&self.observe(head), &self.reference) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::{Prng, Tensor};

    fn fixture() -> (FcHead, FeatureCache) {
        let mut rng = Prng::new(29);
        let head = FcHead::from_dims(&[6, 12, 4], &mut rng);
        let x = Tensor::randn(&[32, 6], 1.0, &mut rng);
        (head, FeatureCache::from_features(x))
    }

    #[test]
    fn clean_model_has_zero_drift() {
        let (head, probe) = fixture();
        let det = DriftDetector::new(&head, probe, 0.25);
        let v = det.evaluate(&head);
        assert_eq!(v.score, 0.0);
        assert!(!v.detected);
    }

    #[test]
    fn large_bias_shift_is_seen_only_downstream() {
        let (head, probe) = fixture();
        let det = DriftDetector::new(&head, probe, 0.25);
        let mut shifted = head.clone();
        let last = shifted.num_layers() - 1;
        shifted.layer_mut(last).bias_mut().as_mut_slice()[0] += 50.0;
        let drift = det.layer_drift(&shifted);
        assert_eq!(drift[0], 0.0, "upstream layer must not drift");
        assert!(
            drift[last] > 1.0,
            "a 50-logit shift must move the logit distribution: {drift:?}"
        );
        assert!(det.evaluate(&shifted).detected);
    }

    #[test]
    fn tiny_perturbations_stay_under_threshold() {
        let (head, probe) = fixture();
        let det = DriftDetector::new(&head, probe, 0.25);
        let mut nudged = head.clone();
        let last = nudged.num_layers() - 1;
        nudged.layer_mut(last).bias_mut().as_mut_slice()[0] += 1e-4;
        let v = det.evaluate(&nudged);
        assert!(v.score > 0.0, "any real change shows *some* drift");
        assert!(!v.detected, "a 1e-4 nudge must not alarm: {v:?}");
    }

    #[test]
    fn named_monitor_keeps_its_suite_column() {
        let (head, probe) = fixture();
        let det = DriftDetector::named("holdout_drift", &head, probe.clone(), 0.25);
        assert_eq!(det.name(), "holdout_drift");
        // Same calibration data → identical scoring, regardless of name.
        let plain = DriftDetector::new(&head, probe, 0.25);
        assert_eq!(plain.name(), "activation_drift");
        assert_eq!(det.score(&head).to_bits(), plain.score(&head).to_bits());
    }

    #[test]
    fn nan_layer_drift_alarms() {
        // One NaN weight in the last layer: the logits go NaN, so that
        // layer's drift is NaN while the upstream layer stays clean.
        let (head, probe) = fixture();
        let det = DriftDetector::new(&head, probe, 0.25);
        let mut poisoned = head.clone();
        let last = poisoned.num_layers() - 1;
        let mut flat = poisoned.layer_flat_params(last);
        flat[0] = f32::NAN;
        poisoned.set_layer_flat_params(last, &flat);
        let drift = det.layer_drift(&poisoned);
        assert_eq!(drift[0], 0.0);
        assert!(drift[last].is_nan(), "{drift:?}");
        let v = det.evaluate(&poisoned);
        assert_eq!(v.score, f32::INFINITY);
        assert!(v.detected, "a NaN-producing head must alarm: {v:?}");
    }

    #[test]
    fn threshold_tie_fires() {
        let (head, probe) = fixture();
        let det = DriftDetector::new(&head, probe.clone(), 0.25);
        let mut shifted = head.clone();
        let last = shifted.num_layers() - 1;
        shifted.layer_mut(last).bias_mut().as_mut_slice()[1] += 10.0;
        let score = det.score(&shifted);
        // Re-calibrate a detector whose threshold is exactly the score:
        // the tie must alarm.
        let exact = DriftDetector::new(&head, probe, score);
        assert!(exact.evaluate(&shifted).detected);
    }
}
