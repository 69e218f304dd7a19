//! Held-out accuracy probe — the paper's own stealth definition, made
//! into a monitor.
//!
//! The fault sneaking attack's stealth claim is that test accuracy
//! survives the modification (Table 4). A deployed system can check
//! exactly that: keep a held-out probe set (disjoint from anything an
//! attacker could have optimized against — `Dataset::split_probe`'s
//! contract), record the model's accuracy on it at deployment, and
//! alarm when accuracy drops. The probe features come from the shared
//! [`FeatureCache`] pipeline, so calibration and monitoring reuse the
//! one batched conv extraction.
//!
//! This is the detector the §5.4 comparison turns on: FSA's keep-set
//! constraint holds probe accuracy, while SBA's global bias shifts and
//! GDA's unconstrained descent drag it down and trip the alarm.

use crate::detector::Detector;
use fsa_nn::head::FcHead;
use fsa_nn::FeatureCache;

/// An accuracy-drop monitor over a fixed probe set.
#[derive(Debug, Clone)]
pub struct AccuracyProbe {
    probe: FeatureCache,
    labels: Vec<usize>,
    reference_accuracy: f32,
    threshold: f32,
}

impl AccuracyProbe {
    /// Calibrates the probe: measures the reference model's accuracy on
    /// the probe features and alarms when a later observation has lost
    /// at least `threshold` accuracy (fraction, e.g. `0.02` for two
    /// points).
    ///
    /// # Panics
    ///
    /// Panics if the probe is empty, `labels` mismatches it, or the
    /// probe width differs from the head input.
    pub fn new(
        reference: &FcHead,
        probe: FeatureCache,
        labels: Vec<usize>,
        threshold: f32,
    ) -> Self {
        assert!(!probe.is_empty(), "accuracy probe needs at least one image");
        assert_eq!(labels.len(), probe.len(), "probe labels/features mismatch");
        assert_eq!(
            probe.dim(),
            reference.in_features(),
            "probe width must match head input"
        );
        let reference_accuracy = reference.accuracy(probe.features(), &labels);
        Self {
            probe,
            labels,
            reference_accuracy,
            threshold,
        }
    }

    /// The clean model's probe accuracy.
    pub fn reference_accuracy(&self) -> f32 {
        self.reference_accuracy
    }

    /// Probe size.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the probe is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

impl Detector for AccuracyProbe {
    fn name(&self) -> String {
        "accuracy_probe".to_string()
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Accuracy lost relative to calibration, clamped at zero (a model
    /// that got *better* is not evidence of tampering worth a negative
    /// score).
    fn score(&self, head: &FcHead) -> f32 {
        let now = head.accuracy(self.probe.features(), &self.labels);
        (self.reference_accuracy - now).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::{Prng, Tensor};

    fn fixture() -> (FcHead, FeatureCache, Vec<usize>) {
        let mut rng = Prng::new(23);
        let head = FcHead::from_dims(&[6, 10, 3], &mut rng);
        let x = Tensor::randn(&[40, 6], 1.0, &mut rng);
        let labels = head.predict(&x);
        (head, FeatureCache::from_features(x), labels)
    }

    #[test]
    fn clean_model_scores_zero() {
        let (head, probe, labels) = fixture();
        let det = AccuracyProbe::new(&head, probe, labels, 0.02);
        assert_eq!(det.reference_accuracy(), 1.0);
        let v = det.evaluate(&head);
        assert_eq!(v.score, 0.0);
        assert!(!v.detected);
    }

    #[test]
    fn collapsed_model_trips() {
        let (head, probe, labels) = fixture();
        let det = AccuracyProbe::new(&head, probe, labels, 0.02);
        // A huge bias shift collapses predictions onto one class.
        let mut wrecked = head.clone();
        let last = wrecked.num_layers() - 1;
        wrecked.layer_mut(last).bias_mut().as_mut_slice()[0] += 1000.0;
        let v = det.evaluate(&wrecked);
        assert!(v.score > 0.5, "collapse should cost most of the accuracy");
        assert!(v.detected);
    }

    #[test]
    fn improvement_is_not_suspicion() {
        let mut rng = Prng::new(24);
        let head = FcHead::from_dims(&[4, 6, 2], &mut rng);
        let x = Tensor::randn(&[30, 4], 1.0, &mut rng);
        // Labels from a *different* head: reference accuracy < 1, so a
        // lucky modification could improve it — score must clamp at 0.
        let other = FcHead::from_dims(&[4, 6, 2], &mut rng);
        let labels = other.predict(&x);
        let det = AccuracyProbe::new(&head, FeatureCache::from_features(x), labels, 0.02);
        assert!(det.reference_accuracy() < 1.0);
        assert!(det.score(&other) >= 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one image")]
    fn empty_probe_rejected() {
        let (head, _, _) = fixture();
        let empty = FeatureCache::from_features(Tensor::zeros(&[0, 6]));
        let _ = AccuracyProbe::new(&head, empty, vec![], 0.02);
    }
}
