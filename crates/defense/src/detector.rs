//! The [`Detector`] trait — what a deployed monitor can conclude from
//! one look at a (possibly attacked) model.
//!
//! Every detector is *calibrated* at construction time against the
//! clean reference model (checksums, probe accuracy, activation
//! statistics, row parity) and afterwards only ever sees the head under
//! inspection. Scoring must be a pure fixed-order function of that head
//! — no score-time RNG, no interior mutability — so arena matrices stay
//! bit-identical at any `FSA_THREADS`. Randomized monitors (the rotating
//! checksum auditor) draw their schedule from a seeded stream *once, at
//! calibration*, and score as a closed-form expectation over that fixed
//! schedule; the seed is part of the detector's name so it reaches every
//! fingerprint.

use fsa_nn::head::FcHead;

/// One detector's judgement of one observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Detector name (unique within a suite).
    pub detector: String,
    /// Suspicion score; higher means more evidence of tampering. The
    /// scale is detector-specific (a probability for the checksum
    /// auditor, an accuracy drop for the probe, a violation count for
    /// the parity monitor).
    pub score: f32,
    /// Decision threshold the verdict was taken at.
    pub threshold: f32,
    /// `score >= threshold` — ties alarm (a monitor that has exactly
    /// reached its alarm level fires; `detect_at` is the single
    /// tie-breaking rule everywhere, threshold sweeps included).
    pub detected: bool,
}

/// The tie-breaking rule for every detection decision in the crate:
/// a score exactly at the threshold **fires**.
pub fn detect_at(score: f32, threshold: f32) -> bool {
    score >= threshold
}

/// A calibrated tamper monitor.
///
/// Detectors see only the deployed artifact, never δ: they score the
/// (possibly attacked) classifier head itself, with no other ground
/// truth — exactly what a real monitor sees.
pub trait Detector: Sync {
    /// Unique name within a suite (shows up in arena reports).
    fn name(&self) -> String;

    /// The default decision threshold on [`Detector::score`]'s scale.
    fn threshold(&self) -> f32;

    /// Suspicion score for the head under inspection (pure and
    /// deterministic).
    fn score(&self, head: &FcHead) -> f32;

    /// Scores the head and decides at the default threshold.
    fn evaluate(&self, head: &FcHead) -> Verdict {
        let score = self.score(head);
        let threshold = self.threshold();
        Verdict {
            detector: self.name(),
            score,
            threshold,
            detected: detect_at(score, threshold),
        }
    }
}

/// Every parameter of the head as one flat vector: layers in order,
/// weights (row-major) before bias within a layer — the byte surface
/// the integrity detectors (checksum, parity) monitor.
///
/// This is deliberately the *whole* model, not any attack's selection:
/// a real integrity monitor does not know which parameters an attacker
/// chose.
pub fn flat_params(head: &FcHead) -> Vec<f32> {
    let mut out = Vec::with_capacity(head.param_count());
    for i in 0..head.num_layers() {
        out.extend_from_slice(&head.layer_flat_params(i));
    }
    out
}

/// The words of `head`, in [`flat_params`] order, whose bit patterns
/// differ from `reference`: `(index, new bits)` pairs, ascending. The
/// compare is bitwise, so `-0.0` against `0.0` and a changed NaN payload
/// are changes; the head is read in place, never copied flat.
///
/// # Panics
///
/// Panics if the head's parameter count differs from `reference.len()`
/// (a different architecture is not a tampered model — it is a caller
/// bug).
pub(crate) fn changed_words(reference: &[u32], head: &FcHead) -> Vec<(usize, u32)> {
    assert_eq!(
        head.param_count(),
        reference.len(),
        "observed model has a different parameter count than calibrated"
    );
    let mut out = Vec::new();
    let mut base = 0;
    for l in 0..head.num_layers() {
        let layer = head.layer(l);
        for words in [layer.weight().as_slice(), layer.bias().as_slice()] {
            let before = &reference[base..base + words.len()];
            // Chunks that match whole cost one branch-free compare; only
            // a chunk holding a change is walked word by word.
            for (c, (now, was)) in words.chunks(64).zip(before.chunks(64)).enumerate() {
                let same = now
                    .iter()
                    .zip(was)
                    .fold(true, |same, (v, &w)| same & (v.to_bits() == w));
                if !same {
                    let at = base + c * 64;
                    out.extend(
                        now.iter()
                            .zip(was)
                            .enumerate()
                            .filter(|&(_, (v, &w))| v.to_bits() != w)
                            .map(|(k, (v, _))| (at + k, v.to_bits())),
                    );
                }
            }
            base += words.len();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    #[test]
    fn flat_params_covers_every_layer_in_order() {
        let mut rng = Prng::new(3);
        let head = FcHead::from_dims(&[4, 3, 2], &mut rng);
        let flat = flat_params(&head);
        assert_eq!(flat.len(), head.param_count());
        assert_eq!(flat[..4 * 3 + 3], head.layer_flat_params(0)[..]);
        assert_eq!(flat[4 * 3 + 3..], head.layer_flat_params(1)[..]);
    }

    #[test]
    fn changed_words_compare_bits() {
        let mut rng = Prng::new(5);
        let mut head = FcHead::from_dims(&[70, 2, 2], &mut rng);
        let mut flat = head.layer_flat_params(0);
        flat[3] = 0.0;
        flat[100] = f32::from_bits(0x7FC0_0001);
        head.set_layer_flat_params(0, &flat);
        let reference: Vec<u32> = flat_params(&head).iter().map(|v| v.to_bits()).collect();
        assert!(changed_words(&reference, &head).is_empty());
        flat[3] = -0.0;
        flat[100] = f32::from_bits(0x7FC0_0002);
        flat[141] += 1.0; // the layer's last bias
        head.set_layer_flat_params(0, &flat);
        let mut top = head.layer_flat_params(1);
        top[0] += 1.0;
        head.set_layer_flat_params(1, &top);
        let got: Vec<usize> = changed_words(&reference, &head)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(got, vec![3, 100, 141, 142]);
    }

    #[test]
    fn ties_alarm() {
        assert!(detect_at(0.5, 0.5));
        assert!(detect_at(0.6, 0.5));
        assert!(!detect_at(0.4999, 0.5));
    }
}
