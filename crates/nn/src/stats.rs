//! Per-layer activation statistics — the observable surface drift
//! detectors monitor.
//!
//! A deployed integrity monitor cannot diff 250k parameters per
//! inference, but it *can* watch cheap summaries of what the network
//! computes: the mean and variance of each layer's activations on a
//! fixed probe batch. A parameter modification that matters must move
//! the activations somewhere, so per-layer `(mean, var)` against a
//! reference captured at deployment time is a classic drift monitor —
//! and the fault sneaking attack's keep-set constraint is precisely an
//! attempt to move them as little as possible.
//!
//! Statistics are accumulated in `f64` **in fixed element order** over
//! the layer output buffer, so they are a pure function of the layer
//! outputs — which are themselves bit-identical at every `FSA_THREADS`
//! (the head forward's contract). The hooks therefore never weaken any
//! determinism guarantee:
//!
//! * [`cached_forward_stats`] — a per-layer statistics tap over the
//!   forward pass an [`FcHead`] cached in its [`HeadBuffers`] (post-ReLU
//!   for hidden layers, raw logits for the last), one entry per layer
//!   from the pass's start layer on — the surface attacked models are
//!   monitored on;
//! * [`head_forward_stats`] — that tap over a whole-head forward.

use crate::head::{FcHead, HeadBuffers};
use fsa_tensor::Tensor;

/// Mean and (population) variance of one layer's activations on a batch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ActivationStats {
    /// Mean activation.
    pub mean: f64,
    /// Population variance of the activations.
    pub var: f64,
}

impl ActivationStats {
    /// Standard deviation (`√var`).
    pub fn std(&self) -> f64 {
        self.var.sqrt()
    }
}

/// Floor on a normalizing σ₀ so dead layers cannot divide by zero.
pub const SIGMA_FLOOR: f64 = 1e-6;

/// Normalized drift of one layer's statistics against a reference:
/// `max(|μ−μ₀|, |σ−σ₀|) / max(σ₀, SIGMA_FLOOR)` — "how many reference
/// standard deviations has this layer's distribution moved".
///
/// This is the shared monitored quantity: the defense suite's drift
/// detector scores it, and a detector-aware attack budgets against the
/// same formula during refinement.
pub fn normalized_drift(now: &ActivationStats, reference: &ActivationStats) -> f64 {
    let sigma = reference.std().max(SIGMA_FLOOR);
    let mean_shift = (now.mean - reference.mean).abs() / sigma;
    let spread_shift = (now.std() - reference.std()).abs() / sigma;
    mean_shift.max(spread_shift)
}

/// Maximum [`normalized_drift`] over all layers (zero for empty input);
/// `f64::INFINITY` if any layer's drift is NaN, because a head that
/// computes NaN has been tampered with and `f64::max` alone would drop
/// the NaN and score it as clean.
///
/// This is the one drift score: the defense suite's drift detector
/// alarms on it and refinement's drift wall stops on it.
///
/// # Panics
///
/// Panics if the layer counts differ.
pub fn max_normalized_drift(now: &[ActivationStats], reference: &[ActivationStats]) -> f64 {
    assert_eq!(
        now.len(),
        reference.len(),
        "drift comparison layer count mismatch"
    );
    now.iter()
        .zip(reference)
        .map(|(n, r)| normalized_drift(n, r))
        .fold(0.0, |max, d| {
            if d.is_nan() {
                f64::INFINITY
            } else {
                max.max(d)
            }
        })
}

/// Fixed-order two-pass mean/variance of a slice (empty slices yield
/// zeros).
///
/// Two sequential `f64` passes: the result depends only on the element
/// values and their order, never on any thread partition.
pub fn slice_stats(values: &[f32]) -> ActivationStats {
    if values.is_empty() {
        return ActivationStats::default();
    }
    let n = values.len() as f64;
    let mut sum = 0.0f64;
    for &v in values {
        sum += f64::from(v);
    }
    let mean = sum / n;
    let mut sq = 0.0f64;
    for &v in values {
        let d = f64::from(v) - mean;
        sq += d * d;
    }
    ActivationStats { mean, var: sq / n }
}

/// Per-layer statistics of the forward pass cached in `bufs` by
/// [`FcHead::forward_from_caching`]`(start, ..)`, written to `out` (cleared
/// first, its storage reused): entry `rel` covers layer `start + rel`'s
/// output — post-ReLU for hidden layers, the logits for the last.
///
/// A caller that already runs a truncated forward reads the monitored
/// statistics of layers `start..` off it for the cost of the reductions.
///
/// # Panics
///
/// Panics if `bufs` holds no cached forward pass.
pub fn cached_forward_stats(bufs: &HeadBuffers, out: &mut Vec<ActivationStats>) {
    out.clear();
    out.extend(bufs.layer_outputs().map(slice_stats));
}

/// [`FcHead::forward`] with a per-layer statistics tap: returns the
/// logits and one [`ActivationStats`] per layer — post-ReLU outputs for
/// hidden layers, the raw logits for the last.
///
/// This is the monitored surface for attacked models: the attack
/// modifies head parameters, so any behavioural change must show up in
/// some head layer's activation distribution on a fixed probe batch.
/// It is [`cached_forward_stats`] over a forward from layer 0, so the
/// logits are bit-identical to [`FcHead::forward`].
///
/// # Panics
///
/// Panics if `x` is not `[batch, in_features]` for the head.
pub fn head_forward_stats(head: &FcHead, x: &Tensor) -> (Tensor, Vec<ActivationStats>) {
    assert_eq!(
        x.shape()[1],
        head.in_features(),
        "probe batch width must match head input"
    );
    let mut bufs = HeadBuffers::new();
    let logits = head.forward_from_caching(0, x, &mut bufs).clone();
    let mut stats = Vec::with_capacity(head.num_layers());
    cached_forward_stats(&bufs, &mut stats);
    (logits, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use fsa_tensor::Prng;

    #[test]
    fn normalized_drift_matches_closed_form() {
        let r = ActivationStats {
            mean: 1.0,
            var: 4.0,
        }; // σ₀ = 2
        let n = ActivationStats {
            mean: 2.0,
            var: 9.0,
        }; // σ = 3
           // mean shift 1/2, spread shift 1/2 → 0.5 either way.
        assert!((normalized_drift(&n, &r) - 0.5).abs() < 1e-12);
        // Identical stats drift zero; a dead reference layer uses the floor.
        assert_eq!(normalized_drift(&r, &r), 0.0);
        let dead = ActivationStats::default();
        let moved = ActivationStats {
            mean: 1e-3,
            var: 0.0,
        };
        assert!((normalized_drift(&moved, &dead) - 1e-3 / SIGMA_FLOOR).abs() < 1e-6);
        // The layer fold takes the max.
        assert!((max_normalized_drift(&[r, n], &[r, r]) - 0.5).abs() < 1e-12);
        assert_eq!(max_normalized_drift(&[], &[]), 0.0);
    }

    #[test]
    fn a_nan_layer_drifts_infinitely_far() {
        let r = ActivationStats {
            mean: 1.0,
            var: 4.0,
        };
        let nan = ActivationStats {
            mean: f64::NAN,
            var: f64::NAN,
        };
        assert!(normalized_drift(&nan, &r).is_nan());
        // In any layer, before or after a finite maximum.
        assert_eq!(max_normalized_drift(&[nan, r], &[r, r]), f64::INFINITY);
        assert_eq!(max_normalized_drift(&[r, nan], &[r, r]), f64::INFINITY);
        let far = ActivationStats {
            mean: 1e300,
            var: 4.0,
        };
        assert_eq!(max_normalized_drift(&[far, nan], &[r, r]), f64::INFINITY);
    }

    #[test]
    fn slice_stats_matches_closed_form() {
        let s = slice_stats(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.var - 1.25).abs() < 1e-12);
        assert_eq!(slice_stats(&[]), ActivationStats::default());
        let c = slice_stats(&[3.0; 17]);
        assert!((c.mean - 3.0).abs() < 1e-12);
        assert!(c.var.abs() < 1e-12);
    }

    #[test]
    fn head_stats_logits_match_forward() {
        let mut rng = Prng::new(9);
        let head = FcHead::from_dims(&[5, 7, 6, 3], &mut rng);
        let x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        let (logits, stats) = head_forward_stats(&head, &x);
        assert_eq!(logits, head.forward(&x), "stats tap changed the logits");
        assert_eq!(stats.len(), 3);
        // Hidden layers are post-ReLU: their means cannot be negative.
        assert!(stats[0].mean >= 0.0 && stats[1].mean >= 0.0);
        assert_eq!(stats[2], slice_stats(logits.as_slice()));
    }

    #[test]
    fn cached_tap_matches_the_whole_head_tap_from_every_start() {
        let mut rng = Prng::new(12);
        let head = FcHead::from_dims(&[6, 7, 5, 4, 3], &mut rng);
        let clean = Tensor::randn(&[5, 6], 1.0, &mut rng);
        // −0.0 in the input, and NaN, +Inf and −Inf that reach every
        // later layer (their statistics turn NaN; the bits must agree).
        let mut dirty = clean.clone();
        let xs = dirty.as_mut_slice();
        xs[0] = -0.0;
        xs[6] = f32::NAN;
        xs[13] = f32::INFINITY;
        xs[20] = f32::NEG_INFINITY;
        let bits = |s: &[ActivationStats]| -> Vec<(u64, u64)> {
            s.iter()
                .map(|a| (a.mean.to_bits(), a.var.to_bits()))
                .collect()
        };
        let mut bufs = HeadBuffers::new();
        let mut tapped = Vec::new();
        for x in [&clean, &dirty] {
            let (_, full) = head_forward_stats(&head, x);
            for start in 0..head.num_layers() {
                let acts = head.activations_before(start, x);
                head.forward_from_caching(start, &acts, &mut bufs);
                cached_forward_stats(&bufs, &mut tapped);
                assert_eq!(
                    bits(&tapped),
                    bits(&full[start..]),
                    "tap from layer {start} differs from the whole-head tap"
                );
            }
        }
    }

    #[test]
    fn head_stats_match_the_per_layer_chain() {
        // The wrapper equals the chain it replaced: each layer's output,
        // ReLU'd by `Relu::apply_slice` below the last, reduced in order.
        let mut rng = Prng::new(13);
        let head = FcHead::from_dims(&[5, 7, 6, 3], &mut rng);
        let mut x = Tensor::randn(&[4, 5], 1.0, &mut rng);
        x.as_mut_slice()[3] = -0.0;
        let (_, stats) = head_forward_stats(&head, &x);
        let mut h = x.as_slice().to_vec();
        for (i, s) in stats.iter().enumerate() {
            let layer = head.layer(i);
            let mut y = vec![0.0f32; 4 * layer.weight().shape()[0]];
            layer.forward_into(&h, 4, &mut y);
            if i + 1 < head.num_layers() {
                Relu::apply_slice(&mut y);
            }
            let want = slice_stats(&y);
            assert_eq!(
                (s.mean.to_bits(), s.var.to_bits()),
                (want.mean.to_bits(), want.var.to_bits()),
                "layer {i}"
            );
            h = y;
        }
    }

    #[test]
    fn head_stats_move_when_parameters_move() {
        let mut rng = Prng::new(10);
        let mut head = FcHead::from_dims(&[5, 7, 3], &mut rng);
        let x = Tensor::randn(&[6, 5], 1.0, &mut rng);
        let (_, before) = head_forward_stats(&head, &x);
        let last = head.num_layers() - 1;
        head.layer_mut(last).bias_mut().as_mut_slice()[0] += 10.0;
        let (_, after) = head_forward_stats(&head, &x);
        assert_eq!(before[0], after[0], "untouched layer stats drifted");
        assert!(
            (after[last].mean - before[last].mean).abs() > 1.0,
            "a 10-logit bias shift must move the logit mean"
        );
    }

    #[test]
    #[should_panic(expected = "probe batch width")]
    fn head_stats_validate_width() {
        let mut rng = Prng::new(11);
        let head = FcHead::from_dims(&[5, 4, 3], &mut rng);
        let _ = head_forward_stats(&head, &Tensor::zeros(&[2, 6]));
    }
}
