//! The attack's input specification.

use crate::stealth::StealthObjective;
use fsa_nn::head::FcHead;
use fsa_nn::linear::Linear;
use fsa_nn::quant::{QuantizedHead, QuantizedLinear};
use fsa_nn::FeatureCache;
use fsa_tensor::Tensor;
use std::sync::Arc;

/// What the adversary wants: `R` working images, the first `S` of which
/// must flip to designated target labels while the rest keep their labels.
///
/// `features` are the **head inputs** (conv features) of the `R` images —
/// the conv stack is never modified, so the attack never needs pixels.
///
/// A spec built by [`crate::Campaign::scenario_spec`] also carries a
/// private handle to the campaign pool's activations at the selection's
/// start layer, computed once per pool, plus its own pool rows.
/// [`crate::FaultSneakingAttack::run`] gathers its working set's
/// activations from that handle instead of re-running the frozen layers
/// below the selection, but only when the handle was computed with the
/// attacked head's own layers `0..start` (an exact parameter compare)
/// from exactly this spec's `features` rows. Any other spec, or a spec
/// whose features were replaced, runs those layers as before; the
/// result bits are the same either way.
#[derive(Debug, Clone)]
pub struct AttackSpec {
    /// `[R, head_input_dim]` head-input features.
    pub features: Tensor,
    /// Reference labels for all `R` images (the model's original,
    /// correct classifications to be preserved for images `S..R`).
    pub labels: Vec<usize>,
    /// Target labels for the first `S` images.
    pub targets: Vec<usize>,
    /// Weight `c_i` on the `S` misclassification terms (paper eq. 5).
    pub c_attack: f32,
    /// Weight `c_i` on the `R − S` keep terms (paper eq. 6).
    pub c_keep: f32,
    /// Detector-aware planning objective; `None` runs the paper's plain
    /// behavioural-stealth attack.
    pub stealth: Option<StealthObjective>,
    /// The campaign pool's frozen prefix and this spec's pool rows.
    prefix: Option<PrefixRows>,
}

/// The inputs to head layer `start` for a whole campaign pool, computed
/// once, kept with the head layers `0..start` and the pool they came
/// from, so a spec can prove a gather from it exact.
#[derive(Debug)]
pub(crate) struct PoolPrefix {
    layers: Vec<Linear>,
    pool: FeatureCache,
    acts: Tensor,
}

impl PoolPrefix {
    /// Runs `head`'s layers `0..start` over the whole `pool`.
    pub(crate) fn new(head: &FcHead, start: usize, pool: &FeatureCache) -> Self {
        Self {
            layers: (0..start).map(|i| head.layer(i).clone()).collect(),
            pool: pool.clone(),
            acts: head.activations_before(start, pool.features()),
        }
    }

    /// Rows `rows` of the pool activations, if they are exactly
    /// `head.activations_before(start, features)`: this prefix ran the
    /// same layers `0..start`, bit for bit, over pool rows equal to
    /// `features` bit for bit. A row's `gemm_nt` output does not depend
    /// on which rows share its batch, so the gather is then exact.
    fn gather(
        &self,
        head: &FcHead,
        start: usize,
        rows: &[usize],
        features: &Tensor,
    ) -> Option<Tensor> {
        let same_layers = self.layers.len() == start
            && self.layers.iter().enumerate().all(|(i, mine)| {
                let theirs = head.layer(i);
                mine.weight().shape() == theirs.weight().shape()
                    && same_bits(mine.weight().as_slice(), theirs.weight().as_slice())
                    && same_bits(mine.bias().as_slice(), theirs.bias().as_slice())
            });
        if !same_layers {
            return None;
        }
        gather_exact(&self.pool, &self.acts, rows, features)
    }
}

/// The int8 twin of [`PoolPrefix`]: the inputs to layer `start` of a
/// quantized head's int8 forward over a whole campaign pool, kept with
/// its layers `0..start` and the pool they came from, so a measurement
/// can prove a gather from it exact.
#[derive(Debug)]
pub(crate) struct QuantPoolPrefix {
    layers: Vec<QuantizedLinear>,
    pool: FeatureCache,
    acts: Tensor,
}

impl QuantPoolPrefix {
    /// Runs `qhead`'s int8 layers `0..start` over the whole `pool`.
    pub(crate) fn new(qhead: &QuantizedHead, start: usize, pool: &FeatureCache) -> Self {
        Self {
            layers: (0..start).map(|i| qhead.layer(i).clone()).collect(),
            pool: pool.clone(),
            acts: qhead.activations_before(start, pool.features()),
        }
    }

    /// Rows `rows` of the pool activations, if they are exactly
    /// `qhead.activations_before(start, features)`: this prefix ran the
    /// same layers `0..start` (weight bytes, scale bits, bias bits) over
    /// pool rows equal to `features` bit for bit. Each row is quantized
    /// on its own grid, so a row's int8 output does not depend on which
    /// rows share its batch, and the gather is then exact.
    pub(crate) fn gather(
        &self,
        qhead: &QuantizedHead,
        rows: &[usize],
        features: &Tensor,
    ) -> Option<Tensor> {
        let start = self.layers.len();
        let same_layers = qhead.num_layers() > start
            && self.layers.iter().enumerate().all(|(i, mine)| {
                let theirs = qhead.layer(i);
                mine.in_features() == theirs.in_features()
                    && mine.out_features() == theirs.out_features()
                    && mine.weight_q() == theirs.weight_q()
                    && mine.weight_params().scale.to_bits()
                        == theirs.weight_params().scale.to_bits()
                    && same_bits(mine.bias(), theirs.bias())
            });
        if !same_layers {
            return None;
        }
        gather_exact(&self.pool, &self.acts, rows, features)
    }

    /// `qhead.forward(features)`, run from layer `start` over the
    /// gathered pool activations when [`QuantPoolPrefix::gather`] proves
    /// them exact, in full otherwise; the bits are the same either way.
    pub(crate) fn forward(
        &self,
        qhead: &QuantizedHead,
        rows: &[usize],
        features: &Tensor,
    ) -> Tensor {
        match self.gather(qhead, rows, features) {
            Some(h) => qhead.forward_from(self.layers.len(), &h),
            None => qhead.forward(features),
        }
    }
}

/// Rows `rows` of a pool's activations `acts`, if `features` holds
/// exactly those pool rows, bit for bit.
fn gather_exact(
    pool: &FeatureCache,
    acts: &Tensor,
    rows: &[usize],
    features: &Tensor,
) -> Option<Tensor> {
    let same_rows = features.shape()[0] == rows.len()
        && rows
            .iter()
            .enumerate()
            .all(|(k, &r)| r < pool.len() && same_bits(features.row(k), pool.features().row(r)));
    if !same_rows {
        return None;
    }
    let mut out = Tensor::zeros(&[rows.len(), acts.shape()[1]]);
    for (k, &r) in rows.iter().enumerate() {
        out.row_mut(k).copy_from_slice(acts.row(r));
    }
    Some(out)
}

/// A spec's shared pool prefix and its rows in that pool.
#[derive(Debug, Clone)]
struct PrefixRows {
    prefix: Arc<PoolPrefix>,
    rows: Vec<usize>,
}

/// Whether two slices hold the same `f32` bit patterns. Folding each
/// 64-element chunk without an early exit lets the compare vectorize
/// (about 3x faster than a plain `all` on the paper head's prefix).
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.chunks(64).zip(b.chunks(64)).all(|(p, q)| {
            p.iter()
                .zip(q)
                .fold(true, |same, (x, y)| same & (x.to_bits() == y.to_bits()))
        })
}

impl AttackSpec {
    /// Creates a spec with unit `c` weights.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len() > labels.len()`, the feature row count
    /// differs from `labels.len()`, or any target equals the image's
    /// current label (such a "fault" is a no-op and almost certainly a
    /// caller bug).
    pub fn new(features: Tensor, labels: Vec<usize>, targets: Vec<usize>) -> Self {
        assert_eq!(features.ndim(), 2, "features must be [R, d]");
        assert_eq!(
            features.shape()[0],
            labels.len(),
            "features/labels mismatch"
        );
        assert!(
            targets.len() <= labels.len(),
            "S = {} exceeds R = {}",
            targets.len(),
            labels.len()
        );
        for (i, (&t, &l)) in targets.iter().zip(&labels).enumerate() {
            assert_ne!(t, l, "target for image {i} equals its current label {l}");
        }
        Self {
            features,
            labels,
            targets,
            c_attack: 1.0,
            c_keep: 1.0,
            stealth: None,
            prefix: None,
        }
    }

    /// Builds a spec from a shared [`fsa_nn::FeatureCache`]: the named
    /// pool rows become the working set, copied (never recomputed) out
    /// of activations the cache extracted once through the batched conv
    /// pipeline. This is the campaign path — many concurrent attacks
    /// slice one read-only cache instead of each re-running
    /// [`fsa_nn::cw::CwModel::extract_features`], and the resulting spec
    /// is bit-identical to one built by [`AttackSpec::new`] over that
    /// extraction of the same images.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsa_attack::AttackSpec;
    /// use fsa_nn::FeatureCache;
    /// use fsa_tensor::{Prng, Tensor};
    ///
    /// let mut rng = Prng::new(2);
    /// // A 6-image pool of 4-wide head-input features.
    /// let cache = FeatureCache::from_features(Tensor::randn(&[6, 4], 1.0, &mut rng));
    /// // Working set: pool rows 4, 0, 2; flip the first to class 1.
    /// let spec = AttackSpec::from_cache(&cache, &[4, 0, 2], vec![0, 0, 2], vec![1]);
    /// assert_eq!(spec.s(), 1);
    /// assert_eq!(spec.r(), 3);
    /// assert_eq!(spec.features.as_slice(), cache.gather(&[4, 0, 2]).as_slice());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics under the same label/shape conditions as
    /// [`AttackSpec::new`], or if any row index is outside the cache.
    pub fn from_cache(
        cache: &fsa_nn::FeatureCache,
        rows: &[usize],
        labels: Vec<usize>,
        targets: Vec<usize>,
    ) -> Self {
        Self::new(cache.gather(rows), labels, targets)
    }

    /// Sets the misclassification/keep weights.
    pub fn with_weights(mut self, c_attack: f32, c_keep: f32) -> Self {
        self.c_attack = c_attack;
        self.c_keep = c_keep;
        self
    }

    /// Sets (or clears) the detector-aware planning objective.
    pub fn with_stealth(mut self, stealth: Option<StealthObjective>) -> Self {
        self.stealth = stealth;
        self
    }

    /// Attaches a campaign pool's frozen prefix and this spec's rows in
    /// that pool.
    pub(crate) fn with_prefix(
        mut self,
        prefix: Option<&Arc<PoolPrefix>>,
        rows: Vec<usize>,
    ) -> Self {
        self.prefix = prefix.map(|p| PrefixRows {
            prefix: Arc::clone(p),
            rows,
        });
        self
    }

    /// `head.activations_before(start, &self.features)`, gathered from
    /// the attached pool prefix when that is exact (see [`AttackSpec`]).
    pub(crate) fn activations_before(&self, head: &FcHead, start: usize) -> Tensor {
        self.prefix
            .as_ref()
            .and_then(|p| p.prefix.gather(head, start, &p.rows, &self.features))
            .unwrap_or_else(|| head.activations_before(start, &self.features))
    }

    /// This spec's rows in the campaign pool, when it carries the pool's
    /// prefix.
    pub(crate) fn pool_rows(&self) -> Option<&[usize]> {
        self.prefix.as_ref().map(|p| p.rows.as_slice())
    }

    /// Number of designated faults `S`.
    pub fn s(&self) -> usize {
        self.targets.len()
    }

    /// Working-set size `R`.
    pub fn r(&self) -> usize {
        self.labels.len()
    }

    /// The label the attack wants image `i` to have: its target for
    /// `i < S`, its original label otherwise.
    pub fn enforced_label(&self, i: usize) -> usize {
        if i < self.targets.len() {
            self.targets[i]
        } else {
            self.labels[i]
        }
    }

    /// The weight `c_i` for image `i`.
    pub fn weight(&self, i: usize) -> f32 {
        if i < self.targets.len() {
            self.c_attack
        } else {
            self.c_keep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AttackSpec {
        AttackSpec::new(Tensor::zeros(&[3, 4]), vec![0, 1, 2], vec![5])
    }

    #[test]
    fn s_and_r() {
        let s = spec();
        assert_eq!(s.s(), 1);
        assert_eq!(s.r(), 3);
    }

    #[test]
    fn enforced_labels_switch_at_s() {
        let s = spec();
        assert_eq!(s.enforced_label(0), 5);
        assert_eq!(s.enforced_label(1), 1);
        assert_eq!(s.enforced_label(2), 2);
    }

    #[test]
    fn weights_follow_partition() {
        let s = spec().with_weights(3.0, 0.5);
        assert_eq!(s.weight(0), 3.0);
        assert_eq!(s.weight(2), 0.5);
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn int8_prefix_gathers_are_the_full_forward() {
        // A 4-layer head so that start layers 1 and 2 both have layers
        // below and above them; working rows repeat and come out of
        // pool order, as a scenario draw's do.
        let mut rng = fsa_tensor::Prng::new(0x1A78);
        let head = FcHead::from_dims(&[7, 11, 9, 6, 3], &mut rng);
        let qhead = QuantizedHead::quantize(&head);
        let pool = FeatureCache::from_features(Tensor::randn(&[23, 7], 2.0, &mut rng));
        let rows = [19, 3, 3, 0, 22, 11, 7];
        let features = pool.gather(&rows);
        let full = bits(&qhead.forward(&features));
        for start in [1, 2] {
            let prefix = QuantPoolPrefix::new(&qhead, start, &pool);
            let h = prefix
                .gather(&qhead, &rows, &features)
                .expect("the prefix of the same head covers pool rows");
            assert_eq!(bits(&qhead.forward_from(start, &h)), full, "start {start}");
            assert_eq!(bits(&prefix.forward(&qhead, &rows, &features)), full);

            // Another head — one weight byte, or one bias bit, changed
            // below `start` — or other features fall back to the full
            // forward of what was asked.
            let mut byte = qhead.clone();
            let mut wq = byte.layer(start - 1).weight_q().to_vec();
            wq[4] = wq[4].wrapping_add(1);
            byte.set_layer_weight_q(start - 1, &wq);
            let mut bias = qhead.clone();
            let mut b = bias.layer(0).bias().to_vec();
            b[2] = f32::from_bits(b[2].to_bits() ^ 1);
            bias.set_layer_bias(0, &b);
            for other in [&byte, &bias] {
                assert!(prefix.gather(other, &rows, &features).is_none());
                assert_eq!(
                    bits(&prefix.forward(other, &rows, &features)),
                    bits(&other.forward(&features))
                );
            }
            let mut moved = features.clone();
            moved.row_mut(2)[0] += 1.0;
            assert!(prefix.gather(&qhead, &rows, &moved).is_none());
            assert_eq!(
                bits(&prefix.forward(&qhead, &rows, &moved)),
                bits(&qhead.forward(&moved))
            );
            // A change at or above `start` keeps the gather: those layers
            // run either way.
            let mut above = qhead.clone();
            let mut top = above.layer(start).bias().to_vec();
            top[0] += 0.5;
            above.set_layer_bias(start, &top);
            assert!(prefix.gather(&above, &rows, &features).is_some());
            assert_eq!(
                bits(&prefix.forward(&above, &rows, &features)),
                bits(&above.forward(&features))
            );
        }
    }

    #[test]
    #[should_panic(expected = "equals its current label")]
    fn self_target_rejected() {
        AttackSpec::new(Tensor::zeros(&[2, 4]), vec![0, 1], vec![0]);
    }

    #[test]
    #[should_panic(expected = "exceeds R")]
    fn s_cannot_exceed_r() {
        AttackSpec::new(Tensor::zeros(&[1, 4]), vec![0], vec![1, 2]);
    }
}
