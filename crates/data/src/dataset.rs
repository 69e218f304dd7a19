//! Labeled image collections.

use fsa_nn::conv::VolumeDims;
use fsa_tensor::{Prng, Tensor};

/// A labeled set of images stored as a `[n, channels·height·width]` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Flattened images, one row per sample, values in `[0, 1]`.
    pub images: Tensor,
    /// Class label per sample.
    pub labels: Vec<usize>,
    /// Interpretation of each row as a volume.
    pub dims: VolumeDims,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Creates a dataset, validating shapes.
    ///
    /// # Panics
    ///
    /// Panics if rows/labels disagree, the row width differs from
    /// `dims.features()`, or any label is out of range.
    pub fn new(images: Tensor, labels: Vec<usize>, dims: VolumeDims, classes: usize) -> Self {
        assert_eq!(images.ndim(), 2, "images must be [n, features]");
        assert_eq!(
            images.shape()[0],
            labels.len(),
            "images/labels length mismatch"
        );
        assert_eq!(
            images.shape()[1],
            dims.features(),
            "row width {} does not match dims {:?}",
            images.shape()[1],
            dims
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "labels must be < {classes}"
        );
        Self {
            images,
            labels,
            dims,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Image `i` as a slice.
    pub fn image(&self, i: usize) -> &[f32] {
        self.images.row(i)
    }

    /// Copies out the samples at `idx` as a new dataset.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, idx: &[usize]) -> Dataset {
        let mut images = Tensor::zeros(&[idx.len(), self.dims.features()]);
        let mut labels = Vec::with_capacity(idx.len());
        for (r, &i) in idx.iter().enumerate() {
            images.row_mut(r).copy_from_slice(self.images.row(i));
            labels.push(self.labels[i]);
        }
        Dataset::new(images, labels, self.dims, self.classes)
    }

    /// Splits off a deterministic held-out **probe set** of `n` samples;
    /// returns `(probe, rest)`.
    ///
    /// The draw is a pure function of `(seed, n, self.len())` — never of
    /// any RNG shared with attack/keep sampling — so detectors
    /// calibrated on the probe set are guaranteed disjoint from any
    /// working set drawn from `rest`, and the same `(seed, n)` always
    /// yields the same split. Both halves preserve the original sample
    /// order.
    ///
    /// This is the defense suite's data contract: the accuracy and
    /// activation-drift detectors measure on `probe`, attacks draw from
    /// `rest`, and the two never overlap by construction.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn split_probe(&self, seed: u64, n: usize) -> (Dataset, Dataset) {
        assert!(
            n <= self.len(),
            "probe size {n} exceeds {} samples",
            self.len()
        );
        if fsa_telemetry::enabled() {
            fsa_telemetry::counter("data.probe_splits", 1);
            fsa_telemetry::counter("data.probe_images", n as u64);
        }
        // Domain-separate from every other sampling stream ("prob").
        let mut rng = Prng::new(seed ^ 0x7072_6f62);
        let mut probe_idx = rng.choose_distinct(self.len(), n);
        probe_idx.sort_unstable();
        let mut in_probe = vec![false; self.len()];
        for &i in &probe_idx {
            in_probe[i] = true;
        }
        let rest_idx: Vec<usize> = (0..self.len()).filter(|&i| !in_probe[i]).collect();
        (self.subset(&probe_idx), self.subset(&rest_idx))
    }
}

/// A generator of labeled synthetic samples.
pub trait Synthesizer {
    /// Image dimensions produced.
    fn dims(&self) -> VolumeDims;

    /// Number of classes.
    fn classes(&self) -> usize;

    /// Renders one sample of class `label` into `out`
    /// (`dims().features()` long).
    fn render(&self, label: usize, out: &mut [f32], rng: &mut Prng);

    /// Generates `n` samples with uniformly shuffled class labels.
    fn generate(&self, n: usize, seed: u64) -> Dataset {
        let dims = self.dims();
        let classes = self.classes();
        let mut rng = Prng::new(seed);
        let mut images = Tensor::zeros(&[n, dims.features()]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Balanced classes with shuffled positions.
            labels.push(i % classes);
        }
        rng.shuffle(&mut labels);
        for (i, &label) in labels.iter().enumerate() {
            self.render(label, images.row_mut(i), &mut rng);
        }
        Dataset::new(images, labels, dims, classes)
    }

    /// Generates disjoint train/test splits from one seed.
    fn train_test(&self, n_train: usize, n_test: usize, seed: u64) -> (Dataset, Dataset) {
        (
            self.generate(n_train, seed ^ 0x7261_696e),
            self.generate(n_test, seed ^ 0x7465_7374),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let images = Tensor::from_vec((0..12).map(|v| v as f32 / 12.0).collect(), &[3, 4]);
        Dataset::new(images, vec![0, 1, 0], VolumeDims::new(1, 2, 2), 2)
    }

    #[test]
    fn subset_copies_rows_and_labels() {
        let d = toy();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.labels, vec![0, 0]);
        assert_eq!(s.image(0), d.image(2));
        assert_eq!(s.image(1), d.image(0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn new_validates_lengths() {
        let images = Tensor::zeros(&[3, 4]);
        Dataset::new(images, vec![0, 1], VolumeDims::new(1, 2, 2), 2);
    }

    #[test]
    fn split_probe_is_deterministic_and_disjoint() {
        // 10 samples with globally unique pixel values, so row identity
        // proves index identity.
        let images = Tensor::from_vec((0..40).map(|v| v as f32).collect(), &[10, 4]);
        let labels: Vec<usize> = (0..10).map(|i| i % 2).collect();
        let d = Dataset::new(images, labels, VolumeDims::new(1, 2, 2), 2);
        let (probe, rest) = d.split_probe(7, 3);
        assert_eq!(probe.len(), 3);
        assert_eq!(rest.len(), 7);
        // Deterministic: same (seed, n) → same split.
        let (probe2, rest2) = d.split_probe(7, 3);
        assert_eq!(probe, probe2);
        assert_eq!(rest, rest2);
        // Disjoint and jointly exhaustive: every original row appears in
        // exactly one half.
        for i in 0..d.len() {
            let row = d.image(i);
            let in_probe = (0..probe.len()).any(|r| probe.image(r) == row);
            let in_rest = (0..rest.len()).any(|r| rest.image(r) == row);
            assert!(in_probe != in_rest, "row {i} must be in exactly one half");
        }
        // A different seed draws a different probe set (10 choose 3 is
        // large enough that a collision would be a red flag).
        let (probe3, _) = d.split_probe(8, 3);
        assert_ne!(probe, probe3);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn split_probe_rejects_oversized_probe() {
        let _ = toy().split_probe(1, 4);
    }
}
