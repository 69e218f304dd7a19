//! Bundling detectors into one deployable monitor stack.

use crate::accuracy::AccuracyProbe;
use crate::checksum::ChecksumDetector;
use crate::detector::{Detector, Verdict};
use crate::drift::DriftDetector;
use crate::parity::RowCodeDetector;
use fsa_memfault::dram::DramGeometry;
use fsa_memfault::parity::RowCode;
use fsa_nn::head::FcHead;
use fsa_nn::FeatureCache;
use fsa_tensor::Prng;

/// Checksum granularities (parameters per block) the standard suite
/// sweeps — fine enough that a 2010-parameter last layer spans many
/// blocks, coarse enough that audits stay cheap.
pub const STANDARD_GRANULARITIES: [usize; 3] = [16, 64, 256];

/// An ordered stack of calibrated detectors evaluated together.
///
/// Order is fixed at construction and defines the column order of every
/// arena matrix built on the suite.
pub struct DefenseSuite {
    detectors: Vec<Box<dyn Detector>>,
    /// The audit-schedule seed, when the suite contains seeded
    /// randomized monitors ([`DefenseSuite::randomized`]); `None` for
    /// fixed stacks. Flows into arena fingerprints so differently
    /// scheduled matrices never collide.
    schedule_seed: Option<u64>,
}

impl DefenseSuite {
    /// An empty suite.
    pub fn new() -> Self {
        Self {
            detectors: Vec::new(),
            schedule_seed: None,
        }
    }

    /// The standard four-family stack the stealth arena runs:
    ///
    /// * block-granular integrity checksums at
    ///   [`STANDARD_GRANULARITIES`], each auditing one eighth of its
    ///   blocks per pass (at least one) — the granularity sweep that
    ///   makes ℓ0 evasion measurable;
    /// * the held-out [`AccuracyProbe`] at `accuracy_threshold`;
    /// * the [`DriftDetector`] at `drift_threshold` reference standard
    ///   deviations;
    /// * the [`RowCode::Parity`] [`RowCodeDetector`] over `geometry`.
    ///
    /// `probe`/`probe_labels` must be disjoint from any attack working
    /// set (`Dataset::split_probe` guarantees this by construction).
    pub fn standard(
        reference: &FcHead,
        probe: &FeatureCache,
        probe_labels: &[usize],
        geometry: DramGeometry,
        accuracy_threshold: f32,
        drift_threshold: f32,
    ) -> Self {
        let mut suite = Self::new();
        for g in STANDARD_GRANULARITIES {
            let blocks = reference.param_count().div_ceil(g);
            suite.push(Box::new(ChecksumDetector::new(
                reference,
                g,
                (blocks / 8).max(1),
            )));
        }
        suite.push(Box::new(AccuracyProbe::new(
            reference,
            probe.clone(),
            probe_labels.to_vec(),
            accuracy_threshold,
        )));
        suite.push(Box::new(DriftDetector::new(
            reference,
            probe.clone(),
            drift_threshold,
        )));
        suite.push(Box::new(RowCodeDetector::new(
            RowCode::Parity,
            reference,
            geometry,
        )));
        suite
    }

    /// The re-armed stack: every monitor breaks one assumption the
    /// detector-aware stealth attacker relies on.
    ///
    /// * [`ChecksumDetector::rotating`] auditors at
    ///   [`STANDARD_GRANULARITIES`],
    ///   [`ROTATING_PHASES`](crate::checksum::ROTATING_PHASES) seeded
    ///   block phases each, auditing one quarter of their blocks per
    ///   pass (at least one) — the fixed 0-offset partition the attacker
    ///   co-locates against is no longer the partition being audited;
    /// * the held-out [`AccuracyProbe`] at `accuracy_threshold`
    ///   (unchanged — it was never the evaded channel);
    /// * the [`DriftDetector`] on the deployed probe at
    ///   `drift_threshold`, **plus** a `holdout_drift` monitor on
    ///   `holdout_probe` at `holdout_drift_threshold` — a probe split
    ///   the attacker's drift-budget wall was never tuned against;
    /// * a [`RowCodeDetector`] for every [`RowCode`] over `geometry`:
    ///   per-row XOR parity, column parity, and row CRC — parity-even
    ///   flip padding cancels in the first but not the other two.
    ///
    /// Per-granularity schedule seeds are forked from `schedule_seed`
    /// (`Prng::new(seed).fork(g)`), so one seed pins the whole suite;
    /// equal seeds give bit-identical suites and the seed is recorded
    /// in [`DefenseSuite::schedule_seed`] for arena fingerprinting.
    #[allow(clippy::too_many_arguments)]
    pub fn randomized(
        reference: &FcHead,
        probe: &FeatureCache,
        probe_labels: &[usize],
        holdout_probe: &FeatureCache,
        geometry: DramGeometry,
        accuracy_threshold: f32,
        drift_threshold: f32,
        holdout_drift_threshold: f32,
        schedule_seed: u64,
    ) -> Self {
        let mut suite = Self::new();
        for g in STANDARD_GRANULARITIES {
            let blocks = reference.param_count().div_ceil(g);
            let seed = Prng::new(schedule_seed).fork(g as u64).next_u64();
            suite.push(Box::new(ChecksumDetector::rotating(
                reference,
                g,
                (blocks / 4).max(1),
                seed,
            )));
        }
        suite.push(Box::new(AccuracyProbe::new(
            reference,
            probe.clone(),
            probe_labels.to_vec(),
            accuracy_threshold,
        )));
        suite.push(Box::new(DriftDetector::new(
            reference,
            probe.clone(),
            drift_threshold,
        )));
        suite.push(Box::new(DriftDetector::named(
            "holdout_drift",
            reference,
            holdout_probe.clone(),
            holdout_drift_threshold,
        )));
        for code in [RowCode::Parity, RowCode::Column, RowCode::Crc] {
            suite.push(Box::new(RowCodeDetector::new(code, reference, geometry)));
        }
        suite.schedule_seed = Some(schedule_seed);
        suite
    }

    /// The audit-schedule seed, if this suite carries seeded randomized
    /// monitors.
    pub fn schedule_seed(&self) -> Option<u64> {
        self.schedule_seed
    }

    /// Appends a detector.
    ///
    /// # Panics
    ///
    /// Panics if a detector with the same name is already present.
    pub fn push(&mut self, detector: Box<dyn Detector>) {
        let name = detector.name();
        assert!(
            self.detectors.iter().all(|d| d.name() != name),
            "duplicate detector name {name:?}"
        );
        self.detectors.push(detector);
    }

    /// Number of detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Detector names, in evaluation order.
    pub fn names(&self) -> Vec<String> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Evaluates every detector against the (possibly attacked) head,
    /// in order.
    ///
    /// With telemetry enabled each detector cell gets its own span
    /// (named after the detector), so the profile tree attributes arena
    /// time detector by detector.
    pub fn evaluate(&self, head: &FcHead) -> Vec<Verdict> {
        self.detectors
            .iter()
            .map(|d| {
                let _cell = if fsa_telemetry::enabled() {
                    Some(fsa_telemetry::span(&d.name()))
                } else {
                    None
                };
                d.evaluate(head)
            })
            .collect()
    }
}

impl Default for DefenseSuite {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DefenseSuite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DefenseSuite")
            .field("detectors", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::{Prng, Tensor};

    fn fixture() -> (FcHead, FeatureCache, Vec<usize>) {
        let mut rng = Prng::new(41);
        let head = FcHead::from_dims(&[6, 12, 4], &mut rng);
        let x = Tensor::randn(&[24, 6], 1.0, &mut rng);
        let labels = head.predict(&x);
        (head, FeatureCache::from_features(x), labels)
    }

    #[test]
    fn standard_suite_has_all_four_families() {
        let (head, probe, labels) = fixture();
        let suite =
            DefenseSuite::standard(&head, &probe, &labels, DramGeometry::default(), 0.02, 0.25);
        let names = suite.names();
        assert_eq!(names.len(), STANDARD_GRANULARITIES.len() + 3);
        assert!(names.iter().any(|n| n.starts_with("checksum_g16")));
        assert!(names.iter().any(|n| n.starts_with("checksum_g256")));
        assert!(names.contains(&"accuracy_probe".to_string()));
        assert!(names.contains(&"activation_drift".to_string()));
        assert!(names.contains(&"dram_parity".to_string()));
    }

    #[test]
    fn clean_model_passes_every_detector() {
        let (head, probe, labels) = fixture();
        let suite =
            DefenseSuite::standard(&head, &probe, &labels, DramGeometry::default(), 0.02, 0.25);
        let verdicts = suite.evaluate(&head);
        assert_eq!(verdicts.len(), suite.len());
        for v in &verdicts {
            assert!(!v.detected, "clean model tripped {}", v.detector);
            assert_eq!(v.score, 0.0, "{} scored a clean model", v.detector);
        }
    }

    #[test]
    fn randomized_suite_deploys_the_rearmed_families() {
        let (head, probe, labels) = fixture();
        let mut rng = Prng::new(271);
        let holdout = FeatureCache::from_features(Tensor::randn(&[16, 6], 1.0, &mut rng));
        let suite = DefenseSuite::randomized(
            &head,
            &probe,
            &labels,
            &holdout,
            DramGeometry::default(),
            0.02,
            0.25,
            0.25,
            0xA0D1,
        );
        assert_eq!(suite.schedule_seed(), Some(0xA0D1));
        let names = suite.names();
        assert_eq!(names.len(), STANDARD_GRANULARITIES.len() + 6);
        assert!(names.iter().any(|n| n.starts_with("rot_checksum_g16_")));
        assert!(names.iter().any(|n| n.starts_with("rot_checksum_g256_")));
        assert!(names.contains(&"holdout_drift".to_string()));
        assert!(names.contains(&"dram_column_parity".to_string()));
        assert!(names.contains(&"dram_row_crc".to_string()));
        // Clean model passes the whole stack; equal seeds rebuild the
        // identical suite (same names, bit-identical clean verdicts).
        let verdicts = suite.evaluate(&head);
        for v in &verdicts {
            assert!(!v.detected, "clean model tripped {}", v.detector);
        }
        let again = DefenseSuite::randomized(
            &head,
            &probe,
            &labels,
            &holdout,
            DramGeometry::default(),
            0.02,
            0.25,
            0.25,
            0xA0D1,
        );
        assert_eq!(again.names(), names);
        let verdicts2 = again.evaluate(&head);
        assert_eq!(verdicts, verdicts2);
        // A different seed is a visibly different suite.
        let other = DefenseSuite::randomized(
            &head,
            &probe,
            &labels,
            &holdout,
            DramGeometry::default(),
            0.02,
            0.25,
            0.25,
            0xA0D2,
        );
        assert_ne!(other.names(), names);
        assert!(DefenseSuite::standard(
            &head,
            &probe,
            &labels,
            DramGeometry::default(),
            0.02,
            0.25
        )
        .schedule_seed()
        .is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate detector name")]
    fn duplicate_names_rejected() {
        let (head, probe, labels) = fixture();
        let mut suite = DefenseSuite::new();
        suite.push(Box::new(AccuracyProbe::new(
            &head,
            probe.clone(),
            labels.clone(),
            0.02,
        )));
        suite.push(Box::new(AccuracyProbe::new(&head, probe, labels, 0.05)));
    }
}
