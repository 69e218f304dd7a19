//! The attack-vs-defense stealth arena.
//!
//! The paper asserts stealth; the arena *measures* it. A
//! [`StealthArena`] binds the clean reference model, the campaign's
//! parameter selection, and a calibrated [`DefenseSuite`]; scoring a
//! [`CampaignReport`] reconstructs every scenario's attacked model
//! (`θ_sel + δ`) and runs the full detector stack against it, yielding
//! the **attack × detector matrix**: one [`Verdict`] per (scenario,
//! detector) cell, plus the clean model's row as the false-positive
//! reference and per-detector threshold sweeps ([`ArenaReport::roc_points`]).
//!
//! Scenario scoring dispatches through
//! [`fsa_tensor::parallel::par_map`] — the same deterministic
//! item-ordered primitive the campaign engine uses — and every detector
//! score is a pure fixed-order function of bit-deterministic model
//! outputs, so the whole [`ArenaReport`] is **bit-identical** serial vs
//! concurrent at any `FSA_THREADS` (`tests/arena_determinism.rs`).
//!
//! Because [`fsa_attack::campaign::Campaign::run_method`] sweeps the fault sneaking attack
//! and the SBA/GDA baselines over the *same* matrix, arena reports for
//! the three methods are cell-aligned: the §5.4 comparison is literally
//! `fsa_report.detection_rate(d) < gda_report.detection_rate(d)` on the
//! accuracy-probe column.

use crate::detector::{detect_at, Verdict};
use crate::suite::DefenseSuite;
use fsa_attack::campaign::{CampaignReport, Scenario};
use fsa_attack::eval::attacked_head;
use fsa_attack::{ParamSelection, Precision};
use fsa_nn::head::FcHead;
use fsa_tensor::parallel;

/// One scenario's row of the attack×detector matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaRow {
    /// The campaign scenario this row scores.
    pub scenario: Scenario,
    /// One verdict per suite detector, in suite order.
    pub verdicts: Vec<Verdict>,
}

/// One point of a per-detector threshold sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RocPoint {
    /// Decision threshold (detection rule: `score >= threshold`, ties
    /// alarm).
    pub threshold: f32,
    /// Fraction of attacked scenarios detected at this threshold.
    pub true_positive_rate: f64,
    /// Whether the clean model also alarms here (the suite's
    /// false-positive reference — a threshold where this is `true` is
    /// useless regardless of its TPR).
    pub clean_alarm: bool,
}

/// The scored attack×detector matrix for one campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct ArenaReport {
    /// Attack method the scored campaign ran (`"fsa"`, `"sba"`, …).
    pub method: String,
    /// Storage format the scored campaign attacked (copied from the
    /// campaign report). For [`Precision::Int8`] the arena must be
    /// bound to the *dequantized clean quantized head* so the suite's
    /// calibration matches the deployed artifact — see
    /// [`StealthArena::new`].
    pub precision: Precision,
    /// Detector names — the matrix columns, in suite order.
    pub detectors: Vec<String>,
    /// The suite's audit-schedule seed when it carried seeded
    /// randomized monitors ([`DefenseSuite::randomized`]); `None` for
    /// fixed suites. The clean row and every attack row of one report
    /// are always scored under this **same** schedule — randomized
    /// detectors keep a well-defined ROC because clean and attacked
    /// scores share one partition family.
    pub suite_seed: Option<u64>,
    /// The clean reference model's verdicts (false-positive reference).
    pub clean: Vec<Verdict>,
    /// Per-scenario rows, index-aligned with the campaign report.
    pub rows: Vec<ArenaRow>,
}

impl ArenaReport {
    /// Number of scenario rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Column index of a detector by name.
    pub fn column(&self, detector: &str) -> Option<usize> {
        self.detectors.iter().position(|d| d == detector)
    }

    /// Fraction of scenarios detector column `col` detected at its
    /// default threshold (0 for an empty matrix).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn detection_rate(&self, col: usize) -> f64 {
        assert!(col < self.detectors.len(), "detector column out of range");
        if self.rows.is_empty() {
            return 0.0;
        }
        let hits = self
            .rows
            .iter()
            .filter(|r| r.verdicts[col].detected)
            .count();
        hits as f64 / self.rows.len() as f64
    }

    /// All scenario scores of one detector column, in row order.
    pub fn scores(&self, col: usize) -> Vec<f32> {
        self.rows.iter().map(|r| r.verdicts[col].score).collect()
    }

    /// The threshold sweep of one detector column: every distinct
    /// observed score (clean model included) as a cut point, ascending,
    /// with the true-positive rate and the clean model's alarm state at
    /// each. Ties use the global rule (`score >= threshold` alarms).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn roc_points(&self, col: usize) -> Vec<RocPoint> {
        assert!(col < self.detectors.len(), "detector column out of range");
        let clean_score = self.clean[col].score;
        let mut cuts: Vec<f32> = self.scores(col);
        cuts.push(clean_score);
        cuts.sort_by(f32::total_cmp);
        cuts.dedup_by(|a, b| a.to_bits() == b.to_bits());
        cuts.into_iter()
            .map(|threshold| {
                let hits = self
                    .rows
                    .iter()
                    .filter(|r| detect_at(r.verdicts[col].score, threshold))
                    .count();
                RocPoint {
                    threshold,
                    true_positive_rate: if self.rows.is_empty() {
                        0.0
                    } else {
                        hits as f64 / self.rows.len() as f64
                    },
                    clean_alarm: detect_at(clean_score, threshold),
                }
            })
            .collect()
    }

    /// Order-sensitive FNV-1a digest of the whole matrix: method,
    /// detector names, clean verdicts, and every cell's score bits and
    /// decision. Equal fingerprints mean — up to hash collision —
    /// identical arena outcomes; handy for cross-process determinism
    /// checks and bench logs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fsa_tensor::hash::Fnv1a::new();
        h.write_bytes(self.method.as_bytes());
        h.write_u64(self.precision.tag());
        // Mixed only when present so fixed-suite fingerprints are
        // unchanged from before schedule seeds existed.
        if let Some(seed) = self.suite_seed {
            h.write_bytes(b"suite_seed");
            h.write_u64(seed);
        }
        for d in &self.detectors {
            h.write_bytes(d.as_bytes());
        }
        let mix_verdict = |h: &mut fsa_tensor::hash::Fnv1a, v: &Verdict| {
            h.write_f32_bits(v.score);
            h.write_f32_bits(v.threshold);
            h.write_bytes(&[u8::from(v.detected)]);
        };
        for v in &self.clean {
            mix_verdict(&mut h, v);
        }
        for row in &self.rows {
            h.write_u64(row.scenario.index as u64);
            for v in &row.verdicts {
                mix_verdict(&mut h, v);
            }
        }
        h.finish()
    }
}

/// The arena: one reference model, one selection, one calibrated suite.
#[derive(Debug)]
pub struct StealthArena<'a> {
    reference: &'a FcHead,
    selection: ParamSelection,
    suite: DefenseSuite,
    theta0: Vec<f32>,
    /// Storage format this arena's reference/suite were calibrated for;
    /// [`StealthArena::score_report`] rejects reports of any other
    /// precision.
    precision: Precision,
}

impl<'a> StealthArena<'a> {
    /// Binds the arena. `selection` must be the selection the scored
    /// campaigns ran under (δ vectors are interpreted over its layout).
    ///
    /// `reference` must be the clean deployed model the campaign
    /// attacked: the original `f32` head for [`Precision::F32`]
    /// campaigns, the **dequantized clean quantized head**
    /// ([`fsa_nn::quant::QuantizedHead::dequantized_head`]) for
    /// [`Precision::Int8`] campaigns — and the suite must be calibrated
    /// on that same model, or the clean row will alarm spuriously. An
    /// arena built with `new` scores [`Precision::F32`] reports; bind
    /// an int8 arena with [`StealthArena::with_precision`], and
    /// [`StealthArena::score_report`] rejects mismatched reports.
    ///
    /// # Panics
    ///
    /// Panics if the selection is invalid for the reference head.
    pub fn new(reference: &'a FcHead, selection: ParamSelection, suite: DefenseSuite) -> Self {
        selection.validate(reference);
        let theta0 = selection.gather(reference);
        Self {
            reference,
            selection,
            suite,
            theta0,
            precision: Precision::F32,
        }
    }

    /// Declares which storage format this arena's reference and suite
    /// were calibrated for (default [`Precision::F32`]).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The bound detector suite.
    pub fn suite(&self) -> &DefenseSuite {
        &self.suite
    }

    /// Scores every scenario of a campaign report against the full
    /// suite — the attack×detector matrix.
    ///
    /// Rows dispatch through [`fsa_tensor::parallel::par_map`] exactly
    /// like campaign scenarios (row-level workers, shrinking inner
    /// budgets), and
    /// every cell is a pure function of its scenario's δ, so the report
    /// is bit-identical for any `FSA_THREADS`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsa_attack::campaign::{Campaign, CampaignSpec};
    /// use fsa_attack::{AttackConfig, ParamSelection};
    /// use fsa_defense::checksum::ChecksumDetector;
    /// use fsa_defense::{DefenseSuite, StealthArena};
    /// use fsa_nn::head::FcHead;
    /// use fsa_nn::FeatureCache;
    /// use fsa_tensor::{Prng, Tensor};
    ///
    /// let mut rng = Prng::new(8);
    /// let head = FcHead::from_dims(&[6, 12, 3], &mut rng);
    /// let pool = Tensor::randn(&[12, 6], 1.0, &mut rng);
    /// let labels = head.predict(&pool);
    /// let selection = ParamSelection::last_layer(&head);
    /// let campaign = Campaign::new(
    ///     &head,
    ///     selection.clone(),
    ///     FeatureCache::from_features(pool),
    ///     labels,
    /// );
    /// let report = campaign.run(
    ///     &CampaignSpec::grid(vec![1], vec![2]).with_config(AttackConfig {
    ///         iterations: 40,
    ///         ..AttackConfig::default()
    ///     }),
    /// );
    ///
    /// let mut suite = DefenseSuite::new();
    /// suite.push(Box::new(ChecksumDetector::new(&head, 16, 2)));
    /// let arena = StealthArena::new(&head, selection, suite);
    /// let matrix = arena.score_report(&report);
    /// assert_eq!(matrix.len(), report.len());
    /// // The clean reference row never alarms on a calibrated suite.
    /// assert!(matrix.clean.iter().all(|v| !v.detected));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the report's precision differs from the arena's
    /// ([`StealthArena::with_precision`]) — the reference model and
    /// suite calibration are precision-specific — or if any outcome's δ
    /// length differs from the selection.
    pub fn score_report(&self, report: &CampaignReport) -> ArenaReport {
        assert_eq!(
            report.precision,
            self.precision,
            "arena calibrated for {} cannot score a {} campaign — bind a \
             reference/suite for that precision (see StealthArena::new)",
            self.precision.name(),
            report.precision.name()
        );
        let _span = fsa_telemetry::span("arena");
        let clean = self.suite.evaluate(self.reference);
        let rows = parallel::par_map(report.outcomes.len(), |i| {
            // Per-scenario-row span (gated so the disabled path never
            // formats); detector cells nest under it via the suite.
            let _row = if fsa_telemetry::enabled() {
                fsa_telemetry::counter("arena.rows", 1);
                Some(fsa_telemetry::span(&format!("row#{i:03}")))
            } else {
                None
            };
            let outcome = &report.outcomes[i];
            let attacked = attacked_head(
                self.reference,
                &self.selection,
                &self.theta0,
                &outcome.result.delta,
            );
            ArenaRow {
                scenario: outcome.scenario,
                verdicts: self.suite.evaluate(&attacked),
            }
        });
        ArenaReport {
            method: report.method.clone(),
            precision: report.precision,
            detectors: self.suite.names(),
            suite_seed: self.suite.schedule_seed(),
            clean,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::AccuracyProbe;
    use crate::checksum::ChecksumDetector;
    use fsa_attack::campaign::{Campaign, CampaignSpec};
    use fsa_attack::ParamSelection;
    use fsa_nn::FeatureCache;
    use fsa_tensor::{Prng, Tensor};

    fn fixture() -> (FcHead, FeatureCache, Vec<usize>, FeatureCache, Vec<usize>) {
        let mut rng = Prng::new(47);
        let head = FcHead::from_dims(&[8, 14, 4], &mut rng);
        let pool = Tensor::randn(&[40, 8], 1.5, &mut rng);
        let labels = head.predict(&pool);
        let probe = Tensor::randn(&[24, 8], 1.5, &mut rng);
        let probe_labels = head.predict(&probe);
        (
            head,
            FeatureCache::from_features(pool),
            labels,
            FeatureCache::from_features(probe),
            probe_labels,
        )
    }

    fn small_suite(head: &FcHead, probe: &FeatureCache, probe_labels: &[usize]) -> DefenseSuite {
        let mut suite = DefenseSuite::new();
        suite.push(Box::new(ChecksumDetector::new(head, 16, 2)));
        suite.push(Box::new(AccuracyProbe::new(
            head,
            probe.clone(),
            probe_labels.to_vec(),
            0.02,
        )));
        suite
    }

    #[test]
    fn matrix_is_rows_by_detectors() {
        let (head, cache, labels, probe, probe_labels) = fixture();
        let selection = ParamSelection::last_layer(&head);
        let campaign = Campaign::new(&head, selection.clone(), cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![2, 4]);
        let report = campaign.run(&spec);
        let arena = StealthArena::new(&head, selection, small_suite(&head, &probe, &probe_labels));
        let scored = arena.score_report(&report);
        assert_eq!(scored.method, "fsa");
        assert_eq!(scored.len(), report.len());
        assert_eq!(scored.detectors.len(), 2);
        for (row, outcome) in scored.rows.iter().zip(&report.outcomes) {
            assert_eq!(row.scenario, outcome.scenario);
            assert_eq!(row.verdicts.len(), 2);
        }
        // The clean row never alarms.
        assert!(scored.clean.iter().all(|v| !v.detected));
        // A successful attack modified parameters, so the full-audit
        // fraction of checksum scores must be positive somewhere.
        let col = scored.column("checksum_g16_b2").unwrap();
        assert!(scored.scores(col).iter().any(|&s| s > 0.0));
    }

    #[test]
    fn roc_points_are_monotone_and_tie_consistent() {
        let (head, cache, labels, probe, probe_labels) = fixture();
        let selection = ParamSelection::last_layer(&head);
        let campaign = Campaign::new(&head, selection.clone(), cache, labels);
        let report = campaign.run(&CampaignSpec::grid(vec![1, 2], vec![2]));
        let arena = StealthArena::new(&head, selection, small_suite(&head, &probe, &probe_labels));
        let scored = arena.score_report(&report);
        for col in 0..scored.detectors.len() {
            let points = scored.roc_points(col);
            assert!(!points.is_empty());
            // Ascending thresholds → non-increasing TPR.
            for pair in points.windows(2) {
                assert!(pair[0].threshold < pair[1].threshold);
                assert!(pair[0].true_positive_rate >= pair[1].true_positive_rate);
            }
            // The lowest cut is an observed score, so something alarms
            // there (ties alarm) unless the matrix is all-clean.
            let max_score = scored
                .scores(col)
                .into_iter()
                .fold(f32::NEG_INFINITY, f32::max);
            let last = points.last().unwrap();
            if last.threshold == max_score {
                assert!(last.true_positive_rate > 0.0, "tie at max must alarm");
            }
        }
    }

    #[test]
    fn clean_row_shares_the_attack_rows_schedule_seed() {
        // Satellite: randomized detectors only have a well-defined ROC
        // if the clean (false-positive) row is scored under the *same*
        // audit schedule as the attack rows. The suite carries one seed
        // for the whole matrix; rebuilding with the same seed must give
        // a bit-identical report, clean row included.
        let (head, cache, labels, probe, probe_labels) = fixture();
        let mut rng = Prng::new(991);
        let holdout = FeatureCache::from_features(Tensor::randn(&[12, 8], 1.5, &mut rng));
        let selection = ParamSelection::last_layer(&head);
        let campaign = Campaign::new(&head, selection.clone(), cache, labels);
        let report = campaign.run(&CampaignSpec::grid(vec![1], vec![3]));
        let build = |seed: u64| {
            DefenseSuite::randomized(
                &head,
                &probe,
                &probe_labels,
                &holdout,
                fsa_memfault::dram::DramGeometry::default(),
                0.02,
                0.25,
                0.25,
                seed,
            )
        };
        let scored =
            StealthArena::new(&head, selection.clone(), build(0xD1CE)).score_report(&report);
        assert_eq!(scored.suite_seed, Some(0xD1CE));
        let again =
            StealthArena::new(&head, selection.clone(), build(0xD1CE)).score_report(&report);
        assert_eq!(scored, again, "same seed must give a bit-identical matrix");
        assert_eq!(scored.fingerprint(), again.fingerprint());
        // A different schedule seed is a different matrix (names embed
        // the per-granularity seeds) and a different fingerprint.
        let other = StealthArena::new(&head, selection, build(0xD1CF)).score_report(&report);
        assert_ne!(other.detectors, scored.detectors);
        assert_ne!(other.fingerprint(), scored.fingerprint());
        // Score-at-threshold tie: sweep any rotating column down to the
        // clean row's own score — because clean and attack rows share
        // the schedule, that cut exists in the sweep and the clean
        // model alarms there (ties alarm).
        let col = scored
            .column(&scored.detectors[0])
            .expect("first rotating column");
        let clean_score = scored.clean[col].score;
        let at_clean = scored
            .roc_points(col)
            .into_iter()
            .find(|p| p.threshold.to_bits() == clean_score.to_bits())
            .expect("clean score must be a sweep cut");
        assert!(at_clean.clean_alarm, "tie at the clean score must alarm");
        assert_eq!(at_clean.true_positive_rate, 1.0);
    }

    #[test]
    fn report_equality_and_fingerprint_track_reruns() {
        let (head, cache, labels, probe, probe_labels) = fixture();
        let selection = ParamSelection::last_layer(&head);
        let campaign = Campaign::new(&head, selection.clone(), cache, labels);
        let report = campaign.run(&CampaignSpec::grid(vec![1], vec![3]));
        let arena = StealthArena::new(&head, selection, small_suite(&head, &probe, &probe_labels));
        let a = arena.score_report(&report);
        let b = arena.score_report(&report);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
