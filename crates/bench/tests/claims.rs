//! The paper's §5.4 claims, asserted on full-size grids.
//!
//! FSA injects its faults, keeps the other images' labels, and stays
//! hidden from detectors that catch the ICCAD'17 baselines. Each test
//! below states one such claim as a threshold on a campaign scored by a
//! calibrated [`DefenseSuite`]:
//!
//! * the arena: some detector never flags FSA yet flags every SBA and
//!   every GDA scenario, with FSA's faults landing;
//! * int8: grid projection keeps FSA's faults and keep set, and the
//!   separation survives in the quantized row;
//! * the detector-aware planner: plain FSA trips the `g16` checksum
//!   audit, and the stealth objective drops it, DRAM parity and the
//!   accuracy probe without costing fault success;
//! * the re-armed suite: a randomized monitor catches those stealth
//!   plans again, while the fixed suite reproduces its recorded bits;
//! * the campaign victims: sweeps land their faults, and a scenario
//!   replayed alone reproduces the campaign's result.
//!
//! Bit-identity of the same pipelines across thread counts is the
//! `*_determinism` tests' job; these tests assert what the numbers say.

use fsa_attack::campaign::{
    AttackMethod, Campaign, CampaignReport, CampaignSpec, FsaMethod, SparsityBudget,
};
use fsa_attack::{
    AttackConfig, AttackSpec, FaultSneakingAttack, GdaMethod, ParamSelection, Precision, SbaMethod,
    StealthObjective,
};
use fsa_bench::exp::assert_sane;
use fsa_bench::fixture;
use fsa_data::Dataset;
use fsa_defense::{ArenaReport, DefenseSuite, StealthArena};
use fsa_memfault::DramGeometry;
use fsa_nn::conv::VolumeDims;
use fsa_nn::cw::CwModel;
use fsa_nn::head::FcHead;
use fsa_nn::quant::QuantizedHead;
use fsa_nn::FeatureCache;
use fsa_tensor::{Prng, Tensor};
use std::sync::OnceLock;

/// The monitored DRAM slice: 64 parameters per row, so the parity
/// monitors see meaningful row granularity on a ~3.5k-parameter head.
const GEOMETRY: DramGeometry = DramGeometry {
    banks: 4,
    rows_per_bank: 4096,
    row_bytes: 256,
};

/// The audit-schedule seed the re-armed suite deploys with.
const AUDIT_SEED: u64 = 0xAD17_5EED;

/// Campaign and fixed-suite arena fingerprints of the four rows of
/// [`fsa_rows`] (plain/f32, stealth/f32, plain/int8, stealth/int8), as
/// recorded when the detector-aware planner landed. A change to the
/// attack, the campaign engine or the standard suite that moves one bit
/// of these rows fails here.
const RECORDED: [(u64, u64); 4] = [
    (0x4017_557c_675f_036a, 0x2afe_478c_d4ee_a775),
    (0x431b_2aea_a74e_ed27, 0x3fcf_8692_24be_b9a2),
    (0x5299_f9d1_248c_7431, 0x0914_43a5_79df_8edd),
    (0xd377_87bd_565c_d977, 0x7ce9_899e_581f_b8aa),
];

/// A trained [`fixture::stealth_victim`] split into the defender's
/// 60-image probe and the attack pool, with its int8 deployment.
struct Victim {
    model: CwModel,
    quantized: QuantizedHead,
    dequantized: FcHead,
    probe: FeatureCache,
    probe_labels: Vec<usize>,
    pool: FeatureCache,
    pool_labels: Vec<usize>,
}

impl Victim {
    fn new(seed: u64) -> Self {
        let mut rng = Prng::new(seed);
        let (model, dataset) = fixture::stealth_victim(&mut rng);
        // Probe and pool are disjoint by construction: detectors
        // calibrate on one, attacks draw working sets from the other.
        let (probe_ds, pool_ds) = dataset.split_probe(0xA11CE, 60);
        let quantized = QuantizedHead::quantize(&model.head);
        Self {
            probe: FeatureCache::build(&model, &probe_ds.images),
            pool: FeatureCache::build(&model, &pool_ds.images),
            dequantized: quantized.dequantized_head(),
            quantized,
            model,
            probe_labels: probe_ds.labels,
            pool_labels: pool_ds.labels,
        }
    }

    /// The deployed head of a precision row: the trained head, or the
    /// dequantized int8 head.
    fn head(&self, precision: Precision) -> &FcHead {
        match precision {
            Precision::F32 => &self.model.head,
            Precision::Int8 => &self.dequantized,
        }
    }

    fn selection(&self) -> ParamSelection {
        ParamSelection::last_layer(&self.model.head)
    }

    fn campaign(&self) -> Campaign<'_> {
        Campaign::new(
            &self.model.head,
            self.selection(),
            self.pool.clone(),
            self.pool_labels.clone(),
        )
    }

    /// The fixed monitor stack calibrated on `precision`'s clean head:
    /// it alarms at 25 points of probe accuracy lost or at 0.75
    /// reference standard deviations of drift.
    fn standard_suite(&self, precision: Precision) -> DefenseSuite {
        DefenseSuite::standard(
            self.head(precision),
            &self.probe,
            &self.probe_labels,
            GEOMETRY,
            0.25,
            0.75,
        )
    }

    /// The re-armed stack: seeded rotating audits, the parity family,
    /// and a drift monitor on a probe the attacker never sees.
    fn randomized_suite(&self, precision: Precision, seed: u64) -> DefenseSuite {
        DefenseSuite::randomized(
            self.head(precision),
            &self.probe,
            &self.probe_labels,
            &holdout_probe(&self.model),
            GEOMETRY,
            0.25,
            0.75,
            0.75,
            seed,
        )
    }

    fn arena(&self, precision: Precision, suite: DefenseSuite) -> StealthArena<'_> {
        StealthArena::new(self.head(precision), self.selection(), suite).with_precision(precision)
    }
}

/// The held-out drift probe: an independent image stream no attack
/// ever draws from, cut by `split_probe` like the deployed one.
fn holdout_probe(model: &CwModel) -> FeatureCache {
    let mut rng = Prng::new(0xC0DE);
    let (images, labels) = fixture::clustered_images(120, 20, 4, fixture::STEALTH_SPREAD, &mut rng);
    let dataset = Dataset::new(images, labels, VolumeDims::new(1, 20, 20), 4);
    let (probe, _) = dataset.split_probe(0x5EC2E7, 60);
    FeatureCache::build(model, &probe.images)
}

/// The paper-style grid: `s_values` simultaneous faults over K ∈ {128,
/// 256} keep images, both sparsity budgets, 500 iterations, and fault
/// terms weighted 40:1 over keep terms. Real keep sets are what buy
/// FSA its probe accuracy; several faults at once are what cost the
/// keep-set-free baselines theirs. The int8 row hardens the hinge
/// margin κ to 2 so every constraint clears the grid-projection noise.
fn grid(s_values: Vec<usize>, precision: Precision) -> CampaignSpec {
    let spec = CampaignSpec::grid(s_values, vec![128, 256])
        .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
        .with_config(AttackConfig {
            iterations: 500,
            ..AttackConfig::default()
        })
        .with_weights(40.0, 1.0);
    match precision {
        Precision::F32 => spec,
        Precision::Int8 => CampaignSpec {
            base: AttackConfig {
                kappa: 2.0,
                ..spec.base.clone()
            },
            ..spec
        }
        .with_precision(Precision::Int8),
    }
}

/// The detector-aware objective: co-locate against the finest checksum
/// granularity (16), plan parity-even flips for the monitored geometry,
/// and keep refinement under the drift alarm. The block cap is 5
/// because the `g16` audit samples 17 of ~139 blocks with alarm
/// threshold 0.5, and its hypergeometric detection probability first
/// crosses 0.5 at 6 dirty blocks.
fn stealth_objective() -> StealthObjective {
    StealthObjective::new(16, 0.75, GEOMETRY, 0.5).with_block_cap(5)
}

/// The victim every quant, stealth and co-defense claim attacks.
fn dac5() -> &'static Victim {
    static VICTIM: OnceLock<Victim> = OnceLock::new();
    VICTIM.get_or_init(|| Victim::new(0xDAC5))
}

/// One FSA row of the stealth matrix and its fixed-suite score.
struct Row {
    stealth: bool,
    precision: Precision,
    report: CampaignReport,
    fixed: ArenaReport,
}

/// FSA on the S = 4 grid of [`dac5`], plain and detector-aware, in both
/// precisions, in the order of [`RECORDED`]. Computed once and shared.
fn fsa_rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let victim = dac5();
        let campaign = victim.campaign();
        let mut rows = Vec::new();
        for precision in [Precision::F32, Precision::Int8] {
            let arena = victim.arena(precision, victim.standard_suite(precision));
            for stealth in [false, true] {
                let spec = grid(vec![4], precision).with_stealth(stealth.then(stealth_objective));
                let report = campaign.run_method(&spec, &FsaMethod);
                let fixed = arena.score_report(&report);
                assert_clean_is_silent(&fixed);
                rows.push(Row {
                    stealth,
                    precision,
                    report,
                    fixed,
                });
            }
        }
        rows
    })
}

/// `plain/f32`, `stealth/int8`, ... for failure messages.
fn label(row: &Row) -> String {
    let variant = if row.stealth { "stealth" } else { "plain" };
    format!("{variant}/{}", row.precision.name())
}

/// A suite that alarms on the clean model is miscalibrated, and every
/// rate it reports is meaningless.
fn assert_clean_is_silent(scored: &ArenaReport) {
    assert!(
        scored.clean.iter().all(|v| !v.detected),
        "clean {} model tripped a detector: suite miscalibrated",
        scored.precision.name()
    );
}

/// Column of the detector whose name starts with `prefix`.
fn column(scored: &ArenaReport, prefix: &str) -> usize {
    scored
        .detectors
        .iter()
        .position(|n| n.starts_with(prefix))
        .unwrap_or_else(|| panic!("no detector named {prefix}* in {:?}", scored.detectors))
}

/// Runs `method` over `spec` and scores the campaign.
fn scored(
    campaign: &Campaign<'_>,
    arena: &StealthArena<'_>,
    spec: &CampaignSpec,
    method: &dyn AttackMethod,
) -> (CampaignReport, ArenaReport) {
    let report = campaign.run_method(spec, method);
    let scored = arena.score_report(&report);
    assert_clean_is_silent(&scored);
    (report, scored)
}

/// The detectors that flag no FSA scenario but every SBA and every GDA
/// scenario — the §5.4 separation.
fn separators(fsa: &ArenaReport, sba: &ArenaReport, gda: &ArenaReport) -> Vec<String> {
    (0..fsa.detectors.len())
        .filter(|&c| {
            fsa.detection_rate(c) == 0.0
                && sba.detection_rate(c) == 1.0
                && gda.detection_rate(c) == 1.0
        })
        .map(|c| fsa.detectors[c].clone())
        .collect()
}

/// Every detector's detection rate, for failure messages.
fn rates(scored: &ArenaReport) -> Vec<f64> {
    (0..scored.detectors.len())
        .map(|c| scored.detection_rate(c))
        .collect()
}

#[test]
fn fsa_evades_a_detector_that_both_baselines_trip() {
    let victim = Victim::new(0xDAC4);
    let campaign = victim.campaign();
    let arena = victim.arena(Precision::F32, victim.standard_suite(Precision::F32));
    let spec = grid(vec![4, 6], Precision::F32);
    let (fsa_report, fsa) = scored(&campaign, &arena, &spec, &FsaMethod);
    let (_, sba) = scored(&campaign, &arena, &spec, &SbaMethod);
    let (_, gda) = scored(&campaign, &arena, &spec, &GdaMethod);
    assert!(
        fsa_report.mean_success_rate() > 0.9,
        "FSA faults mostly failed ({}); victim or grid misconfigured",
        fsa_report.mean_success_rate()
    );
    assert!(
        !separators(&fsa, &sba, &gda).is_empty(),
        "no detector separates FSA from both baselines: FSA {:?}, SBA {:?}, GDA {:?}",
        rates(&fsa),
        rates(&sba),
        rates(&gda)
    );
}

#[test]
fn int8_faults_survive_grid_projection_and_keep_the_separation() {
    let victim = dac5();
    let features = victim.pool.features();
    let f32_accuracy = victim.model.head.accuracy(features, &victim.pool_labels);
    let int8_accuracy = victim.quantized.accuracy(features, &victim.pool_labels);
    assert!(
        (f32_accuracy - int8_accuracy).abs() <= 0.05,
        "post-training quantization moved pool accuracy {f32_accuracy} -> {int8_accuracy}"
    );

    let rows = fsa_rows();
    let (f32_fsa, int8_fsa) = (&rows[0].report, &rows[2].report);
    let (f32_success, int8_success) = (f32_fsa.mean_success_rate(), int8_fsa.mean_success_rate());
    assert!(
        int8_success >= (f32_success - 0.15).max(0.8),
        "FSA faults did not survive int8 projection ({int8_success} vs f32 {f32_success})"
    );
    let (f32_keep, int8_keep) = (
        f32_fsa.mean_unchanged_rate(),
        int8_fsa.mean_unchanged_rate(),
    );
    assert!(
        int8_keep >= f32_keep - 0.05,
        "grid projection destroyed keep-set stealth ({int8_keep} vs f32 {f32_keep})"
    );

    let campaign = victim.campaign();
    let arena = victim.arena(Precision::Int8, victim.standard_suite(Precision::Int8));
    let spec = grid(vec![4], Precision::Int8);
    let (_, sba) = scored(&campaign, &arena, &spec, &SbaMethod);
    let (_, gda) = scored(&campaign, &arena, &spec, &GdaMethod);
    let fsa = &rows[2].fixed;
    assert!(
        !separators(fsa, &sba, &gda).is_empty(),
        "no detector separates FSA from both baselines in the int8 row: \
         FSA {:?}, SBA {:?}, GDA {:?}",
        rates(fsa),
        rates(&sba),
        rates(&gda)
    );
}

#[test]
fn stealth_objective_closes_the_fixed_suite_gap() {
    let rows = fsa_rows();
    for pair in rows.chunks(2) {
        let (plain, stealth) = (&pair[0], &pair[1]);
        assert!(!plain.stealth && stealth.stealth && plain.precision == stealth.precision);
        let name = label(plain);
        let g16 = column(&plain.fixed, "checksum_g16");
        // The vulnerability is real on this victim...
        assert!(
            plain.fixed.detection_rate(g16) >= 0.75,
            "{name}: plain FSA no longer trips {}",
            plain.fixed.detectors[g16]
        );
        // ...and the detector-aware plan closes it.
        for (prefix, cap) in [
            ("checksum_g16", 0.25),
            ("dram_parity", 0.25),
            ("accuracy_probe", 0.0),
        ] {
            let rate = stealth.fixed.detection_rate(column(&stealth.fixed, prefix));
            assert!(
                rate <= cap,
                "{}: still caught by {prefix} at {rate} (cap {cap})",
                label(stealth)
            );
        }
        let (ps, ss) = (
            plain.report.mean_success_rate(),
            stealth.report.mean_success_rate(),
        );
        assert!(
            ss >= ps - 0.05,
            "{}: the stealth objective cost too much fault success ({ss} vs plain {ps})",
            label(stealth)
        );
    }
}

#[test]
fn fixed_suite_rows_reproduce_their_recorded_fingerprints() {
    for (row, &(campaign, arena)) in fsa_rows().iter().zip(&RECORDED) {
        assert_eq!(
            row.report.fingerprint(),
            campaign,
            "{}: campaign fingerprint moved",
            label(row)
        );
        assert_eq!(
            row.fixed.fingerprint(),
            arena,
            "{}: fixed-suite arena fingerprint moved",
            label(row)
        );
    }
}

#[test]
fn randomized_suite_recaptures_the_stealth_plans() {
    let victim = dac5();
    let arenas = [Precision::F32, Precision::Int8]
        .map(|p| victim.arena(p, victim.randomized_suite(p, AUDIT_SEED)));
    let names = arenas[0].suite().names();
    assert_eq!(
        names,
        arenas[1].suite().names(),
        "precision must not change the randomized schedule"
    );
    // Monitors only the randomized suite has: the surface the stealth
    // attacker never optimized against.
    let rearmed: Vec<usize> = names
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.starts_with("rot_checksum_")
                || ["holdout_drift", "dram_column_parity", "dram_row_crc"].contains(&n.as_str())
        })
        .map(|(c, _)| c)
        .collect();
    assert!(
        !rearmed.is_empty(),
        "randomized suite has no re-armed monitors"
    );

    for row in fsa_rows() {
        let arena = &arenas[usize::from(row.precision == Precision::Int8)];
        let scored = arena.score_report(&row.report);
        assert_clean_is_silent(&scored);
        assert_eq!(row.fixed.suite_seed, None, "the fixed suite grew a seed");
        assert_eq!(
            scored.suite_seed,
            Some(AUDIT_SEED),
            "schedule seed lost on the way into the arena report"
        );
        if !row.stealth {
            continue;
        }
        let best = rearmed
            .iter()
            .map(|&c| scored.detection_rate(c))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            best >= 0.9,
            "{}: the re-armed suite failed to catch the stealth plans again \
             (best re-armed rate {best})",
            label(row)
        );
        // The stealth plans must still evade the fixed suite, or the
        // before/after story is vacuous.
        let g16 = row
            .fixed
            .column("checksum_g16_b17")
            .expect("fixed g16 column");
        assert!(
            row.fixed.detection_rate(g16) <= 0.25,
            "{}: the stealth plans stopped evading the fixed suite",
            label(row)
        );
    }

    // The schedule seed is the experiment's identity: the same seed
    // re-scores bit for bit, a different seed is a different matrix.
    let row = &fsa_rows()[1];
    let again = victim
        .arena(
            Precision::F32,
            victim.randomized_suite(Precision::F32, AUDIT_SEED),
        )
        .score_report(&row.report);
    assert!(
        again == arenas[0].score_report(&row.report),
        "re-scoring under the same seed moved bits"
    );
    let other = victim
        .arena(
            Precision::F32,
            victim.randomized_suite(Precision::F32, AUDIT_SEED ^ 1),
        )
        .score_report(&row.report);
    assert_ne!(
        other.fingerprint(),
        again.fingerprint(),
        "a different schedule seed must not collide"
    );
}

#[test]
fn campaign_sweeps_land_their_faults_and_replay_standalone() {
    // The Table-2-style grid at two iteration budgets, each on its own
    // campaign victim.
    for (seed, iterations) in [(0xDAC3, 300), (0xDAC6, 150)] {
        let mut rng = Prng::new(seed);
        let (model, images, labels) = fixture::campaign_victim(&mut rng);
        let selection = ParamSelection::last_layer(&model.head);
        let cache = FeatureCache::build(&model, &images);
        let campaign = Campaign::new(&model.head, selection.clone(), cache, labels);
        let spec = CampaignSpec::grid(vec![1, 2], vec![0, 4, 8])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_config(AttackConfig {
                iterations,
                ..AttackConfig::default()
            });
        assert_eq!(spec.len(), 12);
        let report = campaign.run(&spec);
        let dim = selection.dim(&model.head);
        for outcome in &report.outcomes {
            let context = format!("{seed:#x} scenario {}", outcome.scenario.index);
            assert_sane(&outcome.result, dim, &context);
        }
        assert!(
            report.mean_success_rate() > 0.9,
            "{seed:#x}: campaign attacks mostly failed ({})",
            report.mean_success_rate()
        );
        if seed != 0xDAC3 {
            continue;
        }

        // The shared cache is exactly the conv pipeline's output: a
        // working set re-extracted image by image has the same bits.
        let scenarios = spec.scenarios();
        for sc in &scenarios {
            let draw = campaign.scenario_draw(sc);
            let mut working = Tensor::zeros(&[draw.rows.len(), images.shape()[1]]);
            for (r, &i) in draw.rows.iter().enumerate() {
                working.row_mut(r).copy_from_slice(images.row(i));
            }
            let direct =
                AttackSpec::new(model.extract_features(&working), draw.labels, draw.targets);
            let cached = campaign.scenario_spec(sc, spec.c_attack, spec.c_keep);
            assert!(
                direct.features == cached.features,
                "scenario {}: cached features diverged from direct extraction",
                sc.index
            );
        }

        // Scenario 0 replayed as a standalone attack reproduces the
        // campaign's stored result.
        let sc0 = &scenarios[0];
        let standalone = FaultSneakingAttack::new(
            &model.head,
            selection,
            AttackConfig {
                norm: sc0.budget.norm,
                lambda: sc0.budget.lambda,
                ..spec.base.clone()
            },
        )
        .run(&campaign.scenario_spec(sc0, spec.c_attack, spec.c_keep));
        assert!(
            standalone == report.outcomes[0].result,
            "standalone replay of scenario 0 diverged from the campaign report"
        );
    }
}
