//! Quantized int8 backend benchmark — the PR 5 bench artifact.
//!
//! Runs the full attack-vs-defense pipeline in **both precisions** over
//! one victim and one scenario matrix:
//!
//! * quantizes the trained head post-training (per-tensor symmetric
//!   int8) and measures the accuracy cost of quantization itself;
//! * sweeps the fault sneaking attack and the ICCAD'17 SBA/GDA
//!   baselines over the same campaign grid under `Precision::F32` and
//!   `Precision::Int8` — the int8 row projects every optimized δ onto
//!   the representable grid and re-measures success and keep-set
//!   survival under the i8×i8→i32 inference path;
//! * scores each precision row against its own calibrated
//!   [`fsa_defense::DefenseSuite`] (the int8 arena binds the
//!   *dequantized* clean quantized head — the deployed artifact);
//! * compiles the int8 FSA δs into byte-level fault plans
//!   ([`fsa_memfault::quant::QuantFaultPlan`]): modified bytes, bit
//!   flips, DRAM rows touched under a byte-granular layout, and
//!   parity-evading rows;
//! * verifies the whole quantized pipeline is **bit-identical** serial
//!   vs concurrent at `FSA_THREADS` = 1, 2, 3, 8, and asserts the §5.4
//!   separation (FSA evades the accuracy probe; SBA and GDA trip it)
//!   holds in the **Int8** precision row.
//!
//! Emits `BENCH_PR5.json` at the workspace root.
//!
//! Run: `cargo run --release -p fsa-bench --bin quant`
//! CI smoke: `cargo run -p fsa-bench --bin quant -- --smoke`

use fsa_attack::campaign::{AttackMethod, Campaign, CampaignReport, CampaignSpec, SparsityBudget};
use fsa_attack::{AttackConfig, ParamSelection, Precision, QuantizedSelection};
use fsa_baselines::{GdaMethod, SbaMethod};
use fsa_bench::fixture;
use fsa_defense::{ArenaReport, DefenseSuite, StealthArena};
use fsa_memfault::dram::ParamLayout;
use fsa_memfault::quant::QuantFaultPlan;
use fsa_memfault::DramGeometry;
use fsa_nn::head::FcHead;
use fsa_nn::quant::QuantizedHead;
use fsa_nn::FeatureCache;
use fsa_tensor::{parallel, Prng};
use std::path::PathBuf;
use std::time::Instant;

/// One precision row: three campaigns (fsa/sba/gda) over `spec`, each
/// scored by that precision's arena. Fixed method order.
fn run_precision(
    campaign: &Campaign<'_>,
    arena: &StealthArena<'_>,
    spec: &CampaignSpec,
    methods: &[&dyn AttackMethod],
) -> Vec<(CampaignReport, ArenaReport)> {
    methods
        .iter()
        .map(|m| {
            let report = campaign.run_method(spec, *m);
            let scored = arena.score_report(&report);
            (report, scored)
        })
        .collect()
}

/// Detection-rate JSON cells for one arena report.
fn rate_cells(scored: &ArenaReport, detector_names: &[String]) -> String {
    detector_names
        .iter()
        .enumerate()
        .map(|(c, n)| format!("\"{n}\": {:.4}", scored.detection_rate(c)))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let traced = fsa_bench::trace::arm_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== quantized int8 backend bench (host cores: {host_cores}{}) ==",
        if smoke { ", smoke" } else { "" }
    );

    let mut rng = Prng::new(0xDAC5);
    let (model, dataset) = fixture::stealth_victim(&mut rng);

    // Deterministic probe split, as in the arena bin.
    let (probe_ds, pool_ds) = dataset.split_probe(0xA11CE, 60);
    let probe_cache = FeatureCache::build(&model, &probe_ds.images);
    let pool_cache = FeatureCache::build(&model, &pool_ds.images);

    // Quantize the deployed head; the dequantized view is the int8
    // pipeline's clean reference model.
    let qclean = QuantizedHead::quantize(&model.head);
    let deq: FcHead = qclean.dequantized_head();
    let pool_features = pool_cache.features();
    let f32_pool_acc = model.head.accuracy(pool_features, &pool_ds.labels);
    let int8_pool_acc = qclean.accuracy(pool_features, &pool_ds.labels);
    let quant_drop = f32_pool_acc - int8_pool_acc;
    println!(
        "quantization: pool accuracy f32 {f32_pool_acc:.4} -> int8 {int8_pool_acc:.4} \
         (drop {quant_drop:.4})"
    );
    assert!(
        quant_drop.abs() <= 0.05,
        "post-training quantization cost {quant_drop} accuracy — victim unfit for the comparison"
    );

    let geometry = DramGeometry {
        banks: 4,
        rows_per_bank: 4096,
        row_bytes: 256,
    };
    let selection = ParamSelection::last_layer(&model.head);

    // Per-precision arenas: each precision's suite calibrates on its own
    // clean deployed model.
    let f32_suite = DefenseSuite::standard(
        &model.head,
        &probe_cache,
        &probe_ds.labels,
        geometry,
        0.25,
        0.75,
    );
    let int8_suite =
        DefenseSuite::standard(&deq, &probe_cache, &probe_ds.labels, geometry, 0.25, 0.75);
    let detector_names = f32_suite.names();
    let f32_arena = StealthArena::new(&model.head, selection.clone(), f32_suite);
    let int8_arena =
        StealthArena::new(&deq, selection.clone(), int8_suite).with_precision(Precision::Int8);

    let campaign = Campaign::new(
        &model.head,
        selection.clone(),
        pool_cache,
        pool_ds.labels.clone(),
    );

    let base_spec = if smoke {
        CampaignSpec::grid(vec![1], vec![8, 16])
            .with_config(AttackConfig {
                iterations: 60,
                ..AttackConfig::default()
            })
            .with_weights(40.0, 1.0)
    } else {
        // S = 4 with real keep sets: enough simultaneous faults that the
        // keep-set-free baselines lose the probe on every scenario (at
        // S = 2 their collateral stays under the alarm threshold), while
        // staying within the attack's post-projection capability — the
        // arena bin's S = 6 cells sit at the capability edge where grid
        // rounding flips marginal faults, which the artifact is meant to
        // measure via per-scenario success, not to assert away.
        CampaignSpec::grid(vec![4], vec![128, 256])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_config(AttackConfig {
                iterations: 500,
                ..AttackConfig::default()
            })
            .with_weights(40.0, 1.0)
    };
    let f32_spec = base_spec.clone();
    // The quantization-aware attack step: grid projection perturbs every
    // realized weight by up to half a grid step, so marginal faults (and
    // marginal keeps) can round away. Hardening the hinge margin κ makes
    // the optimizer clear every constraint by more than the projection
    // noise — the int8 row's analogue of the paper's confidence margin.
    let int8_spec = CampaignSpec {
        base: AttackConfig {
            kappa: 2.0,
            ..base_spec.base.clone()
        },
        ..base_spec.clone()
    }
    .with_precision(Precision::Int8);
    let sba_method = SbaMethod::default();
    let gda_method = GdaMethod::default();
    let methods: Vec<&dyn AttackMethod> =
        vec![&fsa_attack::campaign::FsaMethod, &sba_method, &gda_method];
    println!(
        "matrix: {} scenarios × {} methods × {} detectors × 2 precisions",
        base_spec.len(),
        methods.len(),
        detector_names.len()
    );

    // Serial reference for both precision rows.
    parallel::set_threads(1);
    let t_serial = Instant::now();
    let f32_rows = run_precision(&campaign, &f32_arena, &f32_spec, &methods);
    let int8_rows = run_precision(&campaign, &int8_arena, &int8_spec, &methods);
    let serial_ms = t_serial.elapsed().as_secs_f64() * 1e3;
    println!("serial reference (both precisions): {serial_ms:.1} ms");
    for (report, scored) in f32_rows.iter().chain(&int8_rows) {
        println!(
            "  {}/{}: campaign fp {:#018x}, mean success {:.2}, mean keep {:.2}",
            report.method,
            report.precision.name(),
            report.fingerprint(),
            report.mean_success_rate(),
            report.mean_unchanged_rate()
        );
        assert!(
            scored.clean.iter().all(|v| !v.detected),
            "clean model tripped a detector — suite miscalibrated"
        );
    }

    // Bit-identity of the quantized pipeline across thread counts
    // (1 is the reference itself; 2/3/8 must reproduce it exactly).
    let thread_counts: &[usize] = if smoke { &[3] } else { &[2, 3, 8] };
    let mut sweep_lines = vec![format!(
        "{{\"threads\": 1, \"pipeline_ms\": {serial_ms:.3}, \"bit_identical_to_serial\": true}}"
    )];
    for &threads in thread_counts {
        parallel::set_threads(threads);
        let t = Instant::now();
        let got_f32 = run_precision(&campaign, &f32_arena, &f32_spec, &methods);
        let got_int8 = run_precision(&campaign, &int8_arena, &int8_spec, &methods);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        for ((r_ref, a_ref), (r_got, a_got)) in f32_rows
            .iter()
            .chain(&int8_rows)
            .zip(got_f32.iter().chain(&got_int8))
        {
            assert!(
                r_got == r_ref,
                "{}/{} campaign report changed bits at {threads} threads",
                r_ref.method,
                r_ref.precision.name()
            );
            assert!(
                a_got == a_ref,
                "{}/{} arena report changed bits at {threads} threads",
                a_ref.method,
                a_ref.precision.name()
            );
        }
        println!("{threads} threads: {ms:.1} ms (bit-identical to serial)");
        sweep_lines.push(format!(
            "{{\"threads\": {threads}, \"pipeline_ms\": {ms:.3}, \"bit_identical_to_serial\": true}}"
        ));
    }
    parallel::set_threads(0);

    // Byte-level fault plans for the int8 FSA row: what the realized δs
    // cost in storage terms. The int8 region is the weight bytes; the
    // handful of f32 bias words a δ touches are counted separately.
    let qsel = QuantizedSelection::gather(&qclean, &selection);
    let byte_layout = ParamLayout::with_word_bytes(geometry, 0, qsel.weight_bytes(), 1);
    let fsa_int8 = &int8_rows[0].0;
    let mut plan_lines = Vec::new();
    let (mut tot_bytes, mut tot_flips, mut tot_rows, mut tot_evading) = (0u64, 0u64, 0u64, 0u64);
    for o in &fsa_int8.outcomes {
        let (q_new, realized) = qsel.project(&o.result.delta);
        let plan = QuantFaultPlan::compile(qsel.q0(), &q_new);
        let bias_words = realized
            .iter()
            .enumerate()
            .filter(|&(i, &r)| qsel.byte_index(i).is_none() && r != 0.0)
            .count();
        let rows = plan.rows_touched(&byte_layout);
        let evading = plan.parity_evading_rows(&byte_layout).len();
        tot_bytes += plan.words() as u64;
        tot_flips += plan.total_bit_flips;
        tot_rows += rows as u64;
        tot_evading += evading as u64;
        plan_lines.push(format!(
            "{{\"scenario\": {}, \"modified_bytes\": {}, \"bit_flips\": {}, \
             \"bits_per_byte\": {:.3}, \"dram_rows\": {rows}, \
             \"parity_evading_rows\": {evading}, \"f32_bias_words\": {bias_words}}}",
            o.scenario.index,
            plan.words(),
            plan.total_bit_flips,
            plan.bits_per_word(),
        ));
    }
    let n_sc = fsa_int8.outcomes.len().max(1) as f64;
    println!(
        "int8 fsa plans: mean {:.1} bytes, {:.1} flips, {:.1} rows ({:.1} parity-evading) per scenario",
        tot_bytes as f64 / n_sc,
        tot_flips as f64 / n_sc,
        tot_rows as f64 / n_sc,
        tot_evading as f64 / n_sc
    );

    // Detection rates per precision row.
    println!("\ndetection rates (precision × method × detector):");
    let mut method_lines = Vec::new();
    for (report, scored) in f32_rows.iter().chain(&int8_rows) {
        let rates: Vec<f64> = (0..detector_names.len())
            .map(|c| scored.detection_rate(c))
            .collect();
        println!(
            "  {}/{:<4} {:?}",
            report.precision.name(),
            report.method,
            rates
        );
        method_lines.push(format!(
            "{{\"method\": \"{}\", \"precision\": \"{}\", \
             \"mean_success_rate\": {:.4}, \"mean_unchanged_rate\": {:.4}, \
             \"mean_l0\": {:.2}, \"campaign_fingerprint\": \"{:#018x}\", \
             \"arena_fingerprint\": \"{:#018x}\", \"detection_rates\": {{{}}}}}",
            report.method,
            report.precision.name(),
            report.mean_success_rate(),
            report.mean_unchanged_rate(),
            report.mean_l0(),
            report.fingerprint(),
            scored.fingerprint(),
            rate_cells(scored, &detector_names)
        ));
    }

    // Keep-set survival of the projected δ — the headline quantization
    // question: does grid projection break the faults or the stealth?
    // Measured *relative to the f32 row*: projection is a real physical
    // constraint (marginal faults can round away), so the assertion is
    // that the quantized row stays within a small margin of the f32
    // row, with per-scenario numbers in the artifact for the rest.
    let fsa_f32_success = f32_rows[0].0.mean_success_rate();
    let fsa_int8_success = fsa_int8.mean_success_rate();
    assert!(
        fsa_int8_success >= (fsa_f32_success - 0.15).max(0.8),
        "FSA faults did not survive int8 projection \
         ({fsa_int8_success} vs f32 {fsa_f32_success})"
    );
    let keep_survival = fsa_int8.mean_unchanged_rate();
    let f32_keep = f32_rows[0].0.mean_unchanged_rate();
    println!(
        "\nint8 fsa keep-set survival after projection: {keep_survival:.4} (f32 row: {f32_keep:.4})"
    );

    if smoke {
        println!(
            "\nsmoke quant OK: {} scenarios × {} methods × 2 precisions bit-identical \
             across thread counts",
            base_spec.len(),
            methods.len()
        );
        fsa_bench::trace::finish(traced, "quant");
        return;
    }
    assert!(
        keep_survival >= f32_keep - 0.05,
        "grid projection destroyed keep-set stealth ({keep_survival} vs f32 {f32_keep})"
    );

    // §5.4, asserted in the INT8 row: the fault sneaking attack evades
    // at least one detector configuration that both baselines trip on
    // every scenario — the paper's stealth separation must survive the
    // move to the quantized backend.
    let separators_for = |rows: &[(CampaignReport, ArenaReport)]| -> Vec<String> {
        let (fsa, sba, gda) = (&rows[0].1, &rows[1].1, &rows[2].1);
        detector_names
            .iter()
            .enumerate()
            .filter(|&(c, _)| {
                fsa.detection_rate(c) == 0.0
                    && sba.detection_rate(c) == 1.0
                    && gda.detection_rate(c) == 1.0
            })
            .map(|(_, n)| n.clone())
            .collect()
    };
    let int8_separators = separators_for(&int8_rows);
    let f32_separators = separators_for(&f32_rows);
    println!("separating detectors (f32 row): {f32_separators:?}");
    println!("separating detectors (int8 row): {int8_separators:?}");
    assert!(
        !int8_separators.is_empty(),
        "no detector separates FSA from both baselines in the int8 row — \
         the §5.4 stealth claim does not survive quantization on this victim"
    );

    let json = format!(
        "{{\n  \"pr\": 5,\n  \"host_cores\": {host_cores},\n  \"config\": \"cw_tiny_20px\",\n  \
         \"scenarios\": {},\n  \"methods\": [\"fsa\", \"sba\", \"gda\"],\n  \
         \"precisions\": [\"f32\", \"int8\"],\n  \"detectors\": [{}],\n  \
         \"pool_accuracy_f32\": {f32_pool_acc:.4},\n  \
         \"pool_accuracy_int8\": {int8_pool_acc:.4},\n  \
         \"quantization_accuracy_drop\": {quant_drop:.4},\n  \
         \"int8_fsa_keep_survival\": {keep_survival:.4},\n  \
         \"int8_separating_detectors\": [{}],\n  \
         \"matrix\": [\n    {}\n  ],\n  \
         \"int8_fsa_fault_plans\": [\n    {}\n  ],\n  \
         \"bit_identical_across_thread_counts\": true,\n  \
         \"note\": \"{}\",\n  \"sweep\": [\n    {}\n  ]\n}}\n",
        base_spec.len(),
        detector_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        int8_separators
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        method_lines.join(",\n    "),
        plan_lines.join(",\n    "),
        if host_cores == 1 {
            "single-core host: concurrent dispatch is correctness-verified \
             (bit-identical at every thread count) but cannot beat serial \
             wall-clock; rerun on a multi-core box for real scaling"
        } else {
            "multi-core host: pipeline_ms at each thread count is the \
             attack-level parallel win"
        },
        sweep_lines.join(",\n    ")
    );
    let path: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_PR5.json");
    std::fs::write(&path, &json).expect("failed to write BENCH_PR5.json");
    println!("\nwrote {}", path.display());
    print!("{json}");
    fsa_bench::trace::finish(traced, "quant");
}
