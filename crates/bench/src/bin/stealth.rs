//! Detector-aware fault planning benchmark — the PR 7 bench artifact.
//!
//! PR 5's arena showed the fault sneaking attack is *behaviourally*
//! stealthy (keep-set survives, accuracy probe silent) yet **caught** by
//! the deployed integrity monitors: the sampling checksum audit
//! (`checksum_g16_b17`) flagged every scenario and the DRAM parity
//! monitor (`dram_parity`) flagged most. This bench closes the loop: it
//! runs the same attack twice per precision — plain, and under a
//! [`StealthObjective`] that folds the monitors into the optimization
//! (checksum-block co-location in the z-step, parity-even flip
//! planning on the compiled plan, an activation-drift budget during
//! refinement) — and scores both against the same calibrated
//! [`fsa_defense::DefenseSuite`].
//!
//! Asserted outcomes (full run):
//!
//! * the plain rows still document the vulnerability (g16 audit ≥ 0.75);
//! * the detector-aware rows drop `checksum_g16_b17` and `dram_parity`
//!   to ≤ 0.25 while keeping the accuracy probe at 0.0 and mean fault
//!   success within 0.05 of the plain attack;
//! * the whole pipeline is bit-identical at `FSA_THREADS` = 1, 2, 3, 8.
//!
//! Emits `BENCH_PR7.json` at the workspace root.
//!
//! Run: `cargo run --release -p fsa-bench --bin stealth`
//! CI smoke: `cargo run -p fsa-bench --bin stealth -- --smoke`

use fsa_attack::campaign::{Campaign, CampaignReport, CampaignSpec, FsaMethod, SparsityBudget};
use fsa_attack::{AttackConfig, ParamSelection, Precision, QuantizedSelection, StealthObjective};
use fsa_bench::fixture;
use fsa_defense::{ArenaReport, DefenseSuite, StealthArena};
use fsa_memfault::dram::ParamLayout;
use fsa_memfault::parity::{evading_rows, indexed_row_flips};
use fsa_memfault::plan::FaultPlan;
use fsa_memfault::quant::QuantFaultPlan;
use fsa_memfault::DramGeometry;
use fsa_nn::quant::QuantizedHead;
use fsa_nn::FeatureCache;
use fsa_tensor::{parallel, Prng};
use std::path::PathBuf;
use std::time::Instant;

/// One pipeline row: an FSA campaign under `spec`, scored by `arena`.
fn run_row(
    campaign: &Campaign<'_>,
    arena: &StealthArena<'_>,
    spec: &CampaignSpec,
) -> (CampaignReport, ArenaReport) {
    let report = campaign.run_method(spec, &FsaMethod);
    let scored = arena.score_report(&report);
    (report, scored)
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

/// Column index of the detector whose name starts with `prefix`.
fn column_by_prefix(names: &[String], prefix: &str) -> usize {
    names
        .iter()
        .position(|n| n.starts_with(prefix))
        .unwrap_or_else(|| panic!("no detector named {prefix}* in {names:?}"))
}

/// Per-scenario fault-plan observables on the deployed `f32` word
/// surface: dirty `g16` checksum blocks and odd-parity DRAM rows.
fn plan_observables(
    theta0: &[f32],
    delta: &[f32],
    global_indices: &[usize],
    layout: &ParamLayout,
    block_params: usize,
) -> (usize, usize, usize, u64) {
    let plan = FaultPlan::compile(theta0, delta);
    let mut blocks: Vec<usize> = plan
        .changes
        .iter()
        .map(|c| global_indices[c.index] / block_params)
        .collect();
    blocks.dedup();
    blocks.sort_unstable();
    blocks.dedup();
    let flips = indexed_row_flips(
        layout,
        plan.changes
            .iter()
            .map(|c| (global_indices[c.index], c.flipped_bits.len() as u64)),
    );
    let odd = flips.iter().filter(|&&(_, n)| n % 2 == 1).count();
    let even = evading_rows(&flips).len();
    debug_assert_eq!(odd + even, flips.len());
    (blocks.len(), odd, plan.words(), plan.total_bit_flips)
}

fn main() {
    let traced = fsa_bench::trace::arm_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== detector-aware stealth bench (host cores: {host_cores}{}) ==",
        if smoke { ", smoke" } else { "" }
    );

    let mut rng = Prng::new(0xDAC5);
    let (model, dataset) = fixture::stealth_victim(&mut rng);

    // Deterministic probe split, as in the arena and quant bins.
    let (probe_ds, pool_ds) = dataset.split_probe(0xA11CE, 60);
    let probe_cache = FeatureCache::build(&model, &probe_ds.images);
    let pool_cache = FeatureCache::build(&model, &pool_ds.images);

    let qclean = QuantizedHead::quantize(&model.head);
    let deq = qclean.dequantized_head();

    let geometry = DramGeometry {
        banks: 4,
        rows_per_bank: 4096,
        row_bytes: 256,
    };
    let selection = ParamSelection::last_layer(&model.head);
    let global_indices = selection.global_indices(&model.head);
    let word_layout = ParamLayout::new(geometry, 0, model.head.param_count());

    // The deployed monitor stack, calibrated per precision on its own
    // clean model — identical to the PR 5 arena configuration.
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
    let g16_col = column_by_prefix(&detector_names, "checksum_g16");
    let parity_col = column_by_prefix(&detector_names, "dram_parity");
    let probe_col = column_by_prefix(&detector_names, "accuracy_probe");
    let f32_arena = StealthArena::new(&model.head, selection.clone(), f32_suite);
    let int8_arena =
        StealthArena::new(&deq, selection.clone(), int8_suite).with_precision(Precision::Int8);

    let campaign = Campaign::new(
        &model.head,
        selection.clone(),
        pool_cache,
        pool_ds.labels.clone(),
    );

    // The stealth objective mirrors the monitor it evades: co-locate
    // against the finest deployed checksum granularity (16 — coarser
    // blocks are supersets, so concentrating for g16 concentrates for
    // all three), plan parity-even flips for the monitored geometry,
    // and keep refinement under the drift detector's 0.75σ threshold
    // with margin.
    // Block cap 5: the suite's g16 audit samples 17 of ~139 blocks with
    // alarm threshold 0.5, and the exact hypergeometric detection
    // probability first crosses 0.5 at 6 dirty blocks — 5 is the
    // largest budget the audit tolerates.
    let stealth = StealthObjective::new(16, 0.75, geometry, 0.5).with_block_cap(5);

    let base_spec = if smoke {
        CampaignSpec::grid(vec![1], vec![8, 16])
            .with_config(AttackConfig {
                iterations: 60,
                ..AttackConfig::default()
            })
            .with_weights(40.0, 1.0)
    } else {
        // The quant bench grid: S = 4 simultaneous faults over real keep
        // sets, both sparsity budgets.
        CampaignSpec::grid(vec![4], vec![128, 256])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_config(AttackConfig {
                iterations: 500,
                ..AttackConfig::default()
            })
            .with_weights(40.0, 1.0)
    };
    // Int8 rows harden the hinge margin against grid-projection noise,
    // exactly as the quant bench does.
    let int8_base = CampaignSpec {
        base: AttackConfig {
            kappa: 2.0,
            ..base_spec.base.clone()
        },
        ..base_spec.clone()
    }
    .with_precision(Precision::Int8);
    let specs: Vec<(&str, Precision, CampaignSpec)> = vec![
        ("plain", Precision::F32, base_spec.clone()),
        (
            "stealth",
            Precision::F32,
            base_spec.clone().with_stealth(Some(stealth)),
        ),
        ("plain", Precision::Int8, int8_base.clone()),
        (
            "stealth",
            Precision::Int8,
            int8_base.clone().with_stealth(Some(stealth)),
        ),
    ];
    println!(
        "matrix: {} scenarios × {} variants × {} detectors",
        base_spec.len(),
        specs.len(),
        detector_names.len()
    );

    let run_all =
        |specs: &[(&str, Precision, CampaignSpec)]| -> Vec<(CampaignReport, ArenaReport)> {
            specs
                .iter()
                .map(|(_, p, spec)| match p {
                    Precision::F32 => run_row(&campaign, &f32_arena, spec),
                    Precision::Int8 => run_row(&campaign, &int8_arena, spec),
                })
                .collect()
        };

    // Serial reference.
    parallel::set_threads(1);
    let t_serial = Instant::now();
    let rows = run_all(&specs);
    let serial_ms = t_serial.elapsed().as_secs_f64() * 1e3;
    println!("serial reference (4 rows): {serial_ms:.1} ms");
    for ((label, p, _), (report, scored)) in specs.iter().zip(&rows) {
        println!(
            "  {label}/{}: fp {:#018x}, mean success {:.2}, mean keep {:.2}",
            p.name(),
            report.fingerprint(),
            report.mean_success_rate(),
            report.mean_unchanged_rate()
        );
        assert!(
            scored.clean.iter().all(|v| !v.detected),
            "clean model tripped a detector — suite miscalibrated"
        );
    }

    // Bit-identity across thread counts (1 is the reference itself).
    let thread_counts: &[usize] = if smoke { &[3] } else { &[2, 3, 8] };
    let mut sweep_lines = vec![format!(
        "{{\"threads\": 1, \"pipeline_ms\": {serial_ms:.3}, \"bit_identical_to_serial\": true}}"
    )];
    for &threads in thread_counts {
        parallel::set_threads(threads);
        let t = Instant::now();
        let got = run_all(&specs);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        for (((label, p, _), (r_ref, a_ref)), (r_got, a_got)) in specs.iter().zip(&rows).zip(&got) {
            assert!(
                r_got == r_ref,
                "{label}/{} campaign report changed bits at {threads} threads",
                p.name()
            );
            assert!(
                a_got == a_ref,
                "{label}/{} arena report changed bits at {threads} threads",
                p.name()
            );
        }
        println!("{threads} threads: {ms:.1} ms (bit-identical to serial)");
        sweep_lines.push(format!(
            "{{\"threads\": {threads}, \"pipeline_ms\": {ms:.3}, \"bit_identical_to_serial\": true}}"
        ));
    }
    parallel::set_threads(0);

    // Plan observables on the deployed f32 word surface: what each row's
    // compiled plans look like to the monitors.
    let theta0 = selection.gather(&model.head);
    let deq_theta0 = selection.gather(&deq);
    let qsel = QuantizedSelection::gather(&qclean, &selection);
    // The int8 byte-surface audit counts weight-byte blocks AND the f32
    // bias words a plan touches (their byte addresses follow the weight
    // region), so bias-only plans cannot hide from the block audit.
    let bias_word_bytes: Vec<usize> = (0..qsel.dim())
        .filter(|&i| qsel.byte_index(i).is_none())
        .enumerate()
        .map(|(k, _)| qsel.weight_bytes() + 4 * k)
        .collect();
    let mut plan_lines = Vec::new();
    for ((label, p, _), (report, _)) in specs.iter().zip(&rows) {
        let t0 = match p {
            Precision::F32 => &theta0,
            Precision::Int8 => &deq_theta0,
        };
        for o in &report.outcomes {
            let (dirty_g16, odd_rows, words, flips) =
                plan_observables(t0, &o.result.delta, &global_indices, &word_layout, 16);
            let byte_stats = match p {
                Precision::F32 => String::new(),
                Precision::Int8 => {
                    let (q_new, _) = qsel.project(&o.result.delta);
                    let qplan = QuantFaultPlan::compile(qsel.q0(), &q_new);
                    format!(
                        ", \"modified_bytes\": {}, \"byte_blocks_touched\": {}",
                        qplan.words(),
                        qplan.touched_blocks(16, &bias_word_bytes).len()
                    )
                }
            };
            plan_lines.push(format!(
                "{{\"variant\": \"{label}\", \"precision\": \"{}\", \"scenario\": {}, \
                 \"modified_words\": {words}, \"bit_flips\": {flips}, \
                 \"dirty_g16_blocks\": {dirty_g16}, \"odd_parity_rows\": {odd_rows}{byte_stats}}}",
                p.name(),
                o.scenario.index,
            ));
        }
    }

    println!("\nfault-plan observables (deployed word surface):");
    for line in &plan_lines {
        println!("  {line}");
    }

    println!("\ndetection rates (variant × precision × detector):");
    let mut row_lines = Vec::new();
    for ((label, p, _), (report, scored)) in specs.iter().zip(&rows) {
        let rates: Vec<f64> = (0..detector_names.len())
            .map(|c| scored.detection_rate(c))
            .collect();
        println!("  {label:<8}/{:<4} {rates:?}", p.name());
        row_lines.push(format!(
            "{{\"variant\": \"{label}\", \"precision\": \"{}\", \
             \"mean_success_rate\": {:.4}, \"mean_unchanged_rate\": {:.4}, \
             \"mean_l0\": {:.2}, \"campaign_fingerprint\": \"{:#018x}\", \
             \"arena_fingerprint\": \"{:#018x}\", \"detection_rates\": {{{}}}}}",
            p.name(),
            report.mean_success_rate(),
            report.mean_unchanged_rate(),
            report.mean_l0(),
            report.fingerprint(),
            scored.fingerprint(),
            rate_cells(scored, &detector_names)
        ));
    }

    if smoke {
        println!(
            "\nsmoke stealth OK: {} scenarios × {} variants bit-identical across thread counts",
            base_spec.len(),
            specs.len()
        );
        fsa_bench::trace::finish(traced, "stealth");
        return;
    }

    // The headline acceptance matrix. Rows are ordered plain/f32,
    // stealth/f32, plain/int8, stealth/int8.
    let g16_name = &detector_names[g16_col];
    let parity_name = &detector_names[parity_col];
    for (i, j) in [(0usize, 1usize), (2, 3)] {
        let (plain_r, plain_a) = &rows[i];
        let (stealth_r, stealth_a) = &rows[j];
        let pname = specs[i].1.name();
        // The vulnerability is real on this victim…
        assert!(
            plain_a.detection_rate(g16_col) >= 0.75,
            "{pname}: plain FSA no longer trips {g16_name} — vulnerability fixture broken"
        );
        // …and the detector-aware plan closes it.
        for (col, cap, name) in [
            (g16_col, 0.25, g16_name),
            (parity_col, 0.25, parity_name),
            (probe_col, 0.0, &detector_names[probe_col]),
        ] {
            let rate = stealth_a.detection_rate(col);
            assert!(
                rate <= cap,
                "{pname}: detector-aware FSA still caught by {name} at {rate} (cap {cap})"
            );
        }
        let (ps, ss) = (plain_r.mean_success_rate(), stealth_r.mean_success_rate());
        assert!(
            ss >= ps - 0.05,
            "{pname}: stealth objective cost too much fault success ({ss} vs plain {ps})"
        );
    }
    let g16_before: Vec<f64> = [0, 2]
        .iter()
        .map(|&i| rows[i].1.detection_rate(g16_col))
        .collect();
    let g16_after: Vec<f64> = [1, 3]
        .iter()
        .map(|&i| rows[i].1.detection_rate(g16_col))
        .collect();
    let parity_before: Vec<f64> = [0, 2]
        .iter()
        .map(|&i| rows[i].1.detection_rate(parity_col))
        .collect();
    let parity_after: Vec<f64> = [1, 3]
        .iter()
        .map(|&i| rows[i].1.detection_rate(parity_col))
        .collect();
    println!(
        "\nstealth loop closed: {g16_name} {g16_before:?} -> {g16_after:?}, \
         {parity_name} {parity_before:?} -> {parity_after:?}"
    );

    let json = format!(
        "{{\n  \"pr\": 7,\n  \"host_cores\": {host_cores},\n  \"config\": \"cw_tiny_20px\",\n  \
         \"scenarios\": {},\n  \"variants\": [\"plain\", \"stealth\"],\n  \
         \"precisions\": [\"f32\", \"int8\"],\n  \"detectors\": [{}],\n  \
         \"stealth_objective\": {{\"block_params\": {}, \"block_lambda\": {}, \
         \"drift_budget\": {}, \"max_dirty_blocks\": {}}},\n  \
         \"g16_detection_before\": [{}],\n  \"g16_detection_after\": [{}],\n  \
         \"parity_detection_before\": [{}],\n  \"parity_detection_after\": [{}],\n  \
         \"matrix\": [\n    {}\n  ],\n  \
         \"fault_plans\": [\n    {}\n  ],\n  \
         \"bit_identical_across_thread_counts\": true,\n  \"sweep\": [\n    {}\n  ]\n}}\n",
        base_spec.len(),
        detector_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        stealth.block_params,
        stealth.block_lambda,
        stealth.drift_budget,
        stealth.max_dirty_blocks,
        g16_before
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        g16_after
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        parity_before
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        parity_after
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        row_lines.join(",\n    "),
        plan_lines.join(",\n    "),
        sweep_lines.join(",\n    ")
    );
    let path: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_PR7.json");
    std::fs::write(&path, &json).expect("failed to write BENCH_PR7.json");
    println!("\nwrote {}", path.display());
    print!("{json}");
    fsa_bench::trace::finish(traced, "stealth");
}
