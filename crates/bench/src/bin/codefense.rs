//! Round 2 of the arms race — the PR 8 bench artifact.
//!
//! PR 7's `stealth` bench showed the detector-aware planner evading the
//! deployed fixed suite: checksum-block co-location beats the 0-offset
//! audit partition, parity-even flip padding cancels the per-row XOR,
//! and the drift budget is tuned against the very probe the defender
//! deploys. Each evasion leans on a **fixed** defender artifact. This
//! bench re-arms the defense ([`DefenseSuite::randomized`]) by breaking
//! all three assumptions — seeded rotating audit phases, the
//! column-parity/row-CRC family, and a held-out drift probe the
//! attacker never sees — and scores the *same* PR 7 campaigns against
//! both generations of the suite.
//!
//! Asserted outcomes (full run):
//!
//! * the legacy fixed-suite rows reproduce `BENCH_PR7.json`
//!   **bit-exactly** (campaign and arena fingerprints are compared
//!   against the committed artifact — the re-armed suite must not
//!   perturb a single legacy bit);
//! * the PR 7 stealth plans, still evading the fixed suite, are
//!   detected at ≥ 0.9 by at least one randomized monitor in both
//!   precisions;
//! * the whole pipeline — campaigns plus both scoring passes — is
//!   bit-identical at `FSA_THREADS` = 1, 2, 3, 8 for a fixed audit
//!   schedule seed.
//!
//! Emits `BENCH_PR8.json` at the workspace root.
//!
//! Run: `cargo run --release -p fsa-bench --bin codefense`
//! CI smoke: `cargo run -p fsa-bench --bin codefense -- --smoke`

use fsa_attack::campaign::{Campaign, CampaignReport, CampaignSpec, FsaMethod, SparsityBudget};
use fsa_attack::{AttackConfig, ParamSelection, Precision, StealthObjective};
use fsa_bench::fixture;
use fsa_data::Dataset;
use fsa_defense::{ArenaReport, DefenseSuite, StealthArena};
use fsa_memfault::DramGeometry;
use fsa_nn::conv::VolumeDims;
use fsa_nn::quant::QuantizedHead;
use fsa_nn::FeatureCache;
use fsa_tensor::{parallel, Prng};
use std::path::PathBuf;
use std::time::Instant;

/// The audit-schedule seed the re-armed suite deploys with. Part of the
/// experiment identity: it flows into every randomized arena
/// fingerprint (and the detector names themselves).
const AUDIT_SEED: u64 = 0xAD17_5EED;

/// Every in-order value of a `"key": "value"` string field in a JSON
/// artifact. String search, not a parser: the committed bench JSON is
/// machine-written with a fixed shape, and this keeps the bin
/// dependency-free.
fn extract_string_fields(json: &str, key: &str) -> Vec<String> {
    let pat = format!("\"{key}\": \"");
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find(&pat) {
        let tail = &rest[i + pat.len()..];
        let end = tail.find('"').expect("unterminated string field");
        out.push(tail[..end].to_string());
        rest = &tail[end..];
    }
    out
}

/// Detection-rate JSON cells for one arena report.
fn rate_cells(scored: &ArenaReport) -> String {
    scored
        .detectors
        .iter()
        .enumerate()
        .map(|(c, n)| format!("\"{n}\": {:.4}", scored.detection_rate(c)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Columns of the monitors that exist *only* in the randomized suite —
/// the new detection surface the stealth attacker never optimized
/// against.
fn rearmed_columns(names: &[String]) -> Vec<usize> {
    names
        .iter()
        .enumerate()
        .filter(|(_, n)| {
            n.starts_with("rot_checksum_")
                || n.as_str() == "holdout_drift"
                || n.as_str() == "dram_column_parity"
                || n.as_str() == "dram_row_crc"
        })
        .map(|(c, _)| c)
        .collect()
}

/// The best (maximum) detection rate any re-armed monitor achieves on
/// one scored report, with the winning monitor's name.
fn best_rearmed_rate(scored: &ArenaReport, cols: &[usize]) -> (f64, String) {
    cols.iter()
        .map(|&c| (scored.detection_rate(c), scored.detectors[c].clone()))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("randomized suite has no re-armed monitors")
}

fn main() {
    let traced = fsa_bench::trace::arm_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== randomized co-defense bench (host cores: {host_cores}{}) ==",
        if smoke { ", smoke" } else { "" }
    );

    let mut rng = Prng::new(0xDAC5);
    let (model, dataset) = fixture::stealth_victim(&mut rng);

    // Deterministic probe split, exactly as in the stealth bench: the
    // attacker sees `probe` (the drift budget is tuned against it) and
    // attacks over `pool`.
    let (probe_ds, pool_ds) = dataset.split_probe(0xA11CE, 60);
    let probe_cache = FeatureCache::build(&model, &probe_ds.images);
    let pool_cache = FeatureCache::build(&model, &pool_ds.images);

    let qclean = QuantizedHead::quantize(&model.head);
    let deq = qclean.dequantized_head();

    // The held-out drift probe. A fresh, independent stream — drawn
    // *after* every PR 7 draw, so the campaign bits cannot move — feeds
    // a new `Dataset`, and `split_probe` carves the calibration split.
    // Nothing about this data is visible to the attack pipeline.
    let mut holdout_rng = Prng::new(0xC0DE);
    let (holdout_images, holdout_labels) =
        fixture::clustered_images(120, 20, 4, fixture::STEALTH_SPREAD, &mut holdout_rng);
    let holdout_dataset = Dataset::new(
        holdout_images,
        holdout_labels,
        VolumeDims::new(1, 20, 20),
        4,
    );
    let (holdout_probe_ds, _) = holdout_dataset.split_probe(0x5EC2E7, 60);
    let holdout_cache = FeatureCache::build(&model, &holdout_probe_ds.images);

    let geometry = DramGeometry {
        banks: 4,
        rows_per_bank: 4096,
        row_bytes: 256,
    };
    let selection = ParamSelection::last_layer(&model.head);

    // Generation 1: the fixed PR 5/7 stack, bit-identical calibration.
    let f32_legacy = DefenseSuite::standard(
        &model.head,
        &probe_cache,
        &probe_ds.labels,
        geometry,
        0.25,
        0.75,
    );
    let int8_legacy =
        DefenseSuite::standard(&deq, &probe_cache, &probe_ds.labels, geometry, 0.25, 0.75);
    // Generation 2: the re-armed stack under one pinned schedule seed.
    let f32_rearmed = DefenseSuite::randomized(
        &model.head,
        &probe_cache,
        &probe_ds.labels,
        &holdout_cache,
        geometry,
        0.25,
        0.75,
        0.75,
        AUDIT_SEED,
    );
    let int8_rearmed = DefenseSuite::randomized(
        &deq,
        &probe_cache,
        &probe_ds.labels,
        &holdout_cache,
        geometry,
        0.25,
        0.75,
        0.75,
        AUDIT_SEED,
    );
    let legacy_names = f32_legacy.names();
    let rearmed_names = f32_rearmed.names();
    let rearmed_cols = rearmed_columns(&rearmed_names);
    assert_eq!(
        rearmed_names,
        int8_rearmed.names(),
        "precision must not change the randomized schedule"
    );

    let f32_legacy_arena = StealthArena::new(&model.head, selection.clone(), f32_legacy);
    let int8_legacy_arena =
        StealthArena::new(&deq, selection.clone(), int8_legacy).with_precision(Precision::Int8);
    let f32_rearmed_arena = StealthArena::new(&model.head, selection.clone(), f32_rearmed);
    let int8_rearmed_arena =
        StealthArena::new(&deq, selection.clone(), int8_rearmed).with_precision(Precision::Int8);

    let campaign = Campaign::new(
        &model.head,
        selection.clone(),
        pool_cache,
        pool_ds.labels.clone(),
    );

    // The PR 7 attacker, verbatim: block cap 5 is tuned to the *fixed*
    // g16 audit (budget 17 of ~139 blocks) — the randomized audit
    // samples a quarter of its blocks across four shifted phases, so
    // the same cap is no longer below its alarm point.
    let stealth = StealthObjective::new(16, 0.75, geometry, 0.5).with_block_cap(5);

    let base_spec = if smoke {
        CampaignSpec::grid(vec![1], vec![8, 16])
            .with_config(AttackConfig {
                iterations: 60,
                ..AttackConfig::default()
            })
            .with_weights(40.0, 1.0)
    } else {
        CampaignSpec::grid(vec![4], vec![128, 256])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_config(AttackConfig {
                iterations: 500,
                ..AttackConfig::default()
            })
            .with_weights(40.0, 1.0)
    };
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
        "matrix: {} scenarios × {} variants × ({} legacy + {} re-armed detectors)",
        base_spec.len(),
        specs.len(),
        legacy_names.len(),
        rearmed_names.len()
    );

    // One row = the campaign run once, then scored by both generations
    // of the suite. The campaign never sees either suite — in
    // particular the attacker is *not* handed the schedule seed.
    type Row = (CampaignReport, ArenaReport, ArenaReport);
    let run_all = |specs: &[(&str, Precision, CampaignSpec)]| -> Vec<Row> {
        specs
            .iter()
            .map(|(_, p, spec)| {
                let report = campaign.run_method(spec, &FsaMethod);
                let (legacy, rearmed) = match p {
                    Precision::F32 => (
                        f32_legacy_arena.score_report(&report),
                        f32_rearmed_arena.score_report(&report),
                    ),
                    Precision::Int8 => (
                        int8_legacy_arena.score_report(&report),
                        int8_rearmed_arena.score_report(&report),
                    ),
                };
                (report, legacy, rearmed)
            })
            .collect()
    };

    // Serial reference.
    parallel::set_threads(1);
    let t_serial = Instant::now();
    let rows = run_all(&specs);
    let serial_ms = t_serial.elapsed().as_secs_f64() * 1e3;
    println!("serial reference (4 rows, double-scored): {serial_ms:.1} ms");
    for ((label, p, _), (report, legacy, rearmed)) in specs.iter().zip(&rows) {
        println!(
            "  {label}/{}: campaign fp {:#018x}, legacy arena fp {:#018x}, re-armed arena fp {:#018x}",
            p.name(),
            report.fingerprint(),
            legacy.fingerprint(),
            rearmed.fingerprint()
        );
        assert_eq!(legacy.suite_seed, None, "legacy arena grew a seed");
        assert_eq!(
            rearmed.suite_seed,
            Some(AUDIT_SEED),
            "schedule seed lost on the way into the arena report"
        );
        for (gen, scored) in [("legacy", legacy), ("re-armed", rearmed)] {
            assert!(
                scored.clean.iter().all(|v| !v.detected),
                "clean model tripped a {gen} detector — suite miscalibrated"
            );
        }
    }

    // Bit-identity across thread counts (1 is the reference itself):
    // campaigns AND both scoring passes.
    let thread_counts: &[usize] = if smoke { &[3] } else { &[2, 3, 8] };
    let mut sweep_lines = vec![format!(
        "{{\"threads\": 1, \"pipeline_ms\": {serial_ms:.3}, \"bit_identical_to_serial\": true}}"
    )];
    for &threads in thread_counts {
        parallel::set_threads(threads);
        let t = Instant::now();
        let got = run_all(&specs);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        for (((label, p, _), r_ref), r_got) in specs.iter().zip(&rows).zip(&got) {
            assert!(
                r_got.0 == r_ref.0,
                "{label}/{} campaign report changed bits at {threads} threads",
                p.name()
            );
            assert!(
                r_got.1 == r_ref.1,
                "{label}/{} legacy arena report changed bits at {threads} threads",
                p.name()
            );
            assert!(
                r_got.2 == r_ref.2,
                "{label}/{} re-armed arena report changed bits at {threads} threads",
                p.name()
            );
        }
        println!("{threads} threads: {ms:.1} ms (bit-identical to serial)");
        sweep_lines.push(format!(
            "{{\"threads\": {threads}, \"pipeline_ms\": {ms:.3}, \"bit_identical_to_serial\": true}}"
        ));
    }
    parallel::set_threads(0);

    // Seeded-schedule identity: rebuilding the suite from the same seed
    // must reproduce the scored matrix bit-for-bit, and a different
    // seed must be a visibly different experiment.
    {
        let rescored = f32_rearmed_arena.score_report(&rows[1].0);
        assert!(
            rescored == rows[1].2,
            "re-scoring under the same seed moved bits"
        );
        let other = StealthArena::new(
            &model.head,
            selection.clone(),
            DefenseSuite::randomized(
                &model.head,
                &probe_cache,
                &probe_ds.labels,
                &holdout_cache,
                geometry,
                0.25,
                0.75,
                0.75,
                AUDIT_SEED ^ 1,
            ),
        )
        .score_report(&rows[1].0);
        assert_ne!(
            other.fingerprint(),
            rows[1].2.fingerprint(),
            "a different schedule seed must not collide"
        );
    }

    // The headline: the PR 7 stealth plans light up again. Rows are
    // ordered plain/f32, stealth/f32, plain/int8, stealth/int8.
    println!("\ndetection (variant × precision × suite generation):");
    let mut recapture = Vec::new();
    for ((label, p, _), (_, legacy, rearmed)) in specs.iter().zip(&rows) {
        let (best, best_name) = best_rearmed_rate(rearmed, &rearmed_cols);
        let legacy_g16: f64 = legacy
            .column("checksum_g16_b17")
            .map(|c| legacy.detection_rate(c))
            .unwrap_or(f64::NAN);
        println!(
            "  {label:<8}/{:<4} legacy g16 {legacy_g16:.2} | best re-armed {best:.2} ({best_name})",
            p.name()
        );
        if *label == "stealth" {
            recapture.push((p.name(), best, best_name.clone()));
            assert!(
                best >= 0.9,
                "{label}/{}: re-armed suite failed to re-catch the stealth plans \
                 (best monitor {best_name} at {best})",
                p.name()
            );
        }
    }

    if smoke {
        println!(
            "\nsmoke codefense OK: {} scenarios × {} variants re-caught and bit-identical",
            base_spec.len(),
            specs.len()
        );
        fsa_bench::trace::finish(traced, "codefense");
        return;
    }

    // Bit-exact legacy reproduction against the committed PR 7
    // artifact: same campaigns, same fixed suite, same fingerprints.
    let pr7_path: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_PR7.json");
    let pr7 = std::fs::read_to_string(&pr7_path)
        .unwrap_or_else(|e| panic!("cannot read committed {}: {e}", pr7_path.display()));
    let pr7_campaigns = extract_string_fields(&pr7, "campaign_fingerprint");
    let pr7_arenas = extract_string_fields(&pr7, "arena_fingerprint");
    assert_eq!(pr7_campaigns.len(), 4, "BENCH_PR7.json shape changed");
    assert_eq!(pr7_arenas.len(), 4, "BENCH_PR7.json shape changed");
    for (((label, p, _), (report, legacy, _)), (want_c, want_a)) in specs
        .iter()
        .zip(&rows)
        .zip(pr7_campaigns.iter().zip(&pr7_arenas))
    {
        assert_eq!(
            &format!("{:#018x}", report.fingerprint()),
            want_c,
            "{label}/{}: campaign no longer reproduces BENCH_PR7.json",
            p.name()
        );
        assert_eq!(
            &format!("{:#018x}", legacy.fingerprint()),
            want_a,
            "{label}/{}: legacy fixed-suite scoring no longer reproduces BENCH_PR7.json",
            p.name()
        );
    }
    println!(
        "\nlegacy rows reproduce BENCH_PR7.json bit-exactly (4 campaign + 4 arena fingerprints)"
    );

    // The stealth rows must still evade the *fixed* suite — otherwise
    // the before/after story is vacuous.
    for i in [1usize, 3] {
        let legacy = &rows[i].1;
        let g16 = legacy
            .column("checksum_g16_b17")
            .expect("legacy g16 column");
        assert!(
            legacy.detection_rate(g16) <= 0.25,
            "stealth rows stopped evading the fixed suite — fixture broken"
        );
    }
    for (pname, best, best_name) in &recapture {
        println!("  stealth/{pname}: re-caught at {best:.2} by {best_name}");
    }

    let legacy_rows: Vec<String> = specs
        .iter()
        .zip(&rows)
        .map(|((label, p, _), (report, legacy, _))| {
            format!(
                "{{\"variant\": \"{label}\", \"precision\": \"{}\", \
                 \"campaign_fingerprint\": \"{:#018x}\", \
                 \"arena_fingerprint\": \"{:#018x}\", \"detection_rates\": {{{}}}}}",
                p.name(),
                report.fingerprint(),
                legacy.fingerprint(),
                rate_cells(legacy)
            )
        })
        .collect();
    let rearmed_rows: Vec<String> = specs
        .iter()
        .zip(&rows)
        .map(|((label, p, _), (_, _, rearmed))| {
            let (best, best_name) = best_rearmed_rate(rearmed, &rearmed_cols);
            format!(
                "{{\"variant\": \"{label}\", \"precision\": \"{}\", \
                 \"arena_fingerprint\": \"{:#018x}\", \
                 \"best_rearmed_monitor\": \"{best_name}\", \"best_rearmed_rate\": {best:.4}, \
                 \"detection_rates\": {{{}}}}}",
                p.name(),
                rearmed.fingerprint(),
                rate_cells(rearmed)
            )
        })
        .collect();

    let json = format!(
        "{{\n  \"pr\": 8,\n  \"host_cores\": {host_cores},\n  \"config\": \"cw_tiny_20px\",\n  \
         \"audit_schedule_seed\": \"{AUDIT_SEED:#010x}\",\n  \
         \"scenarios\": {},\n  \"variants\": [\"plain\", \"stealth\"],\n  \
         \"precisions\": [\"f32\", \"int8\"],\n  \
         \"legacy_detectors\": [{}],\n  \"rearmed_detectors\": [{}],\n  \
         \"legacy_reproduces_bench_pr7\": true,\n  \
         \"stealth_recapture\": {{{}}},\n  \
         \"legacy_matrix\": [\n    {}\n  ],\n  \
         \"rearmed_matrix\": [\n    {}\n  ],\n  \
         \"bit_identical_across_thread_counts\": true,\n  \"sweep\": [\n    {}\n  ]\n}}\n",
        base_spec.len(),
        legacy_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        rearmed_names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        recapture
            .iter()
            .map(|(pname, best, name)| format!(
                "\"{pname}\": {{\"rate\": {best:.4}, \"monitor\": \"{name}\"}}"
            ))
            .collect::<Vec<_>>()
            .join(", "),
        legacy_rows.join(",\n    "),
        rearmed_rows.join(",\n    "),
        sweep_lines.join(",\n    ")
    );
    let path: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_PR8.json");
    std::fs::write(&path, &json).expect("failed to write BENCH_PR8.json");
    println!("\nwrote {}", path.display());
    print!("{json}");
    fsa_bench::trace::finish(traced, "codefense");
}
