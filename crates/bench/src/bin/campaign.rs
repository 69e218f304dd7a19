//! Concurrent attack-campaign sweep — the PR 3 bench artifact.
//!
//! Reproduces a Table-2-style scenario grid (sweeps over the sneaked
//! count `S`, the preserved-set size `K`, and the `ℓ0`/`ℓ2` sparsity
//! budgets) against a small self-contained C&W-style victim, through the
//! [`fsa_attack::campaign`] engine:
//!
//! * the victim's pool features are extracted **once** into a shared
//!   [`FeatureCache`] (batched conv pipeline) and every scenario's
//!   working set is a row-gather from it;
//! * the whole grid runs serially (1 thread) as the reference, then
//!   concurrently at `FSA_THREADS = 2, 3, 8` — every per-attack result
//!   must match the reference **bit for bit** (the run aborts
//!   otherwise);
//! * the feature-cache win is measured against the old per-scenario
//!   `AttackSpec::from_model` extraction path.
//!
//! Emits `BENCH_PR3.json` at the workspace root.
//!
//! Run: `cargo run --release -p fsa-bench --bin campaign`
//! CI smoke: `cargo run -p fsa-bench --bin campaign -- --smoke`
//! (a 2-scenario grid, no JSON artifact — exercised under
//! `FSA_THREADS=3` and `FSA_THREADS=1` by the CI matrix).

use fsa_attack::campaign::{Campaign, CampaignSpec, SparsityBudget};
use fsa_attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
use fsa_bench::fixture;
use fsa_bench::timing::bench;
use fsa_nn::FeatureCache;
use fsa_tensor::{parallel, Prng, Tensor};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let traced = fsa_bench::trace::arm_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "== attack-campaign sweep (host cores: {host_cores}{}) ==",
        if smoke { ", smoke" } else { "" }
    );

    let mut rng = Prng::new(0xDAC3);
    let (model, pool_images, pool_labels) = fixture::campaign_victim(&mut rng);

    // The one batched conv extraction every scenario shares.
    let t_cache = Instant::now();
    let cache = FeatureCache::build(&model, &pool_images);
    let cache_build_ms = t_cache.elapsed().as_secs_f64() * 1e3;

    let spec = if smoke {
        CampaignSpec::grid(vec![1], vec![2, 4]).with_config(AttackConfig {
            iterations: 60,
            ..AttackConfig::default()
        })
    } else {
        CampaignSpec::grid(vec![1, 2], vec![0, 4, 8])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_config(AttackConfig {
                iterations: 300,
                ..AttackConfig::default()
            })
    };
    let n_scenarios = spec.len();
    println!(
        "scenario matrix: |S|={} × |K|={} × |budgets|={} × |seeds|={} = {n_scenarios}",
        spec.s_values.len(),
        spec.k_values.len(),
        spec.budgets.len(),
        spec.seeds.len()
    );
    assert!(
        smoke || n_scenarios >= 12,
        "full sweep must cover ≥ 12 scenarios"
    );

    let selection = ParamSelection::last_layer(&model.head);
    let campaign = Campaign::new(&model.head, selection.clone(), cache.clone(), pool_labels);

    // Serial reference, then concurrent runs — bit-identical or abort.
    parallel::set_threads(1);
    let t_serial = Instant::now();
    let reference = campaign.run(&spec);
    let serial_ms = t_serial.elapsed().as_secs_f64() * 1e3;
    println!(
        "serial reference: {serial_ms:.1} ms, fingerprint {:#018x}, \
         mean success {:.2}, mean unchanged {:.2}",
        reference.fingerprint(),
        reference.mean_success_rate(),
        reference.mean_unchanged_rate()
    );
    assert!(
        reference.mean_success_rate() > 0.9,
        "campaign fixture attacks mostly failed; victim or sweep misconfigured"
    );

    let thread_counts: &[usize] = if smoke { &[3] } else { &[2, 3, 8] };
    let mut sweep_lines = vec![format!(
        "{{\"threads\": 1, \"campaign_ms\": {serial_ms:.3}, \"bit_identical_to_serial\": true}}"
    )];
    for &threads in thread_counts {
        parallel::set_threads(threads);
        let t = Instant::now();
        let got = campaign.run(&spec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            got == reference,
            "campaign report changed bits at {threads} threads"
        );
        println!("{threads} threads: {ms:.1} ms (bit-identical to serial)");
        sweep_lines.push(format!(
            "{{\"threads\": {threads}, \"campaign_ms\": {ms:.3}, \"bit_identical_to_serial\": true}}"
        ));
    }
    parallel::set_threads(0);

    if smoke {
        println!("smoke sweep OK: {n_scenarios} scenarios bit-identical across thread counts");
        fsa_bench::trace::finish(traced, "campaign");
        return;
    }

    // Feature-cache win: building every scenario's spec from the shared
    // cache vs re-running the conv stack per scenario (the old
    // `AttackSpec::from_model` path). Same bits either way.
    let scenarios = spec.scenarios();
    let gather_rows = |rows: &[usize]| {
        let px = pool_images.shape()[1];
        let mut out = Tensor::zeros(&[rows.len(), px]);
        for (r, &i) in rows.iter().enumerate() {
            out.row_mut(r).copy_from_slice(pool_images.row(i));
        }
        out
    };
    let cached = bench("specs_from_shared_cache", || {
        let mut acc = 0.0f32;
        for sc in &scenarios {
            let s = campaign.scenario_spec(sc, spec.c_attack, spec.c_keep);
            acc += black_box(&s).features.as_slice()[0];
        }
        black_box(acc)
    });
    let uncached = bench("specs_from_model_extraction", || {
        let mut acc = 0.0f32;
        for sc in &scenarios {
            // Re-extract the same working images through the conv stack
            // (the pre-campaign per-attack path).
            let draw = campaign.scenario_draw(sc);
            let s =
                AttackSpec::from_model(&model, &gather_rows(&draw.rows), draw.labels, draw.targets);
            acc += black_box(&s).features.as_slice()[0];
        }
        black_box(acc)
    });
    let cache_speedup = uncached.ns_per_iter / cached.ns_per_iter;
    println!("feature-cache spec construction speedup: {cache_speedup:.1}x");

    // The two spec paths must agree bit for bit (the cache is exactly
    // the batched pipeline's output, never an approximation).
    for sc in &scenarios {
        let draw = campaign.scenario_draw(sc);
        let direct =
            AttackSpec::from_model(&model, &gather_rows(&draw.rows), draw.labels, draw.targets);
        let via_cache = campaign.scenario_spec(sc, spec.c_attack, spec.c_keep);
        assert!(
            direct.features == via_cache.features,
            "cached features diverged from direct extraction in scenario {}",
            sc.index
        );
    }

    // One attack as a sanity anchor: the campaign's scenario 0 replayed
    // standalone must reproduce the report's stored result.
    let sc0 = &scenarios[0];
    let aspec = campaign.scenario_spec(sc0, spec.c_attack, spec.c_keep);
    let standalone = FaultSneakingAttack::new(
        &model.head,
        selection,
        AttackConfig {
            norm: sc0.budget.norm,
            lambda: sc0.budget.lambda,
            ..spec.base.clone()
        },
    )
    .run(&aspec);
    assert!(
        standalone == reference.outcomes[0].result,
        "standalone replay of scenario 0 diverged from the campaign report"
    );

    let json = format!(
        "{{\n  \"pr\": 3,\n  \"host_cores\": {host_cores},\n  \"config\": \"cw_tiny_20px\",\n  \
         \"scenarios\": {n_scenarios},\n  \"grid\": \"S x K x budget = {}x{}x{}\",\n  \
         \"mean_success_rate\": {:.4},\n  \"mean_unchanged_rate\": {:.4},\n  \
         \"report_fingerprint\": \"{:#018x}\",\n  \
         \"bit_identical_across_thread_counts\": true,\n  \
         \"feature_cache_build_ms\": {cache_build_ms:.3},\n  \
         \"spec_from_cache_ms\": {:.3},\n  \"spec_from_model_ms\": {:.3},\n  \
         \"feature_cache_speedup\": {cache_speedup:.2},\n  \
         \"note\": \"{}\",\n  \"sweep\": [\n    {}\n  ]\n}}\n",
        spec.s_values.len(),
        spec.k_values.len(),
        spec.budgets.len(),
        reference.mean_success_rate(),
        reference.mean_unchanged_rate(),
        reference.fingerprint(),
        cached.ns_per_iter / 1e6,
        uncached.ns_per_iter / 1e6,
        if host_cores == 1 {
            "single-core host: concurrent dispatch is correctness-verified \
             (bit-identical at every thread count) but cannot beat serial \
             wall-clock; rerun on a multi-core box for real scaling"
        } else {
            "multi-core host: campaign_ms at each thread count is the \
             attack-level parallel win"
        },
        sweep_lines.join(",\n    ")
    );
    let path: PathBuf = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_PR3.json");
    std::fs::write(&path, &json).expect("failed to write BENCH_PR3.json");
    println!("\nwrote {}", path.display());
    print!("{json}");
    fsa_bench::trace::finish(traced, "campaign");
}
