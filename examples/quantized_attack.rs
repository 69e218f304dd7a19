//! The int8 backend end to end: quantize a trained victim, attack it,
//! compile the realized δ into a byte-level bit-flip plan, and let the
//! stealth arena judge the result.
//!
//! The paper frames fault sneaking as modifying parameters *as stored
//! in memory*. On an int8 inference backend that storage is one byte
//! per parameter, so the physically meaningful questions change: does
//! the optimized δ survive projection onto the 255-point grid? How many
//! bytes, bits, and DRAM rows does the realized modification touch? And
//! does the §5.4 stealth argument — keep the keep set, hold the probe
//! accuracy — still hold when the deployed artifact is quantized? This
//! example walks all four steps on a small self-contained victim.
//!
//! ```text
//! cargo run --release --example quantized_attack
//! ```

use fault_sneaking::attack::campaign::{Campaign, CampaignSpec};
use fault_sneaking::attack::{AttackConfig, ParamSelection, Precision, QuantizedSelection};
use fault_sneaking::defense::{DefenseSuite, StealthArena};
use fault_sneaking::memfault::dram::ParamLayout;
use fault_sneaking::memfault::{DramGeometry, FaultPlan};
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::tensor::{Prng, Tensor};

fn main() {
    let mut rng = Prng::new(88);

    // 1. A trained f32 victim, then its int8 deployment artifact.
    let (features, labels) = clustered_features(200, 16, 4, &mut rng);
    let mut head = FcHead::from_dims(&[16, 28, 4], &mut rng);
    train_head(
        &mut head,
        &features,
        &labels,
        &HeadTrainConfig {
            epochs: 40,
            ..Default::default()
        },
        &mut rng,
    );
    let qhead = QuantizedHead::quantize(&head);
    let deq = qhead.dequantized_head();
    println!(
        "victim: f32 accuracy {:.3}, int8 accuracy {:.3} ({} parameters -> {} stored bytes)",
        head.accuracy(&features, &labels),
        qhead.accuracy(&features, &labels),
        head.param_count(),
        qhead.param_count()
    );

    // 2. Attack under Precision::Int8: the ADMM δ is optimized over the
    //    dequantized view, projected onto the int8 grid, and re-measured
    //    under true int8 inference.
    let pool: Vec<usize> = (0..160).collect();
    let probe: Vec<usize> = (160..200).collect();
    let gather = |idx: &[usize]| {
        let mut x = Tensor::zeros(&[idx.len(), 16]);
        let mut l = Vec::with_capacity(idx.len());
        for (r, &i) in idx.iter().enumerate() {
            x.row_mut(r).copy_from_slice(features.row(i));
            l.push(labels[i]);
        }
        (x, l)
    };
    let (pool_x, pool_labels) = gather(&pool);
    let (probe_x, probe_labels) = gather(&probe);

    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(
        &head,
        selection.clone(),
        FeatureCache::from_features(pool_x),
        pool_labels,
    );
    let spec = CampaignSpec::grid(vec![2], vec![24])
        .with_config(AttackConfig {
            iterations: 300,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0)
        .with_precision(Precision::Int8);
    let report = campaign.run(&spec);
    let outcome = &report.outcomes[0];
    println!(
        "attack: {}/{} faults landed, {}/{} keep images unchanged, realized l0 = {}",
        outcome.result.s_success,
        outcome.result.s_total,
        outcome.result.keep_unchanged,
        outcome.result.keep_total,
        outcome.result.l0
    );

    // 3. The realized δ as a concrete bit-flip plan over the stored
    //    weight bytes: `compile_bytes` diffs the old and new byte images,
    //    so each planned word is one byte (at most 8 flips), and the plan
    //    folds onto DRAM rows only through a 1-byte layout. It reports
    //    which bytes change, how many bits flip, which rows they share,
    //    and where the plan slips past per-row parity. (Any bias
    //    coordinates of δ are f32 words outside the int8 region.)
    let qsel = QuantizedSelection::gather(&qhead, &selection);
    let (q_new, realized) = qsel.project(&outcome.result.delta);
    let plan = FaultPlan::compile_bytes(qsel.q0(), &q_new);
    let bias_words = realized
        .iter()
        .enumerate()
        .filter(|&(i, &r)| qsel.byte_index(i).is_none() && r != 0.0)
        .count();
    let layout = ParamLayout::with_word_bytes(
        DramGeometry {
            banks: 2,
            rows_per_bank: 1024,
            row_bytes: 64,
        },
        0,
        qsel.weight_bytes(),
        1,
    );
    println!(
        "plan: {} weight bytes rewritten ({} f32 bias words), {} bit flips ({:.2} per byte), \
         {} DRAM rows touched, {} parity-evading",
        plan.words(),
        bias_words,
        plan.total_bit_flips,
        plan.bits_per_word(),
        plan.rows_touched(&layout),
        plan.parity_evading_rows(&layout).len()
    );

    // 4. The arena's verdict: detectors calibrated on the *deployed*
    //    (dequantized) clean model score the attacked storage.
    let suite = DefenseSuite::standard(
        &deq,
        &FeatureCache::from_features(probe_x),
        &probe_labels,
        DramGeometry {
            banks: 2,
            rows_per_bank: 1024,
            row_bytes: 64,
        },
        0.15,
        0.75,
    );
    let arena = StealthArena::new(&deq, selection, suite).with_precision(Precision::Int8);
    let matrix = arena.score_report(&report);
    println!("arena verdicts (precision {}):", matrix.precision.name());
    for (name, verdict) in matrix.detectors.iter().zip(&matrix.rows[0].verdicts) {
        println!(
            "  {name:<16} score {:>8.4} vs threshold {:>8.4} -> {}",
            verdict.score,
            verdict.threshold,
            if verdict.detected {
                "DETECTED"
            } else {
                "evaded"
            }
        );
    }
}

/// Class-clustered Gaussian features, the workspace's standard synthetic
/// victim diet.
fn clustered_features(n: usize, d: usize, classes: usize, rng: &mut Prng) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::zeros(&[n, d]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        for j in 0..d {
            let center = if j % classes == class { 2.0 } else { 0.0 };
            x.row_mut(i)[j] = rng.normal(center, 0.4);
        }
    }
    (x, labels)
}
