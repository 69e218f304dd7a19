//! Property tests pitting the shared `FeatureCache` against direct
//! extraction — the cache analogue of `tests/conv_oracle.rs`.
//!
//! The campaign engine's contract is that cached activations are
//! *exactly* what the victim would compute per attack: one batched
//! `Network::forward_infer` over the pool, then row gathers, must be
//! bit-identical to running each working image through the conv stack
//! and `FcHead::activations_before` directly. Cases sweep seeded random
//! shapes (channels, geometry, batch, conv widths, head depths) and
//! thread budgets, so serial, batch-level, and mixed scheduler plans
//! all face the oracle.

use fault_sneaking::nn::activation::Relu;
use fault_sneaking::nn::conv::{Conv2d, VolumeDims};
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::network::Network;
use fault_sneaking::tensor::{parallel, Prng, Tensor};

/// `(channels, height, width, conv1_out, conv2_out, pool_images)`.
type CacheCase = (usize, usize, usize, usize, usize, usize);

/// Seeded shape grid: single-channel minima, odd geometry, and a
/// paper-shaped two-block stack.
const SHAPES: &[CacheCase] = &[
    (1, 6, 6, 2, 2, 1),   // pool of one image
    (1, 8, 5, 3, 2, 7),   // non-square frame
    (2, 7, 7, 4, 3, 9),   // multi-channel
    (3, 9, 11, 4, 4, 13), // wide odd geometry
    (1, 12, 12, 8, 8, 6), // enough per-image work to trigger batch plans
];

/// Builds a two-conv extractor for the case.
fn extractor(case: CacheCase, rng: &mut Prng) -> (Network, usize) {
    let (c, h, w, o1, o2, _) = case;
    let mut net = Network::new();
    let c1 = Conv2d::new_random(VolumeDims::new(c, h, w), o1, 3, rng);
    let d1 = c1.out_dims();
    net.push(Box::new(c1));
    net.push(Box::new(Relu::new(d1.features())));
    let c2 = Conv2d::new_random(d1, o2, 3, rng);
    let features = c2.out_dims().features();
    net.push(Box::new(c2));
    (net, features)
}

#[test]
fn cached_features_match_per_image_extraction_bit_for_bit() {
    for (case_idx, &case) in SHAPES.iter().enumerate() {
        let (c, h, w, _, _, pool) = case;
        let mut rng = Prng::new(0xCAC4E ^ case_idx as u64);
        let (net, feat_dim) = extractor(case, &mut rng);
        let images = Tensor::rand_uniform(&[pool, c * h * w], -1.0, 1.0, &mut rng);

        for budget in [1usize, 2, 3, 8] {
            let cache =
                parallel::with_budget(budget, || FeatureCache::build_from_network(&net, &images));
            assert_eq!(cache.len(), pool);
            assert_eq!(cache.dim(), feat_dim);
            // Oracle: every pool row individually through the stack.
            for i in 0..pool {
                let mut one = Tensor::zeros(&[1, c * h * w]);
                one.row_mut(0).copy_from_slice(images.row(i));
                let direct = net.forward_infer(&one);
                assert!(
                    cache.features().row(i) == direct.row(0),
                    "case {case_idx} budget {budget}: cached row {i} \
                     diverged from direct extraction"
                );
            }
        }
    }
}

#[test]
fn cache_gather_plus_activations_before_matches_direct_pass() {
    for (case_idx, &case) in SHAPES.iter().enumerate() {
        let (c, h, w, _, _, pool) = case;
        let mut rng = Prng::new(0xAC7 ^ ((case_idx as u64) << 8));
        let (net, feat_dim) = extractor(case, &mut rng);
        let images = Tensor::rand_uniform(&[pool, c * h * w], -1.0, 1.0, &mut rng);
        let head = FcHead::from_dims(&[feat_dim, 10, 8, 3], &mut rng);
        let cache = FeatureCache::build_from_network(&net, &images);

        // A scattered working set, repeats allowed (campaigns may draw
        // overlapping sets across scenarios).
        let rows: Vec<usize> = (0..pool.min(4)).map(|k| (k * 3 + 1) % pool).collect();
        for budget in [1usize, 3] {
            parallel::with_budget(budget, || {
                for start in 0..head.num_layers() {
                    // Campaign path: gather cached rows, truncate to `start`.
                    let via_cache = head.activations_before(start, &cache.gather(&rows));
                    // Direct path: each image through conv + head prefix.
                    for (r, &i) in rows.iter().enumerate() {
                        let mut one = Tensor::zeros(&[1, c * h * w]);
                        one.row_mut(0).copy_from_slice(images.row(i));
                        let direct = head.activations_before(start, &net.forward_infer(&one));
                        assert!(
                            via_cache.row(r) == direct.row(0),
                            "case {case_idx} budget {budget} start {start}: \
                             cached activation row {r} (pool {i}) diverged"
                        );
                    }
                }
            });
        }
    }
}

/// Bit patterns of a tensor, for `to_bits` comparisons.
fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The campaign's frozen-prefix cache runs the head layers below the
/// selection once over the whole pool and gathers each scenario's rows.
/// That is exact only if a row's activations do not depend on which rows
/// share its batch: pool-level `activations_before` then a gather must
/// equal `activations_before` on the gathered rows, bit for bit, under
/// every thread budget and at row counts that split the kernels' 4-row
/// tiles unevenly.
#[test]
fn pool_prefix_gather_matches_activations_before_on_the_gathered_rows() {
    let mut rng = Prng::new(0x9EF1);
    let head = FcHead::from_dims(&[24, 20, 12, 5], &mut rng);
    let pool = Tensor::randn(&[37, 24], 1.0, &mut rng);
    let cache = FeatureCache::from_features(pool);
    for start in [1, 2] {
        for budget in [1usize, 2, 3] {
            parallel::with_budget(budget, || {
                let pool_acts =
                    FeatureCache::from_features(head.activations_before(start, cache.features()));
                for count in [1usize, 3, 5, 6, 7, 13, 30] {
                    // Scattered rows with repeats, in draw order.
                    let rows: Vec<usize> = (0..count).map(|k| (k * 11 + start) % 37).collect();
                    let direct = head.activations_before(start, &cache.gather(&rows));
                    assert_eq!(
                        bits(&pool_acts.gather(&rows)),
                        bits(&direct),
                        "start {start} budget {budget} rows {count}"
                    );
                }
            });
        }
    }
}

/// A campaign spec carries a handle to its pool's prefix under the
/// campaign's head. An attack on that head reproduces the plain spec's
/// result; an attack on any other head — the int8 path's dequantized
/// head, or one whose prefix differs in a single weight — must not use
/// the handle, and returns exactly the plain spec's result too.
#[test]
fn a_foreign_prefix_handle_changes_no_result() {
    use fault_sneaking::attack::campaign::{Campaign, Scenario, SparsityBudget};
    use fault_sneaking::attack::{
        AttackConfig, AttackResult, AttackSpec, FaultSneakingAttack, ParamKind, ParamSelection,
    };
    use fault_sneaking::nn::quant::QuantizedHead;

    let mut rng = Prng::new(0xF0E1);
    let head = FcHead::from_dims(&[12, 16, 16, 4], &mut rng);
    let pool = Tensor::randn(&[40, 12], 1.0, &mut rng);
    let labels = head.predict(&pool);
    let cache = FeatureCache::from_features(pool);
    let deq = QuantizedHead::quantize(&head).dequantized_head();
    let mut nudged = head.clone();
    nudged.layer_mut(0).weight_mut().as_mut_slice()[5] += 0.5;
    let config = AttackConfig {
        iterations: 60,
        ..AttackConfig::default()
    };
    let same = |a: &AttackResult, b: &AttackResult, what: &str| {
        let delta = |r: &AttackResult| r.delta.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(delta(a), delta(b), "{what}: δ bits");
        assert_eq!(a, b, "{what}");
    };
    for selection in [
        ParamSelection::last_layer(&head),
        ParamSelection::layer(1, ParamKind::Both),
    ] {
        let start = selection.start_layer();
        let campaign = Campaign::new(&head, selection.clone(), cache.clone(), labels.clone());
        let sc = Scenario {
            index: 0,
            s: 2,
            k: 9,
            budget: SparsityBudget::l0(config.lambda),
            seed: 5,
        };
        let spec = campaign.scenario_spec(&sc, 10.0, 1.0);
        let plain = AttackSpec::new(
            spec.features.clone(),
            spec.labels.clone(),
            spec.targets.clone(),
        )
        .with_weights(10.0, 1.0);
        let run = |h: &FcHead, s: &AttackSpec| {
            FaultSneakingAttack::new(h, selection.clone(), config.clone()).run(s)
        };
        same(&run(&head, &spec), &run(&head, &plain), "own head");
        for (name, other) in [("dequantized head", &deq), ("one prefix weight", &nudged)] {
            // The foreign prefix really differs, so using the handle
            // would change what the attack sees.
            assert_ne!(
                bits(&other.activations_before(start, &spec.features)),
                bits(&head.activations_before(start, &spec.features)),
                "{name}: start {start}"
            );
            let what = format!("{name}, start {start}");
            same(&run(other, &spec), &run(other, &plain), &what);
        }
    }
}
