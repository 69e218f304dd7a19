//! The victims the workloads attack, built from source during set-up.
//!
//! Each victim's conv weights and trained head come from a fixed
//! fixture seed: the model under attack is part of the system. The
//! workload seed only generates the attack pool (the images working
//! sets are drawn from), so every `--seed` attacks the same model with
//! different inputs.

use fsa_data::dataset::Synthesizer;
use fsa_data::{Dataset, SynthDigits};
use fsa_nn::conv::VolumeDims;
use fsa_nn::cw::{CwConfig, CwModel};
use fsa_nn::head_train::{train_head, HeadTrainConfig};
use fsa_nn::trainer::gather_rows;
use fsa_nn::FeatureCache;
use fsa_tensor::{Prng, Tensor};

/// Seed of every victim's weights and training data.
const FIXTURE_SEED: u64 = 0x00DA_C19F;

/// Training images for the paper-scale victim.
const PAPER_TRAIN: usize = 300;
/// Attack-pool images for the paper-scale victim (R = 100 working sets).
const PAPER_POOL: usize = 180;

/// A trained victim and the feature cache of its attack pool.
pub struct Victim {
    pub model: CwModel,
    pub pool: FeatureCache,
    pub pool_labels: Vec<usize>,
}

/// The arena victim: pool plus the two probe caches its defense suite
/// calibrates on (the probe the attacker may see, and a held-out one).
pub struct ArenaVictim {
    pub victim: Victim,
    pub probe: FeatureCache,
    pub probe_labels: Vec<usize>,
    pub holdout: FeatureCache,
}

/// Derives the `i`-th independent stream seed from a workload seed.
pub fn derive(seed: u64, i: u64) -> u64 {
    Prng::new(seed ^ 0x5EED_BA5E).fork(i).next_u64()
}

/// Conv features of `images`, extracted in batches of 32 (the batch
/// shape the paper pipeline uses; it bounds the im2col scratch).
fn extract(model: &CwModel, images: &Tensor) -> Tensor {
    let n = images.shape()[0];
    let mut out = Tensor::zeros(&[n, model.config.feature_dim()]);
    let idx: Vec<usize> = (0..n).collect();
    for chunk in idx.chunks(32) {
        let f = model.extract_features(&gather_rows(images, chunk));
        for (r, &i) in chunk.iter().enumerate() {
            out.row_mut(i).copy_from_slice(f.row(r));
        }
    }
    out
}

fn train(
    model: &mut CwModel,
    images: &Tensor,
    labels: &[usize],
    epochs: usize,
    batch: usize,
    lr: f32,
    rng: &mut Prng,
) {
    let features = extract(model, images);
    let mut head = model.head.clone();
    let cfg = HeadTrainConfig {
        epochs,
        batch_size: batch,
        lr,
        verbose: false,
    };
    train_head(&mut head, &features, labels, &cfg, rng);
    let acc = head.accuracy(&features, labels);
    assert!(acc > 0.85, "victim failed to train (accuracy {acc})");
    model.head = head;
}

/// The paper's MNIST victim: the `CwConfig::mnist` extractor and a
/// 1024→200→200→10 head trained on synthetic digits.
pub fn paper_victim(seed: u64) -> Victim {
    let digits = SynthDigits::default();
    let mut rng = Prng::new(FIXTURE_SEED);
    let train_set = digits.generate(PAPER_TRAIN, FIXTURE_SEED ^ 0x7472_6169);
    let mut model = CwModel::new_random(CwConfig::mnist(), &mut rng);
    train(
        &mut model,
        &train_set.images,
        &train_set.labels,
        15,
        32,
        1e-3,
        &mut rng,
    );
    let pool = digits.generate(PAPER_POOL, derive(seed, 0));
    Victim {
        pool: FeatureCache::from_features(extract(&model, &pool.images)),
        pool_labels: pool.labels,
        model,
    }
}

/// Class-clustered `side × side` images: class `c` lights up quadrant
/// `c`, so the pattern survives the conv/pool stack.
fn clustered_images(n: usize, side: usize, noise: f32, rng: &mut Prng) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::zeros(&[n, side * side]);
    let mut labels = Vec::with_capacity(n);
    let half = side / 2;
    for i in 0..n {
        let class = i % 4;
        labels.push(class);
        let row = x.row_mut(i);
        for r in 0..side {
            for c in 0..side {
                let quadrant = usize::from(r >= half) * 2 + usize::from(c >= half);
                let center = if quadrant == class { 1.5 } else { 0.0 };
                row[r * side + c] = rng.normal(center, noise);
            }
        }
    }
    (x, labels)
}

/// The small 20×20 conv victim with a `fc_width`-wide, 4-class head.
fn small_model(fc_width: usize, noise: f32, epochs: usize, rng: &mut Prng) -> CwModel {
    let cfg = CwConfig {
        input: VolumeDims::new(1, 20, 20),
        block1_channels: 8,
        block2_channels: 8,
        kernel: 3,
        fc_width,
        classes: 4,
    };
    let mut model = CwModel::new_random(cfg, rng);
    let (x, labels) = clustered_images(360, 20, noise, rng);
    train(&mut model, &x, &labels, epochs, 32, 5e-3, rng);
    model
}

/// The victim of the `campaign`, `profile` and `sharded` bins: 16-wide
/// head, 200-image pool.
pub fn grid_victim(seed: u64) -> Victim {
    let mut rng = Prng::new(FIXTURE_SEED ^ 0x6772);
    let model = small_model(16, 0.3, 20, &mut rng);
    let (pool, pool_labels) = clustered_images(200, 20, 0.3, &mut Prng::new(derive(seed, 1)));
    Victim {
        pool: FeatureCache::from_features(extract(&model, &pool)),
        pool_labels,
        model,
    }
}

/// The `codefense` victim: 32-wide head, a 60-image calibration probe
/// split off the pool, and a 60-image held-out probe.
///
/// Its pool is fixed too: R = 260 working sets cover most of the usable
/// pool, so a seeded pool would make every draw of a seed share one
/// outcome. The workload seed picks the draws instead.
pub fn arena_victim() -> ArenaVictim {
    let mut rng = Prng::new(FIXTURE_SEED ^ 0x6172);
    let model = small_model(32, 0.6, 30, &mut rng);
    let dims = VolumeDims::new(1, 20, 20);
    let (images, labels) = clustered_images(460, 20, 0.6, &mut rng);
    let (probe, pool) = Dataset::new(images, labels, dims, 4).split_probe(0xA11CE, 60);
    let (held_images, held_labels) = clustered_images(120, 20, 0.6, &mut rng);
    let (held, _) = Dataset::new(held_images, held_labels, dims, 4).split_probe(0x5EC2E7, 60);
    ArenaVictim {
        probe: FeatureCache::from_features(extract(&model, &probe.images)),
        probe_labels: probe.labels,
        holdout: FeatureCache::from_features(extract(&model, &held.images)),
        victim: Victim {
            pool: FeatureCache::from_features(extract(&model, &pool.images)),
            pool_labels: pool.labels,
            model,
        },
    }
}
