//! Self-contained victims for the claim tests in `tests/` and the
//! `profile` bin.
//!
//! Two recipes, both a small conv extractor (1×20×20 input, 8+8
//! channels) with an FC head trained on its own extracted features, and
//! both drawing every image from [`clustered_images`]:
//!
//! * [`campaign_victim`] — the campaign sweeps and the telemetry
//!   overhead gate: tight clusters (σ 0.3), a 16-wide head trained for
//!   20 epochs, and a 200-image pool;
//! * [`stealth_victim`] — the arena, int8, stealth and co-defense
//!   claims: wider clusters ([`STEALTH_SPREAD`]), a 32-wide head
//!   trained for 30 epochs, and a 400-image pool.
//!
//! Each draws from the caller's generator in a fixed order (model
//! init, training images, training shuffles, pool images), so a test
//! seeded the same way always attacks the same victim.

use fsa_data::Dataset;
use fsa_nn::conv::VolumeDims;
use fsa_nn::cw::{CwConfig, CwModel};
use fsa_nn::head_train::{train_head, HeadTrainConfig};
use fsa_tensor::{Prng, Tensor};

/// Within-class pixel spread of [`campaign_victim`]'s images.
const CAMPAIGN_SPREAD: f32 = 0.3;

/// Within-class pixel spread of [`stealth_victim`]'s images. Wider than
/// the campaign recipe: stealth needs individual images to be separable
/// from their class siblings in feature space, or flipping one image
/// necessarily drags its cluster.
pub const STEALTH_SPREAD: f32 = 0.6;

/// Class-clustered images: class `c` lights up quadrant `c` of the
/// `side × side` frame, every pixel drawn as `N(center, spread)`. The
/// pattern is spatially coherent, so it survives the conv/pool stack and
/// the extracted features stay separable — a real victim for the
/// attacks. Labels cycle `0, 1, .., classes - 1`.
///
/// # Panics
///
/// Panics if `classes > 4` (one quadrant per class).
pub fn clustered_images(
    n: usize,
    side: usize,
    classes: usize,
    spread: f32,
    rng: &mut Prng,
) -> (Tensor, Vec<usize>) {
    assert!(classes <= 4, "quadrant clusters support at most 4 classes");
    let mut x = Tensor::zeros(&[n, side * side]);
    let mut labels = Vec::with_capacity(n);
    let half = side / 2;
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        let row = x.row_mut(i);
        for r in 0..side {
            for c in 0..side {
                let quadrant = usize::from(r >= half) * 2 + usize::from(c >= half);
                let center = if quadrant == class { 1.5 } else { 0.0 };
                row[r * side + c] = rng.normal(center, spread);
            }
        }
    }
    (x, labels)
}

/// The campaign victim with its 200-image attack pool (images and
/// labels).
pub fn campaign_victim(rng: &mut Prng) -> (CwModel, Tensor, Vec<usize>) {
    train_victim(16, 20, CAMPAIGN_SPREAD, 200, rng)
}

/// The stealth victim with its 400-image attack pool as a
/// [`Dataset`].
pub fn stealth_victim(rng: &mut Prng) -> (CwModel, Dataset) {
    let (model, images, labels) = train_victim(32, 30, STEALTH_SPREAD, 400, rng);
    let dataset = Dataset::new(images, labels, model.config.input, model.config.classes);
    (model, dataset)
}

fn train_victim(
    fc_width: usize,
    epochs: usize,
    spread: f32,
    pool: usize,
    rng: &mut Prng,
) -> (CwModel, Tensor, Vec<usize>) {
    let cfg = CwConfig {
        input: VolumeDims::new(1, 20, 20),
        block1_channels: 8,
        block2_channels: 8,
        kernel: 3,
        fc_width,
        classes: 4,
    };
    let mut model = CwModel::new_random(cfg, rng);
    let (train_x, train_labels) = clustered_images(360, cfg.input.width, cfg.classes, spread, rng);
    let train_features = model.extract_features(&train_x);
    let mut head = model.head.clone();
    train_head(
        &mut head,
        &train_features,
        &train_labels,
        &HeadTrainConfig {
            epochs,
            batch_size: 32,
            lr: 5e-3,
            verbose: false,
        },
        rng,
    );
    let acc = head.accuracy(&train_features, &train_labels);
    assert!(acc > 0.9, "victim failed to train (accuracy {acc})");
    model.head = head;
    let (pool_images, pool_labels) =
        clustered_images(pool, cfg.input.width, cfg.classes, spread, rng);
    (model, pool_images, pool_labels)
}
