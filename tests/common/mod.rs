//! Victim builders shared by the root integration tests.
//!
//! Every golden file and digest pins the order of the generator's draws:
//! these helpers draw exactly what the inline loops they replace drew, in
//! the same order, so a caller must keep its own sequence of calls
//! (features, head, further features) as it is.

use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::tensor::{Prng, Tensor};

/// Class-clustered Gaussian features: row `i` has class `i % classes`,
/// and each coordinate `j` is drawn from `N(center, sigma)` where
/// `j % classes` is the row's class and from `N(0, sigma)` elsewhere,
/// row by row.
pub fn clustered(
    n: usize,
    d: usize,
    classes: usize,
    center: f32,
    sigma: f32,
    rng: &mut Prng,
) -> (Tensor, Vec<usize>) {
    let mut x = Tensor::zeros(&[n, d]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        for (j, v) in x.row_mut(i).iter_mut().enumerate() {
            let mean = if j % classes == class { center } else { 0.0 };
            *v = rng.normal(mean, sigma);
        }
    }
    (x, labels)
}

/// A head of widths `dims`, initialised from `rng` and trained on
/// `(x, labels)` for `epochs` with every other setting at its default.
pub fn train(
    dims: &[usize],
    x: &Tensor,
    labels: &[usize],
    epochs: usize,
    rng: &mut Prng,
) -> FcHead {
    let mut head = FcHead::from_dims(dims, rng);
    let config = HeadTrainConfig {
        epochs,
        ..Default::default()
    };
    train_head(&mut head, x, labels, &config, rng);
    head
}
