//! Fixtures shared by the root integration tests.

use fault_sneaking::tensor::{Prng, Tensor};

/// Class-clustered Gaussian features, exactly as in the quickstart: row
/// `i` has class `i % classes` and centre 2.0 on the coordinates of its
/// class, noise σ = 0.4.
pub fn clustered_features(
    n: usize,
    d: usize,
    classes: usize,
    rng: &mut Prng,
) -> (Tensor, Vec<usize>) {
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
