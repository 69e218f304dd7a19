//! The trained victim the stealth and co-defense determinism suites
//! share. They include this file by `#[path]`, so the test binaries that
//! use only `common` never compile it as dead code.

use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::head_train::{train_head, HeadTrainConfig};
use fault_sneaking::tensor::{Prng, Tensor};

/// Class-clustered Gaussian features split into an attack pool and a
/// disjoint probe set, plus a head trained on the pool.
pub fn victim() -> (FcHead, FeatureCache, Vec<usize>, FeatureCache, Vec<usize>) {
    let mut rng = Prng::new(727272);
    let n = 150;
    let d = 14;
    let classes = 3;
    let mut x = Tensor::zeros(&[n, d]);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        labels.push(class);
        for j in 0..d {
            let center = if j % classes == class { 1.5 } else { 0.0 };
            x.row_mut(i)[j] = rng.normal(center, 0.5);
        }
    }
    let mut head = FcHead::from_dims(&[d, 20, classes], &mut rng);
    train_head(
        &mut head,
        &x,
        &labels,
        &HeadTrainConfig {
            epochs: 10,
            ..Default::default()
        },
        &mut rng,
    );
    let gather = |idx: std::ops::Range<usize>| {
        let mut out = Tensor::zeros(&[idx.len(), d]);
        let mut l = Vec::with_capacity(idx.len());
        for (r, i) in idx.enumerate() {
            out.row_mut(r).copy_from_slice(x.row(i));
            l.push(labels[i]);
        }
        (FeatureCache::from_features(out), l)
    };
    let (pool, pool_labels) = gather(0..110);
    let (probe, probe_labels) = gather(110..150);
    (head, pool, pool_labels, probe, probe_labels)
}
