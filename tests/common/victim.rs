//! The pool-and-probe victim of the arena, telemetry and determinism
//! suites. They include this file by `#[path]` next to `common` and
//! `common/rows.rs`, so the test binaries that use only `common` never
//! compile it as dead code.

use crate::common::{clustered, train};
use crate::rows::rows;
use fault_sneaking::nn::feature_cache::FeatureCache;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::Prng;

/// Class-clustered Gaussian features (centre 1.5, σ = 0.5) drawn from
/// `Prng::new(seed)`, a head of widths `dims` trained on all of them for
/// 10 epochs, then the first `pool` rows as the attack pool and the next
/// `probe` rows as a disjoint probe set.
pub fn victim(
    seed: u64,
    dims: &[usize],
    pool: usize,
    probe: usize,
) -> (FcHead, FeatureCache, Vec<usize>, FeatureCache, Vec<usize>) {
    let mut rng = Prng::new(seed);
    let (d, classes) = (dims[0], dims[dims.len() - 1]);
    let (x, labels) = clustered(pool + probe, d, classes, 1.5, 0.5, &mut rng);
    let head = train(dims, &x, &labels, 10, &mut rng);
    let (pool_x, pool_labels) = rows(&x, &labels, 0..pool);
    let (probe_x, probe_labels) = rows(&x, &labels, pool..pool + probe);
    (
        head,
        FeatureCache::from_features(pool_x),
        pool_labels,
        FeatureCache::from_features(probe_x),
        probe_labels,
    )
}
