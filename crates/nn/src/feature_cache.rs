//! Shared read-only feature cache for attack campaigns.
//!
//! The paper's experiments are sweeps — many attack instances over one
//! victim model — and every instance needs the penultimate (head-input)
//! activations of its working images. Extracting those per attack
//! re-runs the conv stack for every scenario; a [`FeatureCache`] holds
//! the output of one batched
//! [`Network::forward_infer`](crate::network::Network::forward_infer)
//! pass over the image pool and hands out row subsets by `memcpy`. The cached
//! tensor is held behind an [`Arc`], so clones are pointer-cheap and the
//! activations are shared read-only across every concurrent attack
//! worker — no locking, no duplication.
//!
//! Bit-compatibility contract: the cached activations are exactly what
//! `Network::forward_infer` produces (the batch-parallel pipeline,
//! itself bit-identical to the serial per-image path at every
//! `FSA_THREADS`), so specs built from the cache match specs built by
//! direct per-attack extraction bit for bit —
//! `tests/feature_cache_oracle.rs` locks this in.
//!
//! The attack campaign (`fsa_attack::Campaign`) applies the same idea
//! one level up: the head layers below the attacked selection are frozen
//! too, so it runs them once over the cached pool and gathers each
//! scenario's rows from the result. The oracle test also pins that a
//! pool-level `FcHead::activations_before` followed by a gather equals
//! the pass over the gathered rows, bit for bit.

use crate::cw::CwModel;
use fsa_tensor::Tensor;
use std::sync::Arc;

/// Immutable `[pool, feature_dim]` head-input activations, extracted
/// once and shared across attacks.
///
/// # Examples
///
/// ```
/// use fsa_nn::cw::{CwConfig, CwModel};
/// use fsa_nn::feature_cache::FeatureCache;
/// use fsa_tensor::{Prng, Tensor};
///
/// let cfg = CwConfig::tiny();
/// let mut rng = Prng::new(5);
/// let model = CwModel::new_random(cfg, &mut rng);
/// let images = Tensor::randn(&[6, cfg.input.features()], 1.0, &mut rng);
/// let cache = FeatureCache::build(&model, &images);
/// assert_eq!(cache.len(), 6);
/// // Row subsets come out of the cache without touching the conv stack.
/// let sub = cache.gather(&[4, 0, 2]);
/// assert_eq!(sub.row(1), cache.features().row(0));
/// ```
#[derive(Debug, Clone)]
pub struct FeatureCache {
    features: Arc<Tensor>,
}

impl FeatureCache {
    /// Extracts features for the whole image pool through the victim's
    /// batched conv pipeline (one [`CwModel::extract_features`] call).
    ///
    /// # Panics
    ///
    /// Panics if `images` is not `[pool, input_features]` for the model.
    pub fn build(model: &CwModel, images: &Tensor) -> Self {
        let _span = fsa_telemetry::span("feature_cache.build");
        fsa_telemetry::counter("feature_cache.builds", 1);
        Self::from_features(model.extract_features(images))
    }

    /// Wraps already-extracted `[pool, feature_dim]` activations (e.g.
    /// the precomputed pool features of a cached experiment artifact).
    ///
    /// # Panics
    ///
    /// Panics if `features` is not 2-dimensional.
    pub fn from_features(features: Tensor) -> Self {
        assert_eq!(features.ndim(), 2, "feature cache must be [pool, d]");
        Self {
            features: Arc::new(features),
        }
    }

    /// The full cached `[pool, feature_dim]` activation matrix.
    pub fn features(&self) -> &Tensor {
        &self.features
    }

    /// Number of cached pool rows.
    pub fn len(&self) -> usize {
        self.features.shape()[0]
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feature width per row.
    pub fn dim(&self) -> usize {
        self.features.shape()[1]
    }

    /// Copies the named pool rows (in the given order) into a fresh
    /// `[rows.len(), feature_dim]` tensor — the per-scenario working-set
    /// features, without re-running any layer.
    ///
    /// # Panics
    ///
    /// Panics if any row index is out of range.
    pub fn gather(&self, rows: &[usize]) -> Tensor {
        // Every gather is a cache hit that skipped the conv stack; the
        // counters quantify how much extraction the cache absorbed.
        if fsa_telemetry::enabled() {
            fsa_telemetry::counter("feature_cache.gathers", 1);
            fsa_telemetry::counter("feature_cache.rows_served", rows.len() as u64);
        }
        let d = self.dim();
        let mut out = Tensor::zeros(&[rows.len(), d]);
        for (r, &i) in rows.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.features.row(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    #[test]
    fn gather_copies_rows_in_request_order() {
        let mut rng = Prng::new(3);
        let pool = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let cache = FeatureCache::from_features(pool.clone());
        let sub = cache.gather(&[3, 3, 1]);
        assert_eq!(sub.shape(), &[3, 4]);
        assert_eq!(sub.row(0), pool.row(3));
        assert_eq!(sub.row(1), pool.row(3));
        assert_eq!(sub.row(2), pool.row(1));
    }

    #[test]
    fn clones_share_storage() {
        let cache = FeatureCache::from_features(Tensor::zeros(&[2, 3]));
        let other = cache.clone();
        assert!(std::ptr::eq(
            cache.features().as_slice().as_ptr(),
            other.features().as_slice().as_ptr()
        ));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn gather_rejects_out_of_range_rows() {
        let cache = FeatureCache::from_features(Tensor::zeros(&[2, 3]));
        let _ = cache.gather(&[2]);
    }
}
