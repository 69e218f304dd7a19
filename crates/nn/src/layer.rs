//! The [`Layer`] trait and batch conventions.
//!
//! Activations flow through the network as rank-2 tensors `[batch,
//! features]`; spatial layers (conv, pool) carry their own `(channels,
//! height, width)` interpretation of the feature axis and validate it at
//! runtime. This keeps the container generic while the kernels stay on
//! contiguous slices.

use fsa_tensor::Tensor;

/// An inference-only network layer.
///
/// Implementations own their parameters; the forward pass reads them and
/// never mutates the layer.
///
/// `Send + Sync` is a supertrait so networks can be shared with the
/// scoped workers of the batch-parallel inference pipeline; layers are
/// plain parameter data, so this costs implementations nothing.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Short human-readable layer kind (e.g. `"linear"`, `"conv2d"`).
    fn name(&self) -> &'static str;

    /// Number of scalar inputs per sample this layer expects.
    fn in_features(&self) -> usize;

    /// Number of scalar outputs per sample this layer produces.
    fn out_features(&self) -> usize;

    /// Forward pass (inference/feature extraction).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch, in_features]`.
    fn forward_infer(&self, x: &Tensor) -> Tensor;

    /// Visits every parameter tensor in a fixed order (weight before
    /// bias) — the order model files store them in.
    ///
    /// Stateless layers simply don't call `f`.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor));

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize;
}

/// Validates that `x` is a `[batch, features]` activation for this layer.
///
/// Returns the batch size.
///
/// # Panics
///
/// Panics with a descriptive message on rank/width mismatch.
pub fn check_batch_input(layer: &str, x: &Tensor, expected_features: usize) -> usize {
    assert_eq!(
        x.ndim(),
        2,
        "{layer}: expected [batch, features] input, got {:?}",
        x.shape()
    );
    assert_eq!(
        x.shape()[1],
        expected_features,
        "{layer}: expected {} features per sample, got {}",
        expected_features,
        x.shape()[1]
    );
    x.shape()[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_batch_input_accepts_and_returns_batch() {
        let x = Tensor::zeros(&[5, 7]);
        assert_eq!(check_batch_input("t", &x, 7), 5);
    }

    #[test]
    #[should_panic(expected = "expected 3 features")]
    fn check_batch_input_rejects_width() {
        let x = Tensor::zeros(&[5, 7]);
        check_batch_input("t", &x, 3);
    }

    #[test]
    #[should_panic(expected = "expected [batch, features]")]
    fn check_batch_input_rejects_rank() {
        let x = Tensor::zeros(&[5]);
        check_batch_input("t", &x, 5);
    }
}
