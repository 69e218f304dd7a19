//! Elementwise activation layers.

use crate::layer::{check_batch_input, Layer};
use fsa_tensor::Tensor;

/// Rectified linear unit: `y = max(x, 0)`.
///
/// The layer is stateless; its slice helpers also serve the FC head,
/// whose backward pass masks gradients with [`Relu::mask_slice`] (the
/// subgradient at exactly zero is taken as zero, the standard
/// convention).
#[derive(Debug, Clone)]
pub struct Relu {
    features: usize,
}

impl Relu {
    /// Creates a ReLU over `features`-wide activations.
    pub fn new(features: usize) -> Self {
        Self { features }
    }

    /// Applies ReLU to a raw slice (used by the truncated attack head).
    pub fn apply_slice(xs: &mut [f32]) {
        for v in xs {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Masks `grad` by the positivity of `input` (in place).
    pub fn mask_slice(grad: &mut [f32], input: &[f32]) {
        for (g, &x) in grad.iter_mut().zip(input) {
            if x <= 0.0 {
                *g = 0.0;
            }
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn in_features(&self) -> usize {
        self.features
    }

    fn out_features(&self) -> usize {
        self.features
    }

    fn forward_infer(&self, x: &Tensor) -> Tensor {
        check_batch_input("relu", x, self.features);
        x.map(|v| v.max(0.0))
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let r = Relu::new(4);
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], &[1, 4]);
        assert_eq!(r.forward_infer(&x).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn slice_helpers_agree_with_layer() {
        let mut xs = vec![-2.0, 3.0, -0.1, 0.0];
        Relu::apply_slice(&mut xs);
        assert_eq!(xs, vec![0.0, 3.0, 0.0, 0.0]);

        let mut grad = vec![1.0, 1.0, 1.0, 1.0];
        Relu::mask_slice(&mut grad, &[-2.0, 3.0, -0.1, 0.0]);
        assert_eq!(grad, vec![0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn stateless_param_api() {
        let mut r = Relu::new(2);
        assert_eq!(r.param_count(), 0);
        let mut called = false;
        r.visit_params(&mut |_| called = true);
        assert!(!called);
    }
}
