//! Fully connected (dense) layer.

use crate::init;
use crate::layer::{check_batch_input, Layer};
use fsa_tensor::linalg::gemm_nt_bias;
use fsa_tensor::{Prng, Tensor};

/// A fully connected layer computing `y = x·Wᵀ + b`.
///
/// The weight is stored row-major as `[out_features, in_features]` and the
/// bias as `[out_features]` — the layout the paper's Table 1 counts
/// parameters over (`in·out + out`; e.g. the last MNIST FC layer has
/// `200·10 + 10 = 2010` parameters).
///
/// # Examples
///
/// ```
/// use fsa_nn::linear::Linear;
/// use fsa_nn::layer::Layer;
/// use fsa_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::new(1);
/// let fc = Linear::new_random(3, 2, &mut rng);
/// let y = fc.forward_infer(&Tensor::zeros(&[4, 3]));
/// assert_eq!(y.shape(), &[4, 2]);
/// assert_eq!(fc.param_count(), 3 * 2 + 2);
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Creates a layer with He-initialized weights and zero bias.
    pub fn new_random(in_features: usize, out_features: usize, rng: &mut Prng) -> Self {
        Self::from_params(
            init::he_normal(&[out_features, in_features], in_features, rng),
            Tensor::zeros(&[out_features]),
        )
    }

    /// Creates a layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or `bias` length differs from the
    /// weight's output dimension.
    pub fn from_params(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(
            weight.ndim(),
            2,
            "weight must be [out, in], got {:?}",
            weight.shape()
        );
        assert_eq!(
            bias.numel(),
            weight.shape()[0],
            "bias length {} does not match out_features {}",
            bias.numel(),
            weight.shape()[0]
        );
        Self { weight, bias }
    }

    /// The weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable access to the weight matrix.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable access to the bias vector.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Batched `y = x·Wᵀ + b` over plain slices: one
    /// [`gemm_nt_bias`] call (`W` is stored `out×in`) that writes each of
    /// the `batch·out` outputs once, bias included, with the bits of an NT
    /// GEMM into a zeroed `out` followed by a per-row bias add. The
    /// single implementation of the linear forward shared by this layer
    /// and the head's passes.
    ///
    /// # Panics
    ///
    /// Panics unless `x` holds exactly `batch·in` values and `out`
    /// exactly `batch·out`.
    pub(crate) fn forward_into(&self, x: &[f32], batch: usize, out: &mut [f32]) {
        let (o, i) = (self.out_features(), self.in_features());
        assert_eq!(x.len(), batch * i, "forward_into input length");
        assert_eq!(out.len(), batch * o, "forward_into output length");
        let (w, b) = (self.weight.as_slice(), self.bias.as_slice());
        gemm_nt_bias(batch, i, o, x, w, b, out);
    }
}

impl Layer for Linear {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }

    fn forward_infer(&self, x: &Tensor) -> Tensor {
        let batch = check_batch_input("linear", x, self.in_features());
        let mut y = Tensor::zeros(&[batch, self.out_features()]);
        self.forward_into(x.as_slice(), batch, y.as_mut_slice());
        y
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Linear {
        // W = [[1, 2], [3, 4], [5, 6]] (3 out, 2 in), b = [0.5, -0.5, 1.0]
        Linear::from_params(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            Tensor::from_vec(vec![0.5, -0.5, 1.0], &[3]),
        )
    }

    #[test]
    fn forward_matches_hand_computation() {
        let fc = tiny();
        let x = Tensor::from_vec(vec![1.0, 1.0, 2.0, -1.0], &[2, 2]);
        let y = fc.forward_infer(&x);
        // sample 0: [1+2, 3+4, 5+6] + b = [3.5, 6.5, 12.0]
        // sample 1: [2-2, 6-4, 10-6] + b = [0.5, 1.5, 5.0]
        assert_eq!(y.as_slice(), &[3.5, 6.5, 12.0, 0.5, 1.5, 5.0]);
    }

    #[test]
    fn param_count_matches_paper_last_layer() {
        let mut rng = Prng::new(0);
        let fc = Linear::new_random(200, 10, &mut rng);
        assert_eq!(fc.param_count(), 2010);
    }
}
