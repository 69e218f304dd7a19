//! Weight initialization.

use fsa_tensor::{Prng, Tensor};

/// He (Kaiming) normal initialization for ReLU networks:
/// `N(0, sqrt(2 / fan_in))`.
pub fn he_normal(dims: &[usize], fan_in: usize, rng: &mut Prng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    Tensor::randn(dims, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn he_std_matches_fan_in() {
        let mut rng = Prng::new(0);
        let w = he_normal(&[200, 800], 800, &mut rng);
        let n = w.numel() as f32;
        let mean = w.sum() / n;
        let var = w.as_slice().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n;
        let expect = 2.0 / 800.0;
        assert!((var - expect).abs() < 0.2 * expect, "var {var} vs {expect}");
    }
}
