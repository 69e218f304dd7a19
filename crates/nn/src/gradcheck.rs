//! Finite-difference gradient checking.
//!
//! The workspace has one analytic backward pass, the FC head's
//! ([`FcHead::backward_from_cache`](crate::head::FcHead::backward_from_cache)),
//! and its tests validate it against central differences here. The
//! attack's correctness rests on that gradient (the δ-step of the ADMM
//! loop, eq. 22 of the paper, consumes `∇g_i`), as does the head's
//! training.

/// Central-difference numerical gradient of `f` at `x`.
///
/// `f` must be deterministic; it is called `2·x.len()` times.
pub fn numerical_gradient(mut f: impl FnMut(&[f32]) -> f32, x: &[f32], eps: f32) -> Vec<f32> {
    let mut grad = Vec::with_capacity(x.len());
    let mut probe = x.to_vec();
    for i in 0..x.len() {
        let orig = probe[i];
        probe[i] = orig + eps;
        let fp = f(&probe);
        probe[i] = orig - eps;
        let fm = f(&probe);
        probe[i] = orig;
        grad.push((fp - fm) / (2.0 * eps));
    }
    grad
}

/// Maximum relative error between two gradient vectors, with an absolute
/// floor so near-zero entries compare absolutely.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn max_rel_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "gradient length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-3))
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_gradient_is_exact() {
        // f(x) = sum x_i^2, grad = 2x.
        let x = [1.0f32, -2.0, 0.5];
        let g = numerical_gradient(|v| v.iter().map(|x| x * x).sum(), &x, 1e-3);
        for (gi, xi) in g.iter().zip(&x) {
            assert!((gi - 2.0 * xi).abs() < 1e-2, "{gi} vs {}", 2.0 * xi);
        }
    }

    #[test]
    fn rel_error_detects_mismatch() {
        assert!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]) < 1e-6);
        assert!(max_rel_error(&[1.0, 2.0], &[1.0, 3.0]) > 0.3);
    }
}
