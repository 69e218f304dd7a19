//! Vector norms over `f32` slices.
//!
//! The fault sneaking attack measures parameter modifications `δ` with the
//! `ℓ0` pseudo-norm (number of modified parameters — hardware implementation
//! cost) and the `ℓ2` norm (modification magnitude). `ℓ1`/`ℓ∞` are provided
//! for diagnostics and tests.

/// Number of entries with magnitude strictly greater than `eps`.
///
/// With floating-point ADMM iterates, exact zero tests are meaningless on
/// the `δ` variable; the paper's `ℓ0` is evaluated on the hard-thresholded
/// `z` variable, but a small tolerance keeps the count robust either way.
///
/// # Examples
///
/// ```
/// assert_eq!(fsa_tensor::norms::l0(&[0.0, 1e-9, 0.5], 1e-6), 1);
/// ```
pub fn l0(xs: &[f32], eps: f32) -> usize {
    xs.iter().filter(|x| x.abs() > eps).count()
}

/// Sum of absolute values.
pub fn l1(xs: &[f32]) -> f32 {
    xs.iter().map(|x| x.abs() as f64).sum::<f64>() as f32
}

/// Euclidean norm, computed in `f64` to avoid overflow/cancellation.
pub fn l2(xs: &[f32]) -> f32 {
    (xs.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()).sqrt() as f32
}

/// Maximum absolute value (0 for an empty slice).
pub fn linf(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, x| m.max(x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn l0_counts_with_tolerance() {
        let xs = [0.0, 1e-8, -1e-8, 0.2, -3.0];
        assert_eq!(l0(&xs, 0.0), 4); // 1e-8 counts at eps=0
        assert_eq!(l0(&xs, 1e-6), 2);
        assert_eq!(l0(&xs, 10.0), 0);
    }

    #[test]
    fn classic_345_triangle() {
        let xs = [3.0, -4.0];
        assert_eq!(l1(&xs), 7.0);
        assert_eq!(l2(&xs), 5.0);
        assert_eq!(linf(&xs), 4.0);
    }

    #[test]
    fn empty_slices() {
        assert_eq!(l0(&[], 0.0), 0);
        assert_eq!(l1(&[]), 0.0);
        assert_eq!(l2(&[]), 0.0);
        assert_eq!(linf(&[]), 0.0);
    }

    /// Seeded random vector for the property loops below.
    fn rand_vec(rng: &mut Prng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(lo, hi)).collect()
    }

    #[test]
    fn norm_chain_inequalities() {
        // linf <= l2 <= l1 for any vector.
        let mut rng = Prng::new(101);
        for _ in 0..256 {
            let len = 1 + rng.below(63);
            let xs = rand_vec(&mut rng, len, -100.0, 100.0);
            let inf = linf(&xs);
            let two = l2(&xs);
            let one = l1(&xs);
            assert!(inf <= two * (1.0 + 1e-5) + 1e-6, "{inf} > {two}");
            assert!(two <= one * (1.0 + 1e-5) + 1e-6, "{two} > {one}");
        }
    }

    #[test]
    fn l2_scales_homogeneously() {
        let mut rng = Prng::new(102);
        for _ in 0..256 {
            let len = 1 + rng.below(31);
            let xs = rand_vec(&mut rng, len, -10.0, 10.0);
            let c = rng.uniform(-4.0, 4.0);
            let scaled: Vec<f32> = xs.iter().map(|x| c * x).collect();
            let lhs = l2(&scaled);
            let rhs = c.abs() * l2(&xs);
            assert!(
                (lhs - rhs).abs() <= 1e-3 * (1.0 + rhs.abs()),
                "{lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn triangle_inequality() {
        let mut rng = Prng::new(103);
        for _ in 0..256 {
            let a = rand_vec(&mut rng, 16, -10.0, 10.0);
            let b = rand_vec(&mut rng, 16, -10.0, 10.0);
            let sum: Vec<f32> = a.iter().zip(b.iter()).map(|(x, y)| x + y).collect();
            assert!(l2(&sum) <= l2(&a) + l2(&b) + 1e-4);
        }
    }

    #[test]
    fn l0_bounded_by_len() {
        let mut rng = Prng::new(104);
        for _ in 0..256 {
            let len = rng.below(64);
            let xs = rand_vec(&mut rng, len.max(1), -1.0, 1.0);
            let xs = &xs[..len];
            let eps = rng.uniform(0.0, 0.5);
            assert!(l0(xs, eps) <= xs.len());
        }
    }

    /// Against the workspace's one `f32` dot product.
    #[test]
    fn cauchy_schwarz() {
        use crate::linalg::dot_slices;
        let mut rng = Prng::new(105);
        for _ in 0..256 {
            let a = rand_vec(&mut rng, 8, -10.0, 10.0);
            let b = rand_vec(&mut rng, 8, -10.0, 10.0);
            assert!(dot_slices(&a, &b).abs() <= l2(&a) * l2(&b) * (1.0 + 1e-4) + 1e-4);
        }
    }
}
