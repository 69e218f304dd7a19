//! Generic scaled-form ADMM driver.
//!
//! Solves `min_δ D(z) + G(δ)  s.t. z = δ` by alternating a proximal z-step,
//! a problem-defined δ-step, and the scaled dual update `s ← s + z − δ`
//! (paper eqs. 10–12). Residual definitions follow Boyd et al. (2011),
//! reference \[32\] of the paper.

use crate::penalty::RhoPolicy;
use fsa_tensor::norms;

/// A problem instance plugged into [`AdmmDriver`].
pub trait AdmmProblem {
    /// Dimension of the split variables.
    fn dim(&self) -> usize;

    /// z-step: store `argmin_z D(z) + (ρ/2)‖z − v‖²` into `out`
    /// (`v = δᵏ − sᵏ`).
    fn prox_step(&mut self, v: &[f32], rho: f32, out: &mut [f32]);

    /// δ-step: given `z^{k+1}` and `sᵏ`, update `delta` toward
    /// `argmin_δ G(δ) + (ρ/2)‖z^{k+1} − δ + sᵏ‖²`.
    ///
    /// `delta` holds `δᵏ` on entry and must hold `δ^{k+1}` on return
    /// (exact minimization is not required; the attack takes one
    /// linearized step, eq. 22).
    fn delta_step(&mut self, z_new: &[f32], s: &[f32], rho: f32, delta: &mut [f32]);
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct AdmmConfig {
    /// Initial penalty ρ.
    pub rho: f32,
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Absolute feasibility tolerance on `‖z − δ‖₂ / sqrt(n)`.
    pub primal_tol: f32,
    /// Tolerance on the dual residual `ρ‖δ^{k+1} − δᵏ‖₂ / sqrt(n)`.
    pub dual_tol: f32,
    /// Penalty adaptation policy.
    pub rho_policy: RhoPolicy,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        Self {
            rho: 1.0,
            max_iterations: 100,
            primal_tol: 1e-5,
            dual_tol: 1e-5,
            rho_policy: RhoPolicy::Fixed,
        }
    }
}

/// Per-iteration diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStats {
    /// Iteration index (0-based).
    pub iter: usize,
    /// `‖z − δ‖₂` after the updates.
    pub primal_residual: f32,
    /// `ρ‖δ^{k+1} − δᵏ‖₂`.
    pub dual_residual: f32,
    /// Penalty in effect during the iteration.
    pub rho: f32,
}

/// Final state returned by [`AdmmDriver::run`].
#[derive(Debug, Clone)]
pub struct AdmmResult {
    /// Final auxiliary variable (carries the structure of `D`, e.g.
    /// exact sparsity under `ℓ0`).
    pub z: Vec<f32>,
    /// Final primal variable.
    pub delta: Vec<f32>,
    /// Final scaled dual.
    pub s: Vec<f32>,
    /// Per-iteration history.
    pub history: Vec<IterStats>,
    /// Whether both residual tolerances were met before the iteration cap.
    pub converged: bool,
}

/// Runs scaled ADMM on an [`AdmmProblem`].
#[derive(Debug, Clone, Default)]
pub struct AdmmDriver {
    config: AdmmConfig,
}

impl AdmmDriver {
    /// Creates a driver with the given configuration.
    pub fn new(config: AdmmConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AdmmConfig {
        &self.config
    }

    /// Runs the iteration from `δ⁰ = z⁰ = delta0`, `s⁰ = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `delta0.len() != problem.dim()`.
    pub fn run(&self, problem: &mut dyn AdmmProblem, delta0: &[f32]) -> AdmmResult {
        let _span = fsa_telemetry::span("admm");
        let n = problem.dim();
        assert_eq!(delta0.len(), n, "initial point has wrong dimension");
        let inv_sqrt_n = 1.0 / (n.max(1) as f32).sqrt();

        let mut delta = delta0.to_vec();
        let mut z = delta0.to_vec();
        let mut s = vec![0.0f32; n];
        let mut v = vec![0.0f32; n];
        let mut delta_prev = vec![0.0f32; n];
        let mut rho = self.config.rho;
        let mut history = Vec::with_capacity(self.config.max_iterations);
        let mut converged = false;

        for iter in 0..self.config.max_iterations {
            // z-step on v = δᵏ − sᵏ.
            for i in 0..n {
                v[i] = delta[i] - s[i];
            }
            problem.prox_step(&v, rho, &mut z);

            // δ-step.
            delta_prev.copy_from_slice(&delta);
            problem.delta_step(&z, &s, rho, &mut delta);

            // Dual update s ← s + z − δ.
            for i in 0..n {
                s[i] += z[i] - delta[i];
            }

            // Residuals.
            let primal = {
                let mut acc = 0.0f64;
                for i in 0..n {
                    let d = (z[i] - delta[i]) as f64;
                    acc += d * d;
                }
                acc.sqrt() as f32
            };
            let dual = {
                let mut acc = 0.0f64;
                for i in 0..n {
                    let d = (delta[i] - delta_prev[i]) as f64;
                    acc += d * d;
                }
                rho * acc.sqrt() as f32
            };
            history.push(IterStats {
                iter,
                primal_residual: primal,
                dual_residual: dual,
                rho,
            });

            if primal * inv_sqrt_n < self.config.primal_tol
                && dual * inv_sqrt_n < self.config.dual_tol
            {
                converged = true;
                break;
            }

            // Penalty adaptation with scaled-dual rescaling.
            let new_rho = self.config.rho_policy.update(rho, primal, dual);
            if (new_rho - rho).abs() > f32::EPSILON {
                let scale = rho / new_rho;
                for si in &mut s {
                    *si *= scale;
                }
                rho = new_rho;
            }
        }

        // Telemetry (identity-only): iteration totals and convergence
        // tallies; the per-iteration residual records stay in `history`
        // and are bridged into convergence traces by the attack layer,
        // which also knows objective/support/keep-set state.
        if fsa_telemetry::enabled() {
            fsa_telemetry::counter("admm.runs", 1);
            fsa_telemetry::counter("admm.iterations", history.len() as u64);
            fsa_telemetry::counter(
                if converged {
                    "admm.converged"
                } else {
                    "admm.hit_cap"
                },
                1,
            );
        }
        AdmmResult {
            z,
            delta,
            s,
            history,
            converged,
        }
    }
}

/// Feasibility gap `‖z − δ‖₂` of a result.
pub fn feasibility_gap(result: &AdmmResult) -> f32 {
    let diff: Vec<f32> = result
        .z
        .iter()
        .zip(&result.delta)
        .map(|(a, b)| a - b)
        .collect();
    norms::l2(&diff)
}

#[cfg(test)]
// The Lasso oracle below is deliberately written as textbook index
// arithmetic — clearer to check against the math than iterator chains.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::prox::soft_threshold;
    use fsa_tensor::Prng;

    /// Lasso: min ½‖Ax − b‖² + λ‖x‖₁, split as z (ℓ1) / δ (quadratic).
    ///
    /// δ-step solves (AᵀA + ρI)δ = Aᵀb + ρ(z + s) by Gauss elimination —
    /// tiny systems only, this is a correctness oracle.
    struct Lasso {
        a: Vec<f32>, // m×n row-major
        b: Vec<f32>,
        m: usize,
        n: usize,
        lambda: f32,
    }

    impl Lasso {
        fn atb(&self) -> Vec<f32> {
            let mut out = vec![0.0; self.n];
            for i in 0..self.m {
                for j in 0..self.n {
                    out[j] += self.a[i * self.n + j] * self.b[i];
                }
            }
            out
        }

        fn ata(&self) -> Vec<f32> {
            let mut out = vec![0.0; self.n * self.n];
            for i in 0..self.m {
                for j in 0..self.n {
                    for k in 0..self.n {
                        out[j * self.n + k] += self.a[i * self.n + j] * self.a[i * self.n + k];
                    }
                }
            }
            out
        }

        /// Gradient of the smooth part at x: Aᵀ(Ax − b).
        fn smooth_grad(&self, x: &[f32]) -> Vec<f32> {
            let mut r = vec![0.0; self.m];
            for i in 0..self.m {
                let mut acc = -self.b[i];
                for j in 0..self.n {
                    acc += self.a[i * self.n + j] * x[j];
                }
                r[i] = acc;
            }
            let mut g = vec![0.0; self.n];
            for i in 0..self.m {
                for j in 0..self.n {
                    g[j] += self.a[i * self.n + j] * r[i];
                }
            }
            g
        }
    }

    fn solve_dense(mut a: Vec<f32>, mut b: Vec<f32>, n: usize) -> Vec<f32> {
        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            let mut piv = col;
            for r in col + 1..n {
                if a[r * n + col].abs() > a[piv * n + col].abs() {
                    piv = r;
                }
            }
            for k in 0..n {
                a.swap(col * n + k, piv * n + k);
            }
            b.swap(col, piv);
            let d = a[col * n + col];
            for r in col + 1..n {
                let f = a[r * n + col] / d;
                for k in col..n {
                    a[r * n + k] -= f * a[col * n + k];
                }
                b[r] -= f * b[col];
            }
        }
        let mut x = vec![0.0; n];
        for r in (0..n).rev() {
            let mut acc = b[r];
            for k in r + 1..n {
                acc -= a[r * n + k] * x[k];
            }
            x[r] = acc / a[r * n + r];
        }
        x
    }

    impl AdmmProblem for Lasso {
        fn dim(&self) -> usize {
            self.n
        }

        fn prox_step(&mut self, v: &[f32], rho: f32, out: &mut [f32]) {
            soft_threshold(v, self.lambda, rho, out);
        }

        fn delta_step(&mut self, z_new: &[f32], s: &[f32], rho: f32, delta: &mut [f32]) {
            let mut lhs = self.ata();
            for j in 0..self.n {
                lhs[j * self.n + j] += rho;
            }
            let mut rhs = self.atb();
            for j in 0..self.n {
                rhs[j] += rho * (z_new[j] + s[j]);
            }
            let x = solve_dense(lhs, rhs, self.n);
            delta.copy_from_slice(&x);
        }
    }

    fn make_lasso(
        seed: u64,
        m: usize,
        n: usize,
        sparsity: usize,
        lambda: f32,
    ) -> (Lasso, Vec<f32>) {
        let mut rng = Prng::new(seed);
        let mut a = vec![0.0f32; m * n];
        rng.fill_normal(&mut a, 1.0 / (m as f32).sqrt());
        let mut x_true = vec![0.0f32; n];
        let support = rng.choose_distinct(n, sparsity);
        for &j in &support {
            x_true[j] = if rng.bernoulli(0.5) { 2.0 } else { -2.0 };
        }
        let mut b = vec![0.0f32; m];
        for i in 0..m {
            for j in 0..n {
                b[i] += a[i * n + j] * x_true[j];
            }
        }
        (Lasso { a, b, m, n, lambda }, x_true)
    }

    #[test]
    fn lasso_satisfies_kkt_conditions() {
        let (mut lasso, _) = make_lasso(3, 30, 10, 3, 0.05);
        let driver = AdmmDriver::new(AdmmConfig {
            rho: 1.0,
            max_iterations: 500,
            primal_tol: 1e-6,
            dual_tol: 1e-6,
            rho_policy: RhoPolicy::Fixed,
        });
        let result = driver.run(&mut lasso, &[0.0; 10]);
        assert!(result.converged, "lasso ADMM did not converge");
        assert!(feasibility_gap(&result) < 1e-4);

        // KKT: for z_j ≠ 0, grad_j + λ·sign(z_j) ≈ 0; for z_j = 0,
        // |grad_j| ≤ λ (+ slack).
        let g = lasso.smooth_grad(&result.z);
        for (j, (&zj, &gj)) in result.z.iter().zip(&g).enumerate() {
            if zj.abs() > 1e-6 {
                let station = gj + lasso.lambda * zj.signum();
                assert!(station.abs() < 5e-3, "coord {j}: stationarity {station}");
            } else {
                assert!(
                    gj.abs() <= lasso.lambda + 5e-3,
                    "coord {j}: |grad| {gj} > λ"
                );
            }
        }
    }

    #[test]
    fn lasso_recovers_sparse_support() {
        let (mut lasso, x_true) = make_lasso(7, 40, 12, 3, 0.02);
        let driver = AdmmDriver::new(AdmmConfig {
            rho: 1.0,
            max_iterations: 800,
            primal_tol: 1e-6,
            dual_tol: 1e-6,
            rho_policy: RhoPolicy::ResidualBalance { mu: 10.0, tau: 2.0 },
        });
        let result = driver.run(&mut lasso, &[0.0; 12]);
        for (j, (&zj, &tj)) in result.z.iter().zip(&x_true).enumerate() {
            if tj.abs() > 0.5 {
                assert!(
                    zj.abs() > 0.5,
                    "coord {j} should be active ({zj} vs true {tj})"
                );
                assert_eq!(zj.signum(), tj.signum(), "coord {j} sign");
            } else {
                assert!(zj.abs() < 0.3, "coord {j} should be ~zero, got {zj}");
            }
        }
    }

    #[test]
    fn history_is_recorded_and_rho_adapts() {
        let (mut lasso, _) = make_lasso(11, 20, 6, 2, 0.05);
        let driver = AdmmDriver::new(AdmmConfig {
            rho: 100.0, // deliberately bad start
            max_iterations: 300,
            primal_tol: 1e-7,
            dual_tol: 1e-7,
            rho_policy: RhoPolicy::ResidualBalance { mu: 10.0, tau: 2.0 },
        });
        let result = driver.run(&mut lasso, &[0.0; 6]);
        assert!(!result.history.is_empty());
        let rhos: Vec<f32> = result.history.iter().map(|h| h.rho).collect();
        assert!(
            rhos.iter().any(|&r| r < 100.0),
            "rho never adapted: {rhos:?}"
        );
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn dimension_mismatch_panics() {
        let (mut lasso, _) = make_lasso(1, 5, 4, 1, 0.1);
        AdmmDriver::new(AdmmConfig::default()).run(&mut lasso, &[0.0; 3]);
    }
}
