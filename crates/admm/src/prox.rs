//! Proximal operators.
//!
//! `prox_{λf/ρ}(v) = argmin_z λ·f(z) + (ρ/2)‖z − v‖²` for the paper's
//! two measurements `ℓ0` and `ℓ2`, plain and checksum-block-structured.
//! Closed forms follow Parikh & Boyd, *Proximal Algorithms* (2014) —
//! reference \[34\] of the paper.

/// Proximal operator of `λ‖·‖₀`: elementwise **hard thresholding**.
///
/// Keeps `v_i` iff `v_i² > 2λ/ρ`, else zero (paper eq. 16 with `λ = 1`).
///
/// # Panics
///
/// Panics if `out.len() != v.len()` or `rho <= 0`.
pub fn hard_threshold(v: &[f32], lambda: f32, rho: f32, out: &mut [f32]) {
    assert_eq!(v.len(), out.len(), "prox output length mismatch");
    assert!(rho > 0.0, "rho must be positive");
    let cut = 2.0 * lambda / rho;
    for (o, &x) in out.iter_mut().zip(v) {
        *o = if x * x > cut { x } else { 0.0 };
    }
}

/// Proximal operator of `λ‖·‖₂` (the norm, **not** squared): **block soft
/// thresholding** — shrinks the whole vector toward the origin
/// (paper eq. 18 with `λ = 1`).
///
/// # Panics
///
/// Panics if `out.len() != v.len()` or `rho <= 0`.
pub fn block_soft_threshold(v: &[f32], lambda: f32, rho: f32, out: &mut [f32]) {
    assert_eq!(v.len(), out.len(), "prox output length mismatch");
    assert!(rho > 0.0, "rho must be positive");
    let norm = fsa_tensor::norms::l2(v);
    let t = lambda / rho;
    if norm <= t || norm == 0.0 {
        out.fill(0.0);
    } else {
        let scale = 1.0 - t / norm;
        for (o, &x) in out.iter_mut().zip(v) {
            *o = scale * x;
        }
    }
}

/// Asserts `blocks` partitions `0..len` into contiguous ordered ranges.
fn check_partition(blocks: &[std::ops::Range<usize>], len: usize) {
    let mut next = 0;
    for r in blocks {
        assert_eq!(r.start, next, "blocks must tile the vector in order");
        assert!(r.end >= r.start, "empty-backwards block");
        next = r.end;
    }
    assert_eq!(next, len, "blocks must cover the whole vector");
}

/// Proximal operator of the **block-structured ℓ0** penalty
/// `λ‖z‖₀ + λ_b·#{blocks containing a non-zero}` — the detector-aware
/// sparsity objective: a checksum monitor audits `block`-sized regions,
/// so what an attack pays for is *dirty blocks*, not just non-zeros.
///
/// Exactly separable per block. Within a block the elementwise keep rule
/// is [`hard_threshold`]'s (`v_i² > 2λ/ρ`) and each kept element
/// contributes gain `ρ/2·v_i² − λ`; the block survives iff the summed
/// gain **exceeds** `λ_b` (ties zero the block — the stealthy side).
/// With `λ_b = 0` this degenerates to plain [`hard_threshold`].
/// `blocks` must tile `0..v.len()` with contiguous ordered ranges —
/// align them to the monitored block boundaries.
///
/// # Panics
///
/// Panics if `out.len() != v.len()`, `rho <= 0`, `block_lambda < 0`, or
/// `blocks` does not tile the vector.
pub fn block_hard_threshold(
    v: &[f32],
    lambda: f32,
    block_lambda: f32,
    rho: f32,
    blocks: &[std::ops::Range<usize>],
    out: &mut [f32],
) {
    assert_eq!(v.len(), out.len(), "prox output length mismatch");
    assert!(rho > 0.0, "rho must be positive");
    assert!(block_lambda >= 0.0, "block penalty must be non-negative");
    check_partition(blocks, v.len());
    let cut = 2.0 * lambda / rho;
    for r in blocks {
        // Fixed-order f64 gain accumulation: deterministic at any
        // thread count (the prox itself is always called serially per
        // vector).
        let mut gain = 0.0f64;
        for &x in &v[r.clone()] {
            if x * x > cut {
                gain += 0.5 * f64::from(rho) * f64::from(x) * f64::from(x) - f64::from(lambda);
            }
        }
        if gain > f64::from(block_lambda) {
            for i in r.clone() {
                out[i] = if v[i] * v[i] > cut { v[i] } else { 0.0 };
            }
        } else {
            out[r.clone()].fill(0.0);
        }
    }
}

/// Proximal operator of the **block-structured ℓ2** penalty
/// `λ·Σ_B ‖z_B‖₂ + λ_b·#{non-zero blocks}` — group soft thresholding
/// with a per-block activation charge, the ℓ2-budget analogue of
/// [`block_hard_threshold`] (a dense δ confined to few monitored
/// blocks instead of a sparse one).
///
/// Per block: the shrunk candidate is [`block_soft_threshold`] of the
/// block; it survives iff its objective value beats zeroing the block
/// outright (ties zero it). With `λ_b = 0` and a single block this is
/// exactly [`block_soft_threshold`].
///
/// # Panics
///
/// Panics if `out.len() != v.len()`, `rho <= 0`, `block_lambda < 0`, or
/// `blocks` does not tile the vector.
pub fn block_soft_threshold_grouped(
    v: &[f32],
    lambda: f32,
    block_lambda: f32,
    rho: f32,
    blocks: &[std::ops::Range<usize>],
    out: &mut [f32],
) {
    assert_eq!(v.len(), out.len(), "prox output length mismatch");
    assert!(rho > 0.0, "rho must be positive");
    assert!(block_lambda >= 0.0, "block penalty must be non-negative");
    check_partition(blocks, v.len());
    let t = lambda / rho;
    for r in blocks {
        let s = fsa_tensor::norms::l2(&v[r.clone()]);
        if s <= t || s == 0.0 {
            out[r.clone()].fill(0.0);
            continue;
        }
        // Keep iff λ(s−t) + λ_b + ρt²/2 < ρs²/2 (the shrunk candidate's
        // objective vs zeroing the block).
        let keep = f64::from(lambda) * f64::from(s - t)
            + f64::from(block_lambda)
            + 0.5 * f64::from(rho) * f64::from(t) * f64::from(t);
        let zero = 0.5 * f64::from(rho) * f64::from(s) * f64::from(s);
        if keep < zero {
            let scale = 1.0 - t / s;
            for i in r.clone() {
                out[i] = scale * v[i];
            }
        } else {
            out[r.clone()].fill(0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    #[test]
    fn hard_threshold_boundary() {
        // cut = 2λ/ρ = 1.0 → |v| > 1 kept.
        let v = [0.99, 1.01, -1.01, -0.99, 0.0];
        let mut z = [0.0; 5];
        hard_threshold(&v, 0.5, 1.0, &mut z);
        assert_eq!(z, [0.0, 1.01, -1.01, 0.0, 0.0]);
    }

    #[test]
    fn block_soft_threshold_matches_paper_eq18() {
        // ‖v‖ = 5, ρ = 1, λ = 1 → scale = 1 − 1/5 = 0.8.
        let v = [3.0, 4.0];
        let mut z = [0.0; 2];
        block_soft_threshold(&v, 1.0, 1.0, &mut z);
        assert!((z[0] - 2.4).abs() < 1e-6 && (z[1] - 3.2).abs() < 1e-6);

        // ‖v‖ < 1/ρ → zero.
        let v = [0.3, 0.4];
        block_soft_threshold(&v, 1.0, 1.0, &mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    /// A paper penalty `f`: its value `λ·f(z)` and its prox.
    type Penalty = (fn(&[f32], f32) -> f32, fn(&[f32], f32, f32, &mut [f32]));

    /// `λ‖z‖₀` with [`hard_threshold`] and `λ‖z‖₂` with
    /// [`block_soft_threshold`].
    const PENALTIES: [Penalty; 2] = [
        (
            |z, lambda| lambda * fsa_tensor::norms::l0(z, 0.0) as f32,
            hard_threshold,
        ),
        (
            |z, lambda| lambda * fsa_tensor::norms::l2(z),
            block_soft_threshold,
        ),
    ];

    /// The variational property defining a prox: the returned point must
    /// achieve an objective no worse than any probe point.
    fn prox_objective(
        pen: fn(&[f32], f32) -> f32,
        z: &[f32],
        v: &[f32],
        lambda: f32,
        rho: f32,
    ) -> f64 {
        let pen = pen(z, lambda) as f64;
        let quad: f64 = z
            .iter()
            .zip(v)
            .map(|(&a, &b)| {
                let d = (a - b) as f64;
                d * d
            })
            .sum();
        pen + 0.5 * rho as f64 * quad
    }

    #[test]
    fn prox_minimizes_its_objective() {
        let mut rng = Prng::new(2024);
        for _ in 0..256 {
            let len = 1 + rng.below(11);
            let v: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let probe: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let lambda = rng.uniform(0.1, 2.0);
            let rho = rng.uniform(0.2, 5.0);
            for (k, (pen, prox)) in PENALTIES.into_iter().enumerate() {
                let mut z = vec![0.0; v.len()];
                prox(&v, lambda, rho, &mut z);
                let best = prox_objective(pen, &z, &v, lambda, rho);
                // Probe candidates: random point, v itself, zero.
                for c in [probe.clone(), v.clone(), vec![0.0; v.len()]] {
                    let other = prox_objective(pen, &c, &v, lambda, rho);
                    assert!(best <= other + 1e-3, "penalty {k}: {best} > {other}");
                }
            }
        }
    }

    /// `λ‖z‖₀ + λ_b·#dirty(z) + ρ/2‖z−v‖²` for a candidate `z`.
    fn block_l0_objective(
        z: &[f32],
        v: &[f32],
        lambda: f32,
        block_lambda: f32,
        rho: f32,
        blocks: &[std::ops::Range<usize>],
    ) -> f64 {
        let mut obj = 0.0f64;
        for r in blocks {
            if z[r.clone()].iter().any(|&x| x != 0.0) {
                obj += f64::from(block_lambda);
            }
        }
        for (&zi, &vi) in z.iter().zip(v) {
            if zi != 0.0 {
                obj += f64::from(lambda);
            }
            obj += 0.5 * f64::from(rho) * f64::from(zi - vi) * f64::from(zi - vi);
        }
        obj
    }

    /// `Σ_B (λ‖z_B‖₂ + λ_b·1[z_B≠0]) + ρ/2‖z−v‖²`.
    fn block_l2_objective(
        z: &[f32],
        v: &[f32],
        lambda: f32,
        block_lambda: f32,
        rho: f32,
        blocks: &[std::ops::Range<usize>],
    ) -> f64 {
        let mut obj = 0.0f64;
        for r in blocks {
            let s = fsa_tensor::norms::l2(&z[r.clone()]);
            obj += f64::from(lambda) * f64::from(s);
            if s != 0.0 {
                obj += f64::from(block_lambda);
            }
        }
        for (&zi, &vi) in z.iter().zip(v) {
            obj += 0.5 * f64::from(rho) * f64::from(zi - vi) * f64::from(zi - vi);
        }
        obj
    }

    /// Random contiguous tiling of `0..len` into 1..=len blocks.
    fn random_blocks(len: usize, rng: &mut Prng) -> Vec<std::ops::Range<usize>> {
        let mut blocks = Vec::new();
        let mut start = 0;
        while start < len {
            let width = 1 + rng.below(3).min(len - start - 1);
            blocks.push(start..start + width);
            start += width;
        }
        blocks
    }

    #[test]
    fn block_hard_threshold_is_the_exact_minimizer() {
        // Any ℓ0-penalty minimizer keeps coordinates at their input value,
        // so enumerating z = v|S over every support S covers the entire
        // candidate class; the prox must match the enumerated optimum.
        let mut rng = Prng::new(41);
        for _ in 0..128 {
            let len = 1 + rng.below(8);
            let v: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let blocks = random_blocks(len, &mut rng);
            let lambda = rng.uniform(0.1, 2.0);
            let block_lambda = rng.uniform(0.0, 3.0);
            let rho = rng.uniform(0.2, 5.0);
            let mut z = vec![0.0; len];
            block_hard_threshold(&v, lambda, block_lambda, rho, &blocks, &mut z);
            let got = block_l0_objective(&z, &v, lambda, block_lambda, rho, &blocks);
            let mut best = f64::INFINITY;
            for mask in 0u32..1 << len {
                let cand: Vec<f32> = (0..len)
                    .map(|i| if mask >> i & 1 == 1 { v[i] } else { 0.0 })
                    .collect();
                best = best.min(block_l0_objective(
                    &cand,
                    &v,
                    lambda,
                    block_lambda,
                    rho,
                    &blocks,
                ));
            }
            assert!(
                got <= best + 1e-6,
                "prox {got} worse than enumerated optimum {best}"
            );
        }
    }

    #[test]
    fn block_hard_threshold_without_block_penalty_is_plain() {
        let mut rng = Prng::new(42);
        let v: Vec<f32> = (0..24).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let blocks: Vec<_> = (0..6).map(|b| 4 * b..4 * (b + 1)).collect();
        let mut grouped = vec![0.0; 24];
        let mut plain = vec![0.0; 24];
        block_hard_threshold(&v, 0.7, 0.0, 1.3, &blocks, &mut grouped);
        hard_threshold(&v, 0.7, 1.3, &mut plain);
        assert_eq!(grouped, plain);
    }

    #[test]
    fn block_penalty_zeroes_marginal_blocks() {
        // cut = 2λ/ρ = 1: block 0 holds one strong survivor (gain
        // ρ/2·9−λ = 4), block 1 only a marginal one (gain ρ/2·1.21−λ
        // ≈ 0.105). λ_b = 1 keeps the strong block, wipes the marginal.
        let v = [3.0, 0.2, 1.1, 0.9];
        let blocks = [0..2, 2..4];
        let mut z = [0.0f32; 4];
        block_hard_threshold(&v, 0.5, 1.0, 1.0, &blocks, &mut z);
        assert_eq!(z, [3.0, 0.0, 0.0, 0.0]);
        // Without the block charge the marginal survivor stays.
        block_hard_threshold(&v, 0.5, 0.0, 1.0, &blocks, &mut z);
        assert_eq!(z, [3.0, 0.0, 1.1, 0.0]);
    }

    #[test]
    fn grouped_soft_threshold_single_block_matches_plain() {
        let mut rng = Prng::new(43);
        let v: Vec<f32> = (0..9).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let mut grouped = vec![0.0; 9];
        let mut plain = vec![0.0; 9];
        let whole = std::slice::from_ref(&(0..9));
        block_soft_threshold_grouped(&v, 0.8, 0.0, 1.1, whole, &mut grouped);
        block_soft_threshold(&v, 0.8, 1.1, &mut plain);
        assert_eq!(grouped, plain);
    }

    #[test]
    fn grouped_soft_threshold_minimizes_its_objective() {
        let mut rng = Prng::new(44);
        for _ in 0..128 {
            let len = 1 + rng.below(8);
            let v: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let blocks = random_blocks(len, &mut rng);
            let lambda = rng.uniform(0.1, 2.0);
            let block_lambda = rng.uniform(0.0, 2.0);
            let rho = rng.uniform(0.2, 5.0);
            let mut z = vec![0.0; len];
            block_soft_threshold_grouped(&v, lambda, block_lambda, rho, &blocks, &mut z);
            let got = block_l2_objective(&z, &v, lambda, block_lambda, rho, &blocks);
            // Probes: v itself, all-zero, a random point, and per-block
            // mixtures of (kept-shrunk, zeroed) other than the answer.
            let probe: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let mut shrunk = vec![0.0; len];
            let t = lambda / rho;
            for r in &blocks {
                let s = fsa_tensor::norms::l2(&v[r.clone()]);
                if s > t {
                    for i in r.clone() {
                        shrunk[i] = (1.0 - t / s) * v[i];
                    }
                }
            }
            for c in [v.clone(), vec![0.0; len], probe, shrunk] {
                let other = block_l2_objective(&c, &v, lambda, block_lambda, rho, &blocks);
                assert!(got <= other + 1e-4, "prox {got} worse than probe {other}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "blocks must cover")]
    fn block_prox_rejects_partial_tilings() {
        let v = [1.0f32; 4];
        let mut z = [0.0f32; 4];
        block_hard_threshold(&v, 0.5, 0.5, 1.0, std::slice::from_ref(&(0..2)), &mut z);
    }

    #[test]
    fn prox_is_shrinking() {
        let mut rng = Prng::new(2025);
        for _ in 0..256 {
            let len = 1 + rng.below(11);
            let v: Vec<f32> = (0..len).map(|_| rng.uniform(-3.0, 3.0)).collect();
            let lambda = rng.uniform(0.1, 2.0);
            let rho = rng.uniform(0.2, 5.0);
            // Every supported prox maps each coordinate no farther from 0
            // than the input (nonexpansive toward the origin).
            for (_, prox) in PENALTIES {
                let mut z = vec![0.0; v.len()];
                prox(&v, lambda, rho, &mut z);
                for (zi, vi) in z.iter().zip(&v) {
                    assert!(zi.abs() <= vi.abs() + 1e-6);
                    // Sign is preserved or zeroed.
                    assert!(zi * vi >= 0.0);
                }
            }
        }
    }
}
