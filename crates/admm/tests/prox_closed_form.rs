//! Closed-form oracle tests for the proximal operators.
//!
//! Each prox has an analytic solution (Parikh & Boyd 2014; paper
//! eqs. 16/18): these tests recompute it coordinate-by-coordinate from
//! the definition and compare, including the **tie-breaking boundary**
//! where the quadratic and the penalty exactly balance — the point a
//! refactor is most likely to flip from `>` to `>=` and silently change
//! every ℓ0 support the attack reports.

use fsa_admm::prox::{block_soft_threshold, hard_threshold};
use fsa_tensor::{norms, Prng};

/// ℓ0 hard threshold: keep `v_i` iff `v_i² > 2λ/ρ`, else exactly zero.
#[test]
fn hard_threshold_matches_closed_form_on_random_inputs() {
    let mut rng = Prng::new(411);
    for _ in 0..200 {
        let len = 1 + rng.below(17);
        let v: Vec<f32> = (0..len).map(|_| rng.uniform(-4.0, 4.0)).collect();
        let lambda = rng.uniform(0.05, 3.0);
        let rho = rng.uniform(0.2, 6.0);
        let mut z = vec![f32::NAN; len];
        hard_threshold(&v, lambda, rho, &mut z);
        let cut = 2.0 * lambda / rho;
        for (i, (&zi, &vi)) in z.iter().zip(&v).enumerate() {
            let expect = if vi * vi > cut { vi } else { 0.0 };
            assert_eq!(zi, expect, "coordinate {i}: v = {vi}, cut = {cut}");
        }
    }
}

/// The kept coordinates pass through *unchanged* (hard thresholding
/// never shrinks), and the zeros are exact bit-zeros.
#[test]
fn hard_threshold_is_pass_through_or_exact_zero() {
    let v = [5.0f32, -3.25, 0.125, -0.0625];
    let mut z = [0.0f32; 4];
    hard_threshold(&v, 0.5, 1.0, &mut z); // cut = 1.0
    assert_eq!(z, [5.0, -3.25, 0.0, 0.0]);
    assert_eq!(z[2].to_bits(), 0.0f32.to_bits());
}

/// Tie-breaking: at `v² == 2λ/ρ` both `z = v` and `z = 0` achieve the
/// same objective; the implementation (paper eq. 16) must resolve the
/// tie toward **zero** (strict `>`), keeping reported ℓ0 supports
/// minimal.
#[test]
fn hard_threshold_boundary_ties_resolve_to_zero() {
    // λ = 0.5, ρ = 1 → cut = 1.0 exactly representable; |v| = 1 is the tie.
    let v = [1.0f32, -1.0, 1.0000001, -1.0000001, 0.9999999];
    let mut z = [9.0f32; 5];
    hard_threshold(&v, 0.5, 1.0, &mut z);
    assert_eq!(z, [0.0, 0.0, 1.0000001, -1.0000001, 0.0]);

    // A dyadic boundary with no rounding anywhere: cut = 0.25, |v| = 0.5.
    let v = [0.5f32, -0.5, 0.5000001];
    let mut z = [9.0f32; 3];
    hard_threshold(&v, 0.125, 1.0, &mut z);
    assert_eq!(z, [0.0, 0.0, 0.5000001]);
}

/// ℓ2 block shrinkage (paper eq. 18): `z = (1 − t/‖v‖)₊ · v` as a whole
/// block, zero when `‖v‖ ≤ t` — boundary inclusive.
#[test]
fn block_soft_threshold_matches_closed_form_on_random_inputs() {
    let mut rng = Prng::new(413);
    for _ in 0..200 {
        let len = 1 + rng.below(17);
        let v: Vec<f32> = (0..len).map(|_| rng.uniform(-4.0, 4.0)).collect();
        let lambda = rng.uniform(0.05, 3.0);
        let rho = rng.uniform(0.2, 6.0);
        let t = lambda / rho;
        let norm = norms::l2(&v);
        let mut z = vec![f32::NAN; len];
        block_soft_threshold(&v, lambda, rho, &mut z);
        if norm <= t {
            assert!(z.iter().all(|&zi| zi == 0.0), "inside the ball: z = 0");
        } else {
            let scale = 1.0 - t / norm;
            for (&zi, &vi) in z.iter().zip(&v) {
                let expect = scale * vi;
                assert!(
                    (zi - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
                    "{zi} vs closed form {expect}"
                );
            }
            // Direction is preserved exactly: z is a scalar multiple of v.
            for pair in z.iter().zip(&v) {
                assert!(pair.0 * pair.1 >= 0.0);
            }
        }
    }
}

/// Block-shrinkage tie: `‖v‖ == λ/ρ` exactly → the whole block zeros.
#[test]
fn block_soft_threshold_boundary_ties_resolve_to_zero() {
    // v = (3, 4)/5 · 2.5 → ‖v‖ = 2.5 exactly (3-4-5 scaled by 0.5).
    let v = [1.5f32, 2.0];
    let mut z = [9.0f32; 2];
    block_soft_threshold(&v, 2.5, 1.0, &mut z); // t = 2.5 = ‖v‖
    assert_eq!(z, [0.0, 0.0]);
    // Just outside the ball the block survives with a positive scale.
    block_soft_threshold(&v, 2.4, 1.0, &mut z);
    assert!(z[0] > 0.0 && z[1] > 0.0);
}
