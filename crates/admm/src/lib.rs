//! Proximal operators for the fault sneaking attack's ADMM z-step.
//!
//! The attack (DAC'19) splits its objective `min_δ D(δ) + G(θ+δ)` with an
//! auxiliary variable `z = δ`; its loop lives in `fsa_attack::solver`.
//! The z-step is the proximal operator of `D` ([`prox`]): hard
//! thresholding for `ℓ0` (eq. 16), block soft thresholding for `ℓ2`
//! (eq. 18), and their checksum-block-structured forms for the
//! detector-aware objective.
//!
//! # Examples
//!
//! ```
//! use fsa_admm::prox::hard_threshold;
//!
//! // prox of λ‖·‖₀ at v with penalty ρ keeps v_i iff v_i² > 2λ/ρ.
//! let mut z = [0.0f32; 3];
//! hard_threshold(&[0.1, -3.0, 0.5], 1.0, 2.0, &mut z);
//! assert_eq!(z, [0.0, -3.0, 0.0]);
//! ```

#![warn(missing_docs)]

pub mod prox;
