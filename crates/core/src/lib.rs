//! The **fault sneaking attack** — the primary contribution of
//! *"Fault Sneaking Attack: a Stealthy Framework for Misleading Deep
//! Neural Networks"* (Zhao et al., DAC 2019).
//!
//! Given a trained classifier head and a working set of `R` images, the
//! attack computes a parameter modification `δ` such that
//!
//! 1. the first `S` images are classified as attacker-chosen target labels;
//! 2. the remaining `R − S` images keep their original classifications
//!    (stealth);
//! 3. `δ` is minimal under `‖·‖₀` (number of modified parameters) or
//!    `‖·‖₂` (modification magnitude).
//!
//! The optimization is solved with linearized scaled ADMM (paper
//! eqs. 7–22), one loop in [`FaultSneakingAttack::run`] over the
//! [`fsa_admm`] proximal operators:
//!
//! * z-step: hard thresholding (`ℓ0`, eq. 16) or block soft thresholding
//!   (`ℓ2`, eq. 18);
//! * δ-step: the closed-form linearized update of eq. 22,
//!   `δ^{k+1} = [ρ(z^{k+1}+sᵏ) + αRδᵏ − Σᵢ∇gᵢ(θ+δᵏ)] / (αR + ρ)`;
//! * dual: `s ← s + z − δ`.
//!
//! # Examples
//!
//! ```
//! use fsa_attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
//! use fsa_nn::head::FcHead;
//! use fsa_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::new(1);
//! let head = FcHead::from_dims(&[8, 16, 4], &mut rng);
//! let features = Tensor::randn(&[5, 8], 1.0, &mut rng);
//! let labels = head.predict(&features);
//! // Flip image 0 to a different class; keep the other four unchanged.
//! let target = (labels[0] + 1) % 4;
//! let spec = AttackSpec::new(features, labels, vec![target]);
//! let selection = ParamSelection::last_layer(&head);
//! let result = FaultSneakingAttack::new(&head, selection, AttackConfig::default())
//!     .run(&spec);
//! assert!(result.delta.iter().all(|d| d.is_finite()));
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod eval;
pub mod objective;
pub mod precision;
pub mod refine;
pub mod selection;
pub mod solver;
pub mod spec;
pub mod stealth;

pub use campaign::{
    AttackMethod, Campaign, CampaignReport, CampaignSpec, FsaMethod, Scenario, ScenarioDraw,
    ScenarioOutcome, SparsityBudget, SpecError,
};
pub use precision::{Precision, QuantizedSelection};
pub use selection::{ParamKind, ParamSelection};
pub use solver::{AttackConfig, AttackResult, FaultSneakingAttack, IterStats, Norm};
pub use spec::AttackSpec;
pub use stealth::{ParityRepair, StealthObjective};
