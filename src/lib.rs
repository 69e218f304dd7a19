//! # fault-sneaking
//!
//! A from-scratch Rust reproduction of *"Fault Sneaking Attack: a Stealthy
//! Framework for Misleading Deep Neural Networks"* (Zhao et al., DAC 2019):
//! modify a trained DNN's parameters so that chosen images flip to
//! attacker-designated labels while every other classification — and the
//! overall test accuracy — survives.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`attack`] — the paper's contribution: the ADMM-based fault sneaking
//!   attack with `ℓ0`/`ℓ2` minimization, plus the concurrent
//!   [`attack::campaign`] engine that serves whole scenario grids
//!   (sweeps over `S`, `K`, and sparsity budgets) over one shared
//!   victim and feature cache;
//! * [`nn`] — the neural-network substrate (the inference-only C&W
//!   victim architecture, and the FC head the attack perturbs, the one
//!   part with hand-derived gradients);
//! * [`data`] — synthetic MNIST-like / CIFAR-like datasets;
//! * [`admm`] — the proximal operators of the attack's ADMM z-step;
//! * [`baselines`] — Liu et al. ICCAD'17 SBA/GDA comparison attacks,
//!   also runnable as campaign methods over the same scenario matrix;
//! * [`memfault`] — simulated laser/rowhammer fault injection hardware,
//!   the ECC-style row-parity defense surface, and byte-granular fault
//!   planning against int8 storage;
//! * [`defense`] — the detector suite and attack-vs-defense stealth
//!   arena (see below);
//! * [`harness`] — the fault-tolerant sharded campaign executor:
//!   scenario shards run in supervised worker **processes** (deadline /
//!   retry-with-backoff / degraded in-process fallback), exchanging
//!   versioned, checksummed [`attack::campaign::wire`] frames, with
//!   deterministic fault injection proving the merged report stays
//!   bit-identical under crashes, hangs, and corrupted frames;
//! * [`tensor`] — the dense `f32` tensor substrate everything runs on;
//! * [`telemetry`] — deterministic-safe observability (hierarchical
//!   spans, counters/histograms, per-iteration ADMM convergence
//!   traces): off by default, and **identity-only** when enabled — all
//!   report fingerprints stay bit-identical with telemetry on or off
//!   (`tests/telemetry_determinism.rs`).
//!
//! # Stealth is measured, not asserted
//!
//! The paper *claims* stealth — δ flips the `S` designated images while
//! the keep set hides the modification — but "hidden" is only
//! meaningful against a concrete monitor. The [`defense`] crate makes
//! the claim falsifiable: a [`defense::DefenseSuite`] of calibrated
//! detectors (block-granular integrity checksums under a bounded audit
//! budget, the held-out accuracy probe, per-layer activation-statistic
//! drift, and a DRAM-row parity monitor over the [`memfault`] address
//! mapping) inspects every attacked model, and a
//! [`defense::StealthArena`] scores whole campaigns into an
//! attack×detector matrix with per-detector threshold sweeps. Because
//! the SBA/GDA baselines run through the same campaign engine
//! ([`attack::campaign::AttackMethod`]), the paper's §5.4 comparison
//! becomes a cell-aligned matrix: the fault sneaking attack holds
//! probe accuracy and evades the accuracy monitor that both baselines
//! trip, and its ℓ0-sparse δ measurably lowers the audit-budget
//! checksum detection probability. `cargo test -p fsa-bench --test
//! claims` asserts the separation on a full-size matrix.
//!
//! # The int8 backend: attacking parameters as bytes
//!
//! The paper frames fault sneaking as modifying parameters *as stored
//! in memory*; on a quantized inference backend that storage is one
//! byte per weight, not an `f32` word. The workspace models this end to
//! end: [`nn::quant::QuantizedHead`] is the deployed artifact
//! (weight-only post-training quantization, symmetric per-tensor
//! scales, i8×i8→i32 matmuls via [`tensor::quant::gemm_i8_nt`]);
//! setting [`attack::Precision::Int8`] on a
//! [`attack::campaign::CampaignSpec`] makes every scenario optimize
//! over the dequantized model, **project** its δ onto the representable
//! grid ([`attack::QuantizedSelection`]), and re-measure success and
//! keep-set stealth under real int8 inference;
//! [`memfault::FaultPlan::compile_bytes`] then compiles the byte-image
//! diff into concrete bit flips, DRAM rows, and parity predictions.
//! Projection is a real constraint, not a formality: single-parameter
//! baseline attacks saturate at the grid edge, and marginal faults can
//! round away — `cargo test -p fsa-bench --test claims` runs both
//! precisions over one matrix and asserts the §5.4 separation holds in
//! the int8 row.
//!
//! # Performance substrate
//!
//! All numeric work runs on `fsa-tensor`'s parallel tiled kernel engine:
//! register-blocked 4×8 GEMM micro-kernels with row-block parallelism
//! on scoped threads. Thread count comes from
//! [`tensor::parallel::set_threads`], the `FSA_THREADS` environment
//! variable (`FSA_THREADS=1` runs everything inline on the calling
//! thread), or the machine's core count. Both explicit settings are
//! taken verbatim, even past the core count, and results are
//! **bit-identical for every setting** (see `tests/thread_determinism.rs`).
//!
//! Hot loops are allocation-free: each ADMM iteration's head forward,
//! hinge and backward reuse [`nn::head::HeadBuffers`] and
//! [`attack::objective::HingeEval`] across iterations
//! (`tests/steady_state_alloc.rs` counts none). Its head
//! backward propagates only the images whose hinge is active, with
//! bits equal to the dense pass (see
//! [`nn::head::FcHead::backward_from_cache`]).
//!
//! Campaigns (many attacks over one victim) extract the victim's pool
//! activations once into a shared [`nn::feature_cache::FeatureCache`]
//! and dispatch scenarios through [`tensor::parallel::par_map`], so
//! attack-level and kernel-level parallelism compose — and the whole
//! `CampaignReport` stays bit-identical at every thread count
//! (`tests/campaign_determinism.rs`).
//!
//! See `examples/quickstart.rs` for a three-minute tour and
//! `ARCHITECTURE.md` for the dataflow diagram, crate dependency map,
//! and the module-to-paper-equation index.
//!
//! ```
//! use fault_sneaking::attack::{AttackConfig, AttackSpec, FaultSneakingAttack, ParamSelection};
//! use fault_sneaking::nn::head::FcHead;
//! use fault_sneaking::tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::new(7);
//! let head = FcHead::from_dims(&[8, 16, 4], &mut rng);
//! let features = Tensor::randn(&[6, 8], 1.0, &mut rng);
//! let labels = head.predict(&features);
//! let spec = AttackSpec::new(features, labels.clone(), vec![(labels[0] + 1) % 4]);
//! let result = FaultSneakingAttack::new(
//!     &head,
//!     ParamSelection::last_layer(&head),
//!     AttackConfig::default(),
//! )
//! .run(&spec);
//! assert!(result.l0 <= result.delta.len());
//! ```

#![warn(missing_docs)]

pub use fsa_admm as admm;
pub use fsa_attack as attack;
pub use fsa_baselines as baselines;
pub use fsa_data as data;
pub use fsa_defense as defense;
pub use fsa_harness as harness;
pub use fsa_memfault as memfault;
pub use fsa_nn as nn;
pub use fsa_telemetry as telemetry;
pub use fsa_tensor as tensor;
