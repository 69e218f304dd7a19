//! Neural-network substrate: an inference-only CNN plus the FC head the
//! attack differentiates.
//!
//! The fault sneaking attack (DAC'19) perturbs the parameters of a trained
//! CNN. This crate builds that CNN from scratch — no deep-learning crates.
//! The conv stack only ever runs forward: victims freeze it and train the
//! head alone ([`head_train`]), so the head is the one place with
//! hand-derived gradients.
//!
//! * [`layer`] — the inference-only [`Layer`] trait and batch conventions;
//! * [`linear`], [`conv`], [`pool`], [`activation`] — forward-only layers
//!   (`Conv2d` uses im2col + GEMM);
//! * [`loss`] — fused softmax + cross-entropy;
//! * [`network`] — a sequential container with save/load;
//! * [`head_train`], [`trainer`] — Adam training of the head on cached
//!   features, and the mini-batch row gather it shares with the fixtures;
//! * [`gradcheck`] — finite-difference verification of the head's
//!   backward pass, used by the test suite;
//! * [`head`] — [`FcHead`], the three-FC-layer classifier head
//!   the attack modifies, with *truncated* forward/backward from any layer
//!   (exact, and the key to running R=1000 experiments on one CPU core);
//! * [`cw`] — builders for the Carlini–Wagner architecture used by the
//!   paper (4 conv + 2 maxpool + FC 200/200/10);
//! * [`feature_cache`] — penultimate-layer activations extracted once
//!   through the batched pipeline and shared read-only across a
//!   campaign of concurrent attacks;
//! * [`stats`] — per-layer activation-statistics taps on the inference
//!   pipeline (`Network::forward_infer_stats`, `head_forward_stats`),
//!   the observable surface `fsa-defense`'s drift detector monitors;
//! * [`quant`] — the post-training int8 backend:
//!   [`QuantizedHead`](quant::QuantizedHead) stores one byte per weight
//!   on symmetric per-tensor grids (biases stay `f32`, as deployed int8
//!   runtimes keep them) and runs inference through the
//!   exact-accumulation i8×i8→i32 kernel — the storage model
//!   `fsa-memfault`'s bit-level fault planner addresses.
//!
//! # Examples
//!
//! ```
//! use fsa_nn::head::FcHead;
//! use fsa_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::new(0);
//! let head = FcHead::new_random(8, 16, 16, 4, &mut rng);
//! let features = Tensor::randn(&[2, 8], 1.0, &mut rng);
//! let logits = head.forward(&features);
//! assert_eq!(logits.shape(), &[2, 4]);
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod conv;
pub mod cw;
pub mod feature_cache;
pub mod gradcheck;
pub mod head;
pub mod head_train;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod network;
pub mod pool;
pub mod quant;
pub mod stats;
pub mod trainer;

pub use feature_cache::FeatureCache;
pub use head::FcHead;
pub use layer::Layer;
pub use network::Network;
