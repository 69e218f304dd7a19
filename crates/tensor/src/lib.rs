//! Dense `f32` tensor substrate for the fault sneaking attack reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in
//! the workspace: a contiguous row-major [`Tensor`], the parallel tiled
//! matrix kernel engine ([`linalg`]) with its thread dispatcher
//! ([`parallel`]), vector norms
//! ([`norms`]) including the `ℓ0` pseudo-norm the paper minimizes, the
//! symmetric int8 quantization substrate with its exact-accumulation
//! i8×i8→i32 kernel ([`quant`]), a deterministic random number generator
//! ([`Prng`]) and a compact binary serialization format ([`io`]).
//!
//! # Threads
//!
//! Kernels partition their output into contiguous row blocks and compute
//! each block on a scoped thread (`std::thread::scope`; no external
//! runtime) through [`parallel::par_row_blocks`]; independent items map
//! through [`parallel::par_map`]. Outputs are **bit-identical for every
//! thread count** — partitions never change any element's operation
//! sequence — so reproducibility is unconditional. Control the thread
//! budget with [`parallel::set_threads`] or the `FSA_THREADS` environment
//! variable; `FSA_THREADS=1` runs every kernel inline on the calling
//! thread.
//!
//! The workspace deliberately avoids heavyweight deep-learning crates; all
//! gradients in `fsa-nn` are computed analytically on top of these kernels.
//!
//! # Examples
//!
//! ```
//! use fsa_tensor::{Tensor, Prng};
//!
//! let mut rng = Prng::new(42);
//! let a = Tensor::randn(&[4, 3], 1.0, &mut rng);
//! let b = Tensor::randn(&[3, 2], 1.0, &mut rng);
//! let c = a.matmul(&b);
//! assert_eq!(c.shape(), &[4, 2]);
//! ```

#![warn(missing_docs)]

pub mod hash;
pub mod io;
pub mod linalg;
pub mod norms;
pub mod parallel;
pub mod quant;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use rng::Prng;
pub use shape::Shape;
pub use tensor::Tensor;
