//! Simulated memory fault-injection substrate.
//!
//! The fault sneaking attack paper motivates minimizing `‖δ‖₀` with the
//! *hardware cost* of realizing parameter modifications: laser fault
//! injection flips precisely-targeted SRAM bits but pays a per-target
//! tuning cost \[18\], while rowhammer flips DRAM bits only in vulnerable
//! cells adjacent to aggressor rows, probabilistically, after many row
//! activations \[19\]. Neither physical apparatus is available here, so this
//! crate simulates both with published cost characteristics (see
//! `ARCHITECTURE.md` for how the plans feed the rest of the pipeline):
//!
//! * [`bits`] — IEEE-754 views of parameters and flip arithmetic;
//! * [`dram`] — a DRAM geometry and the address mapping of a parameter
//!   buffer onto banks/rows;
//! * [`laser`] — a precise per-bit injector with targeting-time costs;
//! * [`rowhammer`] — a row-granular probabilistic injector over a seeded
//!   vulnerable-cell population;
//! * [`plan`] — compiling a modification into one [`FaultPlan`] of bit
//!   flips, over `f32` words (an attack `δ`) or **int8 bytes** (a
//!   rewritten byte image under a 1-byte
//!   [`dram::ParamLayout::with_word_bytes`] layout: at most 8 flips per
//!   word, 4× the parameters per DRAM row — the physical form of the
//!   paper's ℓ0 budget on a quantized backend), and costing it under the
//!   laser and rowhammer injectors;
//! * [`parity`] — the defense side: one [`RowSignature`] per ECC-style
//!   [`RowCode`] (row parity that flags odd flip counts, column parity,
//!   row CRC), the surface `fsa-defense`'s DRAM row-code monitor checks
//!   bit-flip plans against.
//!
//! The end-to-end `fault_plan` table (`fsa_bench::exp::fault_plans`) uses
//! this to compare the hardware realizability of `ℓ0`- vs `ℓ2`-minimized
//! modifications.

#![warn(missing_docs)]

pub mod bits;
pub mod dram;
pub mod laser;
pub mod parity;
pub mod plan;
pub mod rowhammer;

pub use dram::{DramGeometry, ParamAddress};
pub use laser::LaserInjector;
pub use parity::{RowCode, RowSignature};
pub use plan::{FaultPlan, WordChange};
pub use rowhammer::{HammerOutcome, RowhammerInjector};
