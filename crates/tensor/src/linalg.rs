//! Matrix kernels: GEMM in the three transpose layouts backprop uses,
//! plus the dense layer's forward `x·Wᵀ + b` ([`gemm_nt_bias`]) — the
//! parallel tiled kernel engine.
//!
//! Every kernel follows the same three-level architecture:
//!
//! 1. **Row-block parallelism** — the output is partitioned into
//!    contiguous row blocks dispatched through
//!    [`crate::parallel::par_row_blocks`] (scoped threads), once each
//!    worker's share of flops clears the dispatch-derived work floor of
//!    [`crate::parallel::min_rows_for_work`]. Each block is written by
//!    exactly one thread; no synchronization, no atomics.
//! 2. **Cache blocking** — [`gemm`] and [`gemm_tn`] tile the shared `k`
//!    dimension by [`KC`] so the streamed panels of `A`/`B` stay resident
//!    in L1/L2 while a register tile accumulates; [`gemm_nt`] tiles its
//!    output columns by [`NC`] so a panel of `B` rows stays in cache
//!    while the block's `A` rows stream over it.
//! 3. **Register tiles** — [`gemm`] (NN) and [`gemm_tn`] (TN) differ only
//!    in how `A` is indexed: element `(row, p)` sits at
//!    `row·row_stride + p·p_stride`, NN `(k, 1)` and TN `(1, m)`. One
//!    portable kernel takes those strides and serves both: it accumulates
//!    `MR`×`NR` (4×8) output tiles, then 1×8 tiles for the remainder
//!    rows, in local arrays the compiler keeps in vector registers, so one
//!    pass over a `k` panel performs 32 multiply-adds per 12 loads instead
//!    of the 1 multiply-add per 2 loads of a scalar loop. It is compiled
//!    twice, once with the p stride a compile-time 1 (NN), chosen by
//!    `p_stride == 1`. [`gemm_nt`] and [`gemm_nt_bias`] share one NT
//!    kernel that computes each element as one eight-chain dot product in
//!    [`dot_slices`]' order; they differ only in the write-back.
//!
//! **ISA dispatch.** Two register tiles choose their instruction set at
//! run time: AVX is detected once ([`avx_available`]), and on every other
//! target, or a CPU without it, the portable kernels run. No build flag,
//! cargo feature, environment variable or config field selects a path.
//! A second cached probe, [`avx512_available`] (AVX-512F), serves no
//! kernel here: it picks the head backward's top-layer register build
//! (`fsa_nn::head`), which sums `dW` over the hinge's listed rows in
//! `__m512` accumulators.
//!
//! - The NT kernel of [`gemm_nt`] and [`gemm_nt_bias`] (when `k ≥ NR`)
//!   runs tiles of eight `__m256` accumulators, one per output element,
//!   whose lane `t` is that element's chain `t`, so every loaded 8-wide
//!   chunk of a row feeds several products. It keeps the chunk order, the
//!   scalar tail and the reduction tree of [`dot_slices`]. The eight
//!   elements' trees close as one transposed reduction (pair sums across
//!   the accumulators, then one cross-half add and the tails), which
//!   keeps each lane on its own element's tree. When the width `n`
//!   divides 8 (heads of 1, 2, 4 or 8 classes), a tile is `8/n` A rows ×
//!   all `n` B rows: its eight elements are `8/n` whole rows of `C` in
//!   memory order, so the write-back is one 8-lane operation and one
//!   store; remainder rows run 1-row tiles. Other widths run 4 A-row ×
//!   2 B-row tiles (a 4×1 tile for an odd last column, 1×2 and 1×1
//!   tiles for remainder rows), written back element by element; the
//!   smaller tiles reduce one element at a time.
//! - [`gemm`] and [`gemm_tn`] share one 4-row × 16-column tile that takes
//!   the same strides as the portable kernel: per `p` it broadcasts one
//!   `A` element per row and loads two 8-wide chunks of `B` row `p`, so
//!   lane `t` of an accumulator is one output element's own `acc + a·b`
//!   chain over a [`KC`] tile. For each `KC` tile the 16-column panel of
//!   `B` stays in L1 while every row group of the block streams over it.
//!   Column remainders (`n % 16`) run a masked tile, row remainders a 1-,
//!   2- or 3-row one.
//!
//! Every AVX kernel keeps each element's scalar operation sequence —
//! separate multiply then add (never FMA), operands in ascending order
//! and the same write-back — so both paths produce the same bits. The
//! write-back of [`gemm`], [`gemm_tn`] and [`gemm_nt`] is
//! `c += alpha·acc` into the `beta`-scaled `C`. [`gemm_nt_bias`] writes
//! each element once, `c = (0.0 + dot) + bias[j]`, without zero-filling
//! or reading `C`: the sequence of `gemm_nt(.., 1.0, 0.0)` followed by a
//! per-row bias add, less the multiply by `1.0`, which never changes a
//! bit. The scalar kernels stay as the fallback and as the oracles of
//! `to_bits` tests. The raw kernels are the workspace's only `unsafe`
//! library code.
//!
//! Determinism is a hard contract: each output element is produced by the
//! same sequence of `f32` operations (ascending `p` within each `k` tile,
//! `alpha` applied at tile write-back) in **every** code path — full
//! register tiles, row and column remainders, either ISA — so results are
//! bit-identical regardless of thread count, where the row partition
//! happens to fall, or which CPU runs them. No kernel skips a zero
//! operand, so NaN/Inf propagate exactly as BLAS semantics require. The
//! one exact shortcut over zeros lives a level up, in the hand-off from
//! the hinge to the head backward (`fsa_nn::head::FcHead::backward_rows`):
//! the hinge lists the batch rows whose upstream gradient is nonzero or
//! whose logits prove nothing finite, the backward gathers only those and
//! adds the top layer's nonzero entries (or, in its AVX-512F register
//! build, every entry of a listed row), and its doc gives the proof that
//! this keeps every bit, non-finite values included.
//!
//! These are plain-slice kernels over caller-owned buffers; `Tensor`
//! methods wrap them. [`gemm_naive`] remains as the correctness oracle
//! for the property tests below.

use crate::parallel;

/// `k`-dimension tile: one `KC×NR` panel of `B` (8 KiB; 16 KiB for the
/// AVX tile's 16 columns) fits in L1 while a register tile accumulates
/// over it. Each tile accumulates from `+0.0` and is added into `C` at
/// write-back, so a caller that splits `k` at multiples of `KC` and
/// accumulates with `beta = 1` gets the same bits as one call. Public for exactly that (the head's row-sparse backward).
pub const KC: usize = 256;

/// Micro-kernel rows (output register tile height).
const MR: usize = 4;

/// Micro-kernel columns (output register tile width / unroll factor).
const NR: usize = 8;

/// One-thread rate of the GEMM register tiles, in flops per µs: on the
/// 2-core reference host the benchmark ladder's conv `gemm` (10.6 MFLOP)
/// and ADMM-forward `gemm_nt` (0.4 MFLOP) read 28–41 GFLOP/s with the
/// AVX tiles. The top of that range keeps the work floor conservative.
const GEMM_FLOPS_PER_US: usize = 40_000;

/// Minimum output rows per parallel block of a GEMM whose rows cost
/// `2·k·n` flops each: a worker's share must reach
/// `2 × DISPATCH_US × GEMM_FLOPS_PER_US` ≈ 5.4 MFLOP
/// ([`parallel::min_rows_for_work`]), so the ADMM forward (0.4 MFLOP)
/// and the conv call (10.6 MFLOP, 5.3 per worker at two) run on one
/// thread.
fn gemm_min_rows(k: usize, n: usize) -> usize {
    parallel::min_rows_for_work(2 * k * n, GEMM_FLOPS_PER_US)
}

/// `j`-dimension tile of [`gemm_nt`]: output columns (= rows of `B`)
/// per panel. A panel of `NC` B-rows stays cache-resident while every
/// `A` row of the block streams over it, so wide-output NT no longer
/// re-reads all of `B` from memory once per `C` row. Public so the
/// tile-boundary unit tests (and benchmarks) can pin widths to
/// `NC − 1 / NC / NC + 1 / 2·NC`.
pub const NC: usize = 32;

/// The `[start, end)` tiles covering `0..k` in [`KC`] steps.
fn k_tiles(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k).step_by(KC).map(move |kb| (kb, (kb + KC).min(k)))
}

/// The kernel accumulation step `c + a*b`, kept as one named operation
/// so every code path (4-row micro-kernel, 1-row remainder, column
/// tails) provably applies the identical arithmetic — the bit-
/// determinism contract above. Deliberately *not* `f32::mul_add`:
/// without a guaranteed-FMA target it lowers to a libm call, and even
/// with one LLVM vectorizes the separate multiply+add form better here
/// (measured ~2x on the 4x8 tile).
#[inline(always)]
fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    c + a * b
}

/// Whether this CPU supports AVX, detected once per process (always
/// `false` off x86_64). The GEMM tiles here and the ADMM loop's fused
/// per-iteration pass (`fsa-attack`) run their AVX builds only where this
/// returns `true`.
pub fn avx_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX.get_or_init(|| is_x86_feature_detected!("avx"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether this CPU supports AVX-512F, detected once per process (always
/// `false` off x86_64). The head backward's top-layer `dW` register
/// build (`fsa_nn::head`) runs only where this returns `true`.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX512F: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX512F.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The prologue every GEMM shares: checks that `A`, `B` and `C` hold at
/// least `m·k`, `k·n` and `m·n` values, scales `C` by `beta`, then runs
/// `kernel(r0, block)` over contiguous row blocks of `C[..m·n]`, in
/// parallel once each worker's rows clear [`gemm_min_rows`]. The kernel
/// runs for `k = 0` too: it decides what an empty `k` writes.
fn gemm_rows(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    beta: f32,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= k * n, "B too short: {} < {}", b.len(), k * n);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    scale_output(c, m * n, beta);
    parallel::par_row_blocks(&mut c[..m * n], n, gemm_min_rows(k, n), kernel);
}

/// `C = alpha * A·B + beta * C` where `A` is `m×k`, `B` is `k×n`,
/// `C` is `m×n`, all row-major.
///
/// # Panics
///
/// Panics if any slice is shorter than its dimensions imply.
pub fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    alpha: f32,
    beta: f32,
) {
    gemm_rows(m, k, n, a, b, c, beta, |r0, block| {
        ab_block(r0, k, 1, k, n, a, b, block, alpha);
    });
}

/// `C = alpha * Aᵀ·B + beta * C` where `A` is `k×m` (so `Aᵀ` is `m×k`),
/// `B` is `k×n`, `C` is `m×n`.
///
/// Used for weight gradients: `dW = dYᵀ·X` patterns.
///
/// # Panics
///
/// Panics if any slice is shorter than its dimensions imply.
pub fn gemm_tn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    alpha: f32,
    beta: f32,
) {
    gemm_rows(m, k, n, a, b, c, beta, |r0, block| {
        ab_block(r0, 1, m, k, n, a, b, block, alpha);
    });
}

/// Serial kernel for a row block of `C = alpha·op(A)·B + C`, `A` element
/// `(row, p)` at `row·row_stride + p·p_stride` ([`gemm`]: `(k, 1)`,
/// [`gemm_tn`]: `(1, m)`). Dispatches to the AVX register tile when the
/// CPU has it, else to the portable kernel; both produce the same bits
/// (see the module doc).
fn ab_block(
    r0: usize,
    row_stride: usize,
    p_stride: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    block: &mut [f32],
    alpha: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if avx_available() {
        // SAFETY: `avx_available()` confirmed the CPU supports AVX, the
        // only requirement of the raw kernel.
        unsafe { avx::ab_block(r0, row_stride, p_stride, k, n, a, b, block, alpha) };
        return;
    }
    ab_block_scalar(r0, row_stride, p_stride, k, n, a, b, block, alpha);
}

/// Portable kernel for a row block of [`ab_block`]: the fallback on CPUs
/// without AVX and the oracle of the AVX tile. Runs [`ab_rows`] with the
/// p stride a compile-time 1 when it is 1 (NN), so that build indexes
/// `A` rows contiguously (with the stride at run time the NN shapes ran
/// about 10% slower).
fn ab_block_scalar(
    r0: usize,
    row_stride: usize,
    p_stride: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    block: &mut [f32],
    alpha: f32,
) {
    if p_stride == 1 {
        ab_rows::<true>(r0, row_stride, p_stride, k, n, a, b, block, alpha);
    } else {
        ab_rows::<false>(r0, row_stride, p_stride, k, n, a, b, block, alpha);
    }
}

/// [`ab_block_scalar`] with `p_stride` replaced by 1 when `UNIT_P`. For
/// each [`KC`] tile of `k`, groups of [`MR`] rows run one [`ab_tile`],
/// then each remainder row a 1-row one.
fn ab_rows<const UNIT_P: bool>(
    r0: usize,
    row_stride: usize,
    p_stride: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    block: &mut [f32],
    alpha: f32,
) {
    let p_stride = if UNIT_P { 1 } else { p_stride };
    if k == 0 {
        return;
    }
    // Every row's slice has the same length, so one bounds check on `p`
    // covers all the rows of a tile.
    let span = (k - 1) * p_stride + 1;
    let a_row = |row: usize| &a[row * row_stride..][..span];
    for (kb, ke) in k_tiles(k) {
        for (gi, group) in block.chunks_mut(MR * n).enumerate() {
            let r = r0 + gi * MR;
            if group.len() == MR * n {
                let rows = std::array::from_fn(|s| a_row(r + s));
                ab_tile::<MR>(rows, p_stride, b, kb, ke, n, group, alpha);
            } else {
                for (i, c_row) in group.chunks_mut(n).enumerate() {
                    ab_tile([a_row(r + i)], p_stride, b, kb, ke, n, c_row, alpha);
                }
            }
        }
    }
}

/// `R` output rows over the `k` tile `kb..ke`, `a_rows[s][p·p_stride]`
/// being row `s`'s `A(row, p)`: 8-column register tiles, then one column
/// at a time for `n % 8`. Each element's chain is the module doc's: from
/// `+0.0`, one [`fmadd`] per `p` in ascending order, then
/// `c += alpha·acc`.
#[inline(always)]
fn ab_tile<const R: usize>(
    a_rows: [&[f32]; R],
    p_stride: usize,
    b: &[f32],
    kb: usize,
    ke: usize,
    n: usize,
    c: &mut [f32],
    alpha: f32,
) {
    let tiles = n / NR;
    for jt in 0..tiles {
        let jb = jt * NR;
        let mut acc = [[0.0f32; NR]; R];
        for p in kb..ke {
            let bt: &[f32; NR] = b[p * n + jb..p * n + jb + NR].try_into().unwrap();
            // All rows' `A` values first: loading them between the
            // products measured slower.
            let av: [f32; R] = std::array::from_fn(|s| a_rows[s][p * p_stride]);
            for (acc_s, &av) in acc.iter_mut().zip(&av) {
                for t in 0..NR {
                    acc_s[t] = fmadd(av, bt[t], acc_s[t]);
                }
            }
        }
        for (s, acc_s) in acc.iter().enumerate() {
            for t in 0..NR {
                c[s * n + jb + t] += alpha * acc_s[t];
            }
        }
    }
    for j in tiles * NR..n {
        let mut acc = [0.0f32; R];
        for p in kb..ke {
            let bv = b[p * n + j];
            for (s, acc_s) in acc.iter_mut().enumerate() {
                *acc_s = fmadd(a_rows[s][p * p_stride], bv, *acc_s);
            }
        }
        for (s, acc_s) in acc.iter().enumerate() {
            c[s * n + j] += alpha * acc_s;
        }
    }
}

/// `C = alpha * A·Bᵀ + beta * C` where `A` is `m×k`, `B` is `n×k`
/// (so `Bᵀ` is `k×n`), `C` is `m×n`.
///
/// Used for input gradients: `dX = dY·W` patterns with row-major `W`.
///
/// # Panics
///
/// Panics if any slice is shorter than its dimensions imply.
pub fn gemm_nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    alpha: f32,
    beta: f32,
) {
    gemm_rows(m, k, n, a, b, c, beta, |r0, block| {
        // `A·Bᵀ` is zero for an empty `k`: `C` stays `beta·C`, as in `gemm`.
        if k > 0 {
            nt_block(r0, k, n, a, b, block, WriteBack::Scaled(alpha));
        }
    });
}

/// `C = A·Bᵀ + 1·biasᵀ` where `A` is `m×k`, `B` is `n×k`, `bias` holds
/// `n` values and `C` is `m×n`: a dense layer's batched forward
/// `x·Wᵀ + b` with `W` stored `out×in`.
///
/// Writes every element of `C[..m·n]` and reads none, so `C` needs no
/// zero-fill. Each element is `(0.0 + 1.0·dot) + bias[j]`, `dot` in
/// [`dot_slices`]' order: the operations of `gemm_nt(.., 1.0, 0.0)`
/// followed by a per-row bias add, hence the same bits.
///
/// # Panics
///
/// Panics if any slice is shorter than its dimensions imply.
pub fn gemm_nt_bias(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
) {
    assert!(bias.len() >= n, "bias too short: {} < {}", bias.len(), n);
    let bias = &bias[..n];
    gemm_rows(m, k, n, a, b, c, 1.0, |r0, block| {
        nt_block(r0, k, n, a, b, block, WriteBack::Bias(bias));
    });
}

/// How an NT kernel writes element `(i, j)`'s dot product into `C`.
#[derive(Clone, Copy)]
enum WriteBack<'a> {
    /// [`gemm_nt`]: `c += alpha·dot` into the `beta`-scaled `C`.
    Scaled(f32),
    /// [`gemm_nt_bias`]: `c = (0.0 + dot) + bias[j]`, never reading `c`.
    /// `1.0·dot` is `dot` exactly (an add never returns a signaling
    /// NaN), so the multiply of `gemm_nt(.., 1.0, 0.0)` is left out; its
    /// add to the zero-filled `c` stays as the literal `0.0 +`.
    Bias(&'a [f32]),
}

impl WriteBack<'_> {
    /// Writes an `R×W` tile of dots, columns `j..j + W` of `R` rows of
    /// stride `n`, into `c` (which starts at the tile's first row). One
    /// `match` per tile: one per element, or per tile row over a slice,
    /// cost the 4×2 strip 13–30%.
    #[inline(always)]
    fn apply<const R: usize, const W: usize>(
        self,
        c: &mut [f32],
        n: usize,
        j: usize,
        dots: &[[f32; W]; R],
    ) {
        match self {
            Self::Scaled(alpha) => {
                for (s, ds) in dots.iter().enumerate() {
                    for (cv, &dot) in c[s * n + j..][..W].iter_mut().zip(ds) {
                        *cv += alpha * dot;
                    }
                }
            }
            Self::Bias(bias) => {
                let bias: &[f32; W] = bias[j..j + W].try_into().expect("W columns");
                for (s, ds) in dots.iter().enumerate() {
                    for ((cv, &dot), &bj) in c[s * n + j..][..W].iter_mut().zip(ds).zip(bias) {
                        *cv = (0.0 + dot) + bj;
                    }
                }
            }
        }
    }
}

/// Serial kernel for a row block of an NT GEMM: `C[i,j]` is
/// `dot(A row i, B row j)` written back by `wb`, both rows contiguous in
/// `p`, so each element is one eight-chain dot product in
/// [`dot_slices`]' order — the layout the attack's hottest call (`x·Wᵀ`
/// with few output classes) vectorizes best as. Dispatches to the AVX
/// register tiles when the CPU has it and `k` fills at least one 8-wide
/// chunk, else to the scalar kernel; both produce the same bits (see the
/// module doc).
fn nt_block(r0: usize, k: usize, n: usize, a: &[f32], b: &[f32], block: &mut [f32], wb: WriteBack) {
    #[cfg(target_arch = "x86_64")]
    if k >= NR && avx_available() {
        // SAFETY: `avx_available()` confirmed the CPU supports AVX, the
        // only requirement of the raw kernel.
        unsafe { avx::nt_block(r0, k, n, a, b, block, wb) };
        return;
    }
    nt_block_scalar(r0, k, n, a, b, block, wb);
}

/// Portable NT kernel: one [`dot_slices`] per element, then `wb`. No `k`
/// tiling: one pass per element already streams both operands linearly.
/// The `j` loop is tiled by [`NC`] so a panel of `B` rows stays in cache
/// across the block's `A` rows instead of the whole of `B` being
/// re-streamed per `C` row; tiling only reorders *whole-dot* evaluations,
/// so every element's operation sequence — and therefore every bit of
/// the result — is unchanged. The fallback on CPUs without AVX and the
/// oracle of the AVX kernel.
fn nt_block_scalar(
    r0: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    block: &mut [f32],
    wb: WriteBack,
) {
    for jb in (0..n).step_by(NC) {
        let je = (jb + NC).min(n);
        for (i, c_row) in block.chunks_exact_mut(n).enumerate() {
            let row = r0 + i;
            let a_row = &a[row * k..row * k + k];
            for j in jb..je {
                let dot = dot_slices(a_row, &b[j * k..j * k + k]);
                wb.apply(c_row, n, j, &[[dot]]);
            }
        }
    }
}

/// The AVX register-tiled kernels (x86_64 only): the NT tile and the
/// tile shared by the NN and TN layouts.
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{fmadd, k_tiles, reduce_lanes, WriteBack, MR, NC, NR};
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_broadcast_ss, _mm256_hadd_ps, _mm256_loadu_ps,
        _mm256_maskload_ps, _mm256_mul_ps, _mm256_permute2f128_ps, _mm256_set1_ps,
        _mm256_setr_epi32, _mm256_setr_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// Row block of an NT GEMM with the same contract and the same bits
    /// as [`super::nt_block_scalar`]. When the width `n` divides 8, each
    /// group of `8/n` rows is one whole-row tile ([`row_tiles`]) and the
    /// remainder rows run 1-row strips. Otherwise, within each [`NC`]
    /// column panel, groups of [`MR`] rows run 4×2 tiles, then a 4×1 tile
    /// for an odd last column; the remainder rows run 1×2 and 1×1 tiles.
    /// A tile only decides which elements share operand loads, never an
    /// element's arithmetic, so no tile shape can change a bit.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX ([`super::avx_available`]). Every slice
    /// access is bounds-checked, so no other condition is needed.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn nt_block(
        r0: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        wb: WriteBack,
    ) {
        let rows = block.len() / n;
        let a_row = |i: usize| &a[(r0 + i) * k..(r0 + i) * k + k];
        if NR.is_multiple_of(n) {
            let tiled = match n {
                1 => row_tiles::<8, 1>(r0, k, a, b, block, wb),
                2 => row_tiles::<4, 2>(r0, k, a, b, block, wb),
                4 => row_tiles::<2, 4>(r0, k, a, b, block, wb),
                _ => row_tiles::<1, 8>(r0, k, a, b, block, wb),
            };
            for i in tiled..rows {
                let c = &mut block[i * n..(i + 1) * n];
                strip([a_row(i)], b, k, n, 0, n, c, wb);
            }
            return;
        }
        for jb in (0..n).step_by(NC) {
            let je = (jb + NC).min(n);
            let mut i = 0;
            while i + MR <= rows {
                let a4 = [a_row(i), a_row(i + 1), a_row(i + 2), a_row(i + 3)];
                strip(a4, b, k, n, jb, je, &mut block[i * n..(i + MR) * n], wb);
                i += MR;
            }
            for i in i..rows {
                let c = &mut block[i * n..(i + 1) * n];
                strip([a_row(i)], b, k, n, jb, je, c, wb);
            }
        }
    }

    /// The whole-row tiles of an `n = C`-wide block, `C` dividing 8: each
    /// group of `R = 8/C` rows is `R` A rows × all `C` B rows, eight
    /// elements that [`reduce_eight`] closes in `C`'s memory order, so
    /// the write-back is one 8-lane operation and one store: `c += alpha·dot`
    /// on the loaded row group, or `(0.0 + dot)` plus the bias repeated
    /// `R` times. Returns the first row no tile covered (`rows − rows % R`).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    unsafe fn row_tiles<const R: usize, const C: usize>(
        r0: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        wb: WriteBack,
    ) -> usize {
        assert_eq!(R * C, NR, "a whole-row tile holds eight elements");
        let b_rows = rows::<C>(b, 0, k);
        let mut bias = [0.0f32; NR];
        if let WriteBack::Bias(row) = wb {
            for (t, v) in bias.iter_mut().enumerate() {
                *v = row[t % C];
            }
        }
        // SAFETY: `bias` holds exactly 8 `f32`s, the width of the load.
        let bias = unsafe { _mm256_loadu_ps(bias.as_ptr()) };
        let groups = block.len() / NR;
        for (g, out) in block.chunks_exact_mut(NR).enumerate() {
            let (acc, tails) = chains(rows::<R>(a, r0 + g * R, k), b_rows);
            let sums = reduce_eight(acc, tails);
            // SAFETY: `out` is a whole 8-element chunk of `block`, the
            // width of the unaligned load and store.
            unsafe {
                let out = out.as_mut_ptr();
                let written = match wb {
                    WriteBack::Scaled(alpha) => {
                        let alpha = _mm256_set1_ps(alpha);
                        _mm256_add_ps(_mm256_loadu_ps(out), _mm256_mul_ps(alpha, sums))
                    }
                    WriteBack::Bias(_) => {
                        _mm256_add_ps(_mm256_add_ps(_mm256_setzero_ps(), sums), bias)
                    }
                };
                _mm256_storeu_ps(out, written);
            }
        }
        groups * R
    }

    /// Columns `jb..je` of the `R` output rows in `c`: B rows in pairs,
    /// then one last B row if the panel width is odd, each element
    /// written back by `wb`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    unsafe fn strip<const R: usize>(
        a_rows: [&[f32]; R],
        b: &[f32],
        k: usize,
        n: usize,
        jb: usize,
        je: usize,
        c: &mut [f32],
        wb: WriteBack,
    ) {
        let b_row = |j: usize| &b[j * k..j * k + k];
        let mut j = jb;
        while j + 2 <= je {
            wb.apply(c, n, j, &tile(a_rows, [b_row(j), b_row(j + 1)]));
            j += 2;
        }
        if j < je {
            wb.apply(c, n, j, &tile(a_rows, [b_row(j)]));
        }
    }

    /// The `R×C` dot products `dot(a_rows[s], b_rows[u])` in
    /// [`super::dot_slices`]' exact operation order, from [`chains`]: a
    /// tile of eight closes as one [`reduce_eight`], smaller ones one
    /// element at a time.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    #[target_feature(enable = "avx")]
    unsafe fn tile<const R: usize, const C: usize>(
        a_rows: [&[f32]; R],
        b_rows: [&[f32]; C],
    ) -> [[f32; C]; R] {
        let (acc, tails) = chains(a_rows, b_rows);
        let mut out = [[0.0f32; C]; R];
        if R * C == NR {
            let mut sums = [0.0f32; NR];
            let reduced = reduce_eight(acc, tails);
            // SAFETY: `sums` holds exactly 8 `f32`s, the width of the
            // unaligned store.
            unsafe { _mm256_storeu_ps(sums.as_mut_ptr(), reduced) };
            for (e, &sum) in sums.iter().enumerate() {
                out[e / C][e % C] = sum;
            }
        } else {
            for s in 0..R {
                for u in 0..C {
                    let mut lanes = [0.0f32; NR];
                    // SAFETY: `lanes` holds exactly 8 `f32`s, the width
                    // of the unaligned store.
                    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc[s][u]) };
                    out[s][u] = reduce_lanes(&lanes, tails[s][u]);
                }
            }
        }
        out
    }

    /// The open chains of the `R×C` dot products `dot(a_rows[s],
    /// b_rows[u])`: lane `t` of accumulator `(s, u)` is that element's
    /// chain `t` of [`super::dot_slices`], advanced by a separate
    /// multiply and add per 8-wide chunk in ascending order, and beside
    /// it the element's scalar tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX.
    ///
    /// # Panics
    ///
    /// Panics unless every row has the same length, which the loads
    /// below rely on.
    #[target_feature(enable = "avx")]
    unsafe fn chains<const R: usize, const C: usize>(
        a_rows: [&[f32]; R],
        b_rows: [&[f32]; C],
    ) -> ([[__m256; C]; R], [[f32; C]; R]) {
        let k = a_rows[0].len();
        assert!(
            a_rows.iter().chain(&b_rows).all(|row| row.len() == k),
            "NT tile rows differ in length"
        );
        let mut acc = [[_mm256_setzero_ps(); C]; R];
        // The tail's start is computed from `k`, not carried out of the
        // chunk loop: a carried one let LLVM advance every tail pointer
        // alongside the loads, spilling the row pointers to the stack.
        let chunked = k / NR * NR;
        for o in (0..chunked).step_by(NR) {
            let mut bv = [_mm256_setzero_ps(); C];
            for (v, row) in bv.iter_mut().zip(b_rows) {
                // SAFETY: `row` has length `k` (asserted above; the
                // callers slice it from the length-checked `B`) and
                // `o + 8 ≤ k`, so the 8-lane load stays in bounds.
                *v = unsafe { _mm256_loadu_ps(row.as_ptr().add(o)) };
            }
            for (acc_s, row) in acc.iter_mut().zip(a_rows) {
                // SAFETY: as above; every A row also has length `k`.
                let av = unsafe { _mm256_loadu_ps(row.as_ptr().add(o)) };
                for (acc_su, &bu) in acc_s.iter_mut().zip(&bv) {
                    *acc_su = _mm256_add_ps(*acc_su, _mm256_mul_ps(av, bu));
                }
            }
        }
        // Each tail accumulates in a local and is stored once: summed in
        // place, the eight tails became one vector whose lanes every
        // tail step re-inserted, serializing the eight chains.
        let mut tails = [[0.0f32; C]; R];
        for (tails_s, a_row) in tails.iter_mut().zip(a_rows) {
            for (tail, b_row) in tails_s.iter_mut().zip(b_rows) {
                let mut sum = 0.0f32;
                for (&x, &y) in a_row[chunked..].iter().zip(&b_row[chunked..]) {
                    sum = fmadd(x, y, sum);
                }
                *tail = sum;
            }
        }
        (acc, tails)
    }

    /// [`super::reduce_lanes`] of an `R×C` tile of eight accumulators at
    /// once, as one transposed reduction: lane `e = s·C + u` (the tile's
    /// row-major order) is `reduce_lanes(acc[s][u], tails[s][u])` with
    /// the same tree. Two rounds of adjacent-lane pair sums within each
    /// 128-bit half (`hadd`) leave `(l0+l1)+(l2+l3)` of four accumulators
    /// in the low halves and `(l4+l5)+(l6+l7)` in the high ones; one
    /// cross-half add joins them, then each lane adds its tail.
    #[target_feature(enable = "avx")]
    fn reduce_eight<const R: usize, const C: usize>(
        tile: [[__m256; C]; R],
        tile_tails: [[f32; C]; R],
    ) -> __m256 {
        assert_eq!(R * C, NR, "a transposed reduction closes eight elements");
        // Element `e` of the tile, in its row-major order.
        let acc = |e: usize| tile[e / C][e % C];
        let tail = |e: usize| tile_tails[e / C][e % C];
        let pairs = |x, y| _mm256_hadd_ps(x, y);
        // Lanes: [0123 of acc 0..4 | 4567 of acc 0..4], then acc 4..8.
        let q0 = pairs(pairs(acc(0), acc(1)), pairs(acc(2), acc(3)));
        let q1 = pairs(pairs(acc(4), acc(5)), pairs(acc(6), acc(7)));
        let low = _mm256_permute2f128_ps::<0x20>(q0, q1);
        let high = _mm256_permute2f128_ps::<0x31>(q0, q1);
        let (t0, t1, t2, t3) = (tail(0), tail(1), tail(2), tail(3));
        let tails = _mm256_setr_ps(t0, t1, t2, t3, tail(4), tail(5), tail(6), tail(7));
        _mm256_add_ps(_mm256_add_ps(low, high), tails)
    }

    /// Rows `first..first + R` of the `k`-wide row-major `x`.
    #[inline(always)]
    fn rows<const R: usize>(x: &[f32], first: usize, k: usize) -> [&[f32]; R] {
        let mut out = [&x[..0]; R];
        for (s, row) in out.iter_mut().enumerate() {
            *row = &x[(first + s) * k..(first + s + 1) * k];
        }
        out
    }

    /// Output rows of the NN/TN tile.
    const AB_MR: usize = 4;

    /// Output columns of the NN/TN tile: two 8-lane vectors.
    const AB_NR: usize = 2 * NR;

    /// Row block of `C = alpha·op(A)·B + C` for `A` element `(row, p)` at
    /// `row·row_stride + p·p_stride` (NN: `(k, 1)`, TN: `(1, m)`), with
    /// the same bits as [`super::ab_block_scalar`]. For each [`super::KC`] tile of `k` and
    /// each 16-column panel of `B` (which stays in L1 while every row
    /// group streams over it), groups of `AB_MR` rows run one tile, then
    /// the remainder rows one smaller tile. A tile only decides which
    /// elements share operand loads, never an element's arithmetic, so
    /// no tile shape can change a bit.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX ([`super::avx_available`]). The asserts below bound
    /// every raw access, so no other condition is needed.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not whole rows of width `n`, or `a` or `b`
    /// is shorter than the layout reads.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn ab_block(
        r0: usize,
        row_stride: usize,
        p_stride: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        alpha: f32,
    ) {
        let rows = block.len() / n;
        assert_eq!(block.len(), rows * n, "C block is not whole rows");
        if rows == 0 || k == 0 {
            return;
        }
        // The tiles read A at (r0 + i, p) and B at (p, j) for every
        // i < rows, p < k, j < n, and write C at (i, j): these bound the
        // largest of each.
        assert!((r0 + rows - 1) * row_stride + (k - 1) * p_stride < a.len());
        assert!(k * n <= b.len());
        let panel = |kb: usize, ke: usize, jb: usize, i: usize| Panel {
            a: a[(r0 + i) * row_stride + kb * p_stride..].as_ptr(),
            row_stride,
            p_stride,
            b: b[kb * n + jb..].as_ptr(),
            n,
            depth: ke - kb,
            width: (n - jb).min(AB_NR),
            alpha,
        };
        for (kb, ke) in k_tiles(k) {
            for jb in (0..n).step_by(AB_NR) {
                let mut i = 0;
                while i + AB_MR <= rows {
                    let c = &mut block[i * n + jb..(i + AB_MR - 1) * n + n];
                    // SAFETY: AVX is available (this function's contract);
                    // the panel's rows i..i+4, depth and width lie inside
                    // the bounds asserted above, and `c` holds its 4 rows.
                    unsafe { panel(kb, ke, jb, i).run::<AB_MR>(c) };
                    i += AB_MR;
                }
                if i == rows {
                    continue;
                }
                let (p, c) = (panel(kb, ke, jb, i), &mut block[i * n + jb..]);
                // SAFETY: as above, for the `rows − i < 4` remainder rows.
                unsafe {
                    match rows - i {
                        1 => p.run::<1>(c),
                        2 => p.run::<2>(c),
                        3 => p.run::<3>(c),
                        _ => unreachable!("fewer than AB_MR rows remain"),
                    }
                }
            }
        }
    }

    /// One `R × width` output tile over one `depth`-long `k` tile: `a`
    /// points at `A(row, kb)` of its first row, `b` at `B(kb, jb)`.
    struct Panel {
        a: *const f32,
        row_stride: usize,
        p_stride: usize,
        b: *const f32,
        /// Row stride of `B` and `C`.
        n: usize,
        depth: usize,
        /// Output columns, 1..=16.
        width: usize,
        alpha: f32,
    }

    impl Panel {
        /// Picks the tile variant for the panel width: two full vectors,
        /// a full and a masked one, one full, or one masked.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX; `A(row s, p)` must be readable for
        /// `s < R`, `p < depth`, `B(p, t)` for `p < depth`, `t < width`,
        /// and `c` must hold `R` rows of stride `n` (the last may end at
        /// column `width`).
        #[target_feature(enable = "avx")]
        unsafe fn run<const R: usize>(&self, c: &mut [f32]) {
            assert!(c.len() >= (R - 1) * self.n + self.width);
            // SAFETY: forwarded from this function's contract.
            unsafe {
                match self.width {
                    AB_NR => self.tile::<R, 2, false>(c),
                    w if w > NR => self.tile::<R, 2, true>(c),
                    NR => self.tile::<R, 1, false>(c),
                    _ => self.tile::<R, 1, true>(c),
                }
            }
        }

        /// The `R × width` tile with `V` 8-lane vectors per row, the last
        /// one lane-masked when `MASKED`. Lane `t` of accumulator `(s, v)`
        /// is output element `(s, 8v + t)`'s own chain: from `+0.0`, one
        /// separate multiply and add (never FMA) per `p` in ascending
        /// order, then `c += alpha·acc` — the scalar kernels' sequence.
        /// Masked-off lanes are neither loaded nor written back.
        ///
        /// # Safety
        ///
        /// As [`Panel::run`], with `V` and `MASKED` matching `width`.
        #[target_feature(enable = "avx")]
        unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(&self, c: &mut [f32]) {
            let live = self.width - NR * (V - 1);
            let mask = lane_mask(live);
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            for p in 0..self.depth {
                let mut bv = [_mm256_setzero_ps(); V];
                for (v, bv) in bv.iter_mut().enumerate() {
                    // SAFETY: `B(p, 8v .. 8v + 8)` is readable for a full
                    // vector (`8v + 8 ≤ width`); a masked load touches only
                    // the `live` lanes, `8v + live = width`.
                    *bv = unsafe {
                        let at = self.b.add(p * self.n + v * NR);
                        if MASKED && v + 1 == V {
                            _mm256_maskload_ps(at, mask)
                        } else {
                            _mm256_loadu_ps(at)
                        }
                    };
                }
                for (s, acc_s) in acc.iter_mut().enumerate() {
                    // SAFETY: `A(row s, p)` is readable for `s < R`, `p < depth`.
                    let av = unsafe {
                        _mm256_broadcast_ss(&*self.a.add(s * self.row_stride + p * self.p_stride))
                    };
                    for (acc_sv, &bv) in acc_s.iter_mut().zip(&bv) {
                        *acc_sv = _mm256_add_ps(*acc_sv, _mm256_mul_ps(av, bv));
                    }
                }
            }
            let alpha = _mm256_set1_ps(self.alpha);
            for (s, acc_s) in acc.iter().enumerate() {
                let row = &mut c[s * self.n..s * self.n + self.width];
                for (v, (&acc_sv, out)) in acc_s.iter().zip(row.chunks_mut(NR)).enumerate() {
                    if MASKED && v + 1 == V {
                        let mut lanes = [0.0f32; NR];
                        // SAFETY: `lanes` holds exactly 8 `f32`s, the
                        // width of the unaligned store.
                        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc_sv) };
                        for (cv, &d) in out.iter_mut().zip(&lanes) {
                            *cv += self.alpha * d;
                        }
                    } else {
                        assert_eq!(out.len(), NR, "unmasked vector of a partial chunk");
                        // SAFETY: `out` is a full 8-element chunk of `c`.
                        unsafe {
                            let cv = _mm256_loadu_ps(out.as_ptr());
                            let cv = _mm256_add_ps(cv, _mm256_mul_ps(alpha, acc_sv));
                            _mm256_storeu_ps(out.as_mut_ptr(), cv);
                        }
                    }
                }
            }
        }
    }

    /// A lane mask whose first `live` lanes are set (`live` ≤ 8).
    #[target_feature(enable = "avx")]
    fn lane_mask(live: usize) -> __m256i {
        let on = |t: i32| if (t as usize) < live { -1 } else { 0 };
        _mm256_setr_epi32(on(0), on(1), on(2), on(3), on(4), on(5), on(6), on(7))
    }
}

/// Dot product of two equal-length prefixes with eight independent
/// accumulation chains (`chunks_exact` so the compiler vectorizes the
/// body without bounds checks).
pub fn dot_slices(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; NR];
    let a_chunks = a.chunks_exact(NR);
    let b_chunks = b.chunks_exact(NR);
    let (a_tail, b_tail) = (a_chunks.remainder(), b_chunks.remainder());
    for (ca, cb) in a_chunks.zip(b_chunks) {
        for t in 0..NR {
            acc[t] = fmadd(ca[t], cb[t], acc[t]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in a_tail.iter().zip(b_tail.iter()) {
        tail = fmadd(x, y, tail);
    }
    reduce_lanes(&acc, tail)
}

/// The fixed reduction tree that closes every eight-chain dot product,
/// shared by [`dot_slices`] and the AVX NT tile so both sum the same way.
#[inline(always)]
fn reduce_lanes(acc: &[f32; NR], tail: f32) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

fn scale_output(c: &mut [f32], len: usize, beta: f32) {
    if beta == 0.0 {
        c[..len].fill(0.0);
    } else if beta != 1.0 {
        for v in &mut c[..len] {
            *v *= beta;
        }
    }
}

/// Reference (unoptimized) GEMM used as a test oracle.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    fn rand_vec(len: usize, rng: &mut Prng) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "index {i}: {x} vs {y}"
            );
        }
    }

    /// Explicit transpose of a `rows×cols` row-major matrix.
    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = x[r * cols + c];
            }
        }
        out
    }

    /// Shapes hitting every code path: degenerate, odd, tile-boundary
    /// (multiples of MR/NR/KC ± 1), and larger-than-cache.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 7),
        (4, 8, 8),
        (5, 9, 8),
        (8, 256, 8),
        (9, 257, 17),
        (65, 64, 63),
        (17, 130, 9),
        (1, 300, 1),
        (2, 1, 50),
        (31, 512, 33),
        (128, 128, 128),
    ];

    #[test]
    fn gemm_matches_naive_on_all_shapes() {
        let mut rng = Prng::new(1);
        for &(m, k, n) in SHAPES {
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            let mut c_ref = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c, 1.0, 0.0);
            gemm_naive(m, k, n, &a, &b, &mut c_ref);
            assert_close(&c, &c_ref, 1e-5);
        }
    }

    #[test]
    fn gemm_tn_matches_naive_on_all_shapes() {
        let mut rng = Prng::new(2);
        for &(m, k, n) in SHAPES {
            // A stored k×m, interpreted as Aᵀ (m×k).
            let a = rand_vec(k * m, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm_tn(m, k, n, &a, &b, &mut c, 1.0, 0.0);
            let at = transpose(&a, k, m);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, k, n, &at, &b, &mut c_ref);
            assert_close(&c, &c_ref, 1e-5);
        }
    }

    #[test]
    fn gemm_nt_matches_naive_on_all_shapes() {
        let mut rng = Prng::new(3);
        for &(m, k, n) in SHAPES {
            let a = rand_vec(m * k, &mut rng);
            // B stored n×k, interpreted as Bᵀ (k×n).
            let b = rand_vec(n * k, &mut rng);
            let mut c = vec![0.0; m * n];
            gemm_nt(m, k, n, &a, &b, &mut c, 1.0, 0.0);
            let bt = transpose(&b, n, k);
            let mut c_ref = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &bt, &mut c_ref);
            assert_close(&c, &c_ref, 1e-5);
        }
    }

    #[test]
    fn gemm_nt_j_tile_boundary_widths_match_naive() {
        // Widths straddling the j-tile: NC−1 (tail only), NC (one exact
        // tile), NC+1 (tile + 1-column tail), 2·NC (two exact tiles) —
        // and a k crossing the dot-product unroll (NR) boundary.
        let mut rng = Prng::new(31);
        for &n in &[NC - 1, NC, NC + 1, 2 * NC] {
            for &(m, k) in &[(1usize, 9usize), (5, 64), (13, 130)] {
                let a = rand_vec(m * k, &mut rng);
                let b = rand_vec(n * k, &mut rng);
                let mut c = vec![0.0; m * n];
                gemm_nt(m, k, n, &a, &b, &mut c, 1.0, 0.0);
                let bt = transpose(&b, n, k);
                let mut c_ref = vec![0.0; m * n];
                gemm_naive(m, k, n, &a, &bt, &mut c_ref);
                assert_close(&c, &c_ref, 1e-5);
            }
        }
    }

    #[test]
    fn gemm_nt_j_tiling_accumulates_into_c() {
        // beta = 1 with a pre-filled C: every tile must add exactly once.
        let mut rng = Prng::new(32);
        let (m, k, n) = (3, 17, 2 * NC + 5);
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(n * k, &mut rng);
        let c0 = rand_vec(m * n, &mut rng);
        let mut c = c0.clone();
        gemm_nt(m, k, n, &a, &b, &mut c, 2.0, 1.0);
        let bt = transpose(&b, n, k);
        let mut ab = vec![0.0; m * n];
        gemm_naive(m, k, n, &a, &bt, &mut ab);
        let expect: Vec<f32> = ab
            .iter()
            .zip(c0.iter())
            .map(|(&p, &q)| 2.0 * p + q)
            .collect();
        assert_close(&c, &expect, 1e-5);
    }

    /// Equal bits, or both NaN: Rust does not pin NaN payloads, so two
    /// correct paths may legally differ there and nowhere else.
    fn same_value(x: f32, y: f32) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// `C0` scaled by `beta` (as `gemm_nt` does), then `kernel` run over
    /// the whole output as one row block.
    fn run_nt_raw(c0: &[f32], beta: f32, kernel: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut c = c0.to_vec();
        scale_output(&mut c, c0.len(), beta);
        kernel(&mut c);
        c
    }

    /// The `C = alpha·A·Bᵀ + beta·C0` both NT kernels must reproduce bit
    /// for bit (one [`dot_slices`] per element), and each kernel's result:
    /// the scalar one, and the AVX one where the CPU has it.
    fn nt_paths(
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        c0: &[f32],
        alpha: f32,
        beta: f32,
    ) -> (Vec<f32>, Vec<(&'static str, Vec<f32>)>) {
        let oracle = run_nt_raw(c0, beta, |c| {
            for i in 0..m {
                for j in 0..n {
                    let d = dot_slices(&a[i * k..i * k + k], &b[j * k..j * k + k]);
                    c[i * n + j] += alpha * d;
                }
            }
        });
        let mut paths = vec![(
            "scalar",
            run_nt_raw(c0, beta, |c| {
                nt_block_scalar(0, k, n, a, b, c, WriteBack::Scaled(alpha))
            }),
        )];
        #[cfg(target_arch = "x86_64")]
        if avx_available() {
            // SAFETY: AVX support was detected.
            let simd = run_nt_raw(c0, beta, |c| unsafe {
                avx::nt_block(0, k, n, a, b, c, WriteBack::Scaled(alpha))
            });
            paths.push(("avx", simd));
        }
        (oracle, paths)
    }

    #[test]
    fn nt_avx_kernel_matches_scalar_bit_for_bit() {
        let has_avx = avx_available();
        if !has_avx {
            eprintln!("no AVX on this host: checking the scalar NT kernel only");
        }
        let mut rng = Prng::new(33);
        let ms = [1usize, 2, 3, 4, 5, 6, 7, 9, 132];
        let ns = [1usize, 2, 3, 4, 8, 10, NC - 1, NC, NC + 1, 2 * NC];
        let ks = [0usize, 1, 7, 8, 9, 15, 16, 17, 200, 1024];
        let scalings = [
            (1.0f32, 0.0f32),
            (2.0, 1.0),
            (-0.5, 0.0),
            (1.0, 1.0),
            (2.0, 0.0),
            (-0.5, 1.0),
        ];
        let shapes = ms.iter().flat_map(|&m| ns.iter().map(move |&n| (m, n)));
        let cases = shapes.flat_map(|(m, n)| ks.iter().map(move |&k| (m, n, k)));
        for (case, (m, n, k)) in cases.enumerate() {
            for planted in [false, true] {
                let (alpha, beta) = scalings[(case + planted as usize) % scalings.len()];
                let mut a = rand_vec(m * k, &mut rng);
                let mut b = rand_vec(n * k, &mut rng);
                let c0 = rand_vec(m * n, &mut rng);
                let (ia, jb) = (m / 2, n / 2);
                if planted && k > 0 {
                    a[ia * k + k / 2] = f32::INFINITY;
                    b[jb * k] = f32::NEG_INFINITY;
                    b[jb * k + k - 1] = f32::NAN;
                }
                let (oracle, paths) = nt_paths(m, k, n, &a, &b, &c0, alpha, beta);
                for (path, got) in &paths {
                    for (idx, (&g, &o)) in got.iter().zip(&oracle).enumerate() {
                        let (i, j) = (idx / n, idx % n);
                        assert!(
                            same_value(g, o),
                            "{path} m={m} k={k} n={n} alpha={alpha} beta={beta} planted={planted} \
                             C[{i},{j}]: {g:e} vs {o:e}"
                        );
                        if planted && k > 0 {
                            assert_eq!(
                                g.is_finite(),
                                i != ia && j != jb,
                                "{path} m={m} k={k} n={n}: non-finite must reach exactly \
                                 row {ia} and column {jb}, C[{i},{j}] = {g}"
                            );
                            assert!(
                                j != jb || g.is_nan(),
                                "{path}: NaN column lost at C[{i},{j}]"
                            );
                        }
                    }
                }
            }
        }
        // The ADMM forward's shapes (the paper head's 200→10 layer and the
        // arena's 32→4 one over 100, 132 and 260 images), whose 4×2 tiles
        // close with the transposed reduction, each with one −0.0 A row
        // and C row (the C row keeps its sign where alpha < 0, beta = 1).
        for (case, (m, n, k)) in [100usize, 132, 260]
            .iter()
            .flat_map(|&m| [4usize, 10].map(move |n| (m, n)))
            .flat_map(|(m, n)| [32usize, 200].map(move |k| (m, n, k)))
            .enumerate()
        {
            let (alpha, beta) = scalings[case % scalings.len()];
            let mut a = rand_vec(m * k, &mut rng);
            let b = rand_vec(n * k, &mut rng);
            let mut c0 = rand_vec(m * n, &mut rng);
            let zero_row = case % m;
            a[zero_row * k..(zero_row + 1) * k].fill(-0.0);
            c0[zero_row * n..(zero_row + 1) * n].fill(-0.0);
            let (oracle, paths) = nt_paths(m, k, n, &a, &b, &c0, alpha, beta);
            for (path, got) in &paths {
                for (idx, (&g, &o)) in got.iter().zip(&oracle).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        o.to_bits(),
                        "{path} m={m} k={k} n={n} alpha={alpha} beta={beta} C[{},{}]: {g:e} vs {o:e}",
                        idx / n,
                        idx % n
                    );
                }
            }
        }
    }

    /// The write-back of [`gemm_nt_bias`] against what it replaced,
    /// `gemm_nt(.., 1.0, 0.0)` into a zeroed `C` followed by a per-row
    /// bias add (kept here only as the oracle), on both kernels as the
    /// public entry picks them and on the scalar kernel directly. Widths
    /// dividing 8 run the AVX whole-row tiles (with 1-row remainders at
    /// odd `m`), the others the 4×2 strip; NaN, ±Inf and −0.0 sit in `x`,
    /// `W` and the bias. Bits must match, NaN payloads aside.
    #[test]
    fn nt_bias_epilogue_matches_gemm_nt_plus_bias_loop_bit_for_bit() {
        let whole_row = avx_available();
        eprintln!(
            "{}",
            if whole_row {
                "AVX: n in {1, 2, 4, 8} ran the whole-row tiles, other n the 4x2 strip"
            } else {
                "no AVX on this CPU: checking the scalar kernel plus the epilogue only"
            }
        );
        let mut rng = Prng::new(35);
        let ms = [1usize, 2, 3, 5, 8, 9, 132];
        let ns = [1usize, 2, 3, 4, 5, 8, 10, NC + 1];
        let ks = [1usize, 7, 8, 9, 32, 33];
        let cases = ms
            .iter()
            .flat_map(|&m| ns.iter().map(move |&n| (m, n)))
            .flat_map(|(m, n)| ks.iter().map(move |&k| (m, n, k)));
        for (case, (m, n, k)) in cases.enumerate() {
            let mut x = rand_vec(m * k, &mut rng);
            let mut w = rand_vec(n * k, &mut rng);
            let mut bias = rand_vec(n, &mut rng);
            let pick = |len: usize, salt: usize| (case * 7 + salt) % len;
            match case % 4 {
                // A −0.0 row of x against a −0.0 bias: the dot's chains
                // start at +0.0, so the output is +0.0 + (−0.0) = +0.0.
                0 => {
                    let row = pick(m, 1);
                    x[row * k..(row + 1) * k].fill(-0.0);
                    bias[pick(n, 2)] = -0.0;
                }
                1 => {
                    x[pick(m * k, 3)] = f32::NAN;
                    w[pick(n * k, 4)] = f32::INFINITY;
                    bias[pick(n, 5)] = f32::NEG_INFINITY;
                }
                2 => {
                    w[pick(n * k, 6)] = f32::NEG_INFINITY;
                    bias[pick(n, 7)] = f32::NAN;
                    bias[pick(n, 8)] = f32::INFINITY;
                }
                _ => {
                    x[pick(m * k, 9)] = f32::INFINITY;
                    w[pick(n * k, 10)] = -0.0;
                    bias[pick(n, 11)] = -0.0;
                }
            }
            let mut oracle = vec![0.0f32; m * n];
            gemm_nt(m, k, n, &x, &w, &mut oracle, 1.0, 0.0);
            for row in oracle.chunks_exact_mut(n) {
                for (v, &b) in row.iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            // A longer `C` than `m·n`: the entry must write exactly `m·n`.
            let mut public = vec![f32::NAN; m * n + 3];
            gemm_nt_bias(m, k, n, &x, &w, &bias, &mut public);
            assert!(public[m * n..].iter().all(|v| v.is_nan()), "wrote past m·n");
            let mut scalar = vec![f32::NAN; m * n];
            nt_block_scalar(0, k, n, &x, &w, &mut scalar, WriteBack::Bias(&bias));
            for (path, got) in [("gemm_nt_bias", &public[..m * n]), ("scalar", &scalar[..])] {
                for (idx, (&g, &o)) in got.iter().zip(&oracle).enumerate() {
                    assert!(
                        same_value(g, o),
                        "{path} m={m} k={k} n={n} C[{},{}]: {g:e} ({:#x}) vs {o:e} ({:#x})",
                        idx / n,
                        idx % n,
                        g.to_bits(),
                        o.to_bits()
                    );
                }
            }
        }
        // k = 0: every element is `(0.0 + 0.0) + b_j`, bias signs kept.
        let bias = [-0.0f32, 1.5, f32::NEG_INFINITY];
        let mut c = [f32::NAN; 6];
        gemm_nt_bias(2, 0, 3, &[], &[], &bias, &mut c);
        let want = [0.0f32, 1.5, f32::NEG_INFINITY];
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c), bits(&[want, want].concat()));
    }

    /// `C0` scaled by `beta`, then the `m`-row output computed as two row
    /// blocks split at `m / 2` (so the second starts at `r0 > 0`) by
    /// `kernel(r0, block)`.
    fn run_ab_blocks(
        c0: &[f32],
        m: usize,
        n: usize,
        beta: f32,
        mut kernel: impl FnMut(usize, &mut [f32]),
    ) -> Vec<f32> {
        run_nt_raw(c0, beta, |c| {
            let (top, bottom) = c.split_at_mut(m / 2 * n);
            kernel(0, top);
            kernel(m / 2, bottom);
        })
    }

    #[test]
    fn nn_and_tn_avx_kernel_matches_scalar_bit_for_bit() {
        let has_avx = avx_available();
        if !has_avx {
            eprintln!("no AVX on this host: checking the scalar NN/TN kernel only");
        }
        let mut rng = Prng::new(34);
        let ms = 1usize..=9;
        let ns = [1usize, 4, 7, 8, 9, 15, 16, 17, 24, 100, 676];
        let ks = [1usize, 9, 255, 256, 257, 288, 576];
        let scalings: Vec<(f32, f32)> = [0.0f32, 1.0, -0.5]
            .iter()
            .flat_map(|&alpha| [0.0f32, 1.0, -0.5].map(|beta| (alpha, beta)))
            .collect();
        let shapes = ms.flat_map(|m| ns.iter().map(move |&n| (m, n)));
        let cases = shapes.flat_map(|(m, n)| ks.iter().map(move |&k| (m, n, k)));
        for (case, (m, n, k)) in cases.enumerate() {
            let planted = case % 2 == 1;
            let (alpha, beta) = scalings[case % scalings.len()];
            // `a` is read as NN `m×k` and as TN `k×m`; both index the
            // same `m·k` values, at different places.
            let mut a = rand_vec(m * k, &mut rng);
            let mut b = rand_vec(k * n, &mut rng);
            let mut c0 = rand_vec(m * n, &mut rng);
            if planted {
                a[k / 2] = f32::NAN;
                a[(m * k) / 2] = f32::INFINITY;
                b[(k / 3) * n + n / 2] = f32::NEG_INFINITY;
                b[(k - 1) * n] = f32::NAN;
                // A −0.0 last row of A (in both layouts) and of C: with
                // `beta = 1` and a negative `alpha`, its outputs that no
                // non-finite `B` entry reaches must stay −0.0.
                for p in 0..k {
                    a[(m - 1) * k + p] = -0.0;
                    a[p * m + m - 1] = -0.0;
                }
                c0[m * n - n..].fill(-0.0);
            }
            for (layout, rs, ps) in [("NN", k, 1), ("TN", 1, m)] {
                let at = |row: usize, p: usize| a[row * rs + p * ps];
                // The definition both kernels must reproduce bit for bit:
                // per element and `KC` tile, `acc + a·b` from `+0.0` in
                // ascending `p`, then `c += alpha·acc`.
                let oracle = run_nt_raw(&c0, beta, |c| {
                    for (kb, ke) in k_tiles(k) {
                        for i in 0..m {
                            for j in 0..n {
                                let mut acc = 0.0f32;
                                for p in kb..ke {
                                    acc += at(i, p) * b[p * n + j];
                                }
                                c[i * n + j] += alpha * acc;
                            }
                        }
                    }
                });
                let scalar = run_ab_blocks(&c0, m, n, beta, |r0, c| {
                    ab_block_scalar(r0, rs, ps, k, n, &a, &b, c, alpha)
                });
                #[cfg(target_arch = "x86_64")]
                let simd = has_avx.then(|| {
                    // SAFETY: AVX support was detected above.
                    run_ab_blocks(&c0, m, n, beta, |r0, c| unsafe {
                        avx::ab_block(r0, rs, ps, k, n, &a, &b, c, alpha)
                    })
                });
                #[cfg(not(target_arch = "x86_64"))]
                let simd = None;
                let paths = [("scalar", Some(scalar)), ("avx", simd)];
                for (path, got) in paths.iter().filter_map(|(p, g)| Some((p, g.as_ref()?))) {
                    for (idx, (&g, &o)) in got.iter().zip(&oracle).enumerate() {
                        assert!(
                            same_value(g, o),
                            "{path} {layout} m={m} k={k} n={n} alpha={alpha} beta={beta} \
                             planted={planted} C[{},{}]: {g:e} vs {o:e}",
                            idx / n,
                            idx % n
                        );
                    }
                }
                if planted && beta == 1.0 && alpha < 0.0 && n >= 3 {
                    assert_eq!(oracle[m * n - 1].to_bits(), (-0.0f32).to_bits());
                }
            }
        }
    }

    #[test]
    fn gemm_alpha_beta_semantics() {
        let mut rng = Prng::new(4);
        for &(alpha, beta) in &[(2.0f32, 3.0f32), (1.0, 1.0), (-0.5, 0.0), (0.0, 2.0)] {
            let (m, k, n) = (5, 11, 9);
            let a = rand_vec(m * k, &mut rng);
            let b = rand_vec(k * n, &mut rng);
            let c0 = rand_vec(m * n, &mut rng);

            let mut c = c0.clone();
            gemm(m, k, n, &a, &b, &mut c, alpha, beta);

            let mut ab = vec![0.0; m * n];
            gemm_naive(m, k, n, &a, &b, &mut ab);
            let expect: Vec<f32> = ab
                .iter()
                .zip(c0.iter())
                .map(|(&p, &q)| alpha * p + beta * q)
                .collect();
            assert_close(&c, &expect, 1e-5);
        }
    }

    #[test]
    fn nan_and_inf_propagate() {
        // BLAS semantics: a NaN anywhere in an operand row/column reaches
        // every output it participates in — the old zero-skip kernels
        // silently dropped `NaN * 0` products.
        let a = [f32::NAN, 0.0, 0.0, 1.0];
        let b = [0.0, 1.0, 1.0, 0.0];
        let mut c = [0.0f32; 4];
        gemm(2, 2, 2, &a, &b, &mut c, 1.0, 0.0);
        assert!(c[0].is_nan() && c[1].is_nan(), "NaN row dropped: {c:?}");
        assert_eq!(&c[2..], &[1.0, 0.0]);

        // NT, on both ISA paths: k = 9 runs the 8-wide chunk and the
        // scalar tail. Row 0 of A holds NaN (reaches all of row 0 of C);
        // B row 1 holds Inf against an A row 1 that is zero there, so
        // `0·Inf = NaN` reaches C[1,1] only.
        let k = 9;
        let mut a = vec![1.0f32; 2 * k];
        a[3] = f32::NAN;
        a[k + 8] = 0.0;
        let mut b = vec![0.5f32; 2 * k];
        b[k + 8] = f32::INFINITY;
        let mut c = [0.0f32; 4];
        gemm_nt(2, k, 2, &a, &b, &mut c, 1.0, 0.0);
        assert!(c[0].is_nan() && c[1].is_nan(), "NaN row dropped: {c:?}");
        assert_eq!(c[2], 4.0);
        assert!(c[3].is_nan(), "0·inf must be NaN, got {}", c[3]);
    }

    /// On an AVX host all three GEMMs here run their AVX tiles: 67 rows
    /// split at non-multiples of 4 and odd widths exercise every
    /// remainder tile.
    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let guard = crate::parallel::lock_threads();
        let mut rng = Prng::new(5);
        // Every kernel writes `m×n` from `m·k` and `k·n` values, read as
        // `A` (`k×m` for TN) and `B` (`n×k` for NT). `k` crosses a `KC`
        // tile, `n` leaves a column tail, and `m` (not a multiple of
        // `MR`) just clears two blocks of the work floor: the least work
        // that splits, so the sweep stays fast in a debug build.
        let (k, n) = (KC + 44, 45);
        let m = 2 * gemm_min_rows(k, n) + 6;
        let a = rand_vec(m * k, &mut rng);
        let b = rand_vec(k * n, &mut rng);
        // The kernels' row blocks at `threads`, and their outputs.
        let run = |threads: usize| {
            guard.set(threads);
            let mut out = [vec![0.0; m * n], vec![0.0; m * n], vec![0.0; m * n]];
            gemm(m, k, n, &a, &b, &mut out[0], 1.0, 0.0);
            gemm_tn(m, k, n, &a, &b, &mut out[1], 1.0, 0.0);
            gemm_nt(m, k, n, &a, &b, &mut out[2], 1.0, 0.0);
            (parallel::blocks(m, gemm_min_rows(k, n)), out)
        };
        let (_, base) = run(1);
        for threads in [2, 3, 8] {
            let (blocks, got) = run(threads);
            assert!(blocks >= 2, "{threads} threads ran one block");
            assert!(base == got, "thread count {threads} changed kernel bits");
        }
    }

    #[test]
    fn dot_slices_matches_f64_reference() {
        let mut rng = Prng::new(7);
        for len in [0usize, 1, 7, 8, 9, 63, 64, 100] {
            let a = rand_vec(len, &mut rng);
            let b = rand_vec(len, &mut rng);
            let reference: f64 = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| x as f64 * y as f64)
                .sum();
            let got = dot_slices(&a, &b);
            assert!(
                (got as f64 - reference).abs() < 1e-4 * (1.0 + reference.abs()),
                "len {len}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn zero_dimensions_are_noops() {
        let mut c: Vec<f32> = vec![];
        gemm(0, 3, 0, &[], &[], &mut c, 1.0, 0.0);
        gemm_tn(0, 0, 0, &[], &[], &mut c, 1.0, 0.0);
        gemm_nt(0, 0, 0, &[], &[], &mut c, 1.0, 0.0);
    }

    #[test]
    fn k_zero_only_scales_c() {
        let mut c = vec![2.0f32; 6];
        gemm(2, 0, 3, &[], &[], &mut c, 1.0, 0.5);
        assert_eq!(c, vec![1.0; 6]);
    }
}
