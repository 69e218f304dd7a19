//! Symmetric per-tensor int8 quantization and the i8×i8→i32 kernel.
//!
//! The fault sneaking attack reasons about parameters *as stored in
//! memory*; on real accelerators that storage is usually not `f32` but a
//! quantized integer format, and hardware-collaborative attacks (Hu-Fu,
//! DeepBaR) flip bits of exactly that representation. This module is the
//! numeric substrate of the workspace's int8 backend:
//!
//! * [`QuantParams`] — a symmetric per-tensor scale (zero-point 0, the
//!   representable grid is `{-127, …, 127} · scale`; `-128` is left
//!   unused so the grid is sign-symmetric);
//! * [`quantize_slice`] / [`dequantize_slice`] — the storage round-trip,
//!   with worst-case per-element error `scale / 2`;
//! * [`gemm_i8_nt`] — the quantized matmul: `i8` operands, exact `i32`
//!   accumulation, dispatched through [`crate::parallel::par_row_blocks`]
//!   like every other kernel. Integer accumulation is associative, so
//!   the result is **bit-identical for any thread count and partition**
//!   by construction — a stronger guarantee than the `f32` engine's
//!   fixed-operation-order argument;
//! * [`gemm_i8_nt_naive`] — the correctness oracle for the tests.
//!
//! Quantization itself (`round`, `clamp`) is elementwise and
//! deterministic; `f32::round` ties away from zero on every platform.

use crate::parallel;

/// Largest representable magnitude: the grid is `{-Q_MAX, …, Q_MAX}`
/// (symmetric; `i8::MIN` is deliberately unused).
pub const Q_MAX: i32 = 127;

/// One-thread rate of [`gemm_i8_nt`] in multiply-add ops (2 per MAC) per
/// µs: the benchmark ladder's 0.53 MOP call reads ≈114 µs (≈4.7 GOP/s)
/// on the 2-core reference host.
const I8_OPS_PER_US: usize = 4_700;

/// Symmetric per-tensor quantization parameters: a single positive
/// `scale`, zero-point fixed at 0.
///
/// # Examples
///
/// ```
/// use fsa_tensor::quant::QuantParams;
///
/// let qp = QuantParams::from_absmax(&[0.5, -2.0, 1.25]);
/// assert_eq!(qp.quantize(-2.0), -127);
/// let back = qp.dequantize(qp.quantize(1.25));
/// assert!((back - 1.25).abs() <= qp.scale / 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Grid step: representable values are `q · scale` for
    /// `q ∈ [-127, 127]`.
    pub scale: f32,
}

impl QuantParams {
    /// Calibrates the scale from the absolute maximum of `data`
    /// (`absmax / 127`), the standard symmetric post-training rule. An
    /// empty or all-zero tensor gets a unit scale so the grid stays
    /// well-defined.
    ///
    /// The fold is a plain `max`, which is exact and order-independent —
    /// calibration is bit-identical however the data was partitioned.
    ///
    /// # Panics
    ///
    /// Panics if `data` contains a non-finite value (quantizing NaN/Inf
    /// storage is meaningless).
    pub fn from_absmax(data: &[f32]) -> Self {
        let mut absmax = 0.0f32;
        for &x in data {
            assert!(x.is_finite(), "cannot calibrate a scale over {x}");
            absmax = absmax.max(x.abs());
        }
        Self {
            scale: if absmax == 0.0 {
                1.0
            } else {
                absmax / Q_MAX as f32
            },
        }
    }

    /// Nearest grid point: `round(x / scale)` clamped to `[-127, 127]`
    /// (ties away from zero, `f32::round` semantics).
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round();
        q.clamp(-(Q_MAX as f32), Q_MAX as f32) as i8
    }

    /// The `f32` value a grid point represents.
    pub fn dequantize(&self, q: i8) -> f32 {
        f32::from(q) * self.scale
    }
}

/// Quantizes every element of `data` onto the params' grid.
pub fn quantize_slice(params: QuantParams, data: &[f32]) -> Vec<i8> {
    data.iter().map(|&x| params.quantize(x)).collect()
}

/// Dequantizes a grid-point slice back to `f32`.
pub fn dequantize_slice(params: QuantParams, q: &[i8]) -> Vec<f32> {
    q.iter().map(|&v| params.dequantize(v)).collect()
}

/// `C = A·Bᵀ` over `i8` operands with exact `i32` accumulation:
/// `A` is `m×k`, `B` is `n×k` (both row-major), `C` is `m×n`.
///
/// This is the NT layout the linear layers use (`y = x·Wᵀ` with `W`
/// stored `[out, in]`), so a quantized forward is one call with no
/// transposition. Output rows dispatch through the parallel scheduler
/// ([`crate::parallel::par_row_blocks`]); every dot product is exact
/// integer arithmetic, so results are bit-identical for any
/// `FSA_THREADS`.
///
/// Accumulator range: `k · 127²` must fit in `i32`, i.e. `k` up to
/// ~130 000 — far beyond any head width here; debug builds assert it.
///
/// # Panics
///
/// Panics if any slice is shorter than its dimensions imply.
pub fn gemm_i8_nt(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    assert!(a.len() >= m * k, "A too short: {} < {}", a.len(), m * k);
    assert!(b.len() >= n * k, "B too short: {} < {}", b.len(), n * k);
    assert!(c.len() >= m * n, "C too short: {} < {}", c.len(), m * n);
    debug_assert!(
        (k as i64) * (Q_MAX as i64) * (Q_MAX as i64) <= i64::from(i32::MAX),
        "k = {k} overflows the i32 accumulator"
    );
    if m == 0 || n == 0 {
        return;
    }
    c[..m * n].fill(0);
    if k == 0 {
        return;
    }
    let min_rows = gemm_i8_nt_min_rows(k, n);
    parallel::par_row_blocks(&mut c[..m * n], n, min_rows, |r0, block| {
        for (gi, crow) in block.chunks_exact_mut(n).enumerate() {
            let arow = &a[(r0 + gi) * k..(r0 + gi) * k + k];
            for (j, cv) in crow.iter_mut().enumerate() {
                let brow = &b[j * k..j * k + k];
                let mut acc = 0i32;
                for (&av, &bv) in arow.iter().zip(brow) {
                    acc += i32::from(av) * i32::from(bv);
                }
                *cv = acc;
            }
        }
    });
}

/// The fewest output rows [`gemm_i8_nt`] hands each parallel block of an
/// `m×k · (n×k)ᵀ` call: a worker's share must reach ≈0.64 MOP
/// (2 × `DISPATCH_US` at `I8_OPS_PER_US`, see
/// [`parallel::min_rows_for_work`]), so the ladder's 0.53 MOP call runs
/// on one thread. `parallel::blocks(m, gemm_i8_nt_min_rows(k, n))` is the
/// call's block count.
pub fn gemm_i8_nt_min_rows(k: usize, n: usize) -> usize {
    parallel::min_rows_for_work(2 * k * n, I8_OPS_PER_US)
}

/// Triple-loop reference implementation of [`gemm_i8_nt`] — the oracle
/// the property tests compare the dispatched kernel against.
pub fn gemm_i8_nt_naive(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32]) {
    for r in 0..m {
        for j in 0..n {
            let mut acc = 0i32;
            for p in 0..k {
                acc += i32::from(a[r * k + p]) * i32::from(b[j * k + p]);
            }
            c[r * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prng;

    #[test]
    fn roundtrip_error_is_bounded_by_half_a_step() {
        let mut rng = Prng::new(11);
        for _ in 0..32 {
            let data: Vec<f32> = (0..257).map(|_| rng.normal(0.0, 2.0)).collect();
            let qp = QuantParams::from_absmax(&data);
            let q = quantize_slice(qp, &data);
            let back = dequantize_slice(qp, &q);
            for (&x, &y) in data.iter().zip(&back) {
                assert!(
                    (x - y).abs() <= qp.scale / 2.0 + qp.scale * 1e-5,
                    "roundtrip error {} exceeds scale/2 = {}",
                    (x - y).abs(),
                    qp.scale / 2.0
                );
            }
        }
    }

    #[test]
    fn absmax_lands_exactly_on_the_grid_edge() {
        let qp = QuantParams::from_absmax(&[3.0, -4.0, 0.5]);
        assert_eq!(qp.quantize(-4.0), -127);
        assert_eq!(qp.quantize(4.0), 127);
        // Values beyond the calibration range saturate, never wrap.
        assert_eq!(qp.quantize(400.0), 127);
        assert_eq!(qp.quantize(-400.0), -127);
    }

    #[test]
    fn zero_tensor_gets_a_unit_scale() {
        let qp = QuantParams::from_absmax(&[0.0; 8]);
        assert_eq!(qp.scale, 1.0);
        assert_eq!(qp.quantize(0.0), 0);
        let empty = QuantParams::from_absmax(&[]);
        assert_eq!(empty.scale, 1.0);
    }

    #[test]
    #[should_panic(expected = "cannot calibrate")]
    fn non_finite_calibration_rejected() {
        let _ = QuantParams::from_absmax(&[1.0, f32::NAN]);
    }

    #[test]
    fn gemm_matches_naive_over_random_shapes() {
        let mut rng = Prng::new(12);
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 2), (7, 16, 9), (13, 33, 21), (4, 256, 8)] {
            let a: Vec<i8> = (0..m * k)
                .map(|_| (rng.below(255) as i32 - 127) as i8)
                .collect();
            let b: Vec<i8> = (0..n * k)
                .map(|_| (rng.below(255) as i32 - 127) as i8)
                .collect();
            let mut c = vec![0i32; m * n];
            let mut c_ref = vec![0i32; m * n];
            gemm_i8_nt(m, k, n, &a, &b, &mut c);
            gemm_i8_nt_naive(m, k, n, &a, &b, &mut c_ref);
            assert_eq!(c, c_ref, "({m},{k},{n}) diverged from the oracle");
        }
    }

    /// 643 rows clear the work floor eight times over at k = n = 64, so
    /// 2, 3 and 8 threads split them, unevenly.
    #[test]
    fn gemm_is_identical_at_every_thread_count() {
        let guard = parallel::lock_threads();
        let mut rng = Prng::new(13);
        let (m, k, n) = (643, 64, 64);
        let a: Vec<i8> = (0..m * k)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect();
        let b: Vec<i8> = (0..n * k)
            .map(|_| (rng.below(255) as i32 - 127) as i8)
            .collect();
        let mut reference = vec![0i32; m * n];
        guard.set(1);
        gemm_i8_nt(m, k, n, &a, &b, &mut reference);
        for threads in [2, 3, 8] {
            guard.set(threads);
            assert_eq!(
                parallel::blocks(m, gemm_i8_nt_min_rows(k, n)),
                threads,
                "{threads} threads must split the rows"
            );
            let mut c = vec![0i32; m * n];
            gemm_i8_nt(m, k, n, &a, &b, &mut c);
            assert_eq!(c, reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn degenerate_dimensions_zero_the_output() {
        let mut c = vec![7i32; 6];
        gemm_i8_nt(2, 0, 3, &[], &[], &mut c);
        assert_eq!(c, vec![0; 6]);
    }
}
