//! The misclassification objective `G` and its logit-space gradient.
//!
//! Per image `i` the paper uses the C&W-style logit hinge (eqs. 3, 5, 6):
//!
//! ```text
//! g_i = c_i · max( max_{j≠t} Z_j − Z_t , 0 )
//! ```
//!
//! with `t = t_i` (target) for the `S` attack images and `t = l_i`
//! (original label) for the keep images. When the hinge is active its
//! gradient in logit space is `+c_i` at the runner-up class `j*` and
//! `−c_i` at the enforced class `t`; every other row of the gradient is
//! zero. The hinge therefore also picks the rows the head backward must
//! visit ([`HingeEval::rows`]), and hands them with the gradient matrix
//! to [`fsa_nn::head::FcHead::backward_rows`], which produces the
//! parameter-space gradients without rescanning the matrix.
//!
//! The rows are evaluated eight per vector where the CPU has AVX (one
//! row per lane, the same probe the GEMM tiles use); the scalar row loop
//! is the fallback and the oracle both are pinned against.

use crate::spec::AttackSpec;
use fsa_tensor::linalg::avx_available;
use fsa_tensor::Tensor;

/// Hinge value and logit-gradient of the full objective at given logits.
///
/// Reusable: hold one across ADMM iterations and refill it with
/// [`evaluate_hinge_into`] — steady-state evaluations allocate nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HingeEval {
    /// `Σ_i g_i` (weighted).
    pub total: f32,
    /// Upstream gradient matrix `[R, classes]` for the head backward pass.
    pub logit_grad: Tensor,
    /// Number of images whose hinge is active (objective unsatisfied).
    pub active: usize,
    /// Per-image raw margins (before weighting); an image is active iff
    /// its margin is positive, independent of its `c_i` weight.
    margins: Vec<f32>,
    /// Ascending rows the head backward must visit (see [`Self::rows`]).
    rows: Vec<usize>,
}

impl HingeEval {
    /// Number of active (violated) hinges among the keep images
    /// (`i ≥ s`) — the keep-set health that an ADMM run's telemetry
    /// convergence summary reads off its last evaluation.
    pub fn active_keep(&self, s: usize) -> usize {
        self.margins.iter().skip(s).filter(|&&m| m > 0.0).count()
    }

    /// The ascending rows of [`Self::logit_grad`] that
    /// [`fsa_nn::head::FcHead::backward_rows`] must visit: every row with
    /// an entry `!= 0.0` (an active image whose weight `c_i` is not
    /// `±0.0`), plus every row whose logits hold no finite value. A row
    /// left off holds only `+0.0` entries and finite logits, which is
    /// what the backward's zero-term proof needs to skip it.
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }
}

/// Evaluates the hinge objective and its logit gradient.
///
/// `kappa ≥ 0` adds a confidence margin: an image only counts as satisfied
/// once its enforced logit beats the runner-up by `kappa` (the paper uses
/// `kappa = 0`; a small positive margin hardens the faults against the
/// thresholding in the z-step).
///
/// # Panics
///
/// Panics if `logits` is not `[R, classes]` for the spec.
pub fn evaluate_hinge(spec: &AttackSpec, logits: &Tensor, kappa: f32) -> HingeEval {
    let mut out = HingeEval::default();
    evaluate_hinge_into(spec, logits, kappa, &mut out);
    out
}

/// [`evaluate_hinge`] into a reusable [`HingeEval`] (allocation-free once
/// shapes repeat).
///
/// One serial pass over the logit rows (a hinge row is one logit scan,
/// far cheaper than a thread spawn) fills each image's margin, finds the
/// active ones, and writes only their gradient entries, their terms of
/// `total` (folded in `f64` in image order) and the rows the backward
/// visits ([`HingeEval::rows`]). Image `i` enforces its target with
/// weight `c_attack` for `i < S`, its label with `c_keep` after.
///
/// An inactive image's term is `+0.0`, and a sum that starts at `+0.0`
/// never becomes `−0.0` by adding `+0.0`, so leaving those terms out of
/// `total` keeps its bits.
///
/// # Panics
///
/// Panics if `logits` is not `[R, classes]` for the spec, or an enforced
/// label is not below `classes`.
pub fn evaluate_hinge_into(spec: &AttackSpec, logits: &Tensor, kappa: f32, out: &mut HingeEval) {
    hinge_into(spec, logits, kappa, out, avx_available());
}

/// [`evaluate_hinge_into`], with the row-lane AVX build when `avx` is set
/// (only where [`avx_available`]) and the scalar row loop otherwise.
fn hinge_into(spec: &AttackSpec, logits: &Tensor, kappa: f32, out: &mut HingeEval, avx: bool) {
    let r = spec.r();
    assert_eq!(logits.ndim(), 2, "logits must be [R, classes]");
    assert_eq!(logits.shape()[0], r, "logits rows must equal R");
    let classes = logits.shape()[1];
    // No label is below zero classes.
    assert!(
        r == 0 || classes > 0,
        "enforced labels out of range of 0 classes"
    );

    out.logit_grad.reuse_as(&[r, classes]);
    out.margins.resize(r, 0.0);
    out.rows.clear();
    out.rows.reserve(r);
    let grad = out.logit_grad.as_mut_slice();
    grad.fill(0.0);
    let mut pass = RowPass {
        logits: logits.as_slice(),
        classes,
        kappa,
        grad,
        margins: &mut out.margins,
        visit: &mut out.rows,
        total: 0.0,
        active: 0,
    };
    let s = spec.s();
    for (first, enforced, c) in [
        (0, &spec.targets[..], spec.c_attack),
        (s, &spec.labels[s..], spec.c_keep),
    ] {
        // A lane holds class indices as `f32`, exact up to 2²⁴.
        #[cfg(target_arch = "x86_64")]
        let done = if avx && classes <= 1 << 24 {
            // SAFETY: `avx` is set only where the CPU supports AVX
            // (`avx_available`).
            unsafe { lanes::blocks(&mut pass, first, enforced, c) }
        } else {
            0
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = {
            let _ = avx;
            0
        };
        for (k, &t) in enforced.iter().enumerate().skip(done) {
            pass.row(first + k, t, c);
        }
    }
    out.total = pass.total as f32;
    out.active = pass.active;
}

/// One evaluation's inputs and outputs, shared by the scalar row loop
/// and the row-lane build.
struct RowPass<'a> {
    logits: &'a [f32],
    classes: usize,
    kappa: f32,
    grad: &'a mut [f32],
    margins: &'a mut [f32],
    visit: &'a mut Vec<usize>,
    total: f64,
    active: usize,
}

impl RowPass<'_> {
    /// Logit row `i`.
    #[inline(always)]
    fn logit_row(&self, i: usize) -> &[f32] {
        &self.logits[i * self.classes..(i + 1) * self.classes]
    }

    /// Image `i`, enforcing class `t` with weight `c`, by the scalar row
    /// loop.
    #[inline(always)]
    fn row(&mut self, i: usize, t: usize, c: f32) {
        assert!(t < self.classes, "enforced label {t} out of range");
        let row = self.logit_row(i);
        // Runner-up: the first strict maximum over the classes other than
        // `t`. `z > best` is false for NaN, so NaN is never chosen, and a
        // row with nothing above −∞ keeps the sentinel.
        let mut j_star = usize::MAX;
        let mut best = f32::NEG_INFINITY;
        for (j, &z) in row.iter().enumerate() {
            let take = j != t && z > best;
            best = if take { z } else { best };
            j_star = if take { j } else { j_star };
        }
        let z_t = row[t];
        let margin = best - z_t + self.kappa;
        self.margins[i] = margin;
        let active = margin > 0.0;
        if active {
            self.settle(i, j_star, t, c);
        }
        if (active && c != 0.0) || self.unproven(i, best, z_t) {
            self.visit.push(i);
        }
    }

    /// Active image `i`: its two gradient entries (`margin > 0` implies
    /// a finite `best`, so `j_star` is a class) and its term of `total`.
    #[inline(always)]
    fn settle(&mut self, i: usize, j_star: usize, t: usize, c: f32) {
        let grow = &mut self.grad[i * self.classes..(i + 1) * self.classes];
        grow[j_star] += c;
        grow[t] -= c;
        self.total += (c * self.margins[i]) as f64;
        self.active += 1;
    }

    /// Whether logit row `i`, whose runner-up value is `best` and enforced
    /// logit `z_t`, holds no finite value. A finite `best` or `z_t`
    /// settles it; only a row where both are not finite is scanned.
    #[inline(always)]
    fn unproven(&self, i: usize, best: f32, z_t: f32) -> bool {
        !(best.is_finite() || z_t.is_finite() || self.logit_row(i).iter().any(|v| v.is_finite()))
    }
}

/// The row-lane build of the hinge (x86_64 only): lane `l` of every
/// vector is image `r0 + l` of an eight-row block, so one pass over the
/// classes finds eight runner-ups. Each lane makes the scalar row loop's
/// choices in its order (`z > best` unless `j == t`, first strict maximum,
/// NaN never taken) and its margin is the same `(best − z_t) + κ`, so the
/// two builds agree bit for bit
/// (`tests::one_pass_hinge_matches_the_per_row_oracle_bit_for_bit` runs
/// both). The active lanes then go through the scalar row epilogue in
/// ascending order.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::RowPass;
    use std::arch::x86_64::*;

    /// Rows `first..` of one segment (image `first + k` enforces
    /// `enforced[k]` with weight `c`), eight at a time; returns how many
    /// leading rows it evaluated (a multiple of eight). The rest go
    /// through [`RowPass::row`].
    ///
    /// # Safety
    ///
    /// The CPU must support AVX ([`super::avx_available`]). Every load
    /// reads inside one eight-row block of the logits, whose bounds are
    /// checked by slicing. Class indices must be exact in `f32`
    /// (`classes ≤ 2²⁴`); that is a condition of the results, not of
    /// memory safety.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn blocks(
        pass: &mut RowPass<'_>,
        first: usize,
        enforced: &[usize],
        c: f32,
    ) -> usize {
        let classes = pass.classes;
        let kappa = _mm256_set1_ps(pass.kappa);
        let abs = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let inf = _mm256_set1_ps(f32::INFINITY);
        let one = _mm256_set1_ps(1.0);
        let finite = |v: __m256| _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_and_ps(v, abs), inf);
        let mut done = 0;
        for ts in enforced.chunks_exact(8) {
            let r0 = first + done;
            for &t in ts {
                assert!(t < classes, "enforced label {t} out of range");
            }
            let z = &pass.logits[r0 * classes..(r0 + 8) * classes];
            // Exact: every label is below `classes` ≤ 2²⁴.
            let t = _mm256_cvtepi32_ps(_mm256_setr_epi32(
                ts[0] as i32,
                ts[1] as i32,
                ts[2] as i32,
                ts[3] as i32,
                ts[4] as i32,
                ts[5] as i32,
                ts[6] as i32,
                ts[7] as i32,
            ));
            let mut best = _mm256_set1_ps(f32::NEG_INFINITY);
            let mut j_star = _mm256_setzero_ps();
            let mut z_t = _mm256_setzero_ps();
            // Class `j` in every lane, counted up exactly.
            let mut j = _mm256_setzero_ps();
            for j0 in (0..classes).step_by(4) {
                // SAFETY: AVX is available (this function's contract), `z`
                // holds the block's eight rows and `j0 < classes`.
                let columns = unsafe { columns(z, classes, j0) };
                for &zj in columns.iter().take(classes - j0) {
                    let is_t = _mm256_cmp_ps::<_CMP_EQ_OQ>(j, t);
                    z_t = _mm256_blendv_ps(z_t, zj, is_t);
                    let take = _mm256_andnot_ps(is_t, _mm256_cmp_ps::<_CMP_GT_OQ>(zj, best));
                    best = _mm256_blendv_ps(best, zj, take);
                    j_star = _mm256_blendv_ps(j_star, j, take);
                    j = _mm256_add_ps(j, one);
                }
            }
            let margin = _mm256_add_ps(_mm256_sub_ps(best, z_t), kappa);
            let margins = &mut pass.margins[r0..r0 + 8];
            // SAFETY: `margins` holds exactly 8 `f32`s, one vector.
            unsafe { _mm256_storeu_ps(margins.as_mut_ptr(), margin) };
            let mut active =
                _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GT_OQ>(margin, _mm256_setzero_ps())) as u32;
            let proven = _mm256_movemask_ps(_mm256_or_ps(finite(best), finite(z_t))) as u32;
            let mut js = [0i32; 8];
            // SAFETY: `js` holds exactly 8 `i32`s, one vector.
            unsafe { _mm256_storeu_si256(js.as_mut_ptr().cast(), _mm256_cvttps_epi32(j_star)) };
            let mut visit = if c != 0.0 { active } else { 0 };
            let mut doubt = !proven & 0xff;
            while doubt != 0 {
                let l = doubt.trailing_zeros() as usize;
                doubt &= doubt - 1;
                if !pass.logit_row(r0 + l).iter().any(|v| v.is_finite()) {
                    visit |= 1 << l;
                }
            }
            while active != 0 {
                let l = active.trailing_zeros() as usize;
                active &= active - 1;
                pass.settle(r0 + l, js[l] as usize, ts[l], c);
            }
            while visit != 0 {
                let l = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                pass.visit.push(r0 + l);
            }
            done += 8;
        }
        done
    }

    /// Classes `j0..j0 + 4` of the eight rows `z` (`classes` wide) as
    /// four vectors, lane `l` holding row `l`: each row's four entries
    /// load as one half (masked past the row's end), rows `l` and
    /// `l + 4` pair up in one register, and two rounds of unpack and
    /// shuffle transpose each 128-bit half as a 4×4 block. Vectors past
    /// `classes` hold zeros.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX, `z` must hold eight rows of `classes`
    /// values, and `j0 < classes`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn columns(z: &[f32], classes: usize, j0: usize) -> [__m256; 4] {
        let n = (classes - j0).min(4);
        let mask = _mm_cmpgt_epi32(_mm_set1_epi32(n as i32), _mm_setr_epi32(0, 1, 2, 3));
        let p = z.as_ptr();
        let half = |l: usize| {
            // SAFETY: row `l < 8` of the block holds `classes` values from
            // `l·classes`; the four read are `j0..j0 + 4` if `n = 4`, and
            // only the `n` in the row otherwise.
            unsafe {
                if n == 4 {
                    _mm_loadu_ps(p.add(l * classes + j0))
                } else {
                    _mm_maskload_ps(p.add(l * classes + j0), mask)
                }
            }
        };
        let pair =
            |l: usize| _mm256_insertf128_ps::<1>(_mm256_castps128_ps256(half(l)), half(l + 4));
        let (r04, r15, r26, r37) = (pair(0), pair(1), pair(2), pair(3));
        let (lo01, hi01) = (_mm256_unpacklo_ps(r04, r15), _mm256_unpackhi_ps(r04, r15));
        let (lo23, hi23) = (_mm256_unpacklo_ps(r26, r37), _mm256_unpackhi_ps(r26, r37));
        [
            _mm256_shuffle_ps::<0x44>(lo01, lo23),
            _mm256_shuffle_ps::<0xee>(lo01, lo23),
            _mm256_shuffle_ps::<0x44>(hi01, hi23),
            _mm256_shuffle_ps::<0xee>(hi01, hi23),
        ]
    }
}

/// Counts how many of the first `S` images are classified as their targets
/// and how many of the rest keep their labels, from raw logits.
///
/// Returns `(s_hits, keep_hits)`.
pub fn count_satisfied(spec: &AttackSpec, logits: &Tensor) -> (usize, usize) {
    let mut s_hits = 0;
    let mut keep_hits = 0;
    for i in 0..spec.r() {
        let pred = fsa_nn::loss::argmax_slice(logits.row(i));
        if i < spec.s() {
            if pred == spec.targets[i] {
                s_hits += 1;
            }
        } else if pred == spec.labels[i] {
            keep_hits += 1;
        }
    }
    (s_hits, keep_hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    fn spec2() -> AttackSpec {
        // R = 2, S = 1: image 0 must become class 2; image 1 stays class 0.
        AttackSpec::new(Tensor::zeros(&[2, 3]), vec![1, 0], vec![2])
    }

    #[test]
    fn satisfied_images_have_zero_hinge_and_grad() {
        let spec = spec2();
        // Image 0 already classified 2, image 1 already 0.
        let logits = Tensor::from_vec(vec![0.0, 1.0, 5.0, 9.0, 2.0, 1.0], &[2, 3]);
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        assert_eq!(eval.total, 0.0);
        assert_eq!(eval.active, 0);
        assert!(eval.logit_grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn violated_image_gets_signed_gradient() {
        let spec = spec2();
        // Image 0: class 1 logit dominates (4.0), target 2 at 1.0 → active.
        let logits = Tensor::from_vec(vec![0.0, 4.0, 1.0, 9.0, 2.0, 1.0], &[2, 3]);
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        assert_eq!(eval.active, 1);
        assert!((eval.total - 3.0).abs() < 1e-6);
        let g = eval.logit_grad.row(0);
        assert_eq!(g, &[0.0, 1.0, -1.0]);
        assert_eq!(eval.logit_grad.row(1), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn weights_scale_gradient() {
        let spec = spec2().with_weights(5.0, 0.5);
        let logits = Tensor::from_vec(vec![0.0, 4.0, 1.0, 2.0, 9.0, 1.0], &[2, 3]);
        // Image 0 violated (weight 5), image 1 violated: pred 1 ≠ 0 (weight 0.5).
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        assert_eq!(eval.logit_grad.row(0), &[0.0, 5.0, -5.0]);
        assert_eq!(eval.logit_grad.row(1), &[-0.5, 0.5, 0.0]);
    }

    #[test]
    fn kappa_demands_margin() {
        let spec = spec2();
        // Image 0 satisfied by 0.5 — but kappa = 1 makes it active.
        let logits = Tensor::from_vec(vec![0.0, 1.0, 1.5, 9.0, 0.0, 0.0], &[2, 3]);
        assert_eq!(evaluate_hinge(&spec, &logits, 0.0).active, 0);
        assert_eq!(evaluate_hinge(&spec, &logits, 1.0).active, 1);
    }

    #[test]
    fn count_satisfied_partitions() {
        let spec = spec2();
        let logits = Tensor::from_vec(vec![0.0, 1.0, 5.0, 1.0, 9.0, 0.0], &[2, 3]);
        // Image 0: pred 2 == target ✓; image 1: pred 1 ≠ label 0 ✗.
        assert_eq!(count_satisfied(&spec, &logits), (1, 0));
    }

    /// The per-row hinge this module ran before the one-pass form, kept
    /// as the oracle both builds must match bit for bit: returns
    /// `(total, margins, logit_grad, active, rows)`, where `rows` are
    /// the rows the head backward kept before the hinge listed them: a
    /// gradient row with an entry `!= 0.0`, or a logit row with no
    /// finite value.
    fn hinge_oracle(
        spec: &AttackSpec,
        logits: &Tensor,
        kappa: f32,
    ) -> (f32, Vec<f32>, Vec<f32>, usize, Vec<usize>) {
        let r = spec.r();
        let classes = logits.shape()[1];
        let mut grad = vec![0.0f32; r * classes];
        let mut per_image = vec![0.0f32; r];
        let mut margins = vec![0.0f32; r];
        for i in 0..r {
            let t = spec.enforced_label(i);
            assert!(t < classes, "enforced label {t} out of range");
            let row = logits.row(i);
            let mut j_star = usize::MAX;
            let mut best = f32::NEG_INFINITY;
            for (j, &z) in row.iter().enumerate() {
                if j != t && z > best {
                    best = z;
                    j_star = j;
                }
            }
            let margin = best - row[t] + kappa;
            margins[i] = margin;
            if margin > 0.0 {
                let c = spec.weight(i);
                per_image[i] = c * margin;
                let grow = &mut grad[i * classes..(i + 1) * classes];
                grow[j_star] += c;
                grow[t] -= c;
            }
        }
        let mut total = 0.0f64;
        for &g in &per_image {
            total += g as f64;
        }
        let active = margins.iter().filter(|&&m| m > 0.0).count();
        let rows = (0..r)
            .filter(|&i| {
                grad[i * classes..(i + 1) * classes]
                    .iter()
                    .any(|&v| v != 0.0)
                    || !logits.row(i).iter().any(|v| v.is_finite())
            })
            .collect();
        (total as f32, margins, grad, active, rows)
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g:e} vs {w:e}");
        }
    }

    /// Seeded logits whose rows mix plain values with the hinge's edge
    /// cases: a NaN, ±∞, all NaN (no runner-up: the sentinel), all −∞,
    /// ties (including +0.0 against −0.0), a −0.0 enforced logit, and
    /// rows with no finite value (all +∞; −∞ or NaN with one +∞, which
    /// is an active hinge when the +∞ is the runner-up).
    fn edge_logits(r: usize, classes: usize, rng: &mut Prng) -> Tensor {
        let mut z: Vec<f32> = (0..r * classes).map(|_| rng.uniform(-2.0, 2.0)).collect();
        for (i, row) in z.chunks_exact_mut(classes).enumerate() {
            let j = rng.below(classes);
            match i % 13 {
                1 => row[j] = f32::NAN,
                2 => row[j] = f32::INFINITY,
                3 => row[j] = f32::NEG_INFINITY,
                4 => row.fill(f32::NAN),
                5 => row.fill(f32::NEG_INFINITY),
                6 => row.fill(row[j]),
                7 => {
                    row.fill(0.0);
                    row[j] = -0.0;
                }
                8 => row[j] = row[(j + 1) % classes],
                9 => row.fill(f32::INFINITY),
                10 => {
                    row.fill(f32::NEG_INFINITY);
                    row[j] = f32::INFINITY;
                }
                11 => {
                    row.fill(f32::NAN);
                    row[j] = f32::INFINITY;
                }
                _ => {}
            }
        }
        Tensor::from_vec(z, &[r, classes])
    }

    /// Both builds (the row-lane one where the CPU has AVX) against the
    /// per-row oracle: margins, gradient and `total` by `to_bits`,
    /// `active` and the visit list exactly. `R` runs over partial and
    /// full eight-row blocks, up to 260 rows (two of the backward's `KC`
    /// tiles); the weights include `0.0` and `−0.0` on active rows, whose
    /// gradient rows stay zero and off the list.
    #[test]
    fn one_pass_hinge_matches_the_per_row_oracle_bit_for_bit() {
        let mut rng = Prng::new(41);
        let builds = if avx_available() {
            vec![false, true]
        } else {
            vec![false]
        };
        // One eval reused across every case, as the ADMM loop does, so a
        // stale value from a larger or different earlier case would show.
        let mut eval = HingeEval::default();
        let mut cases = 0;
        for classes in [1usize, 2, 3, 4, 5, 10] {
            for r in [0usize, 1, 9, 13, 40, 260] {
                let s_values = if classes == 1 {
                    vec![0]
                } else {
                    vec![0, r / 3, r]
                };
                for s in s_values {
                    for (c_attack, c_keep) in
                        [(1.0f32, 1.0f32), (0.0, 2.5), (3.0, 0.0), (0.5, -0.0)]
                    {
                        for kappa in [0.0f32, 0.25] {
                            let labels: Vec<usize> = (0..r).map(|_| rng.below(classes)).collect();
                            let targets: Vec<usize> = labels[..s]
                                .iter()
                                .map(|&l| (l + 1 + rng.below(classes - 1)) % classes)
                                .collect();
                            let spec = AttackSpec::new(Tensor::zeros(&[r, 1]), labels, targets)
                                .with_weights(c_attack, c_keep);
                            let logits = edge_logits(r, classes, &mut rng);
                            let (total, margins, grad, active, rows) =
                                hinge_oracle(&spec, &logits, kappa);
                            for &avx in &builds {
                                hinge_into(&spec, &logits, kappa, &mut eval, avx);
                                let what = format!(
                                    "classes={classes} R={r} S={s} c=({c_attack}, {c_keep}) kappa={kappa} avx={avx}"
                                );
                                assert_same_bits(&[eval.total], &[total], &format!("{what} total"));
                                assert_same_bits(
                                    &eval.margins,
                                    &margins,
                                    &format!("{what} margins"),
                                );
                                assert_same_bits(
                                    eval.logit_grad.as_slice(),
                                    &grad,
                                    &format!("{what} grad"),
                                );
                                assert_eq!(eval.logit_grad.shape(), &[r, classes], "{what}");
                                assert_eq!(eval.active, active, "{what} active");
                                assert_eq!(eval.rows(), &rows[..], "{what} rows");
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(cases > 600, "{cases} cases");
    }

    /// The handoff end to end: at every start of a four-layer head, both
    /// hinge builds' lists drive `backward_rows` to the bits of the
    /// dense backward over every row. R = 260 spans two `KC` tiles; the
    /// weights include `−0.0` on active keep rows, and a NaN input row
    /// leaves its logits with no finite value.
    #[test]
    fn hinge_rows_drive_the_backward_to_the_dense_bits() {
        use fsa_nn::head::{FcHead, HeadBuffers};
        let mut rng = Prng::new(43);
        let head = FcHead::from_dims(&[12, 10, 9, 5], &mut rng);
        let builds = if avx_available() {
            vec![false, true]
        } else {
            vec![false]
        };
        let (mut sparse, mut dense) = (HeadBuffers::new(), HeadBuffers::new());
        let mut eval = HingeEval::default();
        for r in [13usize, 260] {
            let mut x = Tensor::randn(&[r, 12], 1.0, &mut rng);
            x.row_mut(r - 2).fill(f32::NAN);
            // Every fourth keep row enforces a class it does not predict.
            let labels: Vec<usize> = head
                .predict(&x)
                .iter()
                .enumerate()
                .map(|(i, &p)| if i % 4 == 1 { (p + 1) % 5 } else { p })
                .collect();
            let targets: Vec<usize> = labels[..3].iter().map(|&l| (l + 2) % 5).collect();
            for (c_attack, c_keep) in [(4.0f32, 1.0f32), (2.0, -0.0)] {
                let spec = AttackSpec::new(x.clone(), labels.clone(), targets.clone())
                    .with_weights(c_attack, c_keep);
                for start in 0..head.num_layers() {
                    let acts = head.activations_before(start, &x);
                    let logits = head.forward_from_caching(start, &acts, &mut dense).clone();
                    head.forward_from_caching(start, &acts, &mut sparse);
                    for &avx in &builds {
                        hinge_into(&spec, &logits, 0.5, &mut eval, avx);
                        let what =
                            format!("R={r} c=({c_attack}, {c_keep}) start={start} avx={avx}");
                        assert!(eval.rows().contains(&(r - 2)), "{what}: NaN row not listed");
                        assert!(eval.rows().len() < r, "{what}: every row listed");
                        head.backward_from_cache(start, &acts, &eval.logit_grad, &mut dense);
                        head.backward_rows(
                            start,
                            &acts,
                            &eval.logit_grad,
                            eval.rows(),
                            &mut sparse,
                        );
                        for (rel, (a, b)) in sparse.grads().iter().zip(dense.grads()).enumerate() {
                            for (got, want) in [(&a.0, &b.0), (&a.1, &b.1)] {
                                for (k, (g, w)) in
                                    got.as_slice().iter().zip(want.as_slice()).enumerate()
                                {
                                    assert!(
                                        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                        "{what}: layer {rel} [{k}] {g:e} vs {w:e}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn one_pass_hinge_refuses_an_enforced_label_past_the_classes() {
        let spec = AttackSpec::new(Tensor::zeros(&[2, 1]), vec![0, 3], vec![]);
        evaluate_hinge(&spec, &Tensor::zeros(&[2, 3]), 0.0);
    }

    #[test]
    fn hinge_gradient_matches_finite_difference() {
        let spec = spec2().with_weights(2.0, 3.0);
        let logits = Tensor::from_vec(vec![0.3, 0.9, 0.1, 0.2, 0.8, 0.4], &[2, 3]);
        let eval = evaluate_hinge(&spec, &logits, 0.0);
        let eps = 1e-3;
        for idx in 0..logits.numel() {
            let mut p = logits.clone();
            p.as_mut_slice()[idx] += eps;
            let mut m = logits.clone();
            m.as_mut_slice()[idx] -= eps;
            let fp = evaluate_hinge(&spec, &p, 0.0).total;
            let fm = evaluate_hinge(&spec, &m, 0.0).total;
            let num = (fp - fm) / (2.0 * eps);
            let ana = eval.logit_grad.as_slice()[idx];
            assert!((num - ana).abs() < 1e-2, "idx {idx}: {num} vs {ana}");
        }
    }
}
