//! Block-granular parameter-integrity checksums with a bounded audit
//! budget, audited at a fixed or a seeded rotating block phase.
//!
//! The strongest integrity defense — re-hash every parameter before
//! every inference — would catch any `δ`, but at 250k parameters per
//! model and millions of inferences it is never deployed that way.
//! Real monitors checksum the parameter buffer in **blocks** and audit
//! a **budget** of randomly chosen blocks per pass. That turns
//! integrity into a measurable game the ℓ0 attack plays well: a sparse
//! `δ` dirties few blocks, so a bounded audit usually misses it, while
//! a dense ℓ2 `δ` dirties almost every block and is caught immediately.
//!
//! A [`ChecksumDetector`] partitions the buffer at each offset of a
//! schedule fixed at calibration. [`ChecksumDetector::new`] audits the
//! one partition starting at offset 0 — and the detector-aware attacker
//! exploits exactly that: co-locate the δ support into at most
//! `max_dirty_blocks` blocks *of that one partition* and the audit's hit
//! probability stays under its alarm threshold. The assumption being
//! attacked is not the checksum, it is the **fixed block phase**.
//!
//! [`ChecksumDetector::rotating`] breaks it. It draws a seeded schedule
//! of [`ROTATING_PHASES`] distinct nonzero offsets; each audit pass
//! re-partitions the buffer at one scheduled offset (a short head block
//! `[0, offset)`, then full blocks), so the phases overlap each other
//! and the 0-offset partition, and a support that is compact in one
//! phase straddles block boundaries in the others. The attacker cannot
//! model the schedule without the seed: co-locating against any single
//! partition leaves up to twice as many dirty blocks in every shifted
//! one.
//!
//! An observation is diffed against the calibrated words bit for bit,
//! and only the blocks holding a differing word are re-hashed (in the
//! calibration's word order) and compared with their reference
//! checksums: every other block holds the calibrated bytes, so its
//! checksum is the calibrated one. A sparse δ costs a few blocks per
//! phase, not the whole buffer.
//!
//! Scoring is pure and deterministic — no sampling, at calibration or
//! at observation time. Per phase, the score is the exact probability
//! that a uniform without-replacement audit of `audit_blocks` blocks
//! hits at least one dirty block ([`hypergeometric_hit_probability`]);
//! the detector scores the mean over its phases in fixed order, which
//! for the one-phase fixed schedule is that probability to the bit. So
//! granularity sweeps quantify evasion instead of asserting it. Equal
//! seeds give bit-identical schedules, scores, and arena fingerprints
//! at any `FSA_THREADS`; the seed is part of the rotating detector's
//! name, so it flows into every [`crate::ArenaReport::fingerprint`].

use crate::detector::{changed_words, flat_params, Detector};
use fsa_nn::head::FcHead;
use fsa_tensor::hash::{fnv1a_f32_bits, Fnv1a};
use fsa_tensor::Prng;
use std::ops::Range;

/// Scheduled block phases per [`ChecksumDetector::rotating`] auditor —
/// enough overlapping partitions that a support co-located against any
/// one of them straddles blocks in the others.
pub const ROTATING_PHASES: usize = 4;

/// Domain-separation constant for the offset-schedule stream ("ROTA").
const SCHEDULE_DOMAIN: u64 = 0x524f_5441;

/// Per-block checksums of a flat parameter vector (the last block may
/// be short).
fn block_checksums(params: &[f32], block_params: usize) -> Vec<u64> {
    params.chunks(block_params).map(fnv1a_f32_bits).collect()
}

/// Per-block checksums of a flat parameter vector partitioned at
/// `offset`: a short head block `[0, offset)` when `offset > 0`, then
/// `block_params`-sized blocks (the tail block may be short too). At
/// offset 0 this is exactly [`block_checksums`] — no empty head block.
fn phase_checksums(params: &[f32], block_params: usize, offset: usize) -> Vec<u64> {
    if offset == 0 {
        return block_checksums(params, block_params);
    }
    let split = offset.min(params.len());
    let mut out = vec![fnv1a_f32_bits(&params[..split])];
    out.extend(block_checksums(&params[split..], block_params));
    out
}

/// The block of the partition at `offset` (as [`phase_checksums`] cuts
/// it) that holds word `i` of an `n`-word buffer, with that block's
/// word range.
fn block_of(i: usize, n: usize, block_params: usize, offset: usize) -> (usize, Range<usize>) {
    if i < offset {
        return (0, 0..offset.min(n));
    }
    let k = (i - offset) / block_params;
    let lo = offset + k * block_params;
    (usize::from(offset > 0) + k, lo..(lo + block_params).min(n))
}

/// `words[span]` with the `(index, bits)` pairs of `changes` (ascending,
/// all inside `span`) written over it.
fn patched<'a>(
    words: &'a [u32],
    span: Range<usize>,
    changes: &'a [(usize, u32)],
) -> impl Iterator<Item = u32> + 'a {
    let mut pending = changes.iter().peekable();
    span.map(move |i| match pending.next_if(|&&(j, _)| j == i) {
        Some(&(_, bits)) => bits,
        None => words[i],
    })
}

/// Exact probability that a uniform without-replacement audit of
/// `budget` blocks hits at least one of `dirty` mismatched blocks among
/// `blocks` total: `1 − Π_{i=0}^{B−1} (N − d − i) / (N − i)`.
///
/// This is the one hypergeometric kernel every checksum phase scores
/// through, so the numerics live here once. Computed in `f64` with a
/// fixed-order product — deterministic at any thread count — and
/// hardened for large block counts (e.g. granularity 16 over 250k
/// parameters is 15 625 blocks with a ~2k-block audit):
///
/// * `budget` is clamped to `blocks`, and any audit that cannot avoid a
///   dirty block (`dirty + budget > blocks`, which covers `dirty >=
///   blocks`) short-circuits to exactly `1.0` before the product runs —
///   the product form would divide sub-zero counts there;
/// * a miss product that underflows to subnormal/zero is exact: the hit
///   probability is `1.0` to every representable bit;
/// * the result is clamped into `[0, 1]`, so accumulated rounding in a
///   many-term product can never escape the probability scale. For
///   every in-range product the clamp is the identity, which keeps
///   historical scores bit-identical.
pub fn hypergeometric_hit_probability(blocks: usize, dirty: usize, budget: usize) -> f32 {
    let n = blocks;
    let budget = budget.min(n);
    if dirty == 0 {
        return 0.0;
    }
    if dirty + budget > n {
        // Too few clean blocks to fill the audit: a hit is certain.
        return 1.0;
    }
    let mut miss = 1.0f64;
    for i in 0..budget {
        miss *= (n - dirty - i) as f64 / (n - i) as f64;
    }
    ((1.0 - miss) as f32).clamp(0.0, 1.0)
}

/// A block-granular integrity auditor calibrated on the clean model,
/// over a fixed schedule of block phases.
#[derive(Debug, Clone)]
pub struct ChecksumDetector {
    block_params: usize,
    audit_blocks: usize,
    /// The schedule seed of a [`ChecksumDetector::rotating`] auditor;
    /// `None` for the fixed 0-offset partition.
    seed: Option<u64>,
    /// Partition offsets, strictly ascending: `[0]` for the fixed
    /// auditor, seeded offsets in `1..block_params` for the rotating one
    /// — offset 0 is the partition the fixed auditor already covers, so
    /// the rotation covers only phases the attacker has not co-located
    /// against.
    offsets: Vec<usize>,
    /// Reference checksums per phase, aligned with `offsets`.
    reference: Vec<Vec<u64>>,
    /// The calibrated model's parameter bit patterns, in
    /// [`flat_params`] order — what observations are diffed against.
    words: Vec<u32>,
}

impl ChecksumDetector {
    /// Calibrates block checksums of granularity `block_params` over the
    /// reference model at offset 0, with `audit_blocks` blocks inspected
    /// per audit (clamped to the block count; pass `usize::MAX` for a
    /// full audit).
    ///
    /// # Panics
    ///
    /// Panics if `block_params` or `audit_blocks` is zero.
    pub fn new(reference: &FcHead, block_params: usize, audit_blocks: usize) -> Self {
        assert!(block_params > 0, "block granularity must be positive");
        let mut det = Self::calibrate(reference, block_params, audit_blocks, None, vec![0]);
        det.audit_blocks = det.audit_blocks.min(det.reference[0].len());
        det
    }

    /// Calibrates phase-rotated block checksums of granularity
    /// `block_params` over the reference model.
    ///
    /// `audit_blocks` blocks are inspected per audit pass (clamped per
    /// phase to that phase's block count; pass `usize::MAX` for full
    /// audits). [`ROTATING_PHASES`] distinct nonzero offsets are drawn
    /// from the seeded schedule stream — a pure function of `seed`,
    /// fixed at calibration, never re-drawn at score time — and clamped
    /// to the `block_params - 1` distinct nonzero offsets that exist.
    ///
    /// # Panics
    ///
    /// Panics if `block_params < 2` (no nonzero offset exists) or
    /// `audit_blocks` is zero.
    pub fn rotating(
        reference: &FcHead,
        block_params: usize,
        audit_blocks: usize,
        seed: u64,
    ) -> Self {
        assert!(
            block_params >= 2,
            "offset rotation needs at least 2 params per block"
        );
        let mut offsets: Vec<usize> = Prng::new(seed ^ SCHEDULE_DOMAIN)
            .choose_distinct(block_params - 1, ROTATING_PHASES.min(block_params - 1))
            .into_iter()
            .map(|o| o + 1)
            .collect();
        offsets.sort_unstable();
        Self::calibrate(reference, block_params, audit_blocks, Some(seed), offsets)
    }

    fn calibrate(
        reference: &FcHead,
        block_params: usize,
        audit_blocks: usize,
        seed: Option<u64>,
        offsets: Vec<usize>,
    ) -> Self {
        assert!(audit_blocks > 0, "audit budget must be positive");
        let params = flat_params(reference);
        let reference = offsets
            .iter()
            .map(|&o| phase_checksums(&params, block_params, o))
            .collect();
        Self {
            block_params,
            audit_blocks,
            seed,
            offsets,
            reference,
            words: params.iter().map(|p| p.to_bits()).collect(),
        }
    }

    /// Blocks inspected per audit.
    pub fn audit_blocks(&self) -> usize {
        self.audit_blocks
    }

    /// The schedule's partition offsets, ascending (`[0]` for the fixed
    /// auditor).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The schedule seed the offsets were drawn from (`None` for the
    /// fixed auditor).
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// Dirty-block count of the observed head in each scheduled phase,
    /// aligned with [`ChecksumDetector::offsets`].
    ///
    /// # Panics
    ///
    /// Panics if the observed head's parameter count differs from the
    /// calibrated one (a different architecture is not a tampered
    /// model — it is a caller bug).
    pub fn dirty_blocks(&self, head: &FcHead) -> Vec<usize> {
        let changes = changed_words(&self.words, head);
        self.offsets
            .iter()
            .zip(&self.reference)
            .map(|(&offset, reference)| self.dirty_in_phase(&changes, offset, reference))
            .collect()
    }

    /// Blocks of the partition at `offset` whose checksum `changes`
    /// moves: each block holding a change is re-hashed with the changed
    /// words in place and compared with its `reference` checksum.
    fn dirty_in_phase(&self, changes: &[(usize, u32)], offset: usize, reference: &[u64]) -> usize {
        let mut dirty = 0;
        let mut rest = changes;
        while let Some(&(first, _)) = rest.first() {
            let (block, span) = block_of(first, self.words.len(), self.block_params, offset);
            let (in_block, tail) = rest.split_at(rest.partition_point(|&(i, _)| i < span.end));
            let mut h = Fnv1a::new();
            for bits in patched(&self.words, span, in_block) {
                h.write_bytes(&bits.to_le_bytes());
            }
            dirty += usize::from(h.finish() != reference[block]);
            rest = tail;
        }
        dirty
    }
}

impl Detector for ChecksumDetector {
    /// `checksum_g{g}_b{audit}` for the fixed auditor;
    /// `rot_checksum_g{g}_b{audit}_p{phases}_s{seed}` for the rotating
    /// one, so differently-seeded schedules are distinct suite columns
    /// and the seed lands in every arena fingerprint.
    fn name(&self) -> String {
        match self.seed {
            None => format!("checksum_g{}_b{}", self.block_params, self.audit_blocks),
            Some(seed) => format!(
                "rot_checksum_g{}_b{}_p{}_s{seed:016x}",
                self.block_params,
                self.audit_blocks,
                self.offsets.len()
            ),
        }
    }

    /// Alarm when the audit is more likely than not to hit a dirty
    /// block.
    fn threshold(&self) -> f32 {
        0.5
    }

    /// The exact expected detection probability over the schedule
    /// (uniform over its phases): each phase's hypergeometric hit
    /// probability, averaged in fixed phase order in `f64`.
    fn score(&self, head: &FcHead) -> f32 {
        let sum: f64 = self
            .reference
            .iter()
            .zip(self.dirty_blocks(head))
            .map(|(reference, dirty)| {
                f64::from(hypergeometric_hit_probability(
                    reference.len(),
                    dirty,
                    self.audit_blocks,
                ))
            })
            .sum();
        (sum / self.offsets.len() as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::detect_at;

    fn head() -> FcHead {
        let mut rng = Prng::new(17);
        // 4·6+6 + 6·3+3 = 51 parameters.
        FcHead::from_dims(&[4, 6, 3], &mut rng)
    }

    fn rot_head() -> FcHead {
        let mut rng = Prng::new(53);
        // 8·12+12 + 12·4+4 = 160 parameters.
        FcHead::from_dims(&[8, 12, 4], &mut rng)
    }

    /// Bumps flat parameter `index` of a copy of `head` by `amount`.
    fn tampered(head: &FcHead, index: usize, amount: f32) -> FcHead {
        let mut out = head.clone();
        let mut off = 0;
        for l in 0..out.num_layers() {
            let count = out.layer_param_count(l);
            if index < off + count {
                let mut flat = out.layer_flat_params(l);
                flat[index - off] += amount;
                out.set_layer_flat_params(l, &flat);
                return out;
            }
            off += count;
        }
        panic!("index {index} out of range");
    }

    #[test]
    fn clean_model_scores_zero() {
        let h = head();
        let det = ChecksumDetector::new(&h, 8, 2);
        assert_eq!(det.offsets(), &[0]);
        assert_eq!(det.seed(), None);
        assert_eq!(det.dirty_blocks(&h), vec![0]);
        assert_eq!(det.score(&h), 0.0);
        assert!(!det.evaluate(&h).detected);
    }

    #[test]
    fn offset_zero_partition_is_the_block_partition() {
        // The fixed auditor's one phase is the plain block partition:
        // no empty head block at offset 0, for short and exact tails.
        let params: Vec<f32> = (0..51).map(|i| i as f32 * 0.5).collect();
        for g in [1, 2, 8, 17, 26, 51, 64] {
            let blocks = phase_checksums(&params, g, 0);
            assert_eq!(blocks, block_checksums(&params, g));
            assert_eq!(blocks.len(), params.len().div_ceil(g));
        }
    }

    #[test]
    fn names_are_the_suite_columns() {
        // Fixed: the audit budget as clamped at construction. Rotating:
        // the raw budget, the phase count and the seed.
        let h = head();
        assert_eq!(
            ChecksumDetector::new(&h, 8, usize::MAX).name(),
            "checksum_g8_b7"
        );
        assert_eq!(ChecksumDetector::new(&h, 16, 2).name(), "checksum_g16_b2");
        let rot = ChecksumDetector::rotating(&h, 16, usize::MAX, 7);
        assert_eq!(
            rot.name(),
            format!("rot_checksum_g16_b{}_p4_s0000000000000007", usize::MAX)
        );
        assert_eq!(rot.seed(), Some(7));
    }

    #[test]
    fn fixed_score_is_the_hypergeometric_probability_to_the_bit() {
        // The mean over a one-phase schedule adds nothing: the fixed
        // auditor scores exactly the closed form of its dirty count.
        let h = head();
        let det = ChecksumDetector::new(&h, 4, 3);
        let mut t = h.clone();
        for index in [0, 9, 22, 23, 40, 50] {
            t = tampered(&t, index, 0.5);
            let dirty = det.dirty_blocks(&t)[0];
            let want = hypergeometric_hit_probability(13, dirty, 3);
            let got = det.score(&t);
            assert_eq!(got.to_bits(), want.to_bits(), "dirty {dirty}");
        }
    }

    #[test]
    fn full_audit_catches_any_single_change() {
        let h = head();
        let det = ChecksumDetector::new(&h, 8, usize::MAX);
        assert_eq!(det.audit_blocks(), det.reference[0].len());
        let t = tampered(&h, 20, 0.5);
        assert_eq!(det.dirty_blocks(&t), vec![1]);
        assert_eq!(det.score(&t), 1.0);
    }

    #[test]
    fn block_edges_are_exact() {
        // Granularity 8 over 51 params → blocks [0..8), [8..16), …
        // A δ at index 7 (last slot of block 0) dirties only block 0; at
        // index 8 (first slot of block 1) only block 1; touching both
        // sides of the edge dirties exactly two blocks.
        let h = head();
        let det = ChecksumDetector::new(&h, 8, 1);
        assert_eq!(det.reference[0].len(), 7); // ceil(51 / 8), last block short
        assert_eq!(det.dirty_blocks(&tampered(&h, 7, 0.5)), vec![1]);
        assert_eq!(det.dirty_blocks(&tampered(&h, 8, 0.5)), vec![1]);
        let both = tampered(&tampered(&h, 7, 0.5), 8, 0.5);
        assert_eq!(det.dirty_blocks(&both), vec![2]);
        // The short tail block [48..51) is audited like any other.
        assert_eq!(det.dirty_blocks(&tampered(&h, 50, 0.5)), vec![1]);
    }

    #[test]
    fn detection_probability_matches_hypergeometric() {
        // N = 7 blocks, B = 2 audited.
        let p = |d| hypergeometric_hit_probability(7, d, 2);
        // d = 1: P(hit) = 1 − (6/7)(5/6) = 2/7.
        assert!((p(1) - 2.0 / 7.0).abs() < 1e-6);
        // d = 3: P = 1 − (4/7)(3/6) = 5/7.
        assert!((p(3) - 5.0 / 7.0).abs() < 1e-6);
        // d = 6 with B = 2 leaves only one clean block: certain hit.
        assert_eq!(p(6), 1.0);
        assert_eq!(p(0), 0.0);
        // Monotone in d.
        for d in 1..7 {
            assert!(p(d) >= p(d - 1));
        }
    }

    #[test]
    fn coarser_blocks_are_harder_to_evade_at_fixed_budget() {
        // One modified word, one audited block: detection probability is
        // B/N = 1/N, and coarser granularity means fewer blocks N — the
        // trade-off the granularity sweep measures.
        let h = head();
        let t = tampered(&h, 20, 0.5);
        let fine = ChecksumDetector::new(&h, 4, 1);
        let coarse = ChecksumDetector::new(&h, 16, 1);
        let p_fine = fine.score(&t);
        let p_coarse = coarse.score(&t);
        assert!(
            p_coarse > p_fine,
            "coarse {p_coarse} should beat fine {p_fine} at budget 1"
        );
    }
    #[test]
    fn hypergeometric_boundaries_are_exact() {
        // dirty = 0: no mismatch, no detection — regardless of budget.
        for n in [1, 7, 139, 15_625] {
            assert_eq!(hypergeometric_hit_probability(n, 0, 1), 0.0);
            assert_eq!(hypergeometric_hit_probability(n, 0, n), 0.0);
        }
        // dirty = n: every block is dirty — any nonempty audit hits.
        for n in [1, 7, 139, 15_625] {
            assert_eq!(hypergeometric_hit_probability(n, n, 1), 1.0);
        }
        // budget = n: a full audit catches any dirty block.
        for d in [1, 3, 7] {
            assert_eq!(hypergeometric_hit_probability(7, d, 7), 1.0);
        }
        // budget > n clamps to a full audit instead of under-flowing the
        // clean-block count.
        assert_eq!(hypergeometric_hit_probability(7, 1, usize::MAX), 1.0);
        // dirty beyond the block count is a caller bug but must still
        // saturate at certainty, not panic or exceed 1.
        assert_eq!(hypergeometric_hit_probability(7, 9, 2), 1.0);
    }

    #[test]
    fn hypergeometric_is_stable_at_large_block_counts() {
        // The satellite case: granularity 16 over 250k parameters is
        // 15 625 blocks; the standard eighth-budget audit is 1 953
        // terms. Every score must stay a probability and the sweep must
        // stay monotone in the dirty count.
        let n = 250_000_usize.div_ceil(16);
        let b = n / 8;
        let mut prev = 0.0f32;
        for d in [0, 1, 2, 5, 17, 139, 1_000, 5_000, 12_000, n - b, n] {
            let p = hypergeometric_hit_probability(n, d, b);
            assert!((0.0..=1.0).contains(&p), "p({d}) = {p} escaped [0, 1]");
            assert!(p >= prev, "p({d}) = {p} broke monotonicity (prev {prev})");
            prev = p;
        }
        // Deep in the saturated regime the f64 miss product underflows;
        // underflow must read as certain detection, bit-exactly.
        assert_eq!(hypergeometric_hit_probability(n, 12_000, b), 1.0);
        // One dirty block among 15 625 under a 1 953-block audit: the
        // textbook value is B/N = 0.124992; the product form must agree
        // to f32 precision, not collapse to 0 or 1.
        let p1 = hypergeometric_hit_probability(n, 1, b);
        assert!((p1 - b as f32 / n as f32).abs() < 1e-6, "p(1) = {p1}");
    }

    #[test]
    fn threshold_tie_fires() {
        // Construct a score exactly at the 0.5 threshold: N = 2 blocks,
        // B = 1 audit, d = 1 dirty → P = 1/2 exactly.
        let h = head();
        let det = ChecksumDetector::new(&h, 26, 1); // ceil(51/26) = 2 blocks
        assert_eq!(det.reference[0].len(), 2);
        let t = tampered(&h, 0, 0.5);
        let v = det.evaluate(&t);
        assert_eq!(v.score, 0.5);
        assert!(v.detected, "a score exactly at threshold must alarm");
        assert!(detect_at(v.score, v.threshold));
    }

    #[test]
    fn rotating_clean_model_scores_zero_and_schedule_is_seeded() {
        let h = rot_head();
        let det = ChecksumDetector::rotating(&h, 16, 2, 0xABCD);
        assert_eq!(det.offsets().len(), ROTATING_PHASES);
        assert!(det.offsets().windows(2).all(|w| w[0] < w[1]));
        assert!(det.offsets().iter().all(|&o| (1..16).contains(&o)));
        assert_eq!(det.score(&h), 0.0);
        assert!(!det.evaluate(&h).detected);
        // Same seed → same schedule; different seed → (almost surely)
        // different schedule and a different suite column name.
        let again = ChecksumDetector::rotating(&h, 16, 2, 0xABCD);
        assert_eq!(again.offsets(), det.offsets());
        assert_eq!(again.name(), det.name());
        let other = ChecksumDetector::rotating(&h, 16, 2, 0xABCE);
        assert_ne!(other.name(), det.name());
    }

    #[test]
    fn rotating_score_is_the_mean_over_phases() {
        let h = rot_head();
        let det = ChecksumDetector::rotating(&h, 16, usize::MAX, 7);
        // A full audit detects with probability exactly 1 in any phase
        // with at least one dirty block — and a single-word tamper
        // dirties exactly one block of every phase.
        let t = tampered(&h, 40, 0.5);
        assert_eq!(det.dirty_blocks(&t), vec![1; ROTATING_PHASES]);
        assert_eq!(det.score(&t), 1.0);
    }

    #[test]
    fn compact_support_straddles_shifted_phases() {
        // Tamper a full aligned 0-offset block [16, 32): one dirty block
        // in the fixed partition, but *two* in every scheduled phase —
        // the property that invalidates the fixed-partition block cap.
        let h = rot_head();
        let mut t = h.clone();
        for i in 16..32 {
            t = tampered(&t, i, 0.25);
        }
        let det = ChecksumDetector::rotating(&h, 16, 2, 99);
        let fixed = ChecksumDetector::new(&h, 16, 2);
        assert_eq!(fixed.dirty_blocks(&t), vec![1]);
        for (o, d) in det.offsets().iter().zip(det.dirty_blocks(&t)) {
            assert_eq!(d, 2, "offset {o} should split the aligned block");
        }
        let shifted = det.score(&t);
        let aligned = fixed.score(&t);
        assert!(
            shifted > aligned,
            "rotation must raise detection on block-aligned support \
             ({shifted} vs {aligned})"
        );
    }

    #[test]
    fn rotating_score_is_deterministic() {
        let h = rot_head();
        let t = tampered(&h, 100, 1.0);
        let det = ChecksumDetector::rotating(&h, 16, 3, 0x5EED);
        let s1 = det.score(&t);
        let s2 = ChecksumDetector::rotating(&h, 16, 3, 0x5EED).score(&t);
        assert_eq!(s1.to_bits(), s2.to_bits(), "score must be pure");
    }

    #[test]
    fn phase_clamp_covers_tiny_granularities() {
        let h = rot_head();
        // Only one nonzero offset exists at granularity 2; the schedule
        // must clamp, not panic or duplicate.
        let det = ChecksumDetector::rotating(&h, 2, 1, 1);
        assert_eq!(det.offsets(), &[1]);
    }
}
