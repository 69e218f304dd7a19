//! Bit-level fault planning against int8 parameter storage.
//!
//! The `f32` pipeline's [`crate::plan::FaultPlan`] compiles a δ into
//! 32-bit word rewrites. On the int8 backend
//! (`fsa_nn::quant::QuantizedHead`-style storage, simulated here as a
//! plain byte buffer) every parameter is **one byte**, so the physical
//! plan changes character:
//!
//! * each modified parameter costs at most 8 bit flips (vs 32), and the
//!   representable targets are exactly the 255 grid points — there is no
//!   "sub-ULP modification too small to matter";
//! * a DRAM row holds 4× as many parameters, so an ℓ0-sparse δ lands in
//!   *fewer* distinct rows — better for rowhammer batching, worse for
//!   evading per-row parity (more flips share a parity bit);
//! * integrity monitors audit byte blocks; [`QuantFaultPlan::touched_blocks`]
//!   reports exactly which blocks a plan dirties, the quantity behind
//!   the audit-budget detection probability.
//!
//! [`QuantFaultPlan`] mirrors the `f32` plan's API over this storage:
//! compile from old/new byte images, fold onto DRAM rows via a
//! byte-granular [`ParamLayout`] ([`ParamLayout::with_word_bytes`] with
//! 1-byte words), and predict parity evasion with the same
//! odd-trips/even-evades rule ([`crate::parity`]). Everything is a pure
//! fixed-order function of its inputs — deterministic at any
//! `FSA_THREADS`.

use crate::dram::ParamLayout;
use crate::parity::{evading_rows, fold_rows, indexed_row_flips};

/// One stored byte to rewrite: a parameter of the int8 backend moving
/// between grid points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantChange {
    /// Index into the flat byte buffer (same layout as the `f32`
    /// selection: layers in order, weights row-major before bias).
    pub index: usize,
    /// Stored grid point before the fault.
    pub old: i8,
    /// Stored grid point after the fault.
    pub new: i8,
    /// Bit positions that differ (0 = LSB, at most 8 entries).
    pub flipped_bits: Vec<u8>,
}

/// A compiled byte-level fault plan: every stored byte the attack
/// rewrites, with bit detail and summary statistics.
///
/// # Examples
///
/// ```
/// use fsa_memfault::quant::QuantFaultPlan;
///
/// // Two of four stored bytes change; +1 on a positive byte is one flip.
/// let plan = QuantFaultPlan::compile(&[4, -3, 0, 100], &[5, -3, 0, 36]);
/// assert_eq!(plan.words(), 2);
/// assert_eq!(plan.changes[0].flipped_bits, vec![0]);
/// assert!(plan.total_bit_flips >= 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantFaultPlan {
    /// Byte rewrites, ordered by parameter index.
    pub changes: Vec<QuantChange>,
    /// Total bit flips across all bytes.
    pub total_bit_flips: u64,
}

/// The bit positions (0 = LSB) that differ between two stored bytes.
pub fn differing_bits_i8(old: i8, new: i8) -> Vec<u8> {
    let x = (old as u8) ^ (new as u8);
    (0..8).filter(|&b| x & (1 << b) != 0).collect()
}

/// Hamming distance between two stored bytes.
pub fn hamming_i8(old: i8, new: i8) -> u32 {
    ((old as u8) ^ (new as u8)).count_ones()
}

impl QuantFaultPlan {
    /// Compiles a plan from the old and new byte images of the storage
    /// (unchanged bytes are skipped).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn compile(old: &[i8], new: &[i8]) -> Self {
        assert_eq!(old.len(), new.len(), "old/new byte image length mismatch");
        let mut changes = Vec::new();
        let mut total = 0u64;
        for (i, (&o, &n)) in old.iter().zip(new).enumerate() {
            if o == n {
                continue;
            }
            let bits = differing_bits_i8(o, n);
            total += bits.len() as u64;
            changes.push(QuantChange {
                index: i,
                old: o,
                new: n,
                flipped_bits: bits,
            });
        }
        Self {
            changes,
            total_bit_flips: total,
        }
    }

    /// Number of modified bytes (`‖δ‖₀` at the storage level).
    pub fn words(&self) -> usize {
        self.changes.len()
    }

    /// Mean bit flips per modified byte (≤ 8 by construction).
    pub fn bits_per_word(&self) -> f64 {
        if self.changes.is_empty() {
            0.0
        } else {
            self.total_bit_flips as f64 / self.changes.len() as f64
        }
    }

    /// Applies the plan to a byte image in place.
    ///
    /// # Panics
    ///
    /// Panics if a change addresses a byte outside the image or the
    /// image does not hold the plan's `old` values.
    pub fn apply(&self, bytes: &mut [i8]) {
        for c in &self.changes {
            assert!(
                c.index < bytes.len(),
                "plan addresses byte {} outside the {}-byte image",
                c.index,
                bytes.len()
            );
            assert_eq!(
                bytes[c.index], c.old,
                "byte {} does not hold the plan's old value",
                c.index
            );
            bytes[c.index] = c.new;
        }
    }

    /// Distinct DRAM rows the plan touches under a byte-granular layout.
    ///
    /// # Panics
    ///
    /// Panics if the plan addresses parameters outside the layout.
    pub fn rows_touched(&self, layout: &ParamLayout) -> usize {
        let idx: Vec<usize> = self.changes.iter().map(|c| c.index).collect();
        layout.rows_touched(&idx).len()
    }

    /// Distinct rows the plan touches, with the total bit flips the plan
    /// lands in each — sorted by `(bank, row)`.
    ///
    /// # Panics
    ///
    /// Panics if the plan addresses parameters outside the layout.
    pub fn row_flips(&self, layout: &ParamLayout) -> Vec<((usize, usize), u64)> {
        indexed_row_flips(
            layout,
            self.changes
                .iter()
                .map(|change| (change.index, change.flipped_bits.len() as u64)),
        )
    }

    /// Rows whose planned flip count is **even** (and nonzero) — where
    /// the plan slips past a per-row parity check, by the same
    /// odd-trips/even-evades rule as
    /// [`crate::plan::FaultPlan::parity_evading_rows`].
    ///
    /// # Panics
    ///
    /// Panics if the plan addresses parameters outside the layout.
    pub fn parity_evading_rows(&self, layout: &ParamLayout) -> Vec<(usize, usize)> {
        evading_rows(&self.row_flips(layout))
    }

    /// Indices of the `block_bytes`-sized storage blocks the plan
    /// dirties, ascending — the byte-granular checksum surface: an
    /// integrity monitor auditing `a` of `n` blocks per pass catches the
    /// plan with probability `1 − C(n−t, a)/C(n, a)` where `t` is this
    /// list's length.
    ///
    /// The weight-only int8 backend keeps biases as `f32` words
    /// co-resident with the byte image, and a checksum monitor audits
    /// the *whole* deployed storage — counting only the byte surface
    /// undercounts the dirty blocks (the S = 4 int8 arena grid modifies
    /// 3–4 bias words per scenario outside it). `f32_word_bytes` lists the
    /// starting byte address, in the same audited address space as the
    /// plan's byte indices, of every modified co-resident `f32` word;
    /// each dirties the block(s) covering its 4 bytes. Pass `&[]` for a
    /// pure byte-image surface.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is zero.
    pub fn touched_blocks(&self, block_bytes: usize, f32_word_bytes: &[usize]) -> Vec<usize> {
        assert!(block_bytes > 0, "block size must be positive");
        let mut blocks: Vec<usize> = self.changes.iter().map(|c| c.index / block_bytes).collect();
        for &base in f32_word_bytes {
            // A 4-byte word can straddle block boundaries (always does
            // for block_bytes < 4); cover every byte it occupies.
            for off in 0..4 {
                blocks.push((base + off) / block_bytes);
            }
        }
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

/// Per-row parity (XOR of all byte bits) of an int8 storage image under
/// a byte-granular layout, sorted by `(bank, row)` — the reference a
/// parity monitor captures on the clean quantized model.
///
/// Together with [`QuantFaultPlan::row_flips`] this closes the same
/// predict-then-verify loop as the `f32` pipeline: a plan's odd-count
/// rows are exactly the violations the realized image shows.
///
/// # Panics
///
/// Panics if `bytes.len()` differs from the layout's length.
pub fn byte_row_parities(layout: &ParamLayout, bytes: &[i8]) -> Vec<((usize, usize), bool)> {
    assert_eq!(bytes.len(), layout.len(), "bytes/layout length mismatch");
    fold_rows(
        bytes.iter().enumerate().map(|(i, &p)| {
            let id = layout.address(i).row_id();
            (id, (p as u8).count_ones() % 2 == 1)
        }),
        |parity, bit| *parity ^= bit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramGeometry;

    fn byte_layout(len: usize) -> ParamLayout {
        // 64 bytes per row, so byte i lives in global row i / 64.
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 64,
            row_bytes: 64,
        };
        ParamLayout::with_word_bytes(g, 0, len, 1)
    }

    #[test]
    fn compile_skips_unchanged_bytes_and_counts_flips() {
        let old = [1i8, -2, 3, 4];
        let new = [1i8, -2, 2, -4];
        let plan = QuantFaultPlan::compile(&old, &new);
        assert_eq!(plan.words(), 2);
        assert_eq!(plan.changes[0].index, 2);
        // 3 = 0b00000011 → 2 = 0b00000010: one flip at bit 0.
        assert_eq!(plan.changes[0].flipped_bits, vec![0]);
        // 4 → -4 flips the sign-extension bits: 0b00000100 ^ 0b11111100.
        assert_eq!(plan.changes[1].flipped_bits.len(), 5);
        assert_eq!(plan.total_bit_flips, 6);
        assert_eq!(plan.bits_per_word(), 3.0);
    }

    #[test]
    fn every_byte_pair_is_at_most_eight_flips() {
        for o in i8::MIN..=i8::MAX {
            assert_eq!(hamming_i8(o, o), 0);
            assert_eq!(
                differing_bits_i8(o, o.wrapping_add(1)).len() as u32,
                hamming_i8(o, o.wrapping_add(1))
            );
            assert!(hamming_i8(o, !o) == 8);
        }
    }

    #[test]
    fn apply_realizes_the_new_image_exactly() {
        let old = [10i8, -10, 0, 127, -127];
        let new = [10i8, 10, -1, 127, 0];
        let plan = QuantFaultPlan::compile(&old, &new);
        let mut image = old;
        plan.apply(&mut image);
        assert_eq!(image, new);
    }

    #[test]
    #[should_panic(expected = "does not hold the plan's old value")]
    fn apply_rejects_a_stale_image() {
        let plan = QuantFaultPlan::compile(&[1i8], &[2i8]);
        let mut image = [3i8];
        plan.apply(&mut image);
    }

    #[test]
    fn sparse_plan_touches_few_byte_rows() {
        // 128 int8 params span 2 rows of 64 bytes; the same count of f32
        // params would span 8. The quantized plan concentrates.
        let old = vec![0i8; 128];
        let mut new = old.clone();
        new[3] = 5;
        new[60] = -5;
        new[70] = 1;
        let plan = QuantFaultPlan::compile(&old, &new);
        let layout = byte_layout(128);
        assert_eq!(plan.rows_touched(&layout), 2);
        let rows = plan.row_flips(&layout);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows.iter().map(|&(_, c)| c).sum::<u64>(),
            plan.total_bit_flips
        );
    }

    #[test]
    fn parity_prediction_matches_realized_image() {
        let layout = byte_layout(128);
        let old: Vec<i8> = (0..128).map(|i| (i % 100) as i8 - 50).collect();
        let mut new = old.clone();
        new[5] = 99; // row 0
        new[6] = -99; // row 0
        new[64] = 1; // row 1
        let plan = QuantFaultPlan::compile(&old, &new);
        let before = byte_row_parities(&layout, &old);
        let after = byte_row_parities(&layout, &new);
        let violations: Vec<(usize, usize)> = before
            .iter()
            .zip(&after)
            .filter_map(|(&(id, a), &(_, b))| (a != b).then_some(id))
            .collect();
        let predicted: Vec<(usize, usize)> = plan
            .row_flips(&layout)
            .into_iter()
            .filter_map(|(id, flips)| (flips % 2 == 1).then_some(id))
            .collect();
        assert_eq!(violations, predicted);
        // Evading rows are the complement within touched rows.
        let evading = plan.parity_evading_rows(&layout);
        for id in &evading {
            assert!(!violations.contains(id));
        }
        assert_eq!(evading.len() + violations.len(), plan.rows_touched(&layout));
    }

    #[test]
    fn touched_blocks_is_sorted_and_deduped() {
        let old = vec![0i8; 300];
        let mut new = old.clone();
        new[299] = 1;
        new[0] = 1;
        new[5] = 1;
        new[64] = 1;
        let plan = QuantFaultPlan::compile(&old, &new);
        assert_eq!(plan.touched_blocks(64, &[]), vec![0, 1, 4]);
        assert_eq!(plan.touched_blocks(1, &[]).len(), 4);
    }

    #[test]
    fn touched_blocks_counts_coresident_f32_words() {
        // Weight bytes 0..300; two modified f32 bias words live after
        // the byte image at 4-byte-aligned addresses 300 and 316.
        let old = vec![0i8; 300];
        let mut new = old.clone();
        new[0] = 1;
        new[5] = 1;
        let plan = QuantFaultPlan::compile(&old, &new);
        // Byte surface alone: block 0 only.
        assert_eq!(plan.touched_blocks(64, &[]), vec![0]);
        // Bias words dirty blocks 4 (bytes 300..304) and 4–5 (316..320
        // sits inside block 4 too): 316/64 = 4, 319/64 = 4.
        assert_eq!(plan.touched_blocks(64, &[300, 316]), vec![0, 4]);
        // A straddling word dirties both blocks it spans: bytes 62..66.
        assert_eq!(plan.touched_blocks(64, &[62]), vec![0, 1]);
        // Byte-granular blocks: every byte of every word counts.
        assert_eq!(
            plan.touched_blocks(1, &[300]),
            vec![0, 5, 300, 301, 302, 303]
        );
    }

    #[test]
    fn both_surfaces_share_the_row_fold_on_a_mixed_plan() {
        // One mixed plan expressed on both storage surfaces: the f32
        // words at indices {0, 1, 17} and the int8 bytes at the same
        // byte addresses {0, 4, 68} under one geometry, with identical
        // per-word flip counts. The shared fold must produce identical
        // per-row flip totals and parity-evasion verdicts.
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 64,
            row_bytes: 64,
        };
        let f32_layout = ParamLayout::new(g, 0, 32); // 16 words/row
        let i8_layout = ParamLayout::with_word_bytes(g, 0, 128, 1);
        let word = |index: usize, bits: usize| crate::plan::WordChange {
            index,
            old: 1.0,
            new: 2.0,
            flipped_bits: (0..bits as u8).collect(),
        };
        let byte = |index: usize, bits: usize| QuantChange {
            index,
            old: 1,
            new: 2,
            flipped_bits: (0..bits as u8).collect(),
        };
        // Row (0,0): 3 + 1 flips (even, evades); row (1,0): 5 (odd).
        let fplan = crate::plan::FaultPlan {
            changes: vec![word(0, 3), word(1, 1), word(17, 5)],
            total_bit_flips: 9,
        };
        let qplan = QuantFaultPlan {
            changes: vec![byte(0, 3), byte(4, 1), byte(68, 5)],
            total_bit_flips: 9,
        };
        let f_rows = crate::parity::plan_row_flips(&fplan, &f32_layout);
        let q_rows = qplan.row_flips(&i8_layout);
        assert_eq!(f_rows, q_rows, "surfaces disagree on per-row flips");
        assert_eq!(
            fplan.parity_evading_rows(&f32_layout),
            qplan.parity_evading_rows(&i8_layout),
            "surfaces disagree on parity evasion"
        );
        assert_eq!(fplan.parity_evading_rows(&f32_layout), vec![(0, 0)]);
    }
}
