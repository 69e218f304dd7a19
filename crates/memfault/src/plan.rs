//! Compiling an attack's modification into a concrete bit-flip plan.
//!
//! One [`FaultPlan`] covers both storage widths the pipeline deploys:
//! 4-byte `f32` words ([`FaultPlan::compile`] over `θ₀` and `δ`) and the
//! int8 backend's 1-byte weights ([`FaultPlan::compile_bytes`] over the
//! old and new byte images). On int8 storage the physical plan changes
//! character:
//!
//! * each modified parameter costs at most 8 bit flips (vs 32), and the
//!   representable targets are exactly the 255 grid points — there is no
//!   "sub-ULP modification too small to matter";
//! * a DRAM row holds 4× as many parameters, so an ℓ0-sparse δ lands in
//!   *fewer* distinct rows — better for rowhammer batching, worse for
//!   evading per-row parity (more flips share a parity bit).
//!
//! A plan records its word width, and every method that folds it onto
//! DRAM rows asserts that the [`ParamLayout`]'s
//! [`word_bytes`](ParamLayout::word_bytes) matches: a byte plan read
//! through a 4-byte layout would name the wrong rows. Everything is a
//! pure fixed-order function of its inputs — deterministic at any
//! `FSA_THREADS`.

use crate::bits::differing_bits;
use crate::dram::ParamLayout;
use crate::laser::{LaserCost, LaserInjector};
use crate::parity::{evading_rows, indexed_row_flips};
use crate::rowhammer::{HammerOutcome, RowhammerInjector};

/// One parameter word to rewrite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordChange {
    /// Index into the flat parameter buffer.
    pub index: usize,
    /// Bit positions that differ (0 = LSB).
    pub flipped_bits: Vec<u8>,
}

/// A compiled fault plan: every word the attack modifies, with bit-level
/// detail and summary statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Word rewrites, ordered by parameter index.
    pub changes: Vec<WordChange>,
    /// Total bit flips across all words.
    pub total_bit_flips: u64,
    /// Storage width of one word in bytes: 4 for `f32`, 1 for int8.
    word_bytes: usize,
}

impl FaultPlan {
    /// Compiles a plan over `f32` words from original parameters and a
    /// modification `δ`. Entries with `δ = 0` are untouched, and so are
    /// words whose bit pattern `θ₀ + δ` does not change.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn compile(theta0: &[f32], delta: &[f32]) -> FaultPlan {
        assert_eq!(theta0.len(), delta.len(), "theta0/delta length mismatch");
        Self::from_words(
            4,
            theta0
                .iter()
                .zip(delta)
                .enumerate()
                .filter(|&(_, (_, &d))| d != 0.0)
                .map(|(i, (&t, &d))| (i, t.to_bits(), (t + d).to_bits())),
        )
    }

    /// Compiles a plan over int8 bytes from the old and new images of the
    /// storage (unchanged bytes are skipped).
    ///
    /// # Examples
    ///
    /// ```
    /// use fsa_memfault::FaultPlan;
    ///
    /// // Two of four stored bytes change; +1 on a positive byte is one flip.
    /// let plan = FaultPlan::compile_bytes(&[4, -3, 0, 100], &[5, -3, 0, 36]);
    /// assert_eq!(plan.words(), 2);
    /// assert_eq!(plan.changes[0].flipped_bits, vec![0]);
    /// assert!(plan.total_bit_flips >= 2);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn compile_bytes(old: &[i8], new: &[i8]) -> FaultPlan {
        assert_eq!(old.len(), new.len(), "old/new byte image length mismatch");
        Self::from_words(
            1,
            old.iter()
                .zip(new)
                .enumerate()
                .map(|(i, (&o, &n))| (i, u32::from(o as u8), u32::from(n as u8))),
        )
    }

    /// Collects `(index, old bits, new bits)` words into a plan, skipping
    /// words whose bits do not change.
    fn from_words(word_bytes: usize, words: impl Iterator<Item = (usize, u32, u32)>) -> FaultPlan {
        let _span = fsa_telemetry::span("fault_plan.compile");
        let mut changes = Vec::new();
        let mut total = 0u64;
        for (index, old, new) in words {
            let flipped_bits = differing_bits(old, new);
            if flipped_bits.is_empty() {
                continue;
            }
            total += flipped_bits.len() as u64;
            changes.push(WordChange {
                index,
                flipped_bits,
            });
        }
        if fsa_telemetry::enabled() {
            fsa_telemetry::counter("fault_plan.compiles", 1);
            fsa_telemetry::counter("fault_plan.words", changes.len() as u64);
            fsa_telemetry::counter("fault_plan.bit_flips", total);
        }
        FaultPlan {
            changes,
            total_bit_flips: total,
            word_bytes,
        }
    }

    /// Number of modified words (`‖δ‖₀` at the hardware level).
    pub fn words(&self) -> usize {
        self.changes.len()
    }

    /// Mean bit flips per modified word.
    pub fn bits_per_word(&self) -> f64 {
        if self.changes.is_empty() {
            0.0
        } else {
            self.total_bit_flips as f64 / self.changes.len() as f64
        }
    }

    fn assert_width(&self, layout: &ParamLayout) {
        assert_eq!(
            layout.word_bytes(),
            self.word_bytes,
            "layout word width differs from the plan's"
        );
    }

    /// Distinct DRAM rows the plan touches under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the layout's word width differs from the plan's, or the
    /// plan addresses parameters outside the layout.
    pub fn rows_touched(&self, layout: &ParamLayout) -> usize {
        self.assert_width(layout);
        let idx: Vec<usize> = self.changes.iter().map(|c| c.index).collect();
        layout.rows_touched(&idx).len()
    }

    /// Distinct rows the plan touches, with the total bit flips the plan
    /// lands in each — sorted by `(bank, row)`.
    fn row_flips(&self, layout: &ParamLayout) -> Vec<((usize, usize), u64)> {
        self.assert_width(layout);
        indexed_row_flips(
            layout,
            self.changes
                .iter()
                .map(|c| (c.index, c.flipped_bits.len() as u64)),
        )
    }

    /// Costs the plan under a laser injector.
    pub fn laser_cost(&self, laser: &LaserInjector) -> LaserCost {
        laser.cost(&self.changes)
    }

    /// Simulates the plan under rowhammer, mutating `params` with the
    /// achieved flips.
    ///
    /// # Panics
    ///
    /// Panics if the plan is not over `f32` words, the layout's word
    /// width differs, or the plan addresses parameters outside the
    /// layout.
    pub fn hammer(
        &self,
        injector: &RowhammerInjector,
        layout: &ParamLayout,
        params: &mut [f32],
    ) -> HammerOutcome {
        assert_eq!(self.word_bytes, 4, "rowhammer flips f32 words");
        self.assert_width(layout);
        injector.apply(&self.changes, layout, params)
    }

    /// Rows whose planned flip count is **even** (and nonzero) — the
    /// rows where this plan slips past a per-row parity check (see
    /// [`crate::parity`]): an odd number of flipped bits in a row trips
    /// the parity, an even number cancels.
    ///
    /// # Panics
    ///
    /// Panics if the layout's word width differs from the plan's, or the
    /// plan addresses parameters outside the layout.
    pub fn parity_evading_rows(&self, layout: &ParamLayout) -> Vec<(usize, usize)> {
        evading_rows(&self.row_flips(layout))
    }

    /// The `δ'` actually realized given post-injection parameters —
    /// useful for re-evaluating attack success under hardware constraints.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn realized_delta(theta0: &[f32], params_after: &[f32]) -> Vec<f32> {
        assert_eq!(theta0.len(), params_after.len(), "length mismatch");
        theta0
            .iter()
            .zip(params_after)
            .map(|(&t, &p)| p - t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramGeometry;
    use crate::parity::{RowCode, RowSignature};
    use std::collections::BTreeMap;

    /// 64-byte rows: 16 `f32` words or 64 int8 bytes per row.
    fn geometry() -> DramGeometry {
        DramGeometry {
            banks: 2,
            rows_per_bank: 64,
            row_bytes: 64,
        }
    }

    fn byte_layout(len: usize) -> ParamLayout {
        ParamLayout::with_word_bytes(geometry(), 0, len, 1)
    }

    fn change(index: usize, bits: usize) -> WordChange {
        WordChange {
            index,
            flipped_bits: (0..bits as u8).collect(),
        }
    }

    #[test]
    fn compile_skips_zero_entries() {
        let theta0 = [1.0f32, 2.0, 3.0, 4.0];
        let delta = [0.0f32, 0.5, 0.0, -1.0];
        let plan = FaultPlan::compile(&theta0, &delta);
        assert_eq!(plan.words(), 2);
        let idx: Vec<usize> = plan.changes.iter().map(|c| c.index).collect();
        assert_eq!(idx, vec![1, 3]);
        assert!(plan.total_bit_flips > 0);
        // δ = ±0 leaves the stored word alone even where θ₀ + δ has
        // other bits (−0 + +0 = +0) or no value at all (NaN).
        for (t, d) in [(-0.0f32, 0.0f32), (-0.0, -0.0), (f32::NAN, 0.0)] {
            let plan = FaultPlan::compile(&[t], &[d]);
            assert_eq!(plan.words(), 0, "θ₀ = {t:?}, δ = {d:?}");
            assert_eq!(plan.total_bit_flips, 0);
        }
    }

    #[test]
    fn laser_realizes_plan_exactly() {
        let theta0 = [1.0f32, -0.5, 0.25];
        let delta = [0.125f32, 0.0, -1.5];
        let plan = FaultPlan::compile(&theta0, &delta);
        let mut params = theta0;
        LaserInjector.apply(&plan.changes, &mut params);
        assert_eq!(params[0], 1.125);
        assert_eq!(params[1], -0.5);
        assert_eq!(params[2], -1.25);
        let realized = FaultPlan::realized_delta(&theta0, &params);
        assert_eq!(realized[1], 0.0);
        assert!((realized[0] - 0.125).abs() < 1e-7);
    }

    #[test]
    fn sub_ulp_modifications_are_dropped() {
        // A δ too small to change the f32 representation is a no-op, and
        // the plan must not pretend to flip bits for it.
        let theta0 = [1.0e8f32];
        let delta = [1.0e-8f32];
        let plan = FaultPlan::compile(&theta0, &delta);
        assert_eq!(plan.words(), 0);
    }

    #[test]
    fn rows_touched_counts_layout_rows() {
        let layout = ParamLayout::new(geometry(), 0, 128);
        let theta0 = vec![1.0f32; 128];
        let mut delta = vec![0.0f32; 128];
        delta[0] = 0.5; // row (0,0)
        delta[1] = 0.5; // row (0,0)
        delta[20] = 0.5; // second row
        let plan = FaultPlan::compile(&theta0, &delta);
        assert_eq!(plan.rows_touched(&layout), 2);
    }

    #[test]
    fn bits_per_word_sane() {
        let theta0 = [1.0f32, 1.0];
        let delta = [f32::from_bits(1.0f32.to_bits() ^ 0b1) - 1.0, 0.0];
        let plan = FaultPlan::compile(&theta0, &delta);
        assert_eq!(plan.words(), 1);
        assert_eq!(plan.bits_per_word(), 1.0);
    }

    #[test]
    fn row_flips_count_per_row() {
        let layout = ParamLayout::new(geometry(), 0, 64);
        let theta0 = vec![1.0f32; 64];
        let mut delta = vec![0.0f32; 64];
        delta[0] = 0.5; // row 0
        delta[1] = -0.25; // row 0
        delta[40] = 2.0; // row 2
        let plan = FaultPlan::compile(&theta0, &delta);
        let rows = plan.row_flips(&layout);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, layout.address(0).row_id());
        assert_eq!(rows[1].0, layout.address(40).row_id());
        assert_eq!(
            rows.iter().map(|&(_, c)| c).sum::<u64>(),
            plan.total_bit_flips
        );
    }

    #[test]
    fn non_adjacent_runs_of_one_row_still_merge() {
        // A hand-built plan whose changes revisit row 0 after touching
        // row 1: the linear fold must still produce one entry per row.
        let layout = ParamLayout::new(geometry(), 0, 64);
        let plan = FaultPlan {
            changes: vec![change(0, 1), change(16, 2), change(1, 4)],
            total_bit_flips: 7,
            word_bytes: 4,
        };
        assert_eq!(
            plan.row_flips(&layout),
            vec![
                (layout.address(0).row_id(), 5),
                (layout.address(16).row_id(), 2),
            ]
        );
    }

    #[test]
    fn parity_agrees_with_plan_prediction() {
        let layout = ParamLayout::new(geometry(), 0, 64);
        let theta0: Vec<f32> = (0..64).map(|i| 0.5 + i as f32 * 0.125).collect();
        let mut delta = vec![0.0f32; 64];
        delta[3] = 0.5;
        delta[17] = -1.0;
        delta[18] = 0.75;
        let plan = FaultPlan::compile(&theta0, &delta);
        let parity = RowSignature::capture(RowCode::Parity, layout.clone(), &theta0);
        let after: Vec<f32> = theta0.iter().zip(&delta).map(|(&t, &d)| t + d).collect();
        let predicted: Vec<(usize, usize)> = plan
            .row_flips(&layout)
            .into_iter()
            .filter_map(|(id, flips)| (flips % 2 == 1).then_some(id))
            .collect();
        assert_eq!(
            parity.violations(&after),
            predicted,
            "plan-level parity prediction must match the realized buffer"
        );
    }

    #[test]
    fn compile_skips_unchanged_bytes_and_counts_flips() {
        let old = [1i8, -2, 3, 4];
        let new = [1i8, -2, 2, -4];
        let plan = FaultPlan::compile_bytes(&old, &new);
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
        let old: Vec<i8> = (i8::MIN..=i8::MAX).collect();
        let inverted: Vec<i8> = old.iter().map(|&o| !o).collect();
        let plan = FaultPlan::compile_bytes(&old, &inverted);
        assert_eq!(plan.words(), 256);
        assert!(plan
            .changes
            .iter()
            .all(|c| c.flipped_bits == (0..8).collect::<Vec<u8>>()));
        let next: Vec<i8> = old.iter().map(|&o| o.wrapping_add(1)).collect();
        let plan = FaultPlan::compile_bytes(&old, &next);
        assert_eq!(plan.words(), 256);
        assert!(plan
            .changes
            .iter()
            .all(|c| !c.flipped_bits.is_empty() && c.flipped_bits.iter().all(|&b| b < 8)));
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
        let plan = FaultPlan::compile_bytes(&old, &new);
        let layout = byte_layout(128);
        assert_eq!(plan.rows_touched(&layout), 2);
        let rows = plan.row_flips(&layout);
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows.iter().map(|&(_, c)| c).sum::<u64>(),
            plan.total_bit_flips
        );
    }

    /// Per-row parity (XOR of all byte bits) of an int8 image, sorted by
    /// `(bank, row)` — what a parity monitor captures on the storage.
    fn byte_row_parities(layout: &ParamLayout, bytes: &[i8]) -> Vec<((usize, usize), bool)> {
        let mut rows: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        for (i, &b) in bytes.iter().enumerate() {
            *rows.entry(layout.address(i).row_id()).or_default() ^= b.count_ones() % 2 == 1;
        }
        rows.into_iter().collect()
    }

    #[test]
    fn parity_prediction_matches_realized_image() {
        let layout = byte_layout(128);
        let old: Vec<i8> = (0..128).map(|i| (i % 100) as i8 - 50).collect();
        let mut new = old.clone();
        new[5] = 99; // row 0
        new[6] = -99; // row 0
        new[64] = 1; // row 1
        let plan = FaultPlan::compile_bytes(&old, &new);
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
    fn both_surfaces_share_the_row_fold_on_a_mixed_plan() {
        // One mixed plan expressed on both storage widths: the f32 words
        // at indices {0, 1, 17} and the int8 bytes at the same byte
        // addresses {0, 4, 68} under one geometry, with identical
        // per-word flip counts. The fold must produce identical per-row
        // flip totals and parity-evasion verdicts.
        let f32_layout = ParamLayout::new(geometry(), 0, 32); // 16 words/row
        let i8_layout = byte_layout(128);
        // Row (0,0): 3 + 1 flips (even, evades); row (1,0): 5 (odd).
        let fplan = FaultPlan {
            changes: vec![change(0, 3), change(1, 1), change(17, 5)],
            total_bit_flips: 9,
            word_bytes: 4,
        };
        let qplan = FaultPlan {
            changes: vec![change(0, 3), change(4, 1), change(68, 5)],
            total_bit_flips: 9,
            word_bytes: 1,
        };
        assert_eq!(
            fplan.row_flips(&f32_layout),
            qplan.row_flips(&i8_layout),
            "surfaces disagree on per-row flips"
        );
        assert_eq!(
            fplan.parity_evading_rows(&f32_layout),
            qplan.parity_evading_rows(&i8_layout),
            "surfaces disagree on parity evasion"
        );
        assert_eq!(fplan.parity_evading_rows(&f32_layout), vec![(0, 0)]);
    }

    /// A byte plan whose two changes share byte row (0,0) with an odd
    /// flip total. Read through a 4-byte layout they would land in two
    /// rows, one of them parity-even.
    fn byte_plan() -> FaultPlan {
        let old = vec![0i8; 128];
        let mut new = old.clone();
        new[3] = 5;
        new[20] = 1;
        let plan = FaultPlan::compile_bytes(&old, &new);
        assert_eq!(plan.rows_touched(&byte_layout(128)), 1);
        assert!(plan.parity_evading_rows(&byte_layout(128)).is_empty());
        plan
    }

    #[test]
    #[should_panic(expected = "layout word width differs from the plan's")]
    fn rows_touched_refuses_a_layout_of_another_width() {
        byte_plan().rows_touched(&ParamLayout::new(geometry(), 0, 128));
    }

    #[test]
    #[should_panic(expected = "layout word width differs from the plan's")]
    fn parity_evading_rows_refuses_a_layout_of_another_width() {
        byte_plan().parity_evading_rows(&ParamLayout::new(geometry(), 0, 128));
    }

    #[test]
    #[should_panic(expected = "rowhammer flips f32 words")]
    fn hammer_refuses_a_byte_plan() {
        let mut params = vec![0.0f32; 128];
        byte_plan().hammer(
            &RowhammerInjector::default(),
            &byte_layout(128),
            &mut params,
        );
    }
}
