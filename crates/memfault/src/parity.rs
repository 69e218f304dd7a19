//! DRAM-row parity — the ECC-style defense surface bit-flip plans are
//! checked against.
//!
//! Commodity ECC DRAM guards each protected region with parity/syndrome
//! bits: an **odd** number of flipped bits in a region raises an alarm,
//! while an **even** number cancels in the parity and slips through (the
//! classic single-error-detect limitation rowhammer double-flips
//! exploit). This module models the cheapest such defense at the
//! granularity the [`crate::dram`] mapping already exposes — one parity
//! bit per (bank, row):
//!
//! * [`RowParity`] captures the reference parity of every row a
//!   [`ParamLayout`] covers and reports which rows violate it for a
//!   modified parameter buffer;
//! * [`plan_row_flips`] folds a compiled [`FaultPlan`] down to per-row
//!   flip counts, so a plan's detectability is known *before* any
//!   injection: rows with odd counts trip the parity, rows with even
//!   counts evade it.
//!
//! A single parity bit per row is exactly what the PR 7 stealth
//! attacker defeats: it pads its plan with an extra flip per touched
//! row so every flip count is even. The stronger family closes the two
//! cancellation channels that padding relies on:
//!
//! * [`ColumnParity`] keeps one parity bit per *bit position* (column)
//!   of the row's words — a 32-bit syndrome. Two flips cancel only if
//!   they hit the **same** bit position, so the attacker's
//!   different-position padding flips light it up.
//! * [`RowCrc`] keeps a CRC-32 digest (polynomial `0xEDB88320`) of the
//!   row's words in parameter order. The digest is position-sensitive
//!   in both bit index and word index: *any* change to a row's bytes
//!   changes it (up to the 2⁻³² collision floor), so no parity-style
//!   cancellation exists at all.
//!
//! Everything here is a pure fixed-order function of its inputs —
//! deterministic regardless of thread count, as the defense suite's
//! bit-identical arena requires.

use crate::dram::ParamLayout;
use crate::plan::FaultPlan;

/// Reference per-row parity of a parameter buffer under a layout.
///
/// Rows are identified by `(bank, row)` and stored sorted; parity is the
/// XOR of all bit positions of the `f32` words the layout places in that
/// row (words outside the layout — e.g. co-resident allocations — are
/// not modeled and assumed untouched).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowParity {
    /// Sorted `((bank, row), parity)` pairs for every covered row.
    rows: Vec<((usize, usize), bool)>,
}

impl RowParity {
    /// Captures the reference parity of `params` under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the layout's length.
    pub fn capture(layout: &ParamLayout, params: &[f32]) -> Self {
        assert_eq!(params.len(), layout.len(), "params/layout length mismatch");
        Self {
            rows: row_parities(layout, params),
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the captured layout was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(bank, row)` pairs whose parity no longer matches the
    /// reference — i.e. rows holding an odd number of flipped bits.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the captured layout's
    /// length.
    pub fn violations(&self, layout: &ParamLayout, params: &[f32]) -> Vec<(usize, usize)> {
        let now = row_parities(layout, params);
        assert_eq!(
            now.len(),
            self.rows.len(),
            "parity check layout differs from the captured one"
        );
        self.rows
            .iter()
            .zip(&now)
            .filter_map(|(&(id, before), &(id2, after))| {
                debug_assert_eq!(id, id2, "row order diverged");
                (before != after).then_some(id)
            })
            .collect()
    }
}

/// Reference per-row **column parity** of a parameter buffer: bit `j`
/// of a row's 32-bit syndrome is the XOR of bit `j` across all `f32`
/// words the layout places in that row.
///
/// Where [`RowParity`] folds a whole row to one bit (so any even number
/// of flips cancels), column parity cancels only when two flips land on
/// the **same bit position** — the parity-even padding the stealth
/// planner emits flips distinct positions and is caught.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnParity {
    /// Sorted `((bank, row), syndrome)` pairs for every covered row.
    rows: Vec<((usize, usize), u32)>,
}

impl ColumnParity {
    /// Captures the reference column syndromes of `params` under
    /// `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the layout's length.
    pub fn capture(layout: &ParamLayout, params: &[f32]) -> Self {
        assert_eq!(params.len(), layout.len(), "params/layout length mismatch");
        Self {
            rows: column_syndromes(layout, params),
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the captured layout was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(bank, row)` pairs whose column syndrome no longer matches
    /// the reference.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the captured layout's
    /// length.
    pub fn violations(&self, layout: &ParamLayout, params: &[f32]) -> Vec<(usize, usize)> {
        let now = column_syndromes(layout, params);
        assert_eq!(
            now.len(),
            self.rows.len(),
            "column parity check layout differs from the captured one"
        );
        self.rows
            .iter()
            .zip(&now)
            .filter_map(|(&(id, before), &(id2, after))| {
                debug_assert_eq!(id, id2, "row order diverged");
                (before != after).then_some(id)
            })
            .collect()
    }
}

/// Reference per-row CRC-32 digest (polynomial `0xEDB88320`, the
/// reflected IEEE polynomial) of a parameter buffer.
///
/// The digest runs over each row's words in ascending parameter-index
/// order, little-endian bytes, so it is sensitive to both *which* bits
/// changed and *where* — the no-cancellation end of the parity family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowCrc {
    /// Sorted `((bank, row), crc)` pairs for every covered row.
    rows: Vec<((usize, usize), u32)>,
}

impl RowCrc {
    /// Captures the reference row digests of `params` under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the layout's length.
    pub fn capture(layout: &ParamLayout, params: &[f32]) -> Self {
        assert_eq!(params.len(), layout.len(), "params/layout length mismatch");
        Self {
            rows: row_crcs(layout, params),
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the captured layout was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `(bank, row)` pairs whose digest no longer matches the
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the captured layout's
    /// length.
    pub fn violations(&self, layout: &ParamLayout, params: &[f32]) -> Vec<(usize, usize)> {
        let now = row_crcs(layout, params);
        assert_eq!(
            now.len(),
            self.rows.len(),
            "row CRC check layout differs from the captured one"
        );
        self.rows
            .iter()
            .zip(&now)
            .filter_map(|(&(id, before), &(id2, after))| {
                debug_assert_eq!(id, id2, "row order diverged");
                (before != after).then_some(id)
            })
            .collect()
    }
}

/// Folds a stream of `(row_id, value)` pairs into one entry per row,
/// sorted by `(bank, row)`.
///
/// Sequential parameter indices share a row until a boundary, so the
/// common case merges into the *last* entry in O(1); a post-sort pass
/// merges any runs of the same row that were not adjacent in input
/// order, keeping the fold linear instead of O(items × rows).
pub(crate) fn fold_rows<T>(
    items: impl Iterator<Item = ((usize, usize), T)>,
    merge: impl Fn(&mut T, T),
) -> Vec<((usize, usize), T)> {
    let mut acc: Vec<((usize, usize), T)> = Vec::new();
    for (id, v) in items {
        match acc.last_mut() {
            Some((last, slot)) if *last == id => merge(slot, v),
            _ => acc.push((id, v)),
        }
    }
    acc.sort_unstable_by_key(|&(id, _)| id);
    let mut out: Vec<((usize, usize), T)> = Vec::with_capacity(acc.len());
    for (id, v) in acc {
        match out.last_mut() {
            Some((last, slot)) if *last == id => merge(slot, v),
            _ => out.push((id, v)),
        }
    }
    out
}

/// Per-row parity (XOR of all word bits) of `params` under `layout`,
/// sorted by `(bank, row)`.
fn row_parities(layout: &ParamLayout, params: &[f32]) -> Vec<((usize, usize), bool)> {
    fold_rows(
        params.iter().enumerate().map(|(i, &p)| {
            let id = layout.address(i).row_id();
            (id, p.to_bits().count_ones() % 2 == 1)
        }),
        |parity, bit| *parity ^= bit,
    )
}

/// Per-row column syndrome (XOR of the word bit patterns) of `params`
/// under `layout`, sorted by `(bank, row)`.
fn column_syndromes(layout: &ParamLayout, params: &[f32]) -> Vec<((usize, usize), u32)> {
    fold_rows(
        params
            .iter()
            .enumerate()
            .map(|(i, &p)| (layout.address(i).row_id(), p.to_bits())),
        |syndrome, bits| *syndrome ^= bits,
    )
}

/// One CRC-32 step over `byte` (reflected polynomial `0xEDB88320`).
pub(crate) fn crc32_update(mut crc: u32, byte: u8) -> u32 {
    crc ^= u32::from(byte);
    for _ in 0..8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
    }
    crc
}

/// Per-row CRC-32 of `params` under `layout`, sorted by `(bank, row)`.
///
/// Unlike the XOR folds, a CRC is order-sensitive, so `fold_rows`'s
/// sort-then-merge would scramble non-adjacent runs of one row. Instead
/// the indices are sorted by `(row, index)` up front and each run is
/// digested in ascending parameter order — the same fixed order
/// regardless of how the layout interleaves rows.
fn row_crcs(layout: &ParamLayout, params: &[f32]) -> Vec<((usize, usize), u32)> {
    let mut indexed: Vec<((usize, usize), usize)> = (0..params.len())
        .map(|i| (layout.address(i).row_id(), i))
        .collect();
    indexed.sort_unstable();
    let mut out: Vec<((usize, usize), u32)> = Vec::new();
    for (id, i) in indexed {
        let state = match out.last_mut() {
            Some((last, state)) if *last == id => state,
            _ => {
                out.push((id, 0xFFFF_FFFF));
                &mut out.last_mut().expect("just pushed").1
            }
        };
        for byte in params[i].to_bits().to_le_bytes() {
            *state = crc32_update(*state, byte);
        }
    }
    for (_, state) in &mut out {
        *state = !*state;
    }
    out
}

/// Folds any stream of `(parameter index, flip count)` word changes onto
/// DRAM rows, sorted by `(bank, row)` — the shared row fold behind both
/// the `f32` and int8 plan surfaces.
///
/// # Panics
///
/// Panics if an index lies outside the layout.
pub fn indexed_row_flips(
    layout: &ParamLayout,
    changes: impl Iterator<Item = (usize, u64)>,
) -> Vec<((usize, usize), u64)> {
    fold_rows(
        changes.map(|(index, flips)| (layout.address(index).row_id(), flips)),
        |count, flips| *count += flips,
    )
}

/// Rows whose flip count is **even** (and nonzero) — the
/// odd-trips/even-evades rule both plan surfaces share: an odd number of
/// flipped bits in a row trips its parity bit, an even number cancels.
pub fn evading_rows(row_flips: &[((usize, usize), u64)]) -> Vec<(usize, usize)> {
    row_flips
        .iter()
        .filter_map(|&(id, flips)| (flips % 2 == 0).then_some(id))
        .collect()
}

/// Distinct rows a compiled plan touches, with the total bit flips the
/// plan lands in each — sorted by `(bank, row)`.
///
/// A row with an **odd** flip count trips a per-row parity check; an
/// even count cancels and evades it. See
/// [`FaultPlan::parity_evading_rows`].
///
/// # Panics
///
/// Panics if the plan addresses parameters outside the layout.
pub fn plan_row_flips(plan: &FaultPlan, layout: &ParamLayout) -> Vec<((usize, usize), u64)> {
    indexed_row_flips(
        layout,
        plan.changes
            .iter()
            .map(|change| (change.index, change.flipped_bits.len() as u64)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::flip_bits;
    use crate::dram::DramGeometry;

    fn small_layout(len: usize) -> ParamLayout {
        // 16 words per row: parameter i lives in global row i / 16.
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 64,
            row_bytes: 64,
        };
        ParamLayout::new(g, 0, len)
    }

    #[test]
    fn clean_buffer_has_no_violations() {
        let layout = small_layout(48);
        let params = vec![1.25f32; 48];
        let parity = RowParity::capture(&layout, &params);
        assert_eq!(parity.len(), 3);
        assert!(parity.violations(&layout, &params).is_empty());
    }

    #[test]
    fn single_bit_flip_trips_exactly_its_row() {
        let layout = small_layout(48);
        let mut params = vec![1.0f32; 48];
        let parity = RowParity::capture(&layout, &params);
        params[20] = flip_bits(params[20], &[3]); // word 20 → row 1
        let v = parity.violations(&layout, &params);
        assert_eq!(v, vec![layout.address(20).row_id()]);
    }

    #[test]
    fn even_flips_in_one_row_evade_parity() {
        let layout = small_layout(32);
        let mut params = vec![1.0f32; 32];
        let parity = RowParity::capture(&layout, &params);
        // Two single-bit flips in the same row cancel in its parity.
        params[4] = flip_bits(params[4], &[7]);
        params[9] = flip_bits(params[9], &[12]);
        assert_eq!(layout.address(4).row_id(), layout.address(9).row_id());
        assert!(
            parity.violations(&layout, &params).is_empty(),
            "an even flip count must cancel in the row parity"
        );
        // A third flip makes the count odd again — detected.
        params[4] = flip_bits(params[4], &[8]);
        assert_eq!(parity.violations(&layout, &params).len(), 1);
    }

    #[test]
    fn evading_rows_are_exactly_the_even_flip_rows() {
        let flips = [((0, 1), 1), ((0, 2), 2), ((1, 0), 3), ((1, 5), 4)];
        let evading = evading_rows(&flips);
        assert_eq!(evading, vec![(0, 2), (1, 5)]);
        // Every touched row either trips its parity bit or evades it.
        let odd = flips.iter().filter(|&&(_, n)| n % 2 == 1).count();
        assert_eq!(odd + evading.len(), flips.len());
    }

    #[test]
    fn plan_row_flips_counts_per_row() {
        let layout = small_layout(64);
        let theta0 = vec![1.0f32; 64];
        let mut delta = vec![0.0f32; 64];
        delta[0] = 0.5; // row 0
        delta[1] = -0.25; // row 0
        delta[40] = 2.0; // row 2
        let plan = FaultPlan::compile(&theta0, &delta);
        let rows = plan_row_flips(&plan, &layout);
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
        let layout = small_layout(64);
        let change = |index: usize, bits: usize| crate::plan::WordChange {
            index,
            old: 1.0,
            new: 2.0,
            flipped_bits: (0..bits as u8).collect(),
        };
        let plan = FaultPlan {
            changes: vec![change(0, 1), change(16, 2), change(1, 4)],
            total_bit_flips: 7,
        };
        let rows = plan_row_flips(&plan, &layout);
        assert_eq!(
            rows,
            vec![
                (layout.address(0).row_id(), 5),
                (layout.address(16).row_id(), 2),
            ]
        );
    }

    #[test]
    fn column_parity_catches_parity_even_padding() {
        // Two flips in one row at *different* bit positions: the per-row
        // XOR parity cancels (the stealth planner's padding trick), but
        // the column syndrome records both positions.
        let layout = small_layout(32);
        let mut params = vec![1.0f32; 32];
        let row = RowParity::capture(&layout, &params);
        let col = ColumnParity::capture(&layout, &params);
        assert_eq!(col.len(), 2);
        params[4] = flip_bits(params[4], &[7]);
        params[9] = flip_bits(params[9], &[12]);
        assert!(row.violations(&layout, &params).is_empty());
        assert_eq!(
            col.violations(&layout, &params),
            vec![layout.address(4).row_id()],
            "different-position flips must trip the column syndrome"
        );
    }

    #[test]
    fn row_crc_catches_same_column_cancellation() {
        // Two flips at the *same* bit position in different words of one
        // row: the row parity cancels (even count) and the column
        // syndrome cancels (same column) — only the position-sensitive
        // CRC sees the change.
        let layout = small_layout(32);
        let mut params: Vec<f32> = (0..32).map(|i| 0.5 + i as f32 * 0.25).collect();
        let row = RowParity::capture(&layout, &params);
        let col = ColumnParity::capture(&layout, &params);
        let crc = RowCrc::capture(&layout, &params);
        assert_eq!(crc.len(), 2);
        params[4] = flip_bits(params[4], &[19]);
        params[9] = flip_bits(params[9], &[19]);
        assert!(row.violations(&layout, &params).is_empty());
        assert!(col.violations(&layout, &params).is_empty());
        assert_eq!(
            crc.violations(&layout, &params),
            vec![layout.address(4).row_id()],
            "the CRC digest must catch what both parities cancel"
        );
    }

    #[test]
    fn crc_family_is_clean_on_untouched_buffers() {
        let layout = small_layout(48);
        let params: Vec<f32> = (0..48).map(|i| 1.0 + i as f32).collect();
        let col = ColumnParity::capture(&layout, &params);
        let crc = RowCrc::capture(&layout, &params);
        assert!(col.violations(&layout, &params).is_empty());
        assert!(crc.violations(&layout, &params).is_empty());
        // And any single-word change is visible to both.
        let mut tampered = params.clone();
        tampered[33] = flip_bits(tampered[33], &[2]);
        assert_eq!(col.violations(&layout, &tampered).len(), 1);
        assert_eq!(crc.violations(&layout, &tampered).len(), 1);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc("123456789") == 0xCBF43926.
        let crc = !b"123456789"
            .iter()
            .fold(0xFFFF_FFFFu32, |c, &b| crc32_update(c, b));
        assert_eq!(crc, 0xCBF4_3926);
    }

    #[test]
    fn parity_agrees_with_plan_prediction() {
        let layout = small_layout(64);
        let theta0: Vec<f32> = (0..64).map(|i| 0.5 + i as f32 * 0.125).collect();
        let mut delta = vec![0.0f32; 64];
        delta[3] = 0.5;
        delta[17] = -1.0;
        delta[18] = 0.75;
        let plan = FaultPlan::compile(&theta0, &delta);
        let parity = RowParity::capture(&layout, &theta0);
        let after: Vec<f32> = theta0.iter().zip(&delta).map(|(&t, &d)| t + d).collect();
        let predicted: Vec<(usize, usize)> = plan_row_flips(&plan, &layout)
            .into_iter()
            .filter_map(|(id, flips)| (flips % 2 == 1).then_some(id))
            .collect();
        assert_eq!(
            parity.violations(&layout, &after),
            predicted,
            "plan-level parity prediction must match the realized buffer"
        );
    }
}
