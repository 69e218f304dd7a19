//! DRAM-row codes — the ECC-style defense surface bit-flip plans are
//! checked against.
//!
//! Commodity ECC DRAM guards each protected region with parity/syndrome
//! bits: an **odd** number of flipped bits in a region raises an alarm,
//! while an **even** number cancels in the parity and slips through (the
//! classic single-error-detect limitation rowhammer double-flips
//! exploit). This module models that defense at the granularity the
//! [`crate::dram`] mapping already exposes — one code per (bank, row):
//!
//! * [`RowSignature`] captures the reference [`RowCode`] of every row a
//!   [`ParamLayout`] covers and reports which rows violate it for a
//!   modified parameter buffer;
//! * [`indexed_row_flips`] folds word changes down to per-row flip
//!   counts, so a plan's detectability is known *before* any injection:
//!   rows with odd counts trip the parity, rows with even counts evade
//!   it ([`evading_rows`], [`crate::FaultPlan::parity_evading_rows`]).
//!
//! A single parity bit per row ([`RowCode::Parity`]) is exactly what the
//! stealth attacker defeats: it pads its plan with an extra flip per
//! touched row so every flip count is even. The two stronger codes close
//! the two cancellation channels that padding relies on:
//!
//! * [`RowCode::Column`] keeps one parity bit per *bit position* of the
//!   row's words. Two flips cancel only if they hit the **same** bit
//!   position, so the attacker's different-position padding flips light
//!   it up.
//! * [`RowCode::Crc`] keeps a CRC-32 digest of the row's words in
//!   parameter order. The digest is position-sensitive in both bit index
//!   and word index: *any* change to a row's bytes changes it (up to the
//!   2⁻³² collision floor), so no parity-style cancellation exists at
//!   all.
//!
//! Everything here is a pure fixed-order function of its inputs —
//! deterministic regardless of thread count, as the defense suite's
//! bit-identical arena requires.

use crate::dram::ParamLayout;

/// The per-row code a [`RowSignature`] keeps — three rungs of one
/// ladder, each closing the cancellation channel the one below leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowCode {
    /// One parity bit per row: the XOR of every bit of the row's words.
    /// An odd flip count alarms; an even count cancels.
    Parity,
    /// One parity bit per bit position (column) of the row's words — a
    /// 32-bit syndrome, the XOR of the words' bit patterns. Two flips
    /// cancel only when they hit the same bit position.
    Column,
    /// A CRC-32 digest (reflected polynomial `0xEDB88320`) of the row's
    /// words in ascending parameter-index order, little-endian bytes —
    /// sensitive to both which bits changed and where.
    Crc,
}

/// Reference per-row codes of a parameter buffer, together with the
/// layout they were captured under and the buffer's word bits.
///
/// Rows are identified by `(bank, row)` and stored sorted; each code
/// covers the `f32` words the layout places in that row (words outside
/// the layout — e.g. co-resident allocations — are not modeled and
/// assumed untouched). Owning the layout means a check can only ever
/// recompute the codes under the layout that was captured.
///
/// A check compares the observed words with the captured ones bit for
/// bit and re-digests only the rows holding a differing word: every
/// other row holds the captured bytes, so its code is the captured one.
#[derive(Debug, Clone)]
pub struct RowSignature {
    code: RowCode,
    layout: ParamLayout,
    /// The captured buffer's `f32` bit patterns, in parameter order.
    words: Vec<u32>,
    /// Sorted `((bank, row), code)` pairs for every covered row; a
    /// [`RowCode::Parity`] code is `0` or `1`.
    rows: Vec<((usize, usize), u32)>,
}

impl RowSignature {
    /// Captures the reference `code` of every row `params` occupies
    /// under `layout`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the layout's length.
    pub fn capture(code: RowCode, layout: ParamLayout, params: &[f32]) -> Self {
        assert_eq!(params.len(), layout.len(), "params/layout length mismatch");
        let words: Vec<u32> = params.iter().map(|p| p.to_bits()).collect();
        let mut rows = Vec::new();
        let mut start = 0;
        while start < words.len() {
            let span = layout.row_indices(start);
            let id = layout.address(start).row_id();
            rows.push((id, row_code(code, words[span.clone()].iter().copied())));
            start = span.end;
        }
        rows.sort_unstable_by_key(|&(id, _)| id);
        Self {
            code,
            layout,
            words,
            rows,
        }
    }

    /// The code this signature keeps.
    pub fn code(&self) -> RowCode {
        self.code
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the captured layout was empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The captured buffer's `f32` bit patterns, in parameter order —
    /// what [`RowSignature::changed_violations`] diffs against.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// The `(bank, row)` pairs whose code no longer matches the
    /// reference — for [`RowCode::Parity`], the rows holding an odd
    /// number of flipped bits.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the captured layout's
    /// length.
    pub fn violations(&self, params: &[f32]) -> Vec<(usize, usize)> {
        assert_eq!(
            params.len(),
            self.words.len(),
            "params/layout length mismatch"
        );
        let changes: Vec<(usize, u32)> = params
            .iter()
            .zip(&self.words)
            .enumerate()
            .filter(|&(_, (p, &w))| p.to_bits() != w)
            .map(|(i, (p, _))| (i, p.to_bits()))
            .collect();
        self.changed_violations(&changes)
    }

    /// [`RowSignature::violations`] of the buffer that equals the
    /// captured one except at `changes`: `(parameter index, new bits)`
    /// pairs, strictly ascending by index. Each row holding a change is
    /// re-digested over its words in ascending index order, the
    /// captured words standing in for the unchanged ones.
    ///
    /// # Panics
    ///
    /// Panics if an index lies outside the layout or the indices are
    /// not strictly ascending.
    pub fn changed_violations(&self, changes: &[(usize, u32)]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut rest = changes;
        while let Some(&(first, _)) = rest.first() {
            let span = self.layout.row_indices(first);
            let in_row = rest.partition_point(|&(i, _)| i < span.end);
            let (row_changes, tail) = rest.split_at(in_row);
            let mut pending = row_changes.iter().peekable();
            let words = span
                .clone()
                .map(|i| match pending.next_if(|&&(j, _)| j == i) {
                    Some(&(_, bits)) => bits,
                    None => self.words[i],
                });
            let now = row_code(self.code, words);
            assert!(pending.next().is_none(), "changes must ascend strictly");
            let id = self.layout.address(first).row_id();
            let at = self
                .rows
                .binary_search_by_key(&id, |&(id, _)| id)
                .expect("every covered row was captured");
            if self.rows[at].1 != now {
                out.push(id);
            }
            rest = tail;
        }
        out.sort_unstable();
        out
    }
}

/// `code` of one row's words (bit patterns in ascending parameter
/// order).
///
/// Row parity is the popcount parity of the column syndrome: XOR-ing
/// the words first and counting bits once is exactly the XOR of every
/// word's own bit parity.
fn row_code(code: RowCode, words: impl Iterator<Item = u32>) -> u32 {
    match code {
        RowCode::Parity => words.fold(0, |a, w| a ^ w).count_ones() & 1,
        RowCode::Column => words.fold(0, |a, w| a ^ w),
        RowCode::Crc => !words
            .flat_map(u32::to_le_bytes)
            .fold(0xFFFF_FFFF, crc32_update),
    }
}

/// Folds a stream of `(row_id, value)` pairs into one entry per row,
/// sorted by `(bank, row)`.
///
/// Sequential parameter indices share a row until a boundary, so the
/// common case merges into the *last* entry in O(1); a post-sort pass
/// merges any runs of the same row that were not adjacent in input
/// order, keeping the fold linear instead of O(items × rows).
fn fold_rows<T>(
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

/// The CRC-32 byte table (reflected polynomial `0xEDB88320`): entry `b`
/// is eight bitwise steps from state `b`.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut step = 0;
        while step < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            step += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// One CRC-32 step over `byte` (reflected polynomial `0xEDB88320`).
pub(crate) fn crc32_update(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// Folds any stream of `(parameter index, flip count)` word changes onto
/// DRAM rows, sorted by `(bank, row)` — the row fold behind every
/// per-row flip count of a plan, at either word width.
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
/// odd-trips/even-evades rule: an odd number of flipped bits in a row
/// trips its parity bit, an even number cancels.
pub fn evading_rows(row_flips: &[((usize, usize), u64)]) -> Vec<(usize, usize)> {
    row_flips
        .iter()
        .filter_map(|&(id, flips)| (flips % 2 == 0).then_some(id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::flip_bits;
    use crate::dram::DramGeometry;
    use fsa_tensor::Prng;

    const CODES: [RowCode; 3] = [RowCode::Parity, RowCode::Column, RowCode::Crc];

    fn small_layout(len: usize) -> ParamLayout {
        // 16 words per row: parameter i lives in global row i / 16.
        let g = DramGeometry {
            banks: 2,
            rows_per_bank: 64,
            row_bytes: 64,
        };
        ParamLayout::new(g, 0, len)
    }

    fn capture(code: RowCode, layout: &ParamLayout, params: &[f32]) -> RowSignature {
        RowSignature::capture(code, layout.clone(), params)
    }

    #[test]
    fn clean_buffer_has_no_violations() {
        let layout = small_layout(48);
        let params = vec![1.25f32; 48];
        let parity = capture(RowCode::Parity, &layout, &params);
        assert_eq!(parity.len(), 3);
        assert!(parity.violations(&params).is_empty());
    }

    #[test]
    #[should_panic(expected = "params/layout length mismatch")]
    fn a_buffer_of_another_length_is_rejected() {
        let layout = small_layout(48);
        let params = vec![1.25f32; 48];
        capture(RowCode::Column, &layout, &params).violations(&params[..47]);
    }

    #[test]
    fn single_bit_flip_trips_exactly_its_row() {
        let layout = small_layout(48);
        let mut params = vec![1.0f32; 48];
        let parity = capture(RowCode::Parity, &layout, &params);
        params[20] = flip_bits(params[20], &[3]); // word 20 → row 1
        let v = parity.violations(&params);
        assert_eq!(v, vec![layout.address(20).row_id()]);
    }

    #[test]
    fn even_flips_in_one_row_evade_parity() {
        let layout = small_layout(32);
        let mut params = vec![1.0f32; 32];
        let parity = capture(RowCode::Parity, &layout, &params);
        // Two single-bit flips in the same row cancel in its parity.
        params[4] = flip_bits(params[4], &[7]);
        params[9] = flip_bits(params[9], &[12]);
        assert_eq!(layout.address(4).row_id(), layout.address(9).row_id());
        assert!(
            parity.violations(&params).is_empty(),
            "an even flip count must cancel in the row parity"
        );
        // A third flip makes the count odd again — detected.
        params[4] = flip_bits(params[4], &[8]);
        assert_eq!(parity.violations(&params).len(), 1);
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
    fn column_parity_catches_parity_even_padding() {
        // Two flips in one row at *different* bit positions: the per-row
        // XOR parity cancels (the stealth planner's padding trick), but
        // the column syndrome records both positions.
        let layout = small_layout(32);
        let mut params = vec![1.0f32; 32];
        let row = capture(RowCode::Parity, &layout, &params);
        let col = capture(RowCode::Column, &layout, &params);
        assert_eq!(col.len(), 2);
        params[4] = flip_bits(params[4], &[7]);
        params[9] = flip_bits(params[9], &[12]);
        assert!(row.violations(&params).is_empty());
        assert_eq!(
            col.violations(&params),
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
        let row = capture(RowCode::Parity, &layout, &params);
        let col = capture(RowCode::Column, &layout, &params);
        let crc = capture(RowCode::Crc, &layout, &params);
        assert_eq!(crc.len(), 2);
        params[4] = flip_bits(params[4], &[19]);
        params[9] = flip_bits(params[9], &[19]);
        assert!(row.violations(&params).is_empty());
        assert!(col.violations(&params).is_empty());
        assert_eq!(
            crc.violations(&params),
            vec![layout.address(4).row_id()],
            "the CRC digest must catch what both parities cancel"
        );
    }

    #[test]
    fn crc_family_is_clean_on_untouched_buffers() {
        let layout = small_layout(48);
        let params: Vec<f32> = (0..48).map(|i| 1.0 + i as f32).collect();
        let col = capture(RowCode::Column, &layout, &params);
        let crc = capture(RowCode::Crc, &layout, &params);
        assert!(col.violations(&params).is_empty());
        assert!(crc.violations(&params).is_empty());
        // And any single-word change is visible to both.
        let mut tampered = params.clone();
        tampered[33] = flip_bits(tampered[33], &[2]);
        assert_eq!(col.violations(&tampered).len(), 1);
        assert_eq!(crc.violations(&tampered).len(), 1);
    }

    /// One CRC-32 step the bitwise way: the definition the table is
    /// built from.
    fn crc32_bitwise(mut crc: u32, byte: u8) -> u32 {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
        crc
    }

    #[test]
    fn crc32_table_matches_the_bitwise_loop() {
        for state in [
            0,
            0xFFFF_FFFF,
            0x1234_5678,
            0xDEAD_BEEF,
            0x8000_0001,
            0xCBF4_3926,
        ] {
            for byte in 0..=255u8 {
                assert_eq!(
                    crc32_update(state, byte),
                    crc32_bitwise(state, byte),
                    "state {state:#010x}, byte {byte:#04x}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 check: crc("123456789") == 0xCBF43926.
        let crc = !b"123456789"
            .iter()
            .fold(0xFFFF_FFFFu32, |c, &b| crc32_update(c, b));
        assert_eq!(crc, 0xCBF4_3926);
    }

    /// Per-row `code` of `params`, word `i` living in row `row_of(i)`,
    /// sorted by `(bank, row)`: the whole buffer folded at once, the
    /// full recomputation a signature check replaces.
    fn fold_codes(
        code: RowCode,
        params: &[f32],
        row_of: impl Fn(usize) -> (usize, usize),
    ) -> Vec<((usize, usize), u32)> {
        if code == RowCode::Crc {
            return row_crcs(params, row_of);
        }
        let mut rows = fold_rows(
            params
                .iter()
                .enumerate()
                .map(|(i, &p)| (row_of(i), p.to_bits())),
            |syndrome, bits| *syndrome ^= bits,
        );
        if code == RowCode::Parity {
            for (_, syndrome) in &mut rows {
                *syndrome = syndrome.count_ones() & 1;
            }
        }
        rows
    }

    /// Per-row CRC-32 of `params`, sorted by `(bank, row)`: indices
    /// sorted by `(row, index)`, each run digested in ascending order.
    fn row_crcs(
        params: &[f32],
        row_of: impl Fn(usize) -> (usize, usize),
    ) -> Vec<((usize, usize), u32)> {
        let mut indexed: Vec<((usize, usize), usize)> =
            (0..params.len()).map(|i| (row_of(i), i)).collect();
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
                *state = crc32_bitwise(*state, byte);
            }
        }
        for (_, state) in &mut out {
            *state = !*state;
        }
        out
    }

    /// The per-row code recomputed the slow way: group the words by row
    /// (rows sorted), then fold each row's words in ascending index.
    fn naive_codes(
        code: RowCode,
        params: &[f32],
        rows: &[(usize, usize)],
    ) -> Vec<((usize, usize), u32)> {
        let mut ids = rows.to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| {
                let words = (0..params.len())
                    .filter(|&i| rows[i] == id)
                    .map(|i| params[i].to_bits());
                let value = match code {
                    RowCode::Parity => words.map(|w| w.count_ones() % 2).fold(0, |a, b| a ^ b),
                    RowCode::Column => words.fold(0, |a, b| a ^ b),
                    RowCode::Crc => !words
                        .flat_map(u32::to_le_bytes)
                        .fold(0xFFFF_FFFF, crc32_update),
                };
                (id, value)
            })
            .collect()
    }

    fn naive_violations(
        code: RowCode,
        before: &[f32],
        after: &[f32],
        rows: &[(usize, usize)],
    ) -> Vec<(usize, usize)> {
        naive_codes(code, before, rows)
            .into_iter()
            .zip(naive_codes(code, after, rows))
            .filter_map(|((id, b), (_, a))| (b != a).then_some(id))
            .collect()
    }

    #[test]
    fn row_code_ladder_matches_naive_recomputation() {
        let mut rng = Prng::new(0x001A_DDE5);
        for trial in 0..200 {
            let len = 1 + rng.below(96);
            let before: Vec<f32> = (0..len).map(|_| rng.normal(0.0, 2.0)).collect();
            // Even trials go through a real layout (random row size,
            // bank count and base); odd trials scatter the words over a
            // few rows at random, so one row's words come in several
            // non-adjacent runs.
            let layout = if trial % 2 == 0 {
                let g = DramGeometry {
                    banks: 1 + rng.below(4),
                    rows_per_bank: 512,
                    row_bytes: 4 << rng.below(5),
                };
                Some(ParamLayout::new(g, 4 * rng.below(40), len))
            } else {
                None
            };
            let rows: Vec<(usize, usize)> = match &layout {
                Some(l) => (0..len).map(|i| l.address(i).row_id()).collect(),
                None => {
                    let n_rows = 1 + rng.below(5);
                    (0..len)
                        .map(|_| (rng.below(2), rng.below(n_rows)))
                        .collect()
                }
            };
            // Tamper 1–3 distinct words, each with a nonzero multi-bit
            // mask.
            let mut after = before.clone();
            let words = (1 + rng.below(3)).min(len);
            let touched = rng.choose_distinct(len, words);
            for &i in &touched {
                let mask = (rng.next_u64() as u32).max(1);
                after[i] = f32::from_bits(after[i].to_bits() ^ mask);
            }
            let violations = |code: RowCode| match &layout {
                Some(l) => {
                    // The captured codes are the whole-buffer fold's.
                    let sig = capture(code, l, &before);
                    assert_eq!(sig.rows, fold_codes(code, &before, |i| rows[i]));
                    sig.violations(&after)
                }
                None => {
                    let now = fold_codes(code, &after, |i| rows[i]);
                    fold_codes(code, &before, |i| rows[i])
                        .into_iter()
                        .zip(now)
                        .filter_map(|((id, b), (_, a))| (b != a).then_some(id))
                        .collect()
                }
            };
            let [parity, column, crc] = CODES.map(|code| {
                // The codes themselves, not just their differences:
                // a CRC digesting a row out of order still differs
                // wherever a word changed.
                assert_eq!(
                    fold_codes(code, &after, |i| rows[i]),
                    naive_codes(code, &after, &rows),
                    "trial {trial}: {code:?} codes"
                );
                let got = violations(code);
                assert_eq!(
                    got,
                    naive_violations(code, &before, &after, &rows),
                    "trial {trial}: {code:?} disagrees with the naive recomputation"
                );
                got
            });
            assert!(
                parity.iter().all(|id| column.contains(id)),
                "trial {trial}: parity {parity:?} ⊄ column {column:?}"
            );
            let mut changed: Vec<(usize, usize)> = touched.iter().map(|&i| rows[i]).collect();
            changed.sort_unstable();
            changed.dedup();
            assert_eq!(crc, changed, "trial {trial}: CRC rows");
        }
    }
}
