//! Detector-aware fault planning — closing the stealth loop against a
//! *deployed* monitor stack.
//!
//! The paper's stealth notion is behavioural: keep-set images keep their
//! labels. The arena (`fsa-defense`) showed that is not enough — a
//! baseline ℓ0 attack scatters its support across enough checksum blocks
//! that a sampling integrity audit catches it almost surely, and its
//! per-row bit-flip counts are odd often enough that a DRAM parity
//! monitor alarms on every plan. A [`StealthObjective`] makes the
//! *monitor's* observables part of the optimization:
//!
//! 1. **Checksum co-location** — the ADMM z-step pays `λ_b` per dirty
//!    `block_params`-sized parameter block
//!    ([`fsa_admm::prox::block_hard_threshold`] /
//!    [`fsa_admm::prox::block_soft_threshold_grouped`] over
//!    [`StealthObjective::delta_blocks`]), so support concentrates in as
//!    few audited blocks as the faults allow. A monitor auditing `a` of
//!    `n` blocks per pass catches `t` dirty blocks with probability
//!    `1 − C(n−t, a)/C(n, a)`; driving `t` down is the whole game.
//! 2. **Parity-even flip planning** — after refinement the compiled
//!    plan's per-DRAM-row bit-flip counts are repaired to even parity
//!    ([`repair_parity_f32`] / [`repair_parity_int8`]), the condition
//!    under which a per-row parity check sees nothing at all.
//! 3. **Activation-drift budget** — the refinement pass stops before
//!    pushing any layer's activation statistics more than `drift_budget`
//!    reference standard deviations ([`fsa_nn::stats::normalized_drift`]
//!    — the very quantity the deployed drift detector scores). The wall
//!    reads the statistics of layers `start..` off the truncated forward
//!    each refinement step already runs
//!    ([`fsa_nn::stats::cached_forward_stats`]); the layers below the
//!    selection cannot move, so the decision is the whole-head
//!    detector's.
//!
//! All three terms are pure fixed-order functions of the plan and the
//! model, so a stealth-objective campaign keeps the engine's
//! bit-determinism guarantee at any `FSA_THREADS`.

use crate::precision::QuantizedSelection;
use fsa_memfault::dram::{DramGeometry, ParamLayout};
use fsa_memfault::parity::indexed_row_flips;
use fsa_memfault::plan::FaultPlan;
use std::ops::Range;

/// The monitor-evasion objective of a detector-aware attack: which
/// checksum granularity to co-locate against, how hard, the DRAM
/// geometry whose row parity must stay even, and the activation-drift
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealthObjective {
    /// Parameters per audited checksum block (the monitored granularity
    /// the attack co-locates against — typically the *finest* deployed
    /// checksum, since coarser blocks are supersets of finer ones).
    pub block_params: usize,
    /// Penalty `λ_b` per dirty block in the z-step. Larger values trade
    /// fault success for fewer audited blocks touched.
    pub block_lambda: f32,
    /// DRAM geometry of the deployed parity monitor; planned bit flips
    /// are paired/padded to even counts per row of this layout.
    pub geometry: DramGeometry,
    /// Maximum tolerated [`fsa_nn::stats::normalized_drift`] (in
    /// reference standard deviations) during refinement.
    pub drift_budget: f32,
    /// Hard cap on dirty checksum blocks: after ADMM, δ is pruned to the
    /// `max_dirty_blocks` highest-energy blocks *before* refinement, so
    /// the refinement pass recovers fault success on the surviving
    /// support. `0` disables the cap (the soft `block_lambda` penalty
    /// still applies). An attacker facing an `a`-of-`n` sampling audit
    /// with alarm threshold `p` picks the largest cap whose detection
    /// probability stays below `p`.
    pub max_dirty_blocks: usize,
}

impl StealthObjective {
    /// Builds a stealth objective.
    ///
    /// # Panics
    ///
    /// Panics if `block_params` is zero, or `block_lambda`/`drift_budget`
    /// is negative or non-finite.
    pub fn new(
        block_params: usize,
        block_lambda: f32,
        geometry: DramGeometry,
        drift_budget: f32,
    ) -> Self {
        assert!(block_params > 0, "checksum block size must be positive");
        assert!(
            block_lambda >= 0.0 && block_lambda.is_finite(),
            "block penalty must be finite and non-negative"
        );
        assert!(
            drift_budget >= 0.0 && drift_budget.is_finite(),
            "drift budget must be finite and non-negative"
        );
        Self {
            block_params,
            block_lambda,
            geometry,
            drift_budget,
            max_dirty_blocks: 0,
        }
    }

    /// Whether the objective keeps the bounds [`StealthObjective::new`]
    /// asserts — `block_params > 0`, and `block_lambda` and
    /// `drift_budget` finite and non-negative — and has a geometry that
    /// can hold `f32` words: no zero dimension, a row size that is a
    /// multiple of 4 bytes, and a capacity that fits in `usize`. A struct
    /// literal or a decoded frame can break them; the campaign and wire
    /// boundaries check this before any scenario runs.
    pub(crate) fn is_valid(&self) -> bool {
        let bound = |v: f32| v.is_finite() && v >= 0.0;
        let g = self.geometry;
        // Nonzero exactly when no dimension is zero and nothing overflows.
        let capacity = g
            .banks
            .checked_mul(g.rows_per_bank)
            .and_then(|c| c.checked_mul(g.row_bytes));
        self.block_params > 0
            && bound(self.block_lambda)
            && bound(self.drift_budget)
            && capacity.is_some_and(|c| c > 0)
            && g.row_bytes.is_multiple_of(4)
    }

    /// Caps the number of dirty checksum blocks (see
    /// [`StealthObjective::max_dirty_blocks`]). `0` removes the cap.
    #[must_use]
    pub fn with_block_cap(mut self, max_dirty_blocks: usize) -> Self {
        self.max_dirty_blocks = max_dirty_blocks;
        self
    }

    /// Partitions the selection's δ coordinates into contiguous ranges
    /// of co-resident checksum blocks: coordinates in one range share a
    /// `block_params`-sized block of the *whole-model* flat layout.
    ///
    /// `global_indices` is [`crate::ParamSelection::global_indices`] —
    /// strictly ascending — so equal-block runs are contiguous and the
    /// ranges tile `0..global_indices.len()` in order, exactly the shape
    /// the block proximal operators require.
    ///
    /// # Panics
    ///
    /// Panics if `global_indices` is not strictly ascending.
    pub fn delta_blocks(&self, global_indices: &[usize]) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let mut start = 0;
        for i in 1..=global_indices.len() {
            if i > 1 {
                assert!(
                    global_indices[i - 1] > global_indices[i - 2],
                    "global indices must be strictly ascending"
                );
            }
            let closes = i == global_indices.len()
                || global_indices[i] / self.block_params
                    != global_indices[start] / self.block_params;
            if closes {
                out.push(start..i);
                start = i;
            }
        }
        out
    }

    /// The whole-model DRAM layout the parity monitor watches: every
    /// flat `f32` parameter word of a `param_count`-parameter model,
    /// based at byte 0 of this objective's geometry.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the geometry.
    pub fn whole_model_layout(&self, param_count: usize) -> ParamLayout {
        ParamLayout::new(self.geometry, 0, param_count)
    }
}

/// Zeroes every δ coordinate outside the `budget` highest-energy blocks
/// (sum of squared δ per block of `blocks`, the partition from
/// [`StealthObjective::delta_blocks`]), returning how many blocks still
/// carry support. Ties break toward the lower block index, so the prune
/// is a pure fixed-order function of δ. A `budget` of zero disables
/// pruning.
///
/// This is the *selection* half of checksum evasion: the soft `λ_b`
/// penalty concentrates support during the solve, and this hard cap
/// guarantees the compiled plan dirties at most `budget` audited blocks
/// no matter how the solve balanced the trade — refinement then runs on
/// the surviving support to win back fault success.
pub fn prune_to_block_budget(delta: &mut [f32], blocks: &[Range<usize>], budget: usize) -> usize {
    fn live(delta: &[f32], r: &Range<usize>) -> bool {
        delta[r.clone()].iter().any(|&v| v != 0.0)
    }
    let dirty = blocks.iter().filter(|r| live(delta, r)).count();
    if budget == 0 || dirty <= budget {
        return dirty;
    }
    let mut ranked: Vec<(usize, f32)> = blocks
        .iter()
        .enumerate()
        .map(|(b, r)| (b, delta[r.clone()].iter().map(|v| v * v).sum()))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    for &(b, _) in &ranked[budget..] {
        delta[blocks[b].clone()].fill(0.0);
    }
    blocks.iter().filter(|r| live(delta, r)).count()
}

/// What a parity-repair pass did to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParityRepair {
    /// Words whose new value was padded by one extra mantissa-LSB flip.
    pub padded: usize,
    /// Word changes dropped (reverted to the clean value) to even a row.
    pub dropped: usize,
    /// Rows left with an odd flip count because no single-word fix
    /// round-tripped — zero in practice; nonzero means the plan still
    /// trips the parity monitor on those rows.
    pub unrepaired: usize,
}

/// Rows of `layout` whose planned flip count is odd, ascending by row
/// id, with the δ coordinates of the plan's changes in each.
fn odd_rows(
    plan: &FaultPlan,
    global_indices: &[usize],
    layout: &ParamLayout,
) -> Vec<(usize, usize)> {
    let flips = indexed_row_flips(
        layout,
        plan.changes
            .iter()
            .map(|c| (global_indices[c.index], c.flipped_bits.len() as u64)),
    );
    flips
        .into_iter()
        .filter_map(|(id, n)| (n % 2 == 1).then_some(id))
        .collect()
}

/// Smallest extra flip of `new` (mantissa-LSB upward) whose realized
/// `θ₀ + δ'` round-trips to the toggled bit pattern exactly. Toggling
/// any single bit changes the word's differing-bit count by exactly one,
/// so the containing row's flip parity toggles — including the
/// degenerate `δ' = 0` case, where the word drops from the plan and
/// takes its odd flip count with it.
fn pad_word(t: f32, new: f32) -> Option<f32> {
    for bit in 0..8u32 {
        let nb = new.to_bits() ^ (1 << bit);
        let cand = f32::from_bits(nb);
        let d = cand - t;
        if (t + d).to_bits() == nb {
            return Some(d);
        }
    }
    None
}

/// Repairs an `f32` attack `δ` (over the selection's flat layout) to
/// even per-row flip parity under `layout`: for every DRAM row whose
/// compiled plan flips an odd number of bits, the first changed word in
/// the row gets one extra mantissa-LSB flip folded into its new value
/// (value change ≤ a few ULP — behaviourally invisible, but the row's
/// flip count becomes even and the parity monitor sees nothing).
///
/// `global_indices` maps δ coordinates to whole-model flat indices
/// ([`crate::ParamSelection::global_indices`]).
///
/// # Panics
///
/// Panics if lengths disagree or any global index is outside `layout`.
pub fn repair_parity_f32(
    delta: &mut [f32],
    theta0: &[f32],
    global_indices: &[usize],
    layout: &ParamLayout,
) -> ParityRepair {
    assert_eq!(delta.len(), theta0.len(), "delta/theta0 length mismatch");
    assert_eq!(
        delta.len(),
        global_indices.len(),
        "index map length mismatch"
    );
    let mut repair = ParityRepair::default();
    let plan = FaultPlan::compile(theta0, delta);
    for row in odd_rows(&plan, global_indices, layout) {
        let change = plan
            .changes
            .iter()
            .find(|c| layout.address(global_indices[c.index]).row_id() == row)
            .expect("an odd row must contain a planned change");
        let i = change.index;
        match pad_word(theta0[i], theta0[i] + delta[i]) {
            Some(d) => {
                delta[i] = d;
                if d == 0.0 {
                    repair.dropped += 1;
                } else {
                    repair.padded += 1;
                }
            }
            None => repair.unrepaired += 1,
        }
    }
    debug_assert_eq!(
        repair.unrepaired,
        odd_rows(&FaultPlan::compile(theta0, delta), global_indices, layout).len()
    );
    repair
}

/// Repairs a *realized* int8 attack to even per-row flip parity on the
/// deployed `f32` word surface (the parity monitor watches the flat
/// `f32` parameters the storage dequantizes to).
///
/// Weight coordinates live on the quantization grid, so they cannot be
/// padded sub-ULP; instead, per odd row:
///
/// * if the row holds a modified **bias** word (plain `f32` storage),
///   pad it exactly as [`repair_parity_f32`] would;
/// * otherwise **drop** the odd-flip-count weight change with the
///   smallest `|δ|` in the row — its byte reverts to the clean value
///   (`q_new[pos] = q₀[pos]`), staying on the grid while removing an odd
///   flip count from the row.
///
/// `realized`/`q_new` must come from [`QuantizedSelection::project`];
/// both are updated in place and remain projection-idempotent.
///
/// # Panics
///
/// Panics if lengths disagree with the selection or any global index is
/// outside `layout`.
pub fn repair_parity_int8(
    realized: &mut [f32],
    q_new: &mut [i8],
    qsel: &QuantizedSelection,
    global_indices: &[usize],
    layout: &ParamLayout,
) -> ParityRepair {
    assert_eq!(realized.len(), qsel.dim(), "realized length mismatch");
    assert_eq!(
        q_new.len(),
        qsel.weight_bytes(),
        "byte image length mismatch"
    );
    assert_eq!(
        realized.len(),
        global_indices.len(),
        "index map length mismatch"
    );
    let theta0 = qsel.theta0();
    let mut repair = ParityRepair::default();
    let plan = FaultPlan::compile(theta0, realized);
    for row in odd_rows(&plan, global_indices, layout) {
        let in_row: Vec<&fsa_memfault::plan::WordChange> = plan
            .changes
            .iter()
            .filter(|c| layout.address(global_indices[c.index]).row_id() == row)
            .collect();
        // Prefer padding a bias word: sub-ULP, never leaves the grid.
        let bias = in_row
            .iter()
            .find(|c| qsel.byte_index(c.index).is_none())
            .and_then(|c| {
                let i = c.index;
                pad_word(theta0[i], theta0[i] + realized[i]).map(|d| (i, d))
            });
        if let Some((i, d)) = bias {
            realized[i] = d;
            if d == 0.0 {
                repair.dropped += 1;
            } else {
                repair.padded += 1;
            }
            continue;
        }
        // A row with odd total and no bias change holds at least one
        // weight change with an odd flip count (a sum of evens is even).
        // Drop the least consequential one.
        let victim = in_row
            .iter()
            .filter(|c| c.flipped_bits.len() % 2 == 1)
            .min_by(|a, b| {
                let (da, db) = (realized[a.index].abs(), realized[b.index].abs());
                da.total_cmp(&db).then(a.index.cmp(&b.index))
            });
        match victim {
            Some(c) => {
                let pos = qsel
                    .byte_index(c.index)
                    .expect("non-bias change is a weight byte");
                q_new[pos] = qsel.q0()[pos];
                realized[c.index] = 0.0;
                repair.dropped += 1;
            }
            None => repair.unrepaired += 1,
        }
    }
    repair
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::ParamSelection;
    use fsa_memfault::parity::{RowCode, RowSignature};
    use fsa_nn::head::FcHead;
    use fsa_nn::quant::QuantizedHead;
    use fsa_tensor::Prng;

    fn geometry() -> DramGeometry {
        // 16 f32 words per row.
        DramGeometry {
            banks: 2,
            rows_per_bank: 512,
            row_bytes: 64,
        }
    }

    #[test]
    fn delta_blocks_tile_the_selection() {
        let s = StealthObjective::new(16, 1.0, geometry(), 0.25);
        // Selection spanning blocks 0 | 1 | 1 | 3.
        let gidx = [3, 15, 16, 18, 31, 48];
        let blocks = s.delta_blocks(&gidx);
        assert_eq!(blocks, vec![0..2, 2..5, 5..6]);
        // The ranges tile 0..len in order.
        assert_eq!(blocks.first().unwrap().start, 0);
        assert_eq!(blocks.last().unwrap().end, gidx.len());
        assert_eq!(s.delta_blocks(&[]), Vec::<std::ops::Range<usize>>::new());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn delta_blocks_reject_unsorted_indices() {
        StealthObjective::new(16, 1.0, geometry(), 0.25).delta_blocks(&[5, 3]);
    }

    #[test]
    fn prune_keeps_the_highest_energy_blocks() {
        let blocks = vec![0..2, 2..4, 4..6, 6..8];
        // Block energies: 1.0 | 0.25 | 4.0 | 0.25 (tie with block 1).
        let base = [1.0f32, 0.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.5];
        let mut d = base;
        assert_eq!(prune_to_block_budget(&mut d, &blocks, 2), 2);
        assert_eq!(d, [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]);
        // Tie at the cut breaks toward the lower block index.
        let mut d = base;
        assert_eq!(prune_to_block_budget(&mut d, &blocks, 3), 3);
        assert_eq!(d, [1.0, 0.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.0]);
        // A budget of zero disables pruning; a generous budget is a noop.
        for budget in [0, 4, 9] {
            let mut d = base;
            assert_eq!(prune_to_block_budget(&mut d, &blocks, budget), 4);
            assert_eq!(d, base);
        }
        // Dead blocks don't count against the budget.
        let mut d = [0.0f32, 0.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.5];
        assert_eq!(prune_to_block_budget(&mut d, &blocks, 3), 3);
        assert_eq!(d, [0.0, 0.0, 0.5, 0.0, 2.0, 0.0, 0.0, 0.5]);
    }

    /// Whole-buffer parity check: apply the repaired δ to a copy of the
    /// full flat parameters and assert zero row-parity violations.
    fn assert_even(full0: &[f32], full1: &[f32], layout: &ParamLayout) {
        let clean = RowSignature::capture(RowCode::Parity, layout.clone(), full0);
        assert_eq!(clean.violations(full1), Vec::new(), "repair left odd rows");
    }

    #[test]
    fn f32_repair_yields_zero_parity_violations() {
        let mut rng = Prng::new(91);
        let head = FcHead::from_dims(&[8, 12, 4], &mut rng);
        let sel = ParamSelection::last_layer(&head);
        let theta0 = sel.gather(&head);
        let gidx = sel.global_indices(&head);
        let s = StealthObjective::new(16, 1.0, geometry(), 0.25);
        let layout = s.whole_model_layout(head.param_count());
        for trial in 0..32 {
            let mut trial_rng = Prng::new(1000 + trial);
            let mut delta = vec![0.0f32; theta0.len()];
            for d in delta.iter_mut() {
                if trial_rng.below(3) == 0 {
                    *d = trial_rng.normal(0.0, 0.2);
                }
            }
            let repair = repair_parity_f32(&mut delta, &theta0, &gidx, &layout);
            assert_eq!(repair.unrepaired, 0, "trial {trial}: {repair:?}");
            // Realize on the full buffer and check the monitor's view.
            let full0: Vec<f32> = (0..head.num_layers())
                .flat_map(|i| head.layer_flat_params(i))
                .collect();
            let mut full1 = full0.clone();
            for (di, &gi) in gidx.iter().enumerate() {
                if delta[di] != 0.0 {
                    full1[gi] = theta0[di] + delta[di];
                }
            }
            assert_even(&full0, &full1, &layout);
        }
    }

    #[test]
    fn f32_repair_is_a_noop_on_even_plans() {
        let g = geometry();
        let layout = ParamLayout::new(g, 0, 64);
        let theta0 = vec![1.0f32; 4];
        let gidx = [0usize, 1, 2, 3];
        // Two changes in one row with equal flip counts → already even.
        let mut delta = vec![0.0f32; 4];
        delta[0] = 0.5; // 1.0 → 1.5 flips some set of bits
        delta[1] = 0.5;
        let before = delta.clone();
        let repair = repair_parity_f32(&mut delta, &theta0, &gidx, &layout);
        assert_eq!(repair, ParityRepair::default());
        assert_eq!(delta, before);
    }

    #[test]
    fn int8_repair_stays_on_grid_and_evens_rows() {
        let mut rng = Prng::new(93);
        let head = FcHead::from_dims(&[8, 12, 4], &mut rng);
        let qhead = QuantizedHead::quantize(&head);
        let deq = qhead.dequantized_head();
        let sel = ParamSelection::last_layer(&deq);
        let qsel = crate::precision::QuantizedSelection::gather(&qhead, &sel);
        let gidx = sel.global_indices(&deq);
        let s = StealthObjective::new(16, 1.0, geometry(), 0.25);
        let layout = s.whole_model_layout(deq.param_count());
        for trial in 0..16 {
            let mut trial_rng = Prng::new(2000 + trial);
            let delta: Vec<f32> = (0..qsel.dim())
                .map(|_| {
                    if trial_rng.below(3) == 0 {
                        trial_rng.normal(0.0, 0.3)
                    } else {
                        0.0
                    }
                })
                .collect();
            let (mut q_new, mut realized) = qsel.project(&delta);
            let repair = repair_parity_int8(&mut realized, &mut q_new, &qsel, &gidx, &layout);
            assert_eq!(repair.unrepaired, 0, "trial {trial}: {repair:?}");
            // Still projection-idempotent (on the grid).
            let (q2, r2) = qsel.project(&realized);
            assert_eq!(q2, q_new, "trial {trial}: repair left the grid");
            assert_eq!(r2, realized);
            // The deployed f32 surface has even rows everywhere.
            let full0: Vec<f32> = (0..deq.num_layers())
                .flat_map(|i| deq.layer_flat_params(i))
                .collect();
            let mut full1 = full0.clone();
            for (di, &gi) in gidx.iter().enumerate() {
                if realized[di] != 0.0 {
                    full1[gi] = qsel.theta0()[di] + realized[di];
                }
            }
            assert_even(&full0, &full1, &layout);
        }
    }

    #[test]
    fn pad_word_toggles_exactly_one_bit() {
        let mut rng = Prng::new(94);
        for _ in 0..256 {
            let t = rng.normal(0.0, 1.0);
            let new = t + rng.normal(0.0, 0.5);
            if new == t {
                continue;
            }
            let d = pad_word(t, new).expect("pad must find a bit");
            let realized = t + d;
            let diff = realized.to_bits() ^ new.to_bits();
            assert_eq!(diff.count_ones(), 1, "{t} -> {new} padded to {realized}");
            assert!(diff < 256, "pad must stay in the low mantissa bits");
        }
    }
}
