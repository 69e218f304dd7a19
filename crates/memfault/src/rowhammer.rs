//! Rowhammer fault injection model.
//!
//! Rowhammer (Kim et al. \[19\]) flips DRAM bits by repeatedly activating
//! *aggressor* rows adjacent to a victim row. Only a device-specific
//! population of vulnerable cells can flip, each with a fixed preferred
//! direction (1→0 or 0→1), and each hammering round succeeds only
//! probabilistically. The attacker therefore cannot realize arbitrary new
//! word values — the simulation reports which requested flips are
//! *achievable* and what they cost in row activations.

use crate::bits::flip_sets_bit;
use crate::dram::{ParamAddress, ParamLayout};
use crate::plan::WordChange;
use fsa_tensor::Prng;

/// Rowhammer injector over a seeded vulnerable-cell population.
#[derive(Debug, Clone)]
pub struct RowhammerInjector {
    /// Fraction of cells that are vulnerable at all (typical DDR3/DDR4
    /// studies report 1e-5..1e-3; the default is deliberately generous to
    /// keep simulated experiments informative).
    pub vulnerable_fraction: f64,
    /// Probability one hammering round flips a vulnerable cell.
    pub flip_probability: f64,
    /// Row activations per hammering round (double-sided hammering).
    pub activations_per_round: u64,
    /// Maximum rounds per victim row before giving up.
    pub max_rounds: u32,
    /// Seed for the vulnerable-cell population and round outcomes.
    pub seed: u64,
}

impl Default for RowhammerInjector {
    fn default() -> Self {
        Self {
            vulnerable_fraction: 0.02,
            flip_probability: 0.35,
            activations_per_round: 2_000_000,
            max_rounds: 16,
            seed: 0xBEEF,
        }
    }
}

/// Outcome of hammering a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct HammerOutcome {
    /// Requested single-bit flips.
    pub requested: usize,
    /// Flips achieved (vulnerable cell, right direction, round success).
    pub achieved: usize,
    /// Indices (into the parameter buffer) whose words ended up exactly
    /// at their planned values.
    pub exact_words: Vec<usize>,
    /// Total row activations spent.
    pub activations: u64,
    /// Distinct victim rows hammered.
    pub rows_hammered: usize,
}

impl HammerOutcome {
    /// Fraction of requested flips achieved.
    pub fn achievement_rate(&self) -> f64 {
        if self.requested == 0 {
            1.0
        } else {
            self.achieved as f64 / self.requested as f64
        }
    }
}

impl RowhammerInjector {
    /// Is the cell holding (`address`, `bit`) vulnerable, and if so in
    /// which direction does it flip? Deterministic in the injector seed.
    ///
    /// Returns `None` for invulnerable cells, `Some(true)` for cells that
    /// flip 0→1, `Some(false)` for 1→0.
    pub fn cell_vulnerability(&self, address: ParamAddress, bit: u8) -> Option<bool> {
        // Hash the physical cell coordinates with the seed.
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for v in [
            address.bank as u64,
            address.row as u64,
            address.byte as u64,
            bit as u64,
        ] {
            h ^= v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h = h.rotate_left(31).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        }
        let uniform = (h >> 11) as f64 / (1u64 << 53) as f64;
        if uniform < self.vulnerable_fraction {
            Some(h & (1 << 60) != 0)
        } else {
            None
        }
    }

    /// Attempts to realize a plan on `params` (in place).
    ///
    /// Only flips whose cell is vulnerable *in the required direction*
    /// can succeed; each is retried up to `max_rounds` hammering rounds.
    ///
    /// # Panics
    ///
    /// Panics if a change index is outside the layout.
    pub fn apply(
        &self,
        changes: &[WordChange],
        layout: &ParamLayout,
        params: &mut [f32],
    ) -> HammerOutcome {
        let mut rng = Prng::new(self.seed ^ 0xD00D);
        let mut requested = 0usize;
        let mut achieved = 0usize;
        let mut activations = 0u64;
        let mut rows: Vec<(usize, usize)> = Vec::new();
        let mut exact_words = Vec::new();

        for change in changes {
            let addr = layout.address(change.index);
            rows.push(addr.row_id());
            let mut word_ok = true;
            for &bit in &change.flipped_bits {
                requested += 1;
                let need_set = flip_sets_bit(params[change.index], bit);
                match self.cell_vulnerability(addr, bit) {
                    Some(direction) if direction == need_set => {
                        // Hammer until the cell flips or we give up.
                        let mut flipped = false;
                        for _ in 0..self.max_rounds {
                            activations += self.activations_per_round;
                            if rng.bernoulli(self.flip_probability) {
                                flipped = true;
                                break;
                            }
                        }
                        if flipped {
                            params[change.index] =
                                crate::bits::flip_bits(params[change.index], &[bit]);
                            achieved += 1;
                        } else {
                            word_ok = false;
                        }
                    }
                    _ => {
                        // Invulnerable cell or wrong direction: one probe
                        // round establishes this, then the attacker moves on.
                        activations += self.activations_per_round;
                        word_ok = false;
                    }
                }
            }
            if word_ok && !change.flipped_bits.is_empty() {
                exact_words.push(change.index);
            }
        }
        rows.sort_unstable();
        rows.dedup();
        HammerOutcome {
            requested,
            achieved,
            exact_words,
            activations,
            rows_hammered: rows.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramGeometry;

    fn layout() -> ParamLayout {
        ParamLayout::new(DramGeometry::default(), 0, 4096)
    }

    fn change(index: usize, old: f32, new: f32) -> WordChange {
        WordChange {
            index,
            flipped_bits: crate::bits::differing_bits(old.to_bits(), new.to_bits()),
        }
    }

    #[test]
    fn vulnerability_is_deterministic() {
        let rh = RowhammerInjector::default();
        let l = layout();
        let a = l.address(7);
        assert_eq!(rh.cell_vulnerability(a, 3), rh.cell_vulnerability(a, 3));
    }

    #[test]
    fn vulnerable_fraction_is_respected() {
        let rh = RowhammerInjector {
            vulnerable_fraction: 0.05,
            ..Default::default()
        };
        let l = layout();
        let mut vulnerable = 0usize;
        let mut total = 0usize;
        for i in 0..2000 {
            for bit in 0..32 {
                total += 1;
                if rh.cell_vulnerability(l.address(i), bit).is_some() {
                    vulnerable += 1;
                }
            }
        }
        let frac = vulnerable as f64 / total as f64;
        assert!((frac - 0.05).abs() < 0.01, "observed fraction {frac}");
    }

    #[test]
    fn all_vulnerable_population_achieves_everything() {
        let rh = RowhammerInjector {
            vulnerable_fraction: 1.0,
            flip_probability: 1.0,
            ..Default::default()
        };
        // Direction still gates: pick values where every differing bit can
        // go both ways... use single-bit sign flips, and accept the ~50%
        // direction filter by checking per-word.
        let l = layout();
        let mut params = vec![1.0f32; 8];
        let changes: Vec<WordChange> = (0..8).map(|i| change(i, 1.0, -1.0)).collect();
        let outcome = rh.apply(&changes, &l, &mut params);
        assert_eq!(outcome.requested, 8);
        // Sign bit of 1.0 is 0, so the flip needs a 0→1 cell; with
        // direction uniform this succeeds for roughly half the words —
        // and every achieved flip must be reflected in the params.
        let flipped = params.iter().filter(|&&p| p == -1.0).count();
        assert_eq!(flipped, outcome.achieved);
        assert_eq!(outcome.exact_words.len(), flipped);
    }

    #[test]
    fn invulnerable_population_achieves_nothing() {
        let rh = RowhammerInjector {
            vulnerable_fraction: 0.0,
            ..Default::default()
        };
        let l = layout();
        let mut params = vec![1.0f32; 4];
        let changes: Vec<WordChange> = (0..4).map(|i| change(i, 1.0, -1.0)).collect();
        let outcome = rh.apply(&changes, &l, &mut params);
        assert_eq!(outcome.achieved, 0);
        assert!(outcome.exact_words.is_empty());
        assert_eq!(params, vec![1.0; 4]);
        assert!(outcome.activations > 0, "probing still costs activations");
    }

    #[test]
    fn activations_scale_with_requests() {
        let rh = RowhammerInjector {
            vulnerable_fraction: 0.5,
            flip_probability: 0.5,
            ..Default::default()
        };
        let l = layout();
        let mut params = vec![0.5f32; 64];
        let few: Vec<WordChange> = (0..2).map(|i| change(i, 0.5, -0.5)).collect();
        let many: Vec<WordChange> = (0..64).map(|i| change(i, 0.5, -0.5)).collect();
        let mut p2 = params.clone();
        let a = rh.apply(&few, &l, &mut p2).activations;
        let b = rh.apply(&many, &l, &mut params).activations;
        assert!(b > a);
    }
}
