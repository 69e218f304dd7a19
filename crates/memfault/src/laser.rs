//! Laser fault injection model.
//!
//! Laser injection (Selmke et al. \[18\]) flips any chosen bit precisely,
//! but each *target location* requires re-positioning and re-tuning the
//! beam, which dominates the attack time; individual pulses are
//! comparatively cheap. Cost therefore scales with the number of modified
//! words (≈ `‖δ‖₀`) more than with total pulse count — the paper's stated
//! reason for minimizing `ℓ0`.

use crate::plan::WordChange;

/// Seconds to re-position/re-tune the beam onto a new word. This and
/// [`PULSE_SECONDS`] are order-of-magnitude figures from published SRAM
/// laser setups: minutes-scale tuning per region, ms-scale pulses.
const TARGETING_SECONDS: f64 = 30.0;
/// Seconds per pulse (one bit flip).
const PULSE_SECONDS: f64 = 0.001;

/// Laser injector cost model: 30 s of targeting per word, 1 ms per
/// pulse.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LaserInjector;

/// Cost of realizing a plan with the laser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaserCost {
    /// Words targeted.
    pub words: usize,
    /// Total bit pulses.
    pub pulses: u64,
    /// Estimated wall-clock seconds.
    pub seconds: f64,
}

impl LaserInjector {
    /// Costs a set of word changes. The laser model is deterministic:
    /// every requested flip succeeds, so the resulting parameters hold
    /// exactly the words the plan was compiled toward.
    pub fn cost(&self, changes: &[WordChange]) -> LaserCost {
        let words = changes.len();
        let pulses: u64 = changes.iter().map(|c| c.flipped_bits.len() as u64).sum();
        LaserCost {
            words,
            pulses,
            seconds: words as f64 * TARGETING_SECONDS + pulses as f64 * PULSE_SECONDS,
        }
    }

    /// Applies a plan to a parameter buffer (in place), returning the
    /// number of flips performed.
    ///
    /// # Panics
    ///
    /// Panics if a change's index is out of bounds.
    pub fn apply(&self, changes: &[WordChange], params: &mut [f32]) -> u64 {
        let mut flips = 0u64;
        for c in changes {
            params[c.index] = crate::bits::flip_bits(params[c.index], &c.flipped_bits);
            flips += c.flipped_bits.len() as u64;
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::WordChange;

    fn change(index: usize, old: f32, new: f32) -> WordChange {
        WordChange {
            index,
            flipped_bits: crate::bits::differing_bits(old.to_bits(), new.to_bits()),
        }
    }

    #[test]
    fn cost_scales_with_words_not_pulses() {
        let laser = LaserInjector;
        // One word, many bits vs many words, one bit each.
        let one_word = vec![change(0, 0.0, f32::from_bits(0x00FF_FFFF))];
        let many_words: Vec<WordChange> = (0..24).map(|i| change(i, 1.0, -1.0)).collect();
        let a = laser.cost(&one_word);
        let b = laser.cost(&many_words);
        assert_eq!(a.pulses, 24);
        assert_eq!(b.pulses, 24);
        assert!(
            b.seconds > 10.0 * a.seconds,
            "{} vs {}",
            b.seconds,
            a.seconds
        );
    }

    #[test]
    fn apply_realizes_exact_values() {
        let laser = LaserInjector;
        let mut params = vec![1.0f32, 2.0, 3.0];
        let changes = vec![change(0, 1.0, -7.25), change(2, 3.0, 0.015625)];
        let flips = laser.apply(&changes, &mut params);
        assert_eq!(params, vec![-7.25, 2.0, 0.015625]);
        assert!(flips > 0);
    }

    #[test]
    fn empty_plan_costs_nothing() {
        let cost = LaserInjector.cost(&[]);
        assert_eq!(cost.words, 0);
        assert_eq!(cost.pulses, 0);
        assert_eq!(cost.seconds, 0.0);
    }
}
