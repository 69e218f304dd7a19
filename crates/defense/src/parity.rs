//! DRAM-row code monitor — ECC-style detection of bit-flip attacks.
//!
//! The memfault substrate maps the victim's parameter buffer onto DRAM
//! rows ([`fsa_memfault::dram::ParamLayout`]); this detector stands on
//! the defending side of that mapping: one [`RowCode`] per (bank, row),
//! captured at deployment ([`fsa_memfault::parity::RowSignature`]) and
//! re-checked per observation.
//!
//! With [`RowCode::Parity`] (`dram_parity`) an **odd** number of flipped
//! bits in a row alarms and an **even** count cancels and slips through
//! — the exact limitation a rowhammer attacker exploits. Which rows of a
//! compiled plan evade it is known before any injection:
//! [`fsa_memfault::FaultPlan::parity_evading_rows`] folds the plan to
//! per-row flip counts and keeps the rows whose count is even.
//!
//! Since the stealth attacker learned to pad its plans parity-even, the
//! monitor ships as a *family*: [`RowCode::Column`]
//! (`dram_column_parity`, one parity bit per bit position, so
//! different-position padding no longer cancels) and [`RowCode::Crc`]
//! (`dram_row_crc`, a CRC-32 digest per row — position-sensitive, no
//! cancellation channel at all). All three share the layout, threshold
//! convention (any violated row alarms), and violation-count score.
//!
//! An observation is diffed against the captured words bit for bit;
//! only the rows holding a differing word are re-digested
//! ([`RowSignature::changed_violations`]).

use crate::detector::{changed_words, flat_params, Detector};
use fsa_memfault::dram::{DramGeometry, ParamLayout};
use fsa_memfault::parity::{RowCode, RowSignature};
use fsa_nn::head::FcHead;

/// A per-row code monitor over the model's parameter buffer.
#[derive(Debug, Clone)]
pub struct RowCodeDetector {
    reference: RowSignature,
}

impl RowCodeDetector {
    /// Captures the reference `code` of the clean model's parameters
    /// laid out at byte 0 of `geometry`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters exceed the device capacity.
    pub fn new(code: RowCode, reference: &FcHead, geometry: DramGeometry) -> Self {
        let params = flat_params(reference);
        let layout = ParamLayout::new(geometry, 0, params.len());
        Self {
            reference: RowSignature::capture(code, layout, &params),
        }
    }

    /// Rows whose code an observed head violates.
    ///
    /// # Panics
    ///
    /// Panics if the observed head's parameter count differs from the
    /// calibrated layout.
    pub fn violations(&self, head: &FcHead) -> Vec<(usize, usize)> {
        self.reference
            .changed_violations(&changed_words(self.reference.words(), head))
    }
}

impl Detector for RowCodeDetector {
    fn name(&self) -> String {
        match self.reference.code() {
            RowCode::Parity => "dram_parity",
            RowCode::Column => "dram_column_parity",
            RowCode::Crc => "dram_row_crc",
        }
        .to_string()
    }

    /// Any violated row alarms.
    fn threshold(&self) -> f32 {
        1.0
    }

    /// Number of rows with a violated code.
    fn score(&self, head: &FcHead) -> f32 {
        self.violations(head).len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    const CODES: [RowCode; 3] = [RowCode::Parity, RowCode::Column, RowCode::Crc];

    fn head() -> FcHead {
        let mut rng = Prng::new(37);
        FcHead::from_dims(&[6, 10, 4], &mut rng) // 70 + 44 = 114 params
    }

    fn tiny_geometry() -> DramGeometry {
        // 8 words per row so a small head spans many rows.
        DramGeometry {
            banks: 2,
            rows_per_bank: 64,
            row_bytes: 32,
        }
    }

    #[test]
    fn clean_model_has_no_violations() {
        let h = head();
        for code in CODES {
            let det = RowCodeDetector::new(code, &h, tiny_geometry());
            let v = det.evaluate(&h);
            assert_eq!(v.score, 0.0, "{}", v.detector);
            assert!(!v.detected, "{}", v.detector);
        }
    }

    #[test]
    fn parity_family_closes_the_even_padding_hole() {
        // Two different-position flips in one row: the deployed XOR
        // parity is blind; column parity and the CRC both alarm.
        let h = head();
        let [row, col, crc] = CODES.map(|code| RowCodeDetector::new(code, &h, tiny_geometry()));
        assert_eq!(
            [row.name(), col.name(), crc.name()],
            ["dram_parity", "dram_column_parity", "dram_row_crc"]
        );
        let mut attacked = h.clone();
        let flat = attacked.layer_flat_params(0);
        let mut modified = flat.clone();
        modified[0] = fsa_memfault::bits::flip_bits(modified[0], &[5]);
        modified[1] = fsa_memfault::bits::flip_bits(modified[1], &[11]);
        attacked.set_layer_flat_params(0, &modified);
        assert!(
            !row.evaluate(&attacked).detected,
            "XOR parity should cancel"
        );
        assert!(col.evaluate(&attacked).detected);
        assert!(crc.evaluate(&attacked).detected);
    }
}
