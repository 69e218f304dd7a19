//! The numeric-precision axis of the campaign engine: attacking `f32`
//! storage vs the deployed int8 backend.
//!
//! The paper frames fault sneaking as modifying parameters *as stored in
//! memory*. Under [`Precision::F32`] the stored form is the IEEE-754
//! word the optimization already works in, so δ applies verbatim. Under
//! [`Precision::Int8`] the deployed artifact is a
//! [`fsa_nn::quant::QuantizedHead`]: one byte per **weight** on a
//! symmetric per-tensor grid, biases kept in `f32` (the weight-only
//! scheme deployed int8 runtimes use). A continuous ADMM δ is then only
//! *realizable* on the weight coordinates after projection onto the
//! grid — `q_new = round((θ₀ + δ) / scale)` clamped to the representable
//! range — while bias coordinates apply verbatim; and the attack's
//! success and keep-set stealth must be re-measured under the actual
//! int8 inference path.
//!
//! [`QuantizedSelection`] carries exactly the storage metadata the
//! projection needs (which δ coordinates are weight bytes, their grid
//! steps, and the clean byte image, in the selection's flat δ layout),
//! and its [`QuantizedSelection::project`] is the bridge from
//! optimization space to a concrete byte image — which
//! `fsa_memfault::FaultPlan::compile_bytes` then compiles into bit
//! flips, DRAM rows, and parity predictions.

use crate::selection::{ParamKind, ParamSelection};
use fsa_nn::quant::QuantizedHead;
use fsa_tensor::quant::QuantParams;

/// Which storage format a campaign attacks (and its arena scores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// IEEE-754 `f32` words — the optimization's native storage; δ
    /// applies verbatim.
    #[default]
    F32,
    /// Int8 weight storage: the weight coordinates of δ are projected
    /// onto the representable grid, bias coordinates apply verbatim,
    /// and outcomes are re-measured under int8 inference.
    Int8,
}

impl Precision {
    /// Stable tag mixed into report fingerprints.
    pub fn tag(self) -> u64 {
        match self {
            Precision::F32 => 0,
            Precision::Int8 => 1,
        }
    }

    /// Identifier used in bench artifacts (`"f32"` / `"int8"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// One δ coordinate's storage slot in the int8 backend.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// Weight byte: position in the selection's byte image, and the
    /// layer's weight grid step.
    Weight(usize, QuantParams),
    /// `f32` bias word: layer index and offset within its bias.
    Bias(usize, usize),
}

/// The int8 storage view of one [`ParamSelection`]: the selected weight
/// bytes (in δ layout order) with their grid steps, plus the location of
/// every selected `f32` bias word.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedSelection {
    /// One slot per δ coordinate, in the selection's flat layout.
    slots: Vec<Slot>,
    /// Clean byte image of the selected weight region.
    q0: Vec<i8>,
    /// Clean `f32` values of every δ coordinate (weights dequantized,
    /// biases verbatim).
    theta0: Vec<f32>,
}

impl QuantizedSelection {
    /// Gathers the selected storage out of a quantized head — the
    /// analogue of [`ParamSelection::gather`] for the int8 backend.
    ///
    /// # Panics
    ///
    /// Panics if the selection names layers outside the head.
    pub fn gather(qhead: &QuantizedHead, selection: &ParamSelection) -> Self {
        let mut slots = Vec::new();
        let mut q0 = Vec::new();
        let mut theta0 = Vec::new();
        for e in selection.entries() {
            assert!(
                e.layer < qhead.num_layers(),
                "selection names layer {} but quantized head has {} layers",
                e.layer,
                qhead.num_layers()
            );
            let layer = qhead.layer(e.layer);
            let wp = layer.weight_params();
            let push_weights = |slots: &mut Vec<Slot>, q0: &mut Vec<i8>, theta0: &mut Vec<f32>| {
                for &q in layer.weight_q() {
                    slots.push(Slot::Weight(q0.len(), wp));
                    q0.push(q);
                    theta0.push(wp.dequantize(q));
                }
            };
            let push_bias = |slots: &mut Vec<Slot>, theta0: &mut Vec<f32>| {
                for (off, &b) in layer.bias().iter().enumerate() {
                    slots.push(Slot::Bias(e.layer, off));
                    theta0.push(b);
                }
            };
            match e.kind {
                ParamKind::Weights => push_weights(&mut slots, &mut q0, &mut theta0),
                ParamKind::Bias => push_bias(&mut slots, &mut theta0),
                ParamKind::Both => {
                    push_weights(&mut slots, &mut q0, &mut theta0);
                    push_bias(&mut slots, &mut theta0);
                }
            }
        }
        Self { slots, q0, theta0 }
    }

    /// Dimension of the selected region (length of δ).
    pub fn dim(&self) -> usize {
        self.slots.len()
    }

    /// Number of int8-stored bytes in the selection (the weight region).
    pub fn weight_bytes(&self) -> usize {
        self.q0.len()
    }

    /// The clean byte image of the selected weight region, in δ layout
    /// order — the `old` side of
    /// `fsa_memfault::FaultPlan::compile_bytes`.
    pub fn q0(&self) -> &[i8] {
        &self.q0
    }

    /// The selected clean parameters as `f32` (weights as exact grid
    /// values, biases verbatim) — the `θ₀` an int8 attack optimizes
    /// around; identical to gathering the dequantized head.
    pub fn theta0(&self) -> &[f32] {
        &self.theta0
    }

    /// Whether δ coordinate `i` lives in int8 weight storage (`Some`
    /// with its byte-image position) or is an `f32` bias word (`None`).
    pub fn byte_index(&self, i: usize) -> Option<usize> {
        match self.slots[i] {
            Slot::Weight(pos, _) => Some(pos),
            Slot::Bias(..) => None,
        }
    }

    /// Projects a continuous δ onto the realizable storage: weight
    /// coordinates snap to their grid
    /// (`q_new = clamp(round((θ₀ + δ) / scale))`), bias coordinates pass
    /// through verbatim.
    ///
    /// Returns the new byte image of the weight region and the
    /// **realized** δ (`dequant(q_new) − dequant(q₀)` on weights —
    /// exactly zero where the byte is unchanged, so ℓ0 counts stay
    /// meaningful — and `delta` itself on biases). Idempotent:
    /// projecting a realized δ returns it unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len()` differs from the selection dimension.
    pub fn project(&self, delta: &[f32]) -> (Vec<i8>, Vec<f32>) {
        assert_eq!(
            delta.len(),
            self.slots.len(),
            "delta length {} does not match quantized selection {}",
            delta.len(),
            self.slots.len()
        );
        let mut q_new = self.q0.clone();
        let mut realized = Vec::with_capacity(delta.len());
        for (slot, (&d, &t0)) in self.slots.iter().zip(delta.iter().zip(&self.theta0)) {
            match *slot {
                Slot::Weight(pos, p) => {
                    let nq = p.quantize(t0 + d);
                    q_new[pos] = nq;
                    realized.push(if nq == self.q0[pos] {
                        0.0
                    } else {
                        p.dequantize(nq) - t0
                    });
                }
                Slot::Bias(..) => realized.push(d),
            }
        }
        (q_new, realized)
    }

    /// Applies a projected attack to a quantized head: the byte image
    /// `q_new` lands in the weight region and the bias coordinates of
    /// `realized` are added to the `f32` biases — the int8 analogue of
    /// scattering `θ₀ + δ`.
    ///
    /// # Panics
    ///
    /// Panics if lengths disagree with the selection, or `selection`
    /// differs from the one this view was gathered with.
    pub fn apply(
        &self,
        qhead: &mut QuantizedHead,
        selection: &ParamSelection,
        q_new: &[i8],
        realized: &[f32],
    ) {
        assert_eq!(q_new.len(), self.q0.len(), "byte image length mismatch");
        assert_eq!(realized.len(), self.slots.len(), "delta length mismatch");
        // Weight bytes: per selected layer, splice its slice of the image.
        let mut byte_off = 0;
        for e in selection.entries() {
            if matches!(e.kind, ParamKind::Weights | ParamKind::Both) {
                let nw = qhead.layer(e.layer).weight_bytes();
                qhead.set_layer_weight_q(e.layer, &q_new[byte_off..byte_off + nw]);
                byte_off += nw;
            }
        }
        assert_eq!(byte_off, q_new.len(), "byte image does not match selection");
        // Bias words: add the realized δ onto the clean bias values.
        for (slot, (&d, &t0)) in self.slots.iter().zip(realized.iter().zip(&self.theta0)) {
            if let Slot::Bias(layer, off) = *slot {
                let mut bias = qhead.layer(layer).bias().to_vec();
                bias[off] = t0 + d;
                qhead.set_layer_bias(layer, &bias);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_nn::head::FcHead;
    use fsa_tensor::{Prng, Tensor};

    fn fixture() -> (FcHead, QuantizedHead) {
        let mut rng = Prng::new(55);
        let head = FcHead::from_dims(&[6, 10, 3], &mut rng);
        let qhead = QuantizedHead::quantize(&head);
        (head, qhead)
    }

    #[test]
    fn gather_matches_selection_layout() {
        let (head, qhead) = fixture();
        let sel = ParamSelection::last_layer(&head);
        let qsel = QuantizedSelection::gather(&qhead, &sel);
        assert_eq!(qsel.dim(), sel.dim(&head));
        // Last layer: 10×3 weights then 3 biases.
        assert_eq!(qsel.weight_bytes(), 30);
        assert!(qsel.byte_index(0).is_some());
        assert!(qsel.byte_index(29).is_some());
        assert!(qsel.byte_index(30).is_none());
        // theta0 equals the dequantized head's gathered selection.
        let deq = qhead.dequantized_head();
        assert_eq!(qsel.theta0(), &sel.gather(&deq)[..]);
    }

    #[test]
    fn project_snaps_weights_and_passes_biases_through() {
        let (head, qhead) = fixture();
        let sel = ParamSelection::last_layer(&head);
        let qsel = QuantizedSelection::gather(&qhead, &sel);
        let mut rng = Prng::new(56);
        let delta: Vec<f32> = (0..qsel.dim())
            .map(|i| {
                if i % 3 == 0 {
                    rng.normal(0.0, 0.1)
                } else {
                    0.0
                }
            })
            .collect();
        let (q_new, realized) = qsel.project(&delta);
        for (i, (&d, &r)) in delta.iter().zip(&realized).enumerate() {
            match qsel.byte_index(i) {
                Some(pos) => {
                    if d == 0.0 {
                        assert_eq!(q_new[pos], qsel.q0()[pos]);
                        assert_eq!(r, 0.0);
                    }
                }
                // Bias coordinates are f32 words: δ applies verbatim.
                None => assert_eq!(r, d),
            }
        }
        // Projection is idempotent.
        let (q_again, realized_again) = qsel.project(&realized);
        assert_eq!(q_again, q_new);
        assert_eq!(realized_again, realized);
    }

    #[test]
    fn project_saturates_weights_at_the_grid_edge() {
        let (head, qhead) = fixture();
        let sel = ParamSelection::last_layer(&head);
        let qsel = QuantizedSelection::gather(&qhead, &sel);
        let huge = vec![1e6f32; qsel.dim()];
        let (q_new, realized) = qsel.project(&huge);
        assert!(q_new.iter().all(|&q| q == 127), "must clamp, not wrap");
        // Bias coordinates are unbounded f32 storage.
        for (i, &r) in realized.iter().enumerate() {
            if qsel.byte_index(i).is_none() {
                assert_eq!(r, 1e6);
            }
        }
    }

    #[test]
    fn apply_realizes_the_attack_on_the_head() {
        let (head, clean) = fixture();
        let mut qhead = clean.clone();
        let sel = ParamSelection::last_layer(&head);
        let qsel = QuantizedSelection::gather(&qhead, &sel);
        let mut rng = Prng::new(57);
        let delta: Vec<f32> = (0..qsel.dim()).map(|_| rng.normal(0.0, 0.2)).collect();
        let (q_new, realized) = qsel.project(&delta);
        qsel.apply(&mut qhead, &sel, &q_new, &realized);
        // The weight region holds the image; unselected layers untouched.
        let last = qhead.num_layers() - 1;
        assert_eq!(qhead.layer(last).weight_q(), &q_new[..]);
        assert_eq!(qhead.layer(0).weight_q(), clean.layer(0).weight_q());
        // Gathering the attacked head reproduces θ₀ + realized (up to
        // one rounding of the f32 re-addition — `t0 + (dq − t0)` is not
        // guaranteed bit-equal to `dq`).
        let after = QuantizedSelection::gather(&qhead, &sel);
        for ((&t1, &t0), &r) in after.theta0().iter().zip(qsel.theta0()).zip(&realized) {
            let want = t0 + r;
            assert!(
                (t1 - want).abs() <= 2.0 * f32::EPSILON * want.abs().max(1.0),
                "apply drifted: {t1} vs θ₀ + δ = {want}"
            );
        }
        // Int8 inference sees the tampering.
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        assert_ne!(qhead.forward(&x), clean.forward(&x));
    }
}
