//! Sequential network container.

use crate::layer::Layer;
use crate::loss::argmax_slice;
use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use fsa_tensor::{parallel, Tensor};

/// Minimum scalar outputs per image (summed over layers) before
/// inference dispatches batch-level workers; below this the whole stack
/// runs inline and only row-block kernel parallelism applies. Sized so
/// a worker's work dwarfs its ~10 µs spawn cost even at one flop per
/// scalar.
const PAR_MIN_SCALARS: usize = 4096;

/// Images per locality chunk when a wide stack runs serially: chaining
/// a few images at a time through all layers keeps intermediate
/// activations cache-resident instead of streaming the whole batch's
/// megabytes layer by layer (measured ~10% on the C&W MNIST extractor).
const LOCALITY_CHUNK: usize = 4;

/// A feed-forward stack of [`Layer`]s applied in order.
///
/// Consecutive layers must agree on feature widths; this is validated as
/// layers are appended so misconfigured architectures fail at construction,
/// not mid-inference.
#[derive(Debug, Default)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer's input width does not match the previous
    /// layer's output width.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        if let Some(prev) = self.layers.last() {
            assert_eq!(
                prev.out_features(),
                layer.in_features(),
                "layer {} ({}) expects {} features but previous layer ({}) produces {}",
                self.layers.len(),
                layer.name(),
                layer.in_features(),
                prev.name(),
                prev.out_features()
            );
        }
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to layer `i`.
    pub fn layer(&self, i: usize) -> &dyn Layer {
        self.layers[i].as_ref()
    }

    /// Input feature width (0 for an empty network).
    pub fn in_features(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_features())
    }

    /// Output feature width (0 for an empty network).
    pub fn out_features(&self) -> usize {
        self.layers.last().map_or(0, |l| l.out_features())
    }

    /// Forward pass (inference / feature extraction).
    ///
    /// Batches are dispatched as contiguous image blocks
    /// ([`parallel::par_row_blocks`]): when per-image work is large
    /// enough, each block runs the whole layer stack on its own scoped
    /// worker (amortizing every layer, not just one kernel), under its
    /// share of the thread budget. Per-image arithmetic is identical
    /// under every partition, so the output is bit-identical for any
    /// `FSA_THREADS`.
    pub fn forward_infer(&self, x: &Tensor) -> Tensor {
        if self.layers.is_empty() || x.ndim() != 2 {
            return self.forward_infer_serial(x);
        }
        let batch = x.shape()[0];
        let work_per_image: usize = self.layers.iter().map(|l| l.out_features()).sum();
        if work_per_image < PAR_MIN_SCALARS {
            return self.forward_infer_serial(x);
        }
        let (in_w, out_w) = (x.shape()[1], self.out_features());
        let mut y = Tensor::zeros(&[batch, out_w]);
        parallel::par_row_blocks(y.as_mut_slice(), out_w, 1, |first, block| {
            // Within a worker (or the whole batch when serial), images
            // chain through all layers a locality chunk at a time.
            for (ci, chunk) in block.chunks_mut(LOCALITY_CHUNK * out_w).enumerate() {
                let rows = chunk.len() / out_w;
                let mut sub = Tensor::zeros(&[rows, in_w]);
                for i in 0..rows {
                    sub.row_mut(i)
                        .copy_from_slice(x.row(first + ci * LOCALITY_CHUNK + i));
                }
                chunk.copy_from_slice(self.forward_infer_serial(&sub).as_slice());
            }
        });
        y
    }

    /// The inline layer chain every dispatched block bottoms out in.
    fn forward_infer_serial(&self, x: &Tensor) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_infer(&h);
        }
        h
    }

    /// Visits every parameter tensor in layer order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Predicted class per sample (argmax of the logits).
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward_infer(x);
        (0..logits.shape()[0])
            .map(|r| argmax_slice(logits.row(r)))
            .collect()
    }

    /// Serializes all parameters (in visit order) into `enc`.
    pub fn encode_params(&mut self, enc: &mut Encoder) {
        let mut count = 0u64;
        self.visit_params(&mut |_| count += 1);
        enc.put_u64(count);
        self.visit_params(&mut |p| enc.put_tensor(p));
    }

    /// Restores parameters written by [`Network::encode_params`] into an
    /// identically-constructed network.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stream is malformed or the parameter
    /// shapes do not match this architecture.
    pub fn decode_params(&mut self, dec: &mut Decoder<'_>) -> Result<(), DecodeError> {
        let n = dec.read_u64()? as usize;
        // A forged count must not size the allocation: every encoded
        // tensor takes at least 16 bytes (tag, rank, data length).
        let mut incoming = Vec::with_capacity(n.min(dec.remaining() / 16));
        for _ in 0..n {
            incoming.push(dec.read_tensor()?);
        }
        let mut idx = 0usize;
        let mut err: Option<DecodeError> = None;
        self.visit_params(&mut |p| {
            if err.is_some() {
                return;
            }
            match incoming.get(idx) {
                Some(t) if t.shape() == p.shape() => {
                    p.as_mut_slice().copy_from_slice(t.as_slice());
                }
                Some(t) => {
                    err = Some(DecodeError::new(format!(
                        "parameter {idx} shape mismatch: file {:?} vs model {:?}",
                        t.shape(),
                        p.shape()
                    )));
                }
                None => {
                    err = Some(DecodeError::new(format!(
                        "file has {n} parameters but model has more (at index {idx})"
                    )));
                }
            }
            idx += 1;
        });
        if let Some(e) = err {
            return Err(e);
        }
        if idx != n {
            return Err(DecodeError::new(format!(
                "file has {n} parameters but model consumed {idx}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use fsa_tensor::Prng;

    fn small_net(rng: &mut Prng) -> Network {
        let mut net = Network::new();
        net.push(Box::new(Linear::new_random(4, 8, rng)));
        net.push(Box::new(Relu::new(8)));
        net.push(Box::new(Linear::new_random(8, 3, rng)));
        net
    }

    #[test]
    fn widths_are_validated() {
        let mut rng = Prng::new(1);
        let net = small_net(&mut rng);
        assert_eq!(net.in_features(), 4);
        assert_eq!(net.out_features(), 3);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn mismatched_widths_rejected() {
        let mut rng = Prng::new(2);
        let mut net = Network::new();
        net.push(Box::new(Linear::new_random(4, 8, &mut rng)));
        net.push(Box::new(Linear::new_random(9, 3, &mut rng)));
    }

    #[test]
    fn batch_dispatched_infer_is_bit_identical_to_serial() {
        use crate::activation::Relu as ReluLayer;
        use crate::conv::{Conv2d, VolumeDims};
        let mut rng = Prng::new(11);
        let mut net = Network::new();
        let c1 = Conv2d::new_random(VolumeDims::new(1, 16, 16), 16, 3, &mut rng);
        let d1 = c1.out_dims();
        net.push(Box::new(c1));
        net.push(Box::new(ReluLayer::new(d1.features())));
        net.push(Box::new(Conv2d::new_random(d1, 16, 3, &mut rng)));
        // Per-image work crosses PAR_MIN_SCALARS, so budgets > 1 take the
        // batch-dispatched path; outputs must not depend on the partition.
        let x = Tensor::randn(&[6, 256], 1.0, &mut rng);
        let base = fsa_tensor::parallel::with_budget(1, || net.forward_infer(&x));
        for budget in [2, 3, 8] {
            let got = fsa_tensor::parallel::with_budget(budget, || net.forward_infer(&x));
            assert_eq!(base, got, "budget {budget} changed inference bits");
        }
    }

    #[test]
    fn predict_returns_argmax() {
        let mut rng = Prng::new(4);
        let net = small_net(&mut rng);
        let x = Tensor::randn(&[6, 4], 1.0, &mut rng);
        let logits = net.forward_infer(&x);
        let preds = net.predict(&x);
        for (r, &p) in preds.iter().enumerate() {
            let row = logits.row(r);
            assert!(row.iter().all(|&v| v <= row[p]));
        }
    }

    #[test]
    fn params_roundtrip_through_encoder() {
        let mut rng = Prng::new(5);
        let mut net = small_net(&mut rng);
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let before = net.forward_infer(&x);

        let mut enc = Encoder::new();
        net.encode_params(&mut enc);
        let bytes = enc.into_bytes();

        // A freshly initialized net with the same shapes but other values.
        let mut rng2 = Prng::new(999);
        let mut net2 = small_net(&mut rng2);
        assert_ne!(net2.forward_infer(&x), before);
        net2.decode_params(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(net2.forward_infer(&x), before);
    }

    #[test]
    fn decode_rejects_shape_mismatch() {
        let mut rng = Prng::new(6);
        let mut net = small_net(&mut rng);
        let mut enc = Encoder::new();
        net.encode_params(&mut enc);
        let bytes = enc.into_bytes();

        let mut other = Network::new();
        other.push(Box::new(Linear::new_random(4, 9, &mut rng)));
        assert!(other.decode_params(&mut Decoder::new(&bytes)).is_err());
    }
}
