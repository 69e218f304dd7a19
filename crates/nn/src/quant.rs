//! Post-training symmetric int8 quantization of the classifier head —
//! the storage model the bit-level fault planner attacks.
//!
//! The attack modifies parameters *as stored in memory*. On an int8
//! inference backend the dominant storage is the weight matrices — one
//! byte per weight on a per-tensor symmetric grid
//! ([`fsa_tensor::quant::QuantParams`]) — while biases stay in higher
//! precision, exactly as deployed int8 runtimes keep them (a bias is one
//! value per output channel; storing it wide costs nothing and preserves
//! per-channel corrections). The matmul runs i8×i8→i32
//! ([`fsa_tensor::quant::gemm_i8_nt`]) with activations quantized
//! dynamically per image; the rescale and bias add happen in `f32`.
//!
//! A [`QuantizedHead`] is the deployed artifact of that backend:
//!
//! * [`QuantizedHead::quantize`] — post-training quantization of a
//!   trained [`FcHead`], per-tensor weight scales calibrated by absmax;
//! * [`QuantizedHead::forward`] — the int8 inference path (quantize
//!   activations → integer matmul → rescale → `f32` bias add → ReLU),
//!   bit-identical at any `FSA_THREADS` because the integer accumulation
//!   is exact, absmax is an exact fold, and the rescale is elementwise;
//! * [`QuantizedHead::dequantized_head`] — the `f32` view of the stored
//!   model (weights exactly on their grids, biases verbatim), the
//!   reference model detectors calibrate on when the arena scores an
//!   int8 campaign;
//! * [`QuantizedHead::set_layer_weight_q`] /
//!   [`QuantizedHead::set_layer_bias`] — the write surface a projected
//!   attack δ (or a simulated bit-flip plan) lands on: weight *bytes*
//!   for the int8 region, `f32` words for the biases.
//!
//! The conv feature extractor stays `f32`: the paper's threat model
//! never modifies it, and the attack consumes its outputs as head-input
//! features either way.

use crate::head::FcHead;
use crate::layer::Layer as _;
use crate::linear::Linear;
use crate::loss::argmax_slice;
use fsa_tensor::quant::{gemm_i8_nt, QuantParams};
use fsa_tensor::Tensor;

/// One fully connected layer with int8 weights (per-tensor scale) and an
/// `f32` bias — the weight-only quantization scheme standard int8
/// runtimes deploy.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLinear {
    /// `[out, in]` row-major weight grid points.
    wq: Vec<i8>,
    /// Weight grid step.
    w_params: QuantParams,
    /// `[out]` bias, kept in `f32`.
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
}

impl QuantizedLinear {
    /// Quantizes a trained layer: the weight gets an absmax per-tensor
    /// scale, the bias is carried over verbatim.
    pub fn quantize(layer: &Linear) -> Self {
        let w = layer.weight().as_slice();
        let w_params = QuantParams::from_absmax(w);
        Self {
            wq: fsa_tensor::quant::quantize_slice(w_params, w),
            w_params,
            bias: layer.bias().as_slice().to_vec(),
            in_features: layer.in_features(),
            out_features: layer.out_features(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The stored weight grid points, row-major `[out, in]`.
    pub fn weight_q(&self) -> &[i8] {
        &self.wq
    }

    /// Weight grid parameters.
    pub fn weight_params(&self) -> QuantParams {
        self.w_params
    }

    /// The `f32` bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Total parameter count (`in·out + out`).
    pub fn param_count(&self) -> usize {
        self.wq.len() + self.bias.len()
    }

    /// Number of int8-stored bytes (the weight region).
    pub fn weight_bytes(&self) -> usize {
        self.wq.len()
    }

    /// The `f32` layer this storage represents: every weight an exact
    /// grid point, the bias verbatim.
    pub fn dequantized(&self) -> Linear {
        Linear::from_params(
            Tensor::from_vec(
                fsa_tensor::quant::dequantize_slice(self.w_params, &self.wq),
                &[self.out_features, self.in_features],
            ),
            Tensor::from_vec(self.bias.clone(), &[self.out_features]),
        )
    }

    /// Quantized batch forward into `out`: `xq` are the quantized
    /// activations, `a_scales[r]` the grid step row `r` was quantized
    /// at, the matmul accumulates in `i32`, and the per-row rescale
    /// `(a_scale · w_scale)` plus the bias add happen in `f32`.
    fn forward_into(&self, xq: &[i8], a_scales: &[f32], batch: usize, out: &mut [f32]) {
        debug_assert_eq!(xq.len(), batch * self.in_features);
        debug_assert_eq!(a_scales.len(), batch);
        debug_assert_eq!(out.len(), batch * self.out_features);
        let mut acc = vec![0i32; batch * self.out_features];
        gemm_i8_nt(
            batch,
            self.in_features,
            self.out_features,
            xq,
            &self.wq,
            &mut acc,
        );
        for ((row_out, row_acc), &a_scale) in out
            .chunks_exact_mut(self.out_features)
            .zip(acc.chunks_exact(self.out_features))
            .zip(a_scales)
        {
            let rescale = a_scale * self.w_params.scale;
            for ((y, &a), &b) in row_out.iter_mut().zip(row_acc).zip(&self.bias) {
                *y = a as f32 * rescale + b;
            }
        }
    }
}

/// An [`FcHead`] after post-training int8 weight quantization: the
/// deployed artifact of the int8 backend, and the byte surface
/// bit-level fault plans rewrite.
///
/// # Examples
///
/// ```
/// use fsa_nn::head::FcHead;
/// use fsa_nn::quant::QuantizedHead;
/// use fsa_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::new(3);
/// let head = FcHead::from_dims(&[8, 16, 4], &mut rng);
/// let qhead = QuantizedHead::quantize(&head);
/// // Same parameter count; the weight region is one byte per entry.
/// assert_eq!(qhead.param_count(), head.param_count());
/// assert_eq!(qhead.weight_bytes(), 8 * 16 + 16 * 4);
/// // The int8 forward approximates the f32 logits.
/// let x = Tensor::randn(&[5, 8], 1.0, &mut rng);
/// assert_eq!(qhead.forward(&x).shape(), head.forward(&x).shape());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedHead {
    layers: Vec<QuantizedLinear>,
}

impl QuantizedHead {
    /// Post-training quantization of a trained head: every layer's
    /// weight moves to its own absmax-calibrated symmetric grid; biases
    /// stay `f32`.
    pub fn quantize(head: &FcHead) -> Self {
        Self {
            layers: (0..head.num_layers())
                .map(|i| QuantizedLinear::quantize(head.layer(i)))
                .collect(),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.layers[0].in_features()
    }

    /// Number of classes (logit width).
    pub fn classes(&self) -> usize {
        self.layers[self.layers.len() - 1].out_features()
    }

    /// Layer `i`'s quantized storage.
    pub fn layer(&self, i: usize) -> &QuantizedLinear {
        &self.layers[i]
    }

    /// Total parameter count (weights + biases).
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Total int8-stored bytes (all weight regions).
    pub fn weight_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.weight_bytes()).sum()
    }

    /// The `f32` head holding exactly the stored model (weights on the
    /// grid, biases verbatim) — what the int8 storage *means*, and the
    /// reference model an arena scoring int8 campaigns binds (so its
    /// clean row, checksums, and parity are calibrated on the deployed
    /// artifact, not the pre-quantization weights).
    pub fn dequantized_head(&self) -> FcHead {
        FcHead::from_linears(self.layers.iter().map(|l| l.dequantized()).collect())
    }

    /// The int8 inference pass: per layer, **each image's** activations
    /// are quantized onto their own dynamic absmax grid, multiplied
    /// through the exact-`i32` NT kernel, rescaled per row, bias-added,
    /// and ReLU'd (no ReLU after the last layer — its outputs are the
    /// logits).
    ///
    /// Per-image activation scales make batch composition irrelevant:
    /// forwarding a batch is bit-identical to forwarding each row alone
    /// and concatenating — the deployment model (one request at a
    /// time), and the property that lets campaign measurements batch
    /// attack and keep images together without coupling their grids.
    ///
    /// Deterministic at any thread count: absmax is an exact fold,
    /// integer accumulation is exact, and the rescale is elementwise.
    ///
    /// `forward` is [`QuantizedHead::forward_from`] at layer 0.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[batch, in_features]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_from(0, x)
    }

    /// The int8 inference pass from layer `start` on, over `h`, the
    /// inputs to layer `start` (the rows of
    /// [`QuantizedHead::activations_before`]). Because each row is
    /// quantized on its own grid, a row's logits do not depend on which
    /// rows share its batch: rows gathered from a pass over a larger
    /// batch give the bits a full [`QuantizedHead::forward`] of those
    /// rows gives.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a layer or `h` is not
    /// `[batch, in_features of layer start]`.
    pub fn forward_from(&self, start: usize, h: &Tensor) -> Tensor {
        assert!(
            start < self.layers.len(),
            "start layer {start} out of range"
        );
        let batch = h.shape()[0];
        let out = self.run_layers(start..self.layers.len(), h);
        Tensor::from_vec(out, &[batch, self.classes()])
    }

    /// The inputs to layer `start` under int8 inference: layers
    /// `0..start` run over `x`, each followed by its ReLU.
    /// `activations_before(0, x)` is `x` itself.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a layer or `x` is not
    /// `[batch, in_features]`.
    pub fn activations_before(&self, start: usize, x: &Tensor) -> Tensor {
        assert!(
            start < self.layers.len(),
            "start layer {start} out of range"
        );
        let out = self.run_layers(0..start, x);
        Tensor::from_vec(out, &[x.shape()[0], self.layers[start].in_features()])
    }

    /// Runs layers `range` over `x`, the inputs to layer `range.start`:
    /// per layer, **each image's** activations are quantized onto their
    /// own dynamic absmax grid, multiplied through the exact-`i32` NT
    /// kernel, rescaled per row, bias-added, and ReLU'd unless the layer
    /// is the head's last.
    fn run_layers(&self, range: std::ops::Range<usize>, x: &Tensor) -> Vec<f32> {
        assert_eq!(x.ndim(), 2, "quantized forward expects [batch, d]");
        let width = self.layers[range.start].in_features();
        assert_eq!(
            x.shape()[1],
            width,
            "quantized forward width mismatch: {} vs {width}",
            x.shape()[1]
        );
        let batch = x.shape()[0];
        let last = self.layers.len() - 1;
        let mut h = x.as_slice().to_vec();
        let mut out = Vec::new();
        let mut xq = Vec::new();
        let mut a_scales = Vec::with_capacity(batch);
        for i in range {
            let layer = &self.layers[i];
            let width = layer.in_features();
            xq.clear();
            xq.resize(h.len(), 0);
            a_scales.clear();
            for (row, qrow) in h.chunks_exact(width).zip(xq.chunks_exact_mut(width)) {
                let p = QuantParams::from_absmax(row);
                a_scales.push(p.scale);
                for (q, &v) in qrow.iter_mut().zip(row) {
                    *q = p.quantize(v);
                }
            }
            out.clear();
            out.resize(batch * layer.out_features(), 0.0);
            layer.forward_into(&xq, &a_scales, batch, &mut out);
            if i < last {
                for v in &mut out {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            std::mem::swap(&mut h, &mut out);
        }
        h
    }

    /// Predicted class per sample under int8 inference.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.shape()[0])
            .map(|r| argmax_slice(logits.row(r)))
            .collect()
    }

    /// Classification accuracy under int8 inference.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size.
    pub fn accuracy(&self, x: &Tensor, labels: &[usize]) -> f32 {
        let preds = self.predict(x);
        assert_eq!(preds.len(), labels.len(), "labels/batch mismatch");
        if preds.is_empty() {
            return 0.0;
        }
        let hits = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        hits as f32 / preds.len() as f32
    }

    /// Overwrites layer `i`'s stored weight bytes (row-major) — how the
    /// int8 region of a projected attack δ, or a simulated bit-flip
    /// plan, lands in storage. The scale is storage metadata and never
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the layer's weight count.
    pub fn set_layer_weight_q(&mut self, i: usize, wq: &[i8]) {
        let layer = &mut self.layers[i];
        assert_eq!(
            wq.len(),
            layer.wq.len(),
            "layer {i} expects {} weight bytes, got {}",
            layer.wq.len(),
            wq.len()
        );
        layer.wq.copy_from_slice(wq);
    }

    /// Overwrites layer `i`'s `f32` bias.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the layer's bias count.
    pub fn set_layer_bias(&mut self, i: usize, bias: &[f32]) {
        let layer = &mut self.layers[i];
        assert_eq!(
            bias.len(),
            layer.bias.len(),
            "layer {i} expects {} bias entries, got {}",
            layer.bias.len(),
            bias.len()
        );
        layer.bias.copy_from_slice(bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::{parallel, Prng};

    fn trained_like_head(rng: &mut Prng) -> FcHead {
        FcHead::from_dims(&[10, 14, 4], rng)
    }

    #[test]
    fn dequantized_weights_lie_on_the_grid_biases_verbatim() {
        let mut rng = Prng::new(21);
        let head = trained_like_head(&mut rng);
        let qhead = QuantizedHead::quantize(&head);
        let deq = qhead.dequantized_head();
        for i in 0..deq.num_layers() {
            let wp = qhead.layer(i).weight_params();
            for (&x, &q) in deq
                .layer(i)
                .weight()
                .as_slice()
                .iter()
                .zip(qhead.layer(i).weight_q())
            {
                assert_eq!(x, wp.dequantize(q), "layer {i} weight off-grid");
            }
            assert_eq!(
                deq.layer(i).bias().as_slice(),
                head.layer(i).bias().as_slice(),
                "layer {i} bias must be carried verbatim"
            );
        }
    }

    #[test]
    fn weight_quantization_error_is_bounded_per_parameter() {
        let mut rng = Prng::new(22);
        let head = trained_like_head(&mut rng);
        let qhead = QuantizedHead::quantize(&head);
        let deq = qhead.dequantized_head();
        for i in 0..head.num_layers() {
            let step = qhead.layer(i).weight_params().scale;
            for (&a, &b) in head
                .layer(i)
                .weight()
                .as_slice()
                .iter()
                .zip(deq.layer(i).weight().as_slice())
            {
                assert!(
                    (a - b).abs() <= step / 2.0 + step * 1e-5,
                    "layer {i}: {} exceeds half a grid step {}",
                    (a - b).abs(),
                    step / 2.0
                );
            }
        }
    }

    #[test]
    fn int8_forward_tracks_f32_logits() {
        let mut rng = Prng::new(23);
        let head = trained_like_head(&mut rng);
        let qhead = QuantizedHead::quantize(&head);
        let x = Tensor::randn(&[16, 10], 1.0, &mut rng);
        let z32 = head.forward(&x);
        let z8 = qhead.forward(&x);
        let mut worst = 0.0f32;
        let mut magnitude = 0.0f32;
        for (&a, &b) in z32.as_slice().iter().zip(z8.as_slice()) {
            worst = worst.max((a - b).abs());
            magnitude = magnitude.max(a.abs());
        }
        // Two quantized layers at 1/127 relative step each: a few percent
        // of the logit magnitude bounds the drift on this scale of head.
        assert!(
            worst <= 0.05 * magnitude.max(1.0),
            "quantized logits drifted {worst} vs magnitude {magnitude}"
        );
    }

    #[test]
    fn batch_forward_equals_per_image_forward() {
        // Per-image activation grids: a row's logits must not depend on
        // what else is in the batch — the deployment model, and what
        // keeps campaign measurements (attack + keep rows batched
        // together) faithful to per-request inference.
        let mut rng = Prng::new(27);
        let head = trained_like_head(&mut rng);
        let qhead = QuantizedHead::quantize(&head);
        let x = Tensor::randn(&[9, 10], 3.0, &mut rng);
        let batched = qhead.forward(&x);
        for r in 0..x.shape()[0] {
            let single = Tensor::from_vec(x.row(r).to_vec(), &[1, 10]);
            let alone = qhead.forward(&single);
            assert_eq!(
                batched.row(r),
                alone.as_slice(),
                "row {r} changed with batch composition"
            );
        }
    }

    #[test]
    fn forward_from_finishes_the_forward_at_every_layer() {
        let mut rng = Prng::new(29);
        let qhead = QuantizedHead::quantize(&FcHead::from_dims(&[10, 14, 12, 4], &mut rng));
        let x = Tensor::randn(&[9, 10], 3.0, &mut rng);
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let full = bits(&qhead.forward(&x));
        assert_eq!(bits(&qhead.activations_before(0, &x)), bits(&x));
        for start in 0..qhead.num_layers() {
            let h = qhead.activations_before(start, &x);
            assert_eq!(bits(&qhead.forward_from(start, &h)), full, "start {start}");
        }
    }

    /// A 64→64→64 head over 643 rows: each layer's `gemm_i8_nt` clears
    /// its work floor eight times over, so 2, 3 and 8 threads split the
    /// rows, unevenly.
    #[test]
    fn forward_is_bit_identical_across_thread_counts() {
        let guard = parallel::lock_threads();
        let mut rng = Prng::new(24);
        let qhead = QuantizedHead::quantize(&FcHead::from_dims(&[64, 64, 64], &mut rng));
        let x = Tensor::randn(&[643, 64], 1.0, &mut rng);
        guard.set(1);
        let reference = qhead.forward(&x);
        for threads in [2, 3, 8] {
            guard.set(threads);
            for i in 0..qhead.num_layers() {
                let (k, n) = (qhead.layer(i).in_features(), qhead.layer(i).out_features());
                assert_eq!(
                    parallel::blocks(643, fsa_tensor::quant::gemm_i8_nt_min_rows(k, n)),
                    threads,
                    "{threads} threads must split layer {i}'s rows"
                );
            }
            assert_eq!(qhead.forward(&x), reference, "{threads} threads diverged");
        }
    }

    #[test]
    fn storage_rewrites_change_inference() {
        let mut rng = Prng::new(25);
        let head = trained_like_head(&mut rng);
        let mut qhead = QuantizedHead::quantize(&head);
        let clean = qhead.clone();
        let last = qhead.num_layers() - 1;
        let x = Tensor::randn(&[4, 10], 1.0, &mut rng);
        let before = qhead.forward(&x);

        // A weight byte rewrite is visible...
        let mut wq = qhead.layer(last).weight_q().to_vec();
        wq[0] = wq[0].wrapping_add(64);
        qhead.set_layer_weight_q(last, &wq);
        assert_ne!(qhead.forward(&x), before, "weight byte rewrite invisible");
        qhead = clean.clone();

        // ...and so is a bias word rewrite.
        let mut bias = qhead.layer(last).bias().to_vec();
        bias[0] += 3.0;
        qhead.set_layer_bias(last, &bias);
        assert_ne!(qhead.forward(&x), before, "bias rewrite invisible");
        qhead.set_layer_bias(last, clean.layer(last).bias());
        assert_eq!(qhead.forward(&x), before);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn forward_validates_width() {
        let mut rng = Prng::new(26);
        let qhead = QuantizedHead::quantize(&trained_like_head(&mut rng));
        let _ = qhead.forward(&Tensor::zeros(&[2, 11]));
    }
}
