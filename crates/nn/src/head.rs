//! The fully connected classifier head perturbed by the attack.
//!
//! The paper's experiments modify the FC layers of a C&W-style CNN
//! (Sec. 5.1): `1024 → 200 → 200 → 10` for MNIST. Because the conv stack is
//! never modified, the attack only ever needs this head — and when it
//! modifies a *suffix* of the head (e.g. only the last FC layer, the
//! paper's main configuration), forward/backward can start at the first
//! modified layer with cached activations. [`FcHead::forward_from`] and
//! [`FcHead::backward_rows`] implement exactly that; this is an exact
//! restructuring, not an approximation, and it is what makes the paper's
//! `R = 1000` sweeps tractable on one CPU core.

use crate::activation::Relu;
use crate::linear::Linear;
use crate::loss::argmax_slice;
use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use fsa_tensor::linalg::{avx512_available, gemm, gemm_tn, KC};
use fsa_tensor::{Prng, Tensor};

/// A stack of fully connected layers with ReLU between them (none after the
/// last layer, whose outputs are the logits `Z`).
///
/// # Examples
///
/// ```
/// use fsa_nn::head::FcHead;
/// use fsa_tensor::{Prng, Tensor};
///
/// let mut rng = Prng::new(0);
/// // The paper's MNIST head: 1024 -> 200 -> 200 -> 10.
/// let head = FcHead::new_random(1024, 200, 200, 10, &mut rng);
/// assert_eq!(head.layer_param_count(0), 205_000);
/// assert_eq!(head.layer_param_count(1), 40_200);
/// assert_eq!(head.layer_param_count(2), 2_010);
/// ```
#[derive(Debug, Clone)]
pub struct FcHead {
    layers: Vec<Linear>,
}

/// Reusable buffers for the truncated head passes.
///
/// The ADMM inner loop runs one forward and one backward per iteration
/// over fixed shapes; holding a `HeadBuffers` across iterations makes
/// those passes allocation-free after the first
/// ([`FcHead::forward_from_caching`], then [`FcHead::backward_rows`] or
/// [`FcHead::backward_from_cache`]).
/// Everything inside grows on demand and is reused when shapes repeat.
#[derive(Debug, Clone, Default)]
pub struct HeadBuffers {
    /// `inputs[rel]` = post-ReLU input to layer `start + rel` (`rel ≥ 1`;
    /// the input to the first layer is the caller's `acts`).
    inputs: Vec<Vec<f32>>,
    /// `preacts[rel]` = pre-activation of layer `start + rel` for
    /// `rel < nrel − 1` (the final pre-activation *is* [`Self::logits`]).
    preacts: Vec<Vec<f32>>,
    /// Logits of the last cached forward pass.
    logits: Tensor,
    /// Upstream gradient ping buffer.
    dz: Vec<f32>,
    /// Downstream gradient pong buffer.
    dx: Vec<f32>,
    /// Per-layer `(dW, db)` filled by the backward pass.
    grads: Vec<(Tensor, Tensor)>,
    /// Ascending batch rows the backward pass visits below the top
    /// layer (see [`FcHead::backward_rows`]).
    rows: Vec<usize>,
    /// A `+0.0` `dW` tile for the top layer's second and later [`KC`]
    /// tiles in the scalar entry loop (the register build keeps its tile
    /// in registers).
    tile: Vec<f32>,
    /// Those rows of the current layer's input, gathered.
    gathered: Vec<f32>,
    /// `(start, batch)` of the cached forward pass, if any.
    cached: Option<(usize, usize)>,
}

impl HeadBuffers {
    /// Creates an empty buffer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Logits of the most recent [`FcHead::forward_from_caching`].
    pub fn logits(&self) -> &Tensor {
        &self.logits
    }

    /// Per-layer gradients of the most recent backward pass
    /// ([`FcHead::backward_rows`] or [`FcHead::backward_from_cache`]).
    pub fn grads(&self) -> &[(Tensor, Tensor)] {
        &self.grads
    }

    /// Outputs of the cached forward pass, one slice per layer `start..`:
    /// post-ReLU for hidden layers, the logits for the last.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass is cached.
    pub(crate) fn layer_outputs(&self) -> impl Iterator<Item = &[f32]> {
        assert!(self.cached.is_some(), "no cached forward pass to read");
        self.inputs[1..]
            .iter()
            .map(Vec::as_slice)
            .chain(std::iter::once(self.logits.as_slice()))
    }
}

impl FcHead {
    /// Creates the paper's three-FC-layer head with He initialization.
    pub fn new_random(d_in: usize, h1: usize, h2: usize, classes: usize, rng: &mut Prng) -> Self {
        Self::from_dims(&[d_in, h1, h2, classes], rng)
    }

    /// Creates a head from a chain of widths (`dims.len() - 1` layers).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn from_dims(dims: &[usize], rng: &mut Prng) -> Self {
        assert!(
            dims.len() >= 2,
            "head needs at least one layer (two widths)"
        );
        let layers = dims
            .windows(2)
            .map(|w| Linear::new_random(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    /// Creates a head from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not chain or the list is empty.
    pub fn from_linears(layers: Vec<Linear>) -> Self {
        assert!(!layers.is_empty(), "head needs at least one layer");
        use crate::layer::Layer as _;
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].out_features(),
                pair[1].in_features(),
                "head layer widths do not chain"
            );
        }
        Self { layers }
    }

    /// Number of FC layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        use crate::layer::Layer as _;
        self.layers[0].in_features()
    }

    /// Number of classes (logit width).
    pub fn classes(&self) -> usize {
        use crate::layer::Layer as _;
        self.layers[self.layers.len() - 1].out_features()
    }

    /// Immutable access to layer `i`.
    pub fn layer(&self, i: usize) -> &Linear {
        &self.layers[i]
    }

    /// Mutable access to layer `i`.
    pub fn layer_mut(&mut self, i: usize) -> &mut Linear {
        &mut self.layers[i]
    }

    /// Parameter count of layer `i` (`in·out + out`).
    pub fn layer_param_count(&self, i: usize) -> usize {
        use crate::layer::Layer as _;
        self.layers[i].param_count()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        (0..self.num_layers())
            .map(|i| self.layer_param_count(i))
            .sum()
    }

    /// Full forward pass from input features to logits.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_from(0, x)
    }

    /// Forward pass starting at layer `start`, where `acts` are the
    /// *inputs* to that layer (i.e. the activations cached by
    /// [`FcHead::activations_before`]).
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range or `acts` has the wrong width.
    pub fn forward_from(&self, start: usize, acts: &Tensor) -> Tensor {
        assert!(
            start < self.layers.len(),
            "start layer {start} out of range"
        );
        self.run_layers(start..self.layers.len(), acts)
    }

    /// Computes the inputs to layer `start` for a batch of head inputs
    /// (applying all earlier layers and their ReLUs).
    ///
    /// `activations_before(0, x)` is `x` itself. This is the bridge from
    /// the batched conv feature-extraction pipeline into the ADMM loop
    /// (the solver caches its result for every iteration).
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range.
    pub fn activations_before(&self, start: usize, x: &Tensor) -> Tensor {
        assert!(
            start < self.layers.len(),
            "start layer {start} out of range"
        );
        self.run_layers(0..start, x)
    }

    /// Runs layers `range` over `x`, the inputs to layer `range.start`,
    /// with a ReLU after every layer but the head's last; an empty range
    /// returns `x` itself.
    fn run_layers(&self, range: std::ops::Range<usize>, x: &Tensor) -> Tensor {
        use crate::layer::Layer as _;
        let batch = x.shape()[0];
        let last = self.layers.len() - 1;
        let mut h: Option<Tensor> = None;
        for i in range {
            let layer = &self.layers[i];
            let src = h.as_ref().unwrap_or(x);
            assert_eq!(
                src.shape()[1],
                layer.in_features(),
                "head forward width mismatch: {} vs {}",
                src.shape()[1],
                layer.in_features()
            );
            let mut y = Tensor::zeros(&[batch, layer.out_features()]);
            layer.forward_into(src.as_slice(), batch, y.as_mut_slice());
            if i < last {
                Relu::apply_slice(y.as_mut_slice());
            }
            h = Some(y);
        }
        h.unwrap_or_else(|| x.clone())
    }

    /// Predicted class per sample.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.shape()[0])
            .map(|r| argmax_slice(logits.row(r)))
            .collect()
    }

    /// Classification accuracy against `labels`.
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

    /// Forward pass from layer `start` that caches per-layer inputs and
    /// pre-activations in `bufs` for a following
    /// [`FcHead::backward_from_cache`], and reuses all of `bufs`' storage
    /// across calls (allocation-free once shapes repeat).
    ///
    /// Returns the logits held in `bufs`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is out of range or `acts` has the wrong width.
    pub fn forward_from_caching<'a>(
        &self,
        start: usize,
        acts: &Tensor,
        bufs: &'a mut HeadBuffers,
    ) -> &'a Tensor {
        use crate::layer::Layer as _;
        assert!(
            start < self.layers.len(),
            "start layer {start} out of range"
        );
        let batch = acts.shape()[0];
        assert_eq!(
            acts.shape()[1],
            self.layers[start].in_features(),
            "head forward width mismatch"
        );
        let last = self.layers.len() - 1;
        let nrel = self.layers.len() - start;
        bufs.preacts.resize_with(nrel - 1, Vec::new);
        bufs.inputs.resize_with(nrel, Vec::new);
        bufs.cached = None;

        for rel in 0..nrel {
            let i = start + rel;
            let layer = &self.layers[i];
            let x: &[f32] = if rel == 0 {
                acts.as_slice()
            } else {
                &bufs.inputs[rel]
            };
            if i < last {
                let z = &mut bufs.preacts[rel];
                z.clear();
                z.resize(batch * layer.out_features(), 0.0);
                layer.forward_into(x, batch, z);
                let inp = &mut bufs.inputs[rel + 1];
                inp.clear();
                inp.extend(z.iter().map(|&v| if v < 0.0 { 0.0 } else { v }));
            } else {
                let o = layer.out_features();
                bufs.logits.reuse_as(&[batch, o]);
                layer.forward_into(x, batch, bufs.logits.as_mut_slice());
            }
        }
        bufs.cached = Some((start, batch));
        &bufs.logits
    }

    /// Backward pass using the activations cached by
    /// [`FcHead::forward_from_caching`] over every batch row; fills
    /// `bufs`' gradient pairs (entry `rel` is layer `start + rel`)
    /// without allocating once shapes repeat.
    ///
    /// This is [`FcHead::backward_rows`] for a dense `g`: every row is
    /// visited and each layer's `dW` is one `gemm_tn` per [`KC`] tile of
    /// the batch, with `g` itself as the top layer's `dZ`.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass with the same `start`/batch is cached or
    /// `g` is not `[batch, classes]`.
    pub fn backward_from_cache<'a>(
        &self,
        start: usize,
        acts: &Tensor,
        g: &Tensor,
        bufs: &'a mut HeadBuffers,
    ) -> &'a [(Tensor, Tensor)] {
        self.backward(start, acts, g, None, bufs)
    }

    /// [`FcHead::backward_from_cache`] for an upstream gradient whose
    /// caller has listed the rows to visit: `rows` must hold, in
    /// ascending order, every batch row of `g` with an entry `!= 0.0`
    /// and every row whose cached logits hold no finite value. For the
    /// paper's hinge that is the images whose margin is not yet met,
    /// often a small share of `R`, and the hinge lists them as it goes
    /// (`fsa_attack::objective::HingeEval::rows`), so `g` is never
    /// rescanned here.
    ///
    /// The top layer, whose upstream gradient is `g` itself, visits only
    /// the listed rows, reading the input rows in place; each entry it
    /// adds puts `g[r, j]·x_r` into row `j` of `dW` and `g[r, j]` into
    /// `db[j]`. Its scalar loop adds only a row's nonzero entries (an
    /// active hinge row has two: `+cᵢ` at the runner-up, `−cᵢ` at the
    /// enforced class), or every entry of a row whose logits prove nothing
    /// finite. On a CPU with AVX-512F and up to `WIDE_MAX_CLASSES` (8)
    /// classes, a register build adds every entry of every listed row
    /// instead, dense over classes and free of branches: a block of `dW`
    /// stays in `__m512` accumulators across all the listed rows of a
    /// [`KC`] tile, so no entry is loaded or stored per row.
    ///
    /// Below the top layer, the listed rows, plus any row a hidden layer's
    /// cached output cannot prove finite, are gathered from the layer
    /// input, `g` and the cached pre-activations and run through the same
    /// `gemm_tn`/`gemm`/ReLU-mask kernels as a compact batch.
    ///
    /// The result is bit-identical to the dense pass over all rows:
    ///
    /// - **Zero terms add nothing.** A row left off the list, or a zero
    ///   entry of a listed row, reaches every `dW`/`db` accumulator as a
    ///   `(±0)·x = ±0` (or `±0`) term, and every accumulator starts at
    ///   `+0.0`. Adding `±0` to a value that is not `−0.0` returns it
    ///   unchanged, and a sum that starts at `+0.0` only becomes `−0.0`
    ///   by adding `−0.0` to `−0.0`, so it never does. Below the top
    ///   layer a skipped row's upstream gradient is `(±0)·W` (then
    ///   masked), which is `+0.0` again. Read backwards, the same argument
    ///   lets the register build add the zero entries the scalar loop
    ///   skips: on a row whose logits prove `x_r` finite (below), each is
    ///   a `±0` term into a sum that is never `−0.0`; on an unproven row
    ///   both builds add every entry.
    /// - **Tiles line up.** `gemm_tn` sums each [`KC`] tile of the batch
    ///   from `+0.0` in ascending row order and adds it into `dW` at
    ///   write-back. The compact rows are therefore issued as one
    ///   `beta = 1` call per original `KC` tile, into a zeroed `dW`; a
    ///   tile with no visited rows adds `+0.0` in the dense pass and is
    ///   skipped. The top layer's entries likewise accumulate per `KC`
    ///   tile, in ascending row order, with the kernel's `acc + g·x` step:
    ///   the first nonempty tile straight into the zeroed `dW` (where
    ///   `+0.0 + acc` is `acc`), each later one into a `+0.0` tile added
    ///   at write-back. The register build's lane `t` of accumulator
    ///   `(j, panel)` is `dW[j, p0 + t]`'s own such chain, from `+0.0`,
    ///   added into `dW` at write-back, the first tile included. `db`
    ///   adds the same entries in ascending row order, as the dense column
    ///   sums do.
    /// - **Non-finite values.** The argument needs every skipped term
    ///   finite, since `0·NaN` and `0·Inf` are NaN. Checking the inputs
    ///   directly costs about as much as the skip saves, so the cached
    ///   outputs stand in as proofs. A layer output element is a sum that
    ///   includes `x_p·W_jp` for every input `x_p` and every weight of
    ///   row `j`, and a non-finite term never sums back to finite. So one
    ///   finite element in a row's output of layer `start + rel` (its
    ///   `preacts[rel]` row, or its logits row) proves that row's input to
    ///   the layer finite, and one fully finite output row proves the
    ///   layer's weights finite. The list holds every row whose logits
    ///   prove nothing, and at the top layer such a row adds every
    ///   entry. Below it, a row keeps its place unless every hidden layer
    ///   proves its input finite; if a layer above `start` (where `dX` is
    ///   formed from `W`) has no fully finite output row, every row is
    ///   visited.
    ///
    /// # Panics
    ///
    /// Panics if no forward pass with the same `start`/batch is cached,
    /// `g` is not `[batch, classes]`, or `rows` is not ascending below
    /// `batch`.
    pub fn backward_rows<'a>(
        &self,
        start: usize,
        acts: &Tensor,
        g: &Tensor,
        rows: &[usize],
        bufs: &'a mut HeadBuffers,
    ) -> &'a [(Tensor, Tensor)] {
        self.backward(start, acts, g, Some(rows), bufs)
    }

    /// The one backward behind [`FcHead::backward_from_cache`]
    /// (`listed = None`: every row) and [`FcHead::backward_rows`].
    fn backward<'a>(
        &self,
        start: usize,
        acts: &Tensor,
        g: &Tensor,
        listed: Option<&[usize]>,
        bufs: &'a mut HeadBuffers,
    ) -> &'a [(Tensor, Tensor)] {
        use crate::layer::Layer as _;
        let batch = acts.shape()[0];
        let classes = self.classes();
        assert_eq!(
            bufs.cached,
            Some((start, batch)),
            "backward_from_cache requires a prior forward_from_caching with the same start/batch"
        );
        assert_eq!(
            g.shape(),
            &[batch, classes],
            "upstream gradient must be [batch, classes]"
        );

        let nrel = self.layers.len() - start;
        bufs.grads
            .resize_with(nrel, || (Tensor::zeros(&[0]), Tensor::zeros(&[0])));
        let top = nrel - 1;
        if let Some(rows) = listed {
            assert!(
                rows.windows(2).all(|w| w[0] < w[1]) && rows.last().is_none_or(|&r| r < batch),
                "backward rows must ascend below the batch size"
            );
            let x = if top == 0 {
                acts.as_slice()
            } else {
                &bufs.inputs[top]
            };
            let (dw, db) = &mut bufs.grads[top];
            dw.reuse_as(&[classes, self.layers[self.layers.len() - 1].in_features()]);
            dw.as_mut_slice().fill(0.0);
            db.reuse_as(&[classes]);
            db.as_mut_slice().fill(0.0);
            listed_top(
                g.as_slice(),
                bufs.logits.as_slice(),
                x,
                rows,
                dw.as_mut_slice(),
                db.as_mut_slice(),
                &mut bufs.tile,
                classes <= WIDE_MAX_CLASSES && avx512_available(),
            );
            if top == 0 {
                return &bufs.grads;
            }
        }
        // The rows the layers below the top visit, and the top layer's
        // `dZ` over them: `g` itself when that is every row.
        let every = match listed {
            None => true,
            Some(rows) => !self.hidden_rows(start, rows, bufs),
        };
        if every {
            bufs.rows.clear();
            bufs.rows.extend(0..batch);
        } else {
            gather_rows(g.as_slice(), classes, &bufs.rows, &mut bufs.dz);
        }

        for rel in (0..nrel).rev() {
            let abs = start + rel;
            let layer = &self.layers[abs];
            let (o, i) = (layer.out_features(), layer.in_features());
            let dz: &[f32] = if rel == top && every {
                g.as_slice()
            } else {
                &bufs.dz
            };
            if rel < top || listed.is_none() {
                let mut x: &[f32] = if rel == 0 {
                    acts.as_slice()
                } else {
                    &bufs.inputs[rel]
                };
                if !every {
                    gather_rows(x, i, &bufs.rows, &mut bufs.gathered);
                    x = &bufs.gathered;
                }
                let (dw, db) = &mut bufs.grads[rel];
                dw.reuse_as(&[o, i]);
                dw.as_mut_slice().fill(0.0);
                // dW = dZᵀ (o×N) · X (N×i), one call per KC tile of the batch.
                for kb in (0..batch).step_by(KC) {
                    let lo = bufs.rows.partition_point(|&r| r < kb);
                    let hi = bufs.rows.partition_point(|&r| r < kb + KC);
                    if lo == hi {
                        continue;
                    }
                    gemm_tn(
                        o,
                        hi - lo,
                        i,
                        &dz[lo * o..hi * o],
                        &x[lo * i..hi * i],
                        dw.as_mut_slice(),
                        1.0,
                        1.0,
                    );
                }
                // db = column sums of dZ.
                db.reuse_as(&[o]);
                db.as_mut_slice().fill(0.0);
                for row in dz.chunks_exact(o) {
                    for (b, &v) in db.as_mut_slice().iter_mut().zip(row) {
                        *b += v;
                    }
                }
            }
            if rel > 0 {
                // dX = dZ (N×o) · W (o×i), then mask by previous ReLU.
                let n = bufs.rows.len();
                bufs.dx.clear();
                bufs.dx.resize(n * i, 0.0);
                gemm(
                    n,
                    o,
                    i,
                    dz,
                    layer.weight().as_slice(),
                    &mut bufs.dx,
                    1.0,
                    0.0,
                );
                let zprev = &bufs.preacts[rel - 1];
                for (gr, &r) in bufs.dx.chunks_exact_mut(i).zip(&bufs.rows) {
                    Relu::mask_slice(gr, &zprev[r * i..(r + 1) * i]);
                }
                std::mem::swap(&mut bufs.dz, &mut bufs.dx);
            }
        }
        &bufs.grads
    }

    /// The rows the hidden layers of [`FcHead::backward_rows`] visit:
    /// fills `bufs.rows` with the `listed` rows plus every row a hidden
    /// layer's cached output cannot prove finite, in ascending order.
    /// Returns `false` when that is every row, or when a layer above
    /// `start` has unproven weights, so that every row must be visited.
    fn hidden_rows(&self, start: usize, listed: &[usize], bufs: &mut HeadBuffers) -> bool {
        use crate::layer::Layer as _;
        let (_, batch) = bufs.cached.expect("a cached forward pass");
        let nrel = self.layers.len() - start;
        // Output of layer `start + rel` and its width.
        let output = |rel: usize| -> (&[f32], usize) {
            if rel + 1 < nrel {
                (&bufs.preacts[rel], self.layers[start + rel].out_features())
            } else {
                (bufs.logits.as_slice(), self.classes())
            }
        };
        // Whether a hidden layer's output row `r` proves nothing finite.
        let hidden_unproven = |r: usize| {
            (0..nrel - 1).any(|rel| {
                let (y, w) = output(rel);
                !y[r * w..(r + 1) * w].iter().any(|v| v.is_finite())
            })
        };
        let weights_proven = || {
            (1..nrel).all(|rel| {
                let (y, w) = output(rel);
                y.chunks_exact(w)
                    .any(|row| row.iter().all(|v| v.is_finite()))
            })
        };
        let mut rows = std::mem::take(&mut bufs.rows);
        rows.clear();
        let mut next = listed.iter().copied().peekable();
        for r in 0..batch {
            if next.next_if_eq(&r).is_some() || hidden_unproven(r) {
                rows.push(r);
            }
        }
        let compact = rows.len() < batch && weights_proven();
        bufs.rows = rows;
        compact
    }
    /// Flattened parameters of layer `i`: weights row-major, then bias.
    pub fn layer_flat_params(&self, i: usize) -> Vec<f32> {
        let layer = &self.layers[i];
        let mut out = Vec::with_capacity(self.layer_param_count(i));
        out.extend_from_slice(layer.weight().as_slice());
        out.extend_from_slice(layer.bias().as_slice());
        out
    }

    /// Overwrites layer `i`'s parameters from a flat slice (weights
    /// row-major, then bias) — the attack applies `θ + δ` through this.
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the layer's parameter count.
    pub fn set_layer_flat_params(&mut self, i: usize, flat: &[f32]) {
        let count = self.layer_param_count(i);
        assert_eq!(
            flat.len(),
            count,
            "layer {i} expects {count} params, got {}",
            flat.len()
        );
        let layer = &mut self.layers[i];
        let w = layer.weight_mut().numel();
        layer
            .weight_mut()
            .as_mut_slice()
            .copy_from_slice(&flat[..w]);
        layer.bias_mut().as_mut_slice().copy_from_slice(&flat[w..]);
    }

    /// Serializes all layer parameters.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.layers.len() as u64);
        for layer in &self.layers {
            enc.put_tensor(layer.weight());
            enc.put_tensor(layer.bias());
        }
    }

    /// Deserializes a head written by [`FcHead::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on malformed input.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.read_u64()? as usize;
        if n == 0 || n > 64 {
            return Err(DecodeError::new(format!("absurd head layer count {n}")));
        }
        let mut layers = Vec::with_capacity(n);
        let mut prev_out = None;
        for _ in 0..n {
            let w = dec.read_tensor()?;
            let b = dec.read_tensor()?;
            // Everything `from_params`/`from_linears` would assert, as
            // errors: decoded bytes must never panic the decoder.
            if w.ndim() != 2
                || b.numel() != w.shape()[0]
                || prev_out.is_some_and(|o| o != w.shape()[1])
            {
                return Err(DecodeError::new("head layer shapes inconsistent"));
            }
            prev_out = Some(w.shape()[0]);
            layers.push(Linear::from_params(w, b));
        }
        Ok(Self::from_linears(layers))
    }
}

/// Most classes for which [`FcHead::backward_rows`] runs the top layer's
/// register build ([`zmm`]). That build adds every entry of a listed row,
/// `classes` products per input where the scalar loop adds two, so its
/// edge shrinks as classes grow. In the `attack` bench's
/// `backward_rows_260x{32,200}_to_{4,6,8,10}_hinge80` rows (one thread,
/// 2-core AVX-512 host, medians of nine alternated runs) it took
/// 0.41–0.57 of the scalar time at 32 inputs for every class count, and
/// at 200 inputs 0.53, 0.66 and 0.79 at 4, 6 and 8 classes but 0.99 at
/// 10. On the paper's MNIST shape (200 inputs, 10 classes, 15 of 100
/// rows listed) it took 1.03: the crossover lies between 8 and 10
/// classes.
const WIDE_MAX_CLASSES: usize = 8;

/// The top layer's `dW += gᵀ·X` and `db += Σ g` over the listed `rows`
/// (see [`FcHead::backward_rows`]), per [`KC`] tile of the batch in
/// ascending row order with `gemm_tn`'s `acc + g·x` step.
///
/// The scalar loop (`wide` unset; the fallback and the oracle) adds, for
/// each row `r`, each entry `g[r, j] != 0.0` as `g[r, j]·x_r` into row
/// `j` of a zeroed `dw` and `g[r, j]` into `db[j]` — every entry, if the
/// row's `logits` prove nothing finite. The first nonempty tile
/// accumulates in `dw` itself; each later one in a `+0.0` `tile` added at
/// write-back.
///
/// The register build (`wide`, only where [`avx512_available`]) adds
/// every entry of every listed row and reads no logits: each tile's sums
/// stay in AVX-512 registers, from `+0.0`, and are added into `dw` at
/// write-back (`+0.0 + acc` is `acc` for the first tile), and `db` sums
/// every entry in ascending row order. The entries the scalar loop skips
/// are `±0` on rows whose logits prove `x_r` finite, so each adds a `±0`
/// that leaves its sum unchanged.
fn listed_top(
    g: &[f32],
    logits: &[f32],
    x: &[f32],
    rows: &[usize],
    dw: &mut [f32],
    db: &mut [f32],
    tile: &mut Vec<f32>,
    wide: bool,
) {
    let classes = db.len();
    if classes == 0 {
        return;
    }
    let wide = wide && cfg!(target_arch = "x86_64");
    let width = dw.len() / classes;
    if wide {
        for &r in rows {
            for (b, &v) in db.iter_mut().zip(&g[r * classes..(r + 1) * classes]) {
                *b += v;
            }
        }
    }
    let mut add = |acc: &mut [f32], rows: &[usize]| {
        for &r in rows {
            let proven = logits[r * classes..(r + 1) * classes]
                .iter()
                .any(|v| v.is_finite());
            let xr = &x[r * width..(r + 1) * width];
            for (j, &v) in g[r * classes..(r + 1) * classes].iter().enumerate() {
                if v != 0.0 || !proven {
                    db[j] += v;
                    let ar = &mut acc[j * width..(j + 1) * width];
                    for (a, &xv) in ar.iter_mut().zip(xr) {
                        *a += v * xv;
                    }
                }
            }
        }
    };
    let mut first = true;
    let mut lo = 0;
    while lo < rows.len() {
        let end = (rows[lo] / KC + 1) * KC;
        let hi = lo + rows[lo..].partition_point(|&r| r < end);
        if wide {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `wide` is set only where the CPU supports AVX-512F
            // (`avx512_available`).
            unsafe {
                zmm::add_tile(g, x, &rows[lo..hi], classes, dw)
            };
        } else if first {
            add(dw, &rows[lo..hi]);
            first = false;
        } else {
            tile.clear();
            tile.resize(dw.len(), 0.0);
            add(tile, &rows[lo..hi]);
            for (d, &t) in dw.iter_mut().zip(tile.iter()) {
                *d += t;
            }
        }
        lo = hi;
    }
}

/// The register build of [`listed_top`]'s `dW` (AVX-512F).
#[cfg(target_arch = "x86_64")]
mod zmm {
    use std::arch::x86_64::*;

    /// `f32` lanes per `__m512`.
    const LANES: usize = 16;

    /// Most classes one accumulator block holds.
    const MAX_CB: usize = 8;

    /// Adds `g[r, j]·x_r` into row `j` of `dw` for every class `j` of
    /// every row `r` of `rows` (one [`super::KC`] tile, ascending). The
    /// `dw` entries are cut into blocks of up to [`MAX_CB`] classes by one
    /// or two 16-input panels; each block's accumulators stay in
    /// registers over every row, so lane `t` of accumulator `(j, panel)`
    /// is `dW[j, p0 + t]`'s own chain from `+0.0`, one separate multiply
    /// and add (never FMA) per row in ascending order, then added into
    /// `dw` at write-back. A block only decides which entries share
    /// operand loads, never an entry's arithmetic.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F ([`super::avx512_available`]). The
    /// asserts below bound every raw access.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero or does not divide `dw`, or a row of
    /// `rows` lies past the end of `g` or `x` (as `[batch, classes]` and
    /// `[batch, width]`).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn add_tile(
        g: &[f32],
        x: &[f32],
        rows: &[usize],
        classes: usize,
        dw: &mut [f32],
    ) {
        let width = dw.len() / classes;
        assert_eq!(dw.len(), classes * width, "dW is not whole class rows");
        if width == 0 {
            return;
        }
        let batch = (g.len() / classes).min(x.len() / width);
        assert!(
            rows.iter().all(|&r| r < batch),
            "a listed row lies past the batch"
        );
        let tile = Tile {
            g,
            x,
            rows,
            classes,
            width,
        };
        // Blocks of even size: 10 classes run as 5 + 5.
        let blocks = classes.div_ceil(MAX_CB);
        let mut j0 = 0;
        for b in 0..blocks {
            let cb = (classes - j0) / (blocks - b);
            for p0 in (0..width).step_by(2 * LANES) {
                // SAFETY: AVX-512F is available (this function's
                // contract).
                unsafe {
                    if width - p0 > LANES {
                        tile.block_of::<2>(cb, j0, p0, dw)
                    } else {
                        tile.block_of::<1>(cb, j0, p0, dw)
                    }
                }
            }
            j0 += cb;
        }
    }

    /// One tile's operands: `g` is `[batch, classes]`, `x` is
    /// `[batch, width]`, and every row of `rows` is below `batch` (checked
    /// by [`add_tile`], the only place a `Tile` is made).
    struct Tile<'a> {
        g: &'a [f32],
        x: &'a [f32],
        rows: &'a [usize],
        classes: usize,
        width: usize,
    }

    impl Tile<'_> {
        /// [`Tile::block`] for `cb` classes (1..=[`MAX_CB`]).
        ///
        /// # Safety
        ///
        /// As [`Tile::block`].
        #[target_feature(enable = "avx512f")]
        unsafe fn block_of<const PB: usize>(
            &self,
            cb: usize,
            j0: usize,
            p0: usize,
            dw: &mut [f32],
        ) {
            // SAFETY: forwarded from this function's contract.
            unsafe {
                match cb {
                    1 => self.block::<1, PB>(j0, p0, dw),
                    2 => self.block::<2, PB>(j0, p0, dw),
                    3 => self.block::<3, PB>(j0, p0, dw),
                    4 => self.block::<4, PB>(j0, p0, dw),
                    5 => self.block::<5, PB>(j0, p0, dw),
                    6 => self.block::<6, PB>(j0, p0, dw),
                    7 => self.block::<7, PB>(j0, p0, dw),
                    8 => self.block::<8, PB>(j0, p0, dw),
                    _ => unreachable!("a class block holds 1..=MAX_CB classes"),
                }
            }
        }

        /// Classes `j0..j0 + CB` × the `PB` 16-input panels from input
        /// `p0` (the last one lane-masked at the row's end), summed over
        /// the tile's rows in registers and added into `dw`. Masked-off
        /// lanes are neither loaded nor written back.
        ///
        /// # Safety
        ///
        /// The CPU must support AVX-512F. The assert below and the rows
        /// [`add_tile`] checked bound every raw access.
        ///
        /// # Panics
        ///
        /// Panics if classes `j0..j0 + CB` or panel `PB − 1` (from input
        /// `p0 + (PB − 1)·16`) lie past the row.
        #[target_feature(enable = "avx512f")]
        unsafe fn block<const CB: usize, const PB: usize>(
            &self,
            j0: usize,
            p0: usize,
            dw: &mut [f32],
        ) {
            let (classes, width) = (self.classes, self.width);
            assert!(j0 + CB <= classes && p0 + (PB - 1) * LANES < width);
            let mut masks = [0 as __mmask16; PB];
            for (p, m) in masks.iter_mut().enumerate() {
                let live = (width - p0 - p * LANES).min(LANES);
                *m = ((1u32 << live) - 1) as __mmask16;
            }
            let mut acc = [[_mm512_setzero_ps(); PB]; CB];
            for &r in self.rows {
                // SAFETY: `add_tile` checked `r < batch`, so row `r` of `x`
                // (`width` inputs) and of `g` (`classes` entries) is in
                // bounds, and the assert above keeps `p0` and `j0 + CB`
                // inside it.
                let (xr, gr) = unsafe {
                    (
                        self.x.as_ptr().add(r * width + p0),
                        self.g.as_ptr().add(r * classes + j0),
                    )
                };
                let mut xv = [_mm512_setzero_ps(); PB];
                for (p, (v, &m)) in xv.iter_mut().zip(&masks).enumerate() {
                    // SAFETY: the `live` lanes of panel `p` start at input
                    // `p0 + 16p < width` and end at or before the row's end.
                    *v = unsafe { _mm512_maskz_loadu_ps(m, xr.add(p * LANES)) };
                }
                for (j, acc_j) in acc.iter_mut().enumerate() {
                    // SAFETY: entry `j0 + j < classes` of row `r` of `g`.
                    let gv = _mm512_set1_ps(unsafe { *gr.add(j) });
                    for (a, &xp) in acc_j.iter_mut().zip(&xv) {
                        *a = _mm512_add_ps(*a, _mm512_mul_ps(gv, xp));
                    }
                }
            }
            for (j, acc_j) in acc.iter().enumerate() {
                let out = &mut dw[(j0 + j) * width + p0..(j0 + j + 1) * width];
                for (p, (&a, &m)) in acc_j.iter().zip(&masks).enumerate() {
                    // SAFETY: the `live` lanes of panel `p` lie inside `out`.
                    unsafe {
                        let at = out.as_mut_ptr().add(p * LANES);
                        let d = _mm512_maskz_loadu_ps(m, at);
                        _mm512_mask_storeu_ps(at, m, _mm512_add_ps(d, a));
                    }
                }
            }
        }
    }
}

/// Copies rows `rows` of the row-major `width`-wide `src` into `dst`.
fn gather_rows(src: &[f32], width: usize, rows: &[usize], dst: &mut Vec<f32>) {
    dst.clear();
    for &r in rows {
        dst.extend_from_slice(&src[r * width..(r + 1) * width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{max_rel_error, numerical_gradient};

    /// The rows [`FcHead::backward_rows`] must visit for an upstream
    /// gradient `g` over cached `logits` (both `[batch, classes]`), in
    /// ascending order into `rows`: every row of `g` with an entry `!= 0.0`,
    /// plus every row whose logits hold no finite value. The hinge lists
    /// its rows as it writes them; these tests derive them from `g`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    fn visit_rows(g: &Tensor, logits: &Tensor, rows: &mut Vec<usize>) {
        assert_eq!(g.shape(), logits.shape(), "g and logits must share a shape");
        let classes = g.shape().get(1).copied().unwrap_or(0);
        rows.clear();
        for r in 0..g.shape()[0] {
            let (g_row, z_row) = (
                &g.as_slice()[r * classes..(r + 1) * classes],
                &logits.as_slice()[r * classes..(r + 1) * classes],
            );
            if g_row.iter().any(|&v| v != 0.0) || !z_row.iter().any(|v| v.is_finite()) {
                rows.push(r);
            }
        }
    }

    fn small_head(rng: &mut Prng) -> FcHead {
        FcHead::from_dims(&[6, 5, 4, 3], rng)
    }

    #[test]
    fn paper_layer_param_counts() {
        let mut rng = Prng::new(0);
        let head = FcHead::new_random(1024, 200, 200, 10, &mut rng);
        assert_eq!(head.layer_param_count(0), 205_000);
        assert_eq!(head.layer_param_count(1), 40_200);
        assert_eq!(head.layer_param_count(2), 2_010);
        assert_eq!(head.param_count(), 247_210);
    }

    #[test]
    fn forward_from_matches_full_forward() {
        let mut rng = Prng::new(1);
        let head = small_head(&mut rng);
        let x = Tensor::randn(&[7, 6], 1.0, &mut rng);
        let full = head.forward(&x);
        for start in 0..head.num_layers() {
            let acts = head.activations_before(start, &x);
            let part = head.forward_from(start, &acts);
            for (a, b) in full.as_slice().iter().zip(part.as_slice()) {
                assert!((a - b).abs() < 1e-5, "start {start}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn backward_matches_finite_difference_all_starts() {
        let mut rng = Prng::new(2);
        let head = small_head(&mut rng);
        let x = Tensor::randn(&[3, 6], 1.0, &mut rng);
        let g = Tensor::randn(&[3, 3], 1.0, &mut rng);

        for start in 0..head.num_layers() {
            let acts = head.activations_before(start, &x);
            let mut bufs = HeadBuffers::new();
            head.forward_from_caching(start, &acts, &mut bufs);
            let dense = head
                .backward_from_cache(start, &acts, &g, &mut bufs)
                .to_vec();
            let listed = head.backward_rows(start, &acts, &g, &[0, 1, 2], &mut bufs);
            assert_eq!(listed, &dense[..], "start {start}: every row listed");
            assert_eq!(dense.len(), head.num_layers() - start);

            for (rel, (dw, db)) in dense.iter().enumerate() {
                let li = start + rel;
                // Numeric gradient wrt layer li's flat params of
                // f = sum(g ⊙ logits).
                let flat = head.layer_flat_params(li);
                let mut probe_head = head.clone();
                let objective = |params: &[f32]| -> f32 {
                    probe_head.set_layer_flat_params(li, params);
                    let z = probe_head.forward_from(start, &acts);
                    z.as_slice()
                        .iter()
                        .zip(g.as_slice())
                        .map(|(&zv, &gv)| zv * gv)
                        .sum()
                };
                let numeric = numerical_gradient(objective, &flat, 1e-2);
                let mut analytic = Vec::with_capacity(flat.len());
                analytic.extend_from_slice(dw.as_slice());
                analytic.extend_from_slice(db.as_slice());
                let err = max_rel_error(&numeric, &analytic);
                assert!(err < 2e-2, "start {start} layer {li}: rel error {err}");
            }
        }
    }

    #[test]
    fn caching_passes_match_plain_apis() {
        let mut rng = Prng::new(21);
        let head = small_head(&mut rng);
        let x = Tensor::randn(&[5, 6], 1.0, &mut rng);
        let g = Tensor::randn(&[5, 3], 1.0, &mut rng);
        let mut bufs = HeadBuffers::new();
        for start in 0..head.num_layers() {
            let acts = head.activations_before(start, &x);
            // Reuse the same buffer set for every start: shapes change,
            // results must not.
            for _ in 0..2 {
                let logits = head.forward_from_caching(start, &acts, &mut bufs).clone();
                assert_eq!(logits, head.forward_from(start, &acts), "start {start}");
                head.backward_from_cache(start, &acts, &g, &mut bufs);
                let reference = {
                    let mut fresh = HeadBuffers::new();
                    head.forward_from_caching(start, &acts, &mut fresh);
                    head.backward_from_cache(start, &acts, &g, &mut fresh);
                    fresh.grads().to_vec()
                };
                assert_eq!(bufs.grads(), &reference[..], "start {start}");
            }
        }
    }

    /// The dense backward the row-sparse pass must reproduce bit for bit:
    /// every batch row through one `gemm_tn`, one `gemm` and the mask,
    /// over the activations `bufs` cached.
    fn dense_backward(
        head: &FcHead,
        start: usize,
        acts: &Tensor,
        g: &Tensor,
        bufs: &HeadBuffers,
    ) -> Vec<(Vec<f32>, Vec<f32>)> {
        use crate::layer::Layer as _;
        let batch = acts.shape()[0];
        let nrel = head.num_layers() - start;
        let mut dz = g.as_slice().to_vec();
        let mut out = Vec::new();
        for rel in (0..nrel).rev() {
            let layer = head.layer(start + rel);
            let (o, i) = (layer.out_features(), layer.in_features());
            let x = if rel == 0 {
                acts.as_slice()
            } else {
                &bufs.inputs[rel]
            };
            let mut dw = vec![0.0; o * i];
            gemm_tn(o, batch, i, &dz, x, &mut dw, 1.0, 0.0);
            let mut db = vec![0.0f32; o];
            for row in dz.chunks_exact(o) {
                for (b, &v) in db.iter_mut().zip(row) {
                    *b += v;
                }
            }
            out.push((dw, db));
            if rel > 0 {
                let mut dx = vec![0.0; batch * i];
                gemm(
                    batch,
                    o,
                    i,
                    &dz,
                    layer.weight().as_slice(),
                    &mut dx,
                    1.0,
                    0.0,
                );
                for (gr, zr) in dx
                    .chunks_exact_mut(i)
                    .zip(bufs.preacts[rel - 1].chunks_exact(i))
                {
                    Relu::mask_slice(gr, zr);
                }
                dz = dx;
            }
        }
        out.reverse();
        out
    }

    /// Hinge-shaped upstream gradient: each active row holds `+c`/`−c`
    /// at two classes, and `−0.0` sits in every row, active or not.
    fn hinge_grad(batch: usize, classes: usize, active: impl Fn(usize) -> bool) -> Tensor {
        let mut g = Tensor::zeros(&[batch, classes]);
        for r in 0..batch {
            let row = g.row_mut(r);
            for (j, v) in row.iter_mut().enumerate() {
                if (r + j) % 2 == 1 {
                    *v = -0.0;
                }
            }
            if active(r) {
                let c = 0.5 + (r % 5) as f32;
                row[r % classes] = c;
                row[(r + 2) % classes] = -c;
            }
        }
        g
    }

    /// Sparse grads equal dense grads element by element: same bits, or
    /// NaN in both.
    fn assert_same_bits(sparse: &[(Tensor, Tensor)], dense: &[(Vec<f32>, Vec<f32>)], what: &str) {
        assert_eq!(sparse.len(), dense.len(), "{what}: layer count");
        for (rel, ((dw, db), (rw, rb))) in sparse.iter().zip(dense).enumerate() {
            for (name, got, want) in [("dW", dw.as_slice(), rw), ("db", db.as_slice(), rb)] {
                assert_eq!(got.len(), want.len(), "{what}: {name}[{rel}] length");
                for (k, (a, b)) in got.iter().zip(want).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                        "{what}: {name}[{rel}][{k}] = {a:e} ({:#x}), dense {b:e} ({:#x})",
                        a.to_bits(),
                        b.to_bits()
                    );
                }
            }
        }
    }

    /// [`FcHead::backward_rows`] over the rows [`visit_rows`] lists for
    /// `g`; returns the list.
    fn listed_backward(
        head: &FcHead,
        start: usize,
        acts: &Tensor,
        g: &Tensor,
        bufs: &mut HeadBuffers,
    ) -> Vec<usize> {
        let mut rows = Vec::new();
        visit_rows(g, bufs.logits(), &mut rows);
        head.backward_rows(start, acts, g, &rows, bufs);
        rows
    }

    /// The heads the `row_sparse_backward_*` tests run: a 9-wide last
    /// layer with 6 classes, and the arena's 32-wide one with 4, which
    /// the top layer's register build serves on an AVX-512F host.
    fn row_sparse_heads(rng: &mut Prng) -> [FcHead; 2] {
        [
            FcHead::from_dims(&[13, 11, 9, 6], rng),
            FcHead::from_dims(&[13, 11, 32, 4], rng),
        ]
    }

    #[test]
    fn row_sparse_backward_is_bit_identical_to_dense() {
        let mut rng = Prng::new(23);
        for head in row_sparse_heads(&mut rng) {
            row_sparse_backward_matches_dense_on(&head, &mut rng);
        }
    }

    fn row_sparse_backward_matches_dense_on(head: &FcHead, rng: &mut Prng) {
        let classes = head.classes();
        type Pattern = (&'static str, fn(usize) -> bool);
        let patterns: [Pattern; 5] = [
            ("none", |_| false),
            ("one", |r| r == 0),
            ("15%", |r| r % 7 == 3),
            ("first tile + 15%", |r| r < KC || r % 7 == 3),
            ("all", |_| true),
        ];
        let mut bufs = HeadBuffers::new();
        for batch in [1, 7, 100, 255, 256, 257, 600] {
            let x = Tensor::randn(&[batch, 13], 1.0, rng);
            for start in 0..head.num_layers() {
                let acts = head.activations_before(start, &x);
                for (name, active) in patterns {
                    let g = hinge_grad(batch, classes, active);
                    head.forward_from_caching(start, &acts, &mut bufs);
                    let dense = dense_backward(head, start, &acts, &g, &bufs);
                    let rows = listed_backward(head, start, &acts, &g, &mut bufs);
                    let what = format!("classes {classes} batch {batch} start {start} {name}");
                    let want: Vec<usize> = (0..batch).filter(|&r| active(r)).collect();
                    assert_eq!(rows, want, "{what}: rows listed");
                    if start + 1 < head.num_layers() {
                        assert_eq!(bufs.rows, want, "{what}: hidden rows visited");
                    }
                    assert_same_bits(bufs.grads(), &dense, &what);
                    // The dense entry point visits every row.
                    head.backward_from_cache(start, &acts, &g, &mut bufs);
                    assert_same_bits(bufs.grads(), &dense, &format!("{what}, every row"));
                }
            }
        }
    }

    #[test]
    fn row_sparse_backward_keeps_non_finite_values() {
        let mut rng = Prng::new(24);
        for base in row_sparse_heads(&mut rng) {
            row_sparse_backward_keeps_non_finite_values_on(&base, &mut rng);
        }
    }

    fn row_sparse_backward_keeps_non_finite_values_on(base: &FcHead, rng: &mut Prng) {
        let classes = base.classes();
        let active = |r: usize| r % 7 == 3;
        let mut bufs = HeadBuffers::new();
        for batch in [7, 100, 257, 600] {
            let x = Tensor::randn(&[batch, 13], 1.0, rng);
            let g = hinge_grad(batch, classes, active);
            let skipped = (0..batch).rev().find(|&r| !active(r)).unwrap();
            let kept = 3;
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for start in 0..base.num_layers() {
                    let clean = base.activations_before(start, &x);
                    let width = clean.shape()[1];
                    let mut cases = Vec::new();
                    for (site, row) in [("skipped row", skipped), ("active row", kept)] {
                        let mut acts = clean.clone();
                        acts.row_mut(row)[width / 2] = bad;
                        cases.push((site, base.clone(), acts));
                    }
                    // The last layer's weights: above `start` unless
                    // `start` is the last layer itself.
                    let mut head = base.clone();
                    let last = head.num_layers() - 1;
                    head.layer_mut(last).weight_mut().as_mut_slice()[4] = bad;
                    cases.push(("last-layer weight", head, clean.clone()));
                    for (site, head, acts) in cases {
                        head.forward_from_caching(start, &acts, &mut bufs);
                        let dense = dense_backward(&head, start, &acts, &g, &bufs);
                        let rows = listed_backward(&head, start, &acts, &g, &mut bufs);
                        let what = format!(
                            "classes {classes} batch {batch} start {start} {bad} in {site}"
                        );
                        assert_same_bits(bufs.grads(), &dense, &what);
                        if site == "skipped row" {
                            assert!(rows.contains(&skipped), "{what}: row not listed");
                            if start < last {
                                assert!(bufs.rows.contains(&skipped), "{what}: row dropped");
                            }
                        }
                    }
                }
            }
        }
    }

    /// A `−∞` bias in a hidden layer makes that layer's pre-activation
    /// non-finite in every row, so its weights are unproven, while ReLU
    /// turns the `−∞` into `0` and every logit row stays finite. The
    /// backward must then visit every row below the top layer, while the
    /// top layer's `dW` and `db`, added from the listed rows only, must
    /// still equal the dense ones.
    #[test]
    fn row_sparse_backward_keeps_every_row_when_a_hidden_layer_is_unproven() {
        use crate::layer::Layer as _;
        let mut rng = Prng::new(26);
        for mut head in row_sparse_heads(&mut rng) {
            let classes = head.classes();
            let mut bufs = HeadBuffers::new();
            for batch in [7, 100, 257] {
                let x = Tensor::randn(&[batch, 13], 1.0, &mut rng);
                let g = hinge_grad(batch, classes, |r| r % 7 == 3);
                let active: Vec<usize> = (0..batch).filter(|&r| r % 7 == 3).collect();
                for unproven in [false, true] {
                    let bias = if unproven { f32::NEG_INFINITY } else { 0.25 };
                    head.layer_mut(1).bias_mut().as_mut_slice()[2] = bias;
                    head.forward_from_caching(0, &x, &mut bufs);
                    assert!(bufs.logits().as_slice().iter().all(|v| v.is_finite()));
                    let dense = dense_backward(&head, 0, &x, &g, &bufs);
                    let rows = listed_backward(&head, 0, &x, &g, &mut bufs);
                    let what = format!("classes {classes} batch {batch} unproven {unproven}");
                    assert_eq!(rows, active, "{what}: rows listed");
                    let want: Vec<usize> = if unproven {
                        (0..batch).collect()
                    } else {
                        active.clone()
                    };
                    assert_eq!(bufs.rows, want, "{what}: rows visited");
                    assert_eq!(bufs.dz.len(), want.len() * head.layer(0).out_features());
                    assert_same_bits(bufs.grads(), &dense, &what);
                }
            }
        }
    }

    /// The list-driven backward at every start of a four-layer head, over
    /// R = 300 (two `KC` tiles), against the dense oracle by `to_bits`:
    /// hinge rows in both tiles, an active row with `c = 0` (only signed
    /// zeros, so not listed), a row whose logits hold no finite value, a
    /// row only a hidden layer's output proves nothing for, and, above
    /// each start that has one, a hidden layer left unproven by a `−∞`
    /// bias.
    #[test]
    fn listed_backward_matches_dense_at_every_start() {
        let mut rng = Prng::new(27);
        let base = FcHead::from_dims(&[13, 11, 10, 9, 4], &mut rng);
        let (batch, classes) = (300, base.classes());
        let x = Tensor::randn(&[batch, 13], 1.0, &mut rng);
        // Every row of the second tile is active, so its classes sum
        // several rows there.
        let mut g = hinge_grad(batch, classes, |r| r % 5 == 2 || r >= KC);
        // Row 12 is active in the hinge sense, weighted c = 0.
        let row = g.row_mut(12);
        row[12 % classes] = 0.0;
        row[14 % classes] = -0.0;
        let mut x_bad = x.clone();
        x_bad.row_mut(8).fill(f32::NAN);
        let mut bufs = HeadBuffers::new();
        for start in 0..base.num_layers() {
            for hidden in [None, Some(start + 1), Some(start + 2)] {
                let mut head = base.clone();
                if let Some(layer) = hidden {
                    if layer + 1 >= head.num_layers() {
                        continue;
                    }
                    head.layer_mut(layer).bias_mut().as_mut_slice()[0] = f32::NEG_INFINITY;
                }
                let acts = head.activations_before(start, &x);
                let mut cases = vec![
                    ("finite", head.clone(), acts.clone()),
                    (
                        "NaN row",
                        head.clone(),
                        head.activations_before(start, &x_bad),
                    ),
                ];
                if start < head.num_layers() - 1 {
                    // Inactive row 9 gets a +∞ input whose weights are all
                    // −1: its pre-activations at layer `start` are all −∞,
                    // ReLU zeroes them and its logits stay finite, so only
                    // the hidden layer's proof keeps the row.
                    let mut head = head.clone();
                    let width = acts.shape()[1];
                    for w in head
                        .layer_mut(start)
                        .weight_mut()
                        .as_mut_slice()
                        .iter_mut()
                        .step_by(width)
                    {
                        *w = -1.0;
                    }
                    let mut acts = acts.clone();
                    acts.row_mut(9)[0] = f32::INFINITY;
                    cases.push(("−∞ pre-activations", head, acts));
                }
                for (site, head, acts) in cases {
                    head.forward_from_caching(start, &acts, &mut bufs);
                    let dense = dense_backward(&head, start, &acts, &g, &bufs);
                    let rows = listed_backward(&head, start, &acts, &g, &mut bufs);
                    let what = format!("start {start} unproven {hidden:?} {site}");
                    assert_eq!(rows.contains(&8), site == "NaN row", "{what}");
                    assert!(!rows.contains(&12), "{what}: a zero row was listed");
                    if site == "−∞ pre-activations" {
                        assert!(!rows.contains(&9), "{what}: logits must stay finite");
                        assert!(bufs.rows.contains(&9), "{what}: row 9 dropped");
                    }
                    assert_same_bits(bufs.grads(), &dense, &what);
                }
            }
        }
    }

    /// The top layer's entry-sparse `dW` against the dense oracle: hinge
    /// rows with two nonzero entries, rows whose `c` is zero (signed
    /// zeros only), and non-finite input rows, over 3, 4 and 10 classes
    /// of a 9- and a 32-wide last layer, one and two `KC` tiles, and
    /// every start layer.
    #[test]
    fn row_sparse_backward_skips_zero_entries_bit_identically() {
        let mut rng = Prng::new(25);
        let mut bufs = HeadBuffers::new();
        let shapes = [9, 32].into_iter().flat_map(|w| [3, 4, 10].map(|c| (w, c)));
        for (width, classes) in shapes {
            let head = FcHead::from_dims(&[13, 11, width, classes], &mut rng);
            for batch in [100, 260] {
                let x = Tensor::randn(&[batch, 13], 1.0, &mut rng);
                // Every row of the second KC tile is active, so its
                // classes collect several entries there.
                let mut g = hinge_grad(batch, classes, |r| r % 3 == 1 || r >= KC);
                // Active in the hinge sense, but weighted c = 0.
                for r in (4..batch.min(KC)).step_by(9) {
                    let row = g.row_mut(r);
                    row[r % classes] = 0.0;
                    row[(r + 2) % classes] = -0.0;
                }
                for start in 0..head.num_layers() {
                    let clean = head.activations_before(start, &x);
                    let width = clean.shape()[1];
                    let mut cases = vec![("finite", clean.clone())];
                    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                        // Row 7 is active, row 9 inactive; row 8 is all
                        // non-finite, so its logits prove nothing.
                        let mut acts = clean.clone();
                        acts.row_mut(7)[width / 2] = bad;
                        acts.row_mut(9)[0] = bad;
                        acts.row_mut(8).fill(bad);
                        cases.push(("non-finite", acts));
                    }
                    for (site, acts) in cases {
                        head.forward_from_caching(start, &acts, &mut bufs);
                        let dense = dense_backward(&head, start, &acts, &g, &bufs);
                        listed_backward(&head, start, &acts, &g, &mut bufs);
                        let what = format!("{width}→{classes} batch {batch} start {start} {site}");
                        assert_same_bits(bufs.grads(), &dense, &what);
                    }
                }
            }
        }
    }

    /// The top layer's register build against the scalar entry loop, both
    /// called explicitly, by `to_bits` (NaN matches any NaN: a NaN's sign
    /// and payload follow the operand order the compiler picks for a
    /// commutative add). Classes 1–12 and 16, input widths around the
    /// 16-lane panels, batches around the `KC` tiles; the listed rows hold
    /// hinge rows whose entries include `−0.0`, rows with `c = 0` (signed
    /// zeros only) and rows whose input holds NaN or ±∞, whose logits
    /// then prove nothing finite. Rows off the list have finite logits
    /// and zero gradients, as the hinge hands them over.
    #[test]
    fn wide_top_layer_matches_the_scalar_entry_loop_bit_for_bit() {
        let wide = avx512_available();
        if wide {
            eprintln!("AVX-512F: checking the register build against the scalar entry loop");
        } else {
            eprintln!("no AVX-512F on this CPU: checking the scalar entry loop only");
        }
        let mut rng = Prng::new(29);
        let bad = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        let mut tile = Vec::new();
        for classes in (1..=12).chain([16]) {
            for width in [1, 7, 15, 16, 17, 31, 32, 33, 200] {
                for batch in [1, 255, 256, 257, 600] {
                    let mut x = Tensor::randn(&[batch, width], 1.0, &mut rng);
                    let mut logits = Tensor::randn(&[batch, classes], 1.0, &mut rng);
                    let mut g = Tensor::zeros(&[batch, classes]);
                    let mut rows = Vec::new();
                    for r in 0..batch {
                        let (xr, gr) = (x.row_mut(r), g.row_mut(r));
                        xr[r % width] = -0.0;
                        if r % 17 == 8 {
                            // Unproven: every entry counts, zeros included.
                            xr[(r / 17) % width] = bad[r % 3];
                            logits.row_mut(r).fill(bad[(r + 1) % 3]);
                            gr[r % classes] = 1.5;
                            gr[(r + 2) % classes] = -0.0;
                        } else if r % 11 == 5 {
                            // Active with c = 0: signed zeros only.
                            gr[r % classes] = 0.0;
                            gr[(r + 1) % classes] = -0.0;
                        } else if r % 3 == 1 || (r >= KC && r % 2 == 0) {
                            gr[r % classes] = 0.75 + r as f32;
                            gr[(r + 1) % classes] = -0.75 - r as f32;
                            gr[(r + 3) % classes] = -0.0;
                        } else {
                            continue;
                        }
                        rows.push(r);
                    }
                    let run = |wide: bool, tile: &mut Vec<f32>| {
                        let mut dw = vec![0.0f32; classes * width];
                        let mut db = vec![0.0f32; classes];
                        listed_top(
                            g.as_slice(),
                            logits.as_slice(),
                            x.as_slice(),
                            &rows,
                            &mut dw,
                            &mut db,
                            tile,
                            wide,
                        );
                        (dw, db)
                    };
                    let scalar = run(false, &mut tile);
                    if !wide {
                        continue;
                    }
                    let simd = run(true, &mut tile);
                    let what = format!("classes {classes} width {width} batch {batch}");
                    for (name, got, want) in
                        [("dW", &simd.0, &scalar.0), ("db", &simd.1, &scalar.1)]
                    {
                        for (k, (a, b)) in got.iter().zip(want).enumerate() {
                            assert!(
                                a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                                "{what}: {name}[{k}] = {a:e} ({:#x}), scalar {b:e} ({:#x})",
                                a.to_bits(),
                                b.to_bits()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ascend below the batch size")]
    fn backward_rows_refuses_an_unsorted_list() {
        let mut rng = Prng::new(28);
        let head = small_head(&mut rng);
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let mut bufs = HeadBuffers::new();
        head.forward_from_caching(0, &x, &mut bufs);
        head.backward_rows(0, &x, &Tensor::zeros(&[4, 3]), &[2, 1], &mut bufs);
    }

    #[test]
    #[should_panic(expected = "requires a prior forward_from_caching")]
    fn backward_from_cache_requires_forward() {
        let mut rng = Prng::new(22);
        let head = small_head(&mut rng);
        let mut bufs = HeadBuffers::new();
        head.backward_from_cache(
            0,
            &Tensor::zeros(&[1, 6]),
            &Tensor::zeros(&[1, 3]),
            &mut bufs,
        );
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut rng = Prng::new(3);
        let mut head = small_head(&mut rng);
        let orig = head.layer_flat_params(1);
        let mut modified = orig.clone();
        modified[0] += 1.0;
        let last = modified.len() - 1;
        modified[last] -= 2.0;
        head.set_layer_flat_params(1, &modified);
        assert_eq!(head.layer_flat_params(1), modified);
    }

    #[test]
    fn encode_decode_preserves_behaviour() {
        let mut rng = Prng::new(4);
        let head = small_head(&mut rng);
        let x = Tensor::randn(&[2, 6], 1.0, &mut rng);
        let before = head.forward(&x);

        let mut enc = Encoder::new();
        head.encode(&mut enc);
        let bytes = enc.into_bytes();
        let restored = FcHead::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(restored.forward(&x), before);
    }

    #[test]
    fn decoding_unchained_layer_widths_is_an_error() {
        // Layer 0 emits 6 features, layer 1 expects 5: `from_linears`
        // would panic, so the decoder must refuse first.
        let mut enc = Encoder::new();
        enc.put_u64(2);
        for dims in [[6, 4], [3, 5]] {
            enc.put_tensor(&Tensor::zeros(&dims));
            enc.put_tensor(&Tensor::zeros(&[dims[0]]));
        }
        let bytes = enc.into_bytes();
        assert!(FcHead::decode(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn predict_and_accuracy() {
        let mut rng = Prng::new(5);
        let head = small_head(&mut rng);
        let x = Tensor::randn(&[10, 6], 1.0, &mut rng);
        let preds = head.predict(&x);
        assert_eq!(head.accuracy(&x, &preds), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forward_from_validates_start() {
        let mut rng = Prng::new(6);
        let head = small_head(&mut rng);
        let _ = head.forward_from(3, &Tensor::zeros(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn activations_before_validates_width() {
        let mut rng = Prng::new(7);
        let head = small_head(&mut rng);
        // One column too wide: must panic, not silently misread rows.
        let _ = head.activations_before(1, &Tensor::zeros(&[2, 7]));
    }
}
