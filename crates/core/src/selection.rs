//! Selecting which DNN parameters the attack may modify.
//!
//! The paper's threat model lets the adversary designate "either all the
//! DNN parameters or only a portion of the parameters, e.g. weight
//! parameters of the specific layer(s)" (Sec. 3). A [`ParamSelection`]
//! names a set of `(head layer, weights/bias/both)` regions; the attack's
//! `δ` vector is the concatenation of those regions, in layer order,
//! weights (row-major) before bias within a layer.

use fsa_nn::head::FcHead;
use fsa_tensor::Tensor;

/// Which parameter kind of a layer is modifiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Weight matrix only (paper Table 2, "weight params" rows).
    Weights,
    /// Bias vector only (paper Table 2, "bias params" rows; the SBA
    /// baseline's parameter space).
    Bias,
    /// Both (the paper's main experiments).
    Both,
}

/// One selected region: a head layer and the parameter kind within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerSelection {
    /// Head layer index (0 = first FC layer).
    pub layer: usize,
    /// Parameter kind within the layer.
    pub kind: ParamKind,
}

/// An ordered set of modifiable parameter regions.
///
/// # Examples
///
/// ```
/// use fsa_attack::{ParamSelection, ParamKind};
/// use fsa_nn::head::FcHead;
/// use fsa_tensor::Prng;
///
/// let mut rng = Prng::new(0);
/// let head = FcHead::new_random(1024, 200, 200, 10, &mut rng);
/// // The paper's main setting: all parameters of the last FC layer.
/// let sel = ParamSelection::last_layer(&head);
/// assert_eq!(sel.dim(&head), 2010);
/// // Bias-only selection (Table 2).
/// let bias = ParamSelection::layer(2, ParamKind::Bias);
/// assert_eq!(bias.dim(&head), 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSelection {
    entries: Vec<LayerSelection>,
}

impl ParamSelection {
    /// Selects a single layer with the given kind.
    pub fn layer(layer: usize, kind: ParamKind) -> Self {
        Self {
            entries: vec![LayerSelection { layer, kind }],
        }
    }

    /// Selects all parameters of the head's last FC layer — the paper's
    /// main experimental configuration (Sec. 5.1).
    pub fn last_layer(head: &FcHead) -> Self {
        Self::layer(head.num_layers() - 1, ParamKind::Both)
    }

    /// Selects all parameters of every head layer.
    pub fn all_layers(head: &FcHead) -> Self {
        Self::from_entries(
            (0..head.num_layers())
                .map(|layer| LayerSelection {
                    layer,
                    kind: ParamKind::Both,
                })
                .collect(),
        )
    }

    /// Builds a selection from explicit entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or contains duplicate layers.
    pub fn from_entries(entries: Vec<LayerSelection>) -> Self {
        assert!(
            !entries.is_empty(),
            "selection must name at least one region"
        );
        let mut sorted = entries;
        sorted.sort_by_key(|e| e.layer);
        for pair in sorted.windows(2) {
            assert_ne!(pair[0].layer, pair[1].layer, "duplicate layer in selection");
        }
        Self { entries: sorted }
    }

    /// The selected regions, sorted by layer.
    pub fn entries(&self) -> &[LayerSelection] {
        &self.entries
    }

    /// The earliest selected layer — the head's forward/backward passes
    /// can start here with cached activations (everything before it is
    /// unmodified).
    pub fn start_layer(&self) -> usize {
        self.entries[0].layer
    }

    /// The same regions over a head cut down to its layers `start..`
    /// (every layer index minus `start`).
    pub(crate) fn relative_to(&self, start: usize) -> Self {
        Self {
            entries: self
                .entries
                .iter()
                .map(|e| LayerSelection {
                    layer: e.layer - start,
                    kind: e.kind,
                })
                .collect(),
        }
    }

    /// Validates the selection against a head.
    ///
    /// # Panics
    ///
    /// Panics if any selected layer is out of range.
    pub fn validate(&self, head: &FcHead) {
        for e in &self.entries {
            assert!(
                e.layer < head.num_layers(),
                "selection names layer {} but head has {} layers",
                e.layer,
                head.num_layers()
            );
        }
    }

    /// Total number of selected scalars (the dimension of `δ`).
    pub fn dim(&self, head: &FcHead) -> usize {
        self.entries
            .iter()
            .map(|e| {
                let l = head.layer(e.layer);
                match e.kind {
                    ParamKind::Weights => l.weight().numel(),
                    ParamKind::Bias => l.bias().numel(),
                    ParamKind::Both => l.weight().numel() + l.bias().numel(),
                }
            })
            .sum()
    }

    /// Reads the selected parameters out of `head` into a flat vector
    /// (`θ_sel`).
    pub fn gather(&self, head: &FcHead) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.dim(head));
        for e in &self.entries {
            let l = head.layer(e.layer);
            match e.kind {
                ParamKind::Weights => out.extend_from_slice(l.weight().as_slice()),
                ParamKind::Bias => out.extend_from_slice(l.bias().as_slice()),
                ParamKind::Both => {
                    out.extend_from_slice(l.weight().as_slice());
                    out.extend_from_slice(l.bias().as_slice());
                }
            }
        }
        out
    }

    /// Writes a flat vector of selected parameters back into `head`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.dim(head)`.
    pub fn scatter(&self, head: &mut FcHead, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.dim(head),
            "selection scatter length mismatch"
        );
        let mut off = 0;
        self.for_each_region(head, None, |params, _| {
            params.copy_from_slice(&values[off..off + params.len()]);
            off += params.len();
        });
    }

    /// Walks the selected regions of `head` in `δ` order (layers in
    /// order, weights before bias within a layer), handing `f` each
    /// region's parameters and, when `grads` is given, the matching
    /// `dW` or `db` slice of the per-layer gradients of a backward pass
    /// started at layer 0.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not cover the selected layers.
    pub(crate) fn for_each_region<'g>(
        &self,
        head: &mut FcHead,
        grads: Option<&'g [(Tensor, Tensor)]>,
        mut f: impl FnMut(&mut [f32], Option<&'g [f32]>),
    ) {
        for e in &self.entries {
            let g = grads.map(|g| &g[e.layer]);
            let l = head.layer_mut(e.layer);
            if e.kind != ParamKind::Bias {
                f(l.weight_mut().as_mut_slice(), g.map(|g| g.0.as_slice()));
            }
            if e.kind != ParamKind::Weights {
                f(l.bias_mut().as_mut_slice(), g.map(|g| g.1.as_slice()));
            }
        }
    }

    /// Global flat-parameter index of each selected scalar, in `δ`
    /// order — position `i` of the selection's flat vector lives at
    /// `global_indices(head)[i]` of the whole-model flat layout (layers
    /// in order, weights row-major before bias; the layout
    /// [`FcHead::layer_flat_params`] concatenates and the deployed
    /// integrity monitors address).
    ///
    /// Strictly ascending, because entries are sorted by layer and each
    /// region is emitted in storage order.
    pub fn global_indices(&self, head: &FcHead) -> Vec<usize> {
        let layer_base: Vec<usize> = (0..head.num_layers())
            .scan(0usize, |acc, i| {
                let base = *acc;
                *acc += head.layer_param_count(i);
                Some(base)
            })
            .collect();
        let mut out = Vec::with_capacity(self.dim(head));
        for e in &self.entries {
            let l = head.layer(e.layer);
            let base = layer_base[e.layer];
            let nw = l.weight().numel();
            let nb = l.bias().numel();
            match e.kind {
                ParamKind::Weights => out.extend(base..base + nw),
                ParamKind::Bias => out.extend(base + nw..base + nw + nb),
                ParamKind::Both => out.extend(base..base + nw + nb),
            }
        }
        out
    }

    /// Extracts the selected regions from per-layer `(dW, db)` gradients
    /// returned by [`FcHead::logit_backward`] called with
    /// `start = self.start_layer()`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not cover the selected layers.
    pub fn gather_grads(&self, grads: &[(Tensor, Tensor)], start: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.gather_grads_into(grads, start, &mut out);
        out
    }

    /// [`ParamSelection::gather_grads`] into a reusable vector (cleared
    /// and refilled; allocation-free once capacity is warm).
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not cover the selected layers.
    pub fn gather_grads_into(&self, grads: &[(Tensor, Tensor)], start: usize, out: &mut Vec<f32>) {
        out.clear();
        for e in &self.entries {
            assert!(
                e.layer >= start,
                "gradient list starts after selected layer"
            );
            let (dw, db) = &grads[e.layer - start];
            match e.kind {
                ParamKind::Weights => out.extend_from_slice(dw.as_slice()),
                ParamKind::Bias => out.extend_from_slice(db.as_slice()),
                ParamKind::Both => {
                    out.extend_from_slice(dw.as_slice());
                    out.extend_from_slice(db.as_slice());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    fn head() -> FcHead {
        let mut rng = Prng::new(5);
        FcHead::from_dims(&[6, 5, 4], &mut rng)
    }

    #[test]
    fn dims_per_kind() {
        let h = head();
        assert_eq!(ParamSelection::layer(0, ParamKind::Weights).dim(&h), 30);
        assert_eq!(ParamSelection::layer(0, ParamKind::Bias).dim(&h), 5);
        assert_eq!(ParamSelection::layer(0, ParamKind::Both).dim(&h), 35);
        assert_eq!(ParamSelection::last_layer(&h).dim(&h), 24);
        assert_eq!(ParamSelection::all_layers(&h).dim(&h), 59);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut h = head();
        let sel = ParamSelection::all_layers(&h);
        let theta = sel.gather(&h);
        let modified: Vec<f32> = theta.iter().map(|x| x + 1.0).collect();
        sel.scatter(&mut h, &modified);
        assert_eq!(sel.gather(&h), modified);
    }

    #[test]
    fn scatter_touches_only_selected_regions() {
        let mut h = head();
        let before_w0 = h.layer(0).weight().clone();
        let sel = ParamSelection::layer(1, ParamKind::Bias);
        let zeros = vec![0.0; sel.dim(&h)];
        sel.scatter(&mut h, &zeros);
        assert_eq!(h.layer(0).weight(), &before_w0, "unselected layer modified");
        assert!(h.layer(1).bias().as_slice().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn start_layer_is_min() {
        let sel = ParamSelection::from_entries(vec![
            LayerSelection {
                layer: 1,
                kind: ParamKind::Both,
            },
            LayerSelection {
                layer: 0,
                kind: ParamKind::Bias,
            },
        ]);
        assert_eq!(sel.start_layer(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate layer")]
    fn duplicate_layers_rejected() {
        ParamSelection::from_entries(vec![
            LayerSelection {
                layer: 1,
                kind: ParamKind::Both,
            },
            LayerSelection {
                layer: 1,
                kind: ParamKind::Bias,
            },
        ]);
    }

    #[test]
    fn global_indices_address_the_flat_layout() {
        let h = head(); // dims [6, 5, 4]: layer 0 = 30w + 5b, layer 1 = 20w + 4b
        let last = ParamSelection::last_layer(&h);
        let idx = last.global_indices(&h);
        assert_eq!(idx, (35..59).collect::<Vec<_>>());
        let bias0 = ParamSelection::layer(0, ParamKind::Bias);
        assert_eq!(bias0.global_indices(&h), (30..35).collect::<Vec<_>>());
        // δ-order agreement: scattering a marker through the selection
        // lands it at the global index the map claims.
        let mut marked = h.clone();
        let sel = ParamSelection::from_entries(vec![
            LayerSelection {
                layer: 0,
                kind: ParamKind::Bias,
            },
            LayerSelection {
                layer: 1,
                kind: ParamKind::Both,
            },
        ]);
        let mut vals = sel.gather(&marked);
        vals[7] = 1234.5;
        sel.scatter(&mut marked, &vals);
        let flat: Vec<f32> = (0..marked.num_layers())
            .flat_map(|i| marked.layer_flat_params(i))
            .collect();
        assert_eq!(flat[sel.global_indices(&h)[7]], 1234.5);
        // Strictly ascending — required by the block-range builder.
        let all = ParamSelection::all_layers(&h).global_indices(&h);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(all.len(), h.param_count());
    }

    #[test]
    fn gather_grads_selects_regions() {
        let grads = vec![
            (Tensor::full(&[4, 5], 2.0), Tensor::full(&[4], 3.0)), // layer 1
        ];
        let sel = ParamSelection::layer(1, ParamKind::Bias);
        assert_eq!(sel.gather_grads(&grads, 1), vec![3.0; 4]);
        let sel_both = ParamSelection::layer(1, ParamKind::Both);
        let flat = sel_both.gather_grads(&grads, 1);
        assert_eq!(flat.len(), 24);
        assert_eq!(flat[0], 2.0);
        assert_eq!(flat[23], 3.0);
    }
}
