//! Gradient Descent Attack (GDA) with modification compression.
//!
//! Liu et al.'s stronger scheme: plain gradient descent on the selected
//! parameters until the designated inputs hit their targets, then
//! *modification compression* — repeatedly zero the smallest-magnitude
//! components of `δ` while a feasibility check (all faults still land)
//! passes. There is **no keep-set**: nothing constrains the rest of the
//! input space, which is why the fault sneaking paper measures a much
//! larger accuracy drop for \[16\] under the same fault requirement (§5.4).

use fsa_attack::objective::{evaluate_hinge_into, HingeEval};
use fsa_attack::{AttackSpec, ParamSelection};
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_tensor::{norms, Tensor};

/// GDA hyperparameters.
#[derive(Debug, Clone)]
pub struct GdaConfig {
    /// Maximum gradient descent iterations.
    pub iterations: usize,
    /// Confidence margin demanded on each fault before stopping.
    pub margin: f32,
    /// Step size relative to the mean squared activation norm (the same
    /// curvature scaling the fault sneaking solver uses).
    pub step_scale: f32,
    /// Run the compression loop after descent.
    pub compress: bool,
}

impl Default for GdaConfig {
    fn default() -> Self {
        Self {
            iterations: 500,
            margin: 1.0,
            step_scale: 0.5,
            compress: true,
        }
    }
}

/// Result of a GDA run.
#[derive(Debug, Clone)]
pub struct GdaResult {
    /// Final parameter modification over the selection's flat layout.
    pub delta: Vec<f32>,
    /// `‖δ‖₀` after compression.
    pub l0: usize,
    /// `‖δ‖₂`.
    pub l2: f32,
    /// Number of designated faults that landed.
    pub successes: usize,
    /// Gradient descent iterations actually used.
    pub iterations_used: usize,
}

/// The gradient descent attack bound to a victim head and selection.
#[derive(Debug, Clone)]
pub struct GdaAttack {
    head: FcHead,
    selection: ParamSelection,
    config: GdaConfig,
    theta0: Vec<f32>,
}

impl GdaAttack {
    /// Binds the attack.
    ///
    /// # Panics
    ///
    /// Panics if the selection is invalid for the head.
    pub fn new(head: &FcHead, selection: ParamSelection, config: GdaConfig) -> Self {
        selection.validate(head);
        let theta0 = selection.gather(head);
        Self {
            head: head.clone(),
            selection,
            config,
            theta0,
        }
    }

    /// The original selected parameters.
    pub fn theta0(&self) -> &[f32] {
        &self.theta0
    }

    /// Runs GDA for a spec. Only the first `S` (target) entries matter —
    /// GDA has no keep-set concept, so any keep entries in the spec are
    /// ignored by construction (`c_keep` is zeroed).
    ///
    /// # Panics
    ///
    /// Panics if the spec's features do not match the head.
    pub fn run(&self, spec: &AttackSpec) -> GdaResult {
        let _span = fsa_telemetry::span("gda");
        fsa_telemetry::counter("gda.runs", 1);
        assert_eq!(
            spec.features.shape()[1],
            self.head.in_features(),
            "spec features must match head input width"
        );
        // GDA objective = targets only: truncate to the first S images.
        let s = spec.s();
        if s == 0 {
            return GdaResult {
                delta: vec![0.0; self.theta0.len()],
                l0: 0,
                l2: 0.0,
                successes: 0,
                iterations_used: 0,
            };
        }
        let d = spec.features.shape()[1];
        let mut features = Tensor::zeros(&[s, d]);
        for i in 0..s {
            features.row_mut(i).copy_from_slice(spec.features.row(i));
        }
        let gda_spec = AttackSpec::new(features, spec.labels[..s].to_vec(), spec.targets.clone());

        let start = self.selection.start_layer();
        let acts = self.head.activations_before(start, &gda_spec.features);
        let mean_sq: f32 = {
            let rows = acts.shape()[0].max(1);
            (0..acts.shape()[0])
                .map(|r| acts.row(r).iter().map(|x| (x * x) as f64).sum::<f64>())
                .sum::<f64>() as f32
                / rows as f32
        };
        let step = self.config.step_scale / (2.0 * mean_sq.max(1.0));

        let mut head = self.head.clone();
        let mut delta = vec![0.0f32; self.theta0.len()];
        let mut iterations_used = self.config.iterations;
        // One cached forward per iteration feeds both the hinge and the
        // backward pass; every buffer is reused across iterations.
        let mut bufs = HeadBuffers::new();
        let mut hinge = HingeEval::default();
        let mut flat: Vec<f32> = Vec::with_capacity(delta.len());
        for iter in 0..self.config.iterations {
            self.apply(&mut head, &delta);
            let logits = head.forward_from_caching(start, &acts, &mut bufs);
            evaluate_hinge_into(&gda_spec, logits, self.config.margin, &mut hinge);
            if hinge.active == 0 {
                iterations_used = iter;
                break;
            }
            head.backward_rows(start, &acts, &hinge.logit_grad, hinge.rows(), &mut bufs);
            self.selection
                .gather_grads_into(bufs.grads(), start, &mut flat);
            for (d, g) in delta.iter_mut().zip(&flat) {
                *d -= step * g;
            }
        }

        if self.config.compress {
            self.compress(&mut head, &mut delta, &gda_spec, &acts, start);
        }

        self.apply(&mut head, &delta);
        let logits = head.forward_from(start, &acts);
        let (successes, _) = fsa_attack::objective::count_satisfied(&gda_spec, &logits);
        GdaResult {
            l0: norms::l0(&delta, 0.0),
            l2: norms::l2(&delta),
            delta,
            successes,
            iterations_used,
        }
    }

    fn apply(&self, head: &mut FcHead, delta: &[f32]) {
        let theta: Vec<f32> = self
            .theta0
            .iter()
            .zip(delta)
            .map(|(&t, &d)| t + d)
            .collect();
        self.selection.scatter(head, &theta);
    }

    /// All faults land (margin 0) under `θ0 + delta`?
    fn feasible(
        &self,
        head: &mut FcHead,
        delta: &[f32],
        spec: &AttackSpec,
        acts: &Tensor,
        start: usize,
    ) -> bool {
        self.apply(head, delta);
        let logits = head.forward_from(start, acts);
        let (hits, _) = fsa_attack::objective::count_satisfied(spec, &logits);
        hits == spec.s()
    }

    /// Liu et al.'s modification compression: sort |δ| ascending and zero
    /// the largest feasible prefix (binary search + linear polish).
    fn compress(
        &self,
        head: &mut FcHead,
        delta: &mut [f32],
        spec: &AttackSpec,
        acts: &Tensor,
        start: usize,
    ) {
        if !self.feasible(head, delta, spec, acts, start) {
            return; // nothing to preserve; compression is meaningless
        }
        let mut order: Vec<usize> = (0..delta.len()).filter(|&i| delta[i] != 0.0).collect();
        order.sort_by(|&a, &b| delta[a].abs().partial_cmp(&delta[b].abs()).unwrap());

        // Find the largest k such that zeroing order[..k] stays feasible.
        let mut lo = 0usize;
        let mut hi = order.len();
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            let mut trial = delta.to_vec();
            for &i in &order[..mid] {
                trial[i] = 0.0;
            }
            if self.feasible(head, &trial, spec, acts, start) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        for &i in &order[..lo] {
            delta[i] = 0.0;
        }
        debug_assert!(self.feasible(head, delta, spec, acts, start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Prng;

    fn setup() -> (FcHead, Tensor, Vec<usize>) {
        let mut rng = Prng::new(41);
        let head = FcHead::from_dims(&[8, 12, 5], &mut rng);
        let x = Tensor::randn(&[6, 8], 1.5, &mut rng);
        let labels = head.predict(&x);
        (head, x, labels)
    }

    #[test]
    fn gda_injects_single_fault() {
        let (head, x, labels) = setup();
        let target = (labels[0] + 1) % 5;
        let spec = AttackSpec::new(x, labels, vec![target]);
        let sel = ParamSelection::last_layer(&head);
        let result = GdaAttack::new(&head, sel, GdaConfig::default()).run(&spec);
        assert_eq!(result.successes, 1, "{result:?}");
        assert!(result.l0 > 0);
    }

    #[test]
    fn compression_reduces_l0_and_keeps_success() {
        let (head, x, labels) = setup();
        let target = (labels[0] + 2) % 5;
        let spec = AttackSpec::new(x, labels, vec![target]);
        let sel = ParamSelection::last_layer(&head);

        let no_compress = GdaAttack::new(
            &head,
            sel.clone(),
            GdaConfig {
                compress: false,
                ..Default::default()
            },
        )
        .run(&spec);
        let compressed = GdaAttack::new(&head, sel, GdaConfig::default()).run(&spec);

        assert_eq!(no_compress.successes, 1);
        assert_eq!(compressed.successes, 1);
        assert!(
            compressed.l0 <= no_compress.l0,
            "compression grew l0: {} vs {}",
            compressed.l0,
            no_compress.l0
        );
    }

    #[test]
    fn multi_target_gda() {
        let (head, x, labels) = setup();
        let targets: Vec<usize> = labels.iter().take(3).map(|&l| (l + 1) % 5).collect();
        let spec = AttackSpec::new(x, labels, targets);
        let sel = ParamSelection::last_layer(&head);
        let result = GdaAttack::new(&head, sel, GdaConfig::default()).run(&spec);
        assert_eq!(result.successes, 3, "{result:?}");
    }

    #[test]
    fn keep_entries_are_ignored() {
        // GDA with S=0 does nothing at all.
        let (head, x, labels) = setup();
        let spec = AttackSpec::new(x, labels, vec![]);
        let sel = ParamSelection::last_layer(&head);
        let result = GdaAttack::new(&head, sel, GdaConfig::default()).run(&spec);
        assert_eq!(result.l0, 0);
        assert_eq!(result.iterations_used, 0);
    }
}
