//! Support-restricted repair after ADMM.
//!
//! The `ℓ0` z-step rounds small coordinates of `δ` to zero, which can cost
//! a designated fault its margin. This pass (an extension beyond the paper,
//! disabled by setting [`crate::AttackConfig::refine`] to `None`) fixes the
//! support chosen by ADMM and runs a few projected subgradient steps on the
//! hinge objective *within that support*: the `ℓ0` norm cannot grow, only
//! the surviving coordinates move.

use crate::objective::{evaluate_hinge_into, HingeEval};
use crate::selection::ParamSelection;
use crate::spec::AttackSpec;
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_nn::stats::{cached_forward_stats, max_normalized_drift, ActivationStats};
use fsa_tensor::Tensor;

/// Runs at most `iterations` steps of the repair pass in place on
/// `delta`, each of size `1 / (alpha + 1)` for the attack's resolved
/// Bregman stiffness `alpha`.
///
/// Zero coordinates of `delta` stay exactly zero; the pass stops early
/// once every hinge is inactive (all faults placed with margin κ). Each
/// step runs one truncated forward from `start = selection.start_layer()`
/// over `acts` (the inputs to that layer) and one backward.
///
/// When `drift` is `Some((reference, budget))` the pass additionally
/// budgets against the activation-drift monitor. `reference` holds the
/// unmodified head's [`ActivationStats`] of layers `start..` on
/// `spec.features`, as [`cached_forward_stats`] reads them off a forward
/// from `acts`. After every step the attacked head's statistics — read
/// off the forward the next step runs anyway, plus one more forward after
/// the last step — are compared to `reference` via
/// [`fsa_nn::stats::max_normalized_drift`], the formula the deployed
/// drift detector scores; a step that exceeds `budget`, or makes any
/// layer's drift NaN, is reverted, ending the pass. Layers below `start`
/// hold no selected parameter, so their statistics equal the reference
/// bit for bit: finite ones cannot raise the maximum, so the decision is
/// the whole-head monitor's, and non-finite ones (a probe the clean head
/// already maps to NaN) are left out. The check is a
/// fixed-order reduction of deterministic layer outputs, so it never
/// weakens the bit-determinism guarantee.
///
/// Returns the number of iterations executed.
///
/// # Panics
///
/// Panics if a `drift` reference does not hold one entry per layer
/// `start..`.
#[allow(clippy::too_many_arguments)]
pub fn refine_on_support(
    head: &mut FcHead,
    selection: &ParamSelection,
    theta0: &[f32],
    spec: &AttackSpec,
    acts: &Tensor,
    kappa: f32,
    alpha: f32,
    iterations: usize,
    drift: Option<(&[ActivationStats], f32)>,
    delta: &mut [f32],
) -> usize {
    let _span = fsa_telemetry::span("refine");
    let start = selection.start_layer();
    if let Some((reference, _)) = drift {
        assert_eq!(
            reference.len(),
            head.num_layers() - start,
            "drift reference must cover layers {start}.. of the head (one entry per layer)"
        );
    }
    let support: Vec<usize> = delta
        .iter()
        .enumerate()
        .filter_map(|(i, &d)| (d != 0.0).then_some(i))
        .collect();
    if support.is_empty() {
        return 0;
    }
    let record = |executed: usize| {
        if fsa_telemetry::enabled() {
            fsa_telemetry::counter("refine.runs", 1);
            fsa_telemetry::counter("refine.iterations", executed as u64);
        }
    };
    let step = 1.0 / (alpha + 1.0);
    // All per-iteration state is hoisted here; the loop allocates nothing.
    let mut theta = vec![0.0f32; delta.len()];
    let mut bufs = HeadBuffers::new();
    let mut hinge = HingeEval::default();
    let mut flat: Vec<f32> = Vec::with_capacity(delta.len());
    let mut prev: Vec<f32> = Vec::with_capacity(support.len());
    let mut now: Vec<ActivationStats> = Vec::with_capacity(head.num_layers() - start);
    // Pass `iter` forwards θ + δ after `iter` steps; with a drift budget
    // one extra pass checks the last step.
    let passes = iterations + usize::from(drift.is_some());
    for iter in 0..passes {
        for i in 0..delta.len() {
            theta[i] = theta0[i] + delta[i];
        }
        selection.scatter(head, &theta);
        head.forward_from_caching(start, acts, &mut bufs);
        if let Some((reference, budget)) = drift.filter(|_| iter > 0) {
            cached_forward_stats(&bufs, &mut now);
            if max_normalized_drift(&now, reference) > f64::from(budget) {
                // The previous step crossed the monitor's budget: undo it
                // and stop — the iterate before it is the best compliant one.
                for (k, &i) in support.iter().enumerate() {
                    delta[i] = prev[k];
                }
                fsa_telemetry::counter("refine.drift_stops", 1);
                record(iter);
                return iter;
            }
        }
        if iter == iterations {
            break;
        }
        evaluate_hinge_into(spec, bufs.logits(), kappa, &mut hinge);
        if hinge.active == 0 {
            record(iter);
            return iter;
        }
        head.backward_rows(start, acts, &hinge.logit_grad, hinge.rows(), &mut bufs);
        selection.gather_grads_into(bufs.grads(), start, &mut flat);
        if drift.is_some() {
            // Snapshot the support before stepping: `(d − s) + s` does
            // not round-trip in f32, so a revert must restore bits.
            prev.clear();
            prev.extend(support.iter().map(|&i| delta[i]));
        }
        for &i in &support {
            delta[i] -= step * flat[i];
        }
    }
    record(iterations);
    iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::apply_delta;
    use crate::selection::ParamKind;
    use fsa_nn::stats::head_forward_stats;
    use fsa_tensor::Prng;

    /// The two-pass loop this module ran before the wall read the
    /// truncated forward: after every step, scatter θ + δ again and run
    /// the whole head from `spec.features`, then score layers `start..`
    /// against that part of a whole-head `reference`. Returns the
    /// iteration count and whether the drift wall stopped the pass.
    #[allow(clippy::too_many_arguments)]
    fn two_pass_oracle(
        head: &mut FcHead,
        selection: &ParamSelection,
        theta0: &[f32],
        spec: &AttackSpec,
        acts: &Tensor,
        kappa: f32,
        alpha: f32,
        iterations: usize,
        reference: &[ActivationStats],
        budget: f32,
        delta: &mut [f32],
    ) -> (usize, bool) {
        let start = selection.start_layer();
        let support: Vec<usize> = (0..delta.len()).filter(|&i| delta[i] != 0.0).collect();
        if support.is_empty() {
            return (0, false);
        }
        let step = 1.0 / (alpha + 1.0);
        let mut theta = vec![0.0f32; delta.len()];
        let mut bufs = HeadBuffers::new();
        let mut hinge = HingeEval::default();
        let mut flat = Vec::new();
        for iter in 0..iterations {
            for i in 0..delta.len() {
                theta[i] = theta0[i] + delta[i];
            }
            selection.scatter(head, &theta);
            let logits = head.forward_from_caching(start, acts, &mut bufs);
            evaluate_hinge_into(spec, logits, kappa, &mut hinge);
            if hinge.active == 0 {
                return (iter, false);
            }
            head.backward_from_cache(start, acts, &hinge.logit_grad, &mut bufs);
            selection.gather_grads_into(bufs.grads(), start, &mut flat);
            let prev: Vec<f32> = support.iter().map(|&i| delta[i]).collect();
            for &i in &support {
                delta[i] -= step * flat[i];
            }
            for i in 0..delta.len() {
                theta[i] = theta0[i] + delta[i];
            }
            selection.scatter(head, &theta);
            let (_, now) = head_forward_stats(head, &spec.features);
            if max_normalized_drift(&now[start..], &reference[start..]) > f64::from(budget) {
                for (k, &i) in support.iter().enumerate() {
                    delta[i] = prev[k];
                }
                return (iter + 1, true);
            }
        }
        (iterations, false)
    }

    /// A small attack instance for the oracle comparisons: a 3-layer
    /// head, eight images (one fault), a selection of `layer`, and a
    /// sparse nonzero starting δ on every third coordinate.
    struct Instance {
        head: FcHead,
        sel: ParamSelection,
        theta0: Vec<f32>,
        spec: AttackSpec,
        acts: Tensor,
        delta: Vec<f32>,
    }

    fn instance(layer: usize, poison: bool) -> Instance {
        let mut rng = Prng::new(21 + layer as u64);
        let head = FcHead::from_dims(&[4, 6, 5, 3], &mut rng);
        let mut features = Tensor::randn(&[8, 4], 1.0, &mut rng);
        let labels = head.predict(&features);
        if poison {
            // Keep rows whose every layer output is non-finite: NaN and
            // ±Inf reach the layers below the selection (and above it).
            let x = features.as_mut_slice();
            x[5 * 4] = f32::NAN;
            x[6 * 4 + 1] = f32::INFINITY;
            x[7 * 4 + 2] = f32::NEG_INFINITY;
        }
        let target = (labels[0] + 1) % 3;
        let spec = AttackSpec::new(features, labels, vec![target]);
        let sel = ParamSelection::layer(layer, ParamKind::Both);
        let theta0 = sel.gather(&head);
        let acts = head.activations_before(layer, &spec.features);
        let delta = (0..sel.dim(&head))
            .map(|i| {
                if i % 3 == 0 {
                    0.02 * ((i % 7) as f32 - 3.5)
                } else {
                    0.0
                }
            })
            .collect();
        Instance {
            head,
            sel,
            theta0,
            spec,
            acts,
            delta,
        }
    }

    const KAPPA: f32 = 2.0;
    /// The oracle comparisons' pass length.
    const ITERS: usize = 12;
    /// A stiffness whose step `1 / (α + 1)` is `0.05f32`.
    const ALPHA: f32 = 19.0;

    impl Instance {
        /// Whole-head statistics of θ0 + `delta` on the spec's features.
        fn stats(&self, delta: &[f32]) -> Vec<ActivationStats> {
            let mut head = self.head.clone();
            apply_delta(&mut head, &self.sel, &self.theta0, delta);
            head_forward_stats(&head, &self.spec.features).1
        }

        /// `(δ, count)` of `refine_on_support` under `drift`.
        fn refine(
            &self,
            iterations: usize,
            drift: Option<(&[ActivationStats], f32)>,
        ) -> (Vec<f32>, usize) {
            let mut delta = self.delta.clone();
            let mut head = self.head.clone();
            let n = refine_on_support(
                &mut head,
                &self.sel,
                &self.theta0,
                &self.spec,
                &self.acts,
                KAPPA,
                ALPHA,
                iterations,
                drift,
                &mut delta,
            );
            (delta, n)
        }

        /// Whole-head drift after each of the unguarded pass's steps.
        fn drift_trajectory(&self, reference: &[ActivationStats]) -> Vec<f64> {
            (1..=ITERS)
                .map(|k| max_normalized_drift(&self.stats(&self.refine(k, None).0), reference))
                .collect()
        }

        /// Runs both loops for `iterations` steps under `budget` and
        /// asserts they agree on δ bits, the count and the drift-stop
        /// decision; returns the oracle's `(count, stopped)`.
        fn assert_matches_oracle(&self, iterations: usize, budget: f32) -> (usize, bool) {
            let start = self.sel.start_layer();
            let full = self.stats(&vec![0.0; self.delta.len()]);
            let mut want = self.delta.clone();
            let (count, stopped) = two_pass_oracle(
                &mut self.head.clone(),
                &self.sel,
                &self.theta0,
                &self.spec,
                &self.acts,
                KAPPA,
                ALPHA,
                iterations,
                &full,
                budget,
                &mut want,
            );
            let (got, n) = self.refine(iterations, Some((&full[start..], budget)));
            let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let ctx = format!("layer {start}, budget {budget}");
            assert_eq!(bits(&got), bits(&want), "δ bits differ ({ctx})");
            assert_eq!(n, count, "iteration count differs ({ctx})");
            // Without a stop the guarded pass is the unguarded one cut at
            // `n`; a stop leaves δ one step short of it.
            let moved = bits(&self.refine(n, None).0) != bits(&got);
            assert_eq!(moved, stopped, "drift-stop decision differs ({ctx})");
            (count, stopped)
        }
    }

    #[test]
    fn drift_wall_matches_the_two_pass_oracle() {
        for layer in 0..3 {
            let inst = instance(layer, false);
            let full = inst.stats(&vec![0.0; inst.delta.len()]);
            let traj = inst.drift_trajectory(&full);
            let n = ITERS;
            // A zero budget stops at the first step, a slack one never.
            assert_eq!(inst.assert_matches_oracle(n, 0.0), (1, true));
            assert_eq!(inst.assert_matches_oracle(n, 1e9), (n, false));
            // Binding mid-pass: the budget is the drift after step n/2.
            let (count, stopped) = inst.assert_matches_oracle(n, traj[n / 2 - 1] as f32);
            assert!(stopped && count > 1 && count <= n, "layer {layer}: {count}");
            // Binding only at the last step, so the check after it
            // decides: cut the pass at the last step `k > 1` that sets a
            // new drift maximum and put the budget just below it.
            let peak_before = |k: usize| traj[..k - 1].iter().copied().fold(0.0, f64::max);
            let k = (2..=n)
                .rev()
                .find(|&k| traj[k - 1] > peak_before(k))
                .expect("some step after the first raises the drift");
            let below = peak_before(k);
            let budget = ((below + traj[k - 1]) / 2.0) as f32;
            assert_eq!(
                inst.assert_matches_oracle(k, budget),
                (k, true),
                "layer {layer}"
            );
        }
    }

    #[test]
    fn drift_wall_matches_the_oracle_with_non_finite_layers_below_the_selection() {
        for layer in 1..3 {
            let inst = instance(layer, true);
            let full = inst.stats(&vec![0.0; inst.delta.len()]);
            assert!(full[..layer].iter().all(|s| s.mean.is_nan()));
            for budget in [0.0, 1e9] {
                inst.assert_matches_oracle(ITERS, budget);
            }
        }
    }

    #[test]
    fn drift_wall_stops_a_step_that_makes_a_layer_nan() {
        // An infinite step (α = −1) sends the support to ±∞ and NaN, so
        // the logits are NaN after the first step: the wall reverts it
        // under any budget.
        let inst = instance(2, false);
        let full = inst.stats(&vec![0.0; inst.delta.len()]);
        let mut delta = inst.delta.clone();
        let n = refine_on_support(
            &mut inst.head.clone(),
            &inst.sel,
            &inst.theta0,
            &inst.spec,
            &inst.acts,
            KAPPA,
            -1.0,
            ITERS,
            Some((&full[2..], 1e9)),
            &mut delta,
        );
        assert_eq!(n, 1, "the NaN step was not stopped");
        let bits = |d: &[f32]| d.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&delta), bits(&inst.delta));
    }

    #[test]
    #[should_panic(expected = "drift reference must cover layers 1..")]
    fn whole_head_drift_reference_is_rejected() {
        let inst = instance(1, false);
        let full = inst.stats(&vec![0.0; inst.delta.len()]);
        inst.refine(ITERS, Some((&full, 1.0)));
    }

    #[test]
    fn refine_preserves_support() {
        let mut rng = Prng::new(9);
        let mut head = FcHead::from_dims(&[4, 6, 3], &mut rng);
        let features = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let labels = head.predict(&features);
        let target = (labels[0] + 1) % 3;
        let spec = AttackSpec::new(features.clone(), labels, vec![target]);
        let sel = ParamSelection::layer(1, ParamKind::Both);
        let theta0 = sel.gather(&head);
        let acts = head.activations_before(1, &spec.features);

        let mut delta = vec![0.0f32; sel.dim(&head)];
        // Sparse starting support.
        delta[0] = 0.1;
        delta[5] = -0.2;
        let zero_before: Vec<usize> = delta
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d == 0.0).then_some(i))
            .collect();

        refine_on_support(
            &mut head, &sel, &theta0, &spec, &acts, 0.0, ALPHA, 40, None, &mut delta,
        );

        for &i in &zero_before {
            assert_eq!(delta[i], 0.0, "coordinate {i} left the zero set");
        }
    }

    #[test]
    fn refine_noop_on_zero_delta() {
        let mut rng = Prng::new(10);
        let mut head = FcHead::from_dims(&[4, 6, 3], &mut rng);
        let features = Tensor::randn(&[2, 4], 1.0, &mut rng);
        let labels = head.predict(&features);
        let target = (labels[0] + 1) % 3;
        let spec = AttackSpec::new(features.clone(), labels, vec![target]);
        let sel = ParamSelection::layer(1, ParamKind::Both);
        let theta0 = sel.gather(&head);
        let acts = head.activations_before(1, &spec.features);
        let mut delta = vec![0.0f32; sel.dim(&head)];
        let iters = refine_on_support(
            &mut head, &sel, &theta0, &spec, &acts, 0.0, 1.0, 60, None, &mut delta,
        );
        assert_eq!(iters, 0);
        assert!(delta.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn drift_budget_stops_and_reverts_the_offending_step() {
        let mut rng = Prng::new(11);
        let head = FcHead::from_dims(&[4, 6, 3], &mut rng);
        let features = Tensor::randn(&[4, 4], 1.0, &mut rng);
        let labels = head.predict(&features);
        let target = (labels[0] + 1) % 3;
        let spec = AttackSpec::new(features.clone(), labels, vec![target]);
        let sel = ParamSelection::layer(1, ParamKind::Both);
        let theta0 = sel.gather(&head);
        let acts = head.activations_before(1, &spec.features);
        // The reference covers the selection's layers `1..`.
        let reference = head_forward_stats(&head, &spec.features).1[1..].to_vec();

        let mut delta = vec![0.0f32; sel.dim(&head)];
        delta[0] = 0.1;
        delta[5] = -0.2;
        let start = delta.clone();

        // A zero budget forbids ANY drift: the first step must trip the
        // guard, be reverted exactly, and end the pass after 1 iteration.
        let mut guarded = head.clone();
        let iters = refine_on_support(
            &mut guarded,
            &sel,
            &theta0,
            &spec,
            &acts,
            0.0,
            ALPHA,
            40,
            Some((&reference, 0.0)),
            &mut delta,
        );
        assert_eq!(iters, 1, "a zero budget must stop at the first step");
        assert_eq!(delta, start, "the offending step must be undone");

        // A huge budget never binds: identical to the unguarded pass.
        let mut a = start.clone();
        let mut b = start.clone();
        let mut ha = head.clone();
        refine_on_support(
            &mut ha, &sel, &theta0, &spec, &acts, 0.0, ALPHA, 40, None, &mut a,
        );
        let mut hb = head.clone();
        refine_on_support(
            &mut hb,
            &sel,
            &theta0,
            &spec,
            &acts,
            0.0,
            ALPHA,
            40,
            Some((&reference, 1e9)),
            &mut b,
        );
        assert_eq!(a, b, "a slack budget must not perturb the pass");
    }
}
