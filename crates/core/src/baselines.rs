//! The baseline fault injection attacks of Liu et al., *"Fault
//! injection attack on deep neural network"* (ICCAD 2017) — reference
//! \[16\] of the fault sneaking attack paper — as campaign methods for
//! the §5.4 comparison.
//!
//! * [`SbaMethod`] — **Single Bias Attack**: bump one output-layer bias
//!   until the victim classifies a chosen input as the target. One
//!   modified parameter, but the shift moves that class's logit for
//!   *every* input, and two images with different targets need two
//!   conflicting global shifts (paper Table 2's bias rows).
//! * [`GdaMethod`] — **Gradient Descent Attack**: gradient descent on
//!   the selected parameters until the designated inputs hit their
//!   targets, then *modification compression* (zero the smallest
//!   components of `δ` while every fault still lands). There is no
//!   keep-set term, so model accuracy degrades more — the effect §5.4
//!   quantifies.
//!
//! `Campaign::run_method` sweeps either over the same scenario matrix
//! (same working-set draws, same targets) as the fault sneaking attack.
//! Neither baseline *optimizes* for the keep set (that is the paper's
//! point), but both are *measured* on it: the reported `δ` is
//! `gather(attacked) − θ₀` over the selection's flat layout, and the
//! success/keep counters come from [`count_satisfied`] on the attacked
//! head over the whole working set. Neither holds a setting: a method
//! is fully named by `"sba"` or `"gda"`, so a sharded run (which
//! resolves methods by name) reproduces an in-process one.

use crate::campaign::AttackMethod;
use crate::objective::{count_satisfied, evaluate_hinge_into, HingeEval};
use crate::selection::{ParamKind, ParamSelection};
use crate::solver::{AttackConfig, AttackResult};
use crate::spec::AttackSpec;
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_tensor::{norms, Tensor};

/// Extra logit margin SBA adds beyond the minimum shift that makes the
/// target the argmax.
const SBA_MARGIN: f32 = 0.5;
/// GDA's gradient descent iteration cap.
const GDA_ITERATIONS: usize = 500;
/// Confidence margin GDA demands on each fault before it stops.
const GDA_MARGIN: f32 = 1.0;
/// GDA's step size relative to the mean squared activation norm (the
/// same curvature scaling the fault sneaking solver uses).
const GDA_STEP_SCALE: f32 = 0.5;

/// Builds the campaign-shaped [`AttackResult`] for a baseline: `δ` over
/// the selection layout plus success/keep counters measured on the full
/// working set under the attacked head.
fn measured_result(
    head: &FcHead,
    attacked: &FcHead,
    selection: &ParamSelection,
    aspec: &AttackSpec,
) -> AttackResult {
    let theta0 = selection.gather(head);
    let theta1 = selection.gather(attacked);
    let delta: Vec<f32> = theta1.iter().zip(&theta0).map(|(&a, &b)| a - b).collect();
    let logits = attacked.forward(&aspec.features);
    let (s_success, keep_unchanged) = count_satisfied(aspec, &logits);
    AttackResult {
        l0: norms::l0(&delta, 0.0),
        l2: norms::l2(&delta),
        delta,
        s_success,
        s_total: aspec.s(),
        keep_unchanged,
        keep_total: aspec.r() - aspec.s(),
        admm_history: Vec::new(),
        converged: true,
    }
}

/// The Single Bias Attack as a campaign method (`"sba"`).
///
/// Each scenario shifts, one designated image at a time and under the
/// already shifted parameters, its target's output bias just enough
/// (plus a 0.5 margin) to make the target that image's argmax. With
/// conflicting targets later shifts override earlier ones. The keep
/// set is ignored by the attack and measured afterwards.
///
/// The campaign contract requires every modification to lie inside the
/// selection; SBA shifts output-layer biases, so the selection must
/// cover the last layer's bias (the paper's main `last_layer`
/// configuration does) — [`AttackMethod::run_scenario`] panics
/// otherwise rather than report a `δ` that misses the shift.
#[derive(Debug, Clone, Copy, Default)]
pub struct SbaMethod;

impl AttackMethod for SbaMethod {
    fn name(&self) -> String {
        "sba".to_string()
    }

    fn run_scenario(
        &self,
        head: &FcHead,
        selection: &ParamSelection,
        _config: &AttackConfig,
        aspec: &AttackSpec,
    ) -> AttackResult {
        let last = head.num_layers() - 1;
        assert!(
            selection
                .entries()
                .iter()
                .any(|e| e.layer == last && matches!(e.kind, ParamKind::Bias | ParamKind::Both)),
            "SBA modifies the last layer's bias; the selection must cover it"
        );
        let mut attacked = head.clone();
        if aspec.s() > 0 {
            let _span = fsa_telemetry::span("sba");
            fsa_telemetry::counter("sba.runs", 1);
            let d = aspec.features.shape()[1];
            for (i, &t) in aspec.targets.iter().enumerate() {
                assert!(t < attacked.classes(), "target {t} out of range");
                let img = Tensor::from_vec(aspec.features.row(i).to_vec(), &[1, d]);
                let logits = attacked.forward(&img);
                let row = logits.row(0);
                let best = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let shift = (best - row[t] + SBA_MARGIN).max(0.0);
                attacked.layer_mut(last).bias_mut().as_mut_slice()[t] += shift;
            }
        }
        measured_result(head, &attacked, selection, aspec)
    }
}

/// The Gradient Descent Attack as a campaign method (`"gda"`).
///
/// Each scenario runs gradient descent on its `S` designated images
/// over the campaign's selection — at most 500 steps, stopping once
/// every fault clears a margin of 1 — then modification compression.
/// There is no keep-set term: the resulting collateral damage is
/// exactly what the §5.4 comparison quantifies.
#[derive(Debug, Clone, Copy, Default)]
pub struct GdaMethod;

impl AttackMethod for GdaMethod {
    fn name(&self) -> String {
        "gda".to_string()
    }

    fn run_scenario(
        &self,
        head: &FcHead,
        selection: &ParamSelection,
        _config: &AttackConfig,
        aspec: &AttackSpec,
    ) -> AttackResult {
        let _span = fsa_telemetry::span("gda");
        fsa_telemetry::counter("gda.runs", 1);
        let gda = Gda::new(head, selection, aspec);
        let mut attacked = head.clone();
        let delta = if aspec.s() > 0 {
            let mut delta = gda.descend(&mut attacked);
            gda.compress(&mut attacked, &mut delta);
            delta
        } else {
            vec![0.0f32; gda.theta0.len()]
        };
        gda.apply(&mut attacked, &delta);
        measured_result(head, &attacked, selection, aspec)
    }
}

/// One GDA run's fixed inputs. Only the first `S` working images enter
/// GDA's objective; the keep entries are dropped by construction.
struct Gda<'a> {
    selection: &'a ParamSelection,
    theta0: Vec<f32>,
    /// The targets-only spec: the first `S` images, default weights.
    spec: AttackSpec,
    /// `spec`'s activations into the first attacked layer.
    acts: Tensor,
    start: usize,
}

impl<'a> Gda<'a> {
    /// # Panics
    ///
    /// Panics if the selection is invalid for the head or the spec's
    /// features do not match the head.
    fn new(head: &FcHead, selection: &'a ParamSelection, aspec: &AttackSpec) -> Self {
        selection.validate(head);
        assert_eq!(
            aspec.features.shape()[1],
            head.in_features(),
            "spec features must match head input width"
        );
        let s = aspec.s();
        let d = aspec.features.shape()[1];
        let mut features = Tensor::zeros(&[s, d]);
        for i in 0..s {
            features.row_mut(i).copy_from_slice(aspec.features.row(i));
        }
        let spec = AttackSpec::new(features, aspec.labels[..s].to_vec(), aspec.targets.clone());
        let start = selection.start_layer();
        Self {
            selection,
            theta0: selection.gather(head),
            acts: head.activations_before(start, &spec.features),
            spec,
            start,
        }
    }

    /// Scatters `θ₀ + delta` into `head`'s selected parameters.
    fn apply(&self, head: &mut FcHead, delta: &[f32]) {
        let theta: Vec<f32> = self
            .theta0
            .iter()
            .zip(delta)
            .map(|(&t, &d)| t + d)
            .collect();
        self.selection.scatter(head, &theta);
    }

    /// All faults land (margin 0) under `θ₀ + delta`?
    fn feasible(&self, head: &mut FcHead, delta: &[f32]) -> bool {
        self.apply(head, delta);
        let logits = head.forward_from(self.start, &self.acts);
        let (hits, _) = count_satisfied(&self.spec, &logits);
        hits == self.spec.s()
    }

    /// Gradient descent on the targets' hinge until every fault clears
    /// [`GDA_MARGIN`] or [`GDA_ITERATIONS`] steps ran; `head` is the
    /// working copy the steps are scattered into.
    fn descend(&self, head: &mut FcHead) -> Vec<f32> {
        let acts = &self.acts;
        let mean_sq: f32 = {
            let rows = acts.shape()[0].max(1);
            (0..acts.shape()[0])
                .map(|r| acts.row(r).iter().map(|x| (x * x) as f64).sum::<f64>())
                .sum::<f64>() as f32
                / rows as f32
        };
        let step = GDA_STEP_SCALE / (2.0 * mean_sq.max(1.0));

        let mut delta = vec![0.0f32; self.theta0.len()];
        // One cached forward per iteration feeds both the hinge and the
        // backward pass; every buffer is reused across iterations.
        let mut bufs = HeadBuffers::new();
        let mut hinge = HingeEval::default();
        let mut flat: Vec<f32> = Vec::with_capacity(delta.len());
        for _ in 0..GDA_ITERATIONS {
            self.apply(head, &delta);
            let logits = head.forward_from_caching(self.start, acts, &mut bufs);
            evaluate_hinge_into(&self.spec, logits, GDA_MARGIN, &mut hinge);
            if hinge.active == 0 {
                break;
            }
            head.backward_rows(self.start, acts, &hinge.logit_grad, hinge.rows(), &mut bufs);
            self.selection
                .gather_grads_into(bufs.grads(), self.start, &mut flat);
            for (d, g) in delta.iter_mut().zip(&flat) {
                *d -= step * g;
            }
        }
        delta
    }

    /// Liu et al.'s modification compression: sort |δ| ascending and zero
    /// the largest feasible prefix (binary search).
    fn compress(&self, head: &mut FcHead, delta: &mut [f32]) {
        if !self.feasible(head, delta) {
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
            if self.feasible(head, &trial) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        for &i in &order[..lo] {
            delta[i] = 0.0;
        }
        debug_assert!(self.feasible(head, delta));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignSpec};
    use crate::eval::attacked_head;
    use fsa_nn::FeatureCache;
    use fsa_tensor::Prng;

    fn run(method: &dyn AttackMethod, head: &FcHead, spec: &AttackSpec) -> AttackResult {
        let selection = ParamSelection::last_layer(head);
        method.run_scenario(head, &selection, &AttackConfig::default(), spec)
    }

    /// The head `result`'s δ reconstructs over the last layer.
    fn rebuilt(head: &FcHead, result: &AttackResult) -> FcHead {
        let selection = ParamSelection::last_layer(head);
        attacked_head(head, &selection, &selection.gather(head), &result.delta)
    }

    fn sba_head() -> FcHead {
        FcHead::from_dims(&[6, 8, 4], &mut Prng::new(31))
    }

    #[test]
    fn sba_lands_a_single_fault_with_one_parameter() {
        let mut rng = Prng::new(32);
        let h = sba_head();
        let x = Tensor::randn(&[1, 6], 1.0, &mut rng);
        let pred = h.predict(&x);
        let target = (pred[0] + 1) % 4;
        let result = run(
            &SbaMethod,
            &h,
            &AttackSpec::new(x.clone(), pred, vec![target]),
        );
        assert_eq!(result.s_success, 1);
        assert_eq!(result.l0, 1, "exactly one parameter differs");
        assert_eq!(rebuilt(&h, &result).predict(&x)[0], target);
    }

    #[test]
    fn sba_moves_every_inputs_target_logit_by_the_shift() {
        // The bias shift is global: every input's target logit moves by
        // it and no other logit moves at all.
        let mut rng = Prng::new(35);
        let h = sba_head();
        let x = Tensor::randn(&[1, 6], 1.0, &mut rng);
        let pred = h.predict(&x);
        let target = (pred[0] + 1) % 4;
        let result = run(&SbaMethod, &h, &AttackSpec::new(x, pred, vec![target]));
        assert_eq!(result.l0, 1);
        let shift: f32 = result.delta.iter().sum();
        assert!(shift > 0.0);
        let others = Tensor::randn(&[64, 6], 1.0, &mut rng);
        let before = h.forward(&others);
        let after = rebuilt(&h, &result).forward(&others);
        for r in 0..64 {
            for (c, (&b, &a)) in before.row(r).iter().zip(after.row(r)).enumerate() {
                if c == target {
                    let tol = 1e-5 * (1.0 + a.abs() + b.abs());
                    assert!((a - b - shift).abs() <= tol, "input {r}: {b} -> {a}");
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "input {r}, class {c} moved");
                }
            }
        }
    }

    #[test]
    fn conflicting_targets_degrade_multi_image_sba() {
        // Many images, each demanding a *different* target class: the
        // later shifts dominate the logits globally, so early faults get
        // stomped. This mirrors the paper's Table 2 bias-only failures.
        let mut rng = Prng::new(34);
        let h = sba_head();
        let n = 8;
        let x = Tensor::randn(&[n, 6], 1.0, &mut rng);
        let preds = h.predict(&x);
        let targets: Vec<usize> = preds
            .iter()
            .enumerate()
            .map(|(i, &p)| (p + 1 + (i % 3)) % 4)
            .collect();
        let result = run(&SbaMethod, &h, &AttackSpec::new(x, preds, targets));
        assert!(
            result.s_success < n,
            "conflicting multi-target SBA should not fully succeed"
        );
    }

    fn gda_setup() -> (FcHead, Tensor, Vec<usize>) {
        let mut rng = Prng::new(41);
        let head = FcHead::from_dims(&[8, 12, 5], &mut rng);
        let x = Tensor::randn(&[6, 8], 1.5, &mut rng);
        let labels = head.predict(&x);
        (head, x, labels)
    }

    #[test]
    fn gda_injects_single_fault() {
        let (head, x, labels) = gda_setup();
        let target = (labels[0] + 1) % 5;
        let result = run(&GdaMethod, &head, &AttackSpec::new(x, labels, vec![target]));
        assert_eq!(result.s_success, 1, "{result:?}");
        assert!(result.l0 > 0);
    }

    #[test]
    fn compression_lowers_l0_and_keeps_every_fault() {
        let (head, x, labels) = gda_setup();
        let targets = vec![(labels[0] + 2) % 5, (labels[1] + 1) % 5];
        let spec = AttackSpec::new(x, labels, targets);
        let selection = ParamSelection::last_layer(&head);
        let gda = Gda::new(&head, &selection, &spec);
        let mut work = head.clone();
        let mut delta = gda.descend(&mut work);
        assert!(gda.feasible(&mut work, &delta), "descent missed a fault");
        let before = norms::l0(&delta, 0.0);
        gda.compress(&mut work, &mut delta);
        let after = norms::l0(&delta, 0.0);
        assert!(after < before, "compression kept l0 at {after} of {before}");
        assert!(gda.feasible(&mut work, &delta), "compression lost a fault");
    }

    #[test]
    fn multi_target_gda() {
        let (head, x, labels) = gda_setup();
        let targets: Vec<usize> = labels.iter().take(3).map(|&l| (l + 1) % 5).collect();
        let result = run(&GdaMethod, &head, &AttackSpec::new(x, labels, targets));
        assert_eq!(result.s_success, 3, "{result:?}");
    }

    #[test]
    fn gda_without_faults_changes_nothing() {
        let (head, x, labels) = gda_setup();
        let result = run(&GdaMethod, &head, &AttackSpec::new(x, labels, vec![]));
        assert_eq!(result.l0, 0);
        assert_eq!(result.keep_unchanged, result.keep_total);
    }

    fn victim() -> (FcHead, FeatureCache, Vec<usize>) {
        let mut rng = Prng::new(77);
        let head = FcHead::from_dims(&[8, 14, 4], &mut rng);
        let pool = Tensor::randn(&[30, 8], 1.5, &mut rng);
        let labels = head.predict(&pool);
        (head, FeatureCache::from_features(pool), labels)
    }

    #[test]
    fn baselines_sweep_the_same_matrix_as_fsa() {
        let (head, cache, labels) = victim();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![3]);
        let fsa = campaign.run(&spec);
        let sba = campaign.run_method(&spec, &SbaMethod);
        let gda = campaign.run_method(&spec, &GdaMethod);
        assert_eq!(fsa.method, "fsa");
        assert_eq!(sba.method, "sba");
        assert_eq!(gda.method, "gda");
        for (a, b) in fsa.outcomes.iter().zip(&sba.outcomes) {
            assert_eq!(a.scenario, b.scenario, "matrices must be cell-aligned");
            assert_eq!(a.targets, b.targets, "draws must be method-independent");
        }
        // All three methods land the single designated fault here.
        for report in [&fsa, &sba, &gda] {
            assert_eq!(
                report.outcomes[0].result.s_success, 1,
                "{} failed the fault",
                report.method
            );
            assert_eq!(report.outcomes[0].result.s_total, 1);
            assert_eq!(report.outcomes[0].result.keep_total, 3);
        }
        // Method identity is part of the fingerprint.
        assert_ne!(fsa.fingerprint(), sba.fingerprint());
    }

    #[test]
    fn baseline_reports_are_deterministic() {
        let (head, cache, labels) = victim();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let spec = CampaignSpec::grid(vec![1, 2], vec![2]);
        for method in [&SbaMethod as &dyn AttackMethod, &GdaMethod] {
            let a = campaign.run_method(&spec, method);
            let b = campaign.run_method(&spec, method);
            assert_eq!(a, b, "{} must be pure per scenario", a.method);
        }
    }

    #[test]
    fn sba_delta_reconstructs_the_attacked_head() {
        // The campaign contract: applying δ over the selection must
        // reproduce the attacked model the method measured.
        let (head, cache, labels) = victim();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let spec = CampaignSpec::grid(vec![2], vec![4]);
        let report = campaign.run_method(&spec, &SbaMethod);
        let o = &report.outcomes[0];
        let aspec = campaign.scenario_spec(&o.scenario, spec.c_attack, spec.c_keep);
        let logits = rebuilt(&head, &o.result).forward(&aspec.features);
        let (s, k) = count_satisfied(&aspec, &logits);
        assert_eq!((s, k), (o.result.s_success, o.result.keep_unchanged));
    }

    #[test]
    #[should_panic(expected = "selection must cover")]
    fn sba_rejects_bias_free_selections() {
        let (head, cache, labels) = victim();
        let selection = ParamSelection::layer(head.num_layers() - 1, ParamKind::Weights);
        let campaign = Campaign::new(&head, selection, cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![2]);
        let _ = campaign.run_method(&spec, &SbaMethod);
    }
}
