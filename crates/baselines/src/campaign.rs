//! SBA and GDA as first-class campaign methods.
//!
//! The paper's §5.4 comparison runs the fault sneaking attack and the
//! ICCAD'17 baselines against the *same* fault requirements. These
//! adapters implement [`fsa_attack::campaign::AttackMethod`] for
//! [`SbaAttack`] and [`GdaAttack`], so `Campaign::run_method` sweeps
//! either over the exact scenario matrix (same working-set draws, same
//! targets) the fault sneaking attack ran — and the stealth arena can
//! score all three methods cell by cell on one attack×detector matrix.
//!
//! Both adapters normalize their result into the campaign's
//! [`AttackResult`] shape: `δ` is the difference of the selection's
//! flat parameters before/after the attack, and the keep-set counters
//! are measured by the same [`count_satisfied`] the fault sneaking
//! solver reports — neither baseline *optimizes* for the keep set
//! (that is the paper's point), but both are *measured* on it.

use crate::gda::{GdaAttack, GdaConfig};
use crate::sba::SbaAttack;
use fsa_attack::campaign::{AttackMethod, CampaignSpec, Scenario};
use fsa_attack::objective::count_satisfied;
use fsa_attack::solver::AttackResult;
use fsa_attack::{AttackSpec, ParamSelection};
use fsa_nn::head::FcHead;
use fsa_tensor::{norms, Tensor};

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

/// Copies the first `S` working rows into their own `[S, d]` tensor —
/// the only images the baselines' objectives see.
fn attack_rows(aspec: &AttackSpec) -> Tensor {
    let s = aspec.s();
    let d = aspec.features.shape()[1];
    let mut out = Tensor::zeros(&[s, d]);
    for i in 0..s {
        out.row_mut(i).copy_from_slice(aspec.features.row(i));
    }
    out
}

/// [`SbaAttack`] as a campaign method (`"sba"`).
///
/// Each scenario runs the multi-image bias attack on its `S` designated
/// images; the keep set is ignored by the attack (SBA has no stealth
/// concept) and measured afterwards.
///
/// The campaign contract requires every modification to lie inside the
/// selection; SBA shifts output-layer biases, so the selection must
/// cover the last layer's bias (the paper's main `last_layer`
/// configuration does) — [`AttackMethod::run_scenario`] panics
/// otherwise rather than report a `δ` that misses the shift.
///
/// The method holds no settings: it runs [`SbaAttack::default`], so a
/// campaign method is fully named by `"sba"` and a sharded run (which
/// resolves methods by name) reproduces an in-process one.
#[derive(Debug, Clone, Default)]
pub struct SbaMethod;

impl AttackMethod for SbaMethod {
    fn name(&self) -> String {
        "sba".to_string()
    }

    fn run_scenario(
        &self,
        head: &FcHead,
        selection: &ParamSelection,
        _spec: &CampaignSpec,
        _sc: &Scenario,
        aspec: &AttackSpec,
    ) -> AttackResult {
        use fsa_attack::ParamKind;
        let last = head.num_layers() - 1;
        assert!(
            selection
                .entries()
                .iter()
                .any(|e| e.layer == last && matches!(e.kind, ParamKind::Bias | ParamKind::Both)),
            "SBA modifies the last layer's bias; the selection must cover it"
        );
        let attacked = if aspec.s() == 0 {
            head.clone()
        } else {
            SbaAttack::default()
                .run_multi(head, &attack_rows(aspec), &aspec.targets)
                .0
        };
        measured_result(head, &attacked, selection, aspec)
    }
}

/// [`GdaAttack`] as a campaign method (`"gda"`).
///
/// Each scenario runs gradient descent (plus modification compression)
/// on its `S` designated images over the campaign's selection. There is
/// no keep-set term — the resulting collateral damage is exactly what
/// the §5.4 comparison quantifies.
///
/// Like [`SbaMethod`] it holds no settings: every scenario runs
/// [`GdaConfig::default`].
#[derive(Debug, Clone, Default)]
pub struct GdaMethod;

impl AttackMethod for GdaMethod {
    fn name(&self) -> String {
        "gda".to_string()
    }

    fn run_scenario(
        &self,
        head: &FcHead,
        selection: &ParamSelection,
        _spec: &CampaignSpec,
        _sc: &Scenario,
        aspec: &AttackSpec,
    ) -> AttackResult {
        let gda = GdaAttack::new(head, selection.clone(), GdaConfig::default());
        let result = gda.run(aspec);
        let mut attacked = head.clone();
        let theta: Vec<f32> = gda
            .theta0()
            .iter()
            .zip(&result.delta)
            .map(|(&t, &d)| t + d)
            .collect();
        selection.scatter(&mut attacked, &theta);
        measured_result(head, &attacked, selection, aspec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_attack::campaign::{Campaign, CampaignSpec};
    use fsa_nn::FeatureCache;
    use fsa_tensor::Prng;

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
        let selection = ParamSelection::last_layer(&head);
        let campaign = Campaign::new(&head, selection.clone(), cache.clone(), labels);
        let spec = CampaignSpec::grid(vec![2], vec![4]);
        let report = campaign.run_method(&spec, &SbaMethod);
        let o = &report.outcomes[0];
        let theta0 = selection.gather(&head);
        let rebuilt = fsa_attack::eval::attacked_head(&head, &selection, &theta0, &o.result.delta);
        let aspec = campaign.scenario_spec(&o.scenario, spec.c_attack, spec.c_keep);
        let logits = rebuilt.forward(&aspec.features);
        let (s, k) = count_satisfied(&aspec, &logits);
        assert_eq!((s, k), (o.result.s_success, o.result.keep_unchanged));
    }

    #[test]
    #[should_panic(expected = "selection must cover")]
    fn sba_rejects_bias_free_selections() {
        use fsa_attack::ParamKind;
        let (head, cache, labels) = victim();
        let selection = ParamSelection::layer(head.num_layers() - 1, ParamKind::Weights);
        let campaign = Campaign::new(&head, selection, cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![2]);
        let _ = campaign.run_method(&spec, &SbaMethod);
    }
}
