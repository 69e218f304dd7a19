//! The ADMM attack loop (paper Sec. 4).

use crate::campaign::{check_weight, SpecError};
use crate::eval;
use crate::objective::{count_satisfied, evaluate_hinge_into, HingeEval};
use crate::refine::{refine_on_support, RefineConfig};
use crate::selection::ParamSelection;
use crate::spec::AttackSpec;
use crate::stealth;
use fsa_admm::prox::{block_hard_threshold, block_soft_threshold, block_soft_threshold_grouped};
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_tensor::linalg::avx_available;
use fsa_tensor::{norms, parallel};

/// One ADMM iteration's diagnostics. Its index is its position in
/// [`AttackResult::admm_history`]; the penalty is the run's fixed
/// [`AttackConfig::rho`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterStats {
    /// Total hinge objective at the iteration's δ-step.
    pub objective: f32,
    /// `‖z − δ‖₂` after the updates.
    pub primal_residual: f32,
    /// `ρ‖δ^{k+1} − δᵏ‖₂`.
    pub dual_residual: f32,
}

/// Which measurement `D(δ)` the attack minimizes (paper eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Norm {
    /// `‖δ‖₀` — number of modified parameters (hardware cost).
    L0,
    /// `‖δ‖₂` — magnitude of the modification.
    L2,
}

/// How the δ-step's Bregman stiffness (`αR` in paper eq. 21-22) is set.
///
/// A δ-step along an image's own hinge gradient `gᵢ` moves that image's
/// margin by `cᵢ·‖gᵢ‖² / (αR + ρ)` per iteration. Stability therefore
/// wants `αR` proportional to the *gradient leverage* `‖gᵢ‖²` of the
/// selected parameters — `≈ 2(‖a‖²+1)` for a full last-layer selection
/// but only `2` for bias-only — so the default measures it on the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stiffness {
    /// `αR = multiplier × c_max × mean‖gᵢ‖² / 2`, measured from the
    /// spec's initial per-image hinge gradients (recommended; 2.0 ≈
    /// one-logit margin movement per iteration).
    Auto(f32),
    /// Fixed `αR` product.
    Fixed(f32),
}

impl Stiffness {
    /// Resolves the stiffness for a batch with mean squared per-image
    /// hinge-gradient norm `mean_grad_sq` and maximum per-image weight
    /// `c_max`.
    pub fn resolve(&self, mean_grad_sq: f32, c_max: f32) -> f32 {
        match *self {
            Stiffness::Auto(m) => (0.5 * m * mean_grad_sq * c_max.max(f32::EPSILON)).max(1.0),
            Stiffness::Fixed(v) => v.max(1.0),
        }
    }
}

/// Hyperparameters of the fault sneaking attack.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// Norm minimized as `D(δ)`.
    pub norm: Norm,
    /// ADMM penalty ρ.
    pub rho: f32,
    /// Bregman stiffness policy (`α_paper = stiffness / R`).
    pub stiffness: Stiffness,
    /// Weight λ on `D(δ)` relative to the misclassification terms. The
    /// paper fixes λ = 1 and scales the `c_i`; exposing λ is the same
    /// degree of freedom with better-conditioned defaults.
    pub lambda: f32,
    /// Maximum ADMM iterations.
    pub iterations: usize,
    /// Confidence margin κ on the logit hinge (0 reproduces eq. 3
    /// exactly; a positive margin hardens faults against the z-step's
    /// thresholding).
    pub kappa: f32,
    /// Optional support-restricted repair pass after ADMM.
    pub refine: Option<RefineConfig>,
}

impl Default for AttackConfig {
    fn default() -> Self {
        Self {
            norm: Norm::L0,
            rho: 5.0,
            stiffness: Stiffness::Auto(2.0),
            lambda: 0.001,
            iterations: 400,
            kappa: 1.0,
            refine: Some(RefineConfig::default()),
        }
    }
}

impl AttackConfig {
    /// Default configuration for the `ℓ2` attack.
    pub fn l2() -> Self {
        Self {
            norm: Norm::L2,
            ..Default::default()
        }
    }

    /// Checks the bounds the attack needs: the ADMM penalty ρ finite and
    /// positive (the z-step's proximal operators assert `ρ > 0`, and
    /// `ρ = +∞` turns δ into NaN), and λ, κ, the stiffness value and a
    /// set refine step finite and ≥ 0 (a NaN λ, an infinite κ or a NaN
    /// refine step runs to a meaningless δ without complaint, and
    /// [`Stiffness::resolve`] would silently read a NaN or negative
    /// stiffness as 1).
    pub(crate) fn check(&self) -> Result<(), SpecError> {
        if !(self.rho.is_finite() && self.rho > 0.0) {
            return Err(SpecError::InvalidRho { rho: self.rho });
        }
        check_weight("lambda", self.lambda)?;
        check_weight("kappa", self.kappa)?;
        match self.stiffness {
            Stiffness::Auto(m) => check_weight("stiffness multiplier", m)?,
            Stiffness::Fixed(v) => check_weight("stiffness", v)?,
        }
        match self.refine.as_ref().and_then(|r| r.step) {
            Some(step) => check_weight("refine step", step),
            None => Ok(()),
        }
    }
}

/// Outcome of one attack run.
///
/// `PartialEq` compares every field, δ included, with ordinary `f32`
/// equality (so a NaN anywhere — which the solver never produces for
/// finite inputs — would compare unequal even to itself). The campaign
/// determinism tests rely on this to assert serial and concurrent runs
/// agree.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackResult {
    /// The parameter modification (the structured ADMM variable `z`,
    /// exactly sparse under `ℓ0`), over the selection's flat layout.
    pub delta: Vec<f32>,
    /// `‖δ‖₀` (exact zero count — the z-step produces true zeros).
    pub l0: usize,
    /// `‖δ‖₂`.
    pub l2: f32,
    /// How many of the `S` designated faults landed.
    pub s_success: usize,
    /// `S`.
    pub s_total: usize,
    /// How many keep-set images retained their labels.
    pub keep_unchanged: usize,
    /// `R − S`.
    pub keep_total: usize,
    /// One record per ADMM iteration, in iteration order.
    pub admm_history: Vec<IterStats>,
    /// Whether the ADMM residual tolerances were met.
    pub converged: bool,
}

impl AttackResult {
    /// Fraction of the `S` faults successfully injected (1 if `S = 0`).
    pub fn success_rate(&self) -> f32 {
        if self.s_total == 0 {
            1.0
        } else {
            self.s_success as f32 / self.s_total as f32
        }
    }

    /// Fraction of keep-set images whose labels survived (1 if empty).
    pub fn unchanged_rate(&self) -> f32 {
        if self.keep_total == 0 {
            1.0
        } else {
            self.keep_unchanged as f32 / self.keep_total as f32
        }
    }
}

/// The fault sneaking attack: a configured solver bound to a victim head
/// and a parameter selection.
///
/// The victim head is cloned; running the attack never mutates the
/// caller's model. Apply the returned `δ` with [`eval::apply_delta`].
#[derive(Debug, Clone)]
pub struct FaultSneakingAttack {
    head: FcHead,
    selection: ParamSelection,
    config: AttackConfig,
    theta0: Vec<f32>,
}

impl FaultSneakingAttack {
    /// Binds the attack to a victim head and parameter selection.
    ///
    /// # Panics
    ///
    /// Panics if the selection names layers outside the head, or the head
    /// has fewer than two classes (no label can be mistargeted).
    pub fn new(head: &FcHead, selection: ParamSelection, config: AttackConfig) -> Self {
        assert!(
            head.classes() >= 2,
            "need at least two classes to mistarget"
        );
        selection.validate(head);
        let theta0 = selection.gather(head);
        Self {
            head: head.clone(),
            selection,
            config,
            theta0,
        }
    }

    /// The original (unmodified) selected parameters `θ_sel`.
    pub fn theta0(&self) -> &[f32] {
        &self.theta0
    }

    /// The bound selection.
    pub fn selection(&self) -> &ParamSelection {
        &self.selection
    }

    /// The active configuration.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Runs the attack for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the spec's feature width does not match the head input,
    /// or any label/target is out of class range.
    pub fn run(&self, spec: &AttackSpec) -> AttackResult {
        let _span = fsa_telemetry::span("attack");
        assert_eq!(
            spec.features.shape()[1],
            self.head.in_features(),
            "spec features must match head input width"
        );
        let start = self.selection.start_layer();
        let acts = spec.activations_before(&self.head, start);
        let dim = self.selection.dim(&self.head);
        let c_max = spec.c_attack.max(spec.c_keep);
        let leverage = estimate_leverage(&self.head, &self.selection, start, &acts, spec);
        let stiffness = self.config.stiffness.resolve(leverage, c_max);

        // Detector-aware planning: the stealth objective shapes every
        // stage of the solve — checksum-block structure in the z-step,
        // a drift budget in refinement, and parity repair on the result.
        let global_indices = spec
            .stealth
            .map(|_| self.selection.global_indices(&self.head));
        let blocks = spec
            .stealth
            .zip(global_indices.as_ref())
            .map(|(s, g)| s.delta_blocks(g));
        // The drift wall's reference: the unmodified head's statistics of
        // layers `start..`, read off one truncated forward from `acts`.
        let mut bufs = HeadBuffers::new();
        let drift_reference = spec.stealth.map(|_| {
            self.head.forward_from_caching(start, &acts, &mut bufs);
            let mut reference = Vec::new();
            fsa_nn::stats::cached_forward_stats(&bufs, &mut reference);
            reference
        });

        // The linearized scaled-form ADMM (eqs. 10–22) from
        // δ⁰ = z⁰ = 0, s⁰ = 0 with a fixed ρ. Every buffer is reused
        // across iterations, so the loop is allocation-free after the
        // first one. Residuals follow Boyd et al. (2011), the paper's
        // reference [32].
        let cfg = &self.config;
        let rho = cfg.rho;
        let block_lambda = spec.stealth.map_or(0.0, |s| s.block_lambda);
        // The working head holds only the attacked layers `start..`: the
        // loop, refinement and the final evaluation all run them from
        // `acts`, so the frozen layers below are never copied. Its
        // selection names the same regions, renumbered from 0.
        let mut head = FcHead::from_linears(
            (start..self.head.num_layers())
                .map(|i| self.head.layer(i).clone())
                .collect(),
        );
        let selection = self.selection.relative_to(start);
        let mut hinge = HingeEval::default();
        // The split variables z, x = δᵏ, the scaled dual s and v = x − s;
        // the working head holds θ₀ + x throughout.
        let mut vars = AdmmVars::start(&selection, &mut head, &self.theta0);
        let step = Step {
            rho,
            stiffness,
            // The plain ℓ0 z-step is elementwise, so the pass computes the
            // next z by `hard_threshold`'s rule as it writes each vᵢ.
            l0_cut: (blocks.is_none() && cfg.norm == Norm::L0).then(|| 2.0 * cfg.lambda / rho),
            avx: avx_available(),
        };
        let mut admm_history = Vec::with_capacity(cfg.iterations);
        let mut converged = false;
        {
            let _span = fsa_telemetry::span("admm");
            let inv_sqrt_n = 1.0 / (dim.max(1) as f32).sqrt();
            for iter in 0..cfg.iterations {
                // z-step on v = δᵏ − sᵏ (eqs. 16/18, block-structured
                // under the stealth objective). The plain ℓ0 z was
                // written by the previous iteration's pass; z⁰ = prox(0)
                // is the zero vector the variables start from.
                let (z, v) = (&mut vars.z, &vars.v);
                match (&blocks, cfg.norm) {
                    (None, Norm::L0) => {
                        if iter > 0 {
                            std::mem::swap(z, &mut vars.z_next);
                        }
                    }
                    (None, Norm::L2) => block_soft_threshold(v, cfg.lambda, rho, z),
                    (Some(b), Norm::L0) => {
                        block_hard_threshold(v, cfg.lambda, block_lambda, rho, b, z)
                    }
                    (Some(b), Norm::L2) => {
                        block_soft_threshold_grouped(v, cfg.lambda, block_lambda, rho, b, z)
                    }
                }

                // δ-step: Σᵢ∇gᵢ(θ + δᵏ) over the selected parameters from
                // one cached forward that feeds both the hinge and the
                // backward pass, which visits the rows the hinge lists.
                // With no active hinge the gradient is zero and the
                // backward is skipped.
                let logits = head.forward_from_caching(0, &acts, &mut bufs);
                evaluate_hinge_into(spec, logits, cfg.kappa, &mut hinge);
                let grads = if hinge.active == 0 {
                    None
                } else {
                    head.backward_rows(0, &acts, &hinge.logit_grad, hinge.rows(), &mut bufs);
                    Some(bufs.grads())
                };
                // One pass over the selection's regions: eq. 22's δ-step
                // (the αR product resolved once per run, see
                // `Stiffness`), the dual update, the next v (and ℓ0 z),
                // θ₀ + δ^{k+1} written into the working head, and the
                // residuals ‖z − δ‖₂ and ρ‖δ^{k+1} − δᵏ‖₂ summed in f64
                // in index order.
                let (primal_sq, dual_sq) =
                    vars.pass(step, &self.theta0, &selection, &mut head, grads);
                let primal = primal_sq.sqrt() as f32;
                let dual = rho * dual_sq.sqrt() as f32;

                admm_history.push(IterStats {
                    objective: hinge.total,
                    primal_residual: primal,
                    dual_residual: dual,
                });

                if primal * inv_sqrt_n < 1e-6 && dual * inv_sqrt_n < 1e-6 {
                    converged = true;
                    break;
                }
            }
            if fsa_telemetry::enabled() {
                fsa_telemetry::counter("admm.runs", 1);
                fsa_telemetry::counter("admm.iterations", admm_history.len() as u64);
                let stop = if converged {
                    "admm.converged"
                } else {
                    "admm.hit_cap"
                };
                fsa_telemetry::counter(stop, 1);
            }
        }
        // The run's convergence summary (paper §4–5 style). Purely
        // observational: every value is read off state the loop left
        // behind, so traced runs keep their bits.
        if fsa_telemetry::enabled() {
            if let Some(last) = admm_history.last() {
                fsa_telemetry::convergence_trace(fsa_telemetry::ConvergenceTrace {
                    ctx: String::new(),
                    name: "admm".to_string(),
                    iters: admm_history.len() as u32,
                    converged,
                    objective: last.objective,
                    primal: last.primal_residual,
                    dual: last.dual_residual,
                    support: vars.z.iter().filter(|&&w| w != 0.0).count() as u32,
                    keep_violations: hinge.active_keep(spec.s()) as u32,
                });
            }
        }

        // The structured variable z is the attack's answer: it is exactly
        // sparse under ℓ0 (hard-thresholded) and exactly shrunk under ℓ2.
        let mut delta = vars.z;

        // Hard checksum-block cap: prune δ to the highest-energy blocks
        // *before* refinement, so the refinement pass recovers fault
        // success on the support the audit budget allows.
        if let Some((s, b)) = spec.stealth.zip(blocks.as_ref()) {
            stealth::prune_to_block_budget(&mut delta, b, s.max_dirty_blocks);
        }

        // Refinement and the final evaluation reuse the ADMM working
        // head: each first scatters θ + δ over the whole selection, and
        // nothing writes parameters outside it, so the copy is exact.
        if let Some(refine_cfg) = &self.config.refine {
            let drift = spec
                .stealth
                .zip(drift_reference.as_ref())
                .map(|(s, r)| (r.as_slice(), s.drift_budget));
            refine_on_support(
                &mut head,
                &selection,
                &self.theta0,
                spec,
                &acts,
                self.config.kappa,
                stiffness,
                refine_cfg,
                drift,
                &mut delta,
            );
        }

        // Parity-even flip planning: pair/pad the compiled plan's per-row
        // bit flips so the DRAM parity monitor sees nothing. Runs after
        // refinement (which moves values) and before the final success
        // measurement (pads may cost a marginal fault its margin — that
        // must show in the reported counts).
        if let Some((s, g)) = spec.stealth.zip(global_indices.as_ref()) {
            let layout = s.whole_model_layout(self.head.param_count());
            stealth::repair_parity_f32(&mut delta, &self.theta0, g, &layout);
        }

        // Final evaluation with θ + δ applied.
        eval::apply_delta(&mut head, &selection, &self.theta0, &delta);
        let logits = head.forward_from(0, &acts);
        let (s_hits, keep_hits) = count_satisfied(spec, &logits);

        AttackResult {
            l0: norms::l0(&delta, 0.0),
            l2: norms::l2(&delta),
            delta,
            s_success: s_hits,
            s_total: spec.s(),
            keep_unchanged: keep_hits,
            keep_total: spec.r() - spec.s(),
            admm_history,
            converged,
        }
    }
}

/// Elements per block of the fused pass. Each block's element work runs
/// as one vectorizable loop, then the two `f64` residual chains advance
/// over the block's terms, so the chains' add latency overlaps the next
/// block's element work (one unblocked scalar loop measured slower than
/// separate passes).
const PASS_BLOCK: usize = 64;

/// The gradient of an iteration with no active hinge: `+0.0`, the same
/// term a zero-filled gradient vector subtracts.
const ZERO_GRAD: [f32; PASS_BLOCK] = [0.0; PASS_BLOCK];

/// The per-run constants of the fused pass.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// ADMM penalty ρ.
    rho: f32,
    /// The δ-step's Bregman stiffness `αR`.
    stiffness: f32,
    /// `hard_threshold`'s cut `2λ/ρ` when the pass also computes the
    /// next plain-ℓ0 z.
    l0_cut: Option<f32>,
    /// Whether the pass runs its AVX build (set only where the CPU has
    /// AVX, see [`avx_available`]).
    avx: bool,
}

/// The ADMM split variables over the selection's flat layout.
#[derive(Debug, Clone)]
struct AdmmVars {
    /// This iteration's z (the structured answer).
    z: Vec<f32>,
    /// The next iteration's plain-ℓ0 z, written by the pass.
    z_next: Vec<f32>,
    /// The linearized primal x = δᵏ.
    x: Vec<f32>,
    /// The scaled dual s.
    s: Vec<f32>,
    /// The z-step's input v = x − s.
    v: Vec<f32>,
}

/// One region's slices of the variables, the matching `θ₀` and the
/// working head's parameters, all of one length.
struct Region<'a> {
    z: &'a [f32],
    theta0: &'a [f32],
    x: &'a mut [f32],
    s: &'a mut [f32],
    v: &'a mut [f32],
    z_next: &'a mut [f32],
    theta: &'a mut [f32],
}

impl AdmmVars {
    /// δ⁰ = z⁰ = s⁰ = 0 over the selection's `theta0.len()` scalars,
    /// with θ₀ + δ⁰ written into the working head's selected parameters
    /// as an add (it turns a −0.0 into +0.0).
    fn start(selection: &ParamSelection, head: &mut FcHead, theta0: &[f32]) -> Self {
        let mut off = 0;
        selection.for_each_region(head, None, |theta, _| {
            for (t, &t0) in theta.iter_mut().zip(&theta0[off..]) {
                *t = t0 + 0.0;
            }
            off += theta.len();
        });
        let zeros = vec![0.0; theta0.len()];
        Self {
            z: zeros.clone(),
            z_next: zeros.clone(),
            x: zeros.clone(),
            s: zeros.clone(),
            v: zeros,
        }
    }

    /// One ADMM iteration's O(dim) work after the gradient, in one pass
    /// over the selection's regions: per element `i`, with `xᵢ` the old
    /// δᵢ and `gradᵢ` read from the backward's `(dW, db)` in place (`+0.0`
    /// when `grads` is `None`),
    ///
    /// - `x'ᵢ = (ρ(zᵢ + sᵢ) + αR·xᵢ − gradᵢ) / (αR + ρ)` (eq. 22),
    /// - `s'ᵢ = sᵢ + (zᵢ − x'ᵢ)` (the dual update),
    /// - `vᵢ = x'ᵢ − s'ᵢ`, and the next plain-ℓ0 z by `hard_threshold`'s
    ///   rule on it,
    /// - `θ₀ᵢ + x'ᵢ` into the working head for the next forward.
    ///
    /// Returns `(Σ (zᵢ − x'ᵢ)², Σ (x'ᵢ − xᵢ)²)` in `f64`, both chains
    /// advanced in index order. Every value comes out of the same `f32`
    /// operations, in the same order, as the separate scatter, element,
    /// residual, prox and gather passes it replaces.
    fn pass(
        &mut self,
        step: Step,
        theta0: &[f32],
        selection: &ParamSelection,
        head: &mut FcHead,
        grads: Option<&[(fsa_tensor::Tensor, fsa_tensor::Tensor)]>,
    ) -> (f64, f64) {
        let mut sums = [0.0f64; 2];
        let mut off = 0;
        selection.for_each_region(head, grads, |theta, grad| {
            let r = off..off + theta.len();
            off = r.end;
            let region = Region {
                z: &self.z[r.clone()],
                theta0: &theta0[r.clone()],
                x: &mut self.x[r.clone()],
                s: &mut self.s[r.clone()],
                v: &mut self.v[r.clone()],
                z_next: &mut self.z_next[r],
                theta,
            };
            #[cfg(target_arch = "x86_64")]
            if step.avx {
                // SAFETY: `step.avx` is set only where the CPU supports
                // AVX (`avx_available`).
                unsafe {
                    match step.l0_cut {
                        Some(_) => avx::pass_region::<true>(step, region, grad, &mut sums),
                        None => avx::pass_region::<false>(step, region, grad, &mut sums),
                    }
                }
                return;
            }
            match step.l0_cut {
                Some(_) => pass_region::<true>(step, region, grad, &mut sums),
                None => pass_region::<false>(step, region, grad, &mut sums),
            }
        });
        (sums[0], sums[1])
    }
}

/// [`AdmmVars::pass`] over one region, in [`PASS_BLOCK`] blocks.
#[inline(always)]
fn pass_region<const L0: bool>(
    step: Step,
    r: Region<'_>,
    grad: Option<&[f32]>,
    sums: &mut [f64; 2],
) {
    let n = r.theta.len();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + PASS_BLOCK).min(n);
        let grad = match grad {
            Some(g) => &g[lo..hi],
            None => &ZERO_GRAD[..hi - lo],
        };
        pass_block::<L0>(
            step,
            &r.z[lo..hi],
            grad,
            &r.theta0[lo..hi],
            &mut r.x[lo..hi],
            &mut r.s[lo..hi],
            &mut r.v[lo..hi],
            &mut r.z_next[lo..hi],
            &mut r.theta[lo..hi],
            sums,
        );
        lo = hi;
    }
}

/// One block of at most [`PASS_BLOCK`] elements: the element work as one
/// loop over slices cut to one length (no bounds checks; it vectorizes,
/// division included), then both residual chains over its terms.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pass_block<const L0: bool>(
    step: Step,
    z: &[f32],
    grad: &[f32],
    theta0: &[f32],
    x: &mut [f32],
    s: &mut [f32],
    v: &mut [f32],
    z_next: &mut [f32],
    theta: &mut [f32],
    sums: &mut [f64; 2],
) {
    let n = theta.len();
    let (z, grad, theta0) = (&z[..n], &grad[..n], &theta0[..n]);
    let (x, s, v, z_next) = (&mut x[..n], &mut s[..n], &mut v[..n], &mut z_next[..n]);
    let mut dp = [0.0f32; PASS_BLOCK];
    let mut dd = [0.0f32; PASS_BLOCK];
    let (dp, dd) = (&mut dp[..n], &mut dd[..n]);
    let (rho, stiffness) = (step.rho, step.stiffness);
    let denom = stiffness + rho;
    let cut = step.l0_cut.unwrap_or(0.0);
    for i in 0..n {
        let old = x[i];
        let new = (rho * (z[i] + s[i]) + stiffness * old - grad[i]) / denom;
        let primal = z[i] - new;
        let dual = s[i] + primal;
        let next_v = new - dual;
        x[i] = new;
        s[i] = dual;
        v[i] = next_v;
        if L0 {
            z_next[i] = if next_v * next_v > cut { next_v } else { 0.0 };
        }
        theta[i] = theta0[i] + new;
        dp[i] = primal;
        dd[i] = new - old;
    }
    let [mut primal, mut dual] = *sums;
    for (&p, &d) in dp.iter().zip(&*dd) {
        let (p, d) = (p as f64, d as f64);
        primal += p * p;
        dual += d * d;
    }
    *sums = [primal, dual];
}

/// The fused pass's AVX build (x86_64 only): [`pass_region`] compiled
/// with AVX enabled, so each block's element loop runs 8 lanes wide.
/// Lane `t` is element `t`'s own scalar operation sequence (AVX has no
/// FMA, so no multiply-add is fused), and the residual chains stay
/// scalar adds in index order: the two builds agree bit for bit
/// (`tests::fused_pass_matches_the_two_pass_oracle_bit_for_bit` runs
/// both).
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{Region, Step};

    /// [`super::pass_region`] with AVX enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX ([`super::avx_available`]). Every slice
    /// access is bounds-checked, so no other condition is needed.
    #[target_feature(enable = "avx")]
    pub(super) unsafe fn pass_region<const L0: bool>(
        step: Step,
        r: Region<'_>,
        grad: Option<&[f32]>,
        sums: &mut [f64; 2],
    ) {
        super::pass_region::<L0>(step, r, grad, sums)
    }
}

/// One-thread rate of one image's forward and backward in flops per µs
/// (see [`estimate_leverage`]).
const LEVERAGE_FLOPS_PER_US: usize = 28_000;

/// Mean squared norm of the per-image unit-weight hinge gradient over the
/// selected parameters, sampled on up to 32 images — the curvature proxy
/// behind [`Stiffness::Auto`].
///
/// Per-image terms are independent, so they dispatch as row blocks
/// (each worker owns its own head buffers and writes disjoint slots)
/// once a worker's images clear the work floor of
/// [`parallel::min_rows_for_work`]; the mean then reduces sequentially in
/// image order, keeping the estimate — and therefore the whole attack —
/// bit-identical for every thread count.
fn estimate_leverage(
    head: &FcHead,
    selection: &ParamSelection,
    start: usize,
    acts: &fsa_tensor::Tensor,
    spec: &AttackSpec,
) -> f32 {
    let r = spec.r();
    let sample = r.min(32);
    if sample == 0 {
        return 1.0;
    }
    let classes = head.classes();
    let d = acts.shape()[1];
    // One batched forward for all runner-up lookups.
    let logits = head.forward_from(start, acts);
    let mut sq = vec![0.0f64; sample];
    // One image's forward, weight gradient and input gradient over layers
    // `start..`: about 6 flops per weight. One-image passes ran at
    // 7–29 GFLOP/s on the 2-core reference host (deeper is slower); the
    // top keeps the floor conservative. A last-layer selection of the
    // paper head (12 kFLOP an image) stays on one thread.
    let image_flops: usize = (start..head.num_layers())
        .map(|l| 6 * head.layer(l).weight().numel())
        .sum();
    let min_images = parallel::min_rows_for_work(image_flops, LEVERAGE_FLOPS_PER_US);
    parallel::par_row_blocks(&mut sq, 1, min_images, |first, chunk| {
        // Per-worker buffers: the backward passes reuse one set across
        // the worker's images instead of allocating per image.
        let mut bufs = HeadBuffers::new();
        let mut g = fsa_tensor::Tensor::zeros(&[1, classes]);
        let mut one = fsa_tensor::Tensor::zeros(&[1, d]);
        let mut flat: Vec<f32> = Vec::new();
        for (local, slot) in chunk.iter_mut().enumerate() {
            let i = first + local;
            let t = spec.enforced_label(i);
            // Runner-up under the unmodified model.
            let row = logits.row(i);
            let mut j_star = if t == 0 { 1 } else { 0 };
            for (j, &z) in row.iter().enumerate() {
                if j != t && z > row[j_star] {
                    j_star = j;
                }
            }
            g.as_mut_slice().fill(0.0);
            g.row_mut(0)[j_star] = 1.0;
            g.row_mut(0)[t] = -1.0;
            one.row_mut(0).copy_from_slice(acts.row(i));
            head.forward_from_caching(start, &one, &mut bufs);
            // The one row holds the two nonzero entries.
            head.backward_rows(start, &one, &g, &[0], &mut bufs);
            selection.gather_grads_into(bufs.grads(), start, &mut flat);
            *slot = flat.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
        }
    });
    // Fixed-order reduction, independent of the partition.
    let mut total = 0.0f64;
    for &v in &sq {
        total += v;
    }
    (total / sample as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::ParamKind;
    use crate::stealth::StealthObjective;
    use fsa_admm::prox::hard_threshold;
    use fsa_memfault::dram::DramGeometry;
    use fsa_nn::head_train::{train_head, HeadTrainConfig};
    use fsa_tensor::{Prng, Tensor};

    /// A one-class head has no label to mistarget: binding the attack
    /// refuses it, where the solver's runner-up search would otherwise
    /// index past the head's one class.
    #[test]
    #[should_panic(expected = "need at least two classes to mistarget")]
    fn a_one_class_head_is_refused() {
        let mut rng = Prng::new(30);
        let head = FcHead::from_dims(&[4, 3, 1], &mut rng);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let attack = FaultSneakingAttack::new(
            &head,
            ParamSelection::last_layer(&head),
            AttackConfig::default(),
        );
        attack.run(&AttackSpec::new(x, vec![0; 5], vec![]));
    }

    /// The two-pass oracle of [`AdmmVars::pass`], step one: the element
    /// work over the gathered gradient, per element `i`, with `xᵢ` the
    /// old δᵢ,
    ///
    /// - `x'ᵢ = (ρ(zᵢ + sᵢ) + αR·xᵢ − gradᵢ) / (αR + ρ)` (eq. 22),
    /// - `dpᵢ = zᵢ − x'ᵢ`, `ddᵢ = x'ᵢ − xᵢ` (the residual terms),
    /// - `s'ᵢ = sᵢ + dpᵢ` (the dual update),
    /// - `vᵢ = x'ᵢ − s'ᵢ` and `thetaᵢ = θ₀ᵢ + x'ᵢ` for the next iteration.
    #[allow(clippy::too_many_arguments)]
    fn element_pass(
        rho: f32,
        stiffness: f32,
        z: &[f32],
        grad: &[f32],
        theta0: &[f32],
        x: &mut [f32],
        s: &mut [f32],
        v: &mut [f32],
        theta: &mut [f32],
        dp: &mut [f32],
        dd: &mut [f32],
    ) {
        let n = x.len();
        let (z, grad, theta0) = (&z[..n], &grad[..n], &theta0[..n]);
        let (s, v, theta, dp, dd) = (
            &mut s[..n],
            &mut v[..n],
            &mut theta[..n],
            &mut dp[..n],
            &mut dd[..n],
        );
        let denom = stiffness + rho;
        for i in 0..n {
            let old = x[i];
            let new = (rho * (z[i] + s[i]) + stiffness * old - grad[i]) / denom;
            let primal = z[i] - new;
            let dual = s[i] + primal;
            x[i] = new;
            s[i] = dual;
            v[i] = new - dual;
            theta[i] = theta0[i] + new;
            dp[i] = primal;
            dd[i] = new - old;
        }
    }

    /// The oracle's step two: `(Σ dpᵢ², Σ ddᵢ²)` in `f64`, both chains
    /// advanced in index order.
    fn squared_norms(dp: &[f32], dd: &[f32]) -> (f64, f64) {
        let mut primal = 0.0f64;
        let mut dual = 0.0f64;
        for (&p, &d) in dp.iter().zip(&dd[..dp.len()]) {
            let (p, d) = (p as f64, d as f64);
            primal += p * p;
            dual += d * d;
        }
        (primal, dual)
    }

    /// A small but genuinely trained head over clustered features: class k
    /// concentrates on coordinates `j ≡ k (mod 3)`.
    fn trained_head(rng: &mut Prng) -> (FcHead, Tensor, Vec<usize>) {
        let n = 90;
        let d = 12;
        let classes = 3;
        let mut x = Tensor::zeros(&[n, d]);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % classes;
            labels.push(class);
            for j in 0..d {
                let center = if j % classes == class { 2.0 } else { 0.0 };
                x.row_mut(i)[j] = rng.normal(center, 0.3);
            }
        }
        let mut head = FcHead::from_dims(&[d, 16, 16, classes], rng);
        let cfg = HeadTrainConfig {
            epochs: 30,
            batch_size: 16,
            lr: 5e-3,
            verbose: false,
        };
        train_head(&mut head, &x, &labels, &cfg, rng);
        assert!(
            head.accuracy(&x, &labels) > 0.95,
            "test fixture head failed to train"
        );
        (head, x, labels)
    }

    fn make_spec(head: &FcHead, x: &Tensor, labels: &[usize], s: usize, r: usize) -> AttackSpec {
        // Use correctly-classified images only, targets = next class.
        let preds = head.predict(x);
        let good: Vec<usize> = (0..labels.len())
            .filter(|&i| preds[i] == labels[i])
            .collect();
        assert!(good.len() >= r);
        let mut feats = Tensor::zeros(&[r, x.shape()[1]]);
        let mut lab = Vec::with_capacity(r);
        for (row, &i) in good[..r].iter().enumerate() {
            feats.row_mut(row).copy_from_slice(x.row(i));
            lab.push(labels[i]);
        }
        let targets: Vec<usize> = lab[..s].iter().map(|&l| (l + 1) % 3).collect();
        AttackSpec::new(feats, lab, targets)
    }

    #[test]
    fn l0_attack_injects_fault_and_stays_stealthy() {
        let mut rng = Prng::new(76);
        let (head, x, labels) = trained_head(&mut rng);
        let spec = make_spec(&head, &x, &labels, 1, 8);
        let attack = FaultSneakingAttack::new(
            &head,
            ParamSelection::last_layer(&head),
            AttackConfig::default(),
        );
        let result = attack.run(&spec);
        assert_eq!(result.s_success, 1, "fault not injected: {result:?}");
        assert!(result.unchanged_rate() >= 0.85, "stealth lost: {result:?}");
        assert!(
            result.l0 > 0 && result.l0 < result.delta.len(),
            "l0 = {}",
            result.l0
        );
    }

    #[test]
    fn l2_attack_trades_sparsity_for_magnitude() {
        let mut rng = Prng::new(79);
        let (head, x, labels) = trained_head(&mut rng);
        let spec = make_spec(&head, &x, &labels, 1, 8);
        let sel = ParamSelection::last_layer(&head);

        let l0_result =
            FaultSneakingAttack::new(&head, sel.clone(), AttackConfig::default()).run(&spec);
        let l2_result = FaultSneakingAttack::new(&head, sel, AttackConfig::l2()).run(&spec);

        assert_eq!(l2_result.s_success, 1, "l2 attack failed: {l2_result:?}");
        // Table 3 shape: the ℓ0 attack touches fewer parameters; the ℓ2
        // attack achieves smaller Euclidean magnitude.
        assert!(
            l0_result.l0 <= l2_result.l0,
            "l0 attack sparser: {} vs {}",
            l0_result.l0,
            l2_result.l0
        );
        assert!(
            l2_result.l2 <= l0_result.l2 * 1.05,
            "l2 attack smaller: {} vs {}",
            l2_result.l2,
            l0_result.l2
        );
    }

    #[test]
    fn zero_s_keeps_model_intact() {
        let mut rng = Prng::new(79);
        let (head, x, labels) = trained_head(&mut rng);
        let spec = make_spec(&head, &x, &labels, 0, 6);
        let attack = FaultSneakingAttack::new(
            &head,
            ParamSelection::last_layer(&head),
            AttackConfig::default(),
        );
        let result = attack.run(&spec);
        // Nothing to change: δ should be (exactly) zero and stealth perfect.
        assert_eq!(result.l0, 0, "S = 0 should not modify anything");
        assert_eq!(result.keep_unchanged, 6);
    }

    #[test]
    fn bias_only_selection_restricts_support() {
        let mut rng = Prng::new(80);
        let (head, x, labels) = trained_head(&mut rng);
        // Bias coordinates get O(c) gradients (no activation leverage), so
        // the ratchet toward the needed logit shift climbs slowly: give the
        // attack weight and iterations, as the Table 2 bias rows do.
        let spec = make_spec(&head, &x, &labels, 1, 4).with_weights(5.0, 1.0);
        let sel = ParamSelection::layer(head.num_layers() - 1, ParamKind::Bias);
        let cfg = AttackConfig {
            iterations: 1200,
            ..AttackConfig::default()
        };
        let attack = FaultSneakingAttack::new(&head, sel, cfg);
        let result = attack.run(&spec);
        assert_eq!(result.delta.len(), 3, "bias δ spans 3 classes");
        assert_eq!(result.s_success, 1, "single bias fault should land");
    }

    #[test]
    fn objective_history_decreases_overall() {
        let mut rng = Prng::new(81);
        let (head, x, labels) = trained_head(&mut rng);
        let spec = make_spec(&head, &x, &labels, 2, 10);
        let attack = FaultSneakingAttack::new(
            &head,
            ParamSelection::last_layer(&head),
            AttackConfig::default(),
        );
        let result = attack.run(&spec);
        let hist: Vec<f32> = result.admm_history.iter().map(|it| it.objective).collect();
        assert!(hist.len() > 5);
        let head_mean: f32 = hist[..3].iter().sum::<f32>() / 3.0;
        let tail_mean: f32 = hist[hist.len() - 3..].iter().sum::<f32>() / 3.0;
        assert!(
            tail_mean <= head_mean,
            "objective did not decrease: {head_mean} -> {tail_mean}"
        );
    }

    #[test]
    fn l0_answer_is_a_fixed_point_of_its_prox() {
        let mut rng = Prng::new(83);
        let (head, x, labels) = trained_head(&mut rng);
        let spec = make_spec(&head, &x, &labels, 2, 10);
        let cfg = AttackConfig {
            refine: None,
            ..AttackConfig::default()
        };
        let result =
            FaultSneakingAttack::new(&head, ParamSelection::last_layer(&head), cfg.clone())
                .run(&spec);
        assert!(result.l0 > 0, "the attack moved nothing");
        let mut again = vec![f32::NAN; result.delta.len()];
        hard_threshold(&result.delta, cfg.lambda, cfg.rho, &mut again);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&result.delta), "z is not prox(z)");
    }

    #[test]
    fn reported_counts_match_a_whole_head_recount() {
        let mut rng = Prng::new(84);
        let (head, x, labels) = trained_head(&mut rng);
        let stealth = StealthObjective::new(
            16,
            0.5,
            DramGeometry {
                banks: 2,
                rows_per_bank: 512,
                row_bytes: 64,
            },
            0.75,
        )
        .with_block_cap(3);
        let selection = ParamSelection::last_layer(&head);
        for cfg in [AttackConfig::default(), AttackConfig::l2()] {
            for objective in [None, Some(stealth)] {
                let spec = make_spec(&head, &x, &labels, 2, 10).with_stealth(objective);
                let attack = FaultSneakingAttack::new(&head, selection.clone(), cfg.clone());
                let result = attack.run(&spec);
                let mut attacked = head.clone();
                eval::apply_delta(&mut attacked, &selection, attack.theta0(), &result.delta);
                let preds = attacked.predict(&spec.features);
                let s_hits = (0..spec.s()).filter(|&i| preds[i] == spec.targets[i]);
                let keep_hits = (spec.s()..spec.r()).filter(|&i| preds[i] == spec.labels[i]);
                let case = format!("{:?}, stealth {}", cfg.norm, objective.is_some());
                assert_eq!(result.s_success, s_hits.count(), "{case}");
                assert_eq!(result.keep_unchanged, keep_hits.count(), "{case}");
            }
        }
    }

    #[test]
    fn earlier_layer_selection_works() {
        let mut rng = Prng::new(82);
        let (head, x, labels) = trained_head(&mut rng);
        let spec = make_spec(&head, &x, &labels, 1, 6);
        let sel = ParamSelection::layer(0, ParamKind::Both);
        let result = FaultSneakingAttack::new(&head, sel, AttackConfig::default()).run(&spec);
        assert_eq!(result.s_success, 1, "first-layer attack failed: {result:?}");
    }

    /// A head of the given widths with all-zero parameters (so a layer
    /// may have zero inputs).
    fn zero_head(dims: &[usize]) -> FcHead {
        FcHead::from_linears(
            dims.windows(2)
                .map(|w| {
                    fsa_nn::linear::Linear::from_params(
                        Tensor::zeros(&[w[1], w[0]]),
                        Tensor::zeros(&[w[1]]),
                    )
                })
                .collect(),
        )
    }

    /// Selections over dims 0, 1, 7, 63, 64, 65, 2010 and two two-layer
    /// cases, covering weights-only, bias-only and both.
    fn pass_cases() -> Vec<(FcHead, ParamSelection)> {
        use crate::selection::LayerSelection;
        let one = |dims: &[usize], kind| (zero_head(dims), ParamSelection::layer(0, kind));
        vec![
            one(&[0, 3], ParamKind::Weights),
            one(&[4, 1], ParamKind::Bias),
            one(&[1, 7], ParamKind::Weights),
            one(&[9, 7], ParamKind::Weights),
            one(&[7, 8], ParamKind::Both),
            one(&[12, 5], ParamKind::Both),
            one(&[200, 10], ParamKind::Both),
            (
                zero_head(&[5, 7, 3]),
                ParamSelection::from_entries(vec![
                    LayerSelection {
                        layer: 0,
                        kind: ParamKind::Bias,
                    },
                    LayerSelection {
                        layer: 1,
                        kind: ParamKind::Both,
                    },
                ]),
            ),
            (
                zero_head(&[9, 8, 7]),
                ParamSelection::all_layers(&zero_head(&[9, 8, 7])),
            ),
        ]
    }

    /// `n` normals; with `specials`, NaN, ±Inf, −0.0 and +0.0 at
    /// positions that differ per `salt`. Without them every residual sum
    /// is finite, so a chain advanced out of order shows in its bits.
    fn values(n: usize, salt: u64, specials: bool, rng: &mut Prng) -> Vec<f32> {
        const SPECIAL: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        (0..n)
            .map(|i| match (i as u64 * 7 + salt) % 13 {
                k if specials && k < 5 => SPECIAL[k as usize],
                _ => rng.normal(0.0, 1.5),
            })
            .collect()
    }

    /// Bit patterns with every NaN read as one value: the sign and payload
    /// of a NaN computed from NaN operands are not fixed by the language
    /// (x86 returns the first operand's, and the compiler may commute an
    /// add), so the SSE and AVX builds of one expression may differ
    /// there. Every other value, −0.0 and ±Inf included, must match.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
            .collect()
    }

    /// [`bits`] for the two residual sums.
    fn sum_bits(p: f64, d: f64) -> [u64; 2] {
        [p, d].map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
    }

    /// The per-layer `(dW, db)` a backward from layer 0 would leave, with
    /// `flat` in the selected regions and NaN everywhere else (the pass
    /// must read only its own regions).
    fn grads_of(head: &FcHead, selection: &ParamSelection, flat: &[f32]) -> Vec<(Tensor, Tensor)> {
        let mut g = head.clone();
        for l in 0..g.num_layers() {
            g.layer_mut(l).weight_mut().as_mut_slice().fill(f32::NAN);
            g.layer_mut(l).bias_mut().as_mut_slice().fill(f32::NAN);
        }
        selection.scatter(&mut g, flat);
        (0..g.num_layers())
            .map(|l| (g.layer(l).weight().clone(), g.layer(l).bias().clone()))
            .collect()
    }

    /// The old loop's per-iteration passes, the fused pass's oracle: the
    /// gradient gathered out of `grads` (zeros with no active hinge),
    /// then `element_pass`, `squared_norms` and `hard_threshold` on the
    /// new v. Returns the residual sums; the next z goes to `z_next`.
    #[allow(clippy::too_many_arguments)]
    fn oracle_step(
        step: Step,
        lambda: f32,
        selection: &ParamSelection,
        grads: Option<&[(Tensor, Tensor)]>,
        theta0: &[f32],
        z: &[f32],
        vars: &mut AdmmVars,
        theta: &mut [f32],
    ) -> (f64, f64) {
        let dim = theta0.len();
        let mut grad = vec![0.0; dim];
        if let Some(g) = grads {
            selection.gather_grads_into(g, 0, &mut grad);
        }
        let (mut dp, mut dd) = (vec![0.0; dim], vec![0.0; dim]);
        element_pass(
            step.rho,
            step.stiffness,
            z,
            &grad,
            theta0,
            &mut vars.x,
            &mut vars.s,
            &mut vars.v,
            theta,
            &mut dp,
            &mut dd,
        );
        hard_threshold(&vars.v, lambda, step.rho, &mut vars.z_next);
        squared_norms(&dp, &dd)
    }

    /// The fused pass against the two-pass oracle it replaced (scatter θ,
    /// gather the gradient, `element_pass`, `squared_norms`,
    /// `hard_threshold`), bit for bit, in the safe build and (where the
    /// CPU has it) the AVX build. First on random states, with NaN, ±Inf
    /// and −0.0 in z, s, x, the gradient and θ₀ and without them, with and
    /// without the ℓ0 z fold, and with no active hinge (`+0.0`
    /// subtracted). Then over three iterations from `AdmmVars::start`,
    /// whose seed must hold θ₀ + 0.0 exactly.
    #[test]
    fn fused_pass_matches_the_two_pass_oracle_bit_for_bit() {
        let lambda = 0.02f32;
        let mut rng = Prng::new(0xF05E);
        let kernels = if avx_available() {
            vec![false, true]
        } else {
            vec![false]
        };
        for (case, (head, selection)) in pass_cases().into_iter().enumerate() {
            let dim = selection.dim(&head);
            for (specials, &avx, l0, hinge) in [true, false].into_iter().flat_map(|sp| {
                kernels.iter().flat_map(move |avx| {
                    [(true, true), (true, false), (false, true), (false, false)]
                        .map(|(l0, hinge)| (sp, avx, l0, hinge))
                })
            }) {
                let step = Step {
                    rho: 5.0,
                    stiffness: 3.25,
                    l0_cut: l0.then_some(2.0 * lambda / 5.0),
                    avx,
                };
                let mut draw = |salt| values(dim, case as u64 + salt, specials, &mut rng);
                let (theta0, z, x, s, grad) = (draw(0), draw(1), draw(2), draw(3), draw(4));
                let grads = grads_of(&head, &selection, &grad);
                let grads = hinge.then_some(&grads[..]);
                let mut fused = AdmmVars {
                    z: z.clone(),
                    z_next: vec![f32::NAN; dim],
                    x,
                    s,
                    v: vec![f32::NAN; dim],
                };
                let mut oracle = fused.clone();
                let mut fused_head = head.clone();
                let (p, d) = fused.pass(step, &theta0, &selection, &mut fused_head, grads);
                let mut theta = vec![0.0; dim];
                let (op, od) = oracle_step(
                    step,
                    lambda,
                    &selection,
                    grads,
                    &theta0,
                    &z,
                    &mut oracle,
                    &mut theta,
                );
                let mut oracle_head = head.clone();
                selection.scatter(&mut oracle_head, &theta);

                let what = format!(
                    "case {case} (dim {dim}), specials {specials}, avx {avx}, l0 {l0}, hinge {hinge}"
                );
                assert_eq!(bits(&fused.x), bits(&oracle.x), "x: {what}");
                assert_eq!(bits(&fused.s), bits(&oracle.s), "s: {what}");
                assert_eq!(bits(&fused.v), bits(&oracle.v), "v: {what}");
                assert_eq!(bits(&fused.z), bits(&z), "z moved: {what}");
                assert_eq!(
                    bits(&selection.gather(&fused_head)),
                    bits(&selection.gather(&oracle_head)),
                    "θ: {what}"
                );
                assert_eq!(sum_bits(p, d), sum_bits(op, od), "residual sums: {what}");
                if l0 {
                    assert_eq!(bits(&fused.z_next), bits(&oracle.z_next), "next z: {what}");
                }
            }

            // Three iterations from the start, the middle one without an
            // active hinge, on a head that holds θ₀ itself (−0.0s and all).
            let theta0 = values(dim, case as u64, true, &mut rng);
            let mut fused_head = head.clone();
            selection.scatter(&mut fused_head, &theta0);
            let mut fused = AdmmVars::start(&selection, &mut fused_head, &theta0);
            let mut theta: Vec<f32> = theta0.iter().map(|&t| t + 0.0).collect();
            let what = format!("case {case} (dim {dim})");
            assert_eq!(
                bits(&selection.gather(&fused_head)),
                bits(&theta),
                "seed: {what}"
            );
            let mut oracle = fused.clone();
            let step = Step {
                rho: 5.0,
                stiffness: 3.25,
                l0_cut: Some(2.0 * lambda / 5.0),
                avx: avx_available(),
            };
            for iter in 0..3u64 {
                let grad = values(dim, case as u64 + 5 + iter, false, &mut rng);
                let grads = grads_of(&head, &selection, &grad);
                let grads = (iter != 1).then_some(&grads[..]);
                if iter > 0 {
                    std::mem::swap(&mut fused.z, &mut fused.z_next);
                    std::mem::swap(&mut oracle.z, &mut oracle.z_next);
                }
                let z = oracle.z.clone();
                let (p, d) = fused.pass(step, &theta0, &selection, &mut fused_head, grads);
                let (op, od) = oracle_step(
                    step,
                    lambda,
                    &selection,
                    grads,
                    &theta0,
                    &z,
                    &mut oracle,
                    &mut theta,
                );
                let what = format!("{what}, iter {iter}");
                for (name, a, b) in [
                    ("z", &fused.z, &oracle.z),
                    ("next z", &fused.z_next, &oracle.z_next),
                    ("x", &fused.x, &oracle.x),
                    ("s", &fused.s, &oracle.s),
                    ("v", &fused.v, &oracle.v),
                ] {
                    assert_eq!(bits(a), bits(b), "{name}: {what}");
                }
                assert_eq!(
                    bits(&selection.gather(&fused_head)),
                    bits(&theta),
                    "θ: {what}"
                );
                assert_eq!(sum_bits(p, d), sum_bits(op, od), "residual sums: {what}");
            }
        }
    }
}
