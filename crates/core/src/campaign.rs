//! Concurrent attack-campaign engine: a scenario matrix of fault
//! sneaking attacks served over one shared victim.
//!
//! The paper's evaluation is not one attack but a *grid* of them —
//! sweeps over the number of sneaked images `S`, the preserved-set size
//! `K` (working set `R = S + K`), and the `ℓ0`/`ℓ2` sparsity budgets
//! (Tables 1–4). A [`Campaign`] runs that grid as one unit:
//!
//! * the victim's penultimate activations are extracted **once** into a
//!   shared read-only [`FeatureCache`] (the batched
//!   `Network::forward_infer` pipeline), and every scenario's working
//!   set is a row-gather from it — the conv stack never re-runs;
//! * one level up, the head layers below the selection are frozen too:
//!   the campaign runs them once over the whole pool, and each
//!   scenario's spec carries a shared handle to those activations plus
//!   its rows, so the attack gathers its inputs to the first attacked
//!   layer instead of recomputing them (see [`AttackSpec`]);
//! * scenarios dispatch through [`fsa_tensor::parallel::par_map`]:
//!   attack-level workers split the thread budget and each attack's
//!   kernel-level parallelism runs under its worker's share, so the two
//!   levels compose without oversubscription;
//! * a spec is checked against the victim before any scenario runs
//!   ([`Campaign::validate`]), so an unrunnable matrix fails on the
//!   caller's thread with a [`SpecError`], never inside a worker;
//! * every scenario is derived purely from its own parameters (seed,
//!   `S`, `K`, budget), so the full [`CampaignReport`] is **bit-identical**
//!   whether scenarios run serially or concurrently, at any
//!   `FSA_THREADS` — `tests/campaign_determinism.rs` locks this in;
//! * the *attack* is pluggable: [`Campaign::run_method`] sweeps any
//!   [`AttackMethod`] (the fault sneaking attack, or the ICCAD'17
//!   SBA/GDA baselines of [`crate::baselines`]) over the **same** matrix
//!   and draws, so cross-method comparisons are cell-aligned by
//!   construction; [`method`] resolves the three by the name their
//!   reports carry.
//!
//! # Examples
//!
//! ```
//! use fsa_attack::campaign::{Campaign, CampaignSpec, SparsityBudget};
//! use fsa_attack::{AttackConfig, ParamSelection};
//! use fsa_nn::head::FcHead;
//! use fsa_nn::FeatureCache;
//! use fsa_tensor::{Prng, Tensor};
//!
//! let mut rng = Prng::new(9);
//! let head = FcHead::from_dims(&[8, 16, 4], &mut rng);
//! // A 10-image pool; in a real campaign these rows come from one
//! // batched conv extraction over the victim (`FeatureCache::build`).
//! let pool = Tensor::randn(&[10, 8], 1.0, &mut rng);
//! let labels = head.predict(&pool);
//! let cache = FeatureCache::from_features(pool);
//!
//! // A 2×2 (S × K) scenario grid under the default ℓ0 budget.
//! let spec = CampaignSpec::grid(vec![1, 2], vec![2, 4])
//!     .with_config(AttackConfig {
//!         iterations: 60,
//!         ..AttackConfig::default()
//!     });
//! let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
//! let report = campaign.run(&spec);
//! assert_eq!(report.len(), 4);
//! assert!(report.outcomes.iter().all(|o| o.result.delta.iter().all(|d| d.is_finite())));
//! ```

pub mod wire;

use crate::baselines::{GdaMethod, SbaMethod};
use crate::precision::{Precision, QuantizedSelection};
use crate::selection::ParamSelection;
use crate::solver::{AttackConfig, AttackResult, FaultSneakingAttack, Norm};
use crate::spec::{AttackSpec, PoolPrefix, QuantPoolPrefix};
use fsa_nn::head::FcHead;
use fsa_nn::quant::QuantizedHead;
use fsa_nn::FeatureCache;
use fsa_tensor::{parallel, Prng};
use std::sync::{Arc, OnceLock};

/// One point on the sparsity axis: which norm `D(δ)` minimizes and the
/// weight `λ` on it (larger `λ` → tighter budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityBudget {
    /// Norm minimized as `D(δ)`.
    pub norm: Norm,
    /// Weight `λ` on `D(δ)` (see [`AttackConfig::lambda`]).
    pub lambda: f32,
}

impl SparsityBudget {
    /// An `ℓ0` budget (number of modified parameters).
    pub fn l0(lambda: f32) -> Self {
        Self {
            norm: Norm::L0,
            lambda,
        }
    }

    /// An `ℓ2` budget (modification magnitude).
    pub fn l2(lambda: f32) -> Self {
        Self {
            norm: Norm::L2,
            lambda,
        }
    }
}

/// The scenario matrix: every combination of the four sweep axes becomes
/// one attack instance.
///
/// Scenario order is fixed and documented — nested loops with `seeds`
/// outermost, then `budgets`, then `s_values`, then `k_values`
/// innermost — so scenario indices (and therefore reports) are stable
/// across runs and machines.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Numbers of sneaked images `S` to sweep.
    pub s_values: Vec<usize>,
    /// Preserved-set sizes `K` to sweep (working set `R = S + K`).
    pub k_values: Vec<usize>,
    /// Sparsity budgets to sweep.
    pub budgets: Vec<SparsityBudget>,
    /// Working-set sampling seeds (one full grid per seed).
    pub seeds: Vec<u64>,
    /// Base attack configuration; each scenario overrides its
    /// `norm`/`lambda` from its [`SparsityBudget`].
    pub base: AttackConfig,
    /// Weight on the `S` misclassification terms (paper eq. 5).
    pub c_attack: f32,
    /// Weight on the `K` keep terms (paper eq. 6).
    pub c_keep: f32,
    /// Storage format the campaign attacks. Under [`Precision::Int8`]
    /// every scenario's victim is the quantized model, the optimized δ
    /// is projected onto the int8 grid, and outcomes are re-measured
    /// under int8 inference (see [`Campaign::run_method`]).
    pub precision: Precision,
    /// Detector-aware planning objective applied to every scenario;
    /// `None` runs the paper's plain behavioural-stealth attack. Part of
    /// the campaign identity (mixed into report fingerprints).
    pub stealth: Option<crate::stealth::StealthObjective>,
    /// Audit-schedule seed of the randomized defense suite this
    /// campaign's scenarios are meant to be scored against (the seed
    /// `fsa_defense`'s `DefenseSuite::randomized` deploys under);
    /// `None` when the target suite is the fixed standard stack. The
    /// attack engine never reads it — the attacker is *not* given the
    /// defender's schedule — but carrying it in the spec pins the full
    /// experiment identity (mixed into report fingerprints when set)
    /// and survives the wire format for sharded execution.
    pub suite_seed: Option<u64>,
}

impl CampaignSpec {
    /// A plain `S × K` grid under the default `ℓ0` budget, one seed, and
    /// the experiment-standard weights (`c_attack = 10`, `c_keep = 1`).
    pub fn grid(s_values: Vec<usize>, k_values: Vec<usize>) -> Self {
        let base = AttackConfig::default();
        Self {
            s_values,
            k_values,
            budgets: vec![SparsityBudget::l0(base.lambda)],
            seeds: vec![42],
            base,
            c_attack: 10.0,
            c_keep: 1.0,
            precision: Precision::F32,
            stealth: None,
            suite_seed: None,
        }
    }

    /// Sets the storage format the campaign attacks.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Sets (or clears) the detector-aware planning objective.
    pub fn with_stealth(mut self, stealth: Option<crate::stealth::StealthObjective>) -> Self {
        self.stealth = stealth;
        self
    }

    /// Sets (or clears) the audit-schedule seed of the randomized
    /// defense suite the campaign is evaluated against.
    pub fn with_suite_seed(mut self, suite_seed: Option<u64>) -> Self {
        self.suite_seed = suite_seed;
        self
    }

    /// Replaces the sparsity-budget axis.
    pub fn with_budgets(mut self, budgets: Vec<SparsityBudget>) -> Self {
        self.budgets = budgets;
        self
    }

    /// Replaces the seed axis.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the base attack configuration (its `norm`/`lambda` are
    /// still overridden per scenario by the budget axis).
    pub fn with_config(mut self, base: AttackConfig) -> Self {
        self.base = base;
        self
    }

    /// Sets the misclassification/keep weights.
    pub fn with_weights(mut self, c_attack: f32, c_keep: f32) -> Self {
        self.c_attack = c_attack;
        self.c_keep = c_keep;
        self
    }

    /// Checks the base config's bounds and that each budget's λ,
    /// `c_attack` and `c_keep` are finite and ≥ 0.
    pub(crate) fn check_weights(&self) -> Result<(), SpecError> {
        self.base.check()?;
        for budget in &self.budgets {
            check_weight("budget lambda", budget.lambda)?;
        }
        check_weight("c_attack", self.c_attack)?;
        check_weight("c_keep", self.c_keep)
    }

    /// Number of scenarios in the matrix.
    pub fn len(&self) -> usize {
        self.seeds.len() * self.budgets.len() * self.s_values.len() * self.k_values.len()
    }

    /// Whether the matrix is empty (any axis empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the scenario matrix in its fixed order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.len());
        for &seed in &self.seeds {
            for &budget in &self.budgets {
                for &s in &self.s_values {
                    for &k in &self.k_values {
                        out.push(Scenario {
                            index: out.len(),
                            s,
                            k,
                            budget,
                            seed,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One cell of the scenario matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    /// Position in the campaign's fixed scenario order.
    pub index: usize,
    /// Number of sneaked images.
    pub s: usize,
    /// Preserved-set size.
    pub k: usize,
    /// Sparsity budget.
    pub budget: SparsityBudget,
    /// Working-set sampling seed.
    pub seed: u64,
}

impl Scenario {
    /// Working-set size `R = S + K`.
    pub fn r(&self) -> usize {
        self.s + self.k
    }
}

/// A scenario's sampled working set: which pool rows it attacks, their
/// reference labels, and the target labels for the first `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioDraw {
    /// Feature-cache row indices of the working set (`R` entries).
    pub rows: Vec<usize>,
    /// Reference labels, row-aligned.
    pub labels: Vec<usize>,
    /// Target labels for the first `S` rows.
    pub targets: Vec<usize>,
}

/// Why a [`CampaignSpec`] cannot run against a [`Campaign`]'s victim.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The base config's ADMM penalty ρ is not finite and positive: the
    /// z-step's proximal operators need `0 < ρ < ∞`.
    InvalidRho {
        /// The offending ρ.
        rho: f32,
    },
    /// A scenario's working set `R = S + K` is larger than the pool of
    /// correctly classified rows it samples from.
    PoolTooSmall {
        /// The first offending scenario, in matrix order.
        scenario: usize,
        /// Its working-set size.
        r: usize,
        /// Usable pool rows.
        usable: usize,
    },
    /// A weight or margin is not finite and ≥ 0: the base config's λ or
    /// κ, a budget's λ, `c_attack` or `c_keep`.
    InvalidWeight {
        /// Which value: `lambda`, `kappa`, `budget lambda`, `c_attack` or
        /// `c_keep`.
        name: &'static str,
        /// The offending value.
        value: f32,
    },
    /// The victim has a single class, so no wrong target exists.
    TooFewClasses,
    /// The stealth objective breaks a bound [`StealthObjective::new`]
    /// asserts (`block_params > 0`, and `block_lambda` and
    /// `drift_budget` finite and ≥ 0), or its DRAM geometry cannot hold
    /// the victim: a zero dimension, a row size that is not a multiple of
    /// 4 bytes, a capacity that overflows `usize`, or one below 4 bytes
    /// per head parameter.
    ///
    /// [`StealthObjective::new`]: crate::stealth::StealthObjective::new
    InvalidStealth {
        /// The offending objective.
        stealth: crate::stealth::StealthObjective,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::InvalidRho { rho } => {
                write!(f, "ADMM penalty rho = {rho} must be finite and > 0")
            }
            SpecError::PoolTooSmall {
                scenario,
                r,
                usable,
            } => write!(
                f,
                "scenario {scenario} needs R = {r} but only {usable} pool rows are usable"
            ),
            SpecError::InvalidWeight { name, value } => {
                write!(f, "{name} = {value} must be finite and >= 0")
            }
            SpecError::TooFewClasses => f.write_str("need at least two classes to mistarget"),
            SpecError::InvalidStealth { stealth: s } => write!(
                f,
                "stealth objective needs block_params > 0, finite, non-negative \
                 block_lambda and drift_budget, and a DRAM geometry with nonzero \
                 dimensions, rows a multiple of 4 bytes and room for every head \
                 parameter (got block_params = {}, block_lambda = {}, \
                 drift_budget = {}, {} banks x {} rows x {} bytes)",
                s.block_params,
                s.block_lambda,
                s.drift_budget,
                s.geometry.banks,
                s.geometry.rows_per_bank,
                s.geometry.row_bytes
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// `Ok` when `value` is finite and ≥ 0, else
/// [`SpecError::InvalidWeight`] naming it.
pub(crate) fn check_weight(name: &'static str, value: f32) -> Result<(), SpecError> {
    if value.is_finite() && value >= 0.0 {
        Ok(())
    } else {
        Err(SpecError::InvalidWeight { name, value })
    }
}

/// A parameter-modification attack the campaign engine can sweep over a
/// scenario matrix.
///
/// The engine owns working-set sampling, spec construction, and the
/// deterministic concurrent dispatch; a method only turns one scenario's
/// [`AttackSpec`] into an [`AttackResult`]. This is how the ICCAD'17
/// baselines ([`SbaMethod`] and [`GdaMethod`]) run through the same
/// matrix as the fault sneaking attack — the stealth arena's
/// three-method scoring is `run_method` calls over one [`CampaignSpec`],
/// and the §5.4 comparison calls `run_scenario` on one spec.
///
/// Contract: `run_scenario` must be a pure function of its arguments
/// (no interior mutability reachable from `&self`, no ambient
/// randomness), and every parameter it modifies must lie inside
/// `selection` — the campaign report's `δ` is interpreted over the
/// selection's flat layout, and downstream consumers (the stealth
/// arena) reconstruct the attacked model as `θ_sel + δ`.
pub trait AttackMethod: Sync {
    /// Short method identifier recorded in reports (`"fsa"`, `"sba"`,
    /// `"gda"`).
    fn name(&self) -> String;

    /// Runs one scenario: `aspec` is the scenario's sampled working set
    /// (gathered from the shared cache) and `config` the campaign's base
    /// hyperparameters with the scenario's sparsity budget applied.
    fn run_scenario(
        &self,
        head: &FcHead,
        selection: &ParamSelection,
        config: &AttackConfig,
        aspec: &AttackSpec,
    ) -> AttackResult;
}

/// The paper's own attack as a campaign method: one ADMM
/// [`FaultSneakingAttack`] per scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsaMethod;

impl AttackMethod for FsaMethod {
    fn name(&self) -> String {
        "fsa".to_string()
    }

    fn run_scenario(
        &self,
        head: &FcHead,
        selection: &ParamSelection,
        config: &AttackConfig,
        aspec: &AttackSpec,
    ) -> AttackResult {
        FaultSneakingAttack::new(head, selection.clone(), config.clone()).run(aspec)
    }
}

/// Resolves a campaign method by the name its reports carry: `"fsa"`,
/// `"sba"` or `"gda"`; `None` for any other name. The sharded executor
/// ships methods by this name.
pub fn method(name: &str) -> Option<&'static dyn AttackMethod> {
    match name {
        "fsa" => Some(&FsaMethod),
        "sba" => Some(&SbaMethod),
        "gda" => Some(&GdaMethod),
        _ => None,
    }
}

/// One finished scenario: the matrix cell and its attack result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// Target labels the scenario's `S` sneaked images were pushed to.
    pub targets: Vec<usize>,
    /// The attack's result.
    pub result: AttackResult,
}

/// Structured output of [`Campaign::run`]: one outcome per scenario, in
/// scenario order.
///
/// The report is `PartialEq` down to every δ coordinate (ordinary `f32`
/// equality — see [`AttackResult`]): two reports compare equal iff every
/// scenario produced identical results, which is exactly the property
/// the determinism tests assert between serial and concurrent execution.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Identifier of the [`AttackMethod`] that produced the outcomes
    /// (`"fsa"` for [`Campaign::run`]).
    pub method: String,
    /// Storage format the campaign attacked (copied from the spec).
    /// Under [`Precision::Int8`] every outcome's δ lies on the int8
    /// grid and its counters were measured under int8 inference.
    pub precision: Precision,
    /// Detector-aware planning objective the campaign ran under (copied
    /// from the spec); `None` means plain behavioural stealth.
    pub stealth: Option<crate::stealth::StealthObjective>,
    /// Audit-schedule seed of the randomized target suite (copied from
    /// the spec); `None` for the fixed standard stack. Mixed into the
    /// fingerprint only when set, so legacy fixed-suite fingerprints
    /// are unchanged.
    pub suite_seed: Option<u64>,
    /// Per-scenario outcomes, index-aligned with
    /// [`CampaignSpec::scenarios`].
    pub outcomes: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// Number of scenarios in the report.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Mean designated-fault success rate over all scenarios.
    pub fn mean_success_rate(&self) -> f64 {
        self.mean(|o| o.result.success_rate() as f64)
    }

    /// Mean keep-set unchanged rate over all scenarios.
    pub fn mean_unchanged_rate(&self) -> f64 {
        self.mean(|o| o.result.unchanged_rate() as f64)
    }

    /// Mean `‖δ‖₀` over all scenarios.
    pub fn mean_l0(&self) -> f64 {
        self.mean(|o| o.result.l0 as f64)
    }

    fn mean(&self, f: impl Fn(&ScenarioOutcome) -> f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(f).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Order-sensitive FNV-1a digest of every outcome's *final* state:
    /// scenario parameters, targets, and the δ bit patterns with their
    /// summary counters. Iteration histories and the `converged` flags
    /// are deliberately excluded (they are diagnostics, not results), so
    /// equal fingerprints mean — up to hash collision — identical attack
    /// outcomes, while full-report equality is what `PartialEq` checks.
    /// Handy for cross-process determinism checks and bench logs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fsa_tensor::hash::Fnv1a::new();
        h.write_bytes(self.method.as_bytes());
        h.write_u64(self.precision.tag());
        match self.stealth {
            None => h.write_u64(0),
            Some(s) => {
                h.write_u64(1);
                h.write_u64(s.block_params as u64);
                h.write_u64(u64::from(s.block_lambda.to_bits()));
                h.write_u64(s.geometry.banks as u64);
                h.write_u64(s.geometry.rows_per_bank as u64);
                h.write_u64(s.geometry.row_bytes as u64);
                h.write_u64(u64::from(s.drift_budget.to_bits()));
                h.write_u64(s.max_dirty_blocks as u64);
            }
        }
        if let Some(seed) = self.suite_seed {
            h.write_bytes(b"suite_seed");
            h.write_u64(seed);
        }
        let mut mix = |v: u64| h.write_u64(v);
        for o in &self.outcomes {
            mix(o.scenario.index as u64);
            mix(o.scenario.s as u64);
            mix(o.scenario.k as u64);
            mix(o.scenario.seed);
            mix(match o.scenario.budget.norm {
                Norm::L0 => 0,
                Norm::L2 => 1,
            });
            mix(u64::from(o.scenario.budget.lambda.to_bits()));
            for &t in &o.targets {
                mix(t as u64);
            }
            mix(o.result.l0 as u64);
            mix(u64::from(o.result.l2.to_bits()));
            mix(o.result.s_success as u64);
            mix(o.result.keep_unchanged as u64);
            for &d in &o.result.delta {
                mix(u64::from(d.to_bits()));
            }
        }
        h.finish()
    }
}

/// A campaign bound to one victim: shared head, parameter selection, and
/// feature cache.
///
/// The head and cache are read-only for the whole run; every concurrent
/// attack worker reads the same activations and clones only the small
/// head it perturbs. The head layers below the selection's start layer
/// run once over the whole pool (at construction; once more, lazily, for
/// the dequantized head and the int8 forward of a [`Precision::Int8`]
/// run), and every scenario spec shares those activations (see
/// [`AttackSpec`]).
#[derive(Debug)]
pub struct Campaign<'a> {
    head: &'a FcHead,
    selection: ParamSelection,
    cache: FeatureCache,
    labels: Vec<usize>,
    /// Pool rows the victim classifies correctly (scenarios sample from
    /// these, as the paper implicitly attacks correct images).
    usable: Vec<usize>,
    /// The pool's inputs to the start layer under `head` (`None` when
    /// the selection starts at layer 0, where they are the features).
    prefix: Option<Arc<PoolPrefix>>,
    /// What every Int8 run shares, built by the first one.
    int8: OnceLock<Int8View>,
}

/// The int8 victim of a campaign, built once: its quantized storage,
/// the dequantized `f32` head the method attacks, the selection's int8
/// layout, and the pool's inputs to the start layer under both heads.
#[derive(Debug)]
struct Int8View {
    qclean: QuantizedHead,
    deq: FcHead,
    qsel: QuantizedSelection,
    /// The dequantized head's pool prefix (what the attack gathers).
    deq_prefix: Option<Arc<PoolPrefix>>,
    /// The int8 forward's pool prefix (what the measurement gathers).
    int8_prefix: Option<QuantPoolPrefix>,
}

impl Int8View {
    fn new(head: &FcHead, selection: &ParamSelection, cache: &FeatureCache) -> Self {
        let qclean = QuantizedHead::quantize(head);
        let deq = qclean.dequantized_head();
        let qsel = QuantizedSelection::gather(&qclean, selection);
        let start = selection.start_layer();
        Self {
            deq_prefix: pool_prefix(&deq, start, cache),
            int8_prefix: (start > 0).then(|| QuantPoolPrefix::new(&qclean, start, cache)),
            qclean,
            deq,
            qsel,
        }
    }
}

/// The pool prefix for a selection starting at `start`, if any layers
/// lie below it.
fn pool_prefix(head: &FcHead, start: usize, cache: &FeatureCache) -> Option<Arc<PoolPrefix>> {
    (start > 0).then(|| Arc::new(PoolPrefix::new(head, start, cache)))
}

impl<'a> Campaign<'a> {
    /// Binds a campaign to a victim head, a parameter selection, and the
    /// shared feature cache with its pool labels.
    ///
    /// Runs one batched forward over the cache to find the
    /// correctly-classified pool rows scenarios may sample.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the cache pool size, the
    /// cache width differs from the head input, or the selection names
    /// layers outside the head.
    pub fn new(
        head: &'a FcHead,
        selection: ParamSelection,
        cache: FeatureCache,
        labels: Vec<usize>,
    ) -> Self {
        assert_eq!(
            labels.len(),
            cache.len(),
            "pool labels/feature-cache size mismatch"
        );
        assert_eq!(
            cache.dim(),
            head.in_features(),
            "feature cache width must match head input"
        );
        selection.validate(head);
        let preds = head.predict(cache.features());
        let usable = (0..labels.len())
            .filter(|&i| preds[i] == labels[i])
            .collect();
        let prefix = pool_prefix(head, selection.start_layer(), &cache);
        Self {
            head,
            selection,
            cache,
            labels,
            usable,
            prefix,
            int8: OnceLock::new(),
        }
    }

    /// The pool rows scenarios sample working sets from.
    pub fn usable(&self) -> &[usize] {
        &self.usable
    }

    /// The shared feature cache.
    pub fn cache(&self) -> &FeatureCache {
        &self.cache
    }

    /// The victim head.
    pub fn head(&self) -> &'a FcHead {
        self.head
    }

    /// The parameter selection every scenario attacks.
    pub fn selection(&self) -> &ParamSelection {
        &self.selection
    }

    /// Reference labels of the pool rows, cache-aligned.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Checks that `spec` can run against this victim: its ADMM penalty
    /// ρ is finite and positive, its weights and margin (base λ and κ,
    /// each budget's λ, `c_attack`, `c_keep`) are finite and ≥ 0, its
    /// stealth objective (if any) keeps the bounds
    /// [`crate::StealthObjective::new`] asserts and has a DRAM geometry
    /// that holds every head parameter as an `f32` word, each working set
    /// fits the usable pool, and the head has a wrong class to target.
    /// [`Campaign::run_indices`] calls this before dispatching any
    /// scenario.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsa_attack::campaign::{Campaign, CampaignSpec, SpecError};
    /// use fsa_attack::ParamSelection;
    /// use fsa_nn::head::FcHead;
    /// use fsa_nn::FeatureCache;
    /// use fsa_tensor::{Prng, Tensor};
    ///
    /// let mut rng = Prng::new(3);
    /// let head = FcHead::from_dims(&[4, 8, 3], &mut rng);
    /// let pool = Tensor::randn(&[6, 4], 1.0, &mut rng);
    /// let labels = head.predict(&pool);
    /// let campaign = Campaign::new(
    ///     &head,
    ///     ParamSelection::last_layer(&head),
    ///     FeatureCache::from_features(pool),
    ///     labels,
    /// );
    /// assert_eq!(campaign.validate(&CampaignSpec::grid(vec![1], vec![2])), Ok(()));
    /// let too_big = CampaignSpec::grid(vec![1], vec![2, 100]);
    /// assert!(matches!(
    ///     campaign.validate(&too_big),
    ///     Err(SpecError::PoolTooSmall { scenario: 1, r: 101, .. })
    /// ));
    /// ```
    pub fn validate(&self, spec: &CampaignSpec) -> Result<(), SpecError> {
        spec.check_weights()?;
        // `is_valid` first, so `capacity` cannot overflow.
        let param_bytes = self.head.param_count().saturating_mul(4);
        if let Some(stealth) = spec
            .stealth
            .filter(|s| !s.is_valid() || s.geometry.capacity() < param_bytes)
        {
            return Err(SpecError::InvalidStealth { stealth });
        }
        spec.scenarios()
            .iter()
            .try_for_each(|sc| self.check_scenario(sc))
    }

    fn check_scenario(&self, sc: &Scenario) -> Result<(), SpecError> {
        if sc.r() > self.usable.len() {
            return Err(SpecError::PoolTooSmall {
                scenario: sc.index,
                r: sc.r(),
                usable: self.usable.len(),
            });
        }
        if self.head.classes() < 2 {
            return Err(SpecError::TooFewClasses);
        }
        Ok(())
    }

    /// The deterministic working-set draw for one scenario — a function
    /// of the scenario parameters alone (never of execution order),
    /// which is what makes concurrent campaigns bit-identical to serial
    /// ones.
    ///
    /// # Panics
    ///
    /// Panics if the usable pool is smaller than the scenario's `R`, or
    /// the victim has a single class (no wrong target exists).
    pub fn scenario_draw(&self, sc: &Scenario) -> ScenarioDraw {
        self.check_scenario(sc).unwrap_or_else(|e| panic!("{e}"));
        let r = sc.r();
        let classes = self.head.classes();
        // Mix S and K into the stream so scenarios sharing a seed still
        // draw distinct working sets per (S, K) cell — but NOT the
        // budget axis: budgets under the same (seed, S, K) attack the
        // *same* draw on purpose, giving paired ℓ0-vs-ℓ2 comparisons
        // (the Table 3 shape).
        let mut rng = Prng::new(sc.seed ^ 0xA77A).fork(((sc.s as u64) << 32) | sc.k as u64);
        let chosen = rng.choose_distinct(self.usable.len(), r);
        let rows: Vec<usize> = chosen.iter().map(|&ci| self.usable[ci]).collect();
        let labels: Vec<usize> = rows.iter().map(|&i| self.labels[i]).collect();
        let targets: Vec<usize> = labels[..sc.s]
            .iter()
            .map(|&l| {
                let mut t = rng.below(classes - 1);
                if t >= l {
                    t += 1;
                }
                t
            })
            .collect();
        ScenarioDraw {
            rows,
            labels,
            targets,
        }
    }

    /// Builds the attack spec for one scenario: the scenario's
    /// [`Campaign::scenario_draw`] gathered out of the shared cache. The
    /// spec also carries a handle to the pool's activations at the
    /// selection's start layer under this campaign's head, so an attack
    /// on that head skips the frozen layers below the selection.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Campaign::scenario_draw`].
    pub fn scenario_spec(&self, sc: &Scenario, c_attack: f32, c_keep: f32) -> AttackSpec {
        self.spec_with_prefix(sc, c_attack, c_keep, self.prefix.as_ref())
    }

    fn spec_with_prefix(
        &self,
        sc: &Scenario,
        c_attack: f32,
        c_keep: f32,
        prefix: Option<&Arc<PoolPrefix>>,
    ) -> AttackSpec {
        let draw = self.scenario_draw(sc);
        AttackSpec::from_cache(&self.cache, &draw.rows, draw.labels, draw.targets)
            .with_weights(c_attack, c_keep)
            .with_prefix(prefix, draw.rows)
    }

    /// Runs the whole scenario matrix under the fault sneaking attack
    /// ([`FsaMethod`]) and returns its report.
    ///
    /// # Examples
    ///
    /// ```
    /// use fsa_attack::campaign::{Campaign, CampaignSpec};
    /// use fsa_attack::{AttackConfig, ParamSelection};
    /// use fsa_nn::head::FcHead;
    /// use fsa_nn::FeatureCache;
    /// use fsa_tensor::{Prng, Tensor};
    ///
    /// let mut rng = Prng::new(5);
    /// let head = FcHead::from_dims(&[6, 12, 3], &mut rng);
    /// let pool = Tensor::randn(&[12, 6], 1.0, &mut rng);
    /// let labels = head.predict(&pool);
    /// let campaign = Campaign::new(
    ///     &head,
    ///     ParamSelection::last_layer(&head),
    ///     FeatureCache::from_features(pool),
    ///     labels,
    /// );
    /// let spec = CampaignSpec::grid(vec![1], vec![2, 4]).with_config(AttackConfig {
    ///     iterations: 40,
    ///     ..AttackConfig::default()
    /// });
    /// let report = campaign.run(&spec);
    /// assert_eq!(report.len(), 2);
    /// // Reports are bit-deterministic: a rerun reproduces every δ.
    /// assert_eq!(campaign.run(&spec), report);
    /// ```
    pub fn run(&self, spec: &CampaignSpec) -> CampaignReport {
        self.run_method(spec, &FsaMethod)
    }

    /// Runs the whole scenario matrix under an arbitrary
    /// [`AttackMethod`] and returns its report.
    ///
    /// The matrix, working-set draws, and dispatch are identical for
    /// every method — same scenarios, same sampled images, same targets
    /// — so reports from different methods over one spec are directly
    /// comparable cell by cell (the §5.4 comparison, and the stealth
    /// arena's attack×detector matrix).
    ///
    /// Scenarios dispatch through [`fsa_tensor::parallel::par_map`]:
    /// with `N` scenarios and an active budget of `T` threads, `min(N, T)`
    /// attack-level workers run concurrently and each attack's inner
    /// kernels see `T / workers` threads — the same budget-shrinking
    /// contract every other nesting level uses, so a campaign inside a
    /// `with_budget(1, ..)` wall degrades to a serial sweep of the same
    /// bits.
    ///
    /// # Precision
    ///
    /// Under [`Precision::Int8`] the deployed victim is the
    /// post-training-quantized model: the method optimizes over its
    /// *dequantized* `f32` view (every parameter an exact grid point),
    /// the resulting δ is projected onto the representable int8 grid
    /// ([`QuantizedSelection::project`]), and success/keep counters are
    /// re-measured under the actual int8 inference path. Working-set
    /// draws still come from the `f32` reference predictions, so the
    /// F32 and Int8 rows of a sweep attack the *same* images with the
    /// same targets — cross-precision comparisons are cell-aligned by
    /// construction.
    pub fn run_method(&self, spec: &CampaignSpec, method: &dyn AttackMethod) -> CampaignReport {
        let all: Vec<usize> = (0..spec.len()).collect();
        CampaignReport {
            method: method.name(),
            precision: spec.precision,
            stealth: spec.stealth,
            suite_seed: spec.suite_seed,
            outcomes: self.run_indices(spec, method, &all),
        }
    }

    /// Runs an arbitrary subset of the scenario matrix — the execution
    /// primitive the sharded multi-process executor (`fsa-harness`)
    /// shards over worker processes.
    ///
    /// `indices` name positions in [`CampaignSpec::scenarios`] order;
    /// outcomes come back aligned with `indices`. Because every
    /// scenario is a pure function of its own matrix cell (the same
    /// property that makes concurrent campaigns bit-identical to serial
    /// ones), running the matrix in any partition — one call with all
    /// indices, one call per index, or disjoint shards merged in
    /// scenario order — produces bit-identical outcomes. [`Campaign::run_method`]
    /// is exactly this call over `0..spec.len()`.
    ///
    /// # Panics
    ///
    /// Panics on the calling thread, before any scenario runs, if any
    /// index is out of range for the spec's matrix or the spec fails
    /// [`Campaign::validate`].
    pub fn run_indices(
        &self,
        spec: &CampaignSpec,
        method: &dyn AttackMethod,
        indices: &[usize],
    ) -> Vec<ScenarioOutcome> {
        let _span = fsa_telemetry::span("campaign");
        self.validate(spec).unwrap_or_else(|e| panic!("{e}"));
        // Quantize once per campaign, on its first Int8 run: the storage
        // metadata is shared read-only by every scenario worker.
        let quant = match spec.precision {
            Precision::F32 => None,
            Precision::Int8 => Some(
                self.int8
                    .get_or_init(|| Int8View::new(self.head, &self.selection, &self.cache)),
            ),
        };
        // The attacked head's own pool prefix: the f32 head's, or the
        // dequantized head's.
        let prefix = match quant {
            None => self.prefix.as_ref(),
            Some(view) => view.deq_prefix.as_ref(),
        };
        let scenarios = spec.scenarios();
        for &i in indices {
            assert!(
                i < scenarios.len(),
                "scenario index {i} out of range (matrix has {})",
                scenarios.len()
            );
        }
        // Every scenario is a full attack — always worth a worker.
        parallel::par_map(indices.len(), |j| {
            // Per-scenario span (gated so the disabled path never
            // formats); scenario cells are the unit the profile tree
            // attributes campaign time to.
            let _span = if fsa_telemetry::enabled() {
                fsa_telemetry::counter("campaign.scenarios", 1);
                Some(fsa_telemetry::span(&format!("scenario#{:03}", indices[j])))
            } else {
                None
            };
            let sc = scenarios[indices[j]];
            let aspec = self
                .spec_with_prefix(&sc, spec.c_attack, spec.c_keep, prefix)
                .with_stealth(spec.stealth);
            let targets = aspec.targets.clone();
            let config = AttackConfig {
                norm: sc.budget.norm,
                lambda: sc.budget.lambda,
                ..spec.base.clone()
            };
            let result = match quant {
                None => method.run_scenario(self.head, &self.selection, &config, &aspec),
                Some(view) => {
                    let raw = method.run_scenario(&view.deq, &self.selection, &config, &aspec);
                    self.project_int8(view, &aspec, raw)
                }
            };
            ScenarioOutcome {
                scenario: sc,
                targets,
                result,
            }
        })
    }

    /// Projects an optimized δ onto realizable int8 storage (weight
    /// bytes snap to their grids, bias words pass through) and
    /// re-measures the outcome under int8 inference: the realized δ
    /// replaces the continuous one, its norms are recomputed, and
    /// success/keep counters come from the quantized forward of the
    /// attacked storage. Iteration histories and the convergence flag
    /// are kept as diagnostics of the optimization that produced the
    /// plan.
    ///
    /// Under a stealth objective the *realized* plan is additionally
    /// parity-repaired on the deployed `f32` word surface
    /// ([`crate::stealth::repair_parity_int8`]) — projection onto the
    /// int8 grid re-decides every flipped bit, so the solver's
    /// pre-projection repair cannot survive it and the pass must run
    /// here, after projection and before measurement.
    ///
    /// The measurement runs only the attacked layers when the int8 pool
    /// prefix covers the working set (see [`QuantPoolPrefix::forward`]).
    fn project_int8(
        &self,
        view: &Int8View,
        aspec: &AttackSpec,
        mut result: crate::solver::AttackResult,
    ) -> crate::solver::AttackResult {
        let qsel = &view.qsel;
        let (mut q_new, mut realized) = qsel.project(&result.delta);
        if let Some(s) = aspec.stealth {
            let gidx = self.selection.global_indices(self.head);
            let layout = s.whole_model_layout(self.head.param_count());
            crate::stealth::repair_parity_int8(&mut realized, &mut q_new, qsel, &gidx, &layout);
        }
        let mut attacked = view.qclean.clone();
        qsel.apply(&mut attacked, &self.selection, &q_new, &realized);
        let logits = match (&view.int8_prefix, aspec.pool_rows()) {
            (Some(prefix), Some(rows)) => prefix.forward(&attacked, rows, &aspec.features),
            _ => attacked.forward(&aspec.features),
        };
        let (s_hits, keep_hits) = crate::objective::count_satisfied(aspec, &logits);
        result.l0 = fsa_tensor::norms::l0(&realized, 0.0);
        result.l2 = fsa_tensor::norms::l2(&realized);
        result.s_success = s_hits;
        result.keep_unchanged = keep_hits;
        result.delta = realized;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_tensor::Tensor;

    fn fixture() -> (FcHead, FeatureCache, Vec<usize>) {
        let mut rng = Prng::new(31);
        let head = FcHead::from_dims(&[6, 12, 3], &mut rng);
        let pool = Tensor::randn(&[14, 6], 1.0, &mut rng);
        let labels = head.predict(&pool);
        (head, FeatureCache::from_features(pool), labels)
    }

    #[test]
    fn method_resolves_the_names_reports_carry() {
        for name in ["fsa", "sba", "gda"] {
            assert_eq!(method(name).unwrap().name(), name);
        }
        assert!(method("nope").is_none());
    }

    #[test]
    fn scenario_order_is_the_documented_nesting() {
        let spec = CampaignSpec::grid(vec![1, 2], vec![0, 3])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_seeds(vec![7, 8]);
        let scs = spec.scenarios();
        assert_eq!(scs.len(), spec.len());
        assert_eq!(scs.len(), 2 * 2 * 2 * 2);
        // seeds outermost … k innermost.
        assert_eq!((scs[0].seed, scs[0].s, scs[0].k), (7, 1, 0));
        assert_eq!((scs[1].seed, scs[1].s, scs[1].k), (7, 1, 3));
        assert_eq!(scs[0].budget.norm, Norm::L0);
        assert_eq!(scs[4].budget.norm, Norm::L2);
        assert_eq!(scs[8].seed, 8);
        for (i, sc) in scs.iter().enumerate() {
            assert_eq!(sc.index, i);
        }
    }

    #[test]
    fn scenario_spec_is_deterministic_and_well_formed() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let sc = Scenario {
            index: 3,
            s: 2,
            k: 4,
            budget: SparsityBudget::l0(0.001),
            seed: 11,
        };
        let a = campaign.scenario_spec(&sc, 10.0, 1.0);
        let b = campaign.scenario_spec(&sc, 10.0, 1.0);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.r(), 6);
        assert_eq!(a.s(), 2);
        // Different (S, K) cells under the same seed draw different sets.
        let other = campaign.scenario_spec(&Scenario { s: 1, k: 5, ..sc }, 10.0, 1.0);
        assert_ne!(a.features, other.features);
    }

    #[test]
    fn validate_refuses_a_rho_that_is_not_finite_and_positive() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        for rho in [f32::NAN, 0.0, -5.0, f32::INFINITY] {
            let spec = CampaignSpec::grid(vec![1], vec![2]).with_config(AttackConfig {
                rho,
                ..AttackConfig::default()
            });
            let err = campaign.validate(&spec).unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidRho { rho: r } if r.to_bits() == rho.to_bits()),
                "rho = {rho}: {err:?}"
            );
            assert!(err.to_string().contains("finite and > 0"));
        }
        let spec = CampaignSpec::grid(vec![1], vec![2]);
        assert_eq!(campaign.validate(&spec), Ok(()));
    }

    /// Asserts that `validate` and the spec decoder both refuse `spec`,
    /// naming `name` = `value`.
    fn assert_weight_refused(spec: CampaignSpec, name: &str, value: f32) {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let err = campaign.validate(&spec).unwrap_err();
        assert!(
            matches!(err, SpecError::InvalidWeight { name: n, value: v }
                if n == name && v.to_bits() == value.to_bits()),
            "{name} = {value}: {err:?}"
        );
        let frame = wire::encode_spec_frame(&spec);
        let decoded = wire::decode_frame(&frame, wire::SPEC_TAG, wire::read_spec);
        let err = decoded.expect_err("the decoder must refuse what validate refuses");
        assert!(
            err.to_string()
                .contains(&format!("{name} = {value} must be finite and >= 0")),
            "{err}"
        );
    }

    #[test]
    fn validate_and_decoder_refuse_a_nan_lambda() {
        let base = AttackConfig {
            lambda: f32::NAN,
            ..AttackConfig::default()
        };
        assert_weight_refused(
            CampaignSpec::grid(vec![1], vec![2]).with_config(base),
            "lambda",
            f32::NAN,
        );
        let budgets = vec![SparsityBudget::l0(0.001), SparsityBudget::l2(f32::NAN)];
        assert_weight_refused(
            CampaignSpec::grid(vec![1], vec![2]).with_budgets(budgets),
            "budget lambda",
            f32::NAN,
        );
    }

    #[test]
    fn validate_and_decoder_refuse_an_infinite_kappa() {
        let base = AttackConfig {
            kappa: f32::INFINITY,
            ..AttackConfig::default()
        };
        assert_weight_refused(
            CampaignSpec::grid(vec![1], vec![2]).with_config(base),
            "kappa",
            f32::INFINITY,
        );
    }

    #[test]
    fn validate_and_decoder_refuse_a_nan_c_attack() {
        assert_weight_refused(
            CampaignSpec::grid(vec![1], vec![2]).with_weights(f32::NAN, 1.0),
            "c_attack",
            f32::NAN,
        );
    }

    #[test]
    fn validate_and_decoder_refuse_a_negative_c_keep() {
        assert_weight_refused(
            CampaignSpec::grid(vec![1], vec![2]).with_weights(10.0, -1.0),
            "c_keep",
            -1.0,
        );
    }

    #[test]
    fn validate_refuses_a_stealth_objective_out_of_bounds() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let good = crate::stealth::StealthObjective::new(
            16,
            0.5,
            fsa_memfault::dram::DramGeometry {
                banks: 2,
                rows_per_bank: 512,
                row_bytes: 64,
            },
            0.75,
        );
        let spec = CampaignSpec::grid(vec![1], vec![2]).with_stealth(Some(good));
        assert_eq!(campaign.validate(&spec), Ok(()));
        let mut bad = vec![crate::stealth::StealthObjective {
            block_params: 0,
            ..good
        }];
        for v in [f32::NAN, f32::INFINITY, -1.0] {
            bad.push(crate::stealth::StealthObjective {
                block_lambda: v,
                ..good
            });
            bad.push(crate::stealth::StealthObjective {
                drift_budget: v,
                ..good
            });
        }
        for stealth in bad {
            let err = campaign
                .validate(&spec.clone().with_stealth(Some(stealth)))
                .unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidStealth { .. }),
                "{stealth:?}: {err:?}"
            );
            assert!(err.to_string().contains("block_params > 0"), "{err}");
        }
    }

    /// `validate` on the fixture campaign with a stealth objective over a
    /// `banks × rows_per_bank × row_bytes` device, otherwise in bounds.
    fn validate_geometry(
        banks: usize,
        rows_per_bank: usize,
        row_bytes: usize,
    ) -> Result<(), SpecError> {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let geometry = fsa_memfault::dram::DramGeometry {
            banks,
            rows_per_bank,
            row_bytes,
        };
        let stealth = crate::stealth::StealthObjective {
            geometry,
            ..crate::stealth::StealthObjective::new(16, 0.5, Default::default(), 0.75)
        };
        campaign.validate(&CampaignSpec::grid(vec![1], vec![2]).with_stealth(Some(stealth)))
    }

    fn assert_geometry_refused(got: Result<(), SpecError>) {
        let err = got.unwrap_err();
        assert!(matches!(err, SpecError::InvalidStealth { .. }), "{err:?}");
        assert!(err.to_string().contains("DRAM geometry"), "{err}");
    }

    #[test]
    fn validate_refuses_a_geometry_without_banks() {
        assert_geometry_refused(validate_geometry(0, 512, 64));
    }

    #[test]
    fn validate_refuses_a_geometry_with_empty_rows() {
        assert_geometry_refused(validate_geometry(2, 512, 0));
    }

    #[test]
    fn validate_refuses_rows_that_split_an_f32_word() {
        assert_geometry_refused(validate_geometry(2, 512, 6));
    }

    #[test]
    fn validate_refuses_a_device_smaller_than_the_head() {
        // One 4-byte word, against the fixture head's 123 parameters;
        // 492 bytes is exactly enough.
        assert_geometry_refused(validate_geometry(1, 1, 4));
        assert_geometry_refused(validate_geometry(1, 1, 488));
        assert_eq!(validate_geometry(1, 1, 492), Ok(()));
    }

    #[test]
    fn validate_refuses_a_capacity_that_overflows() {
        assert_geometry_refused(validate_geometry(usize::MAX, 2, 64));
    }

    #[test]
    fn suite_seed_is_identity_not_behavior() {
        // The attacker never sees the defender's audit schedule, so a
        // suite seed must not change any outcome — only the experiment
        // identity (report field + fingerprint).
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let base = CampaignSpec::grid(vec![1], vec![2]).with_config(AttackConfig {
            iterations: 30,
            ..AttackConfig::default()
        });
        let plain = campaign.run(&base);
        let seeded = campaign.run(&base.clone().with_suite_seed(Some(0xA0D1)));
        assert_eq!(plain.suite_seed, None);
        assert_eq!(seeded.suite_seed, Some(0xA0D1));
        assert_eq!(
            plain.outcomes, seeded.outcomes,
            "the defender's schedule seed must not leak into the attack"
        );
        assert_ne!(
            plain.fingerprint(),
            seeded.fingerprint(),
            "the seed is part of the experiment identity"
        );
        // And a second run under the same seeded spec is bit-identical.
        assert_eq!(seeded, campaign.run(&base.with_suite_seed(Some(0xA0D1))));
    }

    #[test]
    fn report_fingerprint_tracks_equality() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![2]).with_config(AttackConfig {
            iterations: 30,
            ..AttackConfig::default()
        });
        let a = campaign.run(&spec);
        let b = campaign.run(&spec);
        assert_eq!(a, b, "repeat campaign runs must be bit-identical");
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn int8_campaign_realizes_grid_deltas() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![2])
            .with_config(AttackConfig {
                iterations: 40,
                ..AttackConfig::default()
            })
            .with_precision(Precision::Int8);
        let report = campaign.run(&spec);
        assert_eq!(report.precision, Precision::Int8);
        let qclean = QuantizedHead::quantize(&head);
        let qsel = QuantizedSelection::gather(&qclean, &ParamSelection::last_layer(&head));
        for o in &report.outcomes {
            // Every realized δ must be an exact grid displacement:
            // projecting it again changes nothing.
            let (_, reprojected) = qsel.project(&o.result.delta);
            assert_eq!(reprojected, o.result.delta, "δ left the int8 grid");
            assert_eq!(
                o.result.l0,
                o.result.delta.iter().filter(|&&d| d != 0.0).count()
            );
        }
        // Same matrix, different storage: the f32 report differs but is
        // cell-aligned (same scenarios, same targets).
        let f32_report = campaign.run(&CampaignSpec {
            precision: Precision::F32,
            ..spec.clone()
        });
        assert_eq!(f32_report.len(), report.len());
        for (a, b) in f32_report.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.targets, b.targets);
        }
        assert_ne!(
            f32_report.fingerprint(),
            report.fingerprint(),
            "precision must be part of the report identity"
        );
    }

    #[test]
    #[should_panic(expected = "usable")]
    fn oversized_scenario_is_rejected() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let sc = Scenario {
            index: 0,
            s: 1,
            k: 1000,
            budget: SparsityBudget::l0(0.001),
            seed: 1,
        };
        let _ = campaign.scenario_spec(&sc, 10.0, 1.0);
    }

    /// An oversized R must surface on the caller's thread with the
    /// draw's own message — not as an anonymous scoped-worker panic —
    /// even when the matrix would dispatch concurrently.
    #[test]
    #[should_panic(expected = "needs R =")]
    fn oversized_spec_panics_on_the_caller_before_dispatch() {
        let (head, cache, labels) = fixture();
        let campaign = Campaign::new(&head, ParamSelection::last_layer(&head), cache, labels);
        let spec = CampaignSpec::grid(vec![1], vec![1, 1000]).with_config(AttackConfig {
            iterations: 5,
            ..AttackConfig::default()
        });
        fsa_tensor::parallel::with_budget(2, || campaign.run(&spec));
    }
}
