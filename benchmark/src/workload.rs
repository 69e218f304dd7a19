//! The four workloads: set-up, the single-thread reference, and one
//! closed-loop operation each.

use crate::fixture::{self, ArenaVictim, Victim};
use fsa_attack::campaign::{Campaign, CampaignReport, CampaignSpec, Scenario, SparsityBudget};
use fsa_attack::{
    AttackConfig, AttackResult, AttackSpec, FaultSneakingAttack, ParamSelection, Precision,
    ScenarioOutcome, StealthObjective,
};
use fsa_defense::{ArenaReport, DefenseSuite, StealthArena};
use fsa_harness::supervisor::{ExecutorConfig, ShardedCampaign, ShardedRun};
use fsa_harness::transport::SocketTransport;
use fsa_memfault::DramGeometry;
use fsa_nn::head::FcHead;
use fsa_nn::quant::QuantizedHead;
use fsa_tensor::parallel;
use std::sync::Arc;
use std::time::Duration;

/// Workload names `--workload` accepts. `BENCHMARK.json` lists only
/// `paper_attack` and `arena_int8_stealth`; see `README.md` for why.
pub const NAMES: [&str; 4] = [
    "paper_attack",
    "campaign_grid",
    "arena_int8_stealth",
    "sharded_grid",
];

/// Misclassification / keep weights of the paper experiments.
const C_ATTACK: f32 = 10.0;
const C_KEEP: f32 = 1.0;
/// Audit-schedule seed of the randomized defense suite (`codefense`).
const AUDIT_SEED: u64 = 0xAD17_5EED;
/// Shards of the `sharded_grid` workload.
pub const SHARDS: usize = 2;

/// Mean attack quality over a set of results.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub success_rate: f64,
    pub keep_rate: f64,
    pub mean_l0: f64,
    pub mean_l2: f64,
}

impl Quality {
    pub fn of<'r>(results: impl IntoIterator<Item = &'r AttackResult>) -> Self {
        let (mut n, mut s, mut k, mut l0, mut l2) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for r in results {
            n += 1.0;
            s += f64::from(r.success_rate());
            k += f64::from(r.unchanged_rate());
            l0 += r.l0 as f64;
            l2 += f64::from(r.l2);
        }
        Self {
            success_rate: s / n,
            keep_rate: k / n,
            mean_l0: l0 / n,
            mean_l2: l2 / n,
        }
    }
}

/// The structural sanity gates every table/figure bin applies to an
/// attack result: finite δ of the selection's length and consistent
/// counters.
pub fn sanity(r: &AttackResult, dim: usize) -> Result<(), String> {
    if !r.delta.iter().all(|v| v.is_finite()) {
        return Err("non-finite δ".into());
    }
    if r.delta.len() != dim {
        return Err(format!(
            "δ length {} != selection dimension {dim}",
            r.delta.len()
        ));
    }
    if r.l0 > r.delta.len() || !r.l2.is_finite() || r.l2 < 0.0 {
        return Err(format!("inconsistent δ norms (l0={}, l2={})", r.l0, r.l2));
    }
    if r.s_success > r.s_total || r.keep_unchanged > r.keep_total {
        return Err("impossible success/keep counters".into());
    }
    Ok(())
}

/// Checks a campaign report against its reference, outcome by outcome.
fn check_report(got: &CampaignReport, want: &CampaignReport, dim: usize) -> Result<(), String> {
    for o in &got.outcomes {
        sanity(&o.result, dim).map_err(|e| format!("scenario {}: {e}", o.scenario.index))?;
    }
    if got != want {
        return Err(format!(
            "report {:#018x} differs from the reference {:#018x}",
            got.fingerprint(),
            want.fingerprint()
        ));
    }
    Ok(())
}

/// Leaks `v`: victims live for the whole process, and campaigns,
/// arenas and sharded executors borrow them.
fn leak<T>(v: T) -> &'static T {
    Box::leak(Box::new(v))
}

/// The attack configuration a scenario runs under (its budget overrides
/// the base norm and λ, as `FsaMethod` does).
pub fn scenario_config(base: &AttackConfig, sc: &Scenario) -> AttackConfig {
    AttackConfig {
        norm: sc.budget.norm,
        lambda: sc.budget.lambda,
        ..base.clone()
    }
}

// ─── paper_attack ────────────────────────────────────────────────────

/// One `FaultSneakingAttack::run` per op on the paper-scale victim,
/// cycling through R = 100 working sets.
pub struct PaperBench {
    pub head: &'static FcHead,
    pub selection: ParamSelection,
    pub base: AttackConfig,
    pub scenarios: Vec<Scenario>,
    pub specs: Vec<AttackSpec>,
    pub reference: Vec<AttackResult>,
}

impl PaperBench {
    /// Working-set seeds per (S, norm) cell. Enough that one run's
    /// timings and quality average over most of what a seed can draw.
    const DRAWS: u64 = 8;

    pub fn setup(seed: u64) -> Self {
        let victim: &'static Victim = leak(fixture::paper_victim(seed));
        let head = &victim.model.head;
        let selection = ParamSelection::last_layer(head);
        let campaign = Campaign::new(
            head,
            selection.clone(),
            victim.pool.clone(),
            victim.pool_labels.clone(),
        );
        let base = AttackConfig::default();
        let mut scenarios = Vec::new();
        for d in 0..Self::DRAWS {
            let draw_seed = fixture::derive(seed, 100 + d);
            for s in [1, 4] {
                for budget in [
                    SparsityBudget::l0(base.lambda),
                    SparsityBudget::l2(base.lambda),
                ] {
                    scenarios.push(Scenario {
                        index: scenarios.len(),
                        s,
                        k: 100 - s,
                        budget,
                        seed: draw_seed,
                    });
                }
            }
        }
        let specs = scenarios
            .iter()
            .map(|sc| campaign.scenario_spec(sc, C_ATTACK, C_KEEP))
            .collect();
        Self {
            head,
            selection,
            base,
            scenarios,
            specs,
            reference: Vec::new(),
        }
    }

    pub fn attack(&self, j: usize) -> AttackResult {
        let config = scenario_config(&self.base, &self.scenarios[j]);
        FaultSneakingAttack::new(self.head, self.selection.clone(), config).run(&self.specs[j])
    }

    fn reference(&mut self) {
        self.reference = (0..self.scenarios.len()).map(|j| self.attack(j)).collect();
    }

    fn op(&self, i: usize) -> Result<(), String> {
        let j = i % self.scenarios.len();
        let r = self.attack(j);
        sanity(&r, self.selection.dim(self.head))?;
        if r != self.reference[j] {
            return Err(format!("scenario {j} differs from the reference"));
        }
        Ok(())
    }

    /// The reference results as a report, for one fingerprint.
    fn report(&self) -> CampaignReport {
        CampaignReport {
            method: "fsa".into(),
            precision: Precision::F32,
            stealth: None,
            suite_seed: None,
            outcomes: self
                .scenarios
                .iter()
                .zip(&self.specs)
                .zip(&self.reference)
                .map(|((sc, spec), r)| ScenarioOutcome {
                    scenario: *sc,
                    targets: spec.targets.clone(),
                    result: r.clone(),
                })
                .collect(),
        }
    }
}

// ─── campaign_grid ───────────────────────────────────────────────────

/// One `Campaign::run` over the 48-scenario grid per op.
pub struct GridBench {
    pub campaign: Campaign<'static>,
    pub head: &'static FcHead,
    pub victim: &'static Victim,
    pub selection: ParamSelection,
    pub spec: CampaignSpec,
    pub reference: Option<CampaignReport>,
}

impl GridBench {
    pub fn setup(seed: u64) -> Self {
        let victim: &'static Victim = leak(fixture::grid_victim(seed));
        let head = &victim.model.head;
        let selection = ParamSelection::last_layer(head);
        let campaign = Campaign::new(
            head,
            selection.clone(),
            victim.pool.clone(),
            victim.pool_labels.clone(),
        );
        let spec = CampaignSpec::grid(vec![1, 2], vec![0, 4, 8, 16])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
            .with_seeds((0..3).map(|i| fixture::derive(seed, 200 + i)).collect())
            .with_config(AttackConfig {
                iterations: 300,
                ..AttackConfig::default()
            });
        Self {
            campaign,
            head,
            victim,
            selection,
            spec,
            reference: None,
        }
    }

    pub fn reference(&self) -> &CampaignReport {
        self.reference.as_ref().expect("reference not computed")
    }

    fn op(&self) -> Result<(), String> {
        let got = self.campaign.run(&self.spec);
        check_report(&got, self.reference(), self.selection.dim(self.head))
    }
}

// ─── arena_int8_stealth ──────────────────────────────────────────────

/// The reference artifacts of one arena op.
pub struct ArenaRef {
    pub f32_report: CampaignReport,
    pub f32_scored: ArenaReport,
    pub int8_report: CampaignReport,
    pub int8_scored: ArenaReport,
}

/// One F32 and one Int8 stealth campaign per op, each scored against
/// the randomized defense suite (the `codefense` recipe). Ops cycle
/// through `DRAWS` working-set draws, so the quality metrics average
/// over more scenarios than one op holds.
pub struct ArenaBench {
    pub victim: &'static ArenaVictim,
    pub head: &'static FcHead,
    pub deq: &'static FcHead,
    pub qclean: QuantizedHead,
    pub selection: ParamSelection,
    pub geometry: DramGeometry,
    pub campaign: Campaign<'static>,
    pub f32_arena: StealthArena<'static>,
    pub int8_arena: StealthArena<'static>,
    /// The (F32, Int8) campaign pair of each draw.
    pub specs: Vec<(CampaignSpec, CampaignSpec)>,
    pub reference: Vec<ArenaRef>,
}

impl ArenaBench {
    /// Working-set draws the ops cycle through.
    const DRAWS: u64 = 12;

    pub fn setup(seed: u64) -> Self {
        let victim: &'static ArenaVictim = leak(fixture::arena_victim());
        let head = &victim.victim.model.head;
        let qclean = QuantizedHead::quantize(head);
        let deq: &'static FcHead = leak(qclean.dequantized_head());
        let geometry = DramGeometry {
            banks: 4,
            rows_per_bank: 4096,
            row_bytes: 256,
        };
        let selection = ParamSelection::last_layer(head);
        let f32_arena =
            StealthArena::new(head, selection.clone(), Self::suite(victim, head, geometry));
        let int8_arena =
            StealthArena::new(deq, selection.clone(), Self::suite(victim, deq, geometry))
                .with_precision(Precision::Int8);
        let campaign = Campaign::new(
            head,
            selection.clone(),
            victim.victim.pool.clone(),
            victim.victim.pool_labels.clone(),
        );
        let stealth = StealthObjective::new(16, 0.75, geometry, 0.5).with_block_cap(5);
        let specs = (0..Self::DRAWS)
            .map(|d| {
                let f32_spec = CampaignSpec::grid(vec![4], vec![128, 256])
                    .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.001)])
                    .with_seeds(vec![fixture::derive(seed, 300 + d)])
                    .with_config(AttackConfig {
                        iterations: 500,
                        ..AttackConfig::default()
                    })
                    .with_weights(40.0, 1.0)
                    .with_stealth(Some(stealth));
                let int8_spec = CampaignSpec {
                    base: AttackConfig {
                        kappa: 2.0,
                        ..f32_spec.base.clone()
                    },
                    ..f32_spec.clone()
                }
                .with_precision(Precision::Int8);
                (f32_spec, int8_spec)
            })
            .collect();
        Self {
            victim,
            head,
            deq,
            qclean,
            selection,
            geometry,
            campaign,
            f32_arena,
            int8_arena,
            specs,
            reference: Vec::new(),
        }
    }

    /// Calibrates the randomized suite on `reference`.
    pub fn suite(victim: &ArenaVictim, reference: &FcHead, geometry: DramGeometry) -> DefenseSuite {
        DefenseSuite::randomized(
            reference,
            &victim.probe,
            &victim.probe_labels,
            &victim.holdout,
            geometry,
            0.25,
            0.75,
            0.75,
            AUDIT_SEED,
        )
    }

    fn run(&self, draw: usize) -> ArenaRef {
        let (f32_spec, int8_spec) = &self.specs[draw];
        let f32_report = self.campaign.run(f32_spec);
        let f32_scored = self.f32_arena.score_report(&f32_report);
        let int8_report = self.campaign.run(int8_spec);
        let int8_scored = self.int8_arena.score_report(&int8_report);
        ArenaRef {
            f32_report,
            f32_scored,
            int8_report,
            int8_scored,
        }
    }

    fn op(&self, i: usize) -> Result<(), String> {
        let draw = i % self.specs.len();
        let got = self.run(draw);
        let want = &self.reference[draw];
        let dim = self.selection.dim(self.head);
        check_report(&got.f32_report, &want.f32_report, dim)?;
        check_report(&got.int8_report, &want.int8_report, dim)?;
        if got.f32_scored != want.f32_scored || got.int8_scored != want.int8_scored {
            return Err("arena scores differ from the reference".into());
        }
        Ok(())
    }
}

// ─── sharded_grid ────────────────────────────────────────────────────

/// The `campaign_grid` spec through `ShardedCampaign::run`, alternating
/// the pipe and socket transports op by op.
pub struct ShardedBench {
    pub grid: GridBench,
    pub sharded: ShardedCampaign<'static>,
    pub socket: Arc<SocketTransport>,
}

impl ShardedBench {
    pub fn setup(seed: u64) -> Self {
        let grid = GridBench::setup(seed);
        let sharded = ShardedCampaign::new(
            grid.head,
            grid.selection.clone(),
            grid.victim.pool.clone(),
            grid.victim.pool_labels.clone(),
        );
        Self {
            grid,
            sharded,
            socket: Arc::new(SocketTransport::new(Default::default())),
        }
    }

    /// A clean executor config: fault planner off, pipe or socket link.
    pub fn config(&self, socket: bool) -> ExecutorConfig {
        let cfg = ExecutorConfig::new(SHARDS)
            .with_planner(None)
            .with_deadline(Duration::from_secs(60));
        if socket {
            cfg.with_transport(self.socket.clone())
        } else {
            cfg
        }
    }

    pub fn run(&self, spec: &CampaignSpec, socket: bool) -> ShardedRun {
        self.sharded.run(spec, "fsa", &self.config(socket))
    }

    fn op(&self, i: usize) -> Result<(), String> {
        let run = self.run(&self.grid.spec, i % 2 == 1);
        if !run.log.events.is_empty() || run.log.degraded() > 0 {
            return Err(format!(
                "fault-free run logged faults: {}",
                run.log.summary()
            ));
        }
        check_report(
            &run.report,
            self.grid.reference(),
            self.grid.selection.dim(self.grid.head),
        )
    }
}

// ─── dispatch ────────────────────────────────────────────────────────

/// A workload after set-up.
pub enum Bench {
    Paper(PaperBench),
    Grid(GridBench),
    Arena(ArenaBench),
    Sharded(ShardedBench),
}

impl Bench {
    /// Builds the named workload: victim training, feature caches,
    /// suite calibration and campaign binding — everything a user pays
    /// once before the first op.
    pub fn setup(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "paper_attack" => Bench::Paper(PaperBench::setup(seed)),
            "campaign_grid" => Bench::Grid(GridBench::setup(seed)),
            "arena_int8_stealth" => Bench::Arena(ArenaBench::setup(seed)),
            "sharded_grid" => Bench::Sharded(ShardedBench::setup(seed)),
            _ => return None,
        })
    }

    /// Computes the single-thread reference every op is checked against.
    /// This process stays at one thread afterwards.
    pub fn compute_reference(&mut self) {
        parallel::set_threads(1);
        match self {
            Bench::Paper(b) => b.reference(),
            Bench::Grid(b) => b.reference = Some(b.campaign.run(&b.spec)),
            Bench::Arena(b) => b.reference = (0..b.specs.len()).map(|d| b.run(d)).collect(),
            Bench::Sharded(b) => b.grid.reference = Some(b.grid.campaign.run(&b.grid.spec)),
        }
    }

    /// Ops in one cycle: op `i` and op `i + cycle()` do the same work.
    pub fn cycle(&self) -> usize {
        match self {
            Bench::Paper(b) => b.scenarios.len(),
            Bench::Arena(b) => b.specs.len(),
            Bench::Grid(_) | Bench::Sharded(_) => 1,
        }
    }

    /// Scenarios one op completes.
    pub fn scenarios_per_op(&self) -> usize {
        match self {
            Bench::Paper(_) => 1,
            Bench::Grid(b) => b.spec.len(),
            Bench::Arena(b) => b.specs[0].0.len() + b.specs[0].1.len(),
            Bench::Sharded(b) => b.grid.spec.len(),
        }
    }

    /// Runs op number `i` and checks its output against the reference.
    pub fn op(&self, i: usize) -> Result<(), String> {
        match self {
            Bench::Paper(b) => b.op(i),
            Bench::Grid(b) => b.op(),
            Bench::Arena(b) => b.op(i),
            Bench::Sharded(b) => b.op(i),
        }
    }

    /// Attack quality of the reference results.
    pub fn quality(&self) -> Quality {
        Quality::of(self.reference_results())
    }

    /// Length of δ: the attacked selection's dimension.
    pub fn dim(&self) -> usize {
        match self {
            Bench::Paper(b) => b.selection.dim(b.head),
            Bench::Grid(b) => b.selection.dim(b.head),
            Bench::Sharded(b) => b.grid.selection.dim(b.grid.head),
            Bench::Arena(b) => b.selection.dim(b.head),
        }
    }

    /// Every reference result the benchmark checks ops against.
    pub fn reference_results(&self) -> Vec<&AttackResult> {
        match self {
            Bench::Paper(b) => b.reference.iter().collect(),
            Bench::Grid(b) => b.reference().outcomes.iter().map(|o| &o.result).collect(),
            Bench::Sharded(b) => b
                .grid
                .reference()
                .outcomes
                .iter()
                .map(|o| &o.result)
                .collect(),
            Bench::Arena(b) => b
                .reference
                .iter()
                .flat_map(|r| r.f32_report.outcomes.iter().chain(&r.int8_report.outcomes))
                .map(|o| &o.result)
                .collect(),
        }
    }

    /// Digest of the reference, so two runs can be diffed.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Bench::Paper(b) => b.report().fingerprint(),
            Bench::Grid(b) => b.reference().fingerprint(),
            Bench::Sharded(b) => b.grid.reference().fingerprint(),
            Bench::Arena(b) => {
                // One digest over every draw's four artifacts.
                let mut h = fsa_tensor::hash::Fnv1a::new();
                for r in &b.reference {
                    h.write_u64(r.f32_report.fingerprint());
                    h.write_u64(r.f32_scored.fingerprint());
                    h.write_u64(r.int8_report.fingerprint());
                    h.write_u64(r.int8_scored.fingerprint());
                }
                h.finish()
            }
        }
    }
}
