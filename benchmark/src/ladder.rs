//! The traced run: the per-layer ladder, the accounting check, and the
//! tracing-overhead loop.
//!
//! Every layer is timed from outside, by calling its public functions,
//! once at one thread and once at the default thread count (`<name>.t1`
//! and `<name>.tmax`). Telemetry is on for the whole ladder: each sample
//! runs inside a span named after its metric, and the program's own
//! `attack`/`admm`/`refine`/`campaign`/`scenario#` spans nest beneath.
//! Layers a workload does not exercise are timed on the fixture of the
//! workload that does, so every traced run reports every metric.

use crate::measure::{mean, median, Metrics};
use crate::workload::{self, ArenaBench, Bench, GridBench, PaperBench, ShardedBench};
use crate::LoopStats;
use fsa_admm::prox::hard_threshold;
use fsa_attack::campaign::wire;
use fsa_attack::campaign::{Campaign, CampaignSpec};
use fsa_attack::stealth::{prune_to_block_budget, repair_parity_f32};
use fsa_attack::{
    AttackConfig, AttackSpec, FaultSneakingAttack, FsaMethod, ParamSelection, QuantizedSelection,
};
use fsa_harness::proto::{ShardJob, StreamParser};
use fsa_harness::supervisor::ExecutionLog;
use fsa_nn::cw::{CwConfig, CwModel};
use fsa_nn::head::{FcHead, HeadBuffers};
use fsa_nn::quant::QuantizedHead;
use fsa_telemetry::{Histogram, Snapshot, SpanStat};
use fsa_tensor::{linalg, parallel, quant, Prng, Tensor};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::hint::black_box;
use std::time::Instant;

/// Largest unaccounted share of an op's time the accounting check
/// accepts: the layer times on the blocking path must add up to within
/// 25% of the time they claim to explain.
pub const ACCOUNTING_SLACK: f64 = 0.25;

/// Row-block size below which kernels never fan out (`linalg`'s cut-off).
const PAR_MIN_ROWS: usize = 8;

/// The two thread settings every timing is taken at.
#[derive(Clone, Copy, PartialEq)]
pub enum Threads {
    One,
    Default,
}

impl Threads {
    const BOTH: [Threads; 2] = [Threads::One, Threads::Default];

    fn suffix(self) -> &'static str {
        match self {
            Threads::One => "t1",
            Threads::Default => "tmax",
        }
    }

    /// Installs the setting in this process and in the environment the
    /// harness's worker processes inherit. `env_default` is the
    /// `FSA_THREADS` value the benchmark was started with.
    pub fn apply(self, env_default: &Option<OsString>) {
        match self {
            Threads::One => {
                parallel::set_threads(1);
                std::env::set_var("FSA_THREADS", "1");
            }
            Threads::Default => {
                parallel::set_threads(0);
                match env_default {
                    Some(v) => std::env::set_var("FSA_THREADS", v),
                    None => std::env::remove_var("FSA_THREADS"),
                }
            }
        }
    }
}

/// Seconds → milliseconds of an `Instant`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Median per-call time of `f` in microseconds. Each sample batches
/// enough calls to last ~50 µs and runs inside a span named `span`;
/// sampling stops after `budget_ms` (at least 3 samples, at most 200).
fn sample_us(span: &str, budget_ms: f64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once_us = t.elapsed().as_secs_f64() * 1e6;
    let reps = ((50.0 / once_us.max(1e-3)) as usize).clamp(1, 10_000);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 200 && (samples.len() < 3 || ms_since(start) < budget_ms) {
        let _span = fsa_telemetry::span(span);
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    median(&samples)
}

struct Ladder {
    metrics: Metrics,
    env_default: Option<OsString>,
    /// Layers whose default-thread time exceeds their one-thread time.
    slower: Vec<String>,
    /// Telemetry drained so far, in drain order.
    windows: Vec<Snapshot>,
}

impl Ladder {
    /// Drains the telemetry recorded since the last window, keeps it for
    /// the trace file, and returns it.
    fn window(&mut self) -> &Snapshot {
        self.windows.push(fsa_telemetry::drain());
        self.windows.last().expect("a window was just pushed")
    }

    /// Records `<name>.t1` and `<name>.tmax`, each measured by `f` under
    /// its thread setting (and inside a span of the same name).
    fn pair(&mut self, name: &str, unit: &'static str, mut f: impl FnMut(&str) -> f64) -> [f64; 2] {
        let mut v = [0.0; 2];
        for (i, t) in Threads::BOTH.into_iter().enumerate() {
            t.apply(&self.env_default);
            v[i] = f(&format!("{name}.{}", t.suffix()));
        }
        Threads::Default.apply(&self.env_default);
        self.push_pair(name, unit, v);
        v
    }

    fn push_pair(&mut self, name: &str, unit: &'static str, v: [f64; 2]) {
        self.metrics.push(format!("{name}.t1"), v[0], unit);
        self.metrics.push(format!("{name}.tmax"), v[1], unit);
        // Differences within 5% are timing noise, not a slower layer.
        if v[0] > 0.0 && v[1] > 1.05 * v[0] {
            self.slower.push(format!(
                "{name}: {:.3} {unit} at default vs {:.3} {unit} at 1 thread ({:.2}x)",
                v[1],
                v[0],
                v[1] / v[0]
            ));
        }
    }

    /// A kernel timing plus its flop count and computed bytes.
    fn kernel(
        &mut self,
        name: &str,
        prefix: &str,
        flops: usize,
        bytes: usize,
        mut f: impl FnMut(),
    ) {
        self.pair(name, "us", |span| sample_us(span, 100.0, &mut f));
        self.metrics
            .push(format!("{prefix}.flops"), flops as f64, "count");
        self.metrics
            .push(format!("{prefix}.bytes"), bytes as f64, "B");
    }
}

fn randn(shape: &[usize], rng: &mut Prng) -> Tensor {
    Tensor::randn(shape, 1.0, rng)
}

/// Kernels at the shapes the attack and set-up run them at.
fn kernels(lad: &mut Ladder) {
    let mut rng = Prng::new(0x001A_DDE7);
    let mut buf = vec![0.0f32; 100 * 10];
    lad.pair("tensor.parallel.dispatch_us", "us", |span| {
        sample_us(span, 100.0, || {
            parallel::par_row_blocks(&mut buf, 10, PAR_MIN_ROWS, |r0, block| block[0] = r0 as f32);
            black_box(&buf);
        })
    });

    // ADMM head shapes: R = 100 activations of width 200 into 10 logits.
    let (m, k, n) = (100, 200, 10);
    let (acts, w) = (randn(&[m, k], &mut rng), randn(&[n, k], &mut rng));
    let mut c = vec![0.0f32; m * n];
    lad.kernel(
        "tensor.gemm_nt.admm_fwd_us",
        "tensor.gemm_nt.admm_fwd",
        2 * m * k * n,
        4 * (m * k + n * k + m * n),
        || {
            linalg::gemm_nt(m, k, n, acts.as_slice(), w.as_slice(), &mut c, 1.0, 0.0);
            black_box(&c);
        },
    );
    let dy = randn(&[m, n], &mut rng);
    let mut dw = vec![0.0f32; n * k];
    lad.kernel(
        "tensor.gemm_tn.admm_dw_us",
        "tensor.gemm_tn.admm_dw",
        2 * m * k * n,
        4 * (m * k + n * k + m * n),
        || {
            linalg::gemm_tn(n, m, k, dy.as_slice(), acts.as_slice(), &mut dw, 1.0, 0.0);
            black_box(&dw);
        },
    );

    // The largest mnist conv: 32 → 32 channels, 3×3, on 26×26 (im2col).
    let (m, k, n) = (32, 288, 576);
    let (a, b) = (randn(&[m, k], &mut rng), randn(&[k, n], &mut rng));
    let mut c = vec![0.0f32; m * n];
    lad.kernel(
        "tensor.gemm.conv_us",
        "tensor.gemm.conv",
        2 * m * k * n,
        4 * (m * k + k * n + m * n),
        || {
            linalg::gemm(m, k, n, a.as_slice(), b.as_slice(), &mut c, 1.0, 0.0);
            black_box(&c);
        },
    );

    // The arena int8 head's first layer over an R = 260 working set.
    let (m, k, n) = (260, 32, 32);
    let qa: Vec<i8> = (0..m * k)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect();
    let qb: Vec<i8> = (0..n * k)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect();
    let mut qc = vec![0i32; m * n];
    lad.kernel(
        "tensor.gemm_i8_nt.us",
        "tensor.gemm_i8_nt",
        2 * m * k * n,
        m * k + n * k + 4 * m * n,
        || {
            quant::gemm_i8_nt(m, k, n, &qa, &qb, &mut qc);
            black_box(&qc);
        },
    );
}

/// Head forward/backward at the ADMM shape, conv extraction, the int8
/// forward, and the ℓ0 prox.
fn nn_and_prox(lad: &mut Ladder) {
    let mut rng = Prng::new(0x4E4E);
    let head = FcHead::from_dims(&[1024, 200, 200, 10], &mut rng);
    let (acts, g) = (randn(&[100, 200], &mut rng), randn(&[100, 10], &mut rng));
    let mut bufs = HeadBuffers::new();
    lad.pair("nn.head.forward_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(head.forward_from_caching(2, &acts, &mut bufs));
        })
    });
    head.forward_from_caching(2, &acts, &mut bufs);
    lad.pair("nn.head.backward_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(head.backward_from_cache(2, &acts, &g, &mut bufs));
        })
    });

    let model = CwModel::new_random(CwConfig::mnist(), &mut rng);
    let images = Tensor::rand_uniform(&[32, 28 * 28], 0.0, 1.0, &mut rng);
    lad.pair("nn.extract.image_us", "us", |span| {
        sample_us(span, 300.0, || {
            black_box(model.extract_features(&images));
        }) / 32.0
    });

    let qhead = QuantizedHead::quantize(&FcHead::from_dims(&[32, 32, 32, 4], &mut rng));
    let x = randn(&[260, 32], &mut rng);
    lad.pair("nn.quant.forward_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(qhead.forward(&x));
        })
    });

    let v: Vec<f32> = (0..2010).map(|_| rng.normal(0.0, 0.05)).collect();
    let mut out = vec![0.0f32; v.len()];
    lad.pair("admm.prox_us", "us", |span| {
        sample_us(span, 100.0, || {
            hard_threshold(&v, 0.001, 5.0, &mut out);
            black_box(&out);
        })
    });
}

/// One standalone attack of a workload's scenario list.
struct Case {
    config: AttackConfig,
    spec: AttackSpec,
}

/// Scenario time split into fixed overhead, ADMM iterations and refine.
/// Refine time and iterations come from the program's own `refine` span
/// and counters, recorded under the full runs. Returns the unaccounted
/// share at one thread.
fn attack_layers(
    lad: &mut Ladder,
    head: &FcHead,
    selection: &ParamSelection,
    cases: &[Case],
) -> f64 {
    let run = |c: &AttackConfig, spec: &AttackSpec| {
        let t = Instant::now();
        let r = FaultSneakingAttack::new(head, selection.clone(), c.clone()).run(spec);
        (ms_since(t), r)
    };
    let mut rows = Vec::new();
    for t in Threads::BOTH {
        t.apply(&lad.env_default);
        let sfx = t.suffix();
        // Close the window, so the next one holds only these runs.
        lad.window();
        let (mut full, mut iters, mut zero) = (vec![], vec![], vec![]);
        let (mut n_ms, mut half_ms, mut n_iters, mut half_iters) = (0.0, 0.0, 0usize, 0usize);
        for case in cases {
            let _span = fsa_telemetry::span(&format!("attack.scenario_ms.{sfx}"));
            let (ms, r) = run(&case.config, &case.spec);
            full.push(ms);
            iters.push(r.admm_history.len() as f64);
            drop(_span);

            let off = AttackConfig {
                refine: None,
                ..case.config.clone()
            };
            let _span = fsa_telemetry::span(&format!("admm.iter_us.{sfx}"));
            let (ms, r_n) = run(&off, &case.spec);
            n_ms += ms;
            n_iters += r_n.admm_history.len();
            let half = AttackConfig {
                iterations: off.iterations / 2,
                ..off.clone()
            };
            let (ms, r_half) = run(&half, &case.spec);
            half_ms += ms;
            half_iters += r_half.admm_history.len();
            drop(_span);

            let _span = fsa_telemetry::span(&format!("attack.overhead_us.{sfx}"));
            let none = AttackConfig {
                iterations: 0,
                ..off.clone()
            };
            zero.push(run(&none, &case.spec).0);
        }
        // Only the full runs refine, each exactly once.
        let w = lad.window();
        let prefix = format!("attack.scenario_ms.{sfx}/");
        let refine_ns: u64 = w
            .spans
            .iter()
            .filter(|(path, _)| path.starts_with(&prefix) && path.ends_with("/refine"))
            .map(|(_, s)| s.total_ns)
            .sum();
        let refine_iterations = w
            .counters
            .iter()
            .find(|(name, _)| name == "refine.iterations")
            .map_or(0, |(_, v)| *v);
        let iter_us = if n_iters > half_iters {
            (n_ms - half_ms) * 1e3 / (n_iters - half_iters) as f64
        } else {
            n_ms * 1e3 / n_iters.max(1) as f64
        };
        rows.push((
            mean(&full),
            mean(&iters),
            iter_us,
            mean(&zero),
            refine_ns as f64 / 1e6 / cases.len() as f64,
            refine_iterations as f64 / cases.len() as f64,
        ));
    }
    Threads::Default.apply(&lad.env_default);
    let [a, b] = [rows[0], rows[1]];
    lad.push_pair("attack.scenario_ms", "ms", [a.0, b.0]);
    lad.push_pair("admm.iter_us", "us", [a.2, b.2]);
    lad.push_pair("attack.overhead_us", "us", [a.3 * 1e3, b.3 * 1e3]);
    lad.push_pair("attack.refine_us", "us", [a.4 * 1e3, b.4 * 1e3]);
    lad.metrics.push("attack.refine_iters", a.5, "count");
    let explained = a.3 + a.1 * a.2 / 1e3 + a.4;
    let unaccounted = (a.0 - explained) / a.0;
    println!(
        "accounting attack: overhead {:.3} ms + {:.1} iters x {:.2} us + refine {:.3} ms = {explained:.3} ms vs scenario {:.3} ms",
        a.3, a.1, a.2, a.4, a.0
    );
    unaccounted
}

/// Spec construction and the sweep, against the sum of standalone
/// scenarios. Returns the unaccounted share at one thread.
fn campaign_layers(
    lad: &mut Ladder,
    head: &FcHead,
    selection: &ParamSelection,
    campaign: &Campaign<'_>,
    spec: &CampaignSpec,
) -> f64 {
    let scenarios = spec.scenarios();
    lad.pair("campaign.spec_us", "us", |span| {
        sample_us(span, 100.0, || {
            for sc in &scenarios {
                black_box(campaign.scenario_spec(sc, spec.c_attack, spec.c_keep));
            }
        }) / scenarios.len() as f64
    });
    lad.pair("campaign.sweep_ms", "ms", |span| {
        sample_us(span, 400.0, || {
            black_box(campaign.run(spec));
        }) / 1e3
    });
    // The sweep and the sum of its parts in interleaved rounds at one
    // thread, so host drift hits both alike.
    Threads::One.apply(&lad.env_default);
    let (mut sweeps, mut sums) = (vec![], vec![]);
    for _ in 0..3 {
        let t = Instant::now();
        black_box(campaign.run(spec));
        sweeps.push(ms_since(t));
        let mut parts_ms = 0.0;
        for sc in &scenarios {
            let t = Instant::now();
            let aspec = campaign
                .scenario_spec(sc, spec.c_attack, spec.c_keep)
                .with_stealth(spec.stealth);
            black_box(
                FaultSneakingAttack::new(
                    head,
                    selection.clone(),
                    workload::scenario_config(&spec.base, sc),
                )
                .run(&aspec),
            );
            parts_ms += ms_since(t);
        }
        sums.push(parts_ms);
    }
    Threads::Default.apply(&lad.env_default);
    let (sweep, parts_ms) = (median(&sweeps), median(&sums));
    let overhead = (sweep - parts_ms) / sweep;
    lad.metrics
        .push("campaign.overhead_frac", overhead, "ratio");
    println!(
        "accounting campaign: {} x (spec + scenario) = {parts_ms:.3} ms vs sweep {sweep:.3} ms",
        scenarios.len()
    );
    overhead
}

/// Report wire format, shard-job shipping, stream parsing, and the two
/// transports on the grid fixture. Returns the unaccounted share of a
/// sharded run at one thread.
fn wire_and_harness(lad: &mut Ladder, s: &ShardedBench) -> f64 {
    let grid = &s.grid;
    let reference = grid.reference();
    let frame = wire::encode_report_frame(reference);
    lad.pair("wire.report_encode_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(wire::encode_report_frame(reference));
        })
    });
    lad.pair("wire.report_decode_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(wire::decode_report_frame(&frame).expect("report frame decodes"));
        })
    });

    let n = grid.spec.len();
    let shards = parallel::split_ranges(n, workload::SHARDS);
    let job = ShardJob {
        head: grid.head.clone(),
        selection: grid.selection.clone(),
        labels: grid.victim.pool_labels.clone(),
        features: grid.victim.pool.features().clone(),
        spec: grid.spec.clone(),
        method: "fsa".into(),
        indices: shards[0].clone().collect(),
    };
    let job_bytes = job.encode();
    lad.pair("harness.job_encode_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(job.encode());
        })
    });
    lad.pair("harness.job_decode_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(ShardJob::decode(&job_bytes).expect("job frame decodes"));
        })
    });
    let mut stream: Vec<u8> = reference
        .outcomes
        .iter()
        .flat_map(wire::encode_outcome_frame)
        .collect();
    stream.extend(wire::encode_end_frame(n as u64));
    let all: Vec<usize> = (0..n).collect();
    lad.pair("harness.parse_us", "us", |span| {
        sample_us(span, 100.0, || {
            let mut p = StreamParser::new(&all);
            p.push(&stream).expect("captured stream parses");
            black_box(p.finish().expect("captured stream is complete"));
        })
    });

    let mut logs: Vec<ExecutionLog> = Vec::new();
    let sharded = |spec: &CampaignSpec, socket: bool, logs: &mut Vec<ExecutionLog>| {
        let t = Instant::now();
        let run = s.run(spec, socket);
        let ms = ms_since(t);
        assert!(run.report.len() == spec.len(), "sharded run lost scenarios");
        logs.push(run.log);
        ms
    };
    let timed_runs = |name: &str, socket: bool, logs: &mut Vec<ExecutionLog>, lad: &mut Ladder| {
        lad.pair(name, "ms", |span| {
            let mut v = Vec::new();
            let start = Instant::now();
            while v.len() < 3 || (v.len() < 7 && ms_since(start) < 600.0) {
                let _span = fsa_telemetry::span(span);
                v.push(sharded(&grid.spec, socket, logs));
            }
            median(&v)
        })
    };
    let pipe = timed_runs("harness.pipe_ms", false, &mut logs, lad);
    timed_runs("harness.socket_ms", true, &mut logs, lad);
    let inproc = inprocess_sweep(lad, grid);
    lad.push_pair(
        "harness.overhead_ms",
        "ms",
        [pipe[0] - inproc[0], pipe[1] - inproc[1]],
    );

    // Accounting at one thread: the slowest shard's in-process compute
    // plus the fixed harness cost (a zero-iteration grid through the
    // same two shards) should explain the sharded run. The three are
    // measured in interleaved rounds so host drift hits them alike.
    Threads::One.apply(&lad.env_default);
    let empty = grid.spec.clone().with_config(AttackConfig {
        iterations: 0,
        refine: None,
        ..grid.spec.base.clone()
    });
    let (mut whole, mut critical, mut fixed) = (vec![], vec![], vec![]);
    for _ in 0..5 {
        whole.push(sharded(&grid.spec, false, &mut logs));
        let slowest = shards
            .iter()
            .map(|r| {
                let idx: Vec<usize> = r.clone().collect();
                let t = Instant::now();
                black_box(grid.campaign.run_indices(&grid.spec, &FsaMethod, &idx));
                ms_since(t)
            })
            .fold(0.0, f64::max);
        critical.push(slowest);
        fixed.push(sharded(&empty, false, &mut logs));
    }
    Threads::Default.apply(&lad.env_default);
    let (whole, critical, fixed) = (median(&whole), median(&critical), median(&fixed));
    println!(
        "accounting harness: critical shard {critical:.3} ms + fixed harness cost {fixed:.3} ms = {:.3} ms vs sharded {whole:.3} ms",
        critical + fixed
    );

    let retries: usize = logs
        .iter()
        .map(|l| l.total_attempts() - l.resolutions.len())
        .sum();
    lad.metrics.push("harness.retries", retries as f64, "count");
    lad.metrics.push(
        "harness.degraded",
        logs.iter().map(|l| l.degraded()).sum::<usize>() as f64,
        "count",
    );
    lad.metrics.push(
        "harness.heartbeats",
        logs.iter().map(|l| l.heartbeats).sum::<u64>() as f64,
        "count",
    );
    lad.metrics.push(
        "harness.registrations",
        logs.iter().map(|l| l.registrations).sum::<u64>() as f64,
        "count",
    );
    (whole - critical - fixed) / whole
}

/// The in-process grid sweep at both thread settings (milliseconds).
fn inprocess_sweep(lad: &Ladder, grid: &GridBench) -> [f64; 2] {
    let mut v = [0.0; 2];
    for (i, t) in Threads::BOTH.into_iter().enumerate() {
        t.apply(&lad.env_default);
        v[i] = sample_us("harness.inprocess_ms", 400.0, || {
            black_box(grid.campaign.run(&grid.spec));
        }) / 1e3;
    }
    Threads::Default.apply(&lad.env_default);
    v
}

/// Defense scoring and calibration, int8 projection, and the stealth
/// repair passes on the arena fixture.
fn arena_layers(lad: &mut Ladder, a: &ArenaBench) {
    let r = &a.reference[0];
    let spec = &a.specs[0].0;
    lad.pair("defense.score_ms", "ms", |span| {
        sample_us(span, 300.0, || {
            black_box(a.f32_arena.score_report(&r.f32_report));
        }) / 1e3
    });
    lad.pair("defense.calibrate_ms", "ms", |span| {
        sample_us(span, 300.0, || {
            black_box(ArenaBench::suite(a.victim, a.head, a.geometry));
        }) / 1e3
    });

    // A continuous δ (the F32 plan) projected onto the int8 grid.
    let qsel = QuantizedSelection::gather(&a.qclean, &a.selection);
    let delta = &r.f32_report.outcomes[0].result.delta;
    lad.pair("precision.project_us", "us", |span| {
        sample_us(span, 100.0, || {
            black_box(qsel.project(delta));
        })
    });

    // The raw ADMM output of the first scenario without the stealth
    // objective, then the block prune and parity repair it adds.
    let stealth = spec
        .stealth
        .expect("arena spec carries a stealth objective");
    let sc = spec.scenarios()[0];
    let aspec = a.campaign.scenario_spec(&sc, spec.c_attack, spec.c_keep);
    let config = AttackConfig {
        refine: None,
        ..workload::scenario_config(&spec.base, &sc)
    };
    let raw = FaultSneakingAttack::new(a.head, a.selection.clone(), config)
        .run(&aspec)
        .delta;
    let gidx = a.selection.global_indices(a.head);
    let blocks = stealth.delta_blocks(&gidx);
    let layout = stealth.whole_model_layout(a.head.param_count());
    let theta0 = a.selection.gather(a.head);
    lad.pair("stealth.repair_us", "us", |span| {
        sample_us(span, 100.0, || {
            let mut d = raw.clone();
            prune_to_block_budget(&mut d, &blocks, stealth.max_dirty_blocks);
            black_box(repair_parity_f32(&mut d, &theta0, &gidx, &layout));
        })
    });
}

/// Builds a fixture workload the traced workload does not own.
fn fixture(name: &str, seed: u64) -> Bench {
    let mut b = Bench::setup(name, seed).expect("fixture workload exists");
    b.compute_reference();
    b
}

/// Runs the ladder, the accounting check, and the untraced/traced loops
/// (the loops at one thread, like the untraced run's closed loop).
/// `env_default` is the `FSA_THREADS` value the benchmark was started
/// with. Returns the per-layer metrics, the loops' combined statistics,
/// and extra fields for the result file.
pub fn traced_run(
    bench: &Bench,
    workload_name: &str,
    seed: u64,
    seconds: f64,
    env_default: Option<OsString>,
) -> (Metrics, LoopStats, Vec<(String, String)>) {
    let mut lad = Ladder {
        metrics: Metrics::default(),
        env_default,
        slower: Vec::new(),
        windows: Vec::new(),
    };
    fsa_telemetry::set_enabled(true);
    let t_ladder = Instant::now();
    kernels(&mut lad);
    nn_and_prox(&mut lad);

    let results = bench.reference_results();
    let iters: Vec<f64> = results
        .iter()
        .map(|r| r.admm_history.len() as f64)
        .collect();
    let capped = results.iter().filter(|r| !r.converged).count();
    lad.metrics
        .push("admm.iters_per_scenario", mean(&iters), "count");
    lad.metrics.push(
        "admm.hit_cap_frac",
        capped as f64 / results.len() as f64,
        "ratio",
    );

    // Fixtures this workload does not own, built on demand.
    let (mut own_sharded, mut own_arena) = (None, None);
    let sharded = match bench {
        Bench::Sharded(s) => s,
        _ => match own_sharded.insert(fixture("sharded_grid", seed)) {
            Bench::Sharded(s) => &*s,
            _ => unreachable!("fixture returned another workload"),
        },
    };
    let arena = match bench {
        Bench::Arena(a) => a,
        _ => match own_arena.insert(fixture("arena_int8_stealth", seed)) {
            Bench::Arena(a) => &*a,
            _ => unreachable!("fixture returned another workload"),
        },
    };

    // The blocking path's scenarios: the workload's own shapes.
    let attack_unaccounted = match bench {
        Bench::Paper(p) => attack_layers(&mut lad, p.head, &p.selection, &paper_cases(p)),
        Bench::Grid(g) => {
            let cases = campaign_cases(&g.campaign, &g.spec);
            attack_layers(&mut lad, g.head, &g.selection, &cases)
        }
        Bench::Sharded(s) => {
            let cases = campaign_cases(&s.grid.campaign, &s.grid.spec);
            attack_layers(&mut lad, s.grid.head, &s.grid.selection, &cases)
        }
        Bench::Arena(a) => {
            let cases = campaign_cases(&a.campaign, &a.specs[0].0);
            attack_layers(&mut lad, a.head, &a.selection, &cases)
        }
    };
    let campaign_unaccounted = match bench {
        Bench::Arena(a) => {
            campaign_layers(&mut lad, a.head, &a.selection, &a.campaign, &a.specs[0].0)
        }
        _ => {
            let g = &sharded.grid;
            campaign_layers(&mut lad, g.head, &g.selection, &g.campaign, &g.spec)
        }
    };
    let harness_unaccounted = wire_and_harness(&mut lad, sharded);
    arena_layers(&mut lad, arena);
    let ladder_s = t_ladder.elapsed().as_secs_f64();

    let checks = [
        ("attack", attack_unaccounted),
        ("campaign", campaign_unaccounted),
        ("harness", harness_unaccounted),
    ];
    let mut accounting_ok = true;
    for (name, share) in checks {
        let pass = share.abs() <= ACCOUNTING_SLACK;
        accounting_ok &= pass;
        println!(
            "accounting {name}: unaccounted {:+.1}% (slack ±{:.0}%) {}",
            share * 100.0,
            ACCOUNTING_SLACK * 100.0,
            if pass { "PASS" } else { "FAIL" }
        );
        lad.metrics.push(
            format!("accounting.{name}.unaccounted_frac"),
            share,
            "ratio",
        );
    }
    println!(
        "thread ladder: {} layers slower at the default thread count than at 1 thread",
        lad.slower.len()
    );
    for s in &lad.slower {
        println!("  slower at default: {s}");
    }

    Threads::One.apply(&lad.env_default);
    let (untraced, traced, overhead) = tracing_overhead(bench, seconds);
    fsa_telemetry::set_enabled(false);
    println!(
        "tracing overhead: {:.2} scenarios/s untraced vs {:.2} traced, median paired-op ratio {:+.1}%",
        untraced.scenarios_per_s(),
        traced.scenarios_per_s(),
        overhead * 100.0
    );
    lad.window();
    let snapshot = merge_windows(std::mem::take(&mut lad.windows));
    let path = crate::results_dir().join(format!("trace-{workload_name}-seed{seed}.json"));
    match std::fs::create_dir_all(crate::results_dir())
        .and_then(|()| std::fs::write(&path, snapshot.to_json()))
    {
        Ok(()) => println!("trace snapshot written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    lad.metrics.push("trace.overhead_frac", overhead, "ratio");
    lad.metrics.push(
        "trace.untraced_scenarios_per_s",
        untraced.scenarios_per_s(),
        "1/s",
    );
    lad.metrics.push(
        "trace.traced_scenarios_per_s",
        traced.scenarios_per_s(),
        "1/s",
    );
    let mut stats = untraced;
    stats.latencies_ms.extend(traced.latencies_ms);
    stats.failures.extend(traced.failures);
    let attempted = stats.latencies_ms.len();
    lad.metrics.push(
        "error_rate",
        stats.failures.len() as f64 / attempted as f64,
        "ratio",
    );
    lad.metrics.push("ladder_s", ladder_s, "s");
    let extra = vec![
        (
            "accounting_slack".to_string(),
            crate::measure::json_number(ACCOUNTING_SLACK),
        ),
        ("accounting_pass".to_string(), accounting_ok.to_string()),
        (
            "slower_at_default".to_string(),
            format!(
                "[{}]",
                lad.slower
                    .iter()
                    .map(|s| fsa_telemetry::json_string(s))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    (lad.metrics, stats, extra)
}

/// Tracing overhead with host drift paired out: every op index runs
/// twice in a row, once untraced and once traced, alternating which goes
/// first, until `seconds` have passed. Returns the untraced and traced
/// halves (each half's wall time is the sum of its op latencies) and the
/// median traced/untraced latency ratio minus 1.
fn tracing_overhead(bench: &Bench, seconds: f64) -> (LoopStats, LoopStats, f64) {
    let mut halves = [LoopStats::default(), LoopStats::default()];
    let mut ratios = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while ms_since(start) < seconds * 1e3 {
        let mut ms = [0.0; 2];
        for traced in [i % 2 == 1, i % 2 == 0] {
            let h = usize::from(traced);
            fsa_telemetry::set_enabled(traced);
            ms[h] = halves[h].run_op(bench, i);
        }
        ratios.push(ms[1] / ms[0]);
        i += 1;
    }
    for h in &mut halves {
        h.wall_s = h.latencies_ms.iter().sum::<f64>() / 1e3;
    }
    let [untraced, traced] = halves;
    (untraced, traced, median(&ratios) - 1.0)
}

/// Folds the drained telemetry windows into one snapshot, as one drain
/// at the end would have returned it.
fn merge_windows(windows: Vec<Snapshot>) -> Snapshot {
    let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut histograms: BTreeMap<String, Histogram> = BTreeMap::new();
    let mut out = Snapshot::default();
    for w in windows {
        for (path, s) in w.spans {
            spans.entry(path).and_modify(|e| e.merge(&s)).or_insert(s);
        }
        for (name, v) in w.counters {
            let c = counters.entry(name).or_default();
            *c = c.saturating_add(v);
        }
        for (name, h) in w.histograms {
            histograms
                .entry(name)
                .and_modify(|e| e.merge(&h))
                .or_insert(h);
        }
        out.events.extend(w.events);
        out.convergence.extend(w.convergence);
    }
    out.spans = spans.into_iter().collect();
    out.counters = counters.into_iter().collect();
    out.histograms = histograms.into_iter().collect();
    out.events.sort_by_key(|e| e.seq);
    out.convergence
        .sort_by(|a, b| (&a.ctx, &a.name).cmp(&(&b.ctx, &b.name)));
    out
}

/// One standalone case per scenario of a campaign spec.
fn campaign_cases(campaign: &Campaign<'_>, spec: &CampaignSpec) -> Vec<Case> {
    spec.scenarios()
        .iter()
        .map(|sc| Case {
            config: workload::scenario_config(&spec.base, sc),
            spec: campaign
                .scenario_spec(sc, spec.c_attack, spec.c_keep)
                .with_stealth(spec.stealth),
        })
        .collect()
}

/// One case per (S, norm) cell of the paper cycle.
fn paper_cases(p: &PaperBench) -> Vec<Case> {
    (0..4)
        .map(|j| Case {
            config: workload::scenario_config(&p.base, &p.scenarios[j]),
            spec: p.specs[j].clone(),
        })
        .collect()
}
