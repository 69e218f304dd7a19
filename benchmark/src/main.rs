//! The repository benchmark.
//!
//! ```text
//! fsa-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Sets the workload up (several times, reporting the median set-up
//! time), computes a single-thread reference, checks one cycle of ops at
//! the default thread count against it, then runs a closed loop of
//! operations at one thread for `--seconds`, checking every op bit for
//! bit against the reference. With `--trace 0` it reports the end-to-end
//! metrics, every timing scaled to a reference host speed by the probe in
//! `measure.rs`; with
//! `--trace 1` it runs the per-layer ladder and a traced loop instead
//! and reports the per-layer metrics. The last line of standard output
//! is one JSON object; the full result is also written under
//! `benchmark/results/`. See `README.md` beside this crate.

mod fixture;
mod ladder;
mod measure;
mod workload;

use ladder::Threads;
use measure::{json_number, median, Metrics};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;
use workload::Bench;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workload::NAMES,
            args.workload
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one closed loop measured.
#[derive(Default)]
pub struct LoopStats {
    pub latencies_ms: Vec<f64>,
    pub failures: Vec<String>,
    pub wall_s: f64,
    pub cpu_ms: f64,
    pub scenarios: usize,
    /// Host-speed probe times: one before each op and one after the last
    /// (filled by [`closed_loop`] only).
    pub probes_ms: Vec<f64>,
}

impl LoopStats {
    /// Scenarios completed per second of measured time.
    pub fn scenarios_per_s(&self) -> f64 {
        self.scenarios as f64 / self.wall_s
    }

    /// Op latencies scaled to the reference host speed by the probes
    /// taken just before and just after each op.
    pub fn corrected_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(self.probes_ms.windows(2))
            .map(|(&ms, p)| ms * measure::speed_factor(p[0], p[1]))
            .collect()
    }

    /// Runs op `i` once and records its latency and outcome. A panicking
    /// op counts as failed. Returns the latency in milliseconds.
    pub fn run_op(&mut self, bench: &Bench, i: usize) -> f64 {
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| bench.op(i)));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.latencies_ms.push(ms);
        match outcome {
            Ok(Ok(())) => self.scenarios += bench.scenarios_per_op(),
            Ok(Err(e)) => self.failures.push(format!("op {i}: {e}")),
            Err(_) => self.failures.push(format!("op {i}: panicked")),
        }
        ms
    }
}

/// Runs ops back to back (one in flight) until `seconds` have passed,
/// with a host-speed probe between each two.
pub fn closed_loop(bench: &Bench, seconds: f64) -> LoopStats {
    let mut stats = LoopStats::default();
    let cpu0 = measure::cpu_ms();
    let start = Instant::now();
    let mut i = 0;
    let mut probe = measure::Probe::new();
    while start.elapsed().as_secs_f64() < seconds {
        stats.probes_ms.push(probe.time_ms());
        stats.run_op(bench, i);
        i += 1;
    }
    stats.probes_ms.push(probe.time_ms());
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.cpu_ms = measure::cpu_ms() - cpu0;
    stats
}

/// Percentile reported as `op_p95_ms`. It is fixed, so runs that
/// finish different numbers of ops still compare the same percentile.
const TAIL_Q: f64 = 0.95;
/// Samples needed for ten ops to lie beyond the p95.
const TAIL_SAMPLES: usize = 200;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn main() {
    // Worker mode for the sharded workload: the harness re-spawns this
    // binary, and a worker never reaches the benchmark below.
    fsa_harness::worker::maybe_run_worker();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fsa-benchmark: {e}");
            std::process::exit(2);
        }
    };
    // Resolve the default thread count before pinning this process to one
    // thread: the library caches it on first use.
    let threads = fsa_tensor::parallel::max_threads();
    let env_threads = std::env::var_os("FSA_THREADS");
    // Set-up and the measured loops run at one thread. At the default
    // count, threads contend with whatever else the host runs, and
    // repeated runs spread past any usable bound.
    Threads::One.apply(&env_threads);
    println!(
        "workload {} | seed {} | {} s | trace {} | host cores {} | default threads {threads} | measured at 1 thread",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cores(),
    );

    // Set-up times, raw and scaled to the reference host speed.
    let (mut setup_s, mut setup_raw_s) = (Vec::new(), Vec::new());
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut bench = None;
    let mut probe = measure::Probe::new();
    let mut before = probe.time_ms();
    for _ in 0..reps {
        // Drop the previous set-up first, so repeats do not stack memory.
        drop(bench.take());
        let t = Instant::now();
        bench = Bench::setup(&args.workload, args.seed);
        let s = t.elapsed().as_secs_f64();
        let after = probe.time_ms();
        setup_raw_s.push(s);
        setup_s.push(s * measure::speed_factor(before, after));
        before = after;
    }
    let mut bench = bench.expect("workload name was validated");
    let t = Instant::now();
    bench.compute_reference();
    let reference_s = t.elapsed().as_secs_f64();
    let fingerprint = bench.fingerprint();
    let mut reference_ok = true;
    for r in bench.reference_results() {
        if let Err(e) = workload::sanity(r, bench.dim()) {
            eprintln!("reference failed its sanity gate: {e}");
            reference_ok = false;
        }
    }
    println!(
        "set-up {:.3} s (median of {}), single-thread reference {reference_s:.3} s",
        median(&setup_s),
        setup_s.len()
    );
    println!("reference fingerprint {fingerprint:#018x}");

    // One untimed cycle at the default thread count, checked like any op.
    Threads::Default.apply(&env_threads);
    let mut check = LoopStats::default();
    for i in 0..bench.cycle() {
        check.run_op(&bench, i);
    }
    Threads::One.apply(&env_threads);
    println!(
        "default-thread check: {} ops, {} failed, op p50 {:.3} ms at {threads} threads",
        check.latencies_ms.len(),
        check.failures.len(),
        median(&check.latencies_ms)
    );

    let mut extra: Vec<(String, String)> = vec![(
        "default_threads_op_p50_ms".into(),
        json_number(median(&check.latencies_ms)),
    )];
    let (metrics, stats) = if args.trace {
        let (metrics, stats, notes) =
            ladder::traced_run(&bench, &args.workload, args.seed, args.seconds, env_threads);
        extra.extend(notes);
        (metrics, stats)
    } else {
        let stats = closed_loop(&bench, args.seconds);
        let q = bench.quality();
        let n = stats.latencies_ms.len();
        if n < TAIL_SAMPLES {
            eprintln!(
                "warning: {n} ops leave fewer than ten beyond the p95; lengthen --seconds to reach {TAIL_SAMPLES}"
            );
        }
        // Every timing is reported at the reference host speed; the raw
        // figures go to the result file beside them.
        let corrected = stats.corrected_ms();
        let (raw_sum, corrected_sum) = (
            stats.latencies_ms.iter().sum::<f64>(),
            corrected.iter().sum::<f64>(),
        );
        let scenarios = stats.scenarios.max(1) as f64;
        // Op CPU: the probes are single-thread compute, so their CPU time
        // is their wall time.
        let op_cpu_ms = stats.cpu_ms - stats.probes_ms.iter().sum::<f64>();
        let mut m = Metrics::default();
        m.push(
            "scenarios_per_s",
            stats.scenarios as f64 * 1e3 / corrected_sum,
            "1/s",
        );
        m.push("op_p50_ms", median(&corrected), "ms");
        m.push("op_p95_ms", measure::percentile(&corrected, TAIL_Q), "ms");
        m.push(
            "cpu_ms_per_scenario",
            op_cpu_ms * (corrected_sum / raw_sum) / scenarios,
            "ms",
        );
        m.push("setup_s", median(&setup_s), "s");
        m.push("peak_rss_mb", measure::peak_rss_mb(), "MiB");
        m.push("success_rate", q.success_rate, "ratio");
        m.push("keep_rate", q.keep_rate, "ratio");
        m.push("mean_l0", q.mean_l0, "count");
        m.push("mean_l2", q.mean_l2, "norm");
        let mut raw = Metrics::default();
        raw.push(
            "scenarios_per_s",
            stats.scenarios as f64 * 1e3 / raw_sum,
            "1/s",
        );
        raw.push("op_p50_ms", median(&stats.latencies_ms), "ms");
        raw.push(
            "op_p95_ms",
            measure::percentile(&stats.latencies_ms, TAIL_Q),
            "ms",
        );
        raw.push("cpu_ms_per_scenario", op_cpu_ms / scenarios, "ms");
        raw.push("setup_s", median(&setup_raw_s), "s");
        let probe_p50 = median(&stats.probes_ms);
        println!(
            "host-speed probe: median {probe_p50:.4} ms against {} ms at the reference speed; raw op p50 {:.3} ms",
            measure::PROBE_REF_MS,
            median(&stats.latencies_ms)
        );
        extra.push(("raw_metrics".into(), raw.to_json()));
        extra.push(("probe_ref_ms".into(), json_number(measure::PROBE_REF_MS)));
        let list = |xs: &[f64]| {
            let v: Vec<String> = xs.iter().map(|&x| json_number(x)).collect();
            format!("[{}]", v.join(", "))
        };
        extra.push(("latencies_ms".into(), list(&stats.latencies_ms)));
        extra.push(("probes_ms".into(), list(&stats.probes_ms)));
        (m, stats)
    };

    for f in check.failures.iter().chain(&stats.failures) {
        eprintln!("failed {f}");
    }
    let attempted = check.latencies_ms.len() + stats.latencies_ms.len();
    let failed = check.failures.len() + stats.failures.len();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    println!("ops attempted {attempted}, failed {failed}, error_rate {error_rate}");
    for m in &metrics.0 {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }

    let correct = reference_ok && failed == 0;
    let extra_json: String = extra
        .iter()
        .map(|(k, v)| format!(", \"{k}\": {v}"))
        .collect();
    let full = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {}, \
         \"threads\": {threads}, \"measured_threads\": 1, \"samples\": {}, \"failed\": {failed}, \"error_rate\": {}, \
         \"setup_samples\": {}, \"fingerprint\": \"{fingerprint:#018x}\"{extra_json}, \"metrics\": {}}}\n",
        args.workload,
        args.seed,
        json_number(args.seconds),
        args.trace,
        host_cores(),
        stats.latencies_ms.len(),
        json_number(error_rate),
        setup_s.len(),
        metrics.to_json()
    );
    let dir = results_dir();
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &full)) {
        Ok(()) => println!("result written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.to_json()
    );
}
