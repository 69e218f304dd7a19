//! Minimal wall-clock benchmark harness.
//!
//! The workspace builds fully offline (no criterion), so the bench
//! targets share this harness: auto-calibrated iteration counts, a
//! handful of timed samples, and the **median** ns/iteration (robust to
//! scheduler noise), plus the p50/p95/min/max spread across samples.
//! Committed end-to-end numbers come from the repository benchmark in
//! `benchmark/`, not from here.
//!
//! Timing runs on [`fsa_telemetry::clock::monotonic_ns`] — the same
//! monotonic epoch the telemetry spans use — so bench numbers and trace
//! spans share one clock discipline. When telemetry is enabled each
//! timed sample additionally runs under a span named after the
//! benchmark, so traces show where bench wall-clock went.

use fsa_telemetry::clock::monotonic_ns;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Benchmark name.
    pub name: String,
    /// Median nanoseconds per iteration (equal to [`Sample::p50_ns`];
    /// kept as the headline number every existing consumer reads).
    pub ns_per_iter: f64,
    /// 50th-percentile ns/iteration across timed samples.
    pub p50_ns: f64,
    /// 95th-percentile (nearest-rank) ns/iteration across samples.
    pub p95_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
    /// Slowest sample's ns/iteration.
    pub max_ns: f64,
    /// Iterations per timed sample.
    pub iters: u64,
    /// Number of timed samples taken.
    pub samples: usize,
}

impl Sample {
    /// GFLOP/s given the floating-point operations one iteration performs.
    pub fn gflops(&self, flops_per_iter: f64) -> f64 {
        flops_per_iter / self.ns_per_iter
    }
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * p / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Measures `f`, printing and returning the result.
///
/// Calibrates the per-sample iteration count against a short warmup, then
/// times [`SAMPLES`] batches and reports the median plus the
/// p50/p95/min/max spread.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) -> Sample {
    // Warmup + cost estimate: run for ~30 ms.
    let t0 = monotonic_ns();
    let mut warm_iters = 0u64;
    loop {
        std::hint::black_box(f());
        warm_iters += 1;
        if monotonic_ns().saturating_sub(t0) >= 30_000_000 || warm_iters >= 1_000_000 {
            break;
        }
    }
    let est_ns = monotonic_ns().saturating_sub(t0) as f64 / warm_iters as f64;
    // Aim for ~60 ms per sample, capped so slow end-to-end runs still
    // finish in a few seconds.
    let iters = ((60_000_000.0 / est_ns).ceil() as u64).clamp(1, 10_000_000);

    let mut times = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        // Gated span per sample: traces attribute bench wall-clock to
        // the benchmark's name without costing the disabled path.
        let _span = if fsa_telemetry::enabled() {
            Some(fsa_telemetry::span(name))
        } else {
            None
        };
        let t = monotonic_ns();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        times.push(monotonic_ns().saturating_sub(t) as f64 / iters as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("bench time was NaN"));
    let p50 = percentile(&times, 50.0);
    let sample = Sample {
        name: name.to_string(),
        ns_per_iter: p50,
        p50_ns: p50,
        p95_ns: percentile(&times, 95.0),
        min_ns: times[0],
        max_ns: times[times.len() - 1],
        iters,
        samples: SAMPLES,
    };
    println!(
        "{:<40} {:>14.1} ns/iter  p95 {:>12.1}  [{:.1}..{:.1}]  ({} iters x {} samples)",
        sample.name,
        sample.ns_per_iter,
        sample.p95_ns,
        sample.min_ns,
        sample.max_ns,
        sample.iters,
        sample.samples
    );
    sample
}

/// Timed samples per benchmark.
pub const SAMPLES: usize = 5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let s = bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(s.ns_per_iter > 0.0);
        assert!(s.iters >= 1);
        assert_eq!(s.ns_per_iter, s.p50_ns);
        assert!(s.min_ns <= s.p50_ns && s.p50_ns <= s.p95_ns && s.p95_ns <= s.max_ns);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 95.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }
}
