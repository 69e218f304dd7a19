//! Timing statistics, process counters read from `/proc`, and the
//! metric record every result is printed through.

/// Percentile `q` (0..=1) of `xs` by linear interpolation between the
/// closest ranks. `xs` need not be sorted; NaN for an empty slice.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Arithmetic mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Process CPU time in milliseconds: user + system of every thread, plus
/// that of every child process already waited for (`/proc/self/stat`
/// fields 14–17, in clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it
    // start past the closing parenthesis.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // `rest` starts at field 3 (state), so field n sits at index n - 3.
    let ticks: u64 = (14..=17).filter_map(|n| fields.get(n - 3)).sum();
    ticks as f64 * 10.0
}

/// What the [`Probe`] slice takes, in milliseconds, at the reference
/// host speed that corrected timings are expressed at.
pub const PROBE_REF_MS: f64 = 0.5;

/// The factor that scales a time measured between two probes to the
/// reference host speed.
pub fn speed_factor(probe_before_ms: f64, probe_after_ms: f64) -> f64 {
    PROBE_REF_MS / ((probe_before_ms + probe_after_ms) / 2.0)
}

/// A host-speed probe: a fixed slice of compute that depends on no code
/// outside this file, the dot products of a 100×200 by 10×200 matrix
/// pair, repeated. On a shared host the speed of a core changes by up to
/// 1.8× from one minute to the next; the probe's time changes with it,
/// and no library code runs inside it.
pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    out: Vec<f32>,
}

impl Probe {
    const PASSES: usize = 20;

    pub fn new() -> Self {
        Self {
            a: (0..100 * 200).map(|i| (i % 7) as f32 * 0.25).collect(),
            b: (0..10 * 200).map(|i| (i % 5) as f32 * 0.5).collect(),
            out: vec![0.0; 100 * 10],
        }
    }

    /// Milliseconds the slice takes now.
    pub fn time_ms(&mut self) -> f64 {
        let t = std::time::Instant::now();
        for _ in 0..Self::PASSES {
            for (row, out) in self.a.chunks_exact(200).zip(self.out.chunks_exact_mut(10)) {
                for (col, o) in self.b.chunks_exact(200).zip(out.iter_mut()) {
                    let mut acc = [0.0f32; 8];
                    for (x, y) in row.chunks_exact(8).zip(col.chunks_exact(8)) {
                        for k in 0..8 {
                            acc[k] += x[k] * y[k];
                        }
                    }
                    *o = acc.iter().sum();
                }
            }
            std::hint::black_box(&mut self.out);
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered list of metrics, printed as the `metrics` object of the
/// result line.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value (non-finite values become `null`).
    pub fn to_json(&self) -> String {
        let cells: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!("{{{}}}", cells.join(", "))
    }
}

/// A JSON number literal for `v` (`null` when not finite).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("a", 1.25, "ms");
        m.push("b", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": null, \"unit\": \"s\"}}"
        );
    }
}
