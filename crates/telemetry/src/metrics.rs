//! Value types of drained snapshots: span statistics, fixed-boundary
//! histograms, structured events, and per-run convergence summaries.
//!
//! The sink records span statistics, counters and one convergence
//! summary per solver run. Nothing in the library records a histogram
//! or an event; those types stay as the shape of [`crate::Snapshot`]'s
//! `histograms` and `events`, which readers that merge drained
//! snapshots still fill.
//!
//! Everything here is plain data with order-independent merge
//! operations, so per-thread buffers can fold into the global sink in
//! any thread-exit order and still produce the same aggregate.

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans recorded at this path.
    pub count: u64,
    /// Total nanoseconds across all completions (saturating).
    pub total_ns: u64,
    /// Shortest single completion in nanoseconds.
    pub min_ns: u64,
    /// Longest single completion in nanoseconds.
    pub max_ns: u64,
}

impl SpanStat {
    /// A stat covering a single completion that took `ns` nanoseconds.
    pub fn one(ns: u64) -> Self {
        Self {
            count: 1,
            total_ns: ns,
            min_ns: ns,
            max_ns: ns,
        }
    }

    /// Folds another stat into this one; commutative and associative,
    /// so merge order across threads cannot change the result.
    pub fn merge(&mut self, other: &SpanStat) {
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Mean nanoseconds per completion (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Fixed-boundary histogram over `u64` samples.
///
/// Bucket `i` counts samples `v` with `v <= bounds[i]` (and
/// `v > bounds[i-1]` for `i > 0`); a final implicit overflow bucket
/// counts everything above the last bound. Counts and the sample sum
/// saturate instead of wrapping, so a runaway counter can never panic
/// or alias a small value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
        }
    }

    /// Records one sample into its bucket (saturating).
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
    }

    /// Folds another histogram into this one bucket-by-bucket.
    ///
    /// # Panics
    ///
    /// Panics if the boundary vectors differ — merging histograms with
    /// different bucket layouts would silently misfile samples.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c = c.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Inclusive upper bucket bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket, so the
    /// slice is one longer than [`Self::bounds`].
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of samples recorded (saturating).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }
}

/// A structured event field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point; non-finite values serialize as JSON `null`.
    F64(f64),
    /// UTF-8 text.
    Str(String),
}

/// One structured event of a snapshot's `events` list. [`crate::drain`]
/// never returns one; merged snapshots sort their events by `seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Emission sequence number, the merge order.
    pub seq: u64,
    /// Monotonic nanoseconds at emission ([`crate::clock::monotonic_ns`]).
    pub t_ns: u64,
    /// Wall-clock milliseconds since the UNIX epoch at emission.
    pub t_wall_ms: u64,
    /// Span path active on the emitting thread (`""` at top level).
    pub ctx: String,
    /// Event kind.
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, Value)>,
}

/// One solver run's convergence summary, tied to a span path: where the
/// run stopped, as analyzed in §4–5 of the source paper. The full
/// per-iteration curves stay with the solver's result, not the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceTrace {
    /// Span path active when the trace was emitted.
    pub ctx: String,
    /// Trace label, e.g. `"admm"`.
    pub name: String,
    /// Iterations the run took.
    pub iters: u32,
    /// Whether the run met its stopping rule before the iteration cap.
    pub converged: bool,
    /// Hinge objective value at the last δ-step.
    pub objective: f32,
    /// Primal residual `‖z − δ‖₂` after the last iteration.
    pub primal: f32,
    /// Dual residual `ρ‖δ^{k+1} − δᵏ‖₂` of the last iteration.
    pub dual: f32,
    /// Support size of the final sparse iterate.
    pub support: u32,
    /// Keep-set images whose hinge was active at the last evaluation.
    pub keep_violations: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_stat_merge_is_order_independent() {
        let parts = [SpanStat::one(10), SpanStat::one(3), SpanStat::one(77)];
        let mut fwd = parts[0];
        fwd.merge(&parts[1]);
        fwd.merge(&parts[2]);
        let mut rev = parts[2];
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.count, 3);
        assert_eq!(fwd.total_ns, 90);
        assert_eq!(fwd.min_ns, 3);
        assert_eq!(fwd.max_ns, 77);
        assert_eq!(fwd.mean_ns(), 30);
    }

    #[test]
    fn span_stat_total_saturates() {
        let mut a = SpanStat::one(u64::MAX - 1);
        a.merge(&SpanStat::one(100));
        assert_eq!(a.total_ns, u64::MAX);
        assert_eq!(a.count, 2);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [0, 10, 11, 100, 101, u64::MAX] {
            h.record(v);
        }
        // v <= 10 → bucket 0; 10 < v <= 100 → bucket 1; else overflow.
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::new(&[10]);
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_merge_adds_bucketwise() {
        let mut a = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(50);
        let mut b = Histogram::new(&[10, 100]);
        b.record(500);
        b.record(7);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1, 1]);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 562);
    }

    #[test]
    #[should_panic(expected = "histogram bounds mismatch")]
    fn histogram_merge_rejects_different_bounds() {
        let mut a = Histogram::new(&[10]);
        a.merge(&Histogram::new(&[20]));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }
}
