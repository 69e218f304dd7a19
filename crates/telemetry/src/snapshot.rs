//! Drained telemetry state: JSON export and the text profile tree.
//!
//! A [`Snapshot`] is plain data — [`crate::drain`] hands one over and
//! the sink forgets it. `to_json` produces a self-contained document
//! that callers write through the in-repo io layer into `artifacts/`;
//! `render_tree` is the human view: the span hierarchy with counts and
//! durations, followed by counters, histograms, and trace summaries.

use crate::metrics::{ConvergenceTrace, Event, Histogram, SpanStat, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything the sink held at drain time, in deterministic order
/// (paths and names sorted). The timing values inside are real
/// measurements and vary run to run — which is exactly why none of
/// them may ever enter a fingerprint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Span statistics keyed by hierarchical path, path-sorted.
    pub spans: Vec<(String, SpanStat)>,
    /// Counter values keyed by name, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Histograms keyed by name, name-sorted.
    pub histograms: Vec<(String, Histogram)>,
    /// Structured events in sequence order. [`crate::drain`] leaves this
    /// empty; readers that merge snapshots fill it.
    pub events: Vec<Event>,
    /// Convergence traces sorted by `(ctx, name)`.
    pub convergence: Vec<ConvergenceTrace>,
}

impl Snapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.convergence.is_empty()
    }

    /// Serializes the snapshot as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"spans\": [");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"path\": ");
            push_str_json(&mut out, path);
            let _ = write!(
                out,
                ", \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                s.count, s.total_ns, s.min_ns, s.max_ns
            );
        }
        out.push_str("\n  ],\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            push_str_json(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  },\n  \"histograms\": [");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": ");
            push_str_json(&mut out, name);
            out.push_str(", \"bounds\": ");
            push_u64_array(&mut out, h.bounds());
            out.push_str(", \"counts\": ");
            push_u64_array(&mut out, h.counts());
            let _ = write!(out, ", \"count\": {}, \"sum\": {}}}", h.count(), h.sum());
        }
        out.push_str("\n  ],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"seq\": {}, \"t_ns\": {}, \"t_wall_ms\": {}, \"ctx\": ",
                e.seq, e.t_ns, e.t_wall_ms
            );
            push_str_json(&mut out, &e.ctx);
            out.push_str(", \"kind\": ");
            push_str_json(&mut out, &e.kind);
            out.push_str(", \"fields\": {");
            for (j, (k, v)) in e.fields.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                push_str_json(&mut out, k);
                out.push_str(": ");
                push_value_json(&mut out, v);
            }
            out.push_str("}}");
        }
        out.push_str("\n  ],\n  \"convergence\": [");
        for (i, t) in self.convergence.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"ctx\": ");
            push_str_json(&mut out, &t.ctx);
            out.push_str(", \"name\": ");
            push_str_json(&mut out, &t.name);
            let _ = write!(out, ", \"iters\": {}", t.records.len());
            // Columnar layout keeps 600-iteration traces compact and
            // trivially plottable.
            push_column(&mut out, "iter", t, |r| format!("{}", r.iter));
            push_column(&mut out, "objective", t, |r| fmt_f32(r.objective));
            push_column(&mut out, "primal", t, |r| fmt_f32(r.primal));
            push_column(&mut out, "dual", t, |r| fmt_f32(r.dual));
            push_column(&mut out, "rho", t, |r| fmt_f32(r.rho));
            push_column(&mut out, "support", t, |r| format!("{}", r.support));
            push_column(&mut out, "keep_violations", t, |r| {
                format!("{}", r.keep_violations)
            });
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the span hierarchy as an indented text profile tree,
    /// followed by counters, histogram summaries, and convergence
    /// trace summaries. Paths never recorded themselves but implied by
    /// deeper spans appear with `-` placeholders.
    pub fn render_tree(&self) -> String {
        let mut root = Node::default();
        for (path, stat) in &self.spans {
            let mut node = &mut root;
            for seg in path.split('/') {
                node = node.children.entry(seg.to_string()).or_default();
            }
            node.stat = Some(*stat);
        }
        let mut out = String::new();
        out.push_str("span tree (count  total  mean  [min..max])\n");
        if root.children.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        render_children(&root, 0, &mut out);
        if !self.counters.is_empty() {
            out.push_str("counters\n");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name} = {v}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms\n");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name}: count={} sum={} buckets={:?}",
                    h.count(),
                    h.sum(),
                    h.counts()
                );
            }
        }
        if !self.convergence.is_empty() {
            out.push_str("convergence traces\n");
            for t in &self.convergence {
                let last = t.records.last();
                let _ = writeln!(
                    out,
                    "  {}/{}: {} iters, final objective {} support {} keep_violations {}",
                    t.ctx,
                    t.name,
                    t.records.len(),
                    last.map_or_else(|| "-".to_string(), |r| fmt_f32(r.objective)),
                    last.map_or(0, |r| r.support),
                    last.map_or(0, |r| r.keep_violations),
                );
            }
        }
        out
    }
}

/// One node of the rendered span tree; `stat` is `None` for paths that
/// only exist as prefixes of deeper recorded spans.
#[derive(Default)]
struct Node {
    stat: Option<SpanStat>,
    children: BTreeMap<String, Node>,
}

fn render_children(node: &Node, depth: usize, out: &mut String) {
    for (name, child) in &node.children {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match &child.stat {
            Some(s) => {
                let _ = writeln!(
                    out,
                    "{name}  {}x  {}  {}  [{}..{}]",
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(s.mean_ns()),
                    fmt_ns(s.min_ns),
                    fmt_ns(s.max_ns)
                );
            }
            None => {
                let _ = writeln!(out, "{name}  -");
            }
        }
        render_children(child, depth + 1, out);
    }
}

/// Human-scaled duration: ns below 1 µs, then µs, ms, s.
fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

/// Shortest-roundtrip float, or `null` for non-finite values (JSON has
/// no NaN/Infinity literals).
fn fmt_f32(v: f32) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_column(
    out: &mut String,
    key: &str,
    t: &ConvergenceTrace,
    f: impl Fn(&crate::ConvergenceRecord) -> String,
) {
    out.push_str(", \"");
    out.push_str(key);
    out.push_str("\": [");
    for (i, r) in t.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&f(r));
    }
    out.push(']');
}

fn push_u64_array(out: &mut String, vals: &[u64]) {
    out.push('[');
    for (i, v) in vals.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

fn push_value_json(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                let _ = write!(out, "{x}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => push_str_json(out, s),
    }
}

/// Minimal JSON string escaper: quotes, backslashes, and control bytes.
/// Renders `s` as a quoted, escaped JSON string literal.
///
/// Exposed so downstream crates that hand-roll small JSON documents
/// (supervision logs, bench reports) share one escaping discipline with
/// the trace writer.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str_json(&mut out, s);
    out
}

fn push_str_json(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ConvergenceRecord;

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            spans: vec![
                ("a".to_string(), SpanStat::one(1_500)),
                ("a/b".to_string(), SpanStat::one(500)),
                // "x/y" has no recorded parent "x" — renderer must
                // synthesize the placeholder node.
                ("x/y".to_string(), SpanStat::one(2_000_000)),
            ],
            counters: vec![("hits".to_string(), 7)],
            histograms: vec![("lat".to_string(), {
                let mut h = Histogram::new(&[10, 100]);
                h.record(5);
                h.record(101);
                h
            })],
            events: vec![Event {
                seq: 0,
                t_ns: 123,
                t_wall_ms: 1_700_000_000_000,
                ctx: "a".to_string(),
                kind: "e\"vt".to_string(),
                fields: vec![
                    ("n".to_string(), Value::U64(1)),
                    ("f".to_string(), Value::F64(f64::NAN)),
                    ("s".to_string(), Value::Str("line\nbreak".to_string())),
                ],
            }],
            convergence: vec![ConvergenceTrace {
                ctx: "a/b".to_string(),
                name: "admm".to_string(),
                records: vec![ConvergenceRecord {
                    iter: 0,
                    objective: 2.5,
                    primal: 0.25,
                    dual: 0.125,
                    rho: 1.0,
                    support: 4,
                    keep_violations: 1,
                }],
            }],
        }
    }

    #[test]
    fn json_escapes_and_structures_every_section() {
        let json = sample_snapshot().to_json();
        assert!(json.contains("\"path\": \"a/b\""));
        assert!(json.contains("\"e\\\"vt\""));
        assert!(json.contains("\"line\\nbreak\""));
        assert!(json.contains("\"f\": null"), "NaN must serialize as null");
        assert!(json.contains("\"hits\": 7"));
        assert!(json.contains("\"keep_violations\": [1]"));
        // Crude balance check: every open brace closes.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
    }

    #[test]
    fn tree_renders_hierarchy_and_placeholder_parents() {
        let txt = sample_snapshot().render_tree();
        let a_line = txt
            .lines()
            .position(|l| l.trim_start().starts_with("a "))
            .unwrap();
        let b_line = txt
            .lines()
            .position(|l| l.trim_start().starts_with("b "))
            .unwrap();
        assert!(b_line > a_line, "child renders under parent");
        assert!(txt.contains("x  -"), "missing parent gets a placeholder");
        assert!(txt.contains("2.00ms"), "durations are human-scaled");
        assert!(txt.contains("hits = 7"));
        assert!(txt.contains("a/b/admm: 1 iters"));
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert!(s.render_tree().contains("no spans recorded"));
        let json = s.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains("\"path\""));
    }
}
