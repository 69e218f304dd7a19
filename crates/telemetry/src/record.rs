//! The recording pipeline: a process-global enable switch, per-thread
//! buffers, and the global sink they fold into.
//!
//! The disabled fast path is one relaxed atomic load per call site —
//! no allocation, no locks, no clock reads. When enabled, recording
//! touches only thread-local state; a thread's buffer folds into the
//! global sink (one mutex acquisition) via [`flush_thread`], which
//! every scoped-thread dispatcher calls as the last step of its worker
//! closures. The thread-local's `Drop` also flushes, but only as a
//! best-effort backstop: `std::thread::scope` returns once the worker
//! *closures* have finished, not once the OS threads have fully torn
//! down, so a destructor-only flush can land after the spawning thread
//! has already [`drain`]ed — silently losing the buffer.

use crate::clock;
use crate::metrics::{ConvergenceTrace, SpanStat};
use crate::snapshot::Snapshot;
use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Everything one buffer (thread-local or global) accumulates.
#[derive(Default)]
struct SinkState {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    convergence: Vec<ConvergenceTrace>,
}

impl SinkState {
    fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.convergence.is_empty()
    }

    /// Order-independent fold of another buffer into this one.
    fn absorb(&mut self, from: SinkState) {
        for (path, stat) in from.spans {
            match self.spans.entry(path) {
                Entry::Occupied(mut e) => e.get_mut().merge(&stat),
                Entry::Vacant(e) => {
                    e.insert(stat);
                }
            }
        }
        for (name, v) in from.counters {
            let slot = self.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        self.convergence.extend(from.convergence);
    }
}

static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();

fn sink() -> &'static Mutex<SinkState> {
    SINK.get_or_init(Mutex::default)
}

/// Per-thread buffer: the open-span stack, the current path, and the
/// locally accumulated state. Flushes to the global sink on thread exit.
#[derive(Default)]
struct Local {
    /// Current hierarchical path, segments joined by `'/'`.
    path: String,
    /// Open frames: (path length before this frame, start ns).
    stack: Vec<(usize, u64)>,
    state: SinkState,
}

impl Local {
    fn flush(&mut self) {
        let state = std::mem::take(&mut self.state);
        if state.is_empty() {
            return;
        }
        sink()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .absorb(state);
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Flushes the calling thread's buffer into the global sink.
///
/// Scoped-thread dispatchers (`fsa_tensor::parallel::par_row_blocks`,
/// the harness shard supervisors) call this as the **last statement of
/// the worker closure**. Relying on the thread-local's destructor instead
/// would race: `std::thread::scope` only waits for worker closures to
/// finish, and a worker's TLS teardown can still be pending when the
/// spawning thread drains — the last-finishing worker's records would
/// vanish from the snapshot. An explicit flush is sequenced before the
/// scope returns, so the spawner's [`drain`] always sees it.
///
/// Cheap no-op when the thread has recorded nothing; safe to call at
/// any time (records made afterwards simply start a new buffer).
pub fn flush_thread() {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::default();
}

/// Returns whether the global sink is currently recording.
///
/// This is the gate every recording entry point checks first; it is a
/// single relaxed atomic load, cheap enough for hot loops.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Off is the default.
///
/// Toggling mid-span is safe: a guard created while enabled still
/// closes its frame, and recording calls made while disabled are
/// silently dropped.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// RAII guard for one hierarchical span frame; created by [`span`].
/// The frame closes — and its duration is recorded — when this drops.
#[must_use = "a span measures until the guard drops; bind it with `let _span = ...`"]
pub struct Span {
    armed: bool,
}

/// Opens a span named `name` under the thread's current path.
///
/// While disabled this is a no-op returning an inert guard. `name`
/// must not contain `'/'` (the path separator); nested spans build
/// paths like `"campaign/scenario#03/admm"`.
pub fn span(name: &str) -> Span {
    if !enabled() {
        return Span { armed: false };
    }
    debug_assert!(!name.contains('/'), "span name must not contain '/'");
    let now = clock::monotonic_ns();
    let armed = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let prev_len = l.path.len();
            if prev_len > 0 {
                l.path.push('/');
            }
            l.path.push_str(name);
            l.stack.push((prev_len, now));
        })
        .is_ok();
    Span { armed }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let now = clock::monotonic_ns();
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            let Some((prev_len, start)) = l.stack.pop() else {
                return;
            };
            let stat = SpanStat::one(now.saturating_sub(start));
            let path = l.path.clone();
            match l.state.spans.entry(path) {
                Entry::Occupied(mut e) => e.get_mut().merge(&stat),
                Entry::Vacant(e) => {
                    e.insert(stat);
                }
            }
            l.path.truncate(prev_len);
        });
    }
}

/// Adds `delta` to the named counter (saturating). No-op while disabled.
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        // Borrowed lookup first: after the first hit the hot path never
        // allocates a key String again.
        if let Some(slot) = l.state.counters.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            l.state.counters.insert(name.to_string(), delta);
        }
    });
}

/// Emits one run's convergence summary under the thread's current span
/// path, which replaces `trace.ctx`. No-op while disabled or when the
/// run took no iteration (`trace.iters == 0`).
pub fn convergence_trace(mut trace: ConvergenceTrace) {
    if !enabled() || trace.iters == 0 {
        return;
    }
    let _ = LOCAL.try_with(|l| {
        let mut l = l.borrow_mut();
        trace.ctx.clone_from(&l.path);
        l.state.convergence.push(trace);
    });
}

/// The thread's current span path (`""` at top level).
pub fn current_path() -> String {
    LOCAL
        .try_with(|l| l.borrow().path.clone())
        .unwrap_or_default()
}

/// Runs `f` with the thread's span path temporarily set to `path`.
///
/// The scheduler uses this to attach worker-thread spans under the
/// spawning thread's path, so the profile tree keeps its logical shape
/// at any thread count. The previous path is restored afterwards and
/// any frames left open inside `f` are discarded.
pub fn with_path<R>(path: &str, f: impl FnOnce() -> R) -> R {
    let saved = LOCAL
        .try_with(|l| {
            let mut l = l.borrow_mut();
            let old = std::mem::replace(&mut l.path, path.to_string());
            (old, l.stack.len())
        })
        .ok();
    let out = f();
    if let Some((old, depth)) = saved {
        let _ = LOCAL.try_with(|l| {
            let mut l = l.borrow_mut();
            l.stack.truncate(depth);
            l.path = old;
        });
    }
    out
}

/// Flushes the calling thread's buffer and takes the global snapshot,
/// leaving the sink empty.
///
/// Other threads still running keep their not-yet-flushed buffers; the
/// workspace only parallelizes with scoped threads whose dispatchers
/// end every worker closure with [`flush_thread`] — a step that is
/// sequenced before the dispatch returns — so draining from the
/// spawning thread always sees the complete picture. Convergence traces
/// are sorted by `(ctx, name)`; spans and counters come out path-sorted
/// from their `BTreeMap`s — the snapshot layout is deterministic even
/// though the timing values inside it are not.
pub fn drain() -> Snapshot {
    let _ = LOCAL.try_with(|l| l.borrow_mut().flush());
    let state = std::mem::take(&mut *sink().lock().unwrap_or_else(PoisonError::into_inner));
    let mut convergence = state.convergence;
    convergence.sort_by(|a, b| (&a.ctx, &a.name).cmp(&(&b.ctx, &b.name)));
    Snapshot {
        spans: state.spans.into_iter().collect(),
        counters: state.counters.into_iter().collect(),
        // Nothing in the library records a histogram or an event; the
        // fields stay for readers that merge drained snapshots.
        histograms: Vec::new(),
        events: Vec::new(),
        convergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enable switch and the sink are process-global, and `cargo
    /// test` runs test fns on concurrent threads — every test touching
    /// them serializes here and drains before starting.
    fn serialized() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        let g = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        let _ = drain();
        g
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = serialized();
        {
            let _s = span("ghost");
            counter("ghost.count", 5);
            convergence_trace(summary(5));
        }
        assert!(drain().is_empty());
    }

    fn summary(iters: u32) -> ConvergenceTrace {
        ConvergenceTrace {
            ctx: "overwritten".to_string(),
            name: "admm".to_string(),
            iters,
            converged: false,
            objective: 1.0,
            primal: 0.1,
            dual: 0.2,
            support: 3,
            keep_violations: 0,
        }
    }

    #[test]
    fn span_tree_merges_across_threads_in_path_order() {
        let _g = serialized();
        set_enabled(true);
        {
            let _root = span("root");
            let parent = current_path();
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let parent = parent.clone();
                    scope.spawn(move || {
                        with_path(&parent, || {
                            let _w = span("worker");
                            let _i = span("inner");
                        });
                        flush_thread();
                    });
                }
            });
            let _tail = span("zz-tail");
        }
        set_enabled(false);
        let snap = drain();
        let paths: Vec<&str> = snap.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            ["root", "root/worker", "root/worker/inner", "root/zz-tail"]
        );
        let worker = &snap.spans[1].1;
        assert_eq!(worker.count, 3);
        assert!(worker.total_ns >= worker.max_ns);
        assert!(worker.min_ns <= worker.max_ns);
    }

    /// The scoped-thread flush contract: a worker that ends its closure
    /// with [`flush_thread`] is visible to a drain taken immediately
    /// after the scope — even though the worker's OS thread (and its
    /// TLS destructor) may not have finished tearing down yet.
    #[test]
    fn explicit_flush_beats_the_scope_teardown_race() {
        let _g = serialized();
        set_enabled(true);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                counter("worker.items", 1);
                flush_thread();
            });
        });
        set_enabled(false);
        let snap = drain();
        assert_eq!(snap.counters, vec![("worker.items".to_string(), 1)]);
    }

    #[test]
    fn counters_saturate_at_u64_max() {
        let _g = serialized();
        set_enabled(true);
        counter("sat", u64::MAX - 1);
        counter("sat", 5);
        set_enabled(false);
        let snap = drain();
        assert_eq!(snap.counters, vec![("sat".to_string(), u64::MAX)]);
    }

    #[test]
    fn convergence_summaries_carry_their_context() {
        let _g = serialized();
        set_enabled(true);
        {
            let _s = span("solver");
            convergence_trace(summary(2));
            // A run that took no iteration has nothing to summarize.
            convergence_trace(summary(0));
        }
        set_enabled(false);
        let snap = drain();
        assert_eq!(
            snap.convergence,
            vec![ConvergenceTrace {
                ctx: "solver".to_string(),
                ..summary(2)
            }]
        );
    }

    #[test]
    fn with_path_restores_the_previous_context() {
        let _g = serialized();
        set_enabled(true);
        let _outer = span("outer");
        let inner_path = with_path("elsewhere", current_path);
        assert_eq!(inner_path, "elsewhere");
        assert_eq!(current_path(), "outer");
        set_enabled(false);
        let _ = drain();
    }
}
