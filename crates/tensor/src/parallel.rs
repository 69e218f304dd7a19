//! Deterministic thread-parallel dispatch for the kernel engine.
//!
//! All parallelism in the workspace goes through two entry points:
//! [`par_row_blocks`] (contiguous row blocks of a buffer — the kernels,
//! batched conv and network inference) and [`par_map`] (an ordered map
//! over independent items — campaign scenarios, arena scoring). Work is
//! partitioned into **contiguous, disjoint** blocks, each block is
//! computed on its own scoped thread (`std::thread::scope` — no external
//! runtime), and any cross-block reduction is performed by the caller
//! *sequentially in block order*. Because a block's result never depends
//! on how the partition was chosen, everything built on these helpers is
//! **bit-identical for any thread count** — the property
//! `tests/thread_determinism.rs` locks in.
//!
//! The thread count resolves, in priority order:
//!
//! 1. a thread-local budget installed by [`with_budget`] (how nested
//!    dispatch shares the machine — see below);
//! 2. an explicit [`set_threads`] call (test hooks, embedders);
//! 3. the `FSA_THREADS` environment variable;
//! 4. [`std::thread::available_parallelism`].
//!
//! Explicit settings (2 and 3) are taken verbatim, even past the core
//! count: results are bit-identical at any count, and the determinism
//! suites need 3 and 8 workers on a 2-core host to split work that many
//! ways.
//!
//! `FSA_THREADS=1` is the serial configuration: every dispatch then
//! takes the same inline path a one-block partition does.
//!
//! # Nested dispatch
//!
//! Batched workloads nest: a campaign's scenario workers run attacks
//! whose kernels dispatch row blocks; a batch of images runs conv
//! layers whose GEMMs dispatch again. Every dispatched worker runs under
//! [`with_budget`]`(max_threads() / workers)`, so budgets only shrink
//! down a dispatch tree and inner levels never oversubscribe the
//! machine — they simply see a smaller budget and degrade toward
//! serial.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit override installed by [`set_threads`]; 0 = unset.
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Lazily resolved environment/hardware default.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

fn default_threads() -> usize {
    *DEFAULT_THREADS.get_or_init(|| {
        if let Ok(v) = std::env::var("FSA_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// Per-thread budget cap installed by [`with_budget`]; 0 = uncapped.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads kernel dispatch may use **on the calling
/// thread** (the active budget).
///
/// Always ≥ 1. Inside a [`with_budget`] scope — e.g. on a worker
/// dispatched by [`par_map`] — this is the worker's share of the
/// machine, not the global setting.
pub fn max_threads() -> usize {
    match BUDGET.with(Cell::get) {
        0 => match THREAD_OVERRIDE.load(Ordering::Relaxed) {
            0 => default_threads(),
            n => n,
        },
        b => b,
    }
}

/// Runs `f` with this thread's budget set to `cap` threads (≥ 1),
/// shadowing the global setting for the duration.
///
/// The previous budget is restored afterwards (also on panic). Nested
/// dispatch uses this to hand each item-level worker its share of the
/// machine — the share is always derived from the dispatching thread's
/// own [`max_threads`], so budgets only ever shrink down a dispatch
/// tree. Embedders can likewise wall off a latency-sensitive thread
/// with `with_budget(1, ..)`.
pub fn with_budget<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(Cell::get));
    BUDGET.with(|b| b.set(cap.max(1)));
    f()
}

/// Overrides the worker thread count process-wide (0 restores the
/// environment/hardware default).
///
/// The count is taken verbatim, like `FSA_THREADS`, even past the core
/// count. Kernel outputs are bit-identical for every setting; this only
/// changes how work is scheduled.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// The cost of one fan-out at the default thread count, in µs: the
/// benchmark ladder's `tensor.parallel.dispatch_us.tmax` (scoped workers
/// spawned and joined around a trivial block) read 57–68 µs on the
/// 2-core reference host; the larger figure is used.
pub const DISPATCH_US: usize = 68;

/// The fewest rows each worker of a dispatch must get for the fan-out to
/// pay: rows costing `row_work` units each, on a kernel that runs
/// `rate_per_us` units per µs at one thread, so that each worker's share
/// takes at least `2 × DISPATCH_US`.
///
/// Splitting `T` µs of work over `p ≥ 2` workers saves
/// `T − T/p = (p − 1)·w` (with `w = T/p` per worker) and costs one
/// dispatch `D`. With `w ≥ 2D` the saving is at least `2D`, so the
/// fan-out wins by at least its own cost; below that floor a dispatch
/// can lose to one thread (a 0.4 MFLOP `gemm_nt` split in two read
/// 64 µs against 14 µs serial). Pass the result as
/// [`par_row_blocks`]' `min_rows`: contiguous partitions stay as they
/// were, so no bit moves, and the one-thread path is untouched.
///
/// # Examples
///
/// ```
/// use fsa_tensor::parallel::{min_rows_for_work, DISPATCH_US};
///
/// // 1000 units per row at 100 units/µs: 10 µs a row, so a worker
/// // needs 2·68 µs / 10 µs → 14 rows.
/// assert_eq!(DISPATCH_US, 68);
/// assert_eq!(min_rows_for_work(1000, 100), 14);
/// // A row that alone clears the floor still needs one row per worker.
/// assert_eq!(min_rows_for_work(usize::MAX / 4, 1), 1);
/// ```
pub fn min_rows_for_work(row_work: usize, rate_per_us: usize) -> usize {
    (2 * DISPATCH_US * rate_per_us)
        .div_ceil(row_work.max(1))
        .max(1)
}

/// Splits `0..n` into at most `pieces` contiguous ranges of near-equal
/// length (fewer when `n < pieces`). Empty when `n == 0`.
pub fn split_ranges(n: usize, pieces: usize) -> Vec<Range<usize>> {
    if n == 0 || pieces == 0 {
        return Vec::new();
    }
    let pieces = pieces.min(n);
    let base = n / pieces;
    let extra = n % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Deterministic parallel map over `0..n`: returns `f(i)` for every
/// item, **in item order**, however the work was partitioned.
///
/// Items split into `min(max_threads(), n)` contiguous ranges, one
/// scoped worker each, every worker running under its share of the
/// budget (see [`par_row_blocks`]). This is the dispatcher for coarse
/// work whose items produce structured results — a campaign's attack
/// runs, an arena's per-scenario scores. Each worker fills the disjoint
/// slot range it owns, so the returned vector is identical for every
/// `FSA_THREADS` as long as `f` itself is deterministic per item.
///
/// # Examples
///
/// ```
/// use fsa_tensor::parallel::{par_map, with_budget};
///
/// // Results come back in item order at any budget.
/// for budget in [1, 2, 3] {
///     let squares = with_budget(budget, || par_map(5, |i| i * i));
///     assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// }
/// ```
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    par_row_blocks(&mut slots, 1, 1, |first, chunk| {
        for (local, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(first + local));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("par_map worker left a slot unfilled"))
        .collect()
}

/// Partitions the rows of a row-major `[rows, row_len]` buffer into
/// contiguous blocks and runs `f(first_row, block)` for each block in
/// parallel.
///
/// There are `min(max_threads(), rows / min_rows)` blocks, so tiny
/// matrices never pay thread spawn overhead; with one block `f` runs
/// inline on the calling thread under its unchanged budget. Otherwise
/// each block gets a scoped thread running under
/// `with_budget(max_threads() / blocks)`, so any dispatch inside `f`
/// (a conv worker's GEMMs, an attack's kernels) shares the machine
/// instead of oversubscribing it.
///
/// Generic over the element type so integer kernels (the `i32`
/// accumulators of [`crate::quant::gemm_i8_nt`]) and [`par_map`]'s
/// result slots route through the same dispatcher as the `f32` engine.
///
/// # Panics
///
/// Panics if `buf.len()` is not a multiple of `row_len` (for
/// `row_len > 0`).
pub fn par_row_blocks<T: Send>(
    buf: &mut [T],
    row_len: usize,
    min_rows: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    if buf.is_empty() {
        return;
    }
    assert!(
        row_len > 0,
        "row_len must be positive for a non-empty buffer"
    );
    assert_eq!(
        buf.len() % row_len,
        0,
        "buffer is not a whole number of rows"
    );
    let rows = buf.len() / row_len;
    let budget = max_threads();
    let pieces = budget.min(rows / min_rows.max(1)).max(1);
    if pieces <= 1 {
        f(0, buf);
        return;
    }
    let inner_budget = (budget / pieces).max(1);
    // When telemetry is enabled, workers inherit the spawning thread's
    // span path and record their busy time under a `worker` span, so the
    // profile tree keeps its logical shape at any thread count. Spans
    // only observe — the work itself is identical with or without them.
    let parent = if fsa_telemetry::enabled() {
        fsa_telemetry::counter("parallel.dispatches", 1);
        fsa_telemetry::counter("parallel.workers", pieces as u64);
        Some(fsa_telemetry::current_path())
    } else {
        None
    };
    let (parent, f) = (&parent, &f);
    std::thread::scope(|scope| {
        let mut rest = buf;
        for r in split_ranges(rows, pieces) {
            let (block, tail) = rest.split_at_mut(r.len() * row_len);
            rest = tail;
            scope.spawn(move || {
                with_budget(inner_budget, || match parent {
                    Some(p) => {
                        fsa_telemetry::with_path(p, || {
                            let _busy = fsa_telemetry::span("worker");
                            f(r.start, block);
                        });
                        // Explicit flush, sequenced before the scope
                        // joins: `thread::scope` only waits for this
                        // closure to finish, not for the OS thread's TLS
                        // teardown, so a destructor-only flush can land
                        // after the spawner has already drained the sink.
                        fsa_telemetry::flush_thread();
                    }
                    None => f(r.start, block),
                })
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_exactly() {
        for n in [0usize, 1, 5, 16, 17, 100] {
            for pieces in [1usize, 2, 3, 7, 200] {
                let rs = split_ranges(n, pieces);
                let mut next = 0;
                for r in &rs {
                    assert_eq!(r.start, next, "gap in partition of {n} into {pieces}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n, "partition of {n} into {pieces} incomplete");
                assert!(rs.len() <= pieces.min(n.max(1)));
            }
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn with_budget_caps_and_restores() {
        let outside = max_threads();
        with_budget(1, || {
            assert_eq!(max_threads(), 1);
            // Nested scopes re-cap freely; the cap is per-scope.
            with_budget(1, || assert_eq!(max_threads(), 1));
            assert_eq!(max_threads(), 1);
        });
        assert_eq!(max_threads(), outside);
    }

    /// Both entry points, at every budget 1..=8 and a spread of sizes:
    /// output in item order, every item covered exactly once, empty
    /// input untouched, and each worker running under
    /// `max(1, budget / workers)`.
    #[test]
    fn dispatch_preserves_order_coverage_and_worker_budgets() {
        use std::sync::Mutex;
        for budget in 1..=8usize {
            with_budget(budget, || {
                for n in [0usize, 1, 2, 3, 7, 17] {
                    let workers = budget.min(n).max(1);
                    let want_budget = (budget / workers).max(1);
                    let got = par_map(n, |i| (i * i, max_threads()));
                    assert_eq!(
                        got.iter().map(|&(sq, _)| sq).collect::<Vec<_>>(),
                        (0..n).map(|i| i * i).collect::<Vec<_>>(),
                        "par_map permuted or dropped items (budget {budget}, n {n})"
                    );
                    assert!(
                        got.iter().all(|&(_, t)| t == want_budget),
                        "par_map worker budgets {got:?} (budget {budget}, n {n})"
                    );

                    for (row_len, min_rows) in [(1usize, 1usize), (5, 1), (3, 4)] {
                        let pieces = budget.min(n / min_rows).max(1);
                        let want_budget = (budget / pieces).max(1);
                        let blocks = Mutex::new(Vec::new());
                        let mut buf = vec![usize::MAX; n * row_len];
                        par_row_blocks(&mut buf, row_len, min_rows, |first, block| {
                            for (r, row) in block.chunks_exact_mut(row_len).enumerate() {
                                row.fill(first + r);
                            }
                            blocks.lock().unwrap().push(max_threads());
                        });
                        for (r, row) in buf.chunks_exact(row_len).enumerate() {
                            assert!(row.iter().all(|&v| v == r), "row {r} mislabeled: {row:?}");
                        }
                        let blocks = blocks.into_inner().unwrap();
                        if n == 0 {
                            assert!(blocks.is_empty(), "empty input dispatched work");
                        } else {
                            assert_eq!(blocks.len(), pieces, "budget {budget}, n {n}");
                            assert!(
                                blocks.iter().all(|&t| t == want_budget),
                                "par_row_blocks worker budgets {blocks:?} (budget {budget}, n {n})"
                            );
                        }
                    }
                }
            });
        }
    }
}
