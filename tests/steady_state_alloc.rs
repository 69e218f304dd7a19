//! The attack's inner loop allocates nothing once its shapes repeat.
//!
//! Every ADMM and refine iteration runs the head forward with caching,
//! the hinge evaluation and the cached backward over buffers held across
//! iterations (`HeadBuffers`, `HingeEval`). This test counts heap
//! allocations with a counting global allocator and asserts that, after
//! one warm-up iteration, further iterations make none. It runs at one
//! thread so every kernel dispatch stays inline on the counting thread.

use fault_sneaking::attack::objective::{evaluate_hinge_into, HingeEval};
use fault_sneaking::attack::AttackSpec;
use fault_sneaking::nn::head::{FcHead, HeadBuffers};
use fault_sneaking::tensor::{parallel, Prng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations made by a thread that has
/// switched counting on.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn steady_state_head_iterations_allocate_nothing() {
    let mut rng = Prng::new(0xA110C);
    let (r, s, d, classes) = (24, 3, 48, 10);
    let head = FcHead::from_dims(&[d, 32, 24, classes], &mut rng);
    let features = Tensor::randn(&[r, d], 1.0, &mut rng);
    let labels: Vec<usize> = (0..r).map(|i| i % classes).collect();
    let targets: Vec<usize> = (0..s).map(|i| (i + 1) % classes).collect();
    let spec = AttackSpec::new(features, labels, targets);

    parallel::with_budget(1, || {
        // Whole head (dense and row-sparse layers) and the last layer
        // alone (the paper's selection: entry-sparse top-layer dW).
        for start in [0, head.num_layers() - 1] {
            let acts = head.activations_before(start, &spec.features);
            let mut bufs = HeadBuffers::new();
            let mut eval = HingeEval::default();
            let iteration = |bufs: &mut HeadBuffers, eval: &mut HingeEval| {
                let logits = head.forward_from_caching(start, &acts, bufs);
                evaluate_hinge_into(&spec, logits, 0.1, eval);
                head.backward_rows(start, &acts, &eval.logit_grad, eval.rows(), bufs);
            };
            iteration(&mut bufs, &mut eval);
            assert!(eval.active > 0, "fixture must keep some hinges active");
            let count = allocations_in(|| {
                for _ in 0..5 {
                    iteration(&mut bufs, &mut eval);
                }
            });
            assert_eq!(
                count, 0,
                "five steady-state iterations from layer {start} made {count} heap allocations"
            );
        }
    });
}
