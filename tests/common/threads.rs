//! One lock over the process-wide thread override, for the tests that
//! set it.

use fault_sneaking::tensor::parallel;
use std::sync::{Mutex, MutexGuard, PoisonError};

static LOCK: Mutex<()> = Mutex::new(());

/// Sole use of `parallel::set_threads` for one test. Without it a
/// concurrent test's setting could let a "1-thread" baseline run
/// multi-threaded and make a comparison vacuous. Dropping the guard,
/// also while a failing test unwinds, restores the default count.
pub struct ThreadGuard {
    _lock: MutexGuard<'static, ()>,
}

/// Takes the guard. The lock guards no data, and a holder that panics
/// restores the default count as it unwinds, so a poisoned lock is
/// taken as it is.
pub fn lock() -> ThreadGuard {
    ThreadGuard {
        _lock: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

impl ThreadGuard {
    /// Overrides the worker thread count (0 restores the default).
    pub fn set(&self, threads: usize) {
        parallel::set_threads(threads);
    }
}

impl Drop for ThreadGuard {
    fn drop(&mut self) {
        parallel::set_threads(0);
    }
}
