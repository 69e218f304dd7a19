//! One clock discipline for every timing value in the workspace.
//!
//! [`monotonic_ns`] reads a process-wide monotonic clock anchored at its
//! first call, so early spans start near zero and `u64` nanosecond
//! arithmetic has headroom for centuries of uptime. It is an
//! observability-only value: by the identity contract (see the crate
//! docs) it may never reach a result fingerprint or a golden file.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds elapsed since the first clock read in this process.
///
/// Monotonic: never decreases, unaffected by wall-clock steps.
pub fn monotonic_ns() -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().saturating_duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_decreases() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
