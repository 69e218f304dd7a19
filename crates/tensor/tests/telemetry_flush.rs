//! Regression: every dispatched worker's telemetry buffer must be
//! visible to a drain taken right after the dispatch returns.
//!
//! `std::thread::scope` joins worker *closures*, not OS-thread
//! teardown — a worker that only flushed from its TLS destructor could
//! still be mid-teardown when the spawning thread drains, silently
//! dropping the last-finishing worker's records (observed
//! deterministically on a 1-core host: 2-scenario campaigns reported
//! `campaign.scenarios = 1`). The dispatcher now flushes explicitly at
//! the end of each worker closure; this test pins that contract with
//! deliberately skewed per-item workloads so workers finish far apart.

use fsa_tensor::parallel::{par_map, with_budget};

#[test]
fn every_worker_flushes_before_dispatch_returns() {
    fsa_telemetry::set_enabled(false);
    let _ = fsa_telemetry::drain();
    fsa_telemetry::set_enabled(true);
    // A budget of 4 forces scoped-thread dispatch even on a 1-core host,
    // where the teardown race was deterministic rather than occasional.
    let sums = with_budget(4, || {
        par_map(4, |i| {
            let _sp = fsa_telemetry::span(&format!("item#{i}"));
            fsa_telemetry::counter("flush_test.items", 1);
            // Skewed busy work: item 3 finishes well after item 0, so
            // the scope returns while late workers are tearing down.
            let mut acc = 0u64;
            for k in 0..(i as u64 + 1) * 200_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        })
    });
    fsa_telemetry::set_enabled(false);
    let snap = fsa_telemetry::drain();

    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    };
    assert!(
        counter("parallel.dispatches") >= Some(1),
        "fixture must exercise scoped-thread dispatch (counters: {:?})",
        snap.counters
    );
    assert_eq!(sums.len(), 4);
    let items = counter("flush_test.items");
    assert_eq!(
        items,
        Some(4),
        "a worker's telemetry buffer was lost before the drain \
         (counters: {:?})",
        snap.counters
    );
    for i in 0..4 {
        let want = format!("item#{i}");
        assert!(
            snap.spans
                .iter()
                .any(|(p, _)| p.ends_with(&want) && p.contains("worker")),
            "missing span for {want} (spans: {:?})",
            snap.spans.iter().map(|(p, _)| p).collect::<Vec<_>>()
        );
    }
}
