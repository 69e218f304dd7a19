//! Integration: telemetry is **identity-only** — enabling it never
//! changes a result bit.
//!
//! The campaign report and the full attack×detector arena matrix are
//! computed with telemetry off (the reference) and with telemetry on,
//! at `FSA_THREADS` = 1, 2, 3, and 8; every pairing must be
//! bit-identical (same `PartialEq` bits, same FNV fingerprint). The
//! telemetry-on runs must also actually record: empty snapshots would
//! make the identity claim vacuous. A final section pins the
//! wall-clock boundary: elapsed time lands in telemetry span stats
//! (where it belongs) and never in a report or its fingerprint. The
//! sharded-executor variant of this test, over both worker links, lives
//! in `crates/harness/tests/supervision.rs` (worker binaries are only
//! resolvable from that crate's test context); the mock-clock
//! heartbeat-window units live in `fsa-harness`'s `transport` module;
//! the unit battery on span-tree merging, histogram bucket edges, and
//! counter saturation lives in `fsa-telemetry`'s own tests.

use fault_sneaking::attack::campaign::{Campaign, CampaignSpec, FsaMethod};
use fault_sneaking::attack::{AttackConfig, ParamSelection};
use fault_sneaking::defense::{DefenseSuite, StealthArena};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::telemetry;
use fault_sneaking::tensor::parallel::lock_threads;
mod common;
#[path = "common/rows.rs"]
mod rows;
#[path = "common/victim.rs"]
mod victim;
use victim::victim;

/// One test function on purpose: telemetry's enable flag and the thread
/// override are both process-global, so interleaving with a second test
/// in this binary would race them.
#[test]
fn reports_are_bit_identical_with_telemetry_on_or_off() {
    let (head, pool, pool_labels, probe, probe_labels) = victim(919191, &[16, 24, 24, 4], 120, 40);
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(&head, selection.clone(), pool, pool_labels);
    let suite = DefenseSuite::standard(
        &head,
        &probe,
        &probe_labels,
        DramGeometry {
            banks: 2,
            rows_per_bank: 256,
            row_bytes: 64,
        },
        0.1,
        0.75,
    );
    let arena = StealthArena::new(&head, selection, suite);
    let spec = CampaignSpec::grid(vec![1, 2], vec![4, 12])
        .with_config(AttackConfig {
            iterations: 80,
            ..AttackConfig::default()
        })
        .with_weights(20.0, 1.0);

    let guard = lock_threads();
    // Start from a clean slate whatever ran in this process before.
    telemetry::set_enabled(false);
    let _ = telemetry::drain();

    guard.set(1);
    let campaign_ref = campaign.run_method(&spec, &FsaMethod);
    let arena_ref = arena.score_report(&campaign_ref);

    for threads in [1usize, 2, 3, 8] {
        guard.set(threads);

        // Telemetry off: pure thread-count determinism (the existing
        // workspace guarantee, re-checked as this test's baseline).
        let campaign_off = campaign.run_method(&spec, &FsaMethod);
        assert!(
            campaign_off == campaign_ref,
            "campaign report changed bits at {threads} threads (telemetry off)"
        );
        let arena_off = arena.score_report(&campaign_off);
        assert!(
            arena_off == arena_ref,
            "arena report changed bits at {threads} threads (telemetry off)"
        );

        // Telemetry on: the identity-only contract under test.
        telemetry::set_enabled(true);
        let campaign_on = campaign.run_method(&spec, &FsaMethod);
        let arena_on = arena.score_report(&campaign_on);
        telemetry::set_enabled(false);
        let snap = telemetry::drain();

        assert!(
            campaign_on == campaign_ref,
            "telemetry perturbed the campaign report at {threads} threads"
        );
        assert_eq!(campaign_on.fingerprint(), campaign_ref.fingerprint());
        assert!(
            arena_on == arena_ref,
            "telemetry perturbed the arena report at {threads} threads"
        );
        assert_eq!(arena_on.fingerprint(), arena_ref.fingerprint());

        // Non-vacuity: the instrumented layers really recorded.
        assert!(
            snap.spans.iter().any(|(p, _)| p == "campaign"),
            "no campaign span at {threads} threads"
        );
        // At >1 effective threads the dispatcher inserts a `worker`
        // segment (`campaign/worker/scenario#...`), so match on the
        // logical segments rather than the exact path shape.
        assert!(
            snap.spans
                .iter()
                .any(|(p, _)| p.starts_with("campaign/") && p.contains("scenario#")),
            "no per-scenario spans at {threads} threads"
        );
        assert!(
            snap.spans
                .iter()
                .any(|(p, _)| p.starts_with("arena/") && p.contains("row#")),
            "no per-row arena spans at {threads} threads"
        );
        assert!(
            snap.spans.iter().any(|(p, _)| p.contains("checksum")),
            "no per-detector-cell spans at {threads} threads"
        );
        assert!(
            !snap.convergence.is_empty(),
            "no ADMM convergence traces at {threads} threads"
        );
        assert!(
            snap.counters
                .iter()
                .any(|(name, v)| name == "campaign.scenarios" && *v == spec.len() as u64),
            "campaign.scenarios counter missing or wrong at {threads} threads"
        );
    }

    // ── No wall clock in the bits ───────────────────────────────────
    // Two instrumented runs separated by a deliberate sleep: real time
    // advances between them, and the only place it may show up is the
    // telemetry side-channel. If any timestamp or duration ever leaked
    // into the report, the sleep would skew the second run's bits.
    telemetry::set_enabled(true);
    let early = campaign.run_method(&spec, &FsaMethod);
    std::thread::sleep(std::time::Duration::from_millis(25));
    let late = campaign.run_method(&spec, &FsaMethod);
    telemetry::set_enabled(false);
    let snap = telemetry::drain();

    assert!(
        early == campaign_ref && late == campaign_ref,
        "elapsed wall-clock time leaked into the campaign report"
    );
    assert_eq!(early.fingerprint(), late.fingerprint());
    assert_eq!(early.fingerprint(), campaign_ref.fingerprint());

    // Non-vacuity for the boundary claim itself: the clock genuinely
    // ran — both runs completed spans with nonzero measured duration —
    // so the fingerprint equality above is a real separation, not two
    // runs that never touched a timer.
    let (_, stat) = snap
        .spans
        .iter()
        .find(|(p, _)| p == "campaign")
        .expect("no campaign span in the wall-clock section");
    assert_eq!(stat.count, 2, "expected exactly the two instrumented runs");
    assert!(
        stat.total_ns > 0,
        "span stats recorded no wall-clock time at all"
    );
}
