//! Deterministic, env-gated fault injection for worker processes.
//!
//! The supervisor plans faults; workers enact them. A
//! [`FaultPlanner`] decides — as a pure function of `(seed, shard,
//! attempt)` — whether a given spawn should misbehave, and passes the
//! decision to the child through the [`FAULT_ENV`] environment variable
//! as a compact [`FaultDirective`] string. The worker parses the
//! directive and sabotages itself accordingly: exiting mid-shard,
//! stalling past the supervisor's deadline, truncating a result frame,
//! or flipping a bit inside one (routed through
//! [`fsa_memfault::bits::flip_bits`], the same machinery the attack
//! itself models), or misbehaving on the link —
//! [`FaultDirective::Partition`] (drop the link mid-stream),
//! [`FaultDirective::SlowLinkMs`] (paced writes that trip the
//! heartbeat but never a checksum), and
//! [`FaultDirective::ReorderFrames`] (out-of-order delivery of
//! individually valid frames). Every class means the same on either
//! transport, since both carry one protocol. Because the plan is seeded, every test
//! run injects the exact same faults — failures reproduce, and the
//! recovery path is exercised deterministically.

use fsa_tensor::Prng;
use std::fmt;
use std::time::Duration;

/// Environment variable carrying a [`FaultDirective`] to one worker
/// spawn. Set by the supervisor on the child only — never inherited
/// from the test environment.
pub const FAULT_ENV: &str = "FSA_FAULT";

/// One way a worker process is told to misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDirective {
    /// Exit with a non-zero status after emitting `n` outcome frames
    /// (a mid-shard crash; `0` crashes before any output).
    KillAfter(u32),
    /// Sleep this long before doing any work, so the supervisor's
    /// deadline expires and classifies the attempt as a hang.
    StallMs(u64),
    /// Write only the first half of outcome frame `n`, then exit
    /// cleanly — a torn write the checksum layer must catch.
    TruncateFrame(u32),
    /// Flip one bit of one byte inside outcome frame `n` before
    /// writing it — silent corruption the checksum layer must catch.
    FlipBit {
        /// Which outcome frame (0-based) to corrupt.
        frame: u32,
        /// Byte offset within the frame.
        byte: u32,
        /// Bit position within the byte (0..8).
        bit: u8,
    },
    /// Write outcome frame `n` twice — a replayed link write producing
    /// two byte-identical, individually *valid* frames. Checksums can't
    /// catch this one; only the stream-level duplicate-index check does.
    DuplicateFrame(u32),
    /// Drop the link mid-stream after emitting `n` outcome frames: the
    /// worker closes its end of the link and exits non-zero.
    /// Classified as a crash via the exit status.
    Partition(u32),
    /// A slow link: suppress heartbeats and pace every frame write by
    /// sleeping `ms` first. The frames themselves stay checksum-clean —
    /// what fails is liveness, so the supervisor classifies a hang when
    /// the heartbeat window expires.
    SlowLinkMs(u64),
    /// Reordered delivery: hold outcome frame `n` and deliver it after
    /// the *following* frame (after END when `n` is the last). Every
    /// delivered frame is individually valid; the stream-level
    /// index-order / trailing-bytes validation is what catches it.
    ReorderFrames(u32),
}

impl FaultDirective {
    /// Renders the directive as the `FSA_FAULT` string form.
    pub fn to_env(self) -> String {
        match self {
            FaultDirective::KillAfter(n) => format!("kill:{n}"),
            FaultDirective::StallMs(ms) => format!("stall:{ms}"),
            FaultDirective::TruncateFrame(n) => format!("truncate:{n}"),
            FaultDirective::FlipBit { frame, byte, bit } => {
                format!("bitflip:{frame}:{byte}:{bit}")
            }
            FaultDirective::DuplicateFrame(n) => format!("dup:{n}"),
            FaultDirective::Partition(n) => format!("part:{n}"),
            FaultDirective::SlowLinkMs(ms) => format!("slow:{ms}"),
            FaultDirective::ReorderFrames(n) => format!("reorder:{n}"),
        }
    }

    /// Parses the `FSA_FAULT` string form; `None` for anything
    /// unrecognized (a worker with a garbled directive runs clean
    /// rather than failing in an unplanned way).
    pub fn from_env_str(s: &str) -> Option<Self> {
        let mut parts = s.split(':');
        let kind = parts.next()?;
        let directive = match kind {
            "kill" => FaultDirective::KillAfter(parts.next()?.parse().ok()?),
            "stall" => FaultDirective::StallMs(parts.next()?.parse().ok()?),
            "truncate" => FaultDirective::TruncateFrame(parts.next()?.parse().ok()?),
            "bitflip" => FaultDirective::FlipBit {
                frame: parts.next()?.parse().ok()?,
                byte: parts.next()?.parse().ok()?,
                bit: parts.next()?.parse().ok()?,
            },
            "dup" => FaultDirective::DuplicateFrame(parts.next()?.parse().ok()?),
            "part" => FaultDirective::Partition(parts.next()?.parse().ok()?),
            "slow" => FaultDirective::SlowLinkMs(parts.next()?.parse().ok()?),
            "reorder" => FaultDirective::ReorderFrames(parts.next()?.parse().ok()?),
            _ => return None,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(directive)
    }
}

impl fmt::Display for FaultDirective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_env())
    }
}

/// How a planner decides which spawns to sabotage.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    /// Inject `directive` on every attempt strictly below `max_attempt`.
    Always {
        directive: FaultDirective,
        max_attempt: u32,
    },
    /// Inject `directive` on every attempt, forever — forces the
    /// degraded in-process fallback.
    Persistent(FaultDirective),
    /// Seeded pseudo-random faults on attempts 0 and 1 only, so every
    /// shard is guaranteed clean by its third attempt.
    Seeded(u64),
}

/// Plans which worker spawns misbehave and how.
///
/// Deterministic: [`FaultPlanner::directive`] is a pure function of the
/// planner's configuration and `(shard, attempt)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanner {
    mode: Mode,
}

impl FaultPlanner {
    /// Injects `directive` on every attempt strictly below
    /// `max_attempt`, then runs clean — exercises recovery-by-retry.
    pub fn always(directive: FaultDirective, max_attempt: u32) -> Self {
        Self {
            mode: Mode::Always {
                directive,
                max_attempt,
            },
        }
    }

    /// Injects `directive` on every attempt, forever — no retry can
    /// succeed, so the supervisor must fall back to the in-process
    /// path.
    pub fn persistent(directive: FaultDirective) -> Self {
        Self {
            mode: Mode::Persistent(directive),
        }
    }

    /// Seeded pseudo-random fault plan: roughly half of all `(shard,
    /// attempt)` pairs with `attempt < 2` draw a fault, with the class
    /// chosen uniformly from all eight [`FaultDirective`] kinds;
    /// attempts ≥ 2 always run clean, so a retry budget of two or more
    /// guarantees every shard completes without degrading.
    pub fn seeded(seed: u64) -> Self {
        Self {
            mode: Mode::Seeded(seed),
        }
    }

    /// The directive (if any) for spawning `shard`'s attempt number
    /// `attempt`. `deadline` and `shard_len` bound the stall duration
    /// and the kill/corrupt frame index so injected faults are always
    /// observable.
    pub fn directive(
        &self,
        shard: usize,
        attempt: u32,
        deadline: Duration,
        shard_len: usize,
    ) -> Option<FaultDirective> {
        match &self.mode {
            Mode::Always {
                directive,
                max_attempt,
            } => (attempt < *max_attempt).then_some(*directive),
            Mode::Persistent(directive) => Some(*directive),
            Mode::Seeded(seed) => seeded_draw(*seed, shard, attempt, deadline, shard_len),
        }
    }
}

/// The seeded draw behind [`FaultPlanner::seeded`].
fn seeded_draw(
    seed: u64,
    shard: usize,
    attempt: u32,
    deadline: Duration,
    shard_len: usize,
) -> Option<FaultDirective> {
    if attempt >= 2 {
        return None;
    }
    // Distinct stream per (shard, attempt): fork keys the stream off
    // the draw sequence, so mix the shard into the seed and the
    // attempt into the stream.
    let mut rng =
        Prng::new(seed ^ (shard as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)).fork(attempt as u64);
    if !rng.bernoulli(0.5) {
        return None;
    }
    // A stall must outlive the deadline to register as a hang; frame
    // indices must land inside the shard.
    let stall = deadline.as_millis() as u64 + 200 + rng.below(200) as u64;
    let frame = rng.below(shard_len.max(1)) as u32;
    Some(match rng.below(8) {
        0 => FaultDirective::KillAfter(frame),
        1 => FaultDirective::StallMs(stall),
        2 => FaultDirective::TruncateFrame(frame),
        3 => FaultDirective::DuplicateFrame(frame),
        4 => FaultDirective::FlipBit {
            frame,
            // Offset past the 16-byte header lands the flip in the
            // payload region of any outcome frame (payloads are always
            // > 48 bytes).
            byte: 16 + rng.below(32) as u32,
            bit: rng.below(8) as u8,
        },
        5 => FaultDirective::Partition(frame),
        // A slow-link pace past the deadline guarantees the link falls
        // silent for longer than the heartbeat window or the deadline,
        // whichever is shorter.
        6 => FaultDirective::SlowLinkMs(stall),
        _ => FaultDirective::ReorderFrames(frame),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_env_roundtrip() {
        let cases = [
            FaultDirective::KillAfter(2),
            FaultDirective::StallMs(3000),
            FaultDirective::TruncateFrame(1),
            FaultDirective::FlipBit {
                frame: 0,
                byte: 12,
                bit: 5,
            },
            FaultDirective::DuplicateFrame(3),
            FaultDirective::Partition(1),
            FaultDirective::SlowLinkMs(700),
            FaultDirective::ReorderFrames(2),
        ];
        for d in cases {
            assert_eq!(FaultDirective::from_env_str(&d.to_env()), Some(d));
        }
    }

    #[test]
    fn garbage_directives_parse_to_none() {
        for s in [
            "",
            "kill",
            "kill:x",
            "stall:1:2",
            "bitflip:1:2",
            "nope:3",
            "dup",
            "dup:x",
            "part",
            "part:x",
            "slow:1:2",
            "reorder:",
        ] {
            assert_eq!(FaultDirective::from_env_str(s), None, "{s:?}");
        }
    }

    #[test]
    fn always_planner_stops_at_max_attempt() {
        let p = FaultPlanner::always(FaultDirective::KillAfter(0), 2);
        let d = Duration::from_secs(1);
        assert!(p.directive(0, 0, d, 4).is_some());
        assert!(p.directive(0, 1, d, 4).is_some());
        assert!(p.directive(0, 2, d, 4).is_none());
        assert!(p.directive(3, 9, d, 4).is_none());
    }

    #[test]
    fn seeded_planner_is_deterministic_and_clean_by_attempt_two() {
        let p = FaultPlanner::seeded(0xfau64);
        let d = Duration::from_millis(500);
        for shard in 0..16 {
            for attempt in 0..2 {
                let a = p.directive(shard, attempt, d, 6);
                let b = p.directive(shard, attempt, d, 6);
                assert_eq!(a, b);
                if let Some(FaultDirective::StallMs(ms)) = a {
                    assert!(ms > d.as_millis() as u64);
                }
                if let Some(
                    FaultDirective::KillAfter(n)
                    | FaultDirective::TruncateFrame(n)
                    | FaultDirective::DuplicateFrame(n),
                ) = a
                {
                    assert!(n < 6);
                }
            }
            assert_eq!(p.directive(shard, 2, d, 6), None);
            assert_eq!(p.directive(shard, 3, d, 6), None);
        }
    }

    #[test]
    fn seeded_planner_draws_the_link_classes_too() {
        let p = FaultPlanner::seeded(0x0600_13a7);
        let d = Duration::from_millis(500);
        let mut link_hits = 0usize;
        for shard in 0..64 {
            for attempt in 0..2 {
                let a = p.directive(shard, attempt, d, 6);
                assert_eq!(a, p.directive(shard, attempt, d, 6));
                match a {
                    Some(FaultDirective::SlowLinkMs(ms) | FaultDirective::StallMs(ms)) => {
                        assert!(ms > d.as_millis() as u64);
                        if matches!(a, Some(FaultDirective::SlowLinkMs(_))) {
                            link_hits += 1;
                        }
                    }
                    Some(FaultDirective::Partition(n) | FaultDirective::ReorderFrames(n)) => {
                        assert!(n < 6);
                        link_hits += 1;
                    }
                    _ => {}
                }
            }
            assert_eq!(p.directive(shard, 2, d, 6), None);
        }
        assert!(
            link_hits > 0,
            "seeded plan never drew a link fault across 64 shards"
        );
    }

    #[test]
    fn seeded_planner_injects_something() {
        let p = FaultPlanner::seeded(7);
        let d = Duration::from_millis(500);
        let hits = (0..32)
            .filter(|&s| p.directive(s, 0, d, 4).is_some())
            .count();
        assert!(hits > 0, "seeded planner never injected across 32 shards");
    }
}
