//! Transport layer: one worker protocol over two byte links.
//!
//! Every worker attempt speaks the same protocol whichever link
//! carries it:
//!
//! 1. the worker registers with a versioned *hello* frame (worker id,
//!    protocol version, capability word) that the supervisor validates
//!    before shipping anything;
//! 2. the supervisor ships one [`crate::proto::ShardJob`] frame;
//! 3. the worker streams one outcome frame per scenario, interleaved
//!    with *heartbeat* frames from a dedicated thread, and closes with
//!    an END frame.
//!
//! A [`Transport`] is only the shim that spawns the worker and hands
//! back its byte link: [`PipeTransport`] returns the child's
//! stdin/stdout, and [`SocketTransport`] binds a loopback listener,
//! passes its address in the child's environment (`FSA_CONNECT`), and
//! returns the accepted `TcpStream`. Everything above the link — the
//! hello check, the job write, incremental parsing with
//! [`StreamParser`], heartbeat supervision with [`HeartbeatMonitor`],
//! exit-status classification, reaping — is one attempt loop shared by
//! both, so failures classify identically on either link:
//!
//! * silence longer than the [`SocketConfig`] window, or an expired
//!   deadline → [`FaultKind::Hang`];
//! * a read error, or EOF followed by a non-zero exit →
//!   [`FaultKind::Crash`];
//! * a stream that fails frame, index, or count validation (including
//!   a refused hello) → [`FaultKind::CorruptFrame`];
//! * bind/spawn/accept host failures → [`FaultKind::Spawn`].
//!
//! The timing policy lives in [`HeartbeatMonitor`], a pure struct over
//! caller-supplied millisecond clocks — unit tests drive it with a
//! mock clock, and no wall-clock value it sees ever reaches a
//! fingerprint, golden, or fault detail.

use crate::injector::{FaultDirective, FAULT_ENV};
use crate::proto::{StreamEvent, StreamParser};
use crate::supervisor::{ExecutorConfig, FaultKind};
use crate::worker::{CONNECT_ENV, HEARTBEAT_MS_ENV, WORKER_ID_ENV};
use fsa_attack::campaign::wire::{self, WorkerHello};
use fsa_attack::campaign::ScenarioOutcome;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Everything one worker attempt needs, borrowed from the supervisor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AttemptContext<'a> {
    /// Shard index (also the worker id the hello frame must carry).
    pub shard: usize,
    /// The encoded [`crate::proto::ShardJob`] frame to ship.
    pub job_bytes: &'a [u8],
    /// Scenario indices the result stream must cover, in order.
    pub indices: &'a [usize],
    /// Fault directive planted in the child's environment, if any.
    pub directive: Option<FaultDirective>,
}

/// Liveness bookkeeping one attempt produced. Folded into
/// [`crate::supervisor::ExecutionLog`] counters; wall-clock-dependent,
/// so never part of any equality or fingerprint.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct AttemptStats {
    /// Heartbeat frames received over the link.
    pub heartbeats: u64,
    /// Hello frames accepted (0 or 1 per attempt).
    pub registrations: u64,
}

/// A spawned worker and the two halves of its byte link.
pub struct WorkerLink {
    /// The worker process; the attempt loop always reaps it.
    pub child: Child,
    /// Worker → supervisor bytes (hello, outcomes, heartbeats, END).
    pub reader: Box<dyn Read + Send>,
    /// Supervisor → worker bytes (the job frame).
    pub writer: Box<dyn Write + Send>,
}

/// How a worker process is spawned and reached. Implementations only
/// obtain the byte link; the protocol above it is shared, so the
/// supervisor's retry/degrade policy never depends on the link.
pub trait Transport: fmt::Debug + Send + Sync {
    /// Short name for logs, spans, and bench output (`"pipe"`,
    /// `"socket"`).
    fn name(&self) -> &'static str;

    /// Heartbeat interval and silence window for attempts over this
    /// link.
    fn liveness(&self) -> SocketConfig {
        SocketConfig::default()
    }

    /// Spawns `cmd` (program, arguments, and protocol environment
    /// already set) and returns its link. `deadline` bounds any wait
    /// for the worker to connect. On error the child, if spawned, is
    /// already reaped.
    ///
    /// # Errors
    ///
    /// Returns the classified fault when the worker cannot be spawned
    /// or never connects.
    fn connect(&self, cmd: Command, deadline: Instant) -> Result<WorkerLink, (FaultKind, String)>;
}

/// The stdin/stdout pipe pair — the default transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeTransport;

impl Transport for PipeTransport {
    fn name(&self) -> &'static str {
        "pipe"
    }

    fn connect(
        &self,
        mut cmd: Command,
        _deadline: Instant,
    ) -> Result<WorkerLink, (FaultKind, String)> {
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| (FaultKind::Spawn, format!("spawn failed: {e}")))?;
        let writer = Box::new(child.stdin.take().expect("stdin piped"));
        let reader = Box::new(child.stdout.take().expect("stdout piped"));
        Ok(WorkerLink {
            child,
            reader,
            writer,
        })
    }
}

/// Liveness policy for a worker link.
#[derive(Debug, Clone, Copy)]
pub struct SocketConfig {
    /// Interval between worker heartbeat frames (milliseconds).
    pub heartbeat_ms: u64,
    /// Missed-beat multiplier: the link is declared dead after
    /// `heartbeat_ms * miss_threshold` milliseconds with no frame of
    /// any kind arriving.
    pub miss_threshold: u32,
}

impl Default for SocketConfig {
    /// 100 ms beats and a 20-beat (2 s) silence window — wide enough
    /// that scheduler jitter on a loaded host never trips it, since the
    /// worker beats from a dedicated thread regardless of how long a
    /// scenario computes.
    fn default() -> Self {
        Self {
            heartbeat_ms: 100,
            miss_threshold: 20,
        }
    }
}

impl SocketConfig {
    /// The silence window (milliseconds) after which the link is dead.
    pub fn window_ms(&self) -> u64 {
        self.heartbeat_ms
            .saturating_mul(u64::from(self.miss_threshold))
            .max(1)
    }
}

/// Pure missed-heartbeat policy over caller-supplied millisecond
/// clocks: *any* completed frame counts as a beat (an outcome proves
/// liveness as well as a heartbeat does), and silence longer than the
/// window means the link is dead.
///
/// Taking `now_ms` as an argument instead of reading a clock keeps the
/// threshold logic unit-testable on a mock clock and guarantees no
/// wall-clock value is ever produced by this type.
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatMonitor {
    window_ms: u64,
    last_ms: u64,
}

impl HeartbeatMonitor {
    /// Starts the window at `now_ms` (the attempt's start counts as the
    /// first sign of life). A zero window is clamped to 1 ms so
    /// `expired` can never trigger at the instant of a beat.
    pub fn new(window_ms: u64, now_ms: u64) -> Self {
        Self {
            window_ms: window_ms.max(1),
            last_ms: now_ms,
        }
    }

    /// Records a sign of life at `now_ms`. Monotonic: a stale
    /// timestamp never rewinds the window.
    pub fn beat(&mut self, now_ms: u64) {
        self.last_ms = self.last_ms.max(now_ms);
    }

    /// Whether the link has been silent for *longer than* the window
    /// at `now_ms` — a beat landing exactly on the boundary is still
    /// in time.
    pub fn expired(&self, now_ms: u64) -> bool {
        now_ms.saturating_sub(self.last_ms) > self.window_ms
    }

    /// Milliseconds of silence as of `now_ms`.
    pub fn idle_ms(&self, now_ms: u64) -> u64 {
        now_ms.saturating_sub(self.last_ms)
    }

    /// The configured silence window in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.window_ms
    }
}

/// The loopback TCP transport: bind, spawn, accept.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketTransport {
    /// Liveness policy for attempts over this link.
    pub config: SocketConfig,
}

impl SocketTransport {
    /// A socket transport with the given liveness policy.
    pub fn new(config: SocketConfig) -> Self {
        Self { config }
    }
}

impl Transport for SocketTransport {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn liveness(&self) -> SocketConfig {
        self.config
    }

    fn connect(
        &self,
        mut cmd: Command,
        deadline: Instant,
    ) -> Result<WorkerLink, (FaultKind, String)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .and_then(|l| l.set_nonblocking(true).map(|()| l))
            .map_err(|e| (FaultKind::Spawn, format!("bind failed: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| (FaultKind::Spawn, format!("local_addr failed: {e}")))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .env(CONNECT_ENV, addr.to_string())
            .spawn()
            .map_err(|e| (FaultKind::Spawn, format!("spawn failed: {e}")))?;
        // Accept, watching for the child dying before it ever connects
        // and for the attempt deadline.
        let fault = loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    match stream
                        .set_nonblocking(false)
                        .and_then(|()| stream.try_clone())
                    {
                        Ok(reader) => {
                            return Ok(WorkerLink {
                                child,
                                reader: Box::new(reader),
                                writer: Box::new(stream),
                            })
                        }
                        Err(e) => break (FaultKind::Spawn, format!("socket setup failed: {e}")),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Ok(Some(st)) = child.try_wait() {
                        break (
                            FaultKind::Crash,
                            exit_detail("worker exited before connecting", st),
                        );
                    }
                    if Instant::now() >= deadline {
                        break (
                            FaultKind::Hang,
                            "deadline expired before worker connected".into(),
                        );
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => break (FaultKind::Spawn, format!("accept failed: {e}")),
            }
        };
        let _ = child.kill();
        let _ = child.wait();
        Err(fault)
    }
}

/// Milliseconds elapsed since `start`, saturating.
fn elapsed_ms(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// `"{what}; worker exited with code N"` or `"…; killed by signal"`.
fn exit_detail(what: &str, st: std::process::ExitStatus) -> String {
    match st.code() {
        Some(c) => format!("{what}; worker exited with code {c}"),
        None => format!("{what}; worker killed by signal"),
    }
}

fn corrupt(e: crate::proto::ProtoError) -> (FaultKind, String) {
    (FaultKind::CorruptFrame, e.to_string())
}

/// Runs one worker attempt to completion over `transport`: spawn,
/// validate the hello, ship the job, collect and validate the result
/// stream under heartbeat supervision, reap the child. Returns the
/// validated outcomes or a classified fault, plus the liveness stats
/// the attempt produced either way.
pub(crate) fn run_attempt(
    transport: &dyn Transport,
    ctx: &AttemptContext<'_>,
    cfg: &ExecutorConfig,
) -> (
    Result<Vec<ScenarioOutcome>, (FaultKind, String)>,
    AttemptStats,
) {
    let _span = fsa_telemetry::span(&format!("{}_attempt", transport.name()));
    let liveness = transport.liveness();
    let mut cmd = Command::new(&cfg.worker_program);
    cmd.args(&cfg.worker_args)
        .stderr(Stdio::null())
        // A stale address in the supervisor's own environment must
        // never redirect a pipe worker; the socket shim sets its own.
        .env_remove(CONNECT_ENV)
        .env(WORKER_ID_ENV, ctx.shard.to_string())
        .env(HEARTBEAT_MS_ENV, liveness.heartbeat_ms.to_string());
    // Plant the planned directive — or scrub one leaking in from the
    // supervisor's environment when the planner wanted a clean spawn.
    match ctx.directive {
        Some(d) => cmd.env(FAULT_ENV, d.to_env()),
        None => cmd.env_remove(FAULT_ENV),
    };
    let start = Instant::now();
    let mut stats = AttemptStats::default();
    let result = transport
        .connect(cmd, start + cfg.deadline)
        .and_then(|link| supervise(link, ctx, cfg, liveness.window_ms(), start, &mut stats));
    (result, stats)
}

/// The shared attempt loop over an established link. A reader thread
/// drains the link into a channel so one loop can wait on bytes, the
/// heartbeat window, and the deadline at once. The child is killed and
/// reaped before this returns, on every path, which also unblocks the
/// reader and job-writer threads before the scope joins them.
fn supervise(
    link: WorkerLink,
    ctx: &AttemptContext<'_>,
    cfg: &ExecutorConfig,
    window_ms: u64,
    start: Instant,
    stats: &mut AttemptStats,
) -> Result<Vec<ScenarioOutcome>, (FaultKind, String)> {
    let WorkerLink {
        child,
        mut reader,
        writer,
    } = link;
    std::thread::scope(|scope| -> Result<_, (FaultKind, String)> {
        let mut child = Reap(child);
        let (tx, rx) = mpsc::channel::<std::io::Result<Vec<u8>>>();
        scope.spawn(move || {
            let mut buf = vec![0u8; 64 * 1024];
            loop {
                let chunk = match reader.read(&mut buf) {
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Ok(n) => Ok(buf[..n].to_vec()),
                    Err(e) => Err(e),
                };
                // An empty chunk is EOF; either way the link is done.
                let last = !matches!(&chunk, Ok(c) if !c.is_empty());
                if tx.send(chunk).is_err() || last {
                    return;
                }
            }
        });

        let deadline_ms = u64::try_from(cfg.deadline.as_millis()).unwrap_or(u64::MAX);
        let mut writer = Some(writer);
        let mut parser = StreamParser::new(ctx.indices);
        let mut monitor = HeartbeatMonitor::new(window_ms, 0);
        loop {
            let now = elapsed_ms(start);
            if now >= deadline_ms {
                return Err((
                    FaultKind::Hang,
                    format!("deadline {:?} expired; worker killed", cfg.deadline),
                ));
            }
            // No wall-clock figure goes into the detail: fault logs
            // compare equal across same-seed runs.
            if monitor.expired(now) {
                return Err((
                    FaultKind::Hang,
                    if writer.is_some() {
                        format!("worker sent no hello within {window_ms} ms")
                    } else {
                        format!("heartbeat window expired (window {window_ms} ms)")
                    },
                ));
            }
            // Sleep until bytes arrive or the earlier liveness bound
            // would trip.
            let until_silent = monitor
                .window_ms()
                .saturating_sub(monitor.idle_ms(now))
                .saturating_add(1);
            let wait = Duration::from_millis(until_silent.min(deadline_ms - now));
            let chunk = match rx.recv_timeout(wait) {
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
                Ok(Err(e)) => return Err((FaultKind::Crash, format!("connection reset: {e}"))),
                Ok(Ok(c)) if c.is_empty() => break,
                Ok(Ok(c)) => c,
            };
            let events = parser.push(&chunk).map_err(corrupt)?;
            if !events.is_empty() {
                monitor.beat(elapsed_ms(start));
            }
            for event in events {
                match event {
                    StreamEvent::Hello(hello) => {
                        check_hello(&hello, ctx.shard)?;
                        stats.registrations += 1;
                        // Ship the job from its own thread: a wedged
                        // worker that never reads it must not block the
                        // liveness checks. A failed write means the
                        // worker died; its exit status says how.
                        let mut w = writer.take().expect("parser admits one hello");
                        scope.spawn(move || {
                            let _ = w.write_all(ctx.job_bytes).and_then(|()| w.flush());
                        });
                    }
                    _ if writer.is_some() => {
                        return Err((
                            FaultKind::CorruptFrame,
                            "first frame on the link was not a hello".to_string(),
                        ));
                    }
                    StreamEvent::Heartbeat(_) => stats.heartbeats += 1,
                    StreamEvent::Outcome(_) | StreamEvent::End => {}
                }
            }
        }

        // EOF: reap the worker within what's left of the deadline and
        // let the exit status speak before the stream does — a
        // partition mid-stream is a crash, not a corrupt frame.
        let remaining = cfg.deadline.saturating_sub(start.elapsed());
        match wait_deadline(&mut child.0, remaining) {
            None => Err((
                FaultKind::Hang,
                "worker closed its link but did not exit".to_string(),
            )),
            Some(Err(e)) => Err((FaultKind::Spawn, format!("wait failed: {e}"))),
            Some(Ok(st)) if !st.success() => {
                Err((FaultKind::Crash, exit_detail("link closed", st)))
            }
            Some(Ok(_)) if writer.is_some() => Err((
                FaultKind::CorruptFrame,
                "link closed before registration; worker exited 0".to_string(),
            )),
            Some(Ok(_)) => parser.finish().map_err(corrupt),
        }
    })
}

/// Kills and reaps the worker when dropped, so the child never
/// outlives its attempt whichever path ends it. Both calls are
/// harmless no-ops on an already-reaped child.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Registration check: the hello must name this shard and offer every
/// capability the protocol needs (its version was checked on decode).
fn check_hello(hello: &WorkerHello, shard: usize) -> Result<(), (FaultKind, String)> {
    if hello.worker_id != shard as u64 {
        return Err((
            FaultKind::CorruptFrame,
            format!(
                "hello worker id {} does not match shard {shard}",
                hello.worker_id
            ),
        ));
    }
    let required = wire::CAP_HEARTBEAT | wire::CAP_SHARD_JOBS;
    if hello.capabilities & required != required {
        return Err((
            FaultKind::CorruptFrame,
            format!(
                "hello capabilities {:#x} missing required {required:#x}",
                hello.capabilities
            ),
        ));
    }
    Ok(())
}

/// Polls the child until it exits or the deadline expires; on expiry
/// kills it (and reaps it) and returns `None`. A worker usually closes
/// its link a moment before it becomes reapable, so the poll interval
/// starts at 50 µs and backs off to 5 ms.
fn wait_deadline(
    child: &mut Child,
    deadline: Duration,
) -> Option<std::io::Result<std::process::ExitStatus>> {
    let start = Instant::now();
    let mut nap = Duration::from_micros(50);
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(Ok(status)),
            Ok(None) => {
                if start.elapsed() >= deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return None;
                }
                std::thread::sleep(nap);
                nap = (nap * 2).min(Duration::from_millis(5));
            }
            Err(e) => return Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ── HeartbeatMonitor on a mock clock ─────────────────────────────

    #[test]
    fn silence_longer_than_the_window_expires() {
        let m = HeartbeatMonitor::new(500, 1_000);
        assert!(!m.expired(1_000));
        assert!(!m.expired(1_400));
        // Exactly on the boundary is still alive …
        assert!(!m.expired(1_500));
        // … one past it is dead.
        assert!(m.expired(1_501));
        assert_eq!(m.idle_ms(1_501), 501);
    }

    #[test]
    fn a_beat_just_in_time_resets_the_window() {
        let mut m = HeartbeatMonitor::new(500, 0);
        // Beat exactly at the threshold: still in time, window restarts.
        m.beat(500);
        assert!(!m.expired(1_000));
        assert!(m.expired(1_001));
        // Another beat keeps it alive again.
        m.beat(1_000);
        assert!(!m.expired(1_500));
    }

    #[test]
    fn crossing_the_threshold_is_detected_at_every_later_instant() {
        let mut m = HeartbeatMonitor::new(100, 0);
        m.beat(50);
        for now in 151..200 {
            assert!(m.expired(now), "silent {now} ms should be expired");
        }
    }

    #[test]
    fn stale_beats_never_rewind_the_window() {
        let mut m = HeartbeatMonitor::new(100, 0);
        m.beat(500);
        // A reordered, older timestamp must not extend the deadline
        // backwards.
        m.beat(200);
        assert!(!m.expired(600));
        assert!(m.expired(601));
    }

    #[test]
    fn zero_window_is_clamped() {
        let m = HeartbeatMonitor::new(0, 10);
        assert!(!m.expired(10));
        assert!(m.expired(12));
    }

    #[test]
    fn socket_config_window_is_beat_times_threshold() {
        let sc = SocketConfig::default();
        assert_eq!(
            sc.window_ms(),
            sc.heartbeat_ms * u64::from(sc.miss_threshold)
        );
        let tiny = SocketConfig {
            heartbeat_ms: 0,
            miss_threshold: 0,
        };
        assert_eq!(tiny.window_ms(), 1);
        let huge = SocketConfig {
            heartbeat_ms: u64::MAX,
            miss_threshold: 2,
        };
        assert_eq!(huge.window_ms(), u64::MAX);
    }

    #[test]
    fn transport_names_are_stable() {
        // Bench output and CI matrix legs key on these strings.
        assert_eq!(PipeTransport.name(), "pipe");
        assert_eq!(SocketTransport::default().name(), "socket");
    }

    #[test]
    fn both_links_default_to_the_same_liveness_policy() {
        let pipe = PipeTransport.liveness();
        let socket = SocketTransport::default().liveness();
        assert_eq!(pipe.window_ms(), 2_000);
        assert_eq!(pipe.window_ms(), socket.window_ms());
        assert_eq!(pipe.heartbeat_ms, socket.heartbeat_ms);
    }
}
