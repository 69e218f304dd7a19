//! The worker side of the sharded executor.
//!
//! A worker is the *same binary* as the supervisor, re-spawned with a
//! hidden [`WORKER_FLAG`] argument: bins call [`maybe_run_worker`] as
//! their first statement, so in worker mode the process never reaches
//! the bin's own logic. The link is the only thing that differs between
//! transports: stdin/stdout by default, or a TCP connection back to the
//! supervisor when [`CONNECT_ENV`] names its address. Over either, the
//! worker speaks one protocol: register with a versioned hello frame
//! carrying its [`WORKER_ID_ENV`] identity and capability word, read one
//! [`ShardJob`] frame (accumulated incrementally — the link stays open,
//! so no EOF delimits it), then stream one outcome frame per scenario
//! and an END frame while a dedicated thread beats a heartbeat every
//! [`HEARTBEAT_MS_ENV`] milliseconds.
//!
//! The scenarios run one at a time through the *same*
//! `Campaign::run_indices` path the single-process engine uses — this
//! is what makes sharded output bit-identical.
//!
//! If [`FAULT_ENV`] carries a [`FaultDirective`], the worker sabotages
//! itself accordingly — the only component that ever *enacts* a fault
//! is the worker, and only when the supervisor explicitly planted one
//! in its environment.

use crate::injector::{FaultDirective, FAULT_ENV};
use crate::proto::{ShardJob, JOB_TAG};
use fsa_attack::campaign::wire;
use fsa_attack::Campaign;
use fsa_nn::feature_cache::FeatureCache;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::exit;
use std::sync::{Arc, Mutex};

/// Hidden argv flag that switches a bin into worker mode.
pub const WORKER_FLAG: &str = "--worker";

/// Exit code for a job that could not be read or decoded.
pub const EXIT_BAD_JOB: i32 = 2;

/// Exit code used by the injected [`FaultDirective::KillAfter`] and
/// [`FaultDirective::Partition`] crashes.
pub const EXIT_INJECTED_KILL: i32 = 86;

/// Environment variable carrying the supervisor's listener address
/// (`host:port`). Present → the worker's link is a TCP connection to
/// it; absent → stdin/stdout.
pub const CONNECT_ENV: &str = "FSA_CONNECT";

/// Environment variable carrying the worker's shard identity; echoed
/// back in the hello frame so the supervisor can verify it is talking
/// to the worker it spawned.
pub const WORKER_ID_ENV: &str = "FSA_WORKER_ID";

/// Environment variable carrying the heartbeat interval in
/// milliseconds; [`DEFAULT_HEARTBEAT_MS`] when absent or garbled.
pub const HEARTBEAT_MS_ENV: &str = "FSA_HEARTBEAT_MS";

/// Heartbeat interval used when the supervisor didn't specify one.
pub const DEFAULT_HEARTBEAT_MS: u64 = 100;

/// Runs [`worker_main`] if the process was spawned in worker mode
/// (argv contains [`WORKER_FLAG`]); returns immediately otherwise.
/// Call this as the first statement of any bin that shards campaigns.
pub fn maybe_run_worker() {
    if std::env::args().skip(1).any(|a| a == WORKER_FLAG) {
        worker_main();
    }
}

/// Flips one bit of one byte inside an encoded frame, routing the flip
/// through [`fsa_memfault::bits::flip_bits`] over the 4-byte-aligned
/// f32 window containing the byte. Offsets are clamped into the frame
/// so every directive lands.
fn corrupt_frame(frame: &mut [u8], byte: u32, bit: u8) {
    let len = frame.len();
    if len < 4 {
        return;
    }
    let byte = (byte as usize).min(len - 1);
    let window = (byte & !3).min(len - 4);
    let word: [u8; 4] = frame[window..window + 4].try_into().unwrap();
    let flipped = fsa_memfault::bits::flip_bits(
        f32::from_le_bytes(word),
        &[(((byte - window) * 8) as u8 + (bit & 7)) & 31],
    );
    frame[window..window + 4].copy_from_slice(&flipped.to_le_bytes());
}

/// Worker-mode entry point: register, read the job, run the shard,
/// stream outcomes, exit.
///
/// Never returns. Exit codes: `0` on success (including an injected
/// truncation, which is a *clean* exit with torn output),
/// [`EXIT_BAD_JOB`] if the link cannot be opened or the job cannot be
/// read or decoded, and [`EXIT_INJECTED_KILL`] for an injected crash or
/// partition.
pub fn worker_main() -> ! {
    let Ok(worker_id) = std::env::var(WORKER_ID_ENV)
        .unwrap_or_default()
        .trim()
        .parse::<u64>()
    else {
        eprintln!("worker: missing or invalid {WORKER_ID_ENV}");
        exit(EXIT_BAD_JOB);
    };
    let heartbeat_ms = std::env::var(HEARTBEAT_MS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .unwrap_or(DEFAULT_HEARTBEAT_MS)
        .max(1);
    let directive = std::env::var(FAULT_ENV)
        .ok()
        .and_then(|s| FaultDirective::from_env_str(&s));
    let (mut reader, mut writer): (Box<dyn Read + Send>, Box<dyn Write + Send>) =
        match std::env::var(CONNECT_ENV) {
            Ok(addr) => {
                let stream = TcpStream::connect(&addr).and_then(|s| {
                    let _ = s.set_nodelay(true);
                    Ok((s.try_clone()?, s))
                });
                match stream {
                    Ok((r, w)) => (Box::new(r), Box::new(w)),
                    Err(e) => {
                        eprintln!("worker: connect to {addr} failed: {e}");
                        exit(EXIT_BAD_JOB);
                    }
                }
            }
            Err(_) => (Box::new(std::io::stdin()), Box::new(std::io::stdout())),
        };

    // Register before anything else: the supervisor refuses to ship a
    // job to a link that hasn't proved its identity and version.
    let hello = wire::encode_hello_frame(&wire::WorkerHello::current(worker_id));
    if writer
        .write_all(&hello)
        .and_then(|()| writer.flush())
        .is_err()
    {
        exit(EXIT_BAD_JOB);
    }
    let job = read_job(reader.as_mut());
    // Nothing more arrives on the link; closing the read half now means
    // dropping the writer later closes a socket link outright.
    drop(reader);

    let link = Link {
        out: Arc::new(Mutex::new(Some(writer))),
        pace_ms: match directive {
            Some(FaultDirective::SlowLinkMs(ms)) => Some(ms),
            _ => None,
        },
    };
    // Heartbeat thread: proves liveness however long a scenario
    // computes. A slow-link fault suppresses it — that's the point of
    // the fault: silence that trips the window while every frame that
    // does arrive stays checksum-clean.
    if link.pace_ms.is_none() {
        let out = Arc::clone(&link.out);
        std::thread::spawn(move || {
            for seq in 0.. {
                std::thread::sleep(std::time::Duration::from_millis(heartbeat_ms));
                let frame = wire::encode_heartbeat_frame(&wire::Heartbeat { worker_id, seq });
                let mut guard = out.lock().expect("link lock poisoned");
                // Checked under the lock: once the main thread has
                // taken the writer (END or partition), no beat follows.
                let Some(w) = guard.as_mut() else { return };
                if w.write_all(&frame).and_then(|()| w.flush()).is_err() {
                    return;
                }
            }
        });
    }
    stream_shard(&job, directive, &link)
}

/// Reads the one job frame off the link; exits [`EXIT_BAD_JOB`] on EOF,
/// a read error, or a frame that doesn't decode as a [`ShardJob`].
fn read_job(reader: &mut dyn Read) -> ShardJob {
    let mut acc = wire::FrameAccumulator::new();
    let mut buf = [0u8; 8192];
    let frame = loop {
        match reader.read(&mut buf) {
            Ok(0) => exit(EXIT_BAD_JOB),
            Ok(n) => {
                acc.push(&buf[..n]);
                match acc.next_frame() {
                    Ok(Some(f)) => break f,
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!("worker: bad job frame: {e}");
                        exit(EXIT_BAD_JOB);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("worker: job read failed: {e}");
                exit(EXIT_BAD_JOB);
            }
        }
    };
    frame.decode(JOB_TAG, ShardJob::read).unwrap_or_else(|e| {
        eprintln!("worker: bad job frame: {e}");
        exit(EXIT_BAD_JOB);
    })
}

/// The worker's outbound half of the link, shared with the heartbeat
/// thread through a mutex so no two frames ever tear each other.
/// Taking the writer out ends the link: no heartbeat can follow.
struct Link {
    out: Arc<Mutex<Option<Box<dyn Write + Send>>>>,
    /// Injected per-write delay ([`FaultDirective::SlowLinkMs`]).
    pace_ms: Option<u64>,
}

impl Link {
    /// Writes raw bytes (a whole frame, or a deliberate fragment for
    /// the truncation fault), applying any injected pacing first.
    fn write(&self, bytes: &[u8]) -> std::io::Result<()> {
        if let Some(ms) = self.pace_ms {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        let mut guard = self.out.lock().expect("link lock poisoned");
        let w = guard
            .as_mut()
            .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
        w.write_all(bytes)?;
        w.flush()
    }

    /// Takes the writer out of the shared slot, silencing the
    /// heartbeat thread for good.
    fn close(&self) -> Option<Box<dyn Write + Send>> {
        self.out.lock().expect("link lock poisoned").take()
    }
}

/// The shard loop: enact the fault directive, run each scenario
/// through `Campaign::run_indices`, stream the frames. Never returns.
fn stream_shard(job: &ShardJob, directive: Option<FaultDirective>, link: &Link) -> ! {
    if let Some(FaultDirective::StallMs(ms)) = directive {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    let Some(method) = fsa_attack::campaign::method(&job.method) else {
        eprintln!("worker: unknown method {:?}", job.method);
        exit(EXIT_BAD_JOB);
    };
    let cache = FeatureCache::from_features(job.features.clone());
    let campaign = Campaign::new(&job.head, job.selection.clone(), cache, job.labels.clone());

    // A reorder fault holds one frame back until the next one has gone
    // out (or until after END, when it held the last).
    let mut held: Option<Vec<u8>> = None;
    for (pos, &idx) in job.indices.iter().enumerate() {
        if let Some(FaultDirective::KillAfter(n)) = directive {
            if pos as u32 == n {
                exit(EXIT_INJECTED_KILL);
            }
        }
        if let Some(FaultDirective::Partition(n)) = directive {
            if pos as u32 == n {
                // Drop the link mid-stream, then die non-zero: the
                // supervisor sees the half-finished stream and the
                // exit status, and classifies a crash.
                drop(link.close());
                exit(EXIT_INJECTED_KILL);
            }
        }
        // One scenario per frame: a crash mid-shard still leaves a
        // decodable prefix, and the supervisor sees progress as it
        // happens rather than all at once.
        let outcomes = campaign.run_indices(&job.spec, method, &[idx]);
        let mut frame = wire::encode_outcome_frame(&outcomes[0]);
        match directive {
            Some(FaultDirective::TruncateFrame(n)) if pos as u32 == n => {
                let half = frame.len() / 2;
                let _ = link.write(&frame[..half]);
                exit(0);
            }
            Some(FaultDirective::FlipBit {
                frame: fi,
                byte,
                bit,
            }) if pos as u32 == fi => {
                corrupt_frame(&mut frame, byte, bit);
            }
            _ => {}
        }
        // Replay the link write: the same valid, checksummed frame
        // lands twice. The normal write below emits the second copy;
        // the stream-level duplicate-index check is the only layer
        // that can catch this.
        if directive == Some(FaultDirective::DuplicateFrame(pos as u32))
            && link.write(&frame).is_err()
        {
            exit(EXIT_BAD_JOB);
        }
        if matches!(directive, Some(FaultDirective::ReorderFrames(n)) if pos as u32 == n) {
            held = Some(frame);
            continue;
        }
        if link.write(&frame).is_err() {
            // Supervisor hung up (e.g. killed us between signals).
            exit(EXIT_BAD_JOB);
        }
        if let Some(h) = held.take() {
            // Deliver the held frame one slot late — individually
            // valid, collectively out of order.
            if link.write(&h).is_err() {
                exit(EXIT_BAD_JOB);
            }
        }
    }
    // Take the writer first: from here on the link carries only END
    // (and a held *last* frame, which lands after END — bytes past END
    // are exactly what the trailing-bytes check rejects), never a late
    // heartbeat.
    let Some(mut w) = link.close() else {
        exit(EXIT_BAD_JOB)
    };
    let _ = w.write_all(&wire::encode_end_frame(job.indices.len() as u64));
    if let Some(h) = held {
        let _ = w.write_all(&h);
    }
    let _ = w.flush();
    exit(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_frame_changes_exactly_one_bit() {
        let mut frame: Vec<u8> = (0..64u8).collect();
        let original = frame.clone();
        corrupt_frame(&mut frame, 17, 5);
        let differing: Vec<usize> = (0..frame.len())
            .filter(|&i| frame[i] != original[i])
            .collect();
        assert_eq!(differing, vec![17]);
        assert_eq!(frame[17] ^ original[17], 1 << 5);
    }

    #[test]
    fn corrupt_frame_clamps_out_of_range_offsets() {
        let mut frame: Vec<u8> = (0..8u8).collect();
        let original = frame.clone();
        corrupt_frame(&mut frame, 999, 0);
        assert_ne!(frame, original);
    }
}
