//! The shard job frame and the worker result-stream protocol.
//!
//! One supervisor→worker message: a [`ShardJob`] frame carrying the
//! victim (head, selection, pool features, labels), the campaign spec,
//! the method name, and the scenario indices this shard owns. One
//! worker→supervisor stream: a `HELLO_TAG` registration frame, then one
//! `OUTCOME_TAG` frame per finished scenario (emitted incrementally, so
//! a mid-shard crash leaves a decodable prefix) with `HEARTBEAT_TAG`
//! frames interleaved anywhere, terminated by an `END_TAG` frame
//! carrying the outcome count. Every frame is versioned and checksummed
//! ([`fsa_attack::campaign::wire`]); any truncation, bit flip, or count
//! mismatch surfaces as a [`ProtoError`] the supervisor classifies as a
//! corrupt-frame fault.
//!
//! This module holds no frame codec of its own. The job payload is read
//! by one body, [`ShardJob::read`], through `wire`'s typed step: one-shot
//! in [`ShardJob::decode`], on an accumulated frame in the worker. The
//! result stream's frames are split by `wire`'s [`FrameAccumulator`] and
//! decoded by [`Frame::message`]; [`StreamParser`] adds only the stream
//! rules (hello first, no duplicate index, END count, nothing after END,
//! the assigned indices in order).
//!
//! [`FrameAccumulator`]: wire::FrameAccumulator
//! [`Frame::message`]: wire::Frame::message

use fsa_attack::campaign::wire::{self, WireError, WorkerMessage};
use fsa_attack::campaign::{CampaignSpec, ScenarioOutcome};
use fsa_attack::ParamSelection;
use fsa_nn::head::FcHead;
use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use fsa_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Frame tag: a supervisor→worker shard job.
pub const JOB_TAG: &[u8; 4] = b"FSJB";

/// Everything a worker process needs to run its shard of a campaign.
#[derive(Debug, Clone)]
pub struct ShardJob {
    /// The victim head (shipped by value — workers share nothing).
    pub head: FcHead,
    /// The parameter selection under attack.
    pub selection: ParamSelection,
    /// Pool labels, row-aligned with `features`.
    pub labels: Vec<usize>,
    /// The shared feature-cache pool (`[pool, d]`).
    pub features: Tensor,
    /// The full campaign spec (scenario order is derived from it, so
    /// every worker agrees on what index `i` means).
    pub spec: CampaignSpec,
    /// Campaign method name (`"fsa"`, `"sba"`, `"gda"`).
    pub method: String,
    /// Scenario indices this shard owns, in ascending order.
    pub indices: Vec<usize>,
}

impl ShardJob {
    /// Encodes the job as a single checksummed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.head.encode(&mut enc);
        wire::put_selection(&mut enc, &self.selection);
        enc.put_u64_slice(&self.labels);
        enc.put_tensor(&self.features);
        wire::put_spec(&mut enc, &self.spec);
        enc.put_str(&self.method);
        enc.put_u64_slice(&self.indices);
        wire::frame(JOB_TAG, &enc.into_bytes())
    }

    /// Decodes a frame written by [`ShardJob::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any frame fault or payload corruption.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        wire::decode_frame(bytes, JOB_TAG, Self::read)
    }

    /// Reads a [`JOB_TAG`] payload: the reader [`ShardJob::decode`] and
    /// a worker's `frame.decode(JOB_TAG, ShardJob::read)` both run (a
    /// worker accumulates the job incrementally, because the link stays
    /// open after it and no EOF delimits it).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on a malformed payload.
    pub fn read(p: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            head: FcHead::decode(p)?,
            selection: wire::read_selection(p)?,
            labels: p.read_u64_vec()?,
            features: p.read_tensor()?,
            spec: wire::read_spec(p)?,
            method: p.read_str()?,
            indices: p.read_u64_vec()?,
        })
    }
}

/// Why a worker's result stream could not be accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A frame in the stream failed to decode (truncation, checksum
    /// mismatch, version skew).
    Frame(WireError),
    /// The stream ended without an `END_TAG` frame — the worker died
    /// mid-write or its output was cut off.
    MissingEnd,
    /// The `END_TAG` count disagrees with the outcomes received.
    CountMismatch {
        /// Count the worker claimed in its end frame.
        claimed: u64,
        /// Outcome frames actually received.
        received: u64,
    },
    /// The outcomes' scenario indices are not the assigned ones, in
    /// order — the worker computed the wrong shard.
    IndexMismatch {
        /// Position in the shard at which the streams diverged.
        position: usize,
    },
    /// The stream carries two outcome frames for one scenario index —
    /// a worker (or a replayed/duplicated link write) emitted the same
    /// result twice. Checked explicitly rather than left to the
    /// index-sequence comparison: a duplicate of the *last* assigned
    /// index plus a matching inflated END count would otherwise sail
    /// past `CountMismatch` and fail only as a confusing
    /// `IndexMismatch` — and no duplicated result should ever be merged
    /// regardless of what else the stream claims.
    DuplicateIndex {
        /// The scenario index that appeared twice.
        index: usize,
        /// Position in the stream (0-based outcome ordinal) of the
        /// second occurrence.
        position: usize,
    },
    /// Bytes followed the `END_TAG` frame.
    TrailingBytes(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Frame(e) => write!(f, "{e}"),
            ProtoError::MissingEnd => write!(f, "result stream ended without an END frame"),
            ProtoError::CountMismatch { claimed, received } => write!(
                f,
                "END frame claims {claimed} outcomes but {received} were received"
            ),
            ProtoError::IndexMismatch { position } => write!(
                f,
                "outcome at shard position {position} carries the wrong scenario index"
            ),
            ProtoError::DuplicateIndex { index, position } => write!(
                f,
                "outcome at stream position {position} duplicates scenario index {index}"
            ),
            ProtoError::TrailingBytes(n) => write!(f, "{n} bytes after the END frame"),
        }
    }
}

impl Error for ProtoError {}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> Self {
        ProtoError::Frame(e)
    }
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> Self {
        ProtoError::Frame(WireError::Decode(e))
    }
}

/// One protocol-relevant thing a pushed chunk of bytes produced.
///
/// The supervisor's attempt loop uses these to drive registration and
/// its liveness policy: *any* completed frame proves the worker is
/// alive, and heartbeats prove it even between slow scenarios.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// The worker's registration frame arrived (protocol version
    /// already checked; identity and capabilities are the caller's to
    /// check).
    Hello(wire::WorkerHello),
    /// A scenario outcome arrived (its scenario index).
    Outcome(usize),
    /// A liveness heartbeat arrived.
    Heartbeat(wire::Heartbeat),
    /// The END frame arrived; the stream is complete.
    End,
}

/// Incremental, fragmentation-tolerant parser for a worker's result
/// stream.
///
/// Links deliver short reads, so frames arrive split at arbitrary byte
/// boundaries — including mid-header. This parser accepts bytes as
/// they come ([`StreamParser::push`]), surfaces each completed frame as
/// a [`StreamEvent`], validates as frames arrive (checksums, version and
/// payloads via [`wire::FrameAccumulator`] and [`wire::Frame::message`],
/// a hello only as the first frame, duplicate-index rejection, END-count
/// agreement, nothing after END), and finishes with the index-sequence
/// check once the caller declares EOF ([`StreamParser::finish`]). A
/// stream parsed whole and the same bytes fed one at a time produce
/// identical results.
#[derive(Debug)]
pub struct StreamParser {
    acc: wire::FrameAccumulator,
    /// Frames consumed so far, of any kind.
    frames: u64,
    outcomes: Vec<ScenarioOutcome>,
    expected: Vec<usize>,
    /// `Some(count)` once the END frame arrived.
    ended: Option<u64>,
    /// Heartbeat frames seen (stripped from the outcome stream).
    heartbeats: u64,
}

impl StreamParser {
    /// Creates a parser for a shard assigned `expected` scenario
    /// indices.
    pub fn new(expected: &[usize]) -> Self {
        Self {
            acc: wire::FrameAccumulator::new(),
            frames: 0,
            outcomes: Vec::with_capacity(expected.len()),
            expected: expected.to_vec(),
            ended: None,
            heartbeats: 0,
        }
    }

    /// Whether the END frame has arrived.
    pub fn ended(&self) -> bool {
        self.ended.is_some()
    }

    /// Heartbeat frames consumed so far.
    pub fn heartbeats(&self) -> u64 {
        self.heartbeats
    }

    /// Feeds newly-read bytes (any fragmentation) and returns the
    /// protocol events completed by them, in stream order.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] on the first violation: frame corruption,
    /// version skew, an unexpected tag, a hello after the first frame, a
    /// duplicated scenario index, an END count that disagrees with the
    /// outcomes received, or any bytes after END.
    pub fn push(&mut self, bytes: &[u8]) -> Result<Vec<StreamEvent>, ProtoError> {
        self.acc.push(bytes);
        let mut events = Vec::new();
        loop {
            if self.ended.is_some() && self.acc.residual() != 0 {
                return Err(ProtoError::TrailingBytes(self.acc.residual()));
            }
            let Some(f) = self.acc.next_frame()? else {
                return Ok(events);
            };
            self.frames += 1;
            match f.message()? {
                WorkerMessage::Hello(_) if self.frames != 1 => {
                    return Err(
                        DecodeError::new("hello frame after the start of the stream").into(),
                    );
                }
                WorkerMessage::Hello(hello) => events.push(StreamEvent::Hello(hello)),
                WorkerMessage::Heartbeat(beat) => {
                    self.heartbeats += 1;
                    events.push(StreamEvent::Heartbeat(beat));
                }
                WorkerMessage::End(claimed) => {
                    if claimed != self.outcomes.len() as u64 {
                        return Err(ProtoError::CountMismatch {
                            claimed,
                            received: self.outcomes.len() as u64,
                        });
                    }
                    self.ended = Some(claimed);
                    events.push(StreamEvent::End);
                }
                WorkerMessage::Outcome(o) => {
                    // Explicit duplicate rejection, checked as frames
                    // arrive: a repeated scenario index is a protocol
                    // violation on its own, whatever the END count or
                    // the index sequence later claim.
                    let index = o.scenario.index;
                    if self
                        .outcomes
                        .iter()
                        .any(|prev| prev.scenario.index == index)
                    {
                        return Err(ProtoError::DuplicateIndex {
                            index,
                            position: self.outcomes.len(),
                        });
                    }
                    events.push(StreamEvent::Outcome(index));
                    self.outcomes.push(o);
                }
            }
        }
    }

    /// Declares EOF and runs the whole-stream checks: END present, no
    /// partial frame left behind, and the scenario indices exactly the
    /// assigned ones in order.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError`] describing the first violation found.
    pub fn finish(self) -> Result<Vec<ScenarioOutcome>, ProtoError> {
        match self.ended {
            None if self.acc.residual() != 0 => {
                // The stream died inside a frame: the same class of
                // error the one-shot decoder reports for a torn frame.
                return Err(ProtoError::Frame(WireError::Decode(DecodeError::new(
                    format!(
                        "stream ended mid-frame with {} buffered bytes",
                        self.acc.residual()
                    ),
                ))));
            }
            None => return Err(ProtoError::MissingEnd),
            Some(_) => {}
        }
        if self.outcomes.len() != self.expected.len() {
            return Err(ProtoError::CountMismatch {
                claimed: self.outcomes.len() as u64,
                received: self.expected.len() as u64,
            });
        }
        for (pos, (o, &want)) in self.outcomes.iter().zip(&self.expected).enumerate() {
            if o.scenario.index != want {
                return Err(ProtoError::IndexMismatch { position: pos });
            }
        }
        Ok(self.outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsa_attack::campaign::wire::{encode_end_frame, encode_outcome_frame};
    use fsa_attack::campaign::{Scenario, SparsityBudget};
    use fsa_attack::AttackResult;
    use fsa_tensor::Prng;

    fn outcome(index: usize) -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: Scenario {
                index,
                s: 1,
                k: 2,
                budget: SparsityBudget::l0(0.001),
                seed: 42,
            },
            targets: vec![1],
            result: AttackResult {
                delta: vec![0.5, 0.0],
                l0: 1,
                l2: 0.5,
                s_success: 1,
                s_total: 1,
                keep_unchanged: 2,
                keep_total: 2,
                admm_history: vec![],
                converged: true,
            },
        }
    }

    /// Feeds a whole buffer through a fresh parser and finishes it.
    fn parse(bytes: &[u8], expected: &[usize]) -> Result<Vec<ScenarioOutcome>, ProtoError> {
        let mut parser = StreamParser::new(expected);
        parser.push(bytes)?;
        parser.finish()
    }

    fn stream(indices: &[usize]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &i in indices {
            bytes.extend_from_slice(&encode_outcome_frame(&outcome(i)));
        }
        bytes.extend_from_slice(&encode_end_frame(indices.len() as u64));
        bytes
    }

    #[test]
    fn job_roundtrip() {
        let mut rng = Prng::new(3);
        let head = FcHead::from_dims(&[4, 6, 3], &mut rng);
        let job = ShardJob {
            selection: ParamSelection::last_layer(&head),
            head,
            labels: vec![0, 1, 2, 0, 1],
            features: Tensor::randn(&[5, 4], 1.0, &mut rng),
            spec: CampaignSpec::grid(vec![1], vec![2]),
            method: "fsa".into(),
            indices: vec![0, 1],
        };
        let bytes = job.encode();
        let back = ShardJob::decode(&bytes).unwrap();
        // FcHead has no PartialEq; a byte-identical re-encode is the
        // stronger statement anyway.
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.labels, job.labels);
        assert_eq!(back.indices, job.indices);
        assert_eq!(back.method, job.method);
        assert_eq!(back.spec, job.spec);

        // One whole frame and nothing else: junk or a second job after
        // it is refused, as for every wire frame kind.
        let mut junk = bytes.clone();
        junk.extend_from_slice(&[0xAB; 20]);
        let mut twice = bytes.clone();
        twice.extend_from_slice(&bytes);
        for extra in [junk, twice] {
            let err = ShardJob::decode(&extra).expect_err("bytes after the job frame");
            assert!(err.to_string().contains("bytes after the frame"), "{err}");
        }
    }

    /// A features tensor claiming dims `[2^63, 2]` with no data: the
    /// element count overflows `usize`. Checksum-valid, so only the
    /// tensor decoder can refuse it — as an error, never a panic or a
    /// tensor whose shape disagrees with its data.
    #[test]
    fn overflowing_tensor_dims_are_a_decode_error() {
        let mut rng = Prng::new(3);
        let head = FcHead::from_dims(&[4, 6, 3], &mut rng);
        let mut enc = Encoder::new();
        head.encode(&mut enc);
        wire::put_selection(&mut enc, &ParamSelection::last_layer(&head));
        enc.put_u64(0); // no labels
        enc.put_tag(b"FSAT");
        enc.put_u32(2);
        enc.put_u64(1 << 63);
        enc.put_u64(2);
        enc.put_f32_slice(&[]);
        wire::put_spec(&mut enc, &CampaignSpec::grid(vec![1], vec![2]));
        enc.put_str("fsa");
        enc.put_u64(0); // no indices
        let bytes = wire::frame(JOB_TAG, &enc.into_bytes());
        let err = ShardJob::decode(&bytes).expect_err("overflowing dims must not decode");
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    #[test]
    fn a_hello_is_admitted_only_as_the_first_frame() {
        use fsa_attack::campaign::wire::{encode_hello_frame, WorkerHello};
        let hello = encode_hello_frame(&WorkerHello::current(7));
        let mut bytes = hello.clone();
        bytes.extend_from_slice(&stream(&[0]));
        let mut parser = StreamParser::new(&[0]);
        let events = parser.push(&bytes).expect("hello-first stream");
        assert_eq!(events[0], StreamEvent::Hello(WorkerHello::current(7)));
        assert_eq!(parser.finish().expect("parse").len(), 1);

        // A second hello — or one after any other frame — is refused.
        let mut late = encode_outcome_frame(&outcome(0));
        late.extend_from_slice(&hello);
        assert!(matches!(parse(&late, &[0]), Err(ProtoError::Frame(_))));
        let mut twice = hello.clone();
        twice.extend_from_slice(&hello);
        assert!(matches!(parse(&twice, &[0]), Err(ProtoError::Frame(_))));
    }

    #[test]
    fn clean_stream_parses() {
        let bytes = stream(&[3, 4, 5]);
        let got = parse(&bytes, &[3, 4, 5]).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].scenario.index, 4);
    }

    #[test]
    fn missing_end_is_rejected() {
        let mut bytes = stream(&[0, 1]);
        // Drop the END frame entirely.
        let end = encode_end_frame(2);
        bytes.truncate(bytes.len() - end.len());
        assert_eq!(parse(&bytes, &[0, 1]), Err(ProtoError::MissingEnd));
    }

    #[test]
    fn truncated_mid_frame_is_a_frame_error() {
        let bytes = stream(&[0, 1]);
        let cut = &bytes[..bytes.len() - 10];
        assert!(matches!(parse(cut, &[0, 1]), Err(ProtoError::Frame(_))));
    }

    #[test]
    fn wrong_indices_are_rejected() {
        let bytes = stream(&[0, 2]);
        assert_eq!(
            parse(&bytes, &[0, 1]),
            Err(ProtoError::IndexMismatch { position: 1 })
        );
    }

    #[test]
    fn duplicated_outcome_frames_are_rejected() {
        // A frame repeated mid-stream (END count still matching the
        // emitted frame count) must fail as DuplicateIndex, not be
        // merged or misreported as a count problem.
        let mut bytes = Vec::new();
        for &i in &[3usize, 4, 4, 5] {
            bytes.extend_from_slice(&encode_outcome_frame(&outcome(i)));
        }
        bytes.extend_from_slice(&encode_end_frame(4));
        assert_eq!(
            parse(&bytes, &[3, 4, 5]),
            Err(ProtoError::DuplicateIndex {
                index: 4,
                position: 2
            })
        );
    }

    #[test]
    fn duplicate_of_the_last_index_cannot_hide_behind_the_count() {
        // The adversarial corner the explicit check exists for: the
        // worker's *last* frame is replayed, and the END count covers
        // the duplicate, so count and prefix-order both look fine.
        let mut bytes = Vec::new();
        for &i in &[0usize, 1, 1] {
            bytes.extend_from_slice(&encode_outcome_frame(&outcome(i)));
        }
        bytes.extend_from_slice(&encode_end_frame(3));
        assert_eq!(
            parse(&bytes, &[0, 1]),
            Err(ProtoError::DuplicateIndex {
                index: 1,
                position: 2
            })
        );
    }

    #[test]
    fn count_mismatch_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_outcome_frame(&outcome(0)));
        bytes.extend_from_slice(&encode_end_frame(7));
        assert!(matches!(
            parse(&bytes, &[0]),
            Err(ProtoError::CountMismatch { .. })
        ));
    }

    // ── incremental parsing (short reads) ────────────────────────────

    /// Links deliver arbitrary fragments. Feeding the stream one byte
    /// at a time must produce the same outcomes as parsing it whole.
    #[test]
    fn one_byte_at_a_time_matches_whole_buffer_parse() {
        let indices = vec![3usize, 1, 4, 1 + 4, 9];
        let bytes = stream(&indices);
        let whole = parse(&bytes, &indices).expect("whole parse");

        let mut parser = StreamParser::new(&indices);
        let mut events = Vec::new();
        for &b in &bytes {
            events.extend(parser.push(&[b]).expect("byte push"));
        }
        assert!(parser.ended());
        let trickled = parser.finish().expect("trickled parse");
        assert_eq!(trickled, whole);
        // Every outcome and the END must have surfaced as events.
        let outcomes: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Outcome(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(outcomes, indices);
        assert_eq!(events.last(), Some(&StreamEvent::End));
    }

    /// Fragment boundaries chosen adversarially (mid-header,
    /// mid-payload, mid-checksum) by a seeded chunker: every chunking
    /// of a valid stream parses to the same outcomes.
    #[test]
    fn seeded_random_fragmentation_is_boundary_invariant() {
        let indices = vec![0usize, 1, 2, 3];
        let bytes = stream(&indices);
        let whole = parse(&bytes, &indices).expect("whole parse");
        let mut rng = Prng::new(0x10_50C3);
        for _ in 0..50 {
            let mut parser = StreamParser::new(&indices);
            let mut at = 0usize;
            while at < bytes.len() {
                let take = 1 + rng.below((bytes.len() - at).min(13));
                parser.push(&bytes[at..at + take]).expect("chunk push");
                at += take;
            }
            assert_eq!(parser.finish().expect("chunked parse"), whole);
        }
    }

    /// Heartbeat frames may interleave anywhere in the result stream:
    /// they surface as liveness events and are stripped from the
    /// outcome sequence, which must still validate exactly.
    #[test]
    fn heartbeats_interleave_without_entering_the_outcome_stream() {
        use fsa_attack::campaign::wire::{encode_heartbeat_frame, Heartbeat};
        let indices = vec![5usize, 6, 7];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_heartbeat_frame(&Heartbeat {
            worker_id: 2,
            seq: 0,
        }));
        for (n, &i) in indices.iter().enumerate() {
            bytes.extend_from_slice(&encode_outcome_frame(&outcome(i)));
            bytes.extend_from_slice(&encode_heartbeat_frame(&Heartbeat {
                worker_id: 2,
                seq: n as u64 + 1,
            }));
        }
        bytes.extend_from_slice(&encode_end_frame(indices.len() as u64));

        let mut parser = StreamParser::new(&indices);
        let events = parser.push(&bytes).expect("push");
        let beats: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Heartbeat(h) => Some(h.seq),
                _ => None,
            })
            .collect();
        assert_eq!(beats, vec![0, 1, 2, 3]);
        assert_eq!(parser.heartbeats(), 4);
        let parsed = parser.finish().expect("parse");
        let got: Vec<usize> = parsed.iter().map(|o| o.scenario.index).collect();
        assert_eq!(got, indices);
    }

    /// A stream that dies mid-frame (torn write at the partition) is a
    /// frame error at finish, exactly like the one-shot decoder
    /// reported for a truncated buffer.
    #[test]
    fn stream_dying_mid_frame_is_a_frame_error_at_finish() {
        let bytes = stream(&[0]);
        let mut parser = StreamParser::new(&[0]);
        parser.push(&bytes[..bytes.len() - 3]).expect("push");
        assert!(!parser.ended());
        assert!(matches!(parser.finish(), Err(ProtoError::Frame(_))));
    }

    /// Bytes arriving after END are trailing bytes even when they land
    /// in a later push than the END frame did.
    #[test]
    fn bytes_after_end_in_a_later_push_are_trailing() {
        let bytes = stream(&[0]);
        let mut parser = StreamParser::new(&[0]);
        parser.push(&bytes).expect("push");
        assert!(parser.ended());
        assert_eq!(parser.push(&[0xAB]), Err(ProtoError::TrailingBytes(1)));
    }
}
