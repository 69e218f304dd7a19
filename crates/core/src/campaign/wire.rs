//! Versioned, checksummed wire frames for campaign artifacts.
//!
//! The sharded multi-process executor (`fsa-harness`) moves
//! [`CampaignSpec`]s to worker processes and [`ScenarioOutcome`]s back
//! over pipes or loopback sockets. A frame on that wire must survive three hostile
//! conditions the supervisor is built around: a worker dying mid-write
//! (truncation), a worker writing garbage (corruption), and a version
//! skew between supervisor and worker binaries. Every frame therefore
//! carries:
//!
//! * a 4-byte **kind tag** (what the payload is),
//! * a `u32` **wire version** ([`WIRE_VERSION`]) — decoding any other
//!   version is an explicit [`WireError::Version`], never a guess;
//! * a `u64` **payload length** (truncation is detected before the
//!   payload is touched),
//! * the payload itself (std-LE [`fsa_tensor::io`] encoding), and
//! * a trailing `u64` **FNV-1a checksum** over tag ‖ version ‖ payload
//!   — any bit flip in the frame body surfaces as
//!   [`WireError::Checksum`], not as silently wrong numbers.
//!
//! # Decoding
//!
//! One private slice parser reads the frame layout for both decoding
//! paths. It checks the version as soon as the version word is present,
//! refuses an absurd length word at once, verifies the checksum, and
//! hands back the payload borrowed from its input.
//!
//! * **Incremental** — [`FrameAccumulator`] buffers the short reads a
//!   link delivers and yields each [`Frame`] once its last byte arrives.
//! * **One-shot** — [`decode_frame`] takes a buffer that must hold
//!   exactly one whole frame: a truncated frame and any byte after it
//!   are errors. The payload is read in place, never copied.
//!
//! Both end in the same typed step ([`decode_frame`], or
//! [`Frame::decode`] on an extracted frame): the tag must match, the
//! payload must read as the expected type, and no payload byte may be
//! left over. [`Frame::message`] applies it to whichever frame kind a
//! worker's result stream carries.
//!
//! # Versioning rules
//!
//! The version covers the *payload layouts* of every tag in this
//! module. Any change to a payload layout — field added, field
//! reordered, width changed — must bump [`WIRE_VERSION`]; decoders
//! reject all other versions outright rather than attempt migration
//! (both ends of the pipe always come from the same build in the
//! self-spawning executor, so skew means a deployment bug, not a
//! compatibility case to paper over).
//!
//! Payloads hold exact bit patterns (`f32` via `to_le_bytes`), so an
//! encode → decode round trip reproduces every value bit for bit and a
//! merged report's fingerprint cannot drift through serialization —
//! `tests/wire_roundtrip.rs` property-tests this together with
//! truncated-frame and flipped-bit rejection, and
//! `tests/wire_frame_digests.rs` pins every frame kind's bytes.

use crate::campaign::{
    CampaignReport, CampaignSpec, Scenario, ScenarioOutcome, SparsityBudget, SpecError,
};
use crate::precision::Precision;
use crate::selection::{LayerSelection, ParamKind, ParamSelection};
use crate::solver::{AttackConfig, AttackResult, IterStats, Norm};
use crate::stealth::StealthObjective;
use fsa_memfault::dram::DramGeometry;
use fsa_tensor::hash::Fnv1a;
use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use std::error::Error;
use std::fmt;

/// Version of every payload layout in this module; bump on any change.
/// (v6: an attack config carries no stiffness and its refine option
/// only the iteration cap.)
pub const WIRE_VERSION: u32 = 6;

/// Frame tag: a [`CampaignSpec`] payload.
pub const SPEC_TAG: &[u8; 4] = b"FSCS";
/// Frame tag: a [`ScenarioOutcome`] payload.
pub const OUTCOME_TAG: &[u8; 4] = b"FSCO";
/// Frame tag: a whole [`CampaignReport`] payload.
pub const REPORT_TAG: &[u8; 4] = b"FSCR";
/// Frame tag: end-of-stream marker carrying the emitted-frame count.
pub const END_TAG: &[u8; 4] = b"FSCE";
/// Frame tag: a worker's registration hello ([`WorkerHello`]).
pub const HELLO_TAG: &[u8; 4] = b"FSHL";
/// Frame tag: a worker liveness heartbeat ([`Heartbeat`]).
pub const HEARTBEAT_TAG: &[u8; 4] = b"FSHB";

/// Version of the registration *handshake* itself, carried inside the
/// hello payload — separate from [`WIRE_VERSION`] (which covers frame
/// layouts) so the supervisor can refuse a worker speaking an
/// incompatible registration protocol with a classified error instead
/// of a generic decode failure.
pub const HELLO_PROTO_VERSION: u32 = 1;

/// Capability bit: the worker emits heartbeat frames interleaved with
/// its outcome stream.
pub const CAP_HEARTBEAT: u64 = 1 << 0;
/// Capability bit: the worker accepts campaign shard jobs (the only
/// job family that exists today).
pub const CAP_SHARD_JOBS: u64 = 1 << 1;

/// Why a wire frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Structural failure: truncated input, bad tag, malformed payload.
    Decode(DecodeError),
    /// The frame parsed structurally but its checksum did not match —
    /// the bytes were altered in flight.
    Checksum {
        /// Checksum stored in the frame trailer.
        stored: u64,
        /// Checksum recomputed over the received bytes.
        computed: u64,
    },
    /// The frame was written by a different wire version.
    Version(u32),
    /// A hello frame carried an unsupported registration-protocol
    /// version: the worker speaks a different handshake than this
    /// supervisor, so registration is refused outright.
    Hello(u32),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Decode(e) => write!(f, "wire frame malformed: {e}"),
            WireError::Checksum { stored, computed } => write!(
                f,
                "wire frame checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            WireError::Version(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            WireError::Hello(v) => write!(
                f,
                "unsupported hello protocol version {v} (expected {HELLO_PROTO_VERSION}); \
                 registration refused"
            ),
        }
    }
}

impl Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

fn malformed(message: String) -> WireError {
    WireError::Decode(DecodeError::new(message))
}

/// A frame extracted by a [`FrameAccumulator`]: its kind tag and
/// checksum-verified payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's 4-byte kind tag.
    pub tag: [u8; 4],
    /// The checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The typed step of [`decode_frame`], on an extracted frame: the
    /// tag must be `tag`, and `read` must consume the whole payload.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a wrong tag, a payload `read` refuses,
    /// or payload bytes left over.
    pub fn decode<T, E>(
        &self,
        tag: &[u8; 4],
        read: impl FnOnce(&mut Decoder<'_>) -> Result<T, E>,
    ) -> Result<T, WireError>
    where
        WireError: From<E>,
    {
        decode_payload(&self.tag, &self.payload, tag, read)
    }

    /// Decodes a frame of a worker's result stream — hello, heartbeat,
    /// outcome or END — by its tag.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any other tag, a malformed payload, or
    /// a hello with a refused registration-protocol version.
    pub fn message(&self) -> Result<WorkerMessage, WireError> {
        match &self.tag {
            HELLO_TAG => self.decode(HELLO_TAG, read_hello).map(WorkerMessage::Hello),
            HEARTBEAT_TAG => self
                .decode(HEARTBEAT_TAG, read_heartbeat)
                .map(WorkerMessage::Heartbeat),
            OUTCOME_TAG => self
                .decode(OUTCOME_TAG, read_outcome)
                .map(WorkerMessage::Outcome),
            END_TAG => self
                .decode(END_TAG, |dec| dec.read_u64())
                .map(WorkerMessage::End),
            tag => Err(malformed(format!(
                "unexpected frame tag {tag:?} in a worker stream"
            ))),
        }
    }
}

/// One frame of a worker's result stream, decoded by
/// [`Frame::message`].
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMessage {
    /// The registration hello (its protocol version already checked).
    Hello(WorkerHello),
    /// A liveness heartbeat.
    Heartbeat(Heartbeat),
    /// One finished scenario.
    Outcome(ScenarioOutcome),
    /// End of stream: the number of outcome frames before it.
    End(u64),
}

/// Checksum over the covered portion of a frame (tag ‖ version ‖ payload).
fn frame_checksum(tag: &[u8; 4], payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(tag);
    h.write_bytes(&WIRE_VERSION.to_le_bytes());
    h.write_bytes(payload);
    h.finish()
}

/// Wraps a payload in a complete frame (tag, version, length, payload,
/// checksum).
pub fn frame(tag: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_tag(tag);
    enc.put_u32(WIRE_VERSION);
    enc.put_u64(payload.len() as u64);
    let checksum = frame_checksum(tag, payload);
    let mut bytes = enc.into_bytes();
    bytes.extend_from_slice(payload);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Frames the payload `write` appends.
fn encode_frame(tag: &[u8; 4], write: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    write(&mut enc);
    frame(tag, &enc.into_bytes())
}

/// Fixed frame-header size: tag (4) ‖ version (4) ‖ payload length (8).
const FRAME_HEADER_BYTES: usize = 16;
/// Trailing checksum size.
const FRAME_TRAILER_BYTES: usize = 8;
/// Upper bound on a sane frame payload (job frames ship whole feature
/// tensors, so this is generous — it only exists to turn a corrupted
/// length word into an immediate error).
const MAX_FRAME_PAYLOAD: u64 = 1 << 30;

/// A whole frame at the start of a buffer, its payload borrowed.
struct RawFrame<'a> {
    tag: [u8; 4],
    payload: &'a [u8],
    /// Header, payload and checksum bytes together.
    len: usize,
}

/// Parses the frame at the start of `bytes`: the only reader of the
/// frame layout. `Ok(None)` while the frame is incomplete.
///
/// The version is checked as soon as its word is present and the length
/// word as soon as it is, so version skew and a corrupted length fail
/// at once rather than after a payload that will never arrive (the
/// checksum can only catch them once the claimed payload is complete).
fn split_frame(bytes: &[u8]) -> Result<Option<RawFrame<'_>>, WireError> {
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if bytes.len() >= 8 {
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != WIRE_VERSION {
            return Err(WireError::Version(version));
        }
    }
    if bytes.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let len = u64_at(8);
    if len > MAX_FRAME_PAYLOAD {
        return Err(malformed(format!("absurd frame payload length {len}")));
    }
    let end = FRAME_HEADER_BYTES + len as usize;
    if bytes.len() < end + FRAME_TRAILER_BYTES {
        return Ok(None);
    }
    let tag = bytes[..4].try_into().expect("4 bytes");
    let payload = &bytes[FRAME_HEADER_BYTES..end];
    let stored = u64_at(end);
    let computed = frame_checksum(&tag, payload);
    if stored != computed {
        return Err(WireError::Checksum { stored, computed });
    }
    Ok(Some(RawFrame {
        tag,
        payload,
        len: end + FRAME_TRAILER_BYTES,
    }))
}

/// Decodes `bytes`, which must hold exactly one whole frame, as a `T`:
/// the tag must be `tag`, and `read` must consume the whole payload,
/// which it reads in place.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, version skew, a checksum
/// mismatch, bytes after the frame, a wrong tag, a payload `read`
/// refuses, or payload bytes left over.
pub fn decode_frame<T, E>(
    bytes: &[u8],
    tag: &[u8; 4],
    read: impl FnOnce(&mut Decoder<'_>) -> Result<T, E>,
) -> Result<T, WireError>
where
    WireError: From<E>,
{
    let Some(raw) = split_frame(bytes)? else {
        return Err(malformed(format!(
            "truncated frame of {} bytes",
            bytes.len()
        )));
    };
    if raw.len != bytes.len() {
        return Err(malformed(format!(
            "{} bytes after the frame",
            bytes.len() - raw.len
        )));
    }
    decode_payload(&raw.tag, raw.payload, tag, read)
}

/// The typed step every decoder ends in: tag matches, payload reads,
/// no payload byte left over.
fn decode_payload<T, E>(
    got: &[u8; 4],
    payload: &[u8],
    tag: &[u8; 4],
    read: impl FnOnce(&mut Decoder<'_>) -> Result<T, E>,
) -> Result<T, WireError>
where
    WireError: From<E>,
{
    if got != tag {
        return Err(malformed(format!(
            "expected frame tag {tag:?}, got {got:?}"
        )));
    }
    let mut dec = Decoder::new(payload);
    let value = read(&mut dec)?;
    match dec.remaining() {
        0 => Ok(value),
        n => Err(malformed(format!("{n} trailing bytes after payload"))),
    }
}

/// Incremental frame extractor for byte streams with arbitrary read
/// fragmentation.
///
/// Links deliver *short reads* — a frame can arrive one byte at a time,
/// split anywhere, including mid-header. The accumulator buffers pushed
/// bytes and yields a frame only once its header, payload, and checksum
/// trailer are all present, through the same parser as
/// [`decode_frame`]: version skew is reported as soon as the first 8
/// bytes arrive, rather than after a never-arriving payload.
///
/// Extracted frames advance a read cursor; consumed bytes are dropped
/// once per [`FrameAccumulator::push`], so splitting `N` frames out of
/// one push moves each byte at most once instead of `N` times.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
    /// Index of the first byte not yet consumed by a completed frame.
    cursor: usize,
}

impl FrameAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly-read bytes (any fragmentation, including empty).
    pub fn push(&mut self, bytes: &[u8]) {
        if self.cursor > 0 {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed frame.
    pub fn residual(&self) -> usize {
        self.buf.len() - self.cursor
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` while the next frame is still incomplete.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on version skew (eagerly, once the header's
    /// version word is present), an absurd length word, or a checksum
    /// mismatch. After an error the accumulator's contents are
    /// unspecified; the stream is dead.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(raw) = split_frame(&self.buf[self.cursor..])? else {
            return Ok(None);
        };
        self.cursor += raw.len;
        Ok(Some(Frame {
            tag: raw.tag,
            payload: raw.payload.to_vec(),
        }))
    }
}

// ---------------------------------------------------------------------
// Payload-level encoders/decoders. Public so composite frames (the
// harness's shard-job frame) can nest these layouts without double
// framing.
// ---------------------------------------------------------------------

/// Appends an optional field: a `u32` presence tag (0 or 1), then the
/// value if present.
fn put_option<T>(enc: &mut Encoder, value: &Option<T>, put: impl FnOnce(&mut Encoder, &T)) {
    enc.put_u32(u32::from(value.is_some()));
    if let Some(v) = value {
        put(enc, v);
    }
}

/// Reads a field written by [`put_option`]; `what` names it in the
/// error for an unknown presence tag.
fn read_option<T>(
    dec: &mut Decoder<'_>,
    what: &str,
    read: impl FnOnce(&mut Decoder<'_>) -> Result<T, DecodeError>,
) -> Result<Option<T>, DecodeError> {
    match dec.read_u32()? {
        0 => Ok(None),
        1 => read(dec).map(Some),
        v => Err(DecodeError::new(format!("unknown {what} tag {v}"))),
    }
}

fn put_norm(enc: &mut Encoder, norm: Norm) {
    enc.put_u32(match norm {
        Norm::L0 => 0,
        Norm::L2 => 1,
    });
}

fn read_norm(dec: &mut Decoder<'_>) -> Result<Norm, DecodeError> {
    match dec.read_u32()? {
        0 => Ok(Norm::L0),
        1 => Ok(Norm::L2),
        v => Err(DecodeError::new(format!("unknown norm tag {v}"))),
    }
}

fn put_budget(enc: &mut Encoder, b: &SparsityBudget) {
    put_norm(enc, b.norm);
    enc.put_f32(b.lambda);
}

fn read_budget(dec: &mut Decoder<'_>) -> Result<SparsityBudget, DecodeError> {
    Ok(SparsityBudget {
        norm: read_norm(dec)?,
        lambda: dec.read_f32()?,
    })
}

/// Appends an [`AttackConfig`] payload.
fn put_config(enc: &mut Encoder, cfg: &AttackConfig) {
    put_norm(enc, cfg.norm);
    enc.put_f32(cfg.rho);
    enc.put_f32(cfg.lambda);
    enc.put_u64(cfg.iterations as u64);
    enc.put_f32(cfg.kappa);
    put_option(enc, &cfg.refine, |enc, &r| enc.put_u64(r as u64));
}

/// Reads an [`AttackConfig`] payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input, or when the config breaks
/// a bound: ρ finite and > 0; λ and κ finite and ≥ 0.
fn read_config(dec: &mut Decoder<'_>) -> Result<AttackConfig, DecodeError> {
    let norm = read_norm(dec)?;
    let rho = dec.read_f32()?;
    let lambda = dec.read_f32()?;
    let iterations = dec.read_u64()? as usize;
    let kappa = dec.read_f32()?;
    let refine = read_option(dec, "refine", |dec| Ok(dec.read_u64()? as usize))?;
    let config = AttackConfig {
        norm,
        rho,
        lambda,
        iterations,
        kappa,
        refine,
    };
    config
        .check()
        .map_err(|e| DecodeError::new(e.to_string()))?;
    Ok(config)
}

fn put_precision(enc: &mut Encoder, p: Precision) {
    enc.put_u32(p.tag() as u32);
}

fn read_precision(dec: &mut Decoder<'_>) -> Result<Precision, DecodeError> {
    match dec.read_u32()? {
        0 => Ok(Precision::F32),
        1 => Ok(Precision::Int8),
        v => Err(DecodeError::new(format!("unknown precision tag {v}"))),
    }
}

fn put_stealth(enc: &mut Encoder, stealth: &Option<StealthObjective>) {
    put_option(enc, stealth, |enc, s| {
        enc.put_u64(s.block_params as u64);
        enc.put_f32(s.block_lambda);
        enc.put_u64(s.geometry.banks as u64);
        enc.put_u64(s.geometry.rows_per_bank as u64);
        enc.put_u64(s.geometry.row_bytes as u64);
        enc.put_f32(s.drift_budget);
        enc.put_u64(s.max_dirty_blocks as u64);
    });
}

fn read_stealth(dec: &mut Decoder<'_>) -> Result<Option<StealthObjective>, DecodeError> {
    read_option(dec, "stealth", |dec| {
        let stealth = StealthObjective {
            block_params: dec.read_u64()? as usize,
            block_lambda: dec.read_f32()?,
            geometry: DramGeometry {
                banks: dec.read_u64()? as usize,
                rows_per_bank: dec.read_u64()? as usize,
                row_bytes: dec.read_u64()? as usize,
            },
            drift_budget: dec.read_f32()?,
            max_dirty_blocks: dec.read_u64()? as usize,
        };
        if !stealth.is_valid() {
            return Err(DecodeError::new(
                SpecError::InvalidStealth { stealth }.to_string(),
            ));
        }
        Ok(stealth)
    })
}

fn put_suite_seed(enc: &mut Encoder, suite_seed: &Option<u64>) {
    put_option(enc, suite_seed, |enc, &seed| enc.put_u64(seed));
}

fn read_suite_seed(dec: &mut Decoder<'_>) -> Result<Option<u64>, DecodeError> {
    read_option(dec, "suite-seed", |dec| dec.read_u64())
}

/// Appends a [`CampaignSpec`] payload.
pub fn put_spec(enc: &mut Encoder, spec: &CampaignSpec) {
    enc.put_u64_slice(&spec.s_values);
    enc.put_u64_slice(&spec.k_values);
    enc.put_u64(spec.budgets.len() as u64);
    for b in &spec.budgets {
        put_budget(enc, b);
    }
    enc.put_u64_slice(&spec.seeds);
    put_config(enc, &spec.base);
    enc.put_f32(spec.c_attack);
    enc.put_f32(spec.c_keep);
    put_precision(enc, spec.precision);
    put_stealth(enc, &spec.stealth);
    put_suite_seed(enc, &spec.suite_seed);
}

/// Reads a [`CampaignSpec`] payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input, or when the base config
/// breaks a bound (ρ finite and > 0; λ and κ finite and ≥ 0), or a
/// budget's λ, `c_attack` or `c_keep` is not finite and ≥ 0.
pub fn read_spec(dec: &mut Decoder<'_>) -> Result<CampaignSpec, DecodeError> {
    let s_values = dec.read_u64_vec()?;
    let k_values = dec.read_u64_vec()?;
    let nb = dec.read_u64()? as usize;
    let mut budgets = Vec::with_capacity(nb.min(1 << 16));
    for _ in 0..nb {
        budgets.push(read_budget(dec)?);
    }
    let seeds = dec.read_u64_vec()?;
    let base = read_config(dec)?;
    let c_attack = dec.read_f32()?;
    let c_keep = dec.read_f32()?;
    let precision = read_precision(dec)?;
    let stealth = read_stealth(dec)?;
    let suite_seed = read_suite_seed(dec)?;
    let spec = CampaignSpec {
        s_values,
        k_values,
        budgets,
        seeds,
        base,
        c_attack,
        c_keep,
        precision,
        stealth,
        suite_seed,
    };
    spec.check_weights()
        .map_err(|e| DecodeError::new(e.to_string()))?;
    Ok(spec)
}

/// Appends a [`ParamSelection`] payload.
pub fn put_selection(enc: &mut Encoder, sel: &ParamSelection) {
    enc.put_u64(sel.entries().len() as u64);
    for e in sel.entries() {
        enc.put_u64(e.layer as u64);
        enc.put_u32(match e.kind {
            ParamKind::Weights => 0,
            ParamKind::Bias => 1,
            ParamKind::Both => 2,
        });
    }
}

/// Reads a [`ParamSelection`] payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input, an empty selection, or
/// duplicate layers (the invariants [`ParamSelection::from_entries`]
/// enforces by panic are checked here and reported as errors instead).
pub fn read_selection(dec: &mut Decoder<'_>) -> Result<ParamSelection, DecodeError> {
    let n = dec.read_u64()? as usize;
    if n == 0 || n > 1 << 16 {
        return Err(DecodeError::new(format!(
            "absurd selection entry count {n}"
        )));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let layer = dec.read_u64()? as usize;
        let kind = match dec.read_u32()? {
            0 => ParamKind::Weights,
            1 => ParamKind::Bias,
            2 => ParamKind::Both,
            v => return Err(DecodeError::new(format!("unknown param-kind tag {v}"))),
        };
        entries.push(LayerSelection { layer, kind });
    }
    let mut layers: Vec<usize> = entries.iter().map(|e| e.layer).collect();
    layers.sort_unstable();
    if layers.windows(2).any(|w| w[0] == w[1]) {
        return Err(DecodeError::new("duplicate layer in selection"));
    }
    Ok(ParamSelection::from_entries(entries))
}

fn put_scenario(enc: &mut Encoder, sc: &Scenario) {
    enc.put_u64(sc.index as u64);
    enc.put_u64(sc.s as u64);
    enc.put_u64(sc.k as u64);
    put_budget(enc, &sc.budget);
    enc.put_u64(sc.seed);
}

fn read_scenario(dec: &mut Decoder<'_>) -> Result<Scenario, DecodeError> {
    Ok(Scenario {
        index: dec.read_u64()? as usize,
        s: dec.read_u64()? as usize,
        k: dec.read_u64()? as usize,
        budget: read_budget(dec)?,
        seed: dec.read_u64()?,
    })
}

fn put_result(enc: &mut Encoder, r: &AttackResult) {
    enc.put_f32_slice(&r.delta);
    enc.put_u64(r.l0 as u64);
    enc.put_f32(r.l2);
    enc.put_u64(r.s_success as u64);
    enc.put_u64(r.s_total as u64);
    enc.put_u64(r.keep_unchanged as u64);
    enc.put_u64(r.keep_total as u64);
    enc.put_u64(r.admm_history.len() as u64);
    for st in &r.admm_history {
        enc.put_f32(st.objective);
        enc.put_f32(st.primal_residual);
        enc.put_f32(st.dual_residual);
    }
    enc.put_u32(u32::from(r.converged));
}

fn read_result(dec: &mut Decoder<'_>) -> Result<AttackResult, DecodeError> {
    let delta = dec.read_f32_vec()?;
    let l0 = dec.read_u64()? as usize;
    let l2 = dec.read_f32()?;
    let s_success = dec.read_u64()? as usize;
    let s_total = dec.read_u64()? as usize;
    let keep_unchanged = dec.read_u64()? as usize;
    let keep_total = dec.read_u64()? as usize;
    let nh = dec.read_u64()? as usize;
    let mut admm_history = Vec::with_capacity(nh.min(dec.remaining() / 12));
    for _ in 0..nh {
        admm_history.push(IterStats {
            objective: dec.read_f32()?,
            primal_residual: dec.read_f32()?,
            dual_residual: dec.read_f32()?,
        });
    }
    let converged = match dec.read_u32()? {
        0 => false,
        1 => true,
        v => return Err(DecodeError::new(format!("unknown converged tag {v}"))),
    };
    Ok(AttackResult {
        delta,
        l0,
        l2,
        s_success,
        s_total,
        keep_unchanged,
        keep_total,
        admm_history,
        converged,
    })
}

/// Appends a [`ScenarioOutcome`] payload.
fn put_outcome(enc: &mut Encoder, o: &ScenarioOutcome) {
    put_scenario(enc, &o.scenario);
    enc.put_u64_slice(&o.targets);
    put_result(enc, &o.result);
}

/// Reads a [`ScenarioOutcome`] payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
pub fn read_outcome(dec: &mut Decoder<'_>) -> Result<ScenarioOutcome, DecodeError> {
    Ok(ScenarioOutcome {
        scenario: read_scenario(dec)?,
        targets: dec.read_u64_vec()?,
        result: read_result(dec)?,
    })
}

// ---------------------------------------------------------------------
// Registration / liveness frames (the worker link's handshake).
// ---------------------------------------------------------------------

/// A worker's registration frame: the first thing it writes on its
/// link to the supervisor.
///
/// Carries the shard identity the supervisor assigned it (echoed back
/// so a crossed connection is caught at registration, not at index
/// validation), the registration-protocol version (refused outright on
/// mismatch — see [`HELLO_PROTO_VERSION`]), and a capability word
/// ([`CAP_HEARTBEAT`], [`CAP_SHARD_JOBS`]) so the supervisor knows what
/// the worker can do before shipping it a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerHello {
    /// The worker id (shard index) the supervisor assigned via the
    /// spawn environment, echoed back for cross-connection detection.
    pub worker_id: u64,
    /// Registration-protocol version; must equal
    /// [`HELLO_PROTO_VERSION`].
    pub proto_version: u32,
    /// Capability bits ([`CAP_HEARTBEAT`] | [`CAP_SHARD_JOBS`] today).
    pub capabilities: u64,
}

impl WorkerHello {
    /// The hello a current-build worker sends: this registration
    /// protocol version, all capabilities.
    pub fn current(worker_id: u64) -> Self {
        Self {
            worker_id,
            proto_version: HELLO_PROTO_VERSION,
            capabilities: CAP_HEARTBEAT | CAP_SHARD_JOBS,
        }
    }
}

/// A worker liveness beat: frame `seq` increments per beat so a
/// replayed/duplicated beat is visible (heartbeats carry no result
/// data and never enter any fingerprint — they exist purely so the
/// supervisor can tell a slow link from a dead worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The beating worker's id (shard index).
    pub worker_id: u64,
    /// Monotonic beat counter, starting at 0.
    pub seq: u64,
}

/// Encodes a [`WorkerHello`] as a complete checksummed frame.
pub fn encode_hello_frame(hello: &WorkerHello) -> Vec<u8> {
    encode_frame(HELLO_TAG, |enc| {
        enc.put_u64(hello.worker_id);
        enc.put_u32(hello.proto_version);
        enc.put_u64(hello.capabilities);
    })
}

/// Reads a [`HELLO_TAG`] payload, refusing any registration-protocol
/// version but [`HELLO_PROTO_VERSION`] as [`WireError::Hello`].
fn read_hello(dec: &mut Decoder<'_>) -> Result<WorkerHello, WireError> {
    let hello = WorkerHello {
        worker_id: dec.read_u64()?,
        proto_version: dec.read_u32()?,
        capabilities: dec.read_u64()?,
    };
    if hello.proto_version != HELLO_PROTO_VERSION {
        return Err(WireError::Hello(hello.proto_version));
    }
    Ok(hello)
}

/// Encodes a [`Heartbeat`] as a complete checksummed frame.
pub fn encode_heartbeat_frame(beat: &Heartbeat) -> Vec<u8> {
    encode_frame(HEARTBEAT_TAG, |enc| {
        enc.put_u64(beat.worker_id);
        enc.put_u64(beat.seq);
    })
}

fn read_heartbeat(dec: &mut Decoder<'_>) -> Result<Heartbeat, DecodeError> {
    Ok(Heartbeat {
        worker_id: dec.read_u64()?,
        seq: dec.read_u64()?,
    })
}

// ---------------------------------------------------------------------
// Whole-frame encoders.
// ---------------------------------------------------------------------

/// Encodes a [`CampaignSpec`] as a complete checksummed frame.
pub fn encode_spec_frame(spec: &CampaignSpec) -> Vec<u8> {
    encode_frame(SPEC_TAG, |enc| put_spec(enc, spec))
}

/// Encodes a [`ScenarioOutcome`] as a complete checksummed frame.
pub fn encode_outcome_frame(o: &ScenarioOutcome) -> Vec<u8> {
    encode_frame(OUTCOME_TAG, |enc| put_outcome(enc, o))
}

/// Encodes a whole [`CampaignReport`] as a complete checksummed frame.
pub fn encode_report_frame(report: &CampaignReport) -> Vec<u8> {
    encode_frame(REPORT_TAG, |enc| {
        enc.put_str(&report.method);
        put_precision(enc, report.precision);
        put_stealth(enc, &report.stealth);
        put_suite_seed(enc, &report.suite_seed);
        enc.put_u64(report.outcomes.len() as u64);
        for o in &report.outcomes {
            put_outcome(enc, o);
        }
    })
}

/// Decodes a frame written by [`encode_report_frame`].
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault or payload corruption.
pub fn decode_report_frame(bytes: &[u8]) -> Result<CampaignReport, WireError> {
    decode_frame(bytes, REPORT_TAG, read_report)
}

fn read_report(dec: &mut Decoder<'_>) -> Result<CampaignReport, DecodeError> {
    let method = dec.read_str()?;
    let precision = read_precision(dec)?;
    let stealth = read_stealth(dec)?;
    let suite_seed = read_suite_seed(dec)?;
    let n = dec.read_u64()? as usize;
    let mut outcomes = Vec::with_capacity(n.min(dec.remaining() / 64));
    for _ in 0..n {
        outcomes.push(read_outcome(dec)?);
    }
    Ok(CampaignReport {
        method,
        precision,
        stealth,
        suite_seed,
        outcomes,
    })
}

/// Encodes the end-of-stream frame a worker writes after its last
/// outcome: the number of outcome frames that preceded it.
pub fn encode_end_frame(count: u64) -> Vec<u8> {
    encode_frame(END_TAG, |enc| enc.put_u64(count))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::grid(vec![1, 2], vec![0, 3])
            .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.01)])
            .with_seeds(vec![7, 9])
            .with_precision(Precision::Int8)
            .with_stealth(Some(
                StealthObjective::new(
                    16,
                    0.5,
                    DramGeometry {
                        banks: 4,
                        rows_per_bank: 4096,
                        row_bytes: 256,
                    },
                    0.75,
                )
                .with_block_cap(5),
            ))
    }

    fn small_outcome() -> ScenarioOutcome {
        ScenarioOutcome {
            scenario: Scenario {
                index: 3,
                s: 2,
                k: 4,
                budget: SparsityBudget::l2(0.25),
                seed: 11,
            },
            targets: vec![1, 0],
            result: AttackResult {
                delta: vec![0.0, -1.5, f32::MIN_POSITIVE, 3.25],
                l0: 3,
                l2: 3.6,
                s_success: 2,
                s_total: 2,
                keep_unchanged: 4,
                keep_total: 4,
                admm_history: vec![IterStats {
                    objective: 9.0,
                    primal_residual: 0.5,
                    dual_residual: 0.25,
                }],
                converged: true,
            },
        }
    }

    #[test]
    fn spec_frame_roundtrip() {
        let spec = small_spec();
        let bytes = encode_spec_frame(&spec);
        assert_eq!(decode_frame(&bytes, SPEC_TAG, read_spec).unwrap(), spec);
    }

    #[test]
    fn outcome_frame_roundtrip() {
        let o = small_outcome();
        let bytes = encode_outcome_frame(&o);
        assert_eq!(decode_frame(&bytes, OUTCOME_TAG, read_outcome).unwrap(), o);
    }

    #[test]
    fn config_with_a_nan_rho_is_a_decode_error() {
        let cfg = AttackConfig {
            rho: f32::NAN,
            ..AttackConfig::default()
        };
        let mut enc = Encoder::new();
        put_config(&mut enc, &cfg);
        let bytes = enc.into_bytes();
        let err = read_config(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("finite and > 0"), "{err}");
    }

    #[test]
    fn stealth_out_of_bounds_is_a_decode_error() {
        let good = small_spec().stealth.unwrap();
        let mut bad = vec![StealthObjective {
            block_params: 0,
            ..good
        }];
        for v in [f32::NAN, f32::NEG_INFINITY, -0.5] {
            bad.push(StealthObjective {
                block_lambda: v,
                ..good
            });
            bad.push(StealthObjective {
                drift_budget: v,
                ..good
            });
        }
        for stealth in bad {
            let mut enc = Encoder::new();
            put_stealth(&mut enc, &Some(stealth));
            let bytes = enc.into_bytes();
            let err = read_stealth(&mut Decoder::new(&bytes)).unwrap_err();
            assert!(err.to_string().contains("block_params > 0"), "{err}");
        }
        let mut enc = Encoder::new();
        put_stealth(&mut enc, &Some(good));
        let bytes = enc.into_bytes();
        assert_eq!(read_stealth(&mut Decoder::new(&bytes)).unwrap(), Some(good));
    }

    #[test]
    fn stealth_geometry_that_holds_no_f32_word_is_a_decode_error() {
        let good = small_spec().stealth.unwrap();
        let g = good.geometry;
        for geometry in [
            DramGeometry { banks: 0, ..g },
            DramGeometry {
                rows_per_bank: 0,
                ..g
            },
            DramGeometry { row_bytes: 0, ..g },
            DramGeometry { row_bytes: 6, ..g },
            DramGeometry {
                banks: usize::MAX,
                ..g
            },
        ] {
            let mut enc = Encoder::new();
            put_stealth(&mut enc, &Some(StealthObjective { geometry, ..good }));
            let bytes = enc.into_bytes();
            let err = read_stealth(&mut Decoder::new(&bytes)).unwrap_err();
            assert!(
                err.to_string().contains("DRAM geometry"),
                "{geometry:?}: {err}"
            );
        }
    }

    #[test]
    fn report_frame_roundtrip() {
        let report = CampaignReport {
            method: "fsa".into(),
            precision: Precision::F32,
            stealth: small_spec().stealth,
            suite_seed: Some(0xA0D1_7EED),
            outcomes: vec![small_outcome(), small_outcome()],
        };
        let bytes = encode_report_frame(&report);
        let got = decode_report_frame(&bytes).unwrap();
        assert_eq!(got, report);
        assert_eq!(got.fingerprint(), report.fingerprint());
    }

    #[test]
    fn selection_payload_roundtrip() {
        let sel = ParamSelection::from_entries(vec![
            LayerSelection {
                layer: 0,
                kind: ParamKind::Weights,
            },
            LayerSelection {
                layer: 2,
                kind: ParamKind::Both,
            },
        ]);
        let mut enc = Encoder::new();
        put_selection(&mut enc, &sel);
        let bytes = enc.into_bytes();
        let got = read_selection(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(got, sel);
    }

    #[test]
    fn duplicate_selection_layers_are_an_error_not_a_panic() {
        let mut enc = Encoder::new();
        enc.put_u64(2);
        enc.put_u64(1);
        enc.put_u32(0);
        enc.put_u64(1);
        enc.put_u32(2);
        let bytes = enc.into_bytes();
        assert!(read_selection(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let bytes = encode_outcome_frame(&small_outcome());
        for cut in [0, 3, 8, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_frame(&bytes[..cut], OUTCOME_TAG, read_outcome).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn flipped_bit_is_rejected() {
        let bytes = encode_outcome_frame(&small_outcome());
        // Flip one bit in the payload body: the checksum must catch it.
        let mut corrupt = bytes.clone();
        let mid = 16 + (bytes.len() - 24) / 2;
        corrupt[mid] ^= 0x10;
        match decode_frame(&corrupt, OUTCOME_TAG, read_outcome) {
            Err(WireError::Checksum { .. }) | Err(WireError::Decode(_)) => {}
            other => panic!("corrupted frame decoded as {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_rejected() {
        let mut bytes = encode_spec_frame(&small_spec());
        // The version word sits right after the 4-byte tag.
        bytes[4] ^= 0xFF;
        assert!(matches!(
            decode_frame(&bytes, SPEC_TAG, read_spec),
            Err(WireError::Version(_))
        ));
    }

    #[test]
    fn end_frame_roundtrip() {
        let bytes = encode_end_frame(42);
        assert_eq!(decode_frame(&bytes, END_TAG, |d| d.read_u64()).unwrap(), 42);
    }

    #[test]
    fn hello_frame_roundtrip() {
        let hello = WorkerHello::current(7);
        assert_eq!(hello.proto_version, HELLO_PROTO_VERSION);
        assert_ne!(hello.capabilities & CAP_HEARTBEAT, 0);
        assert_ne!(hello.capabilities & CAP_SHARD_JOBS, 0);
        let bytes = encode_hello_frame(&hello);
        assert_eq!(decode_frame(&bytes, HELLO_TAG, read_hello).unwrap(), hello);
    }

    #[test]
    fn wrong_hello_protocol_version_is_refused_with_a_classified_error() {
        let rogue = WorkerHello {
            worker_id: 3,
            proto_version: HELLO_PROTO_VERSION + 1,
            capabilities: CAP_HEARTBEAT,
        };
        let bytes = encode_hello_frame(&rogue);
        // The frame itself is intact (version word, checksum) — the
        // refusal must come from the handshake layer, classified.
        match decode_frame(&bytes, HELLO_TAG, read_hello) {
            Err(WireError::Hello(v)) => assert_eq!(v, HELLO_PROTO_VERSION + 1),
            other => panic!("wrong-proto hello decoded as {other:?}"),
        }
    }

    #[test]
    fn heartbeat_frame_roundtrip() {
        let beat = Heartbeat {
            worker_id: 2,
            seq: 99,
        };
        let bytes = encode_heartbeat_frame(&beat);
        assert_eq!(
            decode_frame(&bytes, HEARTBEAT_TAG, read_heartbeat).unwrap(),
            beat
        );
    }

    /// A one-shot decode consumes exactly one whole frame: junk after
    /// it, or a second frame, is refused for every frame kind.
    #[test]
    fn one_shot_decode_refuses_bytes_after_the_frame() {
        fn check<T: fmt::Debug, E>(
            frame: &[u8],
            tag: &[u8; 4],
            read: impl Fn(&mut Decoder<'_>) -> Result<T, E>,
        ) where
            WireError: From<E>,
        {
            decode_frame(frame, tag, &read).expect("the frame alone decodes");
            let mut junk = frame.to_vec();
            junk.extend_from_slice(&[0xAB; 20]);
            let mut twice = frame.to_vec();
            twice.extend_from_slice(frame);
            for (what, bytes) in [("junk", junk), ("a second frame", twice)] {
                match decode_frame(&bytes, tag, &read) {
                    Err(WireError::Decode(e)) => {
                        assert!(e.to_string().contains("bytes after the frame"), "{e}")
                    }
                    other => panic!("{tag:?} frame followed by {what} decoded as {other:?}"),
                }
            }
        }
        check(&encode_spec_frame(&small_spec()), SPEC_TAG, read_spec);
        check(
            &encode_outcome_frame(&small_outcome()),
            OUTCOME_TAG,
            read_outcome,
        );
        let report = CampaignReport {
            method: "fsa".into(),
            precision: Precision::F32,
            stealth: None,
            suite_seed: None,
            outcomes: vec![small_outcome()],
        };
        check(&encode_report_frame(&report), REPORT_TAG, read_report);
        check(&encode_end_frame(3), END_TAG, |d| d.read_u64());
        check(
            &encode_hello_frame(&WorkerHello::current(1)),
            HELLO_TAG,
            read_hello,
        );
        let beat = Heartbeat {
            worker_id: 1,
            seq: 2,
        };
        check(
            &encode_heartbeat_frame(&beat),
            HEARTBEAT_TAG,
            read_heartbeat,
        );
    }

    #[test]
    fn a_wrong_tag_or_leftover_payload_is_refused() {
        let bytes = encode_end_frame(3);
        assert!(decode_frame(&bytes, HEARTBEAT_TAG, |d| d.read_u64()).is_err());
        let long = frame(END_TAG, &[0; 9]);
        let err = decode_frame(&long, END_TAG, |d| d.read_u64()).unwrap_err();
        assert!(err.to_string().contains("1 trailing bytes"), "{err}");
        assert!(decode_report_frame(&encode_spec_frame(&small_spec())).is_err());
    }

    #[test]
    fn accumulator_extracts_frames_fed_one_byte_at_a_time() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&encode_hello_frame(&WorkerHello::current(0)));
        stream.extend_from_slice(&encode_heartbeat_frame(&Heartbeat {
            worker_id: 0,
            seq: 0,
        }));
        stream.extend_from_slice(&encode_outcome_frame(&small_outcome()));
        stream.extend_from_slice(&encode_end_frame(1));
        let mut acc = FrameAccumulator::new();
        let mut frames = Vec::new();
        for &b in &stream {
            acc.push(&[b]);
            while let Some(f) = acc.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(acc.residual(), 0);
        let tags: Vec<[u8; 4]> = frames.iter().map(|f| f.tag).collect();
        assert_eq!(
            tags,
            vec![*HELLO_TAG, *HEARTBEAT_TAG, *OUTCOME_TAG, *END_TAG]
        );
        let messages: Vec<WorkerMessage> = frames.iter().map(|f| f.message().unwrap()).collect();
        assert_eq!(
            messages,
            vec![
                WorkerMessage::Hello(WorkerHello::current(0)),
                WorkerMessage::Heartbeat(Heartbeat {
                    worker_id: 0,
                    seq: 0
                }),
                WorkerMessage::Outcome(small_outcome()),
                WorkerMessage::End(1),
            ]
        );
        // A frame kind no worker sends is refused, not guessed at.
        let mut acc = FrameAccumulator::new();
        acc.push(&encode_spec_frame(&small_spec()));
        assert!(acc.next_frame().unwrap().unwrap().message().is_err());
    }

    /// Every frame (then the first error, if any) the accumulator yields
    /// for `stream` fed in pushes of `chunk` bytes.
    fn split_stream(stream: &[u8], chunk: usize) -> (Vec<Frame>, Option<WireError>) {
        let mut acc = FrameAccumulator::new();
        let mut frames = Vec::new();
        for piece in stream.chunks(chunk) {
            acc.push(piece);
            loop {
                match acc.next_frame() {
                    Ok(Some(f)) => frames.push(f),
                    Ok(None) => break,
                    Err(e) => return (frames, Some(e)),
                }
            }
        }
        assert_eq!(acc.residual(), 0, "{chunk}-byte pushes left bytes unread");
        (frames, None)
    }

    #[test]
    fn accumulator_yields_the_same_frames_for_any_push_split() {
        let frames: Vec<Vec<u8>> = (0..120)
            .map(|i| {
                let mut outcome = small_outcome();
                outcome.scenario.index = i;
                outcome.result.l0 = i * 7;
                encode_outcome_frame(&outcome)
            })
            .collect();
        let frame_len = frames[0].len();
        assert!(frames.iter().all(|f| f.len() == frame_len));
        let clean = frames.concat();
        // Frame 110 carries a flipped payload bit: 110 frames, then a
        // checksum error, for every split.
        let mut corrupt = clean.clone();
        corrupt[110 * frame_len + FRAME_HEADER_BYTES + 3] ^= 0x10;
        for (stream, good, failing) in [(&clean, 120, false), (&corrupt, 110, true)] {
            let whole = split_stream(stream, stream.len());
            assert_eq!(whole.0.len(), good);
            assert_eq!(whole.1.is_some(), failing);
            if failing {
                assert!(matches!(whole.1, Some(WireError::Checksum { .. })));
            }
            for (i, f) in whole.0.iter().enumerate() {
                match f.message().unwrap() {
                    WorkerMessage::Outcome(o) => assert_eq!(o.scenario.index, i),
                    other => panic!("frame {i} decoded as {other:?}"),
                }
            }
            for chunk in [frame_len, 1, 1000] {
                assert_eq!(split_stream(stream, chunk), whole, "{chunk}-byte pushes");
            }
        }
    }

    #[test]
    fn accumulator_rejects_version_skew_before_the_payload_arrives() {
        let mut bytes = encode_end_frame(0);
        bytes[4] ^= 0xFF;
        let mut acc = FrameAccumulator::new();
        // Only the first 8 bytes: no payload, no checksum — the skew
        // must already be visible.
        acc.push(&bytes[..8]);
        assert!(matches!(acc.next_frame(), Err(WireError::Version(_))));
    }

    #[test]
    fn accumulator_rejects_a_flipped_payload_bit() {
        let mut bytes = encode_outcome_frame(&small_outcome());
        let mid = FRAME_HEADER_BYTES + (bytes.len() - FRAME_HEADER_BYTES - 8) / 2;
        bytes[mid] ^= 0x04;
        let mut acc = FrameAccumulator::new();
        acc.push(&bytes);
        assert!(matches!(acc.next_frame(), Err(WireError::Checksum { .. })));
    }

    #[test]
    fn accumulator_rejects_an_absurd_length_word_immediately() {
        let mut bytes = encode_end_frame(0);
        // Overwrite the length word with something enormous; without
        // the cap the accumulator would wait forever for the payload.
        bytes[8..16].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let mut acc = FrameAccumulator::new();
        acc.push(&bytes[..FRAME_HEADER_BYTES]);
        assert!(matches!(acc.next_frame(), Err(WireError::Decode(_))));
    }

    #[test]
    fn accumulator_waits_on_incomplete_frames_without_error() {
        let bytes = encode_end_frame(3);
        let mut acc = FrameAccumulator::new();
        for cut in [0, 3, 8, 15, bytes.len() - 1] {
            let mut partial = FrameAccumulator::new();
            partial.push(&bytes[..cut]);
            assert!(matches!(partial.next_frame(), Ok(None)), "cut {cut}");
        }
        acc.push(&bytes);
        let f = acc.next_frame().unwrap().unwrap();
        assert_eq!(&f.tag, END_TAG);
        assert_eq!(acc.next_frame().unwrap(), None);
    }
}
