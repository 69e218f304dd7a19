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
//! truncated-frame and flipped-bit rejection.

use crate::campaign::{
    CampaignReport, CampaignSpec, Scenario, ScenarioOutcome, SparsityBudget, SpecError,
};
use crate::precision::Precision;
use crate::refine::RefineConfig;
use crate::selection::{LayerSelection, ParamKind, ParamSelection};
use crate::solver::{AttackConfig, AttackResult, IterStats, Norm, Stiffness};
use crate::stealth::StealthObjective;
use fsa_memfault::dram::DramGeometry;
use fsa_tensor::hash::Fnv1a;
use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use std::error::Error;
use std::fmt;

/// Version of every payload layout in this module; bump on any change.
/// (v4: the socket transport's registration/liveness frames — worker
/// hello and heartbeat — joined the frame family.)
pub const WIRE_VERSION: u32 = 4;

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

/// A decoded frame: its kind tag and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame's 4-byte kind tag.
    pub tag: [u8; 4],
    /// The checksum-verified payload bytes.
    pub payload: Vec<u8>,
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

/// Reads the next frame of any kind from the decoder, verifying version
/// and checksum.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, version skew, or checksum
/// mismatch.
pub fn read_frame(dec: &mut Decoder<'_>) -> Result<Frame, WireError> {
    let mut tag = [0u8; 4];
    let tag_word = dec.read_u32()?;
    tag.copy_from_slice(&tag_word.to_le_bytes());
    let version = dec.read_u32()?;
    if version != WIRE_VERSION {
        return Err(WireError::Version(version));
    }
    let len = dec.read_u64()? as usize;
    let payload = dec.read_raw(len)?;
    let stored = dec.read_u64()?;
    let computed = frame_checksum(&tag, &payload);
    if stored != computed {
        return Err(WireError::Checksum { stored, computed });
    }
    Ok(Frame { tag, payload })
}

/// Reads the next frame and checks it carries the expected tag.
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault or a tag mismatch.
pub fn expect_frame(dec: &mut Decoder<'_>, tag: &[u8; 4]) -> Result<Vec<u8>, WireError> {
    let f = read_frame(dec)?;
    if &f.tag != tag {
        return Err(WireError::Decode(DecodeError::new(format!(
            "expected frame tag {tag:?}, got {:?}",
            f.tag
        ))));
    }
    Ok(f.payload)
}

// ---------------------------------------------------------------------
// Payload-level encoders/decoders. Public so composite frames (the
// harness's shard-job frame) can nest these layouts without double
// framing.
// ---------------------------------------------------------------------

fn put_usize_slice(enc: &mut Encoder, xs: &[usize]) {
    enc.put_u64(xs.len() as u64);
    for &x in xs {
        enc.put_u64(x as u64);
    }
}

fn read_usize_vec(dec: &mut Decoder<'_>) -> Result<Vec<usize>, DecodeError> {
    // Capacity hints are capped by the bytes actually present, so a
    // forged count cannot reserve memory the payload cannot fill.
    let n = dec.read_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(dec.remaining() / 8));
    for _ in 0..n {
        out.push(dec.read_u64()? as usize);
    }
    Ok(out)
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
pub fn put_config(enc: &mut Encoder, cfg: &AttackConfig) {
    put_norm(enc, cfg.norm);
    enc.put_f32(cfg.rho);
    match cfg.stiffness {
        Stiffness::Auto(m) => {
            enc.put_u32(0);
            enc.put_f32(m);
        }
        Stiffness::Fixed(v) => {
            enc.put_u32(1);
            enc.put_f32(v);
        }
    }
    enc.put_f32(cfg.lambda);
    enc.put_u64(cfg.iterations as u64);
    enc.put_f32(cfg.kappa);
    match &cfg.refine {
        None => enc.put_u32(0),
        Some(r) => {
            enc.put_u32(1);
            enc.put_u64(r.iterations as u64);
            match r.step {
                None => enc.put_u32(0),
                Some(s) => {
                    enc.put_u32(1);
                    enc.put_f32(s);
                }
            }
        }
    }
}

/// Reads an [`AttackConfig`] payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input, or when the config breaks
/// a bound: ρ finite and > 0, λ and κ finite and ≥ 0.
pub fn read_config(dec: &mut Decoder<'_>) -> Result<AttackConfig, DecodeError> {
    let norm = read_norm(dec)?;
    let rho = dec.read_f32()?;
    let stiffness = match dec.read_u32()? {
        0 => Stiffness::Auto(dec.read_f32()?),
        1 => Stiffness::Fixed(dec.read_f32()?),
        v => return Err(DecodeError::new(format!("unknown stiffness tag {v}"))),
    };
    let lambda = dec.read_f32()?;
    let iterations = dec.read_u64()? as usize;
    let kappa = dec.read_f32()?;
    let refine = match dec.read_u32()? {
        0 => None,
        1 => {
            let iterations = dec.read_u64()? as usize;
            let step = match dec.read_u32()? {
                0 => None,
                1 => Some(dec.read_f32()?),
                v => return Err(DecodeError::new(format!("unknown refine-step tag {v}"))),
            };
            Some(RefineConfig { iterations, step })
        }
        v => return Err(DecodeError::new(format!("unknown refine tag {v}"))),
    };
    let config = AttackConfig {
        norm,
        rho,
        stiffness,
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
    match stealth {
        None => enc.put_u32(0),
        Some(s) => {
            enc.put_u32(1);
            enc.put_u64(s.block_params as u64);
            enc.put_f32(s.block_lambda);
            enc.put_u64(s.geometry.banks as u64);
            enc.put_u64(s.geometry.rows_per_bank as u64);
            enc.put_u64(s.geometry.row_bytes as u64);
            enc.put_f32(s.drift_budget);
            enc.put_u64(s.max_dirty_blocks as u64);
        }
    }
}

fn read_stealth(dec: &mut Decoder<'_>) -> Result<Option<StealthObjective>, DecodeError> {
    match dec.read_u32()? {
        0 => Ok(None),
        1 => {
            let block_params = dec.read_u64()? as usize;
            let block_lambda = dec.read_f32()?;
            let geometry = DramGeometry {
                banks: dec.read_u64()? as usize,
                rows_per_bank: dec.read_u64()? as usize,
                row_bytes: dec.read_u64()? as usize,
            };
            let drift_budget = dec.read_f32()?;
            let max_dirty_blocks = dec.read_u64()? as usize;
            let stealth = StealthObjective {
                block_params,
                block_lambda,
                geometry,
                drift_budget,
                max_dirty_blocks,
            };
            if !stealth.is_valid() {
                return Err(DecodeError::new(
                    SpecError::InvalidStealth { stealth }.to_string(),
                ));
            }
            Ok(Some(stealth))
        }
        v => Err(DecodeError::new(format!("unknown stealth tag {v}"))),
    }
}

fn put_suite_seed(enc: &mut Encoder, suite_seed: &Option<u64>) {
    match suite_seed {
        None => enc.put_u32(0),
        Some(seed) => {
            enc.put_u32(1);
            enc.put_u64(*seed);
        }
    }
}

fn read_suite_seed(dec: &mut Decoder<'_>) -> Result<Option<u64>, DecodeError> {
    match dec.read_u32()? {
        0 => Ok(None),
        1 => Ok(Some(dec.read_u64()?)),
        v => Err(DecodeError::new(format!("unknown suite-seed tag {v}"))),
    }
}

/// Appends a [`CampaignSpec`] payload.
pub fn put_spec(enc: &mut Encoder, spec: &CampaignSpec) {
    put_usize_slice(enc, &spec.s_values);
    put_usize_slice(enc, &spec.k_values);
    enc.put_u64(spec.budgets.len() as u64);
    for b in &spec.budgets {
        put_budget(enc, b);
    }
    enc.put_u64(spec.seeds.len() as u64);
    for &s in &spec.seeds {
        enc.put_u64(s);
    }
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
/// Returns [`DecodeError`] on malformed input, or when a weight breaks
/// the bounds [`read_config`] checks, or a budget's λ, `c_attack` or
/// `c_keep` is not finite and ≥ 0.
pub fn read_spec(dec: &mut Decoder<'_>) -> Result<CampaignSpec, DecodeError> {
    let s_values = read_usize_vec(dec)?;
    let k_values = read_usize_vec(dec)?;
    let nb = dec.read_u64()? as usize;
    let mut budgets = Vec::with_capacity(nb.min(1 << 16));
    for _ in 0..nb {
        budgets.push(read_budget(dec)?);
    }
    let ns = dec.read_u64()? as usize;
    let mut seeds = Vec::with_capacity(ns.min(1 << 16));
    for _ in 0..ns {
        seeds.push(dec.read_u64()?);
    }
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
    enc.put_f32_slice(&r.objective_history);
    enc.put_u64(r.admm_history.len() as u64);
    for st in &r.admm_history {
        enc.put_u64(st.iter as u64);
        enc.put_f32(st.primal_residual);
        enc.put_f32(st.dual_residual);
        enc.put_f32(st.rho);
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
    let objective_history = dec.read_f32_vec()?;
    let nh = dec.read_u64()? as usize;
    let mut admm_history = Vec::with_capacity(nh.min(dec.remaining() / 20));
    for _ in 0..nh {
        admm_history.push(IterStats {
            iter: dec.read_u64()? as usize,
            primal_residual: dec.read_f32()?,
            dual_residual: dec.read_f32()?,
            rho: dec.read_f32()?,
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
        objective_history,
        admm_history,
        converged,
    })
}

/// Appends a [`ScenarioOutcome`] payload.
pub fn put_outcome(enc: &mut Encoder, o: &ScenarioOutcome) {
    put_scenario(enc, &o.scenario);
    put_usize_slice(enc, &o.targets);
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
        targets: read_usize_vec(dec)?,
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
    let mut enc = Encoder::new();
    enc.put_u64(hello.worker_id);
    enc.put_u32(hello.proto_version);
    enc.put_u64(hello.capabilities);
    frame(HELLO_TAG, &enc.into_bytes())
}

/// Decodes a [`HELLO_TAG`] payload into a [`WorkerHello`].
///
/// # Errors
///
/// Returns [`WireError::Hello`] when the registration-protocol version
/// is not [`HELLO_PROTO_VERSION`], or a decode error on malformed
/// payload.
pub fn decode_hello_payload(payload: &[u8]) -> Result<WorkerHello, WireError> {
    let mut dec = Decoder::new(payload);
    let worker_id = dec.read_u64()?;
    let proto_version = dec.read_u32()?;
    let capabilities = dec.read_u64()?;
    check_drained(&dec)?;
    if proto_version != HELLO_PROTO_VERSION {
        return Err(WireError::Hello(proto_version));
    }
    Ok(WorkerHello {
        worker_id,
        proto_version,
        capabilities,
    })
}

/// Decodes a frame written by [`encode_hello_frame`].
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault, a wrong tag, or a refused
/// registration-protocol version.
pub fn decode_hello_frame(bytes: &[u8]) -> Result<WorkerHello, WireError> {
    let mut dec = Decoder::new(bytes);
    let payload = expect_frame(&mut dec, HELLO_TAG)?;
    decode_hello_payload(&payload)
}

/// Encodes a [`Heartbeat`] as a complete checksummed frame.
pub fn encode_heartbeat_frame(beat: &Heartbeat) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(beat.worker_id);
    enc.put_u64(beat.seq);
    frame(HEARTBEAT_TAG, &enc.into_bytes())
}

/// Decodes a [`HEARTBEAT_TAG`] payload into a [`Heartbeat`].
///
/// # Errors
///
/// Returns [`WireError`] on malformed payload.
pub fn decode_heartbeat_payload(payload: &[u8]) -> Result<Heartbeat, WireError> {
    let mut dec = Decoder::new(payload);
    let beat = Heartbeat {
        worker_id: dec.read_u64()?,
        seq: dec.read_u64()?,
    };
    check_drained(&dec)?;
    Ok(beat)
}

/// Decodes a frame written by [`encode_heartbeat_frame`].
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault or a wrong tag.
pub fn decode_heartbeat_frame(bytes: &[u8]) -> Result<Heartbeat, WireError> {
    let mut dec = Decoder::new(bytes);
    let payload = expect_frame(&mut dec, HEARTBEAT_TAG)?;
    decode_heartbeat_payload(&payload)
}

// ---------------------------------------------------------------------
// Incremental frame extraction.
// ---------------------------------------------------------------------

/// Fixed frame-header size: tag (4) ‖ version (4) ‖ payload length (8).
const FRAME_HEADER_BYTES: usize = 16;
/// Trailing checksum size.
const FRAME_TRAILER_BYTES: usize = 8;
/// Upper bound on a sane frame payload (job frames ship whole feature
/// tensors, so this is generous — it only exists to turn a corrupted
/// length word into an immediate error).
const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// Incremental frame extractor for byte streams with arbitrary read
/// fragmentation.
///
/// Links deliver *short reads* — a frame can arrive one byte at a time,
/// split anywhere, including mid-header.
/// The accumulator buffers pushed bytes and yields a frame only once
/// its header, payload, and checksum trailer are all present, verifying
/// version and checksum exactly like [`read_frame`]. The wire version
/// is checked as soon as the first 8 bytes arrive, so version skew is
/// reported eagerly rather than after a never-arriving payload.
#[derive(Debug, Default)]
pub struct FrameAccumulator {
    buf: Vec<u8>,
}

impl FrameAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly-read bytes (any fragmentation, including empty).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed frame.
    pub fn residual(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete frame, if the buffer holds one.
    ///
    /// Returns `Ok(None)` while the next frame is still incomplete.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on version skew (eagerly, once the header's
    /// version word is present) or checksum mismatch. After an error the
    /// accumulator's contents are unspecified; the stream is dead.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() >= 8 {
            let version = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
            if version != WIRE_VERSION {
                return Err(WireError::Version(version));
            }
        }
        if self.buf.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let len = u64::from_le_bytes(self.buf[8..16].try_into().expect("8 bytes")) as usize;
        // A corrupted length word must fail now, not leave the stream
        // waiting forever for bytes that will never come (the checksum
        // can only catch it once the claimed payload has fully arrived).
        if len > MAX_FRAME_PAYLOAD {
            return Err(WireError::Decode(DecodeError::new(format!(
                "absurd frame payload length {len}"
            ))));
        }
        let total = FRAME_HEADER_BYTES + len + FRAME_TRAILER_BYTES;
        if self.buf.len() < total {
            return Ok(None);
        }
        let mut tag = [0u8; 4];
        tag.copy_from_slice(&self.buf[..4]);
        let payload = self.buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len].to_vec();
        let stored = u64::from_le_bytes(
            self.buf[FRAME_HEADER_BYTES + len..total]
                .try_into()
                .expect("8 bytes"),
        );
        let computed = frame_checksum(&tag, &payload);
        if stored != computed {
            return Err(WireError::Checksum { stored, computed });
        }
        self.buf.drain(..total);
        Ok(Some(Frame { tag, payload }))
    }
}

// ---------------------------------------------------------------------
// One-shot framed encoders/decoders.
// ---------------------------------------------------------------------

/// Encodes a [`CampaignSpec`] as a complete checksummed frame.
pub fn encode_spec_frame(spec: &CampaignSpec) -> Vec<u8> {
    let mut enc = Encoder::new();
    put_spec(&mut enc, spec);
    frame(SPEC_TAG, &enc.into_bytes())
}

/// Decodes a frame written by [`encode_spec_frame`].
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault or payload corruption.
pub fn decode_spec_frame(bytes: &[u8]) -> Result<CampaignSpec, WireError> {
    let mut dec = Decoder::new(bytes);
    let payload = expect_frame(&mut dec, SPEC_TAG)?;
    let mut pdec = Decoder::new(&payload);
    let spec = read_spec(&mut pdec)?;
    check_drained(&pdec)?;
    Ok(spec)
}

/// Encodes a [`ScenarioOutcome`] as a complete checksummed frame.
pub fn encode_outcome_frame(o: &ScenarioOutcome) -> Vec<u8> {
    let mut enc = Encoder::new();
    put_outcome(&mut enc, o);
    frame(OUTCOME_TAG, &enc.into_bytes())
}

/// Decodes a frame written by [`encode_outcome_frame`].
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault or payload corruption.
pub fn decode_outcome_frame(bytes: &[u8]) -> Result<ScenarioOutcome, WireError> {
    let mut dec = Decoder::new(bytes);
    let payload = expect_frame(&mut dec, OUTCOME_TAG)?;
    let mut pdec = Decoder::new(&payload);
    let o = read_outcome(&mut pdec)?;
    check_drained(&pdec)?;
    Ok(o)
}

/// Encodes a whole [`CampaignReport`] as a complete checksummed frame.
pub fn encode_report_frame(report: &CampaignReport) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_str(&report.method);
    put_precision(&mut enc, report.precision);
    put_stealth(&mut enc, &report.stealth);
    put_suite_seed(&mut enc, &report.suite_seed);
    enc.put_u64(report.outcomes.len() as u64);
    for o in &report.outcomes {
        put_outcome(&mut enc, o);
    }
    frame(REPORT_TAG, &enc.into_bytes())
}

/// Decodes a frame written by [`encode_report_frame`].
///
/// # Errors
///
/// Returns [`WireError`] on any frame fault or payload corruption.
pub fn decode_report_frame(bytes: &[u8]) -> Result<CampaignReport, WireError> {
    let mut dec = Decoder::new(bytes);
    let payload = expect_frame(&mut dec, REPORT_TAG)?;
    let mut pdec = Decoder::new(&payload);
    let method = pdec.read_str()?;
    let precision = read_precision(&mut pdec)?;
    let stealth = read_stealth(&mut pdec)?;
    let suite_seed = read_suite_seed(&mut pdec)?;
    let n = pdec.read_u64()? as usize;
    let mut outcomes = Vec::with_capacity(n.min(pdec.remaining() / 64));
    for _ in 0..n {
        outcomes.push(read_outcome(&mut pdec)?);
    }
    check_drained(&pdec)?;
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
    let mut enc = Encoder::new();
    enc.put_u64(count);
    frame(END_TAG, &enc.into_bytes())
}

/// Decodes an [`END_TAG`] payload into its outcome count.
///
/// # Errors
///
/// Returns [`WireError`] on malformed payload.
pub fn decode_end_payload(payload: &[u8]) -> Result<u64, WireError> {
    let mut dec = Decoder::new(payload);
    let count = dec.read_u64()?;
    check_drained(&dec)?;
    Ok(count)
}

/// Rejects trailing garbage after a fully-decoded payload.
fn check_drained(dec: &Decoder<'_>) -> Result<(), WireError> {
    if dec.remaining() != 0 {
        return Err(WireError::Decode(DecodeError::new(format!(
            "{} trailing bytes after payload",
            dec.remaining()
        ))));
    }
    Ok(())
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
                objective_history: vec![9.0, 1.0, 0.25],
                admm_history: vec![IterStats {
                    iter: 0,
                    primal_residual: 0.5,
                    dual_residual: 0.25,
                    rho: 5.0,
                }],
                converged: true,
            },
        }
    }

    #[test]
    fn spec_frame_roundtrip() {
        let spec = small_spec();
        let bytes = encode_spec_frame(&spec);
        assert_eq!(decode_spec_frame(&bytes).unwrap(), spec);
    }

    #[test]
    fn outcome_frame_roundtrip() {
        let o = small_outcome();
        let bytes = encode_outcome_frame(&o);
        assert_eq!(decode_outcome_frame(&bytes).unwrap(), o);
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
                decode_outcome_frame(&bytes[..cut]).is_err(),
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
        match decode_outcome_frame(&corrupt) {
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
            decode_spec_frame(&bytes),
            Err(WireError::Version(_))
        ));
    }

    #[test]
    fn end_frame_roundtrip() {
        let bytes = encode_end_frame(42);
        let mut dec = Decoder::new(&bytes);
        let f = read_frame(&mut dec).unwrap();
        assert_eq!(&f.tag, END_TAG);
        assert_eq!(decode_end_payload(&f.payload).unwrap(), 42);
    }

    #[test]
    fn hello_frame_roundtrip() {
        let hello = WorkerHello::current(7);
        assert_eq!(hello.proto_version, HELLO_PROTO_VERSION);
        assert_ne!(hello.capabilities & CAP_HEARTBEAT, 0);
        assert_ne!(hello.capabilities & CAP_SHARD_JOBS, 0);
        let bytes = encode_hello_frame(&hello);
        assert_eq!(decode_hello_frame(&bytes).unwrap(), hello);
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
        match decode_hello_frame(&bytes) {
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
        assert_eq!(decode_heartbeat_frame(&bytes).unwrap(), beat);
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
        assert_eq!(
            decode_hello_payload(&frames[0].payload).unwrap(),
            WorkerHello::current(0)
        );
        let mut p = Decoder::new(&frames[2].payload);
        assert_eq!(read_outcome(&mut p).unwrap(), small_outcome());
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
