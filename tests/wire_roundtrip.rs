//! Property battery for the campaign wire format
//! (`fsa_attack::campaign::wire`): seeded random shapes must round-trip
//! bit-exactly, and *every* single-byte truncation and *any* bit flip
//! must be rejected — truncations structurally, flips by the frame
//! checksum. This is the integrity contract the sharded executor's
//! corrupt-frame classification rests on.

use fault_sneaking::attack::campaign::wire::{
    decode_frame, decode_report_frame, encode_heartbeat_frame, encode_hello_frame,
    encode_outcome_frame, encode_report_frame, encode_spec_frame, read_outcome, read_spec,
    FrameAccumulator, Heartbeat, WireError, WorkerHello, WorkerMessage, HELLO_PROTO_VERSION,
    OUTCOME_TAG, SPEC_TAG,
};
use fault_sneaking::attack::campaign::{
    CampaignReport, CampaignSpec, Scenario, ScenarioOutcome, SparsityBudget,
};
use fault_sneaking::attack::{
    AttackConfig, AttackResult, IterStats, Norm, Precision, StealthObjective,
};
use fault_sneaking::memfault::dram::DramGeometry;
use fault_sneaking::tensor::io::DecodeError;
use fault_sneaking::tensor::Prng;

fn decode_spec_frame(bytes: &[u8]) -> Result<CampaignSpec, WireError> {
    decode_frame(bytes, SPEC_TAG, read_spec)
}

fn decode_outcome_frame(bytes: &[u8]) -> Result<ScenarioOutcome, WireError> {
    decode_frame(bytes, OUTCOME_TAG, read_outcome)
}

/// Decodes `bytes` as exactly one frame of a worker's result stream,
/// through the accumulator and `Frame::message` the supervisor uses.
fn decode_message(bytes: &[u8]) -> Result<WorkerMessage, WireError> {
    let mut acc = FrameAccumulator::new();
    acc.push(bytes);
    match acc.next_frame()? {
        Some(frame) if acc.residual() == 0 => frame.message(),
        _ => Err(WireError::Decode(DecodeError::new(
            "not exactly one whole frame",
        ))),
    }
}

fn random_stealth(rng: &mut Prng) -> Option<StealthObjective> {
    rng.bernoulli(0.4).then(|| {
        StealthObjective::new(
            1 + rng.below(256),
            rng.uniform(0.0, 2.0),
            DramGeometry {
                banks: 1 + rng.below(8),
                rows_per_bank: 1 + rng.below(4096),
                row_bytes: 64 << rng.below(4),
            },
            rng.uniform(0.0, 1.0),
        )
        .with_block_cap(rng.below(12))
    })
}

fn random_config(rng: &mut Prng) -> AttackConfig {
    AttackConfig {
        norm: if rng.bernoulli(0.5) {
            Norm::L0
        } else {
            Norm::L2
        },
        rho: rng.uniform(0.1, 10.0),
        lambda: rng.uniform(1e-4, 1e-1),
        iterations: 1 + rng.below(600),
        kappa: rng.uniform(0.0, 2.0),
        refine: rng.bernoulli(0.5).then(|| 1 + rng.below(50)),
    }
}

fn random_spec(rng: &mut Prng) -> CampaignSpec {
    let draw_list = |rng: &mut Prng, max_len: usize, max_v: usize| -> Vec<usize> {
        (0..1 + rng.below(max_len))
            .map(|_| rng.below(max_v))
            .collect()
    };
    let budgets: Vec<SparsityBudget> = (0..1 + rng.below(3))
        .map(|_| {
            if rng.bernoulli(0.5) {
                SparsityBudget::l0(rng.uniform(1e-4, 1e-1))
            } else {
                SparsityBudget::l2(rng.uniform(1e-4, 1e-1))
            }
        })
        .collect();
    let seeds: Vec<u64> = (0..1 + rng.below(3)).map(|_| rng.next_u64()).collect();
    let mut spec = CampaignSpec::grid(draw_list(rng, 3, 8), draw_list(rng, 4, 16))
        .with_budgets(budgets)
        .with_seeds(seeds)
        .with_config(random_config(rng))
        .with_weights(rng.uniform(1.0, 20.0), rng.uniform(0.1, 2.0));
    if rng.bernoulli(0.3) {
        spec = spec.with_precision(Precision::Int8);
    }
    spec = spec.with_stealth(random_stealth(rng));
    spec.with_suite_seed(rng.bernoulli(0.4).then(|| rng.next_u64()))
}

fn random_outcome(rng: &mut Prng, index: usize) -> ScenarioOutcome {
    let dim = 1 + rng.below(24);
    let delta: Vec<f32> = (0..dim)
        .map(|_| {
            if rng.bernoulli(0.5) {
                0.0
            } else {
                rng.uniform(-1.0, 1.0)
            }
        })
        .collect();
    let s_total = 1 + rng.below(4);
    let keep_total = rng.below(16);
    let admm_history: Vec<IterStats> = (0..rng.below(8))
        .map(|_| IterStats {
            objective: rng.uniform(0.0, 50.0),
            primal_residual: rng.uniform(0.0, 1.0),
            dual_residual: rng.uniform(0.0, 1.0),
        })
        .collect();
    ScenarioOutcome {
        scenario: Scenario {
            index,
            s: s_total,
            k: keep_total,
            budget: if rng.bernoulli(0.5) {
                SparsityBudget::l0(rng.uniform(1e-4, 1e-1))
            } else {
                SparsityBudget::l2(rng.uniform(1e-4, 1e-1))
            },
            seed: rng.next_u64(),
        },
        targets: (0..s_total).map(|_| rng.below(10)).collect(),
        result: AttackResult {
            l0: delta.iter().filter(|&&v| v != 0.0).count(),
            l2: delta.iter().map(|v| v * v).sum::<f32>().sqrt(),
            delta,
            s_success: rng.below(s_total + 1),
            s_total,
            keep_unchanged: rng.below(keep_total + 1),
            keep_total,
            admm_history,
            converged: rng.bernoulli(0.5),
        },
    }
}

fn random_report(rng: &mut Prng) -> CampaignReport {
    let n = 1 + rng.below(6);
    CampaignReport {
        method: ["fsa", "sba", "gda"][rng.below(3)].to_string(),
        precision: if rng.bernoulli(0.3) {
            Precision::Int8
        } else {
            Precision::F32
        },
        stealth: random_stealth(rng),
        suite_seed: rng.bernoulli(0.4).then(|| rng.next_u64()),
        outcomes: (0..n).map(|i| random_outcome(rng, i)).collect(),
    }
}

#[test]
fn spec_frames_roundtrip_over_seeded_shapes() {
    let mut rng = Prng::new(0x51EC);
    for _ in 0..50 {
        let spec = random_spec(&mut rng);
        let bytes = encode_spec_frame(&spec);
        let back = decode_spec_frame(&bytes).expect("clean frame must decode");
        assert_eq!(back, spec);
        // Re-encoding is byte-stable (canonical encoding).
        assert_eq!(encode_spec_frame(&back), bytes);
    }
}

#[test]
fn outcome_frames_roundtrip_over_seeded_shapes() {
    let mut rng = Prng::new(0x00C0);
    for i in 0..50 {
        let o = random_outcome(&mut rng, i);
        let bytes = encode_outcome_frame(&o);
        let back = decode_outcome_frame(&bytes).expect("clean frame must decode");
        assert_eq!(back, o);
        assert_eq!(encode_outcome_frame(&back), bytes);
    }
}

#[test]
fn report_frames_roundtrip_and_preserve_the_fingerprint() {
    let mut rng = Prng::new(0x9e37);
    for _ in 0..20 {
        let report = random_report(&mut rng);
        let bytes = encode_report_frame(&report);
        let back = decode_report_frame(&bytes).expect("clean frame must decode");
        assert_eq!(back, report);
        assert_eq!(
            back.fingerprint(),
            report.fingerprint(),
            "decode must preserve the FNV fingerprint bit-for-bit"
        );
    }
}

#[test]
fn every_truncation_of_a_spec_frame_is_rejected() {
    let mut rng = Prng::new(1);
    let bytes = encode_spec_frame(&random_spec(&mut rng));
    for cut in 0..bytes.len() {
        assert!(
            decode_spec_frame(&bytes[..cut]).is_err(),
            "prefix of length {cut}/{} decoded",
            bytes.len()
        );
    }
}

#[test]
fn every_truncation_of_an_outcome_frame_is_rejected() {
    let mut rng = Prng::new(2);
    let bytes = encode_outcome_frame(&random_outcome(&mut rng, 0));
    for cut in 0..bytes.len() {
        assert!(
            decode_outcome_frame(&bytes[..cut]).is_err(),
            "prefix of length {cut}/{} decoded",
            bytes.len()
        );
    }
}

#[test]
fn every_truncation_of_a_report_frame_is_rejected() {
    let mut rng = Prng::new(3);
    let bytes = encode_report_frame(&random_report(&mut rng));
    // Report frames run long; scan every cut below 256 and then sampled
    // cuts across the rest.
    let mut cuts: Vec<usize> = (0..bytes.len().min(256)).collect();
    let mut r = Prng::new(4);
    cuts.extend((0..256).map(|_| r.below(bytes.len())));
    for cut in cuts {
        assert!(
            decode_report_frame(&bytes[..cut]).is_err(),
            "prefix of length {cut}/{} decoded",
            bytes.len()
        );
    }
}

// ── wire v4: registration and liveness frames ───────────────────────

fn random_hello(rng: &mut Prng) -> WorkerHello {
    WorkerHello {
        worker_id: rng.next_u64(),
        proto_version: HELLO_PROTO_VERSION,
        capabilities: rng.next_u64(),
    }
}

fn random_heartbeat(rng: &mut Prng) -> Heartbeat {
    Heartbeat {
        worker_id: rng.next_u64(),
        seq: rng.next_u64(),
    }
}

#[test]
fn hello_and_heartbeat_frames_roundtrip_over_seeded_shapes() {
    let mut rng = Prng::new(0x4E11);
    for _ in 0..100 {
        let hello = random_hello(&mut rng);
        let bytes = encode_hello_frame(&hello);
        let Ok(WorkerMessage::Hello(back)) = decode_message(&bytes) else {
            panic!("clean hello must decode");
        };
        assert_eq!(back, hello);
        assert_eq!(encode_hello_frame(&back), bytes);

        let beat = random_heartbeat(&mut rng);
        let bytes = encode_heartbeat_frame(&beat);
        let Ok(WorkerMessage::Heartbeat(back)) = decode_message(&bytes) else {
            panic!("clean heartbeat must decode");
        };
        assert_eq!(back, beat);
        assert_eq!(encode_heartbeat_frame(&back), bytes);
    }
}

#[test]
fn every_truncation_of_hello_and_heartbeat_frames_is_rejected() {
    let mut rng = Prng::new(0x7A11);
    let hello = encode_hello_frame(&random_hello(&mut rng));
    for cut in 0..hello.len() {
        assert!(
            decode_message(&hello[..cut]).is_err(),
            "hello prefix of length {cut}/{} decoded",
            hello.len()
        );
    }
    let beat = encode_heartbeat_frame(&random_heartbeat(&mut rng));
    for cut in 0..beat.len() {
        assert!(
            decode_message(&beat[..cut]).is_err(),
            "heartbeat prefix of length {cut}/{} decoded",
            beat.len()
        );
    }
}

#[test]
fn seeded_bit_flips_in_hello_and_heartbeat_frames_are_rejected() {
    let mut rng = Prng::new(0xB1F1);
    for trial in 0..200 {
        let bytes = if trial % 2 == 0 {
            encode_hello_frame(&random_hello(&mut rng))
        } else {
            encode_heartbeat_frame(&random_heartbeat(&mut rng))
        };
        let mut corrupt = bytes.clone();
        let byte = rng.below(corrupt.len());
        let bit = rng.below(8) as u8;
        corrupt[byte] ^= 1 << bit;
        let rejected = decode_message(&corrupt).is_err();
        assert!(
            rejected,
            "flip of bit {bit} in byte {byte}/{} went undetected",
            corrupt.len()
        );
    }
}

#[test]
fn wrong_protocol_version_hello_is_refused_with_a_classified_error() {
    let mut rng = Prng::new(0x0BAD);
    for _ in 0..20 {
        let mut hello = random_hello(&mut rng);
        hello.proto_version = loop {
            let v = rng.next_u64() as u32;
            if v != HELLO_PROTO_VERSION {
                break v;
            }
        };
        // The frame itself is well-formed and checksum-clean — the
        // refusal must come from the registration layer, classified as
        // WireError::Hello carrying the offered version, not as a
        // generic decode failure.
        match decode_message(&encode_hello_frame(&hello)) {
            Err(WireError::Hello(v)) => {
                assert_eq!(v, hello.proto_version);
                let msg = WireError::Hello(v).to_string();
                assert!(
                    msg.contains("registration refused"),
                    "refusal message lost its classification: {msg}"
                );
            }
            other => panic!("expected a classified hello refusal, got {other:?}"),
        }
    }
}

#[test]
fn seeded_bit_flips_are_rejected_by_the_checksum() {
    let mut rng = Prng::new(0xF11);
    for trial in 0..200 {
        let bytes = if trial % 2 == 0 {
            encode_outcome_frame(&random_outcome(&mut rng, trial))
        } else {
            encode_spec_frame(&random_spec(&mut rng))
        };
        let mut corrupt = bytes.clone();
        let byte = rng.below(corrupt.len());
        let bit = rng.below(8) as u8;
        corrupt[byte] ^= 1 << bit;
        let rejected = if trial % 2 == 0 {
            decode_outcome_frame(&corrupt).is_err()
        } else {
            decode_spec_frame(&corrupt).is_err()
        };
        assert!(
            rejected,
            "flip of bit {bit} in byte {byte}/{} went undetected",
            corrupt.len()
        );
    }
}
