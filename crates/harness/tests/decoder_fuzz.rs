//! Seeded structural fuzzing of every harness and wire decoder.
//!
//! Purely random payloads are useless here: they fail the first tag or
//! version check and never reach the length, count, rank, and dim
//! fields where the interesting bugs live. Instead each test starts
//! from *valid* payloads, overwrites their integer fields with hostile
//! values (zero, off-by-one, huge, sign-bit, overflowing), truncates
//! and extends them, and re-frames every mutant with a correct
//! checksum, so it reaches the payload decoders. Every input must end
//! as `Ok` or a classified `Err` — never a panic.

use fsa_attack::campaign::wire::{self, Frame, Heartbeat, WorkerHello};
use fsa_attack::campaign::{Campaign, CampaignReport, CampaignSpec, SparsityBudget};
use fsa_attack::solver::AttackConfig;
use fsa_attack::{FsaMethod, ParamSelection};
use fsa_harness::proto::{ShardJob, StreamParser, JOB_TAG};
use fsa_nn::feature_cache::FeatureCache;
use fsa_nn::head::FcHead;
use fsa_tensor::{Prng, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A tiny victim, its job, and a two-scenario report.
fn fixture() -> (ShardJob, CampaignReport) {
    let mut rng = Prng::new(0xF022);
    let head = FcHead::from_dims(&[4, 6, 3], &mut rng);
    let pool = Tensor::randn(&[6, 4], 1.0, &mut rng);
    let labels = head.predict(&pool);
    let spec = CampaignSpec::grid(vec![1], vec![1, 2])
        .with_budgets(vec![SparsityBudget::l0(0.001)])
        .with_config(AttackConfig {
            iterations: 4,
            ..AttackConfig::default()
        });
    let selection = ParamSelection::last_layer(&head);
    let campaign = Campaign::new(
        &head,
        selection.clone(),
        FeatureCache::from_features(pool.clone()),
        labels.clone(),
    );
    let report = campaign.run_method(&spec, &FsaMethod);
    let job = ShardJob {
        head,
        selection,
        labels,
        features: pool,
        spec,
        method: "fsa".into(),
        indices: vec![0, 1],
    };
    (job, report)
}

/// Splits a whole frame into its tag and payload.
fn unframe(bytes: &[u8]) -> Frame {
    let mut acc = wire::FrameAccumulator::new();
    acc.push(bytes);
    acc.next_frame()
        .expect("valid frame")
        .expect("complete frame")
}

/// Hostile replacements for an integer field whose current value is
/// `orig`.
fn hostile(orig: u64) -> [u64; 12] {
    [
        0,
        1,
        orig.wrapping_add(1),
        orig.wrapping_sub(1),
        orig.wrapping_mul(2),
        orig / 2,
        9,
        1 << 31,
        u64::from(u32::MAX),
        1 << 32,
        1 << 63,
        u64::MAX,
    ]
}

/// Every structural mutant of `payload`: each 4- and 8-byte window
/// (every offset, so every length, count, rank, and dim field is hit
/// whatever the layout) overwritten with each hostile value, plus
/// seeded truncations and extensions.
fn mutants(payload: &[u8], rng: &mut Prng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for width in [4usize, 8] {
        for at in 0..payload.len().saturating_sub(width - 1) {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&payload[at..at + width]);
            for v in hostile(u64::from_le_bytes(word)) {
                let mut m = payload.to_vec();
                m[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                out.push(m);
            }
        }
    }
    for _ in 0..32 {
        out.push(payload[..rng.below(payload.len() + 1)].to_vec());
        let mut longer = payload.to_vec();
        longer.extend((0..1 + rng.below(16)).map(|_| rng.below(256) as u8));
        out.push(longer);
    }
    out
}

/// Runs `decode` on every checksum-valid re-framing of every mutant of
/// `frame`'s payload and fails on any panic, naming the first few.
fn fuzz(name: &str, frame: &[u8], seed: u64, decode: impl Fn(&[u8])) {
    let Frame { tag, payload } = unframe(frame);
    let mut rng = Prng::new(seed);
    let mutants = mutants(&payload, &mut rng);
    let mut panics = Vec::new();
    for (i, m) in mutants.iter().enumerate() {
        let bytes = wire::frame(&tag, m);
        if catch_unwind(AssertUnwindSafe(|| decode(&bytes))).is_err() {
            panics.push(i);
        }
    }
    assert!(
        panics.is_empty(),
        "{name}: {} of {} mutants panicked (first: {:?})",
        panics.len(),
        mutants.len(),
        &panics[..panics.len().min(8)]
    );
}

#[test]
fn shard_job_decoders_never_panic() {
    let (job, _) = fixture();
    let bytes = job.encode();
    fuzz("ShardJob::decode", &bytes, 1, |b| {
        let _ = ShardJob::decode(b);
    });
    fuzz("Frame::decode(ShardJob::read)", &bytes, 2, |b| {
        let _ = unframe(b).decode(JOB_TAG, ShardJob::read);
    });
}

#[test]
fn wire_frame_decoders_never_panic() {
    let (job, report) = fixture();
    fuzz(
        "decode_frame(read_spec)",
        &wire::encode_spec_frame(&job.spec),
        3,
        |b| {
            let _ = wire::decode_frame(b, wire::SPEC_TAG, wire::read_spec);
        },
    );
    let outcome = wire::encode_outcome_frame(&report.outcomes[0]);
    fuzz("decode_frame(read_outcome)", &outcome, 4, |b| {
        let _ = wire::decode_frame(b, wire::OUTCOME_TAG, wire::read_outcome);
    });
    fuzz(
        "decode_report_frame",
        &wire::encode_report_frame(&report),
        5,
        |b| {
            let _ = wire::decode_report_frame(b);
        },
    );
    // The worker-stream kinds decode through `Frame::message`.
    let hello = wire::encode_hello_frame(&WorkerHello::current(3));
    let beat = wire::encode_heartbeat_frame(&Heartbeat {
        worker_id: 3,
        seq: 9,
    });
    let end = wire::encode_end_frame(2);
    for (seed, (name, frame)) in [
        ("hello", hello),
        ("heartbeat", beat),
        ("end", end),
        ("outcome", outcome),
    ]
    .into_iter()
    .enumerate()
    {
        fuzz(name, &frame, 6 + seed as u64, |b| {
            let _ = unframe(b).message();
        });
    }
}

/// Each frame kind of a worker stream, mutated in place inside an
/// otherwise valid hello → outcomes/heartbeat → END stream, through
/// both `push` and `finish`.
#[test]
fn stream_parser_never_panics() {
    let (_, report) = fixture();
    let hello = wire::encode_hello_frame(&WorkerHello::current(0));
    let first = wire::encode_outcome_frame(&report.outcomes[0]);
    let second = wire::encode_outcome_frame(&report.outcomes[1]);
    let beat = wire::encode_heartbeat_frame(&Heartbeat {
        worker_id: 0,
        seq: 0,
    });
    let end = wire::encode_end_frame(2);
    let slots = [&hello, &first, &beat, &second, &end];
    for (slot, frame) in slots.iter().enumerate() {
        fuzz("StreamParser", frame, 10 + slot as u64, |b| {
            let mut stream = Vec::new();
            for (i, f) in slots.iter().enumerate() {
                stream.extend_from_slice(if i == slot { b } else { f });
            }
            let mut parser = StreamParser::new(&[0, 1]);
            if parser.push(&stream).is_ok() {
                let _ = parser.finish();
            }
        });
    }
}
