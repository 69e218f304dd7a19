//! Pins the exact bytes of every worker-link frame kind.
//!
//! The sharded executor relies on supervisor and worker agreeing on
//! every byte of a frame, and `WIRE_VERSION` promises that no payload
//! layout moves without a version bump. This test encodes one fixed
//! fixture per frame kind (spec, outcome, report, end, hello,
//! heartbeat, shard job) and compares an FNV-1a digest of each encoding
//! against a recorded constant, so a codec rewrite that moves a single
//! byte fails here. The constants move only with a `WIRE_VERSION` bump;
//! the failure message prints the new digests.

use fault_sneaking::attack::campaign::wire::{
    encode_end_frame, encode_heartbeat_frame, encode_hello_frame, encode_outcome_frame,
    encode_report_frame, encode_spec_frame, Heartbeat, WorkerHello, WIRE_VERSION,
};
use fault_sneaking::attack::campaign::{
    CampaignReport, CampaignSpec, Scenario, ScenarioOutcome, SparsityBudget,
};
use fault_sneaking::attack::{
    AttackConfig, AttackResult, IterStats, Norm, ParamSelection, Precision, StealthObjective,
};
use fault_sneaking::harness::proto::ShardJob;
use fault_sneaking::memfault::dram::DramGeometry;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::hash::Fnv1a;
use fault_sneaking::tensor::{Prng, Tensor};

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

fn spec() -> CampaignSpec {
    CampaignSpec::grid(vec![1, 3], vec![0, 2, 5])
        .with_budgets(vec![SparsityBudget::l0(0.001), SparsityBudget::l2(0.02)])
        .with_seeds(vec![7, u64::MAX - 1])
        .with_config(AttackConfig {
            norm: Norm::L2,
            rho: 4.5,
            lambda: 0.002,
            iterations: 123,
            kappa: 0.75,
            refine: Some(9),
        })
        .with_weights(12.0, 0.5)
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
        .with_suite_seed(Some(0xA0D1_7EED))
}

fn outcome(index: usize) -> ScenarioOutcome {
    ScenarioOutcome {
        scenario: Scenario {
            index,
            s: 2,
            k: 4,
            budget: SparsityBudget::l2(0.25),
            seed: 11,
        },
        targets: vec![1, 0],
        result: AttackResult {
            delta: vec![0.0, -1.5, f32::MIN_POSITIVE, 3.25, -0.0],
            l0: 3,
            l2: 3.6,
            s_success: 2,
            s_total: 2,
            keep_unchanged: 3,
            keep_total: 4,
            admm_history: vec![
                IterStats {
                    objective: 9.0,
                    primal_residual: 0.5,
                    dual_residual: 0.25,
                },
                IterStats {
                    objective: 1.0,
                    primal_residual: 0.125,
                    dual_residual: 0.0625,
                },
            ],
            converged: index.is_multiple_of(2),
        },
    }
}

fn job() -> ShardJob {
    let mut rng = Prng::new(0xD1_6E57);
    let head = FcHead::from_dims(&[4, 6, 3], &mut rng);
    ShardJob {
        selection: ParamSelection::last_layer(&head),
        head,
        labels: vec![0, 2, 1, 1, 0],
        features: Tensor::randn(&[5, 4], 1.0, &mut rng),
        spec: spec(),
        method: "fsa".into(),
        indices: vec![0, 3, 4],
    }
}

#[test]
fn every_frame_kind_encodes_to_its_recorded_digest() {
    const RECORDED: [u64; 7] = [
        0x13b449447c7261b8,
        0xdcb190856659b743,
        0x8a2cc30c8080872a,
        0x27b4c1199bf1c527,
        0xb8dbc08eb7b8b6b0,
        0x51ab4e107d15a121,
        0x03ba75705236c2fb,
    ];
    assert_eq!(WIRE_VERSION, 6);
    let report = CampaignReport {
        method: "sba".into(),
        precision: Precision::F32,
        stealth: spec().stealth,
        suite_seed: Some(3),
        outcomes: vec![outcome(0), outcome(1)],
    };
    let frames = [
        encode_spec_frame(&spec()),
        encode_outcome_frame(&outcome(7)),
        encode_report_frame(&report),
        encode_end_frame(42),
        encode_hello_frame(&WorkerHello::current(5)),
        encode_heartbeat_frame(&Heartbeat {
            worker_id: 5,
            seq: 1 << 40,
        }),
        job().encode(),
    ];
    let got: Vec<u64> = frames.iter().map(|f| digest(f)).collect();
    let rendered: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(got, RECORDED, "digests now: [{}]", rendered.join(", "));
}
