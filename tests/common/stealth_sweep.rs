//! The seed-2027 detector-aware sweep that `golden_stealth` pins and
//! `golden_codefense` scores under the re-armed suite.

use crate::common::{clustered, train};
use fault_sneaking::attack::campaign::CampaignSpec;
use fault_sneaking::attack::{AttackConfig, StealthObjective};
use fault_sneaking::memfault::DramGeometry;
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::tensor::{Prng, Tensor};

pub fn geometry() -> DramGeometry {
    DramGeometry {
        banks: 2,
        rows_per_bank: 512,
        row_bytes: 64,
    }
}

pub fn objective() -> StealthObjective {
    StealthObjective::new(16, 0.5, geometry(), 0.75).with_block_cap(3)
}

/// The 12→24→3 victim trained on 120 clustered points, with those
/// points and the generator, whose next draws are `golden_codefense`'s
/// probe set.
pub fn victim() -> (FcHead, Tensor, Vec<usize>, Prng) {
    let mut rng = Prng::new(2027);
    let (features, labels) = clustered(120, 12, 3, 2.0, 0.4, &mut rng);
    let head = train(&[12, 24, 3], &features, &labels, 30, &mut rng);
    (head, features, labels, rng)
}

/// The same 2×2 grid as the f32/int8 golden campaigns (S ∈ {1, 2} ×
/// K ∈ {4, 8}, seed 2027), under [`objective`].
pub fn sweep() -> CampaignSpec {
    CampaignSpec::grid(vec![1, 2], vec![4, 8])
        .with_seeds(vec![2027])
        .with_config(AttackConfig {
            iterations: 200,
            ..AttackConfig::default()
        })
        .with_stealth(Some(objective()))
}
