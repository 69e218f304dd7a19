//! The shared experiment pipeline: datasets → features → trained head,
//! cached on disk.
//!
//! The attack only ever modifies FC-head parameters (as in the paper's
//! Sec. 5.1), so the conv stack acts as a fixed feature map; features are
//! extracted once per dataset and reused by every table/figure binary.
//! See `ARCHITECTURE.md` for the substitution rationale.

use fsa_attack::AttackSpec;
use fsa_data::dataset::{Dataset, Synthesizer};
use fsa_data::{SynthDigits, SynthObjects};
use fsa_nn::cw::{CwConfig, CwModel};
use fsa_nn::head::FcHead;
use fsa_nn::head_train::{train_head, HeadTrainConfig};
use fsa_tensor::io::{read_file, write_file, DecodeError, Decoder, Encoder};
use fsa_tensor::{Prng, Tensor};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Which victim dataset/model pair to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// MNIST-like synthetic digits (high-accuracy victim, ≈99.5%).
    Digits,
    /// CIFAR-like synthetic objects (moderate-accuracy victim, ≈80%).
    Objects,
}

impl Kind {
    /// Short name used in file paths and table headers.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Digits => "digits",
            Kind::Objects => "objects",
        }
    }

    /// The paper dataset this stands in for.
    pub fn stands_for(&self) -> &'static str {
        match self {
            Kind::Digits => "MNIST",
            Kind::Objects => "CIFAR-10",
        }
    }

    fn cw_config(&self) -> CwConfig {
        match self {
            Kind::Digits => CwConfig::mnist(),
            Kind::Objects => CwConfig::cifar(),
        }
    }

    fn synthesizer(&self) -> Box<dyn Synthesizer> {
        match self {
            Kind::Digits => Box::new(SynthDigits::default()),
            Kind::Objects => Box::new(SynthObjects::default()),
        }
    }
}

/// Sizes of the artifact splits.
const TRAIN_N: usize = 4000;
const TEST_N: usize = 2000;
const POOL_N: usize = 1500;
/// Master seed for artifact construction.
const SEED: u64 = 0x000D_AC19;
/// Artifact format version (bump to invalidate caches).
const VERSION: u32 = 3;

/// A victim model with cached features for the test set and the attack
/// pool.
#[derive(Debug)]
pub struct Artifacts {
    /// Which dataset pair this is.
    pub kind: Kind,
    /// The trained victim (random frozen conv stack + trained FC head).
    pub model: CwModel,
    /// `[TEST_N, feature_dim]` conv features of the held-out test set.
    pub test_features: Tensor,
    /// Test labels.
    pub test_labels: Vec<usize>,
    /// `[POOL_N, feature_dim]` conv features of the attack pool — the
    /// images the adversary works with (disjoint from train and test).
    pub pool_features: Tensor,
    /// Pool labels.
    pub pool_labels: Vec<usize>,
    /// Pool indices the victim classifies correctly (the paper implicitly
    /// attacks correctly-classified images).
    pub pool_correct: Vec<usize>,
    /// Victim test accuracy (the paper's "original model" accuracy row).
    pub baseline_accuracy: f32,
    /// Lazily cached truncated test activations per start layer.
    test_acts: Mutex<HashMap<usize, Tensor>>,
}

impl Artifacts {
    /// Loads cached artifacts or builds (and caches) them.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure or if the victim fails to train to a sane
    /// accuracy — both indicate a broken environment rather than a
    /// recoverable condition for the experiment binaries.
    pub fn load_or_build(kind: Kind) -> Artifacts {
        let path = artifact_path(kind);
        if let Ok(bytes) = read_file(&path) {
            match Self::decode(kind, &bytes) {
                Ok(a) => return a,
                Err(e) => eprintln!(
                    "[artifacts] cache {} invalid ({e}); rebuilding",
                    path.display()
                ),
            }
        }
        let mut built = Self::build(kind);
        let mut enc = Encoder::new();
        built.encode(&mut enc);
        write_file(&path, &enc.into_bytes()).expect("failed to write artifact cache");
        built
    }

    /// Builds artifacts from scratch (synthesize → extract → train).
    pub fn build(kind: Kind) -> Artifacts {
        let t0 = Instant::now();
        eprintln!(
            "[artifacts] building {} victim (first run only)...",
            kind.name()
        );
        let gen = kind.synthesizer();
        let mut rng = Prng::new(SEED);
        let (train, test) = gen.train_test(TRAIN_N, TEST_N, SEED);
        let pool: Dataset = gen.generate(POOL_N, SEED ^ 0x706f_6f6c);

        let mut model = CwModel::new_random(kind.cw_config(), &mut rng);
        let train_features = model.extract_features(&train.images);
        let test_features = model.extract_features(&test.images);
        let pool_features = model.extract_features(&pool.images);

        let cfg = HeadTrainConfig {
            epochs: 18,
            batch_size: 64,
            lr: 1e-3,
            verbose: false,
        };
        let mut head = model.head.clone();
        train_head(&mut head, &train_features, &train.labels, &cfg, &mut rng);
        model.head = head;

        let baseline_accuracy = model.head.accuracy(&test_features, &test.labels);
        assert!(
            baseline_accuracy > 0.5,
            "victim failed to train ({} accuracy {baseline_accuracy})",
            kind.name()
        );
        let preds = model.head.predict(&pool_features);
        let pool_correct: Vec<usize> = (0..POOL_N)
            .filter(|&i| preds[i] == pool.labels[i])
            .collect();
        eprintln!(
            "[artifacts] {} ready in {:.1}s: test acc {:.4}, pool {} usable",
            kind.name(),
            t0.elapsed().as_secs_f64(),
            baseline_accuracy,
            pool_correct.len()
        );

        Artifacts {
            kind,
            model,
            test_features,
            test_labels: test.labels,
            pool_features,
            pool_labels: pool.labels,
            pool_correct,
            baseline_accuracy,
            test_acts: Mutex::new(HashMap::new()),
        }
    }

    /// The trained victim head.
    pub fn head(&self) -> &FcHead {
        &self.model.head
    }

    /// Builds an attack spec: `r` correctly-classified pool images, the
    /// first `s` with random wrong target labels. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the pool has fewer than `r` usable images or `s > r`.
    pub fn make_spec(&self, s: usize, r: usize, seed: u64) -> AttackSpec {
        assert!(s <= r, "S = {s} must not exceed R = {r}");
        assert!(
            r <= self.pool_correct.len(),
            "R = {r} exceeds usable pool of {}",
            self.pool_correct.len()
        );
        let mut rng = Prng::new(seed ^ 0xA77A);
        let chosen = rng.choose_distinct(self.pool_correct.len(), r);
        let d = self.pool_features.shape()[1];
        let mut features = Tensor::zeros(&[r, d]);
        let mut labels = Vec::with_capacity(r);
        for (row, &ci) in chosen.iter().enumerate() {
            let i = self.pool_correct[ci];
            features
                .row_mut(row)
                .copy_from_slice(self.pool_features.row(i));
            labels.push(self.pool_labels[i]);
        }
        let classes = self.model.config.classes;
        let targets: Vec<usize> = labels[..s]
            .iter()
            .map(|&l| {
                let mut t = rng.below(classes - 1);
                if t >= l {
                    t += 1;
                }
                t
            })
            .collect();
        AttackSpec::new(features, labels, targets)
    }

    /// Test-set activations truncated to head layer `start` (cached).
    pub fn test_acts(&self, start: usize) -> Tensor {
        let mut cache = self.test_acts.lock().expect("test_acts mutex poisoned");
        cache
            .entry(start)
            .or_insert_with(|| {
                self.model
                    .head
                    .activations_before(start, &self.test_features)
            })
            .clone()
    }

    /// Test accuracy of a (possibly modified) head sharing this victim's
    /// earlier layers up to `start`.
    pub fn test_accuracy(&self, head: &FcHead, start: usize) -> f32 {
        let acts = self.test_acts(start);
        fsa_attack::eval::accuracy_from(head, start, &acts, &self.test_labels)
    }

    fn encode(&mut self, enc: &mut Encoder) {
        enc.put_u32(VERSION);
        enc.put_str(self.kind.name());
        self.model.encode(enc);
        enc.put_tensor(&self.test_features);
        enc.put_u32_slice(
            &self
                .test_labels
                .iter()
                .map(|&l| l as u32)
                .collect::<Vec<_>>(),
        );
        enc.put_tensor(&self.pool_features);
        enc.put_u32_slice(
            &self
                .pool_labels
                .iter()
                .map(|&l| l as u32)
                .collect::<Vec<_>>(),
        );
        enc.put_f32(self.baseline_accuracy);
    }

    fn decode(kind: Kind, bytes: &[u8]) -> Result<Artifacts, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let version = dec.read_u32()?;
        if version != VERSION {
            return Err(DecodeError::new(format!(
                "artifact version {version} != {VERSION}"
            )));
        }
        let name = dec.read_str()?;
        if name != kind.name() {
            return Err(DecodeError::new(format!(
                "artifact kind {name} != {}",
                kind.name()
            )));
        }
        let model = CwModel::decode(kind.cw_config(), &mut dec)?;
        let test_features = dec.read_tensor()?;
        let test_labels: Vec<usize> = dec
            .read_u32_vec()?
            .into_iter()
            .map(|l| l as usize)
            .collect();
        let pool_features = dec.read_tensor()?;
        let pool_labels: Vec<usize> = dec
            .read_u32_vec()?
            .into_iter()
            .map(|l| l as usize)
            .collect();
        let baseline_accuracy = dec.read_f32()?;
        // Everything the experiments index by, checked here so a
        // corrupt cache is a decode error rather than a panic later.
        let classes = model.head.classes();
        for (what, features, labels) in [
            ("test", &test_features, &test_labels),
            ("pool", &pool_features, &pool_labels),
        ] {
            if features.ndim() != 2
                || features.shape()[0] != labels.len()
                || features.shape()[1] != model.head.in_features()
                || labels.iter().any(|&l| l >= classes)
            {
                return Err(DecodeError::new(format!(
                    "{what} split inconsistent: features {:?}, {} labels",
                    features.shape(),
                    labels.len()
                )));
            }
        }
        let preds = model.head.predict(&pool_features);
        let pool_correct: Vec<usize> = (0..pool_labels.len())
            .filter(|&i| preds[i] == pool_labels[i])
            .collect();
        Ok(Artifacts {
            kind,
            model,
            test_features,
            test_labels,
            pool_features,
            pool_labels,
            pool_correct,
            baseline_accuracy,
            test_acts: Mutex::new(HashMap::new()),
        })
    }
}

/// Path of the on-disk cache for `kind`.
pub fn artifact_path(kind: Kind) -> PathBuf {
    workspace_root()
        .join("artifacts")
        .join(format!("{}.bin", kind.name()))
}

/// Best-effort workspace root (works from any crate's test/bench CWD).
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("no current dir");
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().expect("no current dir");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A digits artifact with a random victim and a few feature rows.
    fn encoded() -> Vec<u8> {
        encoded_with(0, vec![7, 1])
    }

    /// A digits artifact whose two pool rows are `extra_width` wider
    /// than the head reads, labelled `pool_labels`.
    fn encoded_with(extra_width: usize, pool_labels: Vec<usize>) -> Vec<u8> {
        let mut rng = Prng::new(0xA27);
        let kind = Kind::Digits;
        let model = CwModel::new_random(kind.cw_config(), &mut rng);
        let dim = model.config.feature_dim();
        let mut artifacts = Artifacts {
            kind,
            test_features: Tensor::randn(&[3, dim], 1.0, &mut rng),
            test_labels: vec![0, 9, 4],
            pool_features: Tensor::randn(&[2, dim + extra_width], 1.0, &mut rng),
            pool_labels,
            pool_correct: Vec::new(),
            baseline_accuracy: 0.5,
            model,
            test_acts: Mutex::new(HashMap::new()),
        };
        let mut enc = Encoder::new();
        artifacts.encode(&mut enc);
        enc.into_bytes()
    }

    /// Start and width of every integer field a reader trusts: the
    /// header before the first tensor, each tensor's tag, rank, dims and
    /// length (and the count that may precede it), and the label and
    /// accuracy tail after the last tensor's data.
    fn fields(bytes: &[u8]) -> Vec<(usize, usize)> {
        let word = |at: usize, w: usize| {
            let mut b = [0u8; 8];
            b[..w].copy_from_slice(&bytes[at..at + w]);
            u64::from_le_bytes(b) as usize
        };
        let tags: Vec<usize> = (0..bytes.len() - 3)
            .filter(|&p| &bytes[p..p + 4] == b"FSAT")
            .collect();
        let mut out = Vec::new();
        let mut tail = 0;
        for &p in &tags {
            let rank = word(p + 4, 4).min(8);
            out.extend([(p - 8, 8), (p - 4, 4), (p, 4), (p + 4, 4)]);
            out.extend((0..=rank).map(|k| (p + 8 + 8 * k, 8)));
            tail = p + 16 + 8 * rank + 4 * word(p + 8 + 8 * rank, 8);
        }
        let loose = (0..tags[0]).chain(tail..bytes.len());
        out.extend(loose.flat_map(|at| [(at, 4), (at, 8)]));
        out.retain(|&(at, w)| at + w <= bytes.len());
        out
    }

    #[test]
    fn decode_roundtrips() {
        // Caches under `artifacts/` written by earlier builds must keep
        // loading: a fixed-seed artifact encodes to the bytes recorded
        // when format 3 was current, and decoding them re-encodes them
        // exactly.
        const RECORDED: u64 = 0x24f8_d9f3_62ec_687d;
        let bytes = encoded();
        let mut h = fsa_tensor::hash::Fnv1a::new();
        h.write_bytes(&bytes);
        assert_eq!(h.finish(), RECORDED, "digest {:#018x}", h.finish());
        let mut a = Artifacts::decode(Kind::Digits, &bytes).unwrap();
        assert_eq!(a.pool_labels, vec![7, 1]);
        let mut enc = Encoder::new();
        a.encode(&mut enc);
        assert_eq!(enc.into_bytes(), bytes);
        assert!(Artifacts::decode(Kind::Objects, &bytes).is_err());
    }

    #[test]
    fn inconsistent_splits_are_decode_errors() {
        // More labels than rows, rows the head cannot read, and a label
        // past the last class: well-formed bytes that would send an
        // experiment out of bounds.
        for (extra_width, labels) in [(0, vec![7, 1, 2]), (1, vec![7, 1]), (0, vec![7, 10])] {
            let bytes = encoded_with(extra_width, labels.clone());
            assert!(
                Artifacts::decode(Kind::Digits, &bytes).is_err(),
                "pool +{extra_width} wide, labels {labels:?}"
            );
        }
    }

    #[test]
    fn hostile_fields_and_truncations_decode_to_errors_never_panics() {
        let mut bytes = encoded();
        let mut rng = Prng::new(0xF022);
        let mut panics = Vec::new();
        let mut decode = |b: &[u8], what: String| {
            if catch_unwind(AssertUnwindSafe(|| Artifacts::decode(Kind::Digits, b))).is_err() {
                panics.push(what);
            }
        };
        for (at, width) in fields(&bytes) {
            let orig: [u8; 8] = {
                let mut w = [0u8; 8];
                w[..width].copy_from_slice(&bytes[at..at + width]);
                w
            };
            let v0 = u64::from_le_bytes(orig);
            for v in [
                0,
                1,
                v0.wrapping_add(1),
                v0.wrapping_sub(1),
                v0.wrapping_mul(2),
                v0 / 2,
                1 << 31,
                1 << 32,
                1 << 63,
                u64::MAX,
            ] {
                bytes[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
                decode(&bytes, format!("{v:#x} at {at}"));
            }
            bytes[at..at + width].copy_from_slice(&orig[..width]);
        }
        for _ in 0..32 {
            let n = rng.below(bytes.len());
            decode(&bytes[..n], format!("truncated to {n}"));
        }
        assert!(
            panics.is_empty(),
            "{} hostile inputs panicked (first: {:?})",
            panics.len(),
            &panics[..panics.len().min(8)]
        );
    }
}
