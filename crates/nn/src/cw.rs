//! The Carlini–Wagner CNN architecture used by the paper's evaluation.
//!
//! Both victim networks (MNIST-like and CIFAR-like) share the structure
//! described in Sec. 5 of the paper: four convolutional layers, two max
//! pooling layers, three fully connected layers (the paper counts the last
//! softmax-feeding FC separately), and a softmax output:
//!
//! ```text
//! conv(c→32,3×3) ReLU conv(32→32,3×3) ReLU pool(2)
//! conv(32→64,3×3) ReLU conv(64→64,3×3) ReLU pool(2)
//! fc(feat→200) ReLU fc(200→200) ReLU fc(200→10) → logits
//! ```
//!
//! For 28×28×1 inputs the flattened feature width is `64·4·4 = 1024`,
//! giving the FC parameter counts of the paper's Table 1
//! (205,000 / 40,200 / 2,010).

use crate::activation::Relu;
use crate::conv::{Conv2d, VolumeDims};
use crate::head::FcHead;
use crate::loss::argmax_slice;
use crate::network::Network;
use crate::pool::MaxPool2d;
use fsa_tensor::io::{DecodeError, Decoder, Encoder};
use fsa_tensor::{Prng, Tensor};

/// Architecture hyperparameters for a C&W-style model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CwConfig {
    /// Input volume (e.g. 1×28×28 for MNIST-like data).
    pub input: VolumeDims,
    /// Channels of the first conv block (paper: 32).
    pub block1_channels: usize,
    /// Channels of the second conv block (paper: 64).
    pub block2_channels: usize,
    /// Square kernel size (paper: 3).
    pub kernel: usize,
    /// Width of the two hidden FC layers (paper: 200).
    pub fc_width: usize,
    /// Number of classes (paper: 10).
    pub classes: usize,
}

impl CwConfig {
    /// The paper's MNIST configuration (28×28×1, FC head 1024→200→200→10).
    pub fn mnist() -> Self {
        Self {
            input: VolumeDims::new(1, 28, 28),
            block1_channels: 32,
            block2_channels: 64,
            kernel: 3,
            fc_width: 200,
            classes: 10,
        }
    }

    /// The paper's CIFAR-10 configuration (32×32×3, FC head
    /// 1600→200→200→10).
    pub fn cifar() -> Self {
        Self {
            input: VolumeDims::new(3, 32, 32),
            block1_channels: 32,
            block2_channels: 64,
            kernel: 3,
            fc_width: 200,
            classes: 10,
        }
    }

    /// A tiny configuration for unit tests (16×16×1 input).
    pub fn tiny() -> Self {
        Self {
            input: VolumeDims::new(1, 16, 16),
            block1_channels: 4,
            block2_channels: 8,
            kernel: 3,
            fc_width: 16,
            classes: 4,
        }
    }

    /// Flattened feature width after the conv stack.
    pub fn feature_dim(&self) -> usize {
        self.conv_output().features()
    }

    fn conv_output(&self) -> VolumeDims {
        let k = self.kernel;
        let d1 = VolumeDims::new(
            self.block1_channels,
            self.input.height - 2 * (k - 1),
            self.input.width - 2 * (k - 1),
        );
        let p1 = VolumeDims::new(d1.channels, d1.height / 2, d1.width / 2);
        let d2 = VolumeDims::new(
            self.block2_channels,
            p1.height - 2 * (k - 1),
            p1.width - 2 * (k - 1),
        );
        VolumeDims::new(d2.channels, d2.height / 2, d2.width / 2)
    }
}

/// Builds the convolutional feature extractor for `cfg`.
///
/// Returns the network and its output feature width.
pub fn feature_extractor(cfg: &CwConfig, rng: &mut Prng) -> (Network, usize) {
    let mut net = Network::new();
    let k = cfg.kernel;

    let c1 = Conv2d::new_random(cfg.input, cfg.block1_channels, k, rng);
    let d1 = c1.out_dims();
    net.push(Box::new(c1));
    net.push(Box::new(Relu::new(d1.features())));
    let c2 = Conv2d::new_random(d1, cfg.block1_channels, k, rng);
    let d2 = c2.out_dims();
    net.push(Box::new(c2));
    net.push(Box::new(Relu::new(d2.features())));
    let p1 = MaxPool2d::new(d2, 2);
    let d3 = p1.out_dims();
    net.push(Box::new(p1));

    let c3 = Conv2d::new_random(d3, cfg.block2_channels, k, rng);
    let d4 = c3.out_dims();
    net.push(Box::new(c3));
    net.push(Box::new(Relu::new(d4.features())));
    let c4 = Conv2d::new_random(d4, cfg.block2_channels, k, rng);
    let d5 = c4.out_dims();
    net.push(Box::new(c4));
    net.push(Box::new(Relu::new(d5.features())));
    let p2 = MaxPool2d::new(d5, 2);
    let features = p2.out_dims().features();
    net.push(Box::new(p2));

    (net, features)
}

/// A complete C&W victim model: conv feature extractor + FC head.
#[derive(Debug)]
pub struct CwModel {
    /// Architecture this model was built with.
    pub config: CwConfig,
    /// Convolutional feature extractor (never modified by the attack).
    pub extractor: Network,
    /// Fully connected head (the attack's parameter space).
    pub head: FcHead,
}

impl CwModel {
    /// Creates a randomly initialized model.
    pub fn new_random(cfg: CwConfig, rng: &mut Prng) -> Self {
        let (extractor, features) = feature_extractor(&cfg, rng);
        debug_assert_eq!(features, cfg.feature_dim());
        let head = FcHead::new_random(features, cfg.fc_width, cfg.fc_width, cfg.classes, rng);
        Self {
            config: cfg,
            extractor,
            head,
        }
    }

    /// Runs the conv stack only, producing `[batch, feature_dim]`
    /// activations (the attack caches these).
    ///
    /// This is the batched feature-extraction pipeline: the whole batch
    /// is dispatched once through [`Network::forward_infer`], which
    /// splits images across scoped workers when the active thread
    /// budget allows — bit-identical to the serial per-image path for
    /// any `FSA_THREADS`.
    pub fn extract_features(&self, images: &Tensor) -> Tensor {
        self.extractor.forward_infer(images)
    }

    /// Full-model logits.
    pub fn logits(&self, images: &Tensor) -> Tensor {
        self.head.forward(&self.extract_features(images))
    }

    /// Predicted class per sample.
    pub fn predict(&self, images: &Tensor) -> Vec<usize> {
        let z = self.logits(images);
        (0..z.shape()[0]).map(|r| argmax_slice(z.row(r))).collect()
    }

    /// Accuracy on `(images, labels)`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch.
    pub fn accuracy(&self, images: &Tensor, labels: &[usize]) -> f32 {
        let preds = self.predict(images);
        assert_eq!(preds.len(), labels.len(), "labels/batch mismatch");
        if preds.is_empty() {
            return 0.0;
        }
        preds.iter().zip(labels).filter(|(p, l)| p == l).count() as f32 / preds.len() as f32
    }

    /// Serializes extractor and head parameters.
    pub fn encode(&mut self, enc: &mut Encoder) {
        enc.put_u32(magic_for(&self.config));
        self.extractor.encode_params(enc);
        self.head.encode(enc);
    }

    /// Restores a model saved with [`CwModel::encode`] into a freshly
    /// constructed architecture.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the stream is malformed or was saved from
    /// a different configuration.
    pub fn decode(cfg: CwConfig, dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let magic = dec.read_u32()?;
        if magic != magic_for(&cfg) {
            return Err(DecodeError::new(format!(
                "model file architecture mismatch: file {magic:#x}, expected {:#x}",
                magic_for(&cfg)
            )));
        }
        let mut rng = Prng::new(0);
        let (mut extractor, features) = feature_extractor(&cfg, &mut rng);
        extractor.decode_params(dec)?;
        let head = FcHead::decode(dec)?;
        if head.in_features() != features {
            return Err(DecodeError::new(
                "head width does not match extractor output",
            ));
        }
        Ok(Self {
            config: cfg,
            extractor,
            head,
        })
    }
}

/// Cheap structural fingerprint of a configuration for artifact headers.
fn magic_for(cfg: &CwConfig) -> u32 {
    let mut h: u32 = 0x5EED;
    for v in [
        cfg.input.channels,
        cfg.input.height,
        cfg.input.width,
        cfg.block1_channels,
        cfg.block2_channels,
        cfg.kernel,
        cfg.fc_width,
        cfg.classes,
    ] {
        h = h.wrapping_mul(31).wrapping_add(v as u32);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_dimensions_match_paper() {
        let cfg = CwConfig::mnist();
        assert_eq!(cfg.feature_dim(), 1024);
        let mut rng = Prng::new(0);
        let (net, features) = feature_extractor(&cfg, &mut rng);
        assert_eq!(features, 1024);
        assert_eq!(net.in_features(), 784);
    }

    #[test]
    fn cifar_dimensions() {
        let cfg = CwConfig::cifar();
        assert_eq!(cfg.feature_dim(), 64 * 5 * 5);
    }

    #[test]
    fn tiny_model_runs_end_to_end() {
        let cfg = CwConfig::tiny();
        let mut rng = Prng::new(1);
        let model = CwModel::new_random(cfg, &mut rng);
        let x = Tensor::randn(&[2, cfg.input.features()], 1.0, &mut rng);
        let z = model.logits(&x);
        assert_eq!(z.shape(), &[2, cfg.classes]);
        assert!(z.is_finite());
        let preds = model.predict(&x);
        assert!(preds.iter().all(|&p| p < cfg.classes));
    }

    #[test]
    fn features_then_head_equals_logits() {
        let cfg = CwConfig::tiny();
        let mut rng = Prng::new(2);
        let model = CwModel::new_random(cfg, &mut rng);
        let x = Tensor::randn(&[3, cfg.input.features()], 1.0, &mut rng);
        let f = model.extract_features(&x);
        assert_eq!(f.shape(), &[3, cfg.feature_dim()]);
        assert_eq!(model.head.forward(&f), model.logits(&x));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cfg = CwConfig::tiny();
        let mut rng = Prng::new(3);
        let mut model = CwModel::new_random(cfg, &mut rng);
        let x = Tensor::randn(&[2, cfg.input.features()], 1.0, &mut rng);
        let before = model.logits(&x);

        let mut enc = Encoder::new();
        model.encode(&mut enc);
        let bytes = enc.into_bytes();
        let restored = CwModel::decode(cfg, &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(restored.logits(&x), before);
    }

    #[test]
    fn encoded_bytes_are_pinned() {
        // The byte format artifact caches rely on: magic, then every
        // extractor parameter in visit order (each layer's weight before
        // its bias), then the head. A fixed-seed model must encode to the
        // same bytes forever, and decoding them must re-encode to the same
        // bytes, or caches written by earlier builds stop loading.
        const RECORDED: u64 = 0x8dfa_3152_d439_8e5b;
        let mut model = CwModel::new_random(CwConfig::tiny(), &mut Prng::new(0xC0DE));
        let mut enc = Encoder::new();
        model.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut h = fsa_tensor::hash::Fnv1a::new();
        h.write_bytes(&bytes);
        assert_eq!(h.finish(), RECORDED, "digest {:#018x}", h.finish());

        let mut restored = CwModel::decode(CwConfig::tiny(), &mut Decoder::new(&bytes)).unwrap();
        let mut again = Encoder::new();
        restored.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn decode_rejects_other_architecture() {
        let mut rng = Prng::new(4);
        let mut model = CwModel::new_random(CwConfig::tiny(), &mut rng);
        let mut enc = Encoder::new();
        model.encode(&mut enc);
        let bytes = enc.into_bytes();
        assert!(CwModel::decode(CwConfig::mnist(), &mut Decoder::new(&bytes)).is_err());
    }
}
