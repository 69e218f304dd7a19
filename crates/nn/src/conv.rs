//! 2-D convolution via im2col/gemm with batch-parallel dispatch.
//!
//! Valid padding, arbitrary rectangular kernels and stride. The paper's
//! Carlini–Wagner victims only need square 3×3 stride-1 kernels
//! ([`Conv2d::new_random`]); the general geometry
//! ([`Conv2d::new_random_strided`]) exists so the batched pipeline can
//! be property-tested on shapes the fast paths do not privilege
//! (non-square kernels, stride > 1 — see `tests/conv_oracle.rs`).
//!
//! The forward pass is the hot path of attack feature extraction: a
//! batch of images is dispatched as contiguous image blocks through
//! [`fsa_tensor::parallel::par_row_blocks`], sized so every worker
//! owns at least `PAR_MIN_ROWS` GEMM output rows. Each worker fills
//! one patch matrix of its own per image and its GEMMs run under its
//! share of the thread budget; a batch too small to split runs inline
//! with row-block parallel kernels. Either way each image's im2col +
//! GEMM is the same operation sequence, so outputs are bit-identical
//! for every `FSA_THREADS`.
//!
//! Each image's GEMM is `W (out_c × c·kh·kw) · cols (c·kh·kw × oh·ow)`,
//! the NN layout of [`fsa_tensor::linalg::gemm`]. On a CPU with AVX it
//! runs that kernel's 4×16 register tile, masked at the `oh·ow % 16`
//! column remainder (the paper's 26×26 and 10×10 maps leave 4), with the
//! portable kernel's bits; `tests/kernel_consumer_digests.rs` pins the
//! extracted features of both victim configurations.

use crate::init;
use crate::layer::{check_batch_input, Layer};
use fsa_tensor::linalg::gemm;
use fsa_tensor::{parallel, Prng, Tensor};

/// Spatial dimensions of an activation volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VolumeDims {
    /// Channel count.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl VolumeDims {
    /// Creates a volume description.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Scalar features per sample.
    pub fn features(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// Minimum kernel output rows per batch-level worker (same spirit as the
/// kernel engine's row-block minimum): batches whose total work is
/// smaller run serially and never pay thread-spawn overhead.
const PAR_MIN_ROWS: usize = 8;

/// Copies the `kh×kw` patches of one sample (sampled every `stride`
/// pixels, valid padding) into the patch matrix `cols` of shape
/// `[c·kh·kw, oh·ow]` (row-major storage).
///
/// `x` is one sample, `[c, h, w]` flattened row-major.
pub fn im2col(x: &[f32], dims: VolumeDims, kh: usize, kw: usize, stride: usize, cols: &mut [f32]) {
    let (c, h, w) = (dims.channels, dims.height, dims.width);
    let (oh, ow) = out_hw(dims, kh, kw, stride);
    debug_assert_eq!(x.len(), dims.features());
    debug_assert_eq!(cols.len(), c * kh * kw * oh * ow);
    let p = oh * ow;
    for ch in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = ((ch * kh + ki) * kw + kj) * p;
                for oi in 0..oh {
                    let src = (ch * h + oi * stride + ki) * w + kj;
                    let dst = row + oi * ow;
                    if stride == 1 {
                        // Source pixels x[ch, oi+ki, kj..kj+ow] are contiguous.
                        cols[dst..dst + ow].copy_from_slice(&x[src..src + ow]);
                    } else {
                        for oj in 0..ow {
                            cols[dst + oj] = x[src + oj * stride];
                        }
                    }
                }
            }
        }
    }
}

/// Valid-padding output height/width for the given kernel and stride.
fn out_hw(dims: VolumeDims, kh: usize, kw: usize, stride: usize) -> (usize, usize) {
    (
        (dims.height - kh) / stride + 1,
        (dims.width - kw) / stride + 1,
    )
}

/// 2-D convolution layer (valid padding).
///
/// Weights are stored `[out_channels, in_channels·kh·kw]`, bias
/// `[out_channels]`; activations flow as `[batch, features]` slices of the
/// flattened `[c, h, w]` volumes.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_dims: VolumeDims,
    kernel_h: usize,
    kernel_w: usize,
    stride: usize,
    out_channels: usize,
    weight: Tensor,
    bias: Tensor,
}

impl Conv2d {
    /// Creates a square stride-1 convolution with He-initialized weights
    /// (the paper's C&W configuration).
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the input (`k > h` or `k > w`) or
    /// any dimension is zero.
    pub fn new_random(
        in_dims: VolumeDims,
        out_channels: usize,
        kernel: usize,
        rng: &mut Prng,
    ) -> Self {
        Self::new_random_strided(in_dims, out_channels, (kernel, kernel), 1, rng)
    }

    /// Creates a convolution with a rectangular `(kh, kw)` kernel and the
    /// given stride, He-initialized.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit the input or any dimension
    /// (including the stride) is zero.
    pub fn new_random_strided(
        in_dims: VolumeDims,
        out_channels: usize,
        kernel: (usize, usize),
        stride: usize,
        rng: &mut Prng,
    ) -> Self {
        let (kh, kw) = kernel;
        assert!(
            kh > 0 && kw > 0 && out_channels > 0 && stride > 0,
            "conv2d dimensions must be positive"
        );
        assert!(
            kh <= in_dims.height && kw <= in_dims.width,
            "kernel {kh}x{kw} does not fit input {}x{}",
            in_dims.height,
            in_dims.width
        );
        let fan_in = in_dims.channels * kh * kw;
        let weight = init::he_normal(&[out_channels, fan_in], fan_in, rng);
        let bias = Tensor::zeros(&[out_channels]);
        Self {
            in_dims,
            kernel_h: kh,
            kernel_w: kw,
            stride,
            out_channels,
            weight,
            bias,
        }
    }

    /// Output volume dimensions.
    pub fn out_dims(&self) -> VolumeDims {
        let (oh, ow) = out_hw(self.in_dims, self.kernel_h, self.kernel_w, self.stride);
        VolumeDims::new(self.out_channels, oh, ow)
    }

    /// Input volume dimensions.
    pub fn in_dims(&self) -> VolumeDims {
        self.in_dims
    }

    /// Kernel height and width.
    pub fn kernel(&self) -> (usize, usize) {
        (self.kernel_h, self.kernel_w)
    }

    /// Spatial stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The weight matrix `[out_channels, in_channels·kh·kw]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Mutable weight access.
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable bias access.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn in_features(&self) -> usize {
        self.in_dims.features()
    }

    fn out_features(&self) -> usize {
        self.out_dims().features()
    }

    fn forward_infer(&self, x: &Tensor) -> Tensor {
        let batch = check_batch_input("conv2d", x, self.in_features());
        let out = self.out_dims();
        let p = out.height * out.width;
        let kk = self.in_dims.channels * self.kernel_h * self.kernel_w;
        let row_len = out.features();
        let mut y = Tensor::zeros(&[batch, row_len]);
        // Image blocks of at least PAR_MIN_ROWS GEMM output rows each
        // (one image contributes `out_channels` rows). Each worker owns a
        // disjoint range of output images and one patch matrix, which
        // im2col overwrites whole for every image; the per-image
        // arithmetic is identical under every partition.
        let min_images = PAR_MIN_ROWS.div_ceil(self.out_channels.max(1));
        parallel::par_row_blocks(y.as_mut_slice(), row_len, min_images, |first, block| {
            let mut cols = vec![0.0; kk * p];
            for (i, y_row) in block.chunks_exact_mut(row_len).enumerate() {
                im2col(
                    x.row(first + i),
                    self.in_dims,
                    self.kernel_h,
                    self.kernel_w,
                    self.stride,
                    &mut cols,
                );
                // y_n = W (oc×kk) · cols (kk×p)
                gemm(
                    self.out_channels,
                    kk,
                    p,
                    self.weight.as_slice(),
                    &cols,
                    y_row,
                    1.0,
                    0.0,
                );
                for oc in 0..self.out_channels {
                    let b = self.bias.as_slice()[oc];
                    for v in &mut y_row[oc * p..(oc + 1) * p] {
                        *v += b;
                    }
                }
            }
        });
        y
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.numel()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_convolution() {
        // 1x1 kernel with weight 1 reproduces the input.
        let dims = VolumeDims::new(1, 3, 3);
        let mut rng = Prng::new(1);
        let mut conv = Conv2d::new_random(dims, 1, 1, &mut rng);
        conv.weight_mut().as_mut_slice()[0] = 1.0;
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 9]);
        let y = conv.forward_infer(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn hand_checked_3x3_convolution() {
        let dims = VolumeDims::new(1, 3, 3);
        let mut rng = Prng::new(2);
        let mut conv = Conv2d::new_random(dims, 1, 3, &mut rng);
        // All-ones kernel: output = sum of input.
        for v in conv.weight_mut().as_mut_slice() {
            *v = 1.0;
        }
        let x = Tensor::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 9]);
        let y = conv.forward_infer(&x);
        assert_eq!(y.shape(), &[1, 1]);
        assert_eq!(y.as_slice()[0], 45.0);
    }

    #[test]
    fn strided_rectangular_geometry() {
        let dims = VolumeDims::new(1, 7, 6);
        let mut rng = Prng::new(9);
        let conv = Conv2d::new_random_strided(dims, 2, (3, 2), 2, &mut rng);
        // oh = (7-3)/2 + 1 = 3, ow = (6-2)/2 + 1 = 3.
        assert_eq!(conv.out_dims(), VolumeDims::new(2, 3, 3));
        assert_eq!(conv.kernel(), (3, 2));
        assert_eq!(conv.stride(), 2);
        assert_eq!(conv.weight().shape(), &[2, 6]);
    }

    #[test]
    fn stride_2_subsamples_stride_1() {
        // A strided conv's outputs are the stride-aligned subset of the
        // stride-1 outputs under identical weights.
        let dims = VolumeDims::new(2, 6, 6);
        let mut rng = Prng::new(10);
        let dense = Conv2d::new_random_strided(dims, 3, (3, 3), 1, &mut rng);
        let mut strided = Conv2d::new_random_strided(dims, 3, (3, 3), 2, &mut rng);
        strided
            .weight_mut()
            .as_mut_slice()
            .copy_from_slice(dense.weight().as_slice());
        let x = Tensor::randn(&[1, dims.features()], 1.0, &mut rng);
        let yd = dense.forward_infer(&x); // [3, 4, 4] per image
        let ys = strided.forward_infer(&x); // [3, 2, 2]
        let (od, os) = (dense.out_dims(), strided.out_dims());
        for oc in 0..3 {
            for oi in 0..os.height {
                for oj in 0..os.width {
                    let s = ys.as_slice()[(oc * os.height + oi) * os.width + oj];
                    let d = yd.as_slice()[(oc * od.height + oi * 2) * od.width + oj * 2];
                    assert_eq!(s, d, "oc {oc} ({oi},{oj})");
                }
            }
        }
    }

    #[test]
    fn output_dims_match_cw_mnist_stack() {
        // 28x28 -> conv3 -> 26 -> conv3 -> 24 (the first two C&W convs).
        let mut rng = Prng::new(3);
        let c1 = Conv2d::new_random(VolumeDims::new(1, 28, 28), 32, 3, &mut rng);
        assert_eq!(c1.out_dims(), VolumeDims::new(32, 26, 26));
        let c2 = Conv2d::new_random(c1.out_dims(), 32, 3, &mut rng);
        assert_eq!(c2.out_dims(), VolumeDims::new(32, 24, 24));
    }

    #[test]
    fn batch_forward_is_per_sample() {
        let dims = VolumeDims::new(1, 4, 4);
        let mut rng = Prng::new(4);
        let conv = Conv2d::new_random(dims, 2, 3, &mut rng);
        let a = Tensor::randn(&[1, 16], 1.0, &mut rng);
        let b = Tensor::randn(&[1, 16], 1.0, &mut rng);
        let mut both = Tensor::zeros(&[2, 16]);
        both.row_mut(0).copy_from_slice(a.as_slice());
        both.row_mut(1).copy_from_slice(b.as_slice());
        let ya = conv.forward_infer(&a);
        let yb = conv.forward_infer(&b);
        let y = conv.forward_infer(&both);
        assert_eq!(y.row(0), ya.as_slice());
        assert_eq!(y.row(1), yb.as_slice());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_kernel_rejected() {
        let mut rng = Prng::new(5);
        let _ = Conv2d::new_random(VolumeDims::new(1, 2, 2), 1, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_stride_rejected() {
        let mut rng = Prng::new(5);
        let _ = Conv2d::new_random_strided(VolumeDims::new(1, 4, 4), 1, (3, 3), 0, &mut rng);
    }
}
