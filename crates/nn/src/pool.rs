//! Max pooling.

use crate::conv::VolumeDims;
use crate::layer::{check_batch_input, Layer};
use fsa_tensor::Tensor;

/// Non-overlapping 2-D max pooling (window = stride).
///
/// Trailing rows/columns that do not fill a window are dropped (floor
/// semantics), matching the C&W architecture's `2×2` pools on even inputs.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    in_dims: VolumeDims,
    window: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or larger than the input.
    pub fn new(in_dims: VolumeDims, window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        assert!(
            window <= in_dims.height && window <= in_dims.width,
            "pool window {window} does not fit input {}x{}",
            in_dims.height,
            in_dims.width
        );
        Self { in_dims, window }
    }

    /// Output volume dimensions.
    pub fn out_dims(&self) -> VolumeDims {
        VolumeDims::new(
            self.in_dims.channels,
            self.in_dims.height / self.window,
            self.in_dims.width / self.window,
        )
    }

    fn pool_sample(&self, x: &[f32], y: &mut [f32]) {
        let (c, h, w) = (
            self.in_dims.channels,
            self.in_dims.height,
            self.in_dims.width,
        );
        let out = self.out_dims();
        let (oh, ow) = (out.height, out.width);
        let k = self.window;
        for ch in 0..c {
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for di in 0..k {
                        let row = (ch * h + oi * k + di) * w + oj * k;
                        for &v in &x[row..row + k] {
                            if v > best {
                                best = v;
                            }
                        }
                    }
                    y[(ch * oh + oi) * ow + oj] = best;
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn in_features(&self) -> usize {
        self.in_dims.features()
    }

    fn out_features(&self) -> usize {
        self.out_dims().features()
    }

    fn forward_infer(&self, x: &Tensor) -> Tensor {
        let batch = check_batch_input("maxpool2d", x, self.in_features());
        let mut y = Tensor::zeros(&[batch, self.out_features()]);
        for n in 0..batch {
            self.pool_sample(x.row(n), y.row_mut(n));
        }
        y
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor)) {}

    fn param_count(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_2x2_blocks() {
        let p = MaxPool2d::new(VolumeDims::new(1, 4, 4), 2);
        #[rustfmt::skip]
        let x = Tensor::from_vec(vec![
            1.0, 2.0,   3.0, 4.0,
            5.0, 6.0,   7.0, 8.0,

            9.0, 10.0, 11.0, 12.0,
            13.0, 14.0, 15.0, 16.0,
        ], &[1, 16]);
        let y = p.forward_infer(&x);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn odd_sizes_floor() {
        let p = MaxPool2d::new(VolumeDims::new(2, 5, 5), 2);
        assert_eq!(p.out_dims(), VolumeDims::new(2, 2, 2));
    }

    #[test]
    fn channels_are_independent() {
        let p = MaxPool2d::new(VolumeDims::new(2, 2, 2), 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0], &[1, 8]);
        let y = p.forward_infer(&x);
        assert_eq!(y.as_slice(), &[4.0, -1.0]);
    }
}
