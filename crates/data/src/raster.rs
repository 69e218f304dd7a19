//! Tiny software rasterizer used by the synthetic dataset generators.

use fsa_tensor::Prng;

/// A single-channel image buffer with float intensities.
#[derive(Debug, Clone)]
pub struct Canvas {
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
    /// Row-major pixel intensities.
    pub pixels: Vec<f32>,
}

impl Canvas {
    /// Creates a black canvas.
    pub fn new(height: usize, width: usize) -> Self {
        Self {
            height,
            width,
            pixels: vec![0.0; height * width],
        }
    }

    /// Draws an anti-aliased line segment between two points in pixel
    /// coordinates, compositing with `max`.
    ///
    /// Intensity falls off linearly from 1 inside the stroke radius to 0 at
    /// `radius + 1` pixels.
    pub fn stroke(&mut self, x1: f32, y1: f32, x2: f32, y2: f32, radius: f32) {
        let min_x = (x1.min(x2) - radius - 1.5).floor().max(0.0) as usize;
        let max_x = (x1.max(x2) + radius + 1.5)
            .ceil()
            .min(self.width as f32 - 1.0) as usize;
        let min_y = (y1.min(y2) - radius - 1.5).floor().max(0.0) as usize;
        let max_y = (y1.max(y2) + radius + 1.5)
            .ceil()
            .min(self.height as f32 - 1.0) as usize;
        for py in min_y..=max_y {
            for px in min_x..=max_x {
                let d = dist_to_segment(px as f32, py as f32, x1, y1, x2, y2);
                let v = (1.0 - (d - radius)).clamp(0.0, 1.0);
                let idx = py * self.width + px;
                if v > self.pixels[idx] {
                    self.pixels[idx] = v;
                }
            }
        }
    }

    /// Adds i.i.d. Gaussian noise and clamps to `[0, 1]`.
    pub fn add_noise(&mut self, std: f32, rng: &mut Prng) {
        for p in &mut self.pixels {
            *p = (*p + rng.normal(0.0, std)).clamp(0.0, 1.0);
        }
    }
}

/// Euclidean distance from point `(px, py)` to segment `(x1,y1)-(x2,y2)`.
pub fn dist_to_segment(px: f32, py: f32, x1: f32, y1: f32, x2: f32, y2: f32) -> f32 {
    let (dx, dy) = (x2 - x1, y2 - y1);
    let len_sq = dx * dx + dy * dy;
    let t = if len_sq <= f32::EPSILON {
        0.0
    } else {
        (((px - x1) * dx + (py - y1) * dy) / len_sq).clamp(0.0, 1.0)
    };
    let (cx, cy) = (x1 + t * dx, y1 + t * dy);
    ((px - cx).powi(2) + (py - cy).powi(2)).sqrt()
}

/// A 2-D affine jitter (scale, rotation, translation) applied to glyph
/// coordinates before rasterization.
#[derive(Debug, Clone, Copy)]
pub struct Jitter {
    /// Isotropic scale factor.
    pub scale: f32,
    /// Rotation in radians.
    pub rotation: f32,
    /// Translation in pixels (x, y).
    pub shift: (f32, f32),
}

impl Jitter {
    /// Samples a jitter with bounded magnitude.
    pub fn sample(
        rng: &mut Prng,
        max_rotation: f32,
        max_shift: f32,
        scale_range: (f32, f32),
    ) -> Self {
        Self {
            scale: rng.uniform(scale_range.0, scale_range.1),
            rotation: rng.uniform(-max_rotation, max_rotation),
            shift: (
                rng.uniform(-max_shift, max_shift),
                rng.uniform(-max_shift, max_shift),
            ),
        }
    }

    /// Identity jitter.
    pub fn identity() -> Self {
        Self {
            scale: 1.0,
            rotation: 0.0,
            shift: (0.0, 0.0),
        }
    }

    /// Applies the jitter to a point around pivot `(cx, cy)`.
    pub fn apply(&self, x: f32, y: f32, cx: f32, cy: f32) -> (f32, f32) {
        let (sx, sy) = ((x - cx) * self.scale, (y - cy) * self.scale);
        let (sin, cos) = self.rotation.sin_cos();
        (
            cx + sx * cos - sy * sin + self.shift.0,
            cy + sx * sin + sy * cos + self.shift.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_to_degenerate_segment_is_point_distance() {
        assert_eq!(dist_to_segment(3.0, 4.0, 0.0, 0.0, 0.0, 0.0), 5.0);
    }

    #[test]
    fn distance_clamps_to_endpoints() {
        // Point beyond the segment end projects to the endpoint.
        let d = dist_to_segment(5.0, 0.0, 0.0, 0.0, 3.0, 0.0);
        assert!((d - 2.0).abs() < 1e-6);
    }

    #[test]
    fn stroke_marks_pixels_near_line() {
        let mut c = Canvas::new(10, 10);
        c.stroke(1.0, 5.0, 8.0, 5.0, 0.8);
        assert!(c.pixels[5 * 10 + 4] > 0.9, "on-line pixel should be bright");
        assert_eq!(c.pixels[0], 0.0, "far corner stays dark");
    }

    #[test]
    fn noise_keeps_range() {
        let mut c = Canvas::new(8, 8);
        c.stroke(0.0, 0.0, 7.0, 7.0, 1.0);
        let mut rng = Prng::new(3);
        c.add_noise(0.5, &mut rng);
        assert!(c.pixels.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn identity_jitter_fixes_points() {
        let j = Jitter::identity();
        let (x, y) = j.apply(3.0, 7.0, 14.0, 14.0);
        assert!((x - 3.0).abs() < 1e-6 && (y - 7.0).abs() < 1e-6);
    }

    #[test]
    fn rotation_by_pi_flips_around_pivot() {
        let j = Jitter {
            scale: 1.0,
            rotation: std::f32::consts::PI,
            shift: (0.0, 0.0),
        };
        let (x, y) = j.apply(10.0, 14.0, 14.0, 14.0);
        assert!((x - 18.0).abs() < 1e-4 && (y - 14.0).abs() < 1e-4);
    }
}
