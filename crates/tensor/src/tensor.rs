//! The dense row-major `f32` tensor type.

use crate::rng::Prng;
use crate::shape::Shape;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// A dense, contiguous, row-major tensor of `f32` values.
///
/// `Tensor` is the common currency between the dataset, network, and attack
/// crates. It is intentionally simple — no views, no broadcasting — because
/// the kernels that matter (GEMM, im2col) operate on raw slices for speed
/// and everything else is clearer with explicit shapes.
///
/// # Examples
///
/// ```
/// use fsa_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Default for Tensor {
    /// An empty `[0]` tensor — a placeholder for buffers that will be
    /// [`Tensor::reuse_as`]'d before first use.
    fn default() -> Self {
        Self::zeros(&[0])
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![0.0; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(dims: &[usize]) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Self {
            data: vec![value; shape.numel()],
            shape,
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the element count of `dims`.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Self { data, shape }
    }

    /// Creates a tensor with i.i.d. `N(0, std²)` entries.
    pub fn randn(dims: &[usize], std: f32, rng: &mut Prng) -> Self {
        let mut t = Self::zeros(dims);
        rng.fill_normal(&mut t.data, std);
        t
    }

    /// Creates a tensor with i.i.d. uniform entries in `[lo, hi)`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Prng) -> Self {
        let mut t = Self::zeros(dims);
        rng.fill_uniform(&mut t.data, lo, hi);
        t
    }

    /// Returns the dimensions of the tensor.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Returns the number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Returns the underlying data as a slice (row-major).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Returns the underlying data as a mutable slice (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// Reshapes this tensor in place to `dims`, reusing the existing
    /// allocation whenever the element count matches (contents are then
    /// left as-is) and resizing otherwise (new elements zero-filled).
    ///
    /// This is the reuse primitive behind the allocation-free hot loops:
    /// buffers held across iterations call `reuse_as` and are then
    /// overwritten by a kernel with `beta = 0` or an explicit fill. When
    /// `dims` already is the shape it returns at once, so a steady-state
    /// call makes no heap allocation (`tests/steady_state_alloc.rs`).
    pub fn reuse_as(&mut self, dims: &[usize]) {
        if self.shape.dims() == dims {
            return;
        }
        let shape = Shape::new(dims);
        if shape.numel() != self.data.len() {
            self.data.clear();
            self.data.resize(shape.numel(), 0.0);
        }
        self.shape = shape;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, dims: &[usize]) -> Self {
        let new_shape = Shape::new(dims);
        assert!(
            self.shape.reshape_compatible(&new_shape),
            "cannot reshape {} ({} elements) to {} ({} elements)",
            self.shape,
            self.shape.numel(),
            new_shape,
            new_shape.numel()
        );
        self.shape = new_shape;
        self
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two tensors elementwise with `f`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Self {
        self.assert_same_shape(other, "zip_map");
        Self {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        self.assert_same_shape(other, "axpy");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// In-place multiplication by a scalar.
    pub fn scale(&mut self, alpha: f32) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        // Kahan summation: the attack evaluates accuracy deltas below 1%,
        // so reductions over ~1e6 elements must not drift.
        let mut sum = 0.0f32;
        let mut c = 0.0f32;
        for &x in &self.data {
            let y = x - c;
            let t = sum + y;
            c = (t - sum) - y;
            sum = t;
        }
        sum
    }

    /// Mean of all elements.
    ///
    /// Returns 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element; `None` when empty.
    pub fn max(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::max)
    }

    /// Minimum element; `None` when empty.
    pub fn min(&self) -> Option<f32> {
        self.data.iter().copied().reduce(f32::min)
    }

    /// Index of the maximum element (first occurrence); `None` when empty.
    pub fn argmax(&self) -> Option<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (i, &x) in self.data.iter().enumerate() {
            match best {
                Some((_, b)) if x <= b => {}
                _ => best = Some((i, x)),
            }
        }
        best.map(|(i, _)| i)
    }

    /// Matrix multiplication `self (m×k) · other (k×n)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank-2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert!(
            self.shape.is_matrix() && other.shape.is_matrix(),
            "matmul requires matrices"
        );
        let (m, k) = (self.shape.dim(0), self.shape.dim(1));
        let (k2, n) = (other.shape.dim(0), other.shape.dim(1));
        assert_eq!(k, k2, "matmul inner dimensions differ: {k} vs {k2}");
        let mut out = Tensor::zeros(&[m, n]);
        crate::linalg::gemm(m, k, n, &self.data, &other.data, &mut out.data, 1.0, 0.0);
        out
    }

    /// Returns `true` if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Row `i` of a rank-2 tensor, as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(
            self.shape.is_matrix(),
            "row() requires a matrix, got {}",
            self.shape
        );
        let n = self.shape.dim(1);
        let rows = self.shape.dim(0);
        assert!(i < rows, "row {i} out of bounds for {rows} rows");
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `i` is out of bounds.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(
            self.shape.is_matrix(),
            "row_mut() requires a matrix, got {}",
            self.shape
        );
        let n = self.shape.dim(1);
        let rows = self.shape.dim(0);
        assert!(i < rows, "row {i} out of bounds for {rows} rows");
        &mut self.data[i * n..(i + 1) * n]
    }

    fn assert_same_shape(&self, other: &Tensor, op: &str) {
        assert_eq!(
            self.shape, other.shape,
            "{op} requires equal shapes, got {} vs {}",
            self.shape, other.shape
        );
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.numel() <= 16 {
            write!(f, "Tensor({}, {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({}, [{:.4}, {:.4}, .., {:.4}])",
                self.shape,
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl Add<&Tensor> for &Tensor {
    type Output = Tensor;
    fn add(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub<&Tensor> for &Tensor {
    type Output = Tensor;
    fn sub(self, rhs: &Tensor) -> Tensor {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Tensor {
    type Output = Tensor;
    fn mul(self, rhs: f32) -> Tensor {
        self.map(|x| x * rhs)
    }
}

impl AddAssign<&Tensor> for Tensor {
    fn add_assign(&mut self, rhs: &Tensor) {
        self.axpy(1.0, rhs);
    }
}

impl SubAssign<&Tensor> for Tensor {
    fn sub_assign(&mut self, rhs: &Tensor) {
        self.axpy(-1.0, rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let z = Tensor::zeros(&[2, 3]);
        assert_eq!(z.numel(), 6);
        assert_eq!(z.sum(), 0.0);

        let o = Tensor::ones(&[4]);
        assert_eq!(o.sum(), 4.0);

        let f = Tensor::full(&[2, 2], 2.5);
        assert_eq!(f.at(&[1, 1]), 2.5);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_validates_length() {
        Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn set_and_at_roundtrip() {
        let mut t = Tensor::zeros(&[3, 4]);
        t.set(&[2, 1], 7.0);
        assert_eq!(t.at(&[2, 1]), 7.0);
        assert_eq!(t.as_slice()[2 * 4 + 1], 7.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let b = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        a.axpy(2.0, &b);
        assert_eq!(a.as_slice(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -4.0, 2.0], &[3]);
        assert_eq!(t.sum(), -1.0);
        assert_eq!(t.max(), Some(2.0));
        assert_eq!(t.min(), Some(-4.0));
        assert_eq!(t.argmax(), Some(2));
        assert!((t.mean() - (-1.0 / 3.0)).abs() < 1e-7);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        let t = Tensor::from_vec(vec![5.0, 1.0, 5.0], &[3]);
        assert_eq!(t.argmax(), Some(0));
    }

    #[test]
    fn rows_of_matrix() {
        let mut t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
        t.row_mut(0)[1] = 9.0;
        assert_eq!(t.at(&[0, 1]), 9.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.at(&[2, 1]), 6.0);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = Prng::new(99);
        let mut r2 = Prng::new(99);
        let a = Tensor::randn(&[10], 1.0, &mut r1);
        let b = Tensor::randn(&[10], 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn kahan_sum_is_stable() {
        // 1e7 copies of 0.1 summed naively in f32 drifts badly; Kahan holds.
        let t = Tensor::full(&[1_000_000], 0.1);
        assert!((t.sum() - 100_000.0).abs() < 1.0, "sum was {}", t.sum());
    }
}
