//! Mini-batch helpers shared by the head's training loop and the
//! experiment fixtures.

use fsa_tensor::Tensor;

/// Gathers rows `idx` of `[n, d]` tensor `x` into a new `[idx.len(), d]`
/// batch.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_rows(x: &Tensor, idx: &[usize]) -> Tensor {
    assert_eq!(x.ndim(), 2, "gather_rows expects a matrix");
    let d = x.shape()[1];
    let mut out = Tensor::zeros(&[idx.len(), d]);
    for (r, &i) in idx.iter().enumerate() {
        out.row_mut(r).copy_from_slice(x.row(i));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_rows_selects() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let g = gather_rows(&x, &[2, 0]);
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0]);
    }
}
