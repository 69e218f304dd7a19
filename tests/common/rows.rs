//! Row gathers over the features a victim builder drew.

use fault_sneaking::tensor::Tensor;
use std::ops::Range;

/// Copies rows `range` of `x` into a new tensor, with their labels.
pub fn rows(x: &Tensor, labels: &[usize], range: Range<usize>) -> (Tensor, Vec<usize>) {
    let mut out = Tensor::zeros(&[range.len(), x.shape()[1]]);
    for (r, i) in range.clone().enumerate() {
        out.row_mut(r).copy_from_slice(x.row(i));
    }
    (out, labels[range].to_vec())
}
