//! A minimal dense row-major `f32` matrix with the kernels needed by MLPs.
//!
//! Batches are stored as `batch_size × features` matrices. Two kernel
//! families coexist:
//!
//! * the original allocating kernels ([`Matrix::matmul`],
//!   [`Matrix::transpose_matmul`], [`Matrix::matmul_transpose`]) are **kept as
//!   the naive reference**: simple i-k-j loops whose output the blocked
//!   kernels must reproduce (the property tests pin the equivalence), and the
//!   baseline every benchmark measures speedups against;
//! * the `*_into` kernels ([`Matrix::matmul_into`],
//!   [`Matrix::matmul_transpose_into`], [`Matrix::transpose_matmul_acc_into`],
//!   [`Matrix::add_outer_into`]) delegate to the cache-blocked, register-tiled
//!   implementations in [`crate::kernels`] and write into caller-provided
//!   buffers, so the training hot path never allocates.

use crate::kernels;
use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally sized rows.
    ///
    /// # Panics
    /// Panics when the rows have inconsistent lengths or there are no rows.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat row-major data.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Value at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Changes the number of rows in place, keeping the column width.
    ///
    /// Shrinking truncates, growing zero-fills. No allocation happens as long
    /// as the new size fits the buffer's existing capacity, which makes this
    /// the resize primitive of the reusable [`crate::Workspace`] buffers.
    pub fn resize_rows(&mut self, rows: usize) {
        self.rows = rows;
        self.data.resize(rows * self.cols, 0.0);
    }

    /// Matrix product `self · other` (naive reference kernel, allocating).
    ///
    /// # Panics
    /// Panics when the inner dimensions do not match.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..(i + 1) * self.cols];
            let out_row = &mut out.data[i * n..(i + 1) * n];
            for (k, &a_ik) in a_row.iter().enumerate() {
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &other.data[k * n..(k + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ik * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · other` without materialising the transpose.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "transpose_matmul dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materialising the transpose.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_transpose dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            for j in 0..other.rows {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (a, b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                out.data[i * other.rows + j] = acc;
            }
        }
        out
    }

    /// Blocked matrix product `out = self · other`, written into `out` without
    /// allocating. Bit-compatible with [`Matrix::matmul`] (the reduction runs
    /// in the same ascending-k order per output element).
    ///
    /// # Panics
    /// Panics when the inner dimensions or the output shape do not match.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul_into dimension mismatch: {}×{} · {}×{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.rows, self.rows, "matmul_into output rows");
        assert_eq!(out.cols, other.cols, "matmul_into output cols");
        kernels::gemm_nn(
            None,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            |_, acc| acc,
        );
    }

    /// Blocked `out = self · otherᵀ` without materialising the transpose or
    /// allocating. Bit-compatible with [`Matrix::matmul_transpose`].
    ///
    /// # Panics
    /// Panics when the shared dimension or the output shape do not match.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_into dimension mismatch"
        );
        assert_eq!(out.rows, self.rows, "matmul_transpose_into output rows");
        assert_eq!(out.cols, other.rows, "matmul_transpose_into output cols");
        kernels::gemm_nt(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.rows,
            &mut out.data,
            |_, acc| acc,
        );
    }

    /// Blocked accumulating `out += selfᵀ · other` without materialising the
    /// transpose or allocating — the weight-gradient kernel. Bit-compatible
    /// with accumulating [`Matrix::transpose_matmul`] into `out`.
    ///
    /// # Panics
    /// Panics when the shared dimension or the output shape do not match.
    pub fn transpose_matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul_acc_into dimension mismatch"
        );
        assert_eq!(out.rows, self.cols, "transpose_matmul_acc_into output rows");
        assert_eq!(
            out.cols, other.cols,
            "transpose_matmul_acc_into output cols"
        );
        kernels::gemm_tn(
            None,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
            true,
        );
    }

    /// Rank-1 update `self += x ⊗ y` (`self[i][j] += x[i]·y[j]`), the
    /// single-sample fast path of the weight-gradient accumulation.
    ///
    /// # Panics
    /// Panics when the vector lengths do not match the matrix shape.
    pub fn add_outer_into(&mut self, x: &[f32], y: &[f32]) {
        assert_eq!(x.len(), self.rows, "add_outer_into row-vector length");
        assert_eq!(y.len(), self.cols, "add_outer_into column-vector length");
        kernels::add_outer(x, y, &mut self.data);
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Adds a row vector to every row (bias broadcast).
    ///
    /// # Panics
    /// Panics when `bias.len() != cols`.
    pub fn add_row_broadcast(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Column-wise sum (used for bias gradients; allocating variant).
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        self.add_column_sums_to(&mut sums);
        sums
    }

    /// Accumulates the column-wise sums into `acc` without allocating.
    ///
    /// # Panics
    /// Panics when `acc.len() != cols`.
    pub fn add_column_sums_to(&self, acc: &mut [f32]) {
        assert_eq!(acc.len(), self.cols, "column-sum accumulator length");
        for r in 0..self.rows {
            for (s, v) in acc.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
    }

    /// Element-wise map into a freshly allocated matrix. Prefer
    /// [`Matrix::apply_mut`] on the hot path when the input can be consumed.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise map in place (the allocation-free counterpart of
    /// [`Matrix::map`]).
    pub fn apply_mut(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise product in place.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn hadamard_assign(&mut self, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a *= b;
        }
    }

    /// Element-wise subtraction `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Scales every element in place.
    pub fn scale_assign(&mut self, factor: f32) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Mean of the squared elements (used by MSE-style reductions).
    pub fn mean_square(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|v| v * v).sum::<f32>() / self.data.len() as f32
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_preserves() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let eye = Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        assert_eq!(a.matmul(&eye), a);
    }

    #[test]
    fn transpose_matmul_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 0.5], vec![-1.0, 2.0], vec![0.0, 3.0]]);
        let fast = a.transpose_matmul(&b);
        let slow = a.transpose().matmul(&b);
        assert_eq!(fast, slow);
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 1.0, 1.0], vec![2.0, 0.0, -1.0]]);
        let fast = a.matmul_transpose(&b);
        let slow = a.matmul(&b.transpose());
        assert_eq!(fast, slow);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_row_broadcast_adds_bias() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, -1.0]);
        assert_eq!(a.data(), &[1.0, -1.0, 1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn column_sums_accumulate_rows() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(a.column_sums(), vec![9.0, 12.0]);
    }

    #[test]
    fn hadamard_and_sub_and_scale() {
        let mut a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![2.0, 2.0], vec![2.0, 2.0]]);
        a.hadamard_assign(&b);
        assert_eq!(a.data(), &[2.0, 4.0, 6.0, 8.0]);
        let d = a.sub(&b);
        assert_eq!(d.data(), &[0.0, 2.0, 4.0, 6.0]);
        let mut e = d;
        e.scale_assign(0.5);
        assert_eq!(e.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn mean_square_of_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0], vec![2.0, 0.0]]);
        assert!((a.mean_square() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn blocked_into_kernels_match_naive_references() {
        let a = Matrix::from_vec(5, 7, (0..35).map(|v| v as f32 * 0.3 - 5.0).collect());
        let b = Matrix::from_vec(7, 9, (0..63).map(|v| (v % 11) as f32 - 5.0).collect());
        let mut out = Matrix::zeros(5, 9);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        let bt = Matrix::from_vec(9, 7, (0..63).map(|v| (v % 13) as f32 * 0.5).collect());
        let mut out_nt = Matrix::zeros(5, 9);
        a.matmul_transpose_into(&bt, &mut out_nt);
        assert_eq!(out_nt, a.matmul_transpose(&bt));

        let c = Matrix::from_vec(5, 4, (0..20).map(|v| v as f32 - 10.0).collect());
        let reference = a.transpose_matmul(&c);
        // From a zeroed accumulator (the state after `zero_grads`) the blocked
        // kernel reproduces the naive product bit for bit.
        let mut acc = Matrix::zeros(7, 4);
        a.transpose_matmul_acc_into(&c, &mut acc);
        assert_eq!(acc, reference);
        // Accumulating a second time doubles the result (up to the rounding of
        // the interleaved adds).
        a.transpose_matmul_acc_into(&c, &mut acc);
        for (twice, once) in acc.data().iter().zip(reference.data()) {
            assert!((twice - 2.0 * once).abs() <= once.abs() * 1e-5 + 1e-5);
        }
    }

    #[test]
    fn add_outer_into_is_a_rank_one_update() {
        let mut m = Matrix::filled(2, 3, 1.0);
        m.add_outer_into(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(m.data(), &[4.0, 5.0, 6.0, 7.0, 9.0, 11.0]);
    }

    #[test]
    fn resize_rows_truncates_and_zero_fills_without_losing_width() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        m.resize_rows(1);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.data(), &[1.0, 2.0]);
        m.resize_rows(3);
        assert_eq!(m.data(), &[1.0, 2.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn apply_mut_matches_map() {
        let m = Matrix::from_rows(&[vec![1.0, -2.0], vec![3.0, -4.0]]);
        let mapped = m.map(|v| v.max(0.0));
        let mut inplace = m;
        inplace.apply_mut(|v| v.max(0.0));
        assert_eq!(inplace, mapped);
    }

    #[test]
    fn add_column_sums_accumulates() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let mut acc = vec![1.0, 1.0];
        m.add_column_sums_to(&mut acc);
        assert_eq!(acc, vec![5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matrix data length mismatch")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![0.0; 3]);
    }
}
