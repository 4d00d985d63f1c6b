//! Dense row-major `f32` matrix used as the value type of the autograd
//! engine.
//!
//! The whole neural-network substrate is built on 2-D matrices: the row
//! dimension carries the mini-batch, the column dimension carries features.
//! Time is handled by the layers (e.g. [`crate::layers::Lstm`]) looping over
//! per-step matrices, which keeps the engine small and the memory layout
//! obvious — in the spirit of smoltcp's "simplicity and robustness" design
//! goals.

use serde::{Deserialize, Serialize};

/// A dense, row-major matrix of `f32`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows (usually the mini-batch size).
    pub rows: usize,
    /// Number of columns (feature dimension).
    pub cols: usize,
    /// Row-major storage; `data.len() == rows * cols`.
    pub data: Vec<f32>,
}

impl Default for Matrix {
    /// An empty `0 x 0` matrix with no storage. Used as the placeholder
    /// when buffers are temporarily moved out of the plan arena.
    fn default() -> Self {
        Matrix {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }
}

impl Matrix {
    /// An all-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Build a `1 x n` row vector.
    pub fn row(data: Vec<f32>) -> Self {
        Matrix {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element at `(r, c)`.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// A view of row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Shape as a `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Matrix product `self * rhs`.
    ///
    /// Dispatches to the register-tiled, cache-blocked kernel in
    /// [`crate::kernels`], which goes row-parallel above a fixed size
    /// threshold. Accumulation order per output element is `k`-ascending
    /// — identical to [`Matrix::matmul_naive`] and independent of the
    /// thread count, so results are bitwise reproducible.
    ///
    /// # Panics
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        crate::kernels::gemm_nn(self, rhs)
    }

    /// `self^T * rhs` without materializing the transpose.
    ///
    /// Blocked kernel; see [`Matrix::matmul`] for the determinism
    /// contract (accumulation is `r`-ascending, matching
    /// [`Matrix::matmul_tn_naive`]).
    pub fn matmul_tn(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        crate::kernels::gemm_tn(self, rhs)
    }

    /// `self * rhs^T` without materializing the transpose.
    ///
    /// Blocked kernel using eight-lane partial-sum dot products: run-to-
    /// run deterministic and thread-count independent, but reassociated
    /// relative to [`Matrix::matmul_nt_naive`] (agreement ~1e-5
    /// relative).
    pub fn matmul_nt(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        crate::kernels::gemm_nt(self, rhs)
    }

    /// Reference `self * rhs`: the original i-k-j scalar loop. Retained
    /// as the ground truth for property tests and as the benchmark
    /// baseline; never called by the library itself.
    pub fn matmul_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let brow = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `self^T * rhs` (original scalar loop); see
    /// [`Matrix::matmul_naive`].
    pub fn matmul_tn_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for r in 0..self.rows {
            let arow = &self.data[r * self.cols..(r + 1) * self.cols];
            let brow = &rhs.data[r * rhs.cols..(r + 1) * rhs.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in orow.iter_mut().zip(brow.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Reference `self * rhs^T` (original scalar loop); see
    /// [`Matrix::matmul_naive`].
    pub fn matmul_nt_naive(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_nt shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..rhs.rows {
                let brow = &rhs.data[j * rhs.cols..(j + 1) * rhs.cols];
                let mut acc = 0.0;
                for (&a, &b) in arow.iter().zip(brow.iter()) {
                    acc += a * b;
                }
                out.data[i * rhs.rows + j] = acc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// In-place `self += rhs`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }

    /// In-place `self *= s`.
    pub fn scale_assign(&mut self, s: f32) {
        for a in self.data.iter_mut() {
            *a *= s;
        }
    }

    /// Mean of all elements. Returns 0 for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }

    /// Frobenius-norm squared.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![58., 64., 139., 154.]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_vec(3, 2, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect());
        assert_eq!(a.matmul_nt(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn mean_and_norms() {
        let a = Matrix::from_vec(1, 4, vec![1., 2., 3., 4.]);
        assert!((a.mean() - 2.5).abs() < 1e-6);
        assert!((a.norm_sq() - 30.0).abs() < 1e-6);
        assert!(!a.has_non_finite());
        let b = Matrix::from_vec(1, 1, vec![f32::NAN]);
        assert!(b.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
