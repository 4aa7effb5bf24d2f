//! A minimal row-major `f32` matrix.

use crate::SimRng;

/// A dense, row-major `f32` matrix.
///
/// This is intentionally small: only the operations the transformer substrate
/// and the ITQ trainer need are provided. All dimensions are checked with
/// panics (this is simulation code; shape bugs should fail loudly).
///
/// # Example
///
/// ```
/// use longsight_tensor::Matrix;
///
/// let i = Matrix::identity(3);
/// let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![7.0, 8.0, 9.0]]);
/// assert_eq!(i.matmul(&m).data(), m.data());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n × n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot build a matrix from zero rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix with i.i.d. standard-Gaussian entries.
    pub fn random_gaussian(rows: usize, cols: usize, rng: &mut SimRng) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.normal() as f32)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "column index out of bounds");
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Dense matrix–matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order keeps the inner loop streaming over contiguous rows.
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
            for (k, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · rhs` without materializing the transpose.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)`: every output element
    /// accumulates over the shared row index in ascending order and skips
    /// zero entries of `self`, exactly as [`Matrix::matmul`] does.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, rhs.rows,
            "transpose_matmul shape mismatch: ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        for (a_row, b_row) in self.iter_rows().zip(rhs.iter_rows()) {
            for (out_row, &a) in out.data.chunks_exact_mut(rhs.cols).zip(a_row) {
                if a == 0.0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix–vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        self.iter_rows()
            .map(|row| crate::vecops::dot(row, v))
            .collect()
    }

    /// Vector–matrix product `v · self` (treats `v` as a row vector).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.rows, "vecmat shape mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, &x) in v.iter().enumerate() {
            if x == 0.0 {
                continue;
            }
            for (o, &m) in out.iter_mut().zip(self.row(r)) {
                *o += x * m;
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every element by `s` in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Maximum absolute element difference against `rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> f32 {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "max_abs_diff shape mismatch"
        );
        self.data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Mean of each column (the centroid of the row vectors).
    pub fn col_means(&self) -> Vec<f32> {
        let mut means = vec![0.0f32; self.cols];
        for row in self.iter_rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        let n = self.rows.max(1) as f32;
        for m in &mut means {
            *m /= n;
        }
        means
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(Matrix::identity(2).matmul(&m), m);
        assert_eq!(m.matmul(&Matrix::identity(2)), m);
    }

    #[test]
    fn transpose_twice_round_trips() {
        let mut rng = SimRng::seed_from(1);
        let m = Matrix::random_gaussian(5, 7, &mut rng);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let mut rng = SimRng::seed_from(2);
        let m = Matrix::random_gaussian(4, 6, &mut rng);
        let v: Vec<f32> = (0..6).map(|i| i as f32 * 0.5 - 1.0).collect();
        let as_col = Matrix::from_vec(6, 1, v.clone());
        let prod = m.matmul(&as_col);
        let mv = m.matvec(&v);
        for (a, b) in prod.data().iter().zip(&mv) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn vecmat_matches_transpose_matvec() {
        let mut rng = SimRng::seed_from(3);
        let m = Matrix::random_gaussian(4, 6, &mut rng);
        let v: Vec<f32> = (0..4).map(|i| (i as f32).sin()).collect();
        let a = m.vecmat(&v);
        let b = m.transpose().matvec(&v);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_matmul_is_bit_identical_to_transposing_first() {
        let mut rng = SimRng::seed_from(4);
        let mut a = Matrix::random_gaussian(37, 11, &mut rng);
        for r in (0..37).step_by(3) {
            a.set(r, r % 11, 0.0);
            a.set(r, (r + 1) % 11, -0.0);
        }
        let b = Matrix::from_fn(37, 5, |r, c| if (r * 7 + c) % 3 == 0 { -1.0 } else { 1.0 });
        let bits = |m: &Matrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.transpose_matmul(&b)),
            bits(&a.transpose().matmul(&b))
        );
    }

    #[test]
    fn col_means_of_constant_rows() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.col_means(), vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn index_operators_match_accessors() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m[(1, 0)], 3.0);
        m[(0, 1)] = 9.0;
        assert_eq!(m.get(0, 1), 9.0);
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::from_rows(&[vec![1.0, -1.0]]);
        let mut b = a.add(&a);
        assert_eq!(b.data(), &[2.0, -2.0]);
        b.scale_in_place(0.5);
        assert_eq!(b.data(), &[1.0, -1.0]);
    }
}
