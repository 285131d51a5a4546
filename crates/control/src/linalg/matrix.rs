//! A small dense, row-major, dynamically sized matrix of `f64`.
//!
//! The control substrate only ever manipulates small matrices (plant order
//! plus a handful of augmented delay states, i.e. well below 20x20), so a
//! simple dense representation without external dependencies is the right
//! tool.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use tsn_control::linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, -1.0]]);
/// let b = Matrix::identity(2);
/// let c = &a * &b;
/// assert_eq!(c, a);
/// assert_eq!(c[(0, 1)], 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from explicit rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a column vector from a slice.
    pub fn column(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "vector must not be empty");
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diagonal(values: &[f64]) -> Self {
        let mut m = Matrix::zeros(values.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// The raw row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Multiplies every entry by a scalar.
    pub fn scale(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// The Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// The maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// The infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self[(i, j)].abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Returns `true` if all entries are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Copies `block` into this matrix with its top-left corner at
    /// `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block does not fit.
    pub fn set_block(&mut self, row: usize, col: usize, block: &Matrix) {
        assert!(
            row + block.rows <= self.rows && col + block.cols <= self.cols,
            "block does not fit at the requested position"
        );
        for i in 0..block.rows {
            for j in 0..block.cols {
                self[(row + i, col + j)] = block[(i, j)];
            }
        }
    }

    /// Extracts the block of size `rows x cols` whose top-left corner is at
    /// `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the block exceeds the matrix bounds.
    pub fn block(&self, row: usize, col: usize, rows: usize, cols: usize) -> Matrix {
        assert!(
            row + rows <= self.rows && col + cols <= self.cols,
            "requested block exceeds matrix bounds"
        );
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                out[(i, j)] = self[(row + i, col + j)];
            }
        }
        out
    }

    /// Symmetrizes the matrix in place: `A <- (A + A^T) / 2`.
    ///
    /// Used to remove floating-point asymmetry from Lyapunov/Riccati
    /// iterates.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "only square matrices can be symmetrized");
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix addition requires equal dimensions"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "matrix subtraction requires equal dimensions"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, rhs.rows,
            "matrix product dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += aik * rhs[(k, j)];
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert!(m.is_square());
        let v = Matrix::column(&[1.0, 2.0, 3.0]);
        assert_eq!((v.rows(), v.cols()), (3, 1));
        let d = Matrix::diagonal(&[2.0, 5.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(1, 1)], 5.0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(&a * &i, a);
        assert_eq!(&i * &a, a);
        let zero = Matrix::zeros(2, 2);
        assert_eq!(&a + &zero, a);
        assert_eq!(&a - &a, zero);
        assert_eq!((&a).neg(), a.scale(-1.0));
    }

    #[test]
    fn multiplication_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = &a * &b;
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-12);
        assert_eq!(a.norm_max(), 4.0);
        assert_eq!(a.norm_inf(), 7.0);
        assert!(a.is_finite());
        let mut b = a.clone();
        b[(0, 0)] = f64::NAN;
        assert!(!b.is_finite());
    }

    #[test]
    fn blocks() {
        let mut m = Matrix::zeros(3, 3);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        m.set_block(1, 1, &b);
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 4.0);
        assert_eq!(m.block(1, 1, 2, 2), b);
    }

    #[test]
    fn symmetrize() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn product_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = &a * &b;
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn sum_dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let _ = &a + &b;
    }
}
