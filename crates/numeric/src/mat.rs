//! A small dense, row-major matrix with just enough factorization support
//! for Gaussian-process regression: Cholesky decomposition, triangular
//! solves, and symmetric positive-definite linear system solution.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// A `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Build a symmetric matrix by evaluating `f(i, j)` for `j <= i` and
    /// mirroring. Useful for kernel/Gram matrices.
    pub fn from_symmetric_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = f(i, j);
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
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

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in matvec");
        let mut out = vec![0.0; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let row = self.row(r);
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// Add `value` to every diagonal entry (in place). Used to add jitter /
    /// observation noise to kernel matrices.
    pub fn add_diagonal(&mut self, value: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += value;
        }
    }

    /// Cholesky factorization `self = L * L^T` for a symmetric
    /// positive-definite matrix. Returns `None` when the matrix is not
    /// (numerically) positive definite. Only the lower triangle is read.
    pub fn cholesky(&self) -> Option<Cholesky> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        let mut ch = Cholesky::empty();
        ch.extend(self.rows, |i, j| self[(i, j)]).then_some(ch)
    }

    /// Solve the symmetric positive-definite system `self * x = b` via
    /// Cholesky, retrying with exponentially growing diagonal jitter when
    /// the matrix is numerically semi-definite. Returns `None` only if even
    /// heavy regularization fails.
    pub fn solve_spd(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(b.len(), self.rows, "rhs length must equal matrix rows");
        let mut jitter = 0.0;
        for attempt in 0..8 {
            let mut m = self.clone();
            if attempt > 0 {
                jitter = if jitter == 0.0 { 1e-10 } else { jitter * 100.0 };
                m.add_diagonal(jitter);
            }
            if let Some(ch) = m.cholesky() {
                return Some(ch.solve(b));
            }
        }
        None
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
///
/// `L` is stored packed: row `i` holds its `i + 1` entries on and below
/// the diagonal, rows back to back, `n (n + 1) / 2` values in all. Rows
/// only ever append, so [`Cholesky::extend`] grows a factor in place
/// when the factored matrix gains trailing rows and columns.
///
/// Every entry is computed with the textbook row-oriented expression:
/// `sum = a[i][j]`, then `sum -= l[i][k] * l[j][k]` for `k` ascending,
/// then a square root (diagonal) or a division by `l[j][j]`. No fused
/// multiply-add and no reassociation, so a factor grown row block by row
/// block is bit-identical to one computed in a single pass.
#[derive(Clone, Debug)]
pub struct Cholesky {
    n: usize,
    l: Vec<f64>,
}

/// Offset of row `i` in the packed lower triangle.
#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Rows [`Cholesky::extend`] computes per pass: independent subtraction
/// chains that keep the FP units busy without changing any chain's order.
const LANES: usize = 4;

/// Right-hand sides [`Cholesky::solve_lower_block`] solves per pass. Held
/// interleaved, they vectorize: 16 lanes are 8 two-wide (SSE2) chains,
/// enough to cover the subtraction latency.
const RHS_LANES: usize = 16;

impl Cholesky {
    /// The factor of a `0 x 0` matrix, ready to [`extend`](Self::extend).
    pub fn empty() -> Self {
        Self {
            n: 0,
            l: Vec::new(),
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Entry `L[i][j]` (zero above the diagonal).
    #[inline]
    pub fn l(&self, i: usize, j: usize) -> f64 {
        if j > i {
            0.0
        } else {
            self.l[row_start(i) + j]
        }
    }

    /// Row `i` of `L`, from column 0 to the diagonal.
    #[inline]
    fn row(&self, i: usize) -> &[f64] {
        &self.l[row_start(i)..row_start(i + 1)]
    }

    /// Grow the factor of the leading `dim() x dim()` block of a
    /// symmetric matrix `A` to its leading `n x n` block. `entry(i, j)`
    /// returns `A[i][j]`; it is called once for every `dim() <= i < n`,
    /// `j <= i`. Returns `false`, leaving the factor unchanged, when the
    /// `n x n` block is not (numerically) positive definite.
    ///
    /// Work is `O((n - dim()) n^2)`; the result is bit-identical to
    /// factoring the `n x n` block from scratch.
    ///
    /// # Panics
    /// Panics if `n < dim()`.
    pub fn extend(&mut self, n: usize, mut entry: impl FnMut(usize, usize) -> f64) -> bool {
        let m = self.n;
        assert!(n >= m, "extend cannot shrink a factor ({m} -> {n})");
        let l = &mut self.l;
        l.reserve_exact(row_start(n) - row_start(m));
        for i in m..n {
            l.extend((0..=i).map(|j| entry(i, j)));
        }
        // Column by column: the new rows' entries in column `j` need
        // only columns `< j` of their own row and row `j` up to its
        // diagonal, which is final once column `j`'s diagonal is.
        for j in 0..n {
            let (head, tail) = l.split_at_mut(row_start(j + 1));
            let (row_j, diag) = head[row_start(j)..].split_at_mut(j);
            if j >= m {
                let mut sum = diag[0];
                for &v in row_j.iter() {
                    sum -= v * v;
                }
                if sum <= 0.0 || !sum.is_finite() {
                    l.truncate(row_start(m));
                    return false;
                }
                diag[0] = sum.sqrt();
            }
            let (row_j, diag) = (&*row_j, diag[0]);
            // Rows below the diagonal, `LANES` at a time. `tail` starts
            // at row `j + 1`.
            let mut i = (j + 1).max(m);
            while i + LANES <= n {
                let offs: [usize; LANES] =
                    std::array::from_fn(|r| row_start(i + r) - row_start(j + 1));
                let rows: [&[f64]; LANES] = offs.map(|o| &tail[o..o + j]);
                let mut sum: [f64; LANES] = offs.map(|o| tail[o + j]);
                for (k, &v) in row_j.iter().enumerate() {
                    for r in 0..LANES {
                        sum[r] -= rows[r][k] * v;
                    }
                }
                for r in 0..LANES {
                    tail[offs[r] + j] = sum[r] / diag;
                }
                i += LANES;
            }
            for i in i..n {
                let o = row_start(i) - row_start(j + 1);
                let mut sum = tail[o + j];
                for (&a, &v) in tail[o..o + j].iter().zip(row_j) {
                    sum -= a * v;
                }
                tail[o + j] = sum / diag;
            }
        }
        self.n = n;
        true
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n);
        let mut y = b.to_vec();
        for i in 0..self.n {
            let row = self.row(i);
            let mut sum = y[i];
            for (&a, &yj) in row[..i].iter().zip(&y[..i]) {
                sum -= a * yj;
            }
            y[i] = sum / row[i];
        }
        y
    }

    /// Solve `L y = b` in place for every right-hand side in `bs`,
    /// overwriting each `b` with its `y`. Right-hand sides are
    /// interleaved so one pass over a row of `L` serves several of
    /// them; each is bit-identical to [`solve_lower`](Self::solve_lower).
    ///
    /// # Panics
    /// Panics if any right-hand side's length differs from `dim()`.
    pub fn solve_lower_block(&self, bs: &mut [Vec<f64>]) {
        let n = self.n;
        assert!(bs.iter().all(|b| b.len() == n), "rhs length must equal dim");
        // Lane `r` of `ys[k]` is entry `k` of the group's `r`-th
        // right-hand side (zero in lanes a short last group leaves
        // unused): the inner loop is one independent subtraction per
        // lane, which the compiler turns into packed SIMD arithmetic.
        let mut ys: Vec<[f64; RHS_LANES]> = vec![[0.0; RHS_LANES]; n];
        for group in bs.chunks_mut(RHS_LANES) {
            for (k, y) in ys.iter_mut().enumerate() {
                *y = std::array::from_fn(|r| group.get(r).map_or(0.0, |b| b[k]));
            }
            for i in 0..n {
                let row = self.row(i);
                let (done, rest) = ys.split_at_mut(i);
                let mut sum = rest[0];
                for (&a, y) in row[..i].iter().zip(done.iter()) {
                    for r in 0..RHS_LANES {
                        sum[r] -= a * y[r];
                    }
                }
                let d = row[i];
                rest[0] = sum.map(|s| s / d);
            }
            for (r, b) in group.iter_mut().enumerate() {
                for (bk, y) in b.iter_mut().zip(&ys) {
                    *bk = y[r];
                }
            }
        }
    }

    /// Solve `L^T x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.n);
        let n = self.n;
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = y[i];
            // Down column `i`: `L[j][i]` sits `j + 1` values after
            // `L[j - 1][i]`.
            let mut at = row_start(i + 1) + i;
            for (j, &xj) in x.iter().enumerate().skip(i + 1) {
                sum -= self.l[at] * xj;
                at += j + 1;
            }
            x[i] = sum / self.l[row_start(i) + i];
        }
        x
    }

    /// Solve `A x = b` where `A = L L^T`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log(det(A)) = 2 * sum(log(diag(L)))`.
    pub fn log_det(&self) -> f64 {
        (0..self.n)
            .map(|i| self.l[row_start(i) + i].ln())
            .sum::<f64>()
            * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn identity_solves_trivially() {
        let m = Matrix::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        let x = m.solve_spd(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!(approx(*xi, *bi, 1e-12));
        }
    }

    #[test]
    fn cholesky_of_known_matrix() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let m = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let ch = m.cholesky().unwrap();
        assert!(approx(ch.l(0, 0), 2.0, 1e-12));
        assert!(approx(ch.l(1, 0), 1.0, 1e-12));
        assert!(approx(ch.l(1, 1), 2.0f64.sqrt(), 1e-12));
        assert!(approx(ch.l(0, 1), 0.0, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(m.cholesky().is_none());
    }

    #[test]
    fn solve_spd_roundtrip() {
        let m = Matrix::from_vec(3, 3, vec![6.0, 2.0, 1.0, 2.0, 5.0, 2.0, 1.0, 2.0, 4.0]);
        let x_true = vec![1.0, -1.0, 2.0];
        let b = m.matvec(&x_true);
        let x = m.solve_spd(&b).unwrap();
        for (a, e) in x.iter().zip(&x_true) {
            assert!(approx(*a, *e, 1e-10), "{a} vs {e}");
        }
    }

    #[test]
    fn solve_spd_recovers_with_jitter_on_semidefinite() {
        // Rank-1 matrix: xx^T with x = (1, 1); semi-definite. The jitter
        // retry must still produce a finite solution.
        let m = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]);
        let x = m.solve_spd(&[2.0, 2.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_det_matches_direct_determinant() {
        let m = Matrix::from_vec(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let ch = m.cholesky().unwrap();
        // det = 4*3 - 2*2 = 8
        assert!(approx(ch.log_det(), 8.0f64.ln(), 1e-12));
    }

    #[test]
    fn from_symmetric_fn_is_symmetric() {
        let m = Matrix::from_symmetric_fn(5, |i, j| (i * 7 + j * 3) as f64);
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    #[test]
    fn matvec_known_product() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let v = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(v, vec![-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_panics_on_dim_mismatch() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
