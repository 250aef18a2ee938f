//! Dense row-major complex matrix.

use omen_num::c64;
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A dense `nrows × ncols` complex matrix stored row-major.
///
/// `ZMat` is the block type of every transport kernel: Hamiltonian slab
/// blocks, Green's function blocks, self-energies, mode matrices. Blocks in
/// nanoelectronic devices are typically 40–4000 rows, so the storage is a
/// single contiguous `Vec<c64>` with row-major layout (friendly to the `ikj`
/// GEMM loop order used in [`mod@crate::gemm`]).
#[derive(Clone, PartialEq)]
pub struct ZMat {
    nrows: usize,
    ncols: usize,
    data: Vec<c64>,
}

impl ZMat {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        ZMat {
            nrows,
            ncols,
            data: vec![c64::ZERO; nrows * ncols],
        }
    }

    /// The `n × n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = ZMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64::ONE;
        }
        m
    }

    /// `n × n` diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[c64]) -> Self {
        let n = diag.len();
        let mut m = ZMat::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> c64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        ZMat { nrows, ncols, data }
    }

    /// Builds from a nested slice of rows (each row must have equal length).
    pub fn from_rows(rows: &[Vec<c64>]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        ZMat { nrows, ncols, data }
    }

    /// Takes ownership of a row-major buffer.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<c64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "buffer size mismatch");
        ZMat { nrows, ncols, data }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Raw row-major data.
    #[inline(always)]
    pub fn data(&self) -> &[c64] {
        &self.data
    }

    /// Mutable raw row-major data.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [c64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[c64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Row `i` as a mutable slice.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [c64] {
        &mut self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Column `j` copied into a `Vec`.
    pub fn col(&self, j: usize) -> Vec<c64> {
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// Copies the `nr × nc` block whose top-left corner is `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> ZMat {
        assert!(
            r0 + nr <= self.nrows && c0 + nc <= self.ncols,
            "block out of range"
        );
        let mut out = ZMat::zeros(nr, nc);
        for i in 0..nr {
            out.row_mut(i)
                .copy_from_slice(&self.row(r0 + i)[c0..c0 + nc]);
        }
        out
    }

    /// Copies the listed rows, in list order, into a `rows.len() × ncols`
    /// matrix.
    pub fn select_rows(&self, rows: &[usize]) -> ZMat {
        let mut out = ZMat::zeros(rows.len(), self.ncols);
        for (k, &i) in rows.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Copies the listed columns, in list order, into an
    /// `nrows × cols.len()` matrix.
    pub fn select_cols(&self, cols: &[usize]) -> ZMat {
        let mut out = ZMat::zeros(self.nrows, cols.len());
        for i in 0..self.nrows {
            let src = self.row(i);
            for (d, &j) in out.row_mut(i).iter_mut().zip(cols) {
                *d = src[j];
            }
        }
        out
    }

    /// The submatrix `M[rows, cols]`, in list order.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> ZMat {
        let mut out = ZMat::zeros(rows.len(), cols.len());
        for (k, &i) in rows.iter().enumerate() {
            let src = self.row(i);
            for (d, &j) in out.row_mut(k).iter_mut().zip(cols) {
                *d = src[j];
            }
        }
        out
    }

    /// The principal submatrix `M[idx, idx]`.
    pub fn principal(&self, idx: &[usize]) -> ZMat {
        self.submatrix(idx, idx)
    }

    /// Which rows and which columns hold a non-zero entry (`−0.0` is a
    /// zero), from one row-major pass over the data.
    fn hits(&self) -> (Vec<bool>, Vec<bool>) {
        let mut row_hit = vec![false; self.nrows];
        let mut col_hit = vec![false; self.ncols];
        for (i, row_hit) in row_hit.iter_mut().enumerate() {
            for (col_hit, &v) in col_hit.iter_mut().zip(self.row(i)) {
                if v != c64::ZERO {
                    *row_hit = true;
                    *col_hit = true;
                }
            }
        }
        (row_hit, col_hit)
    }

    /// Row and column supports: the ascending indices of the rows, and of
    /// the columns, that are not identically zero. With `(R, C)` the pair,
    /// `M = P_R·M[R,C]·P_Cᵀ` holds exactly ([`Self::submatrix`]), so a
    /// product against `M` only ever needs the `R` columns of its left
    /// factor and the `C` rows of its right one.
    pub fn supports(&self) -> (Vec<usize>, Vec<usize>) {
        let (row_hit, col_hit) = self.hits();
        let indices = |hit: &[bool]| (0..hit.len()).filter(|&i| hit[i]).collect();
        (indices(&row_hit), indices(&col_hit))
    }

    /// Support of a square matrix: the ascending indices `i` whose row or
    /// column is not identically zero — the union of [`Self::supports`].
    /// With `S` the support, `M = P·M[S,S]·Pᵀ` holds exactly
    /// ([`Self::principal`]).
    pub fn support(&self) -> Vec<usize> {
        assert!(self.is_square(), "support of a non-square matrix");
        let (row_hit, col_hit) = self.hits();
        (0..self.nrows)
            .filter(|&i| row_hit[i] || col_hit[i])
            .collect()
    }

    /// Writes `b` into the block whose top-left corner is `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, b: &ZMat) {
        assert!(
            r0 + b.nrows <= self.nrows && c0 + b.ncols <= self.ncols,
            "block out of range"
        );
        for i in 0..b.nrows {
            self.row_mut(r0 + i)[c0..c0 + b.ncols].copy_from_slice(b.row(i));
        }
    }

    /// Plain transpose.
    pub fn transpose(&self) -> ZMat {
        ZMat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate (Hermitian) transpose `A†`.
    pub fn adjoint(&self) -> ZMat {
        ZMat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Element-wise conjugate.
    pub fn conj(&self) -> ZMat {
        ZMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Scales every element by the complex scalar `s` in place.
    pub fn scale_inplace(&mut self, s: c64) {
        for z in &mut self.data {
            *z *= s;
        }
    }

    /// Returns `s · A`.
    pub fn scaled(&self, s: c64) -> ZMat {
        let mut out = self.clone();
        out.scale_inplace(s);
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Largest element magnitude.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |m, z| m.max(z.abs()))
    }

    /// Trace (sum of diagonal elements); requires square.
    pub fn trace(&self) -> c64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.nrows).map(|i| self[(i, i)]).sum()
    }

    /// True when `‖A - A†‖_max ≤ tol`.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.nrows {
            for j in i..self.ncols {
                if (self[(i, j)] - self[(j, i)].conj()).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Hermitian part `(A + A†)/2`.
    pub fn hermitian_part(&self) -> ZMat {
        assert!(self.is_square());
        ZMat::from_fn(self.nrows, self.ncols, |i, j| {
            (self[(i, j)] + self[(j, i)].conj()).scale(0.5)
        })
    }

    /// Anti-Hermitian spectral combination `i (A - A†)` — e.g. the broadening
    /// matrix `Γ = i(Σ - Σ†)` of a contact self-energy.
    pub fn gamma_of(&self) -> ZMat {
        assert!(self.is_square());
        ZMat::from_fn(self.nrows, self.ncols, |i, j| {
            c64::I * (self[(i, j)] - self[(j, i)].conj())
        })
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch");
        crate::flops::add_flops(8 * (self.nrows * self.ncols) as u64);
        let mut y = vec![c64::ZERO; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = c64::ZERO;
            for (a, &xv) in self.row(i).iter().zip(x) {
                acc += *a * xv;
            }
            *yi = acc;
        }
        y
    }

    /// Adjoint matrix–vector product `A† x`.
    pub fn matvec_h(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.nrows, "dimension mismatch");
        crate::flops::add_flops(8 * (self.nrows * self.ncols) as u64);
        let mut y = vec![c64::ZERO; self.ncols];
        for (i, &xi) in x.iter().enumerate() {
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += a.conj() * xi;
            }
        }
        y
    }
}

impl Index<(usize, usize)> for ZMat {
    type Output = c64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &c64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for ZMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut c64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i * self.ncols + j]
    }
}

impl fmt::Debug for ZMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ZMat {}x{} [", self.nrows, self.ncols)?;
        let show = self.nrows.min(8);
        for i in 0..show {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(8) {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.ncols > 8 { "…" } else { "" })?;
        }
        if self.nrows > 8 {
            writeln!(f, "  ⋮")?;
        }
        write!(f, "]")
    }
}

macro_rules! elementwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&ZMat> for &ZMat {
            type Output = ZMat;
            fn $method(self, o: &ZMat) -> ZMat {
                assert_eq!((self.nrows, self.ncols), (o.nrows, o.ncols), "shape mismatch");
                ZMat {
                    nrows: self.nrows,
                    ncols: self.ncols,
                    data: self.data.iter().zip(&o.data).map(|(&a, &b)| a $op b).collect(),
                }
            }
        }
        impl $trait for ZMat {
            type Output = ZMat;
            fn $method(self, o: ZMat) -> ZMat { (&self).$method(&o) }
        }
    };
}
elementwise!(Add, add, +);
elementwise!(Sub, sub, -);

impl AddAssign<&ZMat> for ZMat {
    fn add_assign(&mut self, o: &ZMat) {
        assert_eq!(
            (self.nrows, self.ncols),
            (o.nrows, o.ncols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&o.data) {
            *a += b;
        }
    }
}

impl SubAssign<&ZMat> for ZMat {
    fn sub_assign(&mut self, o: &ZMat) {
        assert_eq!(
            (self.nrows, self.ncols),
            (o.nrows, o.ncols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&o.data) {
            *a -= b;
        }
    }
}

impl Neg for &ZMat {
    type Output = ZMat;
    fn neg(self) -> ZMat {
        ZMat {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|&z| -z).collect(),
        }
    }
}

impl Neg for ZMat {
    type Output = ZMat;
    fn neg(self) -> ZMat {
        -&self
    }
}

/// `&A * &B` delegates to the blocked GEMM kernel.
impl Mul<&ZMat> for &ZMat {
    type Output = ZMat;
    fn mul(self, o: &ZMat) -> ZMat {
        crate::gemm::matmul(self, o)
    }
}

impl Mul for ZMat {
    type Output = ZMat;
    fn mul(self, o: ZMat) -> ZMat {
        crate::gemm::matmul(&self, &o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: &[&[f64]]) -> ZMat {
        ZMat::from_fn(rows.len(), rows[0].len(), |i, j| c64::real(rows[i][j]))
    }

    #[test]
    fn construction_and_indexing() {
        let a = ZMat::from_fn(2, 3, |i, j| c64::new(i as f64, j as f64));
        assert_eq!(a.nrows(), 2);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a[(1, 2)], c64::new(1.0, 2.0));
        let e = ZMat::eye(3);
        assert_eq!(e.trace(), c64::real(3.0));
    }

    #[test]
    fn support_and_selection() {
        // Row 1 and column 3 carry the only nonzeros: the support is the
        // union, and the matrix is its principal submatrix scattered back.
        let a = m(&[
            &[0.0, 0.0, 0.0, 0.0],
            &[2.0, 0.0, 0.0, 5.0],
            &[0.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 7.0],
        ]);
        assert_eq!(a.support(), vec![0, 1, 3]);
        let s = a.support();
        let sub = a.principal(&s);
        assert_eq!(
            sub,
            m(&[&[0.0, 0.0, 0.0], &[2.0, 0.0, 5.0], &[0.0, 0.0, 7.0]])
        );
        assert_eq!(a.select_cols(&[3, 0]).col(0), a.col(3));
        assert_eq!(a.select_rows(&[3, 1]).row(1), a.row(1));
        // Empty selections and the zero matrix are n × 0 / empty, not errors.
        assert!(ZMat::zeros(3, 3).support().is_empty());
        let none = a.select_cols(&[]);
        assert_eq!((none.nrows(), none.ncols()), (4, 0));

        // Rows and columns separately, on rectangular input; a `−0.0` of
        // either part is a zero. The matrix is its submatrix scattered back.
        assert_eq!(a.supports(), (vec![1, 3], vec![0, 3]));
        let mut r = ZMat::zeros(3, 5);
        r[(0, 4)] = c64::real(1.5);
        r[(2, 1)] = c64::new(0.0, -2.0);
        r[(1, 2)] = c64::new(-0.0, -0.0);
        r[(2, 3)] = c64::real(-0.0);
        let (rows, cols) = r.supports();
        assert_eq!((rows.clone(), cols.clone()), (vec![0, 2], vec![1, 4]));
        let core = r.submatrix(&rows, &cols);
        assert_eq!(
            core,
            ZMat::from_rows(&[
                vec![c64::ZERO, c64::real(1.5)],
                vec![c64::new(0.0, -2.0), c64::ZERO],
            ])
        );
        let mut back = ZMat::zeros(3, 5);
        for (k, &i) in rows.iter().enumerate() {
            for (l, &j) in cols.iter().enumerate() {
                back[(i, j)] = core[(k, l)];
            }
        }
        assert_eq!(back, r);
        assert_eq!(ZMat::zeros(2, 7).supports(), (vec![], vec![]));
        let mut z = ZMat::zeros(3, 3);
        z[(1, 2)] = c64::real(-0.0);
        assert!(z.support().is_empty());
    }

    #[test]
    fn block_roundtrip() {
        let a = ZMat::from_fn(5, 5, |i, j| c64::new((i * 5 + j) as f64, 0.0));
        let b = a.block(1, 2, 3, 2);
        assert_eq!(b[(0, 0)], a[(1, 2)]);
        assert_eq!(b[(2, 1)], a[(3, 3)]);
        let mut c = ZMat::zeros(5, 5);
        c.set_block(1, 2, &b);
        assert_eq!(c[(3, 3)], a[(3, 3)]);
        assert_eq!(c[(0, 0)], c64::ZERO);
    }

    #[test]
    fn adjoint_properties() {
        let a = ZMat::from_fn(3, 2, |i, j| c64::new(i as f64, j as f64 + 1.0));
        let ah = a.adjoint();
        assert_eq!(ah.nrows(), 2);
        for i in 0..3 {
            for j in 0..2 {
                assert_eq!(ah[(j, i)], a[(i, j)].conj());
            }
        }
        // (A†)† = A
        assert_eq!(ah.adjoint(), a);
    }

    #[test]
    fn hermitian_checks() {
        let h = ZMat::from_rows(&[
            vec![c64::real(1.0), c64::new(0.0, 2.0)],
            vec![c64::new(0.0, -2.0), c64::real(-0.5)],
        ]);
        assert!(h.is_hermitian(1e-15));
        let mut nh = h.clone();
        nh[(0, 1)] += c64::real(1e-3);
        assert!(!nh.is_hermitian(1e-6));
        assert!(nh.hermitian_part().is_hermitian(1e-15));
    }

    #[test]
    fn gamma_is_hermitian_and_traces_correctly() {
        let s = ZMat::from_fn(3, 3, |i, j| {
            c64::new((i + j) as f64, (i as f64) - (j as f64) * 0.5)
        });
        let g = s.gamma_of();
        assert!(g.is_hermitian(1e-13));
        // Tr Γ = i Tr(Σ - Σ†) = -2 Im Tr Σ
        let expect = -2.0 * s.trace().im;
        assert!((g.trace().re - expect).abs() < 1e-12);
    }

    #[test]
    fn matvec_and_adjoint_matvec_consistency() {
        let a = ZMat::from_fn(3, 4, |i, j| c64::new(i as f64 - j as f64, 0.3 * j as f64));
        let x = vec![
            c64::new(1.0, 0.0),
            c64::new(0.0, 1.0),
            c64::new(-1.0, 0.5),
            c64::new(2.0, -2.0),
        ];
        let y = vec![c64::new(0.5, 0.5), c64::new(1.0, -1.0), c64::new(0.0, 2.0)];
        // <y, A x> == <A† y, x>
        let lhs: c64 = y
            .iter()
            .zip(a.matvec(&x))
            .map(|(&yi, axi)| yi.conj() * axi)
            .sum();
        let rhs: c64 = a
            .matvec_h(&y)
            .iter()
            .zip(&x)
            .map(|(ahy, &xi)| ahy.conj() * xi)
            .sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn elementwise_ops() {
        let a = m(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = m(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let s = &a + &b;
        assert_eq!(s[(1, 1)], c64::real(12.0));
        let d = &b - &a;
        assert_eq!(d[(0, 0)], c64::real(4.0));
        let n = -&a;
        assert_eq!(n[(1, 0)], c64::real(-3.0));
        let mut c = a.clone();
        c += &b;
        c -= &a;
        assert_eq!(c, b);
    }

    #[test]
    fn norms() {
        let a = m(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = ZMat::zeros(2, 2);
        let b = ZMat::zeros(3, 3);
        let _ = &a + &b;
    }
}
