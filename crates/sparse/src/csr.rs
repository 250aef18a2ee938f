//! Compressed sparse row storage, complex and real variants.

use omen_num::c64;

/// Complex CSR matrix.
#[derive(Debug, Clone)]
pub struct CsrC {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<c64>,
}

impl CsrC {
    /// Builds from raw CSR arrays. Panics when the invariants are violated
    /// (monotone `row_ptr`, column indices in range and sorted per row).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<c64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/value length mismatch");
        assert_eq!(row_ptr[nrows], col_idx.len(), "row_ptr tail");
        for i in 0..nrows {
            assert!(row_ptr[i] <= row_ptr[i + 1], "row_ptr not monotone");
            let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly sorted in row {i}");
            }
            if let Some(&c) = cols.last() {
                assert!(c < ncols, "column index out of range");
            }
        }
        CsrC {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Entry accessor (binary search within the row); zero when absent.
    pub fn get(&self, i: usize, j: usize) -> c64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => c64::ZERO,
        }
    }

    /// Iterates `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, c64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn matvec(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.ncols, "matvec dimension mismatch");
        omen_linalg::flops::add_flops(8 * self.nnz() as u64);
        let mut y = vec![c64::ZERO; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = c64::ZERO;
            for (j, v) in self.row_iter(i) {
                acc += v * x[j];
            }
            *yi = acc;
        }
        y
    }

    /// Adjoint product `y = A† x`.
    pub fn matvec_h(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.nrows, "matvec_h dimension mismatch");
        omen_linalg::flops::add_flops(8 * self.nnz() as u64);
        let mut y = vec![c64::ZERO; self.ncols];
        for (i, &xi) in x.iter().enumerate() {
            for (j, v) in self.row_iter(i) {
                y[j] += v.conj() * xi;
            }
        }
        y
    }

    /// Densifies (for tests and small reference computations).
    pub fn to_dense(&self) -> omen_linalg::ZMat {
        let mut m = omen_linalg::ZMat::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (j, v) in self.row_iter(i) {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Maximum Hermiticity defect `max |A_ij - conj(A_ji)|` (square only).
    pub fn hermiticity_defect(&self) -> f64 {
        assert_eq!(self.nrows, self.ncols);
        let mut defect = 0.0f64;
        for i in 0..self.nrows {
            for (j, v) in self.row_iter(i) {
                defect = defect.max((v - self.get(j, i).conj()).abs());
            }
        }
        defect
    }
}

/// Real CSR matrix (Poisson substrate).
#[derive(Debug, Clone)]
pub struct CsrR {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrR {
    /// Builds from sorted triplets (duplicates summed).
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted = triplets.to_vec();
        sorted.sort_by_key(|&(i, j, _)| (i, j));
        let mut row_ptr = vec![0usize; nrows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut cursor = 0usize;
        for row in 0..nrows {
            let row_start = col_idx.len();
            while cursor < sorted.len() && sorted[cursor].0 == row {
                let (_, j, v) = sorted[cursor];
                assert!(j < ncols, "column out of range");
                cursor += 1;
                if col_idx.len() > row_start && col_idx.last() == Some(&j) {
                    if let Some(last) = values.last_mut() {
                        *last += v;
                    }
                } else {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr[row + 1] = col_idx.len();
        }
        assert_eq!(cursor, sorted.len(), "row index out of range");
        CsrR {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Entry accessor; zero when absent.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates `(col, value)` pairs of row `i`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// `y = A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols);
        omen_linalg::flops::add_flops(2 * self.nnz() as u64);
        let mut y = vec![0.0; self.nrows];
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, v) in self.row_iter(i) {
                acc += v * x[j];
            }
            *yi = acc;
        }
        y
    }

    /// Diagonal entries (zero when absent).
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn example() -> CsrC {
        let mut c = Coo::new(3, 4);
        c.push(0, 0, c64::real(2.0));
        c.push(0, 3, c64::imag(1.0));
        c.push(1, 1, c64::real(-1.0));
        c.push(2, 0, c64::new(0.5, 0.5));
        c.push(2, 2, c64::real(3.0));
        c.to_csr()
    }

    #[test]
    fn get_and_nnz() {
        let m = example();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 3), c64::imag(1.0));
        assert_eq!(m.get(0, 1), c64::ZERO);
        assert_eq!(m.get(2, 2), c64::real(3.0));
    }

    #[test]
    fn matvec_matches_dense() {
        let m = example();
        let x = vec![c64::ONE, c64::I, c64::real(2.0), c64::new(1.0, -1.0)];
        let y = m.matvec(&x);
        let d = m.to_dense();
        let yd = d.matvec(&x);
        for i in 0..3 {
            assert!((y[i] - yd[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn adjoint_inner_product_identity() {
        let m = example();
        let x = vec![c64::ONE, c64::I, c64::real(-2.0), c64::new(0.5, 1.0)];
        let y = vec![c64::new(1.0, 1.0), c64::real(2.0), c64::imag(-1.0)];
        let lhs: c64 = y.iter().zip(m.matvec(&x)).map(|(&a, b)| a.conj() * b).sum();
        let rhs: c64 = m
            .matvec_h(&y)
            .iter()
            .zip(&x)
            .map(|(a, &b)| a.conj() * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-13);
    }

    #[test]
    fn hermiticity_defect_detects() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, c64::new(1.0, 2.0));
        c.push(1, 0, c64::new(1.0, -2.0));
        assert!(c.to_csr().hermiticity_defect() < 1e-15);
        let mut c2 = Coo::new(2, 2);
        c2.push(0, 1, c64::new(1.0, 2.0));
        c2.push(1, 0, c64::new(1.0, 2.0));
        assert!((c2.to_csr().hermiticity_defect() - 4.0).abs() < 1e-14);
    }

    #[test]
    fn real_csr_from_triplets() {
        let m = CsrR::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (1, 1, 2.0),
                (0, 1, -1.0),
                (1, 0, -1.0),
                (2, 2, 1.0),
                (0, 0, 0.5),
            ],
        );
        assert_eq!(m.get(0, 0), 2.5);
        assert_eq!(m.diagonal(), vec![2.5, 2.0, 1.0]);
        let y = m.matvec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![0.5, 3.0, 3.0]);
    }

    #[test]
    #[should_panic]
    fn raw_validation_rejects_unsorted() {
        CsrC::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![c64::ONE, c64::ONE]);
    }
}
