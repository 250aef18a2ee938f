//! Triplet (coordinate) format used during Hamiltonian assembly.

use omen_num::c64;

/// A growable complex sparse matrix in coordinate format.
///
/// Duplicate entries are allowed while building and are summed on conversion
/// to CSR — convenient for accumulating Slater–Koster bond contributions and
/// self-energy corrections onto the same orbital pair.
#[derive(Debug, Clone)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, c64)>,
}

impl Coo {
    /// Empty `nrows × ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            entries: Vec::new(),
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

    /// Accumulates `v` at `(i, j)`.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: c64) {
        debug_assert!(i < self.nrows && j < self.ncols, "coo index out of range");
        if v != c64::ZERO {
            self.entries.push((i, j, v));
        }
    }

    /// Converts to CSR, summing duplicates and dropping exact zeros.
    pub fn to_csr(&self) -> crate::csr::CsrC {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(i, j, _)| (i, j));

        let mut row_ptr = vec![0usize; self.nrows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values: Vec<c64> = Vec::with_capacity(sorted.len());

        let mut cursor = 0usize;
        for row in 0..self.nrows {
            let row_start = col_idx.len();
            while cursor < sorted.len() && sorted[cursor].0 == row {
                let (_, j, v) = sorted[cursor];
                cursor += 1;
                // Merge with previous entry of the same row/column.
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

        crate::csr::CsrC::from_raw(self.nrows, self.ncols, row_ptr, col_idx, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_convert() {
        let mut c = Coo::new(3, 3);
        c.push(0, 0, c64::real(1.0));
        c.push(2, 1, c64::imag(2.0));
        c.push(0, 0, c64::real(0.5)); // duplicate accumulates
        c.push(1, 2, c64::real(-1.0));
        let m = c.to_csr();
        assert_eq!(m.get(0, 0), c64::real(1.5));
        assert_eq!(m.get(2, 1), c64::imag(2.0));
        assert_eq!(m.get(1, 2), c64::real(-1.0));
        assert_eq!(m.get(1, 1), c64::ZERO);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn zero_entries_dropped() {
        let mut c = Coo::new(2, 2);
        c.push(0, 1, c64::ZERO);
        c.push(1, 0, c64::ONE);
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.to_csr().nnz(), 1);
    }

    #[test]
    fn empty_rows_handled() {
        let mut c = Coo::new(5, 5);
        c.push(4, 4, c64::ONE);
        let m = c.to_csr();
        assert_eq!(m.get(4, 4), c64::ONE);
        assert_eq!(m.nnz(), 1);
        // matvec with mostly-empty matrix
        let x = vec![c64::ONE; 5];
        let y = m.matvec(&x);
        assert_eq!(y[0], c64::ZERO);
        assert_eq!(y[4], c64::ONE);
    }
}
