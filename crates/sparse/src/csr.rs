//! Compressed sparse row storage of the real Poisson operator.

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
}
