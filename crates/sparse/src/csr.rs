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
    /// Builds from triplets in any order, duplicates summed in the order
    /// given.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut sorted = triplets.to_vec();
        sorted.sort_by_key(|&(i, _, _)| i);
        assert!(sorted.iter().all(|t| t.0 < nrows), "row index out of range");
        let mut rest = sorted.as_slice();
        Self::from_rows(
            ncols,
            (0..nrows).map(|i| {
                let (row, tail) = rest.split_at(rest.partition_point(|t| t.0 == i));
                rest = tail;
                row.iter().map(|&(_, j, v)| (j, v))
            }),
        )
    }

    /// Builds row by row: row `i` holds the `(column, value)` entries of
    /// the `i`-th item of `rows`, sorted by column here, a repeated column
    /// summed in the order given. A caller that produces its rows in order
    /// needs no triplet list.
    pub fn from_rows<R>(ncols: usize, rows: impl IntoIterator<Item = R>) -> Self
    where
        R: IntoIterator<Item = (usize, f64)>,
    {
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut row: Vec<(usize, f64)> = Vec::new();
        for entries in rows {
            row.clear();
            row.extend(entries);
            row.sort_by_key(|&(j, _)| j);
            let row_start = col_idx.len();
            for &(j, v) in &row {
                assert!(j < ncols, "column out of range");
                match values.last_mut() {
                    Some(last) if col_idx.len() > row_start && col_idx.last() == Some(&j) => {
                        *last += v;
                    }
                    _ => {
                        col_idx.push(j);
                        values.push(v);
                    }
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrR {
            nrows: row_ptr.len() - 1,
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
        self.position(i, j).map_or(0.0, |k| self.values[k])
    }

    /// Index of the stored entry `(i, j)` in [`CsrR::values_mut`], `None`
    /// when absent.
    pub fn position(&self, i: usize, j: usize) -> Option<usize> {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi].binary_search(&j).ok().map(|k| lo + k)
    }

    /// The stored values, row by row: a matrix with this sparsity pattern
    /// takes new values without being rebuilt.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
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
        assert_eq!(m.position(0, 1), Some(1));
        assert_eq!(m.position(0, 2), None);

        // Row by row, unsorted within a row, a repeated column summed in
        // order: the same matrix.
        let rows = [
            vec![(1, -1.0), (0, 2.0), (0, 0.5)],
            vec![(1, 2.0), (0, -1.0)],
            vec![(2, 1.0)],
        ];
        let r = CsrR::from_rows(3, rows);
        assert_eq!((r.nrows(), r.nnz()), (3, m.nnz()));
        for i in 0..3 {
            assert!(r.row_iter(i).eq(m.row_iter(i)), "row {i}");
        }
    }
}
