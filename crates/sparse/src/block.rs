//! Block-tridiagonal matrix view of a slab-ordered device Hamiltonian.
//!
//! With atoms ordered by transport slab, a nearest-neighbor tight-binding
//! Hamiltonian couples slab `i` only to slabs `i±1`:
//!
//! ```text
//!     ⎡ D₀  U₀          ⎤
//! A = ⎢ L₀  D₁  U₁      ⎥      Lᵢ couples slab i+1 ← i,
//!     ⎢     L₁  D₂  U₂  ⎥      Uᵢ couples slab i   ← i+1.
//!     ⎣         L₂  D₃  ⎦
//! ```
//!
//! This is the structure every transport kernel consumes: RGF recursion,
//! the sequential block-Thomas solver, and the parallel SplitSolve-style
//! cyclic reduction in `omen-wf`. Blocks may have differing sizes (surface
//! slabs of a nanowire carry fewer atoms).
//!
//! Those kernels take each off-diagonal block as a [`Coupling`]: in a
//! nearest-neighbour tight-binding device `Lᵢ` and `Uᵢ` are non-zero on a
//! few rows and columns only, and no product needs the rest.

use omen_linalg::ZMat;
use omen_num::{c64, OmenError, OmenResult};
use std::ops::Neg;

/// One off-diagonal block on its support: `B = P_rows·core·P_colsᵀ`
/// exactly, with `rows` / `cols` the ascending indices of `B`'s rows and
/// columns that are not identically zero and `core = B[rows, cols]`.
/// Rectangular, and observed per block: a link's lower block need not be
/// the adjoint pattern of its upper one. A dense block is its own core.
#[derive(Clone, Debug, PartialEq)]
pub struct Coupling {
    /// Row support of the block.
    pub rows: Vec<usize>,
    /// Column support of the block.
    pub cols: Vec<usize>,
    /// `B[rows, cols]`.
    pub core: ZMat,
}

impl Coupling {
    /// Reads the supports off `b`'s exact zeros ([`ZMat::supports`]; a NaN
    /// is not a zero, so a poisoned entry stays in the core). Observed on
    /// every call, never cached: the same slab pair may carry another
    /// pattern at the next potential or momentum.
    pub fn observe(b: &ZMat) -> Coupling {
        let (rows, cols) = b.supports();
        Coupling {
            core: b.submatrix(&rows, &cols),
            rows,
            cols,
        }
    }
}

/// Where a block may be non-zero: `(rows, cols)`.
pub type Support = (Vec<usize>, Vec<usize>);

/// `−B`: the sign lands on the core (`A = … − H` takes `H`'s couplings).
impl Neg for Coupling {
    type Output = Coupling;
    fn neg(self) -> Coupling {
        Coupling {
            core: -self.core,
            ..self
        }
    }
}

/// A square block-tridiagonal complex matrix.
#[derive(Clone)]
pub struct BlockTridiag {
    /// Diagonal blocks `D_i` (square, possibly differing sizes).
    pub diag: Vec<ZMat>,
    /// Sub-diagonal blocks `L_i = A[i+1, i]` with shape `(n_{i+1}, n_i)`.
    pub lower: Vec<ZMat>,
    /// Super-diagonal blocks `U_i = A[i, i+1]` with shape `(n_i, n_{i+1})`.
    pub upper: Vec<ZMat>,
}

impl BlockTridiag {
    /// Builds and validates shapes.
    pub fn new(diag: Vec<ZMat>, lower: Vec<ZMat>, upper: Vec<ZMat>) -> Self {
        let nb = diag.len();
        assert!(nb > 0, "need at least one block");
        assert_eq!(lower.len(), nb - 1, "lower block count");
        assert_eq!(upper.len(), nb - 1, "upper block count");
        for (i, d) in diag.iter().enumerate() {
            assert!(d.is_square(), "diagonal block {i} not square");
        }
        for i in 0..nb - 1 {
            assert_eq!(lower[i].nrows(), diag[i + 1].nrows(), "lower[{i}] rows");
            assert_eq!(lower[i].ncols(), diag[i].nrows(), "lower[{i}] cols");
            assert_eq!(upper[i].nrows(), diag[i].nrows(), "upper[{i}] rows");
            assert_eq!(upper[i].ncols(), diag[i + 1].nrows(), "upper[{i}] cols");
        }
        BlockTridiag { diag, lower, upper }
    }

    /// Number of slab blocks.
    pub fn num_blocks(&self) -> usize {
        self.diag.len()
    }

    /// Size of block `i`.
    pub fn block_size(&self, i: usize) -> usize {
        self.diag[i].nrows()
    }

    /// Total matrix dimension.
    pub fn dim(&self) -> usize {
        self.diag.iter().map(|d| d.nrows()).sum()
    }

    /// Row offset of block `i` in the flat ordering.
    pub fn offset(&self, i: usize) -> usize {
        self.diag[..i].iter().map(|d| d.nrows()).sum()
    }

    /// Hermitian structural check: `L_i == U_i†` and `D_i` Hermitian.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.diag.iter().all(|d| d.is_hermitian(tol))
            && self
                .lower
                .iter()
                .zip(&self.upper)
                .all(|(l, u)| (&l.adjoint() - u).max_abs() <= tol)
    }

    /// Computes output segment `i` into `yi`:
    /// `y_i = D_i x_i + U_i x_{i+1} + L_{i-1} x_{i-1}`, always accumulated
    /// in that fixed order so the result is identical however segments are
    /// scheduled across threads.
    fn matvec_segment(&self, i: usize, offsets: &[usize], x: &[c64], yi: &mut [c64]) {
        let nb = self.num_blocks();
        let ni = self.block_size(i);
        let xi = &x[offsets[i]..offsets[i] + ni];
        yi.copy_from_slice(&self.diag[i].matvec(xi));
        if i + 1 < nb {
            let nj = self.block_size(i + 1);
            let xj = &x[offsets[i + 1]..offsets[i + 1] + nj];
            for (a, v) in yi.iter_mut().zip(self.upper[i].matvec(xj)) {
                *a += v;
            }
        }
        if i > 0 {
            let np = self.block_size(i - 1);
            let xp = &x[offsets[i - 1]..offsets[i - 1] + np];
            for (a, v) in yi.iter_mut().zip(self.lower[i - 1].matvec(xp)) {
                *a += v;
            }
        }
    }

    /// Matrix–vector product over the flat ordering.
    ///
    /// Each output segment `y_i` depends only on `x_{i−1}, x_i, x_{i+1}`,
    /// so segments are independent: large systems fan them out over
    /// `std::thread::scope` using the kernel thread policy in
    /// [`omen_linalg::threads`] (`OMEN_THREADS`, serial fallback below the
    /// small-work threshold). The per-segment accumulation order is fixed,
    /// so the parallel product is bit-identical to the serial one.
    pub fn matvec(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.dim(), "matvec dimension mismatch");
        let nb = self.num_blocks();
        let mut y = vec![c64::ZERO; x.len()];
        let offsets: Vec<usize> = (0..nb).map(|i| self.offset(i)).collect();
        // ~8·n_i² MACs per segment; thread when the whole product is big.
        let work: u64 = (0..nb)
            .map(|i| {
                let ni = self.block_size(i) as u64;
                3 * ni * ni
            })
            .sum();
        let threads = omen_linalg::threads::auto_threads(work).clamp(1, nb);
        if threads == 1 {
            let mut segs: Vec<&mut [c64]> = Vec::with_capacity(nb);
            let mut rest = y.as_mut_slice();
            for i in 0..nb {
                let (seg, tail) = rest.split_at_mut(self.block_size(i));
                segs.push(seg);
                rest = tail;
            }
            for (i, seg) in segs.into_iter().enumerate() {
                self.matvec_segment(i, &offsets, x, seg);
            }
            return y;
        }
        // Contiguous runs of segments per worker, balanced by block count.
        let base = nb / threads;
        let rem = nb % threads;
        std::thread::scope(|scope| {
            let mut rest = y.as_mut_slice();
            let mut seg0 = 0usize;
            for t in 0..threads {
                let count = base + usize::from(t < rem);
                let rows: usize = (seg0..seg0 + count).map(|i| self.block_size(i)).sum();
                let (chunk, tail) = rest.split_at_mut(rows);
                rest = tail;
                let first = seg0;
                let offsets = &offsets;
                scope.spawn(move || {
                    let mut local = chunk;
                    for i in first..first + count {
                        let (seg, tail) = local.split_at_mut(self.block_size(i));
                        local = tail;
                        self.matvec_segment(i, offsets, x, seg);
                    }
                });
                seg0 += count;
            }
        });
        y
    }

    /// Densifies (tests / reference computations only).
    pub fn to_dense(&self) -> ZMat {
        let n = self.dim();
        let mut m = ZMat::zeros(n, n);
        for i in 0..self.num_blocks() {
            let o = self.offset(i);
            m.set_block(o, o, &self.diag[i]);
            if i + 1 < self.num_blocks() {
                let o2 = self.offset(i + 1);
                m.set_block(o, o2, &self.upper[i]);
                m.set_block(o2, o, &self.lower[i]);
            }
        }
        m
    }

    /// Seeded random non-Hermitian system (tests / reference computations
    /// only) with block sizes `sizes`, diagonally dominant so a dense
    /// oracle is well conditioned. `lower[i]` / `upper[i]` confine the
    /// couplings of link `i` to `(rows, cols)` (`None`: dense), each on its
    /// own.
    pub fn patterned(
        sizes: &[usize],
        lower: &[Option<Support>],
        upper: &[Option<Support>],
        seed: u64,
    ) -> BlockTridiag {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
        let mut next = move || {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut block = |nr: usize, nc: usize, pattern: Option<&Support>| {
            let m = ZMat::from_fn(nr, nc, |_, _| c64::new(next(), next()));
            match pattern {
                None => m,
                Some((rows, cols)) => ZMat::from_fn(nr, nc, |i, j| {
                    if rows.contains(&i) && cols.contains(&j) {
                        m[(i, j)]
                    } else {
                        c64::ZERO
                    }
                }),
            }
        };
        let diag: Vec<ZMat> = sizes
            .iter()
            .map(|&n| {
                let mut m = block(n, n, None);
                for k in 0..n {
                    m[(k, k)] += c64::real(4.0 * n as f64);
                }
                m
            })
            .collect();
        let links = sizes.len() - 1;
        let lower: Vec<ZMat> = (0..links)
            .map(|i| block(sizes[i + 1], sizes[i], lower[i].as_ref()))
            .collect();
        let upper: Vec<ZMat> = (0..links)
            .map(|i| block(sizes[i], sizes[i + 1], upper[i].as_ref()))
            .collect();
        BlockTridiag::new(diag, lower, upper)
    }

    /// Extracts a block-tridiagonal structure from a CSR matrix given slab
    /// boundaries (`offsets[i]..offsets[i+1]` is slab `i`).
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPartition`] when the CSR has entries
    /// outside the block-tridiagonal envelope — that means the slab
    /// partition is invalid for nearest-neighbor coupling.
    pub fn from_csr(csr: &crate::csr::CsrC, offsets: &[usize]) -> OmenResult<Self> {
        let nb = offsets.len() - 1;
        assert!(nb > 0);
        assert_eq!(offsets[nb], csr.nrows(), "offsets must cover the matrix");
        let sizes: Vec<usize> = (0..nb).map(|i| offsets[i + 1] - offsets[i]).collect();
        let mut diag: Vec<ZMat> = sizes.iter().map(|&s| ZMat::zeros(s, s)).collect();
        let mut lower: Vec<ZMat> = (0..nb - 1)
            .map(|i| ZMat::zeros(sizes[i + 1], sizes[i]))
            .collect();
        let mut upper: Vec<ZMat> = (0..nb - 1)
            .map(|i| ZMat::zeros(sizes[i], sizes[i + 1]))
            .collect();

        let slab_of = |row: usize| -> usize {
            match offsets.binary_search(&row) {
                Ok(k) => k.min(nb - 1),
                Err(k) => k - 1,
            }
        };

        for i in 0..csr.nrows() {
            let bi = slab_of(i);
            for (j, v) in csr.row_iter(i) {
                let bj = slab_of(j);
                let (ri, rj) = (i - offsets[bi], j - offsets[bj]);
                if bi == bj {
                    diag[bi][(ri, rj)] = v;
                } else if bj == bi + 1 {
                    upper[bi][(ri, rj)] = v;
                } else if bi == bj + 1 {
                    lower[bj][(ri, rj)] = v;
                } else {
                    return Err(OmenError::InvalidPartition {
                        row: i,
                        col: j,
                        slab_row: bi,
                        slab_col: bj,
                    });
                }
            }
        }
        Ok(BlockTridiag::new(diag, lower, upper))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(nb: usize, bs: usize, seed: u64) -> BlockTridiag {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut rnd = |r: usize, c: usize| ZMat::from_fn(r, c, |_, _| c64::new(next(), next()));
        let diag = (0..nb)
            .map(|_| {
                let mut d = rnd(bs, bs);
                for i in 0..bs {
                    d[(i, i)] += c64::real(4.0); // diagonally dominant
                }
                d
            })
            .collect();
        let lower = (0..nb - 1).map(|_| rnd(bs, bs)).collect();
        let upper = (0..nb - 1).map(|_| rnd(bs, bs)).collect();
        BlockTridiag::new(diag, lower, upper)
    }

    #[test]
    fn dims_and_offsets() {
        let bt = sample(4, 3, 1);
        assert_eq!(bt.num_blocks(), 4);
        assert_eq!(bt.dim(), 12);
        assert_eq!(bt.offset(0), 0);
        assert_eq!(bt.offset(3), 9);
    }

    #[test]
    fn matvec_matches_dense() {
        let bt = sample(5, 2, 7);
        let n = bt.dim();
        let x: Vec<c64> = (0..n)
            .map(|i| c64::new(i as f64 * 0.1, 1.0 - i as f64 * 0.05))
            .collect();
        let y1 = bt.matvec(&x);
        let y2 = bt.to_dense().matvec(&x);
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn hermitian_check() {
        let mut bt = sample(3, 2, 9);
        // Symmetrize.
        for d in &mut bt.diag {
            *d = d.hermitian_part();
        }
        for i in 0..bt.lower.len() {
            bt.lower[i] = bt.upper[i].adjoint();
        }
        assert!(bt.is_hermitian(1e-13));
        bt.upper[0][(0, 0)] += c64::real(1e-3);
        assert!(!bt.is_hermitian(1e-6));
    }

    #[test]
    fn from_csr_roundtrip() {
        let bt = sample(4, 3, 21);
        let dense = bt.to_dense();
        // Rebuild CSR from dense.
        let mut coo = crate::coo::Coo::new(12, 12);
        for i in 0..12 {
            for j in 0..12 {
                coo.push(i, j, dense[(i, j)]);
            }
        }
        let csr = coo.to_csr();
        let bt2 = BlockTridiag::from_csr(&csr, &[0, 3, 6, 9, 12]).unwrap();
        assert!((&bt2.to_dense() - &dense).max_abs() < 1e-14);
    }

    #[test]
    fn from_csr_rejects_long_range_coupling() {
        let mut coo = crate::coo::Coo::new(4, 4);
        coo.push(0, 3, c64::ONE); // couples slab 0 to slab 3
        for i in 0..4 {
            coo.push(i, i, c64::ONE);
        }
        let csr = coo.to_csr();
        match BlockTridiag::from_csr(&csr, &[0, 1, 2, 3, 4]) {
            Err(OmenError::InvalidPartition {
                row,
                col,
                slab_row,
                slab_col,
            }) => {
                assert_eq!((row, col, slab_row, slab_col), (0, 3, 0, 3));
            }
            other => panic!("expected InvalidPartition, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn variable_block_sizes() {
        let d0 = ZMat::eye(2);
        let d1 = ZMat::eye(3);
        let l0 = ZMat::zeros(3, 2);
        let u0 = ZMat::zeros(2, 3);
        let bt = BlockTridiag::new(vec![d0, d1], vec![l0], vec![u0]);
        assert_eq!(bt.dim(), 5);
        let x = vec![c64::ONE; 5];
        let y = bt.matvec(&x);
        assert!(y.iter().all(|&v| v == c64::ONE));
    }
}
