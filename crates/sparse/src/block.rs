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

    /// Matrix–vector product over the flat ordering (tests and reference
    /// checks): `y_i = D_i x_i + U_i x_{i+1} + L_{i−1} x_{i−1}`, summed in
    /// that order.
    pub fn matvec(&self, x: &[c64]) -> Vec<c64> {
        assert_eq!(x.len(), self.dim(), "matvec dimension mismatch");
        let nb = self.num_blocks();
        let offsets: Vec<usize> = (0..=nb).map(|i| self.offset(i)).collect();
        let seg = |i: usize| &x[offsets[i]..offsets[i + 1]];
        let mut y = Vec::with_capacity(x.len());
        for i in 0..nb {
            let mut yi = self.diag[i].matvec(seg(i));
            let mut add = |v: Vec<c64>| yi.iter_mut().zip(v).for_each(|(a, v)| *a += v);
            if i + 1 < nb {
                add(self.upper[i].matvec(seg(i + 1)));
            }
            if i > 0 {
                add(self.lower[i - 1].matvec(seg(i - 1)));
            }
            y.extend(yi);
        }
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
}

/// Assembles a slab-ordered matrix straight into its block-tridiagonal
/// blocks — the one assembly form of the tight-binding Hamiltonian, its
/// lead blocks and the phonon dynamical matrix.
///
/// Each entry is the left fold of its pushes in push order: the first push
/// is stored as is and later pushes add to it. That is the sum order of a
/// sorted triplet merge; a plain `+=` from `+0` would turn a real-phase
/// hopping `(v, −0.0)` into `(v, +0.0)`.
pub struct SlabAssembly {
    offsets: Vec<usize>,
    diag: Vec<Accumulator>,
    lower: Vec<Accumulator>,
    upper: Vec<Accumulator>,
    outside: Option<OmenError>,
}

/// One block being assembled, and one bit per entry: has a push reached it.
struct Accumulator(ZMat, Vec<u64>);

impl SlabAssembly {
    /// Empty matrix over the slab partition `offsets`
    /// (`offsets[i]..offsets[i + 1]` is slab `i`).
    pub fn new(offsets: &[usize]) -> Self {
        let nb = offsets.len() - 1;
        let zeros = |r: usize, c: usize| {
            let (nr, nc) = (offsets[r + 1] - offsets[r], offsets[c + 1] - offsets[c]);
            Accumulator(ZMat::zeros(nr, nc), vec![0; (nr * nc).div_ceil(64)])
        };
        SlabAssembly {
            offsets: offsets.to_vec(),
            diag: (0..nb).map(|i| zeros(i, i)).collect(),
            lower: (1..nb).map(|i| zeros(i, i - 1)).collect(),
            upper: (1..nb).map(|i| zeros(i - 1, i)).collect(),
            outside: None,
        }
    }

    /// Adds `v` at `(i, j)`; an exact zero is dropped. An entry outside the
    /// block-tridiagonal envelope is kept aside for [`Self::finish`].
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: c64) {
        if v == c64::ZERO {
            return;
        }
        let slab_of = |row: usize| self.offsets.partition_point(|&o| o <= row) - 1;
        let (bi, bj) = (slab_of(i), slab_of(j));
        let Accumulator(block, pushed) = if bi == bj {
            &mut self.diag[bi]
        } else if bj == bi + 1 {
            &mut self.upper[bi]
        } else if bi == bj + 1 {
            &mut self.lower[bj]
        } else {
            self.outside.get_or_insert(OmenError::InvalidPartition {
                row: i,
                col: j,
                slab_row: bi,
                slab_col: bj,
            });
            return;
        };
        let k = (i - self.offsets[bi]) * block.ncols() + j - self.offsets[bj];
        let e = &mut block.data_mut()[k];
        let (word, bit) = (&mut pushed[k / 64], 1 << (k % 64));
        let first = *word & bit == 0;
        *word |= bit;
        *e = if first { v } else { *e + v };
    }

    /// The assembled blocks.
    ///
    /// # Errors
    ///
    /// Returns [`OmenError::InvalidPartition`] for the first push outside
    /// the block-tridiagonal envelope — the slab partition is invalid for
    /// nearest-neighbor coupling.
    pub fn finish(self) -> OmenResult<BlockTridiag> {
        if let Some(e) = self.outside {
            return Err(e);
        }
        let blocks = |v: Vec<Accumulator>| v.into_iter().map(|a| a.0).collect();
        Ok(BlockTridiag::new(
            blocks(self.diag),
            blocks(self.lower),
            blocks(self.upper),
        ))
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
    fn slab_assembly_roundtrip() {
        let bt = sample(4, 3, 21);
        let dense = bt.to_dense();
        let mut asm = SlabAssembly::new(&[0, 3, 6, 9, 12]);
        for i in 0..12 {
            for j in 0..12 {
                asm.push(i, j, dense[(i, j)]);
            }
        }
        assert_eq!(asm.finish().unwrap().to_dense(), dense);
    }

    #[test]
    fn slab_assembly_entry_is_the_left_fold_of_its_pushes() {
        let bits = |z: c64| (z.re.to_bits(), z.im.to_bits());
        // Real-phase pushes: every imaginary part is −0, and so is their
        // fold; `+=` from `+0` would have made it `+0`.
        let pushes = [
            c64::new(0.1, -0.0),
            c64::ZERO,
            c64::new(0.2, -0.0),
            c64::new(-1e-17, -0.0),
        ];
        let mut asm = SlabAssembly::new(&[0, 2, 3]);
        for &v in &pushes {
            asm.push(1, 2, v);
        }
        asm.push(0, 0, c64::new(0.5, -0.0));
        asm.push(2, 1, c64::ZERO);
        let bt = asm.finish().unwrap();
        let kept: Vec<c64> = pushes.into_iter().filter(|&v| v != c64::ZERO).collect();
        let fold = kept[1..].iter().fold(kept[0], |acc, &v| acc + v);
        assert_eq!(bits(bt.upper[0][(1, 0)]), bits(fold));
        assert!(fold.im.is_sign_negative());
        assert_eq!(bits(bt.diag[0][(0, 0)]), bits(c64::new(0.5, -0.0)));
        // Entries no push reached, or only an exact zero, are `+0 + 0i`.
        assert_eq!(bits(bt.lower[0][(0, 1)]), bits(c64::ZERO));
        assert_eq!(bits(bt.diag[1][(0, 0)]), bits(c64::ZERO));
    }

    #[test]
    fn slab_assembly_rejects_long_range_coupling() {
        let mut asm = SlabAssembly::new(&[0, 1, 2, 3, 4]);
        for i in 0..4 {
            asm.push(i, i, c64::ONE);
        }
        asm.push(0, 3, c64::ONE); // couples slab 0 to slab 3
        asm.push(3, 1, c64::ONE); // a later offender is not the one named
        match asm.finish() {
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
