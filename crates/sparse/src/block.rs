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
//! The diagonal blocks are stored dense; each off-diagonal block is stored
//! as a [`Coupling`], on its support only: in a nearest-neighbour
//! tight-binding device `Lᵢ` and `Uᵢ` are non-zero on a few rows and
//! columns (20 × 20 of 90 on the sp3s* wire), and no product needs the
//! rest. The supports are observed once, at assembly: the stored form *is*
//! the support. A user that needs a dense block scatters the core
//! ([`Coupling::to_dense`]).

use omen_linalg::ZMat;
use omen_num::{c64, OmenError, OmenResult};
use std::ops::Neg;

/// One off-diagonal block on its support: `B = P_rows·core·P_colsᵀ`
/// exactly, with `rows` / `cols` the ascending indices of `B`'s rows and
/// columns that are not identically zero and `core = B[rows, cols]`.
/// Rectangular, and per block: a link's lower block need not be the
/// adjoint pattern of its upper one. A dense block is its own core; a
/// block with no non-zero entry has empty supports and a 0 × 0 core.
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
    /// is not a zero, so a poisoned entry stays in the core). Observed
    /// once, at assembly: the stored form *is* the support, and no engine
    /// observes a block per energy point.
    pub fn observe(b: &ZMat) -> Coupling {
        let (rows, cols) = b.supports();
        Coupling {
            core: b.submatrix(&rows, &cols),
            rows,
            cols,
        }
    }

    /// The `nrows × ncols` block `P_rows·core·P_colsᵀ`, for a user that
    /// multiplies by the dense block.
    pub fn to_dense(&self, nrows: usize, ncols: usize) -> ZMat {
        let mut b = ZMat::zeros(nrows, ncols);
        for (k, &i) in self.rows.iter().enumerate() {
            let dst = b.row_mut(i);
            for (&j, &v) in self.cols.iter().zip(self.core.row(k)) {
                dst[j] = v;
            }
        }
        b
    }
}

/// Where a block may be non-zero: `(rows, cols)`.
pub type Support = (Vec<usize>, Vec<usize>);

/// `−B`: the sign lands on the core (`A = … − H` takes `H`'s couplings).
impl Neg for &Coupling {
    type Output = Coupling;
    fn neg(self) -> Coupling {
        Coupling {
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            core: -&self.core,
        }
    }
}

/// A square block-tridiagonal complex matrix.
#[derive(Clone)]
pub struct BlockTridiag {
    /// Diagonal blocks `D_i` (square, possibly differing sizes).
    pub diag: Vec<ZMat>,
    /// Sub-diagonal blocks `L_i = A[i+1, i]` (shape `(n_{i+1}, n_i)`) on
    /// their supports.
    pub lower: Vec<Coupling>,
    /// Super-diagonal blocks `U_i = A[i, i+1]` (shape `(n_i, n_{i+1})`) on
    /// their supports.
    pub upper: Vec<Coupling>,
}

impl BlockTridiag {
    /// Builds and validates shapes: every coupling's supports are
    /// ascending and inside its block, and its core is `|rows| × |cols|`.
    pub fn new(diag: Vec<ZMat>, lower: Vec<Coupling>, upper: Vec<Coupling>) -> Self {
        let nb = diag.len();
        assert!(nb > 0, "need at least one block");
        assert_eq!(lower.len(), nb - 1, "lower block count");
        assert_eq!(upper.len(), nb - 1, "upper block count");
        for (i, d) in diag.iter().enumerate() {
            assert!(d.is_square(), "diagonal block {i} not square");
        }
        let within = |idx: &[usize], n: usize| {
            idx.windows(2).all(|w| w[0] < w[1]) && idx.last().is_none_or(|&last| last < n)
        };
        let check = |c: &Coupling, nr: usize, nc: usize, what: &str| {
            assert!(within(&c.rows, nr), "{what} row support");
            assert!(within(&c.cols, nc), "{what} column support");
            assert_eq!(c.core.nrows(), c.rows.len(), "{what} core rows");
            assert_eq!(c.core.ncols(), c.cols.len(), "{what} core cols");
        };
        for i in 0..nb - 1 {
            let (ni, nj) = (diag[i].nrows(), diag[i + 1].nrows());
            check(&lower[i], nj, ni, &format!("lower[{i}]"));
            check(&upper[i], ni, nj, &format!("upper[{i}]"));
        }
        BlockTridiag { diag, lower, upper }
    }

    /// [`Self::new`] from dense off-diagonal blocks, each observed on its
    /// support once, here ([`Coupling::observe`]).
    pub fn from_dense(diag: Vec<ZMat>, lower: Vec<ZMat>, upper: Vec<ZMat>) -> Self {
        for (i, (l, u)) in lower.iter().zip(&upper).enumerate() {
            let (ni, nj) = (diag[i].nrows(), diag[i + 1].nrows());
            assert!(l.nrows() == nj && l.ncols() == ni, "lower[{i}] shape");
            assert!(u.nrows() == ni && u.ncols() == nj, "upper[{i}] shape");
        }
        let observed = |blocks: Vec<ZMat>| blocks.iter().map(Coupling::observe).collect();
        BlockTridiag::new(diag, observed(lower), observed(upper))
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

    /// `L_i` as a dense `n_{i+1} × n_i` block.
    pub fn lower_dense(&self, i: usize) -> ZMat {
        self.lower[i].to_dense(self.block_size(i + 1), self.block_size(i))
    }

    /// `U_i` as a dense `n_i × n_{i+1}` block.
    pub fn upper_dense(&self, i: usize) -> ZMat {
        self.upper[i].to_dense(self.block_size(i), self.block_size(i + 1))
    }

    /// Hermitian structural check: `L_i == U_i†` and `D_i` Hermitian.
    pub fn is_hermitian(&self, tol: f64) -> bool {
        self.diag.iter().all(|d| d.is_hermitian(tol))
            && (0..self.num_blocks() - 1)
                .all(|i| (&self.lower_dense(i).adjoint() - &self.upper_dense(i)).max_abs() <= tol)
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
                add(self.upper_dense(i).matvec(seg(i + 1)));
            }
            if i > 0 {
                add(self.lower_dense(i - 1).matvec(seg(i - 1)));
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
                m.set_block(o, o2, &self.upper_dense(i));
                m.set_block(o2, o, &self.lower_dense(i));
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
        BlockTridiag::from_dense(diag, lower, upper)
    }
}

/// Assembles a slab-ordered matrix straight into its block-tridiagonal
/// blocks — the one assembly form of the tight-binding Hamiltonian, its
/// lead blocks and the phonon dynamical matrix.
///
/// Each entry is the left fold of its pushes in push order: the first push
/// is stored as is and later pushes add to it. That is the sum order of a
/// sorted triplet merge; a plain `+=` from `+0` would turn a real-phase
/// hopping `(v, −0.0)` into `(v, +0.0)`. A diagonal block is accumulated
/// dense; an off-diagonal block keeps its pushes as entries and becomes
/// its [`Coupling`] at [`Self::finish`], so no dense off-diagonal block is
/// ever allocated.
pub struct SlabAssembly {
    offsets: Vec<usize>,
    diag: Vec<Accumulator>,
    lower: Vec<Vec<Push>>,
    upper: Vec<Vec<Push>>,
    outside: Option<OmenError>,
}

/// One diagonal block being assembled, and one bit per entry: has a push
/// reached it.
struct Accumulator(ZMat, Vec<u64>);

/// One off-diagonal push: the row-major index of its entry in the block,
/// and the value.
type Push = (usize, c64);

impl SlabAssembly {
    /// Empty matrix over the slab partition `offsets`
    /// (`offsets[i]..offsets[i + 1]` is slab `i`).
    pub fn new(offsets: &[usize]) -> Self {
        let nb = offsets.len() - 1;
        let zeros = |i: usize| {
            let n = offsets[i + 1] - offsets[i];
            Accumulator(ZMat::zeros(n, n), vec![0; (n * n).div_ceil(64)])
        };
        SlabAssembly {
            offsets: offsets.to_vec(),
            diag: (0..nb).map(zeros).collect(),
            lower: vec![Vec::new(); nb.saturating_sub(1)],
            upper: vec![Vec::new(); nb.saturating_sub(1)],
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
        let width = self.offsets[bj + 1] - self.offsets[bj];
        let k = (i - self.offsets[bi]) * width + j - self.offsets[bj];
        if bi == bj {
            let Accumulator(block, pushed) = &mut self.diag[bi];
            let e = &mut block.data_mut()[k];
            let (word, bit) = (&mut pushed[k / 64], 1 << (k % 64));
            let first = *word & bit == 0;
            *word |= bit;
            *e = if first { v } else { *e + v };
        } else if bj == bi + 1 {
            self.upper[bi].push((k, v));
        } else if bi == bj + 1 {
            self.lower[bj].push((k, v));
        } else {
            self.outside.get_or_insert(OmenError::InvalidPartition {
                row: i,
                col: j,
                slab_row: bi,
                slab_col: bj,
            });
        }
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
        let size = |i: usize| self.offsets[i + 1] - self.offsets[i];
        let lower = (self.lower.into_iter().enumerate())
            .map(|(i, pushes)| coupling(size(i + 1), size(i), pushes))
            .collect();
        let upper = (self.upper.into_iter().enumerate())
            .map(|(i, pushes)| coupling(size(i), size(i + 1), pushes))
            .collect();
        let diag = self.diag.into_iter().map(|a| a.0).collect();
        Ok(BlockTridiag::new(diag, lower, upper))
    }
}

/// The coupling of an `nr × nc` block from its pushes: stable-sorted by
/// entry, so each run holds one entry's pushes in push order, and folded
/// left. The supports are the rows and columns with a non-zero fold, and
/// the core holds every fold inside them (an exact-zero fold too, with its
/// sign) over `+0` — what [`Coupling::observe`] reads off the dense fold.
fn coupling(nr: usize, nc: usize, mut pushes: Vec<Push>) -> Coupling {
    pushes.sort_by_key(|&(k, _)| k);
    let mut folds: Vec<Push> = Vec::with_capacity(pushes.len());
    for (k, v) in pushes {
        match folds.last_mut() {
            Some((at, acc)) if *at == k => *acc += v,
            _ => folds.push((k, v)),
        }
    }
    let (mut row_hit, mut col_hit) = (vec![false; nr], vec![false; nc]);
    for &(k, v) in &folds {
        if v != c64::ZERO {
            row_hit[k / nc] = true;
            col_hit[k % nc] = true;
        }
    }
    let support = |hit: Vec<bool>| -> Vec<usize> { (0..hit.len()).filter(|&i| hit[i]).collect() };
    let (rows, cols) = (support(row_hit), support(col_hit));
    let mut core = ZMat::zeros(rows.len(), cols.len());
    for (k, v) in folds {
        if let (Ok(r), Ok(c)) = (rows.binary_search(&(k / nc)), cols.binary_search(&(k % nc))) {
            core[(r, c)] = v;
        }
    }
    Coupling { rows, cols, core }
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
        BlockTridiag::from_dense(diag, lower, upper)
    }

    fn bits(z: c64) -> (u64, u64) {
        (z.re.to_bits(), z.im.to_bits())
    }

    /// What [`SlabAssembly`] stored before it kept couplings: every block
    /// dense, each entry the left fold of its pushes over `+0`, an exact
    /// zero push dropped. The reference the stored form is held to.
    fn dense_fold(n: usize, pushes: &[(usize, usize, c64)]) -> ZMat {
        let mut m = ZMat::zeros(n, n);
        let mut reached = vec![false; n * n];
        for &(i, j, v) in pushes.iter().filter(|p| p.2 != c64::ZERO) {
            let first = !std::mem::replace(&mut reached[i * n + j], true);
            m[(i, j)] = if first { v } else { m[(i, j)] + v };
        }
        m
    }

    /// `pushes` through a [`SlabAssembly`] over `offsets`, held to the bit
    /// against the dense fold: every diagonal block is its block of the
    /// fold, every coupling is [`Coupling::observe`] of its block.
    fn assert_stored_is_observed_fold(
        offsets: &[usize],
        pushes: &[(usize, usize, c64)],
    ) -> BlockTridiag {
        let mut asm = SlabAssembly::new(offsets);
        for &(i, j, v) in pushes {
            asm.push(i, j, v);
        }
        let bt = asm.finish().unwrap();
        let fold = dense_fold(offsets[offsets.len() - 1], pushes);
        let block = |r: usize, c: usize| {
            let (o, p) = (offsets[r], offsets[c]);
            fold.block(o, p, offsets[r + 1] - o, offsets[c + 1] - p)
        };
        let same = |got: &ZMat, want: &ZMat, what: &str| {
            assert_eq!(
                (got.nrows(), got.ncols()),
                (want.nrows(), want.ncols()),
                "{what}"
            );
            let b = |m: &ZMat| m.data().iter().map(|&z| bits(z)).collect::<Vec<_>>();
            assert_eq!(b(got), b(want), "{what}");
        };
        for (i, d) in bt.diag.iter().enumerate() {
            same(d, &block(i, i), &format!("diag[{i}]"));
        }
        for (i, (lo, up)) in bt.lower.iter().zip(&bt.upper).enumerate() {
            for (got, want, what) in [
                (lo, Coupling::observe(&block(i + 1, i)), "lower"),
                (up, Coupling::observe(&block(i, i + 1)), "upper"),
            ] {
                assert_eq!(got.rows, want.rows, "{what}[{i}] rows");
                assert_eq!(got.cols, want.cols, "{what}[{i}] cols");
                same(&got.core, &want.core, &format!("{what}[{i}] core"));
            }
        }
        bt
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
        let bt = sample(3, 2, 9);
        let links = 0..bt.num_blocks() - 1;
        let upper: Vec<ZMat> = links.clone().map(|i| bt.upper_dense(i)).collect();
        let lower: Vec<ZMat> = upper.iter().map(ZMat::adjoint).collect();
        let diag = bt.diag.iter().map(ZMat::hermitian_part).collect();
        let mut bt = BlockTridiag::from_dense(diag, lower, upper);
        assert!(bt.is_hermitian(1e-13));
        bt.upper[0].core[(0, 0)] += c64::real(1e-3);
        assert!(!bt.is_hermitian(1e-6));
    }

    #[test]
    fn a_coupling_scatters_to_the_block_it_was_observed_on() {
        let b = ZMat::from_fn(4, 5, |i, j| match (i, j) {
            (1, 0) | (3, 4) => c64::new(i as f64, -(j as f64)),
            (1, 4) => c64::new(f64::NAN, 0.0),
            _ => c64::ZERO,
        });
        let c = Coupling::observe(&b);
        assert_eq!(
            (c.rows.as_slice(), c.cols.as_slice()),
            (&[1, 3][..], &[0, 4][..])
        );
        let back = c.to_dense(4, 5);
        let b2 = |m: &ZMat| m.data().iter().map(|&z| bits(z)).collect::<Vec<_>>();
        assert_eq!(b2(&back), b2(&b));
        let neg = -&c;
        assert_eq!((&neg.rows, &neg.cols), (&c.rows, &c.cols));
        assert_eq!(b2(&neg.core), b2(&-&c.core));
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
        // Real-phase pushes: every imaginary part is −0, and so is their
        // fold; `+=` from `+0` would have made it `+0`.
        let pushes = [
            c64::new(0.1, -0.0),
            c64::ZERO,
            c64::new(0.2, -0.0),
            c64::new(-1e-17, -0.0),
        ];
        let mut all: Vec<(usize, usize, c64)> = pushes.iter().map(|&v| (1, 2, v)).collect();
        all.push((0, 0, c64::new(0.5, -0.0)));
        all.push((2, 1, c64::ZERO));
        let bt = assert_stored_is_observed_fold(&[0, 2, 3], &all);
        let kept: Vec<c64> = pushes.into_iter().filter(|&v| v != c64::ZERO).collect();
        let fold = kept[1..].iter().fold(kept[0], |acc, &v| acc + v);
        assert_eq!(bits(bt.upper[0].core[(0, 0)]), bits(fold));
        assert!(fold.im.is_sign_negative());
        assert_eq!(
            (bt.upper[0].rows.as_slice(), bt.upper[0].cols.as_slice()),
            (&[1][..], &[0][..])
        );
        assert_eq!(bits(bt.diag[0][(0, 0)]), bits(c64::new(0.5, -0.0)));
        // Entries no push reached, or only an exact zero, are `+0 + 0i`:
        // the lower block has no support at all.
        assert_eq!(bits(bt.diag[1][(0, 0)]), bits(c64::ZERO));
        assert!(bt.lower[0].rows.is_empty() && bt.lower[0].cols.is_empty());
    }

    #[test]
    fn pushes_that_cancel_leave_the_support() {
        let (a, b) = (c64::new(0.1, -0.0), c64::new(0.3, 0.2));
        let (c, d) = (c64::new(-0.7, -0.0), c64::new(0.7, -0.0));
        // Slabs 0..3 and 3..6; every push below is in the upper block.
        let pushes = [
            // Row 0 holds one entry, which cancels: row 0 and column 1
            // leave the support.
            (0, 4, a),
            (0, 4, -a),
            // (1, 5) cancels to (+0, −0), but its row stays through (1, 3)
            // and its column through (2, 5).
            (1, 3, b),
            (1, 5, c),
            (1, 5, d),
            (2, 5, b),
            (2, 5, c),
        ];
        let bt = assert_stored_is_observed_fold(&[0, 3, 6], &pushes);
        let up = &bt.upper[0];
        assert_eq!(
            (up.rows.as_slice(), up.cols.as_slice()),
            (&[1, 2][..], &[0, 2][..])
        );
        // The cancelled fold inside the support keeps its sign bits.
        assert_eq!(bits(up.core[(0, 1)]), bits(c + d));
        assert!(up.core[(0, 1)].im.is_sign_negative());
        assert!(bt.lower[0].core.nrows() == 0 && bt.lower[0].core.ncols() == 0);
    }

    #[test]
    fn a_link_with_no_pushes_is_an_empty_coupling() {
        let pushes = [
            (0, 0, c64::ONE),
            (1, 1, c64::ONE),
            (2, 2, c64::ONE),
            (0, 1, c64::ONE),
        ];
        let bt = assert_stored_is_observed_fold(&[0, 1, 2, 3], &pushes);
        assert_eq!(bt.upper[0].core, ZMat::eye(1));
        for c in [&bt.lower[0], &bt.lower[1], &bt.upper[1]] {
            assert!(c.rows.is_empty() && c.cols.is_empty());
            assert_eq!((c.core.nrows(), c.core.ncols()), (0, 0));
        }
        assert_eq!(bt.upper_dense(1), ZMat::zeros(1, 1));
    }

    #[test]
    fn a_nan_push_stays_in_the_core() {
        let nan = c64::new(f64::NAN, 0.0);
        let pushes = [(2, 0, c64::new(0.5, 0.0)), (3, 1, nan), (3, 1, c64::ONE)];
        let bt = assert_stored_is_observed_fold(&[0, 2, 4], &pushes);
        let lo = &bt.lower[0];
        assert_eq!(
            (lo.rows.as_slice(), lo.cols.as_slice()),
            (&[0, 1][..], &[0, 1][..])
        );
        assert!(lo.core[(1, 1)].re.is_nan());
    }

    #[test]
    fn stored_couplings_are_the_observed_dense_fold() {
        // Random pushes over ragged slabs, with repeats, cancellations,
        // signed zeros and exact-zero pushes, in random order. A fold's
        // bits depend on its order (`(0.25 + 3e-17) − 0.25` is 0), and
        // streams of up to 400 pushes put dozens on one entry, so an
        // unstable sort in `finish` fails here.
        let mut s = 0x5EED_u64;
        let mut next = move |n: usize| {
            s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
            ((s >> 33) % n as u64) as usize
        };
        let offsets = [0, 3, 4, 8, 10];
        let values = [
            c64::new(0.25, -0.0),
            c64::new(-0.25, 0.0),
            c64::new(1.5, -0.75),
            c64::new(-1.5, 0.75),
            c64::ZERO,
            c64::new(-0.0, -0.0),
            c64::new(3e-17, 0.5),
        ];
        for case in 0..64 {
            let count = 1 + next(400);
            let pushes: Vec<(usize, usize, c64)> = (0..count)
                .map(|_| {
                    let i = next(10);
                    let slab = offsets.partition_point(|&o| o <= i) - 1;
                    let lo = offsets[slab.saturating_sub(1)];
                    let hi = offsets[(slab + 2).min(offsets.len() - 1)];
                    let j = lo + next(hi - lo);
                    (i, j, values[next(values.len())])
                })
                .collect();
            let bt = assert_stored_is_observed_fold(&offsets, &pushes);
            assert_eq!(bt.num_blocks(), 4, "case {case}");
        }
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
        let bt = BlockTridiag::from_dense(vec![d0, d1], vec![l0], vec![u0]);
        assert_eq!(bt.dim(), 5);
        let x = vec![c64::ONE; 5];
        let y = bt.matvec(&x);
        assert!(y.iter().all(|&v| v == c64::ONE));
    }
}
