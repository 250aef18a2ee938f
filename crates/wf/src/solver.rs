//! Sequential block-tridiagonal solvers: block Thomas and block cyclic
//! reduction.
//!
//! Both solve `A X = B` where `A` is block tridiagonal and `B` is a dense
//! block column (one `ZMat` of RHS rows per slab). Both take `A` as a
//! [`System`]: the diagonal blocks, and every coupling on its support
//! ([`Coupling`], `A_{i,i+1} = P_R·U·P_Cᵀ`) — in a tight-binding device
//! 20–30 % of a slab's orbitals, so no product below runs over the
//! coupling's zeros:
//!
//! * **Block Thomas**, the minimal-flop sequential baseline: per slab one
//!   LU of the effective pivot `D̃ᵢ`, the `n × |C|` solve
//!   `wᵢ = D̃ᵢ⁻¹·P_R·Uᵢ` (`D̃ᵢ⁻¹·A_{i,i+1} = wᵢ·P_Cᵀ`), and the
//!   `|R′| × |C|` patch `D̃_{i+1}[R′, C] −= L_i·wᵢ[C′, :]`.
//! * **Block cyclic reduction**, the log-depth elimination tree: every
//!   eliminated block's `D⁻¹L`, `D⁻¹U` and every fill-in coupling live on
//!   their column support. The tree's block arithmetic lives here once
//!   (`Reduction`, `back_substitute`): [`bcr_solve`] applies it to every
//!   block in turn, [`crate::splitsolve`] schedules the same calls over the
//!   ranks that own the blocks.
//!
//! A dense coupling is its own core and costs what the dense elimination
//! costs, to the flop (`tests/flop_counter_props.rs` pins both counts in
//! closed form). A pivot block holding a NaN — a poisoned coupling carried
//! into it by the elimination — fails typed at that slab.

use omen_linalg::{gemm, lu, lu::Lu, matmul, Op, ZMat};
use omen_num::{c64, OmenResult};
use omen_sparse::{BlockTridiag, Coupling};
use std::iter::once;

/// `A` of `A·X = B` as both eliminations take it: the diagonal blocks and
/// the couplings `lower[i] = A_{i+1,i}`, `upper[i] = A_{i,i+1}` on their
/// supports.
#[derive(Clone)]
pub struct System {
    /// Diagonal blocks `A_{i,i}`.
    pub diag: Vec<ZMat>,
    /// `A_{i+1,i}` on its support.
    pub lower: Vec<Coupling>,
    /// `A_{i,i+1}` on its support.
    pub upper: Vec<Coupling>,
}

impl System {
    /// `a`'s blocks, each coupling observed on its support.
    pub fn observe(a: &BlockTridiag) -> System {
        System {
            diag: a.diag.clone(),
            lower: a.lower.iter().map(Coupling::observe).collect(),
            upper: a.upper.iter().map(Coupling::observe).collect(),
        }
    }

    /// Solves `A X = B` by block Thomas (forward elimination, back
    /// substitution). `b[i]` holds the RHS rows of slab `i` (all with the
    /// same column count).
    ///
    /// # Errors
    ///
    /// A singular or non-finite pivot block surfaces as
    /// [`omen_num::OmenError::SingularBlock`] carrying the slab index.
    pub fn thomas(self, b: Vec<ZMat>) -> OmenResult<Vec<ZMat>> {
        let System { diag, lower, upper } = self;
        let nb = diag.len();
        assert_eq!(b.len(), nb, "one RHS block per slab");
        let nrhs = b[0].ncols();
        for (i, (bi, d)) in b.iter().zip(&diag).enumerate() {
            assert_eq!(bi.nrows(), d.nrows(), "RHS block {i} row mismatch");
            assert_eq!(bi.ncols(), nrhs, "ragged RHS");
        }
        let all_rhs: Vec<usize> = (0..nrhs).collect();

        // Forward: w[i] = D̃_i⁻¹·A_{i,i+1} on its column support,
        // y[i] = D̃_i⁻¹·(b_i − A_{i,i−1}·y_{i−1}), with
        // D̃_i = D_i − A_{i,i−1}·w_{i−1} patched on the coupling's rows.
        let mut w: Vec<Thin> = Vec::with_capacity(nb.saturating_sub(1));
        let mut y: Vec<ZMat> = Vec::with_capacity(nb);
        for (i, (mut d, mut r)) in diag.into_iter().zip(b).enumerate() {
            if let (Some(wp), Some(yp)) = (w.last(), y.last()) {
                let lo = &lower[i - 1];
                sub_coupled(&mut d, lo, &wp.m, &wp.cols);
                sub_coupled(&mut r, lo, yp, &all_rhs);
            }
            let f = factor(&d, i)?;
            if let Some(up) = upper.get(i) {
                w.push(Thin::solve(&f, up));
            }
            y.push(f.solve_mat(&r));
        }

        // Back substitution: x_{nb-1} = y_{nb-1}; x_i = y_i − w_i·x_{i+1}[C, :].
        let mut x = y;
        for (i, wi) in w.iter().enumerate().rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            wi.sub_applied(&tail[0], &mut head[i]);
        }
        Ok(x)
    }

    /// Solves `A X = B` by sequential block cyclic reduction.
    ///
    /// Log-depth elimination: every level removes the odd-position blocks
    /// of the currently active index set, producing a half-size
    /// block-tridiagonal system among the survivors; back substitution
    /// then recovers the eliminated blocks level by level. Handles
    /// arbitrary (non-power-of-two) block counts and variable block sizes.
    /// This is the serial driver over the block arithmetic
    /// [`crate::splitsolve_parallel`] schedules across ranks, and its bit
    /// reference at every rank count.
    ///
    /// # Errors
    ///
    /// A singular or non-finite pivot block surfaces as
    /// [`omen_num::OmenError::SingularBlock`] carrying the original slab
    /// index.
    pub fn bcr(self, b: Vec<ZMat>) -> OmenResult<Vec<ZMat>> {
        let nb = self.diag.len();
        let mut sys = Reduction::new(self, b);
        // Per level, the bundles of its eliminated blocks in slab order.
        let mut levels: Vec<Vec<Bundle>> = Vec::new();
        let mut s = 1;
        while s < nb {
            let level = (s..nb)
                .step_by(2 * s)
                .map(|g| sys.eliminate(g))
                .collect::<OmenResult<Vec<_>>>()?;
            // Survivor `2js` sits between eliminated blocks `j − 1` and `j`.
            for (j, g) in (0..nb).step_by(2 * s).enumerate() {
                if let Some(right) = level.get(j) {
                    sys.absorb_right(g, right);
                }
                if let Some(left) = j.checked_sub(1).and_then(|j| level.get(j)) {
                    sys.absorb_left(g, left);
                }
            }
            levels.push(level);
            s *= 2;
        }
        sys.rhs[0] = sys.solve_root()?;
        for level in levels.iter().rev() {
            s /= 2;
            for (bundle, g) in level.iter().zip((s..nb).step_by(2 * s)) {
                sys.rhs[g] = back_substitute(bundle, sys.rhs.get(g - s), sys.rhs.get(g + s));
            }
        }
        Ok(sys.rhs)
    }
}

/// [`System::thomas`] on `a` with its couplings observed on their supports.
///
/// # Errors
///
/// [`System::thomas`]'s.
pub fn thomas_solve(a: &BlockTridiag, b: &[ZMat]) -> OmenResult<Vec<ZMat>> {
    System::observe(a).thomas(b.to_vec())
}

/// [`System::bcr`] on `a` with its couplings observed on their supports.
///
/// # Errors
///
/// [`System::bcr`]'s.
pub fn bcr_solve(a: &BlockTridiag, b: &[ZMat]) -> OmenResult<Vec<ZMat>> {
    System::observe(a).bcr(b.to_vec())
}

/// Factors pivot block `i`. [`Lu::factor`] accepts a NaN (its pivot search
/// compares magnitudes), so a non-finite block fails typed here first.
fn factor(d: &ZMat, i: usize) -> OmenResult<Lu> {
    if let Some(poisoned) = lu::non_finite(d) {
        return Err(poisoned.at_block(i));
    }
    Lu::factor(d).map_err(|s| s.at_block(i))
}

/// A block whose zero columns are dropped: `M = m·P_colsᵀ`. What
/// `D⁻¹·B` is for a coupling `B` with column support `cols`.
#[derive(Clone)]
pub(crate) struct Thin {
    pub(crate) m: ZMat,
    pub(crate) cols: Vec<usize>,
}

impl Thin {
    /// `D⁻¹·c` from `D`'s factors: one `n × |C|` solve against the core
    /// placed on its rows.
    fn solve(f: &Lu, c: &Coupling) -> Thin {
        let mut rhs = ZMat::zeros(f.n(), c.cols.len());
        for (k, &i) in c.rows.iter().enumerate() {
            rhs.row_mut(i).copy_from_slice(c.core.row(k));
        }
        Thin {
            m: f.solve_mat(&rhs),
            cols: c.cols.clone(),
        }
    }

    /// `x −= M·v`, reading only the rows of `v` that `M`'s columns meet.
    fn sub_applied(&self, v: &ZMat, x: &mut ZMat) {
        gemm(
            -c64::ONE,
            &self.m,
            Op::N,
            &v.select_rows(&self.cols),
            Op::N,
            c64::ONE,
            x,
        );
    }
}

/// `m[c.rows, cols] −= c.core·x[c.cols, :]`: the product of the whole
/// coupling against `x`, subtracted on the rows it reaches, with `cols` the
/// columns of `m` that `x`'s columns stand for. Gathered, accumulated by
/// one `gemm` (α = −1, β = 1) and scattered back, so a dense coupling runs
/// the dense update.
fn sub_coupled(m: &mut ZMat, c: &Coupling, x: &ZMat, cols: &[usize]) {
    let mut patch = m.submatrix(&c.rows, cols);
    gemm(
        -c64::ONE,
        &c.core,
        Op::N,
        &x.select_rows(&c.cols),
        Op::N,
        c64::ONE,
        &mut patch,
    );
    for (k, &i) in c.rows.iter().enumerate() {
        let dst = m.row_mut(i);
        for (&j, &v) in cols.iter().zip(patch.row(k)) {
            dst[j] = v;
        }
    }
}

/// Factored products of one eliminated block: `(D⁻¹b, D⁻¹L, D⁻¹U)`, the
/// couplings on their column supports and absent where the chain ends.
pub(crate) type Bundle = (ZMat, Option<Thin>, Option<Thin>);

/// The active system of a cyclic reduction, indexed by original slab: each
/// surviving block's diagonal, right-hand side and couplings to its nearest
/// surviving neighbours (`lower[g]` = `A_{g,g−s}`, `upper[g]` =
/// `A_{g,g+s}`, on their supports; a fill-in keeps the row support of the
/// coupling it grew from and the column support of the bundle it came
/// through). At stride `s = 2^level` the survivors are the multiples of
/// `s`; the odd multiples are eliminated, each between its neighbours
/// `g ∓ s`, and slab 0 is the root. A rank of [`crate::splitsolve`] keeps
/// only the blocks it owns current.
pub(crate) struct Reduction {
    diag: Vec<ZMat>,
    /// Right-hand sides; [`System::bcr`] overwrites them with the solution.
    rhs: Vec<ZMat>,
    lower: Vec<Option<Coupling>>,
    upper: Vec<Option<Coupling>>,
}

impl Reduction {
    pub(crate) fn new(a: System, b: Vec<ZMat>) -> Self {
        assert_eq!(b.len(), a.diag.len(), "one RHS block per slab");
        Reduction {
            diag: a.diag,
            rhs: b,
            lower: once(None).chain(a.lower.into_iter().map(Some)).collect(),
            upper: a.upper.into_iter().map(Some).chain(once(None)).collect(),
        }
    }

    /// Factors block `g` and forms its bundle.
    pub(crate) fn eliminate(&self, g: usize) -> OmenResult<Bundle> {
        let f = factor(&self.diag[g], g)?;
        Ok((
            f.solve_mat(&self.rhs[g]),
            self.lower[g].as_ref().map(|l| Thin::solve(&f, l)),
            self.upper[g].as_ref().map(|u| Thin::solve(&f, u)),
        ))
    }

    /// Folds the eliminated right neighbour of surviving block `g` into it.
    pub(crate) fn absorb_right(&mut self, g: usize, (dib, dil, diu): &Bundle) {
        if let Some(u) = self.upper[g].take() {
            self.upper[g] = schur_update(&u, dib, dil, diu, &mut self.diag[g], &mut self.rhs[g]);
        }
    }

    /// Folds the eliminated left neighbour of surviving block `g` into it.
    pub(crate) fn absorb_left(&mut self, g: usize, (dib, dil, diu): &Bundle) {
        if let Some(l) = self.lower[g].take() {
            self.lower[g] = schur_update(&l, dib, diu, dil, &mut self.diag[g], &mut self.rhs[g]);
        }
    }

    /// Solves the fully reduced slab 0.
    pub(crate) fn solve_root(&self) -> OmenResult<ZMat> {
        Ok(factor(&self.diag[0], 0)?.solve_mat(&self.rhs[0]))
    }
}

/// Schur update of a surviving block across its coupling `c` to an
/// eliminated neighbour: `D −= c·D⁻¹(back)` on `c`'s rows and `back`'s
/// columns, `b −= c·D⁻¹b` on `c`'s rows. Returns the fill-in coupling
/// `−c·D⁻¹(on)` to the survivor beyond the neighbour, on `c`'s rows and
/// `on`'s columns.
fn schur_update(
    c: &Coupling,
    dib: &ZMat,
    back: &Option<Thin>,
    on: &Option<Thin>,
    d: &mut ZMat,
    b: &mut ZMat,
) -> Option<Coupling> {
    if let Some(back) = back {
        sub_coupled(d, c, &back.m, &back.cols);
    }
    let all_rhs: Vec<usize> = (0..b.ncols()).collect();
    sub_coupled(b, c, dib, &all_rhs);
    on.as_ref().map(|on| Coupling {
        rows: c.rows.clone(),
        cols: on.cols.clone(),
        core: -&matmul(&c.core, &on.m.select_rows(&c.cols)),
    })
}

/// Solution of an eliminated block from its bundle and its neighbours'
/// solutions: `x = D⁻¹b − D⁻¹L·x_left − D⁻¹U·x_right`.
pub(crate) fn back_substitute(
    (dib, dil, diu): &Bundle,
    x_left: Option<&ZMat>,
    x_right: Option<&ZMat>,
) -> ZMat {
    let mut x = dib.clone();
    if let (Some(dil), Some(xl)) = (dil, x_left) {
        dil.sub_applied(xl, &mut x);
    }
    if let (Some(diu), Some(xr)) = (diu, x_right) {
        diu.sub_applied(xr, &mut x);
    }
    x
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use omen_num::c64;

    /// Seeded random system with the given block sizes, diagonally shifted.
    pub(crate) fn rand_blocks(
        sizes: &[usize],
        nrhs: usize,
        seed: u64,
    ) -> (BlockTridiag, Vec<ZMat>) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
        let mut next = move || {
            s = s.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(7);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut rnd = |r: usize, c: usize| ZMat::from_fn(r, c, |_, _| c64::new(next(), next()));
        let diag: Vec<ZMat> = sizes
            .iter()
            .map(|&bs| {
                let mut d = rnd(bs, bs);
                for i in 0..bs {
                    d[(i, i)] += c64::real(6.0);
                }
                d
            })
            .collect();
        let lower: Vec<ZMat> = sizes.windows(2).map(|w| rnd(w[1], w[0])).collect();
        let upper: Vec<ZMat> = sizes.windows(2).map(|w| rnd(w[0], w[1])).collect();
        let b: Vec<ZMat> = sizes.iter().map(|&bs| rnd(bs, nrhs)).collect();
        (BlockTridiag::new(diag, lower, upper), b)
    }

    pub(crate) fn rand_system(
        nb: usize,
        bs: usize,
        nrhs: usize,
        seed: u64,
    ) -> (BlockTridiag, Vec<ZMat>) {
        rand_blocks(&vec![bs; nb], nrhs, seed)
    }

    fn dense_solve(a: &BlockTridiag, b: &[ZMat]) -> Vec<ZMat> {
        let n = a.dim();
        let nrhs = b[0].ncols();
        let mut bd = ZMat::zeros(n, nrhs);
        for (i, bi) in b.iter().enumerate() {
            bd.set_block(a.offset(i), 0, bi);
        }
        let x = Lu::factor(&a.to_dense()).unwrap().solve_mat(&bd);
        (0..a.num_blocks())
            .map(|i| x.block(a.offset(i), 0, a.block_size(i), nrhs))
            .collect()
    }

    fn assert_blocks_close(a: &[ZMat], b: &[ZMat], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let d = (x - y).max_abs();
            assert!(d < tol, "{what}: block {i} deviates by {d}");
        }
    }

    #[test]
    fn thomas_matches_dense() {
        for (nb, bs, nrhs, seed) in [(1, 3, 2, 1u64), (2, 2, 1, 2), (5, 3, 4, 3), (9, 2, 3, 4)] {
            let (a, b) = rand_system(nb, bs, nrhs, seed);
            let x1 = thomas_solve(&a, &b).unwrap();
            let x2 = dense_solve(&a, &b);
            assert_blocks_close(&x1, &x2, 1e-9, &format!("thomas nb={nb}"));
        }
    }

    #[test]
    fn bcr_matches_thomas() {
        for (nb, bs, nrhs, seed) in [
            (1, 2, 1, 11u64),
            (2, 3, 2, 12),
            (3, 2, 2, 13),
            (4, 2, 3, 14),
            (7, 3, 2, 15),
            (8, 2, 2, 16),
            (13, 2, 1, 17),
        ] {
            let (a, b) = rand_system(nb, bs, nrhs, seed);
            let x1 = thomas_solve(&a, &b).unwrap();
            let x2 = bcr_solve(&a, &b).unwrap();
            assert_blocks_close(&x1, &x2, 1e-8, &format!("bcr nb={nb}"));
        }
    }

    #[test]
    fn residual_is_small() {
        let (a, b) = rand_system(6, 4, 3, 99);
        let x = thomas_solve(&a, &b).unwrap();
        // Flatten and check A x = b via matvec per RHS column.
        let n = a.dim();
        for col in 0..3 {
            let mut xf = vec![c64::ZERO; n];
            for (i, xi) in x.iter().enumerate().take(6) {
                let off = a.offset(i);
                for r in 0..a.block_size(i) {
                    xf[off + r] = xi[(r, col)];
                }
            }
            let ax = a.matvec(&xf);
            for (i, bi) in b.iter().enumerate().take(6) {
                let off = a.offset(i);
                for r in 0..a.block_size(i) {
                    assert!((ax[off + r] - bi[(r, col)]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn variable_block_sizes_thomas() {
        // 3 blocks of sizes 2, 3, 1.
        let mk = |r: usize, c: usize, s: f64| {
            ZMat::from_fn(r, c, |i, j| {
                c64::new(s + i as f64 * 0.3 - j as f64 * 0.2, 0.1)
            })
        };
        let mut d0 = mk(2, 2, 1.0);
        let mut d1 = mk(3, 3, -0.5);
        let mut d2 = mk(1, 1, 2.0);
        for i in 0..2 {
            d0[(i, i)] += c64::real(5.0);
        }
        for i in 0..3 {
            d1[(i, i)] += c64::real(5.0);
        }
        d2[(0, 0)] += c64::real(5.0);
        let a = BlockTridiag::new(
            vec![d0, d1, d2],
            vec![mk(3, 2, 0.4), mk(1, 3, -0.3)],
            vec![mk(2, 3, 0.2), mk(3, 1, 0.6)],
        );
        let b = vec![mk(2, 2, 1.0), mk(3, 2, 0.0), mk(1, 2, -1.0)];
        let x1 = thomas_solve(&a, &b).unwrap();
        let x2 = dense_solve(&a, &b);
        assert_blocks_close(&x1, &x2, 1e-10, "variable sizes");
    }

    /// Link patterns the thin eliminations must take: rectangular supports
    /// (|R| ≠ |C|), different on every link, the lower block's pattern not
    /// the adjoint of the upper's, one dense coupling each way, unequal
    /// block sizes. `severed` empties both couplings of that link.
    fn patterned(seed: u64, severed: Option<usize>) -> BlockTridiag {
        let on = |rows: &[usize], cols: &[usize]| Some((rows.to_vec(), cols.to_vec()));
        let sizes = [4usize, 6, 3, 5, 5, 2];
        let mut lower = vec![
            on(&[0, 5], &[1]),
            on(&[1, 2], &[0, 3]),
            None,
            on(&[2], &[0, 1, 3]),
            on(&[0, 1], &[4]),
        ];
        let mut upper = vec![
            on(&[0, 2, 3], &[1, 4]),
            on(&[5], &[0, 1, 2]),
            on(&[0, 1], &[0, 2, 3, 4]),
            None,
            on(&[1], &[0]),
        ];
        if let Some(link) = severed {
            lower[link] = on(&[], &[]);
            upper[link] = on(&[], &[]);
        }
        BlockTridiag::patterned(&sizes, &lower, &upper, seed)
    }

    /// Random right-hand sides, one block per slab of `a`.
    fn rhs_for(a: &BlockTridiag, nrhs: usize, seed: u64) -> Vec<ZMat> {
        let sizes: Vec<usize> = (0..a.num_blocks()).map(|i| a.block_size(i)).collect();
        rand_blocks(&sizes, nrhs, seed).1
    }

    /// Thomas, the cyclic reduction and SplitSolve at 2 and 3 ranks on `a`.
    fn every_engine(a: &BlockTridiag, b: &[ZMat]) -> Vec<(String, OmenResult<Vec<ZMat>>)> {
        let mut out = vec![
            ("thomas".to_string(), thomas_solve(a, b)),
            ("bcr".to_string(), bcr_solve(a, b)),
        ];
        for nranks in [2, 3] {
            let per_rank = omen_parsim::run_ranks(nranks, |ctx| {
                crate::splitsolve_parallel(&omen_parsim::Comm::world(ctx), a, b)
            });
            for (rank, r) in per_rank.results.into_iter().enumerate() {
                let r = r.unwrap_or_else(|e| panic!("{nranks} ranks: rank {rank} died: {e}"));
                out.push((format!("splitsolve {nranks} ranks, rank {rank}"), r));
            }
        }
        out
    }

    #[test]
    fn thin_engines_match_the_dense_solve_on_patterned_systems() {
        use omen_num::tolerance::test_bound;
        use omen_num::BoundKind;
        let tol = test_bound("wf.thin_vs_dense", BoundKind::Relative).unwrap();
        let dense_couplings = rand_blocks(&[4, 6, 3, 5, 5, 2], 3, 0xD1).0;
        for (what, a) in [
            ("patterned", patterned(0xC0DE, None)),
            ("dense", dense_couplings),
            ("severed", patterned(0x5E7E, Some(2))),
        ] {
            let b = rhs_for(&a, 3, 0xB);
            let want = dense_solve(&a, &b);
            let scale = want.iter().map(ZMat::max_abs).fold(0.0, f64::max);
            let serial = bcr_solve(&a, &b).unwrap();
            for (engine, got) in every_engine(&a, &b) {
                let got = got.unwrap();
                assert_blocks_close(&got, &want, tol * scale, &format!("{what}: {engine}"));
                if engine.starts_with("splitsolve") {
                    assert!(got == serial, "{what}: {engine} left the serial bits");
                }
            }
        }
    }

    #[test]
    fn a_severed_link_transmits_exactly_nothing() {
        // Modes injected at slab 0 of a chain whose link 2 carries no
        // coupling at all: every block past it is an exact zero in every
        // engine, so the transmission into a lead on the last slab is an
        // exact 0, not a small number.
        let a = patterned(0x5E7E, Some(2));
        let mut b = rhs_for(&a, 2, 0x1);
        for bi in &mut b[1..] {
            *bi = ZMat::zeros(bi.nrows(), bi.ncols());
        }
        let nb = a.num_blocks();
        let w = rand_blocks(&[a.block_size(nb - 1)], a.block_size(nb - 1), 0x2)
            .0
            .diag[0]
            .clone();
        let gamma = omen_linalg::matmul_n_h(&w, &w);
        for (engine, x) in every_engine(&a, &b) {
            let x = x.unwrap();
            assert!(x[..3].iter().all(|xi| xi.max_abs() > 0.0), "{engine}");
            for (i, xi) in x.iter().enumerate().skip(3) {
                assert_eq!(xi.max_abs(), 0.0, "{engine}: slab {i}");
            }
            let last = &x[nb - 1];
            let t = omen_linalg::matmul_h_n(last, &matmul(&gamma, last))
                .trace()
                .re;
            assert_eq!(t, 0.0, "{engine}");
        }
    }

    #[test]
    fn a_nan_coupling_fails_typed_at_the_pivot_it_reaches() {
        use omen_num::OmenError;
        // A NaN in link 1 of a 4-slab chain is in that coupling's support:
        // Thomas carries it into D̃_2, the cyclic reduction into D_2 when
        // slab 2 absorbs slab 1, and both fail typed there — on every rank.
        for poison_upper in [true, false] {
            let (mut a, b) = rand_system(4, 3, 2, 0xBAD);
            let block = if poison_upper {
                &mut a.upper[1]
            } else {
                &mut a.lower[1]
            };
            block[(2, 0)] = c64::new(f64::NAN, 0.0);
            for (engine, r) in every_engine(&a, &b) {
                assert!(
                    matches!(r, Err(OmenError::SingularBlock { block: 2, .. })),
                    "{engine}, upper poisoned: {poison_upper}: {:?}",
                    r.map(|_| ())
                );
            }
        }
    }

    #[test]
    fn singular_block_is_typed_error() {
        use omen_num::OmenError;
        // A provably singular pivot in slab 1 of a 3-slab system: the
        // error must name that slab in both solvers, not panic.
        let (a0, b) = rand_system(3, 2, 1, 21);
        let a = BlockTridiag::new(
            vec![a0.diag[0].clone(), ZMat::zeros(2, 2), a0.diag[2].clone()],
            a0.lower.iter().map(|_| ZMat::zeros(2, 2)).collect(),
            a0.upper.iter().map(|_| ZMat::zeros(2, 2)).collect(),
        );
        for solve in [thomas_solve, bcr_solve] {
            match solve(&a, &b) {
                Err(OmenError::SingularBlock { block, .. }) => assert_eq!(block, 1),
                other => panic!("expected SingularBlock at slab 1, got {other:?}"),
            }
        }
    }
}
