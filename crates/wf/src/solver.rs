//! Sequential block-tridiagonal solvers: block Thomas and block cyclic
//! reduction.
//!
//! Both solve `A X = B` where `A` is block tridiagonal and `B` is a dense
//! block column (one `ZMat` of RHS rows per slab). Thomas elimination is
//! the minimal-flop sequential baseline; cyclic reduction counts 1.8× its
//! flops at 8 slabs and 2.0× at 16 (`tab2_flops`, BCR/Thomas column) but
//! exposes the log-depth elimination tree. The tree's block arithmetic
//! lives here once (`Reduction`, `back_substitute`): [`bcr_solve`]
//! applies it to every block in turn, [`crate::splitsolve`] schedules the
//! same calls over the ranks that own the blocks.

use omen_linalg::{gemm, lu::Lu, matmul, Op, ZMat};
use omen_num::{c64, OmenResult};
use omen_sparse::BlockTridiag;
use std::iter::once;

/// Solves `A X = B` by block Thomas (forward elimination, back
/// substitution). `b[i]` holds the RHS rows of slab `i` (all with the same
/// column count).
///
/// # Errors
///
/// A singular pivot block surfaces as
/// [`omen_num::OmenError::SingularBlock`] carrying the slab index.
pub fn thomas_solve(a: &BlockTridiag, b: &[ZMat]) -> OmenResult<Vec<ZMat>> {
    let nb = a.num_blocks();
    assert_eq!(b.len(), nb, "one RHS block per slab");
    let nrhs = b[0].ncols();
    for (i, bi) in b.iter().enumerate() {
        assert_eq!(bi.nrows(), a.block_size(i), "RHS block {i} row mismatch");
        assert_eq!(bi.ncols(), nrhs, "ragged RHS");
    }

    // Forward: d_i ← D_i − L_{i-1} d̃_{i-1} U_{i-1} … carried via factored form.
    // u_tilde[i] = D̃_i⁻¹ U_i, y[i] = D̃_i⁻¹ (b_i − L_{i-1} y_{i-1}).
    let mut u_tilde: Vec<ZMat> = Vec::with_capacity(nb.saturating_sub(1));
    let mut y: Vec<ZMat> = Vec::with_capacity(nb);
    let mut d_eff = a.diag[0].clone();
    for i in 0..nb {
        if i > 0 {
            // D̃_i = D_i − L_{i-1} ũ_{i-1}
            let corr = matmul(&a.lower[i - 1], &u_tilde[i - 1]);
            d_eff = a.diag[i].clone();
            d_eff -= &corr;
        }
        let f = Lu::factor(&d_eff).map_err(|s| s.at_block(i))?;
        if i + 1 < nb {
            u_tilde.push(f.solve_mat(&a.upper[i]));
        }
        let rhs = if i == 0 {
            b[0].clone()
        } else {
            let mut r = b[i].clone();
            let corr = matmul(&a.lower[i - 1], &y[i - 1]);
            r -= &corr;
            r
        };
        y.push(f.solve_mat(&rhs));
    }

    // Back substitution: x_{nb-1} = y_{nb-1}; x_i = y_i − ũ_i x_{i+1}.
    let mut x = y;
    for i in (0..nb - 1).rev() {
        let corr = matmul(&u_tilde[i], &x[i + 1]);
        x[i] -= &corr;
    }
    Ok(x)
}

/// Factored products of one eliminated block: `(D⁻¹b, D⁻¹L, D⁻¹U)`, a
/// coupling absent where the chain ends.
pub(crate) type Bundle = (ZMat, Option<ZMat>, Option<ZMat>);

/// The active system of a cyclic reduction, indexed by original slab: each
/// surviving block's diagonal, right-hand side and couplings to its nearest
/// surviving neighbours. At stride `s = 2^level` the survivors are the
/// multiples of `s`; the odd multiples are eliminated, each between its
/// neighbours `g ∓ s`, and slab 0 is the root. A rank of
/// [`crate::splitsolve`] keeps only the blocks it owns current.
pub(crate) struct Reduction {
    diag: Vec<ZMat>,
    /// Right-hand sides; [`bcr_solve`] overwrites them with the solution.
    rhs: Vec<ZMat>,
    lower: Vec<Option<ZMat>>,
    upper: Vec<Option<ZMat>>,
}

impl Reduction {
    pub(crate) fn new(a: &BlockTridiag, b: &[ZMat]) -> Self {
        assert_eq!(b.len(), a.num_blocks(), "one RHS block per slab");
        Reduction {
            diag: a.diag.clone(),
            rhs: b.to_vec(),
            lower: once(None)
                .chain(a.lower.iter().cloned().map(Some))
                .collect(),
            upper: a
                .upper
                .iter()
                .cloned()
                .map(Some)
                .chain(once(None))
                .collect(),
        }
    }

    /// Factors block `g` and forms its bundle.
    pub(crate) fn eliminate(&self, g: usize) -> OmenResult<Bundle> {
        let f = Lu::factor(&self.diag[g]).map_err(|s| s.at_block(g))?;
        Ok((
            f.solve_mat(&self.rhs[g]),
            self.lower[g].as_ref().map(|l| f.solve_mat(l)),
            self.upper[g].as_ref().map(|u| f.solve_mat(u)),
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
        let f = Lu::factor(&self.diag[0]).map_err(|s| s.at_block(0))?;
        Ok(f.solve_mat(&self.rhs[0]))
    }
}

/// Schur update of a surviving block across its coupling `c` to an
/// eliminated neighbour: `D −= c·D⁻¹(back)`, `b −= c·D⁻¹b`, fused into the
/// accumulation (`gemm` with α = −1, β = 1). Returns the fill-in coupling
/// `−c·D⁻¹(on)` to the survivor beyond the neighbour.
fn schur_update(
    c: &ZMat,
    dib: &ZMat,
    back: &Option<ZMat>,
    on: &Option<ZMat>,
    d: &mut ZMat,
    b: &mut ZMat,
) -> Option<ZMat> {
    if let Some(back) = back {
        gemm(-c64::ONE, c, Op::N, back, Op::N, c64::ONE, d);
    }
    gemm(-c64::ONE, c, Op::N, dib, Op::N, c64::ONE, b);
    on.as_ref().map(|on| -&matmul(c, on))
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
        gemm(-c64::ONE, dil, Op::N, xl, Op::N, c64::ONE, &mut x);
    }
    if let (Some(diu), Some(xr)) = (diu, x_right) {
        gemm(-c64::ONE, diu, Op::N, xr, Op::N, c64::ONE, &mut x);
    }
    x
}

/// Solves `A X = B` by sequential block cyclic reduction.
///
/// Log-depth elimination: every level removes the odd-position blocks of
/// the currently active index set, producing a half-size block-tridiagonal
/// system among the survivors; back substitution then recovers the
/// eliminated blocks level by level. Handles arbitrary (non-power-of-two)
/// block counts and variable block sizes. This is the serial driver over
/// the block arithmetic [`crate::splitsolve_parallel`] schedules across
/// ranks, and its bit reference at every rank count.
///
/// # Errors
///
/// A singular pivot block surfaces as
/// [`omen_num::OmenError::SingularBlock`] carrying the original slab
/// index.
pub fn bcr_solve(a: &BlockTridiag, b: &[ZMat]) -> OmenResult<Vec<ZMat>> {
    let nb = a.num_blocks();
    let mut sys = Reduction::new(a, b);
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
