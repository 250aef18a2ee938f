//! LU factorization with partial pivoting, solves and inverses.
//!
//! The recursive Green's function and the block-tridiagonal wave-function
//! solver spend nearly all their time in `PA = LU` factorizations of slab
//! blocks followed by multi-right-hand-side solves; this module is their
//! workhorse. Small matrices (`n ≤ NB`) use in-place Doolittle with row
//! pivoting; larger ones use a blocked **right-looking** factorization:
//! per `NB`-wide panel, (1) unblocked panel factor with partial pivoting
//! and immediate full-width row swaps, (2) unit-lower triangular solve for
//! the `U₁₂` block row, (3) trailing-matrix update
//! `A₂₂ ← A₂₂ − L₂₁·U₁₂` through the tiled multi-threaded GEMM — which is
//! where ~`1 − 1/NB` of the O(n³) work lands. The solves are blocked the
//! same way ([`Lu::solve_mat`]): a row-wise substitution inside each
//! `NB`-row diagonal block, one GEMM update between blocks.
//!
//! Every O(n³) step runs on the dispatched kernel path
//! (`crate::threads::simd_path`, `OMEN_SIMD`): the GEMM updates through
//! the register-blocked microkernel, and every row update
//! `row ← row − m·pivot_row` of the panel factor, of the `U₁₂` solve and
//! of the substitutions through one AXPY resolved per kernel call — on the
//! SIMD path the loop nests are compiled once as `avx2,fma` functions and
//! once as `avx512f` ones, so the AXPY of the host's register width
//! inlines into them (both widths give the same bits; on rows shorter
//! than `WIDE_MIN_N` the 256-bit nests are the faster ones and run).
//! Pivot candidates on the SIMD path are therefore produced by FMA
//! arithmetic: what holds is **per-path determinism** — the panel and
//! substitution phases are serial and lane-local, the GEMM is
//! bit-identical across thread counts for a fixed path, so factors,
//! pivots and solutions are too — **pivot equality against an independent
//! oracle on the conformance battery's matrices** under both paths, and
//! **cross-path agreement to rounding** of factors and solutions
//! (DESIGN.md §10). The scalar AXPY is the plain loop, so the reference
//! path's factors are unchanged by the dispatch. The pivot search
//! compares `norm_sqr` and falls back to `abs` on near-ties and outside
//! the normal range, so it picks the row `abs` picks.

use crate::flops;
use crate::gemm::{gemm_core, Op};
use crate::matrix::ZMat;
use crate::threads::{self, Lanes};
use omen_num::c64;
use std::ops::Range;

/// Panel width of the blocked right-looking factorization; matrices up to
/// this size use the unblocked Doolittle path.
const NB: usize = 48;

/// Shortest row update — the order of a factorization, the width of a
/// solve's right-hand side — that runs on 512-bit lanes where the host has
/// them. Shorter rows are a handful of elements: at n = 8 the 512-bit loop
/// nests lost to the 256-bit ones by 10–19 %; at n = 16 the factorization
/// lost 2–6 % and the solves won 10–21 %; from n = 24 all won or tied
/// (EXPERIMENTS.md "Wide lanes"). Both give the same bits.
const WIDE_MIN_N: usize = 16;

/// The loop nests for row updates up to `len` elements long on `lanes`.
fn row_lanes(lanes: Lanes, len: usize) -> Lanes {
    match lanes {
        Lanes::Avx512 if len < WIDE_MIN_N => Lanes::Avx2,
        lanes => lanes,
    }
}

/// An LU factorization `P·A = L·U` of a square complex matrix.
#[derive(Clone)]
pub struct Lu {
    /// Packed factors: strict lower triangle holds L (unit diagonal
    /// implicit), upper triangle holds U.
    lu: ZMat,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (for determinants).
    sign: f64,
    /// The kernels the factorization was given; it and every solve narrow
    /// them to their own row length (`row_lanes`).
    lanes: Lanes,
}

/// Error raised when a pivot underflows — the matrix is singular to working
/// precision.
#[derive(Debug, Clone, PartialEq)]
pub struct Singular {
    /// Index of the failing pivot.
    pub at: usize,
    /// Magnitude of the failing pivot.
    pub pivot: f64,
}

impl std::fmt::Display for Singular {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix singular to working precision at pivot {} (|p| = {:.3e})",
            self.at, self.pivot
        )
    }
}

impl std::error::Error for Singular {}

impl Singular {
    /// Promotes this kernel-level error to the stack-wide
    /// [`OmenError::SingularBlock`](omen_num::OmenError), attaching the
    /// block index known to the caller. The energy is filled in higher up
    /// via [`OmenError::with_energy`](omen_num::OmenError::with_energy).
    pub fn at_block(self, block: usize) -> omen_num::OmenError {
        omen_num::OmenError::SingularBlock {
            block,
            energy: omen_num::ENERGY_UNKNOWN,
            pivot: self.at,
            magnitude: self.pivot,
        }
    }
}

/// Two pivot candidates whose squared magnitudes differ by less than this
/// (relative) are ordered by `abs` instead: rounding in `norm_sqr` cannot
/// reorder candidates further apart than that.
const PIVOT_TIE: f64 = 1e-9;

/// Row of the largest-magnitude entry of column `j` on rows `j..` (the
/// first one on a tie) and that magnitude. Candidates are compared on
/// `norm_sqr` — two multiplies and an add, where `abs` is a `hypot` —
/// except where two squares lie within [`PIVOT_TIE`] of each other or
/// either is not a normal number (zero, under- or overflowed, NaN): there
/// `abs` decides. The chosen row is therefore the one comparing `abs`
/// alone picks, to the bit.
fn pivot_row(lu: &ZMat, j: usize) -> (usize, f64) {
    let mut p = j;
    let mut best = lu[(j, j)];
    let mut best_sq = best.norm_sqr();
    for i in j + 1..lu.nrows() {
        let v = lu[(i, j)];
        let sq = v.norm_sqr();
        let apart = sq.is_normal()
            && best_sq.is_normal()
            && (sq - best_sq).abs() > PIVOT_TIE * sq.max(best_sq);
        let larger = if apart {
            sq > best_sq
        } else {
            v.abs() > best.abs()
        };
        if larger {
            (p, best, best_sq) = (i, v, sq);
        }
    }
    (p, best.abs())
}

/// The row update `y ← y + α·x` the factorization and substitution loops
/// are compiled around, resolved once per kernel call from the dispatch
/// path: on the SIMD path the whole loop nest is one `avx2,fma` (or
/// `avx512f`) function, so `simd::axpy` (`simd::axpy512`) inlines into it
/// instead of being called per row.
trait RowOps: Copy {
    fn axpy(self, alpha: c64, x: &[c64], y: &mut [c64]);

    /// Pivot row of column `j` and its magnitude.
    fn pivot(self, lu: &ZMat, j: usize) -> (usize, f64) {
        pivot_row(lu, j)
    }

    /// The kernels the GEMM updates run on; by default the process's.
    fn lanes(self) -> Lanes {
        threads::lanes()
    }
}

/// The dispatched kernels: the plain loop on the scalar path, the AVX2 or
/// AVX-512 `axpy` on the SIMD one. Inside the loop nests compiled for one
/// width the lanes are a constant, so the match folds away and that
/// width's `axpy` inlines.
impl RowOps for Lanes {
    #[inline(always)]
    fn axpy(self, alpha: c64, x: &[c64], y: &mut [c64]) {
        assert_eq!(x.len(), y.len(), "axpy length mismatch");
        match self {
            // SAFETY (both arms): a SIMD `Lanes` exists only once its
            // features were detected (see `threads::Lanes`).
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => unsafe { crate::simd::axpy(alpha, x, y) },
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => unsafe { crate::simd::axpy512(alpha, x, y) },
            _ => {
                for (yi, &xi) in y.iter_mut().zip(x) {
                    *yi += alpha * xi;
                }
            }
        }
    }

    fn lanes(self) -> Lanes {
        self
    }
}

/// One unblocked Doolittle step set over columns `kk..k_hi`, updating only
/// columns `kk..k_hi`. Pivots are searched over full columns `j..n` and
/// rows are swapped across the full width, so the permutation matches the
/// unblocked algorithm exactly.
#[inline(always)]
fn panel_factor<R: RowOps>(
    lu: &mut ZMat,
    perm: &mut [usize],
    sign: &mut f64,
    (kk, k_hi): (usize, usize),
    ops: R,
) -> Result<(), Singular> {
    let n = lu.nrows();
    for j in kk..k_hi {
        let (p, pmax) = ops.pivot(lu, j);
        if pmax < 1e-300 {
            return Err(Singular { at: j, pivot: pmax });
        }
        if p != j {
            // Swap full rows (both L and U parts) and permutation.
            for c in 0..n {
                let t = lu[(j, c)];
                lu[(j, c)] = lu[(p, c)];
                lu[(p, c)] = t;
            }
            perm.swap(j, p);
            *sign = -*sign;
        }
        let inv_p = lu[(j, j)].inv();
        // Split rows j.. so we can read row j while updating rows below.
        let (upper, lower) = lu.data_mut().split_at_mut((j + 1) * n);
        let urow = &upper[j * n + j + 1..j * n + k_hi];
        for row in lower.chunks_exact_mut(n) {
            let m = row[j] * inv_p;
            row[j] = m;
            if m == c64::ZERO {
                continue;
            }
            ops.axpy(-m, urow, &mut row[j + 1..k_hi]);
        }
    }
    Ok(())
}

/// [`Lu::factor`]'s loops on `lu` in place: per `NB`-wide panel, (1) the
/// panel factor, (2) the block row `U12 ← L11⁻¹·A12`, (3) the trailing
/// update through the GEMM core. Up to `NB` columns this is one panel: the
/// unblocked Doolittle.
#[inline(always)]
fn factor_with<R: RowOps>(
    lu: &mut ZMat,
    perm: &mut [usize],
    sign: &mut f64,
    ops: R,
) -> Result<(), Singular> {
    let n = lu.nrows();
    for kk in (0..n).step_by(NB) {
        let k_hi = (kk + NB).min(n);
        // 1. Panel factor (updates within the panel only; the trailing
        //    columns were brought up to date by previous GEMM updates).
        panel_factor(lu, perm, sign, (kk, k_hi), ops)?;
        if k_hi == n {
            break;
        }
        // 2. Block row U12 ← L11⁻¹ · A12 (unit-lower forward solve,
        //    row-wise so each inner update is a contiguous AXPY).
        for i in kk + 1..k_hi {
            let (above, mine) = lu.data_mut().split_at_mut(i * n);
            let irow = &mut mine[..n];
            for p in kk..i {
                let lip = irow[p];
                if lip == c64::ZERO {
                    continue;
                }
                let prow = &above[p * n + k_hi..(p + 1) * n];
                ops.axpy(-lip, prow, &mut irow[k_hi..]);
            }
        }
        // 3. Trailing update A22 ← A22 − L21·U12 through the tiled,
        //    multi-threaded GEMM (copy-out/copy-in of the trailing block is
        //    O(n²) against the O(n²·NB) update it feeds).
        let nt = n - k_hi;
        let nb = k_hi - kk;
        let l21 = lu.block(k_hi, kk, nt, nb);
        let u12 = lu.block(kk, k_hi, nb, nt);
        let mut a22 = lu.block(k_hi, k_hi, nt, nt);
        subtract_product(ops.lanes(), &mut a22, &l21, &u12);
        lu.set_block(k_hi, k_hi, &a22);
    }
    Ok(())
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn factor_avx2(lu: &mut ZMat, perm: &mut [usize], sign: &mut f64) -> Result<(), Singular> {
    factor_with(lu, perm, sign, Lanes::Avx2)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn factor_avx512(lu: &mut ZMat, perm: &mut [usize], sign: &mut f64) -> Result<(), Singular> {
    factor_with(lu, perm, sign, Lanes::Avx512)
}

/// `x ← L⁻¹ x` (unit diagonal) for an already row-permuted right-hand side,
/// then `x ← U⁻¹ x`. With `lower`, `x` is lower triangular on entry and
/// stays so through the forward solve: each row update then stops at the
/// source row's diagonal.
///
/// Blocked like [`Lu::factor`]: per `NB`-row diagonal block a row-wise
/// triangular solve (one AXPY per eliminated entry), and between blocks
/// one off-diagonal update through the tiled GEMM; the back substitution
/// walks the blocks descending. Matrices up to `NB` are a single block,
/// i.e. the plain substitution.
#[inline(always)]
fn substitute_with<R: RowOps>(lu: &ZMat, x: &mut ZMat, lower: bool, ops: R) {
    let n = lu.nrows();
    let nrhs = x.ncols();
    let width = |row: usize| if lower { row + 1 } else { nrhs };
    for kk in (0..n).step_by(NB) {
        let k_hi = (kk + NB).min(n);
        for i in kk + 1..k_hi {
            let (done, rest) = x.data_mut().split_at_mut(i * nrhs);
            let xi = &mut rest[..nrhs];
            for j in kk..i {
                let lij = lu[(i, j)];
                if lij == c64::ZERO {
                    continue;
                }
                let w = width(j);
                ops.axpy(-lij, &done[j * nrhs..j * nrhs + w], &mut xi[..w]);
            }
        }
        if k_hi < n {
            sub_product(ops.lanes(), lu, x, k_hi..n, kk..k_hi, width(k_hi - 1));
        }
    }
    for kk in (0..n).step_by(NB).rev() {
        let k_hi = (kk + NB).min(n);
        if k_hi < n {
            sub_product(ops.lanes(), lu, x, kk..k_hi, k_hi..n, nrhs);
        }
        for i in (kk..k_hi).rev() {
            let (head, tail) = x.data_mut().split_at_mut((i + 1) * nrhs);
            let xi = &mut head[i * nrhs..];
            for j in i + 1..k_hi {
                let uij = lu[(i, j)];
                if uij == c64::ZERO {
                    continue;
                }
                ops.axpy(-uij, &tail[(j - i - 1) * nrhs..(j - i) * nrhs], xi);
            }
            let d = lu[(i, i)].inv();
            for a in xi.iter_mut() {
                *a *= d;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn substitute_avx2(lu: &ZMat, x: &mut ZMat, lower: bool) {
    substitute_with(lu, x, lower, Lanes::Avx2)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
fn substitute_avx512(lu: &ZMat, x: &mut ZMat, lower: bool) {
    substitute_with(lu, x, lower, Lanes::Avx512)
}

/// `c ← c − a·b` through the tiled, multi-threaded GEMM core on the
/// kernels `lanes` — uncounted: the caller reported `lu_flops` /
/// `trsm_flops` for the whole kernel.
fn subtract_product(lanes: Lanes, c: &mut ZMat, a: &ZMat, b: &ZMat) {
    let work = a.nrows() as u64 * b.ncols() as u64 * a.ncols() as u64;
    gemm_core(
        lanes,
        -c64::ONE,
        a,
        Op::N,
        b,
        Op::N,
        c64::ONE,
        c,
        threads::auto_threads(work),
    );
}

/// `x[rows, ..width] ← x[rows, ..width] − lu[rows, cols]·x[cols, ..width]`
/// for two disjoint row ranges of the right-hand-side matrix `x`. The
/// copy-out/copy-in is O(n·width) against the O(n·NB·width) update it
/// feeds.
fn sub_product(
    lanes: Lanes,
    lu: &ZMat,
    x: &mut ZMat,
    rows: Range<usize>,
    cols: Range<usize>,
    width: usize,
) {
    let a = lu.block(rows.start, cols.start, rows.len(), cols.len());
    let b = x.block(cols.start, 0, cols.len(), width);
    let mut c = x.block(rows.start, 0, rows.len(), width);
    subtract_product(lanes, &mut c, &a, &b);
    x.set_block(rows.start, 0, &c);
}

impl Lu {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// [`Singular`] when a pivot column is entirely below `1e-300` in
    /// magnitude. A NaN entry is not detected here (see [`non_finite`]).
    pub fn factor(a: &ZMat) -> Result<Lu, Singular> {
        assert!(a.is_square(), "LU of non-square matrix");
        // One aggregate report covers panel, triangular-solve and trailing
        // GEMM work: the blocked path calls the *uncounted* GEMM core so
        // the total stays exactly `lu_flops(n)` per factorization.
        flops::add_flops(flops::lu_flops(a.nrows()));
        Lu::factor_on(threads::lanes(), a)
    }

    /// [`Lu::factor`] on the kernels `lanes`, reporting no flops.
    pub(crate) fn factor_on(lanes: Lanes, a: &ZMat) -> Result<Lu, Singular> {
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..a.nrows()).collect();
        let mut sign = 1.0;
        match row_lanes(lanes, a.nrows()) {
            // SAFETY (both arms): the SIMD lanes are only resolved after
            // feature detection.
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => unsafe { factor_avx2(&mut lu, &mut perm, &mut sign) },
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => unsafe { factor_avx512(&mut lu, &mut perm, &mut sign) },
            _ => factor_with(&mut lu, &mut perm, &mut sign, Lanes::Scalar),
        }?;
        Ok(Lu {
            lu,
            perm,
            sign,
            lanes,
        })
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.lu.nrows()
    }

    /// Packed factors: strict lower triangle holds `L` (unit diagonal
    /// implicit), upper triangle holds `U`. Exposed for conformance
    /// testing against reference factorizations.
    pub fn packed(&self) -> &ZMat {
        &self.lu
    }

    /// Row permutation: `perm()[i]` is the original row now in position
    /// `i`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> c64 {
        let mut d = c64::real(self.sign);
        for i in 0..self.n() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Solves `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[c64]) -> Vec<c64> {
        assert_eq!(b.len(), self.n(), "rhs length mismatch");
        let x = self.solve_mat(&ZMat::from_vec(b.len(), 1, b.to_vec()));
        x.data().to_vec()
    }

    /// Solves `A X = B` for a matrix of right-hand sides.
    pub fn solve_mat(&self, b: &ZMat) -> ZMat {
        let n = self.n();
        assert_eq!(b.nrows(), n, "rhs row count mismatch");
        let nrhs = b.ncols();
        flops::add_flops(flops::trsm_flops(n, nrhs));
        // Permute rows of B.
        let mut x = ZMat::zeros(n, nrhs);
        for i in 0..n {
            x.row_mut(i).copy_from_slice(b.row(self.perm[i]));
        }
        self.substitute(&mut x, false);
        x
    }

    /// Explicit inverse `A⁻¹ = U⁻¹·L⁻¹·P`, in the shape of LAPACK's
    /// `getri`: the forward solve runs on the identity, where row `i` of
    /// `L⁻¹` lives on columns `0..=i`, so it skips the zeros to the right;
    /// the back substitution runs on the dense `L⁻¹`; the row permutation
    /// becomes one column permutation at the end. `16/3 n³` flops
    /// ([`flops::inverse_flops`]) against the `8 n³` of two full
    /// triangular solves against `P`.
    pub fn inverse(&self) -> ZMat {
        let n = self.n();
        flops::add_flops(flops::inverse_flops(n));
        let mut x = ZMat::eye(n);
        self.substitute(&mut x, true);
        // A⁻¹ = X·P: column `perm[i]` of the inverse is column `i` of X.
        let mut row = vec![c64::ZERO; n];
        for r in 0..n {
            row.copy_from_slice(x.row(r));
            let dst = x.row_mut(r);
            for (&v, &p) in row.iter().zip(&self.perm) {
                dst[p] = v;
            }
        }
        x
    }

    /// `x ← U⁻¹·L⁻¹·x` on the factors' kernels ([`substitute_with`]).
    fn substitute(&self, x: &mut ZMat, lower: bool) {
        match row_lanes(self.lanes, x.ncols()) {
            // SAFETY (both arms): the SIMD lanes are only resolved after
            // feature detection.
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx2 => unsafe { substitute_avx2(&self.lu, x, lower) },
            #[cfg(target_arch = "x86_64")]
            Lanes::Avx512 => unsafe { substitute_avx512(&self.lu, x, lower) },
            _ => substitute_with(&self.lu, x, lower, Lanes::Scalar),
        }
    }
}

/// The first row of `a` holding a non-finite entry, as the failure a
/// factorization should have reported: [`Lu::factor`]'s pivot search
/// compares magnitudes, a NaN compares false, and so any pivot is silently
/// accepted and the NaN propagates through the solve. Callers that take
/// blocks from outside check here first.
pub fn non_finite(a: &ZMat) -> Option<Singular> {
    (0..a.nrows())
        .find(|&i| !a.row(i).iter().all(|z| z.is_finite()))
        .map(|at| Singular {
            at,
            pivot: f64::NAN,
        })
}

/// Maximum escalation steps [`factor_regularized`] attempts before giving
/// up: shifts of `i·eta`, `i·10·eta`, `i·100·eta`.
pub const MAX_REGULARIZE_RETRIES: usize = 3;

/// Factorizes `a`, recovering from singular pivots by retrying with a small
/// imaginary diagonal shift `+ i·eta` (escalated ×10 per attempt, up to
/// [`MAX_REGULARIZE_RETRIES`] times).
///
/// This is the standard NEGF regularization: the physical system matrix is
/// `(E + i·η)S − H − Σ`, so an extra `i·eta` with `eta` at the numerical
/// broadening scale moves the factorization off an exact eigenvalue without
/// perturbing observables beyond the broadening already present. Returns
/// the factorization and the number of retries spent (`0` = clean factor),
/// so callers can account recoveries in their sweep reports.
///
/// # Errors
///
/// [`Singular`] when `a` holds a non-finite entry, checked up front before
/// any factorization; otherwise the unshifted factorization's failure when
/// all [`MAX_REGULARIZE_RETRIES`] shifts are singular as well.
pub fn factor_regularized(a: &ZMat, eta: f64) -> Result<(Lu, usize), Singular> {
    debug_assert!(eta > 0.0, "regularization shift must be positive");
    // The shift recovery keeps a NaN: fail typed up front.
    if let Some(poisoned) = non_finite(a) {
        return Err(poisoned);
    }
    match Lu::factor(a) {
        Ok(f) => Ok((f, 0)),
        Err(first) => {
            let n = a.nrows();
            let mut shift = eta;
            for retry in 1..=MAX_REGULARIZE_RETRIES {
                let mut shifted = a.clone();
                for i in 0..n {
                    shifted[(i, i)] += c64::new(0.0, shift);
                }
                if let Ok(f) = Lu::factor(&shifted) {
                    return Ok((f, retry));
                }
                shift *= 10.0;
            }
            Err(first)
        }
    }
}

/// One-shot solve `A x = b`.
///
/// # Errors
///
/// [`Singular`] when [`Lu::factor`] finds a zero pivot column.
pub fn solve(a: &ZMat, b: &ZMat) -> Result<ZMat, Singular> {
    Ok(Lu::factor(a)?.solve_mat(b))
}

/// One-shot inverse.
///
/// # Errors
///
/// [`Singular`] when [`Lu::factor`] finds a zero pivot column.
pub fn inverse(a: &ZMat) -> Result<ZMat, Singular> {
    Ok(Lu::factor(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul;
    use crate::threads::SimdPath;

    fn randmat(n: usize, seed: u64) -> ZMat {
        let mut s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        ZMat::from_fn(n, n, |_, _| c64::new(next(), next()))
    }

    /// The kernels as they ran before the row update was resolved per call:
    /// `abs` compared on every pivot candidate, and every row update
    /// dispatched through `axpy_on`.
    #[derive(Clone, Copy)]
    struct Reference(SimdPath);

    impl RowOps for Reference {
        fn axpy(self, alpha: c64, x: &[c64], y: &mut [c64]) {
            crate::vec_ops::axpy_on(self.0, alpha, x, y);
        }

        fn pivot(self, lu: &ZMat, j: usize) -> (usize, f64) {
            let mut p = j;
            let mut pmax = lu[(j, j)].abs();
            for i in j + 1..lu.nrows() {
                let v = lu[(i, j)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            (p, pmax)
        }
    }

    /// Equal bits, or NaN on both sides (a NaN's payload is not part of
    /// the contract).
    fn same_bits(a: &ZMat, b: &ZMat) -> bool {
        let same = |x: f64, y: f64| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        a.nrows() == b.nrows()
            && a.ncols() == b.ncols()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| same(x.re, y.re) && same(x.im, y.im))
    }

    /// 360 matrices, n = 1–130 across the unblocked / blocked boundary, at
    /// magnitudes 1 and 1e±200, with rows spread over 1e±150, with exact
    /// magnitude ties and with near-ties: the `norm_sqr` pivot search and
    /// the per-call SIMD loops give the reference kernels' factors,
    /// permutation, solutions and inverse to the bit on this leg.
    #[test]
    fn resolved_kernels_match_the_reference_to_the_bit() {
        let path = threads::simd_path();
        let sizes = [1usize, 2, 3, 5, 8, 13, 21, 32, 47, 48, 49, 64, 90, 97, 130];
        let mut cases = 0;
        for (k, &n) in sizes.iter().enumerate() {
            for seed in 0..4u64 {
                let base = randmat(n, 1000 * k as u64 + seed);
                let ties = ZMat::from_fn(n, n, |i, j| {
                    let phase = [c64::ONE, c64::I, -c64::ONE, -c64::I][(i * 7 + j * 3) % 4];
                    phase.scale(((i + 2 * j + seed as usize) % 3 + 1) as f64)
                });
                let near = ZMat::from_fn(n, n, |i, j| {
                    c64::new(1.0 + 1e-12 * ((i * j) % 5) as f64, 0.0)
                        .scale(((i + j) % 2 + 1) as f64)
                });
                let spread = ZMat::from_fn(n, n, |i, j| {
                    base[(i, j)].scale(10f64.powi(((i * 37) % 301) as i32 - 150))
                });
                for a in [
                    base.clone(),
                    base.scaled(c64::real(1e200)),
                    base.scaled(c64::real(1e-200)),
                    spread,
                    ties,
                    near,
                ] {
                    cases += 1;
                    let got = Lu::factor(&a);
                    let mut lu = a.clone();
                    let mut perm: Vec<usize> = (0..n).collect();
                    let mut sign = 1.0;
                    let want = factor_with(&mut lu, &mut perm, &mut sign, Reference(path));
                    let f = match (got, want) {
                        (Ok(f), Ok(())) => f,
                        (Err(g), Err(w)) => {
                            assert_eq!((g.at, g.pivot.to_bits()), (w.at, w.pivot.to_bits()));
                            continue;
                        }
                        (g, w) => panic!("n={n} seed={seed}: {:?} vs {w:?}", g.err()),
                    };
                    assert!(same_bits(&f.lu, &lu), "n={n} seed={seed}: factors");
                    assert_eq!((f.perm.as_slice(), f.sign), (perm.as_slice(), sign));
                    let b = randmat(n.max(3), seed).block(0, 0, n, 3);
                    let mut x = ZMat::from_fn(n, 3, |i, j| b[(perm[i], j)]);
                    substitute_with(&lu, &mut x, false, Reference(path));
                    assert!(same_bits(&f.solve_mat(&b), &x), "n={n} seed={seed}: solve");
                    let mut inv = ZMat::eye(n);
                    substitute_with(&lu, &mut inv, true, Reference(path));
                    let inv = ZMat::from_fn(n, n, |r, c| {
                        inv[(r, perm.iter().position(|&p| p == c).unwrap())]
                    });
                    assert!(same_bits(&f.inverse(), &inv), "n={n} seed={seed}: inverse");
                }
            }
        }
        assert_eq!(cases, 360);
    }

    #[test]
    fn tiny_pivots_solve_to_relative_accuracy() {
        // Pivots between the 1e-300 floor and ≈1.5e-154, whose squares
        // underflow: accepted by the factorization, inverted finite.
        for scale in [1e-200, 1e-160, 1e-290] {
            let a = ZMat::from_rows(&[
                vec![c64::new(2.0, 1.0), c64::new(1.0, -1.0)],
                vec![c64::new(-1.0, 0.5), c64::new(3.0, 0.0)],
            ])
            .scaled(c64::real(scale));
            let x = ZMat::from_rows(&[vec![c64::new(1.0, 2.0)], vec![c64::new(-0.5, 1.0)]]);
            let b = ZMat::from_fn(2, 1, |i, _| a[(i, 0)] * x[(0, 0)] + a[(i, 1)] * x[(1, 0)]);
            let got = Lu::factor(&a)
                .expect("pivots above the floor")
                .solve_mat(&b);
            assert!(
                (&got - &x).max_abs() <= 1e-14 * x.max_abs(),
                "scale {scale}: {got:?}"
            );
        }
    }

    #[test]
    fn reconstructs_pa_eq_lu() {
        let n = 12;
        let a = randmat(n, 5);
        let f = Lu::factor(&a).unwrap();
        // Rebuild L and U, check L·U == P·A.
        let mut l = ZMat::eye(n);
        let mut u = ZMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i > j {
                    l[(i, j)] = f.lu[(i, j)];
                } else {
                    u[(i, j)] = f.lu[(i, j)];
                }
            }
        }
        let pa = ZMat::from_fn(n, n, |i, j| a[(f.perm[i], j)]);
        assert!((&matmul(&l, &u) - &pa).max_abs() < 1e-12);
    }

    #[test]
    fn solve_vec_and_mat_agree() {
        let n = 9;
        let a = randmat(n, 17);
        let b = randmat(n, 18);
        let f = Lu::factor(&a).unwrap();
        let xm = f.solve_mat(&b);
        for j in 0..n {
            let xv = f.solve_vec(&b.col(j));
            for i in 0..n {
                assert!((xv[i] - xm[(i, j)]).abs() < 1e-11);
            }
        }
        // Residual check.
        assert!((&matmul(&a, &xm) - &b).max_abs() < 1e-10);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = randmat(15, 33);
        let inv = inverse(&a).unwrap();
        assert!((&matmul(&a, &inv) - &ZMat::eye(15)).max_abs() < 1e-10);
        assert!((&matmul(&inv, &a) - &ZMat::eye(15)).max_abs() < 1e-10);
    }

    #[test]
    fn determinant_of_known_matrix() {
        // det([[2, 1], [1, 3]]) = 5; complex scaling multiplies by i^2... use exact case.
        let a = ZMat::from_rows(&[
            vec![c64::real(2.0), c64::real(1.0)],
            vec![c64::real(1.0), c64::real(3.0)],
        ]);
        let d = Lu::factor(&a).unwrap().det();
        assert!((d - c64::real(5.0)).abs() < 1e-13);
        // Permutation sign: swapping rows flips sign.
        let b = ZMat::from_rows(&[
            vec![c64::real(0.0), c64::real(1.0)],
            vec![c64::real(1.0), c64::real(0.0)],
        ]);
        assert!((Lu::factor(&b).unwrap().det() + c64::ONE).abs() < 1e-15);
    }

    #[test]
    fn singular_detected() {
        let mut a = randmat(6, 44);
        // Make row 3 a copy of row 1.
        for j in 0..6 {
            let v = a[(1, j)];
            a[(3, j)] = v;
        }
        let r = Lu::factor(&a);
        match r {
            Err(_) => {}
            Ok(f) => assert!(f.det().abs() < 1e-10, "near-singular must have tiny det"),
        }
        let z = ZMat::zeros(4, 4);
        assert!(Lu::factor(&z).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = ZMat::from_rows(&[vec![c64::ZERO, c64::ONE], vec![c64::ONE, c64::ZERO]]);
        let f = Lu::factor(&a).unwrap();
        let x = f.solve_vec(&[c64::real(3.0), c64::real(7.0)]);
        assert!((x[0] - c64::real(7.0)).abs() < 1e-14);
        assert!((x[1] - c64::real(3.0)).abs() < 1e-14);
    }

    #[test]
    fn regularized_factor_recovers_singular_matrix() {
        // Exactly singular: rank-1 matrix. A clean factor fails, but the
        // i·eta shift makes it invertible and reports one retry.
        let a = ZMat::from_rows(&[
            vec![c64::real(1.0), c64::real(2.0)],
            vec![c64::real(2.0), c64::real(4.0)],
        ]);
        assert!(Lu::factor(&a).is_err());
        let (f, retries) = factor_regularized(&a, 1e-6).unwrap();
        assert!(retries >= 1, "recovery must be accounted");
        assert!(f.det().abs() > 0.0);
        // A healthy matrix costs no retries.
        let (_, r0) = factor_regularized(&ZMat::eye(3), 1e-6).unwrap();
        assert_eq!(r0, 0);
        // The all-NaN-proof hopeless case still errors out.
        let z = ZMat::zeros(3, 3);
        // Zero matrix + tiny i·eta·I is invertible, so it actually recovers:
        let (_, rz) = factor_regularized(&z, 1e-6).unwrap();
        assert!(rz >= 1);
    }

    #[test]
    fn singular_promotes_to_omen_error() {
        let e = Singular { at: 2, pivot: 0.0 }.at_block(5);
        match e {
            omen_num::OmenError::SingularBlock {
                block,
                energy,
                pivot,
                ..
            } => {
                assert_eq!(block, 5);
                assert_eq!(pivot, 2);
                assert!(energy.is_nan());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn diagonally_dominant_large_system() {
        let n = 60;
        let mut a = randmat(n, 7);
        for i in 0..n {
            a[(i, i)] += c64::real(n as f64);
        }
        let b = randmat(n, 8);
        let x = solve(&a, &b).unwrap();
        assert!((&matmul(&a, &x) - &b).max_abs() < 1e-9);
    }
}
