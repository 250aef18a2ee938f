//! Kernel conformance battery: the tiled GEMM, the blocked LU and its
//! triangular solves are checked against independent naive O(n³) oracles.
//!
//! The oracles here deliberately share no code with `omen-linalg`: GEMM is
//! evaluated index-by-index with the operand ops applied through index
//! swaps and explicit conjugation (no materialization, no tiling), LU
//! is a textbook unblocked Doolittle with partial pivoting, and the solves
//! are element-by-element substitutions. Agreement is
//! elementwise within the bounds declared in the repo-root
//! `TOLERANCES.toml` (`gemm.vs_oracle`, `lu.vs_oracle`,
//! `lu.solve_residual` — see DESIGN.md §12).
//!
//! ## Dispatch paths
//!
//! The kernel dispatch (`OMEN_SIMD`, scalar vs AVX2+FMA) is resolved
//! once per process, so one test binary exercises exactly one path; `ci.sh`
//! runs this battery under **both** `OMEN_SIMD=0` and `OMEN_SIMD=1` (the
//! SIMD leg self-skips without AVX2). Every oracle comparison here is
//! dispatch-independent test code, so passing under both legs proves the
//! cross-path tolerance contract, and the pivot-sequence assertions —
//! exact equalities against the same oracle — show LU pivot equality
//! *across* paths on these matrices by transitivity (the LU row updates
//! are dispatched too, so that is a tested fact, not a construction).
//! Bit equality is never asserted across paths: FMA and split
//! accumulators legitimately change the rounding sequence (DESIGN.md §10).

use omen::linalg::{gemm, lu::Lu, threads, Op, ZMat};
use omen::num::c64;
use omen::num::tolerance::test_bound;
use omen::num::BoundKind;

/// Fetches one bound from the tolerance policy; the conformance battery
/// carries no inline numeric tolerances of its own.
fn tol(op: &str, kind: BoundKind) -> f64 {
    test_bound(op, kind).expect("TOLERANCES.toml covers every conformance op")
}

/// Deterministic LCG in [-1, 1] — no dev-dependencies in this workspace.
fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed
        .wrapping_mul(0x5851F42D4C957F2D)
        .wrapping_add(0x14057B7EF767814F);
    move || {
        s = s
            .wrapping_mul(0x5851F42D4C957F2D)
            .wrapping_add(0x14057B7EF767814F);
        ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }
}

fn randmat(nr: usize, nc: usize, seed: u64) -> ZMat {
    let mut next = rng(seed);
    ZMat::from_fn(nr, nc, |_, _| c64::new(next(), next()))
}

/// Storage shape for an operand whose *effective* (post-op) shape is
/// `rows × cols`.
fn stored(op: Op, rows: usize, cols: usize, seed: u64) -> ZMat {
    match op {
        Op::N => randmat(rows, cols, seed),
        Op::T | Op::H => randmat(cols, rows, seed),
    }
}

/// Element `(i, j)` of `op(M)`, read straight from storage.
fn at(m: &ZMat, op: Op, i: usize, j: usize) -> c64 {
    match op {
        Op::N => m[(i, j)],
        Op::T => m[(j, i)],
        Op::H => m[(j, i)].conj(),
    }
}

/// Naive oracle for `alpha·op(A)·op(B) + beta·C0`, evaluated per element
/// with k ascending — the only property shared with the real kernel.
#[allow(clippy::too_many_arguments)]
fn oracle_gemm(alpha: c64, a: &ZMat, opa: Op, b: &ZMat, opb: Op, beta: c64, c0: &ZMat) -> ZMat {
    let k = match opa {
        Op::N => a.ncols(),
        Op::T | Op::H => a.nrows(),
    };
    ZMat::from_fn(c0.nrows(), c0.ncols(), |i, j| {
        let mut s = c64::ZERO;
        for p in 0..k {
            s += at(a, opa, i, p) * at(b, opb, p, j);
        }
        alpha * s + beta * c0[(i, j)]
    })
}

fn assert_close(got: &ZMat, want: &ZMat, rel: f64, ctx: &str) {
    assert_eq!(
        (got.nrows(), got.ncols()),
        (want.nrows(), want.ncols()),
        "{ctx}: shape"
    );
    for i in 0..want.nrows() {
        for j in 0..want.ncols() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert!(
                (g - w).abs() <= rel * (1.0 + w.abs()),
                "{ctx}: ({i},{j}) got {g:?} want {w:?}"
            );
        }
    }
}

const OPS: [Op; 3] = [Op::N, Op::T, Op::H];

#[test]
fn gemm_matches_oracle_for_all_op_pairs() {
    // Shapes straddle the 64-wide tile boundaries: prime edges, one edge
    // above MC/KC, ragged remainders everywhere. The last four are the thin
    // products the RGF recursion leans on (n = 90 slab, s = 20 support
    // orbitals): a full block against a boundary column, `gL[:,R]·core`
    // and the column updates, `core·gL[R′,:]`, and the rank-s
    // accumulation into `G_ii`.
    let shapes = [
        (5usize, 7usize, 13usize),
        (13, 67, 7),
        (67, 13, 97),
        (90, 90, 20),
        (90, 20, 20),
        (20, 20, 90),
        (90, 20, 90),
    ];
    let rel = tol("gemm.vs_oracle", BoundKind::Relative);
    let mut next = rng(0xA11CE);
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        for (oi, &opa) in OPS.iter().enumerate() {
            for (oj, &opb) in OPS.iter().enumerate() {
                let seed = (si * 100 + oi * 10 + oj) as u64;
                let a = stored(opa, m, k, 1000 + seed);
                let b = stored(opb, k, n, 2000 + seed);
                let c0 = randmat(m, n, 3000 + seed);
                let alpha = c64::new(next(), next());
                let beta = c64::new(next(), next());
                let mut c = c0.clone();
                gemm(alpha, &a, opa, &b, opb, beta, &mut c);
                let want = oracle_gemm(alpha, &a, opa, &b, opb, beta, &c0);
                assert_close(&c, &want, rel, &format!("{m}x{k}x{n} {opa:?}{opb:?}"));
            }
        }
    }
}

#[test]
fn gemm_degenerate_and_rectangular_shapes() {
    // m/k/n from {0, 1, prime, > tile}: empty products must leave β·C,
    // single rows/cols must not trip the packing, long-thin shapes must
    // agree like the square ones.
    let shapes = [
        (0usize, 5usize, 3usize),
        (4, 0, 2),
        (3, 4, 0),
        (0, 0, 0),
        (1, 1, 1),
        (1, 130, 1),
        (130, 1, 67),
        (2, 97, 130),
    ];
    let rel = tol("gemm.vs_oracle", BoundKind::Relative);
    let mut next = rng(0xBEE);
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        for &(opa, opb) in &[(Op::N, Op::N), (Op::H, Op::N), (Op::T, Op::H)] {
            let seed = 77 * si as u64;
            let a = stored(opa, m, k, 4000 + seed);
            let b = stored(opb, k, n, 5000 + seed);
            let c0 = randmat(m, n, 6000 + seed);
            let alpha = c64::new(next(), next());
            let beta = c64::new(next(), next());
            let mut c = c0.clone();
            gemm(alpha, &a, opa, &b, opb, beta, &mut c);
            let want = oracle_gemm(alpha, &a, opa, &b, opb, beta, &c0);
            assert_close(
                &c,
                &want,
                rel,
                &format!("degenerate {m}x{k}x{n} {opa:?}{opb:?}"),
            );
        }
    }
}

#[test]
fn gemm_alpha_beta_grid() {
    // All 16 combinations of α, β ∈ {0, 1, −1, random}: the zero and unit
    // scalars take special-cased paths (skip, fill, no-scale) that must
    // coincide with the oracle's uniform arithmetic.
    let (m, k, n) = (13usize, 67usize, 9usize);
    let rel = tol("gemm.vs_oracle", BoundKind::Relative);
    let a = randmat(m, k, 71);
    let b = randmat(k, n, 72);
    let c0 = randmat(m, n, 73);
    let specials = [c64::ZERO, c64::ONE, -c64::ONE, c64::new(0.37, -0.82)];
    for &alpha in &specials {
        for &beta in &specials {
            let mut c = c0.clone();
            gemm(alpha, &a, Op::N, &b, Op::N, beta, &mut c);
            let want = oracle_gemm(alpha, &a, Op::N, &b, Op::N, beta, &c0);
            assert_close(&c, &want, rel, &format!("alpha={alpha:?} beta={beta:?}"));
        }
    }
}

#[test]
fn gemm_microkernel_edge_shapes() {
    // m and n sweep every residue mod MR/NR = 4, k hits 1, the KC = 64
    // panel depth and its neighbors: the microkernel's zero-padded edge
    // blocks and single-iteration k-loops must agree with the oracle just
    // like the full 4x4 interior blocks do.
    let rel = tol("gemm.vs_oracle", BoundKind::Relative);
    let mut next = rng(0xED6E);
    for &(m, n) in &[(1usize, 1usize), (2, 3), (3, 7), (5, 2), (6, 6), (7, 9)] {
        for &k in &[1usize, 63, 64, 65] {
            let a = randmat(m, k, 8100 + (m * n * k) as u64);
            let b = randmat(k, n, 8200 + (m * n * k) as u64);
            let c0 = randmat(m, n, 8300 + (m * n * k) as u64);
            let alpha = c64::new(next(), next());
            let beta = c64::new(next(), next());
            let mut c = c0.clone();
            gemm(alpha, &a, Op::N, &b, Op::N, beta, &mut c);
            let want = oracle_gemm(alpha, &a, Op::N, &b, Op::N, beta, &c0);
            assert_close(&c, &want, rel, &format!("edge {m}x{k}x{n}"));
        }
    }
}

#[test]
fn gemm_cancellation_stays_within_termwise_tolerance() {
    // Sign-alternating inputs whose products cancel almost exactly: the
    // result is ~0 while the intermediate terms are O(1), so relative
    // tolerance on the *result* is meaningless. Both dispatch paths must
    // land within an absolute tolerance scaled by the term magnitudes —
    // this is where a sloppy split-accumulator combine would show up.
    let (m, k, n) = (9usize, 66usize, 10usize);
    let mut next = rng(0xCA9CE1);
    let a = ZMat::from_fn(m, k, |_, p| {
        let sgn = if p % 2 == 0 { 1.0 } else { -1.0 };
        c64::new(sgn * (1.0 + 1e-9 * next()), sgn * 0.5)
    });
    let b = ZMat::from_fn(k, n, |_, _| c64::new(1.0, -0.25));
    let mut c = ZMat::zeros(m, n);
    gemm(c64::ONE, &a, Op::N, &b, Op::N, c64::ZERO, &mut c);
    let want = oracle_gemm(
        c64::ONE,
        &a,
        Op::N,
        &b,
        Op::N,
        c64::ZERO,
        &ZMat::zeros(m, n),
    );
    let termwise = tol("gemm.cancellation", BoundKind::Termwise);
    let term_scale: f64 = k as f64 * 1.5; // Σ|a·b| bound per element
    for i in 0..m {
        for j in 0..n {
            let (g, w) = (c[(i, j)], want[(i, j)]);
            assert!(
                (g - w).abs() <= termwise * term_scale,
                "cancellation ({i},{j}): got {g:?} want {w:?}"
            );
        }
    }
}

#[test]
fn dispatch_honors_omen_simd() {
    // When a CI leg pins OMEN_SIMD, the per-process dispatch must actually
    // be on that path — otherwise the two-leg scheme silently tests one
    // path twice.
    match std::env::var(threads::SIMD_ENV).ok().as_deref() {
        Some("0") => assert_eq!(threads::simd_path(), threads::SimdPath::Scalar),
        Some("1") => assert_eq!(threads::simd_path(), threads::SimdPath::Avx2Fma),
        _ => assert!(matches!(
            threads::simd_path(),
            threads::SimdPath::Scalar | threads::SimdPath::Avx2Fma
        )),
    }
}

/// Textbook unblocked Doolittle with partial pivoting — the LU oracle.
/// Returns the packed factors and the permutation in the same layout
/// `Lu` exposes, or `None` on a numerically zero pivot column.
fn oracle_lu(a: &ZMat) -> Option<(ZMat, Vec<usize>)> {
    let pivot_floor = tol("lu.pivot_floor", BoundKind::Absolute);
    let n = a.nrows();
    let mut m = a.clone();
    let mut perm: Vec<usize> = (0..n).collect();
    for j in 0..n {
        let mut p = j;
        let mut best = m[(j, j)].abs();
        for i in j + 1..n {
            if m[(i, j)].abs() > best {
                best = m[(i, j)].abs();
                p = i;
            }
        }
        if best < pivot_floor {
            return None;
        }
        if p != j {
            for c in 0..n {
                let t = m[(j, c)];
                m[(j, c)] = m[(p, c)];
                m[(p, c)] = t;
            }
            perm.swap(j, p);
        }
        let inv = m[(j, j)].inv();
        for i in j + 1..n {
            let mult = m[(i, j)] * inv;
            m[(i, j)] = mult;
            for c in j + 1..n {
                let sub = mult * m[(j, c)];
                m[(i, c)] -= sub;
            }
        }
    }
    Some((m, perm))
}

#[test]
fn lu_matches_oracle_including_blocked_sizes() {
    // 60/97/130 exceed the panel width, so the blocked right-looking path
    // (panel + forward solve + tiled trailing GEMM through the dispatched
    // microkernel) runs; 1/5/13 stay on the unblocked path. Pivot choices
    // must match the oracle exactly on these matrices, and since the oracle
    // is dispatch-independent, passing this under both OMEN_SIMD legs shows
    // the pivot sequence equal across dispatch paths here too: the panel's
    // row updates are dispatched AXPYs, but no two pivot candidates of
    // these inputs sit within a rounding error of each other.
    let rel = tol("lu.vs_oracle", BoundKind::Relative);
    for &n in &[1usize, 5, 13, 60, 97, 130] {
        let a = randmat(n, n, 900 + n as u64);
        let f = Lu::factor(&a).expect("random complex matrix is regular");
        let (packed, perm) = oracle_lu(&a).expect("oracle agrees it is regular");
        assert_eq!(f.perm(), &perm[..], "n={n}: pivot sequence");
        assert_close(f.packed(), &packed, rel, &format!("lu n={n}"));
    }
}

#[test]
fn lu_reconstructs_permuted_matrix() {
    // Independent end-to-end check: rebuild L and U from the packed
    // factors and verify L·U = P·A through the oracle multiply.
    let rel = tol("lu.reconstruction", BoundKind::Relative);
    for &n in &[60usize, 97] {
        let a = randmat(n, n, 1200 + n as u64);
        let f = Lu::factor(&a).expect("regular");
        let lu = f.packed();
        let mut l = ZMat::eye(n);
        let mut u = ZMat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                if i > j {
                    l[(i, j)] = lu[(i, j)];
                } else {
                    u[(i, j)] = lu[(i, j)];
                }
            }
        }
        let prod = oracle_gemm(
            c64::ONE,
            &l,
            Op::N,
            &u,
            Op::N,
            c64::ZERO,
            &ZMat::zeros(n, n),
        );
        let pa = ZMat::from_fn(n, n, |i, j| a[(f.perm()[i], j)]);
        for i in 0..n {
            for j in 0..n {
                let (g, w) = (prod[(i, j)], pa[(i, j)]);
                assert!(
                    (g - w).abs() <= rel * n as f64 * (1.0 + w.abs()),
                    "n={n} ({i},{j}): L·U={g:?} P·A={w:?}"
                );
            }
        }
    }
}

/// Naive substitution oracle for `A X = B` from the oracle factorization:
/// permute, forward-substitute the unit-lower factor, back-substitute the
/// upper one — element by element, no blocking, no row kernels.
fn oracle_solve(packed: &ZMat, perm: &[usize], b: &ZMat) -> ZMat {
    let n = packed.nrows();
    let mut x = ZMat::from_fn(n, b.ncols(), |i, c| b[(perm[i], c)]);
    for c in 0..b.ncols() {
        for i in 0..n {
            for j in 0..i {
                let sub = packed[(i, j)] * x[(j, c)];
                x[(i, c)] -= sub;
            }
        }
        for i in (0..n).rev() {
            for j in i + 1..n {
                let sub = packed[(i, j)] * x[(j, c)];
                x[(i, c)] -= sub;
            }
            let q = x[(i, c)] / packed[(i, i)];
            x[(i, c)] = q;
        }
    }
    x
}

/// Sizes for the triangular-solve battery: below, at and just past the
/// `NB = 48` block width (49 leaves a one-row second block), the block
/// sizes the benchmark workloads run (32, 90), and a three-block case.
const SOLVE_SIZES: [usize; 8] = [1, 3, 31, 32, 48, 49, 90, 130];

/// Right-hand sides `n × nrhs` for nrhs ∈ {1, 4, n}.
fn solve_rhs(n: usize) -> Vec<ZMat> {
    [1, 4, n]
        .iter()
        .map(|&nrhs| randmat(n, nrhs, 1500 + (n * 7 + nrhs) as u64))
        .collect()
}

/// Every solve surface of one factorization: `solve_mat` per right-hand
/// side of [`solve_rhs`], `solve_vec` on the single-column one (as an
/// `n × 1` matrix) and `inverse`, in that order.
fn solve_suite(f: &Lu, rhs: &[ZMat]) -> Vec<ZMat> {
    let n = f.n();
    let mut out: Vec<ZMat> = rhs.iter().map(|b| f.solve_mat(b)).collect();
    out.push(ZMat::from_vec(n, 1, f.solve_vec(&rhs[0].col(0))));
    out.push(f.inverse());
    out
}

#[test]
fn triangular_solves_match_oracle() {
    // `solve_mat` / `solve_vec` / `inverse` against the substitution
    // oracle, across the unblocked (n ≤ 48) and blocked shapes and from a
    // single column to a full square of right-hand sides. Passing on both
    // OMEN_SIMD legs is the cross-path tolerance contract for the solves;
    // the pivot sequence is pinned against the oracle on the way.
    let bound = tol("lu.solve_residual", BoundKind::Absolute);
    let close = |got: &ZMat, want: &ZMat, ctx: &str| {
        assert_eq!(
            (got.nrows(), got.ncols()),
            (want.nrows(), want.ncols()),
            "{ctx}: shape"
        );
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((*g - *w).abs() <= bound, "{ctx}: got {g:?} want {w:?}");
        }
    };
    for &n in &SOLVE_SIZES {
        let a = randmat(n, n, 1400 + n as u64);
        let f = Lu::factor(&a).expect("random complex matrix is regular");
        let (packed, perm) = oracle_lu(&a).expect("oracle agrees it is regular");
        assert_eq!(f.perm(), &perm[..], "n={n}: pivot sequence");
        let rhs = solve_rhs(n);
        let mut want: Vec<ZMat> = rhs
            .iter()
            .map(|b| oracle_solve(&packed, &perm, b))
            .collect();
        want.push(want[0].clone());
        want.push(oracle_solve(&packed, &perm, &ZMat::eye(n)));
        let got = solve_suite(&f, &rhs);
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            close(g, w, &format!("n={n} surface {k}"));
        }
        // A·A⁻¹ = I through the oracle multiply.
        let inv = &got[got.len() - 1];
        let zero = ZMat::zeros(n, n);
        let prod = oracle_gemm(c64::ONE, &a, Op::N, inv, Op::N, c64::ZERO, &zero);
        close(&prod, &ZMat::eye(n), &format!("n={n} A·A⁻¹"));
    }
}
