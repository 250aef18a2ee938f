//! Property-style tests on the dense/sparse linear-algebra substrates.
//!
//! These are the invariants the transport engines silently rely on; each is
//! checked over many randomized inputs far beyond what the unit tests
//! sample. Randomness comes from a deterministic splitmix-style generator,
//! so every run exercises the identical case set and failures reproduce by
//! case index.

use omen::linalg::{eigh, eigh_values, lu::Lu, matmul, matmul_h_n, ZMat};
use omen::num::c64;
use omen::num::tolerance::test_bound;
use omen::num::BoundKind;
use omen::sparse::{BlockTridiag, Coo};

/// Fetches one bound from the repo-root `TOLERANCES.toml` policy; every
/// numeric tolerance in this battery resolves through it (DESIGN.md §12).
fn tol(op: &str, kind: BoundKind) -> f64 {
    test_bound(op, kind).expect("TOLERANCES.toml covers every linalg property op")
}

/// Deterministic uniform generator on [-1, 1).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1))
    }

    fn f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let z = self.0 ^ (self.0 >> 29);
        ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + ((self.f64() + 1.0) / 2.0 * (hi - lo) as f64) as usize % (hi - lo)
    }

    fn zmat(&mut self, n: usize, m: usize) -> ZMat {
        ZMat::from_fn(n, m, |_, _| c64::new(self.f64(), self.f64()))
    }

    /// Well-conditioned (diagonally dominant) square matrix.
    fn dominant(&mut self, n: usize) -> ZMat {
        let mut a = self.zmat(n, n);
        for i in 0..n {
            a[(i, i)] += c64::real(2.0 * n as f64);
        }
        a
    }
}

#[test]
fn lu_solves_and_roundtrips() {
    let bound = tol("lu.solve_residual", BoundKind::Absolute);
    for case in 0..32u64 {
        let mut rng = Rng::new(0x1000 + case);
        let a = rng.dominant(7);
        let b = rng.zmat(7, 3);
        let f = Lu::factor(&a).unwrap();
        let x = f.solve_mat(&b);
        let r = &matmul(&a, &x) - &b;
        assert!(r.max_abs() < bound, "case {case}: residual {}", r.max_abs());
        // Inverse really inverts.
        let inv = f.inverse();
        let e = &matmul(&a, &inv) - &ZMat::eye(7);
        assert!(e.max_abs() < bound, "case {case}");
    }
}

#[test]
fn determinant_is_multiplicative() {
    let bound = tol("lu.det_multiplicative", BoundKind::Relative);
    for case in 0..32u64 {
        let mut rng = Rng::new(0x2000 + case);
        let a = rng.dominant(5);
        let b = rng.dominant(5);
        let da = Lu::factor(&a).unwrap().det();
        let db = Lu::factor(&b).unwrap().det();
        let dab = Lu::factor(&matmul(&a, &b)).unwrap().det();
        assert!(
            (da * db - dab).abs() < bound * (1.0 + dab.abs()),
            "case {case}: det(AB) = det A det B violated: {} vs {}",
            da * db,
            dab
        );
    }
}

#[test]
fn eigh_reconstructs() {
    let rec_bound = tol("eigh.reconstruction", BoundKind::Absolute);
    let order_slack = tol("eigh.value_order", BoundKind::Absolute);
    for case in 0..32u64 {
        let mut rng = Rng::new(0x3000 + case);
        let h = rng.zmat(6, 6).hermitian_part();
        let r = eigh(&h);
        // V Λ V† = H
        let lam = ZMat::from_diag(&r.values.iter().map(|&v| c64::real(v)).collect::<Vec<_>>());
        let vl = matmul(&r.vectors, &lam);
        let rec = omen::linalg::matmul_n_h(&vl, &r.vectors);
        assert!(
            (&rec - &h).max_abs() < rec_bound,
            "case {case}: VΛV† ≠ H: {}",
            (&rec - &h).max_abs()
        );
        // Eigenvalues real and sorted.
        assert!(
            r.values.windows(2).all(|w| w[0] <= w[1] + order_slack),
            "case {case}"
        );
    }
}

/// The eigensolver's whole contract on one input, in units of its largest
/// entry (so inputs at 1e±150 neither overflow nor vanish in the checks):
/// `‖HV − VΛ‖`, `‖V†V − I‖`, `Σλ = Re tr H`, `Σλ² = ‖H‖_F²`, ascending
/// order, and `eigh_values` against `eigh`'s values. Returns the scaled
/// spectrum.
fn check_eigh(name: &str, h: &ZMat) -> Vec<f64> {
    let rec_bound = tol("eigh.reconstruction", BoundKind::Absolute);
    let order_slack = tol("eigh.value_order", BoundKind::Absolute);
    let n = h.nrows();
    let r = eigh(h);
    let values = eigh_values(h);
    assert_eq!((r.values.len(), values.len()), (n, n), "{name}");
    assert_eq!((r.vectors.nrows(), r.vectors.ncols()), (n, n), "{name}");
    if n == 0 {
        return values;
    }
    let unit = if h.max_abs() > 0.0 { h.max_abs() } else { 1.0 };
    let hs = h.scaled(c64::real(1.0 / unit));
    let lam: Vec<f64> = r.values.iter().map(|&v| v / unit).collect();
    let vl = matmul(
        &r.vectors,
        &ZMat::from_diag(&lam.iter().map(|&v| c64::real(v)).collect::<Vec<_>>()),
    );
    let resid = (&matmul(&hs, &r.vectors) - &vl).max_abs();
    assert!(resid < rec_bound, "{name}: ‖HV − VΛ‖ = {resid}");
    let orth = (&matmul_h_n(&r.vectors, &r.vectors) - &ZMat::eye(n)).max_abs();
    assert!(orth < rec_bound, "{name}: ‖V†V − I‖ = {orth}");
    let trace = lam.iter().sum::<f64>() - hs.trace().re;
    assert!(trace.abs() < rec_bound, "{name}: Σλ − Re tr H = {trace}");
    let fro = lam.iter().map(|v| v * v).sum::<f64>() - hs.norm_fro().powi(2);
    assert!(fro.abs() < rec_bound, "{name}: Σλ² − ‖H‖_F² = {fro}");
    assert!(
        lam.windows(2).all(|w| w[0] <= w[1] + order_slack),
        "{name}: not ascending"
    );
    for (k, (&a, &b)) in values.iter().zip(&r.values).enumerate() {
        assert!(
            ((a - b) / unit).abs() <= order_slack,
            "{name}: eigh_values[{k}] = {a} vs eigh {b}"
        );
    }
    lam
}

/// The inputs whose structure the eigensolver has to get right without
/// being told about it: degenerate levels, large exact-zero regions,
/// columns with nothing to annihilate, and magnitudes whose squares leave
/// the double range.
#[test]
fn eigh_structured_inputs() {
    let order_slack = tol("eigh.value_order", BoundKind::Absolute);
    let mut rng = Rng::new(0x4000);

    // Bulk silicon with spin–orbit at a generic k: inversion and time
    // reversal make every level a Kramers pair.
    let si = omen::tb::TbParams::of(omen::tb::Material::SiSp3s);
    let k = omen::lattice::Vec3::new(1.3, -0.7, 2.1);
    let so = omen::tb::bulk::bulk_hamiltonian(&si, k, true);
    let lam = check_eigh("spin-orbit bloch", &so);
    assert_eq!(lam.len(), 20);
    for pair in lam.chunks(2) {
        assert!(
            pair[1] - pair[0] <= order_slack,
            "Kramers pair split: {pair:?}"
        );
    }

    // Γ's shape: positive semidefinite on a 6-orbital support, exactly zero
    // on the other 26 rows and columns.
    let support = [3usize, 4, 11, 17, 18, 30];
    let b = rng.zmat(6, 6);
    let block = omen::linalg::matmul_n_h(&b, &b);
    let mut gamma = ZMat::zeros(32, 32);
    for (bi, &i) in support.iter().enumerate() {
        for (bj, &j) in support.iter().enumerate() {
            gamma[(i, j)] = block[(bi, bj)];
        }
    }
    let lam = check_eigh("gamma support", &gamma);
    assert!(lam[..26].iter().all(|v| v.abs() <= order_slack), "{lam:?}");

    // Block diagonal: at the last column of the first block the sub-column
    // is exactly zero and the reflector is skipped.
    let mut blocks = ZMat::zeros(7, 7);
    blocks.set_block(0, 0, &rng.zmat(3, 3).hermitian_part());
    blocks.set_block(3, 3, &rng.zmat(4, 4).hermitian_part());
    check_eigh("zero sub-column", &blocks);

    // Already tridiagonal, complex subdiagonal: only the phases act.
    let sub: Vec<c64> = (0..8).map(|_| c64::new(rng.f64(), rng.f64())).collect();
    let tri = ZMat::from_fn(9, 9, |i, j| match (i, j) {
        _ if i == j => c64::real(0.3 * i as f64 - 1.0),
        _ if i == j + 1 => sub[j],
        _ if j == i + 1 => sub[i].conj(),
        _ => c64::ZERO,
    });
    check_eigh("tridiagonal", &tri);

    // Squares of the entries overflow / underflow; the spectrum must be the
    // unit-scale one, scaled.
    let h = rng.zmat(6, 6).hermitian_part();
    let unit_scale = check_eigh("unit scale", &h);
    for scale in [1e150, 1e-150] {
        let scaled = check_eigh(&format!("scale {scale:e}"), &h.scaled(c64::real(scale)));
        for (a, b) in scaled.iter().zip(&unit_scale) {
            assert!((a - b).abs() <= order_slack, "scale {scale:e}: {a} vs {b}");
        }
    }

    // The smallest orders, and a genuinely complex 2 × 2.
    check_eigh("n = 0", &ZMat::zeros(0, 0));
    let one = check_eigh("n = 1", &ZMat::from_diag(&[c64::real(-2.5)]));
    assert_eq!(one, [-1.0]);
    check_eigh("n = 2", &rng.zmat(2, 2).hermitian_part());
    let pauli_y = ZMat::from_rows(&[
        vec![c64::ZERO, c64::new(0.0, -1.0)],
        vec![c64::new(0.0, 1.0), c64::ZERO],
    ]);
    let lam = check_eigh("pauli y", &pauli_y);
    assert!((lam[0] + 1.0).abs() <= order_slack && (lam[1] - 1.0).abs() <= order_slack);
}

#[test]
fn general_eig_preserves_trace() {
    let bound = tol("geig.trace", BoundKind::Relative);
    for case in 0..32u64 {
        let mut rng = Rng::new(0x5000 + case);
        let a = rng.zmat(6, 6);
        let eigs = omen::linalg::eig_values_general(&a);
        let sum: c64 = eigs.iter().copied().sum();
        assert!(
            (sum - a.trace()).abs() < bound * (1.0 + a.trace().abs()),
            "case {case}: Σλ = {sum:?} vs tr = {:?}",
            a.trace()
        );
    }
}

#[test]
fn gemm_is_associative() {
    let bound = tol("gemm.associativity", BoundKind::Absolute);
    for case in 0..32u64 {
        let mut rng = Rng::new(0x6000 + case);
        let a = rng.zmat(4, 5);
        let b = rng.zmat(5, 3);
        let c = rng.zmat(3, 6);
        let left = matmul(&matmul(&a, &b), &c);
        let right = matmul(&a, &matmul(&b, &c));
        assert!((&left - &right).max_abs() < bound, "case {case}");
    }
}

#[test]
fn adjoint_of_product() {
    let bound = tol("gemm.adjoint", BoundKind::Absolute);
    for case in 0..32u64 {
        let mut rng = Rng::new(0x7000 + case);
        let a = rng.zmat(4, 5);
        let b = rng.zmat(5, 3);
        // (AB)† = B†A†
        let lhs = matmul(&a, &b).adjoint();
        let rhs = matmul(&b.adjoint(), &a.adjoint());
        assert!((&lhs - &rhs).max_abs() < bound, "case {case}");
    }
}

#[test]
fn block_tridiag_matvec_matches_dense() {
    let bound = tol("sparse.matvec", BoundKind::Absolute);
    for case in 0..16u64 {
        let mut rng = Rng::new(0x8000 + case);
        let nb = rng.range(2, 6);
        let bs = rng.range(1, 4);
        let diag: Vec<ZMat> = (0..nb).map(|_| rng.zmat(bs, bs)).collect();
        let lower: Vec<ZMat> = (0..nb - 1).map(|_| rng.zmat(bs, bs)).collect();
        let upper: Vec<ZMat> = (0..nb - 1).map(|_| rng.zmat(bs, bs)).collect();
        let bt = BlockTridiag::new(diag, lower, upper);
        let x: Vec<c64> = (0..bt.dim())
            .map(|_| c64::new(rng.f64(), rng.f64()))
            .collect();
        let y1 = bt.matvec(&x);
        let y2 = bt.to_dense().matvec(&x);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((*a - *b).abs() < bound, "case {case}: nb={nb} bs={bs}");
        }
    }
}

#[test]
fn coo_accumulation_order_invariant() {
    let bound = tol("sparse.assembly_order", BoundKind::Absolute);
    for case in 0..16u64 {
        let mut rng = Rng::new(0x9000 + case);
        let count = rng.range(1, 40);
        let entries: Vec<(usize, usize, f64)> = (0..count)
            .map(|_| (rng.range(0, 5), rng.range(0, 5), rng.f64()))
            .collect();
        let mut fwd = Coo::new(5, 5);
        for &(i, j, v) in &entries {
            fwd.push(i, j, c64::real(v));
        }
        let mut rev = Coo::new(5, 5);
        for &(i, j, v) in entries.iter().rev() {
            rev.push(i, j, c64::real(v));
        }
        let a = fwd.to_csr().to_dense();
        let b = rev.to_csr().to_dense();
        assert!(
            (&a - &b).max_abs() < bound,
            "case {case}: assembly must be order independent"
        );
    }
}
