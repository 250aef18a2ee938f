//! Physics invariants over randomized devices.
//!
//! Each property encodes a law any correct ballistic quantum-transport
//! implementation must satisfy, checked over randomized disorder, barriers
//! and energies (deterministic generator, so every run covers the same
//! cases):
//!
//! * `0 ≤ T(E) ≤ N_modes` (unitarity of the scattering matrix);
//! * `T_{L→R} = T_{R→L}` (reciprocity);
//! * `i(G − G†) = A_L + A_R` (ballistic spectral sum rule);
//! * Hamiltonian Hermiticity for arbitrary potentials and k-points.

use omen::core::{solve_point, Engine};
use omen::lattice::{Crystal, Device};
use omen::linalg::ZMat;
use omen::negf::ContactSelfEnergy;
use omen::num::tolerance::test_bound;
use omen::num::{c64, BoundKind, A_SI};
use omen::sparse::BlockTridiag;
use omen::tb::{DeviceHamiltonian, Material, TbParams};

/// Fetches one bound from the repo-root `TOLERANCES.toml` policy
/// (DESIGN.md §12): every numeric slack in this battery is declared there
/// with a rationale, never inlined here.
fn tol(op: &str, kind: BoundKind) -> f64 {
    test_bound(op, kind).expect("TOLERANCES.toml covers every physics invariant op")
}

/// Deterministic uniform generator on [-1, 1).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(9))
    }

    fn f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(9);
        let z = self.0 ^ (self.0 >> 29);
        ((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.f64() + 1.0) / 2.0 * (hi - lo)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + ((self.f64() + 1.0) / 2.0 * (hi - lo) as f64) as usize % (hi - lo)
    }
}

/// `A = (E + iη) I − H − Σ_L − Σ_R` as one block-tridiagonal matrix, the
/// input of the engines' `*_solve` entry points.
fn a_matrix(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sl: &ContactSelfEnergy,
    sr: &ContactSelfEnergy,
) -> BlockTridiag<ZMat> {
    let diag = omen::negf::rgf::a_diagonal(e, eta, h, &[], sl, sr).collect();
    let neg = omen::negf::rgf::negated;
    BlockTridiag::new(diag, neg(&h.lower), neg(&h.upper))
}

fn chain(nb: usize, onsite: &[f64]) -> (BlockTridiag, ZMat, ZMat) {
    let diag: Vec<ZMat> = (0..nb)
        .map(|i| ZMat::from_diag(&[c64::real(onsite[i])]))
        .collect();
    let off: Vec<ZMat> = (0..nb - 1)
        .map(|_| ZMat::from_diag(&[c64::real(-1.0)]))
        .collect();
    (
        BlockTridiag::from_dense(diag, off.clone(), off),
        ZMat::from_diag(&[c64::ZERO]),
        ZMat::from_diag(&[c64::real(-1.0)]),
    )
}

#[test]
fn transmission_bounded_by_modes() {
    let slack = tol("physics.unitarity_slack", BoundKind::Absolute);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x11 + case);
        let onsite: Vec<f64> = (0..8).map(|_| rng.uniform(-0.8, 0.8)).collect();
        let e = rng.uniform(-1.8, 1.8);
        let (h, h00, h01) = chain(8, &onsite);
        let t = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf)
            .unwrap()
            .transmission;
        // Single-mode chain: 0 ≤ T ≤ 1 (small numerical slack).
        assert!(t >= -slack, "case {case}: T = {t} negative at E = {e}");
        assert!(
            t <= 1.0 + slack,
            "case {case}: T = {t} exceeds the open channel count at E = {e}"
        );
    }
}

#[test]
fn reciprocity() {
    let bound = tol("physics.reciprocity", BoundKind::Relative);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x22 + case);
        let onsite: Vec<f64> = (0..7).map(|_| rng.uniform(-0.8, 0.8)).collect();
        let e = rng.uniform(-1.5, 1.5);
        let (h, h00, h01) = chain(7, &onsite);
        // Forward device vs spatially reversed device.
        let rev: Vec<f64> = onsite.iter().rev().cloned().collect();
        let (hr, _, _) = chain(7, &rev);
        let tf = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf)
            .unwrap()
            .transmission;
        let tb = solve_point(e, &hr, (&h00, &h01), (&h00, &h01), Engine::Rgf)
            .unwrap()
            .transmission;
        assert!(
            (tf - tb).abs() < bound * (1.0 + tf),
            "case {case}: T forward {tf} vs reversed {tb}"
        );
    }
}

#[test]
fn spectral_sum_rule() {
    let bound = tol("physics.sum_rule", BoundKind::Relative);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x33 + case);
        let onsite: Vec<f64> = (0..6).map(|_| rng.uniform(-0.6, 0.6)).collect();
        let e = rng.uniform(-1.4, 1.4);
        let (h, h00, h01) = chain(6, &onsite);
        let sl = omen::negf::sancho::ContactSelfEnergy::compute(
            e,
            2e-6,
            &h00,
            &h01,
            omen::negf::sancho::Side::Left,
        )
        .unwrap();
        let sr = omen::negf::sancho::ContactSelfEnergy::compute(
            e,
            2e-6,
            &h00,
            &h01,
            omen::negf::sancho::Side::Right,
        )
        .unwrap();
        let a = a_matrix(e, 2e-6, &h, &sl, &sr);
        let r = omen::negf::rgf::rgf_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        for i in 0..6 {
            let spectral = r.g_diag[i].gamma_of();
            let sum = &r.spectral_left(&sl.gamma, i) + &r.spectral_right(&sr.gamma, i);
            assert!(
                (&spectral - &sum).max_abs() < bound * (1.0 + spectral.max_abs()),
                "case {case}: sum rule defect {} at block {i}, E={e}",
                (&spectral - &sum).max_abs()
            );
        }
    }
}

#[test]
fn hamiltonian_hermitian_for_random_potentials() {
    let bound = tol("physics.hermiticity", BoundKind::Absolute);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x44 + case);
        let ky = rng.uniform(-3.0, 3.0);
        let p = TbParams::of(Material::SiSp3s);
        let dev = Device::utb(Crystal::Zincblende { a: A_SI }, 3, 1, 0.9);
        let ham = DeviceHamiltonian::new(&dev, p, false);
        let pot: Vec<f64> = (0..dev.num_atoms()).map(|_| rng.f64() * 0.5).collect();
        let h = ham.assemble(&pot, ky);
        assert!(
            h.is_hermitian(bound),
            "case {case}: H(ky={ky}) not Hermitian"
        );
    }
}

#[test]
fn wf_rgf_agree_on_random_chains() {
    let bound = tol("physics.wf_vs_rgf", BoundKind::Relative);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x55 + case);
        let onsite: Vec<f64> = (0..9).map(|_| rng.uniform(-0.7, 0.7)).collect();
        let e = rng.uniform(-1.6, 1.6);
        let (h, h00, h01) = chain(9, &onsite);
        let t1 = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf)
            .unwrap()
            .transmission;
        let t2 = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::WfThomas)
            .unwrap()
            .transmission;
        assert!(
            (t1 - t2).abs() < bound * (1.0 + t1),
            "case {case}: RGF {t1} vs WF {t2} at E={e}"
        );
    }
}

/// The open channels of `gamma` from a full-size eigendecomposition: the
/// reference the support-sized `injection_bundle` is held against. Returns
/// the strengths (descending) and the projector-weighted sum `W W†`, which
/// unlike `W` itself does not depend on eigenvector phases.
fn dense_channels(gamma: &ZMat, tol: f64) -> (Vec<f64>, ZMat) {
    let n = gamma.nrows();
    let r = omen::linalg::eigh(gamma);
    let lmax = r.values.iter().fold(0.0_f64, |m, &v| m.max(v));
    let cut = (tol * lmax).max(omen::wf::injection::GAMMA_FLOOR);
    let open: Vec<usize> = (0..n).rev().filter(|&k| r.values[k] > cut).collect();
    let w = ZMat::from_fn(n, open.len(), |row, col| {
        r.vectors[(row, open[col])].scale(r.values[open[col]].sqrt())
    });
    let strengths = open.iter().map(|&k| r.values[k]).collect();
    (strengths, omen::linalg::matmul_n_h(&w, &w))
}

#[test]
fn equal_tight_binding_leads_share_one_decimation_bit_for_bit() {
    // The engines decimate a lead that terminates both ends of the device
    // once, carrying both surface ε through the same iterations. On a
    // tight-binding lead the coupling's rows and columns are disjoint, so
    // the pair's two products never add into the same entry and *both*
    // contacts equal the two single decimations as bit patterns — the fact
    // the benchmark's bit-identical currents rest on. Checked on the
    // benchmark's three leads: the README wire, the UTB film at its three
    // momenta, the sp3s* wire.
    use omen::negf::contacts::local_contacts;
    use omen::negf::transport::DEFAULT_ETA;
    use omen::negf::{ContactSelfEnergy, Side};
    let zb = Crystal::Zincblende { a: A_SI };
    let single_band = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let wire = Device::nanowire(zb, 8, 1.0, 1.0);
    let film = Device::utb(zb, 6, 2, 1.0);
    let full_band = Device::nanowire(zb, 4, 0.8, 0.8);
    let k_max = match film.kind {
        omen::lattice::DeviceKind::Utb { period_y } => std::f64::consts::PI / period_y,
        _ => unreachable!(),
    };
    let wire_ham = DeviceHamiltonian::new(&wire, single_band, false);
    let film_ham = DeviceHamiltonian::new(&film, single_band, false);
    let full_ham = DeviceHamiltonian::new(&full_band, TbParams::of(Material::SiSp3s), false);
    let mut leads = vec![(
        "README wire".to_string(),
        wire_ham.lead_blocks(0.0, 0.0),
        32,
    )];
    for j in 0..3 {
        let ky = (j as f64 + 0.5) * k_max / 3.0;
        leads.push((format!("UTB film k{j}"), film_ham.lead_blocks(0.0, ky), 32));
    }
    leads.push(("sp3s* wire".to_string(), full_ham.lead_blocks(0.0, 0.0), 90));

    let same = |got: &ContactSelfEnergy, want: &ContactSelfEnergy, what: &str| {
        assert_eq!(got.side, want.side, "{what}");
        assert_eq!(got.sigma, want.sigma, "{what}: Σ");
        assert_eq!(got.gamma, want.gamma, "{what}: Γ");
        assert_eq!(got.retries, want.retries, "{what}: retries");
    };
    for (name, (h00, h01), n) in &leads {
        assert_eq!(h00.nrows(), *n, "{name}: block size");
        let lead = (h00, h01);
        // Below, across and above the lowest subbands of every lead.
        for e in [-3.9, -3.4, -3.1, -2.6, 1.2, 1.7] {
            let what = format!("{name}, E = {e}");
            let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead, lead).unwrap();
            same(
                &sl,
                &ContactSelfEnergy::compute(e, DEFAULT_ETA, h00, h01, Side::Left).unwrap(),
                &what,
            );
            same(
                &sr,
                &ContactSelfEnergy::compute(e, DEFAULT_ETA, h00, h01, Side::Right).unwrap(),
                &what,
            );
            // Blocks that are merely equal, not aliased, are one lead too.
            let (cl, cr) = local_contacts(e, DEFAULT_ETA, lead, (&h00.clone(), h01)).unwrap();
            same(&cl, &sl, &what);
            same(&cr, &sr, &what);
        }
    }

    // Unequal leads keep the two single decimations: a source cut off from
    // its lead beside an attached drain.
    let (_, (h00, h01), _) = &leads[0];
    let dead = ZMat::zeros(h01.nrows(), h01.ncols());
    let e = -3.1;
    let (sl, sr) = local_contacts(e, DEFAULT_ETA, (h00, &dead), (h00, h01)).unwrap();
    same(
        &sl,
        &ContactSelfEnergy::compute(e, DEFAULT_ETA, h00, &dead, Side::Left).unwrap(),
        "dead source",
    );
    same(
        &sr,
        &ContactSelfEnergy::compute(e, DEFAULT_ETA, h00, h01, Side::Right).unwrap(),
        "attached drain",
    );
}

#[test]
fn injection_on_the_support_is_the_dense_injection() {
    // `injection_bundle` diagonalises Γ on its non-zero rows. Three shapes
    // of support: (a) the README wire, whose lead coupling touches 7 (left)
    // and 8 (right) of the 32 slab orbitals; (b) a Γ with full support;
    // (c) an all-zero Γ (contact out of band).
    let rel = tol("physics.wf_vs_rgf", BoundKind::Relative);
    let mode_tol = omen::wf::transport::MODE_TOL;

    let p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 8, 1.0, 1.0);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    assert_eq!(h00.nrows(), 32, "README wire block size");
    let mut cases: Vec<(String, ZMat, usize)> = Vec::new();
    for (side, touched) in [(omen::negf::Side::Left, 7), (omen::negf::Side::Right, 8)] {
        for e in [-3.3, -3.0, -2.4] {
            let se = omen::negf::ContactSelfEnergy::compute(e, 1e-6, &h00, &h01, side).unwrap();
            cases.push((format!("wire {side:?} E={e}"), se.gamma, touched));
        }
    }
    let mut rng = Rng::new(0x6A);
    let b = ZMat::from_fn(12, 12, |_, _| c64::new(rng.f64(), rng.f64()));
    cases.push(("full support".into(), omen::linalg::matmul_n_h(&b, &b), 12));
    cases.push(("all zero".into(), ZMat::zeros(9, 9), 0));

    for (name, gamma, support) in &cases {
        let n = gamma.nrows();
        let rows = (0..n)
            .filter(|&i| gamma.row(i).iter().any(|&v| v != c64::ZERO))
            .count();
        assert_eq!(rows, *support, "{name}: support size");
        let bundle = omen::wf::injection_bundle(gamma, mode_tol);
        let (strengths, wwh) = dense_channels(gamma, mode_tol);
        assert_eq!(bundle.num_modes(), strengths.len(), "{name}: mode count");
        assert_eq!(strengths.is_empty(), *support == 0, "{name}: open channels");
        assert_eq!((bundle.w.nrows(), bundle.w.ncols()), (n, strengths.len()));
        let scale = strengths.first().copied().unwrap_or(1.0);
        for (got, want) in bundle.strengths.iter().zip(&strengths) {
            assert!(
                (got - want).abs() <= rel * scale,
                "{name}: λ {got} vs {want}"
            );
        }
        let rec = omen::linalg::matmul_n_h(&bundle.w, &bundle.w);
        let gap = (&rec - &wwh).max_abs();
        assert!(
            gap <= rel * scale,
            "{name}: W W† off the dense path by {gap}"
        );
        // Every kept channel is in W, so W W† rebuilds Γ up to the closed
        // channels, each weaker than the cut.
        let cut = (mode_tol * scale).max(omen::wf::injection::GAMMA_FLOOR);
        let lost = (&rec - gamma).max_abs();
        assert!(lost <= cut + rel * scale, "{name}: W W† misses Γ by {lost}");
    }
}

#[test]
fn selinv_reciprocity() {
    // Same law as `reciprocity`, exercised through the selected-inversion
    // engine: the tree elimination order must not break T(L→R) = T(R→L).
    let bound = tol("physics.selinv_reciprocity", BoundKind::Relative);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x77 + case);
        let onsite: Vec<f64> = (0..7).map(|_| rng.uniform(-0.8, 0.8)).collect();
        let e = rng.uniform(-1.5, 1.5);
        let (h, h00, h01) = chain(7, &onsite);
        let rev: Vec<f64> = onsite.iter().rev().cloned().collect();
        let (hr, _, _) = chain(7, &rev);
        let tf = solve_point(e, &h, (&h00, &h01), (&h00, &h01), Engine::SelInv)
            .unwrap()
            .transmission;
        let tb = solve_point(e, &hr, (&h00, &h01), (&h00, &h01), Engine::SelInv)
            .unwrap()
            .transmission;
        assert!(
            (tf - tb).abs() < bound * (1.0 + tf),
            "case {case}: SelInv T forward {tf} vs reversed {tb}"
        );
    }
}

#[test]
fn selinv_current_conservation() {
    // Caroli evaluated from the two contact columns of the same selected
    // inverse must agree: Tr[Γ_L G_{0,N−1} Γ_R G_{0,N−1}†] (right column)
    // equals Tr[Γ_R G_{N−1,0} Γ_L G_{N−1,0}†] (left column). Physically
    // this is current conservation — what flows in from the left leaves to
    // the right — and it exercises both columns the downward pass carries.
    let bound = tol("physics.selinv_current", BoundKind::Relative);
    for case in 0..24u64 {
        let mut rng = Rng::new(0x88 + case);
        let nb = 5 + (case as usize % 4);
        let onsite: Vec<f64> = (0..nb).map(|_| rng.uniform(-0.7, 0.7)).collect();
        let e = rng.uniform(-1.5, 1.5);
        let (h, h00, h01) = chain(nb, &onsite);
        let sl = omen::negf::sancho::ContactSelfEnergy::compute(
            e,
            2e-6,
            &h00,
            &h01,
            omen::negf::sancho::Side::Left,
        )
        .unwrap();
        let sr = omen::negf::sancho::ContactSelfEnergy::compute(
            e,
            2e-6,
            &h00,
            &h01,
            omen::negf::sancho::Side::Right,
        )
        .unwrap();
        let a = a_matrix(e, 2e-6, &h, &sl, &sr);
        let r = omen::negf::selinv::selinv_solve(&a, &sl.gamma, &sr.gamma).unwrap();
        let g0n = &r.g_col_right[0];
        let t_fwd = omen::linalg::matmul_n_h(
            &omen::linalg::matmul(&omen::linalg::matmul(&sl.gamma, g0n), &sr.gamma),
            g0n,
        )
        .trace()
        .re;
        let gn0 = &r.g_col_left[nb - 1];
        let t_bwd = omen::linalg::matmul_n_h(
            &omen::linalg::matmul(&omen::linalg::matmul(&sr.gamma, gn0), &sl.gamma),
            gn0,
        )
        .trace()
        .re;
        assert!(
            (t_fwd - t_bwd).abs() < bound * (1.0 + t_fwd.abs()),
            "case {case}: left-column current {t_bwd} vs right-column {t_fwd} at E={e}"
        );
    }
}

#[test]
fn selinv_zero_bias_carries_no_current() {
    // At V_ds = 0 the source and drain Fermi factors coincide, so the
    // integrated current through the SelInv engine must vanish to
    // quadrature rounding.
    let bound = tol("physics.selinv_zero_bias", BoundKind::Absolute);
    let mut spec =
        omen::core::TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
    spec.doping_sd = 0.0;
    let tr = spec.build();
    let v = vec![0.0; tr.device.num_atoms()];
    let bias = omen::core::Bias {
        v_gate: 0.0,
        v_ds: 0.0,
        mu_source: -3.1,
    };
    let mut table = omen::core::ContactTable::default();
    let r = omen::core::ballistic_solve(
        &tr,
        &v,
        &bias,
        Engine::SelInv,
        25,
        &[(0.0, 1.0)],
        &mut table,
    );
    assert!(
        r.report.failed.is_empty(),
        "zero-bias sweep must solve cleanly"
    );
    assert!(
        r.current_ua.abs() < bound,
        "zero-bias current {} exceeds the rounding budget",
        r.current_ua
    );
}

#[test]
fn splitsolve_matches_thomas_on_random_systems() {
    let bound = tol("physics.splitsolve_vs_thomas", BoundKind::Absolute);
    for case in 0..8u64 {
        let mut rng = Rng::new(0x66 + case);
        let nb = rng.range(3, 10);
        let ranks = rng.range(1, 5);
        let bs = 3;
        let diag: Vec<ZMat> = (0..nb)
            .map(|_| {
                let mut d = ZMat::from_fn(bs, bs, |_, _| c64::new(rng.f64(), rng.f64()));
                for i in 0..bs {
                    d[(i, i)] += c64::real(7.0);
                }
                d
            })
            .collect();
        let lower: Vec<ZMat> = (0..nb - 1)
            .map(|_| ZMat::from_fn(bs, bs, |_, _| c64::new(rng.f64(), rng.f64())))
            .collect();
        let upper: Vec<ZMat> = (0..nb - 1)
            .map(|_| ZMat::from_fn(bs, bs, |_, _| c64::new(rng.f64(), rng.f64())))
            .collect();
        let b: Vec<ZMat> = (0..nb)
            .map(|_| ZMat::from_fn(bs, 2, |_, _| c64::new(rng.f64(), rng.f64())))
            .collect();
        let a = BlockTridiag::from_dense(diag, lower, upper);
        let x_ref = omen::wf::thomas_solve(&a, &b).unwrap();
        let out = omen::parsim::run_ranks(ranks, |ctx| {
            let comm = omen::parsim::Comm::world(ctx);
            omen::wf::splitsolve_parallel(&comm, &a, &b)
        })
        .flattened();
        for sol in out.unwrap_all() {
            for (x, y) in sol.iter().zip(&x_ref) {
                assert!(
                    (x - y).max_abs() < bound,
                    "case {case}: nb={nb} ranks={ranks}"
                );
            }
        }
    }
}
