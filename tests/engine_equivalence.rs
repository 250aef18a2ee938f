//! Cross-crate integration: the three transport engines — RGF, the
//! wave-function solvers, and tree-parallel selected inversion — must
//! produce identical observables on every device family the simulator
//! supports.

use omen::core::{engine_point, solve_point, Engine};
use omen::lattice::{Crystal, Device};
use omen::linalg::ZMat;
use omen::negf::local_contacts;
use omen::negf::transport::{EnergyPointData, DEFAULT_ETA};
use omen::num::tolerance::test_bound;
use omen::num::{c64, linspace, BoundKind, A_SI};
use omen::sparse::BlockTridiag;
use omen::tb::{DeviceHamiltonian, Material, TbParams};

/// Per-device-family engine agreement bound from `TOLERANCES.toml`
/// (DESIGN.md §12) — the devices differ in conditioning, so each family
/// declares its own relative bound.
fn tol(op: &str) -> f64 {
    test_bound(op, BoundKind::Relative).expect("TOLERANCES.toml covers every engine op")
}

fn check_equivalence(
    name: &str,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    energies: &[f64],
    tol: f64,
    selinv_tol: f64,
) {
    for &e in energies {
        let points = ENGINES.map(|engine| {
            solve_point(e, h, lead_l, lead_r, engine)
                .unwrap_or_else(|err| panic!("{name} E={e}: {engine:?} failed: {err}"))
        });
        assert_agree(&format!("{name} E={e}"), &points, tol, selinv_tol);
    }
}

/// The order [`assert_agree`] reads its points in.
const ENGINES: [Engine; 4] = [Engine::Rgf, Engine::WfThomas, Engine::WfBcr, Engine::SelInv];

/// Holds one energy's four points ([`ENGINES`] order) against each other.
fn assert_agree(at: &str, points: &[EnergyPointData; 4], tol: f64, selinv_tol: f64) {
    let backend_tol = test_bound("engine.thomas_vs_bcr", BoundKind::Relative)
        .expect("TOLERANCES.toml covers the WF backend comparison");
    let [rgf, wf, bcr, si] = points;
    let scale = 1.0 + rgf.transmission.abs();
    assert!(
        (rgf.transmission - wf.transmission).abs() < tol * scale,
        "{at}: RGF {} vs WF {}",
        rgf.transmission,
        wf.transmission
    );
    assert!(
        (wf.transmission - bcr.transmission).abs() < backend_tol * scale,
        "{at}: Thomas vs BCR backend"
    );
    assert!(
        (rgf.transmission - si.transmission).abs() < selinv_tol * scale,
        "{at}: RGF {} vs SelInv {}",
        rgf.transmission,
        si.transmission
    );
    // Spectral densities agree orbital-by-orbital: WF within the
    // cross-formulation budget, SelInv within its elimination-order
    // budget (both engines share the same NEGF observable packaging).
    for (i, ((a, b), c)) in wf
        .spectral_left_diag
        .iter()
        .zip(&rgf.spectral_left_diag)
        .zip(&si.spectral_left_diag)
        .enumerate()
    {
        assert!(
            (a - b).abs() < 100.0 * tol * (1.0 + b.abs()),
            "{at} A_L[{i}]: {a} vs {b}"
        );
        assert!(
            (c - b).abs() < 100.0 * selinv_tol * (1.0 + b.abs()),
            "{at} SelInv A_L[{i}]: {c} vs {b}"
        );
    }
    // LDOS agrees.
    for ((a, b), c) in wf.ldos.iter().zip(&rgf.ldos).zip(&si.ldos) {
        assert!((a - b).abs() < 100.0 * tol * (1.0 + b.abs()), "{at} LDOS");
        assert!(
            (c - b).abs() < 100.0 * selinv_tol * (1.0 + b.abs()),
            "{at} SelInv LDOS"
        );
    }
}

#[test]
fn chain_with_disorder() {
    let nb = 10;
    let mut s = 0xFEEDu64;
    let mut next = move || {
        s = s.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let diag: Vec<ZMat> = (0..nb)
        .map(|_| ZMat::from_diag(&[c64::real(0.4 * next())]))
        .collect();
    let off: Vec<ZMat> = (0..nb - 1)
        .map(|_| ZMat::from_diag(&[c64::real(-1.0)]))
        .collect();
    let h = BlockTridiag::from_dense(diag, off.clone(), off);
    let h00 = ZMat::from_diag(&[c64::ZERO]);
    let h01 = ZMat::from_diag(&[c64::real(-1.0)]);
    check_equivalence(
        "disordered chain",
        &h,
        (&h00, &h01),
        (&h00, &h01),
        &linspace(-1.7, 1.7, 15),
        tol("engine.chain"),
        tol("engine.selinv_chain"),
    );
}

/// Si sp3s* wire under a potential step, with the `(H00, H01)` of its two
/// (unequal) leads.
fn stepped_si_wire() -> (BlockTridiag, (ZMat, ZMat), (ZMat, ZMat)) {
    let p = TbParams::of(Material::SiSp3s);
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 4, 0.8, 0.8);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot: Vec<f64> = dev
        .atoms
        .iter()
        .map(|a| 0.08 * (a.pos.x / dev.length()))
        .collect();
    let h = ham.assemble(&pot, 0.0);
    (h, ham.lead_blocks(0.0, 0.0), ham.lead_blocks(0.08, 0.0))
}

#[test]
fn silicon_wire_with_potential_step() {
    let (h, ll, lr) = stepped_si_wire();
    check_equivalence(
        "Si sp3s* wire",
        &h,
        (&ll.0, &ll.1),
        (&lr.0, &lr.1),
        &linspace(1.7, 2.3, 5),
        tol("engine.si_wire"),
        tol("engine.selinv_si_wire"),
    );
}

#[test]
fn one_contact_pair_feeds_all_four_engines() {
    let (h, ll, lr) = stepped_si_wire();
    let (lead_l, lead_r) = ((&ll.0, &ll.1), (&lr.0, &lr.1));
    let e = 2.0;
    let (mut sl, mut sr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r).expect("contacts");

    // The composition is exactly its two stages.
    let whole = solve_point(e, &h, lead_l, lead_r, Engine::Rgf).expect("point");
    let staged = engine_point(e, &h, &sl, &sr, Engine::Rgf).expect("engine");
    assert_eq!(whole.transmission.to_bits(), staged.transmission.to_bits());
    assert_eq!(whole.retries, staged.retries);

    // Mark the pair: an engine that decimated leads of its own would report
    // a clean 0 instead of the share it was handed.
    (sl.retries, sr.retries) = (2, 5);
    let points = ENGINES.map(|engine| {
        engine_point(e, &h, &sl, &sr, engine)
            .unwrap_or_else(|err| panic!("{engine:?} failed: {err}"))
    });
    for (engine, p) in ENGINES.iter().zip(&points) {
        assert_eq!(p.retries, 7, "{engine:?}");
        assert_eq!(p.energy, e, "{engine:?}");
    }
    assert_agree(
        "one pair",
        &points,
        tol("engine.si_wire"),
        tol("engine.selinv_si_wire"),
    );
}

#[test]
fn graphene_ribbon() {
    let dev = Device::ribbon_agnr(0.142, 6, 7);
    let p = TbParams::of(Material::GraphenePz);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot: Vec<f64> = dev
        .atoms
        .iter()
        .map(|a| if a.slab >= 2 && a.slab < 4 { 0.2 } else { 0.0 })
        .collect();
    let h = ham.assemble(&pot, 0.0);
    let lead = ham.lead_blocks(0.0, 0.0);
    check_equivalence(
        "7-AGNR",
        &h,
        (&lead.0, &lead.1),
        (&lead.0, &lead.1),
        &linspace(0.7, 1.5, 5),
        tol("engine.agnr"),
        tol("engine.selinv_agnr"),
    );
}

#[test]
fn utb_with_transverse_momentum() {
    let p = TbParams::of(Material::SingleBand { t_mev: 900 });
    let dev = Device::utb(Crystal::Zincblende { a: A_SI }, 4, 1, 1.0);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot = vec![0.0; dev.num_atoms()];
    for ky in [0.0, 1.1, 2.7] {
        let h = ham.assemble(&pot, ky);
        let lead = ham.lead_blocks(0.0, ky);
        check_equivalence(
            &format!("UTB ky={ky}"),
            &h,
            (&lead.0, &lead.1),
            (&lead.0, &lead.1),
            &linspace(-3.3, -2.7, 4),
            tol("engine.utb"),
            tol("engine.selinv_utb"),
        );
    }
}

#[test]
fn silicon_wire_invariant_under_omen_threads() {
    // The dense kernels promise bit-identical output for every thread
    // count, so running a full device under OMEN_THREADS=2/4/8 must leave
    // every observable exactly unchanged — not just within tolerance —
    // and every engine pair must still agree at the usual tolerances.
    let p = TbParams::of(Material::SiSp3s);
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 4, 0.8, 0.8);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot = vec![0.0; dev.num_atoms()];
    let h = ham.assemble(&pot, 0.0);
    let lead = ham.lead_blocks(0.0, 0.0);
    let energies = linspace(1.8, 2.2, 3);

    // Every bit the integrator consumes, per engine: T, LDOS and both
    // spectral diagonals. RGF's boundary columns are thin n × s blocks
    // (s = 20 of n = 90 here), so this also pins the thin-GEMM shapes.
    let bits = |p: omen::negf::EnergyPointData| -> Vec<u64> {
        std::iter::once(p.transmission)
            .chain(p.ldos)
            .chain(p.spectral_left_diag)
            .chain(p.spectral_right_diag)
            .map(f64::to_bits)
            .collect()
    };
    let lead = (&lead.0, &lead.1);
    let rgf_bits = |e: f64| bits(solve_point(e, &h, lead, lead, Engine::Rgf).expect("RGF"));
    let selinv_bits =
        |e: f64| bits(solve_point(e, &h, lead, lead, Engine::SelInv).expect("SelInv"));

    let env = omen::linalg::threads::THREADS_ENV;
    let saved = std::env::var(env).ok();
    std::env::set_var(env, "1");
    let serial: Vec<Vec<u64>> = energies.iter().map(|&e| rgf_bits(e)).collect();
    let serial_si: Vec<Vec<u64>> = energies.iter().map(|&e| selinv_bits(e)).collect();

    for threads in ["2", "4", "8"] {
        std::env::set_var(env, threads);
        for ((&e, r1), s1) in energies.iter().zip(&serial).zip(&serial_si) {
            assert!(
                rgf_bits(e) == *r1,
                "E={e}: RGF point changed under OMEN_THREADS={threads}"
            );
            assert!(
                selinv_bits(e) == *s1,
                "E={e}: SelInv point changed under OMEN_THREADS={threads}"
            );
        }
    }
    std::env::set_var(env, "4");
    check_equivalence(
        "Si wire, OMEN_THREADS=4",
        &h,
        lead,
        lead,
        &energies,
        tol("engine.si_wire"),
        tol("engine.selinv_si_wire"),
    );
    match saved {
        Some(v) => std::env::set_var(env, v),
        None => std::env::remove_var(env),
    }
}

#[test]
fn spin_orbit_device() {
    let p = TbParams::of(Material::SiSp3s);
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 3, 0.8, 0.8);
    let ham = DeviceHamiltonian::new(&dev, p, true);
    let pot = vec![0.0; dev.num_atoms()];
    let h = ham.assemble(&pot, 0.0);
    let lead = ham.lead_blocks(0.0, 0.0);
    check_equivalence(
        "Si wire + SO",
        &h,
        (&lead.0, &lead.1),
        (&lead.0, &lead.1),
        &[1.9, 2.2],
        tol("engine.spin_orbit"),
        tol("engine.selinv_spin_orbit"),
    );
}

#[test]
fn poisoned_contact_fails_typed_in_every_engine() {
    use omen::negf::{rgf_point, selinv_point};
    use omen::num::OmenError;
    use omen::parsim::{run_ranks, Comm};
    use omen::wf::{wf_point, Solver};
    // A NaN in Σ_L lands in A's first pivot block: every engine must end
    // in the typed SingularBlock stamped with the energy — a NaN that
    // reached the transmission would be integrated as a current.
    let (h, ll, lr) = stepped_si_wire();
    let e = 2.0;
    let (mut sl, sr) =
        local_contacts(e, DEFAULT_ETA, (&ll.0, &ll.1), (&lr.0, &lr.1)).expect("contacts");
    sl.sigma[(1, 2)] = c64::new(f64::NAN, 0.0);
    let eta = DEFAULT_ETA;
    let mut outcomes = vec![
        ("rgf", rgf_point(e, eta, &h, &sl, &sr)),
        ("selinv", selinv_point(e, eta, &h, &sl, &sr)),
        ("wf thomas", wf_point(e, eta, &h, &sl, &sr, Solver::Thomas)),
        ("wf bcr", wf_point(e, eta, &h, &sl, &sr, Solver::Bcr)),
    ];
    let per_rank = run_ranks(2, |ctx| {
        wf_point(e, eta, &h, &sl, &sr, Solver::SplitSolve(&Comm::world(ctx)))
    });
    outcomes.extend(
        per_rank
            .unwrap_all()
            .into_iter()
            .map(|r| ("wf splitsolve", r)),
    );
    for (engine, outcome) in outcomes {
        match outcome {
            Err(err @ OmenError::SingularBlock { .. }) => {
                assert_eq!(err.energy(), Some(e), "{engine}: unstamped failure")
            }
            Err(other) => panic!("{engine}: {other:?}"),
            Ok(p) => panic!("{engine}: solved, T = {}", p.transmission),
        }
    }
}
