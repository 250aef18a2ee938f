//! End-to-end integration: full simulator flows exercised through the
//! public API only, covering the feature combinations the unit tests treat
//! in isolation (SCF + sweeps, alloys + transport, strain + transport,
//! distributed + self-consistent observables).

use omen::core::iv::{frozen_field_sweep, gate_sweep, on_off_ratio};
use omen::core::{solve_point, Bias, Engine, ScfOptions, TransistorSpec};
use omen::lattice::{Crystal, Device};
use omen::num::tolerance::test_bound;
use omen::num::{linspace, BoundKind, A_SI};
use omen::tb::{AlloyModel, DeviceHamiltonian, Material, TbParams};

/// One accuracy bound from `TOLERANCES.toml` (DESIGN.md §12); SCF control
/// parameters like `tol_v` stay inline — they steer the solver, they do
/// not judge its output.
fn tol(op: &str, kind: BoundKind) -> f64 {
    test_bound(op, kind).expect("TOLERANCES.toml covers every end-to-end op")
}

fn quick_opts() -> ScfOptions {
    ScfOptions {
        engine: Engine::WfThomas,
        n_energy: 21,
        tol_v: 5e-3,
        max_iter: 15,
        mixing: 0.8,
        predictor: true,
        n_k: 1,
    }
}

#[test]
fn scf_gate_sweep_is_monotone_and_converged() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 2e-3;
    let mut tr = spec.build();
    let vgs = linspace(-0.3, 0.3, 4);
    let pts = gate_sweep(&mut tr, &vgs, 0.2, -3.4, &quick_opts());
    assert!(pts.iter().all(|p| p.converged), "all bias points converge");
    assert!(
        pts.windows(2)
            .all(|w| w[1].current_ua > w[0].current_ua * 0.9),
        "transfer curve is (weakly) monotone"
    );
    assert!(on_off_ratio(&pts).unwrap() > 50.0);
}

#[test]
fn alloy_channel_transports_and_scatters() {
    let si = TbParams::of(Material::SiSp3s);
    let ge = TbParams::of(Material::GeSp3s);
    let dev = Device::nanowire(Crystal::Zincblende { a: si.a }, 6, 0.8, 0.8);
    let pot = vec![0.0; dev.num_atoms()];

    let ham_si = DeviceHamiltonian::new(&dev, si, false);
    let lead = ham_si.lead_blocks(0.0, 0.0);
    let h_pure = ham_si.assemble(&pot, 0.0);

    let m = AlloyModel::random_channel(&dev, si, ge, 0.4, 99);
    let ham_alloy = DeviceHamiltonian::new_alloy(&dev, m, false);
    let h_alloy = ham_alloy.assemble(&pot, 0.0);
    assert!(
        h_alloy.is_hermitian(tol("physics.hermiticity", BoundKind::Absolute)),
        "alloy Hamiltonian stays Hermitian"
    );

    // Mean transmission over a conduction window: disorder must scatter.
    let energies = linspace(1.9, 2.2, 5);
    let mean = |h: &omen::sparse::BlockTridiag| -> f64 {
        energies
            .iter()
            .map(|&e| {
                solve_point(e, h, (&lead.0, &lead.1), (&lead.0, &lead.1), Engine::Rgf)
                    .unwrap()
                    .transmission
            })
            .sum::<f64>()
            / energies.len() as f64
    };
    let t_pure = mean(&h_pure);
    let t_alloy = mean(&h_alloy);
    assert!(t_pure > 0.5, "reference wire must conduct ({t_pure})");
    assert!(
        t_alloy < t_pure,
        "alloy disorder must backscatter: {t_alloy} vs {t_pure}"
    );
    // Engines still agree on the disordered device.
    let e = 2.0;
    let rgf = solve_point(
        e,
        &h_alloy,
        (&lead.0, &lead.1),
        (&lead.0, &lead.1),
        Engine::Rgf,
    )
    .unwrap();
    let wf = solve_point(
        e,
        &h_alloy,
        (&lead.0, &lead.1),
        (&lead.0, &lead.1),
        Engine::WfThomas,
    )
    .unwrap();
    let bound = tol("e2e.rgf_vs_wf", BoundKind::Relative);
    assert!((rgf.transmission - wf.transmission).abs() < bound * (1.0 + rgf.transmission));
}

#[test]
fn strained_device_transport_shifts_band_edge() {
    // The validation single-band set ships with strain_eta = 0 (strain-free
    // by design); turn Harrison d⁻² scaling on for this test.
    let mut p = TbParams::of(Material::SingleBand { t_mev: 1000 });
    p.strain_eta = 2.0;
    let dev0 = Device::nanowire(Crystal::Zincblende { a: A_SI }, 4, 1.0, 1.0);
    let dev1 = dev0.strained(0.03, 0.03, 0.03);
    let pot = vec![0.0; dev0.num_atoms()];
    let e_probe = -3.45; // just above the unstrained band bottom (−3.53)

    let t = |dev: &Device| {
        let ham = DeviceHamiltonian::new(dev, p, false);
        let h = ham.assemble(&pot, 0.0);
        let lead = ham.lead_blocks(0.0, 0.0);
        solve_point(
            e_probe,
            &h,
            (&lead.0, &lead.1),
            (&lead.0, &lead.1),
            Engine::Rgf,
        )
        .unwrap()
        .transmission
    };
    let t0 = t(&dev0);
    let t1 = t(&dev1);
    // Tensile strain weakens hoppings → band narrows → the probe energy
    // falls below the strained band bottom.
    assert!(t0 > 0.5, "unstrained wire conducts at the probe ({t0})");
    assert!(
        t1 < 0.1,
        "3% tensile strain must push the band edge past the probe ({t1})"
    );
}

#[test]
fn frozen_and_scf_agree_in_the_far_on_state() {
    // Deep in the on-state, self-consistent screening only slightly
    // perturbs the frozen-gate estimate — a coarse cross-validation of the
    // two drive paths.
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 1e-3;
    let mut tr = spec.build();
    let vg = 0.4;
    let frozen = frozen_field_sweep(&tr, &[vg], 0.2, -3.4, Engine::WfThomas, 25)[0].current_ua;
    let scf = omen::core::self_consistent(
        &mut tr,
        &Bias {
            v_gate: vg,
            v_ds: 0.2,
            mu_source: -3.4,
        },
        &quick_opts(),
        None,
    )
    .transport
    .current_ua;
    assert!(
        scf > 0.2 * frozen && scf < 5.0 * frozen,
        "frozen {frozen} vs SCF {scf}"
    );
}
