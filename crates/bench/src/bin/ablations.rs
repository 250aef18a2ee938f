//! ablations — design-choice studies called out in DESIGN.md.
//!
//! Three independent ablations, each isolating one engineering decision:
//!
//! * **A: SCF charge predictor** — exponential-predictor Gummel vs plain
//!   damped mixing; the predictor is what makes bias points converge in a
//!   handful of outer iterations.
//! * **B: passivation shift** — the dangling-hybrid energy shift vs the
//!   confined wire gap; without it surface states fill the gap and the
//!   device physics is wrong.
//! * **C: numerical broadening η** — accuracy of T(E) against the analytic
//!   chain result vs η; the in-band error is linear in η, while η ≲ 1e-8
//!   hits the decimation's rounding floor at high-symmetry energies — the
//!   production `DEFAULT_ETA = 2e-6` balances the two.

use omen_bench::print_table;
use omen_core::{self_consistent, Bias, ContactTable, Engine, ScfOptions, TransistorSpec};
use omen_lattice::{Crystal, Device};
use omen_linalg::ZMat;
use omen_num::{c64, linspace, A_SI};
use omen_sparse::BlockTridiag;
use omen_tb::bands::{wire_bands, wire_gap};
use omen_tb::{DeviceHamiltonian, Material, TbParams};

fn ablation_a_predictor() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 2e-3;
    let bias = Bias {
        v_gate: 0.2,
        v_ds: 0.2,
        mu_source: -3.4,
    };
    let mut rows = Vec::new();
    for (name, predictor, mixing) in [
        ("exponential predictor", true, 0.8),
        ("plain mixing 0.8", false, 0.8),
        ("plain mixing 0.3", false, 0.3),
    ] {
        let mut tr = spec.build();
        let opts = ScfOptions {
            engine: Engine::WfThomas,
            n_energy: 25,
            tol_v: 3e-3,
            max_iter: 40,
            mixing,
            predictor,
            n_k: 1,
        };
        let r = self_consistent(&mut tr, &bias, &opts, None, &mut ContactTable::default());
        rows.push(vec![
            name.to_string(),
            format!("{}", r.iterations),
            format!("{}", r.converged),
            format!("{:.2e}", r.residual),
        ]);
    }
    print_table(
        "ablation A: SCF convergence, predictor vs plain mixing (same bias point)",
        &["scheme", "iterations", "converged", "final |ΔV|"],
        &rows,
    );
}

fn ablation_b_passivation() {
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 2, 0.8, 0.8);
    let thetas = linspace(0.0, std::f64::consts::PI, 13);
    // Occupied-subband count from the bond topology (independent of shift).
    let offsets = dev.slab_offsets();
    let dang: usize = (0..offsets[1])
        .map(|i| {
            dev.dangling_directions(i)
                .into_iter()
                .filter(|&d| !dev.dangling_is_lead_facing(i, d))
                .count()
        })
        .sum();
    let n_occ = (4 * offsets[1] - dang) / 2;

    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for shift in [0.0, 2.0, 10.0, 30.0, 100.0] {
        let mut p = TbParams::of(Material::SiSp3s);
        p.passivation_shift = shift;
        let ham = DeviceHamiltonian::new(&dev, p, false);
        let (h00, h01) = ham.lead_blocks(0.0, 0.0);
        let bands = wire_bands(&h00, &h01, &thetas);
        // With shift = 0, n_occ counts surface states as occupied too; the
        // same counting exposes the gap collapse.
        let (_vbm, _cbm, gap) = wire_gap(&bands, n_occ);
        rows.push(vec![format!("{shift:5.1}"), format!("{gap:+.3}")]);
        gaps.push(gap);
    }
    assert!(
        gaps[0] < gaps[3] - 0.5,
        "unpassivated surface states must collapse the gap: {gaps:?}"
    );
    assert!(
        (gaps[4] - gaps[3]).abs() < 0.5,
        "the gap must saturate for large shifts: {gaps:?}"
    );
    print_table(
        "ablation B: 0.8 nm Si wire gap vs dangling-hybrid shift (eV)",
        &["shift (eV)", "gap (eV)"],
        &rows,
    );
    println!("(small shifts leave surface hybrids inside the gap; ≥ ~10 eV saturates)");
}

fn ablation_c_eta() {
    // Pristine chain: T must be exactly 1 in band; deviation measures the
    // numerical broadening error.
    let nb = 8;
    let diag: Vec<ZMat> = (0..nb).map(|_| ZMat::from_diag(&[c64::ZERO])).collect();
    let off: Vec<ZMat> = (0..nb - 1)
        .map(|_| ZMat::from_diag(&[c64::real(-1.0)]))
        .collect();
    let h = BlockTridiag::from_dense(diag, off.clone(), off);
    let h00 = ZMat::from_diag(&[c64::ZERO]);
    let h01 = ZMat::from_diag(&[c64::real(-1.0)]);

    let mut rows = Vec::new();
    for eta in [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3] {
        let mut worst = 0.0f64;
        for &e in &[-1.3f64, -0.6, 0.05, 0.9, 1.55] {
            let lead = (&h00, &h01);
            let (sl, sr) = omen_negf::contacts::local_contacts(e, eta, lead, lead)
                .expect("lead decimation failed");
            let r = omen_negf::rgf_point(e, eta, &h, &sl, &sr).expect("RGF solve failed");
            worst = worst.max((r.transmission - 1.0).abs());
        }
        rows.push(vec![format!("{eta:.0e}"), format!("{worst:.2e}")]);
    }
    print_table(
        "ablation C: max |T − 1| on a clean chain vs numerical broadening η",
        &["η (eV)", "max error"],
        &rows,
    );
    println!(
        "(in-band error scales linearly with η; DEFAULT_ETA = 2e-6 keeps it \
         below 1e-4 while staying safely above the decimation rounding floor \
         that bites at high-symmetry energies for η ≲ 1e-8 — see the \
         omen-negf::sancho docs)"
    );
}

fn ablation_d_strain() {
    // Hydrostatic strain on a Si wire through Harrison scaling: bond
    // stretching weakens every hopping as (d0/d)^2, narrowing the bands and
    // moving the gap. The deformation trend (monotone gap response) is the
    // observable.
    let p = TbParams::of(Material::SiSp3s);
    let dev0 = Device::nanowire(Crystal::Zincblende { a: A_SI }, 2, 1.0, 1.0);
    let thetas = linspace(0.0, std::f64::consts::PI, 13);
    let offsets = dev0.slab_offsets();
    let dang: usize = (0..offsets[1])
        .map(|i| {
            dev0.dangling_directions(i)
                .into_iter()
                .filter(|&d| !dev0.dangling_is_lead_facing(i, d))
                .count()
        })
        .sum();
    let n_occ = (4 * offsets[1] - dang) / 2;

    let mut rows = Vec::new();
    let mut gaps = Vec::new();
    for eps in [-0.02, -0.01, 0.0, 0.01, 0.02] {
        let dev = dev0.strained(eps, eps, eps);
        let ham = DeviceHamiltonian::new(&dev, p, false);
        let (h00, h01) = ham.lead_blocks(0.0, 0.0);
        let bands = wire_bands(&h00, &h01, &thetas);
        let (_v, _c, gap) = wire_gap(&bands, n_occ);
        rows.push(vec![format!("{:+.1}%", eps * 100.0), format!("{gap:.3}")]);
        gaps.push(gap);
    }
    print_table(
        "ablation D: 1 nm Si wire gap vs hydrostatic strain (Harrison d⁻² scaling)",
        &["strain", "gap (eV)"],
        &rows,
    );
    // Monotone response across the strain range.
    let increasing = gaps.windows(2).all(|w| w[1] >= w[0] - 1e-9);
    let decreasing = gaps.windows(2).all(|w| w[1] <= w[0] + 1e-9);
    assert!(
        increasing || decreasing,
        "gap response must be monotone: {gaps:?}"
    );
    println!("(tensile strain weakens the couplings; the gap responds monotonically)");
}

fn main() {
    ablation_a_predictor();
    ablation_b_passivation();
    ablation_c_eta();
    ablation_d_strain();
}
