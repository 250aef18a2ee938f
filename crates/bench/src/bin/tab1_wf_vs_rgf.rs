//! tab1_wf_vs_rgf — numerical equivalence of the transport engines.
//!
//! The wave-function algorithm must reproduce NEGF observables exactly in
//! the ballistic limit; this table reports the maximum deviation of T(E)
//! between RGF, WF(Thomas), WF(BCR) and the dense-inversion reference over
//! an energy sweep, for a 1-D chain, a single-band wire and a full sp3s*
//! silicon wire. Expected shape: all deviations at numerical-noise level.

use omen_bench::print_table;
use omen_core::{solve_point, Engine};
use omen_lattice::{Crystal, Device};
use omen_num::{c64, linspace, A_SI};
use omen_sparse::BlockTridiag;
use omen_tb::{DeviceHamiltonian, Material, TbParams};

struct Case {
    name: String,
    h: BlockTridiag,
    lead: (omen_linalg::ZMat, omen_linalg::ZMat),
    energies: Vec<f64>,
}

fn chain_case() -> Case {
    let nb = 12;
    let diag: Vec<omen_linalg::ZMat> = (0..nb)
        .map(|i| {
            let u = if (4..7).contains(&i) { 0.5 } else { 0.0 };
            omen_linalg::ZMat::from_diag(&[c64::real(u)])
        })
        .collect();
    let off: Vec<omen_linalg::ZMat> = (0..nb - 1)
        .map(|_| omen_linalg::ZMat::from_diag(&[c64::real(-1.0)]))
        .collect();
    Case {
        name: "1-band chain + barrier".into(),
        h: BlockTridiag::new(diag, off.clone(), off),
        lead: (
            omen_linalg::ZMat::from_diag(&[c64::ZERO]),
            omen_linalg::ZMat::from_diag(&[c64::real(-1.0)]),
        ),
        energies: linspace(-1.83, 1.79, 41),
    }
}

fn wire_case(material: Material, name: &str, w: f64, window: (f64, f64)) -> Case {
    let p = TbParams::of(material);
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 4, w, w);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let pot: Vec<f64> = dev
        .atoms
        .iter()
        .map(|a| 0.05 * (a.pos.x / dev.length()))
        .collect();
    let h = ham.assemble(&pot, 0.0);
    let lead = ham.lead_blocks(0.0, 0.0);
    Case {
        name: name.into(),
        h,
        lead,
        energies: linspace(window.0, window.1, 21),
    }
}

fn main() {
    let cases = vec![
        chain_case(),
        wire_case(
            Material::SingleBand { t_mev: 1000 },
            "1-band Si-geometry wire",
            1.0,
            (-3.45, -2.2),
        ),
        wire_case(Material::SiSp3s, "Si sp3s* wire 0.8 nm", 0.8, (1.55, 2.4)),
    ];

    let mut rows = Vec::new();
    for case in &cases {
        let lead = (&case.lead.0, &case.lead.1);
        let mut dev_wf: f64 = 0.0;
        let mut dev_bcr: f64 = 0.0;
        let mut dev_dense: f64 = 0.0;
        let mut t_max: f64 = 0.0;
        for &e in &case.energies {
            let rgf = solve_point(e, &case.h, lead, lead, Engine::Rgf)
                .expect("RGF point failed")
                .transmission;
            let wf = solve_point(e, &case.h, lead, lead, Engine::WfThomas)
                .expect("WF point failed")
                .transmission;
            let bcr = solve_point(e, &case.h, lead, lead, Engine::WfBcr)
                .expect("BCR point failed")
                .transmission;
            let dense = omen_negf::transmission_dense_reference(e, &case.h, lead, lead)
                .expect("dense reference failed");
            dev_wf = dev_wf.max((wf - rgf).abs());
            dev_bcr = dev_bcr.max((bcr - rgf).abs());
            dev_dense = dev_dense.max((rgf - dense).abs());
            t_max = t_max.max(rgf);
        }
        assert!(
            dev_wf < 1e-4 && dev_bcr < 1e-4 && dev_dense < 1e-6,
            "engines diverged on {}",
            case.name
        );
        rows.push(vec![
            case.name.clone(),
            format!("{}", case.energies.len()),
            format!("{t_max:.2}"),
            format!("{dev_dense:.2e}"),
            format!("{dev_wf:.2e}"),
            format!("{dev_bcr:.2e}"),
        ]);
    }
    print_table(
        "tab1: max |ΔT| between engines over the sweep",
        &["device", "#E", "max T", "RGF−dense", "WF−RGF", "BCR−RGF"],
        &rows,
    );
    println!("\nall engines agree to numerical precision ✓");
}
