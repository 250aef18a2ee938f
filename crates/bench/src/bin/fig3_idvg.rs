//! fig3_idvg — self-consistent transfer characteristic of a GAA nanowire
//! nMOSFET (the headline device-engineering result class).
//!
//! Regenerates the Id–Vg series: current vs gate voltage at fixed V_DS from
//! the full Schrödinger–Poisson loop, with subthreshold swing and on/off
//! extraction. Expected shape: exponential subthreshold region with
//! SS ≳ 60 mV/dec, turning over to a linear-ish on-state.
//!
//! The shipped configuration uses the single-band wire (interactive
//! runtime); pass `--full-band` for the sp3s* silicon version of the same
//! sweep (several minutes).

use omen_bench::{print_table, timed};
use omen_core::iv::{gate_sweep, on_off_ratio, subthreshold_swing};
use omen_core::{Engine, ScfOptions, TransistorSpec};
use omen_num::linspace;
use omen_tb::Material;

fn main() {
    let full_band = std::env::args().any(|a| a == "--full-band");
    let (material, mu_source, vgs) = if full_band {
        (Material::SiSp3s, 1.75, linspace(-0.2, 0.5, 8))
    } else {
        (
            Material::SingleBand { t_mev: 1000 },
            -3.4,
            linspace(-0.4, 0.4, 9),
        )
    };

    let mut spec = TransistorSpec::si_nanowire_nmos(material, 1.0, 8);
    spec.doping_sd = 2e-3;
    let mut tr = spec.build();
    println!(
        "device: {} atoms ({} orbitals), {} slabs, Poisson grid {} nodes",
        tr.device.num_atoms(),
        tr.hamiltonian().dim(),
        tr.device.num_slabs,
        tr.poisson.grid.len()
    );

    let opts = ScfOptions {
        engine: Engine::WfThomas,
        n_energy: if full_band { 35 } else { 31 },
        tol_v: 3e-3,
        max_iter: 20,
        mixing: 0.8,
        predictor: true,
        n_k: 1,
    };
    let v_ds = 0.2;

    let (points, secs) = timed(|| gate_sweep(&mut tr, &vgs, v_ds, mu_source, &opts));
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:+.3}", p.v_gate),
                format!("{:.4e}", p.current_ua),
                format!("{}", p.scf_iterations),
                format!("{}", p.converged),
            ]
        })
        .collect();
    print_table(
        "fig3: Id–Vg (self-consistent), V_DS = 0.2 V",
        &["V_G (V)", "I_D (µA)", "SCF its", "conv"],
        &rows,
    );
    if let Some(ss) = subthreshold_swing(&points) {
        println!("\nsubthreshold swing ≈ {ss:.1} mV/dec (thermionic limit 59.6)");
    }
    if let Some(r) = on_off_ratio(&points) {
        println!("on/off over sweep ≈ {r:.2e}");
    }
    println!("total sweep time: {secs:.1} s");
    assert!(
        points.iter().all(|p| p.converged),
        "every bias point must converge"
    );
}
