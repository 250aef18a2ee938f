//! Self-consistent Id–Vg of a gate-all-around nanowire nMOSFET.
//!
//! ```sh
//! cargo run --release --example nanowire_mosfet
//! ```
//!
//! The workload the paper's introduction motivates: a gate-all-around
//! nanowire transistor solved self-consistently (quantum transport +
//! 3-D Poisson) across a gate sweep, with subthreshold swing and on/off
//! extraction. A single-band wire keeps the runtime interactive; swap the
//! material for `Material::SiSp3s` for the full-band version (same code
//! path, more minutes).

use omen::core::iv::{gate_sweep, on_off_ratio, subthreshold_swing};
use omen::core::{Engine, ScfOptions, TransistorSpec};
use omen::num::linspace;
use omen::tb::Material;

fn main() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 2e-3; // 2·10^18 cm⁻³ donors in source/drain
    spec.t_ox = 0.6;
    let mut tr = spec.build();
    println!(
        "device: {} atoms, {} slabs, L = {:.2} nm, Poisson grid {} nodes",
        tr.device.num_atoms(),
        tr.device.num_slabs,
        tr.device.length(),
        tr.poisson.grid.len()
    );

    let opts = ScfOptions {
        engine: Engine::WfThomas,
        n_energy: 31,
        tol_v: 3e-3,
        max_iter: 20,
        mixing: 0.8,
        predictor: true,
        n_k: 1,
    };
    let v_ds = 0.2;
    // The 1 nm wire's lowest subband sits at −3.53 eV; μ = −3.4 places the
    // source Fermi level 0.13 eV above it, so the gate sweep straddles the
    // off/on transition.
    let mu_source = -3.4;
    let vgs = linspace(-0.4, 0.4, 9);

    println!("\n  V_G (V)   I_D (µA)     SCF its  converged");
    let points = gate_sweep(&mut tr, &vgs, v_ds, mu_source, &opts);
    for p in &points {
        println!(
            "  {:+.3}    {:11.5e}   {:3}      {}",
            p.v_gate, p.current_ua, p.scf_iterations, p.converged
        );
    }

    if let Some(ss) = subthreshold_swing(&points) {
        println!("\nsubthreshold swing ≈ {ss:.1} mV/dec");
    }
    if let Some(ratio) = on_off_ratio(&points) {
        println!("on/off ratio over sweep ≈ {ratio:.2e}");
        assert!(ratio > 10.0, "gate must modulate the current substantially");
    }
    assert!(
        points.last().unwrap().current_ua > points[0].current_ua,
        "gate must modulate the current upward"
    );
}
