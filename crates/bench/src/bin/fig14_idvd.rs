//! fig14_idvd — output characteristic of the nanowire nMOSFET (extension).
//!
//! The second half of a transistor's DC fingerprint: drain current vs
//! drain voltage at fixed gate bias, self-consistently. Expected shape:
//! linear (ohmic) at small V_DS, then saturation once the drain Fermi
//! level falls below the channel barrier — in a ballistic device the
//! saturated current is source-injection limited and nearly flat.

use omen_bench::print_table;
use omen_core::iv::drain_sweep;
use omen_core::{Engine, ScfOptions, TransistorSpec};
use omen_num::linspace;
use omen_tb::Material;

fn main() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.doping_sd = 2e-3;
    let mut tr = spec.build();
    let opts = ScfOptions {
        engine: Engine::WfThomas,
        n_energy: 31,
        tol_v: 3e-3,
        max_iter: 20,
        mixing: 0.8,
        predictor: true,
        n_k: 1,
    };
    let mu_source = -3.4;
    let v_gate = 0.3; // on-state
    let vds = linspace(0.025, 0.5, 10);

    let pts = drain_sweep(&mut tr, v_gate, &vds, mu_source, &opts);
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.3}", p.v_ds),
                format!("{:.5}", p.current_ua),
                format!("{:.2}", p.current_ua / p.v_ds / omen_num::G0_US * 1e3),
                format!("{}", p.scf_iterations),
            ]
        })
        .collect();
    print_table(
        "fig14: Id–Vds at V_G = 0.3 V (self-consistent)",
        &["V_DS (V)", "I_D (µA)", "G/G₀ ×10⁻³ /V", "SCF its"],
        &rows,
    );

    assert!(pts.iter().all(|p| p.converged), "all drain points converge");
    // Monotone current, sublinear beyond the linear region (saturation).
    assert!(pts
        .windows(2)
        .all(|w| w[1].current_ua >= w[0].current_ua * 0.98));
    let g_lin = pts[1].current_ua / pts[1].v_ds;
    let g_sat = (pts[9].current_ua - pts[8].current_ua) / (pts[9].v_ds - pts[8].v_ds);
    println!(
        "\nlinear-region conductance {g_lin:.2} µS vs saturation slope {g_sat:.2} µS \
         (ratio {:.2}) — ballistic saturation once μ_D drops below the barrier.",
        g_sat / g_lin
    );
    assert!(
        g_sat < 0.6 * g_lin,
        "output curve must saturate: {g_sat} vs {g_lin}"
    );
}
