//! fig11_utb_kpoints — transverse-momentum integration of a UTB device
//! (extension; the physical content of the paper's *momentum* level).
//!
//! An ultra-thin-body device is periodic transverse to transport, so every
//! observable is a Brillouin-zone average over k_y — the axis the paper
//! parallelizes with its momentum communicators (typically ~21 k-points per
//! bias point). Two panels: (a) convergence of the drain current with the
//! k-grid density, (b) the k-resolved current decomposition showing why a
//! single-k calculation misrepresents a UTB.

use omen_bench::print_table;
use omen_core::ballistic::{ballistic_solve, momentum_grid, Engine};
use omen_core::{Bias, ContactTable, Geometry, TransistorSpec};
use omen_tb::Material;

fn main() {
    let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
    spec.geometry = Geometry::Utb { cells: 1, h: 1.0 };
    spec.doping_sd = 0.0;
    let tr = spec.build();
    let v = vec![0.0; tr.device.num_atoms()];
    let bias = Bias {
        v_gate: 0.0,
        v_ds: 0.2,
        mu_source: -3.4,
    };
    println!(
        "UTB: {} atoms, transverse period {:.3} nm, thickness {:.1} nm",
        tr.device.num_atoms(),
        tr.device.cross.0,
        tr.device.cross.1
    );

    // One device, one bias: every solve below reads the one table.
    let mut table = ContactTable::default();
    // Panel a: current vs number of k-points.
    let mut rows = Vec::new();
    let mut last = f64::NAN;
    let mut i_converged = 0.0;
    for &nk in &[1usize, 2, 4, 8, 16] {
        let ks = momentum_grid(&tr, nk);
        let r = ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 31, &ks, &mut table);
        let delta = if last.is_nan() {
            "—".to_string()
        } else {
            format!("{:+.3}%", 100.0 * (r.current_ua - last) / last)
        };
        rows.push(vec![format!("{nk}"), format!("{:.6}", r.current_ua), delta]);
        last = r.current_ua;
        i_converged = r.current_ua;
    }
    print_table(
        "fig11a: UTB drain current vs transverse k-points (per period)",
        &["N_k", "I_D (µA)", "Δ vs previous"],
        &rows,
    );

    // Panel b: the k-resolved decomposition at the converged grid.
    let grid = momentum_grid(&tr, 8);
    let mut rows = Vec::new();
    for &(ky, w) in &grid {
        let r = ballistic_solve(
            &tr,
            &v,
            &bias,
            Engine::WfThomas,
            31,
            &[(ky, 1.0)],
            &mut table,
        );
        rows.push(vec![
            format!("{:.3}", ky * tr.device.cross.0 / std::f64::consts::PI),
            format!("{:.5}", r.current_ua),
            format!("{:.5}", w * r.current_ua),
        ]);
    }
    print_table(
        "fig11b: k-resolved current (k in units of π/L_y)",
        &["k_y·L/π", "I(k) (µA)", "weighted"],
        &rows,
    );
    println!(
        "\nconverged I_D = {i_converged:.5} µA; the k-dispersion of the \
         subbands makes single-k UTB results off by the panel-b spread — \
         hence the paper's dedicated momentum parallel level."
    );
}
