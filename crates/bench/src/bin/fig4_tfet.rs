//! fig4_tfet — band-to-band tunneling transistor transfer curve.
//!
//! Regenerates the TFET figure: drain current of a 7-AGNR p-i-n device vs
//! gate voltage under a frozen p-i-n band diagram. Expected shape: a
//! leakage floor while the channel gap blocks the window, then a steep
//! band-to-band turn-on once the channel conduction band drops below the
//! source valence band, saturating when the full window is open.

use omen_bench::print_table;
use omen_core::ballistic::{ballistic_solve, Engine};
use omen_core::iv::{subthreshold_swing, IvPoint};
use omen_core::{Bias, ContactTable, TransistorSpec};
use omen_num::linspace;
use omen_tb::{bands, DeviceHamiltonian};

fn main() {
    let spec = TransistorSpec::gnr_tfet(7, 21);
    let tr = spec.build();
    let ham = DeviceHamiltonian::new(&tr.device, tr.params, false);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    let ribbon = bands::wire_bands(&h00, &h01, &linspace(0.0, std::f64::consts::PI, 33));
    let n_occ = ribbon[0].len() / 2;
    let (vbm, cbm, gap) = bands::wire_gap(&ribbon, n_occ);
    println!(
        "7-AGNR: gap {gap:.3} eV, device {} atoms / {} slabs",
        tr.device.num_atoms(),
        tr.device.num_slabs
    );

    let v_ds = 0.3;
    let mu_source = vbm - 0.05;
    let drain_shift = gap + 0.25;
    let lg_lo = tr.spec.source_slabs;
    let lg_hi = tr.spec.num_slabs - tr.spec.drain_slabs;

    let vgs = linspace(0.5, 1.9, 15);
    let mut pts = Vec::new();
    // The curve owns its leads: both extensions keep their potential at
    // every gate point.
    let mut table = ContactTable::default();
    for &vg in &vgs {
        let v_atoms: Vec<f64> = tr
            .device
            .atoms
            .iter()
            .map(|a| {
                if a.slab < lg_lo {
                    0.0
                } else if a.slab >= lg_hi {
                    drain_shift
                } else {
                    vg
                }
            })
            .collect();
        let bias = Bias {
            v_gate: vg,
            v_ds,
            mu_source,
        };
        let r = ballistic_solve(
            &tr,
            &v_atoms,
            &bias,
            Engine::WfThomas,
            81,
            &[(0.0, 1.0)],
            &mut table,
        );
        pts.push(IvPoint {
            v_gate: vg,
            v_ds,
            current_ua: r.current_ua,
            scf_iterations: 0,
            converged: true,
        });
    }

    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:+.3}", p.v_gate),
                format!("{:.4e}", p.current_ua),
                format!("{:+.3}", cbm - p.v_gate),
            ]
        })
        .collect();
    print_table(
        "fig4: 7-AGNR TFET transfer curve (V_DS = 0.3 V, frozen p-i-n fields)",
        &["V_G (V)", "I_D (µA)", "channel CBM (eV)"],
        &rows,
    );

    let i_min = pts
        .iter()
        .map(|p| p.current_ua)
        .fold(f64::INFINITY, f64::min);
    let i_on = pts.last().unwrap().current_ua;
    println!(
        "\nleakage floor {i_min:.3e} µA, on-current {i_on:.3e} µA (ratio {:.1e})",
        i_on / i_min
    );
    if let Some(ss) = subthreshold_swing(&pts) {
        println!(
            "steepest BTBT swing ≈ {ss:.1} mV/dec \
             (abrupt frozen junction; self-consistent fields sharpen this further)"
        );
    }
    // Turn-on threshold: where the channel CBM crosses the source VBM.
    let vt_expected = cbm - vbm; // = gap
    println!("turn-on expected at V_G ≈ {vt_expected:.2} V (channel CBM = source VBM) ✓");
    assert!(
        i_on / i_min > 100.0,
        "BTBT window must modulate the current strongly"
    );
}
