//! Band-to-band tunneling transistor: armchair graphene nanoribbon p-i-n.
//!
//! ```sh
//! cargo run --release --example gnr_tfet
//! ```
//!
//! A 7-AGNR (semiconducting, E_g ≈ 1.4 eV at this width in the π model)
//! biased as a p-i-n tunneling FET: the source bands sit at the p-doped
//! level, the drain is pulled down by the n-doping so its conduction band
//! faces the source valence band, and the gate lowers the channel bands.
//! Current turns on when the channel conduction band drops into the
//! source-valence/drain-conduction window — the band-to-band tunneling
//! mechanism that lets TFETs beat the 60 mV/dec thermionic limit.

use omen::core::ballistic::{ballistic_solve, Engine};
use omen::core::iv::{subthreshold_swing, IvPoint};
use omen::core::{Bias, ContactTable, TransistorSpec};
use omen::num::linspace;
use omen::tb::{bands, DeviceHamiltonian};

fn main() {
    // 21 slabs → 7-slab (3 nm) channel: long enough to suppress direct
    // source-drain tunneling leakage.
    let spec = TransistorSpec::gnr_tfet(7, 21);
    let tr = spec.build();
    println!(
        "7-AGNR TFET: {} C atoms, {} slabs, ribbon width {:.2} nm",
        tr.device.num_atoms(),
        tr.device.num_slabs,
        tr.device.cross.0
    );

    // Ribbon band structure: confirm the semiconducting gap.
    let ham = DeviceHamiltonian::new(&tr.device, tr.params, false);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    let thetas = linspace(0.0, std::f64::consts::PI, 33);
    let ribbon = bands::wire_bands(&h00, &h01, &thetas);
    let n_occ = ribbon[0].len() / 2; // particle-hole symmetric π system
    let (vbm, cbm, gap) = bands::wire_gap(&ribbon, n_occ);
    println!("ribbon gap = {gap:.3} eV (VBM {vbm:+.3}, CBM {cbm:+.3})");
    assert!(gap > 0.5, "7-AGNR must be semiconducting");

    // p-i-n band diagram (frozen electrostatics): source at 0 (p-type, μ at
    // its valence band top), drain shifted down by the n-doping so its
    // conduction band faces the source valence band, channel shifted by the
    // gate.
    let v_ds = 0.3;
    let mu_source = vbm - 0.05;
    let drain_shift = gap + 0.25; // puts drain CBM ~0.25+VDS below source VBM region
    let lg_lo = tr.spec.source_slabs;
    let lg_hi = tr.spec.num_slabs - tr.spec.drain_slabs;

    println!("\n  V_G (V)   I_D (µA)          channel CBM (eV)");
    let vgs = linspace(0.5, 1.9, 15);
    let mut pts: Vec<IvPoint> = Vec::new();
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
        println!(
            "  {:+.3}    {:12.5e}     {:+.3}",
            vg,
            r.current_ua,
            cbm - vg
        );
        pts.push(IvPoint {
            v_gate: vg,
            v_ds,
            current_ua: r.current_ua,
            scf_iterations: 0,
            converged: true,
        });
    }

    let on = pts.last().unwrap().current_ua;
    let off = pts
        .iter()
        .map(|p| p.current_ua)
        .fold(f64::INFINITY, f64::min);
    println!("\nI_on/I_min over the sweep ≈ {:.2e}", on / off.max(1e-15));
    if let Some(ss) = subthreshold_swing(&pts) {
        println!("steepest swing over the BTBT turn-on ≈ {ss:.1} mV/dec");
    }
    assert!(
        on > 10.0 * off.max(1e-15),
        "gate must open the tunneling window"
    );
}
