//! tab3_timetosol — time-to-solution per bias point, engine comparison.
//!
//! Wall-clock time of one complete ballistic bias-point solve (energy
//! sweep + current + charge) with the RGF and wave-function engines on the
//! same device and identical energy grids, for growing cross-sections.
//!
//! Expected shape: the two engines within ±15 % of each other. The shared
//! Sancho–Rubio contacts (one pair decimation per point: source and
//! drain are the same lead here) dominate these 8-slab devices, and what
//! is left favours neither engine clearly: RGF pays LU + inverse per slab
//! but multiplies by each coupling on its support, block-Thomas pays one
//! LU but still multiplies by the dense blocks (tab2: RGF/WF 0.79–0.90 in
//! flops). WF was ahead by 10–20 % until RGF took the couplings on their
//! supports, and should be again once Thomas does.
//!
//! A second table times one energy point *from the contacts on* on
//! 64-slab wires — where the engine, not the contacts, is the wall — with
//! the serial recursion (`rgf_point`) and the serial elimination tree
//! (`selinv_point`). It is the record behind ROADMAP 4(d)'s verdict on a
//! second spatial level over the tree: SelInv/RGF is the rank count ×
//! rank efficiency a distributed tree would need just to tie the
//! recursion.

use omen_bench::{print_table, sample_secs, timed};
use omen_core::ballistic::{ballistic_solve, Engine};
use omen_core::{Bias, ContactTable, TransistorSpec};
use omen_lattice::{Crystal, Device};
use omen_num::A_SI;
use omen_tb::{DeviceHamiltonian, Material, TbParams};

/// One energy point on 64-slab wires, engine only; best of five.
fn long_wire_rows() -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let readme = Material::SingleBand { t_mev: 1000 };
    for (name, material, w, e) in [
        ("README wire", readme, 1.0, -3.2),
        ("sp3s* wire", Material::SiSp3s, 0.8, 1.8),
    ] {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 64, w, w);
        let ham = DeviceHamiltonian::new(&dev, TbParams::of(material), false);
        let h = ham.assemble(&vec![0.0; dev.num_atoms()], 0.0);
        let lead = ham.lead_blocks(0.0, 0.0);
        let lead = (&lead.0, &lead.1);
        let (sl, sr) = omen_negf::local_contacts(e, 2e-6, lead, lead).expect("lead decimation");
        let rgf = || omen_negf::rgf_point(e, 2e-6, &h, &sl, &sr).expect("RGF point");
        let tree = || omen_negf::selinv_point(e, 2e-6, &h, &sl, &sr).expect("SelInv point");
        let (t_rgf, t_tree) = (rgf().transmission, tree().transmission);
        assert!(
            (t_rgf - t_tree).abs() < 1e-6 * (1.0 + t_rgf),
            "{name}: engines must agree: {t_rgf} vs {t_tree}"
        );
        let (_, rgf_s) = sample_secs(5, 0.0, rgf);
        let (_, tree_s) = sample_secs(5, 0.0, tree);
        rows.push(vec![
            name.to_string(),
            format!("{}", h.block_size(1)),
            format!("{:.1}", rgf_s * 1e3),
            format!("{:.1}", tree_s * 1e3),
            format!("{:.1}", tree_s / rgf_s),
        ]);
    }
    rows
}

fn main() {
    let bias = Bias {
        v_gate: 0.0,
        v_ds: 0.2,
        mu_source: -3.3,
    };
    let mut rows = Vec::new();
    for &w in &[0.8f64, 1.2, 1.6, 2.0] {
        let mut spec = TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, w, 8);
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let v = vec![0.0; tr.device.num_atoms()];
        let block = tr.hamiltonian().dim() / tr.device.num_slabs;

        // Each engine's solve pays for its own leads: a fresh table apiece.
        let solve = |engine| {
            let mut table = ContactTable::default();
            ballistic_solve(&tr, &v, &bias, engine, 31, &[(0.0, 1.0)], &mut table)
        };
        let (r_rgf, t_rgf) = timed(|| solve(Engine::Rgf));
        let (r_wf, t_wf) = timed(|| solve(Engine::WfThomas));
        let (_, t_bcr) = timed(|| solve(Engine::WfBcr));
        assert!(
            (r_rgf.current_ua - r_wf.current_ua).abs() < 1e-3 * r_rgf.current_ua.abs().max(1e-9),
            "engines must agree: {} vs {}",
            r_rgf.current_ua,
            r_wf.current_ua
        );
        rows.push(vec![
            format!("{w:.1}×{w:.1}"),
            format!("{block}"),
            format!("{t_rgf:.3}"),
            format!("{t_wf:.3}"),
            format!("{t_bcr:.3}"),
            format!("{:.2}", t_rgf / t_wf),
        ]);
    }
    print_table(
        "tab3: wall-clock per ballistic bias point (31 energies)",
        &[
            "cross (nm)",
            "block n",
            "RGF (s)",
            "WF-Thomas (s)",
            "WF-BCR (s)",
            "RGF/WF",
        ],
        &rows,
    );
    println!(
        "\nexpected shape: RGF/WF ≈ 0.85–1.15 (shared contacts dominate these 8-slab \
         devices; RGF takes the slab couplings on their supports, block-Thomas does not \
         yet); BCR carries its 1.8× counted solve-only premium over Thomas (tab2_flops) \
         sequentially (it buys parallelism, not serial speed)."
    );

    print_table(
        "tab3b: one energy point from the contacts on, 64 slabs (best of 5)",
        &["device", "block n", "RGF (ms)", "SelInv (ms)", "SelInv/RGF"],
        &long_wire_rows(),
    );
    println!(
        "\nexpected shape: SelInv/RGF ≈ 10 (AVX2) to 16 (scalar) — the elimination tree \
         multiplies by dense couplings where the recursion takes them on their supports, so \
         a rank-parallel tree would need that many perfectly efficient ranks to tie serial \
         RGF, while the same ranks split over energies scale linearly."
    );
}
