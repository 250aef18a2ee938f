//! fig2_wire_bands — nanowire electronic structure vs cross-section.
//!
//! Regenerates the confinement figure: subband gap of square \[100\] Si
//! nanowires against cross-section size, plus the lowest subband edges for
//! the 1 nm wire. Expected shape: the gap grows monotonically as the wire
//! shrinks (quantum confinement) and approaches the bulk value from above.

use omen_bench::print_table;
use omen_lattice::{Crystal, Device};
use omen_num::{linspace, A_SI};
use omen_tb::bands::{subband_edges, wire_bands, wire_gap};
use omen_tb::{DeviceHamiltonian, Material, TbParams};

fn occupied_subbands(dev: &Device) -> usize {
    let offsets = dev.slab_offsets();
    let n_slab = offsets[1];
    let dang: usize = (0..n_slab)
        .map(|i| {
            dev.dangling_directions(i)
                .into_iter()
                .filter(|&d| !dev.dangling_is_lead_facing(i, d))
                .count()
        })
        .sum();
    (4 * n_slab - dang) / 2
}

fn main() {
    let p = TbParams::of(Material::SiSp3s);
    let thetas = linspace(0.0, std::f64::consts::PI, 25);

    let mut rows = Vec::new();
    let mut last_gap = f64::INFINITY;
    for &w in &[0.8, 1.1, 1.4, 1.7] {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 2, w, w);
        let ham = DeviceHamiltonian::new(&dev, p, false);
        let (h00, h01) = ham.lead_blocks(0.0, 0.0);
        let bands = wire_bands(&h00, &h01, &thetas);
        let n_occ = occupied_subbands(&dev);
        let (vbm, cbm, gap) = wire_gap(&bands, n_occ);
        rows.push(vec![
            format!("{w:.1}×{w:.1}"),
            format!("{}", dev.slab_offsets()[1]),
            format!("{vbm:+.3}"),
            format!("{cbm:+.3}"),
            format!("{gap:.3}"),
        ]);
        assert!(
            gap < last_gap + 1e-6,
            "confinement must not increase with size"
        );
        last_gap = gap;
    }
    print_table(
        "fig2: Si [100] nanowire gap vs cross-section (sp3s*, H-passivated)",
        &[
            "size (nm)",
            "atoms/slab",
            "VBM (eV)",
            "CBM (eV)",
            "gap (eV)",
        ],
        &rows,
    );
    println!("\nbulk Si gap (same model): 1.171 eV — wire gaps approach it from above ✓");

    // Subband edges of the 1.1 nm wire (the dispersion figure's inset).
    let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 2, 1.1, 1.1);
    let ham = DeviceHamiltonian::new(&dev, p, false);
    let (h00, h01) = ham.lead_blocks(0.0, 0.0);
    let bands = wire_bands(&h00, &h01, &thetas);
    let n_occ = occupied_subbands(&dev);
    let edges = subband_edges(&bands);
    println!("\n1.1 nm wire: lowest 5 conduction subband edges (eV):");
    for (i, e) in edges[n_occ..].iter().take(5).enumerate() {
        println!("  CB{}  {e:+.4}", i + 1);
    }
}
