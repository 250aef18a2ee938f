//! High-level device specifications compiled to simulator structures.

use omen_lattice::{Crystal, Device, DeviceKind, Vec3};
use omen_num::KB;
use omen_poisson::{CellKind, Grid3, PoissonProblem, Semiconductor};
use omen_tb::{Material, TbParams};

/// Cross-section family of a transistor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Geometry {
    /// Gate-all-around nanowire with a `w × h` nm² cross-section.
    Nanowire {
        /// Width (y) in nm.
        w: f64,
        /// Height (z) in nm.
        h: f64,
    },
    /// Ultra-thin body: periodic in y (`cells` lattice periods), `h` nm thick.
    Utb {
        /// Transverse periods.
        cells: usize,
        /// Body thickness in nm.
        h: f64,
    },
    /// Armchair graphene nanoribbon with `n_dimer` dimer lines.
    Ribbon {
        /// Dimer-line count (width ≈ (n−1)·√3/2·a_cc).
        n_dimer: usize,
    },
}

/// A complete transistor description.
#[derive(Debug, Clone)]
pub struct TransistorSpec {
    /// Tight-binding material/basis.
    pub material: Material,
    /// Cross-section geometry.
    pub geometry: Geometry,
    /// Total device length in slabs (principal layers).
    pub num_slabs: usize,
    /// Source extension length in slabs.
    pub source_slabs: usize,
    /// Drain extension length in slabs.
    pub drain_slabs: usize,
    /// Source/drain net doping (e/nm³; positive = n-type donors).
    pub doping_sd: f64,
    /// Channel net doping (e/nm³).
    pub doping_channel: f64,
    /// For TFETs: flip the source doping sign (p-i-n instead of n-i-n).
    pub pin_junction: bool,
    /// Gate oxide thickness (nm).
    pub t_ox: f64,
    /// Oxide relative permittivity.
    pub eps_ox: f64,
    /// Gate workfunction offset added to the applied gate voltage (V).
    pub gate_offset: f64,
    /// Include spin-orbit coupling.
    pub spin_orbit: bool,
    /// Temperature (K).
    pub temperature: f64,
    /// Poisson grid spacing (nm).
    pub grid_h: f64,
}

impl TransistorSpec {
    /// A small gate-all-around Si nanowire nMOSFET with sensible defaults.
    pub fn si_nanowire_nmos(material: Material, w: f64, num_slabs: usize) -> TransistorSpec {
        TransistorSpec {
            material,
            geometry: Geometry::Nanowire { w, h: w },
            num_slabs,
            source_slabs: num_slabs / 4,
            drain_slabs: num_slabs / 4,
            doping_sd: 1e-3, // 1e20 cm^-3 would be 0.1; 1e-3 nm^-3 = 1e18 cm^-3... see docs
            doping_channel: 0.0,
            pin_junction: false,
            t_ox: 0.6,
            eps_ox: 3.9,
            gate_offset: 0.0,
            spin_orbit: false,
            temperature: 300.0,
            grid_h: 0.3,
        }
    }

    /// An armchair graphene-nanoribbon TFET (p-i-n).
    pub fn gnr_tfet(n_dimer: usize, num_slabs: usize) -> TransistorSpec {
        TransistorSpec {
            material: Material::GraphenePz,
            geometry: Geometry::Ribbon { n_dimer },
            num_slabs,
            source_slabs: num_slabs / 3,
            drain_slabs: num_slabs / 3,
            doping_sd: 1.0, // interpreted per-area for ribbons; see build()
            doping_channel: 0.0,
            pin_junction: true,
            t_ox: 0.8,
            eps_ox: 3.9,
            gate_offset: 0.0,
            spin_orbit: false,
            temperature: 300.0,
            grid_h: 0.3,
        }
    }

    /// Compiles the specification into simulator structures.
    pub fn build(&self) -> NanoTransistor {
        let params = TbParams::of(self.material);
        let crystal = match self.material {
            Material::GraphenePz => Crystal::Honeycomb { acc: params.a },
            _ => Crystal::Zincblende { a: params.a },
        };
        let device = match self.geometry {
            Geometry::Nanowire { w, h } => Device::nanowire(crystal, self.num_slabs, w, h),
            Geometry::Utb { cells, h } => Device::utb(crystal, self.num_slabs, cells, h),
            Geometry::Ribbon { n_dimer } => Device::ribbon_agnr(params.a, self.num_slabs, n_dimer),
        };

        // Per-atom ionized doping (e/atom): convert volume doping using the
        // atomic density of the device core.
        let offsets = device.slab_offsets();
        let atoms_per_slab = offsets[1] as f64;
        let slab_volume = match self.geometry {
            Geometry::Nanowire { w, h } => device.slab_width * w * h,
            Geometry::Utb { h, .. } => device.slab_width * device.cross.0 * h,
            // Ribbons: treat as 0.3 nm-thick sheets for doping conversion.
            Geometry::Ribbon { .. } => device.slab_width * (device.cross.0 + 0.1) * 0.3,
        };
        let dop_atom_sd = self.doping_sd * slab_volume / atoms_per_slab;
        let dop_atom_ch = self.doping_channel * slab_volume / atoms_per_slab;
        let lg_lo = self.source_slabs;
        let lg_hi = self.num_slabs - self.drain_slabs;
        let doping_per_atom: Vec<f64> = device
            .atoms
            .iter()
            .map(|a| {
                if a.slab < lg_lo {
                    if self.pin_junction {
                        -dop_atom_sd
                    } else {
                        dop_atom_sd
                    }
                } else if a.slab >= lg_hi {
                    dop_atom_sd
                } else {
                    dop_atom_ch
                }
            })
            .collect();

        let poisson = self.build_poisson(&device);
        let kt = KB * self.temperature;
        let e_midgap = midgap_of(self.material);
        let atom_positions: Vec<Vec3> = device.atoms.iter().map(|a| a.pos).collect();

        NanoTransistor {
            spec: self.clone(),
            device,
            params,
            doping_per_atom,
            poisson,
            atom_positions,
            e_midgap,
            kt,
        }
    }

    /// Builds the electrostatic problem: semiconductor core, oxide shell,
    /// wrap-around gate over the channel, source/drain end electrodes.
    fn build_poisson(&self, device: &Device) -> PoissonProblem {
        let t = self.t_ox;
        let lx = device.length();
        let (cy0, cy1) = device.carve_y;
        let (cz0, cz1) = match device.kind {
            DeviceKind::Ribbon => (-0.3, 0.3),
            _ => device.carve_z,
        };
        let origin = Vec3::new(0.0, cy0 - t, cz0 - t);
        let extents = Vec3::new(lx, (cy1 - cy0) + 2.0 * t, (cz1 - cz0) + 2.0 * t);
        let grid = Grid3::covering(origin, extents, self.grid_h);

        let lg_lo = self.source_slabs as f64 * device.slab_width;
        let lg_hi = (self.num_slabs - self.drain_slabs) as f64 * device.slab_width;
        let wrap_gate_in_y = !matches!(device.kind, DeviceKind::Utb { .. });

        let mut cells = Vec::with_capacity(grid.len());
        for n in 0..grid.len() {
            let (i, j, k) = grid.coords(n);
            let p = grid.pos(i, j, k);
            let inside_semi =
                p.y >= cy0 - 1e-9 && p.y <= cy1 + 1e-9 && p.z >= cz0 - 1e-9 && p.z <= cz1 + 1e-9;
            let on_outer_y = j == 0 || j == grid.ny - 1;
            let on_outer_z = k == 0 || k == grid.nz - 1;
            let over_channel = p.x >= lg_lo && p.x <= lg_hi;
            let kind = if over_channel && ((wrap_gate_in_y && on_outer_y) || on_outer_z) {
                // Gate electrode; actual voltage applied per bias point.
                CellKind::Dirichlet { v: 0.0 }
            } else if inside_semi {
                CellKind::Semiconductor { doping: 0.0 } // doping deposited per atom
            } else {
                CellKind::Oxide { eps_r: self.eps_ox }
            };
            cells.push(kind);
        }
        PoissonProblem::new(grid, cells, Semiconductor::silicon())
    }
}

/// Reference midgap energy (eV) separating electron/hole windows for charge
/// classification.
pub fn midgap_of(material: Material) -> f64 {
    match material {
        Material::GraphenePz => 0.0,
        // The single validation band is a conduction band: everything in it
        // counts as electrons.
        Material::SingleBand { .. } => -100.0,
        // Vogl-type parameterizations put the VBM at 0; bulk gaps ~1.1-1.5.
        Material::SiSp3s | Material::SiSp3d5s => 0.56,
        Material::GeSp3s => 0.35,
        Material::GaAsSp3s => 0.75,
        Material::InAsSp3s => 0.2,
    }
}

/// A compiled transistor ready for transport/Poisson solves.
pub struct NanoTransistor {
    /// Originating specification.
    pub spec: TransistorSpec,
    /// Atomistic geometry.
    pub device: Device,
    /// Tight-binding parameterization.
    pub params: TbParams,
    /// Ionized doping charge per atom (e; + donors).
    pub doping_per_atom: Vec<f64>,
    /// Electrostatic problem (gate voltages applied per bias).
    pub poisson: PoissonProblem,
    /// Atom positions (cache for grid transfer).
    pub atom_positions: Vec<Vec3>,
    /// Energy separating electron from hole states at zero potential (eV).
    pub e_midgap: f64,
    /// Thermal energy (eV).
    pub kt: f64,
}

impl NanoTransistor {
    /// The tight-binding Hamiltonian factory bound to this device.
    pub fn hamiltonian(&self) -> omen_tb::DeviceHamiltonian<'_> {
        omen_tb::DeviceHamiltonian::new(&self.device, self.params, self.spec.spin_orbit)
    }

    /// Spin degeneracy of the transport problem (2 unless spin is explicit).
    pub fn spin_degeneracy(&self) -> f64 {
        if self.spec.spin_orbit {
            1.0
        } else {
            2.0
        }
    }

    /// Applies a gate voltage to all gate (Dirichlet) nodes; source/drain
    /// electrode behavior comes from the lead boundary conditions.
    pub fn set_gate(&mut self, v_gate: f64) {
        let vg = v_gate + self.spec.gate_offset;
        for c in &mut self.poisson.cells {
            if let CellKind::Dirichlet { v } = c {
                *v = vg;
            }
        }
    }

    /// Mean electrostatic potential over the atoms of slab `s` — the
    /// flat-band potential handed to the lead of that side.
    pub fn slab_mean_potential(&self, v_atoms: &[f64], s: usize) -> f64 {
        let offsets = self.device.slab_offsets();
        let (lo, hi) = (offsets[s], offsets[s + 1]);
        v_atoms[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }
}

/// One bias point. Energies are electron energies: `μ_D = μ_S − V_DS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bias {
    /// Gate voltage (V).
    pub v_gate: f64,
    /// Drain-source voltage (V).
    pub v_ds: f64,
    /// Source Fermi level (eV) in the device energy reference.
    pub mu_source: f64,
}

impl Bias {
    /// Drain Fermi level (eV).
    pub fn mu_drain(&self) -> f64 {
        self.mu_source - self.v_ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> TransistorSpec {
        TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8)
    }

    #[test]
    fn build_produces_consistent_structures() {
        let tr = small_spec().build();
        assert_eq!(tr.doping_per_atom.len(), tr.device.num_atoms());
        assert_eq!(tr.atom_positions.len(), tr.device.num_atoms());
        assert!(!tr.poisson.grid.is_empty());
        // Doping profile: n-n-n with zero channel.
        let offsets = tr.device.slab_offsets();
        let first = tr.doping_per_atom[0];
        assert!(first > 0.0);
        let mid_atom = offsets[4];
        assert_eq!(tr.doping_per_atom[mid_atom], 0.0);
        let last = *tr.doping_per_atom.last().unwrap();
        assert!((first - last).abs() < 1e-15);
    }

    #[test]
    fn pin_junction_flips_source() {
        let mut spec = small_spec();
        spec.pin_junction = true;
        let tr = spec.build();
        assert!(tr.doping_per_atom[0] < 0.0, "p-type source");
        assert!(*tr.doping_per_atom.last().unwrap() > 0.0, "n-type drain");
    }

    #[test]
    fn gate_nodes_exist_only_over_channel() {
        let tr = small_spec().build();
        let g = &tr.poisson.grid;
        let lg_lo = tr.spec.source_slabs as f64 * tr.device.slab_width;
        let lg_hi = (tr.spec.num_slabs - tr.spec.drain_slabs) as f64 * tr.device.slab_width;
        let mut gate_nodes = 0;
        for n in 0..g.len() {
            if matches!(tr.poisson.cells[n], CellKind::Dirichlet { .. }) {
                gate_nodes += 1;
                let (i, j, k) = g.coords(n);
                let p = g.pos(i, j, k);
                assert!(
                    p.x >= lg_lo - 1e-9 && p.x <= lg_hi + 1e-9,
                    "gate node off-channel"
                );
            }
        }
        assert!(gate_nodes > 0, "must have gate electrode nodes");
    }

    #[test]
    fn set_gate_updates_all_electrodes() {
        let mut tr = small_spec().build();
        tr.set_gate(0.7);
        for c in &tr.poisson.cells {
            if let CellKind::Dirichlet { v } = c {
                assert_eq!(*v, 0.7);
            }
        }
    }

    #[test]
    fn bias_fermi_levels() {
        let b = Bias {
            v_gate: 0.5,
            v_ds: 0.3,
            mu_source: 0.1,
        };
        assert!((b.mu_drain() - (-0.2)).abs() < 1e-15);
    }

    #[test]
    fn gnr_tfet_spec_builds() {
        let tr = TransistorSpec::gnr_tfet(7, 9).build();
        assert!(tr.device.num_atoms() > 0);
        assert!(tr.doping_per_atom[0] < 0.0);
        assert_eq!(tr.e_midgap, 0.0);
    }

    #[test]
    fn room_temperature_kt() {
        let tr = small_spec().build();
        assert!((tr.kt - omen_num::KT_ROOM).abs() < 1e-12);
    }
}
