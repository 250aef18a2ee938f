//! Device Hamiltonian assembly.
//!
//! Maps a [`Device`] geometry plus a [`TbParams`] parameterization onto the
//! slab-ordered block-tridiagonal Hamiltonian consumed by the transport
//! engines. Every term is pushed straight into its slab block through a
//! [`SlabAssembly`], in device order (onsite terms atom by atom, then the
//! bonds, then the potential), so the whole device and its two-slab lead
//! prefix sum each entry in the same order. Handles:
//!
//! * onsite orbital energies with an arbitrary per-atom potential shift
//!   (the electrostatic potential from `omen-poisson`);
//! * optional onsite spin-orbit coupling (basis doubles; hopping blocks are
//!   spin diagonal);
//! * hydrogen-like passivation: every dangling sp³ hybrid that does *not*
//!   point into a contact lead is shifted up by `passivation_shift`,
//!   sweeping surface states out of the transport window;
//! * transverse Bloch phases `e^{i k_y L w}` on bonds wrapping the periodic
//!   boundary of ultra-thin-body devices;
//! * Harrison strain scaling `V(d) = V(d₀)(d₀/d)^η` for bond-length
//!   deviations.
//!
//! **`H(V) = H₀ ⊕ V`, bit for bit.** The potential is the last push on
//! each diagonal entry, after every other term (bonds included), so an
//! entry of `H(V)` is the fold of `H₀ = H(V = 0)` with `V_r` added once at
//! the end: `h₀ᵣᵣ + V_r` where a push reached `h₀ᵣᵣ`, `V_r` alone where
//! none did, and `h₀ᵣᵣ` untouched where `V_r` is an exact zero (a zero
//! push is dropped). The couplings do not depend on `V` at all. That is
//! what lets a curve assemble `H₀` once per momentum and let the engines
//! add the potential where they form `A` (`omen_negf::rgf::a_diagonal`),
//! with the bits of this assembly.

use crate::alloy::AlloyModel;
use crate::orbitals::Basis;
use crate::params::TbParams;
use crate::slater_koster::sk_element;
use crate::spin_orbit::soc_p_block;
use omen_lattice::{Device, DeviceKind};
use omen_linalg::ZMat;
use omen_num::c64;
use omen_sparse::{BlockTridiag, DiagBlock, SlabAssembly};
use std::cell::Cell;

thread_local! {
    /// Device Hamiltonians [`DeviceHamiltonian::assemble`] built on this
    /// thread.
    static ASSEMBLED: Cell<usize> = const { Cell::new(0) };
}

/// Device Hamiltonians [`DeviceHamiltonian::assemble`] has built on the
/// calling thread: the witness that a curve assembles `H` once per
/// momentum (lead blocks are not counted).
pub fn assembled() -> usize {
    ASSEMBLED.with(Cell::get)
}

/// A device geometry bound to a tight-binding parameterization.
pub struct DeviceHamiltonian<'d> {
    device: &'d Device,
    params: TbParams,
    spin_orbit: bool,
    alloy: Option<AlloyModel>,
}

impl<'d> DeviceHamiltonian<'d> {
    /// Binds `params` to `device`. `spin_orbit` doubles the basis and adds
    /// the onsite `λ L·S` term in the p shell.
    pub fn new(device: &'d Device, params: TbParams, spin_orbit: bool) -> Self {
        if spin_orbit {
            assert!(
                params.basis == Basis::Sp3s || params.basis == Basis::Sp3d5s,
                "spin-orbit requires a p-shell basis"
            );
        }
        DeviceHamiltonian {
            device,
            params,
            spin_orbit,
            alloy: None,
        }
    }

    /// Binds a random-alloy species map: atom-resolved onsite parameters and
    /// bond-resolved two-center integrals (same-species bonds use that
    /// species' integrals, mixed bonds the arithmetic mean). `alloy.params_a`
    /// doubles as the lead parameterization (terminal slabs are pure A by
    /// construction of [`AlloyModel::random_channel`]).
    pub fn new_alloy(device: &'d Device, alloy: AlloyModel, spin_orbit: bool) -> Self {
        assert_eq!(
            alloy.params_a.basis, alloy.params_b.basis,
            "alloy species must share an orbital basis"
        );
        assert_eq!(
            alloy.is_b.len(),
            device.num_atoms(),
            "one species flag per atom"
        );
        let params = alloy.params_a;
        let mut h = Self::new(device, params, spin_orbit);
        h.alloy = Some(alloy);
        h
    }

    /// Onsite/bond parameterization of atom `i`.
    fn params_for(&self, i: usize) -> &TbParams {
        match &self.alloy {
            Some(m) => m.params_of(i),
            None => &self.params,
        }
    }

    /// The bound device.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// The bound parameters.
    pub fn params(&self) -> &TbParams {
        &self.params
    }

    /// 2 with spin-orbit, 1 without.
    pub fn spin_factor(&self) -> usize {
        if self.spin_orbit {
            2
        } else {
            1
        }
    }

    /// Matrix rows per atom.
    pub fn orbitals_per_atom(&self) -> usize {
        self.params.basis.count() * self.spin_factor()
    }

    /// Total Hamiltonian dimension.
    pub fn dim(&self) -> usize {
        self.device.num_atoms() * self.orbitals_per_atom()
    }

    /// Orbital-row offsets of each slab (length `num_slabs + 1`).
    pub fn slab_orbital_offsets(&self) -> Vec<usize> {
        let per = self.orbitals_per_atom();
        self.device
            .slab_offsets()
            .iter()
            .map(|&a| a * per)
            .collect()
    }

    /// Assembles the block-tridiagonal Hamiltonian.
    ///
    /// `potential[i]` is the electrostatic energy shift (eV) of atom `i`
    /// (applied to all its orbitals); `ky` is the transverse Bloch vector in
    /// rad/nm (ignored unless the device is periodic). The result is
    /// `assemble(0, ky)` with `potential[i]` added to each diagonal entry of
    /// atom `i`'s orbitals, bit for bit (module docs: `H(V) = H₀ ⊕ V`).
    pub fn assemble(&self, potential: &[f64], ky: f64) -> BlockTridiag {
        assert_eq!(
            potential.len(),
            self.device.num_atoms(),
            "one potential per atom"
        );
        ASSEMBLED.with(|a| a.set(a.get() + 1));
        let h = self
            .assemble_slabs(potential, ky, &self.slab_orbital_offsets())
            .finish()
            .expect("nearest-neighbor TB assembly stays inside the slab partition");
        debug_assert!(h.is_hermitian(1e-12), "assembled H must be Hermitian");
        h
    }

    /// Lead principal-layer blocks `(H00, H01)` for a contact held at
    /// `contact_potential`, where `H01` couples a lead cell to the next cell
    /// toward +x. Both contacts share these blocks by slab congruence; the
    /// left lead uses them directly and the right lead uses the adjoint
    /// coupling.
    ///
    /// These are the first diagonal and super-diagonal blocks of
    /// [`Self::assemble`] at a uniform potential, bit for bit, assembled
    /// from the first two slabs alone; so `lead_blocks(U)` is
    /// `lead_blocks(0)` with `U` added to each diagonal entry of `H00`
    /// (`H₀ ⊕ U`), bit for bit, and `H01` does not depend on `U`.
    pub fn lead_blocks(&self, contact_potential: f64, ky: f64) -> (ZMat, ZMat) {
        let offsets = &self.slab_orbital_offsets()[..3];
        let pot = vec![contact_potential; offsets[2] / self.orbitals_per_atom()];
        let bt = self
            .assemble_slabs(&pot, ky, offsets)
            .finish()
            .expect("nearest-neighbor TB assembly stays inside the slab partition");
        (bt.diag[0].to_dense(), bt.upper_dense(0))
    }

    /// The terms of the leading `potential.len()` atoms, pushed into the
    /// slabs `offsets` covers.
    fn assemble_slabs(&self, potential: &[f64], ky: f64, offsets: &[usize]) -> SlabAssembly {
        let mut asm = SlabAssembly::new(offsets);
        self.for_each_term(potential, ky, |i, j, v| asm.push(i, j, v));
        asm
    }

    /// Calls `push(row, col, value)` for every term [`Self::assemble`]
    /// folds, in its order: the leading `potential.len()` atoms' onsite
    /// terms (atoms are stored slab by slab), then the bonds with both ends
    /// among them, in device order, then each of those atoms' potential on
    /// its orbitals' diagonal — so a slab prefix holds, for its own
    /// entries, the pushes of the whole device in the same order, and the
    /// potential is the last push on every entry it reaches.
    pub fn for_each_term(
        &self,
        potential: &[f64],
        ky: f64,
        mut push: impl FnMut(usize, usize, c64),
    ) {
        let dev = self.device;
        let p = &self.params;
        let basis = p.basis;
        let norb = basis.count();
        let spin = self.spin_factor();
        let per = norb * spin;
        let n_atoms = potential.len();

        let period_y = match dev.kind {
            DeviceKind::Utb { period_y } => Some(period_y),
            _ => None,
        };

        // --- Onsite terms -------------------------------------------------
        for (ai, atom) in dev.atoms[..n_atoms].iter().enumerate() {
            let p = self.params_for(ai);
            let sp = p.species(atom.sub);
            let base = ai * per;
            for (oi, orb) in basis.orbitals().iter().enumerate() {
                let e = match orb.l() {
                    0 => {
                        if *orb == crate::orbitals::Orbital::Sstar {
                            sp.e_s2
                        } else {
                            sp.e_s
                        }
                    }
                    1 => sp.e_p,
                    _ => sp.e_d,
                };
                for s in 0..spin {
                    let r = base + oi * spin + s;
                    push(r, r, c64::real(e));
                }
            }
            // Spin-orbit in the p shell.
            if self.spin_orbit && sp.so_lambda != 0.0 {
                if let Some(px) = basis.index_of(crate::orbitals::Orbital::Px) {
                    let soc = soc_p_block(sp.so_lambda);
                    // soc basis: (px↑, px↓, py↑, py↓, pz↑, pz↓) matches our
                    // orbital-major/spin-inner layout starting at px.
                    for a in 0..6 {
                        for b in 0..6 {
                            if soc[(a, b)] != c64::ZERO {
                                push(base + px * spin + a, base + px * spin + b, soc[(a, b)]);
                            }
                        }
                    }
                }
            }
            // Passivation of dangling hybrids (sp3-type bases only).
            if p.passivation_shift != 0.0 && basis.index_of(crate::orbitals::Orbital::Px).is_some()
            {
                let s_idx = basis
                    .index_of(crate::orbitals::Orbital::S)
                    .expect("sp3 basis has s");
                let px = basis.index_of(crate::orbitals::Orbital::Px).unwrap();
                for dir in dev.dangling_directions(ai) {
                    if dev.dangling_is_lead_facing(ai, dir) {
                        continue;
                    }
                    let (l, m, n) = dir.direction_cosines();
                    // |h⟩ = ½(|s⟩ + √3(l|px⟩ + m|py⟩ + n|pz⟩)) on this atom.
                    let s3 = 3.0_f64.sqrt();
                    let coeff = [
                        (s_idx, 0.5),
                        (px, 0.5 * s3 * l),
                        (px + 1, 0.5 * s3 * m),
                        (px + 2, 0.5 * s3 * n),
                    ];
                    for &(oa, ca) in &coeff {
                        for &(ob, cb) in &coeff {
                            let v = p.passivation_shift * ca * cb;
                            if v == 0.0 {
                                continue;
                            }
                            for s in 0..spin {
                                push(base + oa * spin + s, base + ob * spin + s, c64::real(v));
                            }
                        }
                    }
                }
            }
        }

        // --- Hopping terms ------------------------------------------------
        for bond in &dev.bonds {
            let (ai, aj) = (bond.i, bond.j);
            if ai >= n_atoms || aj >= n_atoms {
                continue;
            }
            let (tc, d0) = match &self.alloy {
                Some(m) => (
                    m.bond_two_center(ai, aj, dev.atoms[ai].sub, dev.atoms[aj].sub),
                    m.bond_d0(ai, aj),
                ),
                None => (
                    p.two_center(dev.atoms[ai].sub, dev.atoms[aj].sub),
                    dev.crystal.bond_length(),
                ),
            };
            let cos = bond.delta.direction_cosines();
            let scale = if p.strain_eta != 0.0 {
                (d0 / bond.delta.norm()).powf(p.strain_eta)
            } else {
                1.0
            };
            let phase = match (period_y, bond.wrap_y) {
                (Some(l), w) if w != 0 => c64::from_polar(1.0, ky * l * w as f64),
                _ => c64::ONE,
            };
            let (bi, bj) = (ai * per, aj * per);
            for (oi, orb_i) in basis.orbitals().iter().enumerate() {
                for (oj, orb_j) in basis.orbitals().iter().enumerate() {
                    let v = sk_element(*orb_i, *orb_j, cos, &tc) * scale;
                    if v == 0.0 {
                        continue;
                    }
                    let h = phase.scale(v);
                    for s in 0..spin {
                        let (r, c) = (bi + oi * spin + s, bj + oj * spin + s);
                        push(r, c, h);
                        push(c, r, h.conj());
                    }
                }
            }
        }

        // --- Potential, last on every diagonal entry ----------------------
        for (ai, &v) in potential.iter().enumerate() {
            for r in ai * per..(ai + 1) * per {
                push(r, r, c64::real(v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Material;
    use omen_lattice::Crystal;
    use omen_num::A_SI;

    fn si_wire(slabs: usize, w: f64) -> Device {
        Device::nanowire(Crystal::Zincblende { a: A_SI }, slabs, w, w)
    }

    #[test]
    fn dimensions_and_offsets() {
        let dev = si_wire(3, 1.0);
        let h = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), false);
        assert_eq!(h.orbitals_per_atom(), 5);
        assert_eq!(h.dim(), 5 * dev.num_atoms());
        let off = h.slab_orbital_offsets();
        assert_eq!(off.len(), 4);
        assert_eq!(off[3], h.dim());
    }

    #[test]
    fn assembled_hamiltonian_is_hermitian_block_tridiagonal() {
        let dev = si_wire(3, 1.0);
        let h = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), false);
        // Random-ish potential profile.
        let pot: Vec<f64> = (0..dev.num_atoms())
            .map(|i| 0.01 * (i % 7) as f64)
            .collect();
        let bt = h.assemble(&pot, 0.0);
        assert_eq!(bt.num_blocks(), 3);
        assert!(bt.is_hermitian(1e-12));
        // Lead congruence: diag blocks of slabs 0 and 1 agree under uniform
        // potential.
        let bt0 = h.assemble(&vec![0.0; dev.num_atoms()], 0.0);
        assert!((&bt0.diag[0].to_dense() - &bt0.diag[1].to_dense()).max_abs() < 1e-12);
        assert!((&bt0.upper_dense(0) - &bt0.upper_dense(1)).max_abs() < 1e-12);
    }

    #[test]
    fn potential_shifts_diagonal_only() {
        let dev = si_wire(2, 1.0);
        let h = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), false);
        let bt0 = h.assemble(&vec![0.0; dev.num_atoms()], 0.0);
        let bt1 = h.assemble(&vec![0.25; dev.num_atoms()], 0.0);
        let d = &bt1.diag[0].to_dense() - &bt0.diag[0].to_dense();
        // Uniform shift: difference is 0.25·I.
        assert!((&d - &ZMat::eye(d.nrows()).scaled(c64::real(0.25))).max_abs() < 1e-12);
        assert!((&bt1.upper_dense(0) - &bt0.upper_dense(0)).max_abs() < 1e-14);
    }

    #[test]
    fn spin_orbit_doubles_and_stays_hermitian() {
        let dev = si_wire(2, 1.0);
        let h0 = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), false);
        let h1 = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), true);
        assert_eq!(h1.dim(), 2 * h0.dim());
        let bt = h1.assemble(&vec![0.0; dev.num_atoms()], 0.0);
        assert!(bt.is_hermitian(1e-12));
    }

    #[test]
    fn passivation_projector_is_positive_shift() {
        // The passivated Hamiltonian minus the bare one must be PSD
        // (eigenvalues ≥ 0): it is a sum of +30·|h⟩⟨h| projectors.
        let dev = si_wire(2, 1.0);
        let mut p_on = TbParams::of(Material::SiSp3s);
        let mut p_off = p_on;
        p_off.passivation_shift = 0.0;
        p_on.passivation_shift = 30.0;
        let pot = vec![0.0; dev.num_atoms()];
        let on = DeviceHamiltonian::new(&dev, p_on, false)
            .assemble(&pot, 0.0)
            .to_dense();
        let off = DeviceHamiltonian::new(&dev, p_off, false)
            .assemble(&pot, 0.0)
            .to_dense();
        let diff = &on - &off;
        let vals = omen_linalg::eigh_values(&diff);
        assert!(
            vals[0] > -1e-9,
            "passivation must be PSD, min eig {}",
            vals[0]
        );
        assert!(
            *vals.last().unwrap() > 1.0,
            "surface hybrids must be shifted substantially"
        );
    }

    #[test]
    fn utb_bloch_phase_hermitian_and_ky_periodic() {
        let dev = Device::utb(Crystal::Zincblende { a: A_SI }, 2, 1, 1.0);
        let h = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), false);
        let pot = vec![0.0; dev.num_atoms()];
        let ky = 1.3;
        let bt = h.assemble(&pot, ky);
        assert!(bt.is_hermitian(1e-12));
        // H(ky + 2π/L) == H(ky).
        let period = match dev.kind {
            DeviceKind::Utb { period_y } => period_y,
            _ => unreachable!(),
        };
        let bt2 = h.assemble(&pot, ky + 2.0 * std::f64::consts::PI / period);
        assert!((&bt.diag[0].to_dense() - &bt2.diag[0].to_dense()).max_abs() < 1e-10);
        assert!((&bt.upper_dense(0) - &bt2.upper_dense(0)).max_abs() < 1e-10);
        // Time reversal without SO: H(-ky) = H(ky)*.
        let btm = h.assemble(&pot, -ky);
        assert!((&btm.diag[0].to_dense() - &bt.diag[0].to_dense().conj()).max_abs() < 1e-12);
    }

    #[test]
    fn lead_blocks_are_the_first_blocks_of_the_uniform_device_bit_for_bit() {
        // The two-slab assembly must make the pushes of the whole-device
        // assembly, for its own entries, in the same order: the blocks
        // are equal as bit patterns, not to a tolerance. Slab 1 of the
        // alloy wire holds species-B atoms, so mixed bonds are covered.
        let zb = Crystal::Zincblende { a: A_SI };
        let wire = si_wire(4, 1.0);
        let utb = Device::utb(zb, 3, 1, 1.0);
        let si = TbParams::of(Material::SiSp3s);
        let alloy = AlloyModel::random_channel(&wire, si, TbParams::of(Material::GeSp3s), 0.5, 7);
        assert!(
            alloy.is_b.iter().any(|&b| b),
            "the alloy case needs species B"
        );
        let cases = [
            ("nanowire", DeviceHamiltonian::new(&wire, si, false), 0.0),
            ("utb", DeviceHamiltonian::new(&utb, si, false), 1.3),
            ("spin-orbit", DeviceHamiltonian::new(&wire, si, true), 0.0),
            (
                "alloy",
                DeviceHamiltonian::new_alloy(&wire, alloy, false),
                0.0,
            ),
        ];
        for (what, h, ky) in &cases {
            for v in [0.0, -0.137] {
                let whole = h.assemble(&vec![v; h.device().num_atoms()], *ky);
                let (h00, h01) = h.lead_blocks(v, *ky);
                assert_eq!(h00, whole.diag[0].to_dense(), "{what}: H00 at v = {v}");
                assert_eq!(h01, whole.upper_dense(0), "{what}: H01 at v = {v}");
            }
        }
    }

    #[test]
    fn the_potential_is_added_last_to_the_zero_potential_hamiltonian() {
        // `H(V) = H(0) ⊕ V` to the bit: every diagonal entry of `H(V)` is
        // `H(0)`'s fold plus `V_r` (`V_r` alone where `H(0)` has no entry,
        // `H(0)`'s untouched where `V_r` is an exact zero), and the
        // couplings are `H(0)`'s. The sp3s* wire's passivated surface
        // atoms fold several terms on one entry, so there the order shows;
        // the UTB film's bonds wrap the periodic boundary.
        let zb = Crystal::Zincblende { a: A_SI };
        let wire = si_wire(3, 1.0);
        let utb = Device::utb(zb, 3, 1, 1.0);
        let si = TbParams::of(Material::SiSp3s);
        assert!(
            si.passivation_shift != 0.0,
            "the sp3s* case must be passivated"
        );
        let single = TbParams::of(Material::SingleBand { t_mev: 1000 });
        let cases = [
            ("sp3s* wire", DeviceHamiltonian::new(&wire, si, false), 0.0),
            (
                "single-band wire",
                DeviceHamiltonian::new(&wire, single, false),
                0.0,
            ),
            ("utb, k = 0.4", DeviceHamiltonian::new(&utb, si, false), 0.4),
            ("utb, k = 1.3", DeviceHamiltonian::new(&utb, si, false), 1.3),
            (
                "spin-orbit wire",
                DeviceHamiltonian::new(&wire, si, true),
                0.0,
            ),
        ];
        let bits = |z: c64| (z.re.to_bits(), z.im.to_bits());
        let entries = |d: &omen_sparse::DiagEntries| -> Vec<(usize, (u64, u64))> {
            d.entries.iter().map(|&(k, v)| (k, bits(v))).collect()
        };
        let profiles: [fn(usize) -> f64; 3] = [
            |i| 0.013 * (i % 5) as f64 - 0.02,
            |i| {
                if i % 7 == 0 {
                    -0.0
                } else {
                    -0.3 + 1e-3 * i as f64
                }
            },
            |i| 0.1 * ((i as f64) * 0.37).sin(),
        ];
        for (what, h, ky) in &cases {
            let n_atoms = h.device().num_atoms();
            let per = h.orbitals_per_atom();
            let h0 = h.assemble(&vec![0.0; n_atoms], *ky);
            for (p, profile) in profiles.iter().enumerate() {
                let pot: Vec<f64> = (0..n_atoms).map(profile).collect();
                let hv = h.assemble(&pot, *ky);
                for (i, (got, d0)) in hv.diag.iter().zip(&h0.diag).enumerate() {
                    let (o, n) = (hv.offset(i), d0.n);
                    let mut want: std::collections::BTreeMap<usize, c64> =
                        d0.entries.iter().copied().collect();
                    for r in 0..n {
                        let v = pot[(o + r) / per];
                        if v != 0.0 {
                            want.entry(r * n + r)
                                .and_modify(|x| *x += c64::real(v))
                                .or_insert(c64::real(v));
                        }
                    }
                    let want: Vec<_> = want.into_iter().map(|(k, v)| (k, bits(v))).collect();
                    assert_eq!(entries(got), want, "{what}, profile {p}: block {i}");
                }
                for (a, b) in hv
                    .upper
                    .iter()
                    .chain(&hv.lower)
                    .zip(h0.upper.iter().chain(&h0.lower))
                {
                    assert_eq!(
                        (&a.rows, &a.cols),
                        (&b.rows, &b.cols),
                        "{what}, profile {p}"
                    );
                    let core = |m: &ZMat| m.data().iter().map(|&z| bits(z)).collect::<Vec<_>>();
                    assert_eq!(core(&a.core), core(&b.core), "{what}, profile {p}");
                }
            }
        }
    }

    #[test]
    fn graphene_ribbon_assembles() {
        let dev = Device::ribbon_agnr(0.142, 3, 5);
        let h = DeviceHamiltonian::new(&dev, TbParams::of(Material::GraphenePz), false);
        let bt = h.assemble(&vec![0.0; dev.num_atoms()], 0.0);
        assert!(bt.is_hermitian(1e-13));
        assert_eq!(bt.dim(), dev.num_atoms());
        // Every nonzero hopping equals V_ppπ (flat graphene, bonds ⊥ pz).
        let d = bt.to_dense();
        for i in 0..d.nrows() {
            for j in 0..d.ncols() {
                let v = d[(i, j)];
                if i != j && v.abs() > 1e-12 {
                    assert!((v.re + 2.7).abs() < 1e-9 && v.im.abs() < 1e-12, "t = {v}");
                }
            }
        }
    }
}
