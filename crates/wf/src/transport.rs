//! Per-energy wave-function transport.
//!
//! [`wf_point`] takes the contact self-energies the NEGF engines take,
//! builds the open-boundary system `A·Ψ = B` ([`assemble`]: `A`'s diagonal
//! from [`a_diagonal`], its couplings `H`'s stored ones negated on their
//! cores — no dense copy of `H`, no support observed per point — and the
//! open channels of both contacts injected as right-hand sides), solves that one block-tridiagonal system with the
//! chosen [`Solver`], and evaluates transmission and spectral densities
//! from the scattering states. Observables are bit-compatible with
//! `omen-negf`'s [`EnergyPointData`], which is what makes the WF-vs-RGF
//! experiments (tab1/tab3) apples-to-apples.

use crate::injection::injection_bundle;
use crate::solver::{bcr, thomas};
use crate::splitsolve::splitsolve;
use omen_linalg::{lu, matmul, matmul_h_n, ZMat};
use omen_negf::rgf::{a_diagonal, negated};
use omen_negf::sancho::ContactSelfEnergy;
use omen_negf::transport::EnergyPointData;
use omen_num::OmenResult;
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;

/// Which linear solver backs the wave-function engine.
#[derive(Clone, Copy)]
pub enum Solver<'a> {
    /// Sequential block Thomas elimination (minimal flops).
    Thomas,
    /// Sequential block cyclic reduction (the SplitSolve elimination tree).
    Bcr,
    /// Block cyclic reduction distributed over the communicator's ranks
    /// ([`crate::splitsolve_parallel`]): all members call collectively with
    /// identical contacts (the rank path reads them from one table,
    /// `omen_core::contacts::ContactTable`) and receive the same result.
    SplitSolve(&'a Comm<'a>),
}

/// Relative eigenvalue cutoff below which a Γ channel counts as closed.
pub const MODE_TOL: f64 = 1e-9;

/// Wave-function transport at one energy, from the contacts on.
///
/// # Errors
///
/// The block solve's [`omen_num::OmenError::SingularBlock`], stamped with
/// the energy; under [`Solver::SplitSolve`] also the communicator faults
/// of the distributed elimination
/// ([`omen_num::OmenError::ScheduleDivergence`],
/// [`omen_num::OmenError::RecvTimeout`]) — identical on every rank.
pub fn wf_point(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
    solver: Solver<'_>,
) -> OmenResult<EnergyPointData> {
    let (a, b, ml) = assemble(e, eta, h, sigma_l, sigma_r);
    // The direct solvers have no regularization pass to reject a poisoned
    // pivot block, and the contacts are the caller's: a NaN in `Σ` fails
    // typed here (alike on every rank, before any collective) instead of
    // reaching the transmission.
    for (i, d) in a.diag.iter().enumerate() {
        if let Some(poisoned) = lu::non_finite(d) {
            return Err(poisoned.at_block(i).with_energy(e));
        }
    }
    let psi = match solver {
        Solver::Thomas => thomas(a, b),
        Solver::Bcr => bcr(a, b),
        Solver::SplitSolve(comm) => splitsolve(comm, a, b),
    }
    .map_err(|err| err.with_energy(e))?;
    Ok(observables(e, h, sigma_l, sigma_r, &psi, ml))
}

/// Assembles `A = (E + iη) I − H − Σ_L − Σ_R` — its diagonal blocks, and
/// `H`'s stored couplings negated on their cores — and the injected right-hand
/// side `B = [W_L at slab 0 | W_R at slab N−1]` from precomputed
/// self-energies; returns the left-mode count alongside.
pub fn assemble(
    e: f64,
    eta: f64,
    h: &BlockTridiag,
    sl: &ContactSelfEnergy,
    sr: &ContactSelfEnergy,
) -> (BlockTridiag, Vec<ZMat>, usize) {
    let a = BlockTridiag {
        diag: a_diagonal(e, eta, h, sl, sr).collect(),
        lower: negated(&h.lower),
        upper: negated(&h.upper),
    };
    let wl = injection_bundle(&sl.gamma, MODE_TOL);
    let wr = injection_bundle(&sr.gamma, MODE_TOL);
    let (ml, mr) = (wl.w.ncols(), wr.w.ncols());
    let nb = h.num_blocks();
    let nrhs = ml + mr;
    let mut b: Vec<ZMat> = (0..nb)
        .map(|i| ZMat::zeros(h.block_size(i), nrhs))
        .collect();
    b[0].set_block(0, 0, &wl.w);
    b[nb - 1].set_block(0, ml, &wr.w);
    (a, b, ml)
}

/// Evaluates transmission, LDOS and spectral diagonals from the scattering
/// states `psi` (left modes in columns `..ml`, right modes in `ml..`).
fn observables(
    e: f64,
    h: &BlockTridiag,
    sl: &ContactSelfEnergy,
    sr: &ContactSelfEnergy,
    psi: &[ZMat],
    ml: usize,
) -> EnergyPointData {
    let nb = h.num_blocks();
    let nrhs = psi[0].ncols();
    let two_pi = 2.0 * std::f64::consts::PI;

    // Transmission: left-injected states evaluated against Γ_R on the last
    // slab. T = Tr[Ψ_L(N−1)† Γ_R Ψ_L(N−1)].
    let psi_l_last = psi[nb - 1].block(0, 0, h.block_size(nb - 1), ml);
    let g_psi = matmul(&sr.gamma, &psi_l_last);
    let transmission = matmul_h_n(&psi_l_last, &g_psi).trace().re;

    // Spectral diagonals and LDOS: A_L,ii = Σ_m |ψ_L,m(i)|² etc.
    let mut al = Vec::with_capacity(h.dim());
    let mut ar = Vec::with_capacity(h.dim());
    let mut ldos = Vec::with_capacity(nb);
    for (i, psi_i) in psi.iter().enumerate().take(nb) {
        let ni = h.block_size(i);
        let mut slab_trace = 0.0;
        for r in 0..ni {
            let mut sl_sum = 0.0;
            let mut sr_sum = 0.0;
            for c in 0..nrhs {
                let v = psi_i[(r, c)].norm_sqr();
                if c < ml {
                    sl_sum += v;
                } else {
                    sr_sum += v;
                }
            }
            al.push(sl_sum);
            ar.push(sr_sum);
            slab_trace += sl_sum + sr_sum;
        }
        ldos.push(slab_trace / two_pi);
    }
    EnergyPointData {
        energy: e,
        transmission,
        ldos,
        spectral_left_diag: al,
        spectral_right_diag: ar,
        retries: sl.retries + sr.retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omen_lattice::{Crystal, Device};
    use omen_negf::transport::DEFAULT_ETA;
    use omen_negf::{local_contacts, rgf_point};
    use omen_num::{c64, A_SI};
    use omen_tb::{DeviceHamiltonian, Material, TbParams};

    fn chain(nb: usize, e0: f64, t: f64, barrier: &[f64]) -> (BlockTridiag, ZMat, ZMat) {
        let diag: Vec<ZMat> = (0..nb)
            .map(|i| ZMat::from_diag(&[c64::real(e0 + barrier.get(i).copied().unwrap_or(0.0))]))
            .collect();
        let off: Vec<ZMat> = (0..nb - 1)
            .map(|_| ZMat::from_diag(&[c64::real(t)]))
            .collect();
        let h = BlockTridiag::from_dense(diag, off.clone(), off);
        let h00 = ZMat::from_diag(&[c64::real(e0)]);
        let h01 = ZMat::from_diag(&[c64::real(t)]);
        (h, h00, h01)
    }

    /// The sequential WF point as `omen_core::ballistic::solve_point`
    /// composes it.
    fn wf_at(
        e: f64,
        h: &BlockTridiag,
        lead_l: (&ZMat, &ZMat),
        lead_r: (&ZMat, &ZMat),
        solver: Solver<'_>,
    ) -> EnergyPointData {
        let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r).unwrap();
        wf_point(e, DEFAULT_ETA, h, &sl, &sr, solver).unwrap()
    }

    #[test]
    fn clean_chain_unit_transmission() {
        let (h, h00, h01) = chain(6, 0.0, -1.0, &[]);
        for &e in &[-1.6, -0.8, 0.05, 0.9, 1.7] {
            let d = wf_at(e, &h, (&h00, &h01), (&h00, &h01), Solver::Thomas);
            assert!(
                (d.transmission - 1.0).abs() < 1e-4,
                "E={e}: T={}",
                d.transmission
            );
        }
    }

    #[test]
    fn wf_matches_rgf_on_barrier_chain() {
        let mut barrier = vec![0.0; 8];
        barrier[3] = 0.6;
        barrier[4] = 0.6;
        let (h, h00, h01) = chain(8, 0.0, -1.0, &barrier);
        for &e in &[-1.3_f64, -0.2, 0.45, 1.2] {
            let (sl, sr) = local_contacts(e, DEFAULT_ETA, (&h00, &h01), (&h00, &h01)).unwrap();
            let wf = wf_point(e, DEFAULT_ETA, &h, &sl, &sr, Solver::Thomas).unwrap();
            let ng = rgf_point(e, DEFAULT_ETA, &h, &sl, &sr).unwrap();
            assert!(
                (wf.transmission - ng.transmission).abs() < 1e-6 * (1.0 + ng.transmission),
                "E={e}: WF {} vs RGF {}",
                wf.transmission,
                ng.transmission
            );
            // Spectral diagonals agree orbital by orbital.
            for (i, (a, b)) in wf
                .spectral_left_diag
                .iter()
                .zip(&ng.spectral_left_diag)
                .enumerate()
            {
                assert!(
                    (a - b).abs() < 1e-5 * (1.0 + b.abs()),
                    "A_L diag {i}: {a} vs {b}"
                );
            }
            for (a, b) in wf.spectral_right_diag.iter().zip(&ng.spectral_right_diag) {
                assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()));
            }
            // LDOS agrees.
            for (a, b) in wf.ldos.iter().zip(&ng.ldos) {
                assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()));
            }
        }
    }

    #[test]
    fn bcr_and_thomas_backends_agree() {
        let mut barrier = vec![0.0; 9];
        barrier[4] = 0.5;
        let (h, h00, h01) = chain(9, 0.0, -1.0, &barrier);
        for &e in &[-0.9, 0.35, 1.1] {
            let a = wf_at(e, &h, (&h00, &h01), (&h00, &h01), Solver::Thomas);
            let b = wf_at(e, &h, (&h00, &h01), (&h00, &h01), Solver::Bcr);
            assert!((a.transmission - b.transmission).abs() < 1e-9);
        }
    }

    #[test]
    fn wf_matches_rgf_on_si_wire() {
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 3, 0.8, 0.8);
        let p = TbParams::of(Material::SiSp3s);
        let ham = DeviceHamiltonian::new(&dev, p, false);
        // A gentle potential step through the device.
        let pot: Vec<f64> = dev
            .atoms
            .iter()
            .map(|at| 0.05 * (at.pos.x / dev.length()))
            .collect();
        let h = ham.assemble(&pot, 0.0);
        let (h00, h01) = ham.lead_blocks(0.0, 0.0);
        let (h00r, h01r) = ham.lead_blocks(0.05, 0.0);
        for &e in &[1.7_f64, 2.1] {
            let (sl, sr) = local_contacts(e, DEFAULT_ETA, (&h00, &h01), (&h00r, &h01r)).unwrap();
            let wf = wf_point(e, DEFAULT_ETA, &h, &sl, &sr, Solver::Thomas).unwrap();
            let ng = rgf_point(e, DEFAULT_ETA, &h, &sl, &sr).unwrap();
            assert!(
                (wf.transmission - ng.transmission).abs() < 1e-5 * (1.0 + ng.transmission),
                "E={e}: WF {} vs RGF {}",
                wf.transmission,
                ng.transmission
            );
        }
    }

    #[test]
    fn splitsolve_backend_matches_sequential() {
        let bits = |d: &EnergyPointData| -> Vec<u64> {
            std::iter::once(d.transmission)
                .chain(d.ldos.iter().copied())
                .chain(d.spectral_left_diag.iter().copied())
                .chain(d.spectral_right_diag.iter().copied())
                .map(f64::to_bits)
                .collect()
        };
        // A 1 × 1 barrier chain and a full-band wire with unequal leads.
        let mut barrier = vec![0.0; 8];
        barrier[2] = 0.4;
        let (h, h00, h01) = chain(8, 0.0, -1.0, &barrier);
        let dev = Device::nanowire(Crystal::Zincblende { a: A_SI }, 5, 0.8, 0.8);
        let ham = DeviceHamiltonian::new(&dev, TbParams::of(Material::SiSp3s), false);
        let pot: Vec<f64> = dev
            .atoms
            .iter()
            .map(|at| 0.05 * (at.pos.x / dev.length()))
            .collect();
        let (l, r) = (ham.lead_blocks(0.0, 0.0), ham.lead_blocks(0.05, 0.0));
        for (e, h, lead_l, lead_r) in [
            (0.6, &h, (&h00, &h01), (&h00, &h01)),
            (2.1, &ham.assemble(&pot, 0.0), (&l.0, &l.1), (&r.0, &r.1)),
        ] {
            // The serial cyclic reduction is the bit reference of every
            // rank count; Thomas differs by its elimination order only.
            let bcr = wf_at(e, h, lead_l, lead_r, Solver::Bcr);
            let thomas = wf_at(e, h, lead_l, lead_r, Solver::Thomas);
            assert!((bcr.transmission - thomas.transmission).abs() < 1e-8);
            for nranks in [1, 2, 3] {
                let out = omen_parsim::run_ranks(nranks, |ctx| {
                    let comm = Comm::world(ctx);
                    let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r)?;
                    wf_point(e, DEFAULT_ETA, h, &sl, &sr, Solver::SplitSolve(&comm))
                })
                .flattened()
                .unwrap_all();
                for d in &out {
                    assert_eq!(
                        bits(d),
                        bits(&bcr),
                        "E={e}, {nranks} ranks leave the serial bits"
                    );
                    assert_eq!(d.retries, bcr.retries);
                }
            }
        }
    }
}
