//! Per-energy wave-function transport.
//!
//! Builds the open-boundary system `A·Ψ = B` with the same contact
//! self-energies as the NEGF engine, injects the open channels of both
//! contacts as right-hand sides, solves one block-tridiagonal system, and
//! evaluates transmission and spectral densities from the scattering
//! states. Observables are bit-compatible with `omen-negf`'s
//! [`EnergyPointData`], which is what makes the WF-vs-RGF experiments
//! (tab1/tab3) apples-to-apples.

use crate::injection::injection_bundle;
use crate::solver::{bcr_solve, thomas_solve};
use crate::splitsolve::splitsolve_parallel;
use omen_linalg::{matmul, matmul_h_n, ZMat};
use omen_negf::contacts::local_contacts;
use omen_negf::rgf::build_a_matrix;
use omen_negf::sancho::ContactSelfEnergy;
use omen_negf::transport::{EnergyPointData, DEFAULT_ETA};
use omen_num::OmenResult;
use omen_parsim::Comm;
use omen_sparse::BlockTridiag;

/// Which linear solver backs the wave-function engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Sequential block Thomas elimination (minimal flops).
    Thomas,
    /// Sequential block cyclic reduction (the SplitSolve elimination tree).
    Bcr,
}

/// Relative eigenvalue cutoff below which a Γ channel counts as closed.
pub const MODE_TOL: f64 = 1e-9;

/// Wave-function transport at one energy using a sequential solver.
///
/// # Errors
///
/// Returns the lead solve's or block solve's typed failure
/// ([`omen_num::OmenError::LeadNotConverged`],
/// [`omen_num::OmenError::SingularBlock`]), stamped with the energy.
pub fn wf_transport_at_energy(
    e: f64,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    solver: SolverKind,
) -> OmenResult<EnergyPointData> {
    let (sl, sr) = local_contacts(e, DEFAULT_ETA, lead_l, lead_r)?;
    let (a, b, ml) = assemble(e, h, &sl, &sr);
    let psi = match solver {
        SolverKind::Thomas => thomas_solve(&a, &b),
        SolverKind::Bcr => bcr_solve(&a, &b),
    }
    .map_err(|err| err.with_energy(e))?;
    Ok(observables(e, h, &sl, &sr, &psi, ml))
}

/// Wave-function transport at one energy with the rank-parallel SplitSolve
/// backend; all comm members call collectively and receive the same result.
/// The contact self-energies are decimated once across the communicator
/// ([`omen_negf::contacts::distributed_contacts`]) instead of redundantly
/// on every rank.
///
/// # Errors
///
/// Same failure modes as [`wf_transport_at_energy`], plus the
/// communicator faults of the [`crate::splitsolve`]-distributed
/// elimination ([`omen_num::OmenError::ScheduleDivergence`],
/// [`omen_num::OmenError::RecvTimeout`]) — identical on every rank.
pub fn wf_transport_splitsolve(
    comm: &Comm,
    e: f64,
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
) -> OmenResult<EnergyPointData> {
    let (sl, sr) = omen_negf::contacts::distributed_contacts(comm, e, DEFAULT_ETA, lead_l, lead_r)?;
    let (a, b, ml) = assemble(e, h, &sl, &sr);
    let psi = splitsolve_parallel(comm, &a, &b).map_err(|err| err.with_energy(e))?;
    Ok(observables(e, h, &sl, &sr, &psi, ml))
}

/// Assembles `A` and the injected right-hand side `B = [W_L at slab 0 |
/// W_R at slab N−1]` from precomputed self-energies; returns the
/// left-mode count alongside.
fn assemble(
    e: f64,
    h: &BlockTridiag,
    sl: &ContactSelfEnergy,
    sr: &ContactSelfEnergy,
) -> (BlockTridiag, Vec<ZMat>, usize) {
    let a = build_a_matrix(e, DEFAULT_ETA, h, sl, sr);
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
    use omen_num::{c64, A_SI};
    use omen_tb::{DeviceHamiltonian, Material, TbParams};

    fn chain(nb: usize, e0: f64, t: f64, barrier: &[f64]) -> (BlockTridiag, ZMat, ZMat) {
        let diag: Vec<ZMat> = (0..nb)
            .map(|i| ZMat::from_diag(&[c64::real(e0 + barrier.get(i).copied().unwrap_or(0.0))]))
            .collect();
        let off: Vec<ZMat> = (0..nb - 1)
            .map(|_| ZMat::from_diag(&[c64::real(t)]))
            .collect();
        let h = BlockTridiag::new(diag, off.clone(), off);
        let h00 = ZMat::from_diag(&[c64::real(e0)]);
        let h01 = ZMat::from_diag(&[c64::real(t)]);
        (h, h00, h01)
    }

    #[test]
    fn clean_chain_unit_transmission() {
        let (h, h00, h01) = chain(6, 0.0, -1.0, &[]);
        for &e in &[-1.6, -0.8, 0.05, 0.9, 1.7] {
            let d = wf_transport_at_energy(e, &h, (&h00, &h01), (&h00, &h01), SolverKind::Thomas)
                .unwrap();
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
            let wf = wf_transport_at_energy(e, &h, (&h00, &h01), (&h00, &h01), SolverKind::Thomas)
                .unwrap();
            let ng = omen_negf::transport_at_energy(e, &h, (&h00, &h01), (&h00, &h01)).unwrap();
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
            let a = wf_transport_at_energy(e, &h, (&h00, &h01), (&h00, &h01), SolverKind::Thomas)
                .unwrap();
            let b =
                wf_transport_at_energy(e, &h, (&h00, &h01), (&h00, &h01), SolverKind::Bcr).unwrap();
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
            let wf =
                wf_transport_at_energy(e, &h, (&h00, &h01), (&h00r, &h01r), SolverKind::Thomas)
                    .unwrap();
            let ng = omen_negf::transport_at_energy(e, &h, (&h00, &h01), (&h00r, &h01r)).unwrap();
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
        let mut barrier = vec![0.0; 8];
        barrier[2] = 0.4;
        let (h, h00, h01) = chain(8, 0.0, -1.0, &barrier);
        let e = 0.6;
        let seq =
            wf_transport_at_energy(e, &h, (&h00, &h01), (&h00, &h01), SolverKind::Thomas).unwrap();
        let out = omen_parsim::run_ranks(3, |ctx| {
            let comm = Comm::world(ctx);
            wf_transport_splitsolve(&comm, e, &h, (&h00, &h01), (&h00, &h01))
                .map(|d| d.transmission)
        })
        .flattened();
        for t in out.unwrap_all() {
            assert!(
                (t - seq.transmission).abs() < 1e-8,
                "{t} vs {}",
                seq.transmission
            );
        }
    }
}
