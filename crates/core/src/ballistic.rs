//! Per-bias ballistic transport: energy sweep, current and quantum charge.
//!
//! Energy sweeps isolate failures per point: an energy whose solve returns
//! a typed [`omen_num::OmenError`] (after the lower-level recovery policies are
//! exhausted) is dropped from the grid and recorded in the result's
//! [`SweepReport`] instead of aborting the bias point.

use crate::energy::{ContactMemo, EnergyWindow, LeadBandsMemo};
use crate::spec::{Bias, NanoTransistor};
use omen_linalg::ZMat;
use omen_negf::transport::{EnergyPointData, DEFAULT_ETA};
use omen_negf::ContactSelfEnergy;
use omen_num::{fermi, trapezoid, OmenResult, SweepReport, I0_UA_PER_EV};
use omen_sparse::BlockTridiag;
use omen_wf::Solver;

/// Which transport engine evaluates each energy point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Recursive Green's functions (the reference).
    Rgf,
    /// Wave-function with sequential block-Thomas.
    WfThomas,
    /// Wave-function with sequential block cyclic reduction.
    WfBcr,
    /// Tree-structured selected inversion (same result surface as RGF,
    /// `O(log N)` critical path).
    SelInv,
}

/// Output of one ballistic bias-point solve.
#[derive(Debug, Clone)]
pub struct BallisticResult {
    /// Sampled energies (eV).
    pub energies: Vec<f64>,
    /// Transmission at each energy.
    pub transmission: Vec<f64>,
    /// Drain current (µA, spin degeneracy included).
    pub current_ua: f64,
    /// Electron density per atom (e).
    pub electron_density: Vec<f64>,
    /// Hole density per atom (e).
    pub hole_density: Vec<f64>,
    /// Per-point solve/retry/failure accounting for the sweep.
    pub report: SweepReport,
}

/// Assembled device Hamiltonian, lead blocks and transport window for one
/// `(bias, k)` transport problem — the shared setup of every ballistic
/// solve variant.
struct TransportSetup {
    h: BlockTridiag,
    h00_l: ZMat,
    h01_l: ZMat,
    h00_r: ZMat,
    h01_r: ZMat,
    window: EnergyWindow,
}

/// Assembles the device and lead operators at a potential and derives the
/// transport energy window from the lead subbands around the contact Fermi
/// levels (electron side above the device midgap, hole side below). The
/// subbands of a lead `bands` remembers are not diagonalised again.
fn prepare_transport(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    ky: f64,
    bands: &mut LeadBandsMemo,
) -> TransportSetup {
    assert_eq!(v_atoms.len(), tr.device.num_atoms());
    // Device and source lead as every frozen-potential driver builds them;
    // the drain lead is pinned to its own terminal slab.
    let (h, h00_l, h01_l) = crate::parallel::frozen_system(tr, v_atoms, ky);
    let v_drn = tr.slab_mean_potential(v_atoms, tr.device.num_slabs - 1);
    let (h00_r, h01_r) = tr.hamiltonian().lead_blocks(-v_drn, ky);

    let mus = [bias.mu_source, bias.mu_drain()];
    // Focus windows around the (potential-shifted) band structure: electron
    // window above local midgap, hole window below; take a generous range.
    let mid_lo = tr.e_midgap - v_atoms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mid_hi = tr.e_midgap - v_atoms.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = 30.0 * tr.kt;
    let window = bands.window(
        &[(&h00_l, &h01_l), (&h00_r, &h01_r)],
        &mus,
        tr.kt,
        12.0,
        (
            mid_lo.min(mus[0].min(mus[1]) - span),
            mid_hi.max(mus[0].max(mus[1]) + span),
        ),
    );
    TransportSetup {
        h,
        h00_l,
        h01_l,
        h00_r,
        h01_r,
        window,
    }
}

/// Solves one (bias, k-point) transport problem on a prepared Hamiltonian.
///
/// `v_atoms` is the electrostatic potential per atom (V); leads are pinned
/// to the mean potential of the terminal slabs. The energy window is
/// derived from the lead subbands around the contact Fermi levels
/// (electron side above the device midgap, hole side below).
pub fn ballistic_solve(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_energy: usize,
    ky: f64,
) -> BallisticResult {
    let mut bands = LeadBandsMemo::default();
    ballistic_solve_remembering(tr, v_atoms, bias, engine, n_energy, ky, &mut bands, None)
}

/// [`ballistic_solve`] for a sweep loop that owns a [`LeadBandsMemo`] and,
/// optionally, a [`ContactMemo`]: bias points whose lead blocks repeat
/// exactly (the gate points of a frozen sweep) diagonalise the lead bands
/// once and decimate each `(lead, E)` once. The current and the
/// [`SweepReport`] are [`ballistic_solve`]'s bit for bit.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ballistic_solve_remembering(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_energy: usize,
    ky: f64,
    bands: &mut LeadBandsMemo,
    contacts: Option<&mut ContactMemo>,
) -> BallisticResult {
    let s = prepare_transport(tr, v_atoms, bias, ky, bands);
    let (energies, points, report) = solve_sweep(
        &s.window.grid(n_energy),
        &s.h,
        (&s.h00_l, &s.h01_l),
        (&s.h00_r, &s.h01_r),
        engine,
        contacts,
    );
    integrate(tr, bias, v_atoms, &energies, points, &s.window, report)
}

/// Solves every energy of a grid with per-point failure isolation: a point
/// whose engines exhaust their recovery policies is dropped and recorded in
/// the [`SweepReport`]; the surviving `(energies, points)` stay aligned.
/// With a `contacts` memo each point's contacts are looked up there and
/// decimated only on a miss; without one, every point is [`solve_point`].
pub fn solve_sweep(
    energies: &[f64],
    h: &BlockTridiag,
    lead_l: (&omen_linalg::ZMat, &omen_linalg::ZMat),
    lead_r: (&omen_linalg::ZMat, &omen_linalg::ZMat),
    engine: Engine,
    mut contacts: Option<&mut ContactMemo>,
) -> (Vec<f64>, Vec<EnergyPointData>, SweepReport) {
    let mut report = SweepReport::default();
    let mut kept = Vec::with_capacity(energies.len());
    let mut points = Vec::with_capacity(energies.len());
    for &e in energies {
        let solved = match contacts.as_deref_mut() {
            Some(memo) => memo
                .contacts(e, lead_l, lead_r)
                .and_then(|(sl, sr)| engine_point(e, h, &sl, &sr, engine)),
            None => solve_point(e, h, lead_l, lead_r, engine),
        };
        match solved {
            Ok(p) => {
                report.record_solved(p.retries);
                kept.push(e);
                points.push(p);
            }
            Err(err) => report.record_failed(e, err),
        }
    }
    (kept, points, report)
}

/// Adaptive-grid ballistic solve: starts from `n_init` uniform energy
/// points and inserts midpoints where the current integrand
/// `T(E)·(f_L − f_R)` deviates from local linearity by more than `tol`
/// (relative to its maximum), until no interval is flagged or `max_points`
/// is reached. Resonances and subband onsets get resolved without paying
/// for a uniformly fine grid — the production energy-grid strategy of
/// adaptive quantum-transport codes.
#[allow(clippy::too_many_arguments)]
pub fn ballistic_solve_adaptive(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_init: usize,
    max_points: usize,
    tol: f64,
    ky: f64,
) -> BallisticResult {
    assert!(n_init >= 5 && max_points >= n_init);
    let s = prepare_transport(tr, v_atoms, bias, ky, &mut LeadBandsMemo::default());
    let (lead_l, lead_r) = ((&s.h00_l, &s.h01_l), (&s.h00_r, &s.h01_r));

    // Initial grid with failed energies dropped before the adaptive grid is
    // built, so refinement only ever works on solved intervals.
    let (seed_energies, mut points, mut report) =
        solve_sweep(&s.window.grid(n_init), &s.h, lead_l, lead_r, engine, None);
    if seed_energies.len() < 2 {
        // Not enough surviving points to define intervals; integrate what
        // is left (possibly nothing) without refinement.
        return integrate(tr, bias, v_atoms, &seed_energies, points, &s.window, report);
    }
    let mut grid = omen_num::grid::AdaptiveGrid::from_points(seed_energies);
    let (mu_s, mu_d) = (bias.mu_source, bias.mu_drain());
    for _round in 0..8 {
        if grid.len() >= max_points {
            break;
        }
        let f: Vec<f64> = grid
            .points()
            .iter()
            .zip(&points)
            .map(|(&e, p)| p.transmission * (fermi(e, mu_s, tr.kt) - fermi(e, mu_d, tr.kt)))
            .collect();
        let inserted = grid.refine(&f, tol);
        if inserted.is_empty() {
            break;
        }
        // Solve the fresh points and splice them in (indices are into the
        // refined grid, ascending). A fresh point that fails is recorded
        // and removed from the grid again, keeping grid and points aligned.
        let mut pending = inserted.iter().peekable();
        let mut old = points.into_iter();
        let mut kept = Vec::with_capacity(grid.len());
        let mut next = Vec::with_capacity(grid.len());
        let mut dropped = false;
        for (idx, &e) in grid.points().iter().enumerate() {
            if pending.peek() == Some(&&idx) {
                pending.next();
                match solve_point(e, &s.h, lead_l, lead_r, engine) {
                    Ok(p) => {
                        report.record_solved(p.retries);
                        kept.push(e);
                        next.push(p);
                    }
                    Err(err) => {
                        report.record_failed(e, err);
                        dropped = true;
                    }
                }
            } else {
                kept.push(e);
                next.push(
                    old.next()
                        .expect("pre-refinement points align with the grid"),
                );
            }
        }
        points = next;
        if dropped {
            grid = omen_num::grid::AdaptiveGrid::from_points(kept);
        }
        if grid.len() > max_points {
            break;
        }
    }
    let energies = grid.points().to_vec();
    integrate(tr, bias, v_atoms, &energies, points, &s.window, report)
}

/// Transverse momentum samples `(k_y, weight)` for a periodic device:
/// a midpoint grid over half the transverse Brillouin zone (time-reversal
/// pairs carry identical transmission, so the half-zone average equals the
/// full-zone average). Non-periodic devices get the single Γ point.
pub fn momentum_grid(tr: &NanoTransistor, n_k: usize) -> Vec<(f64, f64)> {
    assert!(n_k >= 1);
    match tr.device.kind {
        omen_lattice::DeviceKind::Utb { period_y } => {
            let kmax = std::f64::consts::PI / period_y;
            (0..n_k)
                .map(|j| ((j as f64 + 0.5) * kmax / n_k as f64, 1.0 / n_k as f64))
                .collect()
        }
        _ => vec![(0.0, 1.0)],
    }
}

/// Momentum-integrated ballistic solve: averages current and carrier
/// densities over [`momentum_grid`] — the physical content of the paper's
/// *momentum* parallel level. For non-periodic devices this reduces to a
/// single [`ballistic_solve`] call.
pub fn ballistic_solve_k(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_energy: usize,
    n_k: usize,
) -> BallisticResult {
    // Canonical k order keeps the weighted accumulation deterministic.
    let mut solves = momentum_grid(tr, n_k)
        .into_iter()
        .map(|(ky, w)| (w, ballistic_solve(tr, v_atoms, bias, engine, n_energy, ky)));
    let (w0, mut acc) = solves.next().expect("momentum grid is never empty");
    let first_trace = acc.transmission.clone();
    let mut shared_grid = true;
    acc.current_ua *= w0;
    for v in acc
        .electron_density
        .iter_mut()
        .chain(acc.hole_density.iter_mut())
        .chain(acc.transmission.iter_mut())
    {
        *v *= w0;
    }
    for (w, r) in solves {
        acc.report.merge(&r.report);
        acc.current_ua += w * r.current_ua;
        for (x, y) in acc.electron_density.iter_mut().zip(&r.electron_density) {
            *x += w * y;
        }
        for (x, y) in acc.hole_density.iter_mut().zip(&r.hole_density) {
            *x += w * y;
        }
        // Energy grids can differ per k (the window follows the k-resolved
        // subbands): T(E) averages only over one shared grid; otherwise the
        // first k-point's trace stands as the representative, unweighted.
        shared_grid &= acc.energies == r.energies;
        if shared_grid {
            for (t, u) in acc.transmission.iter_mut().zip(&r.transmission) {
                *t += w * u;
            }
        }
    }
    if !shared_grid {
        acc.transmission = first_trace;
    }
    acc
}

/// Evaluates one energy point: the contacts
/// ([`omen_negf::local_contacts`]), then the chosen engine on them
/// ([`engine_point`]). Recovery (lead nudges, pivot regularization)
/// happens inside the two stages; an `Err` here means the point is lost
/// for good and the sweep should isolate it.
///
/// # Errors
///
/// Propagates either stage's typed failure — a non-converged lead
/// ([`omen_num::OmenError::LeadNotConverged`]) or an unrecoverable singular
/// slab ([`omen_num::OmenError::SingularBlock`]), both stamped with the
/// energy.
pub fn solve_point(
    e: f64,
    h: &BlockTridiag,
    lead_l: (&omen_linalg::ZMat, &omen_linalg::ZMat),
    lead_r: (&omen_linalg::ZMat, &omen_linalg::ZMat),
    engine: Engine,
) -> OmenResult<EnergyPointData> {
    let (sigma_l, sigma_r) = omen_negf::local_contacts(e, DEFAULT_ETA, lead_l, lead_r)?;
    engine_point(e, h, &sigma_l, &sigma_r, engine)
}

/// The second stage of [`solve_point`]: one energy point on contacts the
/// caller already holds — the one place an [`Engine`] is dispatched.
///
/// # Errors
///
/// The engine's [`omen_num::OmenError::SingularBlock`], stamped with the
/// energy.
pub fn engine_point(
    e: f64,
    h: &BlockTridiag,
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
    engine: Engine,
) -> OmenResult<EnergyPointData> {
    match engine {
        Engine::Rgf => omen_negf::rgf_point(e, DEFAULT_ETA, h, sigma_l, sigma_r),
        Engine::WfThomas => omen_wf::wf_point(e, DEFAULT_ETA, h, sigma_l, sigma_r, Solver::Thomas),
        Engine::WfBcr => omen_wf::wf_point(e, DEFAULT_ETA, h, sigma_l, sigma_r, Solver::Bcr),
        Engine::SelInv => omen_negf::selinv_point(e, DEFAULT_ETA, h, sigma_l, sigma_r),
    }
}

/// Integrates current and charge from solved energy points. `_window` is
/// unused (the surviving `energies` carry the grid); it stays because the
/// `benchmark/` replay calls this signature.
pub fn integrate(
    tr: &NanoTransistor,
    bias: &Bias,
    v_atoms: &[f64],
    energies: &[f64],
    points: Vec<EnergyPointData>,
    _window: &EnergyWindow,
    report: SweepReport,
) -> BallisticResult {
    let spin = tr.spin_degeneracy();
    let kt = tr.kt;
    let (mu_s, mu_d) = (bias.mu_source, bias.mu_drain());
    let two_pi = 2.0 * std::f64::consts::PI;

    let transmission: Vec<f64> = points.iter().map(|p| p.transmission).collect();
    // Landauer current.
    let integrand: Vec<f64> = energies
        .iter()
        .zip(&transmission)
        .map(|(&e, &t)| t * (fermi(e, mu_s, kt) - fermi(e, mu_d, kt)))
        .collect();
    let current_ua = spin / 2.0 * I0_UA_PER_EV * trapezoid(energies, &integrand);

    // Charge: per-orbital spectral densities classified electron/hole by
    // the local (potential-shifted) midgap.
    let ham = tr.hamiltonian();
    let per_atom = ham.orbitals_per_atom();
    let n_atoms = tr.device.num_atoms();
    let ne = energies.len();
    let mut electron_density = vec![0.0; n_atoms];
    let mut hole_density = vec![0.0; n_atoms];
    // Trapezoid weights.
    let mut wts = vec![0.0; ne];
    for i in 1..ne {
        let d = 0.5 * (energies[i] - energies[i - 1]);
        wts[i - 1] += d;
        wts[i] += d;
    }
    for (ie, p) in points.iter().enumerate() {
        let e = energies[ie];
        let (fl, fr) = (fermi(e, mu_s, kt), fermi(e, mu_d, kt));
        for a in 0..n_atoms {
            let e_mid_local = tr.e_midgap - v_atoms[a];
            let mut al = 0.0;
            let mut ar = 0.0;
            for o in 0..per_atom {
                al += p.spectral_left_diag[a * per_atom + o];
                ar += p.spectral_right_diag[a * per_atom + o];
            }
            if e >= e_mid_local {
                electron_density[a] += wts[ie] * (al * fl + ar * fr) / two_pi * spin;
            } else {
                hole_density[a] += wts[ie] * (al * (1.0 - fl) + ar * (1.0 - fr)) / two_pi * spin;
            }
        }
    }

    BallisticResult {
        energies: energies.to_vec(),
        transmission,
        current_ua,
        electron_density,
        hole_density,
        report,
    }
}

/// Test fixture shared by the fault-isolation tests of this crate: an
/// `n`-site 1×1-block chain (hopping −1, leads alike) with the hops in
/// `cut` severed and, per `(site, level)`, an on-site term `level + iη`
/// that absorbs the broadening the engines add — so a site cut off on the
/// side(s) its elimination order reaches it from has the pivot `E − level`,
/// *exactly* zero at the grid energy `E = level`.
#[cfg(test)]
pub(crate) fn severed_chain(
    n: usize,
    levels: &[(usize, f64)],
    cut: &[usize],
) -> (BlockTridiag, ZMat, ZMat) {
    use omen_num::c64;
    let z = || ZMat::zeros(1, 1);
    let t = || ZMat::from_vec(1, 1, vec![c64::real(-1.0)]);
    let mut diag = vec![z(); n];
    for &(site, level) in levels {
        let onsite = c64::new(level, DEFAULT_ETA);
        diag[site] = ZMat::from_vec(1, 1, vec![onsite]);
    }
    let hop: Vec<ZMat> = (0..n - 1)
        .map(|i| if cut.contains(&i) { z() } else { t() })
        .collect();
    (BlockTridiag::new(diag, hop.clone(), hop), z(), t())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TransistorSpec;
    use omen_tb::Material;

    fn flat_device() -> NanoTransistor {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.doping_sd = 0.0;
        spec.build()
    }

    #[test]
    fn engines_agree_on_current() {
        let tr = flat_device();
        let v = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.2,
            mu_source: -2.9,
        };
        let rgf = ballistic_solve(&tr, &v, &bias, Engine::Rgf, 25, 0.0);
        let wf = ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 25, 0.0);
        assert!(
            rgf.current_ua > 0.0,
            "positive VDS must drive positive current"
        );
        assert!(
            (rgf.current_ua - wf.current_ua).abs() < 1e-4 * rgf.current_ua.abs().max(1e-9),
            "RGF {} vs WF {}",
            rgf.current_ua,
            wf.current_ua
        );
        // Charges agree too.
        for (a, b) in rgf.electron_density.iter().zip(&wf.electron_density) {
            assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn zero_bias_zero_current() {
        let tr = flat_device();
        let v = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.0,
            mu_source: -2.8,
        };
        let r = ballistic_solve(&tr, &v, &bias, Engine::Rgf, 21, 0.0);
        assert!(r.current_ua.abs() < 1e-10, "I(VDS=0) = {}", r.current_ua);
        // Equilibrium density is still finite.
        assert!(r.electron_density.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn current_increases_with_window() {
        let tr = flat_device();
        let v = vec![0.0; tr.device.num_atoms()];
        let lo = Bias {
            v_gate: 0.0,
            v_ds: 0.1,
            mu_source: -2.9,
        };
        let hi = Bias {
            v_gate: 0.0,
            v_ds: 0.3,
            mu_source: -2.9,
        };
        let i_lo = ballistic_solve(&tr, &v, &lo, Engine::Rgf, 31, 0.0).current_ua;
        let i_hi = ballistic_solve(&tr, &v, &hi, Engine::Rgf, 31, 0.0).current_ua;
        assert!(i_hi > i_lo, "more drive, more current: {i_lo} vs {i_hi}");
    }

    #[test]
    fn barrier_potential_reduces_current() {
        let tr = flat_device();
        let flat = vec![0.0; tr.device.num_atoms()];
        // A gate-like barrier in the middle (negative potential raises
        // electron energy). The wire band bottom sits at −3.53; with
        // μ = −2.9 a 1 V barrier pushes the channel far out of the window.
        let lg_lo = 2;
        let lg_hi = 4;
        let barrier: Vec<f64> = tr
            .device
            .atoms
            .iter()
            .map(|a| {
                if a.slab >= lg_lo && a.slab < lg_hi {
                    -1.0
                } else {
                    0.0
                }
            })
            .collect();
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.2,
            mu_source: -2.9,
        };
        let i_flat = ballistic_solve(&tr, &flat, &bias, Engine::Rgf, 31, 0.0).current_ua;
        let i_barrier = ballistic_solve(&tr, &barrier, &bias, Engine::Rgf, 31, 0.0).current_ua;
        assert!(
            i_barrier < 0.05 * i_flat,
            "barrier must suppress current: {i_barrier} vs flat {i_flat}"
        );
    }

    #[test]
    fn adaptive_grid_matches_fine_uniform_with_fewer_points() {
        let tr = flat_device();
        let v = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.25,
            mu_source: -3.4,
        };
        let fine = ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 201, 0.0);
        let adaptive =
            ballistic_solve_adaptive(&tr, &v, &bias, Engine::WfThomas, 15, 120, 5e-3, 0.0);
        assert!(
            adaptive.energies.len() < 140,
            "adaptive used {} points",
            adaptive.energies.len()
        );
        assert!(
            adaptive.energies.windows(2).all(|w| w[0] < w[1]),
            "grid sorted"
        );
        let rel = (adaptive.current_ua - fine.current_ua).abs() / fine.current_ua.abs();
        assert!(
            rel < 0.02,
            "adaptive {} vs fine {} ({}% off, {} pts)",
            adaptive.current_ua,
            fine.current_ua,
            100.0 * rel,
            adaptive.energies.len()
        );
    }

    #[test]
    fn momentum_grid_shapes() {
        let tr = flat_device();
        assert_eq!(
            momentum_grid(&tr, 4),
            vec![(0.0, 1.0)],
            "wire has no transverse k"
        );
        let spec = TransistorSpec {
            geometry: crate::spec::Geometry::Utb { cells: 1, h: 1.0 },
            ..TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6)
        };
        let utb = spec.build();
        let g = momentum_grid(&utb, 4);
        assert_eq!(g.len(), 4);
        let wsum: f64 = g.iter().map(|(_, w)| w).sum();
        assert!((wsum - 1.0).abs() < 1e-14, "weights sum to 1");
        assert!(g.windows(2).all(|p| p[0].0 < p[1].0), "k sorted");
        let kmax = std::f64::consts::PI / utb.device.cross.0;
        assert!(
            g.iter().all(|&(k, _)| k > 0.0 && k < kmax),
            "midpoints inside half-BZ"
        );
    }

    #[test]
    fn k_average_equals_manual_average() {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 6);
        spec.geometry = crate::spec::Geometry::Utb { cells: 1, h: 1.0 };
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let v = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.2,
            mu_source: -3.2,
        };
        let avg = ballistic_solve_k(&tr, &v, &bias, Engine::WfThomas, 21, 2);
        let grid = momentum_grid(&tr, 2);
        let manual: f64 = grid
            .iter()
            .map(|&(ky, w)| {
                w * ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 21, ky).current_ua
            })
            .sum();
        assert!(
            (avg.current_ua - manual).abs() < 1e-10 * (1.0 + manual.abs()),
            "{} vs {manual}",
            avg.current_ua
        );
        assert!(avg.current_ua > 0.0);
        // The windows follow the k-resolved subbands, so the two grids
        // differ at equal length: T(E) must be the first k-point's trace on
        // its own grid, not an index-wise blend across mismatched energies.
        let first = ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 21, grid[0].0);
        let second = ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 21, grid[1].0);
        assert_eq!(first.energies.len(), second.energies.len());
        assert_ne!(first.energies, second.energies);
        assert_eq!(avg.energies, first.energies);
        assert_eq!(avg.transmission, first.transmission);
    }

    #[test]
    fn sweep_isolates_provably_singular_point() {
        use omen_num::OmenError;
        // Middle site (block 2) decoupled from its *left* neighbor only, so
        // the forward elimination reaches it un-updated: E = 0 is a
        // provably singular energy inside the sweep.
        let (h, h00, h01) = severed_chain(5, &[(2, 0.0)], &[1]);
        // −0.5, −0.25, 0, 0.25, 0.5: all inside the lead band, the middle
        // one exactly on the decoupled level.
        let energies = omen_num::linspace(-0.5, 0.5, 5);

        // The direct solvers have no pivot-recovery policy: the singular
        // point is dropped and recorded, the rest of the sweep survives.
        let (kept, points, report) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::WfThomas,
            None,
        );
        assert_eq!(report.solved, 4);
        assert_eq!(kept.len(), 4);
        assert_eq!(points.len(), 4);
        assert!(!kept.contains(&0.0));
        assert_eq!(report.failed.len(), 1, "exactly the singular point fails");
        assert_eq!(report.failed[0].energy, 0.0);
        match &report.failed[0].error {
            OmenError::SingularBlock { block, .. } => assert_eq!(*block, 2),
            e => panic!("expected SingularBlock, got {e:?}"),
        }

        // RGF regularizes the pivot instead: every point solves, the report
        // shows the recovery.
        let (kept, _, report) =
            solve_sweep(&energies, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf, None);
        assert_eq!(kept.len(), 5);
        assert!(
            report.failed.is_empty(),
            "RGF must regularize the singular pivot"
        );
        assert!(report.recovered >= 1, "the recovery must be accounted");
        assert!(report.retried >= 1);

        // Selected inversion eliminates in tree order, not chain order: its
        // Schur pivot for block 2 keeps the surviving *right* coupling, so
        // this left-only-decoupled system is regular on the SelInv path —
        // the whole sweep solves with no recovery at all. Pivot locations
        // are an elimination-order property, not a physics property.
        let (kept, _, report) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::SelInv,
            None,
        );
        assert_eq!(kept.len(), 5);
        assert!(report.failed.is_empty());
        assert_eq!(report.recovered, 0, "no pivot recovery needed");
    }

    #[test]
    fn sweep_isolation_is_engine_uniform_on_fully_decoupled_block() {
        use omen_num::OmenError;
        // Decouple block 2 from BOTH neighbors: its Schur pivot degenerates
        // to the bare on-site term under *any* elimination order, so RGF
        // (chain order) and SelInv (tree order) face the identical singular
        // pivot at E = 0 and must produce the same SweepReport isolation.
        let (h, h00, h01) = severed_chain(5, &[(2, 0.0)], &[1, 2]);
        let energies = omen_num::linspace(-0.5, 0.5, 5);

        // The direct WF solver has no pivot recovery: the singular point is
        // isolated with the typed error naming the decoupled block.
        let (kept, _, report) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::WfThomas,
            None,
        );
        assert_eq!(kept.len(), 4);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].energy, 0.0);
        match &report.failed[0].error {
            OmenError::SingularBlock { block, .. } => assert_eq!(*block, 2),
            e => panic!("expected SingularBlock, got {e:?}"),
        }

        // Both Green's-function engines regularize the identical pivot:
        // same kept grid, same empty failure list, same recovery accounting.
        let (kept_rgf, _, rep_rgf) =
            solve_sweep(&energies, &h, (&h00, &h01), (&h00, &h01), Engine::Rgf, None);
        let (kept_si, _, rep_si) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::SelInv,
            None,
        );
        assert_eq!(kept_rgf.len(), 5);
        assert_eq!(kept_si, kept_rgf);
        assert!(rep_rgf.failed.is_empty() && rep_si.failed.is_empty());
        assert!(rep_rgf.recovered >= 1, "RGF recovery must be accounted");
        assert_eq!(
            rep_si.recovered, rep_rgf.recovered,
            "identical pivot, identical set of recovered points"
        );
        // Raw retry tallies agree too: RGF factors every slab exactly once
        // (one forward sweep, no right-connected second factorization) and
        // the tree factors its Schur pivot exactly once, so the identical
        // pivot costs the identical regularizations.
        assert_eq!(rep_rgf.retried, rep_si.retried);
        assert!(rep_si.retried >= 1);
    }

    #[test]
    fn frozen_sweep_contacts_are_reusable_across_gate_points() {
        // The README wire at three gate points through one `ContactMemo`,
        // as `frozen_field_sweep_observed` threads it: every point's current
        // and report are the cold `ballistic_solve`'s bits.
        let tr = flat_device();
        let (vgs, v_ds, mu_source, n_energy) = ([-0.1, 0.0, 0.1], 0.15, -3.45, 21);
        let mut bands = LeadBandsMemo::default();
        let mut memo = ContactMemo::default();
        let mut grid = None;
        for &v_gate in &vgs {
            let v_atoms = crate::iv::frozen_potential(&tr, v_gate);
            let bias = Bias {
                v_gate,
                v_ds,
                mu_source,
            };
            let got = ballistic_solve_remembering(
                &tr,
                &v_atoms,
                &bias,
                Engine::Rgf,
                n_energy,
                0.0,
                &mut bands,
                Some(&mut memo),
            );
            let want = ballistic_solve(&tr, &v_atoms, &bias, Engine::Rgf, n_energy, 0.0);
            assert_eq!(got.current_ua.to_bits(), want.current_ua.to_bits());
            assert_eq!(got.report, want.report);
            // One grid for every gate point: the window does not move.
            assert_eq!(grid.get_or_insert(got.energies.clone()), &got.energies);
        }
        // The first gate point decimates the grid, the others reuse it.
        let tally = memo.take_tally();
        assert_eq!(tally.decimated, n_energy);
        assert_eq!(tally.reused, (vgs.len() - 1) * n_energy);

        // What a hit serves is a cold `local_contacts` entry for entry —
        // the exact zeros off Σ's support included, which the decimation's
        // products leave as `+0.0`, the value the scatter writes.
        let v_flat = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds,
            mu_source,
        };
        let s = prepare_transport(&tr, &v_flat, &bias, 0.0, &mut bands);
        let (lead_l, lead_r) = ((&s.h00_l, &s.h01_l), (&s.h00_r, &s.h01_r));
        let raw = |m: &ZMat| -> Vec<(u64, u64)> {
            m.data()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        for &e in grid.as_ref().unwrap() {
            let (hl, hr) = memo.contacts(e, lead_l, lead_r).unwrap();
            let (cl, cr) = omen_negf::local_contacts(e, DEFAULT_ETA, lead_l, lead_r).unwrap();
            for (hit, cold) in [(&hl, &cl), (&hr, &cr)] {
                assert_eq!((hit.side, hit.retries), (cold.side, cold.retries));
                assert!(hit.sigma.support().len() < hit.sigma.nrows(), "Σ is packed");
                assert_eq!(raw(&hit.sigma), raw(&cold.sigma), "E={e}: Σ");
                assert_eq!(raw(&hit.gamma), raw(&cold.gamma), "E={e}: Γ");
            }
        }
        assert_eq!(memo.take_tally().reused, n_energy);
    }

    #[test]
    fn charge_is_nonnegative_and_source_heavy_under_bias() {
        let tr = flat_device();
        let v = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.4,
            mu_source: -2.9,
        };
        let r = ballistic_solve(&tr, &v, &bias, Engine::Rgf, 31, 0.0);
        assert!(r.electron_density.iter().all(|&n| n >= -1e-12));
        assert!(r.hole_density.iter().all(|&p| p >= -1e-12));
        // With mu_d lower, drain side holds less electron charge.
        let offsets = tr.device.slab_offsets();
        let n_src: f64 = r.electron_density[offsets[0]..offsets[1]].iter().sum();
        let n_drn: f64 = r.electron_density[offsets[5]..offsets[6]].iter().sum();
        assert!(n_src > n_drn, "source {n_src} vs drain {n_drn}");
    }
}
