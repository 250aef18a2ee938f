//! Per-bias ballistic transport: energy sweep, current and quantum charge.
//!
//! Energy sweeps isolate failures per point: an energy whose solve returns
//! a typed [`omen_num::OmenError`] (after the lower-level recovery policies are
//! exhausted) is dropped from the grid and recorded in the result's
//! [`SweepReport`] instead of aborting the bias point.
//!
//! Every energy loop here is one body, `solve_problems`: a list of sweep
//! problems — a momentum slot, its lead pair, its grid and its device — is
//! one contact fill ([`ContactTable`]) and one fan-out over every
//! `(problem, E)`, each problem handed on in order as its last energy
//! arrives. A bias point's momenta ([`ballistic_solve`]), a frozen sweep's
//! gate points, each adaptive round and [`solve_sweep`] are its callers.
//!
//! A curve assembles its device Hamiltonian once per momentum: the
//! curve's [`ContactTable`] keeps `H₀ = H(V = 0)` per `k_y`, and every
//! solve here hands the engines `H₀` and the potential energy `−v` per
//! orbital, which they add where they form `A`
//! (`omen_negf::rgf::a_diagonal`). `omen_tb`'s `H(V) = H₀ ⊕ V` makes that
//! the folded `H(V)` bit for bit, so [`solve_point`] on
//! `parallel::frozen_system`'s `H` replays any point here exactly.

use crate::contacts::{ContactTable, ContactTally, LeadKey};
use crate::energy::{clip, EnergyWindow};
use crate::spec::{Bias, NanoTransistor};
use omen_linalg::threads::{fan_out_each, fan_out_width};
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
    /// Serial tree-structured selected inversion (the same result surface
    /// as RGF): the independently derived third engine of the oracle and
    /// three-engine batteries, not a fast path.
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

/// The potential energy `−v_atoms[a]` on each orbital of atom `a`: what
/// `parallel::frozen_system` folds into `H` and what the engines add to
/// `H₀` where they form `A`.
fn orbital_potential(tr: &NanoTransistor, v_atoms: &[f64]) -> Vec<f64> {
    let per = tr.hamiltonian().orbitals_per_atom();
    let spread = |&v: &f64| std::iter::repeat_n(-v, per);
    v_atoms.iter().flat_map(spread).collect()
}

/// The lead blocks at a potential: the source lead as every frozen-potential
/// driver builds it, and the drain lead pinned to its own terminal slab.
fn leads_at(tr: &NanoTransistor, v_atoms: &[f64], ky: f64) -> [ZMat; 4] {
    let ham = tr.hamiltonian();
    let last = tr.device.num_slabs - 1;
    let (h00_l, h01_l) = ham.lead_blocks(-tr.slab_mean_potential(v_atoms, 0), ky);
    let (h00_r, h01_r) = ham.lead_blocks(-tr.slab_mean_potential(v_atoms, last), ky);
    [h00_l, h01_l, h00_r, h01_r]
}

/// The transport energy window from the lead subbands around the contact
/// Fermi levels (electron side above the device midgap, hole side below).
/// The subbands come from momentum slot `k` of `table`, which diagonalises
/// a lead pair it does not hold and assembles the `H₀` of `ky` it lacks.
fn window_at(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    (k, ky): (usize, f64),
    leads: &[ZMat; 4],
    table: &mut ContactTable,
) -> EnergyWindow {
    assert_eq!(v_atoms.len(), tr.device.num_atoms());
    let mus = [bias.mu_source, bias.mu_drain()];
    // Focus windows around the (potential-shifted) band structure: electron
    // window above local midgap, hole window below; take a generous range.
    let mid_lo = tr.e_midgap - v_atoms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mid_hi = tr.e_midgap - v_atoms.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = 30.0 * tr.kt;
    clip(
        table.bands(k, leads.each_ref(), &tr.hamiltonian(), ky),
        &mus,
        tr.kt,
        12.0,
        (
            mid_lo.min(mus[0].min(mus[1]) - span),
            mid_hi.max(mus[0].max(mus[1]) + span),
        ),
    )
}

/// One bias point's ballistic transport: the `(k_y, weight)` average over
/// `ks` of one energy sweep per momentum. The i-th momentum takes its
/// leads' bands and contacts from slot i of the curve's `table`, so a lead
/// pair that repeats at that position across the curve is diagonalised
/// and decimated once, and its device operator is the table's `H₀` at
/// `k_y` with the potential added where the engines form `A`, so the
/// curve assembles `H` once per momentum. `v_atoms` is the potential per
/// atom (V); each lead is pinned to its terminal slab's mean potential, and
/// each k's window follows its lead subbands around the Fermi levels. The
/// momenta are the problems of one `solve_problems`: one contact fill and
/// one fan-out over every `(k, E)`.
///
/// Each k is folded in as it is handed on: the first scaled in place and
/// each later one added as `+= w·x` in list order, so `[(k_y, 1.0)]` is
/// the one-k solve bit for bit.
/// `T(E)` averages only when every k shares one grid (the window follows
/// the k-resolved subbands); otherwise it is the first k's, unweighted.
///
/// # Panics
///
/// When `ks` is empty.
pub fn ballistic_solve(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_energy: usize,
    ks: &[(f64, f64)],
    table: &mut ContactTable,
) -> BallisticResult {
    let points: Vec<_> = (ks.iter().enumerate())
        .map(|(k, &(ky, _))| (v_atoms, bias, (k, ky)))
        .collect();
    let (mut acc, mut first_trace, mut shared_grid) = (None, Vec::new(), true);
    ballistic_points(tr, &points, engine, n_energy, table, |k, mut r, _| {
        let w = ks[k].1;
        let Some(acc) = &mut acc else {
            first_trace = r.transmission.clone();
            r.current_ua *= w;
            let densities = r.electron_density.iter_mut().chain(&mut r.hole_density);
            densities.chain(&mut r.transmission).for_each(|v| *v *= w);
            acc = Some(r);
            return;
        };
        acc.report.merge(&r.report);
        acc.current_ua += w * r.current_ua;
        shared_grid &= acc.energies == r.energies;
        let n = acc.electron_density.iter_mut().zip(&r.electron_density);
        let p = acc.hole_density.iter_mut().zip(&r.hole_density);
        let t = acc.transmission.iter_mut().zip(&r.transmission);
        n.chain(p).chain(t).for_each(|(x, y)| *x += w * y);
    });
    let mut acc = acc.expect("a momentum list is never empty");
    if !shared_grid {
        acc.transmission = first_trace;
    }
    acc
}

/// The bias problems `(v_atoms, bias, (k, k_y))`, each on slot `k` of
/// `table` with its leads pinned to `v_atoms`' terminal slabs and its grid
/// of `n_energy` points on its window, solved by one `solve_problems`:
/// `done(i, result, tally)` receives problem i integrated — the one-k
/// [`ballistic_solve`] of its potential and bias on a fresh slot, bit for
/// bit — and the contacts it decimated and reused, in problem order, as
/// soon as its last energy is in. This serves a bias point's momenta and a
/// frozen sweep's gate points (`iv::frozen_field_sweep_observed`, every
/// point on slot 0 at `k_y = 0`).
///
/// Every window is worked out before the fill. Consecutive problems whose
/// leads compare equal (the gate points of a frozen sweep, whose extensions
/// keep their potential) share one copy of them.
pub(crate) fn ballistic_points(
    tr: &NanoTransistor,
    points: &[(&[f64], &Bias, (usize, f64))],
    engine: Engine,
    n_energy: usize,
    table: &mut ContactTable,
    mut done: impl FnMut(usize, BallisticResult, ContactTally),
) {
    let mut leads: Vec<[ZMat; 4]> = Vec::new();
    let mut lead_of = Vec::with_capacity(points.len());
    for &(v_atoms, _, (_, ky)) in points {
        let pair = leads_at(tr, v_atoms, ky);
        if leads.last() != Some(&pair) {
            leads.push(pair);
        }
        lead_of.push(leads.len() - 1);
    }
    let windows: Vec<EnergyWindow> = (points.iter().zip(&lead_of))
        .map(|(&(v_atoms, bias, kk), &j)| window_at(tr, v_atoms, bias, kk, &leads[j], table))
        .collect();
    let potentials: Vec<Vec<f64>> = (points.iter())
        .map(|&(v_atoms, _, _)| orbital_potential(tr, v_atoms))
        .collect();
    let problems: Vec<Problem<'_>> = (points.iter().zip(&lead_of))
        .zip(windows.iter().zip(&potentials))
        .map(|((&(_, _, (k, ky)), &j), (window, potential))| Problem {
            k,
            leads: leads[j].each_ref(),
            grid: window.grid(n_energy),
            device: Device::Curve(ky, potential),
        })
        .collect();
    solve_problems(&problems, engine, table, |i, sweep, tally| {
        let (v_atoms, bias, _) = points[i];
        let (kept, solved, report) = sweep.into_parts();
        let r = integrate(tr, bias, v_atoms, &kept, solved, &windows[i], report);
        done(i, r, tally);
    });
}

/// The device of a sweep problem.
enum Device<'a> {
    /// The curve table's `H₀` at `k_y`, and the potential energy per
    /// orbital the engines add to it where they form `A`.
    Curve(f64, &'a [f64]),
    /// A whole `H`, with no potential.
    Given(&'a BlockTridiag),
    /// A whole `H` that counts the units solved on it.
    #[cfg(test)]
    Counted(&'a BlockTridiag, &'a std::sync::atomic::AtomicUsize),
}

/// One energy sweep: momentum slot `k` keyed on `leads`, the energies of
/// `grid`, and the device they are solved on.
struct Problem<'a> {
    k: usize,
    leads: LeadKey<'a>,
    grid: Vec<f64>,
    device: Device<'a>,
}

/// The one sweep body: solves every `(problem, E)` on the contacts of its
/// slot and hands `done(i, sweep, tally)` problem i's [`Sweep`] and the
/// contacts its energies decimated and reused, in problem order, on the
/// calling thread, as soon as its last energy is in (a problem without
/// energies as soon as the ones before it are).
///
/// The problems are solved in runs: a run ends where a problem would re-key
/// a slot that an earlier problem of the run holds with other leads. Each
/// run is one [`ContactTable::fill_serial`] of its `(slot, leads, grid)`
/// entries, whose tallies read as if the problems had been filled one
/// after the other, then one [`fan_out_each`] over every `(problem, E)` on
/// the budget's cores ([`fan_out_width`]). Outcomes arrive in unit order
/// and are recorded on the calling thread, so every width gives the same
/// bits; only the problem being collected keeps its points, beside the
/// fan-out's out-of-order buffer.
fn solve_problems(
    problems: &[Problem<'_>],
    engine: Engine,
    table: &mut ContactTable,
    mut done: impl FnMut(usize, Sweep, ContactTally),
) {
    let mut first = 0;
    while first < problems.len() {
        let mut end = first;
        // The lead pair each slot of the run is keyed on.
        let mut held: Vec<(usize, LeadKey<'_>)> = Vec::new();
        while let Some(p) = problems.get(end) {
            match held.iter().find(|&&(k, _)| k == p.k) {
                Some(&(_, leads)) if leads != p.leads => break,
                Some(_) => {}
                None => held.push((p.k, p.leads)),
            }
            end += 1;
        }
        let run = &problems[first..end];
        let entries: Vec<_> = run.iter().map(|p| (p.k, p.leads, &p.grid[..])).collect();
        let tallies = table.fill_serial(&entries);
        let table = &*table;
        // Unit u is energy u − starts[p] of problem p.
        let starts: Vec<usize> = (run.iter())
            .scan(0, |at, p| Some(std::mem::replace(at, *at + p.grid.len())))
            .collect();
        let units = run.iter().map(|p| p.grid.len()).sum();
        let unit = |u: usize| {
            let p = starts.partition_point(|&s| s <= u) - 1;
            (p, run[p].grid[u - starts[p]])
        };
        let mut next = 0;
        let mut hand_on = |sweep: &mut Sweep| {
            while next < run.len() && sweep.report.attempted() == run[next].grid.len() {
                done(first + next, std::mem::take(sweep), tallies[next]);
                next += 1;
            }
        };
        let mut sweep = Sweep::default();
        hand_on(&mut sweep);
        fan_out_each(
            units,
            fan_out_width(units),
            |u| {
                let (p, e) = unit(u);
                let (h, potential) = match &run[p].device {
                    Device::Curve(ky, potential) => (table.hamiltonian(*ky), *potential),
                    Device::Given(h) => (*h, &[][..]),
                    #[cfg(test)]
                    Device::Counted(h, solved) => {
                        solved.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                        (*h, &[][..])
                    }
                };
                let point = |(sl, sr)| engine_point(e, h, potential, &sl, &sr, engine);
                table.contacts(run[p].k, e).and_then(point)
            },
            |u, solved| {
                sweep.record(unit(u).1, solved);
                hand_on(&mut sweep);
            },
        );
        first = end;
    }
}

/// A sweep's surviving energies and points and its ledger, recorded in
/// energy order.
#[derive(Default)]
struct Sweep {
    kept: Vec<f64>,
    points: Vec<EnergyPointData>,
    report: SweepReport,
}

impl Sweep {
    /// Records one energy's outcome: a point whose lead or engine exhausted
    /// its recovery policy is dropped and recorded in the report.
    fn record(&mut self, e: f64, solved: OmenResult<EnergyPointData>) {
        match solved {
            Ok(p) => {
                self.report.record_solved(p.retries);
                self.kept.push(e);
                self.points.push(p);
            }
            Err(err) => self.report.record_failed(e, err),
        }
    }

    /// The surviving energies, their points and the ledger.
    fn into_parts(self) -> (Vec<f64>, Vec<EnergyPointData>, SweepReport) {
        (self.kept, self.points, self.report)
    }
}

/// `solve_problems` of one problem.
fn solve_one(problem: Problem<'_>, engine: Engine, table: &mut ContactTable) -> Sweep {
    let mut out = Sweep::default();
    solve_problems(&[problem], engine, table, |_, sweep, _| out = sweep);
    out
}

/// The energy loop of one device: fills slot 0 of `contacts` for the
/// grid, then solves every energy on the contacts it reads there, on the
/// calling thread and the idle cores of its budget ([`fan_out_width`]),
/// like the fill — the one-problem `solve_problems`. Per-point failure
/// isolation: a point whose lead or engine exhausts its recovery policy is
/// dropped and recorded in the [`SweepReport`]; the surviving
/// `(energies, points)` stay aligned. Outcomes come back in energy order
/// and are recorded on the calling thread, so every width gives the same
/// bits. A table kept across calls decimates only the `(lead, E)` it lacks.
pub fn solve_sweep(
    energies: &[f64],
    h: &BlockTridiag,
    lead_l: (&ZMat, &ZMat),
    lead_r: (&ZMat, &ZMat),
    engine: Engine,
    contacts: &mut ContactTable,
) -> (Vec<f64>, Vec<EnergyPointData>, SweepReport) {
    let problem = Problem {
        k: 0,
        leads: [lead_l.0, lead_l.1, lead_r.0, lead_r.1],
        grid: energies.to_vec(),
        device: Device::Given(h),
    };
    solve_one(problem, engine, contacts).into_parts()
}

/// Adaptive-grid ballistic solve: starts from `n_init` uniform energy
/// points and inserts midpoints where the current integrand
/// `T(E)·(f_L − f_R)` deviates from local linearity by more than `tol`
/// (relative to its maximum), until no interval is flagged or `max_points`
/// is reached. Resonances and subband onsets get resolved without paying
/// for a uniformly fine grid — the production energy-grid strategy of
/// adaptive quantum-transport codes.
///
/// The seed grid, then each round's midpoints, is one problem of the sweep
/// body on slot 0 of the curve's `table`, on its `H₀` at `ky`; a failed
/// energy is recorded and left out of the grid, so refinement only ever
/// works on solved intervals.
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
    table: &mut ContactTable,
) -> BallisticResult {
    assert!(n_init >= 5 && max_points >= n_init);
    let leads = leads_at(tr, v_atoms, ky);
    let window = window_at(tr, v_atoms, bias, (0, ky), &leads, table);
    let potential = orbital_potential(tr, v_atoms);
    let mut sweep = |grid: Vec<f64>| {
        let problem = Problem {
            k: 0,
            leads: leads.each_ref(),
            grid,
            device: Device::Curve(ky, &potential),
        };
        solve_one(problem, engine, table)
    };
    let (mut energies, mut points, mut report) = sweep(window.grid(n_init)).into_parts();
    let (mu_s, mu_d) = (bias.mu_source, bias.mu_drain());
    for _round in 0..8 {
        // Fewer than two survivors define no interval to refine.
        if energies.len() < 2 || energies.len() >= max_points {
            break;
        }
        let f: Vec<f64> = energies
            .iter()
            .zip(&points)
            .map(|(&e, p)| p.transmission * (fermi(e, mu_s, tr.kt) - fermi(e, mu_d, tr.kt)))
            .collect();
        let mut grid = omen_num::grid::AdaptiveGrid::from_points(energies.clone());
        let inserted = grid.refine(&f, tol);
        if inserted.is_empty() {
            break;
        }
        let midpoints: Vec<f64> = inserted.iter().map(|&i| grid.points()[i]).collect();
        let (solved, fresh, round) = sweep(midpoints).into_parts();
        report.merge(&round);
        let mut merged: Vec<_> = energies.into_iter().zip(points).collect();
        merged.extend(solved.into_iter().zip(fresh));
        merged.sort_by(|a, b| a.0.total_cmp(&b.0));
        (energies, points) = merged.into_iter().unzip();
    }
    integrate(tr, bias, v_atoms, &energies, points, &window, report)
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
    engine_point(e, h, &[], &sigma_l, &sigma_r, engine)
}

/// The second stage of [`solve_point`]: one energy point on contacts the
/// caller already holds — the one place an [`Engine`] is dispatched. `h`
/// is `H₀` and `potential` the potential energy per orbital the engine adds
/// where it forms `A` (`omen_negf::rgf::a_diagonal`); an empty potential
/// takes `h` as the whole device Hamiltonian.
///
/// # Errors
///
/// The engine's [`omen_num::OmenError::SingularBlock`], stamped with the
/// energy.
pub fn engine_point(
    e: f64,
    h: &BlockTridiag,
    potential: &[f64],
    sigma_l: &ContactSelfEnergy,
    sigma_r: &ContactSelfEnergy,
    engine: Engine,
) -> OmenResult<EnergyPointData> {
    let (v, sl, sr) = (potential, sigma_l, sigma_r);
    match engine {
        Engine::Rgf => omen_negf::rgf_point(e, DEFAULT_ETA, h, v, sl, sr),
        Engine::WfThomas => omen_wf::wf_point(e, DEFAULT_ETA, h, v, sl, sr, Solver::Thomas),
        Engine::WfBcr => omen_wf::wf_point(e, DEFAULT_ETA, h, v, sl, sr, Solver::Bcr),
        Engine::SelInv => omen_negf::selinv_point(e, DEFAULT_ETA, h, v, sl, sr),
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
    (BlockTridiag::from_dense(diag, hop.clone(), hop), z(), t())
}

/// One k on a fresh table: the cold solve a remembered one must equal.
#[cfg(test)]
pub(crate) fn cold(
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_energy: usize,
    ky: f64,
) -> BallisticResult {
    let ks = [(ky, 1.0)];
    ballistic_solve(
        tr,
        v_atoms,
        bias,
        engine,
        n_energy,
        &ks,
        &mut ContactTable::default(),
    )
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

    /// Every bit of a sweep: the kept grid, each point's fields and the
    /// report.
    fn sweep_bits(
        (energies, points, report): (Vec<f64>, Vec<EnergyPointData>, SweepReport),
    ) -> (Vec<u64>, String) {
        let mut bits: Vec<u64> = energies.iter().map(|e| e.to_bits()).collect();
        for p in &points {
            bits.extend([
                p.energy.to_bits(),
                p.transmission.to_bits(),
                p.retries as u64,
            ]);
            for v in [&p.ldos, &p.spectral_left_diag, &p.spectral_right_diag] {
                bits.extend(v.iter().map(|x| x.to_bits()));
            }
        }
        (bits, format!("{report:?}"))
    }

    #[test]
    fn every_point_width_gives_the_same_sweep() {
        use omen_linalg::threads::{fan_out_spawned, with_budget};
        use omen_num::linspace;
        // The README wire under a barrier, and a chain with one exactly
        // singular pivot at E = 0: WF drops that point, RGF and SelInv
        // recover it.
        let tr = flat_device();
        let barrier: Vec<f64> = tr
            .device
            .atoms
            .iter()
            .map(|a| if a.slab == 3 { -0.2 } else { 0.0 })
            .collect();
        let (wire, w0, w1) = crate::parallel::frozen_system(&tr, &barrier, 0.0);
        let (chain, c0, c1) = severed_chain(5, &[(2, 0.0)], &[1, 2]);
        let cases = [
            (&wire, (&w0, &w1), linspace(-3.45, -2.65, 7)),
            (&chain, (&c0, &c1), linspace(-0.5, 0.5, 5)),
        ];
        let engines = [Engine::Rgf, Engine::WfThomas, Engine::WfBcr, Engine::SelInv];
        // A sweep on a fresh table on `cores` cores: the budget picks the
        // width of the fill and of the points.
        let sweep = |energies: &[f64], h, lead, engine, cores| {
            let mut table = ContactTable::default();
            with_budget(cores, || {
                sweep_bits(solve_sweep(energies, h, lead, lead, engine, &mut table))
            })
        };
        for (h, lead, energies) in &cases {
            for engine in engines {
                let spawned = fan_out_spawned();
                let want = sweep(energies, h, *lead, engine, 1);
                assert_eq!(fan_out_spawned(), spawned, "{engine:?} on budget 1");
                for cores in [2, 3] {
                    let got = sweep(energies, h, *lead, engine, cores);
                    assert_eq!(got, want, "{engine:?} on budget {cores}");
                }
            }
        }
        // The default environment fans out: a budget of two fills the
        // three energies' contacts on two threads and solves the three
        // points on two, one worker each.
        let before = fan_out_spawned();
        sweep(
            &linspace(-3.45, -2.65, 3),
            &wire,
            (&w0, &w1),
            Engine::Rgf,
            2,
        );
        assert_eq!(fan_out_spawned() - before, 2, "fill and points on budget 2");
        // The chain's singular point is isolated, not the sweep failed.
        let energies = &cases[1].2;
        let mut table = ContactTable::default();
        let lead = (&c0, &c1);
        let (_, _, report) = with_budget(3, || {
            solve_sweep(energies, &chain, lead, lead, Engine::WfThomas, &mut table)
        });
        assert_eq!((report.solved, report.failed.len()), (4, 1));
        assert_eq!(report.failed[0].energy, 0.0);
    }

    #[test]
    fn a_list_of_problems_is_its_problems_solved_one_by_one() {
        use omen_linalg::threads::with_budget;
        use omen_num::linspace;
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
        // Chain problems on two slots with two lead pairs, three without
        // energies (first, mid-list and last), in an order that re-keys
        // slot 0 mid-list (a second run). Each is handed on in order, on
        // every budget, with the sweep and tally it gets alone after the
        // problems before it.
        let (h, a0, a1) = severed_chain(5, &[(2, 0.0)], &[1, 2]);
        let (b0, b1) = (
            a0.clone(),
            ZMat::from_vec(1, 1, vec![omen_num::c64::real(-0.9)]),
        );
        let (a, b) = ([&a0, &a1, &a0, &a1], [&b0, &b1, &a0, &a1]);
        let list = [
            (1, b, vec![]),
            (0, a, linspace(-0.5, 0.5, 5)),
            (1, b, linspace(-0.4, 0.4, 3)),
            (0, a, vec![]),
            (0, a, linspace(-0.5, 0.5, 9)),
            (0, b, linspace(-0.5, 0.5, 3)),
            (0, b, vec![]),
        ];
        // Each slot's problems in order through `solve_sweep`, whose
        // slot 0 stands for that slot on a table of its own.
        let per_slot = |slot: usize| {
            let mut table = ContactTable::default();
            (list.iter().enumerate())
                .filter(|(_, p)| p.0 == slot)
                .map(|(i, (_, [l0, l1, r0, r1], grid))| {
                    let s = solve_sweep(grid, &h, (l0, l1), (r0, r1), Engine::Rgf, &mut table);
                    (i, sweep_bits(s), table.take_tally())
                })
                .collect::<Vec<_>>()
        };
        let mut want = [per_slot(0), per_slot(1)].concat();
        want.sort_by_key(|w| w.0);
        for cores in 1..=3 {
            let solved = AtomicUsize::new(0);
            let problems: Vec<Problem<'_>> = (list.iter())
                .map(|(k, leads, grid)| Problem {
                    k: *k,
                    leads: *leads,
                    grid: grid.clone(),
                    device: Device::Counted(&h, &solved),
                })
                .collect();
            let mut table = ContactTable::default();
            let mut got = Vec::new();
            with_budget(cores, || {
                solve_problems(&problems, Engine::Rgf, &mut table, |i, s, tally| {
                    // Problem i is handed on once its units are solved. On
                    // one core no unit of a later problem is solved yet, so
                    // problem i's points are all that is held; wider, the
                    // workers may have run ahead into the fan-out's
                    // out-of-order buffer, by as many units as the calling
                    // thread's own unit took them.
                    let through: usize = list[..=i].iter().map(|p| p.2.len()).sum();
                    let now = solved.load(SeqCst);
                    assert!(now >= through, "budget {cores}, problem {i}");
                    if cores == 1 {
                        assert_eq!(now, through, "problem {i}");
                    }
                    got.push((i, sweep_bits(s.into_parts()), tally))
                })
            });
            assert_eq!(got, want, "budget {cores}");
            let units: usize = list.iter().map(|p| p.2.len()).sum();
            assert_eq!(solved.load(SeqCst), units, "budget {cores}");
        }
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
        let rgf = cold(&tr, &v, &bias, Engine::Rgf, 25, 0.0);
        let wf = cold(&tr, &v, &bias, Engine::WfThomas, 25, 0.0);
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
        let r = cold(&tr, &v, &bias, Engine::Rgf, 21, 0.0);
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
        let i_lo = cold(&tr, &v, &lo, Engine::Rgf, 31, 0.0).current_ua;
        let i_hi = cold(&tr, &v, &hi, Engine::Rgf, 31, 0.0).current_ua;
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
        let i_flat = cold(&tr, &flat, &bias, Engine::Rgf, 31, 0.0).current_ua;
        let i_barrier = cold(&tr, &barrier, &bias, Engine::Rgf, 31, 0.0).current_ua;
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
        let fine = cold(&tr, &v, &bias, Engine::WfThomas, 201, 0.0);
        let mut table = ContactTable::default();
        let adaptive = ballistic_solve_adaptive(
            &tr,
            &v,
            &bias,
            Engine::WfThomas,
            15,
            120,
            5e-3,
            0.0,
            &mut table,
        );
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
        let grid = momentum_grid(&tr, 2);
        let mut table = ContactTable::default();
        let avg = ballistic_solve(&tr, &v, &bias, Engine::WfThomas, 21, &grid, &mut table);
        let manual: f64 = grid
            .iter()
            .map(|&(ky, w)| w * cold(&tr, &v, &bias, Engine::WfThomas, 21, ky).current_ua)
            .sum();
        // The same products summed in the same order.
        assert_eq!(avg.current_ua.to_bits(), manual.to_bits());
        assert!(avg.current_ua > 0.0);
        // The windows follow the k-resolved subbands, so the two grids
        // differ at equal length: T(E) must be the first k-point's trace on
        // its own grid, not an index-wise blend across mismatched energies.
        let first = cold(&tr, &v, &bias, Engine::WfThomas, 21, grid[0].0);
        let second = cold(&tr, &v, &bias, Engine::WfThomas, 21, grid[1].0);
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
            &mut ContactTable::default(),
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
        let (kept, _, report) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::Rgf,
            &mut ContactTable::default(),
        );
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
            &mut ContactTable::default(),
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
            &mut ContactTable::default(),
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
        let (kept_rgf, _, rep_rgf) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::Rgf,
            &mut ContactTable::default(),
        );
        let (kept_si, _, rep_si) = solve_sweep(
            &energies,
            &h,
            (&h00, &h01),
            (&h00, &h01),
            Engine::SelInv,
            &mut ContactTable::default(),
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
        // The README wire at three gate points through one `ContactTable`,
        // as `frozen_field_sweep_observed` threads it: every point's current
        // and report are the cold solve's bits.
        let tr = flat_device();
        let (vgs, v_ds, mu_source, n_energy) = ([-0.1, 0.0, 0.1], 0.15, -3.45, 21);
        let mut table = ContactTable::default();
        let mut grid = None;
        for &v_gate in &vgs {
            let v_atoms = crate::iv::frozen_potential(&tr, v_gate);
            let bias = Bias {
                v_gate,
                v_ds,
                mu_source,
            };
            let gamma = [(0.0, 1.0)];
            let got = ballistic_solve(
                &tr,
                &v_atoms,
                &bias,
                Engine::Rgf,
                n_energy,
                &gamma,
                &mut table,
            );
            let want = cold(&tr, &v_atoms, &bias, Engine::Rgf, n_energy, 0.0);
            assert_eq!(got.current_ua.to_bits(), want.current_ua.to_bits());
            assert_eq!(got.report, want.report);
            // One grid for every gate point: the window does not move.
            assert_eq!(grid.get_or_insert(got.energies.clone()), &got.energies);
        }
        // The first gate point decimates the grid, the others reuse it.
        let tally = table.take_tally();
        assert_eq!(tally.decimated, n_energy);
        assert_eq!(tally.reused, (vgs.len() - 1) * n_energy);

        // What a hit serves is a cold `local_contacts` entry for entry —
        // the exact zeros off Σ's support included, which the decimation's
        // products leave as `+0.0`, the value the scatter writes.
        let leads = leads_at(&tr, &vec![0.0; tr.device.num_atoms()], 0.0);
        let [h00_l, h01_l, h00_r, h01_r] = &leads;
        let (lead_l, lead_r) = ((h00_l, h01_l), (h00_r, h01_r));
        let raw = |m: &ZMat| -> Vec<(u64, u64)> {
            m.data()
                .iter()
                .map(|z| (z.re.to_bits(), z.im.to_bits()))
                .collect()
        };
        let grid = grid.unwrap();
        table.fill_serial(&[(0, leads.each_ref(), &grid)]);
        for &e in &grid {
            let (hl, hr) = table.contacts(0, e).unwrap();
            let (cl, cr) = omen_negf::local_contacts(e, DEFAULT_ETA, lead_l, lead_r).unwrap();
            for (hit, cold) in [(&hl, &cl), (&hr, &cr)] {
                assert_eq!((hit.side, hit.retries), (cold.side, cold.retries));
                assert!(hit.sigma.support().len() < hit.sigma.nrows(), "Σ is packed");
                assert_eq!(raw(&hit.sigma), raw(&cold.sigma), "E={e}: Σ");
                assert_eq!(raw(&hit.gamma), raw(&cold.gamma), "E={e}: Γ");
            }
        }
        assert_eq!(table.take_tally().reused, n_energy);
    }

    /// The README wire: the single-band 1 nm nanowire, 8 slabs, undoped.
    fn readme_wire() -> NanoTransistor {
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, 8);
        spec.doping_sd = 0.0;
        spec.build()
    }

    #[test]
    fn adaptive_points_are_one_point_solves_bit_for_bit() {
        // Seed grid and rounds read their contacts from one table: every
        // returned energy carries `solve_point`'s transmission to the bit,
        // and the report accounts for every energy the rounds attempted.
        let tr = readme_wire();
        let v = vec![0.0; tr.device.num_atoms()];
        let bias = Bias {
            v_gate: 0.0,
            v_ds: 0.25,
            mu_source: -3.4,
        };
        let engine = Engine::WfThomas;
        let mut table = ContactTable::default();
        let r = ballistic_solve_adaptive(&tr, &v, &bias, engine, 11, 200, 5e-3, 0.0, &mut table);
        assert!(
            r.energies.len() > 11,
            "refined: {} points",
            r.energies.len()
        );
        assert_eq!(r.transmission.len(), r.energies.len());
        assert_eq!(
            r.report.attempted(),
            r.energies.len() + r.report.failed.len()
        );
        // `solve_point` on the folded `H(V)` the replay assembles: the
        // engines' `H₀ ⊕ V` is its bits.
        let [h00_l, h01_l, h00_r, h01_r] = &leads_at(&tr, &v, 0.0);
        let (lead_l, lead_r) = ((h00_l, h01_l), (h00_r, h01_r));
        let (h, _, _) = crate::parallel::frozen_system(&tr, &v, 0.0);
        for (&e, t) in r.energies.iter().zip(&r.transmission) {
            let cold = solve_point(e, &h, lead_l, lead_r, engine).unwrap();
            assert_eq!(t.to_bits(), cold.transmission.to_bits(), "E={e}");
        }
    }

    #[test]
    fn a_biased_drain_solve_is_its_one_point_solves_integrated() {
        // Unequal leads, the shape every SCF point has: the table's two
        // single decimations per energy are `solve_point`'s, so the solve
        // is the per-point composition under `to_bits`.
        let tr = readme_wire();
        let bias = Bias {
            v_gate: 0.05,
            v_ds: 0.2,
            mu_source: -3.3,
        };
        // The gate's frozen field, and the drain extension at the drain's
        // potential rather than the source's.
        let drain = tr.spec.num_slabs - tr.spec.drain_slabs;
        let gated = crate::iv::frozen_potential(&tr, bias.v_gate);
        let v: Vec<f64> = (tr.device.atoms.iter().zip(gated))
            .map(|(a, v)| if a.slab >= drain { bias.v_ds } else { v })
            .collect();
        let (engine, n_energy) = (Engine::Rgf, 21);
        let got = cold(&tr, &v, &bias, engine, n_energy, 0.0);
        let leads = leads_at(&tr, &v, 0.0);
        let window = window_at(
            &tr,
            &v,
            &bias,
            (0, 0.0),
            &leads,
            &mut ContactTable::default(),
        );
        let [h00_l, h01_l, h00_r, h01_r] = &leads;
        assert_ne!(h00_l, h00_r, "the drain lead is shifted");
        let (lead_l, lead_r) = ((h00_l, h01_l), (h00_r, h01_r));
        let (h, _, _) = crate::parallel::frozen_system(&tr, &v, 0.0);
        let energies = window.grid(n_energy);
        let mut report = SweepReport::default();
        let points: Vec<_> = energies
            .iter()
            .map(|&e| solve_point(e, &h, lead_l, lead_r, engine).unwrap())
            .inspect(|p| report.record_solved(p.retries))
            .collect();
        let want = integrate(&tr, &bias, &v, &energies, points, &window, report);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(got.current_ua.to_bits(), want.current_ua.to_bits());
        assert_eq!(bits(&got.energies), bits(&want.energies));
        assert_eq!(bits(&got.transmission), bits(&want.transmission));
        assert_eq!(bits(&got.electron_density), bits(&want.electron_density));
        assert_eq!(bits(&got.hole_density), bits(&want.hole_density));
        assert_eq!(got.report, want.report);
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
        let r = cold(&tr, &v, &bias, Engine::Rgf, 31, 0.0);
        assert!(r.electron_density.iter().all(|&n| n >= -1e-12));
        assert!(r.hole_density.iter().all(|&p| p >= -1e-12));
        // With mu_d lower, drain side holds less electron charge.
        let offsets = tr.device.slab_offsets();
        let n_src: f64 = r.electron_density[offsets[0]..offsets[1]].iter().sum();
        let n_drn: f64 = r.electron_density[offsets[5]..offsets[6]].iter().sum();
        assert!(n_src > n_drn, "source {n_src} vs drain {n_drn}");
    }
}
