//! The sweep drivers, replayed from outside through the layers' public
//! functions with a span around each call.
//!
//! `gate_sweep` / `frozen_field_sweep` are opaque to a caller, so the
//! per-layer split comes from repeating what they do — same calls, same
//! order, same arguments — and checking that the currents come out
//! bit-identical to the driver's. The control flow below therefore mirrors
//! `omen_core::scf::self_consistent_banked` (static schedule) and
//! `omen_core::ballistic::prepare_transport`; if those change, the
//! bit-identity check fails and this file has to follow.

use crate::trace::{Key, Tracer};
use omen_core::ballistic::{integrate, solve_point, BallisticResult};
use omen_core::energy::transport_window;
use omen_core::iv::IvPoint;
use omen_core::{Bias, Engine, NanoTransistor, ScfOptions};
use omen_linalg::ZMat;
use omen_negf::transport::{EnergyPointData, DEFAULT_ETA};
use omen_negf::{ContactSelfEnergy, Side};
use omen_num::SweepReport;
use omen_serve::{Mode, SweepRequest};
use omen_sparse::BlockTridiag;
use std::collections::HashSet;

/// Span names. `CONTACTS` is the one span that is *not* part of the
/// replayed flow: the engines decimate their leads internally, so after the
/// replay [`contacts_pass`] times an identical-input decimation for every
/// `solve_point` the replay made, and the engine's own time is the
/// difference. A pass of its own, so the flow under `ROOT` allocates and
/// computes exactly what the driver does: a sweep's energies and lead
/// blocks are handed to the ledger where the driver drops them — a move,
/// nothing copied.
pub const ROOT: &str = "replay";
pub const CONTACTS_ROOT: &str = "contacts";
pub const BUILD: &str = "core.build";
pub const ASSEMBLE: &str = "tb.assemble";
pub const LEAD_BLOCKS: &str = "tb.lead_blocks";
pub const WINDOW: &str = "core.window";
pub const CONTACTS: &str = "negf.contacts";
pub const SOLVE_POINT: &str = "core.solve_point";
pub const INTEGRATE: &str = "core.integrate";
pub const SAMPLE: &str = "poisson.sample";
pub const DEPOSIT: &str = "poisson.deposit";
pub const POISSON: &str = "poisson.solve";

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Ledger {
    pub scf_iters: usize,
    pub report: SweepReport,
    pub unconverged: usize,
    pub contact_calls: usize,
    pub contact_retries: usize,
    /// Distinct `(k, E bits, lead-shift bits, side)` decimations: what a
    /// memo keyed on exact inputs would have to compute.
    contact_keys: HashSet<(i32, u64, u64, bool)>,
    sweeps: Vec<SweepNote>,
}

/// One lead as the engines took it: `(h00, h01)` and the rigid potential
/// shift that produced the blocks (the identity of the decimation).
pub type NotedLead = (ZMat, ZMat, f64);

/// What one traced energy sweep made the engines decimate.
struct SweepNote {
    key: Key,
    energies: Vec<f64>,
    /// Left, right.
    leads: [NotedLead; 2],
}

impl Ledger {
    pub fn note_sweep(&mut self, key: Key, energies: Vec<f64>, leads: [NotedLead; 2]) {
        self.sweeps.push(SweepNote {
            key,
            energies,
            leads,
        });
    }

    pub fn contacts_distinct_fraction(&self) -> f64 {
        if self.contact_calls == 0 {
            0.0
        } else {
            self.contact_keys.len() as f64 / self.contact_calls as f64
        }
    }
}

/// Decimates every lead the noted sweeps' `solve_point` calls decimated,
/// one span each, outside the replayed flow.
pub fn contacts_pass(tc: &mut Tracer, lg: &mut Ledger) {
    let root = tc.begin(CONTACTS_ROOT, Key::NONE);
    for sweep in &lg.sweeps {
        for (ie, &e) in sweep.energies.iter().enumerate() {
            let key = sweep.key.at_e(ie);
            for ((h00, h01, shift), side) in sweep.leads.iter().zip([Side::Left, Side::Right]) {
                lg.contact_keys
                    .insert((key.k, e.to_bits(), shift.to_bits(), side == Side::Left));
                let s = tc.begin(CONTACTS, key);
                let done = ContactSelfEnergy::compute(e, DEFAULT_ETA, h00, h01, side);
                tc.end(s);
                lg.contact_calls += 1;
                lg.contact_retries += done.map_or(0, |c| c.retries);
            }
        }
    }
    tc.end(root);
}

/// The energy loop: what `solve_sweep` does. Returns the surviving
/// `(energies, points)` and the report.
#[allow(clippy::too_many_arguments)]
pub fn sweep_points(
    tc: &mut Tracer,
    lg: &mut Ledger,
    h: &BlockTridiag,
    left: (&ZMat, &ZMat),
    right: (&ZMat, &ZMat),
    energies: &[f64],
    engine: Engine,
    key: Key,
) -> (Vec<f64>, Vec<EnergyPointData>, SweepReport) {
    let mut report = SweepReport::default();
    let mut kept = Vec::with_capacity(energies.len());
    let mut points = Vec::with_capacity(energies.len());
    for (ie, &e) in energies.iter().enumerate() {
        let s = tc.begin(SOLVE_POINT, key.at_e(ie));
        let solved = solve_point(e, h, left, right, engine);
        tc.end(s);
        match solved {
            Ok(p) => {
                report.record_solved(p.retries);
                kept.push(e);
                points.push(p);
            }
            Err(err) => report.record_failed(e, err),
        }
    }
    lg.report.merge(&report);
    (kept, points, report)
}

/// One `(bias, k)` transport solve: what `ballistic_solve` does.
#[allow(clippy::too_many_arguments)]
pub fn transport(
    tc: &mut Tracer,
    lg: &mut Ledger,
    tr: &NanoTransistor,
    v_atoms: &[f64],
    bias: &Bias,
    engine: Engine,
    n_energy: usize,
    ky: f64,
    key: Key,
) -> BallisticResult {
    let ham = tr.hamiltonian();
    let pot: Vec<f64> = v_atoms.iter().map(|&v| -v).collect();
    let s = tc.begin(ASSEMBLE, key);
    let h = ham.assemble(&pot, ky);
    tc.end(s);
    let shift_l = -tr.slab_mean_potential(v_atoms, 0);
    let shift_r = -tr.slab_mean_potential(v_atoms, tr.device.num_slabs - 1);
    let s = tc.begin(LEAD_BLOCKS, key);
    let (h00_l, h01_l) = ham.lead_blocks(shift_l, ky);
    let (h00_r, h01_r) = ham.lead_blocks(shift_r, ky);
    tc.end(s);

    let mus = [bias.mu_source, bias.mu_drain()];
    let mid_lo = tr.e_midgap - v_atoms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mid_hi = tr.e_midgap - v_atoms.iter().cloned().fold(f64::INFINITY, f64::min);
    let span = 30.0 * tr.kt;
    let s = tc.begin(WINDOW, key);
    let window = transport_window(
        &[(&h00_l, &h01_l), (&h00_r, &h01_r)],
        &mus,
        tr.kt,
        12.0,
        (
            mid_lo.min(mus[0].min(mus[1]) - span),
            mid_hi.max(mus[0].max(mus[1]) + span),
        ),
    );
    tc.end(s);

    let energies = window.grid(n_energy);
    let (kept, points, report) = sweep_points(
        tc,
        lg,
        &h,
        (&h00_l, &h01_l),
        (&h00_r, &h01_r),
        &energies,
        engine,
        key,
    );
    let s = tc.begin(INTEGRATE, key);
    let out = integrate(tr, bias, v_atoms, &kept, points, &window, report);
    tc.end(s);
    lg.note_sweep(
        key,
        energies,
        [(h00_l, h01_l, shift_l), (h00_r, h01_r, shift_r)],
    );
    out
}

/// One self-consistent bias point: what `self_consistent_banked` does under
/// the static schedule. Returns the point and the converged grid potential
/// (the next point's warm start).
fn scf_point(
    tc: &mut Tracer,
    lg: &mut Ledger,
    tr: &mut NanoTransistor,
    bias: &Bias,
    opts: &ScfOptions,
    v_init: Option<&[f64]>,
    key: Key,
) -> (IvPoint, Vec<f64>) {
    tr.set_gate(bias.v_gate);
    let kt = tr.kt;
    let s = tc.begin(DEPOSIT, key);
    let rho_doping = tr
        .poisson
        .grid
        .deposit(&tr.atom_positions, &tr.doping_per_atom);
    tc.end(s);
    let mut v_grid: Vec<f64> = match v_init {
        Some(v) => v.to_vec(),
        None => {
            let s = tc.begin(POISSON, key);
            let v = tr.poisson.solve_linear(&rho_doping);
            tc.end(s);
            v
        }
    };

    let mut last: Option<BallisticResult> = None;
    let mut residual = f64::INFINITY;
    let mut iters = 0;
    for outer in 1..=opts.max_iter {
        iters = outer;
        lg.scf_iters += 1;
        let key = key.at_iter(outer);
        let s = tc.begin(SAMPLE, key);
        let v_atoms = tr.poisson.grid.sample(&v_grid, &tr.atom_positions);
        tc.end(s);
        let result = transport(
            tc,
            lg,
            tr,
            &v_atoms,
            bias,
            opts.engine,
            opts.n_energy,
            0.0,
            key.at_k(0),
        );
        let s = tc.begin(DEPOSIT, key);
        let rho_n = tr
            .poisson
            .grid
            .deposit(&tr.atom_positions, &result.electron_density);
        let rho_p = tr
            .poisson
            .grid
            .deposit(&tr.atom_positions, &result.hole_density);
        tc.end(s);

        let v_old = v_grid.clone();
        let s = tc.begin(POISSON, key);
        let sol = tr.poisson.solve_nonlinear(
            |node, v| {
                let x = ((v - v_old[node]) / kt).clamp(-25.0, 25.0);
                let n = rho_n[node] * x.exp();
                let p = rho_p[node] * (-x).exp();
                let rho = p - n + rho_doping[node];
                let drho = -(n + p) / kt;
                (rho, drho.min(0.0))
            },
            Some(&v_old),
            1e-6,
            60,
        );
        tc.end(s);

        residual = 0.0;
        for (vg, &vs) in v_grid.iter_mut().zip(&sol.v) {
            let d = opts.mixing * (vs - *vg);
            *vg += d;
            residual = residual.max(d.abs());
        }
        last = Some(result);
        if residual < opts.tol_v {
            break;
        }
    }

    let converged = residual < opts.tol_v;
    let transport_final = match last {
        Some(r) if converged => r,
        _ => {
            let s = tc.begin(SAMPLE, key);
            let v_atoms = tr.poisson.grid.sample(&v_grid, &tr.atom_positions);
            tc.end(s);
            transport(
                tc,
                lg,
                tr,
                &v_atoms,
                bias,
                opts.engine,
                opts.n_energy,
                0.0,
                key.at_k(0),
            )
        }
    };
    if !converged {
        lg.unconverged += 1;
    }
    (
        IvPoint {
            v_gate: bias.v_gate,
            v_ds: bias.v_ds,
            current_ua: transport_final.current_ua,
            scf_iterations: iters,
            converged,
        },
        v_grid,
    )
}

/// The potential `frozen_field_sweep` applies: the gate value on the
/// channel atoms, zero on the source/drain extensions.
pub fn frozen_potential(tr: &NanoTransistor, v_gate: f64) -> Vec<f64> {
    let lo = tr.spec.source_slabs;
    let hi = tr.spec.num_slabs - tr.spec.drain_slabs;
    tr.device
        .atoms
        .iter()
        .map(|a| {
            if a.slab >= lo && a.slab < hi {
                v_gate
            } else {
                0.0
            }
        })
        .collect()
}

/// A whole request, parse to curve: what `omen_cli` and the daemon's
/// executor do, with a span per layer call.
pub fn curve(tc: &mut Tracer, lg: &mut Ledger, text: &str) -> Result<Vec<IvPoint>, String> {
    let root = tc.begin(ROOT, Key::NONE);
    let s = tc.begin(BUILD, Key::NONE);
    let req = SweepRequest::parse(text).map_err(|e| e.to_string())?;
    let spec = req.device_spec().map_err(|e| e.to_string())?;
    let mut tr = spec.build();
    tc.end(s);
    let engine = req.engine_kind().map_err(|e| e.to_string())?;

    let mut points = Vec::new();
    let mut warm: Option<Vec<f64>> = None;
    for (ib, v_gate) in req.v_gates().into_iter().enumerate() {
        let bias = Bias {
            v_gate,
            v_ds: req.vds,
            mu_source: req.mu_source,
        };
        let key = Key::bias(ib);
        match req.mode {
            Mode::Frozen => {
                let v_atoms = frozen_potential(&tr, v_gate);
                let r = transport(
                    tc,
                    lg,
                    &tr,
                    &v_atoms,
                    &bias,
                    engine,
                    req.n_energy,
                    0.0,
                    key.at_k(0),
                );
                points.push(IvPoint {
                    v_gate,
                    v_ds: req.vds,
                    current_ua: r.current_ua,
                    scf_iterations: 0,
                    converged: true,
                });
            }
            Mode::Scf => {
                let opts = ScfOptions {
                    engine,
                    n_energy: req.n_energy,
                    ..ScfOptions::default()
                };
                let (p, v_grid) = scf_point(tc, lg, &mut tr, &bias, &opts, warm.as_deref(), key);
                points.push(p);
                warm = Some(v_grid);
            }
        }
    }
    tc.end(root);
    Ok(points)
}
