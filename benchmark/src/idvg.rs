//! The two single-rank I–V workloads: `idvg-scf-wf` and
//! `idvg-frozen-sp3s-rgf`. Both go the way a user's request goes —
//! `SweepRequest::parse` → `device_spec().build()` → the sweep driver — and
//! differ only in the request text (see `gen`).

use crate::harness::{self, ChildArgs};
use crate::metrics::Outcome;
use crate::replay::{self, Ledger};
use crate::trace::{self_times_ns, total, Tracer};
use crate::{gen, kernels, Workload};
use omen_core::ballistic::solve_point;
use omen_core::iv::{
    frozen_field_sweep_observed, gate_sweep_observed, subthreshold_swing, IvPoint, PointProgress,
};
use omen_core::parallel::frozen_system;
use omen_core::{Engine, ScfOptions};
use omen_linalg::{FlopScope, ZMat};
use omen_num::tolerance::test_bound;
use omen_num::BoundKind;
use omen_serve::{Mode, SweepRequest};
use omen_sparse::BlockTridiag;
use std::time::Instant;

/// Seed-0 currents (µA) of the first four points of `examples/specs/nanowire.omen`.
const SCF_WF_REFERENCE_UA: [f64; 4] = [5.225071e-5, 2.752505e-3, 9.359922e-2, 7.262583e-1];
const REFERENCE_RTOL: f64 = 1e-6;
/// The thermionic limit at 300 K is 59.6 mV/dec; a gate-all-around wire
/// this short sits within a few mV/dec of it.
const SS_RANGE_MV_DEC: (f64, f64) = (55.0, 62.0);

fn request_text(args: &ChildArgs) -> String {
    match args.workload {
        Workload::IdvgScfWf => gen::scf_wf_request(args.seed, args.smoke),
        _ => gen::frozen_rgf_request(args.seed, args.smoke),
    }
}

/// Parse and build: everything before the first solve.
fn set_up(text: &str) -> Result<(SweepRequest, omen_core::NanoTransistor), String> {
    let req = SweepRequest::parse(text).map_err(|e| e.to_string())?;
    let tr = req.device_spec().map_err(|e| e.to_string())?.build();
    Ok((req, tr))
}

/// One request through the driver, timed from text to curve.
pub struct DriverPass {
    pub wall_s: f64,
    pub flops: u64,
    pub points: Vec<IvPoint>,
    pub energy_points: usize,
    pub failed_points: usize,
}

pub fn drive(text: &str) -> Result<DriverPass, String> {
    let flops = FlopScope::new();
    let t0 = Instant::now();
    let (req, mut tr) = set_up(text)?;
    let engine = req.engine_kind().map_err(|e| e.to_string())?;
    // The observer sees the final transport solve of each bias point.
    let mut seen = 0usize;
    let mut failed_points = 0usize;
    let mut observe = |p: PointProgress<'_>| {
        seen += p.report.attempted();
        failed_points += p.report.failed.len();
    };
    let v_gates = req.v_gates();
    let (points, energy_points) = match req.mode {
        Mode::Frozen => {
            let pts = frozen_field_sweep_observed(
                &tr,
                &v_gates,
                req.vds,
                req.mu_source,
                engine,
                req.n_energy,
                &mut observe,
            );
            (pts, seen)
        }
        Mode::Scf => {
            let opts = ScfOptions {
                engine,
                n_energy: req.n_energy,
                ..ScfOptions::default()
            };
            let pts = gate_sweep_observed(
                &mut tr,
                &v_gates,
                req.vds,
                req.mu_source,
                &opts,
                &mut observe,
            );
            // Every outer iteration sweeps the whole energy grid; a stalled
            // point pays one more sweep on the final potential.
            let sweeps: usize = pts
                .iter()
                .map(|p| p.scf_iterations + usize::from(!p.converged))
                .sum();
            (pts, sweeps * req.n_energy)
        }
    };
    Ok(DriverPass {
        wall_s: t0.elapsed().as_secs_f64(),
        flops: flops.take(),
        points,
        energy_points,
        failed_points,
    })
}

fn same_bits(a: &[IvPoint], b: &[IvPoint]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.current_ua.to_bits() == y.current_ua.to_bits()
                && x.scf_iterations == y.scf_iterations
                && x.converged == y.converged
        })
}

/// The checks every run makes on a curve, whatever the seed.
fn check_curve(out: &mut Outcome, args: &ChildArgs, points: &[IvPoint]) {
    for p in points {
        out.check(p.current_ua.is_finite() && p.current_ua > 0.0, || {
            format!("V_G={}: current {} µA", p.v_gate, p.current_ua)
        });
        out.check(p.converged, || format!("V_G={}: SCF stalled", p.v_gate));
    }
    out.check(
        points.windows(2).all(|w| w[1].current_ua > w[0].current_ua),
        || "current does not rise with the gate in subthreshold".to_string(),
    );
    if args.workload != Workload::IdvgScfWf || args.smoke {
        return;
    }
    match subthreshold_swing(points) {
        Some(ss) => out.check(ss > SS_RANGE_MV_DEC.0 && ss < SS_RANGE_MV_DEC.1, || {
            format!("subthreshold swing {ss} mV/dec outside {SS_RANGE_MV_DEC:?}")
        }),
        None => out.check(false, || "no subthreshold swing".to_string()),
    }
    if args.seed == 0 {
        for (p, want) in points.iter().zip(SCF_WF_REFERENCE_UA) {
            out.check((p.current_ua - want).abs() <= REFERENCE_RTOL * want, || {
                format!("V_G={}: {} µA, reference {want}", p.v_gate, p.current_ua)
            });
        }
    }
}

/// Device Hamiltonian and lead blocks of the request's first bias point
/// under the frozen field, and an energy a few kT above the source Fermi
/// level: inside the lead band, where the transmission is not vanishing.
fn first_bias_system(text: &str) -> Result<(f64, BlockTridiag, ZMat, ZMat), String> {
    let (req, tr) = set_up(text)?;
    let v_atoms = replay::frozen_potential(&tr, req.vg_start);
    let (h, h00, h01) = frozen_system(&tr, &v_atoms, 0.0);
    Ok((req.mu_source + 0.1, h, h00, h01))
}

/// One energy point, RGF against WF, within the `TOLERANCES.toml` bound
/// named `bound`.
pub fn check_engines_agree_at(
    out: &mut Outcome,
    e: f64,
    h: &BlockTridiag,
    lead: (&ZMat, &ZMat),
    bound: &str,
) -> Result<(), String> {
    let rgf = solve_point(e, h, lead, lead, Engine::Rgf).map_err(|e| e.to_string())?;
    let wf = solve_point(e, h, lead, lead, Engine::WfThomas).map_err(|e| e.to_string())?;
    let tol = test_bound(bound, BoundKind::Relative).map_err(|e| e.to_string())?;
    let diff = (rgf.transmission - wf.transmission).abs();
    out.check(diff < tol * (1.0 + rgf.transmission.abs()), || {
        format!(
            "E={e}: RGF T={} vs WF T={} (bound {tol})",
            rgf.transmission, wf.transmission
        )
    });
    Ok(())
}

/// [`check_engines_agree_at`] on the device of the request's first bias point.
pub fn check_engines_agree(out: &mut Outcome, text: &str) -> Result<(), String> {
    let (e, h, h00, h01) = first_bias_system(text)?;
    check_engines_agree_at(out, e, &h, (&h00, &h01), "engine.si_wire")
}

/// `--trace 0`: the request, end to end, as many times as the budget allows.
pub fn run_end_to_end(args: &ChildArgs) -> Result<Outcome, String> {
    let text = request_text(args);
    let mut out = Outcome::default();

    let run = harness::measure(
        args,
        || harness::timed(|| set_up(&text).map(drop)),
        || drive(&text),
    )?;
    let passes = &run.passes;

    for p in passes {
        out.attempted += (p.energy_points + p.points.len()) as u64;
        out.failed += (p.failed_points + p.points.iter().filter(|q| !q.converged).count()) as u64;
        out.check(same_bits(&p.points, &passes[0].points), || {
            "two passes over one request disagree".to_string()
        });
    }
    check_curve(&mut out, args, &passes[0].points);
    check_engines_agree(&mut out, &text)?;

    harness::put_end_to_end(
        &mut out,
        &run.set_up_s,
        run.peak_rss_mb,
        &passes
            .iter()
            .map(|p| (p.wall_s, p.flops, p.energy_points))
            .collect::<Vec<_>>(),
    );
    Ok(out)
}

/// `--trace 1`: one driver pass (the reference answer, and the process's
/// warm-up), then the same request replayed layer call by layer call with
/// spans for half the budget; the contacts pass and the kernels take the
/// rest.
pub fn run_traced(args: &ChildArgs) -> Result<Outcome, String> {
    let text = request_text(args);
    let mut out = Outcome::default();

    let driver = drive(&text)?;
    check_curve(&mut out, args, &driver.points);
    check_engines_agree(&mut out, &text)?;

    let mut best: Option<(f64, Tracer, Ledger)> = None;
    harness::passes(args, args.seconds / 2.0, 1, || {
        let mut tc = Tracer::new(true);
        let mut lg = Ledger::default();
        let t0 = Instant::now();
        let replayed = replay::curve(&mut tc, &mut lg, &text)?;
        let wall_s = t0.elapsed().as_secs_f64();
        out.check(same_bits(&replayed, &driver.points), || {
            format!(
                "replay is not the driver: {:?} vs {:?}",
                replayed.iter().map(|p| p.current_ua).collect::<Vec<_>>(),
                driver
                    .points
                    .iter()
                    .map(|p| p.current_ua)
                    .collect::<Vec<_>>()
            )
        });
        if best.as_ref().is_none_or(|b| wall_s < b.0) {
            best = Some((wall_s, tc, lg));
        }
        Ok(())
    })?;
    let (_, mut tc, mut lg) = best.ok_or("no traced replay ran")?;

    let engine = SweepRequest::parse(&text)
        .and_then(|r| r.engine_kind())
        .map_err(|e| e.to_string())?;
    put_replay_layers(&mut out, &mut tc, &mut lg, engine);
    out.attempted = (lg.report.attempted() + driver.points.len()) as u64;
    out.failed = (lg.report.failed.len() + lg.unconverged) as u64;
    if engine == Engine::Rgf {
        out.put("negf.selinv_over_rgf", selinv_over_rgf(&text)?, 1);
    }
    kernels::measure(&mut out, args.smoke);
    harness::write_trace(args, &tc);
    Ok(out)
}

/// Times the contacts behind the replay `tc` recorded, then turns spans and
/// counts into the per-layer metrics.
pub fn put_replay_layers(out: &mut Outcome, tc: &mut Tracer, lg: &mut Ledger, engine: Engine) {
    let bookkeeping_s = tc.bookkeeping_s();
    replay::contacts_pass(tc, lg);
    let spans = tc.spans();
    let own = self_times_ns(spans);
    let t = |name| total(spans, &own, name);

    // Contacts are timed in a pass of their own; their time plus the engine's
    // own (`solve_point` minus contacts) is `solve_point` again.
    let probe = t(replay::CONTACTS);
    let solve = t(replay::SOLVE_POINT);
    let root = t(replay::ROOT);
    let wall = root.dur_s;
    let engine_s = solve.dur_s - probe.dur_s;
    let engine_flops = solve.flops.saturating_sub(probe.flops);
    let gflops = |flops: u64, s: f64| {
        if s > 0.0 {
            flops as f64 / s * 1e-9
        } else {
            0.0
        }
    };

    out.put("negf.contacts_s", probe.dur_s, probe.calls);
    out.put("negf.contacts_calls", lg.contact_calls as f64, 1);
    out.put("negf.contacts_flops", probe.flops as f64, 1);
    out.put(
        "negf.contacts_gflops",
        gflops(probe.flops, probe.dur_s),
        probe.calls,
    );
    out.put("negf.contacts_retries", lg.contact_retries as f64, 1);
    out.put(
        "negf.contacts_distinct_fraction",
        lg.contacts_distinct_fraction(),
        lg.contact_calls,
    );
    let (s_name, f_name, g_name) = match engine {
        Engine::Rgf | Engine::SelInv => ("negf.rgf_solve_s", "negf.rgf_flops", "negf.rgf_gflops"),
        Engine::WfThomas | Engine::WfBcr => ("wf.solve_s", "wf.solve_flops", "wf.solve_gflops"),
    };
    out.put(s_name, engine_s, solve.calls);
    out.put(f_name, engine_flops as f64, 1);
    out.put(g_name, gflops(engine_flops, engine_s), solve.calls);

    let build = t(replay::BUILD);
    let assemble = t(replay::ASSEMBLE);
    let leads = t(replay::LEAD_BLOCKS);
    let window = t(replay::WINDOW);
    let integrate = t(replay::INTEGRATE);
    let poisson = t(replay::POISSON);
    let grid = t(replay::SAMPLE).dur_s + t(replay::DEPOSIT).dur_s;
    out.put("core.build_s", build.dur_s, build.calls);
    out.put(
        "tb.assemble_s",
        assemble.dur_s + leads.dur_s,
        assemble.calls,
    );
    out.put(
        "tb.assemble_calls",
        (assemble.calls + leads.calls) as f64,
        1,
    );
    out.put("core.window_s", window.dur_s, window.calls);
    out.put("core.window_calls", window.calls as f64, 1);
    out.put("core.integrate_s", integrate.dur_s, integrate.calls);
    out.put("poisson.solve_s", poisson.dur_s, poisson.calls);
    out.put("poisson.solve_calls", poisson.calls as f64, 1);
    out.put("poisson.deposit_sample_s", grid, 1);
    out.put("core.scf_iters", lg.scf_iters as f64, 1);
    out.put("core.energy_points", lg.report.attempted() as f64, 1);
    out.put("core.points_retried", lg.report.retried as f64, 1);
    out.put("core.points_failed", lg.report.failed.len() as f64, 1);

    // Every layer call is a direct child of the root span, so what the root
    // has left as self time is replay work no layer metric accounts for.
    let covered = 1.0 - root.self_s / wall;
    out.put("core.replay_wall_s", wall, 1);
    harness::put_trace_validity(out, covered, spans.len(), bookkeeping_s / wall);
}

/// Wall time of selected inversion over RGF at one energy on the first
/// bias point's device.
fn selinv_over_rgf(text: &str) -> Result<f64, String> {
    let (e, h, h00, h01) = first_bias_system(text)?;
    let lead = (&h00, &h01);
    let time = |engine| -> Result<f64, String> {
        let t0 = Instant::now();
        solve_point(e, &h, lead, lead, engine).map_err(|e| e.to_string())?;
        Ok(t0.elapsed().as_secs_f64())
    };
    Ok(time(Engine::SelInv)? / time(Engine::Rgf)?)
}
