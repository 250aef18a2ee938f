//! `ranks2-utb-k3`: a momentum-resolved transmission sweep on two
//! threads-as-ranks, brokered as one dataflow per bias point.
//!
//! Three k-points over two momentum groups is a built-in 2:1 static
//! imbalance: under `Schedule::Static` one rank solves two k-points while
//! the other solves one and waits. Only cross-momentum stealing
//! (`Schedule::Dynamic`) evens that out, so the distance between the two
//! schedules is what `omen-sched` and `core::parallel` earn.

use crate::harness::{self, ChildArgs};
use crate::idvg::{check_engines_agree_at, put_replay_layers};
use crate::metrics::Outcome;
use crate::replay::{self, Ledger};
use crate::stats::median;
use crate::trace::{Key, Tracer};
use crate::{gen, kernels};
use omen_core::ballistic::momentum_grid;
use omen_core::parallel::{
    frozen_system, parallel_transmission, parallel_transmission_k_banked, split_levels,
    LevelConfig, Schedule, TransmissionSweep,
};
use omen_core::{Engine, Geometry, NanoTransistor, SchedOptions, TransistorSpec};
use omen_linalg::FlopScope;
use omen_num::tolerance::test_bound;
use omen_num::BoundKind;
use omen_parsim::{run_ranks, CommStats, MachineModel};
use omen_sched::{BankCounts, ModelBank};
use omen_tb::Material;
use std::time::Instant;

const RANKS: usize = 2;

/// The workload's layout: both ranks in one bias group, one per momentum group.
const BY_MOMENTUM: LevelConfig = LevelConfig {
    bias: 1,
    momentum: RANKS,
    energy: 1,
    spatial: 1,
};
/// The other way to spend two ranks below the bias level.
const BY_ENERGY: LevelConfig = LevelConfig {
    bias: 1,
    momentum: 1,
    energy: RANKS,
    spatial: 1,
};
const BY_SPACE: LevelConfig = LevelConfig {
    bias: 1,
    momentum: 1,
    energy: 1,
    spatial: RANKS,
};

fn dynamic() -> Schedule {
    Schedule::Dynamic(SchedOptions::default())
}

fn build(slabs: usize) -> NanoTransistor {
    let mut spec =
        TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, slabs);
    // Two transverse cells, 1 nm thick: block n = 32, the single-band
    // wire's block size, so a (k, E) point costs ~12 ms and a bias point
    // has 96 units to broker.
    spec.geometry = Geometry::Utb { cells: 2, h: 1.0 };
    spec.doping_sd = 0.0;
    spec.build()
}

/// What one distributed sweep over `biases` returned and cost.
struct RankRun {
    /// Rank 0's sweep per bias point (every rank holds the same).
    sweeps: Vec<TransmissionSweep>,
    /// Rank 0's wall per bias point.
    bias_wall_s: Vec<f64>,
    bank: BankCounts,
    comm: CommStats,
    wall_s: f64,
    flops: u64,
    ranks_agree: bool,
}

fn same_sweep(a: &TransmissionSweep, b: &TransmissionSweep) -> bool {
    a.transmission.len() == b.transmission.len()
        && a.transmission
            .iter()
            .zip(&b.transmission)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.report.solved == b.report.solved
        && a.report.retried == b.report.retried
        && a.report.failed.len() == b.report.failed.len()
}

fn sweep(
    tr: &NanoTransistor,
    cfg: &LevelConfig,
    schedule: Schedule,
    kys: &[(f64, f64)],
    energies: &[f64],
    biases: &[Vec<f64>],
) -> Result<RankRun, String> {
    let flops = FlopScope::new();
    let t0 = Instant::now();
    let run = run_ranks(cfg.total(), |ctx| {
        let comms = split_levels(ctx, cfg)?;
        // One bank per rank for the whole sweep: the second bias point's
        // first schedule is warm-started from the first's measured costs.
        let mut bank = ModelBank::new();
        let mut sweeps = Vec::with_capacity(biases.len());
        let mut walls = Vec::with_capacity(biases.len());
        for (ib, v_atoms) in biases.iter().enumerate() {
            let t = Instant::now();
            sweeps.push(parallel_transmission_k_banked(
                &comms,
                cfg,
                |ky| frozen_system(tr, v_atoms, ky),
                kys,
                energies,
                schedule,
                &mut bank,
                ib,
            )?);
            walls.push(t.elapsed().as_secs_f64());
        }
        Ok((sweeps, walls, bank.lifetime_counts()))
    })
    .flattened();
    let wall_s = t0.elapsed().as_secs_f64();
    let flops = flops.take();
    let comm = run.total_stats();
    let mut per_rank = Vec::with_capacity(run.results.len());
    for r in run.results {
        per_rank.push(r.map_err(|e| e.to_string())?);
    }
    let ranks_agree = per_rank
        .iter()
        .all(|(s, _, _)| s.iter().zip(&per_rank[0].0).all(|(a, b)| same_sweep(a, b)));
    let (sweeps, bias_wall_s, bank) = per_rank.swap_remove(0);
    Ok(RankRun {
        sweeps,
        bias_wall_s,
        bank,
        comm,
        wall_s,
        flops,
        ranks_agree,
    })
}

struct Inputs {
    tr: NanoTransistor,
    kys: Vec<(f64, f64)>,
    energies: Vec<f64>,
    biases: Vec<Vec<f64>>,
}

fn inputs(args: &ChildArgs) -> Inputs {
    let g = gen::ranks_inputs(args.seed, args.smoke);
    let tr = build(g.slabs);
    let kys = momentum_grid(&tr, g.n_k);
    let biases = g
        .v_gates
        .iter()
        .map(|&vg| replay::frozen_potential(&tr, vg))
        .collect();
    Inputs {
        tr,
        kys,
        energies: g.energies,
        biases,
    }
}

/// Start the ranks and split the communicators.
fn spawn_and_split() -> Result<(), String> {
    let out = run_ranks(RANKS, |ctx| split_levels(ctx, &BY_MOMENTUM).map(drop)).flattened();
    out.first_error().map_or(Ok(()), |e| Err(e.to_string()))
}

fn count_run(out: &mut Outcome, run: &RankRun) {
    for s in &run.sweeps {
        out.attempted += s.report.attempted() as u64;
        out.failed += s.report.failed.len() as u64;
    }
}

/// Dynamic must equal static to the bit, on every rank.
fn check_schedules_agree(out: &mut Outcome, stat: &RankRun, dynr: &RankRun) {
    out.check(stat.ranks_agree && dynr.ranks_agree, || {
        "ranks of one sweep hold different results".to_string()
    });
    out.check(
        stat.sweeps.len() == dynr.sweeps.len()
            && stat
                .sweeps
                .iter()
                .zip(&dynr.sweeps)
                .all(|(a, b)| same_sweep(a, b)),
        || "dynamic schedule is not bit-identical to static".to_string(),
    );
    for (ib, s) in dynr.sweeps.iter().enumerate() {
        out.check(
            s.transmission.iter().all(|t| t.is_finite() && *t >= -1e-9),
            || format!("bias {ib}: transmission not finite and non-negative"),
        );
        out.check(s.transmission.iter().any(|t| *t > 0.1), || {
            format!("bias {ib}: no open channel anywhere on the energy grid")
        });
    }
}

/// One energy point, RGF against WF, on the first bias point's first k.
fn check_engines_agree(out: &mut Outcome, inp: &Inputs) -> Result<(), String> {
    let (h, h00, h01) = frozen_system(&inp.tr, &inp.biases[0], inp.kys[0].0);
    let e = inp.energies[inp.energies.len() * 3 / 4];
    check_engines_agree_at(out, e, &h, (&h00, &h01), "engine.utb")
}

pub fn run_end_to_end(args: &ChildArgs) -> Result<Outcome, String> {
    let inp = inputs(args);
    let mut out = Outcome::default();
    let run = |schedule| {
        sweep(
            &inp.tr,
            &BY_MOMENTUM,
            schedule,
            &inp.kys,
            &inp.energies,
            &inp.biases,
        )
    };

    // Set-up is everything before the first solve: build the device, start
    // the ranks, split the communicators.
    let slabs = inp.tr.spec.num_slabs;
    let measured = harness::measure(
        args,
        || {
            harness::timed(|| {
                std::hint::black_box(build(slabs));
                spawn_and_split()
            })
        },
        || run(dynamic()),
    )?;
    let passes = &measured.passes;
    for p in passes {
        count_run(&mut out, p);
    }
    let stat = run(Schedule::Static)?;
    check_schedules_agree(&mut out, &stat, &passes[0]);
    check_engines_agree(&mut out, &inp)?;

    let points = inp.biases.len() * inp.kys.len() * inp.energies.len();
    harness::put_end_to_end(
        &mut out,
        &measured.set_up_s,
        measured.peak_rss_mb,
        &passes
            .iter()
            .map(|p| (p.wall_s, p.flops, points))
            .collect::<Vec<_>>(),
    );
    Ok(out)
}

/// The first bias point solved on one thread, k by k, with spans: the
/// layer split of the work the ranks share out.
struct Sequential {
    wall_s: f64,
    flops: u64,
    transmission: Vec<f64>,
    tc: Tracer,
    lg: Ledger,
}

fn sequential_replay(inp: &Inputs) -> Sequential {
    let mut tc = Tracer::new(true);
    let mut lg = Ledger::default();
    let flops = FlopScope::new();
    let t0 = Instant::now();
    let root = tc.begin(replay::ROOT, Key::bias(0));
    let mut transmission = vec![0.0; inp.energies.len()];
    let mut leads = Vec::with_capacity(inp.kys.len());
    for (ik, &(ky, w)) in inp.kys.iter().enumerate() {
        let key = Key::bias(0).at_k(ik);
        let s = tc.begin(replay::ASSEMBLE, key);
        let (h, h00, h01) = frozen_system(&inp.tr, &inp.biases[0], ky);
        tc.end(s);
        let lead = (&h00, &h01);
        let (kept, points, _) = replay::sweep_points(
            &mut tc,
            &mut lg,
            &h,
            lead,
            lead,
            &inp.energies,
            Engine::WfThomas,
            key,
        );
        // No point fails on this workload; a dropped one would leave its
        // slot at zero and trip the agreement check below.
        for (e, p) in kept.iter().zip(&points) {
            if let Some(ie) = inp.energies.iter().position(|x| x == e) {
                transmission[ie] += w * p.transmission;
            }
        }
        leads.push((key, h00, h01));
    }
    tc.end(root);
    let wall_s = t0.elapsed().as_secs_f64();
    let flops = flops.take();
    // Both sides decimate the same blocks.
    let shift = -inp.tr.slab_mean_potential(&inp.biases[0], 0);
    for (key, h00, h01) in leads {
        let right = (h00.clone(), h01.clone(), shift);
        lg.note_sweep(key, inp.energies.clone(), [(h00, h01, shift), right]);
    }
    Sequential {
        wall_s,
        flops,
        transmission,
        tc,
        lg,
    }
}

pub fn run_traced(args: &ChildArgs) -> Result<Outcome, String> {
    let inp = inputs(args);
    let mut out = Outcome::default();
    let first = &inp.biases[..1];

    // A third of the budget goes to the sequential replay (the schedule
    // comparisons below take the rest); the fastest one is the baseline
    // and the layer split.
    let mut best: Option<Sequential> = None;
    harness::passes(args, args.seconds / 3.0, 1, || {
        let seq = sequential_replay(&inp);
        if best.as_ref().is_none_or(|b| seq.wall_s < b.wall_s) {
            best = Some(seq);
        }
        Ok(())
    })?;
    let Sequential {
        wall_s: seq_wall,
        flops: seq_flops,
        transmission: seq_t,
        mut tc,
        mut lg,
    } = best.ok_or("no sequential replay ran")?;
    put_replay_layers(&mut out, &mut tc, &mut lg, Engine::WfThomas);

    // The workload itself, under both schedules.
    let phase = |tc: &mut Tracer, name, cfg: &LevelConfig, schedule, biases: &[Vec<f64>]| {
        let s = tc.begin(name, Key::NONE);
        let r = sweep(&inp.tr, cfg, schedule, &inp.kys, &inp.energies, biases);
        tc.end(s);
        r
    };
    // Schedules alternate and each keeps its fastest run: one sample apiece
    // would put the host's noise straight into their ratio.
    let pair = |tc: &mut Tracer, names: [&'static str; 2], cfg, biases| {
        let mut stat = phase(tc, names[0], cfg, Schedule::Static, biases)?;
        let mut dynr = phase(tc, names[1], cfg, dynamic(), biases)?;
        for _ in 1..if args.smoke { 1 } else { 3 } {
            let s = phase(tc, names[0], cfg, Schedule::Static, biases)?;
            let d = phase(tc, names[1], cfg, dynamic(), biases)?;
            if s.wall_s < stat.wall_s {
                stat = s;
            }
            if d.wall_s < dynr.wall_s {
                dynr = d;
            }
        }
        Ok::<_, String>((stat, dynr))
    };
    let (stat, dynr) = pair(
        &mut tc,
        ["ranks.static", "ranks.dynamic"],
        &BY_MOMENTUM,
        &inp.biases,
    )?;
    count_run(&mut out, &dynr);
    check_schedules_agree(&mut out, &stat, &dynr);
    check_engines_agree(&mut out, &inp)?;
    let tol = test_bound("engine.utb", BoundKind::Relative).map_err(|e| e.to_string())?;
    out.check(
        seq_t
            .iter()
            .zip(&dynr.sweeps[0].transmission)
            .all(|(a, b)| (a - b).abs() < tol * (1.0 + a.abs())),
        || "rank-parallel sweep disagrees with the sequential one".to_string(),
    );

    out.put("core.sequential_wall_s", seq_wall, 1);
    out.put("core.static_wall_s", stat.wall_s, 3);
    out.put("core.dynamic_wall_s", dynr.wall_s, 3);
    out.put("core.dynamic_over_static", dynr.wall_s / stat.wall_s, 3);
    out.put("core.speedup_2r", seq_wall / dynr.bias_wall_s[0], 1);
    let model = MachineModel::workstation().compute_time(seq_flops as f64);
    out.put("parsim.model_over_measured", model / seq_wall, 1);

    let mut sched = dynr.sweeps[0].sched.clone().unwrap_or_default();
    for s in dynr.sweeps[1..].iter().filter_map(|s| s.sched.as_ref()) {
        sched.absorb(s);
    }
    out.put("sched.imbalance", sched.imbalance(), 1);
    out.put("sched.chunks", sched.chunks as f64, 1);
    out.put("sched.coordinator_units", sched.coordinator_units as f64, 1);
    out.put(
        "sched.reissued",
        (sched.reissued_failed + sched.reissued_straggler) as f64,
        1,
    );
    out.put("sched.stale_msgs", sched.stale_msgs as f64, 1);
    out.put("sched.bank_warmed", dynr.bank.warmed as f64, 1);
    out.put("sched.bank_seeded", dynr.bank.seeded as f64, 1);
    out.put("parsim.messages", dynr.comm.messages_sent as f64, 1);
    out.put("parsim.bytes", dynr.comm.bytes_sent as f64, 1);
    out.put(
        "parsim.spawn_split_s",
        median(&harness::samples(
            if args.smoke { 3 } else { 101 },
            spawn_and_split,
        )?),
        101,
    );

    // The same two ranks split by energy instead of by momentum.
    let (alt_s, alt_d) = pair(
        &mut tc,
        ["ranks.alt_static", "ranks.alt_dynamic"],
        &BY_ENERGY,
        first,
    )?;
    out.check(same_sweep(&alt_s.sweeps[0], &alt_d.sweeps[0]), || {
        "energy-split layout: dynamic is not bit-identical to static".to_string()
    });
    out.put(
        "core.alt_layout_dynamic_over_static",
        alt_d.wall_s / alt_s.wall_s,
        3,
    );

    // ... and spatially: SplitSolve on the first k-point.
    let (ky, _) = inp.kys[0];
    let (h, h00, h01) = frozen_system(&inp.tr, &inp.biases[0], ky);
    let s = tc.begin("ranks.splitsolve", Key::bias(0).at_k(0));
    let flops = FlopScope::new();
    let t0 = Instant::now();
    let split = run_ranks(RANKS, |ctx| {
        let comms = split_levels(ctx, &BY_SPACE)?;
        let lead = (&h00, &h01);
        parallel_transmission(
            &comms,
            &BY_SPACE,
            &h,
            lead,
            lead,
            &inp.energies,
            Schedule::Static,
        )
    })
    .flattened();
    let split_wall = t0.elapsed().as_secs_f64();
    let split_flops = flops.take();
    tc.end(s);
    if let Some(e) = split.first_error() {
        return Err(e.to_string());
    }
    let thomas_flops: u64 = tc
        .spans()
        .iter()
        .filter(|s| s.name == replay::SOLVE_POINT && s.key.k == 0)
        .map(|s| s.flops)
        .sum();
    out.put("wf.splitsolve_wall_s", split_wall, 1);
    out.put(
        "wf.splitsolve_bytes",
        split.total_stats().bytes_sent as f64,
        1,
    );
    out.put(
        "wf.splitsolve_flops_over_thomas",
        split_flops as f64 / thomas_flops as f64,
        1,
    );

    kernels::measure(&mut out, args.smoke);
    harness::write_trace(args, &tc);
    Ok(out)
}
