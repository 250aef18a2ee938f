//! Scheduler load-balance benchmark — static round-robin assignment vs
//! the dynamic pull-based scheduler on a synthetic workload with a known
//! cost skew.
//!
//! The workload mimics the energy-sweep cost profile the scheduler was
//! built for: a periodic comb of expensive units (resonances and subband
//! onsets recur at near-regular energy spacing, and the lead decimation
//! converges slowest there) riding on a cheap baseline. The comb period is
//! commensurate with the round-robin stride — `2 · ranks` — so the static
//! `assign` piles every spike onto rank 0, exactly the degenerate case a
//! fixed cyclic split cannot avoid; the dynamic scheduler streams chunks
//! to whichever worker is idle and never sees the alignment. Both sweeps run
//! on `omen-parsim` threads-as-ranks with per-unit sleeps standing in for
//! solve time, and the per-rank busy seconds are condensed into the
//! max/mean load-imbalance ratio recorded in `BENCH_sched.json`.
//!
//! A second case, `iv-multibias`, measures the whole-curve dataflow the
//! I–V driver uses: several bias points, each a unified `k × E` unit grid.
//! The static leg reproduces the nested momentum × energy split (each
//! momentum group owns one k point and round-robins its energies), so a
//! k point with a resonance comb pins its whole group while the flat
//! k point's group drains early — an imbalance no per-group balancer can
//! fix. The dynamic leg runs one `dynamic_sweep` over the unified grid
//! per bias point, warm-starting its cost model across bias points
//! through a [`ModelBank`] (checkout → sweep → commit, the lifecycle of
//! `omen_core::parallel::parallel_transmission_k_banked`): from the second
//! bias point onward the first hand-out is LPT over measured costs.
//!
//! A third case, `utb-k3`, replaces the sleeps with the solver: the repo
//! benchmark's `ranks2-utb-k3` film (block n = 32, 3 k-points over 2
//! momentum groups — a built-in 2:1 static split) swept through
//! `parallel_transmission_k_banked` on 2 ranks under both schedules, so
//! the ledger holds what the benchmark's workload measures: units that
//! cost compute, a coordinator that solves, and the per-unit brokering
//! cost set against a real solve instead of hidden under a sleep. Each
//! bias point first fills the rank path's contact table over both ranks,
//! so a unit is the engine alone (~1.6 ms: BCR and, on most units, a
//! k-point rebuild) and the second bias point decimates nothing.
//!
//! `--smoke` shrinks the sleeps and publishes to the ledger's smoke twin
//! under `target/` instead (`records::publish`) — the CI gate uses it to
//! exercise the full protocol and the JSON emitter on every run without
//! touching the committed baseline.

use omen_bench::records::{publish, SchedRecord};
use omen_core::ballistic::momentum_grid;
use omen_core::parallel::{
    assign, frozen_system, parallel_transmission_k_banked, split_levels, LevelConfig, Schedule,
    TransmissionSweep,
};
use omen_core::{Geometry, NanoTransistor, TransistorSpec};
use omen_parsim::{run_ranks, Comm};
use omen_sched::{dynamic_sweep, imbalance_ratio, CostModel, ModelBank, SchedOptions, SchedStats};
use omen_tb::Material;
use std::time::{Duration, Instant};

/// The skewed workload: every `stride`-th unit costs `spike`, the rest
/// cost `base` — a resonance comb, in canonical unit order.
struct Workload {
    units: usize,
    stride: usize,
    base: Duration,
    spike: Duration,
}

impl Workload {
    fn cost(&self, id: usize) -> Duration {
        if id.is_multiple_of(self.stride) {
            self.spike
        } else {
            self.base
        }
    }

    fn energies(&self) -> Vec<f64> {
        (0..self.units).map(|i| i as f64).collect()
    }
}

/// Static sweep: every rank solves its round-robin `assign` share, exactly
/// like the static energy-group distribution in `omen_core::parallel`.
/// Returns `(wall_s, imbalance)`.
fn run_static(w: &Workload, ranks: usize) -> (f64, f64) {
    let t0 = Instant::now();
    let out = run_ranks(ranks, |ctx| {
        let mine = assign(w.units, ctx.size(), ctx.rank());
        let t = Instant::now();
        for id in mine {
            std::thread::sleep(w.cost(id));
        }
        t.elapsed().as_secs_f64()
    });
    let wall = t0.elapsed().as_secs_f64();
    let busy: Vec<f64> = out.results.into_iter().map(|r| r.unwrap()).collect();
    (wall, imbalance_ratio(&busy))
}

/// Dynamic sweep over the same units with a flat cost prior (the scheduler
/// gets no hint of the skew). Returns `(wall_s, imbalance, reissued)`.
fn run_dynamic(w: &Workload, ranks: usize) -> (f64, f64, usize) {
    let opts = SchedOptions {
        chunk_max: 2,
        ..SchedOptions::default()
    };
    let es = w.energies();
    let t0 = Instant::now();
    let out = run_ranks(ranks, |ctx| {
        let world = Comm::world(ctx);
        let mut model = CostModel::uniform(w.units);
        dynamic_sweep(&world, &es, &mut model, &opts, |id| {
            std::thread::sleep(w.cost(id));
            Ok(vec![id as f64])
        })
        .unwrap()
    });
    let wall = t0.elapsed().as_secs_f64();
    let outcome = out
        .results
        .into_iter()
        .next()
        .expect("at least one rank")
        .unwrap();
    assert!(outcome.report.is_clean(), "synthetic solve never fails");
    assert_eq!(outcome.report.solved, w.units);
    let reissued = outcome.stats.reissued_failed;
    (wall, outcome.stats.imbalance(), reissued)
}

/// The I–V sweep workload: `bias` bias points, each one unified grid of
/// `n_k` momentum groups × `n_e` energies (unit `id = ik · n_e + ie`).
/// Momentum group 0 carries a resonance comb (every third energy costs
/// `spike`); the other k points are flat `base` — the skew is *between*
/// k points, which a per-group energy balancer cannot see.
struct IvWorkload {
    bias: usize,
    n_k: usize,
    n_e: usize,
    base: Duration,
    spike: Duration,
}

impl IvWorkload {
    /// Units per bias point (one dynamic sweep).
    fn grid(&self) -> usize {
        self.n_k * self.n_e
    }

    /// Units over the whole curve (what the records report).
    fn units(&self) -> usize {
        self.bias * self.grid()
    }

    fn cost(&self, id: usize) -> Duration {
        let (ik, ie) = (id / self.n_e, id % self.n_e);
        if ik == 0 && ie.is_multiple_of(3) {
            self.spike
        } else {
            self.base
        }
    }

    fn energies(&self) -> Vec<f64> {
        (0..self.grid()).map(|i| i as f64).collect()
    }
}

/// Static nested split, exactly the shape `omen_core::parallel` uses for
/// `Schedule::Static`: ranks divide into `n_k` momentum groups, group
/// `g` owns k point `g`, and each group round-robins its energies over
/// its members. Busy seconds accumulate across all bias points.
/// Returns `(wall_s, imbalance)`.
fn run_iv_static(w: &IvWorkload, ranks: usize) -> (f64, f64) {
    assert_eq!(
        ranks % w.n_k,
        0,
        "iv-multibias static split needs ranks % n_k == 0"
    );
    let per = ranks / w.n_k;
    let t0 = Instant::now();
    let out = run_ranks(ranks, |ctx| {
        let (ik, erank) = (ctx.rank() / per, ctx.rank() % per);
        let mine = assign(w.n_e, per, erank);
        let t = Instant::now();
        for _ in 0..w.bias {
            for &ie in &mine {
                std::thread::sleep(w.cost(ik * w.n_e + ie));
            }
        }
        t.elapsed().as_secs_f64()
    });
    let wall = t0.elapsed().as_secs_f64();
    let busy: Vec<f64> = out.results.into_iter().map(|r| r.unwrap()).collect();
    (wall, imbalance_ratio(&busy))
}

/// Whole-curve dynamic sweep: one `dynamic_sweep` over the unified
/// `k × E` grid per bias point, its cost model carried across bias points
/// in a [`ModelBank`] (checkout → sweep → commit, the
/// `parallel_transmission_k_banked` lifecycle). Returns
/// `(wall_s, imbalance, reissued)` aggregated over the whole curve.
fn run_iv_dynamic(w: &IvWorkload, ranks: usize) -> (f64, f64, usize) {
    let opts = SchedOptions {
        chunk_max: 2,
        ..SchedOptions::default()
    };
    let es = w.energies();
    let t0 = Instant::now();
    let out = run_ranks(ranks, |ctx| {
        let world = Comm::world(ctx);
        let mut bank = ModelBank::new();
        let mut agg = SchedStats::default();
        for bias in 0..w.bias {
            let mut model = bank.checkout(bias, w.grid(), || {
                CostModel::band_edge_grid(w.n_k, w.n_e, 2.0)
            });
            let outcome = dynamic_sweep(&world, &es, &mut model, &opts, |id| {
                std::thread::sleep(w.cost(id));
                Ok(vec![id as f64])
            })
            .unwrap();
            assert!(outcome.report.is_clean(), "synthetic solve never fails");
            assert_eq!(outcome.report.solved, w.grid());
            bank.commit(bias, model);
            agg.absorb(&outcome.stats);
        }
        (agg, bank.lifetime_counts())
    });
    let wall = t0.elapsed().as_secs_f64();
    let (agg, counts) = out
        .results
        .into_iter()
        .next()
        .expect("at least one rank")
        .unwrap();
    // The bank must seed only on the first bias point and warm-start every
    // later one — the whole point of sweep-lifetime cost models.
    assert_eq!(counts.seeded, 1, "only the first bias point may seed");
    assert_eq!(counts.warmed, w.bias - 1);
    (wall, agg.imbalance(), agg.reissued_failed)
}

/// The real-solve workload: a frozen-field UTB film, `n_k` k-points ×
/// `energies` per bias point, two ranks split by momentum.
struct UtbWorkload {
    tr: NanoTransistor,
    kys: Vec<(f64, f64)>,
    energies: Vec<f64>,
    /// Per bias point, the potential on every atom.
    biases: Vec<Vec<f64>>,
}

const UTB_RANKS: usize = 2;
const UTB_LAYOUT: LevelConfig = LevelConfig {
    bias: 1,
    momentum: UTB_RANKS,
    energy: 1,
    spatial: 1,
};

impl UtbWorkload {
    /// The `ranks2-utb-k3` device and grid (seed 0) at half its energy
    /// count; smoke shrinks channel, grid and bias count.
    fn new(smoke: bool) -> UtbWorkload {
        let (slabs, n_e, n_bias) = if smoke { (6, 6, 1) } else { (16, 16, 2) };
        let mut spec =
            TransistorSpec::si_nanowire_nmos(Material::SingleBand { t_mev: 1000 }, 1.0, slabs);
        spec.geometry = Geometry::Utb { cells: 2, h: 1.0 };
        spec.doping_sd = 0.0;
        let tr = spec.build();
        let (lo, hi) = (spec.source_slabs, spec.num_slabs - spec.drain_slabs);
        let biases = (0..n_bias)
            .map(|i| {
                let v_gate = -0.1 + 0.1 * i as f64;
                let on_channel = |slab| {
                    if (lo..hi).contains(&slab) {
                        v_gate
                    } else {
                        0.0
                    }
                };
                tr.device.atoms.iter().map(|a| on_channel(a.slab)).collect()
            })
            .collect();
        UtbWorkload {
            kys: momentum_grid(&tr, 3),
            energies: omen_num::linspace(-3.75, -2.95, n_e),
            biases,
            tr,
        }
    }

    fn units(&self) -> usize {
        self.biases.len() * self.kys.len() * self.energies.len()
    }

    /// One pass over every bias point under `schedule`, one `ModelBank`
    /// per rank for the whole pass. Returns the wall and rank 0's sweeps.
    fn run(&self, schedule: Schedule) -> (f64, Vec<TransmissionSweep>) {
        let t0 = Instant::now();
        let out = run_ranks(UTB_RANKS, |ctx| {
            let comms = split_levels(ctx, &UTB_LAYOUT)?;
            let mut bank = ModelBank::new();
            let mut sweeps = Vec::with_capacity(self.biases.len());
            for (ib, v_atoms) in self.biases.iter().enumerate() {
                sweeps.push(parallel_transmission_k_banked(
                    &comms,
                    &UTB_LAYOUT,
                    |ky| frozen_system(&self.tr, v_atoms, ky),
                    &self.kys,
                    &self.energies,
                    schedule,
                    &mut bank,
                    ib,
                )?);
            }
            Ok(sweeps)
        })
        .flattened();
        let wall = t0.elapsed().as_secs_f64();
        let sweeps = out.unwrap_all().swap_remove(0);
        (wall, sweeps)
    }
}

/// Static vs dynamic on the real solver, `runs` alternating passes each,
/// fastest kept — one sample apiece would put the host's noise straight
/// into their ratio.
fn bench_utb(smoke: bool, records: &mut Vec<SchedRecord>) {
    let w = UtbWorkload::new(smoke);
    let runs = if smoke { 1 } else { 6 };
    println!(
        "omen-bench sched utb-k3 ({}): {} bias × {} k × {} E = {} units, block n = 32, \
         {UTB_RANKS} ranks, fastest of {runs}",
        if smoke { "smoke" } else { "full" },
        w.biases.len(),
        w.kys.len(),
        w.energies.len(),
        w.units(),
    );
    let dynamic = Schedule::Dynamic(SchedOptions::default());
    let (mut wall_s, mut wall_d) = (f64::INFINITY, f64::INFINITY);
    let mut sched = SchedStats::default();
    for _ in 0..runs {
        let (ws, stat) = w.run(Schedule::Static);
        let (wd, dynr) = w.run(dynamic);
        for (a, b) in stat.iter().zip(&dynr) {
            assert!(a.report.is_clean() && b.report.is_clean());
            let same = a.transmission.iter().zip(&b.transmission);
            assert!(
                same.clone().all(|(x, y)| x.to_bits() == y.to_bits()),
                "dynamic schedule is not bit-identical to static"
            );
        }
        wall_s = wall_s.min(ws);
        if wd < wall_d {
            wall_d = wd;
            sched = SchedStats::default();
            for s in dynr.iter().filter_map(|s| s.sched.as_ref()) {
                sched.absorb(s);
            }
        }
    }
    // The static split's balance is its k-point count per rank: units
    // cost alike, and what a rank waits for inside the reduction cannot
    // be told from outside it.
    let share = |r| assign(w.kys.len(), UTB_RANKS, r).len() as f64;
    let imb_s = imbalance_ratio(&[share(0), share(1)]);
    let (imb_d, reissued) = (sched.imbalance(), sched.reissued_failed);
    println!("static   wall {wall_s:.3} s  imbalance {imb_s:.3}");
    println!(
        "dynamic  wall {wall_d:.3} s  imbalance {imb_d:.3}  reissued {reissued}  \
         coordinator solved {} of {}",
        sched.coordinator_units, sched.units
    );
    for (schedule, wall_s, imbalance, reissued) in [
        ("static", wall_s, imb_s, 0),
        ("dynamic", wall_d, imb_d, reissued),
    ] {
        records.push(SchedRecord {
            case: "utb-k3".into(),
            schedule: schedule.into(),
            ranks: UTB_RANKS,
            units: w.units(),
            wall_s,
            imbalance,
            reissued,
        });
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (w, ranks) = if smoke {
        (
            Workload {
                units: 18,
                stride: 6,
                base: Duration::from_millis(1),
                spike: Duration::from_millis(10),
            },
            3,
        )
    } else {
        (
            Workload {
                units: 64,
                stride: 8,
                base: Duration::from_millis(4),
                spike: Duration::from_millis(40),
            },
            4,
        )
    };
    println!(
        "omen-bench sched ({}): {} units (spike every {}), {}/{} ms base/spike, {ranks} ranks",
        if smoke { "smoke" } else { "full" },
        w.units,
        w.stride,
        w.base.as_millis(),
        w.spike.as_millis()
    );

    let (wall_s, imb_s) = run_static(&w, ranks);
    let (wall_d, imb_d, reissued) = run_dynamic(&w, ranks);
    println!("static   wall {wall_s:.3} s  imbalance {imb_s:.3}");
    println!("dynamic  wall {wall_d:.3} s  imbalance {imb_d:.3}  reissued {reissued}");
    assert!(
        imb_d <= imb_s,
        "dynamic scheduling must not be less balanced than static on the skewed workload"
    );

    let case = "resonance-comb";
    let mut records = vec![
        SchedRecord {
            case: case.into(),
            schedule: "static".into(),
            ranks,
            units: w.units,
            wall_s,
            imbalance: imb_s,
            reissued: 0,
        },
        SchedRecord {
            case: case.into(),
            schedule: "dynamic".into(),
            ranks,
            units: w.units,
            wall_s: wall_d,
            imbalance: imb_d,
            reissued,
        },
    ];

    let (iv, iv_ranks) = if smoke {
        (
            IvWorkload {
                bias: 2,
                n_k: 2,
                n_e: 9,
                base: Duration::from_millis(2),
                spike: Duration::from_millis(12),
            },
            4,
        )
    } else {
        (
            IvWorkload {
                bias: 3,
                n_k: 2,
                n_e: 18,
                base: Duration::from_millis(6),
                spike: Duration::from_millis(36),
            },
            4,
        )
    };
    println!(
        "omen-bench sched iv-multibias ({}): {} bias × {} k × {} E = {} units, \
         {}/{} ms base/spike, {iv_ranks} ranks",
        if smoke { "smoke" } else { "full" },
        iv.bias,
        iv.n_k,
        iv.n_e,
        iv.units(),
        iv.base.as_millis(),
        iv.spike.as_millis()
    );
    let (iv_wall_s, iv_imb_s) = run_iv_static(&iv, iv_ranks);
    let (iv_wall_d, iv_imb_d, iv_reissued) = run_iv_dynamic(&iv, iv_ranks);
    println!("static   wall {iv_wall_s:.3} s  imbalance {iv_imb_s:.3}");
    println!("dynamic  wall {iv_wall_d:.3} s  imbalance {iv_imb_d:.3}  reissued {iv_reissued}");
    // The nested static split is only mildly skewed (unlike the degenerate
    // resonance comb), so at smoke-sized millisecond sleeps the comparison
    // is noise; the smoke floors in TOLERANCES.toml still catch catastrophe.
    if !smoke {
        assert!(
            iv_imb_d <= iv_imb_s,
            "whole-curve dynamic must not be less balanced than the nested static split"
        );
        assert!(
            iv_wall_d < iv_wall_s,
            "whole-curve dynamic must beat the nested static split on wall clock \
             ({iv_wall_d:.3} s vs {iv_wall_s:.3} s)"
        );
    }
    records.push(SchedRecord {
        case: "iv-multibias".into(),
        schedule: "static".into(),
        ranks: iv_ranks,
        units: iv.units(),
        wall_s: iv_wall_s,
        imbalance: iv_imb_s,
        reissued: 0,
    });
    records.push(SchedRecord {
        case: "iv-multibias".into(),
        schedule: "dynamic".into(),
        ranks: iv_ranks,
        units: iv.units(),
        wall_s: iv_wall_d,
        imbalance: iv_imb_d,
        reissued: iv_reissued,
    });

    bench_utb(smoke, &mut records);

    let path = publish(smoke, &records).expect("publish scheduler records");
    println!(
        "wrote {} sched records -> {}",
        records.len(),
        path.display()
    );
}
