//! # omen-core — the device simulator
//!
//! Ties the substrates together into the tool the paper describes: an
//! atomistic, full-band, ballistic quantum-transport simulator for
//! nanoelectronic devices, self-consistently coupled to 3-D electrostatics
//! and parallelized over four levels (bias × momentum × energy × space).
//!
//! * [`spec`] — high-level transistor descriptions (gate-all-around
//!   nanowire FETs, ultra-thin bodies, graphene-nanoribbon TFETs) compiled
//!   into geometry + Hamiltonian + doping + Poisson problem;
//! * [`energy`] — transport energy windows from lead subband edges and the
//!   contact Fermi levels, and the sweep-owned memos of what depends on the
//!   leads alone (their bands; their contacts per energy);
//! * [`ballistic`] — the per-bias transport solve, one body per level:
//!   `solve_sweep` (energy loop with per-point fault isolation, any
//!   [`Engine`]) → `ballistic_solve` (one k) → `ballistic_solve_k`
//!   (momentum average), plus the adaptive-grid variant; Landauer current,
//!   quantum electron and hole densities;
//! * [`scf`] — the Schrödinger–Poisson loop with the exponential charge
//!   predictor (Gummel-accelerated);
//! * [`iv`] — gate/drain voltage sweeps (one SCF bias loop) and the
//!   frozen-field preview sweep, with per-point observers, and
//!   figure-of-merit extraction (subthreshold swing, on/off currents);
//! * [`log`] — the env-gated (`OMEN_LOG`) driver progress sink, reporting
//!   per-bias-point convergence and energy-sweep fault-recovery counts;
//! * [`parallel`] — hierarchical rank decomposition over `omen-parsim`,
//!   mirroring the paper's communicator layout. Work scheduling
//!   ([`Schedule`], `omen-sched` cost models) exists only here, where there
//!   are ranks to balance; the serial drivers above visit energies in grid
//!   order.

pub mod ballistic;
pub mod energy;
pub mod iv;
pub mod log;
pub mod parallel;
pub mod scf;
pub mod spec;

pub use ballistic::{
    ballistic_solve, ballistic_solve_adaptive, ballistic_solve_k, engine_point, momentum_grid,
    solve_point, BallisticResult, Engine,
};
pub use iv::{
    drain_sweep, frozen_field_sweep, gate_sweep, on_off_ratio, subthreshold_swing, IvPoint,
};
pub use omen_sched::{SchedOptions, SchedStats};
pub use parallel::Schedule;
pub use scf::{self_consistent, ScfOptions, ScfResult};
pub use spec::{Bias, Geometry, NanoTransistor, TransistorSpec};
