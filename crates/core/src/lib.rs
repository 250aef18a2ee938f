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
//!   contact Fermi levels;
//! * [`contacts`] — the one store of a curve's leads: a [`ContactTable`]
//!   slot per momentum holds a lead pair's blocks, their bands and their
//!   contacts per `E`, filled on the calling thread by a serial sweep and
//!   over a communicator by the rank path, with the same fill body;
//! * [`ballistic`] — the per-bias transport solve, one body per level:
//!   `solve_sweep` (the one serial energy loop: contacts from a table,
//!   per-point fault isolation, any [`Engine`]) → `ballistic_solve` (one
//!   bias point: the weighted sum over a `(k_y, weight)` list, the i-th k
//!   on slot i of the curve's [`ContactTable`]), plus the adaptive-grid
//!   variant, whose seed grid and rounds are `solve_sweep` calls; Landauer
//!   current, quantum electron and hole densities;
//! * [`scf`] — the Schrödinger–Poisson loop with the exponential charge
//!   predictor (Gummel-accelerated);
//! * [`iv`] — gate/drain (SCF) and frozen-field voltage sweeps, one bias
//!   loop that owns the curve's [`ContactTable`], with per-point observers,
//!   and figure-of-merit extraction (subthreshold swing, on/off currents);
//! * [`log`] — the env-gated (`OMEN_LOG`) driver progress sink, reporting
//!   per-bias-point convergence and energy-sweep fault-recovery counts;
//! * [`parallel`] — hierarchical rank decomposition over `omen-parsim`,
//!   mirroring the paper's communicator layout. Work scheduling
//!   ([`Schedule`], `omen-sched` cost models) exists only here, where there
//!   are ranks to balance; the serial drivers above visit energies in grid
//!   order.

pub mod ballistic;
pub mod contacts;
pub mod energy;
pub mod iv;
pub mod log;
pub mod parallel;
pub mod scf;
pub mod spec;

pub use ballistic::{
    ballistic_solve, ballistic_solve_adaptive, engine_point, momentum_grid, solve_point,
    BallisticResult, Engine,
};
pub use contacts::ContactTable;
pub use iv::{
    drain_sweep, frozen_field_sweep, gate_sweep, on_off_ratio, subthreshold_swing, IvPoint,
};
pub use omen_sched::{SchedOptions, SchedStats};
pub use parallel::Schedule;
pub use scf::{self_consistent, ScfOptions, ScfResult};
pub use spec::{Bias, Geometry, NanoTransistor, TransistorSpec};
