//! # omen-sched — dynamic cost-model work scheduler
//!
//! The paper's production runs keep 222,720 cores busy because the
//! (bias × momentum × energy) task bag is *self-scheduled*: per-point cost
//! varies by orders of magnitude (Sancho–Rubio iteration counts explode
//! near subband edges), so any static partition strands whole groups
//! behind one slow point. This crate supplies that layer for the
//! threads-as-ranks runtime of `omen-parsim`. Units are dense ids `0..n`
//! in the caller's canonical grid order (the one brokered dataflow,
//! `omen_core::parallel`'s whole-curve sweep, spells `id = ik · n_e + ie`);
//! every merge is indexed by that id.
//!
//! * [`CostModel`] — per-unit predictions: a grid-position seed (e.g.
//!   [`CostModel::band_edge_grid`]) refined by an EWMA ledger of measured
//!   solve seconds, with a seed→seconds calibration that puts measured and
//!   unmeasured units on one axis.
//! * [`ModelBank`] — sweep-lifetime persistence of those ledgers, one flat
//!   model per bias step: SCF re-solves resume their own measurements
//!   (*hits*), new bias points warm-start from the nearest earlier bias
//!   (*warmed*), and only a cold grid falls back to seeds ([`BankCounts`]
//!   is the witness).
//! * [`dynamic_sweep`] — the pull-based coordinator/worker engine: chunked
//!   hand-out over typed, fingerprinted messages ([`proto`]) with one
//!   holder per unit, a solving coordinator, liveness read off the results
//!   every unit sends, bounded reclamation of what a dead worker held, and
//!   a deterministic canonical-order merge distributed point-to-point so
//!   every member returns the same [`SweepOutcome`] — bit-identical values
//!   to a static schedule of the same pure solve. A single-member
//!   communicator runs the same sweep on the caller: cost-descending
//!   execution, canonical merge, per-unit fault isolation, no messages.
//!
//! Failed units never abort a sweep: a typed solver failure is recorded on
//! its first attempt as a typed entry in the outcome's report
//! (`values[id] = None`) and the remaining units proceed — the same
//! per-point fault-tolerance contract the static solver stack already
//! honors. A unit stranded on a dead worker is re-queued up to
//! `max_reissue` times before it is recorded the same way.

pub mod cost;
pub mod dynamic;
pub mod proto;

pub use cost::{BankCounts, CostModel, ModelBank};
pub use dynamic::{dynamic_sweep, imbalance_ratio, SchedOptions, SchedStats, SweepOutcome};
