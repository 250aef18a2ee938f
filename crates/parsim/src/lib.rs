//! # omen-parsim — rank-parallel runtime and petascale machine model
//!
//! The original system ran on the Cray XT5 "Jaguar" through MPI with a
//! four-level hierarchical communicator layout (bias × momentum × energy ×
//! spatial domains). This crate substitutes both pieces:
//!
//! * [`runtime`] — OS threads act as MPI ranks. Tagged point-to-point
//!   messages and the collective rounds built from them run over lock-free
//!   channels, executing the *same communication pattern* (who talks to
//!   whom, message sizes, reduction trees) the MPI code would. Every
//!   receive is bounded by a timeout. All traffic is counted per rank
//!   ([`CommStats`]: messages, bytes, collectives).
//! * [`comm`] — MPI-style communicator splitting for the hierarchical
//!   parallel levels. [`Comm`] is the one interface ranks talk through:
//!   point-to-point `send`/`recv`/`try_recv_any` and two collectives,
//!   `allreduce_sum` and `allgather`, scoped to sub-communicators.
//! * [`machine`] — an analytic model of Jaguar (per-core peak, GEMM
//!   efficiency, LogGP-style link parameters) that converts *measured* flop
//!   counts and communication volumes into projected wall-clock time and
//!   sustained performance at arbitrary core counts — this is how the
//!   1.44 PFlop/s scaling figures are regenerated without the hardware.

pub mod comm;
pub mod machine;
pub mod runtime;

pub use comm::Comm;
pub use machine::MachineModel;
pub use runtime::{run_ranks, run_ranks_with_timeout, CommStats, RankCtx, RunOutput};
