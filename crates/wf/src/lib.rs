//! # omen-wf — wave-function (QTBM) transport engine and SplitSolve
//!
//! The paper's key algorithmic claim is that ballistic full-band transport
//! is much cheaper as a *wave-function* computation than as a full NEGF/RGF
//! computation: instead of O(N·n³) block inversions, one solves a single
//! block-tridiagonal linear system `A·Ψ = B` whose right-hand side carries
//! only the few injected contact modes, using a *parallel* sparse solver
//! (the SplitSolve family, introduced in the authors' Euro-Par 2008 paper).
//!
//! * [`injection`] — injected-mode bundles from the eigendecomposition of
//!   the contact broadening `Γ = i(Σ−Σ†)` (spectrally equivalent to QTBM
//!   lead-mode injection);
//! * [`solver`] — sequential block-Thomas elimination, and block cyclic
//!   reduction: the per-block arithmetic of the elimination tree and its
//!   serial driver [`bcr_solve`]. Both take `A` as a
//!   `omen_sparse::BlockTridiag<ZMat>`: dense diagonal blocks, every slab
//!   coupling on its support (`omen_sparse::Coupling`, the form RGF takes
//!   too);
//! * [`splitsolve`] — that same arithmetic scheduled over `omen-parsim`
//!   ranks: log₂(N) reduction levels with nearest-neighbor block exchanges,
//!   the communication pattern of the paper's spatial-domain parallel
//!   level. It holds no factorisation or product of its own, so its
//!   solution is `bcr_solve`'s bit for bit at every rank count;
//! * [`transport`] — [`wf_point`]: per-energy wave-function transport on
//!   the `(Σ_L, Σ_R)` pair the NEGF engines take, over any of the three
//!   solvers ([`Solver`]), returning the same observables as `omen-negf`
//!   (transmission, LDOS, spectral densities) — which enables the
//!   WF-vs-RGF equivalence and time-to-solution experiments.

pub mod injection;
pub mod solver;
pub mod splitsolve;
pub mod transport;

pub use injection::{injection_bundle, InjectionBundle};
pub use solver::{bcr_solve, thomas_solve};
pub use splitsolve::splitsolve_parallel;
pub use transport::{wf_point, Solver};
