//! # omen-negf — ballistic non-equilibrium Green's function engines
//!
//! The Green's-function transport engines of the simulator: recursive
//! Green's functions (RGF) and tree-structured selected inversion over the
//! block-tridiagonal device Hamiltonian with semi-infinite contact
//! self-energies.
//!
//! * [`sancho`] — Sancho–Rubio decimation for lead surface Green's
//!   functions and the contact self-energies/broadenings `Σ`, `Γ`;
//! * [`contacts`] — the first stage of a point: both contacts decimated
//!   by [`local_contacts`], one pair decimation when the leads are one;
//! * [`rgf`] — the forward/backward recursive Green's function returning
//!   diagonal blocks (density/LDOS), first/last block columns (contact
//!   spectral functions) and the Caroli transmission; [`rgf_point`] is the
//!   engine on a `(Σ_L, Σ_R)` pair;
//! * [`selinv`] — serial selected inversion over a binary elimination
//!   tree recovering exactly the same result surface, the independently
//!   derived third engine of the oracle batteries; [`selinv_point`] is the
//!   engine on a `(Σ_L, Σ_R)` pair;
//! * [`transport`] — the per-point result type every engine returns
//!   ([`EnergyPointData`]), the packaging the two Green's-function engines
//!   share, and a dense-matrix reference used for cross-validation;
//! * [`serialize`] — the matrix-bundle rank-message format shared with the
//!   wave-function SplitSolve engine (primitives and the error format come
//!   from `omen_num::wire`).
//!
//! The RGF and selected-inversion paths are per-(energy, momentum) point:
//! the embarrassing parallelism over those axes is orchestrated by
//! `omen-core`.

pub mod contacts;
pub mod rgf;
pub mod sancho;
pub mod selinv;
pub mod serialize;
pub mod transport;

pub use contacts::{local_contacts, local_sigmas};
pub use rgf::{rgf_point, rgf_solve, RgfResult};
pub use sancho::{surface_green_function, ContactSelfEnergy, Side};
pub use selinv::{selinv_point, selinv_solve};
pub use transport::{transmission_dense_reference, EnergyPointData};
