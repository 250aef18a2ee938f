//! # omen-sparse — sparse storage for nearest-neighbor tight-binding systems
//!
//! Atomistic device Hamiltonians are sparse with a very particular
//! structure: once atoms are ordered by transport slab, the matrix is
//! **block tridiagonal** with dense-ish blocks coupling adjacent slabs.
//! This crate provides:
//!
//! * [`Coo`]/[`CsrC`] — general complex triplet/compressed-row storage used
//!   while assembling Hamiltonians;
//! * [`BlockTridiag`] — the slab-ordered block view every transport kernel
//!   (RGF, wave-function, SplitSolve) consumes, and [`Coupling`] — one of
//!   its off-diagonal blocks on its row and column support, the form those
//!   kernels multiply by;
//! * [`CsrR`]/[`cg`] — real symmetric storage and a preconditioned conjugate
//!   gradient solver for the Poisson substrate.

pub mod block;
pub mod cg;
pub mod coo;
pub mod csr;

pub use block::{BlockTridiag, Coupling};
pub use cg::{cg_solve, CgReport};
pub use coo::Coo;
pub use csr::{CsrC, CsrR};
