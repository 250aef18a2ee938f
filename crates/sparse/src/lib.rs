//! # omen-sparse — sparse storage for nearest-neighbor tight-binding systems
//!
//! Atomistic device Hamiltonians are sparse with a very particular
//! structure: once atoms are ordered by transport slab, the matrix is
//! **block tridiagonal** with dense-ish blocks coupling adjacent slabs.
//! This crate provides:
//!
//! * [`BlockTridiag`] — the slab-ordered block view every transport kernel
//!   (RGF, wave-function, SplitSolve) consumes, and [`Coupling`] — one of
//!   its off-diagonal blocks on its row and column support, the form those
//!   kernels multiply by;
//! * [`SlabAssembly`] — the accumulator Hamiltonians and dynamical
//!   matrices are assembled with, straight into those blocks;
//! * [`CsrR`]/[`cg`] — real symmetric storage and a preconditioned conjugate
//!   gradient solver for the Poisson substrate.

pub mod block;
pub mod cg;
pub mod csr;

pub use block::{BlockTridiag, Coupling, SlabAssembly};
pub use cg::{cg_solve, CgReport};
pub use csr::CsrR;
