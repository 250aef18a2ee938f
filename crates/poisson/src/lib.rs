//! # omen-poisson — 3-D electrostatics for self-consistent device simulation
//!
//! Finite-volume Poisson solver on a regular grid enclosing the atomistic
//! device: `∇·(ε_r ∇V) = −ρ/ε₀` with position-dependent permittivity
//! (semiconductor core, oxide shell), Dirichlet gate/contact electrodes and
//! Neumann outer boundaries.
//!
//! * [`grid`] — the regular grid, atom↔grid charge/potential transfer
//!   (cloud-in-cell deposition, trilinear sampling);
//! * [`charge`] — the semiconductor region's dielectric constants;
//! * [`solve`] — linear assembly (harmonic-mean face permittivity, SPD
//!   system solved by preconditioned CG) and the damped Gummel–Newton
//!   outer iteration.
//!
//! The quantum charge from the transport engines enters through
//! `solve_nonlinear`'s charge closure (density plus its predictor
//! derivative); `omen-core` seeds the loop with a linear solve on the
//! doping charge and alternates transport and Poisson solves until
//! self-consistency.

pub mod charge;
pub mod grid;
pub mod solve;

pub use charge::Semiconductor;
pub use grid::Grid3;
pub use solve::{CellKind, PoissonProblem, PoissonSolution};
