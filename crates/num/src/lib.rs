//! # omen-num — numeric foundation for the omen-rs workspace
//!
//! Provides the double-precision complex scalar [`c64`] used by every other
//! crate, physical constants in the simulator's unit system (energies in eV,
//! lengths in nm, currents in µA), Fermi–Dirac statistics, and the
//! trapezoid rule used for energy integration of transmission and charge.
//!
//! The workspace deliberately owns its complex type instead of depending on
//! `num-complex`: the dense kernels in `omen-linalg` instrument flop counts
//! with the Gordon-Bell counting convention (complex multiply = 6 real flops,
//! complex add = 2), and owning the scalar keeps that contract local.

pub mod complex;
pub mod constants;
pub mod error;
pub mod fermi;
pub mod grid;
pub mod quad;
pub mod tolerance;
pub mod wire;

pub use complex::c64;
pub use constants::*;
pub use error::{FailedPoint, OmenError, OmenResult, SweepReport, ENERGY_UNKNOWN};
pub use fermi::{dfermi_de, fermi, log1p_exp};
pub use grid::linspace;
pub use quad::trapezoid;
pub use tolerance::{BoundKind, DispatchLeg, TolerancePolicy};
