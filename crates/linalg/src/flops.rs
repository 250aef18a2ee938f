//! Global floating-point operation counter.
//!
//! Every dense kernel in this crate (and the sparse kernels in `omen-sparse`)
//! reports the number of *real* double-precision flops it executes, using the
//! standard Gordon-Bell counting convention: one complex multiply = 6 real
//! flops, one complex add = 2, so a complex multiply-add = 8.
//!
//! The counter is a process-global relaxed atomic: the cost per kernel call
//! is one `fetch_add`, negligible next to an O(n³) kernel. The evaluation
//! harness (`omen-bench`) resets it around a solver invocation and feeds the
//! measured count into the Jaguar machine model to regenerate the paper's
//! sustained-PFlop/s curves from real operation counts.

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);

/// Adds `n` real flops to the global counter.
#[inline(always)]
pub fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Current cumulative flop count since process start or the last
/// [`reset_flops`].
pub fn flop_count() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Resets the global counter to zero and returns the previous value.
pub fn reset_flops() -> u64 {
    FLOPS.swap(0, Ordering::Relaxed)
}

/// Measures the flops executed between construction and [`FlopScope::take`]
/// (or between construction and drop, for logging-style use).
///
/// Scopes are robust to interleaving with other threads only in the sense
/// that they measure *global* progress; the rank runtime in `omen-parsim`
/// therefore serializes kernel-heavy sections per measurement when exact
/// per-rank attribution is required.
pub struct FlopScope {
    start: u64,
}

impl FlopScope {
    /// Starts measuring from the current global count.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        FlopScope {
            start: flop_count(),
        }
    }

    /// Flops executed since this scope was created.
    pub fn take(&self) -> u64 {
        flop_count().wrapping_sub(self.start)
    }
}

/// Flop cost of a complex GEMM contribution `C += A·B` with inner dimension
/// `k`: each output element costs `k` complex multiply-adds.
#[inline]
pub const fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    8 * m as u64 * n as u64 * k as u64
}

/// Flop cost of an `n×n` complex LU factorization (≈ (2/3)n³ complex
/// multiply-adds = (16/3)n³ real flops).
#[inline]
pub const fn lu_flops(n: usize) -> u64 {
    let n = n as u64;
    16 * n * n * n / 3
}

/// Flop cost of a triangular solve with `nrhs` right-hand sides.
#[inline]
pub const fn trsm_flops(n: usize, nrhs: usize) -> u64 {
    8 * (n * n) as u64 * nrhs as u64
}

/// Flop cost of an explicit `n×n` inverse from its LU factors: the
/// forward solve on the identity's lower triangle, `Σ i²/2` ≈ (1/6)n³
/// complex multiply-adds, and the back substitution on the dense `L⁻¹`,
/// ≈ (1/2)n³ — (2/3)n³ in all, (16/3)n³ real flops. The O(n²) of the
/// diagonal scaling is not booked.
#[inline]
pub const fn inverse_flops(n: usize) -> u64 {
    let n = n as u64;
    16 * n * n * n / 3
}

/// Flop cost of the eigenvalues of an `n×n` Hermitian matrix: the complex
/// Householder tridiagonalization, two complex multiply-adds per entry of
/// the trailing triangle for the matrix–vector product and two for the
/// rank-2 update, `Σ 2m²` ≈ (2/3)n³ multiply-adds = (16/3)n³ real flops.
/// The O(n²) of the reflectors and of the QL sweeps on `(d, e)` is not
/// booked.
#[inline]
pub(crate) const fn eigh_values_flops(n: usize) -> u64 {
    let n = n as u64;
    16 * n * n * n / 3
}

/// Approximate flop cost of a full Hermitian eigendecomposition of size
/// `n`: the `(16/3)n³` Householder reduction the eigenvalues alone cost,
/// the same count again to accumulate the reflectors into the unitary, and
/// the QL rotations of its complex rows — 12 real flops per entry per
/// rotation, ≈ 1.2n² rotations on the spectra `tests/flop_counter_props.rs`
/// tallies, ≈ 14n³ — 25n³ in all.
#[inline]
pub const fn eigh_flops(n: usize) -> u64 {
    let n = n as u64;
    25 * n * n * n
}

/// Booked flop cost of the eigenvalues of a general `n×n` matrix
/// (Hessenberg reduction + shifted QR sweeps), a nominal `18n³`.
#[inline]
pub(crate) const fn geig_flops(n: usize) -> u64 {
    let n = n as u64;
    18 * n * n * n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_resets() {
        reset_flops();
        add_flops(100);
        add_flops(23);
        assert!(flop_count() >= 123);
        let prev = reset_flops();
        assert!(prev >= 123);
    }

    #[test]
    fn scope_measures_delta() {
        let s = FlopScope::new();
        add_flops(42);
        assert!(s.take() >= 42);
    }

    #[test]
    fn cost_formulas() {
        assert_eq!(gemm_flops(2, 3, 4), 8 * 24);
        assert_eq!(trsm_flops(3, 2), 8 * 9 * 2);
        assert_eq!(lu_flops(3), 16 * 27 / 3);
        assert_eq!(inverse_flops(3), 16 * 27 / 3);
        assert_eq!(eigh_values_flops(3), 16 * 27 / 3);
        assert_eq!(eigh_flops(2), 25 * 8);
        assert_eq!(geig_flops(2), 18 * 8);
    }
}
