//! # omen-linalg — dense complex linear algebra with flop instrumentation
//!
//! This crate replaces the vendor BLAS/LAPACK + ScaLAPACK stack the original
//! OMEN simulator ran on. It provides exactly the kernels full-band quantum
//! transport needs:
//!
//! * [`ZMat`] — dense, row-major, double-precision complex matrices;
//! * [`gemm()`] — tiled, packed, multi-threaded general matrix multiply with
//!   `N`/`T`/`H` operand ops, running a register-blocked `MR×NR` complex
//!   microkernel with scalar and `x86_64` AVX2+FMA implementations behind
//!   one per-process dispatch point — the AVX2+FMA one 512 bits wide on
//!   AVX-512F hosts, with the 256-bit kernel's bits, so the width is no
//!   dispatch leg; for a fixed dispatch path, parallel
//!   output is bit-identical to serial ([`gemm_threaded`] pins the thread
//!   count, [`threads`] holds the `OMEN_THREADS`/`OMEN_SIMD` policies);
//! * [`Lu`] — blocked right-looking LU factorization with partial
//!   pivoting, multi-RHS solves and explicit inverses (the workhorse of
//!   the recursive Green's function); its trailing-matrix update runs on
//!   the tiled GEMM;
//! * [`eigh`] — Hermitian eigensolver (complex Householder
//!   tridiagonalization of the matrix as given + implicit-shift QL), used
//!   for bandstructures and contact-injection modes;
//! * [`flops`] — a global counter every kernel reports into, using the
//!   Gordon-Bell convention (complex multiply-add = 8 real flops), so the
//!   evaluation harness can reproduce the paper's sustained-performance
//!   figures from *measured* operation counts.

pub mod eig;
pub mod flops;
pub mod geig;
pub mod gemm;
pub mod lu;
pub mod matrix;
mod simd;
pub mod threads;
pub mod vec_ops;

pub use eig::{eigh, eigh_values, EighResult};
pub use flops::{flop_count, reset_flops, FlopScope};
pub use geig::eig_values_general;
pub use gemm::{gemm, gemm_threaded, matmul, matmul_h_n, matmul_n_h, Op};
pub use lu::Lu;
pub use matrix::ZMat;
pub use vec_ops::{axpy, dot};
