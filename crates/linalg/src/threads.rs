//! Thread-count and SIMD-dispatch policy for the parallel dense kernels.
//!
//! The tiled GEMM (and through it the blocked LU trailing update) fan work
//! out over `std::thread::scope` stripes whose inner loops run a
//! register-blocked microkernel. Two runtime policies are decided here, in
//! one place:
//!
//! ## Thread count (`OMEN_THREADS`)
//!
//! 1. an **explicit count** passed by the caller
//!    ([`gemm_threaded`](crate::gemm::gemm_threaded)) always wins — the
//!    conformance battery uses this to pin serial-vs-parallel equality at
//!    fixed thread counts;
//! 2. otherwise the **`OMEN_THREADS`** environment variable (a positive
//!    integer) is honored, letting drivers and CI pick a width without
//!    recompiling;
//! 3. otherwise the calling thread's core [`budget`] — the whole machine
//!    unless a rank, worker or fan-out share was set.
//!
//! Small problems never leave the calling thread: below
//! [`PAR_MIN_WORK`] multiply-add operations the spawn cost exceeds the
//! kernel cost, so the auto policy returns 1 and the kernel runs the
//! identical stripe code serially. Because every output element accumulates
//! its `k`-products in the same fixed order no matter how rows are split
//! (see `crate::gemm`), the parallel result is bit-identical to the serial
//! one — the fallback is a pure performance decision, never a numerical
//! one.
//!
//! ## One core budget
//!
//! Ranks, daemon workers, fill threads and kernel threads share the host's
//! cores under the paper's rule: ranks × kernel threads ≤ cores. The
//! budget is a thread-local ([`budget`]): the cores this thread may keep
//! busy, the host's available parallelism unless [`with_budget`] set it.
//! Whoever starts threads hands each a share — the rank runtime
//! `cores / ranks`, the daemon `cores / workers`, a fan-out
//! `budget / width` — so nested parallel levels never oversubscribe.
//! `OMEN_THREADS` is the kernel share of a budget (unset: all of it), and
//! [`fan_out_width`] spends what is left on independent items: with
//! `OMEN_THREADS=1` on an n-core host, n fill threads; unset, one.
//!
//! ## SIMD dispatch (`OMEN_SIMD`)
//!
//! The microkernel has two implementations: a portable scalar reference
//! and an `x86_64` AVX2+FMA variant (`crate::simd`). Which one runs is
//! resolved **once per process** by [`simd_path`]: `OMEN_SIMD=0` forces
//! scalar, `OMEN_SIMD=1` demands the SIMD path (and is rejected when the
//! CPU lacks AVX2+FMA — never a silent downgrade), unset auto-detects via
//! `is_x86_feature_detected!`. For a fixed path, output is bit-identical
//! across thread counts; across paths, results agree only to rounding
//! (FMA and split accumulators legitimately change the rounding sequence —
//! see DESIGN.md §10), which is why the choice is pinned per process and
//! surfaced through [`dispatch_summary`] / the `OMEN_LOG` sink.
//!
//! Next to the path, and once per process too, `lanes` resolves the SIMD
//! path's register width: its GEMM microkernel and `axpy` run 512 bits
//! wide on CPUs with AVX-512F. The two widths give the same bits, so the
//! width is no dispatch leg and has no knob; [`dispatch_summary`] names
//! it, because its timings differ.
//!
//! ## Strict parsing
//!
//! Both variables reject garbage with a typed
//! [`OmenError::InvalidEnv`](omen_num::OmenError) instead of silently
//! defaulting: a typo'd `OMEN_THREADS=fuor` or `OMEN_SIMD=yes` would
//! otherwise produce unattributable benchmark records. The fallible
//! parsers ([`thread_policy`], [`simd_policy`]) are public for drivers
//! that want to validate at startup; the infallible kernel-facing
//! accessors reject by panicking with the typed error's message (the
//! kernels are infallible by contract, like their dimension asserts).

use omen_num::{OmenError, OmenResult};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Smallest kernel (in complex multiply-adds, `m·n·k`) that fans out over
/// threads. A scoped spawn + join costs 30–60 µs, and whether the second
/// thread then lands on an idle core is a host state, so the crossover is
/// a band, not a point. `gemm_threaded` on an `n`-cube, two threads over
/// one on a 2-core host, best of 7; ranges over four AVX2 and two scalar
/// sessions (EXPERIMENTS.md "Kernel fan-out crossover"):
///
/// | n | t1 AVX2 (µs) | t2/t1 AVX2 | t1 scalar (µs) | t2/t1 scalar |
/// |---|---|---|---|---|
/// | 32 | 10 | 3.1–7.0 | 38 | 1.9 |
/// | 64 | 75 | 1.4–1.6 | 304 | 0.75–1.12 |
/// | 90 | 212 | 0.97–1.22 | 878 | 0.62–1.09 |
/// | 128 | 543 | 0.75–1.09 | 2 464 | 0.58–1.03 |
/// | 256 | 4 313 | 0.61–1.02 | 19 102 | 0.52–1.01 |
/// | 512 | 32 651 | 0.54–1.00 | 151 979 | 0.51–0.53 |
///
/// 128³ is the smallest measured cube that reaches t2/t1 ≤ 0.8 on the
/// AVX2 leg and never loses by more than 9 % on either; everything under
/// it loses or ties there — and that is every slab block a shipped device
/// produces (18 … 113). The table was measured on the 256-bit kernel; the
/// 512-bit one shortens each serial product, which only moves the
/// crossover up, so those blocks stay serial.
pub const PAR_MIN_WORK: u64 = 128 * 128 * 128;

/// Environment variable overriding the kernel thread count.
pub const THREADS_ENV: &str = "OMEN_THREADS";

/// Environment variable overriding the SIMD dispatch: `0` forces the
/// scalar microkernel, `1` demands the AVX2+FMA one, unset auto-detects.
pub const SIMD_ENV: &str = "OMEN_SIMD";

/// The instruction-set path the dense kernels dispatch to, resolved once
/// per process by [`simd_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdPath {
    /// Portable scalar microkernel — the reference arithmetic order.
    Scalar,
    /// `x86_64` AVX2+FMA microkernel (`crate::simd`).
    Avx2Fma,
}

/// Surfaces an invalid environment configuration from an infallible kernel
/// entry point. The kernels cannot return errors by contract (they sit
/// under solvers that assume shape-checked, infallible BLAS), so a bad
/// `OMEN_*` value is rejected loudly at first use instead of silently
/// defaulting — the same policy as the dimension asserts.
#[allow(clippy::panic)]
fn reject(e: OmenError) -> ! {
    panic!("{e}")
}

/// Parses a raw `OMEN_THREADS` value: `Ok(None)` when unset, `Ok(Some(n))`
/// for a positive integer, a typed error otherwise (including `0`).
fn parse_threads(raw: Option<&str>) -> OmenResult<Option<usize>> {
    let Some(v) = raw else { return Ok(None) };
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(OmenError::InvalidEnv {
            var: THREADS_ENV,
            value: v.to_string(),
            expected: "a positive integer thread count, or unset",
        }),
    }
}

/// Parses a raw `OMEN_SIMD` value: `Ok(None)` when unset (auto-detect),
/// `Ok(Some(false))` for `0`, `Ok(Some(true))` for `1`, a typed error for
/// anything else.
fn parse_simd(raw: Option<&str>) -> OmenResult<Option<bool>> {
    match raw.map(str::trim) {
        None => Ok(None),
        Some("0") => Ok(Some(false)),
        Some("1") => Ok(Some(true)),
        Some(v) => Err(OmenError::InvalidEnv {
            var: SIMD_ENV,
            value: v.to_string(),
            expected: "0 (force scalar), 1 (force SIMD), or unset (auto)",
        }),
    }
}

/// The `OMEN_THREADS` policy, parsed strictly: `Ok(None)` when unset
/// (use available parallelism), `Ok(Some(n))` when set to a positive
/// integer.
///
/// # Errors
///
/// Returns [`OmenError::InvalidEnv`] when the variable is set but not a
/// positive integer.
pub fn thread_policy() -> OmenResult<Option<usize>> {
    parse_threads(std::env::var(THREADS_ENV).ok().as_deref())
}

/// The `OMEN_SIMD` policy, parsed strictly: `Ok(None)` when unset (auto),
/// `Ok(Some(force))` when pinned to `0`/`1`.
///
/// # Errors
///
/// Returns [`OmenError::InvalidEnv`] when the variable is set to anything
/// other than `0` or `1`.
pub fn simd_policy() -> OmenResult<Option<bool>> {
    parse_simd(std::env::var(SIMD_ENV).ok().as_deref())
}

/// True when this build/CPU combination can run the AVX2+FMA microkernel.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when the AVX2+FMA path can also run 512 bits wide: the CPU (and
/// the OS, which must save `zmm` state) supports AVX-512F.
pub(crate) fn avx512_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        simd_supported() && std::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernels [`simd_path`] runs on, down to the register width: the
/// `Avx2Fma` path's GEMM microkernel and `axpy` run 512 bits wide where
/// AVX-512F is present. Both widths give the same bits (`crate::simd`),
/// so the width is an implementation detail, not a dispatch leg: no
/// environment variable names it, and it shows only in
/// [`dispatch_summary`]. The kernels' safety rests on one condition: a
/// SIMD variant is only produced by [`lanes`] or, in tests, after the
/// same feature check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lanes {
    /// [`SimdPath::Scalar`].
    Scalar,
    /// [`SimdPath::Avx2Fma`] on 256-bit registers.
    Avx2,
    /// [`SimdPath::Avx2Fma`] on 512-bit registers.
    Avx512,
}

/// [`simd_path`] resolved down to the register width, once per process.
pub(crate) fn lanes() -> Lanes {
    static LANES: OnceLock<Lanes> = OnceLock::new();
    *LANES.get_or_init(|| match simd_path() {
        SimdPath::Scalar => Lanes::Scalar,
        SimdPath::Avx2Fma if avx512_supported() => Lanes::Avx512,
        SimdPath::Avx2Fma => Lanes::Avx2,
    })
}

fn resolve_simd() -> OmenResult<SimdPath> {
    match simd_policy()? {
        Some(false) => Ok(SimdPath::Scalar),
        Some(true) => {
            if simd_supported() {
                Ok(SimdPath::Avx2Fma)
            } else {
                Err(OmenError::InvalidEnv {
                    var: SIMD_ENV,
                    value: "1".to_string(),
                    expected: "a CPU with AVX2+FMA when forcing the SIMD path",
                })
            }
        }
        None => Ok(if simd_supported() {
            SimdPath::Avx2Fma
        } else {
            SimdPath::Scalar
        }),
    }
}

/// The resolved SIMD dispatch path, chosen **once per process**: the
/// `OMEN_SIMD` override wins, otherwise CPU feature detection. Later env
/// changes do not move a running process between paths — mixed-path output
/// inside one run would be irreproducible.
///
/// Panics with the typed [`OmenError::InvalidEnv`](omen_num::OmenError)
/// message when `OMEN_SIMD` is garbage or demands SIMD on a CPU without
/// AVX2+FMA.
pub fn simd_path() -> SimdPath {
    static PATH: OnceLock<OmenResult<SimdPath>> = OnceLock::new();
    match PATH.get_or_init(resolve_simd) {
        Ok(p) => *p,
        Err(e) => reject(e.clone()),
    }
}

/// One-line human summary of the resolved kernel dispatch — the SIMD path,
/// why it was chosen and, on the SIMD path, its register width (equal
/// bits, unequal timings), plus the thread policy — for the `OMEN_LOG`
/// sink (`omen-core::log`), so every benchmark record is attributable to
/// a concrete code path.
pub fn dispatch_summary() -> String {
    let why = match simd_policy() {
        Ok(Some(false)) => "OMEN_SIMD=0 forced",
        Ok(Some(true)) => "OMEN_SIMD=1 forced",
        Ok(None) if simd_supported() => "auto: avx2+fma detected",
        Ok(None) => "auto: avx2+fma not available",
        Err(_) => "invalid OMEN_SIMD",
    };
    let (path, width) = match lanes() {
        Lanes::Scalar => ("scalar", ""),
        Lanes::Avx2 => ("avx2+fma", "; 256-bit lanes: avx512f not available"),
        Lanes::Avx512 => ("avx2+fma", "; 512-bit lanes: avx512f detected"),
    };
    let threads = match thread_policy() {
        Ok(Some(n)) => format!("OMEN_THREADS={n}"),
        Ok(None) => format!("auto ({} available)", configured_threads()),
        Err(_) => "invalid OMEN_THREADS".to_string(),
    };
    format!("kernel dispatch: simd={path} ({why}{width}), threads={threads}")
}

thread_local! {
    /// [`with_budget`]'s setting on this thread; `None` is the host's cores.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
    /// Workers [`fan_out`] has started from this thread.
    static SPAWNED: Cell<usize> = const { Cell::new(0) };
}

/// The cores this thread may keep busy: what the innermost enclosing
/// [`with_budget`] set, otherwise the host's available parallelism (1 when
/// even that is unknown). This is the one place the host's core count is
/// read, once per process: on Linux the read walks the cgroup files (about
/// 25 µs on a 2-core x86_64 host), which every rank start and contact fill
/// would otherwise pay.
pub fn budget() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    BUDGET.with(Cell::get).unwrap_or_else(|| {
        *HOST.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    })
}

/// Runs `f` with this thread's [`budget`] set to `cores` (at least 1),
/// restoring the previous setting afterwards, also when `f` unwinds. A
/// thread starts at the host's cores: whoever spawns threads wraps each
/// in its share.
pub fn with_budget<R>(cores: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(Some(cores.max(1)))));
    f()
}

/// Threads a fan-out over `items` independent items runs on under this
/// thread's budget: the budget over the kernel share each thread keeps
/// ([`configured_threads`]), at least 1 and at most `items`. Unset
/// `OMEN_THREADS` gives the kernels the whole budget, so 1.
pub fn fan_out_width(items: usize) -> usize {
    (budget() / configured_threads()).min(items).max(1)
}

/// `f(0), …, f(n − 1)` in index order, computed on `width` threads: the
/// calling thread and `width − 1` scoped workers, each claiming the next
/// index from one counter, each under a `budget / width` share. Width 1
/// (or `n ≤ 1`) is the same claim loop on the calling thread, with no
/// spawn. Which thread runs an item never changes its result when `f` is
/// deterministic and keeps no per-thread state between items, so the
/// output is the serial one at every width.
///
/// A panic in `f` propagates to the caller once every worker has stopped.
pub fn fan_out<T: Send>(n: usize, width: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let width = width.clamp(1, n.max(1));
    let share = budget() / width;
    let next = AtomicUsize::new(0);
    let claim = || {
        with_budget(share, || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return done;
                }
                done.push((i, f(i)));
            }
        })
    };
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut put = |done: Vec<(usize, T)>| {
        for (i, x) in done {
            slots[i] = Some(x);
        }
    };
    if width == 1 {
        put(claim());
    } else {
        SPAWNED.with(|s| s.set(s.get() + width - 1));
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..width).map(|_| scope.spawn(claim)).collect();
            put(claim());
            for w in workers {
                match w.join() {
                    Ok(done) => put(done),
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
    }
    slots.into_iter().flatten().collect()
}

/// Workers [`fan_out`] has started from the calling thread: the witness
/// that a fan-out at width 1 starts no thread.
pub fn fan_out_spawned() -> usize {
    SPAWNED.with(Cell::get)
}

/// Configured kernel thread width: `OMEN_THREADS` when set to a positive
/// integer, otherwise the calling thread's whole core [`budget`].
/// Re-read on every call so tests and drivers can change the policy at
/// runtime; callers on hot paths gate on work size first.
///
/// Panics with the typed [`OmenError::InvalidEnv`](omen_num::OmenError)
/// message when `OMEN_THREADS` is set but not a positive integer.
pub fn configured_threads() -> usize {
    match thread_policy() {
        Ok(Some(n)) => n,
        Ok(None) => budget(),
        Err(e) => reject(e),
    }
}

/// Auto thread count for a kernel performing `work` complex multiply-adds:
/// 1 below [`PAR_MIN_WORK`] (serial fallback), else
/// [`configured_threads`].
pub fn auto_threads(work: u64) -> usize {
    if work < PAR_MIN_WORK {
        1
    } else {
        configured_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_work_stays_serial() {
        assert_eq!(auto_threads(0), 1);
        assert_eq!(auto_threads(PAR_MIN_WORK - 1), 1);
    }

    /// The traffic the threshold was sized for: every slab-block size in
    /// the kernel ledger's devices stays on the calling thread, and the
    /// threshold cube itself fans out.
    #[test]
    fn no_shipped_block_size_fans_out() {
        for n in [18u64, 32, 41, 72, 90, 113] {
            assert_eq!(auto_threads(n * n * n), 1, "n={n}");
        }
        assert_eq!(auto_threads(PAR_MIN_WORK), configured_threads());
    }

    #[test]
    fn configured_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn with_budget_nests_and_restores_on_unwind() {
        let outer = budget();
        with_budget(3, || {
            assert_eq!(budget(), 3);
            with_budget(0, || assert_eq!(budget(), 1));
            assert_eq!(budget(), 3);
            let unwound = std::panic::catch_unwind(|| with_budget(5, || panic!("inside")));
            assert!(unwound.is_err());
            assert_eq!(budget(), 3);
        });
        assert_eq!(budget(), outer);
        // A fresh thread starts at the host's cores, not at its parent's
        // setting: whoever spawns hands the share on.
        let host = std::thread::spawn(budget).join().unwrap();
        with_budget(1, || {
            assert_eq!(std::thread::spawn(budget).join().unwrap(), host);
        });
    }

    #[test]
    fn fan_out_width_is_the_budget_over_the_kernel_share() {
        let pinned = thread_policy().unwrap();
        for w in 1..=3 {
            with_budget(w * pinned.unwrap_or(1), || {
                // Unset, the kernels take the whole budget: one fan-out
                // thread, whatever the budget.
                let want = if pinned.is_some() { w } else { 1 };
                assert_eq!(fan_out_width(10), want);
                assert_eq!(fan_out_width(2), want.min(2));
                assert_eq!(fan_out_width(0), 1);
            });
        }
        with_budget(1, || assert_eq!(fan_out_width(10), 1));
    }

    #[test]
    fn fan_out_keeps_index_order_and_spawns_width_minus_one() {
        let want: Vec<u64> = (0..23u64).map(|i| i * i + 1).collect();
        for width in 1..=4 {
            let before = fan_out_spawned();
            let got = with_budget(8, || {
                fan_out(want.len(), width, |i| {
                    // Each thread runs under its share of the budget.
                    assert_eq!(budget(), 8 / width);
                    want[i]
                })
            });
            assert_eq!(got, want, "width {width}");
            assert_eq!(fan_out_spawned() - before, width - 1, "width {width}");
        }
        // More threads than items are not started.
        let before = fan_out_spawned();
        assert_eq!(fan_out(2, 4, |i| i), vec![0, 1]);
        assert_eq!(fan_out_spawned() - before, 1);
        assert!(fan_out(0, 3, |i| i).is_empty());
    }

    #[test]
    fn fan_out_propagates_a_worker_panic() {
        let r = std::panic::catch_unwind(|| {
            fan_out(8, 2, |i| {
                assert!(i != 5, "item 5");
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn threads_parse_accepts_positive_rejects_garbage() {
        // (raw OMEN_THREADS value, parsed count) — whitespace trims away
        // and a leading zero is still the same strict integer.
        let good: &[(Option<&str>, Option<usize>)] = &[
            (None, None),
            (Some("1"), Some(1)),
            (Some(" 4 "), Some(4)),
            (Some("01"), Some(1)),
            (Some("128"), Some(128)),
        ];
        for &(raw, want) in good {
            assert_eq!(parse_threads(raw).unwrap(), want, "OMEN_THREADS={raw:?}");
        }
        // Empty, whitespace-only, zero, negative, fractional, textual and
        // overflowing counts all surface the exact typed error — never a
        // silent default.
        let bad = [
            "",
            "   ",
            "0",
            " 0 ",
            "-2",
            "1.5",
            "four",
            "18446744073709551616",
        ];
        for raw in bad {
            match parse_threads(Some(raw)) {
                Err(OmenError::InvalidEnv {
                    var,
                    value,
                    expected,
                }) => {
                    assert_eq!(var, THREADS_ENV, "{raw:?}");
                    assert_eq!(value, raw, "{raw:?}");
                    assert_eq!(expected, "a positive integer thread count, or unset");
                }
                other => panic!("{raw:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn simd_parse_accepts_binary_rejects_garbage() {
        let good: &[(Option<&str>, Option<bool>)] = &[
            (None, None),
            (Some("0"), Some(false)),
            (Some(" 0 "), Some(false)),
            (Some("1"), Some(true)),
            (Some(" 1 "), Some(true)),
        ];
        for &(raw, want) in good {
            assert_eq!(parse_simd(raw).unwrap(), want, "OMEN_SIMD={raw:?}");
        }
        // `01` is not `0` or `1`: a typo'd leg selector must fail loudly,
        // not pick a leg. Likewise empty/whitespace/boolean-ish spellings.
        let bad = ["", "   ", "01", "2", "-1", "true", "yes", "avx2"];
        for raw in bad {
            match parse_simd(Some(raw)) {
                Err(OmenError::InvalidEnv {
                    var,
                    value,
                    expected,
                }) => {
                    assert_eq!(var, SIMD_ENV, "{raw:?}");
                    assert_eq!(value, raw.trim(), "{raw:?}");
                    assert_eq!(
                        expected,
                        "0 (force scalar), 1 (force SIMD), or unset (auto)"
                    );
                }
                other => panic!("{raw:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn dispatch_summary_names_path_and_threads() {
        let s = dispatch_summary();
        assert!(s.contains("simd="));
        assert!(s.contains("threads="));
        // The width shows exactly on the SIMD path, and it is the one the
        // host can run.
        let width = match simd_path() {
            SimdPath::Scalar => None,
            SimdPath::Avx2Fma if avx512_supported() => Some("512-bit lanes"),
            SimdPath::Avx2Fma => Some("256-bit lanes"),
        };
        assert_eq!(s.contains("-bit lanes"), width.is_some(), "{s}");
        if let Some(w) = width {
            assert!(s.contains(w), "{s}");
        }
    }

    #[test]
    fn simd_path_is_stable_across_calls() {
        assert_eq!(simd_path(), simd_path());
        if !simd_supported() {
            assert_eq!(simd_path(), SimdPath::Scalar);
        }
        assert_eq!(lanes() == Lanes::Scalar, simd_path() == SimdPath::Scalar);
        assert_eq!(
            lanes() == Lanes::Avx512,
            simd_path() == SimdPath::Avx2Fma && avx512_supported()
        );
    }
}
