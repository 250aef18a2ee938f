//! Thread and SIMD-dispatch policy.
//!
//! ## One core budget
//!
//! The dense kernels — GEMM, the LU and its solves — run on the calling
//! thread. The threads are the paper's parallel levels above them: ranks,
//! daemon workers, and the fan-out over contacts and energy points. They
//! share the host's cores under the paper's rule, one kernel thread per
//! core. The budget is a thread-local ([`budget`]): the cores this thread
//! may keep busy, the host's available parallelism unless [`with_budget`]
//! set it. Whoever starts threads hands each a share — the rank runtime
//! `cores / ranks`, the daemon `cores / workers`, a fan-out
//! `budget / width` — so nested parallel levels never oversubscribe, and
//! [`fan_out_width`] spends a budget on independent items: one thread per
//! core, at most one per item.
//!
//! [`fan_out_each`] hands each item's result to a consumer on the calling
//! thread in index order, as soon as every lower index is in, so a caller
//! can fold results in as they arrive (a frozen sweep integrates each gate
//! point when its last energy is in) and keeps only the out-of-order
//! buffer beside them; [`fan_out`] collects them.
//!
//! No kernel splits its rows over threads: every slab block a shipped
//! device produces (18 … 113) is a product too small for a thread spawn to
//! pay for itself, and a row split would take cores from the fan-out
//! levels, which scale (EXPERIMENTS.md "One thread policy").
//!
//! ## SIMD dispatch (`OMEN_SIMD`)
//!
//! The microkernel has two implementations: a portable scalar reference
//! and an `x86_64` AVX2+FMA variant (`crate::simd`). Which one runs is
//! resolved **once per process** by [`simd_path`]: `OMEN_SIMD=0` forces
//! scalar, `OMEN_SIMD=1` demands the SIMD path (and is rejected when the
//! CPU lacks AVX2+FMA — never a silent downgrade), unset auto-detects via
//! `is_x86_feature_detected!`. For a fixed path, output is deterministic;
//! across paths, results agree only to rounding (FMA and split
//! accumulators legitimately change the rounding sequence — see
//! DESIGN.md §10), which is why the choice is pinned per process and
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
//! `OMEN_SIMD` rejects garbage with a typed
//! [`OmenError::InvalidEnv`](omen_num::OmenError) instead of silently
//! defaulting: a typo'd `OMEN_SIMD=yes` would otherwise produce
//! unattributable benchmark records. The fallible parser ([`simd_policy`])
//! is public for drivers that want to validate at startup; the infallible
//! kernel-facing [`simd_path`] rejects by panicking with the typed error's
//! message (the kernels are infallible by contract, like their dimension
//! asserts).

use omen_num::{OmenError, OmenResult};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// bits, unequal timings), plus the calling thread's core [`budget`] — for
/// the `OMEN_LOG` sink (`omen-core::log`), so every benchmark record is
/// attributable to a concrete code path.
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
    format!(
        "kernel dispatch: simd={path} ({why}{width}), budget={}",
        budget()
    )
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
/// thread's [`budget`]: one per core, at least 1 and at most `items`.
pub fn fan_out_width(items: usize) -> usize {
    budget().min(items).max(1)
}

/// `f(0), …, f(n − 1)` in index order, computed on `width` threads: the
/// calling thread and `width − 1` scoped workers, each claiming the next
/// index from one counter, each under a `budget / width` share. Width 1
/// (or `n ≤ 1`) is the same claim loop on the calling thread, with no
/// spawn. Which thread runs an item never changes its result when `f` is
/// deterministic and keeps no per-thread state between items, so the
/// output is the serial one at every width. It is [`fan_out_each`]
/// collecting what it hands on.
///
/// A panic in `f` propagates to the caller once every worker has stopped.
pub fn fan_out<T: Send>(n: usize, width: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    fan_out_each(n, width, f, |_, x| out.push(x));
    out
}

/// [`fan_out`]'s items, each handed to `consume(i, f(i))` on the calling
/// thread in index order as soon as every lower index is in. The calling
/// thread claims items like a worker and, after each of its own items and
/// after the last claim, takes what the workers sent. A result that
/// finishes ahead of a lower index waits in an out-of-order buffer and
/// nothing else is kept, so a consumer that folds each result in holds
/// one item beyond that buffer. Width 1 is `consume(i, f(i))` for `i` in
/// order on the calling thread, with no spawn.
///
/// A panic in `f` or in `consume` stops the claims and propagates to the
/// caller once every worker has stopped.
pub fn fan_out_each<T: Send>(
    n: usize,
    width: usize,
    f: impl Fn(usize) -> T + Sync,
    mut consume: impl FnMut(usize, T),
) {
    let width = width.clamp(1, n.max(1));
    let share = budget() / width;
    let next = AtomicUsize::new(0);
    let claim = || {
        let i = next.fetch_add(1, Ordering::Relaxed);
        (i < n).then_some(i)
    };
    let solve = |i| with_budget(share, || f(i));
    if width == 1 {
        while let Some(i) = claim() {
            consume(i, solve(i));
        }
        return;
    }
    // A thread that unwinds takes the remaining claims with it.
    struct StopOnUnwind<'a>(&'a AtomicUsize, usize);
    impl Drop for StopOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(self.1, Ordering::Relaxed);
            }
        }
    }
    SPAWNED.with(|s| s.set(s.get() + width - 1));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..width)
            .map(|_| {
                let (tx, next, claim, solve) = (tx.clone(), &next, &claim, &solve);
                scope.spawn(move || {
                    let _stop = StopOnUnwind(next, n);
                    // A closed channel is a caller that unwound.
                    while let Some(i) = claim() {
                        if tx.send((i, solve(i))).is_err() {
                            return;
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        let _stop = StopOnUnwind(&next, n);
        let mut ahead = std::collections::BTreeMap::new();
        let mut due = 0;
        let mut deliver = |i: usize, x: T| {
            ahead.insert(i, x);
            while let Some(x) = ahead.remove(&due) {
                consume(due, x);
                due += 1;
            }
        };
        while let Some(i) = claim() {
            deliver(i, solve(i));
            while let Ok((i, x)) = rx.try_recv() {
                deliver(i, x);
            }
        }
        // Until every worker has stopped; one that panicked leaves a gap
        // nothing past is delivered across, and its join says why.
        while let Ok((i, x)) = rx.recv() {
            deliver(i, x);
        }
        for w in workers {
            if let Err(p) = w.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
}

/// Workers [`fan_out`] has started from the calling thread: the witness
/// that a fan-out at width 1 starts no thread.
pub fn fan_out_spawned() -> usize {
    SPAWNED.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fan_out_width_is_the_budget_capped_by_the_items() {
        for cores in 1..=3 {
            with_budget(cores, || {
                assert_eq!(fan_out_width(10), cores);
                assert_eq!(fan_out_width(2), cores.min(2));
                assert_eq!(fan_out_width(0), 1);
            });
        }
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
    fn fan_out_each_delivers_in_index_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for width in 1..=4 {
            let mut seen = Vec::new();
            fan_out_each(
                23,
                width,
                |i| i * 3,
                |i, x| {
                    assert_eq!(std::thread::current().id(), caller);
                    seen.push((i, x));
                },
            );
            let want: Vec<_> = (0..23).map(|i| (i, i * 3)).collect();
            assert_eq!(seen, want, "width {width}");
        }
    }

    #[test]
    fn a_slow_first_item_delays_delivery_but_loses_nothing() {
        // Item 0 waits until every other item has finished, which the other
        // threads do meanwhile; their results wait for it, and none is lost.
        let n = 12;
        for width in 2..=4 {
            let (done, finished) = std::sync::mpsc::channel();
            let finished = std::sync::Mutex::new(finished);
            let mut seen = Vec::new();
            fan_out_each(
                n,
                width,
                |i| {
                    if i == 0 {
                        let finished = finished.lock().expect("no item panics");
                        for _ in 1..n {
                            finished.recv().expect("every other item reports");
                        }
                    } else {
                        done.send(i).expect("item 0 listens");
                    }
                    i
                },
                |i, x| seen.push((i, x)),
            );
            let want: Vec<_> = (0..n).map(|i| (i, i)).collect();
            assert_eq!(seen, want, "width {width}");
        }
    }

    #[test]
    fn a_panic_in_an_item_propagates_after_every_worker_stops() {
        for width in 1..=3 {
            let running = AtomicUsize::new(0);
            let mut seen = Vec::new();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fan_out_each(
                    40,
                    width,
                    |i| {
                        running.fetch_add(1, Ordering::SeqCst);
                        assert!(i != 7, "item 7");
                        running.fetch_sub(1, Ordering::SeqCst);
                        i
                    },
                    |i, _| seen.push(i),
                )
            }));
            assert!(r.is_err(), "width {width}");
            // Only the item that panicked is still counted as running:
            // every other thread finished its item and stopped before the
            // panic reached the caller, and nothing past the gap was
            // delivered.
            assert_eq!(running.load(Ordering::SeqCst), 1, "width {width}");
            assert!(seen.iter().all(|&i| i < 7), "width {width}: {seen:?}");
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
    fn dispatch_summary_names_path_and_budget() {
        let s = dispatch_summary();
        assert!(s.contains("simd="));
        assert!(with_budget(3, dispatch_summary).ends_with("budget=3"));
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
