#!/usr/bin/env bash
# Tier-1 gate plus style/lint gates. Run from anywhere; works offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# A doc that names a deleted or renamed item fails here instead of going
# stale, and so does a public doc that links a private item (the link
# renders dead; name it as a plain code span).
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" cargo doc --no-deps --workspace --offline

# Panic-free solver stack — the one panic gate and the one crate list:
# linalg/sparse/wf/negf/parsim/sched/analyze/serve must not grow
# unwrap/expect/panic/todo/unimplemented sites in non-test code (typed
# OmenError instead). Test modules are exempt via allow-unwrap-in-tests /
# allow-expect-in-tests in clippy.toml; a deliberate site carries
# `#[allow(clippy::panic)]` and its reason.
cargo clippy --no-deps -p omen-linalg -p omen-sparse -p omen-wf -p omen-negf -p omen-parsim -p omen-sched -p omen-analyze -p omen-serve -- \
    -D warnings -D clippy::unwrap_used -D clippy::expect_used -D clippy::panic \
    -D clippy::todo -D clippy::unimplemented

# The library lints clippy already has, so the domain analyzer below does
# not re-implement them: no exact float comparison that is not against zero
# (`float_cmp`; an intentional exact-zero guard passes as written), no
# printing from library code (the `OMEN_LOG` sink and omen-bench's table
# printer carry the two reasoned allows), and an `# Errors` section on every
# public fn returning a `Result`.
cargo clippy --workspace --lib -- -D warnings -D clippy::float_cmp -D clippy::print_stdout -D clippy::print_stderr -D clippy::missing_errors_doc

# Kernel dispatch legs: the microkernel path (scalar vs AVX2+FMA) is
# resolved once per process from OMEN_SIMD, so the linalg suite, the
# conformance battery, the linalg property battery (the Hermitian
# eigensolver does not dispatch, so its structured inputs must read the
# same on both legs), the selected-inversion battery (the serial tree
# engine against the dense inverse and against RGF/WF on every
# equivalence device; a regularized pivot and a NaN block, both typed),
# the physics invariants (sum rule, reciprocity, current conservation ride
# on the RGF recursion's thin products; the pair decimation's
# bit-identity to the two single ones), the omen-negf and omen-wf unit
# suites (the RGF recursion against the dense inverse on every
# coupling-support shape; the three WF solvers behind `wf_point`,
# SplitSolve bit-identical across rank counts and to the serial cyclic
# reduction — blocks past the GEMM depth tile, ragged blocks, more ranks
# than blocks; RGF's face-only point bit-identical to its full blocks),
# the omen-core unit suite (the contact fill's and the sweep's energy
# points' width batteries: the same bits at 1, 2 and 3 threads, and a
# budget of two cores fans both out with no OMEN_* set),
# the exact flop counts (the pair's, the recursion's and the WF point's
# counts must not depend on the dispatch path; a frozen sweep's gate point
# after the first costs exactly one grid of engine solves, its contacts —
# a remembered lead failure included — served from the sweep's
# `ContactTable`; a repeated solve with unequal leads or two k costs its
# engine points alone), the exact pins of four request curves
# (tests/curve_pins.rs: every current, SCF count and report count of the
# seed-0 `idvg-scf-wf` and `idvg-frozen-sp3s-rgf` requests and of two two-k
# UTB SCF sweeps, one stalled and one converging, one set per dispatch
# path), and the kernel bench smoke
# each run once per leg —
# tiny sizes, one sample, exercising the tiled GEMM, the blocked LU and
# its blocked solve / inverse (gemm, lu, trsm, inverse and selinv
# records, all required per leg by bench-gate --smoke) plus
# the BENCH_kernels.json emitter and parser
# round-trip, then tab2_flops on its smallest device (contacts_point,
# required per leg too, beside the RGF and WF energy-point records),
# writing to target/ so the committed baseline at the repo
# root is never touched (see DESIGN.md §10), then fig6_multilevel: the
# rank path's `parallel_transmission` against the serial sweep at
# E = 4, E2 × S2 and S4, the one run that takes it to four spatial ranks
# (under 1 s). The scalar leg is what keeps
# the reference path from rotting on machines that auto-dispatch SIMD.
leg() {
    OMEN_SIMD=$1 cargo test -q --release -p omen-linalg -p omen-negf -p omen-wf -p omen-core
    OMEN_SIMD=$1 cargo test -q --release --test kernel_conformance --test linalg_properties
    OMEN_SIMD=$1 cargo test -q --release --test selinv_properties --test engine_equivalence --test physics_invariants --test flop_counter_props
    OMEN_SIMD=$1 cargo test -q --release --test curve_pins
    OMEN_SIMD=$1 cargo bench -p omen-bench --bench kernels -- --smoke
    OMEN_SIMD=$1 cargo run --release -p omen-bench --bin tab2_flops -- --json --smoke
    OMEN_SIMD=$1 cargo run --release -p omen-bench --bin fig6_multilevel
}
# Smoke runs merge into their ledger, so a record left in a cached target/
# by an earlier run would satisfy bench-gate's "fresh record for this leg"
# check: start every CI run from no smoke ledgers (both legs still coexist,
# they are written after this line).
rm -f target/BENCH_*.smoke.json
leg 0
# The adaptive energy sweep asserts its headline: each adaptive grid beats
# the largest uniform grid with no more points. It is the one binary that
# reaches `ballistic_solve_adaptive`. A headline check needs one leg, so
# it runs once, outside `leg()` (about 2 s).
cargo run --release -p omen-bench --bin fig12_adaptive_grid
# The phonon headline: the universal thermal-conductance limit at 2 K,
# |κ/(T·κ₀) − 4| < 0.5, asserted by the binary. It is the one binary that
# reaches `PhononSystem::build` (force constants → slab assembly of the
# dynamical matrix → phonon NEGF); one leg, outside `leg()` (about 6 s).
cargo run --release -p omen-bench --bin fig13_phonon
if grep -q avx2 /proc/cpuinfo 2>/dev/null && grep -q fma /proc/cpuinfo 2>/dev/null; then
    leg 1
else
    echo "ci: NOTICE — CPU lacks AVX2+FMA, skipping the OMEN_SIMD=1 leg (scalar leg still ran)"
fi
# On AVX-512F hosts the SIMD path runs its GEMM microkernel and row update
# 512 bits wide, bit-identical to the 256-bit kernels; the linalg unit
# suite's width battery (run in both legs above) holds the two widths to
# the same bits and returns early on a CPU without AVX-512F. Say so.
if ! grep -q avx512f /proc/cpuinfo 2>/dev/null; then
    echo "ci: NOTICE — CPU lacks AVX-512F: the 512-bit kernels' bit-equality with the 256-bit ones was not exercised"
fi

# DESIGN.md describes what is: every identifier it puts in backticks that
# contains `_` or a capital (a `::` path is checked segment by segment)
# must occur as a token in the code, the commands of this script or the
# records, so a renamed or deleted item cannot stay named there. One
# `comm -23` of the two token lists. This script's comment lines are left
# out, so a deleted name left in a comment here cannot mask it. Names that
# are not this tree's items pass by being listed in not_items: the serve
# verb, a socket option, a declined crate, a symbol and two binary-name
# patterns.
not_items="Join TCP_NODELAY parking_lot gR_i figN tabN"
stale=$(LC_ALL=C comm -23 \
    <(grep -o '`[^`]*`' DESIGN.md | grep -oE '[A-Za-z][A-Za-z0-9_]*' | grep -E '_|[a-z][A-Z]|^[A-Z][a-z]' | LC_ALL=C sort -u) \
    <({ grep -rhoIE '[A-Za-z][A-Za-z0-9_]*' crates src tests examples benchmark/src TOLERANCES.toml BENCHMARK.json BENCH_*.json
        grep -vE '^\s*#' ci.sh | grep -oE '[A-Za-z][A-Za-z0-9_]*'
        printf '%s\n' $not_items; } | LC_ALL=C sort -u))
if [ -n "$stale" ]; then
    echo "ci: DESIGN.md names identifiers the tree does not hold:" $stale
    exit 1
fi

# SplitSolve is a schedule over the serial cyclic reduction
# (crates/wf/src/solver.rs): no factorisation or product of its own
# outside its tests, so the two cannot drift apart again.
if sed '/#\[cfg(test)\]/,$d' crates/wf/src/splitsolve.rs | grep -nE 'Lu::factor|gemm\(|matmul\('; then
    echo "ci: crates/wf/src/splitsolve.rs must call the block functions of solver.rs, not the kernels"
    exit 1
fi
# The GEMM microkernel has one body (crates/linalg/src/simd.rs `block`):
# packed B panels and operands read in place are two stride sets of it,
# which is why both drivers give the same bits. A second body would let
# them drift apart.
if [ "$(grep -c 'fn block<' crates/linalg/src/simd.rs)" -ne 1 ]; then
    echo "ci: crates/linalg/src/simd.rs must hold exactly one microkernel body (fn block<)"
    exit 1
fi
# A coupling is observed once, at assembly (crates/sparse/src/block.rs):
# `BlockTridiag` stores each off-diagonal block on its support, so the
# stored form is the support. An engine that observes a dense block again
# re-scans n² entries per energy point for what assembly already knows,
# and a dense off-diagonal block kept next to the coupling is what it
# would scan. Tests may observe a dense block to hold the stored one to it.
for f in $(grep -rl --include='*.rs' 'Coupling::observe' crates src examples | grep -vE '^crates/sparse/src/|/tests/'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'Coupling::observe'; then
        echo "ci: $f observes a coupling outside crates/sparse/src and tests; read the stored BlockTridiag couplings"
        exit 1
    fi
done
# A Hamiltonian's diagonal blocks are stored on the entries their assembly
# pushed (crates/sparse/src/block.rs `SlabAssembly`, `DiagEntries`), so no
# dense diagonal block of a device is ever built. `from_dense` turns dense
# blocks into that stored form for tests, benches and the omen-bench
# binaries; a library path that builds a device's blocks dense and
# converts them is the slabs × n² store the entries replaced.
for f in $(grep -rlE --include='*.rs' '::from_dense\b' crates src examples | grep -vE '^crates/sparse/src/|/tests/|^crates/bench/(benches|src/bin)/'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE '::from_dense\b'; then
        echo "ci: $f builds a BlockTridiag from dense blocks outside crates/sparse/src, tests, benches and omen-bench bins; assemble it with SlabAssembly"
        exit 1
    fi
done
# SplitSolve is the rank path's one spatial protocol. Selected inversion
# is a serial engine (its rank driver lost to serial RGF 6.5-10.6x at two
# ranks and was deleted: EXPERIMENTS.md "SelInv verdict"); a second
# spatial protocol arrives as a reviewed decision, not by regrowing here.
if grep -nE 'comm\.send|comm\.recv|Comm' crates/negf/src/selinv.rs; then
    echo "ci: crates/negf/src/selinv.rs is a serial engine and must not name a communicator"
    exit 1
fi

# The Hermitian eigensolver reduces the n × n matrix it is given (complex
# Householder + QL). The real 2n × 2n embedding it replaced cost 4-8x the
# time and a heuristic to undo the doubling (EXPERIMENTS.md "Hermitian
# eigensolver"); the doubled problem comes back as a reviewed decision,
# not as a convenience.
if sed '/#\[cfg(test)\]/,$d' crates/linalg/src/eig.rs | grep -nE 'embed|2 \* n'; then
    echo "ci: crates/linalg/src/eig.rs must not embed the problem in a matrix of order 2n"
    exit 1
fi

# A serial curve's `ContactTable` (per momentum slot: the lead pair's
# blocks, bands and contacts) is owned by that curve and dies with it; the
# rank path's `ContactTable` is owned by one rank and lives in that rank's
# `ModelBank` across the bias points of one curve. A lead store shared
# across curves, ranks or daemon requests needs an eviction policy and
# evidence from real traffic, so it arrives as a reviewed decision, not as
# process-wide state in these modules. Comment lines are skipped: prose
# may say "static schedule".
for f in crates/core/src/energy.rs crates/core/src/contacts.rs crates/sched/src/cost.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -vE '^\s*//' | grep -nE '\b(static|thread_local|OnceLock|Mutex|Arc)\b'; then
        echo "ci: $f holds owner-held memos and tables only (no static, thread_local!, OnceLock, Mutex or Arc)"
        exit 1
    fi
done

# One core budget (crates/linalg/src/threads.rs `budget`): ranks, daemon
# workers, fill threads and kernel threads all take their share of it, so
# nested parallel levels never oversubscribe the host. A second reading of
# the host's core count outside that module would be a second budget.
# Tests may read it to check the budget against it.
for f in $(grep -rl --include='*.rs' 'available_parallelism' crates src examples | grep -vE '^crates/linalg/src/threads\.rs$|/tests/'); do
    if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'available_parallelism'; then
        echo "ci: $f reads the host's core count; take omen_linalg::threads::budget() instead"
        exit 1
    fi
done

# One thread policy: the core budget. The dense kernels run on the calling
# thread; threads are the parallel levels above them (ranks, daemon
# workers, and crates/linalg/src/threads.rs `fan_out_each` over contacts and
# energy points). The GEMM's row split over scoped threads fired on no
# shipped product, and its knob, OMEN_THREADS, cost the default
# environment 1.6x on the SCF request (EXPERIMENTS.md "One thread
# policy"). A second kernel-level thread path, or a reader of that
# variable, arrives as a reviewed decision. Comment lines are skipped.
for f in crates/linalg/src/*.rs; do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^pub fn fan_out_each</,/^}/d' "$f" | grep -vE '^\s*//' | grep -nE 'thread::(scope|spawn|Builder)'; then
        echo "ci: $f starts threads outside threads::fan_out_each; the dense kernels run on the calling thread"
        exit 1
    fi
done
if grep -rnI 'OMEN_THREADS' crates src tests examples; then
    echo "ci: OMEN_THREADS is read by nothing; the core budget (omen_linalg::threads::budget) is the one thread policy"
    exit 1
fi

# One Hamiltonian per curve and momentum: a curve's ContactTable assembles
# the device's H₀ = H(V = 0) once per k_y (crates/core/src/contacts.rs
# `zero_potential_hamiltonian`) and the engines add each potential where
# they form A (omen_negf::rgf::a_diagonal). `parallel::frozen_system`
# folds a potential into H for the rank path's callers and the replays;
# nothing in the library calls it. Any other assembly in crates/core/src,
# or a call of frozen_system, is the per-point re-assembly H₀ replaced.
# Comment lines are skipped.
for f in crates/core/src/*.rs; do
    if sed -e '/#\[cfg(test)\]/,$d' -e '/^fn zero_potential_hamiltonian(/,/^}/d' -e '/^pub fn frozen_system(/,/^}/d' "$f" | grep -vE '^\s*//' | grep -nE '\.assemble\(|frozen_system\('; then
        echo "ci: $f assembles a device Hamiltonian; read the curve's H₀ from its ContactTable and hand the potential to the engine"
        exit 1
    fi
done

# One sweep body (crates/core/src/ballistic.rs `solve_problems`): a bias
# point's momenta, a frozen sweep's gate points, each adaptive round and
# `solve_sweep` are problems of one contact fill and one fan-out over every
# (problem, E). A second `fan_out_each` call site in the library is a
# second energy loop beside it, like the per-k and per-gate loops it
# replaced. Comment lines are skipped, and so is each file from its first
# top-level `#[cfg(test)]` item on (an indented one, a test-only variant or
# match arm, is library code around it and stays scanned).
sites=$(sed -s '/^#\[cfg(test)\]/,$d' crates/core/src/*.rs | grep -vE '^\s*//' | { grep -o 'fan_out_each(' || true; } | wc -l)
if [ "$sites" -gt 1 ]; then
    echo "ci: crates/core/src has $sites fan_out_each call sites outside tests; hand the energy units to ballistic's one sweep body (solve_problems)"
    exit 1
fi

# A scheduled unit has one holder at a time and is handed out again only
# when that holder is declared dead. Straggler speculation, the heartbeat
# that timed it and the brokering-only coordinator carried no traffic in
# any record (EXPERIMENTS.md "One holder per unit"); speculative
# re-execution needs a workload where it fires, so it comes back as a
# reviewed decision.
if sed -s '/#\[cfg(test)\]/,$d' crates/sched/src/*.rs | grep -nE 'Heartbeat|HeldCopy|predict_secs|straggler_(factor|min_ms)|coordinator_solves'; then
    echo "ci: crates/sched/src hands each unit to one holder (no heartbeat, straggler copies or brokering-only coordinator)"
    exit 1
fi

# The rank runtime keeps only what the rank path sends: point-to-point
# messages on `Comm` and two collectives rooted at local rank 0
# (`allreduce_sum`, `allgather`), every receive bounded by a timeout.
# A broadcast / gather with a movable root, a barrier no timeout can
# release, and scheduler counters echoed into `CommStats` had no caller
# outside tests and were deleted; a second collective shape, or a blocking
# primitive without a timeout, arrives as a reviewed decision. Comment
# lines are skipped: prose may name what is gone.
if sed -s '/#\[cfg(test)\]/,$d' crates/parsim/src/*.rs | grep -vE '^\s*//' | grep -nE 'Barrier|fn bcast|fn gather|fn barrier|record_sched'; then
    echo "ci: crates/parsim/src carries one collective shape and only bounded receives (no bcast, gather, barrier or scheduler echo)"
    exit 1
fi

# Scheduler bench smoke: two skewed synthetic sweeps (sleeps for solves) and
# one real one (`utb-k3`: the repo benchmark's UTB film through
# parallel_transmission_k_banked on 2 ranks, dynamic asserted bit-identical
# to static) swept both statically and dynamically on threads-as-ranks —
# exercises the full coordinator/worker protocol, asserts the dynamic
# imbalance is no worse than static, and round-trips the BENCH_sched.json
# emitter, writing to target/ (see DESIGN.md §11).
cargo bench -p omen-bench --bench sched -- --smoke

# Service bench smoke: a loopback omen-serve daemon under 4 concurrent
# clients with an instant executor — exercises framing, admission, the
# dedupe/cache machinery, and the BENCH_serve.json emitter, writing to
# target/ (see DESIGN.md §14). The unique-jobs and dedupe-storm cases
# must clear the catastrophic serve_smoke_floor throughputs (a per-frame
# Nagle stall is the failure mode the floor is tuned to catch).
cargo bench -p omen-bench --bench serve -- --smoke

# Bench-regression gate (DESIGN.md §12): the committed BENCH_*.json
# baselines must clear the guardbands declared in TOLERANCES.toml, and the
# fresh smoke records written above must exist per dispatch leg and clear
# the catastrophic floors. Run once per leg; on CPUs without AVX2+FMA the
# SIMD leg self-skips with a printed NOTICE (exit 0), never a silent pass.
OMEN_SIMD=0 cargo run --release -p omen-bench --bin bench-gate -- --smoke
OMEN_SIMD=1 cargo run --release -p omen-bench --bin bench-gate -- --smoke

# The repo benchmark (BENCHMARK.json) is a package of its own that compiles
# against the public API of crates/*: build, test and smoke-run it here so
# an API change that breaks it fails CI, not the benchmark pipeline. The
# smoke run also holds the benchmark's own checks (seed-0 reference
# currents, replay = driver and dynamic = static bit for bit, failed = 0).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

# Domain lints clippy cannot express, in one pass that lexes each file once
# (see DESIGN.md §9): `spmd-divergence` (a collective under a
# rank()-conditioned branch, spelled there or reached through the workspace
# call graph), `protocol-early-exit` and `tag-conflict` (on the effect
# summaries), and `tolerance-literal` (hard-coded tolerances in test
# targets; TOLERANCES.toml is the only source of numeric bounds, DESIGN.md
# §12). Float equality, library printing and `# Errors` docs are clippy's
# (the `--lib` gate after the panic ban). Escape hatch: `// analyze: allow(<rule>, <reason>)` —
# a reasoned annotation next to the code is the only place debt is
# accepted; any other finding fails. Per-rule counts and wall time are
# printed by the binary. The analyze crate is in the clippy panic-ban set.
cargo run --release -p omen-analyze -- --deny-all

echo "ci: all gates passed"
