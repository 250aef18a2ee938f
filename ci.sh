#!/usr/bin/env bash
# Tier-1 gate plus style/lint gates. Run from anywhere; works offline.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q --workspace
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# A doc that names a deleted or renamed item fails here instead of going
# stale.
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace --offline

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
# than blocks),
# the exact flop counts (the pair's, the recursion's and the WF point's
# counts must not depend on the dispatch path; a frozen sweep's gate point
# after the first costs exactly one grid of engine solves, its contacts —
# a remembered lead failure included — served from the sweep's
# `ContactMemo`), and the kernel bench smoke
# each run once per leg —
# tiny sizes, one sample, exercising the tiled GEMM, the blocked LU and
# its blocked solve / inverse at 1/2/4 threads (gemm, lu, trsm, inverse
# and selinv records, all required per leg by bench-gate --smoke) plus
# the BENCH_kernels.json emitter and parser
# round-trip, then tab2_flops on its smallest device (contacts_point,
# required per leg too, beside the RGF and WF energy-point records),
# writing to target/ so the committed baseline at the repo
# root is never touched (see DESIGN.md §10). The scalar leg is what keeps
# the reference path from rotting on machines that auto-dispatch SIMD.
leg() {
    OMEN_SIMD=$1 cargo test -q --release -p omen-linalg -p omen-negf -p omen-wf
    OMEN_SIMD=$1 cargo test -q --release --test kernel_conformance --test linalg_properties
    OMEN_SIMD=$1 cargo test -q --release --test selinv_properties --test engine_equivalence --test physics_invariants --test flop_counter_props
    OMEN_SIMD=$1 cargo bench -p omen-bench --bench kernels -- --smoke
    OMEN_SIMD=$1 cargo run --release -p omen-bench --bin tab2_flops -- --json --smoke
}
# Smoke runs merge into their ledger, so a record left in a cached target/
# by an earlier run would satisfy bench-gate's "fresh record for this leg"
# check: start every CI run from no smoke ledgers (both legs still coexist,
# they are written after this line).
rm -f target/BENCH_*.smoke.json
leg 0
if grep -q avx2 /proc/cpuinfo 2>/dev/null && grep -q fma /proc/cpuinfo 2>/dev/null; then
    leg 1
else
    echo "ci: NOTICE — CPU lacks AVX2+FMA, skipping the OMEN_SIMD=1 leg (scalar leg still ran)"
fi

# SplitSolve is a schedule over the serial cyclic reduction
# (crates/wf/src/solver.rs): no factorisation or product of its own
# outside its tests, so the two cannot drift apart again.
if sed '/#\[cfg(test)\]/,$d' crates/wf/src/splitsolve.rs | grep -nE 'Lu::factor|gemm\(|matmul\('; then
    echo "ci: crates/wf/src/splitsolve.rs must call the block functions of solver.rs, not the kernels"
    exit 1
fi
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

# The lead memos (`LeadBandsMemo`, `ContactMemo`) are owned by one sweep
# and die with it. A contact cache shared across sweeps or daemon requests
# needs an eviction policy and evidence from real traffic, so it arrives
# as a reviewed decision, not as process-wide state in this module.
if sed '/#\[cfg(test)\]/,$d' crates/core/src/energy.rs | grep -nE '\b(static|thread_local|OnceLock|Mutex|Arc)\b'; then
    echo "ci: crates/core/src/energy.rs holds sweep-owned memos only (no static, thread_local!, OnceLock, Mutex or Arc)"
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
