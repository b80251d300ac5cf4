#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
set -eux

cargo fmt --check
cargo build --workspace --release
# The benchmark (its own workspace) imports the crates' public items: build it
# now, into the target directory `benchmark/run.sh` reuses below, so a change
# that deletes or renames one fails here, naming it, before the long stages.
cargo build -q --release --manifest-path benchmark/Cargo.toml --target-dir target
cargo test -q --workspace --no-fail-fast
# The `--workspace` run above includes the root package's integration
# suites; what each one gates. The workload suite they walk, the far-memory
# harness for generated programs and the print/parse check are written
# once, in tests/common.
#   chaos           — seeded drop and outage schedules (fixed seeds inside
#                     the tests): semantic preservation across drop rates,
#                     determinism, and degradation/recovery under outage
#                     (the traced timeline shows the window, then healthy
#                     buckets), including a per-shard outage confined to
#                     the sick shard.
#   sharding        — deterministic placement and reproducible per-shard
#                     ledgers.
#   failover        — a 200-seed crash/restart sweep under replicas(2) asserts
#                     zero lost acknowledged writebacks, and the R=1 loss case
#                     (four shards or the one node) stays honestly accounted.
#   identity_matrix — pay-for-use, one table: a feature at its neutral value
#                     (inactive fault plan, replicas(1), tracing switched
#                     on then off, cores(1)) leaves the results, every
#                     counter, the rendered report and both trace exports
#                     byte-identical. The tracing row also checks that an
#                     untraced report has no timeline and no trace exports,
#                     and that traced and telemetry-off runs take the
#                     untraced run's cycles.
#   lint_gate       — the static matrix (tests/common: every suite workload
#                     under four compiler configs — default (guard-opt
#                     local), guard-opt none, no chunking, o1) is tfm-lint
#                     clean.
#                     Also the quickstart program, and a deleted guard that
#                     the lint must flag. pipeline_integration and
#                     roundtrip_pipeline walk the same matrix: the module
#                     verifies, has one runtime-init hook in main and no
#                     libc malloc/free, balances chunk begin/deref/end,
#                     recompiles to the same text (determinism, o1 off and
#                     on) and reaches a print->parse fixpoint.
#   random_programs — the static lint must agree with the dynamic guard
#                     sanitizer over the randomized corpus: one 200-seed
#                     sweep runs the two GuardOpt levels (None, Local)
#                     against a LocalMem oracle with cycles(None) >=
#                     cycles(Local), and the 200-seed
#                     differential corpus locks the bytecode engine to the
#                     reference tree-walker (`oracle` feature, tests only).
#   engine_identity — production vs the reference tree-walker: byte-identical
#                     reports on every system and hard configuration, and
#                     identical collected profiles on every suite workload.
#   tracing         — causal decomposition of guard latency under chaos and
#                     byte-identical trace exports across same-seed runs.
#   concurrency     — one wire transfer per in-flight object, a 200-seed
#                     cores(1) bitwise-identity + cores(N) determinism sweep,
#                     and overlapping demand-fetch spans in the multi-core
#                     trace.
#   dominance_oracle — the one dominator solver (`DomTree`) against the
#                     brute-force path definition, on seeded random CFGs
#                     and on every suite function before and after
#                     compilation.
#   pipeline_integration — chunk begins sit in preheaders, guard counts
#                     scale with memory instructions, o1 composes with every
#                     chunking mode, and recompiling output is safe.
#   roundtrip_pipeline — reparsed random pipeline output reaches a print
#                     fixpoint and behaves identically under far memory. Two
#                     seeded fuzz loops feed byte-edited suite modules to
#                     parse_module/verify/print and a byte-edited run report
#                     to Json::parse: errors are fine, a panic fails.
#   semantic_preservation — a table of (workload, systems, local fraction,
#                     object size) rows: every suite workload computes its
#                     host checksum on every system, and so do the chunking
#                     modes, o1, and rows drawn at random. Every TrackFM and
#                     AIFM run there has the guard sanitizer armed.

# Bench gates (each asserts its own invariants and aborts on violation):
#   figures        — every table of simulated cycles (Tables 1-2, Figs. 6-17,
#                    Sec. 4.6, the ablations, the Sec. 5 lessons, and this
#                    repository's guard_opt / shards / failover / cores) from
#                    the one table in `tfm_bench::EXHIBITS`, at full scale
#                    (the goldens exist only there): each claim's direction
#                    holds and every cell equals the exhibit's block in
#                    EXPERIMENTS.md, which is the golden. After an intended
#                    change: `cargo bench -p tfm-bench --bench figures --
#                    --bless` and review the diff. `tests/paper_mechanisms.rs`
#                    checks the same claims at 1/16 size (1/8 or 1/32 for four
#                    exhibits; the divisors are beside the ids).
#   trace_overhead — the traced run records spans at a bounded host cost.
# Where the guarantees of the five retired gates live:
#   guard_opt           — exhibit `guard_opt` (two levels, None and Local,
#                         one row per run-size suite workload: Local keeps
#                         no more guard sites and adds no cycles but on
#                         nas-is, whose inversion the claim explains);
#                         determinism, with o1 off and on:
#                         pipeline_integration's compilation_is_deterministic.
#   fault_overhead      — pay-for-use is pinned by identity_matrix's `faults`
#                         row and tfm-net's inactive_fault_plan_is_bit_
#                         identical_to_no_plan; a flawless run takes the one
#                         retry path, so host time is `tfm-perf --trace 1`'s
#                         `net.*_transfer_ns` and `runtime.localize_miss_ns`.
#   shard_scaling       — exhibit `shards`; one answer at every shard count
#                         is the runner's result check and `sharding`.
#   failover_overhead   — exhibit `failover` (crash row loses nothing);
#                         replicas(1) identity: identity_matrix.
#   concurrency_scaling — exhibit `cores` (8 cores >= 4x); cores(1) identity:
#                         identity_matrix and `concurrency`.
#   trace_overhead's cycle identity (off = telemetry = traced):
#                         identity_matrix's `tracing-off` row.
# Benches print tables and leave nothing in the tree (`figures` writes only
# under `--bless`); the status check after the loops keeps it that way.
tree_before=$(git status --porcelain)
for bench in figures trace_overhead; do
    cargo bench -q -p tfm-bench --bench "$bench"
done
# Every example runs once: `cargo test` only compiles them, and their
# `assert!`s (e.g. "faults must not change the answer") hold only if run.
# `chaos` writes its trace exports under the ignored `target/`.
for example in examples/*.rs; do
    cargo run -q --release --example "$(basename "$example" .rs)" >/dev/null
done
test "$tree_before" = "$(git status --porcelain)"

# tfm-perf smoke gate: every row of all five workloads runs once at 1/8
# size. The binary exits 0 even when rows fail, so check each result line.
# The second run is a build with debug assertions (and so overflow checks)
# on, in its own target directory: the residency invariants asserted in
# `Pager`, `FarMemory` and `StateTable` then see the 4-core, replicated and
# cold-crash rows, which no unit test reaches. No `tfm-perf` row
# cold-starts, so the two `evacuate_all` asserts (no fetch still `INFLIGHT`
# or `PENDING` past its ready cycle) run in the debug `cargo test` stage
# above instead, where the `tests/common` far-memory harness cold-starts
# every generated program. The
# `Sharded` replication invariants (a replica set is R distinct in-range
# shards; a key's acked version never goes back) see `serve_openloop`'s
# 4 shards x 2 replicas and cold-crash rows. The cold-crash row also
# reaches the two recovery invariants at the end of `Sharded::service`: no
# shard is left `Recovering`, and every acked key a just-synced shard hosts
# is held there at its acked version or is in the loss ledger. Two compiler
# checks run there too: `TrackFmCompiler::compile` verifies the module after
# every pass that edits it, and loop chunking compares the loop forest it
# keeps up to date with a fresh one after every loop it transforms.
# `compile_corpus`'s synthetic ladder is where they see the most loops: up to
# 24 per function, some nested two deep.
perf_rows_ok() {
    awk '
    /^\{/ { n++; if ($0 !~ /"correct":true/ || $0 !~ /"failed":0[,}]/) { print "tfm-perf row failed: " $0; bad = 1 } }
    END { if (n != 5) { print "tfm-perf: expected 5 result lines, got " n + 0; bad = 1 } exit bad }'
}
benchmark/run.sh --quick | perf_rows_ok
RUSTFLAGS="-C debug-assertions=on" CARGO_TARGET_DIR=target/debug-assertions \
    benchmark/run.sh --quick | perf_rows_ok

# The workspace run unifies the root package's dev-dependency features, so it
# lints the `oracle` build; the second line lints what production compiles.
# `or_fun_call` keeps eager `ok_or(format!(..))`-style arguments, which
# allocate on the success path too, out of the tree.
cargo clippy --workspace --all-targets -- -D warnings -W clippy::or_fun_call
cargo clippy -p tfm-sim -p tfm-workloads -p tfm-bench --all-targets -- -D warnings -W clippy::or_fun_call
# Intra-doc links are checked too: a renamed item must not leave a dead one.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
