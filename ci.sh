#!/bin/sh
# Tier-1 gate: everything a PR must keep green.
set -eux

cargo fmt --check
cargo build --workspace --release
cargo test -q --workspace
# The `--workspace` run above includes the root package's integration
# suites; what each one gates:
#   chaos           — seeded fault schedules (fixed seeds inside the tests):
#                     semantic preservation, determinism, and degradation/
#                     recovery under outage, including a per-shard outage
#                     confined to the sick shard.
#   sharding        — deterministic placement and reproducible per-shard
#                     ledgers.
#   failover        — a 200-seed crash/restart sweep under replicas(2) asserts
#                     zero lost acknowledged writebacks, and the R=1 loss case
#                     (four shards or the one node) stays honestly accounted.
#   identity_matrix — pay-for-use, one table: a feature at its neutral value
#                     (inactive fault plan, replicas(1), tracing off,
#                     cores(1)) leaves the results, every counter, the
#                     rendered report and both trace exports byte-identical.
#   lint_gate,      — soundness gate: tfm-lint must report zero uncovered heap
#   random_programs   accesses on every workload/example/config, and the
#                     static lint must agree with the dynamic guard sanitizer
#                     over the randomized corpus — one 200-seed sweep runs the
#                     three GuardOpt levels (None, Local, Full) against a
#                     LocalMem oracle with cycles(None) >= cycles(Local) >=
#                     cycles(Full), and the 200-seed differential corpus
#                     locks the bytecode engine to the reference
#                     tree-walker (`oracle` feature, tests only).
#   engine_identity — production vs the reference tree-walker: byte-identical
#                     reports on every system and hard configuration, and
#                     identical collected profiles.
#   tracing         — causal decomposition of guard latency under chaos and
#                     byte-identical trace exports across same-seed runs.
#   concurrency     — one wire transfer per in-flight object, a 200-seed
#                     cores(1) bitwise-identity + cores(N) determinism sweep,
#                     and overlapping demand-fetch spans in the multi-core
#                     trace.

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
#   guard_opt           — exhibit `guard_opt` (no level adds cycles; Full <
#                         Local and a hoisted guard on serving); determinism:
#                         pipeline_integration::compilation_is_deterministic.
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
# cold-crash rows, which no unit test reaches. Among them, both
# `evacuate_all`s assert that no fetch is still in flight (`INFLIGHT` or
# `PENDING`) past its ready cycle; every row's cold start runs one. The
# `Sharded` replication invariants (a replica set is R distinct in-range
# shards; a key's acked version never goes back) see `serve_openloop`'s
# 4 shards x 2 replicas and cold-crash rows. The cold-crash row also
# reaches the two recovery invariants at the end of `Sharded::service`: no
# shard is left `Recovering`, and every acked key a just-synced shard hosts
# is held there at its acked version or is in the loss ledger.
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
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p tfm-sim -p tfm-workloads -p tfm-bench --all-targets -- -D warnings
# Intra-doc links are checked too: a renamed item must not leave a dead one.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
