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
#   sharding        — deterministic placement, reproducible per-shard ledgers,
#                     and the sharded(1) == SingleNode cost identity (fault
#                     plans included).
#   failover        — a 200-seed crash/restart sweep under replicas(2) asserts
#                     zero lost acknowledged writebacks, replicas(1) asserts
#                     bitwise pay-for-use identity, and the R=1 loss case
#                     stays honestly accounted.
#   lint_gate,      — soundness gate: tfm-lint must report zero uncovered heap
#   random_programs   accesses on every workload/example/config, and the
#                     static lint must agree with the dynamic guard sanitizer
#                     over the randomized corpus — including the 200-seed
#                     interprocedural sweep that runs every on/off combination
#                     of {interproc, call_aware_kills, guard_motion} against a
#                     LocalMem oracle, and the 200-seed differential corpus
#                     that locks the bytecode engine to the reference
#                     tree-walker (`oracle` feature, tests only).
#   engine_identity — production vs the reference tree-walker: byte-identical
#                     reports on every system and hard configuration, and
#                     identical collected profiles.
#   tracing         — causal decomposition of guard latency under chaos,
#                     byte-identical trace exports across same-seed runs, and
#                     the pay-for-use report identity.
#   concurrency     — one wire transfer per in-flight object, a 200-seed
#                     cores(1) bitwise-identity + cores(N) determinism sweep,
#                     and overlapping demand-fetch spans in the multi-core
#                     trace.

# Bench gates (each asserts its own invariants and aborts on violation):
#   guard_elision       — elision is deterministic, preserves results, never
#                         increases cycles (TFM_SCALE=8 for a quick pass).
#   guard_motion        — interproc custody + guard motion: deterministic,
#                         result-preserving, never slower, and *strictly*
#                         faster than elide-only on the serving loop.
#                         Emits BENCH_guard_motion.json.
#   fault_overhead      — the no-fault fast path is bit-identical.
#   trace_overhead      — tracing off is bit-identical; on, bounded.
#                         Emits BENCH_trace_overhead.json.
#   shard_scaling       — sharded(1) == SingleNode, then the shard sweep.
#   failover_overhead   — replicas(1) bit-identical; crash row loses zero
#                         acknowledged writebacks. Emits BENCH_failover.json.
#   concurrency_scaling — cores(1) bit-identical; 8 cores >= 4x throughput.
#                         Emits BENCH_concurrency.json.
for bench in guard_elision guard_motion fault_overhead trace_overhead \
    shard_scaling failover_overhead concurrency_scaling; do
    case "$bench" in
    guard_elision | guard_motion) TFM_SCALE=8 cargo bench -q -p tfm-bench --bench "$bench" ;;
    *) cargo bench -q -p tfm-bench --bench "$bench" ;;
    esac
done

# tfm-perf smoke gate: every row of all five workloads runs once at 1/8
# size. The binary exits 0 even when rows fail, so check each result line.
benchmark/run.sh --quick | awk '
    /^\{/ { n++; if ($0 !~ /"correct":true/ || $0 !~ /"failed":0[,}]/) { print "tfm-perf row failed: " $0; bad = 1 } }
    END { if (n != 5) { print "tfm-perf: expected 5 result lines, got " n + 0; bad = 1 } exit bad }'

# The workspace run unifies the root package's dev-dependency features, so it
# lints the `oracle` build; the second line lints what production compiles.
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p tfm-sim -p tfm-workloads -p tfm-bench --all-targets -- -D warnings
