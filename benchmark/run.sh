#!/bin/sh
# Runs all five workloads, one process each, and prints every metric as
# `name value unit`, then the run's result line (one JSON object). Run from
# anywhere; extra arguments go to every run:
#
#   benchmark/run.sh                      end-to-end metrics, 20 s per workload
#   benchmark/run.sh --trace 1            per-layer metrics and out/trace-*.json
#   benchmark/run.sh --quick              smoke test: 1 pass, sizes / 8, < 20 s
#   benchmark/run.sh --append a.jsonl     also collect result lines for --compare
#
# The build shares the repository's target directory unless CARGO_TARGET_DIR
# says otherwise.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
target=${CARGO_TARGET_DIR:-$here/../target}
cargo build --quiet --release --manifest-path "$here/Cargo.toml" --target-dir "$target"
for w in interp_local stream_far kv_far serve_openloop compile_corpus; do
    "$target/release/tfm-perf" --workload "$w" "$@"
done
