//! Tracing suite: the causal span tree, its exports, and the pay-for-use
//! guarantee.
//!
//! Three properties pin span tracing down end to end:
//!
//! 1. **Causality** — under chaos on a sharded backend, the Chrome-trace
//!    export carries remote-guard root spans whose children (transfers,
//!    faulted attempts, retry/backoff waits) decompose the operation's
//!    latency: children tile the root, never exceed it, and the residue is
//!    the guard's own base cost.
//! 2. **Determinism** — the same seed produces byte-identical trace
//!    exports, run after run.
//! 3. **Pay-for-use** — with tracing off, cycles and the rendered report
//!    are bit-identical to a build that has never heard of spans (the
//!    `tracing-off` row of `identity_matrix.rs`).

use trackfm_suite::net::FaultPlan;
use trackfm_suite::telemetry::Json;
use trackfm_suite::workloads::hashmap::{hashmap, HashmapParams};
use trackfm_suite::workloads::runner::{chrome_trace, execute_with_report, flamegraph, RunConfig};
use trackfm_suite::workloads::spec::WorkloadSpec;

fn spec() -> WorkloadSpec {
    // Zipf-skewed probes: random unchunked accesses → remote guard roots.
    hashmap(&HashmapParams {
        keys: 4_000,
        lookups: 4_000,
        skew: 1.02,
        seed: 0xC0FFEE,
    })
}

fn chaos_cfg() -> RunConfig {
    // 20% drops guarantee faulted transfers and retries on this schedule.
    RunConfig::trackfm(0.25)
        .with_shards(2)
        .with_faults(FaultPlan::drops(0xBAD_CAB1E, 200_000))
        .with_tracing()
}

/// One Chrome-trace `X` event, decoded just far enough to walk causality.
struct Ev {
    id: u64,
    parent: Option<u64>,
    kind: String,
    dur: u64,
    wait: u64,
    fault: Option<u64>,
    tid: u64,
}

fn decode(doc: &Json) -> Vec<Ev> {
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let args = e.get("args").unwrap();
            Ev {
                id: args.get("id").and_then(Json::as_u64).unwrap(),
                parent: args.get("parent").and_then(Json::as_u64),
                kind: args.get("kind").and_then(Json::as_str).unwrap().to_string(),
                dur: e.get("dur").and_then(Json::as_u64).unwrap(),
                wait: args.get("wait").and_then(Json::as_u64).unwrap(),
                fault: args.get("fault").and_then(Json::as_u64),
                tid: e.get("tid").and_then(Json::as_u64).unwrap(),
            }
        })
        .collect()
}

/// The tentpole acceptance test: a sharded chaos run exports a Chrome
/// trace in which remote-guard roots decompose their latency into
/// transfer, faulted-attempt, and retry/backoff children.
#[test]
fn chaos_trace_decomposes_remote_guard_latency() {
    let (out, _) = execute_with_report(&spec(), &chaos_cfg());
    let doc = chrome_trace(&out).expect("tracing was on");
    let evs = decode(&doc);

    let roots: Vec<&Ev> = evs
        .iter()
        .filter(|e| e.kind == "guard_slow_remote" && e.parent.is_none())
        .collect();
    assert!(!roots.is_empty(), "chaos must produce remote guard roots");

    let mut with_fault_and_retry = 0;
    for r in roots {
        let kids: Vec<&Ev> = evs.iter().filter(|e| e.parent == Some(r.id)).collect();
        let faulted = kids
            .iter()
            .any(|k| k.fault.is_some() && (k.kind == "transfer" || k.kind == "writeback_transfer"));
        let retried = kids.iter().any(|k| k.kind == "retry" && k.wait > 0);
        if faulted && retried {
            with_fault_and_retry += 1;
        }
        // Children tile the root: they never exceed it, and the residue is
        // bounded by the guard's own (non-stall) base cost.
        let sum: u64 = kids.iter().map(|k| k.dur).sum();
        assert!(sum <= r.dur, "children ({sum}) exceed root ({})", r.dur);
        if !kids.is_empty() {
            assert!(
                r.dur - sum < 2_000,
                "unaccounted latency: root {} vs children {sum}",
                r.dur
            );
        }
    }
    assert!(
        with_fault_and_retry > 0,
        "at least one root must show a faulted transfer AND a backoff retry"
    );

    // Transfer leaves ride per-shard tracks; both shards saw traffic.
    let shard_tids: std::collections::BTreeSet<u64> = evs
        .iter()
        .filter(|e| e.kind == "transfer")
        .map(|e| e.tid)
        .collect();
    assert!(
        shard_tids.len() >= 2,
        "expected ≥2 shard tracks: {shard_tids:?}"
    );

    // The flamegraph shows the same decomposition, keyed by site label.
    let folded = flamegraph(&out).expect("tracing was on");
    assert!(folded.lines().any(|l| l.contains(";retry ")), "{folded}");
    assert!(folded.lines().any(|l| l.contains(";transfer ")), "{folded}");
}

/// Same seed, same schedule: both exports are byte-identical across runs.
#[test]
fn traces_are_deterministic() {
    let (a, rep_a) = execute_with_report(&spec(), &chaos_cfg());
    let (b, rep_b) = execute_with_report(&spec(), &chaos_cfg());
    assert_eq!(
        chrome_trace(&a).unwrap().to_string_pretty(),
        chrome_trace(&b).unwrap().to_string_pretty()
    );
    assert_eq!(flamegraph(&a).unwrap(), flamegraph(&b).unwrap());
    assert_eq!(
        rep_a.to_json().to_string_pretty(),
        rep_b.to_json().to_string_pretty()
    );
}
