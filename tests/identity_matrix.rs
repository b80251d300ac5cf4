//! The pay-for-use identity matrix: a feature at its neutral value changes
//! nothing.
//!
//! Every optional subsystem promises to cost nothing until it is switched
//! on. One table holds them all to the same standard: run the workload
//! with the feature absent and with it present at its neutral value, and
//! require the two runs to agree on the result, every counter section,
//! every per-shard ledger, the byte-for-byte rendered report (human and
//! JSON), and both trace exports. Both reports echo the *baseline*
//! configuration, so the only thing compared is what was measured.
//!
//! | row | baseline | neutral value |
//! |---|---|---|
//! | `faults` | flawless fabric | a plan whose rates are all zero |
//! | `replicas(1)` | 4 shards | 4 shards, one copy of each object |
//! | `tracing-off` | telemetry on | tracing switched on, then off again |
//! | `cores(1)` | hand-driven synchronous machine | the one-core scheduler |
//! | `driver` | hand-driven machine, `main` once | `execute` (the runner's driver), on all five systems |

pub mod common;

use trackfm_suite::net::{BackendSpec, FaultPlan};
use trackfm_suite::telemetry::RunReport;
use trackfm_suite::workloads::hashmap::{hashmap, HashmapParams};
use trackfm_suite::workloads::openloop::{execute_open_loop, open_loop, OpenLoopParams};
use trackfm_suite::workloads::runner::{
    build_report, chrome_trace, execute, flamegraph, Outcome, RunConfig,
};
use trackfm_suite::workloads::spec::WorkloadSpec;
use trackfm_suite::workloads::stream::{self, StreamParams};

/// The two runs of one row, each with the report built from it.
struct Pair {
    baseline: (Outcome, RunReport),
    neutral: (Outcome, RunReport),
}

/// Runs `spec` closed-loop under both configurations with telemetry on.
fn closed_loop(spec: &WorkloadSpec, baseline: RunConfig, neutral: RunConfig) -> Vec<Pair> {
    let echo = baseline.with_telemetry(true);
    let run = |cfg: RunConfig| {
        let out = execute(spec, &cfg.with_telemetry(true));
        let rep = build_report(spec, &echo, &out);
        (out, rep)
    };
    vec![Pair {
        baseline: run(baseline),
        neutral: run(neutral),
    }]
}

fn stream_sum() -> WorkloadSpec {
    stream::sum(&StreamParams { elems: 64 << 10 })
}

/// Zero rates deactivate the plan entirely.
fn faults() -> Vec<Pair> {
    let plan = FaultPlan::drops(0xC0FFEE, 0);
    assert!(!plan.is_active());
    let base = RunConfig::trackfm(0.25);
    let pair = closed_loop(&stream_sum(), base, base.with_faults(plan));
    let rt = pair[0].neutral.0.result.runtime.as_ref().unwrap();
    assert_eq!((rt.link_faults, rt.retries), (0, 0));
    pair
}

fn replicas_one() -> Vec<Pair> {
    let base = RunConfig::trackfm(0.25).with_backend(BackendSpec::sharded(4));
    let one = RunConfig::trackfm(0.25).with_backend(BackendSpec::sharded(4).with_replicas(1));
    closed_loop(&stream_sum(), base, one)
}

/// Tracing switched off again leaves the whole report byte-identical to
/// plain telemetry and exports nothing — and switching tracing *on* or
/// telemetry *off* changes observation, never the simulation.
fn tracing_off() -> Vec<Pair> {
    // Zipf-skewed probes under 20% drops on two shards: remote guard roots,
    // faulted transfers and retries, everything tracing would decorate.
    let spec = hashmap(&HashmapParams {
        keys: 4_000,
        lookups: 4_000,
        skew: 1.02,
        seed: 0xC0FFEE,
    });
    let base = RunConfig::trackfm(0.25)
        .with_shards(2)
        .with_faults(FaultPlan::drops(0xBAD_CAB1E, 200_000));
    assert!(!base.trace);
    let mut cleared = base.with_tracing();
    cleared.trace = false;
    let pair = closed_loop(&spec, base, cleared);
    let (gated, rep) = &pair[0].neutral;
    assert!(
        !rep.to_json().to_string_pretty().contains("timeline"),
        "untraced reports must not grow a timeline section"
    );
    assert!(chrome_trace(gated).is_none() && flamegraph(gated).is_none());
    let traced = execute(&spec, &base.with_tracing());
    assert_eq!(traced.result.stats.cycles, gated.result.stats.cycles);
    let off = execute(&spec, &base);
    assert_eq!(off.result.stats.cycles, gated.result.stats.cycles);
    pair
}

/// The strongest identity: with tracing, sharding and telemetry all on,
/// the scheduler's one-core run must be indistinguishable from a
/// hand-driven synchronous machine — no core lanes, no async artifacts,
/// and (checked by the matrix) the traces agree span for span.
fn cores_one() -> Vec<Pair> {
    let ol = open_loop(&OpenLoopParams {
        keys: 512,
        requests: 600,
        skew: 1.05,
        seed: 42,
        mean_gap_cycles: 300,
    });
    let cfg = RunConfig::trackfm(0.2)
        .with_object_size(64)
        .with_shards(2)
        .with_tracing()
        .with_telemetry(true);
    let (manual, clock) = common::manual_sync_outcome(&ol, &cfg);
    let sched = execute_open_loop(&ol, &cfg);
    assert_eq!(sched.makespan, clock);
    let report = |out: &Outcome| build_report(&ol.spec, &cfg, out);
    let pair = Pair {
        baseline: (manual.clone(), report(&manual)),
        neutral: (sched.outcome.clone(), report(&sched.outcome)),
    };
    assert!(
        !pair.neutral.1.render().contains("core"),
        "no core artifacts at cores(1)"
    );
    // Shard-health lanes are sampled only under a fault plan.
    assert!(
        !pair.baseline.1.render().contains(" ppm "),
        "a flawless trace has no shard-health lane"
    );
    vec![pair]
}

/// The runner's one driver against the closed-loop run written out by
/// hand, on every system, with telemetry and tracing on.
fn driver() -> Vec<Pair> {
    let spec = hashmap(&HashmapParams {
        keys: 4_000,
        lookups: 4_000,
        skew: 1.02,
        seed: 0xC0FFEE,
    });
    let systems = [
        RunConfig::local(),
        RunConfig::fastswap(0.25),
        RunConfig::trackfm(0.25),
        RunConfig::aifm(0.25),
        RunConfig::hybrid(0.25),
    ];
    let report = |cfg: &RunConfig, out: Outcome| {
        let rep = build_report(&spec, cfg, &out);
        (out, rep)
    };
    systems
        .iter()
        .map(|cfg| {
            let cfg = cfg.with_telemetry(true).with_tracing();
            Pair {
                baseline: report(&cfg, common::manual_outcome(&spec, &cfg)),
                neutral: report(&cfg, execute(&spec, &cfg)),
            }
        })
        .collect()
}

/// What every row must satisfy.
fn assert_identical(name: &str, pair: Pair) {
    let Pair {
        baseline: (a, rep_a),
        neutral: (b, rep_b),
    } = pair;
    assert_eq!(a.result.ret, b.result.ret, "{name}: result");
    assert_eq!(a.result.stats, b.result.stats, "{name}: exec stats");
    assert_eq!(a.result.runtime, b.result.runtime, "{name}: runtime stats");
    assert_eq!(a.result.pager, b.result.pager, "{name}: pager stats");
    assert_eq!(a.result.transfers, b.result.transfers, "{name}: ledger");
    assert_eq!(a.result.shards, b.result.shards, "{name}: shard ledgers");
    assert_eq!(rep_a.render(), rep_b.render(), "{name}: rendered report");
    assert_eq!(
        rep_a.to_json().to_string_pretty(),
        rep_b.to_json().to_string_pretty(),
        "{name}: JSON report"
    );
    assert_eq!(
        chrome_trace(&a).map(|t| t.to_string_pretty()),
        chrome_trace(&b).map(|t| t.to_string_pretty()),
        "{name}: chrome trace"
    );
    assert_eq!(flamegraph(&a), flamegraph(&b), "{name}: flamegraph");
}

/// The matrix: one test per row, named after it.
macro_rules! identity_matrix {
    ($($test:ident: $row:ident,)*) => {$(
        #[test]
        fn $test() {
            for pair in $row() {
                assert_identical(stringify!($row), pair);
            }
        }
    )*};
}

identity_matrix! {
    inactive_fault_plan_changes_nothing: faults,
    one_replica_changes_nothing: replicas_one,
    disabled_tracing_changes_nothing: tracing_off,
    one_core_changes_nothing: cores_one,
    the_driver_changes_nothing: driver,
}
