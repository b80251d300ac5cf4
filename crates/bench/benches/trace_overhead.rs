//! What span tracing costs the host: with tracing on, the wall-clock cost of
//! recording ~10⁴ spans plus the windowed timeline stays within a generous
//! constant factor of plain telemetry. (That observation never moves a
//! simulated cycle — telemetry off, on, traced — is the `tracing_off` row of
//! `tests/identity_matrix.rs`.)

use std::time::Instant;

use tfm_net::FaultPlan;
use tfm_workloads::hashmap::{hashmap, HashmapParams};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::spec::WorkloadSpec;

fn spec() -> WorkloadSpec {
    hashmap(&HashmapParams {
        keys: 4_000,
        lookups: 4_000,
        skew: 1.02,
        seed: 0xC0FFEE,
    })
}

fn chaos(cfg: RunConfig) -> RunConfig {
    // Drops force retries/backoff so traced runs record the full span
    // vocabulary, not just the happy path.
    cfg.with_shards(2)
        .with_faults(FaultPlan::drops(0xBAD_CAB1E, 100_000))
}

/// Best-of-`RUNS` wall-clock seconds for one full workload execution.
fn time_run(spec: &WorkloadSpec, cfg: &RunConfig) -> f64 {
    const RUNS: usize = 5;
    execute(spec, cfg); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        execute(spec, cfg);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let spec = spec();
    let off = chaos(RunConfig::trackfm(0.25));
    let tel = off.with_telemetry(true);
    let traced = off.with_tracing();

    let spans = execute(&spec, &traced)
        .telemetry
        .and_then(|s| s.trace)
        .map(|t| t.spans.len())
        .unwrap_or(0);
    assert!(spans > 0, "the traced run must record spans");

    println!("trace_overhead (best-of-5, wall clock, full run):");
    let t_off = time_run(&spec, &off);
    let t_tel = time_run(&spec, &tel);
    let t_traced = time_run(&spec, &traced);
    for (name, t) in [
        ("telemetry_off", t_off),
        ("telemetry_on", t_tel),
        ("tracing_on", t_traced),
    ] {
        println!("  {name:<16} {:>10.2} ms/run", t * 1e3);
    }
    println!("  {spans} spans/run recorded while tracing");

    // Tracing may cost, but boundedly: a full span arena + timeline must
    // stay within a generous constant factor of plain telemetry. The bound
    // is deliberately loose — this gate catches accidental O(n²) or
    // per-access allocation regressions, not single-digit-percent drift.
    let limit = (t_tel * 20.0).max(t_tel + 0.05);
    assert!(
        t_traced < limit,
        "tracing overhead blew the bound: {:.2} ms vs limit {:.2} ms",
        t_traced * 1e3,
        limit * 1e3
    );
}
