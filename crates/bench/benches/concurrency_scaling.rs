//! Pay-for-use and scaling check for the deterministic multi-core machine:
//! `cores(1)` is asserted bit-identical to a hand-driven synchronous
//! machine — simulated cycles, every counter, and the byte-for-byte
//! rendered run report — so the scheduler costs nothing until a second
//! core exists. Then the 1/2/4/8-core sweep prices what concurrency buys
//! on a miss-heavy open-loop Zipf key-value workload: the issue/complete
//! split lets cores pipeline the link, and 8 cores must clear at least 4×
//! the simulated-cycle throughput of 1.

use tfm_sim::Machine;
use tfm_telemetry::{Histogram, Telemetry};
use tfm_workloads::openloop::{
    execute_open_loop, execute_open_loop_with_report, open_loop, OpenLoopParams, OpenLoopSpec,
};
use tfm_workloads::runner::{self, RunConfig};

fn workload() -> OpenLoopSpec {
    // Miss-heavy small-object serving: a 10% local budget with prefetching
    // off makes most gets issue a wire fetch — the regime where splitting
    // issue from completion pays.
    open_loop(&OpenLoopParams {
        keys: 20_000,
        requests: 30_000,
        skew: 1.05,
        seed: 17,
        mean_gap_cycles: 100,
    })
}

fn config() -> RunConfig {
    RunConfig::trackfm(0.1)
        .with_object_size(64)
        .with_prefetch(false)
}

/// Drives the requests by hand on a plain synchronous machine — exactly
/// what the suite did before the scheduler existed — and assembles the
/// identical open-loop report.
fn manual_sync(ol: &OpenLoopSpec, cfg: &RunConfig) -> (tfm_workloads::Outcome, Histogram) {
    let (module, report, mem) = runner::compile_for(&ol.spec, cfg, None);
    let heap = ol.spec.heap_size(cfg.object_size);
    let mut machine = Machine::new(&module, mem, cfg.cost, heap);
    let args = runner::setup(&ol.spec, &mut machine, false);
    let tel = Telemetry::enabled();
    machine.set_telemetry(tel.clone());
    let mut latency = Histogram::new();
    let mut last = None;
    for req in &ol.requests {
        let start = machine.clock().max(req.arrival);
        machine.set_clock(start);
        let mut call = args.clone();
        call.push(req.key);
        last = Some(machine.run("get", &call).expect("request trapped"));
        latency.record(machine.clock() - req.arrival);
    }
    let mut result = last.expect("at least one request");
    result.stats.cycles = machine.clock();
    let mut telemetry = tel.snapshot();
    runner::attribute_removed_guards(&report, &mut telemetry);
    (
        tfm_workloads::Outcome {
            result,
            report: Some(report),
            telemetry,
        },
        latency,
    )
}

fn main() {
    let ol = workload();
    let cfg = config();
    let requests = ol.requests.len();

    // ------------------------------------------------------------------
    // 1. Identity gate: cores(1) is the synchronous machine, bit for bit —
    //    cycles, counters, and the rendered report.
    // ------------------------------------------------------------------
    println!("concurrency_scaling: pay-for-use checks");
    let (one, rep_one) = execute_open_loop_with_report(&ol, &cfg);
    let cfg_tel = cfg.with_telemetry(true);
    let (manual, manual_lat) = manual_sync(&ol, &cfg_tel);
    assert_eq!(
        one.outcome.result.stats, manual.result.stats,
        "cores(1) must not change simulated cycles"
    );
    assert_eq!(one.outcome.result.runtime, manual.result.runtime);
    assert_eq!(one.outcome.result.transfers, manual.result.transfers);
    let mut manual_rep = runner::build_report(&ol.spec, &cfg_tel, &manual);
    manual_rep.push_meta("cores", 1u32);
    manual_rep.push_meta("requests", requests as u64);
    manual_rep.push_histogram("request_latency_cycles", manual_lat);
    assert_eq!(
        rep_one.render(),
        manual_rep.render(),
        "cores(1) must render the identical report"
    );
    let base = one.makespan;
    println!("  simulated cycles: {base} — bit-identical scheduler(1) / synchronous machine");

    // ------------------------------------------------------------------
    // 2. What concurrency buys: the 1/2/4/8-core sweep.
    // ------------------------------------------------------------------
    println!("\nconcurrency_scaling ({requests} open-loop gets, miss-heavy Zipf):");
    let mut eight = base;
    for cores in [1u32, 2, 4, 8] {
        let run = execute_open_loop(&ol, &cfg.with_cores(cores));
        let rt = run.outcome.result.runtime.as_ref().unwrap();
        let speedup_x100 = base * 100 / run.makespan;
        println!(
            "  cores={cores}  {:>12} cycles  {:>5}.{:02}x  p50={:>6} p90={:>7} p99={:>7}  joins={}",
            run.makespan,
            speedup_x100 / 100,
            speedup_x100 % 100,
            run.latency.p50(),
            run.latency.p90(),
            run.latency.p99(),
            rt.fetch_joins,
        );
        eight = run.makespan; // the sweep ends on 8 cores
    }
    assert!(
        eight * 4 <= base,
        "8 cores must clear >= 4x the throughput of 1: {eight} vs {base} cycles"
    );
}
