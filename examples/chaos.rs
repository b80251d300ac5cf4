//! Chaos: run a workload across a scripted remote-node outage and watch the
//! runtime degrade and recover.
//!
//! The paper evaluates TrackFM on a flawless fabric; this example turns the
//! fabric hostile. A seeded fault plan drops 5% of transfers and takes the
//! remote node down entirely for one-eighth of the run. The slow path rides
//! it out on retry/backoff, the link-health tracker flips the runtime into
//! degraded mode (prefetch off, backoff widened), and recovery restores
//! full service — all deterministic, all visible in the run report.
//!
//! ```sh
//! cargo run --release --example chaos
//! ```

use trackfm_suite::net::FaultPlan;
use trackfm_suite::workloads::hashmap::{hashmap, HashmapParams};
use trackfm_suite::workloads::runner::{
    chrome_trace, execute, execute_with_report, flamegraph, RunConfig,
};

fn main() {
    // ------------------------------------------------------------------
    // 1. A fault-free rehearsal: learn how long the run takes, so the
    //    outage window can be parked across its second quarter.
    // ------------------------------------------------------------------
    // Zipf-skewed hash-map probes: random, unchunked accesses that ride the
    // guard slow path, so the span trace shows remote guards with their
    // transfer/retry/backoff children.
    let spec = hashmap(&HashmapParams {
        keys: 20_000,
        lookups: 20_000,
        skew: 1.02,
        seed: 0xC0FFEE,
    });
    let cfg = RunConfig::trackfm(0.25).with_shards(2);
    let clean = execute(&spec, &cfg);
    let total = clean.result.stats.cycles;
    let (outage_start, outage_end) = (total / 4, total / 4 + total / 8);
    println!("== fault-free rehearsal ==");
    println!("  result {} in {} cycles", clean.result.ret, total);

    // ------------------------------------------------------------------
    // 2. The same workload on an unreliable link: 5% drops throughout,
    //    plus a total remote-node outage over [start, end).
    // ------------------------------------------------------------------
    let plan = FaultPlan::drops(0xBAD_CAB1E, 50_000).with_outage(outage_start, outage_end);
    println!("\n== chaos run: {plan} ==");
    let (out, rep) = execute_with_report(&spec, &cfg.with_faults(plan).with_tracing());

    assert_eq!(
        out.result.ret, clean.result.ret,
        "faults must not change the answer"
    );
    println!(
        "  result {} — identical to the fault-free run ({}x slower: {} cycles)",
        out.result.ret,
        out.result.stats.cycles / total.max(1),
        out.result.stats.cycles
    );

    // ------------------------------------------------------------------
    // 3. What the runtime counted. Degraded mode is prefetch off and
    //    backoff x4; the report's timeline below shows when it was on.
    // ------------------------------------------------------------------
    let rt = out.result.runtime.as_ref().unwrap();
    println!("\n== link health ==");
    println!("  outage window: [{outage_start}, {outage_end})");
    println!(
        "  {} faults injected, {} retries, {} deadline overruns",
        rt.link_faults, rt.retries, rt.deadline_exceeded
    );
    println!(
        "  {} prefetches suppressed while degraded, {} canceled on faults",
        rt.prefetch_suppressed, rt.prefetch_canceled
    );
    println!("  degraded {} time(s)", rt.degradations);

    // ------------------------------------------------------------------
    // 4. The unified run report: the fault plan in the metadata, fault and
    //    retry counters in every ledger, the retry-latency histogram
    //    (detect + backoff penalty per retried operation), and the
    //    timeline's per-shard degraded windows.
    // ------------------------------------------------------------------
    print!("\n{rep}");

    // ------------------------------------------------------------------
    // 5. Span-trace exports: every slow guard, fetch, retry, and backoff
    //    wait as a causal tree, ready for off-the-shelf viewers.
    // ------------------------------------------------------------------
    let trace = chrome_trace(&out).expect("tracing was on");
    let folded = flamegraph(&out).expect("tracing was on");
    std::fs::create_dir_all("target").expect("create target/");
    std::fs::write("target/chaos_trace.json", trace.to_string_pretty())
        .expect("write chrome trace");
    std::fs::write("target/chaos_flame.folded", &folded).expect("write folded stacks");
    let spans = out
        .telemetry
        .as_ref()
        .unwrap()
        .trace
        .as_ref()
        .unwrap()
        .spans
        .len();
    println!("\n== span trace ==");
    println!("  {spans} spans captured");
    println!("  target/chaos_trace.json   — load in chrome://tracing or https://ui.perfetto.dev");
    println!("  target/chaos_flame.folded — pipe through flamegraph.pl for an SVG");

    println!("\nSame seed, same schedule: rerun this binary and every counter above repeats.");
}
