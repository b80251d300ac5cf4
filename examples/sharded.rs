//! Sharded far memory: spread the far heap over four remote nodes, then
//! take one of them down mid-run.
//!
//! The paper's evaluation uses a single remote node; this example swaps the
//! backend for a four-way sharded fabric. Objects route to shards by a
//! deterministic placement hash, each shard has its own bandwidth queue,
//! fault schedule, and health tracker — so when shard 2 goes dark for an
//! eighth of the run, the other three keep serving at full speed, the
//! degradation stays confined to the sick shard, and the answer never moves.
//!
//! ```sh
//! cargo run --release --example sharded
//! ```

use trackfm_suite::net::{BackendSpec, FaultPlan};
use trackfm_suite::workloads::runner::{execute, execute_with_report, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

const SHARDS: u32 = 4;
const SICK: u32 = 2;

fn main() {
    // ------------------------------------------------------------------
    // 1. A healthy sharded rehearsal: learn the run length, so the outage
    //    can be parked across its second quarter.
    // ------------------------------------------------------------------
    let spec = stream::sum(&StreamParams { elems: 256 << 10 });
    let cfg = RunConfig::trackfm(0.25).with_shards(SHARDS);
    let clean = execute(&spec, &cfg);
    let total = clean.result.stats.cycles;
    println!("== healthy {SHARDS}-shard run ==");
    println!("  result {} in {} cycles", clean.result.ret, total);
    for (i, snap) in clean.result.shards.iter().enumerate() {
        println!(
            "  shard{i}: {} fetches, {} KiB moved",
            snap.stats.fetches,
            snap.stats.total_bytes() >> 10
        );
    }

    // ------------------------------------------------------------------
    // 2. The same run with shard 2 scripted offline over [start, end):
    //    the fault plan is pinned to one shard, the rest stay flawless.
    // ------------------------------------------------------------------
    let (start, end) = (total / 4, total / 4 + total / 8);
    let cfg = RunConfig::trackfm(0.25)
        .with_backend(BackendSpec::sharded(SHARDS).with_fault_shard(SICK))
        .with_faults(FaultPlan::none().with_outage(start, end));
    println!("\n== shard {SICK} dark over [{start}, {end}) ==");
    let (out, rep) = execute_with_report(&spec, &cfg);

    assert_eq!(
        out.result.ret, clean.result.ret,
        "an outage must not change the answer"
    );
    println!(
        "  result {} — identical answer, {} cycles (was {})",
        out.result.ret, out.result.stats.cycles, total
    );

    // ------------------------------------------------------------------
    // 3. Fault confinement, shard by shard.
    // ------------------------------------------------------------------
    println!("\n== per-shard ledgers ==");
    for (i, snap) in out.result.shards.iter().enumerate() {
        println!(
            "  shard{i}: {} fetches, {} faults, ewma {} ppm{}{}",
            snap.stats.fetches,
            snap.stats.faults,
            snap.health.fault_rate_ppm(),
            if snap.health.is_degraded() {
                ", DEGRADED"
            } else {
                ""
            },
            if i == SICK as usize {
                "   <- scripted outage"
            } else {
                ""
            },
        );
    }
    let rt = out.result.runtime.as_ref().unwrap();
    let degraded_at_end = out
        .result
        .shards
        .iter()
        .filter(|s| s.health.is_degraded())
        .count();
    println!(
        "  degraded {} time(s) — shard {SICK} only; {} shard down(s), {} recovery(ies), \
         {} re-replication(s); {degraded_at_end} of {SHARDS} shards degraded at the end",
        rt.degradations, rt.shard_downs, rt.shard_recoveries, rt.re_replications
    );

    // ------------------------------------------------------------------
    // 4. The unified run report: the backend in the metadata, one counter
    //    section per shard, faults exactly where the script put them.
    // ------------------------------------------------------------------
    print!("\n{rep}");

    println!("\nSame seed, same placement, same outage: rerun this binary and every shard ledger repeats.");
}
