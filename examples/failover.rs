//! Crash failover: keep two copies of every object, cold-crash a shard
//! mid-run, and lose nothing.
//!
//! `sharded(4).with_replicas(2)` mirrors every acknowledged writeback onto a
//! backup shard. When shard 1 cold-crashes (its store wiped on restart), the
//! backend fails reads over to the surviving replica, drains the dead
//! shard's objects onto substitutes, and — once the node restarts with a
//! bumped epoch — re-syncs it from its ack ledger. The runtime only counts
//! what that did. The answer never moves and the audit proves zero
//! acknowledged writebacks were lost.
//!
//! ```sh
//! cargo run --release --example failover
//! ```

use trackfm_suite::net::{BackendSpec, FaultPlan};
use trackfm_suite::workloads::runner::{execute, execute_with_report, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

const SHARDS: u32 = 4;
const SICK: u32 = 1;

fn main() {
    // ------------------------------------------------------------------
    // 1. A healthy replicated rehearsal: same answer, slightly more wire
    //    (every writeback lands twice), zero failover traffic.
    // ------------------------------------------------------------------
    let spec = stream::sum(&StreamParams { elems: 256 << 10 });
    let clean = execute(
        &spec,
        &RunConfig::trackfm(0.25)
            .with_shards(SHARDS)
            .with_replicas(2),
    );
    println!("== healthy {SHARDS}-shard run, replicas=2 ==");
    println!(
        "  result {} in {} cycles",
        clean.result.ret, clean.result.stats.cycles
    );

    // ------------------------------------------------------------------
    // 2. The same run with shard 1 cold-crashing across the early phase:
    //    its store is wiped, the restart comes back with epoch 1.
    // ------------------------------------------------------------------
    let total = clean.result.stats.cycles;
    let (start, end) = (total / 8, total / 8 + total / 4);
    let cfg = RunConfig::trackfm(0.25)
        .with_backend(
            BackendSpec::sharded(SHARDS)
                .with_replicas(2)
                .with_fault_shard(SICK),
        )
        .with_faults(FaultPlan::none().with_cold_crash(start, end));
    println!("\n== shard {SICK} cold-crashed over [{start}, {end}) ==");
    let (out, rep) = execute_with_report(&spec, &cfg);

    assert_eq!(
        out.result.ret, clean.result.ret,
        "a crash must not change the answer"
    );
    println!(
        "  result {} — identical answer, {} cycles (was {})",
        out.result.ret, out.result.stats.cycles, total
    );

    // ------------------------------------------------------------------
    // 3. The failover story, counter by counter.
    // ------------------------------------------------------------------
    let rt = out.result.runtime.unwrap();
    println!("\n== recovery ledger ==");
    println!("  degradations           {}", rt.degradations);
    println!("  shard downs observed   {}", rt.shard_downs);
    println!("  shard recoveries       {}", rt.shard_recoveries);
    println!("  objects re-replicated  {}", rt.re_replications);
    println!("  objects re-synced      {}", rt.resynced_objects);
    println!(
        "  acked objects lost     {}  <- the whole point",
        rt.lost_objects
    );
    assert_eq!(
        rt.lost_objects, 0,
        "replicas=2 must never lose acknowledged data"
    );

    println!("\n== per-shard failover state ==");
    for (i, snap) in out.result.shards.iter().enumerate() {
        println!(
            "  shard{i}: state {:?}, epoch {}, {} failover reads, {} divergent writes, {}{}",
            snap.state,
            snap.epoch,
            snap.failover_reads,
            snap.divergent_writes,
            if snap.health.is_degraded() {
                "degraded"
            } else {
                "healthy"
            },
            if i == SICK as usize {
                "   <- scripted crash"
            } else {
                ""
            },
        );
    }

    // ------------------------------------------------------------------
    // 4. The unified run report: replica count in the backend metadata,
    //    state/epoch/failover counters in every shard section.
    // ------------------------------------------------------------------
    print!("\n{rep}");

    println!(
        "\nSame seed, same placement, same crash: rerun this binary and the \
         entire failover story repeats, bit for bit."
    );
}
