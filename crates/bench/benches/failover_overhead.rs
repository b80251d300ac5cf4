//! Pay-for-use check for crash failover: `replicas(1)` is asserted
//! bit-identical to the plain sharded backend — simulated cycles, every
//! counter, and the byte-for-byte rendered run report — so the replication
//! machinery costs nothing until it is switched on. With it on, the bench
//! prices what redundancy costs: mirrored writebacks on a clean fabric, and
//! the full crash → drain → restart → resync arc under a scripted cold
//! crash, which must end with zero lost acknowledged writebacks.

use tfm_net::{BackendSpec, FaultPlan};
use tfm_workloads::runner::{execute, execute_with_report, RunConfig};
use tfm_workloads::spec::WorkloadSpec;
use tfm_workloads::stream::{self, StreamParams};

fn spec() -> WorkloadSpec {
    stream::sum(&StreamParams { elems: 256 << 10 })
}

fn main() {
    let spec = spec();

    // ------------------------------------------------------------------
    // 1. Identity gate: replicas(1) is the plain sharded backend, bit for
    //    bit — cycles, counters, and the rendered report.
    // ------------------------------------------------------------------
    println!("failover_overhead: pay-for-use checks");
    let plain = RunConfig::trackfm(0.25).with_backend(BackendSpec::sharded(4));
    let r1 = RunConfig::trackfm(0.25).with_backend(BackendSpec::sharded(4).with_replicas(1));
    let (a, rep_a) = execute_with_report(&spec, &plain);
    let (b, rep_b) = execute_with_report(&spec, &r1);
    assert_eq!(
        a.result.stats, b.result.stats,
        "replicas(1) must not change simulated cycles"
    );
    assert_eq!(a.result.runtime, b.result.runtime);
    assert_eq!(a.result.transfers, b.result.transfers);
    assert_eq!(a.result.shards, b.result.shards);
    assert_eq!(
        rep_a.render(),
        rep_b.render(),
        "replicas(1) must render the identical report"
    );
    let base_cycles = a.result.stats.cycles;
    println!("  simulated cycles: {base_cycles} — bit-identical sharded(4) / replicas(1)");

    // ------------------------------------------------------------------
    // 2. What redundancy costs: single node, plain shards, mirrored
    //    writebacks on a clean fabric, and a full crash+recovery run.
    // ------------------------------------------------------------------
    let single = execute(&spec, &RunConfig::trackfm(0.25));
    let r2 = execute(
        &spec,
        &RunConfig::trackfm(0.25).with_backend(BackendSpec::sharded(4).with_replicas(2)),
    );
    let crash_cfg = RunConfig::trackfm(0.25)
        .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(1))
        .with_faults(FaultPlan::none().with_cold_crash(base_cycles / 8, base_cycles / 2));
    let crashed = execute(&spec, &crash_cfg);

    assert_eq!(r2.result.ret, single.result.ret);
    assert_eq!(
        crashed.result.ret, single.result.ret,
        "a crash must not change the answer"
    );
    let crt = crashed.result.runtime.as_ref().unwrap();
    assert_eq!(
        crt.lost_objects, 0,
        "replicas=2 must not lose acknowledged data"
    );
    assert!(crt.shard_recoveries >= 1, "the crashed shard must rejoin");

    println!("\nfailover_overhead (simulated cycles, full run):");
    let rows = [
        ("single_node", &single),
        ("sharded4_r1", &a),
        ("sharded4_r2", &r2),
        ("sharded4_r2_crash", &crashed),
    ];
    for (name, out) in &rows {
        let tx = out.result.transfers.as_ref().unwrap();
        let rt = out.result.runtime.as_ref().unwrap();
        println!(
            "  {name:<18} {:>9} cycles  {:>7} wb KiB  downs={} recov={} resync={} rerepl={} lost={}",
            out.result.stats.cycles,
            tx.bytes_written_back >> 10,
            rt.shard_downs,
            rt.shard_recoveries,
            rt.resynced_objects,
            rt.re_replications,
            rt.lost_objects,
        );
    }
}
