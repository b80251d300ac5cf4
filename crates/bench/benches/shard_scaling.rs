//! Shard scaling: the stream workload as the far heap spreads over
//! 1/2/4/8 remote nodes.
//!
//! Each shard owns an independent link, so the bandwidth (occupancy)
//! serialization that a single wire imposes on prefetch volleys relaxes as
//! shards are added: aggregate wire-busy cycles stay put (the same bytes
//! move), but they overlap, so the *per-shard* occupancy — the longest any
//! one wire is busy — drops and stalls shrink. The table reports both,
//! plus the balance across shards (max/mean fetches, 1.00 = perfectly
//! even).
//!
//! Asserted, not assumed: every shard count computes the same answer as the
//! paper's one-node fabric.

use tfm_bench::{f2, print_table, scale};
use tfm_workloads::runner::{execute, RunConfig};
use tfm_workloads::stream::{sum, StreamParams};

fn main() {
    let spec = sum(&StreamParams {
        elems: (2 << 20) / scale(),
    });
    let cfg = RunConfig::trackfm(0.25);

    let single = execute(&spec, &cfg);
    let base = single.result.stats.cycles;
    let mut rows = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        let out = execute(&spec, &cfg.with_shards(shards));
        assert_eq!(
            out.result.ret, single.result.ret,
            "sharding changed the answer"
        );
        let stats = out.result.stats;
        let tx = out.result.transfers.unwrap();
        // Aggregate occupancy: wire-busy cycles summed over shards (the
        // bandwidth term of every completed attempt, faults included —
        // flawless here, so it's exactly the delivered bytes' cost).
        let link = tfm_net::LinkParams::tcp_25g();
        let occupancy = link.occupancy(tx.total_bytes() + tx.fault_wasted_bytes);
        let (max_f, sum_f) = if out.result.shards.is_empty() {
            (tx.fetches, tx.fetches)
        } else {
            (
                out.result
                    .shards
                    .iter()
                    .map(|s| s.stats.fetches)
                    .max()
                    .unwrap(),
                out.result.shards.iter().map(|s| s.stats.fetches).sum(),
            )
        };
        let balance = max_f as f64 * shards as f64 / sum_f.max(1) as f64;
        rows.push(vec![
            shards.to_string(),
            stats.cycles.to_string(),
            f2(base as f64 / stats.cycles as f64),
            stats.stall_cycles.to_string(),
            occupancy.to_string(),
            (occupancy / u64::from(shards)).to_string(),
            f2(balance),
        ]);
    }
    print_table(
        "Shard scaling (stream sum, 25% local): aggregate vs. per-shard bandwidth occupancy",
        &[
            "shards",
            "cycles",
            "speedup",
            "stall cycles",
            "aggregate occ",
            "occ/shard",
            "balance",
        ],
        &rows,
    );
    println!(
        "  same bytes on every row: aggregate occupancy is flat, per-shard occupancy \
         divides by N,\n  and whatever stall time the single wire's serialization caused \
         shrinks as volleys overlap."
    );
}
