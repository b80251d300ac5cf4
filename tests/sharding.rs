//! Sharding suite: routing invariants of the multi-node remote backend.
//!
//! **Placement determinism** makes sharded runs trustworthy: shard
//! assignment is a pure hash of `(key, shard_count)`, so the
//! same object set lands on the same shards run after run and per-shard
//! ledgers are reproducible. (One node is `sharded(1)` by construction:
//! `BackendSpec::single()` is that value.)

use trackfm_suite::net::{build_backend, mix, BackendSpec, FaultPlan, LinkParams};
use trackfm_suite::workloads::runner::{execute, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

fn spec() -> trackfm_suite::workloads::spec::WorkloadSpec {
    stream::sum(&StreamParams { elems: 64 << 10 })
}

/// The same object set maps to the same shards across independently built
/// backends, for several shard counts: the home is `mix(key) % shards`.
#[test]
fn placement_is_reproducible_across_backend_instances() {
    for shards in [2u32, 3, 4, 8] {
        let spec = BackendSpec::sharded(shards);
        let a = build_backend(LinkParams::tcp_25g(), spec, FaultPlan::none());
        let b = build_backend(LinkParams::tcp_25g(), spec, FaultPlan::none());
        for key in (0..4096u64).chain((0..64).map(|k| k << 40)) {
            let home = a.shard_of(key);
            assert!(home < shards as usize, "route must stay in range");
            assert_eq!(
                home,
                b.shard_of(key),
                "{shards}: key {key} moved between instances"
            );
            assert_eq!(home as u64, mix(key) % u64::from(shards), "key {key}");
        }
    }
}

/// Identical runs produce identical per-shard ledgers: placement plus the
/// deterministic simulation pin every shard counter, not just aggregates.
#[test]
fn repeated_runs_agree_on_every_shard_ledger() {
    let spec = spec();
    let cfg = RunConfig::trackfm(0.25).with_shards(4);
    let a = execute(&spec, &cfg);
    let b = execute(&spec, &cfg);
    assert_eq!(a.result.shards.len(), 4);
    assert_eq!(a.result.shards, b.result.shards);
    assert_eq!(a.result.stats, b.result.stats);
    // Every shard took a share of a uniformly striding stream.
    for (i, snap) in a.result.shards.iter().enumerate() {
        assert!(snap.stats.fetches > 0, "shard {i} idle on a uniform stream");
    }
    // Shard ledgers sum to the aggregate.
    let total: u64 = a.result.shards.iter().map(|s| s.stats.bytes_fetched).sum();
    assert_eq!(a.result.transfers.unwrap().bytes_fetched, total);
}
