//! Failover suite: shard crashes under replication.
//!
//! Four properties make crash failover trustworthy:
//!
//! 1. **Durability** — under `replicas(2)`, no acknowledged writeback is ever
//!    lost, whatever the crash schedule: a 200-seed sweep of scripted
//!    crash/restart windows ends every run with a clean audit.
//! 2. **Pay-for-use** — `replicas(1)` is the plain sharded backend, bit for
//!    bit: same cycles, same counters, same rendered report (the
//!    `replicas(1)` row of `identity_matrix.rs`).
//! 3. **Determinism** — the same seed reproduces the identical failover
//!    story: downs, recoveries, re-replications, per-shard epochs.
//! 4. **Honest loss** — without replication a cold crash *does* lose
//!    un-resynced state, and the audit says so instead of hiding it.

use trackfm_suite::net::{BackendSpec, FaultPlan, LinkParams, PlacementPolicy};
use trackfm_suite::runtime::{FarMemory, FarMemoryConfig, ObjId};
use trackfm_suite::workloads::runner::{execute, execute_with_report, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

fn spec() -> trackfm_suite::workloads::spec::WorkloadSpec {
    stream::sum(&StreamParams { elems: 64 << 10 })
}

/// SplitMix64 — the same generator the fault fabric uses, re-derived here so
/// the sweep's crash schedules are themselves reproducible.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One seeded crash scenario against a raw `FarMemory`: write everything,
/// ack it with an evacuation, then ride a scripted crash window (reads,
/// writes, another evacuation) and finish past the restart. Returns the
/// runtime so callers can audit it. The crash hits one seeded shard of
/// `backend` (the only node, for `BackendSpec::single()`).
fn crash_run(seed: u64, backend: BackendSpec) -> FarMemory {
    let sick = (mix(seed) % backend.shard_count() as u64) as u32;
    // Windows land inside the traffic phase below: start in [80K, 280K),
    // 60K-200K cycles long, warm or cold on a coin flip.
    let start = 80_000 + mix(seed ^ 1) % 200_000;
    let end = start + 60_000 + mix(seed ^ 2) % 140_000;
    let plan = if mix(seed ^ 3) & 1 == 0 {
        FaultPlan::none().with_cold_crash(start, end)
    } else {
        FaultPlan::none().with_crash(start, end)
    };
    let cfg = FarMemoryConfig {
        heap_size: 1 << 20,
        object_size: 4096,
        local_budget: 8 * 4096,
        link: LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    }
    .with_backend(backend.with_fault_shard(sick))
    .with_faults(plan);
    let mut fm = FarMemory::new(cfg);
    let p = fm.allocate(32 * 4096, 0).unwrap();
    let base = fm.obj_of_offset(p.offset());

    // Phase 1: dirty every object and acknowledge the writebacks.
    let mut now = 0u64;
    for k in 0..32u64 {
        now += fm.localize(ObjId(base.0 + k), true, now);
    }
    fm.evacuate_all(now);

    // Phase 2: mixed read/write traffic across the crash window, with a
    // second evacuation mid-stream so writebacks race the crash too.
    for k in 0..32u64 {
        let write = mix(seed ^ (k << 8)) & 1 == 0;
        now += fm.localize(ObjId(base.0 + k), write, now);
        if k == 16 {
            fm.evacuate_all(now);
        }
    }
    fm.evacuate_all(now);

    // Phase 3: land past the restart so recovery runs, then touch every
    // object once more — every acked version must still be readable.
    now = now.max(end + 1);
    for k in 0..32u64 {
        now += fm.localize(ObjId(base.0 + k), false, now);
    }
    fm
}

/// Four interleaved shards holding `replicas` copies of every object.
fn four_shards(replicas: u32) -> BackendSpec {
    BackendSpec::sharded(4)
        .with_placement(PlacementPolicy::Interleave)
        .with_replicas(replicas)
}

/// 200 seeded crash/restart schedules under `replicas(2)`: every run ends
/// with acknowledged data intact — zero lost writebacks, full redundancy.
#[test]
fn chaos_sweep_never_loses_an_acknowledged_writeback() {
    for seed in 0..200u64 {
        let fm = crash_run(seed, four_shards(2));
        let audit = fm.failover_audit().expect("replicated backend audits");
        assert!(
            audit.acked_keys > 0,
            "seed {seed}: nothing was acknowledged"
        );
        assert_eq!(audit.lost, 0, "seed {seed}: acked writeback lost");
        assert_eq!(
            audit.under_replicated, 0,
            "seed {seed}: redundancy not restored after recovery"
        );
        assert_eq!(fm.stats().lost_objects, 0, "seed {seed}");
    }
}

/// The same seed replays the identical failover story — every counter, every
/// per-shard epoch — across independent runs.
#[test]
fn same_seed_crash_schedule_is_bit_identical() {
    for seed in [7u64, 42, 1234] {
        let a = crash_run(seed, four_shards(2));
        let b = crash_run(seed, four_shards(2));
        assert_eq!(a.stats(), b.stats(), "seed {seed}");
        assert_eq!(a.transfer_stats(), b.transfer_stats(), "seed {seed}");
        assert_eq!(a.shard_snapshots(), b.shard_snapshots(), "seed {seed}");
    }
}

/// Without replication, a cold crash leaves the ack ledger no surviving
/// copy to re-sync from, so it *does* lose acknowledged state — and
/// the audit reports it instead of wedging or hiding it. The paper's one
/// remote node is the same backend with one shard, so it is held to the
/// same books.
#[test]
fn unreplicated_cold_crash_loses_acknowledged_state_honestly() {
    for backend in [four_shards(1), BackendSpec::single()] {
        let mut lost_somewhere = false;
        for seed in 0..40u64 {
            let fm = crash_run(seed, backend);
            let audit = fm.failover_audit().expect("crash plan activates the audit");
            // The run completed (no wedge) and the books balance: whatever
            // was lost is counted, never silently resurrected.
            assert_eq!(
                fm.stats().lost_objects,
                audit.lost,
                "{backend}, seed {seed}"
            );
            lost_somewhere |= audit.lost > 0;
        }
        assert!(
            lost_somewhere,
            "{backend}: 40 unreplicated cold/warm crashes never losing data \
             means the fault injector is not firing"
        );
    }
}

/// A crash observed mid-traffic triggers live re-replication: the ledger is
/// drained onto substitute shards while the sick one is down, and recovery
/// re-syncs it — redundancy ends the run fully restored.
#[test]
fn observed_crash_re_replicates_and_recovers() {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 20,
        object_size: 4096,
        local_budget: 8 * 4096,
        link: LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    }
    .with_backend(
        BackendSpec::sharded(4)
            .with_placement(PlacementPolicy::Interleave)
            .with_replicas(2)
            .with_fault_shard(2),
    )
    .with_faults(FaultPlan::none().with_cold_crash(100_000, 2_000_000));
    let mut fm = FarMemory::new(cfg);
    let p = fm.allocate(32 * 4096, 0).unwrap();
    let base = fm.obj_of_offset(p.offset());
    let mut now = 0u64;
    for k in 0..32u64 {
        now += fm.localize(ObjId(base.0 + k), true, now);
    }
    fm.evacuate_all(now);

    // Inside the window: reads fail over, the down shard is drained.
    now = 150_000;
    for k in 0..32u64 {
        now += fm.localize(ObjId(base.0 + k), false, now);
    }
    assert_eq!(fm.stats().shard_downs, 1);
    assert!(
        fm.stats().re_replications > 0,
        "ledger must drain off shard 2"
    );

    // Past the restart: recovery rejoins the shard with a bumped epoch.
    now = 2_000_001;
    for k in 0..32u64 {
        now += fm.localize(ObjId(base.0 + k), false, now);
    }
    assert_eq!(fm.stats().shard_recoveries, 1);
    assert_eq!(fm.backend().shard_epoch(2), 1, "restart bumps the epoch");
    let audit = fm.failover_audit().unwrap();
    assert_eq!((audit.lost, audit.under_replicated), (0, 0));
}

/// End to end through the workload runner: a replicated run rides out a cold
/// crash with the right answer, zero loss, and the full failover story in
/// the runtime counters and the run report.
#[test]
fn workload_survives_cold_crash_with_zero_loss() {
    let spec = spec();
    let clean = execute(&spec, &RunConfig::trackfm(0.25).with_shards(4));
    let cfg = RunConfig::trackfm(0.25)
        .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(1))
        .with_faults(FaultPlan::none().with_cold_crash(100_000, 400_000));
    let (out, rep) = execute_with_report(&spec, &cfg);

    assert_eq!(
        out.result.ret, clean.result.ret,
        "crash must not change the answer"
    );
    let rt = out.result.runtime.unwrap();
    assert_eq!(rt.lost_objects, 0, "R=2 must not lose acknowledged data");
    assert!(rt.shard_downs >= 1, "the crash must be observed");
    assert_eq!(
        rt.shard_recoveries, rt.shard_downs,
        "every down shard rejoins"
    );

    // A completed recovery is one replay: the shard went Recovering and
    // rejoined Up in the same step.
    assert!(rt.shard_recoveries >= 1, "every recovery completes");

    // The report publishes per-shard failover state and epochs.
    for s in 0..4 {
        let section = format!("shard{s}");
        assert!(
            rep.field(&section, "state").is_some(),
            "missing {section}.state"
        );
        assert!(
            rep.field(&section, "epoch").is_some(),
            "missing {section}.epoch"
        );
    }
    assert!(
        rep.field("shard1", "epoch").unwrap() >= 1,
        "shard 1 restarted"
    );

    // Same seed, same crash, same story — bit for bit.
    let again = execute(&spec, &cfg);
    assert_eq!(again.result.stats, out.result.stats);
    assert_eq!(again.result.runtime, out.result.runtime);
    assert_eq!(again.result.shards, out.result.shards);
}
