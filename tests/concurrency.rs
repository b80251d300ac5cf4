//! Concurrency suite: the deterministic multi-core machine.
//!
//! Three properties make the issue/complete pipeline trustworthy:
//!
//! 1. **One wire transfer per object** — when a second core demands an
//!    object whose fetch is already in flight, it joins the pending entry
//!    and stalls for the remainder instead of issuing its own transfer.
//! 2. **Pay-for-use** — `cores(1)` is today's synchronous machine, bit for
//!    bit: same cycles and counters under faults, sharding and tracing
//!    alike (a 200-seed sweep; the rendered report and trace are the
//!    `cores(1)` row of `identity_matrix.rs`).
//! 3. **Determinism** — `cores(N)` is a pure function of seed and config:
//!    the same inputs reproduce identical core clocks, stats, latencies
//!    and checksums on every run.

pub mod common;

use common::manual_sync_outcome;
use trackfm_suite::net::{mix, FaultPlan};
use trackfm_suite::runtime::{FarMemory, FarMemoryConfig};
use trackfm_suite::workloads::openloop::{
    execute_open_loop, execute_open_loop_with_report, open_loop, OpenLoopParams,
};
use trackfm_suite::workloads::runner::RunConfig;

#[test]
fn second_core_joins_the_inflight_fetch_one_wire_transfer() {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 20,
        object_size: 4096,
        local_budget: 8 * 4096,
        ..FarMemoryConfig::small()
    };
    let mut fm = FarMemory::new(cfg);
    fm.set_async_fetch(true);
    let p = fm.allocate(4096, 0).unwrap();
    let o = fm.obj_of_offset(p.offset());
    fm.evacuate_all(0);
    fm.reset_stats();

    // Core 0 demands the object: it is charged only to the issue point
    // (queueing + wire occupancy, not the propagation latency), and the
    // object parks in the in-flight table. The delivery cycle flows out
    // through the completion horizon for request-latency accounting.
    fm.set_core(0);
    let link = fm.config().link;
    let delivery = link.solo_cost(4096);
    let issue_stall = fm.localize(o, false, 0);
    assert_eq!(
        issue_stall,
        delivery - link.base_latency,
        "the issuing core pays only to the issue point"
    );
    assert_eq!(fm.demand_inflight_len(), 1);
    assert_eq!(
        fm.take_completion_horizon(),
        delivery,
        "the delivery cycle is reported through the completion horizon"
    );

    // Core 1 demands the same object mid-flight: it joins the pending
    // entry — no second transfer, no stall — and its request completes at
    // the same delivery cycle, reported through the horizon.
    fm.set_core(1);
    let join_at = 5_000;
    let join_stall = fm.localize(o, false, join_at);
    assert_eq!(join_stall, 0, "the joining core moves on at once");
    assert_eq!(fm.take_completion_horizon(), delivery);
    assert_eq!(fm.stats().fetch_joins, 1);
    assert_eq!(fm.stats().remote_fetches, 1, "one demand fetch issued");
    assert_eq!(fm.transfer_stats().fetches, 1, "one transfer on the wire");

    // After delivery the entry is claimed silently; the object is simply
    // resident.
    let after = fm.localize(o, false, delivery + 1);
    assert_eq!(after, 0);
    assert_eq!(fm.demand_inflight_len(), 0);
    assert_eq!(fm.stats().fetch_joins, 1);
    assert_eq!(fm.transfer_stats().fetches, 1);
}

#[test]
fn synchronous_mode_never_populates_the_inflight_table() {
    let mut fm = FarMemory::new(FarMemoryConfig::small());
    let p = fm.allocate(4096, 0).unwrap();
    let o = fm.obj_of_offset(p.offset());
    fm.evacuate_all(0);
    fm.reset_stats();
    let stall = fm.localize(o, false, 0);
    assert!(stall > 0);
    assert_eq!(fm.demand_inflight_len(), 0);
    assert_eq!(fm.stats().fetch_joins, 0);
}

fn tiny(seed: u64) -> OpenLoopParams {
    OpenLoopParams {
        keys: 128 + (mix(seed) % 128) as usize,
        requests: 200,
        skew: 1.05,
        seed,
        mean_gap_cycles: 50 + mix(seed ^ 0xA5A5) % 400,
    }
}

/// Seed-dependent configuration spanning the whole feature matrix: plain,
/// sharded, replicated-with-crash, faulty links, traced.
fn vary(cfg: RunConfig, seed: u64) -> RunConfig {
    let mut cfg = cfg;
    if seed.is_multiple_of(7) {
        cfg = cfg
            .with_shards(4)
            .with_replicas(2)
            .with_faults(FaultPlan::none().with_cold_crash(
                50_000 + mix(seed ^ 3) % 100_000,
                400_000 + mix(seed ^ 4) % 200_000,
            ));
    } else if seed.is_multiple_of(3) {
        cfg = cfg.with_shards(1 + (mix(seed ^ 1) % 4) as u32);
    }
    if seed % 3 == 1 {
        cfg = cfg.with_faults(FaultPlan::drops(mix(seed ^ 5), 50_000));
    }
    if seed.is_multiple_of(5) {
        cfg = cfg.with_tracing();
    }
    cfg
}

#[test]
fn cores1_is_bitwise_identical_across_a_200_seed_sweep() {
    for seed in 0..200u64 {
        let ol = open_loop(&tiny(seed));
        let cfg = vary(RunConfig::trackfm(0.15).with_object_size(64), seed);
        let sched = execute_open_loop(&ol, &cfg);
        let (manual, clock) = manual_sync_outcome(&ol, &cfg);
        assert_eq!(
            sched.makespan, clock,
            "seed {seed}: simulated cycles differ"
        );
        assert_eq!(
            sched.outcome.result.stats, manual.result.stats,
            "seed {seed}"
        );
        assert_eq!(
            sched.outcome.result.runtime, manual.result.runtime,
            "seed {seed}"
        );
        assert_eq!(
            sched.outcome.result.transfers, manual.result.transfers,
            "seed {seed}"
        );
        assert_eq!(
            sched.outcome.result.shards, manual.result.shards,
            "seed {seed}"
        );
    }
}

#[test]
fn multi_core_runs_are_deterministic_across_the_sweep() {
    for seed in 0..200u64 {
        let ol = open_loop(&tiny(seed));
        let cores = 2 + (mix(seed ^ 9) % 7) as u32;
        let cfg = vary(RunConfig::trackfm(0.15).with_object_size(64), seed).with_cores(cores);
        let a = execute_open_loop(&ol, &cfg);
        let b = execute_open_loop(&ol, &cfg);
        assert_eq!(a.core_clocks, b.core_clocks, "seed {seed} ({cores} cores)");
        assert_eq!(a.makespan, b.makespan, "seed {seed}");
        assert_eq!(a.checksum, b.checksum, "seed {seed}");
        assert_eq!(
            a.outcome.result.stats, b.outcome.result.stats,
            "seed {seed}"
        );
        assert_eq!(
            a.outcome.result.runtime, b.outcome.result.runtime,
            "seed {seed}"
        );
        assert_eq!(
            a.outcome.result.transfers, b.outcome.result.transfers,
            "seed {seed}"
        );
    }
}

#[test]
fn concurrent_demand_fetches_overlap_in_the_trace() {
    // The acceptance criterion made visible: a miss-heavy 4-core run must
    // show demand-fetch spans from different cores overlapping in simulated
    // time — the issue/complete pipeline at work.
    let ol = open_loop(&OpenLoopParams {
        keys: 2_000,
        requests: 2_000,
        skew: 1.05,
        seed: 7,
        mean_gap_cycles: 100,
    });
    let cfg = RunConfig::trackfm(0.1)
        .with_object_size(64)
        .with_prefetch(false)
        .with_cores(4)
        .with_tracing();
    let (run, _) = execute_open_loop_with_report(&ol, &cfg);
    let trace = run
        .outcome
        .telemetry
        .as_ref()
        .unwrap()
        .trace
        .as_ref()
        .unwrap();
    let fetches: Vec<_> = trace
        .spans
        .iter()
        .filter(|s| s.core != trackfm_suite::telemetry::Span::NO_CORE)
        .collect();
    assert!(!fetches.is_empty(), "multi-core spans must be core-tagged");
    let mut cores_seen: Vec<u32> = fetches.iter().map(|s| s.core).collect();
    cores_seen.sort_unstable();
    cores_seen.dedup();
    assert!(cores_seen.len() >= 2, "work must spread across cores");
    let overlapping = fetches.iter().any(|a| {
        fetches
            .iter()
            .any(|b| b.core != a.core && b.start < a.end && a.start < b.end)
    });
    assert!(overlapping, "spans on different cores must overlap in time");
}
