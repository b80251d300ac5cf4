//! Chaos suite: workloads under seeded fault injection.
//!
//! Three properties pin the fault fabric down end to end:
//!
//! 1. **Semantic preservation** — whatever the link drops or loses to an
//!    outage, a workload's result is bit-identical to the fault-free run.
//!    Faults cost time, never correctness.
//! 2. **Determinism** — the same seed reproduces the exact same fault
//!    schedule, retry counters, and final stats, run after run.
//! 3. **Liveness** — a scripted remote-node outage mid-run degrades the
//!    runtime (prefetch off, backoff widened) and recovers when the link
//!    heals; nothing wedges, every workload completes.

use trackfm_suite::net::{BackendSpec, FaultPlan, PPM};
use trackfm_suite::workloads::runner::{execute, execute_with_report, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

fn spec() -> trackfm_suite::workloads::spec::WorkloadSpec {
    stream::sum(&StreamParams { elems: 64 << 10 })
}

/// Drop rates 0.1%, 1%, 10%: the result never moves, and once drops are
/// plausible on this schedule the run both pays for them (faults counted,
/// cycles grow) and still terminates. (The zero rate — an inactive plan is
/// bit-identical to the flawless fabric — is the `faults` row of
/// `identity_matrix.rs`.)
#[test]
fn drop_rate_sweep_preserves_semantics() {
    let spec = spec();
    let clean = execute(&spec, &RunConfig::trackfm(0.25));

    for drop_ppm in [1_000, 10_000, 100_000] {
        let cfg = RunConfig::trackfm(0.25).with_faults(FaultPlan::drops(0xC0FFEE, drop_ppm));
        let faulty = execute(&spec, &cfg);
        // `execute` already asserts `spec.expected`; cross-check against the
        // fault-free run for good measure.
        assert_eq!(
            faulty.result.ret, clean.result.ret,
            "{drop_ppm} ppm drops changed the answer"
        );
        let rt = faulty.result.runtime.expect("trackfm run");
        assert!(
            faulty.result.stats.cycles >= clean.result.stats.cycles,
            "faults only ever cost time"
        );
        if drop_ppm >= 100_000 {
            assert!(rt.link_faults > 0, "10% drops must actually fire");
            // Every fault is answered: demand fetches and writebacks retry,
            // faulted prefetches are canceled (and re-fetched on demand).
            assert!(
                rt.retries + rt.prefetch_canceled > 0,
                "drops must force retries or prefetch cancellations"
            );
            let tx = faulty.result.transfers.unwrap();
            assert_eq!(tx.faults, rt.link_faults, "ledger and runtime agree");
            assert!(tx.fault_wasted_bytes > 0, "failed attempts burn the wire");
        }
    }
}

/// The same seed reproduces the identical fault schedule and final stats —
/// every counter, both ledgers — across independent runs.
#[test]
fn same_seed_reproduces_identical_stats() {
    let spec = spec();
    let cfg = RunConfig::trackfm(0.25).with_faults(FaultPlan::drops(0xDEAD_BEEF, 50_000));
    let a = execute(&spec, &cfg);
    let b = execute(&spec, &cfg);
    assert_eq!(a.result.ret, b.result.ret);
    assert_eq!(a.result.stats, b.result.stats);
    assert_eq!(a.result.runtime, b.result.runtime);
    assert_eq!(a.result.transfers, b.result.transfers);
    let rt = a.result.runtime.unwrap();
    assert!(rt.link_faults > 0, "5% drops must fire on this schedule");

    // A different seed reshuffles which attempts fail (same rates, different
    // schedule) — determinism comes from the seed, not the rates.
    let other = execute(&spec, &cfg.with_faults(FaultPlan::drops(0x5EED, 50_000)));
    assert_eq!(other.result.ret, a.result.ret, "semantics hold on any seed");
}

/// A scripted remote-node outage mid-run: the runtime rides it out on
/// retry/backoff, visibly degrades (prefetch suppressed, degradation
/// counted), then recovers once the link heals — and the workload still
/// finishes with the right answer.
#[test]
fn outage_window_degrades_then_recovers() {
    // A stream long enough to span several timeline buckets, so the last
    // bucket samples only the tail of the run, well past the window.
    let spec = stream::sum(&StreamParams { elems: 512 << 10 });
    // Learn the fault-free length, then park an outage across the second
    // quarter of the measured phase.
    let clean = execute(&spec, &RunConfig::trackfm(0.25));
    let total = clean.result.stats.cycles;
    let start = total / 4;
    let end = start + total / 8;
    let cfg = RunConfig::trackfm(0.25)
        .with_faults(FaultPlan::none().with_outage(start, end))
        .with_tracing();
    let (out, rep) = execute_with_report(&spec, &cfg);

    assert_eq!(
        out.result.ret, clean.result.ret,
        "outage must not change the answer"
    );
    let rt = out.result.runtime.unwrap();
    assert!(rt.link_faults > 0, "the outage window must be hit");
    assert!(rt.retries > 0, "demand fetches retry through the outage");
    assert!(
        rt.degradations >= 1,
        "sustained faults must trip degradation"
    );
    assert!(
        rt.prefetch_suppressed > 0,
        "degraded mode turns the prefetcher off"
    );

    assert!(out.result.transfers.unwrap().faults > 0);

    // The degraded window shows on the traced timeline, and recovery
    // happened: the node's last health sample is healthy again.
    let degraded = &rep.timeline.as_ref().expect("traced run").shard_degraded()[0];
    assert!(degraded.contains(&true), "the timeline shows the window");
    assert_eq!(
        degraded.last(),
        Some(&false),
        "the link heals after the window"
    );

    // The retry-latency histogram made it into the run report.
    let h = rep.histogram("retry_latency_cycles").unwrap();
    assert!(
        h.count() > 0,
        "retried ops record their detect+backoff penalty"
    );
}

/// One shard of four goes dark mid-run while the other three keep serving:
/// faults, degradation, and recovery all stay confined to the sick shard,
/// the answer never moves, and the same seed reproduces the identical
/// per-shard ledgers.
#[test]
fn shard_outage_stays_confined_to_the_sick_shard() {
    // A longer stream than the suite default: after the outage window the
    // sick shard needs enough demand traffic (~2 dozen clean fetches) for
    // its EWMA to decay back below the recovery threshold.
    let spec = stream::sum(&StreamParams { elems: 256 << 10 });
    let sick = 2u32;
    // Learn the fault-free sharded run length, then park an outage across
    // its second quarter — on shard 2 only.
    let clean = execute(&spec, &RunConfig::trackfm(0.25).with_shards(4));
    let total = clean.result.stats.cycles;
    let start = total / 4;
    let cfg = RunConfig::trackfm(0.25)
        .with_backend(BackendSpec::sharded(4).with_fault_shard(sick))
        .with_faults(FaultPlan::none().with_outage(start, start + total / 8));
    let (out, rep) = execute_with_report(&spec, &cfg);

    assert_eq!(
        out.result.ret, clean.result.ret,
        "outage must not change the answer"
    );
    let rt = out.result.runtime.unwrap();
    assert!(rt.link_faults > 0, "the outage window must be hit");
    assert!(
        rt.degradations >= 1,
        "sustained faults must trip degradation"
    );

    // Fault confinement: only the scripted shard's ledger shows faults; the
    // other three served their share of the stream flawlessly.
    let shards = &out.result.shards;
    assert_eq!(shards.len(), 4);
    for (i, snap) in shards.iter().enumerate() {
        assert!(snap.stats.fetches > 0, "shard {i} must keep serving");
        if i == sick as usize {
            assert!(
                snap.stats.faults > 0,
                "the sick shard must record its outage"
            );
        } else {
            assert_eq!(snap.stats.faults, 0, "shard {i} must stay flawless");
        }
        // Every shard — the sick one included — ends the run healthy.
        assert!(!snap.health.is_degraded(), "shard {i} ends the run healthy");
    }

    // The report publishes one section per shard, faults where they belong.
    assert!(rep.field("shard2", "faults").unwrap() > 0);
    assert_eq!(rep.field("shard0", "faults"), Some(0));

    // Same seed, same outage, same per-shard ledgers — bit for bit.
    let again = execute(&spec, &cfg);
    assert_eq!(again.result.stats, out.result.stats);
    assert_eq!(again.result.runtime, out.result.runtime);
    assert_eq!(again.result.transfers, out.result.transfers);
    assert_eq!(again.result.shards, out.result.shards);
}

/// Fastswap under the same fabric: major faults re-drive through the kernel,
/// charging the retry cost, and the untransformed binary still completes.
#[test]
fn fastswap_retries_major_faults_under_drops() {
    let spec = spec();
    let clean = execute(&spec, &RunConfig::fastswap(0.25));
    let cfg = RunConfig::fastswap(0.25).with_faults(FaultPlan::drops(0xFA57, PPM / 10));
    let a = execute(&spec, &cfg);
    let b = execute(&spec, &cfg);

    assert_eq!(a.result.ret, clean.result.ret);
    let pager = a.result.pager.unwrap();
    assert!(pager.fault_retries > 0, "10% drops must hit major faults");
    assert_eq!(
        pager.major_faults,
        clean.result.pager.unwrap().major_faults,
        "retries re-drive the same fault, they don't mint new ones"
    );
    assert!(
        a.result.stats.cycles > clean.result.stats.cycles,
        "every retry charges the kernel fault path again"
    );
    // Same seed, same kernel-retry schedule.
    assert_eq!(a.result.pager, b.result.pager);
    assert_eq!(a.result.stats, b.result.stats);
}
