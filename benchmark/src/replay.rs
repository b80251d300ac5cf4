//! Replay drivers: host nanoseconds per call of the layers that execute
//! *inside* `Machine::run`, where the benchmark cannot put a span.
//!
//! Each driver builds the layer's public object directly and replays a trace
//! against it the way the memory systems do: `is_safe` → `fast_touch`, else
//! `localize` → `collection_point`. Inputs are seeded; nothing here depends
//! on the workload being measured.

use std::hint::black_box;
use std::time::Instant;

use tfm_fastswap::{Pager, PagerConfig, PAGE_SIZE};
use tfm_net::{build_backend, BackendSpec, FaultPlan, Link, LinkParams};
use tfm_runtime::{FarMemory, FarMemoryConfig, ObjId};
use tfm_workloads::zipf::zipf_trace;
use tfm_workloads::SplitMix64;

const OBJECT_SIZE: u64 = 64;
const OBJECTS: u64 = 128 << 10;
const PAGES: u64 = 8 << 10;
const TRACE_LEN: usize = 400_000;
const SKEW: f64 = 1.02;

/// Host nanoseconds per call, by driver.
#[derive(Copy, Clone, Debug, Default)]
pub struct ReplayNanos {
    pub touch_hit: f64,
    pub localize_miss: f64,
    pub localize_miss_write: f64,
    pub pager_hit: f64,
    pub pager_fault: f64,
    pub link_transfer: f64,
    pub sharded_transfer: f64,
}

/// Nanoseconds per miss: what is left of `elapsed` once `hits` calls at
/// `hit_ns` each are taken out, over `misses`.
fn per_miss(elapsed_ns: f64, hits: u64, hit_ns: f64, misses: u64) -> f64 {
    ((elapsed_ns - hits as f64 * hit_ns) / misses.max(1) as f64).max(0.0)
}

fn far_memory(budget_share: f64) -> FarMemory {
    let heap = OBJECTS * OBJECT_SIZE;
    let cfg = FarMemoryConfig::small()
        .with_object_size(OBJECT_SIZE)
        .with_local_budget((heap as f64 * budget_share) as u64);
    let mut fm = FarMemory::new(FarMemoryConfig {
        heap_size: heap,
        ..cfg
    });
    fm.allocate(heap, 0)
        .expect("the heap holds one allocation of its own size");
    fm
}

/// One guard, as `TrackFmMem::guard` drives the runtime. Returns the stall.
fn guard(fm: &mut FarMemory, o: ObjId, write: bool, now: u64) -> u64 {
    if fm.table().is_safe(o) {
        fm.fast_touch(o, write);
        return 0;
    }
    let stall = fm.localize(o, write, now);
    fm.collection_point(now + stall);
    stall
}

/// Replays a Zipf object trace at a quarter budget; returns ns per miss.
fn zipf_misses(seed: u64, write_share: f64, hit_ns: f64) -> f64 {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let trace = zipf_trace(OBJECTS, SKEW, TRACE_LEN, &mut rng);
    let writes: Vec<bool> = trace.iter().map(|_| rng.next_f64() < write_share).collect();
    let mut fm = far_memory(0.25);
    fm.reset_stats();
    let mut now = 0u64;
    let t = Instant::now();
    for (&o, &w) in trace.iter().zip(&writes) {
        now += 100 + guard(&mut fm, ObjId(o), w, now);
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    black_box(now);
    let misses = fm.stats().remote_fetches;
    per_miss(elapsed, TRACE_LEN as u64 - misses, hit_ns, misses)
}

fn runtime(seed: u64, out: &mut ReplayNanos) {
    // Sequential sweeps of a fully resident heap: every guard is a hit.
    let mut fm = far_memory(1.0);
    const SWEEPS: u64 = 8;
    let t = Instant::now();
    for _ in 0..SWEEPS {
        for o in 0..OBJECTS {
            black_box(guard(&mut fm, ObjId(o), false, 0));
        }
    }
    out.touch_hit = t.elapsed().as_nanos() as f64 / (SWEEPS * OBJECTS) as f64;
    out.localize_miss = zipf_misses(seed, 0.0, out.touch_hit);
    out.localize_miss_write = zipf_misses(seed, 0.3, out.touch_hit);
}

fn pager(seed: u64, out: &mut ReplayNanos) {
    let cfg = |share: f64| PagerConfig {
        local_budget: (PAGES as f64 * share) as u64 * PAGE_SIZE,
        ..PagerConfig::default()
    };
    // Everything fits: after the first sweep every access is a hit.
    let mut p = Pager::new(cfg(1.0));
    let sweep = |p: &mut Pager| {
        for page in 0..PAGES {
            black_box(p.access(page * PAGE_SIZE, 8, false, 0));
        }
    };
    sweep(&mut p);
    const SWEEPS: u64 = 32;
    let t = Instant::now();
    for _ in 0..SWEEPS {
        sweep(&mut p);
    }
    out.pager_hit = t.elapsed().as_nanos() as f64 / (SWEEPS * PAGES) as f64;

    // A quarter fits. The first sweep pages everything out once, so the
    // timed faults are major faults, not first touches.
    let mut rng = SplitMix64::seed_from_u64(seed);
    let trace = zipf_trace(PAGES, SKEW, TRACE_LEN, &mut rng);
    let mut p = Pager::new(cfg(0.25));
    for page in 0..PAGES {
        p.access(page * PAGE_SIZE, 8, true, 0);
    }
    p.reset_stats();
    let mut now = 0u64;
    let t = Instant::now();
    for &page in &trace {
        now += 100 + p.access(page * PAGE_SIZE, 8, false, now);
    }
    let elapsed = t.elapsed().as_nanos() as f64;
    black_box(now);
    let s = p.stats();
    let faults = s.major_faults + s.minor_faults;
    out.pager_fault = per_miss(elapsed, TRACE_LEN as u64 - faults, out.pager_hit, faults);
}

fn net(out: &mut ReplayNanos) {
    const CALLS: u64 = 1 << 20;
    let params = LinkParams::tcp_25g();
    let mut link = Link::new(params);
    let mut now = 0u64;
    let t = Instant::now();
    for _ in 0..CALLS {
        now = link.transfer(OBJECT_SIZE, now);
    }
    out.link_transfer = t.elapsed().as_nanos() as f64 / CALLS as f64;
    black_box(now);

    let spec = BackendSpec::sharded(4).with_replicas(2);
    let mut backend = build_backend(params, spec, FaultPlan::none());
    let mut now = 0u64;
    let t = Instant::now();
    for key in 0..CALLS {
        now = backend.transfer(key, OBJECT_SIZE, now);
    }
    out.sharded_transfer = t.elapsed().as_nanos() as f64 / CALLS as f64;
    black_box(now);
}

pub fn run(seed: u64) -> ReplayNanos {
    let mut out = ReplayNanos::default();
    runtime(seed, &mut out);
    pager(seed, &mut out);
    net(&mut out);
    out
}
