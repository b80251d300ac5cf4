//! Open-loop key-value serving on the deterministic multi-core machine.
//!
//! The closed-loop workloads ([`crate::memcached`] et al.) issue their next
//! request the instant the previous one retires, so a single simulated core
//! is always the right machine model. Real memcached front-ends are open
//! loop: requests arrive on their own schedule (here, seeded Zipf keys with
//! seeded integer inter-arrival gaps — no floats, no wall clocks), queue
//! when every worker is busy, and their latency includes that queueing. This
//! module generates such a workload; [`execute_open_loop`] runs it through
//! the runner's one driver ([`runner::drive`] with [`Calls::Requests`]),
//! which dispatches each request on the earliest-free core of a
//! [`tfm_sim::CoreSet`] and lets the far-memory layer's split
//! issue/complete protocol overlap fetches across cores.
//!
//! With `cores = 1` the driver degenerates to the synchronous machine —
//! async fetch stays off, no core is ever tagged — which
//! `tests/concurrency.rs` (200 seeds) and the `cores(1)` row of
//! `tests/identity_matrix.rs` pin bit-for-bit against a hand-driven loop.
//!
//! The store is [`crate::memcached`]'s, and `get` probes its index with the
//! `table` module's probe, shared with the Zipf hashmap.

use crate::memcached::{self, emit_xor_value};
use crate::rng::SplitMix64;
use crate::runner::{self, Calls, Outcome, RunConfig};
use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use crate::table::emit_probe;
use crate::zipf::ZipfGen;
use tfm_ir::{FunctionBuilder, Module, Signature, Type};
use tfm_telemetry::{Histogram, RunReport};

/// Open-loop key-value workload parameters.
#[derive(Copy, Clone, Debug)]
pub struct OpenLoopParams {
    /// Number of stored keys.
    pub keys: usize,
    /// Number of `get` requests.
    pub requests: usize,
    /// Zipf skew over the key ranks.
    pub skew: f64,
    /// Trace RNG seed (keys and arrival gaps).
    pub seed: u64,
    /// Mean inter-arrival gap in simulated cycles. Gaps are drawn uniformly
    /// from `[mean/2, mean/2 + mean]` with integer arithmetic, so arrival
    /// times are exact and platform-independent.
    pub mean_gap_cycles: u64,
}

impl Default for OpenLoopParams {
    fn default() -> Self {
        OpenLoopParams {
            keys: 100_000,
            requests: 200_000,
            skew: 1.01,
            seed: 17,
            mean_gap_cycles: 2_000,
        }
    }
}

/// One request: when it arrives and which key it asks for.
#[derive(Copy, Clone, Debug)]
pub struct Request {
    /// Arrival time in simulated cycles.
    pub arrival: u64,
    /// The key to `get` ([`open_loop`] draws only stored keys).
    pub key: u64,
}

/// A generated open-loop workload: the store + `get` program, the request
/// schedule, and the host-computed checksum oracle.
#[derive(Clone, Debug)]
pub struct OpenLoopSpec {
    /// The store arrays and the single-`get` program (`get(index, mask,
    /// slab, key) -> i64` returns the xor of the value's eight words, or 0
    /// for a key the store does not hold).
    pub spec: WorkloadSpec,
    /// Requests in arrival order.
    pub requests: Vec<Request>,
    /// Wrapping sum of every request's `get` return — the semantic oracle
    /// the driver asserts regardless of core count or schedule.
    pub expected: u64,
}

/// Builds the open-loop workload: the memcached-style store, a `get`
/// function over it, and a seeded Zipf request schedule.
pub fn open_loop(p: &OpenLoopParams) -> OpenLoopSpec {
    let store = memcached::build(p.keys);

    let mut rng = SplitMix64::seed_from_u64(p.seed);
    let gen = ZipfGen::new(p.keys as u64, p.skew);
    let mean = p.mean_gap_cycles;
    let mut arrival = 0u64;
    let requests: Vec<Request> = (0..p.requests)
        .map(|_| {
            let key = gen.sample(&mut rng) + 1;
            arrival += mean / 2 + rng.next_u64() % (mean + 1);
            Request { arrival, key }
        })
        .collect();

    let mut expected = 0u64;
    for r in &requests {
        expected = expected.wrapping_add(store.get(r.key).unwrap_or(0));
    }

    let mut m = Module::new("kv_openloop");
    let id = m.declare_function(
        "get",
        Signature::new(
            vec![Type::Ptr, Type::I64, Type::Ptr, Type::I64],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let index = b.param(0);
        let mask_v = b.param(1);
        let slab = b.param(2);
        let key = b.param(3);
        let zero = b.iconst(Type::I64, 0);
        let res = b.alloca(8, 8);
        b.store(res, zero);

        // Fold the whole 64-byte value into the result.
        emit_probe(&mut b, index, mask_v, key, |b, slabp1| {
            emit_xor_value(b, slab, slabp1, res);
        });
        let out = b.load(Type::I64, res);
        b.ret(Some(out));
    }
    m.verify().expect("kv_openloop is well-formed");

    let (index, mask) = store.index.into_input();
    OpenLoopSpec {
        spec: WorkloadSpec {
            name: format!("kv-openloop/{}k-{}", p.keys / 1000, p.skew),
            module: m,
            inputs: vec![index, InputData::U64(store.slab)],
            args: vec![ArgSpec::Input(0), mask, ArgSpec::Input(1)],
            expected: None, // checked per-request by the driver instead
        },
        requests,
        expected,
    }
}

/// The outcome of one open-loop run — and of every run [`runner::drive`]
/// makes: a closed-loop run is a one-request schedule.
#[derive(Clone, Debug)]
pub struct OpenLoopRun {
    /// Cumulative execution result (`stats.cycles` is the makespan — the
    /// latest core clock — rather than whichever core happened to retire
    /// the final request).
    pub outcome: Outcome,
    /// Per-request latency (retire − arrival, queueing included).
    pub latency: Histogram,
    /// Final per-core clocks.
    pub core_clocks: Vec<u64>,
    /// The run's makespan in simulated cycles.
    pub makespan: u64,
    /// The accumulated checksum (already asserted against the oracle).
    pub checksum: u64,
}

/// Runs the open-loop workload under `cfg` on `cfg.cores` simulated cores.
///
/// # Panics
/// Panics if any request traps or the accumulated checksum disagrees with
/// the host oracle — under *any* core count or schedule.
pub fn execute_open_loop(ol: &OpenLoopSpec, cfg: &RunConfig) -> OpenLoopRun {
    runner::dispatch(cfg, Calls::Requests(ol), None)
}

/// [`execute_open_loop`] with telemetry forced on, returning the run and a
/// [`RunReport`] extended with the open-loop-only `request_latency_cycles`
/// histogram and scheduling metadata.
pub fn execute_open_loop_with_report(
    ol: &OpenLoopSpec,
    cfg: &RunConfig,
) -> (OpenLoopRun, RunReport) {
    let cfg = cfg.with_telemetry(true);
    let run = execute_open_loop(ol, &cfg);
    let mut rep = runner::build_report(&ol.spec, &cfg, &run.outcome);
    rep.push_meta("cores", cfg.cores.max(1));
    rep.push_meta("requests", ol.requests.len() as u64);
    rep.push_histogram("request_latency_cycles", run.latency.clone());
    (run, rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_sim::{LocalMem, Machine, MemorySystem, RunResult};

    fn small() -> OpenLoopParams {
        OpenLoopParams {
            keys: 2_000,
            requests: 4_000,
            skew: 1.05,
            seed: 11,
            mean_gap_cycles: 500,
        }
    }

    #[test]
    fn checksum_holds_under_every_system_and_core_count() {
        let ol = open_loop(&small());
        for cores in [1, 2, 4] {
            execute_open_loop(&ol, &RunConfig::local().with_cores(cores));
            execute_open_loop(
                &ol,
                &RunConfig::trackfm(0.2)
                    .with_object_size(64)
                    .with_cores(cores),
            );
            execute_open_loop(&ol, &RunConfig::fastswap(0.2).with_cores(cores));
        }
    }

    /// Serves every request of `ol` on one core, returning each `get`'s
    /// result and the last run's counters.
    fn serve_each<M: MemorySystem>(
        ol: &OpenLoopSpec,
        module: &Module,
        mem: M,
        cfg: &RunConfig,
    ) -> (Vec<u64>, RunResult) {
        let heap = ol.spec.heap_size(cfg.object_size);
        let mut machine = Machine::new(module, mem, cfg.cost, heap);
        let mut call = runner::setup(&ol.spec, &mut machine, false);
        call.push(0);
        let mut last = None;
        let rets = ol
            .requests
            .iter()
            .map(|req| {
                *call.last_mut().unwrap() = req.key;
                let r = machine.run("get", &call).unwrap();
                let ret = r.ret;
                last = Some(r);
                ret
            })
            .collect();
        (rets, last.unwrap())
    }

    #[test]
    fn absent_keys_miss_through_the_shared_probe() {
        // The generators draw only stored keys, so the probe's empty-slot
        // exit runs here alone: every other request asks for a key past the
        // stored ranks.
        let p = small();
        let store = memcached::build(p.keys);
        let mut ol = open_loop(&p);
        for req in ol.requests.iter_mut().skip(1).step_by(2) {
            req.key += p.keys as u64;
            assert_eq!(store.get(req.key), None);
        }
        // No probe may read an empty slot's value word. Point each at key
        // 1's value, so one that does returns that value instead of 0.
        let InputData::U64(index) = &mut ol.spec.inputs[0] else {
            panic!("input 0 is the index");
        };
        for slot in index.chunks_exact_mut(2).filter(|slot| slot[0] == 0) {
            slot[1] = 1;
        }
        let want: Vec<u64> = ol
            .requests
            .iter()
            .map(|req| store.get(req.key).unwrap_or(0))
            .collect();

        let local = RunConfig::local();
        let mem = LocalMem::new(ol.spec.heap_size(local.object_size));
        assert_eq!(serve_each(&ol, &ol.spec.module, mem, &local).0, want);
        let far = RunConfig::trackfm(0.1).with_object_size(64);
        let (module, _, mem) = runner::compile_for(&ol.spec, &far, None);
        let (got, last) = serve_each(&ol, &module, mem, &far);
        assert_eq!(got, want);
        assert!(last.runtime.unwrap().evictions > 0, "the budget must evict");

        // `execute_open_loop`'s checksum agrees too.
        ol.expected = want.iter().fold(0, |s, &x| s.wrapping_add(x));
        execute_open_loop(&ol, &far);
    }

    #[test]
    fn arrivals_are_strictly_increasing_and_seeded() {
        let a = open_loop(&small());
        let b = open_loop(&small());
        assert_eq!(a.requests.len(), 4_000);
        for w in a.requests.windows(2) {
            assert!(w[0].arrival < w[1].arrival, "gaps are at least mean/2 > 0");
        }
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!((x.arrival, x.key), (y.arrival, y.key));
        }
        let c = open_loop(&OpenLoopParams {
            seed: 12,
            ..small()
        });
        assert!(
            a.requests
                .iter()
                .zip(&c.requests)
                .any(|(x, y)| x.key != y.key),
            "a different seed must reshuffle the trace"
        );
    }

    #[test]
    fn open_loop_report_adds_the_latency_histogram() {
        let ol = open_loop(&small());
        let cfg = RunConfig::trackfm(0.25).with_object_size(64).with_cores(4);
        let (run, rep) = execute_open_loop_with_report(&ol, &cfg);
        // The five standard distributions plus the open-loop-only one.
        assert_eq!(rep.histograms.len(), 6);
        let lat = rep.histogram("request_latency_cycles").unwrap();
        assert_eq!(lat.count(), 4_000);
        assert!(lat.p99() >= lat.p50());
        assert!(rep.meta.iter().any(|(k, v)| k == "cores" && v == "4"));
        assert_eq!(run.core_clocks.len(), 4);
        assert_eq!(run.makespan, *run.core_clocks.iter().max().unwrap());
        assert_eq!(run.outcome.result.stats.cycles, run.makespan);
    }

    #[test]
    fn multi_core_overlap_beats_one_core_on_miss_heavy_gets() {
        // Miss-heavy small-object serving: most gets issue a wire fetch, so
        // splitting issue from completion lets cores pipeline the link.
        let ol = open_loop(&OpenLoopParams {
            mean_gap_cycles: 100,
            ..small()
        });
        let cfg = RunConfig::trackfm(0.1)
            .with_object_size(64)
            .with_prefetch(false);
        let one = execute_open_loop(&ol, &cfg);
        let four = execute_open_loop(&ol, &cfg.with_cores(4));
        assert!(
            four.makespan * 2 < one.makespan,
            "4 cores should overlap fetches: {} vs {}",
            four.makespan,
            one.makespan
        );
        // Joined fetches surface in the runtime's counter when two requests
        // race to the same in-flight object.
        let rt = four.outcome.result.runtime.as_ref().unwrap();
        assert!(rt.remote_fetches > 0);
    }
}
