//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the root of
//! the repository is this file printed (`tfm-perf --manifest`); a unit test
//! keeps the two equal.

use tfm_telemetry::Json;

/// Seconds one run measures for when `--seconds` is not given; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 20;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 5] = [
    WorkloadInfo {
        name: "interp_local",
        why: "untransformed kmeans, serving and NAS on LocalMem: pure sim dispatch, so an engine change shows fully and a runtime, fastswap or net change must show nothing",
    },
    WorkloadInfo {
        name: "stream_far",
        why: "STREAM sum/copy/triad x local, trackfm, fastswap at 25% local: sequential, chunked, prefetch- and bandwidth-bound, writes beside reads; guard fast path nearly idle",
    },
    WorkloadInfo {
        name: "kv_far",
        why: "Zipf hashmap and memcached x local, trackfm 4096B/64B, fastswap: pointer chasing, demand misses, CLOCK reclaim, I/O amplification; no chunk streams; has the untuned-default row",
    },
    WorkloadInfo {
        name: "serve_openloop",
        why: "open-loop KV on 4 cores, 4 shards x 2 replicas at gaps 2000/500/250/120, a cold crash, a fastswap row: CoreSet, fetch joins, failover; latency from arrival; p99 is log2-bucketed, mean is exact",
    },
    WorkloadInfo {
        name: "compile_corpus",
        why: "13 suite modules and 8 seeded synthetic ones (100 to 4500 insts) through compile, lower, print, parse, verify: no execution, so ir, analysis and core do all the work; sizes expose super-linear passes",
    },
];

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a metric reads on a workload it does not apply to. The result line
/// carries every metric on every run and none may be 0, so "not applicable"
/// is this constant: it never changes, so it never regresses.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Host times carry the bound the sandbox's noise allows. The host has busy
/// spells, seconds to minutes long, in which everything runs up to a third
/// slower; the median pass of a run moves with them (interquartile spread over
/// ten runs of 6 to 23 %), which is why `wall_s` is the sum of each row's
/// fastest execution instead (2 to 3 % on the same runs). What the floor
/// cannot see is the host changing gear for minutes at a time: between such
/// stretches `wall_s` differs by 8 %, which spreads ten runs by up to 6.5 %,
/// a third of the bound. Simulated metrics repeat exactly for one seed;
/// their bound only has to cover the spread between seeds (different Zipf
/// traces), which is under 0.8 % on every workload.
pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_minst_per_s",
        unit: "Minst/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "sim_cycles_local",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "slowdown_trackfm",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "slowdown_fastswap",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "net_amp_trackfm",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "req_mean_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "req_p99_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "code_size_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "ops_ok_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.001,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// One layer per crate. Counts are exact and come from the public result
/// fields of the traced pass; `*_ns`, `*_us` and `*_s` are host time around
/// public calls. A metric that a workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 83] = [
    lo("ir.print_us", "us"),
    lo("ir.parse_us", "us"),
    lo("ir.verify_us", "us"),
    lo("ir.corpus_insts", "count"),
    lo("analysis.summaries_us", "us"),
    lo("core.compile_us", "us"),
    lo("core.pass_us.o1", "us"),
    lo("core.pass_us.runtime-init", "us"),
    lo("core.pass_us.loop-chunking", "us"),
    lo("core.pass_us.guard-transform", "us"),
    lo("core.pass_us.guard-motion", "us"),
    lo("core.pass_us.guard-elide", "us"),
    lo("core.pass_us.libc-transform", "us"),
    lo("core.pass_us.tfm-lint", "us"),
    lo("core.guards_inserted", "count"),
    hi("core.guards_elided", "count"),
    hi("core.guards_hoisted", "count"),
    hi("core.streams_chunked", "count"),
    lo("core.insts_after", "count"),
    lo("sim.lower_us", "us"),
    lo("sim.bc_insts", "count"),
    lo("sim.machine_new_us", "us"),
    lo("sim.run_s", "s"),
    lo("sim.run_ns_per_inst", "ns"),
    lo("sim.run_ns_per_inst_guarded", "ns"),
    lo("sim.instructions", "count"),
    hi("sim.guards_fast", "count"),
    lo("sim.guards_slow_local", "count"),
    lo("sim.guards_slow_remote", "count"),
    lo("sim.guard_slow_ratio", "ratio"),
    hi("sim.boundary_checks", "count"),
    lo("sim.locality_guards", "count"),
    lo("sim.stall_cycles", "cycles"),
    lo("sim.openloop_ns_per_req", "ns"),
    lo("runtime.touch_hit_ns", "ns"),
    lo("runtime.localize_miss_ns", "ns"),
    lo("runtime.localize_miss_write_ns", "ns"),
    lo("runtime.remote_fetches", "count"),
    hi("runtime.prefetch_issued", "count"),
    hi("runtime.prefetch_hit_ratio", "ratio"),
    lo("runtime.prefetch_late", "count"),
    lo("runtime.evictions", "count"),
    lo("runtime.writebacks", "count"),
    lo("runtime.budget_overruns", "count"),
    lo("runtime.peak_resident_bytes", "bytes"),
    lo("runtime.retries", "count"),
    hi("runtime.fetch_joins", "count"),
    lo("runtime.re_replications", "count"),
    lo("runtime.lost_objects", "count"),
    lo("runtime.est_share", "ratio"),
    lo("fastswap.access_hit_ns", "ns"),
    lo("fastswap.access_fault_ns", "ns"),
    lo("fastswap.major_faults", "count"),
    lo("fastswap.minor_faults", "count"),
    lo("fastswap.reclaims", "count"),
    lo("fastswap.writebacks", "count"),
    hi("fastswap.fault_joins", "count"),
    lo("fastswap.req_mean_cycles", "cycles"),
    lo("net.link_transfer_ns", "ns"),
    lo("net.sharded_transfer_ns", "ns"),
    lo("net.fetches", "count"),
    lo("net.bytes_fetched", "bytes"),
    lo("net.bytes_written_back", "bytes"),
    lo("net.faults", "count"),
    lo("net.delay_cycles", "cycles"),
    lo("net.failover_reads", "count"),
    lo("telemetry.probe_ratio", "ratio"),
    lo("telemetry.trace_ratio", "ratio"),
    lo("telemetry.report_json_us", "us"),
    lo("telemetry.json_parse_us", "us"),
    lo("telemetry.events_dropped", "count"),
    lo("workloads.gen_s", "s"),
    lo("workloads.setup_fill_s", "s"),
    lo("workloads.slo_min_gap", "cycles"),
    lo("bench.trace_overhead_ratio", "ratio"),
    hi("bench.passes", "count"),
    lo("bench.noise_ratio", "ratio"),
    lo("bench.self_s.workloads.gen", "s"),
    lo("bench.self_s.core.compile", "s"),
    lo("bench.self_s.sim.machine_new", "s"),
    lo("bench.self_s.workloads.setup", "s"),
    lo("bench.self_s.sim.run", "s"),
    lo("bench.self_s.telemetry.report", "s"),
];

fn better(b: Better) -> Json {
    Json::str(match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    })
}

/// `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            Json::Obj(vec![
                ("name".into(), Json::str(w.name)),
                ("why".into(), Json::str(w.why)),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::str(m.name)),
                ("unit".into(), Json::str(m.unit)),
                ("better".into(), better(m.better)),
                ("bound".into(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), Json::str(m.name)),
                ("unit".into(), Json::str(m.unit)),
                ("better".into(), better(m.better)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "command".into(),
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".into(), strs(&["benchmark"])),
        ("run_seconds".into(), Json::Int(RUN_SECONDS)),
        ("workloads".into(), Json::Arr(workloads)),
        ("end_to_end".into(), Json::Arr(end_to_end)),
        ("per_layer".into(), Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The eight pass names of `CompileReport::pass_nanos`; each needs its
    /// `core.pass_us.<pass>` metric.
    const PASSES: [&str; 8] = [
        "o1",
        "runtime-init",
        "loop-chunking",
        "guard-transform",
        "guard-motion",
        "guard-elide",
        "libc-transform",
        "tfm-lint",
    ];

    fn name_ok(s: &str) -> bool {
        let body = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(body)
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(name_ok(n), "{n}");
            assert!(seen.insert(n), "{n} used twice");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(!u.is_empty() && u.len() <= 16 && u.chars().all(ok), "{u}");
        }
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Better::Lower)
        );
        for m in &END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= setup.bound && setup.bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for p in PASSES {
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == format!("core.pass_us.{p}")));
        }
    }

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk.trim_end(),
            manifest().to_string_pretty(),
            "regenerate with `tfm-perf --manifest > BENCHMARK.json`"
        );
    }
}
