//! Engine bit-identity across the workload matrix.
//!
//! The production bytecode engine's whole contract is that it measures
//! exactly what the reference tree-walker (the `oracle` feature of
//! `tfm-sim`, enabled for this package's tests only) measures: results,
//! simulated cycles, every counter, every trap, every rendered report,
//! every collected profile — under every system, and under the hard
//! configurations (fault injection, sharding, replication with a mid-run
//! crash, multi-core open-loop dispatch, span tracing). These tests run
//! the same workload+config as production does (no engine selected) and on
//! the reference, and compare the rendered [`RunReport`]s byte for byte.

pub mod common;

use common::{suite, Size};
use trackfm_suite::compiler::CostModel;
use trackfm_suite::net::{BackendSpec, FaultPlan};
use trackfm_suite::sim::{ExecEngine, LocalMem, Machine};
use trackfm_suite::workloads::openloop::{
    execute_open_loop_with_report, open_loop, OpenLoopParams,
};
use trackfm_suite::workloads::runner::{self, execute_with_report, RunConfig};
use trackfm_suite::workloads::stream::{self, StreamParams};

/// Runs `cfg` on both engines and asserts byte-identical reports and
/// identical result payloads.
fn assert_config_identical(
    ctx: &str,
    spec: &trackfm_suite::workloads::WorkloadSpec,
    cfg: RunConfig,
) {
    let (tw_out, tw_rep) = execute_with_report(spec, &cfg.with_engine(ExecEngine::TreeWalk));
    let (bc_out, bc_rep) = execute_with_report(spec, &cfg);
    assert_eq!(
        tw_out.result.ret, bc_out.result.ret,
        "{ctx}: results differ"
    );
    assert_eq!(
        tw_out.result.stats, bc_out.result.stats,
        "{ctx}: exec stats differ"
    );
    assert_eq!(
        tw_out.result.runtime, bc_out.result.runtime,
        "{ctx}: runtime stats differ"
    );
    assert_eq!(
        tw_out.result.pager, bc_out.result.pager,
        "{ctx}: pager stats differ"
    );
    assert_eq!(
        tw_out.result.transfers, bc_out.result.transfers,
        "{ctx}: transfer ledgers differ"
    );
    assert_eq!(
        tw_out.result.shards, bc_out.result.shards,
        "{ctx}: shard snapshots differ"
    );
    assert_eq!(
        tw_rep.render(),
        bc_rep.render(),
        "{ctx}: rendered reports differ"
    );
}

/// Every system and the hard configurations, on one workload: fault
/// injection, sharding, replication with a scripted crash, span tracing.
#[test]
fn reports_are_byte_identical_across_systems_and_configs() {
    let spec = stream::sum(&StreamParams { elems: 32 << 10 });
    let configs: Vec<(&str, RunConfig)> = vec![
        ("local", RunConfig::local()),
        ("fastswap", RunConfig::fastswap(0.25)),
        ("trackfm", RunConfig::trackfm(0.25)),
        ("aifm", RunConfig::aifm(0.25)),
        ("hybrid", RunConfig::hybrid(0.25)),
        (
            "faults",
            RunConfig::trackfm(0.25).with_faults(FaultPlan::drops(0xC0FFEE, 50_000)),
        ),
        ("sharded", RunConfig::trackfm(0.25).with_shards(4)),
        (
            "replicated-crash",
            RunConfig::trackfm(0.25)
                .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(1))
                .with_faults(FaultPlan::none().with_cold_crash(100_000, 400_000)),
        ),
        ("tracing", RunConfig::trackfm(0.25).with_tracing()),
    ];
    for (name, cfg) in configs {
        assert_config_identical(name, &spec, cfg);
    }
}

/// The multi-core open-loop scheduler (async issue/complete fetch pipeline,
/// completion horizons, per-core clocks) on both engines: checksums,
/// makespans, core clocks, latency distributions, and rendered reports all
/// match, at one core and at four.
#[test]
fn open_loop_multicore_is_engine_invariant() {
    let ol = open_loop(&OpenLoopParams {
        keys: 2_000,
        requests: 2_000,
        skew: 1.05,
        seed: 11,
        mean_gap_cycles: 500,
    });
    for cores in [1, 4] {
        for cfg in [
            RunConfig::local().with_cores(cores),
            RunConfig::trackfm(0.25).with_cores(cores),
            RunConfig::trackfm(0.25).with_cores(cores).with_tracing(),
        ] {
            let ctx = format!("cores={cores} system={}", cfg.system.name());
            let (tw, tw_rep) =
                execute_open_loop_with_report(&ol, &cfg.with_engine(ExecEngine::TreeWalk));
            let (bc, bc_rep) = execute_open_loop_with_report(&ol, &cfg);
            assert_eq!(tw.checksum, bc.checksum, "{ctx}: checksums differ");
            assert_eq!(tw.makespan, bc.makespan, "{ctx}: makespans differ");
            assert_eq!(tw.core_clocks, bc.core_clocks, "{ctx}: core clocks differ");
            assert_eq!(
                tw.latency.count(),
                bc.latency.count(),
                "{ctx}: latency counts differ"
            );
            assert_eq!(
                tw.outcome.result.stats, bc.outcome.result.stats,
                "{ctx}: exec stats differ"
            );
            assert_eq!(
                tw_rep.render(),
                bc_rep.render(),
                "{ctx}: rendered reports differ"
            );
        }
    }
}

/// Profile collection feeds the profile-guided figure benches (fig08/14/
/// 15/17) through `collect_profile`, so a drift here would silently move
/// simulated figures: block and edge counts must match the reference's on
/// every suite workload.
#[test]
fn collected_profiles_are_engine_invariant() {
    for spec in suite(Size::Run) {
        let production = runner::collect_profile(&spec);
        let heap = spec.heap_size(4096);
        let mut machine = Machine::new(
            &spec.module,
            LocalMem::new(heap),
            CostModel::default(),
            heap,
        );
        machine.set_engine(ExecEngine::TreeWalk);
        machine.enable_profiling();
        let args = runner::setup(&spec, &mut machine, false);
        machine.run("main", &args).unwrap();
        let reference = machine.take_profile();
        assert!(!reference.edge_counts.is_empty(), "{}: no edges", spec.name);
        assert_eq!(
            production.block_counts, reference.block_counts,
            "{}: block counts differ",
            spec.name
        );
        assert_eq!(
            production.edge_counts, reference.edge_counts,
            "{}: edge counts differ",
            spec.name
        );
    }
}
