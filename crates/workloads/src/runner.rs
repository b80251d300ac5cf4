//! Executes [`WorkloadSpec`]s under each of the paper's four systems (and
//! its §5 hybrid).
//!
//! The flow mirrors the paper's methodology: build the program once, run the
//! *untransformed* binary on the local-only and Fastswap systems, run the
//! *TrackFM-compiled* binary on the TrackFM, AIFM and hybrid flavors of the
//! object runtime, always with warm-start residency (what in-app
//! initialization leaves behind under the budget) and counters reset after
//! setup.
//!
//! One place builds a run: [`far_config`] / [`pager_config`] size the data
//! plane, [`compile_for`] produces the transformed module and its memory
//! system, [`telemetry_for`] the sink. [`execute_with_profile`] and
//! [`crate::openloop::execute_open_loop`] are three short arms over them.

use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use std::collections::HashMap;
use tfm_analysis::profile::Profile;
use tfm_fastswap::PagerConfig;
use tfm_ir::Module;
use tfm_net::{BackendSpec, FaultPlan, LinkParams};
use tfm_runtime::{FarMemoryConfig, PrefetchConfig};
use tfm_sim::{FastswapMem, Flavor, LocalMem, Machine, MemorySystem, RunResult, TrackFmMem};
use tfm_telemetry::{Json, RunReport, SiteKey, Telemetry, TelemetrySnapshot};
use trackfm::{CompileReport, CompilerOptions, CostModel, TrackFmCompiler};

/// Which far-memory system executes the workload.
#[derive(Copy, Clone, Debug)]
pub enum SystemKind {
    /// All memory local (normalization baseline).
    Local,
    /// Fastswap: kernel paging, untransformed binary.
    Fastswap,
    /// TrackFM: compiler-transformed binary on the object runtime.
    TrackFm,
    /// AIFM: the same runtime with library-integration costs.
    Aifm,
    /// The §5 hybrid: compiler-chunked streams on the object runtime,
    /// guard-free raw accesses with kernel-style faults.
    Hybrid,
}

impl SystemKind {
    /// Stable lowercase name (report/figure labels).
    pub fn name(&self) -> &'static str {
        match self {
            SystemKind::Local => "local",
            SystemKind::Fastswap => "fastswap",
            SystemKind::TrackFm => "trackfm",
            SystemKind::Aifm => "aifm",
            SystemKind::Hybrid => "hybrid",
        }
    }
}

/// One experimental configuration.
#[derive(Copy, Clone, Debug)]
pub struct RunConfig {
    /// The system under test.
    pub system: SystemKind,
    /// Local memory as a fraction of the working set (the usual x-axis).
    pub local_fraction: f64,
    /// AIFM object size (TrackFM/AIFM systems).
    pub object_size: u64,
    /// Enable prefetching (TrackFM/AIFM systems).
    pub prefetch: bool,
    /// Prefetcher look-ahead depth in objects (TrackFM/AIFM systems).
    pub prefetch_depth: u32,
    /// Compiler options used when the system needs a transformed binary.
    pub compiler: CompilerOptions,
    /// The cycle cost model.
    pub cost: CostModel,
    /// Record telemetry (histograms, guard-site attribution, and spans when
    /// `trace` is on)
    /// during the measured phase. Off by default: the probes cost time.
    pub telemetry: bool,
    /// Causal span tracing + windowed timeline (implies telemetry when
    /// on). Off by default: tracing must be strictly pay-for-use.
    pub trace: bool,
    /// Fault-injection schedule for the link ([`FaultPlan::none`] = the
    /// flawless fabric of the paper's evaluation).
    pub faults: FaultPlan,
    /// Remote-memory topology: one node (the default) or N sharded nodes.
    pub backend: BackendSpec,
    /// Simulated worker cores for open-loop workloads (see
    /// [`crate::openloop`]). The closed-loop `execute` path ignores this;
    /// `1` keeps even open-loop runs on the synchronous single-machine
    /// path, bit-identical to every other run.
    pub cores: u32,
    /// Not an option: keeps this struct at its size from before the stall,
    /// jitter and trace-sizing fields went (432 bytes). `tfm-perf`'s rows
    /// hold `RunConfig`s, and glibc's dynamic mmap threshold makes its
    /// `peak_rss_mb` follow their allocation sizes: without these 48 bytes
    /// `stream_far` reads 119.4 MiB instead of 99.4 (see CHANGES.md).
    /// Delete it with `FarMemory::_heap_ballast` once ROADMAP item 1(c)
    /// pins glibc's mmap threshold.
    _heap_ballast: [u64; 6],
    /// Test seam: runs on the reference tree-walker when set to
    /// [`tfm_sim::ExecEngine::TreeWalk`].
    #[cfg(feature = "oracle")]
    pub engine: tfm_sim::ExecEngine,
}

// Goes with `_heap_ballast`: a field added or removed fails the build here
// instead of moving `tfm-perf`'s `peak_rss_mb`.
const _: () = assert!(
    std::mem::size_of::<RunConfig>() == 432,
    "RunConfig must stay 432 bytes: resize `_heap_ballast` (see its doc)"
);

impl RunConfig {
    /// A TrackFM configuration with default compiler settings.
    pub fn trackfm(local_fraction: f64) -> Self {
        RunConfig {
            system: SystemKind::TrackFm,
            local_fraction,
            object_size: 4096,
            prefetch: true,
            prefetch_depth: PrefetchConfig::default().depth,
            compiler: CompilerOptions::default(),
            cost: CostModel::default(),
            telemetry: false,
            trace: false,
            faults: FaultPlan::none(),
            backend: BackendSpec::single(),
            cores: 1,
            _heap_ballast: [0; 6],
            #[cfg(feature = "oracle")]
            engine: tfm_sim::ExecEngine::default(),
        }
    }

    /// A Fastswap configuration.
    pub fn fastswap(local_fraction: f64) -> Self {
        RunConfig {
            system: SystemKind::Fastswap,
            ..Self::trackfm(local_fraction)
        }
    }

    /// An AIFM configuration.
    pub fn aifm(local_fraction: f64) -> Self {
        RunConfig {
            system: SystemKind::Aifm,
            ..Self::trackfm(local_fraction)
        }
    }

    /// The §5 hybrid compiler+kernel configuration (chunk streams, no
    /// guards: [`compile_for`] compiles the hybrid guard-free).
    pub fn hybrid(local_fraction: f64) -> Self {
        RunConfig {
            system: SystemKind::Hybrid,
            ..Self::trackfm(local_fraction)
        }
    }

    /// The local-only baseline.
    pub fn local() -> Self {
        RunConfig {
            system: SystemKind::Local,
            ..Self::trackfm(1.0)
        }
    }

    /// Sets the object size (and keeps the compiler's view consistent).
    pub fn with_object_size(mut self, object_size: u64) -> Self {
        self.object_size = object_size;
        self.compiler.object_size = object_size;
        self
    }

    /// Toggles prefetching (compiler hints + runtime).
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self.compiler.prefetch = on;
        self
    }

    /// Toggles telemetry recording for the measured phase.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Enables span tracing.
    pub fn with_tracing(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Attaches a fault-injection schedule to the run's link.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Selects the remote-memory topology.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Shards far memory over `n` remote nodes (hashed placement).
    pub fn with_shards(self, n: u32) -> Self {
        self.with_backend(BackendSpec::sharded(n))
    }

    /// Sets the simulated worker-core count for open-loop workloads
    /// (floored to 1; closed-loop runs are unaffected).
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Test seam: selects the engine (the reference tree-walker, for the
    /// differential tests).
    #[cfg(feature = "oracle")]
    pub fn with_engine(mut self, engine: tfm_sim::ExecEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Keeps `r` copies of every object across the sharded backend (crash
    /// failover; `r = 1` is free). `r` may not exceed the shard count, one
    /// node included — the run panics when it builds its runtime.
    pub fn with_replicas(mut self, r: u32) -> Self {
        self.backend = self.backend.with_replicas(r);
        self
    }
}

/// The outcome of one run: results plus (for transformed binaries) the
/// compile report.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The execution result.
    pub result: RunResult,
    /// Compiler report, when a transformed binary ran.
    pub report: Option<CompileReport>,
    /// Telemetry snapshot, when [`RunConfig::telemetry`] was on.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// The far-memory configuration a run of `spec` under `cfg` uses. Public so
/// identity harnesses (tests, benches) can drive a raw [`Machine`] with
/// exactly the runner's setup.
pub fn far_config(spec: &WorkloadSpec, cfg: &RunConfig) -> FarMemoryConfig {
    FarMemoryConfig {
        heap_size: spec.heap_size(cfg.object_size),
        object_size: cfg.object_size,
        local_budget: spec.local_budget(cfg.local_fraction, cfg.object_size),
        link: LinkParams::tcp_25g(),
        prefetch: PrefetchConfig {
            enabled: cfg.prefetch,
            depth: cfg.prefetch_depth,
        },
        faults: cfg.faults,
        backend: cfg.backend,
    }
}

/// The pager configuration a run of `spec` under `cfg` uses
/// ([`far_config`]'s Fastswap sibling).
pub fn pager_config(spec: &WorkloadSpec, cfg: &RunConfig) -> PagerConfig {
    PagerConfig {
        local_budget: spec.local_budget(cfg.local_fraction, 4096),
        faults: cfg.faults,
        backend: cfg.backend,
        ..PagerConfig::default()
    }
}

/// Compiles `spec` for the object runtime and builds the memory system it
/// runs on, in the flavor `cfg.system` names. The hybrid is compiled
/// guard-free whatever `cfg.compiler.guards` says.
///
/// # Panics
/// Panics when `cfg.system` runs untransformed binaries (`Local`,
/// `Fastswap`).
pub fn compile_for(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    profile: Option<&Profile>,
) -> (Module, CompileReport, TrackFmMem) {
    let flavor = match cfg.system {
        SystemKind::TrackFm => Flavor::TrackFm,
        SystemKind::Aifm => Flavor::Aifm,
        SystemKind::Hybrid => Flavor::Hybrid,
        SystemKind::Local | SystemKind::Fastswap => {
            panic!("{} runs the untransformed binary", cfg.system.name())
        }
    };
    let mut copts = cfg.compiler;
    copts.guards &= flavor != Flavor::Hybrid;
    // Never read. Its one small allocation, held across the compile, keeps
    // glibc's heap layout where the compiler's summary runs used to leave
    // it: without it `tfm-perf`'s `kv_far` `peak_rss_mb` reads 89.3 MiB
    // instead of 72.7 (see CHANGES.md). Delete it with the other
    // `_heap_ballast`s once ROADMAP item 1(c) pins glibc's mmap threshold.
    let _heap_ballast = std::hint::black_box(vec![0u8; 1024]);
    let mut module = spec.module.clone();
    let report = TrackFmCompiler::new(copts).compile(&mut module, profile);
    let mem = TrackFmMem::with_flavor(flavor, far_config(spec, cfg), cfg.cost);
    (module, report, mem)
}

/// The telemetry sink `cfg` asks for: tracing implies telemetry, and a
/// disabled sink costs nothing.
pub fn telemetry_for(cfg: &RunConfig) -> Telemetry {
    if cfg.trace {
        Telemetry::traced()
    } else if cfg.telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    }
}

/// Runs `spec` under `cfg`, returning the result and any compile report.
///
/// # Panics
/// Panics if execution traps — workloads in this suite are expected to run
/// to completion under every system; a trap is a bug worth surfacing loudly.
pub fn execute(spec: &WorkloadSpec, cfg: &RunConfig) -> Outcome {
    execute_with_profile(spec, cfg, None)
}

/// [`execute`], with an optional profile for the compiler's
/// profile-guided chunking filter.
///
/// # Panics
/// See [`execute`].
pub fn execute_with_profile(
    spec: &WorkloadSpec,
    cfg: &RunConfig,
    profile: Option<&Profile>,
) -> Outcome {
    let heap = spec.heap_size(cfg.object_size);
    match cfg.system {
        SystemKind::Local => run_machine(spec, &spec.module, LocalMem::new(heap), cfg, heap, None),
        SystemKind::Fastswap => {
            let mem = FastswapMem::new(heap, pager_config(spec, cfg));
            run_machine(spec, &spec.module, mem, cfg, heap, None)
        }
        SystemKind::TrackFm | SystemKind::Aifm | SystemKind::Hybrid => {
            let (module, report, mem) = compile_for(spec, cfg, profile);
            run_machine(spec, &module, mem, cfg, heap, Some(report))
        }
    }
}

/// Folds the compiler's guard-removal attribution into the run's site
/// table, so the per-site report shows which hot sites absorbed deleted
/// checks: each surviving site's `elided` counter records how many
/// duplicate guards elision statically folded into it.
pub fn attribute_removed_guards(report: &CompileReport, telemetry: &mut Option<TelemetrySnapshot>) {
    let Some(snap) = telemetry else { return };
    for s in &report.elision.sites {
        snap.sites
            .stats_mut(SiteKey::new(s.func, s.survivor))
            .elided += s.absorbed as u64;
    }
}

/// [`execute`] with telemetry forced on, returning the outcome together
/// with its assembled [`RunReport`].
///
/// # Panics
/// See [`execute`].
pub fn execute_with_report(spec: &WorkloadSpec, cfg: &RunConfig) -> (Outcome, RunReport) {
    let cfg = cfg.with_telemetry(true);
    let outcome = execute(spec, &cfg);
    let report = build_report(spec, &cfg, &outcome);
    (outcome, report)
}

/// Assembles the unified [`RunReport`] for one finished run: subsystem
/// counter sections, telemetry histograms, the guard-site table (labeled
/// via the compile report, when one exists), and the traced timeline.
pub fn build_report(spec: &WorkloadSpec, cfg: &RunConfig, outcome: &Outcome) -> RunReport {
    let mut rep = RunReport::new(&spec.name, cfg.system.name());
    rep.push_meta("local_fraction", cfg.local_fraction);
    rep.push_meta("object_size", cfg.object_size);
    rep.push_meta("prefetch", cfg.prefetch);
    if cfg.faults.is_active() {
        rep.push_meta("faults", cfg.faults);
    }
    if !cfg.backend.is_single() {
        rep.push_meta("backend", cfg.backend);
    }
    rep.push_section(&outcome.result.stats);
    if let Some(rt) = &outcome.result.runtime {
        rep.push_section(rt);
    }
    if let Some(p) = &outcome.result.pager {
        rep.push_section(p);
    }
    if let Some(t) = &outcome.result.transfers {
        rep.push_section(t);
    }
    for (i, snap) in outcome.result.shards.iter().enumerate() {
        rep.push_named_section(format!("shard{i}"), snap);
    }
    if let Some(snap) = &outcome.telemetry {
        rep.push_histogram("fetch_latency_cycles", snap.fetch_latency.clone());
        rep.push_histogram("stall_cycles_per_access", snap.stall_per_access.clone());
        rep.push_histogram("residency_cycles", snap.residency.clone());
        rep.push_histogram("transfer_bytes", snap.transfer_bytes.clone());
        rep.push_histogram("retry_latency_cycles", snap.retry_latency.clone());
        let labels = site_labels(outcome);
        rep.set_sites(&snap.sites, |k| labels.get(&k.0).map(|l| l.to_string()));
        if let Some(trace) = &snap.trace {
            rep.set_timeline(trace.timeline.clone());
        }
    }
    rep
}

/// The compiler's guard-site labels, for the site table and the trace
/// exporters. The map is keyed by the packed [`SiteKey`] word, the form the
/// machine stores in each guard span's `arg`.
fn site_labels(outcome: &Outcome) -> HashMap<u64, &str> {
    outcome
        .report
        .iter()
        .flat_map(|r| r.guard_sites.iter())
        .map(|s| (SiteKey::new(s.func, s.value).0, s.label.as_str()))
        .collect()
}

/// The run's span trace as a Chrome trace-event document (load in
/// `chrome://tracing` or <https://ui.perfetto.dev>), or `None` when the run
/// did not trace. Guard spans are labeled with the compiler's site labels.
pub fn chrome_trace(outcome: &Outcome) -> Option<Json> {
    let trace = outcome.telemetry.as_ref()?.trace.as_ref()?;
    let labels = site_labels(outcome);
    Some(trace.chrome_trace(&|site| labels.get(&site).map(|l| l.to_string())))
}

/// The run's span trace as folded stacks (pipe into `flamegraph.pl` or any
/// folded-stack viewer), or `None` when the run did not trace.
pub fn flamegraph(outcome: &Outcome) -> Option<String> {
    let trace = outcome.telemetry.as_ref()?.trace.as_ref()?;
    let labels = site_labels(outcome);
    Some(trace.folded_stacks(&|site| labels.get(&site).map(|l| l.to_string())))
}

/// Collects an execution profile by running the unmodified program under
/// local memory with profiling enabled (the NOELLE profiling stage).
///
/// # Panics
/// Panics if the profiling run traps.
pub fn collect_profile(spec: &WorkloadSpec) -> Profile {
    let heap = spec.heap_size(4096);
    let mem = LocalMem::new(heap);
    let cfg = RunConfig::local();
    let mut machine = Machine::new(&spec.module, mem, cfg.cost, heap);
    machine.enable_profiling();
    let args = setup(spec, &mut machine, false);
    let r = machine
        .run("main", &args)
        .unwrap_or_else(|t| panic!("{}: profiling run trapped: {t}", spec.name));
    check_expected(spec, r.ret);
    machine.take_profile()
}

/// Runs with a *warm* start: setup fills inputs through the memory system
/// under the configured budget, so the state at t=0 is exactly what in-app
/// initialization would leave behind — the most recently written
/// budget-worth resident, everything else already evacuated (with a remote
/// copy). At a 100% budget nothing is remote, matching the paper's
/// local-only-converged right-hand side of every sweep.
fn run_machine<M: MemorySystem>(
    spec: &WorkloadSpec,
    module: &Module,
    mem: M,
    cfg: &RunConfig,
    heap: u64,
    report: Option<CompileReport>,
) -> Outcome {
    let mut machine = Machine::new(module, mem, cfg.cost, heap);
    #[cfg(feature = "oracle")]
    machine.set_engine(cfg.engine);
    let args = setup(spec, &mut machine, false);
    // Telemetry attaches only after setup: the report should describe the
    // measured phase, not in-app initialization.
    let tel = telemetry_for(cfg);
    machine.set_telemetry(tel.clone());
    let result = machine
        .run("main", &args)
        .unwrap_or_else(|t| panic!("{}: execution trapped: {t}", spec.name));
    check_expected(spec, result.ret);
    let mut telemetry = tel.snapshot();
    if let Some(rep) = &report {
        attribute_removed_guards(rep, &mut telemetry);
    }
    Outcome {
        result,
        report,
        telemetry,
    }
}

fn check_expected(spec: &WorkloadSpec, ret: u64) {
    if let Some(want) = spec.expected {
        assert_eq!(
            ret, want,
            "{}: wrong result — transformation or runtime broke semantics",
            spec.name
        );
    }
}

/// Allocates and fills the spec's inputs; returns `main`'s argument list.
pub fn setup<M: MemorySystem>(
    spec: &WorkloadSpec,
    machine: &mut Machine<'_, M>,
    cold: bool,
) -> Vec<u64> {
    let mut ptrs = Vec::with_capacity(spec.inputs.len());
    for input in &spec.inputs {
        let ptr = machine.setup_alloc(input.byte_len().max(1));
        match input {
            InputData::U64(v) => machine.setup_write_u64s(ptr, v),
            InputData::F64(v) => machine.setup_write_f64s(ptr, v),
            InputData::U32(v) => machine.setup_write_u32s(ptr, v),
            InputData::Bytes(v) => machine.setup_write(ptr, v),
            InputData::Zeroed(n) => machine.setup_write(ptr, &vec![0u8; *n as usize]),
        }
        ptrs.push(ptr);
    }
    machine.finish_setup(cold);
    spec.args
        .iter()
        .map(|a| match a {
            ArgSpec::Input(i) => ptrs[*i],
            ArgSpec::Const(c) => *c as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{self, StreamParams};
    use tfm_telemetry::Json;

    #[test]
    fn run_report_covers_stats_histograms_and_sites() {
        let spec = stream::sum(&StreamParams { elems: 64 << 10 });
        let cfg = RunConfig::trackfm(0.25);
        let (outcome, rep) = execute_with_report(&spec, &cfg);

        assert!(outcome.telemetry.is_some());
        // All subsystem sections a TrackFM run produces.
        assert!(rep.field("exec", "cycles").unwrap() > 0);
        assert!(rep.field("runtime", "remote_fetches").is_some());
        assert!(rep.field("transfer", "bytes_fetched").unwrap() > 0);
        // The five distributions, with the fetch path exercised.
        assert_eq!(rep.histograms.len(), 5);
        assert!(rep.histogram("fetch_latency_cycles").unwrap().count() > 0);
        assert!(rep.histogram("transfer_bytes").unwrap().count() > 0);
        // Site attribution resolved through the compile report's labels.
        assert!(!rep.sites.is_empty());
        assert!(
            rep.sites.iter().any(|s| s.label.contains(":v")),
            "labels should come from the compiler: {:?}",
            rep.sites.iter().map(|s| &s.label).collect::<Vec<_>>()
        );
        // Machine-readable form parses back.
        let doc = Json::parse(&rep.to_json().to_string_pretty()).unwrap();
        assert_eq!(doc.get("system").and_then(Json::as_str), Some("trackfm"));
        assert!(!doc.get("guard_sites").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn elision_attribution_reaches_the_site_table() {
        // The analytics aggregation loop read-modify-writes the same group
        // slot, so redundant-guard elimination folds its read guard into the
        // write guard — the surviving site must carry the elided count.
        let spec = crate::analytics::analytics(&crate::analytics::AnalyticsParams {
            rows: 4096,
            groups: 64,
        });
        let cfg = RunConfig::trackfm(0.5);
        let (outcome, rep) = execute_with_report(&spec, &cfg);
        let report = outcome.report.as_ref().unwrap();
        assert!(
            report.elision.eliminated > 0,
            "analytics should elide guards"
        );
        let attributed: u64 = rep.sites.iter().map(|s| s.stats.elided).sum();
        assert_eq!(
            attributed,
            report
                .elision
                .sites
                .iter()
                .map(|s| s.absorbed as u64)
                .sum::<u64>(),
            "every absorbed guard must be attributed to a surviving site"
        );
        assert!(attributed >= report.elision.eliminated as u64 / 2);
    }

    #[test]
    fn telemetry_off_by_default_and_reports_stay_lean() {
        let spec = stream::sum(&StreamParams { elems: 16 << 10 });
        let cfg = RunConfig::trackfm(0.5);
        let outcome = execute(&spec, &cfg);
        assert!(outcome.telemetry.is_none(), "telemetry must be opt-in");
        let rep = build_report(&spec, &cfg, &outcome);
        // Sections still present; histograms/sites need the snapshot.
        assert!(rep.field("exec", "instructions").unwrap() > 0);
        assert!(rep.histograms.is_empty());
        assert!(rep.sites.is_empty());
    }

    #[test]
    fn sharded_report_carries_a_section_per_shard() {
        let spec = stream::sum(&StreamParams { elems: 16 << 10 });
        let cfg = RunConfig::trackfm(0.25).with_shards(4);
        let (_, rep) = execute_with_report(&spec, &cfg);
        assert!(rep
            .meta
            .iter()
            .any(|(k, v)| k == "backend" && v.contains("sharded(4")));
        for s in 0..4 {
            let section = format!("shard{s}");
            assert!(
                rep.field(&section, "fetches").is_some(),
                "missing {section}"
            );
            assert_eq!(rep.field(&section, "degraded"), Some(0));
        }
        assert!(rep.field("shard4", "fetches").is_none());
        // Shard ledgers must sum to the aggregate.
        let total: u64 = (0..4)
            .map(|s| rep.field(&format!("shard{s}"), "bytes_fetched").unwrap())
            .sum();
        assert_eq!(rep.field("transfer", "bytes_fetched"), Some(total));
        // Single-node reports carry no shard sections or backend meta.
        let (_, single) = execute_with_report(&spec, &RunConfig::trackfm(0.25));
        assert!(single.field("shard0", "fetches").is_none());
        assert!(!single.meta.iter().any(|(k, _)| k == "backend"));
    }

    #[test]
    fn replicated_crash_run_report_publishes_failover_counters() {
        use tfm_net::{BackendSpec, FaultPlan};
        let spec = stream::sum(&StreamParams { elems: 16 << 10 });
        let cfg = RunConfig::trackfm(0.25)
            .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(1))
            .with_faults(FaultPlan::none().with_cold_crash(100_000, 400_000));
        let (_, rep) = execute_with_report(&spec, &cfg);
        assert!(rep
            .meta
            .iter()
            .any(|(k, v)| k == "backend" && v.contains("replicas=2")));
        for s in 0..4 {
            let section = format!("shard{s}");
            for f in ["state", "epoch", "failover_reads", "divergent_writes"] {
                assert!(rep.field(&section, f).is_some(), "missing {section}.{f}");
            }
        }
        // The runtime section publishes the recovery story, and no
        // acknowledged write may be lost under R=2.
        for f in [
            "shard_downs",
            "shard_recoveries",
            "resynced_objects",
            "re_replications",
        ] {
            assert!(rep.field("runtime", f).is_some(), "missing runtime.{f}");
        }
        assert_eq!(rep.field("runtime", "lost_objects"), Some(0));
    }

    #[test]
    fn fastswap_report_carries_pager_section() {
        let spec = stream::sum(&StreamParams { elems: 16 << 10 });
        let cfg = RunConfig::fastswap(0.25);
        let (_, rep) = execute_with_report(&spec, &cfg);
        assert!(rep.field("pager", "major_faults").is_some());
        assert!(rep.histogram("fetch_latency_cycles").is_some());
    }
}
