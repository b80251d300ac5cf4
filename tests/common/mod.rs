//! What the integration suites share, each piece written once: the
//! workload suite, the far-memory harness for generated programs, checks
//! on compiled modules, and the hand-driven closed- and open-loop baselines. Binaries
//! declare `pub mod common;`: a helper that one binary does not call is
//! public API of that test crate, not dead code.

use std::sync::OnceLock;

use trackfm_suite::compiler::{
    ChunkingMode, CompileReport, CompilerOptions, CostModel, GuardOpt, TrackFmCompiler,
};
use trackfm_suite::ir::{parse_module, InstKind, Intrinsic, Module};
use trackfm_suite::net::LinkParams;
use trackfm_suite::runtime::FarMemoryConfig;
use trackfm_suite::sim::{
    ExecEngine, FastswapMem, LocalMem, Machine, MemorySystem, RunResult, TrackFmMem, Trap,
};
use trackfm_suite::workloads::openloop::{self, OpenLoopParams, OpenLoopSpec};
use trackfm_suite::workloads::runner::{self, Outcome, RunConfig, SystemKind};
use trackfm_suite::workloads::spec::WorkloadSpec;
use trackfm_suite::workloads::{analytics, hashmap, kmeans, memcached, nas, serving, stream};

/// The input sizes [`suite`] builds its workloads at.
#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Size {
    /// Small inputs for checks on compiled modules: a module's shape does
    /// not depend on its input size.
    Compile,
    /// Inputs large enough that a run under memory pressure evicts.
    Run,
}

/// The workload suite: STREAM (sum, copy, triad, strided), k-means,
/// the Zipf hashmap, analytics, memcached, the serving loop, the five NAS
/// kernels and, at [`Size::Compile`] only, the open-loop `get` module
/// (it has no `main`; only the open-loop driver runs it).
pub fn suite(size: Size) -> Vec<WorkloadSpec> {
    let run = size == Size::Run;
    let pick = |compile: usize, at_run: usize| if run { at_run } else { compile };
    let sp = stream::StreamParams {
        elems: pick(4 << 10, 32 << 10),
    };
    let mut specs = vec![
        stream::sum(&sp),
        stream::copy(&sp),
        stream::triad(&sp),
        stream::strided_sum(pick(512, 2_000), pick(16, 64) as u32),
        kmeans::kmeans(&kmeans::KmeansParams {
            points: pick(256, 1_500),
            dims: pick(4, 8),
            k: pick(3, 4),
            iters: pick(1, 2),
        }),
        hashmap::hashmap(&hashmap::HashmapParams {
            keys: pick(256, 3_000),
            lookups: pick(512, 6_000),
            skew: 1.02,
            seed: 5,
        }),
        analytics::analytics(&analytics::AnalyticsParams {
            rows: pick(1_024, 8_000),
            groups: pick(64, 600),
        }),
        memcached::memcached(&memcached::MemcachedParams {
            keys: pick(256, 2_000),
            gets: pick(512, 4_000),
            skew: 1.1,
            seed: 6,
        }),
        serving::serving(&serving::ServingParams {
            ops: pick(256, 8_192),
            ..Default::default()
        }),
    ];
    specs.extend(nas::all(&nas::NasParams {
        shrink: pick(100, 25),
    }));
    if !run {
        let ol = OpenLoopParams {
            keys: 256,
            requests: 64,
            ..Default::default()
        };
        specs.push(openloop::open_loop(&ol).spec);
    }
    specs
}

/// The compiler configurations worth checking: each exercises different
/// pipeline output (guard shapes, chunk streams, O1 cleanups, elision).
pub fn configs() -> Vec<(&'static str, CompilerOptions)> {
    let with = |edit: fn(&mut CompilerOptions)| {
        let mut opts = CompilerOptions::default();
        edit(&mut opts);
        opts
    };
    vec![
        ("default", CompilerOptions::default()),
        ("guard-opt-none", with(|o| o.guard_opt = GuardOpt::None)),
        ("no-chunking", with(|o| o.chunking = ChunkingMode::Off)),
        ("o1", with(|o| o.o1 = true)),
    ]
}

/// One cell of the static matrix: a suite module compiled under one
/// configuration.
pub struct Compiled {
    /// `workload/config`, for assertion messages.
    pub tag: String,
    /// The module as the workload built it, before compiling.
    pub source: Module,
    pub opts: CompilerOptions,
    pub module: Module,
    pub report: CompileReport,
}

impl Compiled {
    /// Compiles [`Compiled::source`] again under the same options.
    pub fn recompile(&self) -> Module {
        let mut m = self.source.clone();
        TrackFmCompiler::new(self.opts).compile(&mut m, None);
        m
    }
}

/// The static matrix: every [`suite`] module at [`Size::Compile`] under
/// every [`configs`] entry. The checks on compiled modules (lint, hooks,
/// chunk balance, round-trip, determinism) each walk this one table; it is
/// compiled once per test binary and shared by that binary's tests.
pub fn compiled_matrix() -> &'static [Compiled] {
    static MATRIX: OnceLock<Vec<Compiled>> = OnceLock::new();
    MATRIX.get_or_init(|| {
        let mut cells = Vec::new();
        for spec in suite(Size::Compile) {
            for (cname, opts) in configs() {
                let mut module = spec.module.clone();
                let report = TrackFmCompiler::new(opts).compile(&mut module, None);
                cells.push(Compiled {
                    tag: format!("{}/{cname}", spec.name),
                    source: spec.module.clone(),
                    opts,
                    module,
                    report,
                });
            }
        }
        cells
    })
}

/// Live calls of intrinsic `which` across the module.
pub fn count_intrinsic(m: &Module, which: Intrinsic) -> usize {
    m.functions()
        .map(|(_, f)| {
            f.live_insts()
                .into_iter()
                .filter(|&v| {
                    matches!(f.kind(v), InstKind::IntrinsicCall { intr, .. } if *intr == which)
                })
                .count()
        })
        .sum()
}

/// Asserts print→parse cycles reach a fixpoint and preserve the module's
/// shape. Returns the first reparsed module for behavioural checks.
///
/// Exact text equality with the in-memory module is not required (the
/// printer names values by arena index and the pipeline's `insert_before`
/// renumbers). One round is not always enough either: the parser
/// materializes blocks in first-*mention* order (a phi can mention a block
/// before its label), the printer labels blocks by arena order, so
/// chunked-loop output may take a couple of rounds for the two orders to
/// agree. The loop bounds how many.
pub fn assert_roundtrip(tag: &str, compiled: &Module) -> Module {
    let text1 = compiled.to_string();
    let parsed = parse_module(&text1)
        .unwrap_or_else(|e| panic!("{tag}: pipeline output failed to parse: {e}"));
    parsed
        .verify()
        .unwrap_or_else(|e| panic!("{tag}: reparsed module failed to verify: {e}"));

    let mut text = parsed.to_string();
    let mut converged = false;
    for round in 0..6 {
        let m = parse_module(&text)
            .unwrap_or_else(|e| panic!("{tag}: reparse round {round} failed: {e}"));
        m.verify()
            .unwrap_or_else(|e| panic!("{tag}: round {round} failed to verify: {e}"));
        let next = m.to_string();
        if next == text {
            converged = true;
            break;
        }
        text = next;
    }
    assert!(converged, "{tag}: print/parse never reached a fixpoint");

    // Same shape: function names and the multiset of block sizes (the
    // parser lays blocks out in printed order, which may differ from the
    // original arena order).
    let shape = |m: &Module| {
        m.functions()
            .map(|(_, f)| {
                let mut sizes: Vec<usize> = f.blocks().map(|b| f.block_insts(b).len()).collect();
                sizes.sort_unstable();
                (f.name.clone(), sizes)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        shape(compiled),
        shape(&parsed),
        "{tag}: module shape changed"
    );
    parsed
}

/// How [`run_far`] drives a program. The default is the production
/// engine, unarmed, without a fuel limit.
#[derive(Copy, Clone, Default)]
pub struct Far {
    /// Arm the guard sanitizer: a heap dereference without live guard
    /// custody traps instead of executing.
    pub sanitize: bool,
    /// The engine behind `Machine::run`.
    pub engine: ExecEngine,
    /// Instructions retired before the run stops with a fuel trap.
    pub fuel: Option<u64>,
}

/// What [`run_far`] observed: the outcome, and the machine's final clock
/// (observable even when the run traps).
pub type FarRun = (Result<RunResult, Trap>, u64);

/// Runs `main(args.., scratch)` on TrackFM far memory under heavy
/// pressure: a 64 KiB heap of 64 B objects with a 256 B local budget (four
/// objects) behind a TCP link, everything remote at t=0. `scratch` is a
/// zeroed 16-word heap buffer.
pub fn run_far(m: &Module, args: &[u64], far: Far) -> FarRun {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 16,
        object_size: 64,
        local_budget: 256,
        link: LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    };
    let mem = TrackFmMem::new(cfg, CostModel::default());
    let mut machine = Machine::new(m, mem, CostModel::default(), 1 << 16);
    machine.set_engine(far.engine);
    if let Some(fuel) = far.fuel {
        machine.set_fuel(fuel);
    }
    if far.sanitize {
        machine.enable_guard_sanitizer();
    }
    let scratch = machine.setup_alloc(128);
    machine.setup_write(scratch, &[0; 128]);
    machine.finish_setup(true);
    let mut call = args.to_vec();
    call.push(scratch);
    let r = machine.run("main", &call);
    (r, machine.clock())
}

/// Runs `spec` closed-loop by hand on a plain machine — build, set up,
/// attach telemetry, call `main` once, check, snapshot — the sequence the
/// runner's driver makes, written out without it.
pub fn manual_outcome(spec: &WorkloadSpec, cfg: &RunConfig) -> Outcome {
    fn by_hand<M: MemorySystem>(
        spec: &WorkloadSpec,
        module: &Module,
        mem: M,
        cfg: &RunConfig,
        report: Option<CompileReport>,
    ) -> Outcome {
        let mut machine = Machine::new(module, mem, cfg.cost, spec.heap_size(cfg.object_size));
        let args = runner::setup(spec, &mut machine, false);
        let tel = runner::telemetry_for(cfg);
        machine.set_telemetry(tel.clone());
        let result = machine.run("main", &args).unwrap();
        assert_eq!(result.ret, spec.expected.unwrap_or(result.ret));
        let mut telemetry = tel.snapshot();
        if let Some(report) = &report {
            runner::attribute_removed_guards(report, &mut telemetry);
        }
        Outcome {
            result,
            report,
            telemetry,
        }
    }
    let heap = spec.heap_size(cfg.object_size);
    match cfg.system {
        SystemKind::Local => by_hand(spec, &spec.module, LocalMem::new(heap), cfg, None),
        SystemKind::Fastswap => {
            let mem = FastswapMem::new(heap, runner::pager_config(spec, cfg));
            by_hand(spec, &spec.module, mem, cfg, None)
        }
        SystemKind::TrackFm | SystemKind::Aifm | SystemKind::Hybrid => {
            let (module, report, mem) = runner::compile_for(spec, cfg, None);
            by_hand(spec, &module, mem, cfg, Some(report))
        }
    }
}

/// Runs the open-loop requests by hand on a plain synchronous machine —
/// exactly what the suite did before the scheduler existed — and returns
/// the outcome the runner would, plus the machine's final clock.
pub fn manual_sync_outcome(ol: &OpenLoopSpec, cfg: &RunConfig) -> (Outcome, u64) {
    let (module, report, mem) = runner::compile_for(&ol.spec, cfg, None);
    let heap = ol.spec.heap_size(cfg.object_size);
    let mut machine = Machine::new(&module, mem, cfg.cost, heap);
    let args = runner::setup(&ol.spec, &mut machine, false);
    let tel = runner::telemetry_for(cfg);
    machine.set_telemetry(tel.clone());
    let mut last = None;
    for req in &ol.requests {
        let start = machine.clock().max(req.arrival);
        machine.set_clock(start);
        let mut call = args.clone();
        call.push(req.key);
        last = Some(machine.run("get", &call).unwrap());
    }
    let mut result = last.expect("at least one request");
    result.stats.cycles = machine.clock();
    let mut telemetry = tel.snapshot();
    runner::attribute_removed_guards(&report, &mut telemetry);
    (
        Outcome {
            result,
            report: Some(report),
            telemetry,
        },
        machine.clock(),
    )
}
