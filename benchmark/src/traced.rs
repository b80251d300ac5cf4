//! The traced pass: the same rows as a timed pass, but the benchmark drives
//! the phases itself — `core.compile` → `sim.machine_new` →
//! `workloads.setup` → `sim.run` → `telemetry.report` — with a span around
//! each public call. End-to-end numbers never come from here; the per-layer
//! metrics do.
//!
//! The phases mirror `runner::execute` and `execute_open_loop` step for
//! step. `main` checks that every traced row reproduces the facts of its
//! untraced runs, which keeps this mirror honest.

use std::collections::BTreeMap;
use std::time::Instant;

use tfm_analysis::summaries::ModuleSummaries;
use tfm_fastswap::PagerConfig;
use tfm_ir::{parse_module, Module};
use tfm_sim::{bytecode, CoreSet, FastswapMem, LocalMem, Machine, MemorySystem, TrackFmMem};
use tfm_telemetry::{Histogram, Json};
use tfm_workloads::runner::{self, build_report, far_config};
use tfm_workloads::{execute, Outcome, RunConfig, WorkloadSpec};
use trackfm::{CompileReport, TrackFmCompiler};

use crate::rows::{fnv1a, CompileFacts, OpenFacts, Program, Row, SimFacts, Sys, Workload};
use crate::span::Recorder;

/// Host time the traced pass measured outside the span tree's six phases.
#[derive(Default)]
pub struct LayerNanos {
    /// `CompileReport::pass_nanos`, summed over every compile of the pass.
    pub passes: BTreeMap<&'static str, u128>,
    /// `sim.run` time and instructions of compiled modules on `LocalMem`.
    pub guarded_run: (u64, u64),
    /// `with_telemetry(true)` and `with_tracing()` host time over the same
    /// row's untraced time, measured back to back.
    pub probe_ratio: f64,
    pub trace_ratio: f64,
    pub report_json_us: f64,
    pub json_parse_us: f64,
    pub events_dropped: u64,
}

fn note_passes(layers: &mut LayerNanos, report: &CompileReport) {
    for &(name, ns) in &report.pass_nanos {
        *layers.passes.entry(name).or_insert(0) += ns;
    }
}

/// What `sim.run` is for this program: one call of `main`, or the open-loop
/// request schedule on `cfg.cores` simulated cores.
fn run_program<M: MemorySystem>(
    program: &Program,
    machine: &mut Machine<'_, M>,
    args: &[u64],
    cfg: &RunConfig,
) -> (tfm_sim::RunResult, Option<OpenFacts>) {
    let Program::Open(ol) = program else {
        let r = machine
            .run("main", args)
            .unwrap_or_else(|t| panic!("trapped: {t}"));
        return (r, None);
    };
    let mut cores = CoreSet::new(cfg.cores);
    let multi = cores.len() > 1;
    if multi {
        machine.mem.set_async_fetch(true);
    }
    let mut latency = Histogram::new();
    let mut checksum = 0u64;
    let mut last = None;
    let mut call = Vec::with_capacity(args.len() + 1);
    for req in &ol.requests {
        let core = cores.pick();
        machine.set_clock(cores.begin(core, req.arrival));
        if multi {
            machine.set_core(core);
        }
        call.clear();
        call.extend_from_slice(args);
        call.push(req.key);
        let r = machine
            .run("get", &call)
            .unwrap_or_else(|t| panic!("trapped: {t}"));
        let end = machine.clock();
        cores.finish(core, end);
        let retire = end.max(machine.mem.take_completion_horizon());
        latency.record(retire - req.arrival);
        checksum = checksum.wrapping_add(r.ret);
        last = Some(r);
    }
    assert_eq!(checksum, ol.expected, "open-loop checksum diverged");
    let mut result = last.expect("at least one request");
    result.ret = checksum;
    result.stats.cycles = cores.makespan();
    let open = OpenFacts {
        mean_bits: latency.mean().to_bits(),
        p99: latency.p99(),
        makespan: cores.makespan(),
        last_arrival: ol.requests.last().map_or(0, |r| r.arrival),
        requests: ol.requests.len() as u64,
    };
    (result, Some(open))
}

/// `sim.machine_new` → `workloads.setup` → `sim.run` → `telemetry.report` on
/// an already chosen memory system.
fn drive<M: MemorySystem>(
    rec: &mut Recorder,
    program: &Program,
    module: &Module,
    mem: M,
    heap: u64,
    cfg: &RunConfig,
    report: Option<CompileReport>,
) -> (SimFacts, u64) {
    let spec = program.spec().expect("executed rows carry a spec");
    let (mut machine, _) = rec.span("sim.machine_new", |_| {
        Machine::new(module, mem, cfg.cost, heap)
    });
    let (args, _) = rec.span("workloads.setup", |_| {
        runner::setup(spec, &mut machine, false)
    });
    let ((result, open), run_ns) = rec.span("sim.run", |_| {
        run_program(program, &mut machine, &args, cfg)
    });
    if let (Some(want), None) = (spec.expected, &open) {
        assert_eq!(result.ret, want, "{}: wrong result", spec.name);
    }
    let mut sim = SimFacts::of_run(&result, report.as_ref(), spec.working_set());
    sim.open = open;
    let outcome = Outcome {
        result,
        report,
        telemetry: None,
    };
    rec.span("telemetry.report", |_| {
        std::hint::black_box(build_report(spec, cfg, &outcome));
    });
    (sim, run_ns)
}

fn compile(rec: &mut Recorder, spec: &WorkloadSpec, cfg: &RunConfig) -> (Module, CompileReport) {
    let mut module = spec.module.clone();
    let (report, _) = rec.span("core.compile", |_| {
        TrackFmCompiler::new(cfg.compiler).compile(&mut module, None)
    });
    (module, report)
}

/// A compile-only row with a span around each step of the round.
fn trace_module(
    rec: &mut Recorder,
    layers: &mut LayerNanos,
    m: &Module,
    rounds: usize,
) -> SimFacts {
    let mut facts = SimFacts::default();
    for _ in 0..rounds {
        let mut out = m.clone();
        let (report, _) = rec.span("core.compile", |_| {
            TrackFmCompiler::default().compile(&mut out, None)
        });
        note_passes(layers, &report);
        let (program, _) = rec.span("sim.lower", |_| bytecode::lower_module(&out));
        let (text, _) = rec.span("ir.print", |_| out.to_string());
        let (parsed, _) = rec.span("ir.parse", |_| {
            parse_module(&text).unwrap_or_else(|e| panic!("{}: {e}", m.name))
        });
        rec.span("ir.verify", |_| {
            parsed
                .verify()
                .unwrap_or_else(|e| panic!("{}: {e}", m.name))
        });
        facts.ret = fnv1a(&text);
        facts.compile = Some(CompileFacts::of(&report));
        facts.bc_insts = program.num_insts() as u64;
    }
    facts
}

/// Row `i` with the benchmark driving the phases. Returns the row's facts.
pub fn trace_row(rec: &mut Recorder, layers: &mut LayerNanos, w: &Workload, i: usize) -> SimFacts {
    let row = &w.rows[i];
    let program = &w.programs[row.prog];
    let cfg = &row.cfg;
    rec.set_row(i);
    let (sim, _) = rec.span("bench.row", |rec| {
        let spec = match program {
            Program::Module(m) => return trace_module(rec, layers, m, row.rounds),
            Program::Closed(spec) => spec,
            Program::Open(ol) => &ol.spec,
        };
        let heap = spec.heap_size(cfg.object_size);
        match row.sys {
            Sys::Local => {
                let mem = LocalMem::new(heap);
                drive(rec, program, &spec.module, mem, heap, cfg, None).0
            }
            Sys::Fastswap => {
                let pcfg = PagerConfig {
                    local_budget: spec.local_budget(cfg.local_fraction, 4096),
                    faults: cfg.faults,
                    backend: cfg.backend,
                    ..PagerConfig::default()
                };
                let mem = FastswapMem::new(heap, pcfg);
                drive(rec, program, &spec.module, mem, heap, cfg, None).0
            }
            Sys::TrackFm => {
                let (module, report) = compile(rec, spec, cfg);
                note_passes(layers, &report);
                let mem = TrackFmMem::new(far_config(spec, cfg), cfg.cost);
                drive(rec, program, &module, mem, heap, cfg, Some(report)).0
            }
            Sys::CompileOnly => unreachable!("compile-only rows hold a bare module"),
        }
    });
    sim
}

/// `ModuleSummaries::compute` on the source module of a compile-only row, as
/// often as the row compiles it. Kept out of the row's own span: the untraced
/// row does not make this call.
pub fn trace_summaries(rec: &mut Recorder, m: &Module, rounds: usize) {
    for _ in 0..rounds {
        rec.span("analysis.summaries", |_| {
            std::hint::black_box(ModuleSummaries::compute(m, &["main"]));
        });
    }
}

/// The compiled module of `row` on `LocalMem`: what the guards cost the
/// interpreter when every one of them is an identity.
pub fn trace_guarded_local(rec: &mut Recorder, layers: &mut LayerNanos, w: &Workload, row: &Row) {
    let program = &w.programs[row.prog];
    let spec = program.spec().expect("trackfm rows carry a spec");
    rec.span("bench.guarded_local", |rec| {
        let cfg = &row.cfg;
        let (module, report) = compile(rec, spec, cfg);
        let heap = spec.heap_size(4096);
        let mem = LocalMem::new(heap);
        let (sim, ns) = drive(rec, program, &module, mem, heap, cfg, Some(report));
        layers.guarded_run.0 += ns;
        layers.guarded_run.1 += sim.exec.instructions;
    });
}

/// What the telemetry layer costs `row`: the row with probes on and with
/// span tracing on, each over the row with both off, run back to back; and
/// the cost of building, printing and re-reading the run report.
pub fn telemetry_ledger(layers: &mut LayerNanos, spec: &WorkloadSpec, cfg: &RunConfig) {
    let timed = |cfg: &RunConfig| {
        let t = Instant::now();
        let out = execute(spec, cfg);
        (t.elapsed().as_nanos() as f64, out)
    };
    let (off, _) = timed(cfg);
    let on_cfg = cfg.with_telemetry(true);
    let (probes, outcome) = timed(&on_cfg);
    let (tracing, _) = timed(&cfg.with_tracing());
    layers.probe_ratio = probes / off;
    layers.trace_ratio = tracing / off;
    layers.events_dropped = outcome.telemetry.as_ref().map_or(0, |s| s.events_dropped);

    let t = Instant::now();
    let report = build_report(spec, &on_cfg, &outcome);
    let text = report.to_json().to_string_pretty();
    std::hint::black_box(report.render());
    layers.report_json_us = t.elapsed().as_nanos() as f64 / 1e3;
    let t = Instant::now();
    Json::parse(&text).expect("a run report parses back");
    layers.json_parse_us = t.elapsed().as_nanos() as f64 / 1e3;
}
