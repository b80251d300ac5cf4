//! The five workloads as fixed lists of rows, and the execution of one row.
//!
//! A row is one (program, configuration) pair. Every row runs on a fresh
//! machine through the public entry points a user calls
//! (`runner::execute`, `execute_open_loop`, `TrackFmCompiler::compile`),
//! with telemetry off. What a row leaves behind is split in two: its host
//! wall-clock, and [`SimFacts`] — every simulated quantity, which must be
//! bit-equal each time the same row runs.

use std::time::{Duration, Instant};

use tfm_fastswap::PagerStats;
use tfm_ir::{parse_module, Module};
use tfm_net::{FaultPlan, ShardSnapshot, TransferStats};
use tfm_runtime::RuntimeStats;
use tfm_sim::{bytecode, ExecStats, RunResult};
use tfm_workloads::hashmap::{hashmap, HashmapParams};
use tfm_workloads::kmeans::{kmeans, KmeansParams};
use tfm_workloads::memcached::{memcached, MemcachedParams};
use tfm_workloads::nas::{self, NasParams};
use tfm_workloads::serving::{serving, ServingParams};
use tfm_workloads::stream::{self, StreamParams};
use tfm_workloads::{
    analytics, execute, execute_open_loop, open_loop, OpenLoopParams, OpenLoopSpec, RunConfig,
    SystemKind, WorkloadSpec,
};
use trackfm::{CompileReport, TrackFmCompiler};

use crate::synth::synth_module;

/// The p99 latency limit of the open-loop service, in simulated cycles.
pub const SLO_P99_CYCLES: u64 = 65_535;

/// The nominal mean inter-arrival gap of the open-loop service.
pub const NOMINAL_GAP: u64 = 2_000;

/// Instructions each module of `compile_corpus` pushes through the pipeline
/// in one pass: a module of `n` instructions goes round `⌈this / n⌉` times,
/// so no module dominates the pass and the pass takes about a second.
const CORPUS_INSTS_PER_ROW: usize = 10_000;

/// Which system a row runs on, as far as the metrics care.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Sys {
    Local,
    TrackFm,
    Fastswap,
    /// No execution: the module only goes through the compile pipeline.
    CompileOnly,
}

impl Sys {
    pub fn of(cfg: &RunConfig) -> Sys {
        match cfg.system {
            SystemKind::Local => Sys::Local,
            SystemKind::TrackFm => Sys::TrackFm,
            SystemKind::Fastswap => Sys::Fastswap,
            other => panic!("the benchmark has no rows on {}", other.name()),
        }
    }
}

/// A generated input: what the seed produced, before any row runs.
pub enum Program {
    Closed(WorkloadSpec),
    Open(OpenLoopSpec),
    /// A module of the compile corpus.
    Module(Module),
}

impl Program {
    pub fn spec(&self) -> Option<&WorkloadSpec> {
        match self {
            Program::Closed(s) => Some(s),
            Program::Open(ol) => Some(&ol.spec),
            Program::Module(_) => None,
        }
    }
}

pub struct Row {
    /// `program/config`, unique within the workload.
    pub id: String,
    /// Index into [`Workload::programs`]. Rows that share a program must
    /// return the same value.
    pub prog: usize,
    pub cfg: RunConfig,
    pub sys: Sys,
    /// Open-loop rows only: the mean inter-arrival gap, when the row is a
    /// rung of the config-A gap ladder.
    pub ladder_gap: Option<u64>,
    /// Times the row's work repeats within one pass (1 except on
    /// `compile_corpus`).
    pub rounds: usize,
}

pub struct Workload {
    pub programs: Vec<Program>,
    pub rows: Vec<Row>,
}

/// Compiler decisions of one compile, without the host times.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct CompileFacts {
    pub insts_before: u64,
    pub insts_after: u64,
    pub guards_inserted: u64,
    pub guards_elided: u64,
    pub guards_hoisted: u64,
    pub streams_chunked: u64,
}

impl CompileFacts {
    pub fn of(r: &CompileReport) -> Self {
        CompileFacts {
            insts_before: r.insts_before as u64,
            insts_after: r.insts_after as u64,
            guards_inserted: r.total_guards() as u64,
            guards_elided: r.elision.eliminated as u64,
            guards_hoisted: r.motion.sites.len() as u64,
            streams_chunked: r.chunking.streams as u64,
        }
    }
}

/// Request-level results of an open-loop row.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct OpenFacts {
    /// Bit pattern of `latency.mean()`.
    pub mean_bits: u64,
    pub p99: u64,
    pub makespan: u64,
    pub last_arrival: u64,
    pub requests: u64,
}

impl OpenFacts {
    pub fn mean(&self) -> f64 {
        f64::from_bits(self.mean_bits)
    }
}

/// Every simulated quantity of one row execution. Two executions of the
/// same row on the same inputs must compare equal.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimFacts {
    /// `main`'s return value, the open-loop checksum, or (compile-only
    /// rows) a hash of the printed output module.
    pub ret: u64,
    pub exec: ExecStats,
    pub runtime: Option<RuntimeStats>,
    pub pager: Option<PagerStats>,
    pub transfers: Option<TransferStats>,
    pub shards: Vec<ShardSnapshot>,
    pub compile: Option<CompileFacts>,
    pub open: Option<OpenFacts>,
    /// Bytecode instructions after lowering (compile-only rows).
    pub bc_insts: u64,
    pub working_set: u64,
}

impl SimFacts {
    pub fn of_run(r: &RunResult, report: Option<&CompileReport>, working_set: u64) -> Self {
        SimFacts {
            ret: r.ret,
            exec: r.stats,
            runtime: r.runtime,
            pager: r.pager,
            transfers: r.transfers,
            shards: r.shards.clone(),
            compile: report.map(CompileFacts::of),
            open: None,
            bc_insts: 0,
            working_set,
        }
    }

    pub fn bytes_transferred(&self) -> u64 {
        self.transfers.map_or(0, |t| t.total_bytes())
    }
}

pub struct RowOut {
    pub wall: Duration,
    pub sim: SimFacts,
}

pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One round of the compile pipeline on `module`: clone → compile → lower →
/// print → parse → verify. Returns the facts of the round.
///
/// # Panics
/// Panics if the printed module does not parse back, fails verification, or
/// comes back with a different number of instructions. (Text equality is not
/// required: the parser renumbers values and reorders blocks.)
pub fn compile_round(module: &Module) -> SimFacts {
    let mut m = module.clone();
    let report = TrackFmCompiler::default().compile(&mut m, None);
    let program = bytecode::lower_module(&m);
    let text = m.to_string();
    let parsed = parse_module(&text).unwrap_or_else(|e| panic!("{}: {e}", m.name));
    parsed
        .verify()
        .unwrap_or_else(|e| panic!("{}: {e}", m.name));
    assert_eq!(
        parsed.total_live_insts(),
        m.total_live_insts(),
        "{}: reparsed module changed size",
        m.name
    );
    SimFacts {
        ret: fnv1a(&text),
        compile: Some(CompileFacts::of(&report)),
        bc_insts: program.num_insts() as u64,
        ..SimFacts::default()
    }
}

impl Workload {
    /// Executes row `i` once on a fresh machine.
    ///
    /// # Panics
    /// Panics (through the runner's own assertions) when the program traps
    /// or returns a wrong result, and when two rounds of a compile-only row
    /// disagree.
    pub fn run_row(&self, i: usize) -> RowOut {
        let row = &self.rows[i];
        let t = Instant::now();
        let sim = match &self.programs[row.prog] {
            Program::Closed(spec) => {
                let out = execute(spec, &row.cfg);
                SimFacts::of_run(&out.result, out.report.as_ref(), spec.working_set())
            }
            Program::Open(ol) => {
                let run = execute_open_loop(ol, &row.cfg);
                let mut sim = SimFacts::of_run(
                    &run.outcome.result,
                    run.outcome.report.as_ref(),
                    ol.spec.working_set(),
                );
                sim.ret = run.checksum;
                sim.open = Some(OpenFacts {
                    mean_bits: run.latency.mean().to_bits(),
                    p99: run.latency.p99(),
                    makespan: run.makespan,
                    last_arrival: ol.requests.last().map_or(0, |r| r.arrival),
                    requests: ol.requests.len() as u64,
                });
                sim
            }
            Program::Module(m) => {
                let first = compile_round(m);
                for _ in 1..row.rounds {
                    assert_eq!(compile_round(m), first, "{}: rounds disagree", row.id);
                }
                first
            }
        };
        RowOut {
            wall: t.elapsed(),
            sim,
        }
    }

    fn push(&mut self, program: Program, name: &str, cfgs: Vec<(&str, RunConfig)>) {
        let prog = self.programs.len();
        self.programs.push(program);
        for (label, cfg) in cfgs {
            self.rows.push(Row {
                id: format!("{name}/{label}"),
                prog,
                cfg,
                sys: Sys::of(&cfg),
                ladder_gap: None,
                rounds: 1,
            });
        }
    }
}

/// Generates the inputs and rows of workload `name` from `seed`. `scale`
/// divides every size (1 = the sizes the numbers in the README were measured
/// at; `--quick` uses 8).
pub fn build(name: &str, seed: u64, scale: usize) -> Option<Workload> {
    let mut w = Workload {
        programs: Vec::new(),
        rows: Vec::new(),
    };
    let local = || ("local", RunConfig::local());
    let fastswap = || ("fastswap", RunConfig::fastswap(0.25));
    match name {
        "interp_local" => {
            let km = KmeansParams::default();
            let km = KmeansParams {
                points: km.points / scale,
                ..km
            };
            w.push(Program::Closed(kmeans(&km)), "kmeans", vec![local()]);
            let sv = ServingParams {
                ops: (1 << 20) / scale,
                seed,
                ..ServingParams::default()
            };
            w.push(Program::Closed(serving(&sv)), "serving", vec![local()]);
            for spec in nas::all(&NasParams { shrink: scale }) {
                let name = spec.name.clone();
                w.push(Program::Closed(spec), &name, vec![local()]);
            }
        }
        "stream_far" => {
            let p = StreamParams {
                elems: (2 << 20) / scale,
            };
            for (name, spec) in [
                ("sum", stream::sum(&p)),
                ("copy", stream::copy(&p)),
                ("triad", stream::triad(&p)),
            ] {
                let trackfm = ("trackfm", RunConfig::trackfm(0.25));
                let cfgs = vec![local(), trackfm, fastswap()];
                w.push(Program::Closed(spec), name, cfgs);
            }
        }
        "kv_far" => {
            let hp = HashmapParams::default();
            let hp = HashmapParams {
                keys: hp.keys / scale,
                lookups: hp.lookups / scale,
                seed,
                ..hp
            };
            let tfm = RunConfig::trackfm(0.25);
            w.push(
                Program::Closed(hashmap(&hp)),
                "hashmap",
                vec![
                    local(),
                    ("trackfm-4096", tfm),
                    ("trackfm-64", tfm.with_object_size(64)),
                    fastswap(),
                ],
            );
            let mp = MemcachedParams::default();
            let mp = MemcachedParams {
                keys: mp.keys / scale,
                gets: mp.gets / scale,
                seed,
                ..mp
            };
            w.push(
                Program::Closed(memcached(&mp)),
                "memcached",
                vec![
                    local(),
                    ("trackfm-64", tfm.with_object_size(64)),
                    fastswap(),
                ],
            );
            // The untuned configuration a new user starts from.
            let small = MemcachedParams {
                gets: 30_000 / scale,
                ..mp
            };
            w.push(
                Program::Closed(memcached(&small)),
                "memcached-30k",
                vec![local(), ("trackfm-default", tfm)],
            );
        }
        "serve_openloop" => {
            let a = RunConfig::trackfm(0.25)
                .with_object_size(64)
                .with_prefetch(false)
                .with_cores(4)
                .with_shards(4)
                .with_replicas(2);
            let base = OpenLoopParams {
                keys: 100_000 / scale,
                requests: 200_000 / scale,
                skew: 1.01,
                seed,
                mean_gap_cycles: NOMINAL_GAP,
            };
            for gap in [NOMINAL_GAP, 500, 250, 120] {
                let ol = open_loop(&OpenLoopParams {
                    mean_gap_cycles: gap,
                    ..base
                });
                let mut cfgs = vec![("trackfm-A", a)];
                if gap == NOMINAL_GAP {
                    // One shard of four cold-crashes mid-run; replicas(2)
                    // must serve every request regardless.
                    let s = scale as u64;
                    let crash = FaultPlan::none().with_cold_crash(50_000_000 / s, 150_000_000 / s);
                    cfgs.push((
                        "trackfm-A-crash",
                        a.with_backend(a.backend.with_fault_shard(1))
                            .with_faults(crash),
                    ));
                }
                let first = w.rows.len();
                w.push(Program::Open(ol), &format!("kv@{gap}"), cfgs);
                w.rows[first].ladder_gap = Some(gap);
            }
            let ol = open_loop(&OpenLoopParams {
                requests: 20_000 / scale,
                mean_gap_cycles: 20_000,
                ..base
            });
            let cfgs = vec![("fastswap-4core", RunConfig::fastswap(0.25).with_cores(4))];
            w.push(Program::Open(ol), "kv-20k@20000", cfgs);
        }
        "compile_corpus" => {
            let sp = StreamParams {
                elems: (2 << 20) / scale,
            };
            let mut specs = vec![
                stream::sum(&sp),
                stream::copy(&sp),
                stream::triad(&sp),
                kmeans(&KmeansParams::default()),
                hashmap(&HashmapParams {
                    keys: 50_000,
                    lookups: 1,
                    seed,
                    ..HashmapParams::default()
                }),
                analytics::analytics(&analytics::AnalyticsParams {
                    rows: 10_000,
                    groups: 1_000,
                }),
                memcached(&MemcachedParams {
                    keys: 10_000,
                    gets: 1,
                    seed,
                    ..MemcachedParams::default()
                }),
                serving(&ServingParams {
                    ops: 1,
                    seed,
                    ..ServingParams::default()
                }),
            ];
            specs.extend(nas::all(&NasParams { shrink: 10 }));
            let synth = [
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 10),
                (6, 14),
                (8, 16),
                (10, 20),
                (12, 24),
            ];
            let modules = specs
                .into_iter()
                .map(|s| s.module)
                .chain(synth.iter().enumerate().map(|(i, &(funcs, loops))| {
                    synth_module(seed.wrapping_add(i as u64), funcs, loops).module
                }));
            for m in modules {
                let rounds = (CORPUS_INSTS_PER_ROW / scale).div_ceil(m.total_live_insts());
                w.rows.push(Row {
                    id: m.name.clone(),
                    prog: w.programs.len(),
                    cfg: RunConfig::local(),
                    sys: Sys::CompileOnly,
                    ladder_gap: None,
                    rounds,
                });
                w.programs.push(Program::Module(m));
            }
        }
        _ => return None,
    }
    Some(w)
}
