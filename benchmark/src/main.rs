//! `tfm-perf` — the repository's benchmark. Two clocks: simulated cycles
//! (exact, what the paper plots) and host wall-clock (what every sweep and
//! CI run waits for). See `benchmark/README.md`.
//!
//! ```text
//! tfm-perf --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//!          [--quick] [--append results.jsonl]
//! tfm-perf --compare a.jsonl b.jsonl
//! tfm-perf --manifest
//! ```
//!
//! A run is: generate inputs from the seed → one warm-up pass → timed
//! passes for `--seconds` (`wall_s` is the sum of each row's fastest timed
//! execution) → (with `--trace 1`) one traced pass, the replay drivers and
//! the telemetry ledger. The last line of standard output is the result as
//! one JSON object.

mod compare;
mod metrics;
mod replay;
mod rows;
mod span;
mod synth;
mod traced;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tfm_telemetry::Json;

use metrics::{END_TO_END, NOT_APPLICABLE, PER_LAYER, RUN_SECONDS, WORKLOADS};
use replay::ReplayNanos;
use rows::{Program, SimFacts, Sys, Workload, NOMINAL_GAP, SLO_P99_CYCLES};
use span::Recorder;
use traced::LayerNanos;

/// Times the inputs are generated in one run; `setup_s` takes the median.
const GEN_REPEATS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// One timed pass at an eighth of the size: a smoke test, not a
    /// measurement.
    quick: bool,
    append: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: tfm-perf --workload <{}> [--seed n] [--seconds s] [--trace 0|1] [--quick] \
         [--append file]\n       tfm-perf --compare a.jsonl b.jsonl\n       tfm-perf --manifest",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        append: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--append" => args.append = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn median(xs: &[f64]) -> f64 {
    let mut xs = xs.to_vec();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

/// Geometric mean of the positive values; `None` when there are none.
fn geomean(xs: impl Iterator<Item = f64>) -> Option<f64> {
    let (n, log_sum) = xs
        .filter(|x| *x > 0.0)
        .fold((0u32, 0.0), |(n, s), x| (n + 1, s + x.ln()));
    (n > 0).then(|| (log_sum / n as f64).exp())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kib.map_or(NOT_APPLICABLE, |k| k / 1024.0)
}

/// Counts row executions and holds each row's facts from its first
/// successful execution; every later execution must reproduce them.
struct Ledger {
    attempted: u64,
    failed: u64,
    facts: Vec<Option<SimFacts>>,
}

impl Ledger {
    fn new(rows: usize) -> Self {
        Ledger {
            attempted: 0,
            failed: 0,
            facts: vec![None; rows],
        }
    }

    /// Runs `f` as one execution of row `i`. A panic (the runner asserts
    /// results by panicking) or facts that differ from the row's earlier
    /// executions count as a failure and yield `None`.
    fn attempt<T>(
        &mut self,
        w: &Workload,
        i: usize,
        f: impl FnOnce() -> (T, SimFacts),
    ) -> Option<T> {
        self.attempted += 1;
        let id = &w.rows[i].id;
        let Ok((out, facts)) = catch_unwind(AssertUnwindSafe(f)) else {
            eprintln!("tfm-perf: row {id} failed");
            self.failed += 1;
            return None;
        };
        match &self.facts[i] {
            Some(first) if *first != facts => {
                eprintln!("tfm-perf: row {id} is not deterministic:\n{first:?}\n{facts:?}");
                self.failed += 1;
                return None;
            }
            Some(_) => {}
            None => self.facts[i] = Some(facts),
        }
        Some(out)
    }

    /// Rows of one program must return the same value on every system.
    fn check_results_agree(&mut self, w: &Workload) {
        let mut by_prog: BTreeMap<usize, u64> = BTreeMap::new();
        for (row, facts) in w.rows.iter().zip(&self.facts) {
            let Some(facts) = facts else { continue };
            let want = *by_prog.entry(row.prog).or_insert(facts.ret);
            if facts.ret != want {
                eprintln!("tfm-perf: row {} returned {} not {want}", row.id, facts.ret);
                self.failed += 1;
            }
        }
    }
}

/// One untraced pass: every row once. Returns each row's host seconds, or
/// `None` for a row that failed.
fn pass(w: &Workload, ledger: &mut Ledger) -> Vec<Option<f64>> {
    (0..w.rows.len())
        .map(|i| {
            ledger.attempt(w, i, || {
                let out = w.run_row(i);
                (out.wall.as_secs_f64(), out.sim)
            })
        })
        .collect()
}

/// Host seconds of a whole pass: the rows that succeeded, summed.
fn pass_total(rows: &[Option<f64>]) -> f64 {
    rows.iter().flatten().sum()
}

/// The host time of the timed passes, two ways.
struct Timing {
    /// Σ over rows of the row's fastest timed execution: `wall_s`. The
    /// simulated work of a row is identical every time it runs, so whatever
    /// one execution takes beyond the fastest is the host's doing (a busy
    /// neighbour, a cold cache), not the program's. The sandbox has such
    /// spells, seconds to minutes long; a row is a fraction of a second, so
    /// over a run each row meets a quiet moment and the floor holds still
    /// where the median pass moves with the weather.
    floor_s: f64,
    /// The median whole pass: what the traced pass is compared with, and
    /// over `floor_s` a measure of how disturbed the run was.
    median_s: f64,
    /// Every timed pass, whole.
    totals: Vec<f64>,
}

impl Timing {
    fn of(passes: &[Vec<Option<f64>>]) -> Self {
        let rows = passes.first().map_or(0, Vec::len);
        let fastest = |i: usize| {
            let times = passes.iter().filter_map(|p| p[i]);
            times.min_by(f64::total_cmp).unwrap_or(0.0)
        };
        let totals: Vec<f64> = passes.iter().map(|p| pass_total(p)).collect();
        Timing {
            floor_s: (0..rows).map(fastest).sum(),
            median_s: median(&totals),
            totals,
        }
    }
}

/// A metric as reported: name, value, unit.
type Reported = (&'static str, f64, &'static str);

fn end_to_end(w: &Workload, ledger: &Ledger, setup_s: f64, wall_s: f64) -> Vec<Reported> {
    let rows = || {
        w.rows
            .iter()
            .zip(&ledger.facts)
            .filter_map(|(r, f)| Some((r, f.as_ref()?)))
    };
    let insts: u64 = rows()
        .map(|(r, f)| match f.compile {
            Some(c) if r.sys == Sys::CompileOnly => c.insts_before * r.rounds as u64,
            _ => f.exec.instructions,
        })
        .sum();
    let local_cycles: BTreeMap<usize, u64> = rows()
        .filter(|(r, _)| r.sys == Sys::Local)
        .map(|(r, f)| (r.prog, f.exec.cycles))
        .collect();
    let slowdown = |sys: Sys| {
        geomean(rows().filter(|(r, _)| r.sys == sys).filter_map(|(r, f)| {
            let local = *local_cycles.get(&r.prog)?;
            Some(f.exec.cycles as f64 / local as f64)
        }))
    };
    let net_amp = geomean(
        rows()
            .filter(|(r, _)| r.sys == Sys::TrackFm)
            .map(|(_, f)| f.bytes_transferred() as f64 / f.working_set as f64),
    );
    let nominal = rows()
        .find(|(r, _)| r.ladder_gap == Some(NOMINAL_GAP))
        .and_then(|(_, f)| f.open);
    let code_size = geomean(
        rows()
            .filter_map(|(_, f)| f.compile)
            .map(|c| c.insts_after as f64 / c.insts_before as f64),
    );
    let cycles_local: u64 = local_cycles.values().sum();
    let na = NOT_APPLICABLE;
    let nonzero = |x: f64| if x > 0.0 { x } else { na };
    let by_name = |name: &str| match name {
        "setup_s" => setup_s,
        "wall_s" => nonzero(wall_s),
        "sim_minst_per_s" => nonzero(insts as f64 / 1e6 / wall_s),
        "sim_cycles_local" => nonzero(cycles_local as f64),
        "slowdown_trackfm" => slowdown(Sys::TrackFm).unwrap_or(na),
        "slowdown_fastswap" => slowdown(Sys::Fastswap).unwrap_or(na),
        "net_amp_trackfm" => net_amp.unwrap_or(na),
        "req_mean_cycles" => nominal.map_or(na, |o| o.mean()),
        "req_p99_cycles" => nominal.map_or(na, |o| o.p99 as f64),
        "code_size_ratio" => code_size.unwrap_or(na),
        "peak_rss_mb" => peak_rss_mb(),
        "ops_ok_share" => (ledger.attempted - ledger.failed) as f64 / ledger.attempted as f64,
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    let report = |m: &metrics::EndToEnd| (m.name, by_name(m.name), m.unit);
    END_TO_END.iter().map(report).collect()
}

/// Everything the traced part of a run measured.
struct Traced {
    rec: Recorder,
    /// Spans of work no untraced row does (compiled modules on `LocalMem`,
    /// call-graph summaries), kept out of the row tree.
    aux: Recorder,
    layers: LayerNanos,
    replay: ReplayNanos,
}

fn traced_part(args: &Args, scale: usize, ledger: &mut Ledger) -> Traced {
    let mut rec = Recorder::new();
    let mut layers = LayerNanos::default();
    // Inputs are generated again so that generation has a span of its own.
    let (w, _) = rec.span("workloads.gen", |_| {
        rows::build(&args.workload, args.seed, scale).expect("workload name was checked")
    });
    for i in 0..w.rows.len() {
        let traced = ledger.attempt(&w, i, || {
            ((), traced::trace_row(&mut rec, &mut layers, &w, i))
        });
        if traced.is_none() {
            rec.close_open();
        }
    }

    let mut aux = Recorder::new();
    for row in &w.rows {
        match &w.programs[row.prog] {
            Program::Module(m) => traced::trace_summaries(&mut aux, m, row.rounds),
            Program::Closed(_) if row.sys == Sys::TrackFm => {
                traced::trace_guarded_local(&mut aux, &mut layers, &w, row);
            }
            _ => {}
        }
    }
    if let Some(row) = w.rows.iter().find(|r| r.id == "hashmap/trackfm-64") {
        let spec = w.programs[row.prog].spec().expect("a closed row");
        traced::telemetry_ledger(&mut layers, spec, &row.cfg);
    }
    Traced {
        rec,
        aux,
        layers,
        replay: replay::run(args.seed),
    }
}

/// `timing` is of the untraced timed passes that ran before the traced one.
fn per_layer(w: &Workload, ledger: &Ledger, t: &Traced, timing: &Timing) -> Vec<Reported> {
    let spans = t.rec.spans();
    let total = |name: &str| t.rec.total_nanos(name);
    let us = |name: &str| total(name) as f64 / 1e3;
    let own = t.rec.self_nanos_by_name();
    let rows = || {
        w.rows
            .iter()
            .enumerate()
            .zip(&ledger.facts)
            .filter_map(|((i, r), f)| Some((i, r, f.as_ref()?)))
    };
    let sum = |f: &dyn Fn(&SimFacts) -> u64| rows().map(|(_, _, s)| f(s)).sum::<u64>() as f64;
    let rt =
        |f: &dyn Fn(&tfm_runtime::RuntimeStats) -> u64| sum(&|s| s.runtime.as_ref().map_or(0, f));
    let pg = |f: &dyn Fn(&tfm_fastswap::PagerStats) -> u64| sum(&|s| s.pager.as_ref().map_or(0, f));
    let net =
        |f: &dyn Fn(&tfm_net::TransferStats) -> u64| sum(&|s| s.transfers.as_ref().map_or(0, f));
    let cc = |f: &dyn Fn(&rows::CompileFacts) -> u64| sum(&|s| s.compile.as_ref().map_or(0, f));
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // `sim.run` host time of selected rows, with the work they retired.
    let run_of = |keep: &dyn Fn(&rows::Row) -> bool, work: &dyn Fn(&SimFacts) -> u64| {
        let (mut ns, mut units) = (0u64, 0u64);
        for (i, _, s) in rows().filter(|(_, r, _)| keep(r)) {
            ns += spans
                .iter()
                .filter(|sp| sp.name == "sim.run" && sp.row as usize == i)
                .map(|sp| sp.nanos())
                .sum::<u64>();
            units += work(s);
        }
        (ns as f64, units as f64)
    };
    let closed = |r: &rows::Row| matches!(w.programs[r.prog], Program::Closed(_));
    let (local_ns, local_insts) = run_of(&|r| r.sys == Sys::Local && closed(r), &|s| {
        s.exec.instructions
    });
    let (open_ns, open_reqs) = run_of(&|r| !closed(r), &|s| s.open.map_or(0, |o| o.requests));
    // What is left of the closed trackfm rows' `sim.run` once the same
    // compiled modules' `sim.run` on `LocalMem` is taken out: an estimate of
    // the time spent below the guard, in `runtime` and `net`.
    let (tfm_ns, _) = run_of(&|r| r.sys == Sys::TrackFm && closed(r), &|_| 0);
    let below_guard_ns = (tfm_ns - t.layers.guarded_run.0 as f64).max(0.0);

    let slow = sum(&|s| s.exec.slow_guards());
    let prefetched = rt(&|r| r.prefetch_hits) + rt(&|r| r.prefetch_late);
    // The smallest rung of the gap ladder that meets the latency limit
    // without a growing backlog.
    let slo_min_gap = rows()
        .filter_map(|(_, r, s)| Some((r.ladder_gap?, s.open?)))
        .filter(|(_, o)| {
            o.p99 <= SLO_P99_CYCLES && o.makespan as f64 <= 1.05 * o.last_arrival as f64
        })
        .map(|(gap, _)| gap)
        .min();
    let fastswap_open = rows()
        .find(|(_, r, s)| r.sys == Sys::Fastswap && s.open.is_some())
        .and_then(|(_, _, s)| s.open);
    let traced_s = secs(total("bench.row"));

    let by_name = |name: &str| -> f64 {
        if let Some(pass) = name.strip_prefix("core.pass_us.") {
            return t.layers.passes.get(pass).map_or(0.0, |ns| *ns as f64 / 1e3);
        }
        if let Some(span) = name.strip_prefix("bench.self_s.") {
            return own.get(span).map_or(0.0, |ns| secs(*ns));
        }
        match name {
            "ir.print_us" => us("ir.print"),
            "ir.parse_us" => us("ir.parse"),
            "ir.verify_us" => us("ir.verify"),
            "ir.corpus_insts" => rows()
                .filter(|(_, r, _)| r.sys == Sys::CompileOnly)
                .map(|(_, r, s)| s.compile.map_or(0, |c| c.insts_before) * r.rounds as u64)
                .sum::<u64>() as f64,
            "analysis.summaries_us" => t.aux.total_nanos("analysis.summaries") as f64 / 1e3,
            "core.compile_us" => us("core.compile"),
            "core.guards_inserted" => cc(&|c| c.guards_inserted),
            "core.guards_elided" => cc(&|c| c.guards_elided),
            "core.guards_hoisted" => cc(&|c| c.guards_hoisted),
            "core.streams_chunked" => cc(&|c| c.streams_chunked),
            "core.insts_after" => cc(&|c| c.insts_after),
            "sim.lower_us" => us("sim.lower"),
            "sim.bc_insts" => sum(&|s| s.bc_insts),
            "sim.machine_new_us" => us("sim.machine_new"),
            "sim.run_s" => secs(total("sim.run")),
            "sim.run_ns_per_inst" => ratio(local_ns, local_insts),
            "sim.run_ns_per_inst_guarded" => {
                ratio(t.layers.guarded_run.0 as f64, t.layers.guarded_run.1 as f64)
            }
            "sim.instructions" => sum(&|s| s.exec.instructions),
            "sim.guards_fast" => sum(&|s| s.exec.guards_fast),
            "sim.guards_slow_local" => sum(&|s| s.exec.guards_slow_local),
            "sim.guards_slow_remote" => sum(&|s| s.exec.guards_slow_remote),
            "sim.guard_slow_ratio" => ratio(slow, slow + sum(&|s| s.exec.guards_fast)),
            "sim.boundary_checks" => sum(&|s| s.exec.boundary_checks),
            "sim.locality_guards" => sum(&|s| s.exec.locality_guards),
            "sim.stall_cycles" => sum(&|s| s.exec.stall_cycles),
            "sim.openloop_ns_per_req" => ratio(open_ns, open_reqs),
            "runtime.touch_hit_ns" => t.replay.touch_hit,
            "runtime.localize_miss_ns" => t.replay.localize_miss,
            "runtime.localize_miss_write_ns" => t.replay.localize_miss_write,
            "runtime.remote_fetches" => rt(&|r| r.remote_fetches),
            "runtime.prefetch_issued" => rt(&|r| r.prefetch_issued),
            "runtime.prefetch_hit_ratio" => ratio(rt(&|r| r.prefetch_hits), prefetched),
            "runtime.prefetch_late" => rt(&|r| r.prefetch_late),
            "runtime.evictions" => rt(&|r| r.evictions),
            "runtime.writebacks" => rt(&|r| r.writebacks),
            "runtime.budget_overruns" => rt(&|r| r.budget_overruns),
            "runtime.peak_resident_bytes" => rows()
                .filter_map(|(_, _, s)| s.runtime)
                .map(|r| r.peak_resident_bytes)
                .max()
                .unwrap_or(0) as f64,
            "runtime.retries" => rt(&|r| r.retries),
            "runtime.fetch_joins" => rt(&|r| r.fetch_joins),
            "runtime.re_replications" => rt(&|r| r.re_replications),
            "runtime.lost_objects" => rt(&|r| r.lost_objects),
            "runtime.est_share" => ratio(below_guard_ns, tfm_ns),
            "fastswap.access_hit_ns" => t.replay.pager_hit,
            "fastswap.access_fault_ns" => t.replay.pager_fault,
            "fastswap.major_faults" => pg(&|p| p.major_faults),
            "fastswap.minor_faults" => pg(&|p| p.minor_faults),
            "fastswap.reclaims" => pg(&|p| p.reclaims),
            "fastswap.writebacks" => pg(&|p| p.writebacks),
            "fastswap.fault_joins" => pg(&|p| p.fault_joins),
            "fastswap.req_mean_cycles" => fastswap_open.map_or(0.0, |o| o.mean()),
            "net.link_transfer_ns" => t.replay.link_transfer,
            "net.sharded_transfer_ns" => t.replay.sharded_transfer,
            "net.fetches" => net(&|n| n.fetches),
            "net.bytes_fetched" => net(&|n| n.bytes_fetched),
            "net.bytes_written_back" => net(&|n| n.bytes_written_back),
            "net.faults" => net(&|n| n.faults),
            "net.delay_cycles" => net(&|n| n.delay_cycles),
            "net.failover_reads" => sum(&|s| s.shards.iter().map(|sh| sh.failover_reads).sum()),
            "telemetry.probe_ratio" => t.layers.probe_ratio,
            "telemetry.trace_ratio" => t.layers.trace_ratio,
            "telemetry.report_json_us" => t.layers.report_json_us,
            "telemetry.json_parse_us" => t.layers.json_parse_us,
            "telemetry.events_dropped" => t.layers.events_dropped as f64,
            "workloads.gen_s" => secs(total("workloads.gen")),
            "workloads.setup_fill_s" => secs(total("workloads.setup")),
            "workloads.slo_min_gap" => slo_min_gap.unwrap_or(0) as f64,
            "bench.trace_overhead_ratio" => ratio(traced_s, timing.median_s),
            "bench.passes" => timing.totals.len() as f64,
            "bench.noise_ratio" => ratio(timing.median_s, timing.floor_s),
            other => unreachable!("{other} is not a per-layer metric"),
        }
    };
    let report = |m: &metrics::PerLayer| (m.name, by_name(m.name), m.unit);
    PER_LAYER.iter().map(report).collect()
}

fn write_trace(args: &Args, w: &Workload, t: &Traced) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let ids: Vec<String> = w.rows.iter().map(|r| r.id.clone()).collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::str(args.workload.as_str())),
        ("seed".into(), Json::Int(args.seed)),
        ("rows".into(), t.rec.to_json(&ids)),
        ("aux".into(), t.aux.to_json(&ids)),
    ]);
    std::fs::write(
        dir.join(format!("trace-{}.json", args.workload)),
        doc.to_string_compact(),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let scale = if args.quick { 8 } else { 1 };

    // Set-up: the inputs, generated several times over, and a warm-up pass.
    let mut gen_s = Vec::new();
    let mut w = None;
    for _ in 0..GEN_REPEATS {
        let t = Instant::now();
        w = rows::build(&args.workload, args.seed, scale);
        gen_s.push(t.elapsed().as_secs_f64());
    }
    let w = w.expect("workload name was checked");
    let mut ledger = Ledger::new(w.rows.len());
    let setup_s = median(&gen_s) + pass_total(&pass(&w, &mut ledger));

    // Timed passes. A traced run spends half its time here and the rest on
    // the traced pass, so both kinds of run take about as long.
    let (budget, min_passes) = match (args.quick, args.trace) {
        (true, _) => (0.0, 1),
        (false, true) => (args.seconds / 2.0, 2),
        (false, false) => (args.seconds, 3),
    };
    let mut timed = Vec::new();
    let started = Instant::now();
    while timed.len() < min_passes || started.elapsed().as_secs_f64() < budget {
        timed.push(pass(&w, &mut ledger));
    }
    let timing = Timing::of(&timed);

    let reported = if args.trace {
        let t = traced_part(args, scale, &mut ledger);
        ledger.check_results_agree(&w);
        write_trace(args, &w, &t).map_err(|e| format!("writing the trace: {e}"))?;
        per_layer(&w, &ledger, &t, &timing)
    } else {
        ledger.check_results_agree(&w);
        end_to_end(&w, &ledger, setup_s, timing.floor_s)
    };

    println!(
        "# {} seed {} passes {} median_pass_s {}",
        args.workload,
        args.seed,
        timing.totals.len(),
        timing.median_s
    );
    println!("# pass_wall_s {:?}", timing.totals);
    println!("ops_attempted {} count", ledger.attempted);
    println!("ops_failed {} count", ledger.failed);
    let mut metrics = Vec::new();
    for (name, value, unit) in reported {
        println!("{name} {value} {unit}");
        let entry = vec![
            ("value".to_string(), Json::Num(value)),
            ("unit".to_string(), Json::str(unit)),
        ];
        metrics.push((name.to_string(), Json::Obj(entry)));
    }
    let result = vec![
        ("correct".to_string(), Json::Bool(ledger.failed == 0)),
        ("attempted".to_string(), Json::Int(ledger.attempted)),
        ("failed".to_string(), Json::Int(ledger.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ];
    if let Some(path) = &args.append {
        let mut record = vec![
            ("workload".to_string(), Json::str(args.workload.as_str())),
            ("seed".to_string(), Json::Int(args.seed)),
        ];
        record.extend(result.iter().cloned());
        compare::append_line(path, &Json::Obj(record).to_string_compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", Json::Obj(result).to_string_compact());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--manifest") => {
            println!("{}", metrics::manifest().to_string_pretty());
            Ok(())
        }
        Some("--compare") if argv.len() == 3 => compare::compare(&argv[1], &argv[2]),
        None | Some("--help") | Some("--compare") => Err(usage()),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tfm-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_time_is_each_rows_fastest_execution_and_skips_failed_ones() {
        let passes = vec![
            vec![Some(1.0), Some(5.0), None],
            vec![Some(3.0), Some(2.0), None],
            vec![Some(2.0), None, None],
        ];
        let t = Timing::of(&passes);
        assert_eq!(t.floor_s, 1.0 + 2.0);
        assert_eq!(t.totals, [6.0, 5.0, 2.0]);
        assert_eq!(t.median_s, 5.0);
        assert_eq!(Timing::of(&[]).floor_s, 0.0);
    }

    #[test]
    fn a_failed_or_irreproducible_row_is_counted_and_every_metric_still_prints() {
        let w = rows::build("compile_corpus", 1, 64).expect("a workload");
        let mut ledger = Ledger::new(w.rows.len());
        let failing = || -> ((), SimFacts) { panic!("the row failed") };
        assert!(ledger.attempt(&w, 0, failing).is_none());
        assert!(ledger.attempt(&w, 0, || (1.5, SimFacts::default())) == Some(1.5));
        let other = SimFacts {
            ret: 1,
            ..SimFacts::default()
        };
        assert!(ledger.attempt(&w, 0, || ((), other)).is_none());
        assert_eq!((ledger.attempted, ledger.failed), (3, 2));

        let metrics = end_to_end(&w, &ledger, 1.0, 1.0);
        assert_eq!(metrics.len(), END_TO_END.len());
        let sound = |&(_, v, _): &Reported| v.is_finite() && v != 0.0;
        assert!(metrics.iter().all(sound), "{metrics:?}");
        let (_, ok_share, _) = metrics[END_TO_END.len() - 1];
        assert!((ok_share - 1.0 / 3.0).abs() < 1e-12);
    }
}
