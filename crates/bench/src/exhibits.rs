//! The paper's evaluation, and this repository's extensions to it, as one
//! table: per exhibit an id, the claim it carries, a function from a scale
//! divisor to tables of integer facts (plus the ratios derived from them),
//! and the claim's direction as a check over those tables.
//! `benches/figures.rs` prints, checks and pins them;
//! `tests/paper_mechanisms.rs` runs the same checks at test-sized divisors.

use crate::check::Check;
use crate::{f2, Cell, Table};
use std::time::Instant;
use tfm_analysis::profile::Profile;
use tfm_fastswap::{Pager, PagerConfig};
use tfm_net::{BackendSpec, FaultPlan, LinkParams};
use tfm_runtime::FarMemoryConfig;
use tfm_sim::{ExecStats, MemorySystem, TrackFmMem};
use tfm_workloads::openloop::{execute_open_loop, open_loop, OpenLoopParams};
use tfm_workloads::runner::{collect_profile, execute, execute_with_profile, Outcome, RunConfig};
use tfm_workloads::{analytics, hashmap, kmeans, memcached, nas, serving, stream, WorkloadSpec};
use trackfm::{ChunkingMode, CompilerOptions, CostModel, GuardOpt, TrackFmCompiler};

/// One exhibit of the paper's evaluation (or of this repository's
/// extensions to it).
pub struct Exhibit {
    /// Short id: the `figures` filter argument and the `<!-- figures:ID -->`
    /// marker of its golden block in EXPERIMENTS.md.
    pub id: &'static str,
    /// What the exhibit shows.
    pub title: &'static str,
    /// The claim, as text.
    pub claim: &'static str,
    /// Runs the exhibit with every workload size divided by the argument.
    pub run: fn(usize) -> Vec<Table>,
    /// The claim's direction, over `run`'s tables: the `check_*` function
    /// under the exhibit's `run`.
    check: fn(&mut Check),
}

impl Exhibit {
    /// One line per part of the claim the tables contradict.
    pub fn failures(&self, tables: &[Table]) -> Vec<String> {
        let mut c = Check::new(tables);
        (self.check)(&mut c);
        assert!(c.checked > 0, "{}: the claim compared nothing", self.id);
        c.failed
    }
}

/// Every exhibit: the paper's, in its order, then this repository's. A claim
/// names the rows it is about and holds at full scale, at `TFM_SCALE=8` and
/// at the divisor `tests/paper_mechanisms.rs` runs the exhibit at; where that
/// takes a bound weaker than the full-scale table would allow, the check says
/// why.
#[rustfmt::skip]
pub const EXHIBITS: &[Exhibit] = &[
    Exhibit { id: "table1", run: table1, check: check_table1, title: "Table 1: guard costs with the object local",
        claim: "fast-path guards cost 21 cycles, slow-path read/write guards 144/159 (the paper's cached column)" },
    Exhibit { id: "table2", run: table2, check: check_table2, title: "Table 2: slow-path guards vs. Fastswap page faults",
        claim: "remote costs are within 5% of the paper's 34-35K on both systems; with the data local a slow guard is far below a 1.3K-cycle fault" },
    Exhibit { id: "fig06", run: fig06, check: check_fig06, title: "Fig. 6: loop-chunking cost-model crossover",
        claim: "chunking loses below the Eq. 3 density threshold and wins above it: the prediction matches the empirics" },
    Exhibit { id: "fig07", run: fig07, check: check_fig07, title: "Fig. 7: loop-chunking speedup on STREAM",
        claim: "C1: chunked has 0 fast guards; naive > 1.5x chunked at 100% local, more so for Copy, and the gain rises to the right" },
    Exhibit { id: "fig08", run: fig08, check: check_fig08, title: "Fig. 8: selective chunking on k-means",
        claim: "C2: chunking every loop costs > 2x the cost-model-filtered build, which is never slower than no chunking" },
    Exhibit { id: "fig09", run: fig09, check: check_fig09, title: "Fig. 9: object size on the Zipf hashmap",
        claim: "C3: at 25% local, low-spatial-locality lookups take fewer cycles and move fewer bytes with 256 B objects than with 4 KB" },
    Exhibit { id: "fig10", run: fig10, check: check_fig10, title: "Fig. 10: object size on STREAM copy",
        claim: "C4: high spatial locality wants large objects: at 25% local, cycles grow at every halving from 4 KB to 256 B" },
    Exhibit { id: "fig11", run: fig11, check: check_fig11, title: "Fig. 11: prefetching on top of chunking",
        claim: "C5: prefetching hides most fetch latency when memory is scarce (> 1.8x at 20% local, prefetches mostly on time) and changes nothing at 100%" },
    Exhibit { id: "fig12", run: fig12, check: check_fig12, title: "Fig. 12: STREAM, TrackFM vs. Fastswap",
        claim: "C6: TrackFM is faster than Fastswap on STREAM whenever the working set does not fit, > 2x up to 60% local" },
    Exhibit { id: "fig13", run: fig13, check: check_fig13, title: "Fig. 13: I/O amplification on the hashmap",
        claim: "C7: up to 50% local, 4 KB pages move > 8x the bytes of 64 B objects and TrackFM is faster" },
    Exhibit { id: "fig14", run: fig14, check: check_fig14, title: "Fig. 14: the analytics application",
        claim: "C8: from 25% local up (from 10% where the chunk streams fit) TrackFM beats Fastswap, stays within 35% above hand-tuned AIFM, and takes fewer slow guards than Fastswap major faults" },
    Exhibit { id: "fig15", run: fig15, check: check_fig15, title: "Fig. 15: chunking policy on analytics",
        claim: "C9: on the same rows chunking all loops is worst; the cost-model filter drops the two low-density streams and beats no chunking" },
    Exhibit { id: "fig16", run: fig16, check: check_fig16, title: "Fig. 16: memcached vs. Zipf skew",
        claim: "C10: skew amortizes Fastswap's faults (> 1.5x faster at 1.30 than at 1.01, fewer faults at every step); at 1.01 TrackFM wins and moves < 1/4 the bytes" },
    Exhibit { id: "fig17", run: fig17, check: check_fig17, title: "Fig. 17: NAS kernels at 25% local memory",
        claim: "C11: TrackFM beats Fastswap on IS, MG and SP (and on CG where its chunk streams fit); O1 cuts FT's and SP's loads and cycles" },
    Exhibit { id: "sec46", run: sec46, check: check_sec46, title: "Sec. 4.6: compilation costs",
        claim: "every workload's code grows, and by less than the paper's 2.4x" },
    Exhibit { id: "ablations", run: ablations, check: check_ablations, title: "Ablations of TrackFM's design choices",
        claim: "depth 2 captures the prefetch benefit and the runtime detector alone is within 5% of detector + compiler streams; the state table pays on guard-heavy code only; d* grows with c_l" },
    Exhibit { id: "sec5a", run: sec5a, check: check_sec5a, title: "Sec. 5 lesson: temporal locality amortizes page faults",
        claim: "once the hot set fits its budget Fastswap runs within 3.5x of local, and faster than under a tight budget" },
    Exhibit { id: "sec5b", run: sec5b, check: check_sec5b, title: "Sec. 5 lesson: a hybrid of compiler and kernel holds promise",
        claim: "hybrid binaries carry no guards, keep their results, and beat TrackFM when everything fits and accesses are irregular" },
    Exhibit { id: "guard_opt", run: guard_opt, check: check_guard_opt, title: "Guard removal: GuardOpt::{None, Local}",
        claim: "Local never keeps more static guard sites than None, and takes no more cycles on every row but nas-is. At full scale nas-is inverts (+1.6%): Local halves its fast guards, yet evictions rise 39 313 -> 39 766 while about 17 250 prefetches per level score 68 and 75 hits (prefetch churn)" },
    Exhibit { id: "shards", run: shards, check: check_shards, title: "Shard scaling: STREAM sum over 1/2/4/8 remote nodes",
        claim: "the same bytes move at every shard count (aggregate wire occupancy is flat), the occupancy of one wire falls at every doubling, and cycles never rise" },
    Exhibit { id: "failover", run: failover, check: check_failover, title: "Crash failover: what redundancy costs",
        claim: "two replicas, with and without a scripted cold crash of one shard, return the single node's result; the crashed shard rejoins and no acknowledged writeback is lost" },
    Exhibit { id: "cores", run: cores, check: check_cores, title: "Request concurrency: open-loop serving on 1/2/4/8 cores",
        claim: "on miss-heavy Zipf gets 8 cores clear at least 4x the simulated-cycle throughput of one" },
];

/// The local-memory fractions the STREAM and k-means figures sweep.
const FRACTIONS: [f64; 6] = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
/// The fractions the object-size and application figures sweep.
const APP_FRACTIONS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 1.0];
const OBJECT_SIZES: [u64; 5] = [4096, 2048, 1024, 512, 256];

fn n(x: impl TryInto<u64>) -> Cell {
    Cell::Fact(x.try_into().ok().expect("a count fits u64"))
}

fn t(x: impl ToString) -> Cell {
    Cell::Text(x.to_string())
}

/// A row: its label, then its cells.
fn row(label: impl ToString, cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    std::iter::once(t(label)).chain(cells).collect()
}

/// `a / b` to two decimals, for display beside the two facts.
fn per(a: u64, b: u64) -> Cell {
    t(f2(a as f64 / b as f64))
}

/// Mean over the rows of `num / den`.
fn mean_ratio(t: &Table, num: &str, den: &str) -> f64 {
    let pairs = t.col(num).into_iter().zip(t.col(den));
    pairs.map(|(a, b)| a as f64 / b as f64).sum::<f64>() / t.rows.len() as f64
}

/// `full / scale`. A divisor that drives a workload parameter to 0 is
/// rejected here, not deep inside a generator.
fn scaled(full: usize, scale: usize) -> usize {
    match full.checked_div(scale) {
        Some(n) if n > 0 => n,
        _ => panic!("scale divisor {scale} drives a workload parameter ({full}) to 0"),
    }
}

fn cycles(o: &Outcome) -> u64 {
    o.result.stats.cycles
}

fn major_faults(o: &Outcome) -> u64 {
    o.result.pager.map_or(0, |p| p.major_faults)
}

/// Demand fetches plus prefetches issued.
fn fetches(o: &Outcome) -> u64 {
    let rt = o.result.runtime.unwrap();
    rt.remote_fetches + rt.prefetch_issued
}

fn chunking(mut cfg: RunConfig, mode: ChunkingMode) -> RunConfig {
    cfg.compiler.chunking = mode;
    cfg
}

fn stream_params(scale: usize) -> stream::StreamParams {
    let elems = scaled(2 << 20, scale);
    stream::StreamParams { elems }
}

fn zipf_hashmap(keys: usize, lookups: usize, scale: usize) -> WorkloadSpec {
    let (keys, lookups) = (scaled(keys, scale), scaled(lookups, scale));
    let defaults = hashmap::HashmapParams::default();
    hashmap::hashmap(&hashmap::HashmapParams {
        keys,
        lookups,
        ..defaults
    })
}

// ---------------------------------------------------------------- Tables 1-2

/// Cycles one guard costs on a fresh 4 KB object: resident (fast path), or
/// evacuated and then either prefetched back long before the guard (slow
/// path with the data in place, no stall) or left remote (demand fetch).
fn guard_cycles(write: bool, evacuated: bool, prefetched: bool) -> u64 {
    let cfg = FarMemoryConfig {
        heap_size: 1 << 20,
        object_size: 4096,
        local_budget: 1 << 20,
        link: LinkParams::tcp_25g(),
        ..FarMemoryConfig::small()
    };
    let mut m = TrackFmMem::new(cfg, CostModel::default());
    let mut st = ExecStats::default();
    let ptr = m.alloc(4096, 0).unwrap();
    if evacuated {
        m.evacuate_all(0);
    }
    if prefetched {
        m.prefetch_hint(ptr, 0);
    }
    let (cycles, _) = m.guard(ptr, write, 10_000_000, &mut st).unwrap();
    let took = (st.guards_fast, st.guards_slow_local, st.guards_slow_remote);
    let slow_local = evacuated && prefetched;
    let want = (
        !evacuated as u64,
        slow_local as u64,
        (evacuated && !prefetched) as u64,
    );
    assert_eq!(took, want, "the guard took another path than its row names");
    cycles
}

/// Table 1's guards: row label, write, slow path, the paper's cached cycles.
const TABLE1: [(&str, bool, bool, u64); 4] = [
    ("TrackFM fast-path read guard", false, false, 21),
    ("TrackFM fast-path write guard", true, false, 21),
    ("TrackFM slow-path read guard", false, true, 144),
    ("TrackFM slow-path write guard", true, true, 159),
];

fn table1(_scale: usize) -> Vec<Table> {
    let cost = CostModel::default();
    let mut rows = Vec::new();
    for (label, write, slow, paper) in TABLE1 {
        let total = guard_cycles(write, slow, slow);
        // The paper's accounting leaves the custody check out of the body.
        let body = total - cost.custody_check;
        rows.push(vec![t(label), n(body), n(total), t(paper)]);
    }
    // Beyond Table 1: the chunking primitives of Sec. 3.4.
    for (label, cycles, paper) in [
        (
            "chunk object-boundary check",
            cost.boundary_check,
            "~3 insts",
        ),
        (
            "chunk locality-invariant guard",
            cost.locality_guard,
            "(runtime call)",
        ),
    ] {
        rows.push(vec![t(label), n(cycles), n(cycles), t(paper)]);
    }
    let headers = "guard type | body | incl. custody | paper (cached)";
    let tab = Table::new("Table 1: guard costs, object local (cycles)", headers, rows);
    vec![tab.note(
        "the paper's 'uncached' column reflects CPU-cache misses, which the simulator does not model.",
    )]
}

fn check_table1(c: &mut Check) {
    for (guard, .., paper) in TABLE1 {
        c.is((0, guard, "body"), paper);
    }
}

fn table2(_scale: usize) -> Vec<Table> {
    let mut rows = Vec::new();
    for (label, write, paper) in [
        ("Fastswap read fault", false, "1300 / 34000"),
        ("Fastswap write fault", true, "1300 / 35000"),
        ("TrackFM slow-path read guard", false, "453 / 35000"),
        ("TrackFM slow-path write guard", true, "432 / 35000"),
    ] {
        let (local, remote) = if label.starts_with("Fastswap") {
            // Local: the kernel's minor-fault path. Remote: a major fault,
            // long after the evacuation's writeback drained from the link.
            let mut p = Pager::new(PagerConfig::default());
            let local = p.access(0, 8, write, 0);
            p.evacuate_all(local);
            (local, p.access(0, 8, write, 10_000_000))
        } else {
            let remote = guard_cycles(write, true, false);
            (guard_cycles(write, true, true), remote)
        };
        rows.push(vec![t(label), n(local), n(remote), t(paper)]);
    }
    let headers = "event | local | remote | paper local/remote";
    vec![Table::new("Table 2: primitive overheads (cycles)", headers, rows)
        .note("paper 'local' for Fastswap includes swap-cache handling (1.3K); ours is the kernel minor-fault path.")
        .note("the paper's 453/432-cycle local slow paths include uncached metadata misses we do not model (ours = 144/159 + custody).")]
}

fn check_table2(c: &mut Check) {
    let (read, write) = ("Fastswap read fault", "Fastswap write fault");
    c.is((0, read, "local"), 1_300);
    c.is((0, write, "local"), 1_300);
    c.near((0, read, "remote"), 34_000, 5);
    c.near((0, write, "remote"), 35_000, 5);
    for guard in [
        "TrackFM slow-path read guard",
        "TrackFM slow-path write guard",
    ] {
        c.near((0, guard, "remote"), 35_000, 5);
        c.lt(4.0, (0, guard, "local"), (0, read, "local"));
    }
}

// --------------------------------------------------------- Figs. 6-8: chunking

fn fig06(_scale: usize) -> Vec<Table> {
    let predicted = CostModel::default().density_threshold();
    let mut rows = Vec::new();
    let mut empirical = None;
    // Element sizes from 2 KB (2 per 4 KB object) down to 8 B (512): ascending
    // density like the figure's x-axis, the bytes swept held constant.
    for elem_bytes in [2048u32, 1024, 512, 256, 128, 64, 32, 16, 8] {
        let density = 4096 / elem_bytes as u64;
        let spec = stream::strided_sum((1 << 22) / elem_bytes as usize, elem_bytes);
        let base = RunConfig::trackfm(1.0).with_prefetch(false);
        let naive = cycles(&execute(&spec, &chunking(base, ChunkingMode::Off)));
        let chunked = cycles(&execute(&spec, &chunking(base, ChunkingMode::AllLoops)));
        let says_chunk = density as f64 > predicted;
        let decision = t(if says_chunk { "chunk" } else { "skip" });
        if chunked <= naive {
            empirical.get_or_insert(density);
        }
        rows.push(vec![
            t(density),
            n(naive),
            n(chunked),
            per(naive, chunked),
            decision,
        ]);
    }
    vec![Table::new(
        "Fig. 6: chunking speedup vs. elements per object (local memory = 100%)",
        "elems/object | cycles (naive) | cycles (chunked) | speedup vs. naive | Eq.3 decision",
        rows,
    )
    .note(format!("predicted crossover: d* = {predicted:.0} elements/object"))
    .note(format!("empirical crossover: first density with speedup >= 1 is {}", empirical.map_or("none".to_string(), |d| d.to_string())))
    .note("paper: crossover ~730 on their hardware; shape (loss below, gain above, prediction matches empirics) is the claim.")]
}

fn check_fig06(c: &mut Check) {
    let predicted = CostModel::default().density_threshold();
    for density in c.tables[0].labels() {
        let cycles = |col| c.get((0, density, col));
        let (naive, chunked) = (cycles("cycles (naive)"), cycles("cycles (chunked)"));
        let above = density.parse::<f64>().unwrap() > predicted;
        let what = || format!("{density} elems/object: chunked {chunked} vs. naive {naive}");
        c.want((chunked < naive) == above, what);
    }
}

/// A configuration at a local-memory fraction.
type At = fn(f64) -> RunConfig;

/// One table per STREAM kernel, one row per fraction: the cycles of
/// configuration `a` and of `b`, `a / b`, then `extra`'s counters.
fn stream_figure(
    scale: usize,
    title: &str,
    headers: &str,
    (a, b): (At, At),
    extra: fn(&Outcome, &Outcome) -> Vec<Cell>,
) -> Vec<Table> {
    let p = stream_params(scale);
    let table = |(kernel, spec): (&str, WorkloadSpec)| {
        let row = |f| {
            let (ra, rb) = (execute(&spec, &a(f)), execute(&spec, &b(f)));
            let (ca, cb) = (cycles(&ra), cycles(&rb));
            let mut row = vec![t(f2(f)), n(ca), n(cb), per(ca, cb)];
            row.extend(extra(&ra, &rb));
            row
        };
        Table::new(
            title.replace("{}", kernel),
            headers,
            FRACTIONS.map(row).to_vec(),
        )
    };
    let kernels = [("Sum", stream::sum(&p)), ("Copy", stream::copy(&p))];
    kernels.map(table).to_vec()
}

/// Appends `note` to the last table.
fn noted(mut tables: Vec<Table>, note: &str) -> Vec<Table> {
    let last = tables.pop().unwrap();
    tables.push(last.note(note));
    tables
}

fn fig07(scale: usize) -> Vec<Table> {
    // Prefetch off on both arms: Fig. 7 isolates guard elimination (Fig. 11
    // adds prefetching).
    let chunked = |f| RunConfig::trackfm(f).with_prefetch(false);
    let tables = stream_figure(
        scale,
        "Fig. 7 ({}): chunking speedup vs. local memory [% of working set]",
        "local frac | cycles (naive) | cycles (chunked) | speedup | fast guards (naive) | fast guards (chunked) | boundary checks",
        (|f| chunking(RunConfig::trackfm(f).with_prefetch(false), ChunkingMode::Off), chunked),
        |rn, rc| {
            let (naive, chunked) = (rn.result.stats, rc.result.stats);
            vec![n(naive.guards_fast), n(chunked.guards_fast), n(chunked.boundary_checks)]
        },
    );
    let paper =
        "paper: speedups ~1.5-2.0, higher for Copy (more accesses/loop), rising to the right.";
    noted(tables, paper)
}

fn check_fig07(c: &mut Check) {
    let (naive, chunked) = ("cycles (naive)", "cycles (chunked)");
    for kernel in [0, 1] {
        for f in c.tables[kernel].labels() {
            c.is((kernel, f, "fast guards (chunked)"), 0);
        }
        c.lt(1.5, (kernel, "1.00", chunked), (kernel, "1.00", naive));
    }
    // The speedup is higher at 100% local than at 10%, and higher for Copy
    // than for Sum.
    let speedup = |kernel, f| c.get((kernel, f, naive)) as f64 / c.get((kernel, f, chunked)) as f64;
    let [sum, copy] = [0, 1].map(|kernel| (speedup(kernel, "0.10"), speedup(kernel, "1.00")));
    let what = || format!("speedups at (10%, 100%) local: Sum {sum:?}, Copy {copy:?}");
    c.want(sum.0 < sum.1 && copy.0 < copy.1 && sum.1 < copy.1, what);
}

fn fig08(scale: usize) -> Vec<Table> {
    let points = scaled(30_000, scale);
    let defaults = kmeans::KmeansParams::default();
    let spec = kmeans::kmeans(&kmeans::KmeansParams { points, ..defaults });
    let profile = collect_profile(&spec);
    let row = |f| {
        let model = RunConfig::trackfm(f);
        let none = cycles(&execute(&spec, &chunking(model, ChunkingMode::Off)));
        let ra = execute(&spec, &chunking(model, ChunkingMode::AllLoops));
        let rm = execute_with_profile(&spec, &model, Some(&profile));
        let (all, kept) = (cycles(&ra), cycles(&rm));
        let guards = [ra, rm].map(|r| n(r.result.stats.locality_guards));
        let mut row = vec![
            t(f2(f)),
            n(none),
            n(all),
            n(kept),
            per(none, all),
            per(none, kept),
        ];
        row.extend(guards);
        row
    };
    let headers = "local frac | cycles (no chunking) | cycles (all loops) | cycles (model) | all loops | high-density only | loc guards (all) | loc guards (model)";
    let title = "Fig. 8: k-means speedup vs. no-chunking baseline";
    let tab = Table::new(title, headers, FRACTIONS.map(row).to_vec());
    let advantage = mean_ratio(&tab, "cycles (all loops)", "cycles (model)");
    vec![tab.note(format!("model-filtered vs. indiscriminate advantage: {advantage:.1}x mean (paper: ~4x slowdown undone, ~2.5x mean gain)"))]
}

fn check_fig08(c: &mut Check) {
    for f in c.tables[0].labels() {
        let at = |col| (0, f, col);
        c.lt(2.0, at("cycles (model)"), at("cycles (all loops)"));
        c.le(at("cycles (model)"), 1.0, at("cycles (no chunking)"));
        c.lt(1.0, at("loc guards (model)"), at("loc guards (all)"));
    }
}

// ------------------------------------------------------ Figs. 9-10: object size

/// `spec` under TrackFM at every (fraction, object size) of the sweep.
fn object_size_sweep(spec: &WorkloadSpec) -> Vec<Vec<Outcome>> {
    let run = |f, os| execute(spec, &RunConfig::trackfm(f).with_object_size(os));
    let sizes = |f| OBJECT_SIZES.map(|os| run(f, os)).to_vec();
    APP_FRACTIONS.map(sizes).to_vec()
}

/// Fraction x object size, one `cell` per run.
fn sweep_table(title: &str, runs: &[Vec<Outcome>], cell: impl Fn(&Outcome) -> Cell) -> Table {
    let fraction = |(f, sizes): (&f64, &Vec<Outcome>)| row(f2(*f), sizes.iter().map(&cell));
    let rows = APP_FRACTIONS.iter().zip(runs).map(fraction).collect();
    Table::new(title, "local frac | 4KB | 2KB | 1KB | 512B | 256B", rows)
}

/// The sweep's 25%-local row as its own table, one row per object size.
fn at_quarter(
    title: &str,
    headers: &str,
    runs: &[Vec<Outcome>],
    cells: impl Fn(&Outcome) -> Vec<Cell>,
) -> Table {
    let size = |(os, out)| row(format!("{os}B"), cells(out));
    let rows = OBJECT_SIZES.iter().zip(&runs[1]).map(size).collect();
    Table::new(title, headers, rows)
}

fn fig09(scale: usize) -> Vec<Table> {
    let runs = object_size_sweep(&zipf_hashmap(200_000, 500_000, scale));
    let lookups = scaled(500_000, scale) as f64;
    let mops = |o: &Outcome| t(format!("{:.3}", lookups / o.result.seconds_2_4ghz() / 1e6));
    let quarter = |o: &Outcome| {
        let bytes = o.result.bytes_transferred();
        vec![n(cycles(o)), n(bytes), mops(o), t(bytes >> 20)]
    };
    let cycles_title = "Fig. 9a: hashmap cycles vs. local memory, per object size";
    let mops_title = "Fig. 9a: hashmap throughput (MOps/s) vs. local memory, per object size";
    let headers = "object size | cycles | bytes transferred | MOps/s | MiB transferred";
    vec![
        sweep_table(cycles_title, &runs, |o| n(cycles(o))),
        sweep_table(mops_title, &runs, mops),
        at_quarter("Fig. 9b: hashmap throughput at 25% local memory", headers, &runs, quarter)
            .note("paper: smaller objects win under memory pressure (little spatial locality, 4B access granularity)."),
    ]
}

/// The end points, not every halving: cycles fall monotonically at full
/// scale, but at 1/16 the 512 B and 256 B runs are within the noise of the
/// hash layout.
fn check_fig09(c: &mut Check) {
    for col in ["cycles", "bytes transferred"] {
        c.lt(1.0, (2, "256B", col), (2, "4096B", col));
    }
}

fn fig10(scale: usize) -> Vec<Table> {
    let p = stream_params(scale);
    let runs = object_size_sweep(&stream::copy(&p));
    // STREAM copy moves 2 x 4 bytes per element.
    let bytes = (p.elems * 8) as f64;
    let mbs = |o: &Outcome| t(format!("{:.0}", bytes / o.result.seconds_2_4ghz() / 1e6));
    let quarter = |o: &Outcome| vec![n(cycles(o)), mbs(o), n(fetches(o))];
    let cycles_title = "Fig. 10a: STREAM copy cycles vs. local memory, per object size";
    let mbs_title = "Fig. 10a: STREAM copy bandwidth (MB/s) vs. local memory, per object size";
    let headers = "object size | cycles | MB/s | fetches";
    vec![
        sweep_table(cycles_title, &runs, |o| n(cycles(o))),
        sweep_table(mbs_title, &runs, mbs),
        at_quarter("Fig. 10b: STREAM copy bandwidth at 25% local memory", headers, &runs, quarter)
            .note("paper: 4KB objects win — perfect spatial locality amortizes per-message latency over more bytes."),
    ]
}

fn check_fig10(c: &mut Check) {
    c.rises(2, "cycles");
}

// ------------------------------------------- Figs. 11-12: prefetch, vs. Fastswap

fn fig11(scale: usize) -> Vec<Table> {
    let tables = stream_figure(
        scale,
        "Fig. 11 ({}): prefetch+chunking speedup over chunking alone",
        "local frac | cycles (chunking alone) | cycles (with prefetch) | speedup | prefetch hits | prefetch late | demand fetches (no pf)",
        (|f| RunConfig::trackfm(f).with_prefetch(false), RunConfig::trackfm),
        |alone, with_pf| {
            let (alone, with_pf) = (alone.result.runtime.unwrap(), with_pf.result.runtime.unwrap());
            vec![n(with_pf.prefetch_hits), n(with_pf.prefetch_late), n(alone.remote_fetches)]
        },
    );
    noted(
        tables,
        "paper: up to ~5x at low local memory, fading right as guard costs dominate.",
    )
}

fn check_fig11(c: &mut Check) {
    let (alone, with_pf) = ("cycles (chunking alone)", "cycles (with prefetch)");
    for kernel in [0, 1] {
        c.lt(1.8, (kernel, "0.20", with_pf), (kernel, "0.20", alone));
        let on_time = (kernel, "0.20", "prefetch hits");
        c.lt(1.0, (kernel, "0.20", "prefetch late"), on_time);
        c.is((kernel, "1.00", with_pf), c.get((kernel, "1.00", alone)));
    }
}

fn fig12(scale: usize) -> Vec<Table> {
    let tables = stream_figure(
        scale,
        "Fig. 12 ({}): TrackFM speedup over Fastswap",
        "local frac | cycles (Fastswap) | cycles (TrackFM) | speedup | fsw major faults | tfm fetches",
        (RunConfig::fastswap, RunConfig::trackfm),
        |fsw, tfm| vec![n(major_faults(fsw)), n(fetches(tfm))],
    );
    let with_mean = |tab: Table| {
        let mean = mean_ratio(&tab, "cycles (Fastswap)", "cycles (TrackFM)");
        tab.note(format!(
            "mean speedup: {mean:.2}x (paper: ~2.7x Sum, ~2.9x Copy)"
        ))
    };
    tables.into_iter().map(with_mean).collect()
}

/// At 80% local most of Copy's second array stays resident, which leaves
/// Fastswap few faults to lose on: 2.03x at full scale, 1.99x at 1/16.
fn check_fig12(c: &mut Check) {
    let (tfm, fsw) = ("cycles (TrackFM)", "cycles (Fastswap)");
    for kernel in [0, 1] {
        for f in ["0.10", "0.20", "0.40", "0.60"] {
            c.lt(2.0, (kernel, f, tfm), (kernel, f, fsw));
        }
        c.lt(1.0, (kernel, "0.80", tfm), (kernel, "0.80", fsw));
    }
}

// ---------------------------------------------------- Fig. 13: I/O amplification

fn fig13(scale: usize) -> Vec<Table> {
    // Keep the trace small relative to the table (paper: 190 MB trace vs.
    // 2 GB table, ~9%) so the table's access pattern dominates.
    let spec = zipf_hashmap(200_000, 100_000, scale);
    let ws = spec.working_set();
    let row = |f| {
        let tfm = execute(&spec, &RunConfig::trackfm(f).with_object_size(64)).result;
        let fsw = execute(&spec, &RunConfig::fastswap(f)).result;
        let mut row = vec![t(f2(f)), n(tfm.stats.cycles), n(fsw.stats.cycles)];
        row.extend([&tfm, &fsw].map(|r| n(r.transfers.unwrap().fetches)));
        row.extend([&tfm, &fsw].map(|r| n(r.bytes_transferred())));
        row.extend([&tfm, &fsw].map(|r| t(format!("{:.3}", r.seconds_2_4ghz()))));
        row.extend([&tfm, &fsw].map(|r| per(r.bytes_transferred(), ws)));
        row
    };
    let headers = "local frac | tfm cycles | fsw cycles | tfm fetches | fsw fetches | tfm bytes | fsw bytes | TrackFM 64B (s) | Fastswap (s) | tfm xWS | fsw xWS";
    let title =
        "Fig. 13: hashmap — execution time (s @2.4GHz) and data transferred (x working set)";
    let tab = Table::new(
        title,
        headers,
        [0.05, 0.1, 0.25, 0.5, 0.75, 1.0].map(row).to_vec(),
    );
    let total = |col| tab.col(col).iter().sum::<u64>();
    let mib = |col| total(col) as f64 / (1 << 20) as f64;
    let totals = format!(
        "sweep totals: TrackFM {} fetches / {:.1} MiB moved, Fastswap {} fetches / {:.1} MiB moved; working set {ws} bytes",
        total("tfm fetches"),
        mib("tfm bytes"),
        total("fsw fetches"),
        mib("fsw bytes"),
    );
    let speedup = mean_ratio(&tab, "fsw cycles", "tfm cycles");
    vec![tab
        .note(totals)
        .note(format!("mean TrackFM speedup over Fastswap: {speedup:.1}x (paper: ~12x; amplification 2.3x vs 43x)"))
        .note("the paper's 12x needs AIFM's concurrent fetches to hide per-miss latency; our single-threaded")
        .note("execution model pays full latency per miss on both systems, so the win shows up in bytes moved.")]
}

fn check_fig13(c: &mut Check) {
    for f in ["0.05", "0.10", "0.25", "0.50"] {
        c.lt(8.0, (0, f, "tfm bytes"), (0, f, "fsw bytes"));
        c.lt(1.0, (0, f, "tfm cycles"), (0, f, "fsw cycles"));
    }
}

// ----------------------------------------------------- Figs. 14-15: analytics

/// The analytics application, its profile and its local-only cycles.
fn analytics_app(scale: usize) -> (WorkloadSpec, Profile, u64) {
    let (rows, groups) = (scaled(200_000, scale), scaled(16_000, scale));
    let spec = analytics::analytics(&analytics::AnalyticsParams { rows, groups });
    let local = cycles(&execute(&spec, &RunConfig::local()));
    let profile = collect_profile(&spec);
    (spec, profile, local)
}

fn fig14(scale: usize) -> Vec<Table> {
    let (spec, profile, base) = analytics_app(scale);
    let (mut rows_a, mut rows_b) = (Vec::new(), Vec::new());
    let mut gap = f64::MIN;
    for f in APP_FRACTIONS {
        let tfm = execute_with_profile(&spec, &RunConfig::trackfm(f), Some(&profile));
        let fsw = execute(&spec, &RunConfig::fastswap(f));
        let aifm = execute_with_profile(&spec, &RunConfig::aifm(f), Some(&profile));
        let (ct, cf, ca) = (cycles(&tfm), cycles(&fsw), cycles(&aifm));
        if f <= 0.5 {
            gap = gap.max(ct as f64 / ca as f64 - 1.0);
        }
        let budget = n(spec.local_budget(f, 4096));
        let mut row = vec![t(f2(f)), budget.clone(), n(base), n(ct), n(cf), n(ca)];
        row.extend([ct, cf, ca].map(|c| per(c, base)));
        rows_a.push(row);
        let slow_guards = n(tfm.result.stats.slow_guards());
        rows_b.push(vec![t(f2(f)), budget, slow_guards, n(major_faults(&fsw))]);
    }
    let headers = "local frac | local budget (bytes) | cycles (local-only) | cycles (TrackFM) | cycles (Fastswap) | cycles (AIFM) | TrackFM | Fastswap | AIFM";
    let gap = format!(
        "TrackFM vs. AIFM gap under memory constraint (<=50% local): {:.1}% (paper: within 10%)",
        gap * 100.0
    );
    vec![
        Table::new(
            "Fig. 14a: analytics slowdown vs. local-only",
            headers,
            rows_a,
        )
        .note(gap),
        Table::new(
            "Fig. 14b: slow-path guard events vs. major page faults (both imply remote ops)",
            "local frac | local budget (bytes) | TrackFM slow guards | Fastswap major faults",
            rows_b,
        ),
    ]
}

/// Whether the budget in `row` of table 0 holds seven chunk streams, as
/// analytics and CG run (`sec46`'s streams column), each pinning its object
/// and prefetching up to 8 ahead. Both have one row whose budget does so at
/// full scale and not below it; a direction is claimed for it where they
/// fit. Where they do not, the look-ahead of seven streams overruns the
/// budget (ROADMAP item 3): the row no longer thrashes, but its order is
/// off. At 1/8 size analytics at 10% local reads TrackFM 13 070 792 cycles,
/// above Fastswap's 11 500 754 and below AIFM's 13 866 869 (fig14), and the
/// model's chunking loses to none (fig15). CG's row holds at 1/8 and fails
/// at 1/16: TrackFM 12 406 276 against Fastswap's 8 472 058.
fn streams_fit(c: &Check, row: &str) -> bool {
    c.get((0, row, "local budget (bytes)")) >= 7 * (1 + 8) * 4096
}

/// The rows of an analytics table its claim is about.
fn analytics_rows(c: &Check) -> Vec<&'static str> {
    let rows = ["0.10", "0.25", "0.50", "0.75", "1.00"];
    rows[!streams_fit(c, "0.10") as usize..].to_vec()
}

/// Paper: within 10% of AIFM. The custody + guard delta amortizes with the
/// working set: 17.5% at full scale, more below, so the bound is the one the
/// smallest run meets.
fn check_fig14(c: &mut Check) {
    let [tfm, fsw, aifm] = ["cycles (TrackFM)", "cycles (Fastswap)", "cycles (AIFM)"];
    let (guards, faults) = ("TrackFM slow guards", "Fastswap major faults");
    for f in analytics_rows(c) {
        c.lt(1.0, (0, f, tfm), (0, f, fsw));
        c.le((0, f, aifm), 1.0, (0, f, tfm));
        c.le((0, f, tfm), 1.35, (0, f, aifm));
        c.lt(1.0, (1, f, guards), (1, f, faults));
    }
}

fn fig15(scale: usize) -> Vec<Table> {
    let (spec, profile, base) = analytics_app(scale);
    let row = |f| {
        let model = RunConfig::trackfm(f);
        let off = cycles(&execute(&spec, &chunking(model, ChunkingMode::Off)));
        let all = cycles(&execute(&spec, &chunking(model, ChunkingMode::AllLoops)));
        let r_model = execute_with_profile(&spec, &model, Some(&profile));
        let filtered = r_model
            .report
            .as_ref()
            .unwrap()
            .chunking
            .skipped_low_benefit;
        let kept = cycles(&r_model);
        let budget = n(spec.local_budget(f, 4096));
        let mut row = vec![t(f2(f)), budget, n(base), n(off), n(all), n(kept)];
        row.extend([off, all, kept].map(|c| per(c, base)));
        row.push(n(filtered));
        row
    };
    let headers = "local frac | local budget (bytes) | cycles (local-only) | cycles (no chunk) | cycles (all loops) | cycles (model) | baseline (no chunk) | all loops | high-density only | streams filtered";
    let title = "Fig. 15: analytics slowdown vs. local-only, by chunking policy";
    vec![Table::new(title, headers, APP_FRACTIONS.map(row).to_vec()).note(
        "paper: 'all loops' is clearly worse; the filtered variant tracks (or beats) the baseline.",
    )]
}

fn check_fig15(c: &mut Check) {
    let [model, off, all] = ["cycles (model)", "cycles (no chunk)", "cycles (all loops)"];
    for f in analytics_rows(c) {
        c.lt(1.0, (0, f, model), (0, f, off));
        c.lt(1.0, (0, f, off), (0, f, all));
        c.is((0, f, "streams filtered"), 2);
    }
}

// ------------------------------------------------------------ Fig. 16: memcached

fn fig16(scale: usize) -> Vec<Table> {
    let (keys, gets) = (scaled(100_000, scale), scaled(300_000, scale));
    let kops = |o: &Outcome| {
        t(format!(
            "{:.1}",
            gets as f64 / o.result.seconds_2_4ghz() / 1e3
        ))
    };
    let (mut rows_a, mut rows_b, mut rows_c) = (Vec::new(), Vec::new(), Vec::new());
    for skew in [1.01, 1.05, 1.1, 1.2, 1.3] {
        let defaults = memcached::MemcachedParams::default();
        let params = memcached::MemcachedParams {
            keys,
            gets,
            skew,
            ..defaults
        };
        let spec = memcached::memcached(&params);
        // Paper: 12 GB working set, 1 GB local: ~8% local.
        let tfm = execute(&spec, &RunConfig::trackfm(0.085).with_object_size(64));
        let fsw = execute(&spec, &RunConfig::fastswap(0.085));
        let loc = execute(&spec, &RunConfig::local());
        let skew = t(f2(skew));
        let mut row = vec![
            skew.clone(),
            n(cycles(&tfm)),
            n(cycles(&fsw)),
            n(cycles(&loc)),
        ];
        row.extend([&tfm, &fsw, &loc].map(kops));
        rows_a.push(row);
        let guards = n(tfm.result.stats.total_guards());
        rows_b.push(vec![skew.clone(), guards, n(major_faults(&fsw))]);
        let ws = spec.working_set();
        let (bt, bf) = (
            tfm.result.bytes_transferred(),
            fsw.result.bytes_transferred(),
        );
        rows_c.push(vec![skew, n(ws), n(bt), n(bf), per(bt, ws), per(bf, ws)]);
    }
    vec![
        Table::new(
            "Fig. 16a: memcached get throughput (KOps/s) vs. Zipf skew",
            "skew | cycles (TrackFM 64B) | cycles (Fastswap) | cycles (all local) | TrackFM 64B | Fastswap | all local",
            rows_a,
        ),
        Table::new(
            "Fig. 16b: guard events vs. major faults",
            "skew | TrackFM guards | Fastswap major faults",
            rows_b,
        ),
        Table::new(
            "Fig. 16c: data transferred (x working set)",
            "skew | working set (bytes) | bytes (TrackFM) | bytes (Fastswap) | TrackFM | Fastswap",
            rows_c,
        )
        .note("paper: TrackFM ~1.7x at skew <= 1.04 falling to ~1.3x; Fastswap amplification 66x vs TrackFM 15x."),
    ]
}

/// 3.5x at full scale; 1.95x at 1/16, where each key sees too few gets for
/// repeat hits to amortize as much.
fn check_fig16(c: &mut Check) {
    let (fsw, tfm) = ("cycles (Fastswap)", "cycles (TrackFM 64B)");
    c.lt(1.5, (0, "1.30", fsw), (0, "1.01", fsw));
    c.falls(1, "Fastswap major faults");
    c.lt(1.0, (0, "1.01", tfm), (0, "1.01", fsw));
    let (tfm, fsw) = ("bytes (TrackFM)", "bytes (Fastswap)");
    c.lt(4.0, (2, "1.01", tfm), (2, "1.01", fsw));
}

// ------------------------------------------------------------------ Fig. 17: NAS

fn fig17(scale: usize) -> Vec<Table> {
    // CG's 30 000 rows are the first NAS dimension a divisor drives to 0.
    scaled(30_000, scale);
    let geomean = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
    let (mut rows_a, mut rows_b) = (Vec::new(), Vec::new());
    let (mut fsw_ratios, mut tfm_ratios) = (Vec::new(), Vec::new());
    for spec in nas::all(&nas::NasParams { shrink: scale }) {
        let name = |prefix| spec.name.starts_with(prefix);
        let profile = collect_profile(&spec);
        let base = cycles(&execute(&spec, &RunConfig::local()));
        let fsw = execute(&spec, &RunConfig::fastswap(0.25));
        // Per-application object size, as Sec. 3.2 allows ("the choice of
        // object size is currently selected by us"): IS keeps 1024 scattered
        // bucket write heads live, so sub-page objects fit them all locally.
        let object_size = if name("nas-is") { 512 } else { 4096 };
        let cfg = RunConfig::trackfm(0.25).with_object_size(object_size);
        let tfm = execute_with_profile(&spec, &cfg, Some(&profile));
        let (cf, ct) = (cycles(&fsw), cycles(&tfm));
        fsw_ratios.push(cf as f64 / base as f64);
        tfm_ratios.push(ct as f64 / base as f64);
        let budget = n(spec.local_budget(0.25, object_size));
        let mut row = vec![t(&spec.name), budget, n(base), n(cf), n(ct)];
        row.extend([per(cf, base), per(ct, base)]);
        row.extend([n(tfm.result.stats.total_guards()), n(major_faults(&fsw))]);
        rows_a.push(row);
        // (b): FT and SP again, with the O1 pre-pipeline.
        if name("nas-ft") || name("nas-sp") {
            let mut o1 = cfg;
            o1.compiler.o1 = true;
            let tfm_o1 = execute_with_profile(&spec, &o1, Some(&profile));
            let (loads, loads_o1) = (tfm.result.stats.loads, tfm_o1.result.stats.loads);
            let reduction = t(format!("{:.1}x", loads as f64 / loads_o1 as f64));
            let c1 = cycles(&tfm_o1);
            let mut row = vec![
                t(&spec.name),
                n(c1),
                per(cf, base),
                per(ct, base),
                per(c1, base),
            ];
            row.extend([n(loads), n(loads_o1), reduction]);
            rows_b.push(row);
        }
    }
    let mut means = vec![t("GeoMean"); 9];
    means[1..].fill(t(""));
    (means[5], means[6]) = (t(f2(geomean(&fsw_ratios))), t(f2(geomean(&tfm_ratios))));
    rows_a.push(means);
    vec![
        Table::new(
            "Fig. 17a: NAS slowdown vs. local-only at 25% local memory",
            "kernel | local budget (bytes) | cycles (local-only) | cycles (Fastswap) | cycles (TrackFM) | Fastswap | TrackFM | tfm guards | fsw faults",
            rows_a,
        ),
        Table::new(
            "Fig. 17b: FT/SP slowdown — Fastswap vs. TFM vs. TFM/O1",
            "kernel | cycles (TFM/O1) | FSwap | TFM | TFM/O1 | loads (TFM) | loads (TFM/O1) | load reduction",
            rows_b,
        )
        .note("FSwap and TFM are Fig. 17a's runs of the same kernels.")
        .note("paper: O1 cut FT memory instructions 6x and SP 4x, dramatically reducing guard overheads."),
    ]
}

/// FT is the paper's outlier: its temporal reuse amortizes Fastswap's faults
/// while its indices defeat the loop analysis.
fn check_fig17(c: &mut Check) {
    let kernels = c.tables[0].labels();
    let kernel = |name| *kernels.iter().find(|k| k.starts_with(name)).unwrap();
    let [cg, ft, is, mg, sp] = ["nas-cg", "nas-ft", "nas-is", "nas-mg", "nas-sp"].map(kernel);
    for k in [cg, is, mg, sp] {
        if k != cg || streams_fit(c, cg) {
            c.lt(1.0, (0, k, "cycles (TrackFM)"), (0, k, "cycles (Fastswap)"));
        }
    }
    for k in [ft, sp] {
        c.lt(1.0, (1, k, "cycles (TFM/O1)"), (0, k, "cycles (TrackFM)"));
        c.lt(1.0, (1, k, "loads (TFM/O1)"), (1, k, "loads (TFM)"));
    }
}

// ------------------------------------------------- Sec. 4.6: compilation costs

fn sec46(scale: usize) -> Vec<Table> {
    let hashmap_params = hashmap::HashmapParams::default();
    let memcached_params = memcached::MemcachedParams::default();
    let specs = [
        stream::sum(&stream_params(scale)),
        stream::copy(&stream_params(scale)),
        kmeans::kmeans(&Default::default()),
        hashmap::hashmap(&hashmap::HashmapParams {
            keys: 50_000,
            lookups: 1,
            ..hashmap_params
        }),
        analytics::analytics(&analytics::AnalyticsParams {
            rows: 10_000,
            groups: 1_000,
        }),
        memcached::memcached(&memcached::MemcachedParams {
            keys: 10_000,
            gets: 1,
            ..memcached_params
        }),
    ];
    let mut rows = Vec::new();
    let (mut growth, mut host_time, mut host_times) = (0.0, 0.0, Vec::new());
    for spec in specs
        .into_iter()
        .chain(nas::all(&nas::NasParams { shrink: 10 }))
    {
        // The stock compile the paper measures against: the O1 pipeline alone.
        let (mut stock, started) = (spec.module.clone(), Instant::now());
        trackfm::passes::o1::run(&mut stock);
        let stock_nanos = started.elapsed().as_nanos().max(1);
        let mut module = spec.module.clone();
        let report = TrackFmCompiler::new(CompilerOptions::default()).compile(&mut module, None);
        let time_vs_o1 = report.total_nanos() as f64 / stock_nanos as f64;
        host_times.push(format!("{} {time_vs_o1:.2}", spec.name));
        host_time += time_vs_o1;
        growth += report.code_size_ratio();
        let (before, after) = (n(report.insts_before), n(report.insts_after));
        let mut row = vec![
            t(&spec.name),
            before,
            after,
            t(f2(report.code_size_ratio())),
        ];
        row.extend([n(report.total_guards()), n(report.chunking.streams)]);
        rows.push(row);
    }
    // Host time differs from run to run: stderr, so stdout and the golden
    // block stay reproducible.
    let (mean, each) = (host_time / rows.len() as f64, host_times.join(", "));
    eprintln!("sec46: time vs O1: {each}; mean compile-time ratio: {mean:.1}x (paper: <6x)");
    let mean = t(f2(growth / rows.len() as f64));
    rows.push(vec![t("mean"), t(""), t(""), mean, t(""), t("")]);
    let headers = "workload | insts before | insts after | size ratio | guards | streams";
    vec![Table::new("Sec. 4.6: compilation costs", headers, rows)
        .note("paper: code grows 2.4x on average (their guards expand to ~14 x86 instructions inline; ours is one IR intrinsic).")
        .note("compile time is host time: `tfm-perf`'s `compile_corpus` workload measures it.")]
}

fn check_sec46(c: &mut Check) {
    let (before, after) = ("insts before", "insts after");
    for workload in c.tables[0].labels() {
        if workload != "mean" {
            c.lt(1.0, (0, workload, before), (0, workload, after));
            c.le((0, workload, after), 2.4, (0, workload, before));
        }
    }
}

// -------------------------------------------------------------------- Ablations

/// The STREAM sum and the Zipf hashmap the ablations and the hybrid run on.
fn ablation_specs(scale: usize) -> (WorkloadSpec, WorkloadSpec) {
    let elems = scaled(1 << 20, scale);
    let stream = stream::sum(&stream::StreamParams { elems });
    (stream, zipf_hashmap(100_000, 200_000, scale))
}

fn ablations(scale: usize) -> Vec<Table> {
    let (stream_spec, map_spec) = ablation_specs(scale);
    let budget = stream_spec.local_budget(0.1, 4096);

    // 1. How far ahead the stride prefetcher runs.
    let depth_row = |depth| {
        let mut cfg = RunConfig::trackfm(0.1);
        cfg.prefetch_depth = depth;
        let out = execute(&stream_spec, &cfg);
        let late = out.result.runtime.unwrap().prefetch_late;
        let stalls = out.result.stats.stall_cycles;
        vec![t(depth), n(budget), n(cycles(&out)), n(late), n(stalls)]
    };

    // 2. Who issues prefetches: nobody, the runtime's stride detector alone
    // (no chunk-stream prefetch flags), or detector + compiler streams.
    let mut detector_only = RunConfig::trackfm(0.1);
    detector_only.compiler.prefetch = false;
    let who_row = |(name, cfg): (&str, RunConfig)| {
        let out = execute(&stream_spec, &cfg);
        let hits = out.result.runtime.unwrap().prefetch_hits;
        vec![t(name), n(budget), n(cycles(&out)), n(hits)]
    };
    let who = [
        (
            "no prefetching",
            RunConfig::trackfm(0.1).with_prefetch(false),
        ),
        ("runtime stride detector only", detector_only),
        ("runtime + compiler streams", RunConfig::trackfm(0.1)),
    ];

    // 3. The Sec. 3.2 object state table replaces AIFM's two-reference
    // metadata walk with one indexed load: without it every fast guard pays
    // one more memory reference. Fully local, so guard CPU cost (not network
    // stall) is on display.
    let table_row = |(name, spec): (&str, &WorkloadSpec)| {
        let with_table = RunConfig::trackfm(1.0);
        let mut without = with_table;
        without.cost.guard_fast_read += without.cost.load_store;
        without.cost.guard_fast_write += without.cost.load_store;
        without.compiler.cost_model = without.cost;
        let [with_table, without] = [with_table, without].map(|cfg| cycles(&execute(spec, &cfg)));
        vec![t(name), n(with_table), n(without), per(without, with_table)]
    };
    let on = [
        ("hashmap (guard-heavy)", &map_spec),
        ("stream (chunked)", &stream_spec),
    ];

    // 4. How the Eq. 3 crossover moves with the locality-guard cost.
    let crossover = |locality_guard| {
        let cost = CostModel {
            locality_guard,
            ..Default::default()
        };
        vec![
            t(locality_guard),
            n(cost.density_threshold().round() as u64),
        ]
    };

    vec![
        Table::new(
            "Ablation 1: prefetch look-ahead depth (STREAM sum, 10% local)",
            "depth | local budget (bytes) | cycles | late prefetches | stall cycles",
            [1u32, 2, 4, 8, 16, 32].map(depth_row).to_vec(),
        ),
        Table::new(
            "Ablation 2: who issues prefetches (STREAM sum, 10% local)",
            "configuration | local budget (bytes) | cycles | prefetch hits",
            who.map(who_row).to_vec(),
        ),
        Table::new(
            "Ablation 3: object state table (§3.2) vs. AIFM's two-reference metadata",
            "workload | with table | without | slowdown without",
            on.map(table_row).to_vec(),
        ),
        Table::new(
            "Ablation 4: locality-guard cost c_l vs. predicted chunking crossover d*",
            "c_l (cycles) | d* (elems/object)",
            [300u64, 800, 1500, 4000, 8000].map(crossover).to_vec(),
        )
        .note("the paper's empirical crossover (~730) corresponds to c_l ≈ 13K on our constants;")
        .note("our default c_l = 1500 puts d* = 76. Either way Eq. 3 predicts the break-even."),
    ]
}

fn check_ablations(c: &mut Check) {
    let depth = |d| (0, d, "cycles");
    c.lt(1.5, depth("2"), depth("1"));
    c.le(depth("2"), 1.05, depth("32"));
    let [nobody, detector, both] = [
        "no prefetching",
        "runtime stride detector only",
        "runtime + compiler streams",
    ]
    .map(|who| (1, who, "cycles"));
    c.lt(2.0, detector, nobody);
    c.le(both, 1.0, detector);
    // The compiler's streams save the detector's warm-up, 81 280 cycles at
    // any size: 0.4% of the full-scale run, 3.4% of the 1/8-size one.
    c.le(detector, 1.05, both);
    let (map, stream) = ("hashmap (guard-heavy)", "stream (chunked)");
    c.lt(1.05, (2, map, "with table"), (2, map, "without"));
    c.is((2, stream, "without"), c.get((2, stream, "with table")));
    c.rises(3, "d* (elems/object)");
}

// ---------------------------------------------------------------- Sec. 5 lessons

fn sec5a(scale: usize) -> Vec<Table> {
    // High skew, and at 70% a budget big enough for the hot set.
    let (keys, gets) = (scaled(32_000, scale), scaled(320_000, scale));
    let params = memcached::MemcachedParams {
        keys,
        gets,
        skew: 1.4,
        seed: 9,
    };
    let spec = memcached::memcached(&params);
    let budgets = [
        ("Fastswap, 20% local", RunConfig::fastswap(0.2)),
        ("Fastswap, 70% local", RunConfig::fastswap(0.7)),
        ("all local", RunConfig::local()),
    ];
    let runs = budgets.map(|(label, cfg)| (label, execute(&spec, &cfg)));
    let local = cycles(&runs[2].1);
    let budget = |(label, out): &(&str, Outcome)| {
        let (cycles, faults) = (cycles(out), major_faults(out));
        vec![t(label), n(cycles), n(faults), per(cycles, local)]
    };
    let headers = "budget | cycles | major faults | slowdown vs. local";
    let title = "Sec. 5: Fastswap on memcached at Zipf skew 1.4";
    vec![Table::new(
        title,
        headers,
        runs.iter().map(budget).collect(),
    )]
}

fn check_sec5a(c: &mut Check) {
    let [tight, roomy, local] =
        ["Fastswap, 20% local", "Fastswap, 70% local", "all local"].map(|b| (0, b, "cycles"));
    c.le(roomy, 3.5, local);
    c.lt(1.0, roomy, tight);
}

fn sec5b(scale: usize) -> Vec<Table> {
    let (stream_spec, map_spec) = ablation_specs(scale);
    let fraction = |f| {
        let systems = [
            RunConfig::fastswap(f),
            RunConfig::trackfm(f),
            RunConfig::hybrid(f),
        ];
        row(
            f2(f),
            systems.map(|cfg| n(cycles(&execute(&map_spec, &cfg)))),
        )
    };
    // Static guards of the binaries run at 50% local; the runner checks each
    // run's result, so a row also says the guard-free binary kept its
    // semantics.
    let guard_row = |spec: &WorkloadSpec| {
        let builds = [RunConfig::trackfm(0.5), RunConfig::hybrid(0.5)];
        let guards = |cfg| n(execute(spec, &cfg).report.unwrap().total_guards());
        row(&spec.name, builds.map(guards))
    };
    vec![
        Table::new(
            "Ablation 5: hybrid compiler+kernel (§5) on the Zipf hashmap (cycles)",
            "local frac | Fastswap | TrackFM | Hybrid",
            [0.1, 0.25, 0.5, 1.0].map(fraction).to_vec(),
        )
        .note("hybrid = chunk streams + guard-free raw accesses with 1.3K-cycle faults on miss:")
        .note(
            "it wins where residency is high (no guard tax), and leans on prefetch like TrackFM.",
        ),
        Table::new(
            "Sec. 5: static guards in the compiled binary",
            "workload | TrackFM guards | Hybrid guards",
            [&stream_spec, &map_spec].map(guard_row).to_vec(),
        ),
    ]
}

fn check_sec5b(c: &mut Check) {
    c.lt(1.0, (0, "1.00", "Hybrid"), (0, "1.00", "TrackFM"));
    for workload in c.tables[1].labels() {
        c.is((1, workload, "Hybrid guards"), 0);
    }
}

// ------------------------------------------- Beyond the paper: this repository's

fn guard_opt(scale: usize) -> Vec<Table> {
    let s = |full| scaled(full, scale);
    let (ops, shrink) = (s(1 << 16), 25 * scale);
    let sp = stream::StreamParams { elems: s(1 << 20) };
    let (keys, gets, rows, groups, points) = (s(20_000), s(60_000), s(100_000), s(8_000), s(4_000));
    let (quarter, small) = (RunConfig::trackfm(0.25), |f| {
        RunConfig::trackfm(f).with_object_size(64)
    });
    // Each workload at its usual budget.
    let mut workloads = vec![
        (
            "serving",
            serving::serving(&serving::ServingParams {
                ops,
                buckets: 256,
                seed: 42,
            }),
            small(0.25),
        ),
        ("quickstart(stream-sum)", stream::sum(&sp), quarter),
        ("stream-copy", stream::copy(&sp), quarter),
        ("stream-triad", stream::triad(&sp), quarter),
        (
            "stream-strided",
            stream::strided_sum(s(1 << 16), 64),
            quarter,
        ),
        (
            "hashmap",
            zipf_hashmap(100_000, 200_000, scale),
            small(0.25),
        ),
        (
            "kv_store(memcached)",
            memcached::memcached(&memcached::MemcachedParams {
                keys,
                gets,
                skew: 1.05,
                seed: 99,
            }),
            small(0.10),
        ),
        (
            "analytics",
            analytics::analytics(&analytics::AnalyticsParams { rows, groups }),
            quarter,
        ),
        (
            "kmeans",
            kmeans::kmeans(&kmeans::KmeansParams {
                points,
                dims: 8,
                k: 4,
                iters: 2,
            }),
            quarter,
        ),
    ];
    let kernels = ["nas-cg", "nas-ft", "nas-is", "nas-mg", "nas-sp"];
    let nas = nas::all(&nas::NasParams { shrink });
    workloads.extend(
        kernels
            .into_iter()
            .zip(nas)
            .map(|(name, spec)| (name, spec, quarter)),
    );
    let runs: Vec<_> = workloads
        .iter()
        .map(|(name, spec, base)| {
            let runs = [GuardOpt::None, GuardOpt::Local].map(|level| {
                let mut cfg = *base;
                cfg.compiler.guard_opt = level;
                execute(spec, &cfg)
            });
            (*name, runs)
        })
        .collect();
    // Static guard sites that survive the level.
    let guards = |o: &Outcome| {
        let rep = o.report.as_ref().unwrap();
        n(rep.total_guards() - rep.elision.eliminated)
    };
    let rows = runs.iter().map(|(name, [none, local])| {
        let (c_none, c_local) = (cycles(none) as f64, cycles(local) as f64);
        let saved = t(format!("{:.2}%", 100.0 * (c_none - c_local) / c_none));
        let cells = [
            guards(none),
            guards(local),
            n(cycles(none)),
            n(cycles(local)),
        ];
        row(name, cells.into_iter().chain([saved]))
    });
    let headers =
        "workload | guards (None) | guards (Local) | cycles (None) | cycles (Local) | saved";
    let title = "Guard removal: surviving static guard sites and cycles per level";
    // The one row where removing guards adds cycles (at full scale only).
    let (_, nas_is) = runs.iter().find(|(name, _)| *name == "nas-is").unwrap();
    let levels = ["None", "Local"].into_iter().zip(nas_is).map(|(level, o)| {
        let (stats, rt) = (&o.result.stats, o.result.runtime.unwrap());
        let cells = [
            stats.guards_fast,
            rt.evictions,
            rt.prefetch_issued,
            rt.prefetch_hits,
        ];
        row(level, cells.into_iter().map(n).chain([n(cycles(o))]))
    });
    let is_headers = "level | fast guards | evictions | prefetches issued | prefetch hits | cycles";
    vec![
        Table::new(title, headers, rows.collect())
            .note("guards = static sites left after elision; saved = None -> Local."),
        Table::new(
            "nas-is: fast guards and runtime counters per level",
            is_headers,
            levels.collect(),
        ),
    ]
}

fn check_guard_opt(c: &mut Check) {
    let [none, local] = ["cycles (None)", "cycles (Local)"];
    for workload in c.tables[0].labels() {
        c.le(
            (0, workload, "guards (Local)"),
            1.0,
            (0, workload, "guards (None)"),
        );
        if workload != "nas-is" {
            c.le((0, workload, local), 1.0, (0, workload, none));
        }
    }
    // nas-is runs fewer fast guards at Local; where it still takes more
    // cycles (full scale), evictions rose.
    c.lt(1.0, (1, "Local", "fast guards"), (1, "None", "fast guards"));
    if c.get((1, "Local", "cycles")) > c.get((1, "None", "cycles")) {
        c.lt(1.0, (1, "None", "evictions"), (1, "Local", "evictions"));
    }
}

fn shards(scale: usize) -> Vec<Table> {
    let spec = stream::sum(&stream_params(scale));
    let cfg = RunConfig::trackfm(0.25);
    let runs = [1u32, 2, 4, 8].map(|shards| (shards, execute(&spec, &cfg.with_shards(shards))));
    let one_node = cycles(&runs[0].1);
    let rows = runs.iter().map(|(shards, out)| {
        let (result, cycles) = (&out.result, cycles(out));
        let tx = result.transfers.unwrap();
        // Wire-busy cycles summed over the shards: the bandwidth term of every
        // completed attempt (the fabric is flawless, so of the delivered bytes).
        let busy = LinkParams::tcp_25g().occupancy(tx.total_bytes() + tx.fault_wasted_bytes);
        // Most fetches on one shard over the mean (one node keeps no per-shard
        // ledger): 1.00 is perfectly even.
        let most = result.shards.iter().map(|s| s.stats.fetches).max();
        let balance = most.unwrap_or(tx.fetches) * u64::from(*shards);
        let cells = [
            n(cycles),
            per(one_node, cycles),
            n(result.stats.stall_cycles),
            n(busy),
            n(busy / u64::from(*shards)),
            per(balance, tx.fetches),
        ];
        row(shards, cells)
    });
    let headers = "shards | cycles | speedup | stall cycles | aggregate occ | occ/shard | balance";
    let title =
        "Shard scaling (STREAM sum, 25% local): aggregate vs. per-shard bandwidth occupancy";
    let note =
        "occ = cycles a wire is busy moving bytes; balance = most fetches on one shard / mean.";
    vec![Table::new(title, headers, rows.collect()).note(note)]
}

fn check_shards(c: &mut Check) {
    let counts = c.tables[0].labels();
    for pair in counts.windows(2) {
        c.is(
            (0, pair[1], "aggregate occ"),
            c.get((0, pair[0], "aggregate occ")),
        );
        c.le((0, pair[1], "cycles"), 1.0, (0, pair[0], "cycles"));
    }
    c.falls(0, "occ/shard");
}

fn failover(scale: usize) -> Vec<Table> {
    let elems = scaled(256 << 10, scale);
    let spec = stream::sum(&stream::StreamParams { elems });
    let on = |backend| execute(&spec, &RunConfig::trackfm(0.25).with_backend(backend));
    let four = BackendSpec::sharded(4);
    let mirrored = four.with_replicas(2);
    let unreplicated = on(four);
    // Shard 1 goes down cold an eighth into the unreplicated run's length and
    // restarts empty at half of it.
    let clean = cycles(&unreplicated);
    let crash = FaultPlan::none().with_cold_crash(clean / 8, clean / 2);
    let crash = RunConfig::trackfm(0.25)
        .with_backend(mirrored.with_fault_shard(1))
        .with_faults(crash);
    let runs = [
        ("single_node", on(BackendSpec::single())),
        ("sharded4_r1", unreplicated),
        ("sharded4_r2", on(mirrored)),
        ("sharded4_r2_crash", execute(&spec, &crash)),
    ];
    let rows = runs.iter().map(|(name, out)| {
        let (tx, rt) = (out.result.transfers.unwrap(), out.result.runtime.unwrap());
        let cells = [
            n(out.result.ret),
            n(cycles(out)),
            n(tx.bytes_written_back >> 10),
            n(rt.shard_downs),
            n(rt.shard_recoveries),
            n(rt.resynced_objects),
            n(rt.re_replications),
            n(rt.lost_objects),
        ];
        row(name, cells)
    });
    let headers = "configuration | result | cycles | writeback KiB | downs | recoveries | resynced | re-replicated | lost";
    let title =
        "Crash failover (STREAM sum, 25% local, 4 shards): mirrored writebacks and a cold crash";
    vec![Table::new(title, headers, rows.collect())]
}

fn check_failover(c: &mut Check) {
    let result = c.get((0, "single_node", "result"));
    c.is((0, "sharded4_r2", "result"), result);
    c.is((0, "sharded4_r2_crash", "result"), result);
    c.is((0, "sharded4_r2_crash", "lost"), 0);
    let rejoined = c.get((0, "sharded4_r2_crash", "recoveries"));
    c.want(rejoined >= 1, || {
        format!("want [sharded4_r2_crash / recoveries] >= 1, got {rejoined}")
    });
}

fn cores(scale: usize) -> Vec<Table> {
    // Miss-heavy small-object serving: a 10% local budget with prefetching
    // off makes most gets issue a wire fetch, the regime where splitting
    // issue from completion pays.
    let (keys, requests) = (scaled(20_000, scale), scaled(30_000, scale));
    let ol = open_loop(&OpenLoopParams {
        keys,
        requests,
        skew: 1.05,
        seed: 17,
        mean_gap_cycles: 100,
    });
    let cfg = RunConfig::trackfm(0.1)
        .with_object_size(64)
        .with_prefetch(false);
    let runs = [1u32, 2, 4, 8].map(|cores| (cores, execute_open_loop(&ol, &cfg.with_cores(cores))));
    let one_core = runs[0].1.makespan;
    let rows = runs.iter().map(|(cores, run)| {
        let (latency, rt) = (&run.latency, run.outcome.result.runtime.unwrap());
        let cells = [
            n(run.makespan),
            per(one_core, run.makespan),
            n(latency.p50()),
            n(latency.p90()),
            n(latency.p99()),
            n(rt.fetch_joins),
        ];
        row(cores, cells)
    });
    let headers = "cores | makespan | speedup | p50 | p90 | p99 | fetch joins";
    let title = format!("Request concurrency: {requests} open-loop Zipf(1.05) gets over {keys} keys, 10% local, one arrival per ~100 cycles");
    vec![Table::new(title, headers, rows.collect())
        .note("latency percentiles (cycles from arrival) are the run report's `request_latency_cycles` histogram, log2-bucketed.")]
}

fn check_cores(c: &mut Check) {
    c.le((0, "8", "makespan"), 0.25, (0, "1", "makespan"));
}
