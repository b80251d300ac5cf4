//! The central correctness property of a far-memory compiler: the
//! transformed program, on any memory system, at any object size, under any
//! memory pressure, computes exactly what the original program computes.
//!
//! Each workload spec carries a host-computed `expected` checksum; the
//! runner asserts it on every execution, so these tests "only" need to
//! exercise the configuration space. Each test is a table of [`Row`]s;
//! the property-based ones draw their rows' parameters from a seeded RNG.

pub mod common;

use common::{suite, Size};
use trackfm_suite::analysis::profile::Profile;
use trackfm_suite::compiler::ChunkingMode;
use trackfm_suite::sim::{LocalMem, Machine};
use trackfm_suite::workloads::openloop::{self, OpenLoopParams};
use trackfm_suite::workloads::runner::{
    self, collect_profile, execute_with_profile, Calls, Outcome, RunConfig, SystemKind,
};
use trackfm_suite::workloads::spec::{ArgSpec, WorkloadSpec};
use trackfm_suite::workloads::{hashmap, kmeans, stream, SplitMix64};

/// One row: `spec` must compute its host checksum on every configuration
/// `systems(frac, object_size)` returns.
struct Row {
    spec: WorkloadSpec,
    systems: fn(f64, u64) -> Vec<RunConfig>,
    frac: f64,
    object_size: u64,
}

impl Row {
    /// Runs the row, compiling against `profile` if one is given (the
    /// profile-guided chunking filter). [`execute_sanitized`] panics if a
    /// checksum deviates from the host oracle or a guarded run traps.
    fn run(&self, profile: Option<&Profile>) -> Vec<Outcome> {
        (self.systems)(self.frac, self.object_size)
            .iter()
            .map(|cfg| {
                let out = execute_sanitized(&self.spec, cfg, profile);
                let name = &self.spec.name;
                assert!(out.result.stats.instructions > 0, "{name} ran nothing");
                out
            })
            .collect()
    }
}

/// [`execute_with_profile`], with the guard sanitizer armed on the systems
/// whose binaries carry guards (TrackFM and AIFM; hybrid binaries carry
/// none): a heap access without live custody on the path a run takes traps,
/// under the lint's rule that every call revokes custody. The sanitizer
/// charges no cycles. Panics on a trap or a wrong checksum.
fn execute_sanitized(spec: &WorkloadSpec, cfg: &RunConfig, profile: Option<&Profile>) -> Outcome {
    if !matches!(cfg.system, SystemKind::TrackFm | SystemKind::Aifm) {
        return execute_with_profile(spec, cfg, profile);
    }
    let (module, report, mem) = runner::compile_for(spec, cfg, profile);
    let mut machine = Machine::new(&module, mem, cfg.cost, spec.heap_size(cfg.object_size));
    machine.enable_guard_sanitizer();
    runner::drive(&mut machine, cfg, Calls::Main(spec), Some(report)).outcome
}

/// Local, Fastswap, and the object runtime as TrackFM and as AIFM.
fn all_systems(frac: f64, object_size: u64) -> Vec<RunConfig> {
    vec![
        RunConfig::local(),
        RunConfig::fastswap(frac),
        RunConfig::trackfm(frac).with_object_size(object_size),
        RunConfig::aifm(frac).with_object_size(object_size),
    ]
}

/// TrackFM under every chunking mode, with o1 off and on.
fn chunking_modes(frac: f64, object_size: u64) -> Vec<RunConfig> {
    let mut cfgs = Vec::new();
    for mode in [
        ChunkingMode::Off,
        ChunkingMode::AllLoops,
        ChunkingMode::CostModel,
    ] {
        for o1 in [false, true] {
            let mut cfg = RunConfig::trackfm(frac).with_object_size(object_size);
            (cfg.compiler.chunking, cfg.compiler.o1) = (mode, o1);
            cfgs.push(cfg);
        }
    }
    cfgs
}

/// TrackFM, then plain local memory for a second opinion, both with o1 on.
fn o1_systems(frac: f64, object_size: u64) -> Vec<RunConfig> {
    let mut cfgs = vec![
        RunConfig::trackfm(frac).with_object_size(object_size),
        RunConfig::local(),
    ];
    for cfg in &mut cfgs {
        cfg.compiler.o1 = true;
    }
    cfgs
}

/// Local, TrackFM chunking every loop, and Fastswap.
fn chunk_all_loops(frac: f64, object_size: u64) -> Vec<RunConfig> {
    let mut all_loops = RunConfig::trackfm(frac).with_object_size(object_size);
    all_loops.compiler.chunking = ChunkingMode::AllLoops;
    vec![RunConfig::local(), all_loops, RunConfig::fastswap(frac)]
}

/// `RunConfig::trackfm`'s object size, for rows that do not vary it.
const DEFAULT_OBJECT: u64 = 4096;

#[test]
fn every_workload_preserves_semantics_on_every_system() {
    for spec in suite(Size::Run) {
        let row = Row {
            spec,
            systems: all_systems,
            frac: 0.3,
            object_size: 1024,
        };
        row.run(None);
    }
}

/// Bytes of poison framing each input in [`padded_machine`].
const PAD: u64 = 4096;

/// `spec` set up on [`LocalMem`] with every input in its own allocation,
/// framed by nonzero pads, returning the machine and `main`'s arguments
/// (each input pointer past its front pad). The simulated heap does not
/// bound an access by its allocation, so without the pads a generator that
/// reads before or past one input would read its neighbour and could still
/// compute the right answer; with them the read sees poison. The poison
/// varies byte by byte, so eight poisoned words do not xor to zero.
fn padded_machine(spec: &WorkloadSpec) -> (Machine<'_, LocalMem>, Vec<u64>) {
    let heap = spec.heap_size(DEFAULT_OBJECT) + 2 * PAD * spec.inputs.len() as u64;
    let mut machine = Machine::new(
        &spec.module,
        LocalMem::new(heap),
        RunConfig::local().cost,
        heap,
    );
    let ptrs: Vec<u64> = spec
        .inputs
        .iter()
        .map(|input| {
            let frame_len = input.byte_len() + 2 * PAD;
            let frame = machine.setup_alloc(frame_len);
            let poison: Vec<u8> = (0..frame_len).map(|i| (i * 151 % 255) as u8 + 1).collect();
            machine.setup_write(frame, &poison);
            let ptr = frame + PAD;
            machine.setup_write(ptr, &input.le_bytes());
            ptr
        })
        .collect();
    machine.finish_setup(false);
    let args = spec
        .args
        .iter()
        .map(|a| match a {
            ArgSpec::Input(i) => ptrs[*i],
            ArgSpec::Const(c) => *c as u64,
        })
        .collect();
    (machine, args)
}

/// Every closed-loop workload computes its checksum with its inputs framed
/// by poison: none reads outside them.
#[test]
fn every_workload_reads_only_its_own_inputs() {
    for spec in suite(Size::Run) {
        let name = &spec.name;
        let want = spec
            .expected
            .unwrap_or_else(|| panic!("{name} has no checksum to hold"));
        let (mut machine, args) = padded_machine(&spec);
        let r = machine
            .run("main", &args)
            .unwrap_or_else(|t| panic!("{name} trapped: {t}"));
        assert_eq!(r.ret, want, "{name} read outside its inputs");
    }
}

/// The closed-loop key-value workloads only look up stored keys, so the
/// probe's empty-slot exit runs only here: the open-loop `get` answers
/// its schedule and a run of absent keys with its inputs framed by poison.
#[test]
fn absent_keys_read_only_the_store() {
    let ol = openloop::open_loop(&OpenLoopParams {
        keys: 2_000,
        requests: 2_000,
        ..Default::default()
    });
    let (mut machine, args) = padded_machine(&ol.spec);
    let mut get = |key: u64| {
        let call: Vec<u64> = args.iter().copied().chain([key]).collect();
        machine.run("get", &call).expect("get traps").ret
    };
    let sum = ol
        .requests
        .iter()
        .fold(0u64, |sum, r| sum.wrapping_add(get(r.key)));
    assert_eq!(sum, ol.expected, "a stored key read outside the store");
    for key in 2_001..2_065 {
        assert_eq!(get(key), 0, "absent key {key} read outside the store");
    }
}

#[test]
fn all_chunking_modes_preserve_semantics() {
    let row = Row {
        spec: stream::copy(&stream::StreamParams { elems: 32 << 10 }),
        systems: chunking_modes,
        frac: 0.25,
        object_size: DEFAULT_OBJECT,
    };
    row.run(Some(&collect_profile(&row.spec)));
}

/// The O1 pipeline (mem2reg + scalar passes) on the alloca-heavy workloads:
/// every checksum must survive SSA promotion, and the promotion must
/// actually fire.
#[test]
fn o1_preserves_semantics_on_alloca_heavy_workloads() {
    let alloca_heavy = ["hashmap/", "analytics/", "kmeans/", "nas-"];
    let mut promoted_total = 0;
    for spec in suite(Size::Run) {
        if !alloca_heavy.iter().any(|p| spec.name.starts_with(p)) {
            continue;
        }
        let row = Row {
            spec,
            systems: o1_systems,
            frac: 0.3,
            object_size: DEFAULT_OBJECT,
        };
        let trackfm = row.run(None).swap_remove(0);
        promoted_total += trackfm.report.unwrap().o1.map_or(0, |o| o.promoted_slots);
    }
    assert!(
        promoted_total >= 5,
        "mem2reg should fire broadly: {promoted_total}"
    );
}

/// Random element counts, local fractions and object sizes: the stream
/// checksum must hold everywhere.
#[test]
fn stream_sum_is_exact_under_random_pressure() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0003);
    for _ in 0..12 {
        let elems = rng.next_range(1_000, 39_999) as usize;
        let frac = 0.05 + rng.next_f64() * 0.95;
        let os_shift = rng.next_range(6, 12) as u32;
        let row = Row {
            spec: stream::sum(&stream::StreamParams { elems }),
            systems: all_systems,
            frac,
            object_size: 1u64 << os_shift,
        };
        row.run(None);
    }
}

/// Zipfian hashmap lookups with random skew/seed under random object
/// sizes: values read through far memory must match the host oracle.
#[test]
fn hashmap_lookups_are_exact() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0004);
    for _ in 0..12 {
        let keys = rng.next_range(500, 3_999) as usize;
        let skew = 1.01 + rng.next_f64() * 0.39;
        let seed = rng.next_u64();
        let frac = 0.1 + rng.next_f64() * 0.9;
        let row = Row {
            spec: hashmap::hashmap(&hashmap::HashmapParams {
                keys,
                lookups: keys * 2,
                skew,
                seed,
            }),
            systems: all_systems,
            frac,
            object_size: 256,
        };
        row.run(None);
    }
}

/// k-means (float-heavy, nested loops) with random shape: bit-exact
/// across systems and chunking policies.
#[test]
fn kmeans_is_bit_exact() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0005);
    for _ in 0..12 {
        let points = rng.next_range(200, 1_499) as usize;
        let dims = rng.next_range(2, 9) as usize;
        let k = rng.next_range(2, 5) as usize;
        let row = Row {
            spec: kmeans::kmeans(&kmeans::KmeansParams {
                points,
                dims,
                k,
                iters: 2,
            }),
            systems: chunk_all_loops,
            frac: 0.4,
            object_size: DEFAULT_OBJECT,
        };
        row.run(None);
    }
}
