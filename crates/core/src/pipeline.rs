//! The TrackFM compiler driver.
//!
//! Mirrors Fig. 2 of the paper: runtime initialization → guard check
//! analysis → loop chunking analysis/transform → guard check transform →
//! redundant-guard elimination → libc transformation → `tfm-lint`
//! soundness check, optionally preceded by the O1 scalar pipeline (the
//! Fig. 17b ordering fix). Produces a [`CompileReport`] with the §4.6
//! compilation-cost metrics.
//!
//! Two decisions per heap access, one option each: chunk it
//! ([`CompilerOptions::chunking`], §3.4) or guard it
//! ([`CompilerOptions::guards`], §3.3) — and whether the guard pipeline then
//! removes what it inserted is the single [`GuardOpt`] level:
//!
//! | level | elision |
//! |---|---|
//! | [`GuardOpt::None`] | off (the naive §3.3 transformation) |
//! | [`GuardOpt::Local`] (default) | within one function; every call kills custody |
//!
//! Every analysis sees one function at a time, as the paper's does: no
//! callee is summarised, so pointer parameters and call results are of
//! unknown provenance. The lint runs after every guarded compile, under the
//! same rule, whatever the level.

use crate::cost::CostModel;
use crate::passes::chunking::{self, ChunkingMode, ChunkingOptions, ChunkingOutcome};
use crate::passes::guard_elim::{self, ElisionOutcome};
use crate::passes::guards;
use crate::passes::libc;
use crate::passes::lint;
use crate::passes::o1::{self, O1Outcome};
use crate::passes::runtime_init;
use std::time::Instant;
use tfm_analysis::profile::Profile;
use tfm_ir::Module;

/// The entry function: receives the runtime-init hook.
const MAIN: &str = "main";

/// Whether the guard pipeline removes guards it inserted. The 200-seed
/// corpus (`tests/random_programs.rs`) holds both levels to the lint, the
/// sanitizer, the local-memory oracle and `cycles(None) ≥ cycles(Local)`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum GuardOpt {
    /// The naive §3.3 transformation: every may-heap access keeps its guard.
    None,
    /// Redundant-guard elimination within one function: guards dominated by
    /// an un-killed guard on the same pointer are deleted, the
    /// read-then-write pattern folds into one write guard, and every call
    /// kills custody.
    #[default]
    Local,
}

/// Compiler options.
#[derive(Copy, Clone, Debug)]
pub struct CompilerOptions {
    /// The cycle cost model (drives the chunking decision and is later
    /// shared with the execution engine).
    pub cost_model: CostModel,
    /// The AIFM object size selected for this application (§3.2: one size
    /// per application, chosen at compile time).
    pub object_size: u64,
    /// Loop-chunking mode.
    pub chunking: ChunkingMode,
    /// Plant prefetch requests on chunk streams.
    pub prefetch: bool,
    /// Run the O1 scalar pipeline before the TrackFM passes (Fig. 17b).
    pub o1: bool,
    /// Insert guards on unchunked heap accesses. Disabled by the §5 hybrid
    /// compiler+kernel exploration, where raw accesses fault into a
    /// kernel-style handler instead (see `tfm_sim::Flavor::Hybrid`).
    pub guards: bool,
    /// How many of the inserted guards the pipeline then removes.
    pub guard_opt: GuardOpt,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            cost_model: CostModel::default(),
            object_size: 4096,
            chunking: ChunkingMode::CostModel,
            prefetch: true,
            o1: false,
            guards: true,
            guard_opt: GuardOpt::Local,
        }
    }
}

/// What the compiler did, with the §4.6 code-size/compile-time metrics.
#[derive(Clone, Debug, Default)]
pub struct CompileReport {
    /// Read guards inserted.
    pub read_guards: usize,
    /// Write guards inserted.
    pub write_guards: usize,
    /// Chunking outcome.
    pub chunking: ChunkingOutcome,
    /// O1 outcome (if the pre-pipeline ran).
    pub o1: Option<O1Outcome>,
    /// What redundant-guard elimination did (`read_guards`/`write_guards`
    /// count insertions *before* elision; subtract `elision.eliminated` for
    /// the surviving total).
    pub elision: ElisionOutcome,
    /// Always empty: the compiler moves no guard. Kept only while
    /// `tfm-perf`'s `core.guards_hoisted` row reads `motion.sites`.
    pub motion: NoMotion,
    /// Live instructions before compilation.
    pub insts_before: usize,
    /// Live instructions after compilation ("code size").
    pub insts_after: usize,
    /// Wall-clock nanoseconds per pass, in execution order.
    pub pass_nanos: Vec<(&'static str, u128)>,
    /// Every guard/chunk-deref site in the compiled output, for telemetry
    /// attribution (see [`guards::collect_sites`]).
    pub guard_sites: Vec<guards::GuardSite>,
}

/// The type of the vestigial [`CompileReport::motion`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NoMotion {
    /// Always empty.
    pub sites: [(); 0],
}

impl CompileReport {
    /// Code-size growth factor (§4.6 reports ×2.4 on average for the real
    /// system).
    pub fn code_size_ratio(&self) -> f64 {
        if self.insts_before == 0 {
            1.0
        } else {
            self.insts_after as f64 / self.insts_before as f64
        }
    }

    /// Total guards inserted.
    pub fn total_guards(&self) -> usize {
        self.read_guards + self.write_guards
    }

    /// Records `pass`'s time since `t`, for a pass that leaves the module
    /// as it found it.
    fn record_pass(&mut self, pass: &'static str, t: Instant) {
        self.pass_nanos.push((pass, t.elapsed().as_nanos()));
    }

    /// [`CompileReport::record_pass`], after which debug builds verify
    /// `module` and panic naming `pass` if it fails.
    fn end_pass(&mut self, pass: &'static str, t: Instant, module: &Module) {
        self.record_pass(pass, t);
        if cfg!(debug_assertions) {
            if let Err(e) = module.verify() {
                panic!("{pass} left an invalid module: {e}");
            }
        }
    }

    /// Total compile time across passes.
    pub fn total_nanos(&self) -> u128 {
        self.pass_nanos.iter().map(|(_, n)| n).sum()
    }
}

/// The TrackFM compiler.
#[derive(Clone, Debug, Default)]
pub struct TrackFmCompiler {
    /// The options this compiler instance applies.
    pub options: CompilerOptions,
}

impl TrackFmCompiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompilerOptions) -> Self {
        TrackFmCompiler { options }
    }

    /// Transforms `module` in place into a far-memory binary.
    ///
    /// # Panics
    /// Panics if the module fails verification after transformation (a
    /// compiler bug, not a user error).
    pub fn compile(&self, module: &mut Module, profile: Option<&Profile>) -> CompileReport {
        let mut report = CompileReport {
            insts_before: module.total_live_insts(),
            ..Default::default()
        };
        let opts = &self.options;

        if opts.o1 {
            let t = Instant::now();
            report.o1 = Some(o1::run(module));
            report.end_pass("o1", t, module);
        }

        let t = Instant::now();
        runtime_init::run(module, MAIN);
        report.end_pass("runtime-init", t, module);

        let t = Instant::now();
        let chunk_opts = ChunkingOptions {
            mode: opts.chunking,
            object_size: opts.object_size,
            prefetch: opts.prefetch,
        };
        for id in module.function_ids().collect::<Vec<_>>() {
            let out = chunking::run(module, id, &opts.cost_model, &chunk_opts, profile);
            report.chunking.streams += out.streams;
            report.chunking.chunked_accesses += out.chunked_accesses;
            report.chunking.chunked_loops += out.chunked_loops;
            report.chunking.skipped_low_benefit += out.skipped_low_benefit;
        }
        report.end_pass("loop-chunking", t, module);

        let t = Instant::now();
        let (mut r, mut w) = (0, 0);
        if opts.guards {
            for id in module.function_ids().collect::<Vec<_>>() {
                let plan = guards::analyze(module, id);
                let (pr, pw) = guards::transform(module, id, &plan);
                r += pr;
                w += pw;
            }
        }
        report.read_guards = r;
        report.write_guards = w;
        report.end_pass("guard-transform", t, module);

        if opts.guards && opts.guard_opt != GuardOpt::None {
            let t = Instant::now();
            report.elision = guard_elim::run(module);
            report.end_pass("guard-elide", t, module);
        }

        let t = Instant::now();
        libc::run(module);
        report.end_pass("libc-transform", t, module);

        let t = Instant::now();
        report.guard_sites = guards::collect_sites(module);
        report.record_pass("collect-sites", t);
        report.insts_after = module.total_live_insts();

        let t = Instant::now();
        module
            .verify()
            .expect("TrackFM output must verify — compiler bug");
        report.record_pass("verify", t);

        if opts.guards {
            let t = Instant::now();
            let errors = lint::lint_module(module);
            if !errors.is_empty() {
                let msgs: Vec<String> = errors.iter().map(|e| e.to_string()).collect();
                panic!(
                    "TrackFM output failed the guard-coverage lint — compiler bug:\n{}",
                    msgs.join("\n")
                );
            }
            report.end_pass("tfm-lint", t, module);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, FunctionBuilder, InstKind, Intrinsic, Signature, Type};

    /// Builds the paper's Listing-1 sum loop over a malloc'd array.
    fn sum_program(elems: i64) -> Module {
        let mut m = Module::new("sum");
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.malloc_const(elems * 8);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, elems);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(arr, i, 8, 0);
                let x = b.load(Type::I64, addr);
                let _ = b.binop(BinOp::Add, x, x);
            });
            b.intrinsic(Intrinsic::Free, vec![arr]);
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        m
    }

    fn count_intr(m: &Module, intr: Intrinsic) -> usize {
        m.functions()
            .flat_map(|(_, f)| {
                f.live_insts()
                    .into_iter()
                    .filter(|&v| {
                        matches!(f.kind(v), InstKind::IntrinsicCall { intr: i, .. } if *i == intr)
                    })
                    .collect::<Vec<_>>()
            })
            .count()
    }

    #[test]
    fn full_pipeline_produces_far_memory_binary() {
        let mut m = sum_program(1000);
        let report = TrackFmCompiler::default().compile(&mut m, None);
        // The array access is chunked, so no plain guards remain on it.
        assert_eq!(report.chunking.streams, 1);
        assert_eq!(report.read_guards, 0);
        assert_eq!(count_intr(&m, Intrinsic::RuntimeInit), 1);
        assert_eq!(count_intr(&m, Intrinsic::TfmAlloc), 1);
        assert_eq!(count_intr(&m, Intrinsic::TfmFree), 1);
        assert_eq!(count_intr(&m, Intrinsic::Malloc), 0);
        assert!(report.code_size_ratio() > 1.0);
        assert!(report.total_nanos() > 0);
        // runtime-init, loop-chunking, guard-transform, guard-elide,
        // libc-transform, collect-sites, verify, tfm-lint.
        assert_eq!(report.pass_nanos.len(), 8);
    }

    #[test]
    fn elision_folds_duplicate_guards_and_output_stays_sound() {
        // Two loads and a store through the same address in one block: the
        // guard pass inserts three guards, elision folds them into a single
        // write guard (read→write upgrade on the survivor).
        let mut m = Module::new("dup");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let i = b.iconst(Type::I64, 3);
            let addr = b.gep(p, i, 8, 0);
            let x = b.load(Type::I64, addr);
            let y = b.load(Type::I64, addr);
            let s = b.binop(BinOp::Add, x, y);
            b.store(addr, s);
            b.ret(Some(s));
        }
        m.verify().unwrap();
        let report = TrackFmCompiler::default().compile(&mut m, None);
        assert_eq!(report.read_guards, 2);
        assert_eq!(report.write_guards, 1);
        assert_eq!(report.elision.eliminated, 2);
        assert_eq!(report.elision.upgraded, 1);
        assert_eq!(report.elision.sites.len(), 1);
        assert_eq!(report.elision.sites[0].absorbed, 2);
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 0);
        assert_eq!(count_intr(&m, Intrinsic::GuardWrite), 1);
        // collect_sites runs post-elision: only the survivor is reported.
        assert_eq!(report.guard_sites.len(), 1);
        assert!(report.guard_sites[0].label.ends_with(":write"));
    }

    #[test]
    fn guard_opt_none_keeps_every_guard() {
        let mut m = sum_program(1000);
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            guard_opt: GuardOpt::None,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert_eq!(report.elision, Default::default());
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 1);
        // The removal pass does not appear in the pass list; the lint does.
        let ran = |pass: &str| report.pass_nanos.iter().any(|(n, _)| *n == pass);
        assert!(!ran("guard-elide") && ran("tfm-lint"));
    }

    #[test]
    fn chunking_off_leaves_naive_guards() {
        let mut m = sum_program(1000);
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert_eq!(report.chunking.streams, 0);
        assert_eq!(report.read_guards, 1);
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 1);
        assert_eq!(count_intr(&m, Intrinsic::ChunkDeref), 0);
        assert_eq!(report.guard_sites.len(), 1);
        assert!(report.guard_sites[0].label.ends_with(":read"));
    }

    #[test]
    fn o1_runs_first_and_is_reported() {
        let mut m = sum_program(100);
        let compiler = TrackFmCompiler::new(CompilerOptions {
            o1: true,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert!(report.o1.is_some());
        assert_eq!(report.pass_nanos[0].0, "o1");
    }

    /// A const-trip loop that loads and stores through a loop-invariant
    /// pointer.
    fn invariant_store_loop() -> Module {
        let mut m = Module::new("inv");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 64);
            let k = b.iconst(Type::I64, 7);
            let slot = b.gep(p, k, 8, 0);
            b.counted_loop(zero, n, 1, |b, i| {
                // Data-dependent index defeats chunking; the *pointer* is
                // still loop-invariant.
                let x = b.load(Type::I64, slot);
                let y = b.binop(BinOp::Add, x, i);
                b.store(slot, y);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        m
    }

    #[test]
    fn no_level_moves_a_guard_out_of_its_loop() {
        // The read guard and the write guard fold into one write guard,
        // which stays in the loop body: a guard pins nothing, so only there
        // does it cover the accesses against evacuation.
        let mut m = invariant_store_loop();
        let compiler = TrackFmCompiler::new(CompilerOptions {
            chunking: ChunkingMode::Off,
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        assert_eq!(report.elision.upgraded, 1);
        assert_eq!(count_intr(&m, Intrinsic::GuardRead), 0);
        assert_eq!(count_intr(&m, Intrinsic::GuardWrite), 1);
        let f = m.function(m.function_ids().next().unwrap());
        let in_entry = f.block_insts(f.entry_block()).iter().any(|&v| {
            matches!(
                f.kind(v),
                InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardWrite,
                    ..
                }
            )
        });
        assert!(!in_entry, "the guard left the loop");
    }

    #[test]
    fn localized_pointer_without_live_custody_is_reguarded_at_every_level() {
        // `g = guard.read(p); call alloc(); load g`: the call allocates, so
        // custody of `g` is dead at the load and every level must guard it
        // again, or the lint rejects the output.
        for level in [GuardOpt::None, GuardOpt::Local] {
            let mut m = Module::new("relocalize");
            let alloc = m.declare_function("alloc", Signature::new(vec![], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(alloc));
                let _ = b.malloc_const(8);
                let z = b.iconst(Type::I64, 0);
                b.ret(Some(z));
            }
            let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            let (g, x);
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let p = b.param(0);
                g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let _ = b.call(alloc, vec![], Some(Type::I64));
                x = b.load(Type::I64, g);
                b.ret(Some(x));
            }
            m.verify().unwrap();
            let report = TrackFmCompiler::new(CompilerOptions {
                chunking: ChunkingMode::Off,
                guard_opt: level,
                ..Default::default()
            })
            .compile(&mut m, None);
            assert_eq!(report.read_guards, 1, "{level:?}");
            let f = m.function(id);
            let InstKind::Load { ptr } = *f.kind(x) else {
                panic!("{level:?}: the load survives")
            };
            assert!(
                matches!(f.kind(ptr), InstKind::IntrinsicCall { intr: Intrinsic::GuardRead, args } if args[0] == g),
                "{level:?}: the load goes through a fresh guard on g"
            );
        }
    }

    #[test]
    fn code_size_growth_is_guard_proportional() {
        // A program with many distinct (unchunkable) accesses grows more
        // than a chunkable one — §4.6's "roughly proportional to the number
        // of memory instructions".
        let mut m = Module::new("scatter");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let mut acc = b.iconst(Type::I64, 0);
            for k in 0..10 {
                // Data-dependent chained loads: no IV, all guarded.
                let addr = b.gep(p, acc, 8, k);
                let x = b.load(Type::I64, addr);
                acc = b.binop(BinOp::Add, acc, x);
            }
            b.ret(Some(acc));
        }
        m.verify().unwrap();
        let report = TrackFmCompiler::default().compile(&mut m, None);
        assert_eq!(report.read_guards, 10);
        assert!(report.code_size_ratio() > 1.3);
    }
}
