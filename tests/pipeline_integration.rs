//! Cross-crate integration tests of the compiler pipeline itself: pass
//! composition, output invariants, and the structural properties the paper
//! relies on. The invariants every compiled suite module must keep (it
//! verifies, carries the runtime hook, balances its chunk streams, compiles
//! deterministically) walk the static matrix of `common::compiled_matrix`.

pub mod common;

use common::{compiled_matrix, count_intrinsic};
use trackfm_suite::analysis::dom::DomTree;
use trackfm_suite::analysis::loops::LoopForest;
use trackfm_suite::compiler::{ChunkingMode, CompilerOptions, CostModel, TrackFmCompiler};
use trackfm_suite::ir::{BinOp, FunctionBuilder, InstKind, Intrinsic, Module, Signature, Type};
use trackfm_suite::workloads::{nas, stream};

#[test]
fn compiled_modules_always_verify_and_have_runtime_hooks() {
    for cell in compiled_matrix() {
        let (tag, m) = (&cell.tag, &cell.module);
        m.verify().unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!(cell.report.insts_after >= cell.report.insts_before, "{tag}");
        // The runtime hook goes into `main`; libc allocation is gone.
        let has_main = usize::from(m.find_function("main").is_some());
        assert_eq!(
            count_intrinsic(m, Intrinsic::RuntimeInit),
            has_main,
            "{tag}: one runtime-init hook in main"
        );
        assert_eq!(count_intrinsic(m, Intrinsic::Malloc), 0, "{tag}: malloc");
        assert_eq!(count_intrinsic(m, Intrinsic::Free), 0, "{tag}: free");
    }
}

#[test]
fn chunk_begin_deref_end_are_balanced() {
    for cell in compiled_matrix() {
        let (tag, m) = (&cell.tag, &cell.module);
        // Every stream has a begin, at least one end (one per exit edge)
        // and at least one deref.
        let begins = count_intrinsic(m, Intrinsic::ChunkBegin);
        let ends = count_intrinsic(m, Intrinsic::ChunkEnd);
        let derefs = count_intrinsic(m, Intrinsic::ChunkDeref);
        assert!(ends >= begins, "{tag}: {begins} begins vs {ends} ends");
        assert!(derefs >= begins, "{tag}: streams without derefs");
        assert!(begins > 0 || ends == 0, "{tag}: ends without begins");
    }
}

#[test]
fn compilation_is_deterministic() {
    for cell in compiled_matrix() {
        assert_eq!(
            cell.recompile().to_string(),
            cell.module.to_string(),
            "{}: recompiling printed differently",
            cell.tag
        );
    }
}

#[test]
fn chunk_begins_live_in_preheaders_outside_their_loops() {
    let mut m = stream::sum(&stream::StreamParams { elems: 4096 }).module;
    TrackFmCompiler::default().compile(&mut m, None);
    for (_, f) in m.functions() {
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        for v in f.live_insts() {
            if let InstKind::IntrinsicCall {
                intr: Intrinsic::ChunkBegin,
                ..
            } = f.kind(v)
            {
                let block = f.inst(v).block;
                // The begin must not sit inside any loop that contains a
                // deref using it (it would re-init every iteration).
                let deref_loops: Vec<_> = forest
                    .loops
                    .iter()
                    .filter(|lp| {
                        lp.blocks.iter().any(|&b| {
                            f.block_insts(b).iter().any(|&d| {
                                matches!(
                                    f.kind(d),
                                    InstKind::IntrinsicCall {
                                        intr: Intrinsic::ChunkDeref,
                                        args,
                                    } if args[0] == v
                                )
                            })
                        })
                    })
                    .collect();
                for lp in deref_loops {
                    assert!(!lp.contains(block), "chunk.begin inside the loop it serves");
                }
            }
        }
    }
}

#[test]
fn guard_counts_scale_with_memory_instructions() {
    // §4.6: code growth is "roughly proportional to the number of memory
    // instructions". Build two programs differing only in access count.
    let prog = |accesses: usize| {
        let mut m = Module::new("p");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let mut acc = b.iconst(Type::I64, 0);
            for k in 0..accesses {
                let addr = b.gep(p, acc, 8, k as i64);
                let x = b.load(Type::I64, addr);
                acc = b.binop(BinOp::Add, acc, x);
            }
            b.ret(Some(acc));
        }
        m.verify().unwrap();
        let report = TrackFmCompiler::default().compile(&mut m, None);
        report.total_guards()
    };
    assert_eq!(prog(5), 5);
    assert_eq!(prog(20), 20);
}

#[test]
fn o1_pipeline_composes_with_all_chunking_modes() {
    for mode in [
        ChunkingMode::Off,
        ChunkingMode::AllLoops,
        ChunkingMode::CostModel,
    ] {
        let mut m = nas::ft(&nas::NasParams { shrink: 100 }).module;
        let compiler = TrackFmCompiler::new(CompilerOptions {
            o1: true,
            chunking: mode,
            cost_model: CostModel::default(),
            ..Default::default()
        });
        let report = compiler.compile(&mut m, None);
        m.verify().unwrap();
        let o1 = report.o1.expect("o1 ran");
        assert!(o1.loads_eliminated > 0, "FT redundancy must be found");
    }
}

#[test]
fn recompiling_an_already_compiled_module_is_safe() {
    // Not a supported flow, but it must not corrupt the module: guards are
    // not stacked (Localized class), libc is already rewritten.
    let mut m = stream::sum(&stream::StreamParams { elems: 1024 }).module;
    TrackFmCompiler::default().compile(&mut m, None);
    let guards_after_first = count_intrinsic(&m, Intrinsic::GuardRead);
    TrackFmCompiler::default().compile(&mut m, None);
    m.verify().unwrap();
    assert_eq!(
        count_intrinsic(&m, Intrinsic::GuardRead),
        guards_after_first,
        "second compile must not add guards"
    );
    assert_eq!(count_intrinsic(&m, Intrinsic::RuntimeInit), 1);
}
