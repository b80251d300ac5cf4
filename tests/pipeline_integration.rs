//! Cross-crate integration tests of the compiler pipeline itself: pass
//! composition, output invariants, and the structural properties the paper
//! relies on.

use trackfm_suite::analysis::dom::DomTree;
use trackfm_suite::analysis::loops::LoopForest;
use trackfm_suite::compiler::{ChunkingMode, CompilerOptions, CostModel, TrackFmCompiler};
use trackfm_suite::ir::{BinOp, FunctionBuilder, InstKind, Intrinsic, Module, Signature, Type};
use trackfm_suite::workloads::{analytics, kmeans, memcached, nas, serving, stream};

fn count_intrinsic(m: &Module, which: Intrinsic) -> usize {
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

fn workload_modules() -> Vec<(String, Module)> {
    vec![
        (
            "stream".into(),
            stream::sum(&stream::StreamParams { elems: 1024 }).module,
        ),
        (
            "kmeans".into(),
            kmeans::kmeans(&kmeans::KmeansParams {
                points: 100,
                dims: 4,
                k: 2,
                iters: 1,
            })
            .module,
        ),
        (
            "analytics".into(),
            analytics::analytics(&analytics::AnalyticsParams {
                rows: 500,
                groups: 50,
            })
            .module,
        ),
        (
            "memcached".into(),
            memcached::memcached(&memcached::MemcachedParams {
                keys: 200,
                gets: 100,
                skew: 1.1,
                seed: 0,
            })
            .module,
        ),
        (
            "serving".into(),
            serving::serving(&serving::ServingParams {
                ops: 256,
                ..Default::default()
            })
            .module,
        ),
    ]
    .into_iter()
    .chain(
        nas::all(&nas::NasParams { shrink: 100 })
            .into_iter()
            .map(|s| (s.name.clone(), s.module)),
    )
    .collect()
}

#[test]
fn compiled_modules_always_verify_and_have_runtime_hooks() {
    for (name, mut m) in workload_modules() {
        let report = TrackFmCompiler::default().compile(&mut m, None);
        m.verify().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            count_intrinsic(&m, Intrinsic::RuntimeInit),
            1,
            "{name}: exactly one runtime-init hook in main"
        );
        assert_eq!(
            count_intrinsic(&m, Intrinsic::Malloc),
            0,
            "{name}: libc malloc survived"
        );
        assert_eq!(
            count_intrinsic(&m, Intrinsic::Free),
            0,
            "{name}: libc free survived"
        );
        assert!(report.insts_after >= report.insts_before, "{name}");
    }
}

#[test]
fn chunk_begin_deref_end_are_balanced() {
    for (name, mut m) in workload_modules() {
        TrackFmCompiler::default().compile(&mut m, None);
        let begins = count_intrinsic(&m, Intrinsic::ChunkBegin);
        let ends = count_intrinsic(&m, Intrinsic::ChunkEnd);
        let derefs = count_intrinsic(&m, Intrinsic::ChunkDeref);
        // Every stream has a begin and at least one end (one per exit edge)
        // and at least one deref.
        if begins > 0 {
            assert!(ends >= begins, "{name}: {begins} begins vs {ends} ends");
            assert!(derefs >= begins, "{name}: streams without derefs");
        } else {
            assert_eq!(ends, 0, "{name}");
        }
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
fn compilation_is_deterministic() {
    for (name, module) in workload_modules() {
        for o1 in [false, true] {
            let build = || {
                let mut m = module.clone();
                TrackFmCompiler::new(CompilerOptions {
                    o1,
                    ..Default::default()
                })
                .compile(&mut m, None);
                m.to_string()
            };
            assert_eq!(build(), build(), "{name} o1={o1}");
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
    let r1 = TrackFmCompiler::default().compile(&mut m, None);
    let guards_after_first = count_intrinsic(&m, Intrinsic::GuardRead);
    let r2 = TrackFmCompiler::default().compile(&mut m, None);
    m.verify().unwrap();
    assert_eq!(
        count_intrinsic(&m, Intrinsic::GuardRead),
        guards_after_first,
        "second compile must not add guards"
    );
    assert_eq!(count_intrinsic(&m, Intrinsic::RuntimeInit), 1);
    let _ = (r1, r2);
}
