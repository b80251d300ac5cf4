//! CI gate for the compiler's output, and for the `tfm-lint` soundness
//! check in particular.
//!
//! The pipeline runs the lint after every compile (and panics on errors),
//! but this suite is the explicit gate: every suite workload, the
//! example-shaped program, and every compiler configuration must produce a
//! module on which `lint_module` reports **zero** may-heap accesses without
//! guard custody. The other checks on the same static matrix
//! (`common::compiled_matrix`) live in `pipeline_integration.rs` and
//! `roundtrip_pipeline.rs`. A deliberately tampered module proves the lint
//! is not vacuous.

pub mod common;

use common::{compiled_matrix, configs};
use trackfm_suite::compiler::{lint_module, ChunkingMode, CompilerOptions, TrackFmCompiler};
use trackfm_suite::ir::{
    BinOp, CastOp, FunctionBuilder, InstKind, Intrinsic, Module, Signature, Type,
};

fn assert_lint_clean(tag: &str, module: &Module) {
    let errors = lint_module(module);
    assert!(
        errors.is_empty(),
        "{tag}: tfm-lint found {} uncovered accesses:\n{}",
        errors.len(),
        errors
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every (workload, config) pair of the static matrix lints clean. The
/// explicit lint call stays although the pipeline lints too, so the gate
/// survives a pipeline edit.
#[test]
fn lint_is_clean_on_every_workload_under_every_config() {
    for cell in compiled_matrix() {
        assert_lint_clean(&cell.tag, &cell.module);
    }
}

/// The quickstart example's Listing-1 sum loop — the README's first
/// contact with the compiler must survive the gate too.
fn quickstart_module() -> Module {
    let mut module = Module::new("quickstart");
    let main_fn = module.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(module.function_mut(main_fn));
        let arr = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(Type::I64, 0);
        let sum_slot = b.alloca(8, 8);
        b.store(sum_slot, zero);
        b.counted_loop(zero, n, 1, |b, i| {
            let addr = b.gep(arr, i, 4, 0);
            let x = b.load(Type::I32, addr);
            let x64 = b.cast(CastOp::Sext, x, Type::I64);
            let s = b.load(Type::I64, sum_slot);
            let s2 = b.binop(BinOp::Add, s, x64);
            b.store(sum_slot, s2);
        });
        let out = b.load(Type::I64, sum_slot);
        b.ret(Some(out));
    }
    module.verify().expect("well-formed input");
    module
}

#[test]
fn lint_is_clean_on_example_shaped_programs() {
    for (cname, opts) in configs() {
        let mut m = quickstart_module();
        TrackFmCompiler::new(opts).compile(&mut m, None);
        assert_lint_clean(&format!("quickstart/{cname}"), &m);
    }
}

/// Deleting one guard from otherwise-sound pipeline output must trip the
/// lint — the gate actually gates.
#[test]
fn lint_catches_a_deleted_guard() {
    let mut m = quickstart_module();
    TrackFmCompiler::new(CompilerOptions {
        chunking: ChunkingMode::Off, // plain guards, no chunk custody
        ..Default::default()
    })
    .compile(&mut m, None);
    assert_lint_clean("pre-tamper", &m);

    // Strip the first guard: route its uses to the raw pointer.
    let fid = m.function_ids().next().unwrap();
    let f = m.function_mut(fid);
    let guard = f
        .live_insts()
        .into_iter()
        .find(|&v| {
            matches!(
                f.kind(v),
                InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardRead | Intrinsic::GuardWrite,
                    ..
                }
            )
        })
        .expect("pipeline output has a guard");
    let raw = match f.kind(guard) {
        InstKind::IntrinsicCall { args, .. } => args[0],
        _ => unreachable!(),
    };
    f.replace_all_uses(guard, raw);
    f.remove_inst(guard);

    let errors = lint_module(&m);
    assert!(
        !errors.is_empty(),
        "lint must flag the access whose guard was deleted"
    );
    assert!(errors
        .iter()
        .any(|e| e.to_string().contains("never passed through a guard")));
}
