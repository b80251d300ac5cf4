//! `tfm-lint` — the guard-coverage soundness lint.
//!
//! TrackFM's correctness invariant (PAPER.md §3.1, Fig. 4): every load/store
//! that may touch the far-memory heap must go through a guard (or a
//! chunk-boundary dereference) on the same pointer, with no intervening
//! operation that could invalidate custody. The pass pipeline establishes
//! this invariant; this lint *proves* it on the pipeline's output by
//! combining two analyses:
//!
//! * [`PointsTo`] classifies every accessed pointer. Stack and global
//!   accesses need no guard. `Heap` and `Unknown` pointers must never be
//!   dereferenced directly.
//! * [`AvailableGuards`] proves, for each `Localized` pointer, that custody
//!   is still live at the access: the pointer is covered on **all** paths
//!   and no kill (call, allocation) intervened.
//!
//! Stores are checked more strictly than loads: the covering custody must
//! carry write intent (a `tfm.guard.write`, or a chunk stream whose
//! `tfm.chunk.begin` flags include the write bit), otherwise dirty tracking
//! is lost and writebacks silently dropped.
//!
//! The lint is wired into the pipeline as a final (optional) verify stage
//! and into CI across every workload, example, and seeded random program.
//! Modules are linted *post*-pipeline, where the libc pass has rewritten
//! every `malloc`/`calloc`: an access through one that survives is a
//! `Heap` access like any other and needs a guard.

use std::fmt;
use tfm_analysis::guard_check::{AvailableGuards, CoverSrc, GuardKind};
use tfm_analysis::points_to::{MemClass, PointsTo};
use tfm_ir::{Function, InstKind, Intrinsic, Module, Value, CHUNK_FLAG_WRITE};

/// One uncovered (or wrongly covered) may-heap access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintError {
    /// Function containing the access.
    pub function: String,
    /// Block index of the access.
    pub block: usize,
    /// Value index of the offending instruction.
    pub inst: usize,
    /// Site label in the telemetry `{function}:v{value}:{load|store}`
    /// scheme, so lint reports cross-reference guard-site attribution.
    pub site: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tfm-lint: [{}] err_in `{}` err_at bb{} %{}: {}",
            self.site, self.function, self.block, self.inst, self.message
        )
    }
}

/// True if the chunk stream feeding `cd` (a `tfm.chunk.deref`) was opened
/// with write intent.
fn chunk_has_write_intent(f: &Function, cd: Value) -> Option<bool> {
    let InstKind::IntrinsicCall {
        intr: Intrinsic::ChunkDeref,
        args,
    } = f.kind(cd)
    else {
        return None;
    };
    let InstKind::IntrinsicCall {
        intr: Intrinsic::ChunkBegin,
        args: bargs,
    } = f.kind(args[0])
    else {
        return None;
    };
    let InstKind::ConstInt(flags) = f.kind(bargs[1]) else {
        return None;
    };
    Some(*flags & CHUNK_FLAG_WRITE != 0)
}

fn lint_function(
    name: &str,
    f: &Function,
    pt: &PointsTo,
    ag: &AvailableGuards,
    errors: &mut Vec<LintError>,
) {
    for b in f.blocks() {
        let Some(mut map) = ag.block_in(b).cloned() else {
            continue; // unreachable
        };
        for &v in f.block_insts(b) {
            let (ptr, is_store) = match f.kind(v) {
                InstKind::Load { ptr } => (*ptr, false),
                InstKind::Store { ptr, .. } => (*ptr, true),
                _ => {
                    ag.apply(f, &mut map, v);
                    continue;
                }
            };
            let what = if is_store { "store" } else { "load" };
            let err = |message: String| LintError {
                function: name.to_string(),
                block: b.index(),
                inst: v.index(),
                site: format!("{name}:v{}:{what}", v.index()),
                message,
            };
            match pt.class(ptr) {
                MemClass::NonPtr | MemClass::Stack | MemClass::Global => {}
                MemClass::Heap | MemClass::Unknown => errors.push(err(format!(
                    "{what} through %{} which may point to the far heap but never \
                     passed through a guard",
                    ptr.index()
                ))),
                MemClass::Localized => match map.get(&ptr) {
                    None => errors.push(err(format!(
                        "{what} through %{}: custody not available on all paths \
                         (guard killed or missing on some path)",
                        ptr.index()
                    ))),
                    Some(cover) if is_store => {
                        let ok = match cover.kind {
                            GuardKind::Write => true,
                            GuardKind::Read => false,
                            GuardKind::Chunk => match cover.src {
                                CoverSrc::Guard(cd) => {
                                    chunk_has_write_intent(f, cd).unwrap_or(false)
                                }
                                CoverSrc::Merged => false,
                            },
                        };
                        if !ok {
                            errors.push(err(format!(
                                "store through %{} whose custody has no write intent \
                                 (dirty tracking would be lost)",
                                ptr.index()
                            )));
                        }
                    }
                    Some(_) => {}
                },
            }
            ag.apply(f, &mut map, v);
        }
    }
}

/// Lints every function of `module`; returns **all** violations found (the
/// pipeline gate is what turns any into a panic).
///
/// Each function is checked alone, under the rule the compiler follows:
/// every call kills custody, and pointer parameters and call results are of
/// unknown provenance. The dynamic sanitizer (`tfm_sim::Machine`) applies
/// the same call rule on the path a run actually takes.
pub fn lint_module(module: &Module) -> Vec<LintError> {
    let mut errors = Vec::new();
    for (_, f) in module.functions() {
        let pt = PointsTo::compute(f);
        let ag = AvailableGuards::compute(f);
        lint_function(&f.name, f, &pt, &ag, &mut errors);
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature, Type};

    #[test]
    fn guarded_access_is_clean() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn unguarded_heap_access_is_flagged_with_location() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let x;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].function, "f");
        assert_eq!(errs[0].block, 0);
        assert_eq!(errs[0].inst, x.index());
        assert!(errs[0].message.contains("never passed through a guard"));
        assert!(errs[0].to_string().contains("bb0"));
    }

    #[test]
    fn guard_result_used_after_a_killing_call_is_flagged() {
        let mut m = Module::new("t");
        // The helper allocates, so it may trigger evacuation: custody dies.
        let h = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let _ = b.malloc_const(8);
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let x;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.call(h, vec![], Some(Type::I64));
            x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("not available on all paths"));
        assert_eq!(errs[0].site, format!("f:v{}:load", x.index()));
        assert!(errs[0].to_string().contains("err_at bb0"));
    }

    #[test]
    fn a_call_to_a_pure_callee_still_kills_custody() {
        // The helper kills nothing, but the lint summarises no callee: the
        // access after the call is not re-guarded, so it is flagged.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let x = b.param(0);
            let y = b.binop(tfm_ir::BinOp::Add, x, x);
            b.ret(Some(y));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let x;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let a = b.load(Type::I64, g);
            let _ = b.call(h, vec![a], Some(Type::I64));
            x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].message.contains("not available on all paths"));
        assert_eq!(errs[0].site, format!("f:v{}:load", x.index()));
    }

    #[test]
    fn a_parameter_access_needs_its_own_guard_even_when_every_call_site_guards() {
        // Every call site passes a freshly guarded pointer (or a stack
        // slot), and no kill intervenes before the call: the callee's raw
        // parameter access is still flagged, because custody does not cross
        // a call.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let x;
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let p = b.param(0);
            x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let a = b.call(h, vec![g], Some(Type::I64));
            let slot = b.alloca(8, 8);
            b.store(slot, a);
            let y = b.call(h, vec![slot], Some(Type::I64));
            b.ret(Some(y));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].message.contains("never passed through a guard"));
        assert_eq!(errs[0].site, format!("h:v{}:load", x.index()));
    }

    #[test]
    fn store_through_read_guard_is_flagged() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let z = b.iconst(Type::I64, 1);
            b.store(g, z);
            b.ret(None);
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("no write intent"));
    }

    #[test]
    fn chunk_write_intent_gates_stores() {
        for (flags, want_errs) in [(0i64, 1usize), (CHUNK_FLAG_WRITE, 0usize)] {
            let mut m = Module::new("t");
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], None));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let p = b.param(0);
                let fl = b.iconst(Type::I64, flags);
                let h = b.intrinsic(Intrinsic::ChunkBegin, vec![p, fl]);
                let cd = b.intrinsic(Intrinsic::ChunkDeref, vec![h, p]);
                let z = b.iconst(Type::I64, 1);
                b.store(cd, z);
                b.intrinsic(Intrinsic::ChunkEnd, vec![h]);
                b.ret(None);
            }
            assert_eq!(lint_module(&m).len(), want_errs, "flags={flags}");
        }
    }

    #[test]
    fn stack_accesses_need_no_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let s = b.alloca(8, 8);
            let z = b.iconst(Type::I64, 3);
            b.store(s, z);
            let x = b.load(Type::I64, s);
            b.ret(Some(x));
        }
        assert!(lint_module(&m).is_empty());
    }

    #[test]
    fn surviving_libc_malloc_accesses_are_errors() {
        // The libc pass rewrites every `malloc`, so one left in compiled
        // output is a far-heap pointer like any other: each unguarded
        // access through it is an error.
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.malloc_const(64);
            let z = b.iconst(Type::I64, 3);
            b.store(p, z);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let errs = lint_module(&m);
        assert_eq!(errs.len(), 2, "{errs:?}");
        assert!(errs
            .iter()
            .all(|e| e.message.contains("never passed through a guard")));
    }
}
