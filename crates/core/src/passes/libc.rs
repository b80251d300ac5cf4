//! libc transformation pass.
//!
//! §3.1: "This pass transforms all memory allocation calls (mainly for heap
//! allocation) in libc (e.g., `malloc`, `realloc`, `free`) into
//! TrackFM-managed memory runtime calls. The TrackFM versions leverage
//! AIFM's region-based allocator under the covers to allocate remotable
//! memory."

use tfm_ir::{FuncId, InstKind, Intrinsic, Module};

/// Rewrites libc allocation intrinsics to their TrackFM-managed
/// counterparts across the whole module. Returns the number of call sites
/// rewritten.
pub fn run(module: &mut Module) -> usize {
    let mut rewritten = 0;
    for id in module.function_ids().collect::<Vec<FuncId>>() {
        let f = module.function_mut(id);
        for v in f.live_insts() {
            let InstKind::IntrinsicCall { intr, .. } = f.kind(v) else {
                continue;
            };
            let replacement = match intr {
                Intrinsic::Malloc => Intrinsic::TfmAlloc,
                Intrinsic::Calloc => Intrinsic::TfmCalloc,
                Intrinsic::Realloc => Intrinsic::TfmRealloc,
                Intrinsic::Free => Intrinsic::TfmFree,
                _ => continue,
            };
            if let InstKind::IntrinsicCall { intr, .. } = &mut f.inst_mut(v).kind {
                *intr = replacement;
                rewritten += 1;
            }
        }
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature, Type};

    #[test]
    fn rewrites_all_allocation_families() {
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.iconst(Type::I64, 128);
            let one = b.iconst(Type::I64, 1);
            let p = b.intrinsic(Intrinsic::Malloc, vec![n]);
            let q = b.intrinsic(Intrinsic::Calloc, vec![n, one]);
            let r = b.intrinsic(Intrinsic::Realloc, vec![p, n]);
            b.intrinsic(Intrinsic::Free, vec![q]);
            b.intrinsic(Intrinsic::Free, vec![r]);
            b.ret(None);
        }
        assert_eq!(run(&mut m), 5);
        m.verify().unwrap();
        let f = m.function(id);
        for v in f.live_insts() {
            if let InstKind::IntrinsicCall { intr, .. } = f.kind(v) {
                assert!(
                    !matches!(
                        intr,
                        Intrinsic::Malloc
                            | Intrinsic::Calloc
                            | Intrinsic::Realloc
                            | Intrinsic::Free
                    ),
                    "libc call survived: {intr}"
                );
            }
        }
        // Second run: nothing left to rewrite.
        assert_eq!(run(&mut m), 0);
    }

    #[test]
    fn leaves_other_intrinsics_alone() {
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            b.intrinsic(Intrinsic::RuntimeInit, vec![]);
            b.ret(None);
        }
        assert_eq!(run(&mut m), 0);
    }
}
