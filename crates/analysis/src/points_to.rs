//! Allocation-site memory classification (the guard-check analysis backbone).
//!
//! TrackFM must guard every load/store that may touch heap-allocated memory
//! and may skip accesses that provably touch only the stack or globals
//! (§3.1: "The pass ignores accesses to stack and global objects by
//! leveraging NOELLE's program dependence graph abstraction, which is
//! powered by several high-accuracy memory alias analyses").
//!
//! This module implements the equivalent as a flow-insensitive,
//! allocation-site-based classification over SSA values: every pointer value
//! is assigned a [`MemClass`], propagated to a fixpoint through copies, phi,
//! select, GEP and casts. Anything that may be heap (including values of
//! unknown provenance, e.g. pointers loaded from memory or passed in as
//! parameters) must be guarded; the run-time custody check (Fig. 4) keeps
//! this conservative answer correct and merely costs a few cycles.

use tfm_ir::{Function, InstKind, Intrinsic, Type, Value};

/// Conservative classification of what a value may point to.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum MemClass {
    /// Not a pointer (or never used as one); bottom of the lattice.
    NonPtr,
    /// Definitely a TrackFM-managed (or libc) heap pointer.
    Heap,
    /// Definitely a stack slot pointer.
    Stack,
    /// Definitely a global data pointer.
    Global,
    /// Canonical pointer produced by a guard or chunk dereference: already
    /// localized, must not be re-guarded.
    Localized,
    /// Could be anything; top of the lattice.
    Unknown,
}

impl MemClass {
    /// Lattice join.
    pub fn join(self, other: MemClass) -> MemClass {
        use MemClass::*;
        match (self, other) {
            (a, b) if a == b => a,
            (NonPtr, x) | (x, NonPtr) => x,
            _ => Unknown,
        }
    }
}

/// Per-value memory classification for one function.
#[derive(Clone, Debug)]
pub struct PointsTo {
    class: Vec<MemClass>,
}

impl PointsTo {
    /// Runs the classification to a fixpoint.
    pub fn compute(f: &Function) -> Self {
        let n = f.num_insts();
        let mut class = vec![MemClass::NonPtr; n];
        let live = f.live_insts();
        let mut changed = true;
        while changed {
            changed = false;
            for &v in &live {
                let new = Self::transfer(f, &class, v);
                let joined = class[v.index()].join(new);
                if joined != class[v.index()] {
                    class[v.index()] = joined;
                    changed = true;
                }
            }
        }
        PointsTo { class }
    }

    fn transfer(f: &Function, class: &[MemClass], v: Value) -> MemClass {
        use MemClass::*;
        match f.kind(v) {
            InstKind::Alloca { .. } => Stack,
            InstKind::GlobalAddr(_) => Global,
            InstKind::IntrinsicCall { intr, .. } => match intr {
                Intrinsic::Malloc
                | Intrinsic::Calloc
                | Intrinsic::Realloc
                | Intrinsic::TfmAlloc
                | Intrinsic::TfmCalloc
                | Intrinsic::TfmRealloc => Heap,
                Intrinsic::GuardRead | Intrinsic::GuardWrite | Intrinsic::ChunkDeref => Localized,
                _ => NonPtr,
            },
            // Parameters, pointers loaded from memory and call results are
            // of unknown provenance.
            InstKind::Param(_) | InstKind::Load { .. } | InstKind::Call { .. } => {
                if f.ty(v) == Some(Type::Ptr) {
                    Unknown
                } else {
                    NonPtr
                }
            }
            InstKind::Gep { base, .. } => class[base.index()],
            InstKind::Cast(_, a) => {
                // Pointer provenance flows through int<->ptr casts: TrackFM
                // explicitly supports pointers round-tripped through integers
                // (§3.2, "even if a pointer is cast to an integer type").
                class[a.index()]
            }
            InstKind::Phi(incs) => incs
                .iter()
                .fold(NonPtr, |acc, (_, iv)| acc.join(class[iv.index()])),
            InstKind::Select { tval, fval, .. } => class[tval.index()].join(class[fval.index()]),
            InstKind::Binary(_, a, b) => {
                // Offset math on a pointer-derived integer keeps provenance.
                class[a.index()].join(class[b.index()])
            }
            _ => NonPtr,
        }
    }

    /// The classification of a value.
    pub fn class(&self, v: Value) -> MemClass {
        self.class[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, CastOp, FunctionBuilder, Intrinsic, Module, Signature, Type};

    fn classify(build: impl FnOnce(&mut FunctionBuilder) -> Vec<Value>) -> (PointsTo, Vec<Value>) {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        let vals;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            vals = build(&mut b);
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        (PointsTo::compute(m.function(id)), vals)
    }

    #[test]
    fn classifies_allocation_sites() {
        let (pt, v) = classify(|b| {
            let heap = b.malloc_const(64);
            let stack = b.alloca(16, 8);
            vec![heap, stack]
        });
        assert_eq!(pt.class(v[0]), MemClass::Heap);
        assert_eq!(pt.class(v[1]), MemClass::Stack);
    }

    #[test]
    fn gep_preserves_class() {
        let (pt, v) = classify(|b| {
            let heap = b.malloc_const(64);
            let i = b.iconst(Type::I64, 3);
            let g = b.gep(heap, i, 8, 0);
            vec![g]
        });
        assert_eq!(pt.class(v[0]), MemClass::Heap);
    }

    #[test]
    fn provenance_survives_int_roundtrip() {
        // §3.2: pointer cast to int, offset, cast back must still be guarded.
        let (pt, v) = classify(|b| {
            let heap = b.malloc_const(64);
            let as_int = b.cast(CastOp::PtrToInt, heap, Type::I64);
            let eight = b.iconst(Type::I64, 8);
            let off = b.binop(BinOp::Add, as_int, eight);
            let back = b.cast(CastOp::IntToPtr, off, Type::Ptr);
            vec![back]
        });
        assert_eq!(pt.class(v[0]), MemClass::Heap);
    }

    #[test]
    fn ptr_params_and_loaded_ptrs_are_unknown() {
        let (pt, v) = classify(|b| {
            let p = b.param(0);
            let loaded = b.load(Type::Ptr, p);
            vec![p, loaded]
        });
        assert_eq!(pt.class(v[0]), MemClass::Unknown);
        assert_eq!(pt.class(v[1]), MemClass::Unknown);
    }

    #[test]
    fn guard_results_are_localized() {
        let (pt, v) = classify(|b| {
            let heap = b.malloc_const(64);
            let loc = b.intrinsic(Intrinsic::GuardRead, vec![heap]);
            vec![loc]
        });
        assert_eq!(pt.class(v[0]), MemClass::Localized);
    }

    #[test]
    fn phi_mixing_heap_and_stack_is_unknown() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let phi;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            let x = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let c = b.icmp(tfm_ir::CmpOp::Sgt, x, z);
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let h = b.malloc_const(64);
            b.br(j);
            b.switch_to_block(e);
            let s = b.alloca(8, 8);
            b.br(j);
            b.switch_to_block(j);
            phi = b.phi(Type::Ptr, &[(t, h), (e, s)]);
            b.ret(Some(z));
        }
        let pt = PointsTo::compute(m.function(id));
        assert_eq!(pt.class(phi), MemClass::Unknown);
    }

    #[test]
    fn phi_of_same_class_keeps_the_class() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let phi;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            let x = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let c = b.icmp(tfm_ir::CmpOp::Sgt, x, z);
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let h1 = b.malloc_const(64);
            b.br(j);
            b.switch_to_block(e);
            let h2 = b.malloc_const(128);
            b.br(j);
            b.switch_to_block(j);
            phi = b.phi(Type::Ptr, &[(t, h1), (e, h2)]);
            b.ret(Some(z));
        }
        let pt = PointsTo::compute(m.function(id));
        assert_eq!(pt.class(phi), MemClass::Heap);
    }

    #[test]
    fn select_joins_arm_classes() {
        // heap/heap stays Heap; heap/localized degrades to Unknown (and so
        // stays conservatively guarded).
        let (pt, v) = classify(|b| {
            let x = b.param(1);
            let z = b.iconst(Type::I64, 0);
            let c = b.icmp(tfm_ir::CmpOp::Sgt, x, z);
            let h1 = b.malloc_const(64);
            let h2 = b.malloc_const(64);
            let same = b.select(c, h1, h2);
            let loc = b.intrinsic(Intrinsic::GuardRead, vec![h1]);
            let mixed = b.select(c, h1, loc);
            vec![same, mixed]
        });
        assert_eq!(pt.class(v[0]), MemClass::Heap);
        assert_eq!(pt.class(v[1]), MemClass::Unknown);
    }

    #[test]
    fn gep_and_cast_chains_pin_through_phi() {
        // gep(cast(phi(heap, heap))) — class survives the whole chain.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let (chain, locchain);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            let x = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let c = b.icmp(tfm_ir::CmpOp::Sgt, x, z);
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let h1 = b.malloc_const(64);
            b.br(j);
            b.switch_to_block(e);
            let h2 = b.malloc_const(64);
            b.br(j);
            b.switch_to_block(j);
            let phi = b.phi(Type::Ptr, &[(t, h1), (e, h2)]);
            let as_int = b.cast(CastOp::PtrToInt, phi, Type::I64);
            let back = b.cast(CastOp::IntToPtr, as_int, Type::Ptr);
            chain = b.gep(back, x, 8, 16);
            // Localized custody also survives gep/cast chains.
            let g = b.intrinsic(Intrinsic::GuardRead, vec![chain]);
            let gi = b.cast(CastOp::PtrToInt, g, Type::I64);
            let gb = b.cast(CastOp::IntToPtr, gi, Type::Ptr);
            locchain = b.gep(gb, x, 8, 0);
            b.ret(Some(z));
        }
        let pt = PointsTo::compute(m.function(id));
        assert_eq!(pt.class(chain), MemClass::Heap);
        assert_eq!(pt.class(locchain), MemClass::Localized);
    }

    #[test]
    fn unknown_provenance_param_chains_stay_guarded() {
        // A pointer parameter pushed through gep/cast/binary chains must
        // remain conservatively guarded: its provenance is unknowable.
        let (pt, v) = classify(|b| {
            let p = b.param(0);
            let i = b.param(1);
            let g1 = b.gep(p, i, 8, 0);
            let as_int = b.cast(CastOp::PtrToInt, g1, Type::I64);
            let off = b.binop(BinOp::Add, as_int, i);
            let back = b.cast(CastOp::IntToPtr, off, Type::Ptr);
            let g2 = b.gep(back, i, 1, -4);
            vec![g2]
        });
        assert_eq!(pt.class(v[0]), MemClass::Unknown);
    }

    #[test]
    fn join_laws() {
        use MemClass::*;
        for a in [NonPtr, Heap, Stack, Global, Localized, Unknown] {
            assert_eq!(a.join(a), a);
            assert_eq!(a.join(NonPtr), a);
            assert_eq!(NonPtr.join(a), a);
            assert_eq!(a.join(Unknown), Unknown);
            for b in [Heap, Stack, Global, Localized] {
                if a != b && a != NonPtr {
                    assert_eq!(a.join(b), Unknown);
                }
            }
        }
    }
}
