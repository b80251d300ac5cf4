//! Instruction kinds, operators and intrinsics.

use crate::entities::{Block, FuncId, GlobalId, Value};
use crate::types::Type;
use std::fmt;

/// Integer and floating-point binary operators.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Integer add (wrapping).
    Add,
    /// Integer subtract (wrapping).
    Sub,
    /// Integer multiply (wrapping).
    Mul,
    /// Signed integer divide.
    Sdiv,
    /// Unsigned integer divide.
    Udiv,
    /// Signed remainder.
    Srem,
    /// Unsigned remainder.
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
    /// Floating add.
    Fadd,
    /// Floating subtract.
    Fsub,
    /// Floating multiply.
    Fmul,
    /// Floating divide.
    Fdiv,
}

impl BinOp {
    /// True for the floating-point operators.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv)
    }
}

spelled! {
    BinOp,
    /// Operator mnemonic used by the printer.
    fn mnemonic {
        Add => "add",
        Sub => "sub",
        Mul => "mul",
        Sdiv => "sdiv",
        Udiv => "udiv",
        Srem => "srem",
        Urem => "urem",
        And => "and",
        Or => "or",
        Xor => "xor",
        Shl => "shl",
        Lshr => "lshr",
        Ashr => "ashr",
        Fadd => "fadd",
        Fsub => "fsub",
        Fmul => "fmul",
        Fdiv => "fdiv",
    }
}

/// Integer comparison predicates. Comparisons produce an `i64` 0/1.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
}

spelled! {
    CmpOp,
    /// Predicate mnemonic used by the printer.
    fn mnemonic {
        Eq => "eq",
        Ne => "ne",
        Slt => "slt",
        Sle => "sle",
        Sgt => "sgt",
        Sge => "sge",
        Ult => "ult",
        Ule => "ule",
        Ugt => "ugt",
        Uge => "uge",
    }
}

/// Floating-point comparison predicates (ordered only).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FCmpOp {
    /// Ordered equal.
    Oeq,
    /// Ordered not-equal.
    One,
    /// Ordered less-than.
    Olt,
    /// Ordered less-or-equal.
    Ole,
    /// Ordered greater-than.
    Ogt,
    /// Ordered greater-or-equal.
    Oge,
}

spelled! {
    FCmpOp,
    /// Predicate mnemonic used by the printer.
    fn mnemonic {
        Oeq => "oeq",
        One => "one",
        Olt => "olt",
        Ole => "ole",
        Ogt => "ogt",
        Oge => "oge",
    }
}

/// Value casts.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CastOp {
    /// Zero-extend a narrower integer.
    Zext,
    /// Sign-extend a narrower integer.
    Sext,
    /// Truncate a wider integer.
    Trunc,
    /// Reinterpret an integer as a pointer.
    IntToPtr,
    /// Reinterpret a pointer as an integer.
    PtrToInt,
    /// Signed integer to float.
    SiToFp,
    /// Float to signed integer (truncating).
    FpToSi,
    /// Bit-identical reinterpretation between same-width types.
    Bitcast,
}

spelled! {
    CastOp,
    /// Cast mnemonic used by the printer.
    fn mnemonic {
        Zext => "zext",
        Sext => "sext",
        Trunc => "trunc",
        IntToPtr => "inttoptr",
        PtrToInt => "ptrtoint",
        SiToFp => "sitofp",
        FpToSi => "fptosi",
        Bitcast => "bitcast",
    }
}

/// Runtime intrinsics.
///
/// These model the libc allocation entry points plus the hooks that the
/// TrackFM compiler injects (guards, loop chunking, prefetch, runtime
/// initialization), per §3 of the paper. The simulator gives each one its
/// operational semantics and cycle cost.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Intrinsic {
    /// `malloc(size) -> ptr` — libc allocation (pre-transform).
    Malloc,
    /// `calloc(n, size) -> ptr` — zeroed allocation (pre-transform).
    Calloc,
    /// `realloc(ptr, size) -> ptr` (pre-transform).
    Realloc,
    /// `free(ptr)` (pre-transform).
    Free,
    /// `tfm.alloc(size) -> ptr` — TrackFM-managed allocation returning a
    /// non-canonical pointer (post libc-transform, §3.1).
    TfmAlloc,
    /// `tfm.calloc(n, size) -> ptr` — zeroed TrackFM allocation.
    TfmCalloc,
    /// `tfm.realloc(ptr, size) -> ptr` — TrackFM reallocation.
    TfmRealloc,
    /// `tfm.free(ptr)` — release TrackFM-managed memory.
    TfmFree,
    /// `tfm.runtime.init()` — inserted in `main` by the runtime
    /// initialization pass (§3.1).
    RuntimeInit,
    /// `tfm.guard.read(ptr) -> ptr` — full guard before a load (Fig. 4):
    /// custody check, state-table lookup, fast or slow path; returns a
    /// canonical localized pointer.
    GuardRead,
    /// `tfm.guard.write(ptr) -> ptr` — full guard before a store.
    GuardWrite,
    /// `tfm.chunk.begin(ptr, flags) -> handle` — set up a loop-chunking
    /// stream over a TrackFM pointer (Fig. 5). Flag bit 0 = write intent,
    /// bit 1 = enable stride prefetching.
    ChunkBegin,
    /// `tfm.chunk.deref(handle, ptr) -> ptr` — object-boundary check: cheap
    /// when `ptr` stays within the pinned object, locality-invariant guard at
    /// boundaries.
    ChunkDeref,
    /// `tfm.chunk.end(handle)` — unpin the stream's current object.
    ChunkEnd,
    /// `tfm.prefetch(ptr)` — asynchronous localization hint.
    Prefetch,
    /// `memcpy(dst, src, n)`.
    Memcpy,
    /// `memset(dst, byte, n)`.
    Memset,
}

impl Intrinsic {
    /// `(parameter types, return type)` for verification.
    pub fn signature(self) -> (&'static [Type], Option<Type>) {
        use Type::*;
        match self {
            Intrinsic::Malloc => (&[I64], Some(Ptr)),
            Intrinsic::Calloc => (&[I64, I64], Some(Ptr)),
            Intrinsic::Realloc => (&[Ptr, I64], Some(Ptr)),
            Intrinsic::Free => (&[Ptr], None),
            Intrinsic::TfmAlloc => (&[I64], Some(Ptr)),
            Intrinsic::TfmCalloc => (&[I64, I64], Some(Ptr)),
            Intrinsic::TfmRealloc => (&[Ptr, I64], Some(Ptr)),
            Intrinsic::TfmFree => (&[Ptr], None),
            Intrinsic::RuntimeInit => (&[], None),
            Intrinsic::GuardRead => (&[Ptr], Some(Ptr)),
            Intrinsic::GuardWrite => (&[Ptr], Some(Ptr)),
            Intrinsic::ChunkBegin => (&[Ptr, I64], Some(I64)),
            Intrinsic::ChunkDeref => (&[I64, Ptr], Some(Ptr)),
            Intrinsic::ChunkEnd => (&[I64], None),
            Intrinsic::Prefetch => (&[Ptr], None),
            Intrinsic::Memcpy => (&[Ptr, Ptr, I64], None),
            Intrinsic::Memset => (&[Ptr, I64, I64], None),
        }
    }

    /// True for the guard intrinsics injected by the guard transform.
    pub fn is_guard(self) -> bool {
        matches!(self, Intrinsic::GuardRead | Intrinsic::GuardWrite)
    }
}

spelled! {
    Intrinsic,
    /// The intrinsic's symbolic name, as shown by the printer.
    fn name {
        Malloc => "malloc",
        Calloc => "calloc",
        Realloc => "realloc",
        Free => "free",
        TfmAlloc => "tfm.alloc",
        TfmCalloc => "tfm.calloc",
        TfmRealloc => "tfm.realloc",
        TfmFree => "tfm.free",
        RuntimeInit => "tfm.runtime.init",
        GuardRead => "tfm.guard.read",
        GuardWrite => "tfm.guard.write",
        ChunkBegin => "tfm.chunk.begin",
        ChunkDeref => "tfm.chunk.deref",
        ChunkEnd => "tfm.chunk.end",
        Prefetch => "tfm.prefetch",
        Memcpy => "memcpy",
        Memset => "memset",
    }
}

impl fmt::Display for Intrinsic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Flag bit for [`Intrinsic::ChunkBegin`]: the stream will be written.
pub const CHUNK_FLAG_WRITE: i64 = 1;
/// Flag bit for [`Intrinsic::ChunkBegin`]: enable stride prefetching.
pub const CHUNK_FLAG_PREFETCH: i64 = 2;

/// An instruction.
///
/// SSA results are identified by the instruction's own [`Value`] id; the
/// instruction's result type lives in [`crate::InstData::ty`].
#[derive(Clone, PartialEq, Debug)]
pub enum InstKind {
    /// Tombstone left behind by passes that delete instructions.
    Nop,
    /// The `n`-th function parameter (materialized in the entry block).
    Param(u16),
    /// Integer constant (value stored sign-extended to i64).
    ConstInt(i64),
    /// Floating-point constant.
    ConstFloat(f64),
    /// Binary arithmetic/logic.
    Binary(BinOp, Value, Value),
    /// Integer comparison producing i64 0/1.
    Icmp(CmpOp, Value, Value),
    /// Float comparison producing i64 0/1.
    Fcmp(FCmpOp, Value, Value),
    /// Value cast.
    Cast(CastOp, Value),
    /// Static stack slot of `size` bytes; yields a pointer.
    Alloca {
        /// Slot size in bytes.
        size: u32,
        /// Slot alignment in bytes.
        align: u32,
    },
    /// Typed load through a pointer.
    Load {
        /// Address operand.
        ptr: Value,
    },
    /// Typed store through a pointer.
    Store {
        /// Address operand.
        ptr: Value,
        /// Value operand.
        val: Value,
    },
    /// Address computation: `base + index * scale + disp`.
    Gep {
        /// Base pointer.
        base: Value,
        /// Element index (i64).
        index: Value,
        /// Element stride in bytes.
        scale: u32,
        /// Constant byte displacement.
        disp: i64,
    },
    /// Direct call to a module function.
    Call {
        /// Callee.
        func: FuncId,
        /// Argument values.
        args: Vec<Value>,
    },
    /// Call to a runtime intrinsic.
    IntrinsicCall {
        /// Which intrinsic.
        intr: Intrinsic,
        /// Argument values.
        args: Vec<Value>,
    },
    /// Address of a module global.
    GlobalAddr(GlobalId),
    /// SSA merge: `(predecessor block, incoming value)` pairs.
    Phi(Vec<(Block, Value)>),
    /// Two-way select: `cond != 0 ? tval : fval`.
    Select {
        /// Condition (integer).
        cond: Value,
        /// Value when true.
        tval: Value,
        /// Value when false.
        fval: Value,
    },
    /// Unconditional branch.
    Br(Block),
    /// Conditional branch on `cond != 0`.
    CondBr {
        /// Condition (integer).
        cond: Value,
        /// Target when true.
        then_bb: Block,
        /// Target when false.
        else_bb: Block,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Marks unreachable control flow.
    Unreachable,
}

impl InstKind {
    /// True for block terminators.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Br(_) | InstKind::CondBr { .. } | InstKind::Ret(_) | InstKind::Unreachable
        )
    }

    /// True if the instruction has side effects (cannot be removed even when
    /// its result is unused).
    pub fn has_side_effects(&self) -> bool {
        match self {
            InstKind::Store { .. } | InstKind::Call { .. } | InstKind::IntrinsicCall { .. } => true,
            k => k.is_terminator(),
        }
    }

    /// Invokes `f` on every value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Nop
            | InstKind::Param(_)
            | InstKind::ConstInt(_)
            | InstKind::ConstFloat(_)
            | InstKind::Alloca { .. }
            | InstKind::GlobalAddr(_)
            | InstKind::Br(_)
            | InstKind::Unreachable => {}
            InstKind::Binary(_, a, b) | InstKind::Icmp(_, a, b) | InstKind::Fcmp(_, a, b) => {
                f(*a);
                f(*b);
            }
            InstKind::Cast(_, v) | InstKind::Load { ptr: v } => f(*v),
            InstKind::Store { ptr, val } => {
                f(*ptr);
                f(*val);
            }
            InstKind::Gep { base, index, .. } => {
                f(*base);
                f(*index);
            }
            InstKind::Call { args, .. } | InstKind::IntrinsicCall { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            InstKind::Phi(incs) => {
                for (_, v) in incs {
                    f(*v);
                }
            }
            InstKind::Select { cond, tval, fval } => {
                f(*cond);
                f(*tval);
                f(*fval);
            }
            InstKind::CondBr { cond, .. } => f(*cond),
            InstKind::Ret(v) => {
                if let Some(v) = v {
                    f(*v);
                }
            }
        }
    }

    /// Invokes `f` with a mutable reference to every value operand
    /// (used by `replace_all_uses`).
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            InstKind::Nop
            | InstKind::Param(_)
            | InstKind::ConstInt(_)
            | InstKind::ConstFloat(_)
            | InstKind::Alloca { .. }
            | InstKind::GlobalAddr(_)
            | InstKind::Br(_)
            | InstKind::Unreachable => {}
            InstKind::Binary(_, a, b) | InstKind::Icmp(_, a, b) | InstKind::Fcmp(_, a, b) => {
                f(a);
                f(b);
            }
            InstKind::Cast(_, v) | InstKind::Load { ptr: v } => f(v),
            InstKind::Store { ptr, val } => {
                f(ptr);
                f(val);
            }
            InstKind::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            InstKind::Call { args, .. } | InstKind::IntrinsicCall { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            InstKind::Phi(incs) => {
                for (_, v) in incs {
                    f(v);
                }
            }
            InstKind::Select { cond, tval, fval } => {
                f(cond);
                f(tval);
                f(fval);
            }
            InstKind::CondBr { cond, .. } => f(cond),
            InstKind::Ret(v) => {
                if let Some(v) = v {
                    f(v);
                }
            }
        }
    }

    /// Successor blocks of a terminator (empty for non-terminators).
    pub fn successors(&self) -> Vec<Block> {
        match self {
            InstKind::Br(b) => vec![*b],
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            _ => Vec::new(),
        }
    }

    /// Invokes `f` with a mutable reference to every successor block of a
    /// terminator (used by CFG edits).
    pub fn for_each_successor_mut(&mut self, mut f: impl FnMut(&mut Block)) {
        match self {
            InstKind::Br(b) => f(b),
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => {
                f(then_bb);
                f(else_bb);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(InstKind::Br(Block(0)).is_terminator());
        assert!(InstKind::Ret(None).is_terminator());
        assert!(InstKind::Unreachable.is_terminator());
        assert!(!InstKind::ConstInt(3).is_terminator());
        assert!(!InstKind::Load { ptr: Value(0) }.is_terminator());
    }

    #[test]
    fn side_effects() {
        assert!(InstKind::Store {
            ptr: Value(0),
            val: Value(1)
        }
        .has_side_effects());
        assert!(InstKind::IntrinsicCall {
            intr: Intrinsic::Free,
            args: vec![Value(0)]
        }
        .has_side_effects());
        assert!(!InstKind::Binary(BinOp::Add, Value(0), Value(1)).has_side_effects());
        assert!(!InstKind::Load { ptr: Value(0) }.has_side_effects());
    }

    #[test]
    fn operand_iteration_matches_mutation() {
        let kinds = vec![
            InstKind::Binary(BinOp::Add, Value(1), Value(2)),
            InstKind::Store {
                ptr: Value(3),
                val: Value(4),
            },
            InstKind::Gep {
                base: Value(5),
                index: Value(6),
                scale: 8,
                disp: 0,
            },
            InstKind::Phi(vec![(Block(0), Value(7)), (Block(1), Value(8))]),
            InstKind::Select {
                cond: Value(9),
                tval: Value(10),
                fval: Value(11),
            },
            InstKind::Ret(Some(Value(12))),
            InstKind::IntrinsicCall {
                intr: Intrinsic::Memcpy,
                args: vec![Value(13), Value(14), Value(15)],
            },
        ];
        for mut k in kinds {
            let mut seen = Vec::new();
            k.for_each_operand(|v| seen.push(v));
            let mut seen_mut = Vec::new();
            k.for_each_operand_mut(|v| seen_mut.push(*v));
            assert_eq!(seen, seen_mut);
            assert!(!seen.is_empty());
        }
    }

    #[test]
    fn successors() {
        assert_eq!(InstKind::Br(Block(2)).successors(), vec![Block(2)]);
        assert_eq!(
            InstKind::CondBr {
                cond: Value(0),
                then_bb: Block(1),
                else_bb: Block(2)
            }
            .successors(),
            vec![Block(1), Block(2)]
        );
        assert!(InstKind::Ret(None).successors().is_empty());
    }

    #[test]
    fn intrinsic_signatures_are_consistent() {
        for intr in [
            Intrinsic::Malloc,
            Intrinsic::Calloc,
            Intrinsic::Realloc,
            Intrinsic::Free,
            Intrinsic::TfmAlloc,
            Intrinsic::TfmCalloc,
            Intrinsic::TfmRealloc,
            Intrinsic::TfmFree,
            Intrinsic::RuntimeInit,
            Intrinsic::GuardRead,
            Intrinsic::GuardWrite,
            Intrinsic::ChunkBegin,
            Intrinsic::ChunkDeref,
            Intrinsic::ChunkEnd,
            Intrinsic::Prefetch,
            Intrinsic::Memcpy,
            Intrinsic::Memset,
        ] {
            let (params, _ret) = intr.signature();
            assert!(params.len() <= 3, "{intr} has too many params");
            assert!(!intr.name().is_empty());
        }
        assert!(Intrinsic::GuardRead.is_guard());
        assert!(!Intrinsic::ChunkDeref.is_guard());
    }
}
