//! The flattened register-bytecode execution engine.
//!
//! [`lower_module`] compiles each IR function once into a dense array of
//! [`Bc`] instructions: operand slots pre-resolved to frame-relative
//! register indices (an SSA value's arena index *is* its register), block
//! targets resolved to instruction offsets, guard/chunk intrinsics given
//! dedicated opcodes carrying their prebuilt [`SiteKey`]s, and constants
//! pooled and deduplicated by bit pattern. The dispatch loop in this module
//! is the one engine behind [`Machine::run`]; the tree-walking interpreter
//! it replaced survives only as the test reference (`oracle` feature).
//!
//! ## The bit-identity contract
//!
//! Everything the simulation *measures* must be unchanged: the lowering is
//! one bytecode instruction per IR instruction (phis and params lower to
//! [`Bc::Retire`] no-ops) so `stats.instructions` and fuel accounting
//! retire in the same order; every cycle charge, memory-system call,
//! telemetry probe and sanitizer shadow update is sequenced exactly as the
//! tree-walker sequences it. The two differ only in real wall-clock
//! time: no per-call register `Vec`, no per-edge update `Vec`, no operand
//! re-decoding, and the whole guard path compiled down to one `Copy` match
//! arm. `tests/random_programs.rs` locks them together over a 200-seed
//! differential corpus.

use crate::machine::{exec_binop, exec_cast, exec_fcmp, exec_icmp, kill_custody, shadow, Machine};
use crate::memsys::{MemorySystem, GLOBAL_BASE, STACK_BASE};
use crate::trap::Trap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;
use tfm_ir::{
    BinOp, Block, CastOp, CmpOp, FCmpOp, FuncId, Function, InstKind, Intrinsic, Module, Type,
};
use tfm_telemetry::SiteKey;

/// Sentinel register meaning "no value" (void `ret`).
const NO_REG: u32 = u32::MAX;

/// One flattened instruction. Operands are frame-relative register slots;
/// control-flow targets are instruction offsets into the owning function's
/// code array. `Copy` and at most 32 bytes, so dispatch never chases a
/// pointer.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Bc {
    /// Retired-only instruction (phi/param/nop): counts against
    /// `stats.instructions` and fuel exactly like the tree-walker's no-op
    /// arm, but moves no data (phis move on edges, params at call entry).
    Retire,
    /// `dst = pool[idx]` — a pooled constant (int or float bit pattern).
    Const {
        /// Destination register.
        dst: u32,
        /// Constant-pool index.
        idx: u32,
    },
    /// Integer/float binary op.
    Bin {
        /// Operator.
        op: BinOp,
        /// Result type (masking/sign-extension width).
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// Integer compare. `ty` is the *operand* type, as in the tree-walker.
    Icmp {
        /// Comparison predicate.
        op: CmpOp,
        /// Operand type (unsigned predicates mask to this width).
        ty: Type,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// Float compare.
    Fcmp {
        /// Comparison predicate.
        op: FCmpOp,
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// Width/representation cast, both types pre-resolved.
    Cast {
        /// Cast operator.
        op: CastOp,
        /// Source type.
        from: Type,
        /// Destination type.
        to: Type,
        /// Destination register.
        dst: u32,
        /// Operand register.
        a: u32,
    },
    /// Stack allocation.
    Alloca {
        /// Destination register (receives the stack address).
        dst: u32,
        /// Size in bytes.
        size: u32,
        /// Alignment in bytes.
        align: u32,
    },
    /// Memory load of `ty` through the pointer in `ptr`.
    Load {
        /// Destination register.
        dst: u32,
        /// Pointer register.
        ptr: u32,
        /// Loaded type.
        ty: Type,
    },
    /// Memory store of `ty` through the pointer in `ptr`.
    Store {
        /// Pointer register.
        ptr: u32,
        /// Value register.
        val: u32,
        /// Stored type.
        ty: Type,
    },
    /// `dst = base + index * scale + disp` (pointer arithmetic).
    Gep {
        /// Destination register.
        dst: u32,
        /// Base pointer register.
        base: u32,
        /// Index register.
        index: u32,
        /// Element scale in bytes.
        scale: u32,
        /// Constant displacement in bytes.
        disp: i64,
    },
    /// Direct call: `nargs` argument slots start at `args` in the shared
    /// argument pool; they are copied straight into the callee's frame.
    Call {
        /// Destination register (receives the return value).
        dst: u32,
        /// Callee function index.
        func: u32,
        /// Start offset into [`Program::arg_pool`].
        args: u32,
        /// Argument count.
        nargs: u16,
    },
    /// Dedicated guard opcode (`tfm.guard.read` / `tfm.guard.write`) with
    /// its site label prebuilt.
    Guard {
        /// Destination register (the guarded pointer result).
        dst: u32,
        /// Guarded pointer register.
        ptr: u32,
        /// Write guard (`tfm.guard.write`) vs read guard.
        write: bool,
        /// Attribution site (packed function/value key).
        site: SiteKey,
    },
    /// Dedicated chunk-dereference opcode with its site label prebuilt.
    ChunkDeref {
        /// Destination register.
        dst: u32,
        /// Chunk handle register.
        handle: u32,
        /// Pointer register.
        ptr: u32,
        /// Attribution site (packed function/value key).
        site: SiteKey,
    },
    /// Any other intrinsic (alloc/free/chunk begin/end/memcpy/...).
    Intr {
        /// Destination register.
        dst: u32,
        /// The intrinsic.
        intr: Intrinsic,
        /// Start offset into [`Program::arg_pool`].
        args: u32,
        /// Argument count (≤ 3 by the intrinsic signatures).
        nargs: u16,
        /// Attribution site (packed function/value key).
        site: SiteKey,
    },
    /// Address of a global data object.
    GlobalAddr {
        /// Destination register.
        dst: u32,
        /// Global index (offset resolved against the machine's layout).
        global: u32,
    },
    /// Conditional move.
    Select {
        /// Destination register.
        dst: u32,
        /// Condition register.
        cond: u32,
        /// Register taken when the condition is nonzero.
        tval: u32,
        /// Register taken when the condition is zero.
        fval: u32,
    },
    /// Unconditional branch to instruction offset `target`, applying the
    /// phi copies of `edge` on the way.
    Jump {
        /// Target instruction offset.
        target: u32,
        /// Edge record index ([`Program::edges`]).
        edge: u32,
    },
    /// Conditional branch; each side carries its own resolved offset and
    /// edge record.
    Branch {
        /// Condition register.
        cond: u32,
        /// Instruction offset when the condition is nonzero.
        then_target: u32,
        /// Instruction offset when the condition is zero.
        else_target: u32,
        /// Edge record for the taken-then case.
        then_edge: u32,
        /// Edge record for the taken-else case.
        else_edge: u32,
    },
    /// Function return; `val == u32::MAX` returns 0 (void).
    Ret {
        /// Returned register, or `u32::MAX` for none.
        val: u32,
    },
    /// `unreachable` executed.
    Halt,
    // ------------------------------------------------------------------
    // Fused superinstructions, produced by the peephole pass
    // (`fuse_function`). Each carries the *first* constituent's operands;
    // the second constituent stays in the stream at `pc + 1` — still a
    // valid branch target, still disassembled, still owning its `pos`
    // entry — and is executed in the same dispatch. Retirement order,
    // cycle charges and trap points are bit-identical to the unfused
    // pair; only the dispatch count changes.
    // ------------------------------------------------------------------
    /// [`Bc::Gep`] immediately followed by [`Bc::Load`].
    GepLoad {
        /// Destination register of the address computation.
        dst: u32,
        /// Base pointer register.
        base: u32,
        /// Index register.
        index: u32,
        /// Element scale in bytes.
        scale: u32,
        /// Constant displacement in bytes.
        disp: i64,
    },
    /// [`Bc::Gep`] immediately followed by [`Bc::Store`].
    GepStore {
        /// Destination register of the address computation.
        dst: u32,
        /// Base pointer register.
        base: u32,
        /// Index register.
        index: u32,
        /// Element scale in bytes.
        scale: u32,
        /// Constant displacement in bytes.
        disp: i64,
    },
    /// [`Bc::Icmp`] immediately followed by [`Bc::Branch`].
    IcmpBranch {
        /// Comparison predicate.
        op: CmpOp,
        /// Operand type of the compare.
        ty: Type,
        /// Destination register of the compare.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// A run of `n ≥ 2` consecutive [`Bc::Retire`]s (phi/param blocks),
    /// retired in one dispatch with per-constituent fuel checks.
    RetireRun {
        /// Run length, first retire included.
        n: u32,
    },
    // ------------------------------------------------------------------
    // Specialized ALU opcodes, produced by the lowering-time
    // `specialize_function` pass for full-width (`I64`/`Ptr`) operations
    // whose generic semantics reduce to a single machine op: the
    // (operator, type) pair is resolved once at lowering instead of
    // re-dispatched through `exec_binop`'s operator match and
    // mask/sign-extension on every execution. Semantics are bit-identical
    // to the generic [`Bc::Bin`] by construction (no masking at 64 bits).
    // ------------------------------------------------------------------
    /// `dst = a + b` (wrapping, 64-bit).
    Add64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a - b` (wrapping, 64-bit).
    Sub64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a * b` (wrapping, 64-bit).
    Mul64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a & b`.
    And64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a | b`.
    Or64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a ^ b`.
    Xor64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
    /// `dst = a << (b & 63)` (64-bit).
    Shl64 {
        /// Destination register.
        dst: u32,
        /// Left operand register.
        a: u32,
        /// Right operand register.
        b: u32,
    },
}

/// One lowered control-flow edge: the phi parallel-copy list plus the
/// `(from, to)` block pair for edge profiling.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct EdgeInfo {
    /// Start offset into [`Program::copy_pool`].
    pub copies: u32,
    /// Number of `(dst, src)` copies on this edge.
    pub ncopies: u32,
    /// Source block index.
    pub from: u32,
    /// Destination block index.
    pub to: u32,
}

/// One lowered function.
#[derive(Clone, Debug)]
pub struct BcFunc {
    /// Function name (disassembly only).
    pub name: String,
    /// Flattened code, one [`Bc`] per IR instruction in block order.
    pub code: Vec<Bc>,
    /// `(block index, IR value index)` for each code offset — resolves
    /// trap positions and labels the disassembly. Parallel to `code`.
    pub pos: Vec<(u32, u32)>,
    /// Instruction offset of each block's first instruction (empty blocks
    /// share the following block's offset).
    pub block_offsets: Vec<u32>,
    /// Register-file size (the IR value arena size, tombstones included).
    pub nregs: u32,
    /// Entry block index.
    pub entry: u32,
    /// Block count (profiling).
    pub nblocks: u32,
}

/// A fully lowered module: per-function code plus the shared constant,
/// argument-slot and phi-copy pools.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Lowered functions, indexed by [`FuncId`].
    pub funcs: Vec<BcFunc>,
    /// Deduplicated constants (raw 64-bit patterns; `ConstInt` stores the
    /// sign-extended integer, `ConstFloat` the IEEE bits).
    pub pool: Vec<u64>,
    /// Call/intrinsic argument register slots.
    pub arg_pool: Vec<u32>,
    /// Phi parallel-copy `(dst, src)` register pairs.
    pub copy_pool: Vec<(u32, u32)>,
    /// Edge records referenced by [`Bc::Jump`]/[`Bc::Branch`].
    pub edges: Vec<EdgeInfo>,
}

impl Program {
    /// Total lowered instruction count across all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

/// Flattens every function of `module` into register bytecode.
pub fn lower_module(module: &Module) -> Program {
    let mut prog = Program::default();
    let mut pool_index: HashMap<u64, u32> = HashMap::new();
    for (fid, f) in module.functions() {
        let bf = lower_function(fid, f, &mut prog, &mut pool_index);
        prog.funcs.push(bf);
    }
    prog
}

/// Interns `bits` into the constant pool, deduplicating by bit pattern.
fn intern_const(bits: u64, prog: &mut Program, pool_index: &mut HashMap<u64, u32>) -> u32 {
    *pool_index.entry(bits).or_insert_with(|| {
        prog.pool.push(bits);
        (prog.pool.len() - 1) as u32
    })
}

/// Lowers one edge: collects the target block's phi copies for `from` (in
/// block order, read-all-then-write-all at runtime) and records the block
/// pair for profiling.
fn lower_edge(f: &Function, from: Block, to: Block, prog: &mut Program) -> u32 {
    let start = prog.copy_pool.len() as u32;
    for &v in f.block_insts(to) {
        match f.kind(v) {
            InstKind::Phi(incs) => {
                if let Some((_, iv)) = incs.iter().find(|(p, _)| *p == from) {
                    prog.copy_pool.push((v.0, iv.0));
                }
            }
            InstKind::Param(_) => continue,
            _ => break,
        }
    }
    let ncopies = prog.copy_pool.len() as u32 - start;
    prog.edges.push(EdgeInfo {
        copies: start,
        ncopies,
        from: from.0,
        to: to.0,
    });
    (prog.edges.len() - 1) as u32
}

fn lower_function(
    fid: FuncId,
    f: &Function,
    prog: &mut Program,
    pool_index: &mut HashMap<u64, u32>,
) -> BcFunc {
    // First pass: block offsets. One bytecode instruction per IR
    // instruction, so an offset is the running sum of block lengths.
    let mut block_offsets = Vec::with_capacity(f.num_blocks());
    let mut off = 0u32;
    for b in f.blocks() {
        block_offsets.push(off);
        off += f.block_insts(b).len() as u32;
    }

    let mut code = Vec::with_capacity(off as usize);
    let mut pos = Vec::with_capacity(off as usize);
    for b in f.blocks() {
        for &v in f.block_insts(b) {
            let dst = v.0;
            let op = match f.kind(v) {
                InstKind::Nop | InstKind::Param(_) | InstKind::Phi(_) => Bc::Retire,
                InstKind::ConstInt(c) => Bc::Const {
                    dst,
                    idx: intern_const(*c as u64, prog, pool_index),
                },
                InstKind::ConstFloat(c) => Bc::Const {
                    dst,
                    idx: intern_const(c.to_bits(), prog, pool_index),
                },
                InstKind::Binary(op, a, b) => Bc::Bin {
                    op: *op,
                    ty: f.ty(v).unwrap_or(Type::I64),
                    dst,
                    a: a.0,
                    b: b.0,
                },
                InstKind::Icmp(op, a, b) => Bc::Icmp {
                    op: *op,
                    ty: f.ty(*a).unwrap_or(Type::I64),
                    dst,
                    a: a.0,
                    b: b.0,
                },
                InstKind::Fcmp(op, a, b) => Bc::Fcmp {
                    op: *op,
                    dst,
                    a: a.0,
                    b: b.0,
                },
                InstKind::Cast(op, a) => Bc::Cast {
                    op: *op,
                    from: f.ty(*a).unwrap_or(Type::I64),
                    to: f.ty(v).unwrap_or(Type::I64),
                    dst,
                    a: a.0,
                },
                InstKind::Alloca { size, align } => Bc::Alloca {
                    dst,
                    size: *size,
                    align: *align,
                },
                InstKind::Load { ptr } => Bc::Load {
                    dst,
                    ptr: ptr.0,
                    ty: f.ty(v).unwrap_or(Type::I64),
                },
                InstKind::Store { ptr, val } => Bc::Store {
                    ptr: ptr.0,
                    val: val.0,
                    ty: f.ty(*val).unwrap_or(Type::I64),
                },
                InstKind::Gep {
                    base,
                    index,
                    scale,
                    disp,
                } => Bc::Gep {
                    dst,
                    base: base.0,
                    index: index.0,
                    scale: *scale,
                    disp: *disp,
                },
                InstKind::Call { func, args } => {
                    let start = prog.arg_pool.len() as u32;
                    prog.arg_pool.extend(args.iter().map(|a| a.0));
                    Bc::Call {
                        dst,
                        func: func.0,
                        args: start,
                        nargs: args.len() as u16,
                    }
                }
                InstKind::IntrinsicCall { intr, args } => {
                    let site = SiteKey::new(fid.0, v.0);
                    match intr {
                        Intrinsic::GuardRead | Intrinsic::GuardWrite if args.len() == 1 => {
                            Bc::Guard {
                                dst,
                                ptr: args[0].0,
                                write: *intr == Intrinsic::GuardWrite,
                                site,
                            }
                        }
                        Intrinsic::ChunkDeref if args.len() == 2 => Bc::ChunkDeref {
                            dst,
                            handle: args[0].0,
                            ptr: args[1].0,
                            site,
                        },
                        _ => {
                            assert!(
                                args.len() <= 3,
                                "intrinsic {intr:?} exceeds the 3-operand bytecode budget"
                            );
                            let start = prog.arg_pool.len() as u32;
                            prog.arg_pool.extend(args.iter().map(|a| a.0));
                            Bc::Intr {
                                dst,
                                intr: *intr,
                                args: start,
                                nargs: args.len() as u16,
                                site,
                            }
                        }
                    }
                }
                InstKind::GlobalAddr(g) => Bc::GlobalAddr { dst, global: g.0 },
                InstKind::Select { cond, tval, fval } => Bc::Select {
                    dst,
                    cond: cond.0,
                    tval: tval.0,
                    fval: fval.0,
                },
                InstKind::Br(target) => {
                    let edge = lower_edge(f, b, *target, prog);
                    Bc::Jump {
                        target: block_offsets[target.index()],
                        edge,
                    }
                }
                InstKind::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let then_edge = lower_edge(f, b, *then_bb, prog);
                    let else_edge = lower_edge(f, b, *else_bb, prog);
                    Bc::Branch {
                        cond: cond.0,
                        then_target: block_offsets[then_bb.index()],
                        else_target: block_offsets[else_bb.index()],
                        then_edge,
                        else_edge,
                    }
                }
                InstKind::Ret(val) => Bc::Ret {
                    val: val.map(|v| v.0).unwrap_or(NO_REG),
                },
                InstKind::Unreachable => Bc::Halt,
            };
            code.push(op);
            pos.push((b.0, v.0));
        }
    }
    specialize_function(&mut code);
    fuse_function(&mut code);
    BcFunc {
        name: f.name.clone(),
        code,
        pos,
        block_offsets,
        nregs: f.num_insts() as u32,
        entry: f.entry_block().0,
        nblocks: f.num_blocks() as u32,
    }
}

/// The ALU specialization peephole: resolves full-width (`I64`/`Ptr`)
/// binary ops whose generic semantics need no masking or sign-extension
/// into dedicated single-machine-op opcodes, collapsing `exec_binop`'s
/// two-level dispatch (opcode, then operator) into the main jump table.
/// Narrow types, divisions (trapping) and float ops keep the generic form.
fn specialize_function(code: &mut [Bc]) {
    for op in code.iter_mut() {
        if let Bc::Bin {
            op: o,
            ty: Type::I64 | Type::Ptr,
            dst,
            a,
            b,
        } = *op
        {
            *op = match o {
                BinOp::Add => Bc::Add64 { dst, a, b },
                BinOp::Sub => Bc::Sub64 { dst, a, b },
                BinOp::Mul => Bc::Mul64 { dst, a, b },
                BinOp::And => Bc::And64 { dst, a, b },
                BinOp::Or => Bc::Or64 { dst, a, b },
                BinOp::Xor => Bc::Xor64 { dst, a, b },
                BinOp::Shl => Bc::Shl64 { dst, a, b },
                _ => continue,
            };
        }
    }
}

/// The superinstruction peephole: rewrites the first instruction of each
/// recognized adjacent pair to its fused twin, and the head of each run of
/// `Retire`s to [`Bc::RetireRun`]. Second constituents (and run tails) are
/// left verbatim in the stream, so a branch landing *inside* a fused group
/// simply executes the remaining plain instructions — no target remapping,
/// and `pos` stays 1:1. Fusion never crosses a block boundary because every
/// first constituent is a non-terminator, so `pc + 1` is in the same block.
fn fuse_function(code: &mut [Bc]) {
    let mut pc = 0;
    while pc < code.len() {
        if matches!(code[pc], Bc::Retire) {
            let mut n = 1;
            while pc + n < code.len() && matches!(code[pc + n], Bc::Retire) {
                n += 1;
            }
            if n >= 2 {
                code[pc] = Bc::RetireRun { n: n as u32 };
            }
            pc += n;
            continue;
        }
        if pc + 1 == code.len() {
            break;
        }
        let fused = match (code[pc], code[pc + 1]) {
            (
                Bc::Gep {
                    dst,
                    base,
                    index,
                    scale,
                    disp,
                },
                Bc::Load { .. },
            ) => Some(Bc::GepLoad {
                dst,
                base,
                index,
                scale,
                disp,
            }),
            (
                Bc::Gep {
                    dst,
                    base,
                    index,
                    scale,
                    disp,
                },
                Bc::Store { .. },
            ) => Some(Bc::GepStore {
                dst,
                base,
                index,
                scale,
                disp,
            }),
            (Bc::Icmp { op, ty, dst, a, b }, Bc::Branch { .. }) => {
                Some(Bc::IcmpBranch { op, ty, dst, a, b })
            }
            _ => None,
        };
        if let Some(f) = fused {
            code[pc] = f;
            pc += 2;
        } else {
            pc += 1;
        }
    }
}

// ----------------------------------------------------------------------
// Execution.
// ----------------------------------------------------------------------

/// The register stack and its shadow-custody twin, threaded through the
/// dispatch loop as a dedicated borrow (never reachable through `self`), so
/// the optimizer knows machine calls cannot alias the register file and
/// keeps its base pointer in a hardware register across the loop.
struct RegStack {
    regs: Vec<u64>,
    cov: Vec<u8>,
}

impl RegStack {
    /// Reads one frame-relative register.
    ///
    /// # Safety contract (checked in debug builds)
    ///
    /// Every slot the lowering emits is an IR value-arena index of the
    /// owning function, so `slot < nregs`, and the frame window
    /// `base..base + nregs` was reserved by [`RegStack::push_frame`].
    #[inline(always)]
    fn rd(&self, base: usize, slot: u32) -> u64 {
        debug_assert!(base + (slot as usize) < self.regs.len());
        unsafe { *self.regs.get_unchecked(base + slot as usize) }
    }

    /// Writes one frame-relative register (same contract as [`Self::rd`]).
    #[inline(always)]
    fn wr(&mut self, base: usize, slot: u32, v: u64) {
        debug_assert!(base + (slot as usize) < self.regs.len());
        unsafe { *self.regs.get_unchecked_mut(base + slot as usize) = v };
    }

    /// Reads one frame-relative shadow cover (sanitize mode only).
    #[inline(always)]
    fn cov(&self, base: usize, slot: u32) -> u8 {
        debug_assert!(base + (slot as usize) < self.cov.len());
        unsafe { *self.cov.get_unchecked(base + slot as usize) }
    }

    /// Writes one frame-relative shadow cover (sanitize mode only).
    #[inline(always)]
    fn set_cov(&mut self, base: usize, slot: u32, c: u8) {
        debug_assert!(base + (slot as usize) < self.cov.len());
        unsafe { *self.cov.get_unchecked_mut(base + slot as usize) = c };
    }

    /// Reserves and zero-fills an `n`-register window at `base` (the zero
    /// fill mirrors the tree-walker's fresh `vec![0; _]` per call).
    fn push_frame<const SAN: bool>(&mut self, base: usize, n: usize) {
        let end = base + n;
        if self.regs.len() < end {
            self.regs.resize(end, 0);
        } else {
            self.regs[base..end].fill(0);
        }
        if SAN {
            if self.cov.len() < end {
                self.cov.resize(end, shadow::NONE);
            } else {
                self.cov[base..end].fill(shadow::NONE);
            }
        }
    }
}

impl<'m, M: MemorySystem> Machine<'m, M> {
    /// Entry point from [`Machine::run`]: executes `fid` in a root bytecode
    /// frame.
    pub(crate) fn run_bytecode(&mut self, fid: FuncId, args: &[u64]) -> Result<u64, Trap> {
        let prog = Rc::clone(&self.bc);
        {
            let f = self.module.function(fid);
            assert_eq!(
                args.len(),
                f.sig.params.len(),
                "argument count mismatch calling `{}`",
                f.name
            );
        }
        let mut rs = RegStack {
            regs: std::mem::take(&mut self.bc_regs),
            cov: std::mem::take(&mut self.bc_cov),
        };
        let r = if self.sanitize {
            self.root_frame::<true>(&prog, fid, args, &mut rs)
        } else {
            self.root_frame::<false>(&prog, fid, args, &mut rs)
        };
        self.bc_regs = rs.regs;
        self.bc_cov = rs.cov;
        r
    }

    /// Sets up the root frame (argument registers; no shadow custody) and
    /// runs it.
    fn root_frame<const SAN: bool>(
        &mut self,
        prog: &Program,
        fid: FuncId,
        args: &[u64],
        rs: &mut RegStack,
    ) -> Result<u64, Trap> {
        let nregs = prog.funcs[fid.index()].nregs as usize;
        rs.push_frame::<SAN>(0, nregs);
        rs.regs[..args.len()].copy_from_slice(args);
        self.exec_frame::<SAN>(prog, fid, 0, rs)
    }

    /// Applies one lowered edge: phi parallel copies (read all sources
    /// before writing any destination), then edge/block profiling — the
    /// exact sequence of the tree-walker's `take_edge`.
    #[inline(always)]
    fn take_bc_edge<const SAN: bool>(
        &mut self,
        prog: &Program,
        fid: FuncId,
        edge: u32,
        base: usize,
        nblocks: u32,
        rs: &mut RegStack,
    ) {
        let e = prog.edges[edge as usize];
        if e.ncopies > 0 {
            let start = e.copies as usize;
            let copies = &prog.copy_pool[start..start + e.ncopies as usize];
            self.bc_scratch.clear();
            for &(d, s) in copies {
                let c = if SAN { rs.cov(base, s) } else { 0 };
                self.bc_scratch.push((d, rs.rd(base, s), c));
            }
            for i in 0..self.bc_scratch.len() {
                let (d, val, c) = self.bc_scratch[i];
                rs.wr(base, d, val);
                if SAN {
                    rs.set_cov(base, d, c);
                }
            }
        }
        self.note_edge(fid, e.from, e.to);
        self.profile_block(fid, Block(e.to), nblocks as usize);
    }

    /// The dispatch loop: one frame of `fid` whose registers live at
    /// `base..base + nregs` on the shared register stack. Specialized over
    /// the sanitizer flag so the common non-sanitized path carries no
    /// shadow-state branches at all.
    ///
    /// The retired-instruction counter, simulated clock, fuel limit and
    /// cost-model charges are hoisted into locals: the tree-walker's
    /// per-instruction `self.stats` / `self.clock` read-modify-writes form
    /// serial store-to-load dependency chains that dominate its cycle
    /// budget, while locals retire as register adds. The locals are flushed
    /// back into `self` at every point where other code can observe them —
    /// memory-system calls, intrinsics, calls, returns and traps — so every
    /// observed value is bit-identical to the tree-walker's.
    //
    // `question_mark`: the explicit `match`es on call/intrinsic results are
    // deliberate — rewriting them as `?` measurably regresses the dispatch
    // loop (~0.6 ns/inst on the serving workload, reproducibly), and
    // `hot_try!` would be wrong here: its `bail!` re-flushes locals that go
    // stale once the callee has run.
    #[allow(clippy::question_mark)]
    fn exec_frame<const SAN: bool>(
        &mut self,
        prog: &Program,
        fid: FuncId,
        base: usize,
        rs: &mut RegStack,
    ) -> Result<u64, Trap> {
        let bf = &prog.funcs[fid.index()];
        let fend = base + bf.nregs as usize;
        let saved_stack = self.stack_top;
        let code = &bf.code[..];
        let mut pc = bf.block_offsets[bf.entry as usize] as usize;
        self.profile_block(fid, Block(bf.entry), bf.nblocks as usize);

        // Loop-invariant machine state, hoisted out of the dispatch loop.
        let fuel = self.fuel;
        let cost_alu = self.cost.alu;
        let cost_ls = self.cost.load_store;
        let cost_br = self.cost.branch;
        let cost_call = self.cost.call_overhead;
        // Hot counters, flushed at observation points (see above).
        let mut insts = self.stats.instructions;
        let mut clock = self.clock;

        // Writes the hot counters back into `self`.
        macro_rules! flush {
            () => {
                self.stats.instructions = insts;
                self.clock = clock;
            };
        }
        // Re-reads the hot counters after a call that may have advanced
        // them (intrinsics charge the clock; callees retire instructions).
        macro_rules! reload {
            () => {
                insts = self.stats.instructions;
                clock = self.clock;
            };
        }
        // Traps out of the frame: flush, then return the error. Only valid
        // when the counters have advanced past the last flush (a plain
        // `return Err` is required after `flush!()` + external call).
        macro_rules! bail {
            ($e:expr) => {{
                flush!();
                return Err($e);
            }};
        }
        // `?` for fallible ops charged against the hot counters.
        macro_rules! hot_try {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(e) => bail!(e),
                }
            };
        }
        // Retires the second constituent of a fused pair (the loop head
        // charged the first): the same count-then-check the tree-walker
        // performs per instruction, so fuel exhausts at the exact point.
        macro_rules! fuel_step {
            () => {
                insts += 1;
                if insts > fuel {
                    bail!(Trap::FuelExhausted);
                }
            };
        }
        // Destructures the known second constituent of a fused pair out of
        // the stream (`fuse_function` guarantees the variant).
        macro_rules! second {
            ($pat:pat => $body:expr) => {
                match unsafe { *code.get_unchecked(pc + 1) } {
                    $pat => $body,
                    _ => unreachable!("fused pair constituent"),
                }
            };
        }
        // One macro per hot op body, shared between the plain arms and the
        // fused superinstruction arms so the two spellings cannot drift.
        macro_rules! do_const {
            ($dst:expr, $idx:expr) => {
                rs.wr(base, $dst, prog.pool[$idx as usize])
            };
        }
        macro_rules! do_bin {
            ($op:expr, $ty:expr, $dst:expr, $a:expr, $b:expr) => {{
                clock += cost_alu;
                let x = rs.rd(base, $a);
                let y = rs.rd(base, $b);
                rs.wr(base, $dst, hot_try!(exec_binop($op, x, y, $ty)));
                if SAN {
                    rs.set_cov(base, $dst, rs.cov(base, $a).max(rs.cov(base, $b)));
                }
            }};
        }
        // Specialized full-width ALU body: same charge/retire sequence as
        // `do_bin`, the operator resolved at lowering time ($f infallible).
        macro_rules! do_alu64 {
            ($dst:expr, $a:expr, $b:expr, $f:expr) => {{
                clock += cost_alu;
                let x = rs.rd(base, $a);
                let y = rs.rd(base, $b);
                rs.wr(base, $dst, $f(x, y));
                if SAN {
                    rs.set_cov(base, $dst, rs.cov(base, $a).max(rs.cov(base, $b)));
                }
            }};
        }
        macro_rules! do_icmp {
            ($op:expr, $ty:expr, $dst:expr, $a:expr, $b:expr) => {{
                clock += cost_alu;
                let x = rs.rd(base, $a);
                let y = rs.rd(base, $b);
                rs.wr(base, $dst, exec_icmp($op, x, y, $ty) as u64);
            }};
        }
        macro_rules! do_gep {
            ($dst:expr, $b:expr, $index:expr, $scale:expr, $disp:expr) => {{
                clock += cost_alu;
                let bv = rs.rd(base, $b);
                let iv = rs.rd(base, $index);
                rs.wr(
                    base,
                    $dst,
                    bv.wrapping_add((iv as i64).wrapping_mul($scale as i64) as u64)
                        .wrapping_add($disp as u64),
                );
                if SAN {
                    rs.set_cov(base, $dst, rs.cov(base, $b));
                }
            }};
        }
        macro_rules! do_load {
            ($dst:expr, $ptr:expr, $ty:expr, $at:expr) => {{
                let addr = rs.rd(base, $ptr);
                let size = $ty.size() as u64;
                if SAN && rs.cov(base, $ptr) == shadow::NONE && self.is_sanitized_addr(addr) {
                    let (block, inst) = bf.pos[$at];
                    bail!(Trap::UnguardedAccess {
                        addr,
                        func: fid.0,
                        block,
                        inst,
                    });
                }
                self.stats.loads += 1;
                flush!();
                let extra = match self
                    .mem
                    .data_access(addr, size, false, clock, &mut self.stats)
                {
                    Ok(v) => v,
                    // `data_access` may have bumped stats; the
                    // pre-call flush already published the counters.
                    Err(e) => return Err(e),
                };
                insts = self.stats.instructions;
                clock += cost_ls + extra;
                let addr = self.mem.canonical(addr);
                rs.wr(base, $dst, hot_try!(self.read_mem(addr, $ty)));
            }};
        }
        macro_rules! do_store {
            ($ptr:expr, $val:expr, $ty:expr, $at:expr) => {{
                let addr = rs.rd(base, $ptr);
                let size = $ty.size() as u64;
                if SAN && rs.cov(base, $ptr) == shadow::NONE && self.is_sanitized_addr(addr) {
                    let (block, inst) = bf.pos[$at];
                    bail!(Trap::UnguardedAccess {
                        addr,
                        func: fid.0,
                        block,
                        inst,
                    });
                }
                self.stats.stores += 1;
                flush!();
                let extra = match self
                    .mem
                    .data_access(addr, size, true, clock, &mut self.stats)
                {
                    Ok(v) => v,
                    Err(e) => return Err(e),
                };
                insts = self.stats.instructions;
                clock += cost_ls + extra;
                let addr = self.mem.canonical(addr);
                hot_try!(self.write_mem(addr, rs.rd(base, $val), $ty));
            }};
        }
        // Full branch body; diverges (sets `pc` and continues the loop).
        macro_rules! do_branch {
            ($cond:expr, $tt:expr, $et:expr, $te:expr, $ee:expr) => {{
                clock += cost_br;
                let (t, e) = if rs.rd(base, $cond) != 0 {
                    ($tt, $te)
                } else {
                    ($et, $ee)
                };
                self.take_bc_edge::<SAN>(prog, fid, e, base, bf.nblocks, rs);
                pc = t as usize;
                continue;
            }};
        }

        loop {
            insts += 1;
            if insts > fuel {
                bail!(Trap::FuelExhausted);
            }
            // In-bounds: every block ends in a terminator, so `pc + 1` never
            // leaves `code`, and all branch targets are block offsets.
            debug_assert!(pc < code.len());
            match unsafe { *code.get_unchecked(pc) } {
                Bc::Retire => {}
                Bc::RetireRun { n } => {
                    // The loop head charged the first retire; the rest are
                    // retired here, fuel-checked one by one.
                    for _ in 1..n {
                        fuel_step!();
                    }
                    pc += n as usize;
                    continue;
                }
                Bc::Const { dst, idx } => do_const!(dst, idx),
                Bc::Bin { op, ty, dst, a, b } => do_bin!(op, ty, dst, a, b),
                Bc::Icmp { op, ty, dst, a, b } => do_icmp!(op, ty, dst, a, b),
                Bc::Fcmp { op, dst, a, b } => {
                    clock += cost_alu;
                    let x = f64::from_bits(rs.rd(base, a));
                    let y = f64::from_bits(rs.rd(base, b));
                    rs.wr(base, dst, exec_fcmp(op, x, y) as u64);
                }
                Bc::Cast {
                    op,
                    from,
                    to,
                    dst,
                    a,
                } => {
                    clock += cost_alu;
                    rs.wr(base, dst, exec_cast(op, rs.rd(base, a), from, to));
                    if SAN {
                        rs.set_cov(base, dst, rs.cov(base, a));
                    }
                }
                Bc::Alloca { dst, size, align } => {
                    let top = self.stack_top.next_multiple_of(align.max(1) as u64);
                    if top + size as u64 > self.stack.len() as u64 {
                        bail!(Trap::StackOverflow);
                    }
                    rs.wr(base, dst, STACK_BASE + top);
                    self.stack_top = top + size as u64;
                    if SAN {
                        rs.set_cov(base, dst, shadow::STABLE);
                    }
                }
                Bc::Load { dst, ptr, ty } => do_load!(dst, ptr, ty, pc),
                Bc::Store { ptr, val, ty } => do_store!(ptr, val, ty, pc),
                Bc::Gep {
                    dst,
                    base: b,
                    index,
                    scale,
                    disp,
                } => do_gep!(dst, b, index, scale, disp),
                Bc::GepLoad {
                    dst,
                    base: b,
                    index,
                    scale,
                    disp,
                } => {
                    do_gep!(dst, b, index, scale, disp);
                    fuel_step!();
                    second!(Bc::Load { dst, ptr, ty } => do_load!(dst, ptr, ty, pc + 1));
                    pc += 2;
                    continue;
                }
                Bc::GepStore {
                    dst,
                    base: b,
                    index,
                    scale,
                    disp,
                } => {
                    do_gep!(dst, b, index, scale, disp);
                    fuel_step!();
                    second!(Bc::Store { ptr, val, ty } => do_store!(ptr, val, ty, pc + 1));
                    pc += 2;
                    continue;
                }
                Bc::Add64 { dst, a, b } => do_alu64!(dst, a, b, u64::wrapping_add),
                Bc::Sub64 { dst, a, b } => do_alu64!(dst, a, b, u64::wrapping_sub),
                Bc::Mul64 { dst, a, b } => do_alu64!(dst, a, b, u64::wrapping_mul),
                Bc::And64 { dst, a, b } => do_alu64!(dst, a, b, |x, y| x & y),
                Bc::Or64 { dst, a, b } => do_alu64!(dst, a, b, |x, y| x | y),
                Bc::Xor64 { dst, a, b } => do_alu64!(dst, a, b, |x, y| x ^ y),
                Bc::Shl64 { dst, a, b } => {
                    do_alu64!(dst, a, b, |x: u64, y: u64| x.wrapping_shl(y as u32 & 63))
                }
                Bc::IcmpBranch { op, ty, dst, a, b } => {
                    do_icmp!(op, ty, dst, a, b);
                    fuel_step!();
                    second!(Bc::Branch { cond, then_target, else_target, then_edge, else_edge }
                        => do_branch!(cond, then_target, else_target, then_edge, else_edge));
                }
                Bc::Call {
                    dst,
                    func,
                    args,
                    nargs,
                } => {
                    clock += cost_call;
                    let callee = FuncId(func);
                    let cbase = fend;
                    // The callee's shadows start at `NONE`: no custody
                    // crosses a call.
                    rs.push_frame::<SAN>(cbase, prog.funcs[callee.index()].nregs as usize);
                    for i in 0..nargs as usize {
                        let s = prog.arg_pool[args as usize + i];
                        rs.wr(cbase, i as u32, rs.rd(base, s));
                    }
                    flush!();
                    let r = match self.exec_frame::<SAN>(prog, callee, cbase, rs) {
                        Ok(v) => v,
                        Err(e) => return Err(e),
                    };
                    reload!();
                    rs.wr(base, dst, r);
                    if SAN {
                        // Every call revokes the caller's custody; the
                        // result's shadow stays `NONE`.
                        kill_custody(&mut rs.cov[base..fend]);
                    }
                }
                Bc::Guard {
                    dst,
                    ptr,
                    write,
                    site,
                } => {
                    let p = rs.rd(base, ptr);
                    let intr = if write {
                        Intrinsic::GuardWrite
                    } else {
                        Intrinsic::GuardRead
                    };
                    flush!();
                    let r = match self.exec_intrinsic(intr, &[p], site) {
                        Ok(v) => v,
                        Err(e) => return Err(e),
                    };
                    reload!();
                    rs.wr(base, dst, r);
                    if SAN {
                        rs.set_cov(base, dst, shadow::CUSTODY);
                        if rs.cov(base, ptr) == shadow::NONE {
                            rs.set_cov(base, ptr, shadow::CUSTODY);
                        }
                    }
                }
                Bc::ChunkDeref {
                    dst,
                    handle,
                    ptr,
                    site,
                } => {
                    let h = rs.rd(base, handle);
                    let p = rs.rd(base, ptr);
                    flush!();
                    let r = match self.exec_intrinsic(Intrinsic::ChunkDeref, &[h, p], site) {
                        Ok(v) => v,
                        Err(e) => return Err(e),
                    };
                    reload!();
                    rs.wr(base, dst, r);
                    if SAN {
                        rs.set_cov(base, dst, shadow::CUSTODY);
                        if rs.cov(base, ptr) == shadow::NONE {
                            rs.set_cov(base, ptr, shadow::CUSTODY);
                        }
                    }
                }
                Bc::Intr {
                    dst,
                    intr,
                    args,
                    nargs,
                    site,
                } => {
                    let mut buf = [0u64; 3];
                    let astart = args as usize;
                    for (i, slot) in buf.iter_mut().enumerate().take(nargs as usize) {
                        *slot = rs.rd(base, prog.arg_pool[astart + i]);
                    }
                    flush!();
                    let r = match self.exec_intrinsic(intr, &buf[..nargs as usize], site) {
                        Ok(v) => v,
                        Err(e) => return Err(e),
                    };
                    reload!();
                    rs.wr(base, dst, r);
                    if SAN {
                        match intr {
                            Intrinsic::GuardRead | Intrinsic::GuardWrite => {
                                rs.set_cov(base, dst, shadow::CUSTODY);
                                if nargs >= 1 {
                                    let s = prog.arg_pool[astart];
                                    if rs.cov(base, s) == shadow::NONE {
                                        rs.set_cov(base, s, shadow::CUSTODY);
                                    }
                                }
                            }
                            Intrinsic::ChunkDeref => {
                                rs.set_cov(base, dst, shadow::CUSTODY);
                                if nargs >= 2 {
                                    let s = prog.arg_pool[astart + 1];
                                    if rs.cov(base, s) == shadow::NONE {
                                        rs.set_cov(base, s, shadow::CUSTODY);
                                    }
                                }
                            }
                            Intrinsic::Malloc | Intrinsic::Calloc => {
                                // libc allocation: only untransformed modules
                                // make one, and their accesses need no guard.
                                kill_custody(&mut rs.cov[base..fend]);
                                rs.set_cov(base, dst, shadow::STABLE);
                            }
                            _ => {
                                kill_custody(&mut rs.cov[base..fend]);
                            }
                        }
                    }
                }
                Bc::GlobalAddr { dst, global } => {
                    rs.wr(
                        base,
                        dst,
                        GLOBAL_BASE + self.global_offsets[global as usize],
                    );
                    if SAN {
                        rs.set_cov(base, dst, shadow::STABLE);
                    }
                }
                Bc::Select {
                    dst,
                    cond,
                    tval,
                    fval,
                } => {
                    clock += cost_alu;
                    let taken = if rs.rd(base, cond) != 0 { tval } else { fval };
                    rs.wr(base, dst, rs.rd(base, taken));
                    if SAN {
                        rs.set_cov(base, dst, rs.cov(base, taken));
                    }
                }
                Bc::Jump { target, edge } => {
                    clock += cost_br;
                    self.take_bc_edge::<SAN>(prog, fid, edge, base, bf.nblocks, rs);
                    pc = target as usize;
                    continue;
                }
                Bc::Branch {
                    cond,
                    then_target,
                    else_target,
                    then_edge,
                    else_edge,
                } => do_branch!(cond, then_target, else_target, then_edge, else_edge),
                Bc::Ret { val } => {
                    clock += cost_br;
                    self.stack_top = saved_stack;
                    flush!();
                    return Ok(if val == NO_REG { 0 } else { rs.rd(base, val) });
                }
                Bc::Halt => bail!(Trap::Unreachable),
            }
            pc += 1;
        }
    }
}

// ----------------------------------------------------------------------
// Disassembly.
// ----------------------------------------------------------------------

impl Program {
    /// Disassembles every function; `label_of` resolves guard/chunk site
    /// keys to compiler labels (return `None` for the bare key form).
    pub fn disasm(&self, label_of: &dyn Fn(SiteKey) -> Option<String>) -> String {
        let mut out = String::new();
        for (i, _) in self.funcs.iter().enumerate() {
            out.push_str(&self.disasm_function(FuncId(i as u32), label_of));
        }
        out
    }

    /// Disassembles one function: offset, opcode, operand register slots,
    /// resolved branch offsets, and site labels.
    pub fn disasm_function(
        &self,
        fid: FuncId,
        label_of: &dyn Fn(SiteKey) -> Option<String>,
    ) -> String {
        let bf = &self.funcs[fid.index()];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fn @f{} {}: {} insts, {} blocks, {} regs",
            fid.0,
            bf.name,
            bf.code.len(),
            bf.nblocks,
            bf.nregs
        );
        let site_str = |site: SiteKey| {
            label_of(site)
                .map(|l| format!("{site} \"{l}\""))
                .unwrap_or_else(|| site.to_string())
        };
        let edge_str = |edge: u32| {
            let e = self.edges[edge as usize];
            if e.ncopies == 0 {
                return String::new();
            }
            let copies: Vec<String> = self.copy_pool
                [e.copies as usize..(e.copies + e.ncopies) as usize]
                .iter()
                .map(|&(d, s)| format!("r{d}<-r{s}"))
                .collect();
            format!(" [phi {}]", copies.join(", "))
        };
        for (pc, op) in bf.code.iter().enumerate() {
            // Block headers, empty blocks included (they share the next
            // block's offset, so several headers may stack up).
            for (b, &boff) in bf.block_offsets.iter().enumerate() {
                if boff as usize == pc {
                    let _ = writeln!(out, "  bb{b}:");
                }
            }
            let text = match *op {
                Bc::Retire => "retire".to_string(),
                Bc::Const { dst, idx } => format!(
                    "const      r{dst} <- pool[{idx}] (={})",
                    self.pool[idx as usize] as i64
                ),
                Bc::Bin { op, ty, dst, a, b } => {
                    format!("bin.{op:?}    r{dst} <- r{a}, r{b} ({ty:?})").to_lowercase()
                }
                Bc::Icmp { op, ty, dst, a, b } => {
                    format!("icmp.{op:?}   r{dst} <- r{a}, r{b} ({ty:?})").to_lowercase()
                }
                Bc::Fcmp { op, dst, a, b } => {
                    format!("fcmp.{op:?}   r{dst} <- r{a}, r{b}").to_lowercase()
                }
                Bc::Cast {
                    op,
                    from,
                    to,
                    dst,
                    a,
                } => format!("cast.{op:?}  r{dst} <- r{a} ({from:?}->{to:?})").to_lowercase(),
                Bc::Alloca { dst, size, align } => {
                    format!("alloca     r{dst} <- {size}b align {align}")
                }
                Bc::Load { dst, ptr, ty } => {
                    format!("load.{ty:?}   r{dst} <- [r{ptr}]").to_lowercase()
                }
                Bc::Store { ptr, val, ty } => {
                    format!("store.{ty:?}  [r{ptr}] <- r{val}").to_lowercase()
                }
                Bc::Gep {
                    dst,
                    base,
                    index,
                    scale,
                    disp,
                } => format!("gep        r{dst} <- r{base} + r{index}*{scale} + {disp}"),
                Bc::Call {
                    dst,
                    func,
                    args,
                    nargs,
                } => {
                    let slots: Vec<String> = self.arg_pool
                        [args as usize..(args as usize + nargs as usize)]
                        .iter()
                        .map(|s| format!("r{s}"))
                        .collect();
                    format!(
                        "call       r{dst} <- @f{func} {}({})",
                        self.funcs[func as usize].name,
                        slots.join(", ")
                    )
                }
                Bc::Guard {
                    dst,
                    ptr,
                    write,
                    site,
                } => format!(
                    "guard.{}   r{dst} <- r{ptr}  ; site {}",
                    if write { "wr" } else { "rd" },
                    site_str(site)
                ),
                Bc::ChunkDeref {
                    dst,
                    handle,
                    ptr,
                    site,
                } => format!(
                    "chunk.drf  r{dst} <- r{handle}, r{ptr}  ; site {}",
                    site_str(site)
                ),
                Bc::Intr {
                    dst,
                    intr,
                    args,
                    nargs,
                    ..
                } => {
                    let slots: Vec<String> = self.arg_pool
                        [args as usize..(args as usize + nargs as usize)]
                        .iter()
                        .map(|s| format!("r{s}"))
                        .collect();
                    format!("intr       r{dst} <- {intr:?}({})", slots.join(", ")).to_lowercase()
                }
                Bc::GlobalAddr { dst, global } => format!("gaddr      r{dst} <- @g{global}"),
                Bc::Select {
                    dst,
                    cond,
                    tval,
                    fval,
                } => format!("select     r{dst} <- r{cond} ? r{tval} : r{fval}"),
                Bc::Jump { target, edge } => {
                    let e = self.edges[edge as usize];
                    format!("jump       -> {target} (bb{}){}", e.to, edge_str(edge))
                }
                Bc::Branch {
                    cond,
                    then_target,
                    else_target,
                    then_edge,
                    else_edge,
                } => {
                    let te = self.edges[then_edge as usize];
                    let ee = self.edges[else_edge as usize];
                    format!(
                        "branch     r{cond} ? -> {then_target} (bb{}){} : -> {else_target} (bb{}){}",
                        te.to,
                        edge_str(then_edge),
                        ee.to,
                        edge_str(else_edge)
                    )
                }
                Bc::Ret { val } => {
                    if val == NO_REG {
                        "ret".to_string()
                    } else {
                        format!("ret        r{val}")
                    }
                }
                Bc::Halt => "halt       (unreachable)".to_string(),
                // Fused twins: the first constituent's text plus a `+next`
                // marker; the second constituent prints on its own line.
                Bc::GepLoad {
                    dst,
                    base,
                    index,
                    scale,
                    disp,
                } => format!("gep+load   r{dst} <- r{base} + r{index}*{scale} + {disp}"),
                Bc::GepStore {
                    dst,
                    base,
                    index,
                    scale,
                    disp,
                } => format!("gep+store  r{dst} <- r{base} + r{index}*{scale} + {disp}"),
                Bc::IcmpBranch { op, ty, dst, a, b } => {
                    format!("icmp+br.{op:?}  r{dst} <- r{a}, r{b} ({ty:?})").to_lowercase()
                }
                Bc::Add64 { dst, a, b } => format!("add64      r{dst} <- r{a}, r{b}"),
                Bc::Sub64 { dst, a, b } => format!("sub64      r{dst} <- r{a}, r{b}"),
                Bc::Mul64 { dst, a, b } => format!("mul64      r{dst} <- r{a}, r{b}"),
                Bc::And64 { dst, a, b } => format!("and64      r{dst} <- r{a}, r{b}"),
                Bc::Or64 { dst, a, b } => format!("or64       r{dst} <- r{a}, r{b}"),
                Bc::Xor64 { dst, a, b } => format!("xor64      r{dst} <- r{a}, r{b}"),
                Bc::Shl64 { dst, a, b } => format!("shl64      r{dst} <- r{a}, r{b}"),
                Bc::RetireRun { n } => format!("retire.run x{n}"),
            };
            let (_, v) = bf.pos[pc];
            let _ = writeln!(out, "    {pc:>4}  {text:<56} ; %{v}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::LocalMem;
    use tfm_ir::{FunctionBuilder, Signature};
    use trackfm::CostModel;

    fn machine(m: &Module) -> Machine<'_, LocalMem> {
        Machine::new(m, LocalMem::new(1 << 20), CostModel::default(), 1 << 20)
    }

    /// Runs `m` and, in an `oracle` build, asserts the reference engine's
    /// outcome is bit-identical.
    fn both(m: &Module, func: &str, args: &[u64]) -> Result<crate::stats::RunResult, Trap> {
        let b = machine(m).run(func, args);
        #[cfg(feature = "oracle")]
        {
            let mut tw = machine(m);
            tw.set_engine(crate::ExecEngine::TreeWalk);
            let a = tw.run(func, args);
            match (&a, &b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.ret, y.ret);
                    assert_eq!(x.stats, y.stats);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                _ => panic!("engines disagree: {a:?} vs {b:?}"),
            }
        }
        b
    }

    #[test]
    fn constant_pool_dedups_across_functions_and_kinds() {
        let mut m = Module::new("t");
        for name in ["f", "g"] {
            let id = m.declare_function(name, Signature::new(vec![], Some(Type::I64)));
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.iconst(Type::I64, 7);
            let y = b.iconst(Type::I64, 7); // duplicate within the function
            let z = b.iconst(Type::I64, 9);
            let s = b.binop(BinOp::Add, x, y);
            let s2 = b.binop(BinOp::Add, s, z);
            b.ret(Some(s2));
        }
        m.verify().unwrap();
        let prog = lower_module(&m);
        // 7 and 9 each pooled once, across both functions.
        assert_eq!(prog.pool, vec![7, 9]);
        // A float with the same bit pattern as an int shares the entry.
        let mut m2 = Module::new("t2");
        let id = m2.declare_function("f", Signature::new(vec![], Some(Type::F64)));
        {
            let mut b = FunctionBuilder::new(m2.function_mut(id));
            let bits = f64::from_bits(7);
            let x = b.fconst(bits);
            let _ = b.iconst(Type::I64, 7);
            b.ret(Some(x));
        }
        let prog2 = lower_module(&m2);
        assert_eq!(prog2.pool, vec![7]);
        both(&m, "f", &[]).unwrap();
    }

    #[test]
    fn branch_offsets_resolve_forward_and_backward() {
        // A loop: the back edge's target offset is *behind* the jump, the
        // exit branch's ahead — both must land exactly on the block starts.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |_b, _i| {});
            b.ret(Some(n));
        }
        m.verify().unwrap();
        let prog = lower_module(&m);
        let bf = &prog.funcs[0];
        for op in &bf.code {
            match *op {
                Bc::Jump { target, .. } => {
                    assert!(bf.block_offsets.contains(&target));
                }
                Bc::Branch {
                    then_target,
                    else_target,
                    ..
                } => {
                    assert!(bf.block_offsets.contains(&then_target));
                    assert!(bf.block_offsets.contains(&else_target));
                }
                _ => {}
            }
        }
        assert_eq!(both(&m, "f", &[13]).unwrap().ret, 13);
    }

    #[test]
    fn fallthrough_shaped_jump_targets_the_next_offset() {
        // `bb0: br bb1` where bb1 is lexically next: the lowered jump's
        // target must equal its own pc + 1 (a fallthrough in offset terms),
        // and execution still applies the edge (cost + phis).
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let pre = b.current_block();
            let one = b.iconst(Type::I64, 1);
            let next = b.create_block();
            b.br(next);
            b.switch_to_block(next);
            let p = b.phi(Type::I64, &[(pre, one)]);
            b.ret(Some(p));
        }
        m.verify().unwrap();
        let prog = lower_module(&m);
        let bf = &prog.funcs[0];
        let jump_pc = bf
            .code
            .iter()
            .position(|op| matches!(op, Bc::Jump { .. }))
            .unwrap();
        match bf.code[jump_pc] {
            Bc::Jump { target, edge } => {
                assert_eq!(target as usize, jump_pc + 1, "fallthrough shape");
                assert_eq!(prog.edges[edge as usize].ncopies, 1, "carries the phi");
            }
            _ => unreachable!(),
        }
        assert_eq!(both(&m, "f", &[]).unwrap().ret, 1);
    }

    #[test]
    fn phi_swap_on_critical_edge_copies_in_parallel() {
        // Two phis swapping each other's values every iteration: the edge
        // copies must read both sources before writing either — a
        // sequential copy would collapse them to one value.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let one = b.iconst(Type::I64, 1);
            let two = b.iconst(Type::I64, 2);
            let pre = b.current_block();
            let header = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            b.br(header);
            b.switch_to_block(header);
            let i = b.phi(Type::I64, &[(pre, zero)]);
            let x = b.phi(Type::I64, &[(pre, one)]);
            let y = b.phi(Type::I64, &[(pre, two)]);
            let c = b.icmp(CmpOp::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let i2 = b.binop(BinOp::Add, i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(x, body, y); // swap
            b.add_phi_incoming(y, body, x);
            b.br(header);
            b.switch_to_block(exit);
            let eight = b.iconst(Type::I64, 8);
            let hi = b.binop(BinOp::Shl, x, eight);
            let packed = b.binop(BinOp::Or, hi, y);
            b.ret(Some(packed));
        }
        m.verify().unwrap();
        // Odd iteration count: x and y finish swapped (x=2, y=1).
        assert_eq!(both(&m, "f", &[3]).unwrap().ret, (2 << 8) | 1);
        // Even count: back to the initial assignment.
        assert_eq!(both(&m, "f", &[4]).unwrap().ret, (1 << 8) | 2);
    }

    #[test]
    fn empty_blocks_lower_to_shared_offsets() {
        // Builder-created-but-unused blocks survive in the block list; the
        // lowering must give them offsets (the next block's) and neither
        // panic nor disturb neighbors.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let _orphan = b.create_block(); // never filled, never targeted
            let next = b.create_block();
            b.br(next);
            b.switch_to_block(next);
            let one = b.iconst(Type::I64, 1);
            b.ret(Some(one));
        }
        let prog = lower_module(&m);
        let bf = &prog.funcs[0];
        // bb1 is the empty orphan: its offset equals bb2's.
        assert_eq!(bf.block_offsets[1], bf.block_offsets[2]);
        assert_eq!(both(&m, "f", &[]).unwrap().ret, 1);
        // The disassembly stacks both block headers at the shared offset.
        let dis = prog.disasm(&|_| None);
        assert!(dis.contains("bb1:\n  bb2:"), "{dis}");
    }

    #[test]
    fn disasm_lists_opcodes_slots_offsets_and_sites() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g);
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let prog = lower_module(&m);
        let dis = prog.disasm(&|site| (site.value() == 1).then(|| "f:v1:read".to_string()));
        assert!(dis.contains("fn @f0 f:"), "{dis}");
        assert!(dis.contains("guard.rd"), "{dis}");
        assert!(dis.contains("\"f:v1:read\""), "{dis}");
        assert!(dis.contains("load.i64"), "{dis}");
        assert!(dis.contains("ret        r2"), "{dis}");
    }
}
