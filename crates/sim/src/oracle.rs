//! The reference engine: the original tree-walking interpreter over
//! [`tfm_ir::InstKind`], compiled only under the `oracle` feature.
//!
//! Production builds contain one engine, the register [`crate::bytecode`]
//! dispatch loop. This module is the oracle the differential tests compare
//! it against (`tests/engine_identity.rs`, `tests/random_programs.rs`):
//! every simulated quantity — results, cycles, stats, traps, telemetry,
//! profiles — must be bit-identical between the two.

use crate::machine::{exec_binop, exec_cast, exec_fcmp, exec_icmp, kill_custody, shadow, Machine};
use crate::memsys::{MemorySystem, GLOBAL_BASE, STACK_BASE};
use crate::trap::Trap;
use tfm_ir::{Block, FuncId, Function, InstKind, Intrinsic, Type, Value};
use tfm_telemetry::SiteKey;

/// Selects the engine behind [`Machine::run`] in an `oracle` build.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum ExecEngine {
    /// The production register-bytecode engine.
    #[default]
    Bytecode,
    /// The reference tree-walking interpreter.
    TreeWalk,
}

impl<'m, M: MemorySystem> Machine<'m, M> {
    /// Selects the engine for subsequent [`Machine::run`] calls.
    pub fn set_engine(&mut self, engine: ExecEngine) {
        self.engine = engine;
    }

    pub(crate) fn exec_function(&mut self, fid: FuncId, args: &[u64]) -> Result<u64, Trap> {
        let module = self.module;
        let f = module.function(fid);
        assert_eq!(
            args.len(),
            f.sig.params.len(),
            "argument count mismatch calling `{}`",
            f.name
        );
        let mut regs = vec![0u64; f.num_insts()];
        regs[..args.len()].copy_from_slice(args);
        // Shadow custody state per register. A frame starts with none: no
        // custody crosses a call.
        let mut cov = vec![shadow::NONE; if self.sanitize { f.num_insts() } else { 0 }];
        let saved_stack = self.stack_top;
        let mut block = f.entry_block();
        self.profile_block(fid, block, f.num_blocks());
        'blocks: loop {
            let insts = f.block_insts(block);
            for &v in insts {
                self.stats.instructions += 1;
                if self.stats.instructions > self.fuel {
                    return Err(Trap::FuelExhausted);
                }
                match f.kind(v) {
                    InstKind::Nop | InstKind::Param(_) | InstKind::Phi(_) => {}
                    InstKind::ConstInt(c) => regs[v.index()] = *c as u64,
                    InstKind::ConstFloat(c) => regs[v.index()] = c.to_bits(),
                    InstKind::Binary(op, a, b) => {
                        self.clock += self.cost.alu;
                        let ty = f.ty(v).unwrap_or(Type::I64);
                        regs[v.index()] = exec_binop(*op, regs[a.index()], regs[b.index()], ty)?;
                        if self.sanitize {
                            cov[v.index()] = cov[a.index()].max(cov[b.index()]);
                        }
                    }
                    InstKind::Icmp(op, a, b) => {
                        self.clock += self.cost.alu;
                        let ty = f.ty(*a).unwrap_or(Type::I64);
                        regs[v.index()] =
                            exec_icmp(*op, regs[a.index()], regs[b.index()], ty) as u64;
                    }
                    InstKind::Fcmp(op, a, b) => {
                        self.clock += self.cost.alu;
                        let (x, y) = (
                            f64::from_bits(regs[a.index()]),
                            f64::from_bits(regs[b.index()]),
                        );
                        regs[v.index()] = exec_fcmp(*op, x, y) as u64;
                    }
                    InstKind::Cast(op, a) => {
                        self.clock += self.cost.alu;
                        let from_ty = f.ty(*a).unwrap_or(Type::I64);
                        let to_ty = f.ty(v).unwrap_or(Type::I64);
                        regs[v.index()] = exec_cast(*op, regs[a.index()], from_ty, to_ty);
                        if self.sanitize {
                            cov[v.index()] = cov[a.index()];
                        }
                    }
                    InstKind::Alloca { size, align } => {
                        let top = self.stack_top.next_multiple_of((*align).max(1) as u64);
                        if top + *size as u64 > self.stack.len() as u64 {
                            return Err(Trap::StackOverflow);
                        }
                        regs[v.index()] = STACK_BASE + top;
                        self.stack_top = top + *size as u64;
                        if self.sanitize {
                            cov[v.index()] = shadow::STABLE;
                        }
                    }
                    InstKind::Load { ptr } => {
                        let addr = regs[ptr.index()];
                        let ty = f.ty(v).unwrap_or(Type::I64);
                        let size = ty.size() as u64;
                        if self.sanitize
                            && cov[ptr.index()] == shadow::NONE
                            && self.is_sanitized_addr(addr)
                        {
                            return Err(Trap::UnguardedAccess {
                                addr,
                                func: fid.0,
                                block: block.0,
                                inst: v.0,
                            });
                        }
                        self.stats.loads += 1;
                        let extra =
                            self.mem
                                .data_access(addr, size, false, self.clock, &mut self.stats)?;
                        self.clock += self.cost.load_store + extra;
                        let addr = self.mem.canonical(addr);
                        regs[v.index()] = self.read_mem(addr, ty)?;
                    }
                    InstKind::Store { ptr, val } => {
                        let addr = regs[ptr.index()];
                        let ty = f.ty(*val).unwrap_or(Type::I64);
                        let size = ty.size() as u64;
                        if self.sanitize
                            && cov[ptr.index()] == shadow::NONE
                            && self.is_sanitized_addr(addr)
                        {
                            return Err(Trap::UnguardedAccess {
                                addr,
                                func: fid.0,
                                block: block.0,
                                inst: v.0,
                            });
                        }
                        self.stats.stores += 1;
                        let extra =
                            self.mem
                                .data_access(addr, size, true, self.clock, &mut self.stats)?;
                        self.clock += self.cost.load_store + extra;
                        let addr = self.mem.canonical(addr);
                        self.write_mem(addr, regs[val.index()], ty)?;
                    }
                    InstKind::Gep {
                        base,
                        index,
                        scale,
                        disp,
                    } => {
                        self.clock += self.cost.alu;
                        regs[v.index()] = regs[base.index()]
                            .wrapping_add(
                                (regs[index.index()] as i64).wrapping_mul(*scale as i64) as u64
                            )
                            .wrapping_add(*disp as u64);
                        if self.sanitize {
                            cov[v.index()] = cov[base.index()];
                        }
                    }
                    InstKind::Call { func, args } => {
                        self.clock += self.cost.call_overhead;
                        let vals: Vec<u64> = args.iter().map(|a| regs[a.index()]).collect();
                        regs[v.index()] = self.exec_function(*func, &vals)?;
                        if self.sanitize {
                            // Every call revokes the caller's custody; the
                            // result's shadow stays `NONE`.
                            kill_custody(&mut cov);
                        }
                    }
                    InstKind::IntrinsicCall { intr, args } => {
                        let vals: Vec<u64> = args.iter().map(|a| regs[a.index()]).collect();
                        let site = SiteKey::new(fid.0, v.index() as u32);
                        regs[v.index()] = self.exec_intrinsic(*intr, &vals, site)?;
                        if self.sanitize {
                            match intr {
                                Intrinsic::GuardRead | Intrinsic::GuardWrite => {
                                    cov[v.index()] = shadow::CUSTODY;
                                    // The guarded pointer itself is covered
                                    // too (static `apply` inserts both).
                                    if let Some(a) = args.first() {
                                        if cov[a.index()] == shadow::NONE {
                                            cov[a.index()] = shadow::CUSTODY;
                                        }
                                    }
                                }
                                Intrinsic::ChunkDeref => {
                                    cov[v.index()] = shadow::CUSTODY;
                                    if let Some(a) = args.get(1) {
                                        if cov[a.index()] == shadow::NONE {
                                            cov[a.index()] = shadow::CUSTODY;
                                        }
                                    }
                                }
                                Intrinsic::Malloc | Intrinsic::Calloc => {
                                    kill_custody(&mut cov);
                                    // libc allocation: only untransformed
                                    // modules make one, and their accesses
                                    // need no guard.
                                    cov[v.index()] = shadow::STABLE;
                                }
                                _ => {
                                    kill_custody(&mut cov);
                                }
                            }
                        }
                    }
                    InstKind::GlobalAddr(g) => {
                        regs[v.index()] = GLOBAL_BASE + self.global_offsets[g.index()];
                        if self.sanitize {
                            cov[v.index()] = shadow::STABLE;
                        }
                    }
                    InstKind::Select { cond, tval, fval } => {
                        self.clock += self.cost.alu;
                        let taken = if regs[cond.index()] != 0 { tval } else { fval };
                        regs[v.index()] = regs[taken.index()];
                        if self.sanitize {
                            cov[v.index()] = cov[taken.index()];
                        }
                    }
                    InstKind::Br(target) => {
                        self.clock += self.cost.branch;
                        let target = *target;
                        self.take_edge(f, fid, block, target, &mut regs, &mut cov);
                        block = target;
                        continue 'blocks;
                    }
                    InstKind::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        self.clock += self.cost.branch;
                        let target = if regs[cond.index()] != 0 {
                            *then_bb
                        } else {
                            *else_bb
                        };
                        self.take_edge(f, fid, block, target, &mut regs, &mut cov);
                        block = target;
                        continue 'blocks;
                    }
                    InstKind::Ret(val) => {
                        self.clock += self.cost.branch;
                        self.stack_top = saved_stack;
                        return Ok(val.map(|v| regs[v.index()]).unwrap_or(0));
                    }
                    InstKind::Unreachable => return Err(Trap::Unreachable),
                }
            }
            unreachable!("block fell through without a terminator (verifier bug)");
        }
    }

    /// Evaluates the target block's phis against the edge being taken, then
    /// records profiling.
    fn take_edge(
        &mut self,
        f: &Function,
        fid: FuncId,
        from: Block,
        to: Block,
        regs: &mut [u64],
        cov: &mut [u8],
    ) {
        // Phis evaluate in parallel: read all incoming values first.
        let insts = f.block_insts(to);
        let mut updates: Vec<(Value, u64, u8)> = Vec::new();
        for &v in insts {
            match f.kind(v) {
                InstKind::Phi(incs) => {
                    if let Some((_, iv)) = incs.iter().find(|(p, _)| *p == from) {
                        let c = if self.sanitize { cov[iv.index()] } else { 0 };
                        updates.push((v, regs[iv.index()], c));
                    }
                }
                InstKind::Param(_) => continue,
                _ => break,
            }
        }
        for (v, val, c) in updates {
            regs[v.index()] = val;
            if self.sanitize {
                cov[v.index()] = c;
            }
        }
        self.note_edge(fid, from.0, to.0);
        self.profile_block(fid, to, f.num_blocks());
    }
}
