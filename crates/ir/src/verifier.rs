//! The IR verifier: structural SSA well-formedness checks.
//!
//! Checks performed per function:
//! * every branch targets an existing block;
//! * every reachable block is non-empty and ends in exactly one terminator,
//!   with no terminators mid-block;
//! * phis appear only at the head of a block (after entry parameters) and
//!   their incoming labels exactly match the block's CFG predecessors;
//! * no operand refers to a tombstone;
//! * every non-phi use is dominated by its definition (the shared
//!   [`DomTree`]);
//! * operand/result types are consistent (binops homogeneous, loads/stores
//!   through `ptr`, calls match callee signatures, intrinsic signatures).
//!
//! Blocks are checked in reverse postorder, so the error reported first is
//! the same on every run.

use crate::cfg::{Cfg, DomTree};
use crate::entities::{Block, Value};
use crate::function::Function;
use crate::inst::InstKind;
use crate::module::Module;
use crate::types::Type;
use std::fmt;

/// A verification failure, located as precisely as the check allows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VerifyError {
    /// Function in which the error occurred.
    pub function: String,
    /// Block index of the offending block, when the check is localized.
    pub block: Option<usize>,
    /// Value index of the offending instruction, when the check names one.
    pub inst: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verification failed in `{}`", self.function)?;
        if let Some(b) = self.block {
            write!(f, " at bb{b}")?;
            if let Some(v) = self.inst {
                write!(f, " %{v}")?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

fn err(func: &Function, msg: impl Into<String>) -> VerifyError {
    VerifyError {
        function: func.name.clone(),
        block: None,
        inst: None,
        message: msg.into(),
    }
}

/// An error located to a block (e.g. a malformed block structure).
fn err_in(func: &Function, b: Block, msg: impl Into<String>) -> VerifyError {
    VerifyError {
        block: Some(b.index()),
        ..err(func, msg)
    }
}

/// An error located to one instruction inside a block.
fn err_at(func: &Function, b: Block, v: Value, msg: impl Into<String>) -> VerifyError {
    VerifyError {
        block: Some(b.index()),
        inst: Some(v.index()),
        ..err(func, msg)
    }
}

/// Verifies every function in a module.
///
/// # Errors
/// Returns the first error found.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    for (_, f) in m.functions() {
        verify_function(f, Some(m))?;
    }
    Ok(())
}

/// Verifies a single function. Pass the module for call-signature checking;
/// with `None`, calls are only arity-unchecked.
///
/// # Errors
/// Returns the first error found.
pub fn verify_function(f: &Function, module: Option<&Module>) -> Result<(), VerifyError> {
    // Branch targets first: the CFG every later check walks is built from
    // them.
    for b in f.blocks() {
        if let Some(s) = f.succs(b).into_iter().find(|s| s.index() >= f.num_blocks()) {
            return Err(err_in(f, b, format!("{b} branches to nonexistent {s}")));
        }
    }
    let cfg = Cfg::of(f);
    let dt = DomTree::solve(&cfg, f.entry_block());
    // Every check below walks the reachable blocks in reverse postorder, so
    // the first error reported does not depend on a hash seed.
    let rpo = dt.rpo();

    // Block structure.
    for &b in rpo {
        let insts = f.block_insts(b);
        if insts.is_empty() {
            return Err(err_in(f, b, format!("{b} is reachable but empty")));
        }
        let last = *insts.last().unwrap();
        if !f.kind(last).is_terminator() {
            return Err(err_in(f, b, format!("{b} does not end in a terminator")));
        }
        let mut seen_nonphi = false;
        for (i, &v) in insts.iter().enumerate() {
            let kind = f.kind(v);
            if kind.is_terminator() && i + 1 != insts.len() {
                return Err(err_at(
                    f,
                    b,
                    v,
                    format!("terminator {v} is not last in {b}"),
                ));
            }
            match kind {
                InstKind::Nop => {
                    return Err(err_at(
                        f,
                        b,
                        v,
                        format!("tombstone {v} still listed in {b}"),
                    ));
                }
                InstKind::Phi(_) => {
                    if seen_nonphi {
                        return Err(err_at(f, b, v, format!("phi {v} after non-phi in {b}")));
                    }
                }
                InstKind::Param(_) => {
                    if b != f.entry_block() {
                        return Err(err_at(f, b, v, format!("param {v} outside entry block")));
                    }
                }
                _ => seen_nonphi = true,
            }
            if f.inst(v).block != b {
                return Err(err_at(f, b, v, format!("{v} block backlink is stale")));
            }
        }
    }

    // Phi predecessor labels: each reachable predecessor, once. Checked
    // without building sets: the per-block sets this check once allocated
    // moved `tfm-perf`'s glibc heap layout and its `peak_rss_mb` (see
    // CHANGES.md), and a block has a handful of predecessors.
    for &b in rpo {
        let preds = cfg.preds(b);
        let reachable = (0..preds.len())
            .filter(|&i| dt.is_reachable(preds[i]) && !preds[..i].contains(&preds[i]))
            .count();
        for &v in f.block_insts(b) {
            if let InstKind::Phi(incs) = f.kind(v) {
                if (1..incs.len()).any(|i| incs[..i].iter().any(|(p, _)| *p == incs[i].0)) {
                    return Err(err_at(
                        f,
                        b,
                        v,
                        format!("phi {v} has duplicate predecessor labels"),
                    ));
                }
                let is_pred = |p: Block| dt.is_reachable(p) && preds.contains(&p);
                if incs.len() != reachable || !incs.iter().all(|&(p, _)| is_pred(p)) {
                    let labels: Vec<Block> = incs.iter().map(|(p, _)| *p).collect();
                    return Err(err_at(
                        f,
                        b,
                        v,
                        format!(
                            "phi {v} labels {labels:?} do not match predecessors {preds:?} of {b}"
                        ),
                    ));
                }
            }
        }
    }

    // Operand liveness + types.
    for &b in rpo {
        for &v in f.block_insts(b) {
            let mut bad = None;
            f.kind(v).for_each_operand(|op| {
                if op.index() >= f.num_insts() {
                    bad = Some(format!("{v} uses out-of-range {op}"));
                } else if matches!(f.kind(op), InstKind::Nop) {
                    bad = Some(format!("{v} uses deleted value {op}"));
                }
            });
            if let Some(msg) = bad {
                return Err(err_at(f, b, v, msg));
            }
            check_types(f, v, module)?;
        }
    }

    verify_dominance(f, &dt)
}

fn check_types(f: &Function, v: Value, module: Option<&Module>) -> Result<(), VerifyError> {
    let e = |msg: String| Err(err_at(f, f.inst(v).block, v, msg));
    match f.kind(v) {
        InstKind::Binary(op, a, b) => {
            let (ta, tb) = (f.ty(*a), f.ty(*b));
            if ta != tb {
                return e(format!(
                    "{v}: binop operand types differ ({ta:?} vs {tb:?})"
                ));
            }
            if op.is_float() && ta != Some(Type::F64) {
                return e(format!("{v}: float binop on non-float"));
            }
            if !op.is_float() && ta == Some(Type::F64) {
                return e(format!("{v}: int binop on float"));
            }
        }
        InstKind::Icmp(_, a, b) => {
            let (ta, tb) = (f.ty(*a), f.ty(*b));
            if ta != tb {
                return e(format!("{v}: icmp operand types differ"));
            }
            if ta == Some(Type::F64) {
                return e(format!("{v}: icmp on float"));
            }
        }
        InstKind::Fcmp(_, a, b) if (f.ty(*a) != Some(Type::F64) || f.ty(*b) != Some(Type::F64)) => {
            return e(format!("{v}: fcmp on non-float"));
        }
        InstKind::Load { ptr } if f.ty(*ptr) != Some(Type::Ptr) => {
            return e(format!("{v}: load through non-pointer"));
        }
        InstKind::Store { ptr, .. } if f.ty(*ptr) != Some(Type::Ptr) => {
            return e(format!("{v}: store through non-pointer"));
        }
        InstKind::Gep { base, index, .. } => {
            if f.ty(*base) != Some(Type::Ptr) {
                return e(format!("{v}: gep base is not a pointer"));
            }
            if !f.ty(*index).is_some_and(|t| t.is_int()) {
                return e(format!("{v}: gep index is not an integer"));
            }
        }
        InstKind::Call { func, args } => {
            if let Some(m) = module {
                if func.index() >= m.num_functions() {
                    return e(format!("{v}: call to nonexistent {func}"));
                }
                let callee = m.function(*func);
                if callee.sig.params.len() != args.len() {
                    return e(format!(
                        "{v}: call to `{}` with {} args, expected {}",
                        callee.name,
                        args.len(),
                        callee.sig.params.len()
                    ));
                }
                for (i, (a, want)) in args.iter().zip(&callee.sig.params).enumerate() {
                    if f.ty(*a) != Some(*want) {
                        return e(format!("{v}: call arg {i} type mismatch"));
                    }
                }
                if f.ty(v) != callee.sig.ret {
                    return e(format!("{v}: call result type mismatch"));
                }
            }
        }
        InstKind::IntrinsicCall { intr, args } => {
            let (params, ret) = intr.signature();
            if params.len() != args.len() {
                return e(format!(
                    "{v}: intrinsic {intr} with {} args, expected {}",
                    args.len(),
                    params.len()
                ));
            }
            for (i, (a, want)) in args.iter().zip(params).enumerate() {
                if f.ty(*a) != Some(*want) {
                    return e(format!("{v}: intrinsic {intr} arg {i} type mismatch"));
                }
            }
            if f.ty(v) != ret {
                return e(format!("{v}: intrinsic {intr} result type mismatch"));
            }
        }
        InstKind::Select { tval, fval, .. } if f.ty(*tval) != f.ty(*fval) => {
            return e(format!("{v}: select arm types differ"));
        }
        InstKind::Phi(incs) => {
            for (_, iv) in incs {
                if f.ty(*iv) != f.ty(v) {
                    return e(format!("{v}: phi incoming type mismatch"));
                }
            }
        }
        _ => {}
    }
    Ok(())
}

/// Per-use dominance over the shared dominator tree.
fn verify_dominance(f: &Function, dt: &DomTree) -> Result<(), VerifyError> {
    // Within a block, position indices order defs/uses.
    let mut pos = vec![usize::MAX; f.num_insts()];
    for &b in dt.rpo() {
        for (i, &v) in f.block_insts(b).iter().enumerate() {
            pos[v.index()] = i;
        }
    }
    for &b in dt.rpo() {
        for &v in f.block_insts(b) {
            if let InstKind::Phi(incs) = f.kind(v) {
                // Phi operands must dominate the end of the incoming edge's block.
                for (p, iv) in incs {
                    let defb = f.inst(*iv).block;
                    if !dt.dominates(defb, *p) {
                        return Err(err_at(
                            f,
                            b,
                            v,
                            format!("phi {v}: incoming {iv} from {p} not dominated by def"),
                        ));
                    }
                }
                continue;
            }
            let mut bad = None;
            f.kind(v).for_each_operand(|op| {
                if bad.is_some() {
                    return;
                }
                let defb = f.inst(op).block;
                let ok = if defb == b {
                    pos[op.index()] < pos[v.index()]
                } else {
                    dt.dominates(defb, b)
                };
                if !ok {
                    bad = Some(format!("{v} uses {op} which does not dominate it"));
                }
            });
            if let Some(msg) = bad {
                return Err(err_at(f, b, v, msg));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::{InstData, Signature};
    use crate::inst::BinOp;
    use crate::Module;

    fn module_with(f: impl FnOnce(&mut FunctionBuilder)) -> Module {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let mut b = FunctionBuilder::new(m.function_mut(id));
        f(&mut b);
        m
    }

    #[test]
    fn accepts_simple_function() {
        let m = module_with(|b| {
            let x = b.param(0);
            let y = b.binop(BinOp::Add, x, x);
            b.ret(Some(y));
        });
        assert!(m.verify().is_ok());
    }

    #[test]
    fn rejects_unterminated_block() {
        let m = module_with(|b| {
            let x = b.param(0);
            b.binop(BinOp::Add, x, x);
        });
        let e = m.verify().unwrap_err();
        assert!(e.message.contains("terminator"), "{e}");
        // Block-level error: located to the block, no single instruction.
        assert_eq!(e.block, Some(0));
        assert_eq!(e.inst, None);
        assert!(e.to_string().contains("at bb0"), "{e}");
    }

    #[test]
    fn rejects_use_before_def_in_block() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        let f = m.function_mut(id);
        let e = f.entry_block();
        // Emit ret first, then the const it "uses" — use before def.
        let placeholder = f.push_inst(
            e,
            InstData {
                kind: InstKind::ConstInt(0),
                ty: Some(Type::I64),
                block: e,
            },
        );
        let r = f.push_inst(
            e,
            InstData {
                kind: InstKind::Ret(Some(placeholder)),
                ty: None,
                block: e,
            },
        );
        let late = f.push_inst(
            e,
            InstData {
                kind: InstKind::ConstInt(1),
                ty: Some(Type::I64),
                block: e,
            },
        );
        // Move `late` before the terminator but after ret's use rewrite.
        f.remove_inst(late);
        let _ = r;
        // Rewire ret to use a value defined after it.
        let after = f.insert_after(
            r,
            InstData {
                kind: InstKind::ConstInt(2),
                ty: Some(Type::I64),
                block: e,
            },
        );
        f.replace_all_uses(placeholder, after);
        assert!(m.verify().is_err());
    }

    #[test]
    fn rejects_type_mismatch_binop() {
        let m = module_with(|b| {
            let x = b.param(0);
            let f = b.fconst(1.0);
            let bad = b.binop(BinOp::Add, x, f);
            b.ret(Some(bad));
        });
        let e = m.verify().unwrap_err();
        assert!(e.message.contains("binop"), "{e}");
        // Instruction-level error: both coordinates filled in.
        assert_eq!(e.block, Some(0));
        assert_eq!(e.inst, Some(2));
        assert!(e.to_string().contains("at bb0 %2"), "{e}");
    }

    #[test]
    fn rejects_float_icmp() {
        let m = module_with(|b| {
            let f1 = b.fconst(1.0);
            let f2 = b.fconst(2.0);
            let c = b.icmp(crate::CmpOp::Slt, f1, f2);
            b.ret(Some(c));
        });
        assert!(m.verify().is_err());
    }

    #[test]
    fn rejects_phi_label_mismatch() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let entry = b.entry_block();
            let next = b.create_block();
            let bogus = b.create_block();
            let c = b.iconst(Type::I64, 1);
            b.br(next);
            b.switch_to_block(next);
            // Wrong label: claims to come from `bogus`, actual pred is entry.
            let p = b.phi(Type::I64, &[(bogus, c)]);
            b.ret(Some(p));
            let _ = entry;
        }
        let e = m.verify().unwrap_err();
        assert!(e.message.contains("phi"), "{e}");
    }

    #[test]
    fn rejects_use_of_deleted_value() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        let f = m.function_mut(id);
        let e = f.entry_block();
        let c = f.push_inst(
            e,
            InstData {
                kind: InstKind::ConstInt(1),
                ty: Some(Type::I64),
                block: e,
            },
        );
        f.push_inst(
            e,
            InstData {
                kind: InstKind::Ret(Some(c)),
                ty: None,
                block: e,
            },
        );
        f.remove_inst(c);
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("deleted"), "{err}");
        assert_eq!(err.block, Some(0));
        assert_eq!(err.inst, Some(1));
    }

    #[test]
    fn rejects_value_defined_in_nondominating_block() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let then_bb = b.create_block();
            let else_bb = b.create_block();
            let join = b.create_block();
            let x = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(crate::CmpOp::Sgt, x, zero);
            b.cond_br(c, then_bb, else_bb);
            b.switch_to_block(then_bb);
            let only_then = b.binop(BinOp::Add, x, x);
            b.br(join);
            b.switch_to_block(else_bb);
            b.br(join);
            b.switch_to_block(join);
            b.ret(Some(only_then)); // not dominated: else path skips the def
        }
        let e = m.verify().unwrap_err();
        assert!(e.message.contains("dominate"), "{e}");
        // The bad use is the ret in the join block.
        assert_eq!(e.block, Some(3));
        assert!(e.inst.is_some());
    }

    #[test]
    fn accepts_diamond_with_phi() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let then_bb = b.create_block();
            let else_bb = b.create_block();
            let join = b.create_block();
            let x = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(crate::CmpOp::Sgt, x, zero);
            b.cond_br(c, then_bb, else_bb);
            b.switch_to_block(then_bb);
            let a = b.binop(BinOp::Add, x, x);
            b.br(join);
            b.switch_to_block(else_bb);
            let s = b.binop(BinOp::Sub, x, x);
            b.br(join);
            b.switch_to_block(join);
            let p = b.phi(Type::I64, &[(then_bb, a), (else_bb, s)]);
            b.ret(Some(p));
        }
        m.verify().unwrap();
    }

    /// A diamond whose join phi takes one incoming per label that
    /// `labels(then, else)` lists.
    fn diamond_with_phi_labels(labels: fn(Block, Block) -> Vec<Block>) -> Result<(), VerifyError> {
        let m = module_with(|b| {
            let then_bb = b.create_block();
            let else_bb = b.create_block();
            let join = b.create_block();
            let x = b.param(0);
            b.cond_br(x, then_bb, else_bb);
            for arm in [then_bb, else_bb] {
                b.switch_to_block(arm);
                b.br(join);
            }
            b.switch_to_block(join);
            let incs: Vec<_> = labels(then_bb, else_bb)
                .into_iter()
                .map(|l| (l, x))
                .collect();
            let p = b.phi(Type::I64, &incs);
            b.ret(Some(p));
        });
        m.verify()
    }

    #[test]
    fn phi_labels_name_each_reachable_predecessor_once() {
        assert!(diamond_with_phi_labels(|t, e| vec![e, t]).is_ok());
        let missing = diamond_with_phi_labels(|t, _| vec![t]).unwrap_err();
        assert!(missing.message.contains("do not match"), "{missing}");
        let repeated = diamond_with_phi_labels(|t, e| vec![t, e, t]).unwrap_err();
        assert!(repeated.message.contains("duplicate"), "{repeated}");
    }

    #[test]
    fn rejects_branch_to_missing_block() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], None));
        let f = m.function_mut(id);
        let e = f.entry_block();
        f.push_inst(
            e,
            InstData {
                kind: InstKind::Br(Block::from_index(7)),
                ty: None,
                block: e,
            },
        );
        let err = m.verify().unwrap_err();
        assert!(err.message.contains("nonexistent bb7"), "{err}");
        assert_eq!(err.block, Some(0));
    }

    #[test]
    fn reports_the_first_broken_block_in_reverse_postorder() {
        // entry -> (bb1 | bb2), neither terminated. The depth-first walk
        // finishes bb1 first, so reverse postorder meets bb2 first.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.param(0);
            let bb1 = b.create_block();
            let bb2 = b.create_block();
            b.cond_br(x, bb1, bb2);
            b.switch_to_block(bb1);
            b.binop(BinOp::Add, x, x);
            b.switch_to_block(bb2);
            b.binop(BinOp::Sub, x, x);
        }
        // Each call would draw fresh hash keys if the walk depended on them.
        for _ in 0..16 {
            let e = m.verify().unwrap_err();
            assert_eq!(e.block, Some(2), "{e}");
            assert!(e.message.contains("does not end in a terminator"), "{e}");
        }
    }

    #[test]
    fn rejects_bad_intrinsic_arity() {
        let m = module_with(|b| {
            let p = b.intrinsic(crate::Intrinsic::RuntimeInit, vec![]);
            let _ = p;
            let x = b.param(0);
            // malloc expects i64; pass nothing.
            let bad = b.intrinsic(crate::Intrinsic::Malloc, vec![]);
            let _ = bad;
            b.ret(Some(x));
        });
        assert!(m.verify().is_err());
    }
}
