//! The "O1" pre-pipeline: classic scalar optimizations run *before* guard
//! injection.
//!
//! §4.5/Fig. 17b: "By default, NOELLE sees unoptimized code from LLVM.
//! However, in our case, it makes more sense to accept pre-optimized code
//! [...] to minimize the number of guards that are injected. For example,
//! redundant code elimination or dead code elimination can reduce the number
//! of loads and stores and thus the number of guards." Running this pipeline
//! cut FT's memory instructions 6× and SP's 4× in the paper.
//!
//! Passes: mem2reg SSA promotion first (the biggest memory-instruction
//! reducer), then — to a fixpoint within a budgeted number of rounds —
//! constant folding, local CSE, redundant-load elimination with
//! store-to-load forwarding (block-local, conservative aliasing), loop
//! invariant code motion, control-flow simplification, and dead-code
//! elimination.

use std::collections::HashMap;
use tfm_analysis::dom::DomTree;
use tfm_analysis::loops::LoopForest;
use tfm_ir::{BinOp, Cfg, CmpOp, FuncId, Function, InstKind, Module, Type, Value};

/// What the O1 pipeline accomplished (per module).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct O1Outcome {
    /// Instructions folded to constants.
    pub folded: usize,
    /// Instructions deduplicated by CSE.
    pub cse_removed: usize,
    /// Redundant loads eliminated (incl. store-to-load forwards).
    pub loads_eliminated: usize,
    /// Instructions hoisted out of loops.
    pub hoisted: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
    /// CFG simplifications (folded branches + merged blocks).
    pub cfg_simplified: usize,
    /// Stack slots promoted to SSA registers (mem2reg).
    pub promoted_slots: usize,
}

impl O1Outcome {
    fn total(&self) -> usize {
        self.folded
            + self.cse_removed
            + self.loads_eliminated
            + self.hoisted
            + self.dce_removed
            + self.cfg_simplified
            + self.promoted_slots
    }
}

/// Runs the O1 pipeline over every function until no pass makes progress
/// (bounded at 8 rounds).
pub fn run(module: &mut Module) -> O1Outcome {
    // SSA promotion first: it exposes the loads/stores the scalar passes
    // feed on (and is the single biggest memory-instruction reducer).
    let mut total = O1Outcome {
        promoted_slots: crate::passes::mem2reg::run(module),
        ..Default::default()
    };
    for id in module.function_ids().collect::<Vec<_>>() {
        for _ in 0..8 {
            let mut round = O1Outcome::default();
            let f = module.function_mut(id);
            round.folded += constant_fold(f);
            round.cse_removed += local_cse(f);
            round.loads_eliminated += redundant_load_elim(f);
            round.hoisted += licm(module, id);
            round.cfg_simplified += simplify_cfg(module.function_mut(id));
            round.dce_removed += dce(module.function_mut(id));
            let progressed = round.total() > 0;
            total.folded += round.folded;
            total.cse_removed += round.cse_removed;
            total.loads_eliminated += round.loads_eliminated;
            total.hoisted += round.hoisted;
            total.dce_removed += round.dce_removed;
            total.cfg_simplified += round.cfg_simplified;
            if !progressed {
                break;
            }
        }
    }
    total
}

/// Folds integer binops/compares with constant operands.
pub fn constant_fold(f: &mut Function) -> usize {
    let mut n = 0;
    for v in f.live_insts() {
        let folded = match f.kind(v) {
            InstKind::Binary(op, a, b) => match (f.kind(*a), f.kind(*b)) {
                (InstKind::ConstInt(x), InstKind::ConstInt(y)) => fold_int(*op, *x, *y),
                _ => None,
            },
            InstKind::Icmp(op, a, b) => match (f.kind(*a), f.kind(*b)) {
                (InstKind::ConstInt(x), InstKind::ConstInt(y)) => {
                    Some(fold_icmp(*op, *x, *y) as i64)
                }
                _ => None,
            },
            InstKind::Select { cond, tval, fval } => {
                if let InstKind::ConstInt(c) = f.kind(*cond) {
                    let chosen = if *c != 0 { *tval } else { *fval };
                    // Fold by forwarding uses; leave the select for DCE.
                    f.replace_all_uses(v, chosen);
                    n += 1;
                }
                continue;
            }
            _ => None,
        };
        if let Some(c) = folded {
            let ty = f.ty(v);
            let c = truncate(c, ty);
            f.inst_mut(v).kind = InstKind::ConstInt(c);
            n += 1;
        }
    }
    n
}

fn truncate(c: i64, ty: Option<Type>) -> i64 {
    match ty {
        Some(Type::I8) => c as i8 as i64,
        Some(Type::I16) => c as i16 as i64,
        Some(Type::I32) => c as i32 as i64,
        _ => c,
    }
}

fn fold_int(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Sdiv => {
            if y == 0 {
                return None;
            }
            x.wrapping_div(y)
        }
        BinOp::Udiv => {
            if y == 0 {
                return None;
            }
            ((x as u64) / (y as u64)) as i64
        }
        BinOp::Srem => {
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y)
        }
        BinOp::Urem => {
            if y == 0 {
                return None;
            }
            ((x as u64) % (y as u64)) as i64
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32 & 63),
        BinOp::Lshr => ((x as u64) >> (y as u32 & 63)) as i64,
        BinOp::Ashr => x.wrapping_shr(y as u32 & 63),
        _ => return None, // float ops are not folded (NaN semantics)
    })
}

fn fold_icmp(op: CmpOp, x: i64, y: i64) -> bool {
    let (ux, uy) = (x as u64, y as u64);
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Slt => x < y,
        CmpOp::Sle => x <= y,
        CmpOp::Sgt => x > y,
        CmpOp::Sge => x >= y,
        CmpOp::Ult => ux < uy,
        CmpOp::Ule => ux <= uy,
        CmpOp::Ugt => ux > uy,
        CmpOp::Uge => ux >= uy,
    }
}

/// Block-local common-subexpression elimination for pure instructions.
pub fn local_cse(f: &mut Function) -> usize {
    let mut n = 0;
    for b in f.blocks().collect::<Vec<_>>() {
        let mut seen: HashMap<String, Value> = HashMap::new();
        for v in f.block_insts(b).to_vec() {
            let key = match f.kind(v) {
                k @ (InstKind::ConstInt(_)
                | InstKind::ConstFloat(_)
                | InstKind::Binary(..)
                | InstKind::Icmp(..)
                | InstKind::Fcmp(..)
                | InstKind::Cast(..)
                | InstKind::Gep { .. }
                | InstKind::GlobalAddr(_)) => format!("{k:?}|{:?}", f.ty(v)),
                _ => continue,
            };
            match seen.get(&key) {
                Some(&prev) => {
                    f.replace_all_uses(v, prev);
                    f.remove_inst(v);
                    n += 1;
                }
                None => {
                    seen.insert(key, v);
                }
            }
        }
    }
    n
}

/// Block-local redundant-load elimination with store-to-load forwarding.
/// Aliasing is conservative: any store to a different pointer value, call,
/// or intrinsic clobbers all availability.
pub fn redundant_load_elim(f: &mut Function) -> usize {
    let mut n = 0;
    for b in f.blocks().collect::<Vec<_>>() {
        // (ptr value, type) → value currently in memory at that address.
        let mut avail: HashMap<(Value, Type), Value> = HashMap::new();
        for v in f.block_insts(b).to_vec() {
            match f.kind(v).clone() {
                InstKind::Load { ptr } => {
                    let Some(ty) = f.ty(v) else { continue };
                    match avail.get(&(ptr, ty)) {
                        Some(&prev) => {
                            f.replace_all_uses(v, prev);
                            f.remove_inst(v);
                            n += 1;
                        }
                        None => {
                            avail.insert((ptr, ty), v);
                        }
                    }
                }
                InstKind::Store { ptr, val } => {
                    // A store may alias anything we know about (different
                    // SSA pointers can be equal at run time).
                    avail.clear();
                    if let Some(ty) = f.ty(val) {
                        avail.insert((ptr, ty), val);
                    }
                }
                InstKind::Call { .. } | InstKind::IntrinsicCall { .. } => {
                    avail.clear();
                }
                _ => {}
            }
        }
    }
    n
}

/// Loop-invariant code motion for pure instructions whose operands are
/// defined outside the loop. Loads are hoisted only from loops that contain
/// no stores or calls.
pub fn licm(module: &mut Module, func: FuncId) -> usize {
    let f = module.function(func);
    let dt = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    let mut moves: Vec<(Value, Value)> = Vec::new(); // (inst, insert-before anchor)
    let mut moved: std::collections::HashSet<Value> = std::collections::HashSet::new();
    for lp in &forest.loops {
        let Some(pre) = lp.preheader(f) else { continue };
        let Some(anchor) = f.terminator(pre) else {
            continue;
        };
        // Block order fixes the order hoisted instructions land in the
        // preheader, so walk the loop body sorted, not in hash order.
        let mut blocks: Vec<_> = lp.blocks.iter().copied().collect();
        blocks.sort();
        let loop_has_side_effects = blocks.iter().any(|&b| {
            f.block_insts(b).iter().any(|&v| {
                matches!(
                    f.kind(v),
                    InstKind::Store { .. } | InstKind::Call { .. } | InstKind::IntrinsicCall { .. }
                )
            })
        });
        // Iterate to a local fixpoint so chains of invariant ops hoist.
        let mut changed = true;
        let mut hoisted_here: std::collections::HashSet<Value> = Default::default();
        while changed {
            changed = false;
            for &b in &blocks {
                for &v in f.block_insts(b) {
                    if moved.contains(&v) || hoisted_here.contains(&v) {
                        continue;
                    }
                    let hoistable = match f.kind(v) {
                        InstKind::ConstInt(_)
                        | InstKind::ConstFloat(_)
                        | InstKind::Binary(..)
                        | InstKind::Icmp(..)
                        | InstKind::Fcmp(..)
                        | InstKind::Cast(..)
                        | InstKind::Gep { .. }
                        | InstKind::GlobalAddr(_)
                        | InstKind::Select { .. } => true,
                        InstKind::Load { .. } => !loop_has_side_effects,
                        _ => false,
                    };
                    if !hoistable {
                        continue;
                    }
                    let mut invariant = true;
                    f.kind(v).for_each_operand(|op| {
                        let def_in_loop = lp.contains(f.inst(op).block);
                        if def_in_loop && !hoisted_here.contains(&op) {
                            invariant = false;
                        }
                    });
                    if invariant {
                        hoisted_here.insert(v);
                        moves.push((v, anchor));
                        moved.insert(v);
                        changed = true;
                    }
                }
            }
        }
    }
    let count = moves.len();
    let f = module.function_mut(func);
    for (v, anchor) in moves {
        f.move_inst_before(v, anchor);
    }
    count
}

/// Control-flow simplification:
/// * `cond_br` on a constant condition becomes `br` (pruning the dead
///   edge's phi incomings);
/// * `cond_br` with identical targets becomes `br`;
/// * straight-line block pairs (`a` ends in `br b`, `b` has one pred and no
///   phis) are merged.
pub fn simplify_cfg(f: &mut Function) -> usize {
    let mut n = 0;
    loop {
        let mut changed = false;

        // Branch folding.
        for b in f.blocks().collect::<Vec<_>>() {
            let Some(t) = f.terminator(b) else { continue };
            let InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            } = *f.kind(t)
            else {
                continue;
            };
            if then_bb == else_bb {
                f.inst_mut(t).kind = InstKind::Br(then_bb);
                changed = true;
                n += 1;
                continue;
            }
            if let InstKind::ConstInt(c) = f.kind(cond) {
                let (live, dead) = if *c != 0 {
                    (then_bb, else_bb)
                } else {
                    (else_bb, then_bb)
                };
                f.inst_mut(t).kind = InstKind::Br(live);
                // Remove the dead edge's phi incomings.
                for &v in f.block_insts(dead).to_vec().iter() {
                    if let InstKind::Phi(incs) = f.kind(v) {
                        let pruned: Vec<_> =
                            incs.iter().copied().filter(|(p, _)| *p != b).collect();
                        f.inst_mut(v).kind = InstKind::Phi(pruned);
                    }
                }
                changed = true;
                n += 1;
            }
        }

        // Straight-line merging.
        for a in f.blocks().collect::<Vec<_>>() {
            let Some(t) = f.terminator(a) else { continue };
            let InstKind::Br(b) = *f.kind(t) else {
                continue;
            };
            if b == a || b == f.entry_block() {
                continue;
            }
            if f.preds(b) != vec![a] {
                continue;
            }
            let has_phi = f
                .block_insts(b)
                .iter()
                .any(|&v| matches!(f.kind(v), InstKind::Phi(_)));
            if has_phi {
                // Single-pred phis are just copies: forward them first.
                for &v in f.block_insts(b).to_vec().iter() {
                    if let InstKind::Phi(incs) = f.kind(v).clone() {
                        if incs.len() == 1 {
                            f.replace_all_uses(v, incs[0].1);
                            f.remove_inst(v);
                        }
                    }
                }
                if f.block_insts(b)
                    .iter()
                    .any(|&v| matches!(f.kind(v), InstKind::Phi(_)))
                {
                    continue; // malformed multi-incoming phi; leave alone
                }
            }
            f.merge_straightline(a, b);
            changed = true;
            n += 1;
        }

        // Blocks that became unreachable: clear them and prune their phi
        // incomings from reachable successors.
        let reachable = Cfg::of(f).reachable(f.entry_block());
        for b in f.blocks().collect::<Vec<_>>() {
            if reachable[b.index()] || f.block_insts(b).is_empty() {
                continue;
            }
            for v in f.block_insts(b).to_vec() {
                f.remove_inst(v);
            }
            changed = true;
            n += 1;
        }
        for b in f.blocks().collect::<Vec<_>>() {
            if !reachable[b.index()] {
                continue;
            }
            for v in f.block_insts(b).to_vec() {
                if let InstKind::Phi(incs) = f.kind(v) {
                    if incs.iter().any(|(p, _)| !reachable[p.index()]) {
                        let pruned: Vec<_> = incs
                            .iter()
                            .copied()
                            .filter(|(p, _)| reachable[p.index()])
                            .collect();
                        f.inst_mut(v).kind = InstKind::Phi(pruned);
                        changed = true;
                    }
                }
            }
        }

        if !changed {
            break;
        }
    }
    n
}

/// Dead-code elimination: removes unused, side-effect-free instructions
/// (parameters are kept — their indices are the ABI).
pub fn dce(f: &mut Function) -> usize {
    let mut n = 0;
    loop {
        let mut uses = vec![0usize; f.num_insts()];
        for v in f.live_insts() {
            f.kind(v).for_each_operand(|op| uses[op.index()] += 1);
        }
        let mut removed = 0;
        for v in f.live_insts() {
            if uses[v.index()] > 0 {
                continue;
            }
            let kind = f.kind(v);
            if kind.has_side_effects() || matches!(kind, InstKind::Param(_) | InstKind::Nop) {
                continue;
            }
            f.remove_inst(v);
            removed += 1;
        }
        if removed == 0 {
            break;
        }
        n += removed;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature};

    #[test]
    fn folds_constants_and_cleans_up() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a = b.iconst(Type::I64, 6);
            let c = b.iconst(Type::I64, 7);
            let mul = b.binop(BinOp::Mul, a, c);
            b.ret(Some(mul));
        }
        let out = run(&mut m);
        assert!(out.folded >= 1);
        assert!(out.dce_removed >= 2, "the two source constants die");
        m.verify().unwrap();
        let f = m.function(id);
        let ret = f.terminator(f.entry_block()).unwrap();
        let InstKind::Ret(Some(v)) = f.kind(ret) else {
            panic!()
        };
        assert_eq!(*f.kind(*v), InstKind::ConstInt(42));
    }

    #[test]
    fn folds_div_but_not_by_zero() {
        assert_eq!(fold_int(BinOp::Sdiv, 10, 2), Some(5));
        assert_eq!(fold_int(BinOp::Sdiv, 10, 0), None);
        assert_eq!(fold_int(BinOp::Urem, -1, 10), Some((u64::MAX % 10) as i64));
    }

    #[test]
    fn narrow_types_truncate_on_fold() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I8)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a = b.iconst(Type::I8, 200);
            let c = b.iconst(Type::I8, 100);
            let s = b.binop(BinOp::Add, a, c);
            b.ret(Some(s));
        }
        constant_fold(m.function_mut(id));
        let f = m.function(id);
        let ret = f.terminator(f.entry_block()).unwrap();
        let InstKind::Ret(Some(v)) = f.kind(ret) else {
            panic!()
        };
        assert_eq!(*f.kind(*v), InstKind::ConstInt(44)); // 300 wraps to 44 in i8
    }

    #[test]
    fn cse_merges_identical_geps() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let i = b.param(1);
            let g1 = b.gep(p, i, 8, 0);
            let g2 = b.gep(p, i, 8, 0);
            let x = b.load(Type::I64, g1);
            b.store(g2, x);
            b.ret(Some(x));
        }
        let n = local_cse(m.function_mut(id));
        assert_eq!(n, 1);
        m.verify().unwrap();
    }

    #[test]
    fn redundant_load_elimination_and_forwarding() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let x1 = b.load(Type::I64, p); // first load
            let x2 = b.load(Type::I64, p); // redundant
            let s = b.binop(BinOp::Add, x1, x2);
            b.store(p, s);
            let x3 = b.load(Type::I64, p); // forwarded from the store
            let t = b.binop(BinOp::Add, s, x3);
            b.ret(Some(t));
        }
        let n = redundant_load_elim(m.function_mut(id));
        assert_eq!(n, 2);
        dce(m.function_mut(id));
        m.verify().unwrap();
        // Only the first load remains.
        let f = m.function(id);
        let loads = f
            .live_insts()
            .into_iter()
            .filter(|&v| matches!(f.kind(v), InstKind::Load { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn stores_clobber_unrelated_availability() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let q = b.param(1);
            let x1 = b.load(Type::I64, p);
            b.store(q, x1); // may alias p!
            let x2 = b.load(Type::I64, p); // must NOT be eliminated
            let s = b.binop(BinOp::Add, x1, x2);
            b.ret(Some(s));
        }
        let n = redundant_load_elim(m.function_mut(id));
        assert_eq!(n, 0);
    }

    #[test]
    fn licm_hoists_invariant_chain() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::I64, Type::I64], Some(Type::I64)),
        );
        let hdr_blocks;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let k = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, _i| {
                // k*k + 1 is invariant.
                let sq = b.binop(BinOp::Mul, k, k);
                let one = b.iconst(Type::I64, 1);
                let _ = b.binop(BinOp::Add, sq, one);
            });
            b.ret(Some(zero));
            hdr_blocks = b.func().num_blocks();
        }
        let _ = hdr_blocks;
        let hoisted = licm(&mut m, id);
        assert!(hoisted >= 3, "expected chain of 3+, got {hoisted}");
        m.verify().unwrap();
    }

    #[test]
    fn licm_does_not_hoist_loads_past_stores() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let n = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, _i| {
                let x = b.load(Type::I64, p); // invariant address, but...
                let one = b.iconst(Type::I64, 1);
                let y = b.binop(BinOp::Add, x, one);
                b.store(p, y); // ...the loop writes through it
            });
            b.ret(Some(zero));
        }
        let f_before: Vec<_> = {
            let f = m.function(id);
            f.live_insts()
                .into_iter()
                .filter(|&v| matches!(f.kind(v), InstKind::Load { .. }))
                .map(|v| f.inst(v).block)
                .collect()
        };
        licm(&mut m, id);
        let f = m.function(id);
        let f_after: Vec<_> = f
            .live_insts()
            .into_iter()
            .filter(|&v| matches!(f.kind(v), InstKind::Load { .. }))
            .map(|v| f.inst(v).block)
            .collect();
        assert_eq!(f_before, f_after, "load must stay in the loop");
    }

    #[test]
    fn simplify_cfg_folds_constant_branches() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            let x = b.param(0);
            let one = b.iconst(Type::I64, 1);
            b.cond_br(one, t, e); // always true
            b.switch_to_block(t);
            let a = b.binop(BinOp::Add, x, x);
            b.br(j);
            b.switch_to_block(e);
            let s = b.binop(BinOp::Sub, x, x);
            b.br(j);
            b.switch_to_block(j);
            let p = b.phi(Type::I64, &[(t, a), (e, s)]);
            b.ret(Some(p));
        }
        m.verify().unwrap();
        let n = simplify_cfg(m.function_mut(id));
        assert!(n >= 1);
        m.verify().unwrap();
        // The dead-edge phi incoming was pruned.
        let f = m.function(id);
        let phis: Vec<_> = f
            .live_insts()
            .into_iter()
            .filter_map(|v| match f.kind(v) {
                InstKind::Phi(incs) => Some(incs.len()),
                _ => None,
            })
            .collect();
        assert!(phis.iter().all(|&l| l == 1), "{phis:?}");
    }

    #[test]
    fn simplify_cfg_merges_straightline_chain() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let b1 = b.create_block();
            let b2 = b.create_block();
            let x = b.param(0);
            b.br(b1);
            b.switch_to_block(b1);
            let y = b.binop(BinOp::Add, x, x);
            b.br(b2);
            b.switch_to_block(b2);
            let z = b.binop(BinOp::Mul, y, y);
            b.ret(Some(z));
        }
        m.verify().unwrap();
        let n = simplify_cfg(m.function_mut(id));
        assert_eq!(n, 2, "both links of the chain merge");
        m.verify().unwrap();
        let f = m.function(id);
        // Everything now lives in the entry block.
        assert_eq!(f.block_insts(f.entry_block()).len(), f.live_insts().len());
    }

    #[test]
    fn simplify_cfg_keeps_loops_intact() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |_b, _i| {});
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        simplify_cfg(m.function_mut(id));
        m.verify().unwrap();
        // The loop must still loop.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        assert_eq!(forest.loops.len(), 1);
    }

    #[test]
    fn o1_shrinks_redundant_kernel_like_fig17b() {
        // A caricature of the FT inner loop: the same element is re-loaded
        // for every use. O1 must collapse the loads so the later guard pass
        // has less to instrument.
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::F64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let i = b.param(1);
            let g1 = b.gep(p, i, 8, 0);
            let a1 = b.load(Type::F64, g1);
            let g2 = b.gep(p, i, 8, 0);
            let a2 = b.load(Type::F64, g2);
            let g3 = b.gep(p, i, 8, 0);
            let a3 = b.load(Type::F64, g3);
            let s1 = b.binop(BinOp::Fadd, a1, a2);
            let s2 = b.binop(BinOp::Fadd, s1, a3);
            b.ret(Some(s2));
        }
        let before = m.total_live_insts();
        let out = run(&mut m);
        let after = m.total_live_insts();
        assert!(out.loads_eliminated >= 2);
        assert!(after < before);
        m.verify().unwrap();
        let f = m.function(id);
        let loads = f
            .live_insts()
            .into_iter()
            .filter(|&v| matches!(f.kind(v), InstKind::Load { .. }))
            .count();
        assert_eq!(loads, 1, "3 loads must become 1");
    }
}
