//! Loop-invariant guard motion.
//!
//! Redundant-guard elimination (the PR-4 pass) only folds guards that are
//! *covered* by an earlier guard on the same pointer. This pass attacks the
//! complementary pattern: a guard executed on **every iteration** of a loop
//! whose pointer never changes. The custody it acquires is identical each
//! time, so the guard is hoisted into the loop preheader and paid once per
//! loop entry instead of once per iteration — the classic loop-invariant
//! code motion, applied to TrackFM guards, with safety conditions specific
//! to custody semantics:
//!
//! 1. **The loop body must be custody-transparent**: no allocation, free,
//!    or other killing intrinsic, and every call provably transparent (via
//!    [`ModuleSummaries`] when supplied — with no summaries any call blocks
//!    hoisting). Otherwise custody acquired in the preheader would lapse
//!    mid-loop and the rewritten accesses would race evacuation.
//! 2. **The guarded pointer must be loop-invariant**, either defined
//!    outside the loop or a pure computation (`gep` / `cast` / arithmetic /
//!    constants) whose leaves are — the chain is moved into the preheader
//!    ahead of the guard.
//! 3. **The guard's block must dominate every latch** (it runs on every
//!    iteration) and the loop must have a **provable trip count ≥ 1**, so
//!    the hoisted guard never executes more often than the original did —
//!    simulated cycles can only shrink.
//!
//! A second, related rewrite handles read-modify-write pairs split across
//! blocks (`guard.read` in one block, `guard.write` of the same pointer in
//! a later block): when the write's block postdominates the read's, sits in
//! exactly the same loops, and dominates the shared loop's latches, the two
//! execute the same number of times — so the read guard is upgraded to a
//! write guard in place and the duplicate deleted, extending the
//! elimination pass's same-block RMW fold across control flow.
//!
//! The pass moves instructions without renumbering them, so guard `Value`
//! ids — and therefore telemetry `SiteKey`s — survive hoisting.

use crate::passes::guard_elim::{elided_sites, fold_guards, ElidedSite, Fold};
use std::collections::BTreeMap;
use tfm_analysis::dom::{DomTree, PostDomTree};
use tfm_analysis::guard_check::{AvailableGuards, GuardKind};
use tfm_analysis::induction::{basic_ivs, static_trip_count};
use tfm_analysis::loops::{LoopForest, NaturalLoop};
use tfm_analysis::summaries::ModuleSummaries;
use tfm_ir::{Block, FuncId, Function, InstKind, Intrinsic, Module, Value};

/// One guard moved out of (possibly several nested) loops.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HoistedSite {
    /// Function index of the hoisted guard.
    pub func: u32,
    /// Value index of the hoisted guard (stable across the move).
    pub value: u32,
    /// How many loop levels it was hoisted out of.
    pub levels: u32,
}

/// What guard motion did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MotionOutcome {
    /// Guards hoisted into a preheader (each counted once, however many
    /// levels it climbed).
    pub hoisted: usize,
    /// Cross-block read→write upgrades (the duplicate write guard deleted,
    /// the surviving read guard strengthened in place).
    pub upgraded: usize,
    /// Per-guard hoist attribution.
    pub sites: Vec<HoistedSite>,
    /// Per-survivor attribution of the cross-block folds.
    pub folds: Vec<ElidedSite>,
}

/// True when executing the loop body can never clobber custody: no killing
/// intrinsic, and every call custody-transparent per the summaries (no
/// summaries ⇒ any call blocks hoisting).
fn body_custody_transparent(
    f: &Function,
    lp: &NaturalLoop,
    summaries: Option<&ModuleSummaries>,
) -> bool {
    for &b in &lp.blocks {
        for &v in f.block_insts(b) {
            match f.kind(v) {
                InstKind::IntrinsicCall { intr, .. } => match intr {
                    Intrinsic::GuardRead | Intrinsic::GuardWrite | Intrinsic::ChunkDeref => {}
                    _ => return false,
                },
                InstKind::Call { func, .. }
                    if !summaries.is_some_and(|s| s.summary(*func).custody_transparent()) =>
                {
                    return false;
                }
                _ => {}
            }
        }
    }
    true
}

/// If `ptr` is loop-invariant (or a pure computation over loop-invariant
/// leaves), returns the in-loop instructions to move into the preheader, in
/// def-before-use order (empty when `ptr` is already defined outside).
fn hoistable_chain(f: &Function, lp: &NaturalLoop, ptr: Value) -> Option<Vec<Value>> {
    let mut chain = Vec::new();
    if collect_chain(f, lp, ptr, &mut chain, 0) {
        Some(chain)
    } else {
        None
    }
}

fn collect_chain(
    f: &Function,
    lp: &NaturalLoop,
    v: Value,
    chain: &mut Vec<Value>,
    depth: usize,
) -> bool {
    if !lp.contains(f.inst(v).block) {
        return true; // invariant leaf
    }
    if chain.contains(&v) {
        return true; // already scheduled (shared subexpression)
    }
    if depth > 64 {
        return false;
    }
    let ok = match f.kind(v) {
        InstKind::ConstInt(_) => true,
        InstKind::Gep { base, index, .. } => {
            let (base, index) = (*base, *index);
            collect_chain(f, lp, base, chain, depth + 1)
                && collect_chain(f, lp, index, chain, depth + 1)
        }
        InstKind::Cast(_, a) => {
            let a = *a;
            collect_chain(f, lp, a, chain, depth + 1)
        }
        InstKind::Binary(_, a, b) => {
            let (a, b) = (*a, *b);
            collect_chain(f, lp, a, chain, depth + 1) && collect_chain(f, lp, b, chain, depth + 1)
        }
        _ => false, // phis, loads, calls: variant or impure
    };
    if ok {
        chain.push(v);
    }
    ok
}

/// One round of hoisting over one function: moves every eligible guard one
/// loop level outward. Returns the guards moved. `dt` and `forest` describe
/// the function's CFG, which hoisting never changes.
fn hoist_one_level(
    module: &mut Module,
    fid: FuncId,
    summaries: Option<&ModuleSummaries>,
    dt: &DomTree,
    forest: &LoopForest,
) -> Vec<Value> {
    let f = module.function(fid);
    // Per-loop eligibility, resolved once.
    let loop_ok: Vec<Option<Block>> = forest
        .loops
        .iter()
        .map(|lp| {
            let ph = lp.preheader(f)?;
            if !body_custody_transparent(f, lp, summaries) {
                return None;
            }
            let ivs = basic_ivs(f, lp);
            // Trip count ≥ 1 keeps the hoisted guard from running on a
            // zero-trip entry the original never saw.
            match static_trip_count(f, lp, &ivs) {
                Some(t) if t >= 1 => Some(ph),
                _ => None,
            }
        })
        .collect();
    let mut candidates: Vec<(Value, Vec<Value>, Block)> = Vec::new();
    for v in f.live_insts() {
        let InstKind::IntrinsicCall {
            intr: Intrinsic::GuardRead | Intrinsic::GuardWrite,
            args,
        } = f.kind(v)
        else {
            continue;
        };
        let b = f.inst(v).block;
        let Some((idx, lp)) = forest
            .loops
            .iter()
            .enumerate()
            .filter(|(_, l)| l.contains(b))
            .min_by_key(|(_, l)| l.blocks.len())
        else {
            continue;
        };
        let Some(ph) = loop_ok[idx] else {
            continue;
        };
        if !lp.latches.iter().all(|&l| dt.dominates(b, l)) {
            continue;
        }
        let Some(chain) = hoistable_chain(f, lp, args[0]) else {
            continue;
        };
        candidates.push((v, chain, ph));
    }
    let f = module.function_mut(fid);
    let mut moved = Vec::new();
    for (g, chain, ph) in candidates {
        let term = f.terminator(ph).expect("preheader must be terminated");
        for c in chain {
            // A shared subexpression may already have migrated with an
            // earlier candidate this round.
            if f.inst(c).block != ph {
                f.move_inst_before(c, term);
            }
        }
        f.move_inst_before(g, term);
        moved.push(g);
    }
    moved
}

/// Runs guard motion over every function: first the cross-block RMW fold,
/// then iterated one-level hoisting until no guard can climb further.
pub fn run(module: &mut Module, summaries: Option<&ModuleSummaries>) -> MotionOutcome {
    let mut outcome = MotionOutcome::default();
    let mut absorbed = BTreeMap::new();
    let mut levels: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    for fid in module.function_ids().collect::<Vec<_>>() {
        // Motion moves and deletes instructions but never changes the CFG,
        // so one set of CFG analyses serves the fold and every hoist round.
        let f = module.function(fid);
        let fx = summaries.map(|s| s.effects_for(fid, f));
        let ag = AvailableGuards::compute_with(f, fx);
        let dt = DomTree::compute(f);
        let pdt = PostDomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let f = module.function_mut(fid);
        let (folded, _) = fold_guards(f, fid.0, &ag, &mut absorbed, |f, v, need, g, kind| {
            let (b1, b) = (f.inst(g).block, f.inst(v).block);
            // A write guard folds into a read guard in another block when
            // both run the same number of times: the write's block
            // postdominates the read's, both sit in exactly the same loops,
            // and the write's block dominates the shared innermost loop's
            // latches (each completed iteration runs both).
            let same_count = b1 != b
                && pdt.postdominates(b, b1)
                && forest.loops.iter().all(|l| l.contains(b1) == l.contains(b))
                && forest
                    .innermost_containing(b)
                    .is_none_or(|l| l.latches.iter().all(|&lt| dt.dominates(b, lt)));
            let read_guard = matches!(
                f.kind(g),
                InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardRead,
                    ..
                }
            );
            if need == GuardKind::Write && kind == GuardKind::Read && read_guard && same_count {
                Fold::Upgrade
            } else {
                Fold::Keep
            }
        });
        outcome.upgraded += folded;
        loop {
            let moved = hoist_one_level(module, fid, summaries, &dt, &forest);
            if moved.is_empty() {
                break;
            }
            for g in moved {
                *levels.entry((fid.0, g.index() as u32)).or_insert(0) += 1;
            }
        }
    }
    outcome.hoisted = levels.len();
    outcome.sites = levels
        .into_iter()
        .map(|((func, value), levels)| HoistedSite {
            func,
            value,
            levels,
        })
        .collect();
    outcome.folds = elided_sites(absorbed);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, FunctionBuilder, Signature, Type};

    fn guard_blocks(m: &Module) -> Vec<(Value, usize)> {
        let mut out = Vec::new();
        for (_, f) in m.functions() {
            for v in f.live_insts() {
                if let InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardRead | Intrinsic::GuardWrite,
                    ..
                } = f.kind(v)
                {
                    out.push((v, f.inst(v).block.index()));
                }
            }
        }
        out
    }

    /// `for i in 0..n { *p += load(p) }` with an invariant guard: hoists.
    #[test]
    fn invariant_guard_is_hoisted_to_the_preheader() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let g;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            let mut guard = None;
            b.counted_loop(zero, n, 1, |b, _i| {
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let x = b.load(Type::I64, gv);
                let _ = b.binop(BinOp::Add, x, x);
                guard = Some(gv);
            });
            g = guard.unwrap();
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let ph = forest.loops[0].preheader(f).unwrap();

        let out = run(&mut m, None);
        assert_eq!(out.hoisted, 1);
        assert_eq!(
            out.sites,
            vec![HoistedSite {
                func: id.0,
                value: g.index() as u32,
                levels: 1
            }]
        );
        assert_eq!(m.function(id).inst(g).block, ph);
        m.verify().unwrap();
    }

    /// The guarded pointer is a `gep base, iconst` computed in the body:
    /// the pure chain moves with the guard.
    #[test]
    fn pure_operand_chain_is_hoisted_with_the_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 8);
            b.counted_loop(zero, n, 1, |b, _i| {
                let k = b.iconst(Type::I64, 3);
                let addr = b.gep(p, k, 8, 0);
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![addr]);
                let _ = b.load(Type::I64, gv);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.hoisted, 1);
        m.verify().unwrap();
        // Guard (and its chain) left the loop body: nothing guard-ish
        // remains in any loop block.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        for (v, blk) in guard_blocks(&m) {
            assert!(
                !forest.loops[0].contains(tfm_ir::Block::from_index(blk)),
                "guard {v} still in loop"
            );
        }
    }

    /// An IV-dependent pointer is variant: no hoist.
    #[test]
    fn variant_pointer_is_not_hoisted() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(p, i, 8, 0);
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![addr]);
                let _ = b.load(Type::I64, gv);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out, MotionOutcome::default());
    }

    /// A call in the body kills custody: no hoist without summaries, hoist
    /// once summaries prove the callee transparent.
    #[test]
    fn calls_block_hoisting_unless_provably_transparent() {
        let build = || {
            let mut m = Module::new("t");
            let h = m.declare_function("h", Signature::new(vec![Type::I64], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(h));
                let x = b.param(0);
                let y = b.binop(BinOp::Add, x, x);
                b.ret(Some(y));
            }
            let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let p = b.param(0);
                let zero = b.iconst(Type::I64, 0);
                let n = b.iconst(Type::I64, 100);
                b.counted_loop(zero, n, 1, |b, i| {
                    let _ = b.call(h, vec![i], Some(Type::I64));
                    let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                    let _ = b.load(Type::I64, gv);
                });
                b.ret(Some(zero));
            }
            m.verify().unwrap();
            m
        };
        let mut m = build();
        assert_eq!(run(&mut m, None), MotionOutcome::default());

        let mut m = build();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        let out = run(&mut m, Some(&sums));
        assert_eq!(out.hoisted, 1);
        m.verify().unwrap();
    }

    /// A while-shaped loop with an unknown bound may run zero times: the
    /// guard must stay inside.
    #[test]
    fn unknown_trip_count_blocks_hoisting() {
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
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let _ = b.load(Type::I64, gv);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m, None), MotionOutcome::default());
    }

    /// A conditionally executed guard must not be hoisted (it may run far
    /// fewer times than the trip count).
    #[test]
    fn conditional_guard_is_not_hoisted() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let c = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            b.counted_loop(zero, n, 1, |b, _i| {
                let then_bb = b.create_block();
                let join_bb = b.create_block();
                b.cond_br(c, then_bb, join_bb);
                b.switch_to_block(then_bb);
                let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                let _ = b.load(Type::I64, gv);
                b.br(join_bb);
                b.switch_to_block(join_bb);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m, None), MotionOutcome::default());
    }

    /// Nested const-trip loops: the guard climbs both levels.
    #[test]
    fn guard_climbs_out_of_nested_loops() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let g;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 10);
            let mut guard = None;
            b.counted_loop(zero, n, 1, |b, _i| {
                let z2 = b.iconst(Type::I64, 0);
                let m2 = b.iconst(Type::I64, 10);
                b.counted_loop(z2, m2, 1, |b, _j| {
                    let gv = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                    let _ = b.load(Type::I64, gv);
                    guard = Some(gv);
                });
            });
            g = guard.unwrap();
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.hoisted, 1);
        assert_eq!(out.sites[0].levels, 2);
        m.verify().unwrap();
        // The guard now sits outside every loop.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let gb = f.inst(g).block;
        assert!(forest.loops.iter().all(|l| !l.contains(gb)));
    }

    /// Cross-block RMW: read guard in the header path, write guard of the
    /// same pointer in a block that postdominates it → upgraded in place.
    #[test]
    fn cross_block_rmw_upgrades_the_read_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let (g1, g2);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let next = b.create_block();
            g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g1);
            b.br(next);
            b.switch_to_block(next);
            let one = b.iconst(Type::I64, 1);
            let x2 = b.binop(BinOp::Add, x, one);
            g2 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            b.store(g2, x2);
            b.ret(Some(x2));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.upgraded, 1);
        assert_eq!(
            out.folds,
            vec![ElidedSite {
                func: id.0,
                survivor: g1.index() as u32,
                absorbed: 1
            }]
        );
        let f = m.function(id);
        assert!(matches!(
            f.kind(g1),
            InstKind::IntrinsicCall {
                intr: Intrinsic::GuardWrite,
                ..
            }
        ));
        m.verify().unwrap();
    }

    /// The write is on a conditional path: upgrading would dirty-mark the
    /// fall-through path, and the counts differ — no fold.
    #[test]
    fn conditional_write_does_not_upgrade_across_blocks() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let c = b.param(1);
            let wr = b.create_block();
            let done = b.create_block();
            let g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g1);
            b.cond_br(c, wr, done);
            b.switch_to_block(wr);
            let g2 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            b.store(g2, x);
            b.br(done);
            b.switch_to_block(done);
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let out = run(&mut m, None);
        assert_eq!(out.upgraded, 0);
    }
}
