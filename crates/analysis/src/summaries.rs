//! Bottom-up interprocedural function-effect summaries.
//!
//! TrackFM leans on NOELLE's whole-program abstractions; this module is the
//! equivalent over [`tfm_ir`]: one [`FnSummary`] per function, computed
//! bottom-up over the [`crate::callgraph::CallGraph`]'s SCC condensation,
//! answering the three questions the compiler's consumers ask:
//!
//! 1. **Custody transparency** (`kills_custody`): may calling this function
//!    clobber the caller's available guards? False only when the function
//!    (and everything it transitively calls) contains no allocation, free,
//!    or other custody-killing intrinsic — then `guard_check` keeps the
//!    caller's cover set alive across the call, so redundant-guard
//!    elimination may fold guard pairs that straddle it.
//! 2. **Parameter / return memory classes** (`param_class`, `ret_class`):
//!    the join over every call site of the argument's [`MemClass`] (and the
//!    join over every return of the returned value's class), so `points_to`
//!    can classify parameters the intraprocedural analysis writes off as
//!    `Unknown` — and the `guards` pass can skip provably stack / global
//!    pointers entirely.
//! 3. **Custody propagation** (`param_custody`, `ret_custody`): the meet
//!    over every call site of the argument's cover (and over every return
//!    of the returned value's cover), so custody established in the caller
//!    survives into the callee (entry seeding) and custody established in
//!    the callee survives back (call-result covers).
//!
//! Soundness rules worth spelling out:
//!
//! * A `Localized` parameter or return class is **demoted to `Unknown`**
//!   unless the matching custody fact holds. Class says "the value is a
//!   canonical pointer"; custody says "its object is still localized on
//!   every path". Only together do they justify skipping a guard.
//! * Call-result covers are only emitted when the callee's return class is
//!   `Localized`: a cover on a *raw* returned pointer is fine for the lint
//!   but must never become an elimination survivor (rewriting accesses to a
//!   raw pointer would trap on canonical-address checking).
//! * Refinement only ever narrows the intraprocedural answer: pointer
//!   parameters start from `Unknown` at roots, non-pointer parameters keep
//!   the legacy `NonPtr` treatment, so turning the analysis on can remove
//!   guards but never add one.
//! * **Roots** — `main` (whatever the pipeline says it is called) plus every
//!   SCC no outside function calls into — are assumed callable from the
//!   harness with arbitrary arguments: their parameters stay `Unknown` and
//!   carry no custody.
//!
//! The dynamic mirror lives in `tfm_sim::Machine`: the guard sanitizer
//! propagates custody shadows across call/return and only clobbers the
//! caller's shadows when the callee *actually* executed a killing
//! operation, so the dynamic kill set is always a subset of the static
//! may-kill set and lint-clean programs stay sanitizer-clean.

use crate::callgraph::CallGraph;
use crate::guard_check::{AvailableGuards, CallEffects, GuardKind};
use crate::points_to::{MemClass, PointsTo};
use std::collections::{HashMap, HashSet};
use tfm_ir::{FuncId, Function, InstKind, Intrinsic, Module, Type};

/// The per-function effect summary.
#[derive(Clone, Debug, PartialEq)]
pub struct FnSummary {
    /// May this function (transitively) clobber the caller's custody set?
    pub kills_custody: bool,
    /// Join over every call site of each argument's memory class
    /// (`Unknown` for root parameters).
    pub param_class: Vec<MemClass>,
    /// Meet over every call site of each argument's custody.
    pub param_custody: Vec<Option<GuardKind>>,
    /// Join over every return of the returned value's class (`NonPtr` for
    /// void / non-pointer returns).
    pub ret_class: MemClass,
    /// Meet over every return of the returned value's custody.
    pub ret_custody: Option<GuardKind>,
}

impl FnSummary {
    /// True when calling this function provably leaves the caller's
    /// available-guard set intact.
    pub fn custody_transparent(&self) -> bool {
        !self.kills_custody
    }
}

/// Custody lattice used during the descending fixpoint: ⊤ (no constraint
/// seen yet) → a kind → ⊥ (no custody).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Cust {
    Top,
    Kind(GuardKind),
    Bottom,
}

impl Cust {
    fn meet(self, other: Cust) -> Cust {
        match (self, other) {
            (Cust::Top, x) | (x, Cust::Top) => x,
            (Cust::Bottom, _) | (_, Cust::Bottom) => Cust::Bottom,
            (Cust::Kind(a), Cust::Kind(b)) => Cust::Kind(a.meet(b)),
        }
    }

    /// Conservative readout: ⊤ (never constrained — unreachable function or
    /// value) reads as no custody.
    fn out(self) -> Option<GuardKind> {
        match self {
            Cust::Kind(k) => Some(k),
            _ => None,
        }
    }
}

/// Guard kinds that propagate across calls: chunk custody stays per-stream
/// (its write intent lives on the `tfm.chunk.begin` flags).
fn propagable(k: GuardKind) -> Option<GuardKind> {
    match k {
        GuardKind::Read | GuardKind::Write => Some(k),
        GuardKind::Chunk => None,
    }
}

/// Whole-module summaries, one per function.
#[derive(Clone, Debug)]
pub struct ModuleSummaries {
    sums: HashMap<FuncId, FnSummary>,
}

impl ModuleSummaries {
    /// Computes summaries bottom-up over the SCC condensation. `roots`
    /// names functions callable from outside the module (the pipeline
    /// passes its `main_name`); uncalled functions and source SCCs are
    /// added automatically.
    pub fn compute(module: &Module, roots: &[&str]) -> Self {
        let cg = CallGraph::compute(module);
        let root_set = root_set(module, &cg, roots);
        let n = module
            .function_ids()
            .map(|f| f.index() + 1)
            .max()
            .unwrap_or(0);

        // Phase 1 — custody kills, a least fixpoint (optimistic `false`
        // start) over the bottom-up SCC order; only intra-SCC edges need
        // iteration. Every intrinsic but a guard or chunk dereference kills.
        let mut kills = vec![false; n];
        for scc in cg.sccs_bottom_up() {
            let mut changed = true;
            while changed {
                changed = false;
                for &fid in scc {
                    let f = module.function(fid);
                    let k = f.live_insts().into_iter().any(|v| match f.kind(v) {
                        InstKind::IntrinsicCall { intr, .. } => !matches!(
                            intr,
                            Intrinsic::GuardRead | Intrinsic::GuardWrite | Intrinsic::ChunkDeref
                        ),
                        InstKind::Call { func, .. } => kills[func.index()],
                        _ => false,
                    });
                    if k && !kills[fid.index()] {
                        kills[fid.index()] = true;
                        changed = true;
                    }
                }
            }
        }

        // Phase 2 — custody, a descending (⊤-start) must fixpoint. Custody
        // facts are independent of memory classes, so this converges before
        // classes are touched. Roots get no parameter custody.
        let mut param_cust: Vec<Vec<Cust>> = module
            .function_ids()
            .map(|fid| {
                let f = module.function(fid);
                f.sig
                    .params
                    .iter()
                    .map(|t| {
                        if root_set.contains(&fid) || *t != Type::Ptr {
                            Cust::Bottom
                        } else {
                            Cust::Top
                        }
                    })
                    .collect()
            })
            .collect();
        let mut ret_cust: Vec<Cust> = module
            .function_ids()
            .map(|fid| {
                if module.function(fid).sig.ret == Some(Type::Ptr) {
                    Cust::Top
                } else {
                    Cust::Bottom
                }
            })
            .collect();
        loop {
            let mut changed = false;
            // Fresh per-round site constraints, met into the state below.
            let mut site_cust: Vec<Vec<Cust>> = param_cust
                .iter()
                .map(|p| vec![Cust::Top; p.len()])
                .collect();
            let mut new_ret = ret_cust.clone();
            for fid in module.function_ids() {
                let f = module.function(fid);
                let fx = build_effects(f, fid, &kills, &ret_cust, &param_cust);
                let ag = AvailableGuards::compute_with(f, Some(fx));
                for bi in 0..f.num_blocks() {
                    let b = tfm_ir::Block::from_index(bi);
                    let Some(start) = ag.block_in(b) else {
                        continue;
                    };
                    let mut map = start.clone();
                    for &v in f.block_insts(b) {
                        match f.kind(v) {
                            InstKind::Call { func, args } => {
                                for (i, a) in args.iter().enumerate() {
                                    let c = map
                                        .get(a)
                                        .and_then(|c| propagable(c.kind))
                                        .map(Cust::Kind)
                                        .unwrap_or(Cust::Bottom);
                                    let slot = &mut site_cust[func.index()][i];
                                    *slot = slot.meet(c);
                                }
                            }
                            InstKind::Ret(Some(rv)) if f.sig.ret == Some(Type::Ptr) => {
                                let c = map
                                    .get(rv)
                                    .and_then(|c| propagable(c.kind))
                                    .map(Cust::Kind)
                                    .unwrap_or(Cust::Bottom);
                                new_ret[fid.index()] = new_ret[fid.index()].meet(c);
                            }
                            _ => {}
                        }
                        ag.apply(f, &mut map, v);
                    }
                }
            }
            for fid in module.function_ids() {
                let i = fid.index();
                if new_ret[i] != ret_cust[i] {
                    ret_cust[i] = new_ret[i];
                    changed = true;
                }
                if root_set.contains(&fid) {
                    continue;
                }
                for (p, site) in param_cust[i].iter_mut().zip(&site_cust[i]) {
                    let met = p.meet(*site);
                    if met != *p {
                        *p = met;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Phase 3 — classes, an ascending (⊥-start) join fixpoint with the
        // custody-gated Localized demotion applied as facts are produced.
        let mut param_class: Vec<Vec<MemClass>> = module
            .function_ids()
            .map(|fid| {
                let f = module.function(fid);
                f.sig
                    .params
                    .iter()
                    .map(|t| {
                        if *t != Type::Ptr {
                            MemClass::NonPtr
                        } else if root_set.contains(&fid) {
                            MemClass::Unknown
                        } else {
                            MemClass::NonPtr
                        }
                    })
                    .collect()
            })
            .collect();
        let mut ret_class: Vec<MemClass> = vec![MemClass::NonPtr; n];
        loop {
            let mut changed = false;
            // Every function is classified against this round's state
            // before any of it is updated.
            let pts: Vec<(FuncId, PointsTo)> = module
                .function_ids()
                .map(|fid| {
                    let pt = PointsTo::compute_with_env(
                        module.function(fid),
                        &param_class[fid.index()],
                        &|g| ret_class[g.index()],
                    );
                    (fid, pt)
                })
                .collect();
            for (fid, pt) in pts {
                let f = module.function(fid);
                for v in f.live_insts() {
                    match f.kind(v) {
                        InstKind::Ret(Some(rv)) if f.sig.ret == Some(Type::Ptr) => {
                            let c = demote(pt.class(*rv), ret_cust[fid.index()].out());
                            let joined = ret_class[fid.index()].join(c);
                            if joined != ret_class[fid.index()] {
                                ret_class[fid.index()] = joined;
                                changed = true;
                            }
                        }
                        InstKind::Call { func, args } => {
                            if root_set.contains(func) {
                                continue;
                            }
                            for (i, a) in args.iter().enumerate() {
                                let slot = &mut param_class[func.index()][i];
                                if module.function(*func).sig.params[i] != Type::Ptr {
                                    continue;
                                }
                                let c = demote(pt.class(*a), param_cust[func.index()][i].out());
                                let joined = slot.join(c);
                                if joined != *slot {
                                    *slot = joined;
                                    changed = true;
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let sums = module
            .function_ids()
            .map(|fid| {
                let i = fid.index();
                (
                    fid,
                    FnSummary {
                        kills_custody: kills[i],
                        param_class: param_class[i].clone(),
                        param_custody: param_cust[i].iter().map(|c| c.out()).collect(),
                        ret_class: ret_class[i],
                        ret_custody: ret_cust[i].out(),
                    },
                )
            })
            .collect();
        ModuleSummaries { sums }
    }

    /// The summary of `f`.
    pub fn summary(&self, f: FuncId) -> &FnSummary {
        &self.sums[&f]
    }

    /// Builds the per-instruction [`CallEffects`] for `fid`, ready to hand
    /// to [`AvailableGuards::compute_with`]. Call-result covers are gated on
    /// the callee returning a *canonical* (`Localized`) pointer so
    /// elimination never rewrites accesses to a raw pointer.
    pub fn effects_for(&self, fid: FuncId, f: &Function) -> CallEffects {
        let mut fx = CallEffects::default();
        for v in f.live_insts() {
            if let InstKind::Call { func, .. } = f.kind(v) {
                let s = self.summary(*func);
                if s.custody_transparent() {
                    fx.transparent.insert(v);
                }
                if f.ty(v) == Some(Type::Ptr) && s.ret_class == MemClass::Localized {
                    if let Some(k) = s.ret_custody {
                        fx.ret_cover.insert(v, k);
                    }
                }
            }
        }
        let s = self.summary(fid);
        for (i, c) in s.param_custody.iter().enumerate() {
            if let Some(k) = *c {
                fx.entry_cover.insert(f.param(i), k);
            }
        }
        fx
    }

    /// Per-function [`PointsTo`] refined with this module's summaries.
    pub fn points_to_for(&self, fid: FuncId, f: &Function) -> PointsTo {
        let s = self.summary(fid);
        PointsTo::compute_with_env(f, &s.param_class, &|g| self.summary(g).ret_class)
    }
}

/// Applies the Localized-demands-custody rule.
fn demote(c: MemClass, custody: Option<GuardKind>) -> MemClass {
    if c == MemClass::Localized && custody.is_none() {
        MemClass::Unknown
    } else {
        c
    }
}

/// Roots: named entry points, plus every SCC without callers outside
/// itself (covers uncalled functions and uncalled recursive groups).
fn root_set(module: &Module, cg: &CallGraph, roots: &[&str]) -> HashSet<FuncId> {
    let mut set: HashSet<FuncId> = module
        .function_ids()
        .filter(|&fid| roots.contains(&module.function(fid).name.as_str()))
        .collect();
    for scc in cg.sccs_bottom_up() {
        let member: HashSet<FuncId> = scc.iter().copied().collect();
        let externally_called = scc
            .iter()
            .any(|&f| cg.callers(f).iter().any(|c| !member.contains(c)));
        if !externally_called {
            set.extend(scc.iter().copied());
        }
    }
    set
}

/// [`CallEffects`] from in-progress custody state (phase 2) — custody
/// covers are ungated there; the final [`ModuleSummaries::effects_for`]
/// applies the canonical-return gate.
fn build_effects(
    f: &Function,
    fid: FuncId,
    kills: &[bool],
    ret_cust: &[Cust],
    param_cust: &[Vec<Cust>],
) -> CallEffects {
    let mut fx = CallEffects::default();
    for v in f.live_insts() {
        if let InstKind::Call { func, .. } = f.kind(v) {
            if !kills[func.index()] {
                fx.transparent.insert(v);
            }
            if f.ty(v) == Some(Type::Ptr) {
                if let Some(k) = ret_cust[func.index()].out() {
                    fx.ret_cover.insert(v, k);
                }
            }
        }
    }
    for (i, c) in param_cust[fid.index()].iter().enumerate() {
        if let Some(k) = c.out() {
            fx.entry_cover.insert(f.param(i), k);
        }
    }
    fx
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature, Value};

    fn guard(b: &mut FunctionBuilder, p: Value, write: bool) -> Value {
        let intr = if write {
            Intrinsic::GuardWrite
        } else {
            Intrinsic::GuardRead
        };
        b.intrinsic(intr, vec![p])
    }

    #[test]
    fn pure_helpers_are_custody_transparent_and_killers_propagate() {
        let mut m = Module::new("t");
        let pure = m.declare_function("pure", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(pure));
            let x = b.param(0);
            let one = b.iconst(Type::I64, 1);
            let y = b.binop(tfm_ir::BinOp::Add, x, one);
            b.ret(Some(y));
        }
        let alloc = m.declare_function("alloc", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(alloc));
            let p = b.malloc_const(64);
            let _ = p;
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        // Wrapper calls both: killing propagates transitively.
        let wrap = m.declare_function("wrap", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(wrap));
            let z = b.iconst(Type::I64, 0);
            let a = b.call(pure, vec![z], Some(Type::I64));
            let c = b.call(alloc, vec![], Some(Type::I64));
            let s = b.binop(tfm_ir::BinOp::Add, a, c);
            b.ret(Some(s));
        }
        let main = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(main));
            let z = b.iconst(Type::I64, 0);
            let a = b.call(pure, vec![z], Some(Type::I64));
            let c = b.call(wrap, vec![], Some(Type::I64));
            let s = b.binop(tfm_ir::BinOp::Add, a, c);
            b.ret(Some(s));
        }
        m.verify().unwrap();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        assert!(sums.summary(pure).custody_transparent());
        assert!(sums.summary(alloc).kills_custody);
        assert!(sums.summary(wrap).kills_custody, "kill propagates up");
        assert!(sums.summary(main).kills_custody);
    }

    #[test]
    fn recursion_reaches_a_sound_fixpoint() {
        // even/odd mutual recursion, pure: both transparent. A self-recursive
        // allocator: kills.
        let mut m = Module::new("t");
        let even = m.declare_function("even", Signature::new(vec![Type::I64], Some(Type::I64)));
        let odd = m.declare_function("odd", Signature::new(vec![Type::I64], Some(Type::I64)));
        for (this, other) in [(even, odd), (odd, even)] {
            let mut b = FunctionBuilder::new(m.function_mut(this));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let one = b.iconst(Type::I64, 1);
            let done = b.create_block();
            let rec = b.create_block();
            let c = b.icmp(tfm_ir::CmpOp::Eq, n, zero);
            b.cond_br(c, done, rec);
            b.switch_to_block(done);
            b.ret(Some(zero));
            b.switch_to_block(rec);
            let nm1 = b.binop(tfm_ir::BinOp::Sub, n, one);
            let r = b.call(other, vec![nm1], Some(Type::I64));
            b.ret(Some(r));
        }
        let selfalloc = m.declare_function(
            "selfalloc",
            Signature::new(vec![Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(selfalloc));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let one = b.iconst(Type::I64, 1);
            let done = b.create_block();
            let rec = b.create_block();
            let c = b.icmp(tfm_ir::CmpOp::Eq, n, zero);
            b.cond_br(c, done, rec);
            b.switch_to_block(done);
            b.ret(Some(zero));
            b.switch_to_block(rec);
            let _p = b.malloc_const(8);
            let nm1 = b.binop(tfm_ir::BinOp::Sub, n, one);
            let r = b.call(selfalloc, vec![nm1], Some(Type::I64));
            b.ret(Some(r));
        }
        let main = m.declare_function("main", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(main));
            let n = b.param(0);
            let a = b.call(even, vec![n], Some(Type::I64));
            let c = b.call(selfalloc, vec![n], Some(Type::I64));
            let s = b.binop(tfm_ir::BinOp::Add, a, c);
            b.ret(Some(s));
        }
        m.verify().unwrap();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        assert!(sums.summary(even).custody_transparent());
        assert!(sums.summary(odd).custody_transparent());
        assert!(sums.summary(selfalloc).kills_custody);
        assert!(CallGraph::compute(&m).is_recursive(even));
    }

    #[test]
    fn param_classes_join_over_call_sites() {
        // One callee receives a stack pointer from one site and a heap
        // pointer from another: Unknown. Another receives stack from both:
        // Stack. Root (main) params stay Unknown.
        let mut m = Module::new("t");
        let sink = m.declare_function("sink", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(sink));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let stacky = m.declare_function("stacky", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(stacky));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let main = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(main));
            let rootp = b.param(0);
            let s = b.alloca(8, 8);
            let h = b.malloc_const(64);
            let a = b.call(sink, vec![s], Some(Type::I64));
            let bb = b.call(sink, vec![h], Some(Type::I64));
            let c = b.call(stacky, vec![s], Some(Type::I64));
            let d = b.load(Type::I64, rootp);
            let t1 = b.binop(tfm_ir::BinOp::Add, a, bb);
            let t2 = b.binop(tfm_ir::BinOp::Add, c, d);
            let t = b.binop(tfm_ir::BinOp::Add, t1, t2);
            b.ret(Some(t));
        }
        m.verify().unwrap();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        assert_eq!(sums.summary(sink).param_class[0], MemClass::Unknown);
        assert_eq!(sums.summary(stacky).param_class[0], MemClass::Stack);
        assert_eq!(sums.summary(main).param_class[0], MemClass::Unknown);
    }

    #[test]
    fn custody_propagates_only_when_every_site_is_covered() {
        // covered(sink) at both sites → param Localized + custody;
        // one uncovered site → demoted to Unknown, custody gone.
        let mut m = Module::new("t");
        let sink = m.declare_function("sink", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(sink));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let mixed = m.declare_function("mixed", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(mixed));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let main = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(main));
            let h = b.malloc_const(64);
            let h2 = b.malloc_const(64);
            let g1 = guard(&mut b, h, true);
            let a = b.call(sink, vec![g1], Some(Type::I64));
            let g2 = guard(&mut b, h, false);
            let c = b.call(sink, vec![g2], Some(Type::I64));
            // `mixed` gets one guarded and one raw pointer.
            let g3 = guard(&mut b, h, false);
            let d = b.call(mixed, vec![g3], Some(Type::I64));
            let e = b.call(mixed, vec![h2], Some(Type::I64));
            let t1 = b.binop(tfm_ir::BinOp::Add, a, c);
            let t2 = b.binop(tfm_ir::BinOp::Add, d, e);
            let t = b.binop(tfm_ir::BinOp::Add, t1, t2);
            b.ret(Some(t));
        }
        m.verify().unwrap();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        let s = sums.summary(sink);
        assert_eq!(s.param_class[0], MemClass::Localized);
        assert_eq!(s.param_custody[0], Some(GuardKind::Read), "write∧read→read");
        let s = sums.summary(mixed);
        assert_eq!(s.param_custody[0], None, "raw site destroys custody");
        assert_eq!(
            s.param_class[0],
            MemClass::Unknown,
            "demoted without custody"
        );
    }

    #[test]
    fn localized_returns_carry_custody_to_the_caller() {
        let mut m = Module::new("t");
        let loc = m.declare_function("loc", Signature::new(vec![Type::Ptr], Some(Type::Ptr)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(loc));
            let p = b.param(0);
            let g = guard(&mut b, p, false);
            b.ret(Some(g));
        }
        let raw = m.declare_function("raw", Signature::new(vec![Type::Ptr], Some(Type::Ptr)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(raw));
            let p = b.param(0);
            let _g = guard(&mut b, p, false);
            b.ret(Some(p)); // raw pointer covered at the return — class is not Localized
        }
        let main = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(main));
            let p = b.param(0);
            let c1 = b.call(loc, vec![p], Some(Type::Ptr));
            let x = b.load(Type::I64, c1);
            let c2 = b.call(raw, vec![p], Some(Type::Ptr));
            let y = b.load(Type::I64, c2);
            let t = b.binop(tfm_ir::BinOp::Add, x, y);
            b.ret(Some(t));
        }
        m.verify().unwrap();
        let sums = ModuleSummaries::compute(&m, &["main"]);
        assert_eq!(sums.summary(loc).ret_class, MemClass::Localized);
        assert_eq!(sums.summary(loc).ret_custody, Some(GuardKind::Read));
        assert_ne!(sums.summary(raw).ret_class, MemClass::Localized);
        // effects_for only covers the canonical-returning call.
        let f = m.function(main);
        let fx = sums.effects_for(main, f);
        let calls: Vec<Value> = f
            .live_insts()
            .into_iter()
            .filter(|&v| matches!(f.kind(v), InstKind::Call { .. }))
            .collect();
        assert!(fx.ret_cover.contains_key(&calls[0]));
        assert!(!fx.ret_cover.contains_key(&calls[1]));
        assert!(fx.transparent.contains(&calls[0]), "guards do not kill");
    }
}
