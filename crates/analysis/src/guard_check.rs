//! Available-guards dataflow analysis.
//!
//! A forward, flow-sensitive analysis over one function: at every program
//! point it computes the set of SSA pointer values whose *custody* has been
//! established along **all** incoming paths — i.e. values that either are a
//! guard / chunk-dereference result, or were the pointer argument of one,
//! with no custody-clobbering operation in between.
//!
//! * **gen** — `tfm.guard.read(p)`, `tfm.guard.write(p)` and
//!   `tfm.chunk.deref(h, p)` establish custody for both the result and the
//!   pointer operand `p`.
//! * **kill** — calls and every other intrinsic (allocation, free,
//!   `memcpy`/`memset`, chunk begin/end, prefetch, runtime init) may run
//!   arbitrary code, free or reuse backing memory, or re-shape residency:
//!   they clear the whole set. Guards themselves do **not** kill: a guard may
//!   evict *other* objects under local-budget pressure, but in this runtime's
//!   object model canonical addresses are stable (eviction is a residency /
//!   cost event, never an invalidation — see `tfm_sim::memsys`), so an
//!   earlier guard's canonical result stays dereferenceable. Under a runtime
//!   that unmaps or moves localized objects, guards would have to join the
//!   kill set.
//! * **meet** — set intersection at control-flow joins. Phi-aware: a phi is
//!   covered when *every* incoming value is covered in its predecessor's
//!   out-state; the covers meet (same source guard → that guard, different
//!   guards → a merged cover usable by the lint but not by elimination).
//!
//! The analysis is optimistic (unvisited predecessors are ⊤) and iterates
//! over reverse postorder to the greatest fixpoint, so loop-carried coverage
//! through phis is found precisely.
//!
//! Consumers: the soundness lint (`trackfm::passes::lint`) errors on
//! may-heap accesses not covered at their program point, and the
//! redundant-guard elimination pass (`trackfm::passes::guard_elim`) replaces
//! a covered, duplicate guard with the earlier guard's canonical result.

use std::collections::HashMap;
use tfm_ir::{Block, Cfg, Function, InstKind, Intrinsic, Value};

/// What kind of custody a cover carries.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GuardKind {
    /// Established by `tfm.guard.read`: the object is localized for reading.
    Read,
    /// Established by `tfm.guard.write`: localized *and* marked dirty.
    Write,
    /// Established by `tfm.chunk.deref`: localized via a chunk stream (the
    /// stream's write intent lives on its `tfm.chunk.begin` flags).
    Chunk,
}

impl GuardKind {
    /// Meet of two custody kinds along different paths: the weaker guarantee
    /// survives (`Write` meets `Read` as `Read`; mixed chunk/guard custody
    /// degrades to `Read`).
    pub fn meet(self, other: GuardKind) -> GuardKind {
        if self == other {
            self
        } else {
            GuardKind::Read
        }
    }

    /// True when custody of this kind is enough for a guard of kind
    /// `needed`: a write guard subsumes a read guard, never vice versa, and
    /// chunk custody subsumes neither (its write intent is per-stream).
    pub fn covers(self, needed: GuardKind) -> bool {
        match (self, needed) {
            (a, b) if a == b => true,
            (GuardKind::Write, GuardKind::Read) => true,
            _ => false,
        }
    }
}

/// Where a cover came from.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CoverSrc {
    /// One specific guard / chunk-deref instruction established custody on
    /// every path: its result is a canonical pointer elimination can reuse.
    Guard(Value),
    /// Different guards established custody on different paths. Enough for
    /// the soundness lint, but there is no single canonical result to
    /// rewrite uses to.
    Merged,
}

/// Custody established for one SSA value at a program point.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Cover {
    /// The establishing guard, when unique.
    pub src: CoverSrc,
    /// The kind of custody held.
    pub kind: GuardKind,
}

impl Cover {
    /// Meet along two paths.
    pub fn meet(self, other: Cover) -> Cover {
        Cover {
            src: if self.src == other.src {
                self.src
            } else {
                CoverSrc::Merged
            },
            kind: self.kind.meet(other.kind),
        }
    }
}

/// The covered-value set at one program point.
pub type CoverMap = HashMap<Value, Cover>;

fn meet_maps(a: &CoverMap, b: &CoverMap) -> CoverMap {
    let mut out = CoverMap::new();
    for (v, ca) in a {
        if let Some(cb) = b.get(v) {
            out.insert(*v, ca.meet(*cb));
        }
    }
    out
}

/// Applies one (non-phi) instruction's transfer function to `map`. Phis
/// are resolved at block entry by [`AvailableGuards::compute`].
fn transfer(f: &Function, map: &mut CoverMap, v: Value) {
    match f.kind(v) {
        InstKind::IntrinsicCall { intr, args } => match intr {
            Intrinsic::GuardRead | Intrinsic::GuardWrite => {
                let kind = if *intr == Intrinsic::GuardWrite {
                    GuardKind::Write
                } else {
                    GuardKind::Read
                };
                let cover = Cover {
                    src: CoverSrc::Guard(v),
                    kind,
                };
                map.insert(v, cover);
                if let Some(&p) = args.first() {
                    map.insert(p, cover);
                }
            }
            Intrinsic::ChunkDeref => {
                let cover = Cover {
                    src: CoverSrc::Guard(v),
                    kind: GuardKind::Chunk,
                };
                map.insert(v, cover);
                if let Some(&p) = args.get(1) {
                    map.insert(p, cover);
                }
            }
            _ => map.clear(),
        },
        InstKind::Call { .. } => map.clear(),
        // Custody flows through pointer arithmetic on the covered value
        // (within-object offsets; the same rule `points_to` uses to keep
        // `Localized` on derived pointers).
        InstKind::Gep { base, .. } => {
            if let Some(c) = map.get(base).copied() {
                map.insert(v, c);
            }
        }
        InstKind::Cast(_, a) => {
            if let Some(c) = map.get(a).copied() {
                map.insert(v, c);
            }
        }
        InstKind::Binary(_, a, b) => {
            // Pointer ± pointer-derived-integer arithmetic: covered when
            // either operand is (mirrors points_to provenance through ints).
            let c = map.get(a).copied().or_else(|| map.get(b).copied());
            if let Some(c) = c {
                map.insert(v, c);
            }
        }
        InstKind::Select { tval, fval, .. } => {
            if let (Some(&a), Some(&b)) = (map.get(tval), map.get(fval)) {
                map.insert(v, a.meet(b));
            }
        }
        _ => {}
    }
}

/// Per-function available-guards fixpoint: covered values at each block
/// entry (`None` for unreachable blocks).
#[derive(Clone, Debug)]
pub struct AvailableGuards {
    block_in: Vec<Option<CoverMap>>,
}

impl AvailableGuards {
    /// Runs the forward dataflow to its greatest fixpoint. The entry block
    /// starts with nothing covered: parameters carry no custody.
    pub fn compute(f: &Function) -> Self {
        let nblocks = f.num_blocks();
        let cfg = Cfg::of(f);
        let rpo = cfg.reverse_postorder(f.entry_block());
        // `None` = ⊤ (not yet computed / unreachable): optimistic start so
        // loop back-edges don't pessimize the first pass.
        let mut ins: Vec<Option<CoverMap>> = vec![None; nblocks];
        let mut outs: Vec<Option<CoverMap>> = vec![None; nblocks];
        let entry = f.entry_block();

        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                let mut inb = if b == entry {
                    CoverMap::new()
                } else {
                    // Intersection over predecessors with known out-state;
                    // ⊤ predecessors are skipped (optimism).
                    let mut acc: Option<CoverMap> = None;
                    for &p in cfg.preds(b) {
                        if let Some(po) = &outs[p.index()] {
                            acc = Some(match acc {
                                None => po.clone(),
                                Some(a) => meet_maps(&a, po),
                            });
                        }
                    }
                    acc.unwrap_or_default()
                };
                // Phi-aware coverage: a phi is covered when every incoming
                // value is covered in its predecessor's out-state.
                for &v in f.block_insts(b) {
                    let InstKind::Phi(incs) = f.kind(v) else {
                        continue;
                    };
                    let mut cover: Option<Cover> = None;
                    let mut all = !incs.is_empty();
                    for (p, iv) in incs {
                        match &outs[p.index()] {
                            // ⊤ predecessor: optimistically covered.
                            None => {}
                            Some(po) => match po.get(iv) {
                                Some(&c) => {
                                    cover = Some(match cover {
                                        None => c,
                                        Some(acc) => acc.meet(c),
                                    });
                                }
                                None => {
                                    all = false;
                                    break;
                                }
                            },
                        }
                    }
                    if all {
                        if let Some(c) = cover {
                            inb.insert(v, c);
                        }
                    } else {
                        inb.remove(&v);
                    }
                }
                if ins[b.index()].as_ref() != Some(&inb) {
                    ins[b.index()] = Some(inb.clone());
                    changed = true;
                }
                let mut outb = inb;
                for &v in f.block_insts(b) {
                    transfer(f, &mut outb, v);
                }
                if outs[b.index()].as_ref() != Some(&outb) {
                    outs[b.index()] = Some(outb);
                    changed = true;
                }
            }
        }
        AvailableGuards { block_in: ins }
    }

    /// Applies one (non-phi) instruction's transfer function. Consumers
    /// walk a block from [`AvailableGuards::block_in`] with it and query
    /// coverage before each access.
    pub fn apply(&self, f: &Function, map: &mut CoverMap, v: Value) {
        transfer(f, map, v);
    }

    /// Covered values at `b`'s entry (after phi resolution); `None` when the
    /// block is unreachable.
    pub fn block_in(&self, b: Block) -> Option<&CoverMap> {
        self.block_in.get(b.index()).and_then(|m| m.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, FunctionBuilder, InstKind, Module, Signature, Type};

    /// The cover of `ptr` immediately before instruction `at`, walking its
    /// block from the in-state; `None` when the block is unreachable or
    /// `ptr` is not covered there.
    fn cover_before(ag: &AvailableGuards, f: &Function, at: Value, ptr: Value) -> Option<Cover> {
        let b = f.inst(at).block;
        let mut map = ag.block_in(b)?.clone();
        for &v in f.block_insts(b) {
            if v == at {
                break;
            }
            ag.apply(f, &mut map, v);
        }
        map.get(&ptr).copied()
    }

    fn guard(b: &mut FunctionBuilder, p: Value, write: bool) -> Value {
        let intr = if write {
            Intrinsic::GuardWrite
        } else {
            Intrinsic::GuardRead
        };
        b.intrinsic(intr, vec![p])
    }

    #[test]
    fn straightline_gen_and_call_kill() {
        let mut m = Module::new("t");
        let helper = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(helper));
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let (p, g, x, call);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            p = b.param(0);
            g = guard(&mut b, p, false);
            x = b.load(Type::I64, g);
            call = b.call(helper, vec![], Some(Type::I64));
            let y = b.load(Type::I64, g);
            let s = b.binop(BinOp::Add, x, y);
            let s2 = b.binop(BinOp::Add, s, call);
            b.ret(Some(s2));
        }
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        // Covered between the guard and the call...
        let c = cover_before(&ag, f, x, p).unwrap();
        assert_eq!(c.src, CoverSrc::Guard(g));
        assert_eq!(c.kind, GuardKind::Read);
        assert!(cover_before(&ag, f, x, g).is_some());
        // ...and killed by the call.
        let after = f.block_insts(f.entry_block());
        let second_load = after[after.iter().position(|&v| v == call).unwrap() + 1];
        assert!(cover_before(&ag, f, second_load, p).is_none());
        assert!(cover_before(&ag, f, second_load, g).is_none());
    }

    #[test]
    fn alloc_intrinsics_kill_but_guards_do_not() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr, Type::Ptr], None));
        let (p, q, g2, mal);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            p = b.param(0);
            q = b.param(1);
            let g1 = guard(&mut b, p, false);
            let _ = g1;
            g2 = guard(&mut b, q, true);
            mal = b.malloc_const(64);
            b.store(g2, mal);
            b.ret(None);
        }
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        // The second guard does not kill the first pointer's custody...
        let c = cover_before(&ag, f, mal, p).unwrap();
        assert_eq!(c.kind, GuardKind::Read);
        assert_eq!(cover_before(&ag, f, mal, q).unwrap().kind, GuardKind::Write);
        // ...but the allocation kills everything.
        let insts = f.block_insts(f.entry_block());
        let store_v = insts[insts.iter().position(|&v| v == mal).unwrap() + 1];
        assert!(matches!(f.kind(store_v), InstKind::Store { .. }));
        assert!(cover_before(&ag, f, store_v, p).is_none());
        assert!(cover_before(&ag, f, store_v, q).is_none());
    }

    #[test]
    fn meet_is_intersection_at_joins() {
        // Guard on `p` only on the then-path: not covered at the join.
        // Guard on `q` on both paths (different guards): covered, Merged.
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::Ptr, Type::I64], None),
        );
        let (p, q, join_load);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            p = b.param(0);
            q = b.param(1);
            let c = b.param(2);
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let gp = guard(&mut b, p, false);
            let _ = b.load(Type::I64, gp);
            let gq1 = guard(&mut b, q, false);
            let _ = b.load(Type::I64, gq1);
            b.br(j);
            b.switch_to_block(e);
            let gq2 = guard(&mut b, q, false);
            let _ = b.load(Type::I64, gq2);
            b.br(j);
            b.switch_to_block(j);
            join_load = b.load(Type::I64, p);
            b.ret(None);
        }
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        assert!(
            cover_before(&ag, f, join_load, p).is_none(),
            "one-sided guard"
        );
        let cq = cover_before(&ag, f, join_load, q).unwrap();
        assert_eq!(cq.src, CoverSrc::Merged, "two different guards merge");
        assert_eq!(cq.kind, GuardKind::Read);
    }

    #[test]
    fn phi_of_covered_values_stays_covered() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::Ptr, Type::I64], None),
        );
        let (phi, use_load);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let q = b.param(1);
            let c = b.param(2);
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let gp = guard(&mut b, p, true);
            b.br(j);
            b.switch_to_block(e);
            let gq = guard(&mut b, q, true);
            b.br(j);
            b.switch_to_block(j);
            phi = b.phi(Type::Ptr, &[(t, gp), (e, gq)]);
            use_load = b.load(Type::I64, phi);
            b.ret(None);
        }
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        let c = cover_before(&ag, f, use_load, phi).unwrap();
        assert_eq!(c.src, CoverSrc::Merged);
        assert_eq!(c.kind, GuardKind::Write);
    }

    #[test]
    fn phi_with_one_uncovered_incoming_is_uncovered() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::Ptr, Type::I64], None),
        );
        let (phi, use_load);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let q = b.param(1);
            let c = b.param(2);
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let gp = guard(&mut b, p, false);
            b.br(j);
            b.switch_to_block(e);
            b.br(j);
            b.switch_to_block(j);
            phi = b.phi(Type::Ptr, &[(t, gp), (e, q)]);
            use_load = b.load(Type::I64, phi);
            b.ret(None);
        }
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        assert!(cover_before(&ag, f, use_load, phi).is_none());
    }

    #[test]
    fn loop_carried_coverage_survives_the_backedge() {
        // g = guard(p) before the loop; the loop body only loads through g:
        // coverage must hold at every iteration (greatest fixpoint through
        // the backedge), since nothing in the loop kills.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr, Type::I64], None));
        let (g, body_load);
        let mut body_load_v = None;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let n = b.param(1);
            g = guard(&mut b, p, false);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(g, i, 8, 0);
                body_load_v = Some(b.load(Type::I64, addr));
            });
            b.ret(None);
        }
        body_load = body_load_v.unwrap();
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        let c = cover_before(&ag, f, body_load, g).unwrap();
        assert_eq!(c.src, CoverSrc::Guard(g));
        // The derived gep address is covered too.
        let InstKind::Load { ptr } = *f.kind(body_load) else {
            panic!()
        };
        assert!(cover_before(&ag, f, body_load, ptr).is_some());
    }

    #[test]
    fn loop_with_killing_call_loses_coverage_at_the_join() {
        // The loop body calls a helper: at the header (join of entry and
        // backedge) the pre-loop guard must not be available.
        let mut m = Module::new("t");
        let helper = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(helper));
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr, Type::I64], None));
        let g;
        let mut body_load_v = None;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let n = b.param(1);
            g = guard(&mut b, p, false);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, i| {
                let _ = b.call(helper, vec![], Some(Type::I64));
                let addr = b.gep(g, i, 8, 0);
                body_load_v = Some(b.load(Type::I64, addr));
            });
            b.ret(None);
        }
        let body_load = body_load_v.unwrap();
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        assert!(
            cover_before(&ag, f, body_load, g).is_none(),
            "call inside the loop kills coverage across the backedge"
        );
    }

    #[test]
    fn chunk_deref_covers_and_select_meets() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::Ptr, Type::I64], None),
        );
        let (sel, use_load, cd);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let q = b.param(1);
            let c = b.param(2);
            let flags = b.iconst(Type::I64, 1);
            let h = b.intrinsic(Intrinsic::ChunkBegin, vec![p, flags]);
            cd = b.intrinsic(Intrinsic::ChunkDeref, vec![h, p]);
            let gq = guard(&mut b, q, true);
            sel = b.select(c, cd, gq);
            use_load = b.load(Type::I64, sel);
            b.ret(None);
        }
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        let c = cover_before(&ag, f, use_load, cd).unwrap();
        assert_eq!(c.kind, GuardKind::Chunk);
        let cs = cover_before(&ag, f, use_load, sel).unwrap();
        assert_eq!(cs.src, CoverSrc::Merged);
        assert_eq!(cs.kind, GuardKind::Read, "chunk meets write as read");
    }

    #[test]
    fn dead_blocks_grant_no_coverage_to_live_joins() {
        // ⊤-predecessor optimism, pinned: a guard inside an *unreachable*
        // block must not leak coverage into a reachable join that lists the
        // dead block as a predecessor. The dead block's state stays ⊤ and
        // is skipped at the meet — the join's in-state comes from live
        // paths only, which here never guard `p`.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], None));
        let (join, dead);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            join = b.create_block();
            dead = b.create_block();
            b.br(join); // entry falls through without guarding p
            b.switch_to_block(dead); // no predecessors: unreachable
            let _g = guard(&mut b, p, true);
            b.br(join);
            b.switch_to_block(join);
            let _ = b.load(Type::I64, p);
            b.ret(None);
        }
        m.verify().unwrap();
        let f = m.function(id);
        let ag = AvailableGuards::compute(f);
        // The dead block is never computed ...
        assert_eq!(ag.block_in(dead), None);
        // ... and the join sees no cover for p despite dead's guard.
        let inb = ag.block_in(join).expect("join is reachable");
        assert!(
            !inb.contains_key(&f.param(0)),
            "coverage must not flow out of an unreachable block"
        );
    }

    #[test]
    fn kind_lattice_laws() {
        use GuardKind::*;
        for k in [Read, Write, Chunk] {
            assert_eq!(k.meet(k), k);
            assert!(k.covers(k));
        }
        assert_eq!(Write.meet(Read), Read);
        assert_eq!(Chunk.meet(Write), Read);
        assert!(Write.covers(Read));
        assert!(!Read.covers(Write));
        assert!(!Chunk.covers(Read), "chunk write intent is per-stream");
        assert!(!Chunk.covers(Write));
    }
}
