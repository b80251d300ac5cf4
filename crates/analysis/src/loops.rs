//! Natural-loop detection and loop-shape utilities.
//!
//! Loop chunking (§3.4 of the paper) operates on natural loops with a
//! recognizable loop-governing induction variable. This module finds the
//! loop forest, loop exits, and provides preheader creation (needed to host
//! `tfm.chunk.begin`).

use crate::dom::DomTree;
use std::collections::HashSet;
use tfm_ir::{Block, Cfg, Function, InstData, InstKind};

/// A natural loop.
#[derive(Clone, Debug)]
pub struct NaturalLoop {
    /// The loop header (target of the back edges).
    pub header: Block,
    /// Source blocks of back edges.
    pub latches: Vec<Block>,
    /// All blocks in the loop body (including the header).
    pub blocks: HashSet<Block>,
    /// Index of the enclosing loop in the forest, if any.
    pub parent: Option<usize>,
    /// Nesting depth (outermost = 1).
    pub depth: u32,
}

impl NaturalLoop {
    /// True if the loop contains `b`.
    pub fn contains(&self, b: Block) -> bool {
        self.blocks.contains(&b)
    }

    /// Edges leaving the loop as `(inside, outside)` pairs.
    pub fn exit_edges(&self, f: &Function) -> Vec<(Block, Block)> {
        let mut out = Vec::new();
        for &b in &self.blocks {
            for s in f.succs(b) {
                if !self.contains(s) {
                    out.push((b, s));
                }
            }
        }
        out.sort();
        out
    }

    /// The unique predecessor of the header outside the loop, if there is
    /// exactly one.
    pub fn preheader(&self, f: &Function) -> Option<Block> {
        let outside: Vec<Block> = f
            .preds(self.header)
            .into_iter()
            .filter(|p| !self.contains(*p))
            .collect();
        match outside.as_slice() {
            [one] if f.succs(*one).len() == 1 => Some(*one),
            _ => None,
        }
    }
}

/// All natural loops of a function, with nesting information.
#[derive(Clone, Debug, Default)]
pub struct LoopForest {
    /// The loops, outermost-first is NOT guaranteed; use `depth`.
    pub loops: Vec<NaturalLoop>,
}

impl LoopForest {
    /// Finds all natural loops using back edges (`latch → header` where the
    /// header dominates the latch). Loops sharing a header are merged.
    pub fn compute(f: &Function, dt: &DomTree) -> Self {
        let mut by_header: Vec<(Block, Vec<Block>)> = Vec::new();
        for &b in dt.rpo() {
            for s in f.succs(b) {
                if dt.dominates(s, b) {
                    match by_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => by_header.push((s, vec![b])),
                    }
                }
            }
        }
        let cfg = Cfg::of(f);
        let mut loops: Vec<NaturalLoop> = by_header
            .into_iter()
            .map(|(header, latches)| {
                let mut blocks: HashSet<Block> = HashSet::new();
                blocks.insert(header);
                let mut stack: Vec<Block> = latches.clone();
                while let Some(b) = stack.pop() {
                    if blocks.insert(b) {
                        for &p in cfg.preds(b) {
                            if dt.is_reachable(p) {
                                stack.push(p);
                            }
                        }
                    }
                }
                NaturalLoop {
                    header,
                    latches,
                    blocks,
                    parent: None,
                    depth: 1,
                }
            })
            .collect();

        // Nesting: the parent of loop L is the smallest loop that strictly
        // contains L's header and is not L itself.
        let containers: Vec<Vec<usize>> = (0..loops.len())
            .map(|i| {
                (0..loops.len())
                    .filter(|&j| {
                        j != i
                            && loops[j].blocks.contains(&loops[i].header)
                            && loops[j].blocks.len() > loops[i].blocks.len()
                    })
                    .collect()
            })
            .collect();
        for i in 0..loops.len() {
            let parent = containers[i]
                .iter()
                .copied()
                .min_by_key(|&j| loops[j].blocks.len());
            loops[i].parent = parent;
        }
        // Depth by walking parents.
        for i in 0..loops.len() {
            let mut d = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p].parent;
            }
            loops[i].depth = d;
        }
        LoopForest { loops }
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: Block) -> Option<&NaturalLoop> {
        self.loops
            .iter()
            .filter(|l| l.contains(b))
            .min_by_key(|l| l.blocks.len())
    }
}

/// Ensures the loop has a dedicated preheader, creating one if necessary.
///
/// A new block is inserted between all outside predecessors and the header;
/// phi labels are rewritten. Returns the preheader block. The loop's block
/// set is unchanged (the preheader is outside the loop); the preheader lies
/// inside every loop that encloses this one.
pub fn ensure_preheader(f: &mut Function, lp: &NaturalLoop) -> Block {
    if let Some(ph) = lp.preheader(f) {
        return ph;
    }
    let header = lp.header;
    let outside: Vec<Block> = f
        .preds(header)
        .into_iter()
        .filter(|p| !lp.contains(*p))
        .collect();
    let ph = f.create_block();
    // Retarget each outside predecessor's terminator edges header -> ph.
    for &p in &outside {
        let t = f.terminator(p).expect("pred must be terminated");
        let mut kind = f.kind(t).clone();
        kind.for_each_successor_mut(|s| {
            if *s == header {
                *s = ph;
            }
        });
        f.inst_mut(t).kind = kind;
    }
    // Merge phi incomings from outside preds into a phi in the preheader when
    // there are several; with one outside pred we can just relabel.
    if outside.len() == 1 {
        f.redirect_phi_pred(header, outside[0], ph);
    } else {
        for &v in f.block_insts(header).to_vec().iter() {
            let InstKind::Phi(incs) = f.kind(v).clone() else {
                continue;
            };
            let ty = f.ty(v);
            let (from_out, from_in): (Vec<_>, Vec<_>) =
                incs.into_iter().partition(|(p, _)| outside.contains(p));
            if from_out.is_empty() {
                continue;
            }
            let merged = f.push_inst(
                ph,
                InstData {
                    kind: InstKind::Phi(from_out),
                    ty,
                    block: ph,
                },
            );
            let mut new_incs = from_in;
            new_incs.push((ph, merged));
            f.inst_mut(v).kind = InstKind::Phi(new_incs);
        }
    }
    f.push_inst(
        ph,
        InstData {
            kind: InstKind::Br(header),
            ty: None,
            block: ph,
        },
    );
    ph
}

/// Splits the CFG edge `from → to`, returning the new intermediate block
/// (which ends in `br to`). Phi labels in `to` are rewritten. Used to host
/// `tfm.chunk.end` on loop-exit edges. The new block lies inside exactly the
/// loops that contain both `from` and `to`; in one that `to` heads, it
/// replaces `from` as a latch.
///
/// # Panics
/// Panics if `from` has no terminator or no edge to `to`.
pub fn split_edge(f: &mut Function, from: Block, to: Block) -> Block {
    let mid = f.create_block();
    let t = f.terminator(from).expect("split_edge: `from` unterminated");
    let mut kind = f.kind(t).clone();
    let mut found = false;
    kind.for_each_successor_mut(|s| {
        if *s == to {
            *s = mid;
            found = true;
        }
    });
    assert!(found, "split_edge: no edge {from} -> {to}");
    f.inst_mut(t).kind = kind;
    f.redirect_phi_pred(to, from, mid);
    f.push_inst(
        mid,
        InstData {
            kind: InstKind::Br(to),
            ty: None,
            block: mid,
        },
    );
    mid
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, CmpOp, FunctionBuilder, Module, Signature, Type};

    fn nested_loops() -> (Module, tfm_ir::FuncId) {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |b, _i| {
                let z2 = b.iconst(Type::I64, 0);
                b.counted_loop(z2, n, 1, |_b, _j| {});
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, id)
    }

    #[test]
    fn finds_two_nested_loops() {
        let (m, id) = nested_loops();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest.loops.iter().find(|l| l.depth == 1).unwrap();
        let inner = forest.loops.iter().find(|l| l.depth == 2).unwrap();
        assert!(outer.blocks.len() > inner.blocks.len());
        assert!(outer.blocks.is_superset(&inner.blocks));
        assert!(inner.parent.is_some());
    }

    #[test]
    fn counted_loop_has_preheader_and_exit() {
        let (m, id) = nested_loops();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        for l in &forest.loops {
            assert!(l.preheader(f).is_some(), "counted loops have preheaders");
            assert_eq!(l.exit_edges(f).len(), 1);
            assert_eq!(l.latches.len(), 1);
        }
    }

    #[test]
    fn innermost_containing_picks_smaller_loop() {
        let (m, id) = nested_loops();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let inner = forest.loops.iter().find(|l| l.depth == 2).unwrap();
        let got = forest.innermost_containing(inner.header).unwrap();
        assert_eq!(got.header, inner.header);
    }

    #[test]
    fn split_edge_rewrites_terminator_and_phis() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let (t_bb, j_bb, phi);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            t_bb = b.create_block();
            let e_bb = b.create_block();
            j_bb = b.create_block();
            let x = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let one = b.iconst(Type::I64, 1);
            let c = b.icmp(CmpOp::Sgt, x, z);
            b.cond_br(c, t_bb, e_bb);
            b.switch_to_block(t_bb);
            b.br(j_bb);
            b.switch_to_block(e_bb);
            b.br(j_bb);
            b.switch_to_block(j_bb);
            phi = b.phi(Type::I64, &[(t_bb, z), (e_bb, one)]);
            b.ret(Some(phi));
        }
        m.verify().unwrap();
        let f = m.function_mut(id);
        let mid = split_edge(f, t_bb, j_bb);
        assert_eq!(f.succs(t_bb), vec![mid]);
        assert_eq!(f.succs(mid), vec![j_bb]);
        m.verify().unwrap();
        let f = m.function(id);
        if let InstKind::Phi(incs) = f.kind(phi) {
            assert!(incs.iter().any(|(p, _)| *p == mid));
            assert!(!incs.iter().any(|(p, _)| *p == t_bb));
        } else {
            unreachable!()
        }
    }

    #[test]
    fn ensure_preheader_creates_block_for_shared_entry() {
        // Build a loop whose header has two outside predecessors.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let (hdr, body, exit);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let e1 = b.create_block();
            let e2 = b.create_block();
            hdr = b.create_block();
            body = b.create_block();
            exit = b.create_block();
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let ten = b.iconst(Type::I64, 10);
            let c = b.icmp(CmpOp::Sgt, n, zero);
            b.cond_br(c, e1, e2);
            b.switch_to_block(e1);
            b.br(hdr);
            b.switch_to_block(e2);
            b.br(hdr);
            b.switch_to_block(hdr);
            let i = b.phi(Type::I64, &[(e1, zero), (e2, ten)]);
            let cc = b.icmp(CmpOp::Slt, i, n);
            b.cond_br(cc, body, exit);
            b.switch_to_block(body);
            let one = b.iconst(Type::I64, 1);
            let i2 = b.binop(BinOp::Add, i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(hdr);
            b.switch_to_block(exit);
            b.ret(Some(i));
        }
        m.verify().unwrap();
        let f = m.function_mut(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let lp = forest.loops.iter().find(|l| l.header == hdr).unwrap();
        assert!(lp.preheader(f).is_none());
        let ph = ensure_preheader(f, lp);
        m.verify().unwrap();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let lp = forest.loops.iter().find(|l| l.header == hdr).unwrap();
        assert_eq!(lp.preheader(f), Some(ph));
    }
}

#[cfg(test)]
mod irreducible_tests {
    use super::*;
    use tfm_ir::{CmpOp, FunctionBuilder, Module, Signature, Type};

    /// An irreducible region (two-entry cycle) has no natural loops: neither
    /// cycle header dominates the other, so no back edge exists. The
    /// analyses must degrade gracefully (no loops reported, nothing panics).
    #[test]
    fn irreducible_cycles_yield_no_natural_loops() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x_bb = b.create_block();
            let y_bb = b.create_block();
            let exit = b.create_block();
            let p = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(CmpOp::Sgt, p, zero);
            // Two entries into the cycle {x, y}.
            b.cond_br(c, x_bb, y_bb);
            b.switch_to_block(x_bb);
            let cx = b.icmp(CmpOp::Sgt, p, zero);
            b.cond_br(cx, y_bb, exit);
            b.switch_to_block(y_bb);
            let cy = b.icmp(CmpOp::Slt, p, zero);
            b.cond_br(cy, x_bb, exit);
            b.switch_to_block(exit);
            b.ret(Some(p));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let dt = crate::dom::DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        assert!(
            forest.loops.is_empty(),
            "irreducible cycle is not a natural loop"
        );
    }
}
