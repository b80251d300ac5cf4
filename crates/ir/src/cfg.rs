//! The control-flow graph core every consumer shares: one successor and
//! predecessor table, one reverse-postorder DFS (which is also the one
//! reachability walk) and one Cooper–Harvey–Kennedy dominator solver ("a
//! simple, fast dominance algorithm"), so the verifier and the dominator
//! tree of the analyses are one piece of code.

use crate::entities::Block;
use crate::function::Function;

/// Successor and predecessor lists of a function's blocks.
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<Block>>,
    preds: Vec<Vec<Block>>,
}

impl Cfg {
    /// The CFG of `f`, built in one pass (unlike [`Function::preds`], which
    /// is O(blocks) per query). Each predecessor list is in block order.
    ///
    /// # Panics
    /// Panics if a terminator branches to a block `f` does not have; the
    /// verifier reports that as an error before it builds the CFG.
    pub fn of(f: &Function) -> Self {
        let succs: Vec<Vec<Block>> = f.blocks().map(|b| f.succs(b)).collect();
        let mut preds = vec![Vec::new(); succs.len()];
        for (i, ss) in succs.iter().enumerate() {
            for s in ss {
                preds[s.index()].push(Block::from_index(i));
            }
        }
        Cfg { succs, preds }
    }

    fn num_nodes(&self) -> usize {
        self.succs.len()
    }

    /// Predecessors of `b` (a block branching to `b` twice is listed twice).
    pub fn preds(&self, b: Block) -> &[Block] {
        &self.preds[b.index()]
    }

    /// The nodes reachable from `root`, in reverse postorder of a depth-first
    /// walk that takes successors in order. Unreachable nodes are omitted.
    pub fn reverse_postorder(&self, root: Block) -> Vec<Block> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![(root, 0usize)];
        seen[root.index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = self.succs[b.index()].get(*i) {
                *i += 1;
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Which nodes are reachable from `root`, indexed by node.
    pub fn reachable(&self, root: Block) -> Vec<bool> {
        let mut out = vec![false; self.num_nodes()];
        for b in self.reverse_postorder(root) {
            out[b.index()] = true;
        }
        out
    }
}

/// The dominator tree of a graph: `a` dominates `b` when every path from the
/// root to `b` passes through `a`.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// Immediate dominator per node; the root is its own, and unreachable
    /// nodes have none.
    idom: Vec<Option<Block>>,
    rpo: Vec<Block>,
}

impl DomTree {
    /// The dominator tree of `f`'s CFG, rooted at its entry block.
    pub fn compute(f: &Function) -> Self {
        DomTree::solve(&Cfg::of(f), f.entry_block())
    }

    /// The dominator tree of `g` rooted at `root`: the iterative
    /// Cooper–Harvey–Kennedy fixpoint over reverse postorder.
    pub(crate) fn solve(g: &Cfg, root: Block) -> Self {
        let rpo = g.reverse_postorder(root);
        let mut rpo_num = vec![usize::MAX; g.num_nodes()];
        for (i, b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }
        let mut idom: Vec<Option<Block>> = vec![None; g.num_nodes()];
        idom[root.index()] = Some(root);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo[1..] {
                let mut processed = g.preds(b).iter().filter(|p| idom[p.index()].is_some());
                let Some(&first) = processed.next() else {
                    continue;
                };
                let new = processed.fold(first, |acc, &p| intersect(&idom, &rpo_num, p, acc));
                if idom[b.index()] != Some(new) {
                    idom[b.index()] = Some(new);
                    changed = true;
                }
            }
        }
        DomTree { idom, rpo }
    }

    /// The immediate dominator of `b` (`None` for the root and for
    /// unreachable nodes).
    pub fn idom(&self, b: Block) -> Option<Block> {
        self.idom[b.index()].filter(|&d| d != b)
    }

    /// True iff `a` dominates `b` (reflexive; false when `b` is unreachable).
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        if !self.is_reachable(b) {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom(cur) {
                Some(next) => cur = next,
                None => return false, // reached the root
            }
        }
    }

    /// True if `b` is reachable from the root.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.idom[b.index()].is_some()
    }

    /// The reachable nodes in reverse postorder.
    pub fn rpo(&self) -> &[Block] {
        &self.rpo
    }

    /// Children lists of the dominator tree (indexed by node).
    pub fn children(&self) -> Vec<Vec<Block>> {
        let mut out = vec![Vec::new(); self.idom.len()];
        for i in 0..self.idom.len() {
            let b = Block::from_index(i);
            if let Some(p) = self.idom(b) {
                out[p.index()].push(b);
            }
        }
        out
    }
}

/// Walks both fingers up the partial tree to their nearest common dominator.
fn intersect(idom: &[Option<Block>], rpo: &[usize], mut a: Block, mut b: Block) -> Block {
    while a != b {
        while rpo[a.index()] > rpo[b.index()] {
            a = idom[a.index()].expect("processed predecessor");
        }
        while rpo[b.index()] > rpo[a.index()] {
            b = idom[b.index()].expect("processed predecessor");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, CmpOp, FuncId, FunctionBuilder, Module, Signature, Type};

    /// entry -> (A | B) -> join -> loop{hdr -> body -> hdr} -> exit
    fn build() -> (Module, FuncId, Vec<Block>) {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let blocks;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a = b.create_block();
            let bb = b.create_block();
            let join = b.create_block();
            let hdr = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            blocks = vec![b.entry_block(), a, bb, join, hdr, body, exit];
            let x = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let c = b.icmp(CmpOp::Sgt, x, z);
            b.cond_br(c, a, bb);
            b.switch_to_block(a);
            b.br(join);
            b.switch_to_block(bb);
            b.br(join);
            b.switch_to_block(join);
            b.br(hdr);
            b.switch_to_block(hdr);
            let i = b.phi(Type::I64, &[(join, z)]);
            let c2 = b.icmp(CmpOp::Slt, i, x);
            b.cond_br(c2, body, exit);
            b.switch_to_block(body);
            let one = b.iconst(Type::I64, 1);
            let i2 = b.binop(BinOp::Add, i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(hdr);
            b.switch_to_block(exit);
            b.ret(Some(i));
        }
        m.verify().unwrap();
        (m, id, blocks)
    }

    #[test]
    fn rpo_starts_at_entry_and_omits_unreachable_blocks() {
        let (mut m, id, bl) = build();
        let dead = m.function_mut(id).create_block();
        let f = m.function(id);
        let rpo = Cfg::of(f).reverse_postorder(f.entry_block());
        assert_eq!(rpo.len(), bl.len());
        assert_eq!(rpo[0], f.entry_block());
        // The join comes after both arms, the header before its body.
        let pos = |b: Block| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(bl[3]) > pos(bl[1]) && pos(bl[3]) > pos(bl[2]));
        assert!(pos(bl[4]) < pos(bl[5]));
        assert!(!rpo.contains(&dead));
        assert!(!Cfg::of(f).reachable(f.entry_block())[dead.index()]);
    }

    #[test]
    fn predecessors_match_function_preds() {
        let (m, id, _) = build();
        let f = m.function(id);
        let cfg = Cfg::of(f);
        for b in f.blocks() {
            let mut a = cfg.preds(b).to_vec();
            let mut e = f.preds(b);
            a.sort();
            e.sort();
            assert_eq!(a, e);
        }
    }

    #[test]
    fn idoms_are_correct() {
        let (m, id, bl) = build();
        let dt = DomTree::compute(m.function(id));
        let (entry, a, bb, join, hdr, body, exit) =
            (bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(a), Some(entry));
        assert_eq!(dt.idom(bb), Some(entry));
        assert_eq!(dt.idom(join), Some(entry));
        assert_eq!(dt.idom(hdr), Some(join));
        assert_eq!(dt.idom(body), Some(hdr));
        assert_eq!(dt.idom(exit), Some(hdr));
    }

    #[test]
    fn dominates_is_reflexive_and_transitive() {
        let (m, id, bl) = build();
        let dt = DomTree::compute(m.function(id));
        let (entry, a, _bb, join, hdr, body, exit) =
            (bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]);
        for &b in &bl {
            assert!(dt.dominates(b, b));
            assert!(dt.dominates(entry, b));
        }
        assert!(dt.dominates(join, exit));
        assert!(dt.dominates(hdr, body));
        assert!(!dt.dominates(a, join));
        assert!(!dt.dominates(body, exit));
    }

    #[test]
    fn children_reconstruct_idoms() {
        let (m, id, _) = build();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let children = dt.children();
        for b in f.blocks() {
            for &c in &children[b.index()] {
                assert_eq!(dt.idom(c), Some(b));
            }
        }
    }

    #[test]
    fn unreachable_blocks_not_dominated() {
        let (mut m, id, _) = build();
        let dead = m.function_mut(id).create_block();
        let dt = DomTree::compute(m.function(id));
        assert!(!dt.is_reachable(dead));
        assert!(!dt.dominates(m.function(id).entry_block(), dead));
    }
}
