//! Dominator tree (Cooper–Harvey–Kennedy "a simple, fast dominance
//! algorithm").

use crate::cfg;
use tfm_ir::{Block, Function};

/// The dominator tree of a function's CFG.
#[derive(Clone, Debug)]
pub struct DomTree {
    idom: Vec<Option<Block>>,
    rpo: Vec<Block>,
}

impl DomTree {
    /// Computes the dominator tree.
    pub fn compute(f: &Function) -> Self {
        let rpo = cfg::reverse_postorder(f);
        let mut rpo_num = vec![usize::MAX; f.num_blocks()];
        for (i, b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }
        let preds = cfg::predecessors(f);
        let mut idom: Vec<Option<Block>> = vec![None; f.num_blocks()];
        idom[f.entry_block().index()] = Some(f.entry_block());
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let processed: Vec<Block> = preds[b.index()]
                    .iter()
                    .copied()
                    .filter(|p| idom[p.index()].is_some())
                    .collect();
                let Some(&first) = processed.first() else {
                    continue;
                };
                let mut new = first;
                for &p in &processed[1..] {
                    new = Self::intersect(&idom, &rpo_num, p, new);
                }
                if idom[b.index()] != Some(new) {
                    idom[b.index()] = Some(new);
                    changed = true;
                }
            }
        }
        DomTree { idom, rpo }
    }

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

    /// The immediate dominator of `b` (`None` for the entry block and for
    /// unreachable blocks).
    pub fn idom(&self, b: Block) -> Option<Block> {
        let d = self.idom[b.index()]?;
        if d == b {
            None
        } else {
            Some(d)
        }
    }

    /// True iff `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: Block, b: Block) -> bool {
        if self.idom[b.index()].is_none() {
            return false; // unreachable
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            let next = match self.idom[cur.index()] {
                Some(n) => n,
                None => return false,
            };
            if next == cur {
                return false; // reached entry
            }
            cur = next;
        }
    }

    /// True if `b` is reachable from the entry.
    pub fn is_reachable(&self, b: Block) -> bool {
        self.idom[b.index()].is_some()
    }

    /// The blocks in reverse postorder.
    pub fn rpo(&self) -> &[Block] {
        &self.rpo
    }

    /// Children lists of the dominator tree (indexed by block).
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

/// Dominance frontiers (Cytron et al.): `DF(b)` = blocks where `b`'s
/// dominance ends — exactly where SSA construction places phis.
pub fn dominance_frontier(f: &Function, dt: &DomTree) -> Vec<Vec<Block>> {
    let mut df = vec![Vec::new(); f.num_blocks()];
    for b in f.blocks() {
        if !dt.is_reachable(b) {
            continue;
        }
        let preds: Vec<Block> = cfg::predecessors(f)[b.index()]
            .iter()
            .copied()
            .filter(|p| dt.is_reachable(*p))
            .collect();
        if preds.len() < 2 {
            continue;
        }
        let Some(idom_b) = dt.idom(b) else { continue };
        for p in preds {
            let mut runner = p;
            while runner != idom_b {
                if !df[runner.index()].contains(&b) {
                    df[runner.index()].push(b);
                }
                match dt.idom(runner) {
                    Some(next) => runner = next,
                    None => break,
                }
            }
        }
    }
    df
}

/// The post-dominator tree: `a` post-dominates `b` when every path from `b`
/// to function exit passes through `a`.
///
/// Computed with the same iterative CHK scheme as [`DomTree`] but over the
/// reversed CFG, with a virtual exit joining every `ret` block (and every
/// `unreachable` terminator, so aborting paths don't vacuously
/// post-dominate). Used by the guard-motion pass's cross-block read→write
/// upgrade: a write guard may absorb into an earlier read guard only when
/// the write's block post-dominates the read's (the upgraded guard never
/// dirties an object the original program would not have).
#[derive(Clone, Debug)]
pub struct PostDomTree {
    /// Immediate post-dominator in virtual indices (`nblocks` = virtual
    /// exit); `None` for blocks that never reach an exit.
    ipdom: Vec<Option<usize>>,
    nblocks: usize,
}

impl PostDomTree {
    /// Computes the post-dominator tree.
    pub fn compute(f: &Function) -> Self {
        let n = f.num_blocks();
        let exit = n; // virtual exit node
                      // Reverse-CFG edges: block -> its CFG predecessors; exits -> ret
                      // and unreachable blocks.
        let preds = cfg::predecessors(f);
        let mut rsuccs: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        let mut rpreds: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        for b in f.blocks() {
            if f.succs(b).is_empty() && !f.block_insts(b).is_empty() {
                rsuccs[exit].push(b.index());
                rpreds[b.index()].push(exit);
            }
            for &p in &preds[b.index()] {
                rsuccs[b.index()].push(p.index());
                rpreds[p.index()].push(b.index());
            }
        }
        // RPO of the reverse graph from the virtual exit.
        let mut order = Vec::new();
        let mut state = vec![0u8; n + 1];
        let mut stack = vec![(exit, 0usize)];
        state[exit] = 1;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < rsuccs[b].len() {
                let s = rsuccs[b][*i];
                *i += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        let mut rpo_num = vec![usize::MAX; n + 1];
        for (i, &b) in order.iter().enumerate() {
            rpo_num[b] = i;
        }
        let mut ipdom: Vec<Option<usize>> = vec![None; n + 1];
        ipdom[exit] = Some(exit);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in order.iter().skip(1) {
                let processed: Vec<usize> = rpreds[b]
                    .iter()
                    .copied()
                    .filter(|&p| ipdom[p].is_some() && rpo_num[p] != usize::MAX)
                    .collect();
                let Some(&first) = processed.first() else {
                    continue;
                };
                let mut new = first;
                for &p in &processed[1..] {
                    new = Self::intersect(&ipdom, &rpo_num, p, new);
                }
                if ipdom[b] != Some(new) {
                    ipdom[b] = Some(new);
                    changed = true;
                }
            }
        }
        PostDomTree { ipdom, nblocks: n }
    }

    fn intersect(ipdom: &[Option<usize>], rpo: &[usize], mut a: usize, mut b: usize) -> usize {
        while a != b {
            while rpo[a] > rpo[b] {
                a = ipdom[a].expect("processed predecessor");
            }
            while rpo[b] > rpo[a] {
                b = ipdom[b].expect("processed predecessor");
            }
        }
        a
    }

    /// The immediate post-dominator of `b` (`None` when `b` is the last
    /// block before exit or never reaches one).
    pub fn ipdom(&self, b: Block) -> Option<Block> {
        let d = self.ipdom[b.index()]?;
        if d == self.nblocks || d == b.index() {
            None
        } else {
            Some(Block::from_index(d))
        }
    }

    /// True iff `a` post-dominates `b` (reflexive).
    pub fn postdominates(&self, a: Block, b: Block) -> bool {
        if self.ipdom[b.index()].is_none() {
            return false; // never reaches an exit
        }
        let mut cur = b.index();
        loop {
            if cur == a.index() {
                return true;
            }
            let next = match self.ipdom[cur] {
                Some(n) => n,
                None => return false,
            };
            if next == cur || next == self.nblocks {
                return false;
            }
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{CmpOp, FunctionBuilder, Module, Signature, Type};

    /// entry -> (A | B) -> join -> loop{hdr -> body -> hdr} -> exit
    fn build() -> (Module, tfm_ir::FuncId, Vec<Block>) {
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
            let i2 = b.binop(tfm_ir::BinOp::Add, i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(hdr);
            b.switch_to_block(exit);
            b.ret(Some(i));
        }
        m.verify().unwrap();
        (m, id, blocks)
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
    fn dominance_frontier_of_diamond() {
        let (m, id, bl) = build();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let df = dominance_frontier(f, &dt);
        let (_entry, a, bb, join, hdr, body, _exit) =
            (bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]);
        // The diamond arms' frontier is the join block.
        assert_eq!(df[a.index()], vec![join]);
        assert_eq!(df[bb.index()], vec![join]);
        // The loop body's frontier is the header; the header is in its own
        // frontier (back edge).
        assert_eq!(df[body.index()], vec![hdr]);
        assert!(df[hdr.index()].contains(&hdr));
        // The join dominates everything after it: empty frontier.
        assert!(df[join.index()].is_empty());
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
    fn postdominators_of_diamond_and_loop() {
        let (m, id, bl) = build();
        let f = m.function(id);
        let pdt = PostDomTree::compute(f);
        let (entry, a, bb, join, hdr, body, exit) =
            (bl[0], bl[1], bl[2], bl[3], bl[4], bl[5], bl[6]);
        // Every block post-dominates itself; the exit post-dominates all.
        for &b in &bl {
            assert!(pdt.postdominates(b, b));
            assert!(pdt.postdominates(exit, b));
        }
        // The join post-dominates both arms and the entry; the arms
        // post-dominate nothing but themselves.
        assert!(pdt.postdominates(join, a));
        assert!(pdt.postdominates(join, bb));
        assert!(pdt.postdominates(join, entry));
        assert!(!pdt.postdominates(a, entry));
        assert!(!pdt.postdominates(bb, entry));
        // The loop header post-dominates its body (the only way out is back
        // through the header); the body does not post-dominate the header.
        assert!(pdt.postdominates(hdr, body));
        assert!(!pdt.postdominates(body, hdr));
        assert_eq!(pdt.ipdom(a), Some(join));
        assert_eq!(pdt.ipdom(exit), None);
    }

    #[test]
    fn unreachable_terminators_do_not_vacuously_postdominate() {
        // entry -> (ret | unreachable): the ret arm must not post-dominate
        // the entry (the aborting path never passes through it... but both
        // arms reach the virtual exit, so neither postdominates entry).
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        let (entry, r, u);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            entry = b.entry_block();
            r = b.create_block();
            u = b.create_block();
            let x = b.param(0);
            b.cond_br(x, r, u);
            b.switch_to_block(r);
            b.ret(Some(x));
            b.switch_to_block(u);
            b.unreachable();
        }
        let pdt = PostDomTree::compute(m.function(id));
        assert!(!pdt.postdominates(r, entry));
        assert!(!pdt.postdominates(u, entry));
        assert!(pdt.postdominates(r, r));
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
