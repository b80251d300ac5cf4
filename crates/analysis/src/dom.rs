//! Dominance: the dominator tree (in [`tfm_ir`]'s CFG core) and dominance
//! frontiers.

pub use tfm_ir::DomTree;
use tfm_ir::{Block, Cfg, Function};

/// Dominance frontiers (Cytron et al.): `DF(b)` = blocks where `b`'s
/// dominance ends — exactly where SSA construction places phis.
pub fn dominance_frontier(f: &Function, dt: &DomTree) -> Vec<Vec<Block>> {
    let cfg = Cfg::of(f);
    let mut df = vec![Vec::new(); f.num_blocks()];
    for b in f.blocks() {
        if !dt.is_reachable(b) {
            continue;
        }
        let preds: Vec<Block> = cfg
            .preds(b)
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
}
