//! The one dominator solver against a brute-force oracle.
//!
//! The verifier and the analyses all ask the same Cooper–Harvey–Kennedy
//! solver (`tfm_ir::DomTree`), so nothing else cross-checks it. This suite
//! does, from the definition: `a` dominates `b` iff `b` is reachable from
//! the entry and, with `a` removed, no longer is (or `a == b`).
//!
//! It runs over seeded random CFGs (up to 10 blocks, with unreachable
//! blocks, self-loops and several exits) and over every function of the
//! workload suite, before and after compilation.

pub mod common;

use common::{suite, Size};
use trackfm_suite::compiler::TrackFmCompiler;
use trackfm_suite::ir::{Block, DomTree, Function, FunctionBuilder, Module, Signature, Type};
use trackfm_suite::workloads::SplitMix64;

/// Nodes reachable from `roots` along `edges`, never entering `avoid`.
fn reach(edges: &[Vec<usize>], roots: &[usize], avoid: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; edges.len()];
    let mut stack: Vec<usize> = roots
        .iter()
        .copied()
        .filter(|&r| Some(r) != avoid)
        .collect();
    while let Some(n) = stack.pop() {
        if !seen[n] {
            seen[n] = true;
            stack.extend(edges[n].iter().copied().filter(|&s| Some(s) != avoid));
        }
    }
    seen
}

/// Checks the dominator tree of `f` against the path definition.
fn check(tag: &str, f: &Function) {
    let n = f.num_blocks();
    let succs: Vec<Vec<usize>> = f
        .blocks()
        .map(|b| f.succs(b).iter().map(|s| s.index()).collect())
        .collect();
    let entry = [f.entry_block().index()];
    let dt = DomTree::compute(f);
    let reachable = reach(&succs, &entry, None);
    for a in 0..n {
        let without_a = reach(&succs, &entry, Some(a));
        let ab = Block::from_index(a);
        for b in 0..n {
            let bb = Block::from_index(b);
            let dom = reachable[b] && (a == b || !without_a[b]);
            assert_eq!(
                dt.dominates(ab, bb),
                dom,
                "{tag}: dominates({ab}, {bb}) of `{}`",
                f.name
            );
        }
        assert_eq!(dt.is_reachable(ab), reachable[a], "{tag}: reachability");
    }
}

/// A function of `n` blocks whose terminators are drawn at random: `ret`,
/// `unreachable`, `br` or `cond_br` to any block, the block itself included.
fn random_cfg(rng: &mut SplitMix64, n: usize) -> Module {
    let mut m = Module::new("cfg");
    let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let x = b.param(0);
        let mut blocks = vec![b.entry_block()];
        blocks.extend((1..n).map(|_| b.create_block()));
        let pick = |rng: &mut SplitMix64| blocks[rng.next_below(n as u64) as usize];
        for i in 0..n {
            let target = pick(rng);
            let other = pick(rng);
            b.switch_to_block(Block::from_index(i));
            match rng.next_below(6) {
                0 => {
                    b.ret(Some(x));
                }
                1 => {
                    b.unreachable();
                }
                2 | 3 => {
                    b.br(target);
                }
                _ => {
                    b.cond_br(x, target, other);
                }
            }
        }
    }
    m
}

#[test]
fn dominators_match_the_path_definition_on_random_cfgs() {
    let mut rng = SplitMix64::seed_from_u64(0xD0_0001);
    let (mut unreachable, mut self_loops, mut multi_exit) = (0, 0, 0);
    for case in 0..500 {
        let n = rng.next_range(1, 10) as usize;
        let m = random_cfg(&mut rng, n);
        let (_, f) = m.functions().next().unwrap();
        check(&format!("case {case}"), f);
        let dt = DomTree::compute(f);
        unreachable += f.blocks().any(|b| !dt.is_reachable(b)) as u32;
        self_loops += f.blocks().any(|b| f.succs(b).contains(&b)) as u32;
        multi_exit += (f.blocks().filter(|&b| f.succs(b).is_empty()).count() > 1) as u32;
    }
    // The corpus has every shape the solver must get right.
    assert!(unreachable > 50 && self_loops > 50 && multi_exit > 50);
}

#[test]
fn dominators_match_the_path_definition_on_the_workload_suite() {
    for spec in suite(Size::Compile) {
        let mut compiled = spec.module.clone();
        TrackFmCompiler::default().compile(&mut compiled, None);
        for (tag, m) in [("source", &spec.module), ("compiled", &compiled)] {
            for (_, f) in m.functions() {
                check(&format!("{} {tag}", m.name), f);
            }
        }
    }
}
