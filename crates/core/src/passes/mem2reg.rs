//! mem2reg: promote stack slots to SSA registers (Cytron et al.).
//!
//! Unoptimized front-end output keeps local variables in `alloca` slots with
//! a load/store per use — exactly the "unoptimized code from LLVM" the
//! paper's Fig. 17b discussion starts from. Promoting those slots to SSA
//! values removes the loads and stores entirely, which is the strongest
//! possible form of "reduce the number of loads and stores and thus the
//! number of guards" (§4.5). This pass runs first in the O1 pre-pipeline.
//!
//! An alloca is promotable when every use is a direct, type-consistent
//! `load`/`store` through it (no GEP, no escape as a stored value or call
//! argument). Phi placement uses iterated dominance frontiers; renaming
//! walks the dominator tree.

use std::collections::{BTreeMap, HashMap, HashSet};
use tfm_analysis::dom::{dominance_frontier, DomTree};
use tfm_ir::{Block, FuncId, Function, InstData, InstKind, Module, Type, Value};

/// Promotes every promotable alloca in the module. Returns the number of
/// slots promoted.
pub fn run(module: &mut Module) -> usize {
    let mut promoted = 0;
    for id in module.function_ids().collect::<Vec<_>>() {
        promoted += run_on_function(module.function_mut(id), id);
    }
    promoted
}

fn run_on_function(f: &mut Function, _id: FuncId) -> usize {
    let candidates = promotable_allocas(f);
    if candidates.is_empty() {
        return 0;
    }
    let dt = DomTree::compute(f);
    let df = dominance_frontier(f, &dt);
    let children = dt.children();

    // Phi placement: iterated dominance frontier of the store blocks.
    // phi_for[(block, var)] -> phi value.
    let mut phi_for: HashMap<(Block, Value), Value> = HashMap::new();
    for (&var, ty) in &candidates {
        let mut work: Vec<Block> = f
            .live_insts()
            .into_iter()
            .filter(|&v| matches!(f.kind(v), InstKind::Store { ptr, .. } if *ptr == var))
            .map(|v| f.inst(v).block)
            .collect();
        let mut placed: HashSet<Block> = HashSet::new();
        while let Some(b) = work.pop() {
            if !dt.is_reachable(b) {
                continue;
            }
            for &front in &df[b.index()] {
                if placed.insert(front) {
                    let phi = f.insert_at_block_start(
                        front,
                        InstData {
                            kind: InstKind::Phi(Vec::new()),
                            ty: Some(*ty),
                            block: front,
                        },
                    );
                    phi_for.insert((front, var), phi);
                    work.push(front);
                }
            }
        }
    }

    // The value of an uninitialized variable: a zero constant in the entry
    // block (reads before writes are undefined behaviour in the source
    // language; zero is a deterministic choice).
    let mut undef: HashMap<Type, Value> = HashMap::new();
    for (&_var, &ty) in &candidates {
        undef.entry(ty).or_insert_with(|| {
            let kind = if ty == Type::F64 {
                InstKind::ConstFloat(0.0)
            } else {
                InstKind::ConstInt(0) // integers and null pointers alike
            };
            f.insert_at_block_start(
                f.entry_block(),
                InstData {
                    kind,
                    ty: Some(ty),
                    block: f.entry_block(),
                },
            )
        });
    }

    // Rename: DFS over the dominator tree with per-variable value stacks.
    let mut current: HashMap<Value, Vec<Value>> = candidates
        .keys()
        .map(|&var| {
            let ty = candidates[&var];
            (var, vec![undef[&ty]])
        })
        .collect();
    let mut to_delete: Vec<Value> = Vec::new();
    rename(
        f,
        f.entry_block(),
        &children,
        &candidates,
        &phi_for,
        &mut current,
        &mut to_delete,
    );
    for v in to_delete {
        f.remove_inst(v);
    }
    for &var in candidates.keys() {
        f.remove_inst(var);
    }
    candidates.len()
}

/// Finds allocas whose only uses are direct typed loads and stores, in value
/// order: phis and zero constants are placed in this order, so it fixes the
/// output's instruction order and value numbers.
fn promotable_allocas(f: &Function) -> BTreeMap<Value, Type> {
    let mut ok: BTreeMap<Value, Type> = BTreeMap::new();
    let mut bad: HashSet<Value> = HashSet::new();
    let allocas: HashSet<Value> = f
        .live_insts()
        .into_iter()
        .filter(|&v| matches!(f.kind(v), InstKind::Alloca { .. }))
        .collect();
    for v in f.live_insts() {
        match f.kind(v) {
            InstKind::Load { ptr } if allocas.contains(ptr) => {
                let ty = f.ty(v).unwrap_or(Type::I64);
                match ok.get(ptr) {
                    Some(&t) if t != ty => {
                        bad.insert(*ptr);
                    }
                    _ => {
                        ok.insert(*ptr, ty);
                    }
                }
            }
            InstKind::Store { ptr, val } if allocas.contains(ptr) && !allocas.contains(val) => {
                let ty = f.ty(*val).unwrap_or(Type::I64);
                match ok.get(ptr) {
                    Some(&t) if t != ty => {
                        bad.insert(*ptr);
                    }
                    _ => {
                        ok.insert(*ptr, ty);
                    }
                }
                // The *value* operand must not be a tracked alloca (escape).
            }
            kind => {
                // Any other appearance of an alloca as an operand disqualifies
                // it (GEP, call argument, stored value, compare, ...).
                kind.for_each_operand(|op| {
                    if allocas.contains(&op) {
                        bad.insert(op);
                    }
                });
            }
        }
    }
    // Stores whose value operand is an alloca (address escape).
    for v in f.live_insts() {
        if let InstKind::Store { val, .. } = f.kind(v) {
            if allocas.contains(val) {
                bad.insert(*val);
            }
        }
    }
    for b in &bad {
        ok.remove(b);
    }
    ok
}

#[allow(clippy::too_many_arguments)]
fn rename(
    f: &mut Function,
    block: Block,
    children: &[Vec<Block>],
    vars: &BTreeMap<Value, Type>,
    phi_for: &HashMap<(Block, Value), Value>,
    current: &mut HashMap<Value, Vec<Value>>,
    to_delete: &mut Vec<Value>,
) {
    let mut pushes: Vec<Value> = Vec::new();

    // Phis at the head of this block define new current values.
    for (&(b, var), &phi) in phi_for.iter() {
        if b == block {
            current.get_mut(&var).unwrap().push(phi);
            pushes.push(var);
        }
    }

    for v in f.block_insts(block).to_vec() {
        match f.kind(v).clone() {
            InstKind::Load { ptr } if vars.contains_key(&ptr) => {
                let cur = *current[&ptr].last().unwrap();
                f.replace_all_uses(v, cur);
                to_delete.push(v);
            }
            InstKind::Store { ptr, val } if vars.contains_key(&ptr) => {
                current.get_mut(&ptr).unwrap().push(val);
                pushes.push(ptr);
                to_delete.push(v);
            }
            _ => {}
        }
    }

    // Fill successor phis with this block's outgoing values (dedup: a
    // cond_br with identical arms lists its target twice).
    let mut succs = f.succs(block);
    succs.dedup();
    for succ in succs {
        for (&var, _) in vars.iter() {
            if let Some(&phi) = phi_for.get(&(succ, var)) {
                let cur = *current[&var].last().unwrap();
                f.add_phi_incoming(phi, block, cur);
            }
        }
    }

    for &c in &children[block.index()] {
        rename(f, c, children, vars, phi_for, current, to_delete);
    }

    for var in pushes {
        current.get_mut(&var).unwrap().pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, CmpOp, FunctionBuilder, Module, Signature};

    fn count_kind(f: &Function, pred: impl Fn(&InstKind) -> bool) -> usize {
        f.live_insts()
            .into_iter()
            .filter(|&v| pred(f.kind(v)))
            .count()
    }

    #[test]
    fn promotes_accumulator_through_a_loop() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let acc = b.alloca(8, 8);
            b.store(acc, zero);
            b.counted_loop(zero, n, 1, |b, i| {
                let cur = b.load(Type::I64, acc);
                let nxt = b.binop(BinOp::Add, cur, i);
                b.store(acc, nxt);
            });
            let out = b.load(Type::I64, acc);
            b.ret(Some(out));
        }
        m.verify().unwrap();
        let promoted = run(&mut m);
        assert_eq!(promoted, 1);
        m.verify().unwrap();
        let f = m.function(id);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 0);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Load { .. })), 0);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Store { .. })), 0);
        // The loop-carried accumulator is now a phi (plus the IV phi).
        assert!(count_kind(f, |k| matches!(k, InstKind::Phi(_))) >= 2);
    }

    #[test]
    fn promotes_conditional_stores_with_phi_at_join() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.param(0);
            let slot = b.alloca(8, 8);
            let ten = b.iconst(Type::I64, 10);
            b.store(slot, ten);
            let t = b.create_block();
            let j = b.create_block();
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(CmpOp::Sgt, x, zero);
            b.cond_br(c, t, j);
            b.switch_to_block(t);
            let dbl = b.binop(BinOp::Add, x, x);
            b.store(slot, dbl);
            b.br(j);
            b.switch_to_block(j);
            let out = b.load(Type::I64, slot);
            b.ret(Some(out));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m), 1);
        m.verify().unwrap();
        let f = m.function(id);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Phi(_))), 1);
    }

    #[test]
    fn skips_escaping_and_gep_allocas() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let sink = b.param(0);
            let escapes = b.alloca(8, 8);
            b.store(sink, escapes); // address escapes
            let array = b.alloca(64, 8);
            let two = b.iconst(Type::I64, 2);
            let slot = b.gep(array, two, 8, 0); // indexed access
            let x = b.load(Type::I64, slot);
            let fine = b.alloca(8, 8);
            b.store(fine, x);
            let y = b.load(Type::I64, fine);
            b.ret(Some(y));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m), 1, "only the plain scalar slot promotes");
        m.verify().unwrap();
        let f = m.function(id);
        assert_eq!(count_kind(f, |k| matches!(k, InstKind::Alloca { .. })), 2);
    }

    #[test]
    fn mixed_type_slots_are_skipped() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let slot = b.alloca(8, 8);
            let fz = b.fconst(1.5);
            b.store(slot, fz); // stored as f64
            let out = b.load(Type::I64, slot); // loaded as i64 (type pun)
            b.ret(Some(out));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m), 0, "type-punned slots must not promote");
    }

    #[test]
    fn read_before_write_gets_deterministic_zero() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let slot = b.alloca(8, 8);
            let out = b.load(Type::I64, slot); // uninitialized read
            b.ret(Some(out));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m), 1);
        m.verify().unwrap();
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Module, Signature};

    #[test]
    fn cond_br_with_identical_targets_does_not_duplicate_phi_labels() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.param(0);
            let slot = b.alloca(8, 8);
            b.store(slot, x);
            let next = b.create_block();
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(tfm_ir::CmpOp::Sgt, x, zero);
            b.cond_br(c, next, next); // both arms identical
            b.switch_to_block(next);
            let out = b.load(Type::I64, slot);
            b.ret(Some(out));
        }
        m.verify().unwrap();
        assert_eq!(run(&mut m), 1);
        m.verify().unwrap();
    }
}
