//! Module call graph with SCC condensation.
//!
//! The interprocedural analyses (see [`crate::summaries`]) need two things
//! from the call structure: the set of direct call edges, and an order in
//! which per-function summaries can be computed bottom-up (callees before
//! callers) with recursion handled soundly. Both come from Tarjan's
//! strongly-connected-components algorithm: the SCC condensation of the
//! call graph is a DAG, its reverse topological order *is* the bottom-up
//! order, and mutually-recursive functions land in one component that the
//! summary fixpoint iterates until stable.
//!
//! The IR has direct calls only ([`InstKind::Call`] carries a `FuncId`), so
//! the graph is exact: there are no indirect-call over-approximation edges.

use std::collections::HashMap;
use tfm_ir::{FuncId, InstKind, Module};

/// The module's direct call graph plus its SCC condensation.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Per caller: distinct callees (deduplicated, in first-call order).
    callees: HashMap<FuncId, Vec<FuncId>>,
    /// Per callee: distinct callers (deduplicated).
    callers: HashMap<FuncId, Vec<FuncId>>,
    /// SCC id per function (indexed by `FuncId.0`); components are numbered
    /// in reverse topological (bottom-up) order: callees' components first.
    scc_of: Vec<u32>,
    /// Members of each component, in `scc_of` numbering.
    sccs: Vec<Vec<FuncId>>,
}

impl CallGraph {
    /// Builds the call graph of `module` and condenses it.
    pub fn compute(module: &Module) -> Self {
        let funcs: Vec<FuncId> = module.function_ids().collect();
        let mut callees: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
        let mut callers: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
        for &id in &funcs {
            let f = module.function(id);
            for v in f.live_insts() {
                if let InstKind::Call { func, .. } = f.kind(v) {
                    let outs = callees.entry(id).or_default();
                    if !outs.contains(func) {
                        outs.push(*func);
                    }
                    let ins = callers.entry(*func).or_default();
                    if !ins.contains(&id) {
                        ins.push(id);
                    }
                }
            }
        }
        let (scc_of, sccs) = condense(&funcs, &callees);
        CallGraph {
            callees,
            callers,
            scc_of,
            sccs,
        }
    }

    /// Distinct direct callees of `f` (empty for leaves).
    pub fn callees(&self, f: FuncId) -> &[FuncId] {
        self.callees.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Distinct direct callers of `f` (empty for roots).
    pub fn callers(&self, f: FuncId) -> &[FuncId] {
        self.callers.get(&f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The SCC id of `f`. Components are numbered bottom-up: if `f` calls
    /// `g` and they are not mutually recursive, `scc_id(g) < scc_id(f)`.
    pub fn scc_id(&self, f: FuncId) -> u32 {
        self.scc_of[f.0 as usize]
    }

    /// The components in bottom-up (reverse topological) order: processing
    /// them in index order visits every callee's component before any of its
    /// callers' components.
    pub fn sccs_bottom_up(&self) -> &[Vec<FuncId>] {
        &self.sccs
    }

    /// True when `f` participates in recursion (its component has more than
    /// one member, or it calls itself directly).
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.sccs[self.scc_of[f.0 as usize] as usize].len() > 1 || self.callees(f).contains(&f)
    }
}

/// Tarjan's SCC algorithm (iterative), returning `(scc_of, components)`
/// with components numbered in reverse topological order.
fn condense(
    funcs: &[FuncId],
    callees: &HashMap<FuncId, Vec<FuncId>>,
) -> (Vec<u32>, Vec<Vec<FuncId>>) {
    let n = funcs.iter().map(|f| f.0 as usize + 1).max().unwrap_or(0);
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![0u32; n];
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();
    let mut next_index = 0u32;

    // Explicit DFS frames: (node, next-callee cursor).
    for &root in funcs {
        let root = root.0 as usize;
        if index[root] != UNVISITED {
            continue;
        }
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let outs = callees
                .get(&FuncId(v as u32))
                .map(Vec::as_slice)
                .unwrap_or(&[]);
            if *cursor < outs.len() {
                let w = outs[*cursor].0 as usize;
                *cursor += 1;
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc_of[w] = sccs.len() as u32;
                        comp.push(FuncId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_by_key(|f| f.0);
                    sccs.push(comp);
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
    }
    (scc_of, sccs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature, Type};

    /// Builds a module whose call structure is given by `edges` over `n`
    /// functions named `f0..fn`.
    fn graph(n: usize, edges: &[(usize, usize)]) -> (Module, Vec<FuncId>) {
        let mut m = Module::new("t");
        let ids: Vec<FuncId> = (0..n)
            .map(|i| m.declare_function(format!("f{i}"), Signature::new(vec![], Some(Type::I64))))
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            let calls: Vec<FuncId> = edges
                .iter()
                .filter(|(a, _)| *a == i)
                .map(|(_, b)| ids[*b])
                .collect();
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let mut last = b.iconst(Type::I64, i as i64);
            for c in calls {
                last = b.call(c, vec![], Some(Type::I64));
            }
            b.ret(Some(last));
        }
        m.verify().unwrap();
        (m, ids)
    }

    #[test]
    fn edges_are_exact() {
        let (m, ids) = graph(3, &[(0, 1), (0, 2), (1, 2)]);
        let cg = CallGraph::compute(&m);
        assert_eq!(cg.callees(ids[0]), &[ids[1], ids[2]]);
        assert_eq!(cg.callees(ids[1]), &[ids[2]]);
        assert!(cg.callees(ids[2]).is_empty());
        assert_eq!(cg.callers(ids[2]), &[ids[0], ids[1]]);
        assert!(cg.callers(ids[0]).is_empty());
    }

    #[test]
    fn bottom_up_order_visits_callees_first() {
        let (m, ids) = graph(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        let cg = CallGraph::compute(&m);
        // Leaf f2 must come before f1/f3, which come before f0.
        assert!(cg.scc_id(ids[2]) < cg.scc_id(ids[1]));
        assert!(cg.scc_id(ids[2]) < cg.scc_id(ids[3]));
        assert!(cg.scc_id(ids[1]) < cg.scc_id(ids[0]));
        assert!(cg.scc_id(ids[3]) < cg.scc_id(ids[0]));
        // Walking sccs_bottom_up in index order respects every edge.
        for &caller in &ids {
            for &callee in cg.callees(caller) {
                assert!(cg.scc_id(callee) <= cg.scc_id(caller));
            }
        }
        assert_eq!(cg.sccs_bottom_up().len(), 4);
    }

    #[test]
    fn mutual_recursion_condenses_to_one_component() {
        let (m, ids) = graph(3, &[(0, 1), (1, 2), (2, 1)]);
        let cg = CallGraph::compute(&m);
        assert_eq!(cg.scc_id(ids[1]), cg.scc_id(ids[2]));
        assert_ne!(cg.scc_id(ids[0]), cg.scc_id(ids[1]));
        assert!(cg.is_recursive(ids[1]));
        assert!(cg.is_recursive(ids[2]));
        assert!(!cg.is_recursive(ids[0]));
        let comp = &cg.sccs_bottom_up()[cg.scc_id(ids[1]) as usize];
        assert_eq!(comp.as_slice(), &[ids[1], ids[2]]);
    }

    #[test]
    fn self_recursion_is_detected() {
        let (m, ids) = graph(2, &[(0, 0), (0, 1)]);
        let cg = CallGraph::compute(&m);
        assert!(cg.is_recursive(ids[0]));
        assert!(!cg.is_recursive(ids[1]));
        assert_eq!(cg.sccs_bottom_up().len(), 2);
    }
}
