//! Guard check analysis + transform.
//!
//! §3.1/§3.3: "TrackFM searches for all LLVM IR-level load and store
//! instructions that correspond to heap allocations (returned by malloc) and
//! marks these instructions as eligible for guard transformation. The pass
//! ignores accesses to stack and global objects [...]. Candidate heap
//! pointers are later transformed by the guard transformation pass."
//!
//! The transform rewrites `load p` into `p' = tfm.guard.read(p); load p'`
//! (and symmetrically for stores). At run time the guard performs the
//! custody check, the object-state-table lookup and — when needed — the
//! slow-path runtime call, returning a canonical localized pointer
//! (Fig. 4).

use tfm_analysis::guard_check::{AvailableGuards, GuardKind};
use tfm_analysis::points_to::{MemClass, PointsTo};
use tfm_ir::{FuncId, InstData, InstKind, Intrinsic, Module, Type, Value};

/// Per-function analysis result: accesses that must be guarded.
#[derive(Clone, Debug, Default)]
pub struct GuardPlan {
    /// Loads needing a read guard.
    pub loads: Vec<Value>,
    /// Stores needing a write guard.
    pub stores: Vec<Value>,
}

impl GuardPlan {
    /// Total accesses to be guarded.
    pub fn len(&self) -> usize {
        self.loads.len() + self.stores.len()
    }

    /// True when no guard is needed.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty() && self.stores.is_empty()
    }
}

/// The guard check analysis: classifies every load/store pointer and keeps
/// the ones that may reference the heap, in one walk over the reachable
/// blocks.
///
/// The analysis sees one function: pointer parameters and call results are
/// of unknown provenance, and every call kills custody. A `Localized`
/// pointer — a guard or chunk dereference result, so this composes with
/// chunking, which runs first — is skipped only while the available-guards
/// dataflow proves its custody live at the access (with write intent for
/// stores); otherwise it is guarded again.
pub fn analyze(module: &Module, func: FuncId) -> GuardPlan {
    let f = module.function(func);
    let pt = PointsTo::compute(f);
    let ag = AvailableGuards::compute(f);
    let mut plan = GuardPlan::default();
    for b in f.blocks() {
        let Some(mut map) = ag.block_in(b).cloned() else {
            continue; // unreachable
        };
        for &v in f.block_insts(b) {
            let (ptr, is_store) = match f.kind(v) {
                InstKind::Load { ptr } => (*ptr, false),
                InstKind::Store { ptr, .. } => (*ptr, true),
                _ => {
                    ag.apply(f, &mut map, v);
                    continue;
                }
            };
            let guard = match pt.class(ptr) {
                MemClass::NonPtr | MemClass::Stack | MemClass::Global => false,
                MemClass::Heap | MemClass::Unknown => true,
                // A read cover does not carry write intent, so a store
                // through it still takes a write guard (dirty marking).
                MemClass::Localized => {
                    !matches!(map.get(&ptr), Some(c) if !is_store || c.kind != GuardKind::Read)
                }
            };
            if guard && is_store {
                plan.stores.push(v);
            } else if guard {
                plan.loads.push(v);
            }
            ag.apply(f, &mut map, v);
        }
    }
    plan
}

/// The guard transform: applies a [`GuardPlan`], inserting guard intrinsics
/// and rewriting the access pointers. Returns `(read_guards, write_guards)`
/// inserted.
pub fn transform(module: &mut Module, func: FuncId, plan: &GuardPlan) -> (usize, usize) {
    let f = module.function_mut(func);
    for &v in &plan.loads {
        let InstKind::Load { ptr } = *f.kind(v) else {
            continue;
        };
        let guard = f.insert_before(
            v,
            InstData {
                kind: InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardRead,
                    args: vec![ptr],
                },
                ty: Some(Type::Ptr),
                block: f.inst(v).block,
            },
        );
        if let InstKind::Load { ptr } = &mut f.inst_mut(v).kind {
            *ptr = guard;
        }
    }
    for &v in &plan.stores {
        let InstKind::Store { ptr, .. } = *f.kind(v) else {
            continue;
        };
        let guard = f.insert_before(
            v,
            InstData {
                kind: InstKind::IntrinsicCall {
                    intr: Intrinsic::GuardWrite,
                    args: vec![ptr],
                },
                ty: Some(Type::Ptr),
                block: f.inst(v).block,
            },
        );
        if let InstKind::Store { ptr, .. } = &mut f.inst_mut(v).kind {
            *ptr = guard;
        }
    }
    (plan.loads.len(), plan.stores.len())
}

/// A guard site surviving in compiled output: the stable identity the
/// execution engine's telemetry attributes guard costs to. `(func, value)`
/// matches the `SiteKey` the interpreter derives at dispatch; `label` is
/// the human-readable form for reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GuardSite {
    /// Function index of the guard instruction.
    pub func: u32,
    /// Value index of the guard instruction within its function.
    pub value: u32,
    /// `"{function}:v{value}:{read|write|chunk}"`.
    pub label: String,
}

/// Enumerates every guard and chunk-dereference intrinsic in `module`, in
/// `(func, value)` order. Run after compilation: the result names every
/// site run-time telemetry can attribute cycles to.
pub fn collect_sites(module: &Module) -> Vec<GuardSite> {
    let mut sites = Vec::new();
    for (id, f) in module.functions() {
        for v in f.live_insts() {
            if let InstKind::IntrinsicCall { intr, .. } = f.kind(v) {
                let tag = match intr {
                    Intrinsic::GuardRead => "read",
                    Intrinsic::GuardWrite => "write",
                    Intrinsic::ChunkDeref => "chunk",
                    _ => continue,
                };
                sites.push(GuardSite {
                    func: id.0,
                    value: v.index() as u32,
                    label: format!("{}:v{}:{}", f.name, v.index(), tag),
                });
            }
        }
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature};

    /// Analyzes and transforms every function; returns total
    /// `(read_guards, write_guards)`.
    fn run(module: &mut Module) -> (usize, usize) {
        let mut totals = (0, 0);
        for id in module.function_ids().collect::<Vec<_>>() {
            let plan = analyze(module, id);
            let (r, w) = transform(module, id, &plan);
            totals.0 += r;
            totals.1 += w;
        }
        totals
    }

    #[test]
    fn guards_heap_skips_stack_and_globals() {
        let mut m = Module::new("t");
        let g = m.add_global("lut", 64, None);
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let heap = b.malloc_const(64);
            let stack = b.alloca(16, 8);
            let glob = b.global_addr(g);
            let x = b.load(Type::I64, heap); // guard
            b.store(stack, x); // no guard
            let y = b.load(Type::I64, glob); // no guard
            b.store(heap, y); // guard
            b.ret(Some(x));
        }
        let (r, w) = run(&mut m);
        assert_eq!((r, w), (1, 1));
        m.verify().unwrap();

        // Both guards are enumerable as sites, labeled by kind.
        let sites = collect_sites(&m);
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().any(|s| s.label.ends_with(":read")));
        assert!(sites.iter().any(|s| s.label.ends_with(":write")));
        assert!(sites.iter().all(|s| s.label.starts_with("main:v")));

        // The guarded load must now go through the guard's result.
        let f = m.function(id);
        let mut guarded_loads = 0;
        for v in f.live_insts() {
            if let InstKind::Load { ptr } = f.kind(v) {
                if matches!(
                    f.kind(*ptr),
                    InstKind::IntrinsicCall {
                        intr: Intrinsic::GuardRead,
                        ..
                    }
                ) {
                    guarded_loads += 1;
                }
            }
        }
        assert_eq!(guarded_loads, 1);
    }

    #[test]
    fn unknown_pointers_are_guarded() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let x = b.load(Type::I64, p);
            b.ret(Some(x));
        }
        let plan = analyze(&m, id);
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn guarded_code_is_not_reguarded() {
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let heap = b.malloc_const(64);
            let x = b.load(Type::I64, heap);
            b.ret(Some(x));
        }
        let (r1, _) = run(&mut m);
        assert_eq!(r1, 1);
        // Running the pass again must not stack a second guard: the access
        // pointer is now Localized.
        let (r2, w2) = run(&mut m);
        assert_eq!((r2, w2), (0, 0));
        m.verify().unwrap();
    }

    #[test]
    fn stored_pointer_values_are_not_guarded() {
        // Storing a heap *value* through a stack pointer needs no guard.
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let heap = b.malloc_const(64);
            let slot = b.alloca(8, 8);
            b.store(slot, heap);
            b.ret(None);
        }
        let plan = analyze(&m, m.find_function("main").unwrap());
        assert!(plan.is_empty());
    }
}
