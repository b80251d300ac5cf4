//! Redundant-guard elimination.
//!
//! A guard is *redundant* when the available-guards dataflow
//! ([`tfm_analysis::guard_check`]) proves that one specific earlier guard
//! already holds custody of the same pointer along **every** path to it,
//! un-killed. Availability on all paths implies the earlier guard dominates
//! the duplicate, so rewriting every use of the duplicate to the earlier
//! guard's canonical result preserves SSA and semantics; the duplicate is
//! then deleted, saving its full fast-path cost (~14 instructions per the
//! paper's Fig. 4 accounting) on every execution.
//!
//! Kind rules: a write guard covers a later read or write guard on the same
//! pointer; a read guard covers only reads. Chunk-dereference custody is
//! never reused (its write intent is a property of the stream, not the
//! value). One extension handles the ubiquitous read-modify-write pattern
//! (`load p; op; store p`): when a *write* guard is covered only by a *read*
//! guard defined in the **same block**, the earlier guard is upgraded in
//! place to `tfm.guard.write` and the later one deleted. The same-block
//! restriction guarantees the store executes whenever the upgraded guard
//! does, so dirty-marking is never added to a path that does not write.
//!
//! Eliminated guards are attributed to the surviving site so telemetry can
//! report per-site elision counts alongside runtime hit counts.

use std::collections::{BTreeMap, HashMap};
use tfm_analysis::guard_check::{AvailableGuards, Cover, CoverSrc, GuardKind};
use tfm_ir::{Function, InstKind, Intrinsic, Module, Value};

/// One surviving guard that absorbed eliminated duplicates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ElidedSite {
    /// Function index of the surviving guard.
    pub func: u32,
    /// Value index of the surviving guard.
    pub survivor: u32,
    /// Duplicates folded into it.
    pub absorbed: u32,
}

/// What the elimination pass did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElisionOutcome {
    /// Guards deleted outright.
    pub eliminated: usize,
    /// Surviving read guards upgraded to write guards to absorb a
    /// same-block write duplicate (counted inside `eliminated` too).
    pub upgraded: usize,
    /// Per-survivor attribution, ordered by `(func, survivor)`.
    pub sites: Vec<ElidedSite>,
}

/// Follows the replacement chain to the guard that finally survived.
fn chase(repl: &HashMap<Value, Value>, mut v: Value) -> Value {
    while let Some(&n) = repl.get(&v) {
        v = n;
    }
    v
}

/// What elimination does with a guard an earlier one covers.
enum Fold {
    /// Leave the guard in place.
    Keep,
    /// Delete it; its uses read the survivor's result.
    Replace,
    /// Strengthen the surviving read guard to a write guard in place, then
    /// delete this one.
    Upgrade,
}

/// What to do with guard `v`, of kind `need`, whose pointer the earlier
/// guard `g` covers.
fn decide(f: &Function, v: Value, need: GuardKind, g: Value) -> Fold {
    // The survivor's *current* kind (upgrades rewrite the IR), and whether
    // it is a read guard that can be upgraded in place.
    let (have, read_guard) = match f.kind(g) {
        InstKind::IntrinsicCall {
            intr: Intrinsic::GuardRead,
            ..
        } => (GuardKind::Read, true),
        InstKind::IntrinsicCall {
            intr: Intrinsic::GuardWrite,
            ..
        } => (GuardKind::Write, false),
        _ => (GuardKind::Chunk, false), // chunk custody: never reused
    };
    if have.covers(need) {
        Fold::Replace
    } else if read_guard && need == GuardKind::Write && f.inst(g).block == f.inst(v).block {
        // Same-block read→write upgrade (RMW pattern): the duplicate write
        // guard always executes right after the read guard, so strengthening
        // in place adds dirty-marking exactly where the store already is.
        Fold::Upgrade
    } else {
        Fold::Keep
    }
}

/// The fold loop over one function. It walks every reachable block from its
/// available-guards in-state; for each guard `v` whose pointer one earlier
/// guard `g` covers, [`decide`] picks the rewrite, with `g` chased through
/// this walk's earlier folds (the analysis saw the IR before them). Each
/// fold is counted in `absorbed` under `(func, g)`. Returns `(folded,
/// upgraded)`.
fn fold_guards(
    f: &mut Function,
    func: u32,
    ag: &AvailableGuards,
    absorbed: &mut BTreeMap<(u32, u32), u32>,
) -> (usize, usize) {
    let (mut folded, mut upgraded) = (0, 0);
    let mut repl: HashMap<Value, Value> = HashMap::new();
    for b in f.blocks().collect::<Vec<_>>() {
        let Some(mut map) = ag.block_in(b).cloned() else {
            continue; // unreachable
        };
        for v in f.block_insts(b).to_vec() {
            let decision = match f.kind(v) {
                InstKind::IntrinsicCall {
                    intr: intr @ (Intrinsic::GuardRead | Intrinsic::GuardWrite),
                    args,
                } => match map.get(&args[0]) {
                    Some(&Cover {
                        src: CoverSrc::Guard(src),
                        ..
                    }) => {
                        let need = if *intr == Intrinsic::GuardWrite {
                            GuardKind::Write
                        } else {
                            GuardKind::Read
                        };
                        let g = chase(&repl, src);
                        (g != v).then(|| (g, decide(f, v, need, g)))
                    }
                    _ => None,
                },
                _ => None,
            };
            let g = match decision {
                Some((g, Fold::Replace)) => g,
                Some((g, Fold::Upgrade)) => {
                    if let InstKind::IntrinsicCall { intr, .. } = &mut f.inst_mut(g).kind {
                        *intr = Intrinsic::GuardWrite;
                    }
                    upgraded += 1;
                    g
                }
                Some((_, Fold::Keep)) | None => {
                    ag.apply(f, &mut map, v);
                    continue;
                }
            };
            f.replace_all_uses(v, g);
            f.remove_inst(v);
            repl.insert(v, g);
            folded += 1;
            *absorbed.entry((func, g.index() as u32)).or_insert(0) += 1;
            // Skip the transfer: the deleted guard gens nothing, and its
            // pointer stays covered by the survivor.
        }
    }
    (folded, upgraded)
}

/// Per-survivor attribution, ordered by `(func, survivor)`.
fn elided_sites(absorbed: BTreeMap<(u32, u32), u32>) -> Vec<ElidedSite> {
    absorbed
        .into_iter()
        .map(|((func, survivor), absorbed)| ElidedSite {
            func,
            survivor,
            absorbed,
        })
        .collect()
}

/// Runs redundant-guard elimination over every function of `module`.
/// Every call kills custody, so no guard folds across one.
pub fn run(module: &mut Module) -> ElisionOutcome {
    let mut outcome = ElisionOutcome::default();
    let mut absorbed = BTreeMap::new();
    for fid in module.function_ids().collect::<Vec<_>>() {
        let ag = AvailableGuards::compute(module.function(fid));
        let f = module.function_mut(fid);
        let (folded, upgraded) = fold_guards(f, fid.0, &ag, &mut absorbed);
        outcome.eliminated += folded;
        outcome.upgraded += upgraded;
    }
    outcome.sites = elided_sites(absorbed);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{FunctionBuilder, Signature, Type};

    fn count_guards(m: &Module) -> (usize, usize) {
        let (mut r, mut w) = (0, 0);
        for (_, f) in m.functions() {
            for v in f.live_insts() {
                match f.kind(v) {
                    InstKind::IntrinsicCall {
                        intr: Intrinsic::GuardRead,
                        ..
                    } => r += 1,
                    InstKind::IntrinsicCall {
                        intr: Intrinsic::GuardWrite,
                        ..
                    } => w += 1,
                    _ => {}
                }
            }
        }
        (r, w)
    }

    #[test]
    fn duplicate_read_guard_is_folded() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let (g1, x2);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _x1 = b.load(Type::I64, g1);
            let g2 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            x2 = b.load(Type::I64, g2);
            b.ret(Some(x2));
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 1);
        assert_eq!(out.upgraded, 0);
        assert_eq!(
            out.sites,
            vec![ElidedSite {
                func: id.0,
                survivor: g1.index() as u32,
                absorbed: 1
            }]
        );
        assert_eq!(count_guards(&m), (1, 0));
        // The second load now reads through the first guard's result.
        let f = m.function(id);
        let InstKind::Load { ptr } = *f.kind(x2) else {
            panic!()
        };
        assert_eq!(ptr, g1);
        m.verify().unwrap();
    }

    #[test]
    fn write_guard_covers_later_read_guard() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let g1 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            b.store(g1, z);
            let g2 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g2);
            b.ret(Some(x));
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 1);
        assert_eq!(count_guards(&m), (0, 1));
        m.verify().unwrap();
    }

    #[test]
    fn rmw_write_guard_upgrades_the_read_guard() {
        // load p; add; store p — the paper's hottest redundant pattern.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g1);
            let one = b.iconst(Type::I64, 1);
            let x2 = b.binop(tfm_ir::BinOp::Add, x, one);
            let g2 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            b.store(g2, x2);
            b.ret(None);
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 1);
        assert_eq!(out.upgraded, 1);
        // One write guard survives; both the load and the store use it.
        assert_eq!(count_guards(&m), (0, 1));
        m.verify().unwrap();
    }

    #[test]
    fn read_guard_does_not_cover_write_across_blocks() {
        // The store is in a later block: upgrading would dirty-mark paths
        // that never reach the store, so the write guard must survive.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr, Type::I64], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let c = b.param(1);
            let wr = b.create_block();
            let done = b.create_block();
            let g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g1);
            b.cond_br(c, wr, done);
            b.switch_to_block(wr);
            let g2 = b.intrinsic(Intrinsic::GuardWrite, vec![p]);
            let z = b.iconst(Type::I64, 7);
            b.store(g2, z);
            b.br(done);
            b.switch_to_block(done);
            b.ret(None);
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 0);
        assert_eq!(out.upgraded, 0);
        assert_eq!(count_guards(&m), (1, 1));
        m.verify().unwrap();
    }

    #[test]
    fn kill_between_guards_blocks_elimination() {
        let mut m = Module::new("t");
        let helper = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(helper));
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g1);
            let _ = b.call(helper, vec![], Some(Type::I64));
            let g2 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g2);
            b.ret(Some(x));
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 0);
        assert_eq!(count_guards(&m), (2, 0));
    }

    #[test]
    fn chains_fold_to_the_first_guard() {
        // g1; g2; g3 on the same pointer: both duplicates land on g1.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let g1;
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g1);
            let g2 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g2);
            let g3 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g3);
            b.ret(Some(x));
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 2);
        assert_eq!(out.sites.len(), 1);
        assert_eq!(out.sites[0].absorbed, 2);
        assert_eq!(out.sites[0].survivor, g1.index() as u32);
        assert_eq!(count_guards(&m), (1, 0));
        m.verify().unwrap();
    }

    #[test]
    fn merged_covers_are_not_eliminable() {
        // Different guards on the two paths: the join's duplicate guard has
        // no single canonical result to reuse and must survive.
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let c = b.param(1);
            let t = b.create_block();
            let e = b.create_block();
            let j = b.create_block();
            b.cond_br(c, t, e);
            b.switch_to_block(t);
            let g1 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g1);
            b.br(j);
            b.switch_to_block(e);
            let g2 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g2);
            b.br(j);
            b.switch_to_block(j);
            let g3 = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, g3);
            b.ret(Some(x));
        }
        let out = run(&mut m);
        assert_eq!(out.eliminated, 0);
        assert_eq!(count_guards(&m), (3, 0));
    }
}
