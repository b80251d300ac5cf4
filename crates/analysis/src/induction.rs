//! Induction-variable analysis and strided-access detection.
//!
//! NOELLE detects induction variables "as patterns in the dependence graph,
//! rather than building on variable analysis" (§3.4, fn. 6). We implement the
//! same idea directly on SSA def-use patterns: a basic IV is a header phi
//! whose loop-carried input is a constant-step add/sub of the phi itself;
//! strided accesses are loads/stores whose address is a GEP of a
//! loop-invariant base indexed by an IV (possibly through casts or constant
//! offsets).
//!
//! The loop-chunking pass (§3.4) uses these results to decide which accesses
//! can trade per-element fast-path guards for per-object boundary checks,
//! and the prefetch pass uses the stride sign/magnitude to plan sequential
//! prefetching.

use crate::loops::NaturalLoop;
use tfm_ir::{CastOp, Function, InstKind, Value};

/// A basic induction variable: `phi` starts at `init` and advances by the
/// compile-time constant `step` each iteration.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct BasicIv {
    /// The header phi.
    pub phi: Value,
    /// Initial value (from outside the loop).
    pub init: Value,
    /// Constant per-iteration step (may be negative).
    pub step: i64,
}

/// A strided memory access inside a loop.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LoopAccess {
    /// The load or store instruction.
    pub inst: Value,
    /// True for stores.
    pub is_store: bool,
    /// The GEP computing the address.
    pub gep: Value,
    /// Loop-invariant base pointer.
    pub base: Value,
    /// The governing IV.
    pub iv: BasicIv,
    /// Byte distance between consecutive iterations' accesses
    /// (`gep.scale × iv.step`; may be negative).
    pub stride: i64,
    /// Width of the accessed element in bytes.
    pub access_size: u32,
}

impl LoopAccess {
    /// The collection "element size" used by the paper's density model
    /// (`d = o / e`): the absolute stride, i.e. how far apart consecutive
    /// touches land.
    pub fn element_size(&self) -> u64 {
        self.stride.unsigned_abs().max(1)
    }
}

/// Finds the basic induction variables of a loop.
pub fn basic_ivs(f: &Function, lp: &NaturalLoop) -> Vec<BasicIv> {
    let mut out = Vec::new();
    for &v in f.block_insts(lp.header) {
        let InstKind::Phi(incs) = f.kind(v) else {
            continue;
        };
        // Partition incomings into loop-carried and entry edges.
        let mut init = None;
        let mut carried = None;
        let mut ok = true;
        for (pred, val) in incs {
            if lp.contains(*pred) {
                if carried.replace(*val).is_some() {
                    ok = false; // multiple latch edges with different values
                }
            } else if let Some(prev) = init.replace(*val) {
                if prev != *val {
                    ok = false;
                }
            }
        }
        let (Some(init), Some(carried), true) = (init, carried, ok) else {
            continue;
        };
        if let Some(step) = constant_step(f, carried, v) {
            out.push(BasicIv { phi: v, init, step });
        }
    }
    out
}

/// If `next` computes `phi ± constant`, return the signed step.
fn constant_step(f: &Function, next: Value, phi: Value) -> Option<i64> {
    match f.kind(next) {
        InstKind::Binary(op, a, b) => {
            let (ka, kb) = (f.kind(*a), f.kind(*b));
            match op {
                tfm_ir::BinOp::Add => {
                    if *a == phi {
                        const_of(kb)
                    } else if *b == phi {
                        const_of(ka)
                    } else {
                        None
                    }
                }
                tfm_ir::BinOp::Sub if *a == phi => const_of(kb).map(|c| -c),
                _ => None,
            }
        }
        _ => None,
    }
}

fn const_of(k: &InstKind) -> Option<i64> {
    match k {
        InstKind::ConstInt(c) => Some(*c),
        _ => None,
    }
}

/// True if `v` is defined outside the loop (loop-invariant by SSA).
pub fn is_invariant(f: &Function, lp: &NaturalLoop, v: Value) -> bool {
    !lp.contains(f.inst(v).block)
}

/// Resolves an index expression to an IV it is an affine function of:
/// accepts the phi itself, integer casts of it, and `phi + const`.
fn index_iv<'a>(f: &Function, ivs: &'a [BasicIv], mut idx: Value) -> Option<&'a BasicIv> {
    for _ in 0..4 {
        if let Some(iv) = ivs.iter().find(|iv| iv.phi == idx) {
            return Some(iv);
        }
        match f.kind(idx) {
            InstKind::Cast(CastOp::Sext | CastOp::Zext | CastOp::Trunc, inner) => idx = *inner,
            InstKind::Binary(tfm_ir::BinOp::Add | tfm_ir::BinOp::Sub, a, b) => {
                if const_of(f.kind(*b)).is_some() {
                    idx = *a;
                } else if const_of(f.kind(*a)).is_some() {
                    idx = *b;
                } else {
                    return None;
                }
            }
            _ => return None,
        }
    }
    None
}

/// Finds all strided accesses of a loop given its basic IVs.
pub fn strided_accesses(f: &Function, lp: &NaturalLoop, ivs: &[BasicIv]) -> Vec<LoopAccess> {
    let mut out = Vec::new();
    for &b in &lp.blocks {
        for &v in f.block_insts(b) {
            let (ptr, is_store, access_size) = match f.kind(v) {
                InstKind::Load { ptr } => {
                    let sz = f.ty(v).map(|t| t.size()).unwrap_or(8);
                    (*ptr, false, sz)
                }
                InstKind::Store { ptr, val } => {
                    let sz = f.ty(*val).map(|t| t.size()).unwrap_or(8);
                    (*ptr, true, sz)
                }
                _ => continue,
            };
            let InstKind::Gep {
                base,
                index,
                scale,
                disp: _,
            } = f.kind(ptr)
            else {
                continue;
            };
            if !is_invariant(f, lp, *base) {
                continue;
            }
            let Some(iv) = index_iv(f, ivs, *index) else {
                continue;
            };
            out.push(LoopAccess {
                inst: v,
                is_store,
                gep: ptr,
                base: *base,
                iv: *iv,
                stride: (*scale as i64) * iv.step,
                access_size,
            });
        }
    }
    out.sort_by_key(|a| a.inst);
    out
}

/// Static trip-count estimate: available when the governing comparison is
/// `iv < constant` with constant init and step.
pub fn static_trip_count(f: &Function, lp: &NaturalLoop, ivs: &[BasicIv]) -> Option<u64> {
    let term = f.terminator(lp.header)?;
    let InstKind::CondBr { cond, .. } = f.kind(term) else {
        return None;
    };
    let InstKind::Icmp(_, a, b) = f.kind(*cond) else {
        return None;
    };
    let (iv, bound) = if let Some(iv) = ivs.iter().find(|iv| iv.phi == *a) {
        (iv, *b)
    } else if let Some(iv) = ivs.iter().find(|iv| iv.phi == *b) {
        (iv, *a)
    } else {
        return None;
    };
    let init = const_of(f.kind(iv.init))?;
    let bound = const_of(f.kind(bound))?;
    if iv.step > 0 && bound > init {
        Some(((bound - init) as u64).div_ceil(iv.step as u64))
    } else if iv.step < 0 && init > bound {
        Some(((init - bound) as u64).div_ceil(iv.step.unsigned_abs()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::DomTree;
    use crate::loops::LoopForest;
    use tfm_ir::{FunctionBuilder, Module, Signature, Type};

    fn with_loop(
        elems: i64,
        scale: u32,
        build_body: impl FnOnce(&mut FunctionBuilder, Value, Value),
    ) -> (Module, tfm_ir::FuncId) {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, elems);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(arr, i, scale, 0);
                build_body(b, addr, i);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, id)
    }

    fn analyse(m: &Module, id: tfm_ir::FuncId) -> (Vec<BasicIv>, Vec<LoopAccess>, Option<u64>) {
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        assert_eq!(forest.loops.len(), 1);
        let lp = &forest.loops[0];
        let ivs = basic_ivs(f, lp);
        let accesses = strided_accesses(f, lp, &ivs);
        let tc = static_trip_count(f, lp, &ivs);
        (ivs, accesses, tc)
    }

    #[test]
    fn detects_basic_iv_and_trip_count() {
        let (m, id) = with_loop(100, 8, |b, addr, _i| {
            let _ = b.load(Type::I64, addr);
        });
        let (ivs, _, tc) = analyse(&m, id);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].step, 1);
        assert_eq!(tc, Some(100));
    }

    #[test]
    fn detects_strided_load_and_store() {
        let (m, id) = with_loop(64, 4, |b, addr, i| {
            let x = b.load(Type::I32, addr);
            let y = b.binop(tfm_ir::BinOp::Add, x, x);
            let _ = i;
            b.store(addr, y);
        });
        let (_, accesses, _) = analyse(&m, id);
        assert_eq!(accesses.len(), 2);
        let load = accesses.iter().find(|a| !a.is_store).unwrap();
        let store = accesses.iter().find(|a| a.is_store).unwrap();
        assert_eq!(load.stride, 4);
        assert_eq!(load.access_size, 4);
        assert_eq!(load.element_size(), 4);
        assert!(load.stride > 0);
        assert_eq!(store.stride, 4);
    }

    #[test]
    fn sees_through_index_cast() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 10);
            b.counted_loop(zero, n, 1, |b, i| {
                let i32v = b.cast(CastOp::Trunc, i, Type::I32);
                let i64v = b.cast(CastOp::Sext, i32v, Type::I64);
                let addr = b.gep(arr, i64v, 8, 0);
                let _ = b.load(Type::I64, addr);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let (_, accesses, _) = analyse(&m, id);
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].stride, 8);
    }

    #[test]
    fn non_invariant_base_is_skipped() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 10);
            b.counted_loop(zero, n, 1, |b, i| {
                // Base depends on a value loaded in the loop → not invariant.
                let slot = b.gep(arr, i, 8, 0);
                let base = b.load(Type::Ptr, slot);
                let addr = b.gep(base, i, 8, 0);
                let _ = b.load(Type::I64, addr);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let lp = &forest.loops[0];
        let ivs = basic_ivs(f, lp);
        let accesses = strided_accesses(f, lp, &ivs);
        // Only the invariant-base access (`slot` load) qualifies.
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].base, m.function(id).param(0));
    }

    #[test]
    fn negative_step_gives_negative_stride() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let n = b.iconst(Type::I64, 100);
            let zero = b.iconst(Type::I64, 0);
            // for (i = 100; 0 < i; i -= 2)
            let pre = b.current_block();
            let hdr = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            b.br(hdr);
            b.switch_to_block(hdr);
            let i = b.phi(Type::I64, &[(pre, n)]);
            let c = b.icmp(tfm_ir::CmpOp::Slt, zero, i);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let addr = b.gep(arr, i, 8, 0);
            let _ = b.load(Type::I64, addr);
            let two = b.iconst(Type::I64, 2);
            let i2 = b.binop(tfm_ir::BinOp::Sub, i, two);
            b.add_phi_incoming(i, body, i2);
            b.br(hdr);
            b.switch_to_block(exit);
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let lp = &forest.loops[0];
        let ivs = basic_ivs(f, lp);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].step, -2);
        let acc = strided_accesses(f, lp, &ivs);
        assert_eq!(acc[0].stride, -16);
        assert!(acc[0].stride < 0);
        assert_eq!(acc[0].element_size(), 16);
        // `0 < i` form with const bound and init: trip count = 50.
        assert_eq!(static_trip_count(f, lp, &ivs), Some(50));
    }

    #[test]
    fn derived_iv_through_cast_and_constant_offset() {
        // index = sext(trunc(i)) + 5: the cast chain and the constant
        // offset are both peeled, so the access is still IV-strided.
        let (m, id) = {
            let mut m = Module::new("t");
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let arr = b.param(0);
                let zero = b.iconst(Type::I64, 0);
                let n = b.iconst(Type::I64, 12);
                b.counted_loop(zero, n, 1, |b, i| {
                    let t = b.cast(CastOp::Trunc, i, Type::I32);
                    let w = b.cast(CastOp::Sext, t, Type::I64);
                    let five = b.iconst(Type::I64, 5);
                    let j = b.binop(tfm_ir::BinOp::Add, w, five);
                    let addr = b.gep(arr, j, 4, 0);
                    let _ = b.load(Type::I32, addr);
                });
                b.ret(Some(zero));
            }
            m.verify().unwrap();
            (m, id)
        };
        let (ivs, accesses, tc) = analyse(&m, id);
        assert_eq!(ivs.len(), 1);
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].stride, 4);
        assert_eq!(tc, Some(12));
    }

    #[test]
    fn negative_stride_survives_an_index_cast() {
        // Downward loop with a cast on the index: the derived IV is found
        // through the cast and keeps the negative stride.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let n = b.iconst(Type::I64, 64);
            let zero = b.iconst(Type::I64, 0);
            let pre = b.current_block();
            let hdr = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            b.br(hdr);
            b.switch_to_block(hdr);
            let i = b.phi(Type::I64, &[(pre, n)]);
            let c = b.icmp(tfm_ir::CmpOp::Slt, zero, i);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let t = b.cast(CastOp::Trunc, i, Type::I32);
            let w = b.cast(CastOp::Zext, t, Type::I64);
            let addr = b.gep(arr, w, 8, 0);
            let _ = b.load(Type::I64, addr);
            let one = b.iconst(Type::I64, 1);
            let i2 = b.binop(tfm_ir::BinOp::Sub, i, one);
            b.add_phi_incoming(i, body, i2);
            b.br(hdr);
            b.switch_to_block(exit);
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let lp = &forest.loops[0];
        let ivs = basic_ivs(f, lp);
        assert_eq!(ivs.len(), 1);
        assert_eq!(ivs[0].step, -1);
        let acc = strided_accesses(f, lp, &ivs);
        assert_eq!(acc.len(), 1);
        assert_eq!(acc[0].stride, -8);
        assert!(acc[0].stride < 0);
        assert_eq!(static_trip_count(f, lp, &ivs), Some(64));
    }

    #[test]
    fn non_unit_step_access_and_rounded_trip_count() {
        // for (i = 0; i < 10; i += 3): four iterations (ceil), and the
        // access stride multiplies scale by the step.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 10);
            b.counted_loop(zero, n, 3, |b, i| {
                let addr = b.gep(arr, i, 4, 0);
                let _ = b.load(Type::I32, addr);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let (ivs, accesses, tc) = analyse(&m, id);
        assert_eq!(ivs[0].step, 3);
        assert_eq!(accesses.len(), 1);
        assert_eq!(accesses[0].stride, 12);
        assert_eq!(accesses[0].access_size, 4);
        assert_eq!(accesses[0].element_size(), 12);
        assert!(accesses[0].stride > 0);
        assert_eq!(tc, Some(4));
    }

    #[test]
    fn zero_trip_and_wrong_direction_loops_have_no_static_count() {
        // init == bound (never entered) and init > bound with a positive
        // step (never entered) both yield None, not Some(0): the analysis
        // only promises counts >= 1.
        for (init, bound) in [(10i64, 10i64), (20, 10)] {
            let mut m = Module::new("t");
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let arr = b.param(0);
                let i0 = b.iconst(Type::I64, init);
                let n = b.iconst(Type::I64, bound);
                b.counted_loop(i0, n, 1, |b, i| {
                    let addr = b.gep(arr, i, 8, 0);
                    let _ = b.load(Type::I64, addr);
                });
                b.ret(Some(i0));
            }
            m.verify().unwrap();
            let (_, _, tc) = analyse(&m, id);
            assert_eq!(tc, None, "init={init} bound={bound}");
        }
    }

    #[test]
    fn derived_iv_chain_deeper_than_the_cap_is_rejected() {
        // index_iv peels at most 4 wrappers; a 5-deep chain is dropped
        // rather than mis-attributed.
        let (m, id) = {
            let mut m = Module::new("t");
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let arr = b.param(0);
                let zero = b.iconst(Type::I64, 0);
                let n = b.iconst(Type::I64, 8);
                b.counted_loop(zero, n, 1, |b, i| {
                    let one = b.iconst(Type::I64, 1);
                    let mut j = i;
                    for _ in 0..5 {
                        j = b.binop(tfm_ir::BinOp::Add, j, one);
                    }
                    let addr = b.gep(arr, j, 8, 0);
                    let _ = b.load(Type::I64, addr);
                });
                b.ret(Some(zero));
            }
            m.verify().unwrap();
            (m, id)
        };
        let (_, accesses, _) = analyse(&m, id);
        assert!(accesses.is_empty(), "5-deep chain must not be claimed");
    }
}
