//! A positional instruction builder, in the style of LLVM's `IRBuilder`.

use crate::entities::{Block, FuncId, GlobalId, Value};
use crate::function::{Function, InstData};
use crate::inst::{BinOp, CastOp, CmpOp, FCmpOp, InstKind, Intrinsic};
use crate::types::Type;

/// Builds instructions at the end of a current block.
///
/// The builder borrows the function mutably; create blocks up front (or as
/// you go), then `switch_to_block` and append. Phi nodes for loop-carried
/// values are created with their forward edges and completed later with
/// [`FunctionBuilder::add_phi_incoming`].
///
/// See the crate-level docs for a complete loop-building example.
pub struct FunctionBuilder<'f> {
    func: &'f mut Function,
    current: Block,
}

impl<'f> FunctionBuilder<'f> {
    /// Starts building in the function's entry block.
    pub fn new(func: &'f mut Function) -> Self {
        let current = func.entry_block();
        FunctionBuilder { func, current }
    }

    /// The function being built.
    pub fn func(&self) -> &Function {
        self.func
    }

    /// The entry block.
    pub fn entry_block(&self) -> Block {
        self.func.entry_block()
    }

    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> Block {
        self.current
    }

    /// The `n`-th function parameter.
    pub fn param(&self, n: usize) -> Value {
        self.func.param(n)
    }

    /// Creates a new empty block (does not switch to it).
    pub fn create_block(&mut self) -> Block {
        self.func.create_block()
    }

    /// Makes `b` the insertion block.
    pub fn switch_to_block(&mut self, b: Block) {
        self.current = b;
    }

    fn emit(&mut self, kind: InstKind, ty: Option<Type>) -> Value {
        let block = self.current;
        self.func.push_inst(block, InstData { kind, ty, block })
    }

    /// Emits an integer constant of type `ty`.
    pub fn iconst(&mut self, ty: Type, v: i64) -> Value {
        debug_assert!(ty.is_int() || ty.is_ptr());
        self.emit(InstKind::ConstInt(v), Some(ty))
    }

    /// Emits an `f64` constant.
    pub fn fconst(&mut self, v: f64) -> Value {
        self.emit(InstKind::ConstFloat(v), Some(Type::F64))
    }

    /// Emits a binary operation; the result type is the type of `a`.
    pub fn binop(&mut self, op: BinOp, a: Value, b: Value) -> Value {
        let ty = self.func.ty(a);
        self.emit(InstKind::Binary(op, a, b), ty)
    }

    /// Emits an integer comparison (result: i64 0/1).
    pub fn icmp(&mut self, op: CmpOp, a: Value, b: Value) -> Value {
        self.emit(InstKind::Icmp(op, a, b), Some(Type::I64))
    }

    /// Emits a float comparison (result: i64 0/1).
    pub fn fcmp(&mut self, op: FCmpOp, a: Value, b: Value) -> Value {
        self.emit(InstKind::Fcmp(op, a, b), Some(Type::I64))
    }

    /// Emits a cast to `ty`.
    pub fn cast(&mut self, op: CastOp, v: Value, ty: Type) -> Value {
        self.emit(InstKind::Cast(op, v), Some(ty))
    }

    /// Emits a stack slot of `size` bytes aligned to `align`.
    pub fn alloca(&mut self, size: u32, align: u32) -> Value {
        self.emit(InstKind::Alloca { size, align }, Some(Type::Ptr))
    }

    /// Emits a typed load.
    pub fn load(&mut self, ty: Type, ptr: Value) -> Value {
        self.emit(InstKind::Load { ptr }, Some(ty))
    }

    /// Emits a typed store.
    pub fn store(&mut self, ptr: Value, val: Value) {
        self.emit(InstKind::Store { ptr, val }, None);
    }

    /// Emits `base + index * scale + disp`.
    pub fn gep(&mut self, base: Value, index: Value, scale: u32, disp: i64) -> Value {
        self.emit(
            InstKind::Gep {
                base,
                index,
                scale,
                disp,
            },
            Some(Type::Ptr),
        )
    }

    /// Emits a direct call. `ret` must match the callee's signature (checked
    /// by the verifier).
    pub fn call(&mut self, func: FuncId, args: Vec<Value>, ret: Option<Type>) -> Value {
        self.emit(InstKind::Call { func, args }, ret)
    }

    /// Emits an intrinsic call; the result type comes from the intrinsic's
    /// signature.
    pub fn intrinsic(&mut self, intr: Intrinsic, args: Vec<Value>) -> Value {
        let (_, ret) = intr.signature();
        self.emit(InstKind::IntrinsicCall { intr, args }, ret)
    }

    /// Emits the address of a global.
    pub fn global_addr(&mut self, g: GlobalId) -> Value {
        self.emit(InstKind::GlobalAddr(g), Some(Type::Ptr))
    }

    /// Emits a phi with initial incoming edges; complete loop-carried edges
    /// later with [`FunctionBuilder::add_phi_incoming`].
    pub fn phi(&mut self, ty: Type, incomings: &[(Block, Value)]) -> Value {
        self.emit(InstKind::Phi(incomings.to_vec()), Some(ty))
    }

    /// Adds an incoming edge to a previously created phi.
    pub fn add_phi_incoming(&mut self, phi: Value, pred: Block, val: Value) {
        self.func.add_phi_incoming(phi, pred, val);
    }

    /// Emits a select.
    pub fn select(&mut self, cond: Value, tval: Value, fval: Value) -> Value {
        let ty = self.func.ty(tval);
        self.emit(InstKind::Select { cond, tval, fval }, ty)
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: Block) {
        self.emit(InstKind::Br(target), None);
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: Block, else_bb: Block) {
        self.emit(
            InstKind::CondBr {
                cond,
                then_bb,
                else_bb,
            },
            None,
        );
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, v: Option<Value>) {
        self.emit(InstKind::Ret(v), None);
    }

    /// Terminates the current block as unreachable.
    pub fn unreachable(&mut self) {
        self.emit(InstKind::Unreachable, None);
    }

    // ---- convenience helpers used heavily by the workload builders ----

    /// `malloc(size_const)` with `size` emitted as a fresh i64 constant.
    pub fn malloc_const(&mut self, size: i64) -> Value {
        let s = self.iconst(Type::I64, size);
        self.intrinsic(Intrinsic::Malloc, vec![s])
    }

    /// Emits a canonical counted loop skeleton and calls `body` to populate
    /// the loop body.
    ///
    /// The loop runs `i` from `start` (an existing value) while `i < bound`,
    /// stepping by `step`. `body(builder, i)` is invoked with the insertion
    /// point inside the body block; it must NOT terminate the block. Returns
    /// the exit block (left as the current block). This is
    /// [`FunctionBuilder::counted_loop_carried`] with no carried values.
    pub fn counted_loop(
        &mut self,
        start: Value,
        bound: Value,
        step: i64,
        body: impl FnOnce(&mut Self, Value),
    ) -> Block {
        self.counted_loop_carried(start, bound, step, [], |b, i, []| {
            body(b, i);
            []
        });
        self.current_block()
    }

    /// [`FunctionBuilder::counted_loop`] with `N` loop-carried values.
    ///
    /// Each `(type, init)` in `carried` becomes a header phi, after the
    /// induction variable's, entered with `init`. `body(builder, i, phis)`
    /// returns the values the phis take on the next iteration, fed from
    /// whichever block is current when it returns. Returns the phis, which
    /// hold the exit values in the exit block (left as the current block).
    pub fn counted_loop_carried<const N: usize>(
        &mut self,
        start: Value,
        bound: Value,
        step: i64,
        carried: [(Type, Value); N],
        body: impl FnOnce(&mut Self, Value, [Value; N]) -> [Value; N],
    ) -> [Value; N] {
        let pre = self.current_block();
        let header = self.create_block();
        let body_bb = self.create_block();
        let exit = self.create_block();
        self.br(header);

        self.switch_to_block(header);
        let i = self.phi(Type::I64, &[(pre, start)]);
        let phis = carried.map(|(ty, init)| self.phi(ty, &[(pre, init)]));
        let cont = self.icmp(CmpOp::Slt, i, bound);
        self.cond_br(cont, body_bb, exit);

        self.switch_to_block(body_bb);
        let next = body(self, i, phis);
        let latch = self.current_block();
        let stepc = self.iconst(Type::I64, step);
        let inext = self.binop(BinOp::Add, i, stepc);
        self.add_phi_incoming(i, latch, inext);
        for (phi, v) in phis.into_iter().zip(next) {
            self.add_phi_incoming(phi, latch, v);
        }
        self.br(header);

        self.switch_to_block(exit);
        phis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Signature;
    use crate::module::Module;

    #[test]
    fn builds_straightline_code() {
        let mut m = Module::new("t");
        let f = m.declare_function(
            "add3",
            Signature::new(vec![Type::I64, Type::I64, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let s1 = b.binop(BinOp::Add, b.param(0), b.param(1));
            let s2 = b.binop(BinOp::Add, s1, b.param(2));
            b.ret(Some(s2));
        }
        m.verify().unwrap();
    }

    #[test]
    fn counted_loop_helper_is_well_formed() {
        let mut m = Module::new("t");
        let f = m.declare_function("count", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |_b, _i| {});
            b.ret(Some(zero));
        }
        m.verify().unwrap();
    }

    #[test]
    fn carried_phis_follow_the_iv_and_are_fed_from_the_latch() {
        let mut m = Module::new("t");
        let f = m.declare_function("carry", Signature::new(vec![Type::I64], Some(Type::I64)));
        let (mut body_bb, mut latch, mut inside) = (None, None, None);
        let exit_vals = {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let f0 = b.fconst(0.0);
            let carried = [(Type::I64, zero), (Type::F64, f0)];
            let [count, total] = b.counted_loop_carried(zero, n, 1, carried, |b, i, phis| {
                body_bb = Some(b.current_block());
                // A nested loop moves the insertion point to its exit block,
                // which becomes this loop's latch.
                b.counted_loop(zero, i, 1, |_, _| {});
                latch = Some(b.current_block());
                inside = Some((i, phis));
                let one = b.iconst(Type::I64, 1);
                let fi = b.cast(CastOp::SiToFp, i, Type::F64);
                [
                    b.binop(BinOp::Add, phis[0], one),
                    b.binop(BinOp::Fadd, phis[1], fi),
                ]
            });
            let bits = b.cast(CastOp::Bitcast, total, Type::I64);
            let r = b.binop(BinOp::Add, count, bits);
            b.ret(Some(r));
            [count, total]
        };
        m.verify().unwrap();

        let func = m.function(f);
        let (iv, phis) = inside.unwrap();
        let latch = latch.unwrap();
        assert_ne!(latch, body_bb.unwrap());
        assert_eq!(exit_vals, phis, "the exit values are the header phis");
        let header = func.inst(iv).block;
        assert_eq!(func.block_insts(header)[..3], [iv, phis[0], phis[1]]);
        assert_eq!(func.ty(phis[0]), Some(Type::I64));
        assert_eq!(func.ty(phis[1]), Some(Type::F64));
        for phi in [iv, phis[0], phis[1]] {
            let InstKind::Phi(incomings) = func.kind(phi) else {
                panic!("{phi:?} is not a phi");
            };
            assert_eq!(incomings.len(), 2);
            assert_eq!(incomings[1].0, latch, "{phi:?} is fed from the latch");
        }
    }

    #[test]
    fn intrinsic_ret_type_from_signature() {
        let mut m = Module::new("t");
        let f = m.declare_function("a", Signature::new(vec![], Some(Type::Ptr)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let p = b.malloc_const(128);
            assert_eq!(b.func().ty(p), Some(Type::Ptr));
            b.ret(Some(p));
        }
        m.verify().unwrap();
    }

    #[test]
    fn select_and_casts_typecheck() {
        let mut m = Module::new("t");
        let f = m.declare_function("s", Signature::new(vec![Type::I64], Some(Type::F64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(f));
            let x = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let c = b.icmp(CmpOp::Sgt, x, zero);
            let fx = b.cast(CastOp::SiToFp, x, Type::F64);
            let f0 = b.fconst(0.0);
            let sel = b.select(c, fx, f0);
            b.ret(Some(sel));
        }
        m.verify().unwrap();
    }
}
