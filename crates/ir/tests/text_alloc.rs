//! Host work of the IR text layer, counted deterministically: a counting
//! global allocator tallies the allocations `parse_module` and the printer
//! make on a fixed, builder-made module. Both must allocate per function,
//! block, phi and call, never per operand, so widening every loop body
//! leaves the count where it was.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tfm_ir::{parse_module, BinOp, FunctionBuilder, Module, Signature, Type};

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: forwards every call to `System` unchanged; the counter is a
// const-initialised thread-local, so counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Fresh allocations `f` makes on this thread (growing a buffer is a
/// `realloc` and does not count).
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `helper(x) = x + 1` and a `main` with two loops whose bodies each chain
/// `width` loads and adds and call `helper`.
fn module(width: usize) -> Module {
    let mut m = Module::new("alloc");
    let helper = m.declare_function("helper", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(helper));
        let one = b.iconst(Type::I64, 1);
        let x = b.param(0);
        let y = b.binop(BinOp::Add, x, one);
        b.ret(Some(y));
    }
    let sig = Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64));
    let main = m.declare_function("main", sig);
    {
        let mut b = FunctionBuilder::new(m.function_mut(main));
        let (p, n) = (b.param(0), b.param(1));
        let zero = b.iconst(Type::I64, 0);
        let slot = b.alloca(8, 8);
        b.store(slot, zero);
        for _ in 0..2 {
            b.counted_loop(zero, n, 1, |b, i| {
                let mut acc = b.load(Type::I64, slot);
                for k in 0..width {
                    let addr = b.gep(p, i, 8, 8 * k as i64);
                    let x = b.load(Type::I64, addr);
                    acc = b.binop(BinOp::Add, acc, x);
                }
                let c = b.call(helper, vec![acc], Some(Type::I64));
                b.store(slot, c);
            });
        }
        let out = b.load(Type::I64, slot);
        b.ret(Some(out));
    }
    m.verify().unwrap();
    m
}

#[test]
fn parse_and_print_allocate_per_block_phi_and_call_not_per_operand() {
    let mut counts = Vec::new();
    for width in [1, 8, 64] {
        let m = module(width);
        let (text, print) = allocs(|| m.to_string());
        let (parsed, parse) = allocs(|| parse_module(&text).unwrap());
        assert_eq!(parsed.to_string(), text, "width {width}: not a fixpoint");
        let (funcs, mut blocks, mut phis, mut calls) = (parsed.num_functions(), 0, 0, 0);
        for (_, f) in parsed.functions() {
            blocks += f.num_blocks();
            for v in f.live_insts() {
                match f.kind(v) {
                    tfm_ir::InstKind::Phi(_) => phis += 1,
                    tfm_ir::InstKind::Call { .. } => calls += 1,
                    _ => {}
                }
            }
        }
        let bound = 2 * (funcs + blocks + phis + calls) + 8;
        eprintln!("width {width}: print {print} parse {parse} allocations (bound {bound})");
        assert!(
            print + parse <= bound,
            "width {width}: {print} + {parse} > {bound}"
        );
        counts.push((print, parse));
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations grow with operand count: {counts:?}"
    );
}
