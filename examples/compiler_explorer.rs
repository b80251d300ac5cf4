//! Compiler explorer: print the IR of a small program before and after each
//! stage of the TrackFM pipeline, showing exactly what the compiler injects
//! (runtime init hook, guards, chunk streams, libc rewrites), then a loop
//! with a call in it: which guards elision folds, and the guard pair the
//! call keeps apart.
//!
//! ```sh
//! cargo run --release --example compiler_explorer
//! ```

use trackfm_suite::compiler::{ChunkingMode, CompilerOptions, TrackFmCompiler};
use trackfm_suite::ir::{
    BinOp, FunctionBuilder, InstKind, Intrinsic, Module, Signature, Type, Value,
};

fn listing1_program() -> Module {
    // The paper's Listing 1, as unmodified IR: allocate an array, sum it,
    // free it.
    let mut m = Module::new("listing1");
    let f = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let n = 1000i64;
        let arr = b.malloc_const(n * 8);
        let zero = b.iconst(Type::I64, 0);
        let bound = b.iconst(Type::I64, n);
        let pre = b.current_block();
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.br(header);
        b.switch_to_block(header);
        let i = b.phi(Type::I64, &[(pre, zero)]);
        let sum = b.phi(Type::I64, &[(pre, zero)]);
        let c = b.icmp(trackfm_suite::ir::CmpOp::Slt, i, bound);
        b.cond_br(c, body, exit);
        b.switch_to_block(body);
        let addr = b.gep(arr, i, 8, 0);
        let x = b.load(Type::I64, addr);
        let sum2 = b.binop(BinOp::Add, sum, x);
        let one = b.iconst(Type::I64, 1);
        let i2 = b.binop(BinOp::Add, i, one);
        b.add_phi_incoming(i, body, i2);
        b.add_phi_incoming(sum, body, sum2);
        b.br(header);
        b.switch_to_block(exit);
        b.intrinsic(Intrinsic::Free, vec![arr]);
        b.ret(Some(sum));
    }
    m.verify().unwrap();
    m
}

/// A multi-function serving loop: a pure classifier helper, a bucket RMW,
/// and a loop-invariant total slot. Returns the module and the total slot's
/// pointer.
fn serving_program() -> (Module, Value) {
    let mut m = Module::new("serving");
    let classify = m.declare_function("classify", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(classify));
        let op = b.param(0);
        let mask = b.iconst(Type::I64, 15);
        let k = b.binop(BinOp::And, op, mask);
        b.ret(Some(k));
    }
    let f = m.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::Ptr, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(f));
        let ops = b.param(0);
        let counts = b.param(1);
        let totals = b.param(2);
        let zero = b.iconst(Type::I64, 0);
        let one = b.iconst(Type::I64, 1);
        let n = b.iconst(Type::I64, 64);
        let slot = b.iconst(Type::I64, 3);
        let total_slot = b.gep(totals, slot, 8, 0);
        b.counted_loop(zero, n, 1, |b, i| {
            let oaddr = b.gep(ops, i, 8, 0);
            let op = b.load(Type::I64, oaddr);
            let t = b.load(Type::I64, total_slot);
            let k = b.call(classify, vec![op], Some(Type::I64));
            let caddr = b.gep(counts, k, 8, 0);
            let c = b.load(Type::I64, caddr);
            let c2 = b.binop(BinOp::Add, c, op);
            b.store(caddr, c2);
            let t2 = b.binop(BinOp::Add, t, one);
            b.store(total_slot, t2);
        });
        let total = b.load(Type::I64, total_slot);
        b.ret(Some(total));
        m.verify().unwrap();
        (m, total_slot)
    }
}

/// The guards in `main` whose pointer operand is `ptr`, in program order.
fn guards_on(m: &Module, ptr: Value) -> Vec<Intrinsic> {
    let (_, f) = m.functions().find(|(_, f)| f.name == "main").unwrap();
    f.blocks()
        .flat_map(|b| f.block_insts(b).iter().copied())
        .filter_map(|v| match f.kind(v) {
            InstKind::IntrinsicCall { intr, args } if args.first() == Some(&ptr) => Some(*intr),
            _ => None,
        })
        .filter(|i| matches!(i, Intrinsic::GuardRead | Intrinsic::GuardWrite))
        .collect()
}

fn main() {
    let original = listing1_program();
    println!("================ UNMODIFIED PROGRAM ================");
    print!("{original}");

    // Naive transformation: guards on every heap access (no chunking).
    let mut naive = original.clone();
    let compiler = TrackFmCompiler::new(CompilerOptions {
        chunking: ChunkingMode::Off,
        ..Default::default()
    });
    let rep = compiler.compile(&mut naive, None);
    println!("\n================ NAIVE TRANSFORM (guards only) ================");
    println!(
        "; {} read guards, {} write guards, code x{:.2}",
        rep.read_guards,
        rep.write_guards,
        rep.code_size_ratio()
    );
    print!("{naive}");

    // Full pipeline: loop chunking replaces the per-element guard.
    let mut full = original.clone();
    let rep = TrackFmCompiler::default().compile(&mut full, None);
    println!("\n================ FULL PIPELINE (chunking + guards) ================");
    println!(
        "; {} chunk streams over {} accesses, {} loops chunked, {} plain guards, code x{:.2}",
        rep.chunking.streams,
        rep.chunking.chunked_accesses,
        rep.chunking.chunked_loops,
        rep.total_guards(),
        rep.code_size_ratio()
    );
    print!("{full}");

    println!("\nThings to look for:");
    println!("  * `tfm.runtime.init()` at the top of main (runtime initialization pass);");
    println!("  * `malloc`/`free` rewritten to `tfm.alloc`/`tfm.free` (libc transform);");
    println!("  * the naive version wraps the loop load in `tfm.guard.read`;");
    println!("  * the full pipeline hoists a `tfm.chunk.begin` into the preheader,");
    println!("    replaces the guard with `tfm.chunk.deref` (3-cycle boundary check),");
    println!("    and drops `tfm.chunk.end` on the loop exit edge — Fig. 5 of the paper.");

    // ------------------------------------------------------------------
    // A loop with a call in it: the serving loop.
    // ------------------------------------------------------------------
    let (serving, total_slot) = serving_program();
    println!("\n================ A LOOP WITH A CALL ================");
    print!("{serving}");

    let mut compiled = serving.clone();
    let rep = TrackFmCompiler::new(CompilerOptions {
        chunking: ChunkingMode::Off,
        ..Default::default()
    })
    .compile(&mut compiled, None);
    println!("\n================ AFTER GUARDS + ELISION ================");
    println!(
        "; {} guards inserted, {} elided",
        rep.total_guards(),
        rep.elision.eliminated,
    );
    print!("{compiled}");

    println!("\nper-site attribution:");
    for s in &rep.elision.sites {
        println!(
            "  f{}:v{}  absorbed {} duplicate guard(s) by elision",
            s.func, s.survivor, s.absorbed
        );
    }
    // ------------------------------------------------------------------
    // The execution engine's view: the compiled module flattened into
    // dense register bytecode (what `Machine::run` dispatches).
    // ------------------------------------------------------------------
    let prog = trackfm_suite::sim::bytecode::lower_module(&compiled);
    println!("\n================ REGISTER BYTECODE ================");
    println!("; the lowered form the bytecode engine executes: virtual");
    println!("; registers, fall-through blocks, fused superinstructions");
    println!("; (gep+load, gep+store, icmp+br) and 64-bit ALU opcodes.");
    print!(
        "{}",
        prog.disasm(&|site| {
            rep.guard_sites
                .iter()
                .find(|s| s.func == site.func() && s.value == site.value())
                .map(|s| s.label.clone())
        })
    );

    // The compiler summarises no callee, so the `classify` call between the
    // total slot's load and store keeps their guards apart.
    let total_guards = guards_on(&compiled, total_slot);
    println!("\ntotal-slot guards in main: {total_guards:?}");
    assert_eq!(
        total_guards,
        [
            Intrinsic::GuardRead,
            Intrinsic::GuardWrite,
            Intrinsic::GuardRead
        ],
        "the classify call keeps the total slot's guard pair"
    );

    println!("\nThings to look for in the serving loop:");
    println!("  * every call kills custody, even one to a pure helper: the total-slot");
    println!("    read guard before `classify` and the write guard after it both stay;");
    println!("  * the bucket counter's read and write sit on the same side of the call,");
    println!("    so elision folds them into one write guard;");
    println!("  * every guard stays beside the accesses it covers: the post-loop total");
    println!("    load takes its own guard, because the evacuator may move the object");
    println!("    in between.");
}
