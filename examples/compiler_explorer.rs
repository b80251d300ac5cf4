//! Compiler explorer: print the IR of a small program before and after each
//! stage of the TrackFM pipeline, showing exactly what the compiler injects
//! (runtime init hook, guards, chunk streams, libc rewrites), plus the
//! interprocedural view — call graph, per-function custody summaries, and
//! per-site elided guard attribution.
//!
//! ```sh
//! cargo run --release --example compiler_explorer
//! ```

use trackfm_suite::analysis::callgraph::CallGraph;
use trackfm_suite::analysis::guard_check::GuardKind;
use trackfm_suite::analysis::summaries::ModuleSummaries;
use trackfm_suite::compiler::{ChunkingMode, CompilerOptions, TrackFmCompiler};
use trackfm_suite::ir::{BinOp, FunctionBuilder, Intrinsic, Module, Signature, Type};

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
/// and a loop-invariant total slot — the program shape the interprocedural
/// custody analysis was built for.
fn serving_program() -> Module {
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
    }
    m.verify().unwrap();
    m
}

/// Prints the call graph (with SCC condensation) and the per-function
/// custody summary table the interprocedural consumers read.
fn print_interproc_tables(m: &Module) {
    let cg = CallGraph::compute(m);
    println!("call graph (bottom-up SCC order):");
    for scc in cg.sccs_bottom_up() {
        for &fid in scc {
            let f = m.function(fid);
            let callees: Vec<&str> = cg
                .callees(fid)
                .iter()
                .map(|&c| m.function(c).name.as_str())
                .collect();
            println!(
                "  scc{} {:<10} -> [{}]{}",
                cg.scc_id(fid),
                f.name,
                callees.join(", "),
                if cg.is_recursive(fid) {
                    "  (recursive)"
                } else {
                    ""
                }
            );
        }
    }

    let sums = ModuleSummaries::compute(m, &["main"]);
    // Custody is printed as its guard kind, `-` for none.
    let custody = |c: &Option<GuardKind>| c.map_or("-".to_string(), |k| format!("{k:?}"));
    println!("\nfunction summaries:");
    println!(
        "  {:<10} {:>6} {:<24} {:<16} {:<10} ret custody",
        "function", "kills", "params", "param custody", "ret"
    );
    for (fid, f) in m.functions() {
        let s = sums.summary(fid);
        let params: Vec<String> = s.param_class.iter().map(|c| format!("{c:?}")).collect();
        let param_custody: Vec<String> = s.param_custody.iter().map(custody).collect();
        println!(
            "  {:<10} {:>6} {:<24} {:<16} {:<10} {}",
            f.name,
            s.kills_custody,
            params.join(","),
            param_custody.join(","),
            format!("{:?}", s.ret_class),
            custody(&s.ret_custody),
        );
    }
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
    // The interprocedural view: a multi-function serving loop.
    // ------------------------------------------------------------------
    let serving = serving_program();
    println!("\n================ INTERPROCEDURAL PROGRAM ================");
    print!("{serving}");
    println!();
    print_interproc_tables(&serving);

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

    println!("\nInterprocedural things to look for:");
    println!("  * `classify` is custody-transparent (kills=false): guards stay live");
    println!("    across the call, so the total-slot read/write pair folds into one");
    println!("    write guard, and so does the bucket counter's RMW;");
    println!("  * every guard stays beside the accesses it covers: the total-slot");
    println!("    guard runs once per iteration even though its pointer is");
    println!("    loop-invariant, and the post-loop total load takes its own guard,");
    println!("    because the evacuator may move the object in between.");
}
