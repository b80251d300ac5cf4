//! Seeded synthetic modules for the compile corpus.
//!
//! The thirteen suite modules total under a thousand instructions, too few
//! to expose a pass that is super-linear in module size. `synth_module`
//! grows the input along the two axes the analyses iterate over: functions
//! in a call chain (call graph, SCC summaries) and loops per function
//! (loop forest, induction, guard dataflow).

use tfm_ir::{BinOp, FuncId, FunctionBuilder, Module, Signature, Type, Value};
use tfm_workloads::{ArgSpec, InputData, SplitMix64, WorkloadSpec};

/// Words in the synthetic program's one heap array.
const WORDS: usize = 512;
/// Loops run to `WORDS - SLACK`, so `a[i + d]` with `d < SLACK` is in range.
const SLACK: i64 = 8;

/// Emits one loop over `a[0 .. lim)` that folds into the stack slot `acc`,
/// writes the heap, or both. `kind` picks the shape; the seed picks
/// displacements, constants, strides and the folding operator. Shapes rotate
/// instead of being drawn, so that two seeds give the compiler the same
/// amount of work and compile time compares across seeds.
fn emit_loop(
    b: &mut FunctionBuilder<'_>,
    rng: &mut SplitMix64,
    kind: usize,
    a: Value,
    lim: Value,
    acc: Value,
) {
    let zero = b.iconst(Type::I64, 0);
    let d = rng.next_below(SLACK as u64) as i64 * 8;
    let fold = [BinOp::Add, BinOp::Xor, BinOp::Sub][rng.next_below(3) as usize];
    match kind % 5 {
        // Reduction over a displaced read.
        0 => {
            b.counted_loop(zero, lim, 1, |b, i| {
                let p = b.gep(a, i, 8, d);
                let x = b.load(Type::I64, p);
                let s = b.load(Type::I64, acc);
                let s2 = b.binop(fold, s, x);
                b.store(acc, s2);
            });
        }
        // Read-modify-write of one heap word per iteration.
        1 => {
            let c = b.iconst(Type::I64, rng.next_range(1, 1 << 16));
            b.counted_loop(zero, lim, 1, |b, i| {
                let p = b.gep(a, i, 8, 0);
                let x = b.load(Type::I64, p);
                let x2 = b.binop(BinOp::Add, x, c);
                b.store(p, x2);
            });
        }
        // Read one word, write another: a write beside a read.
        2 => {
            b.counted_loop(zero, lim, 1, |b, i| {
                let src = b.gep(a, i, 8, d);
                let x = b.load(Type::I64, src);
                let y = b.binop(BinOp::Xor, x, i);
                let dst = b.gep(a, i, 8, 0);
                b.store(dst, y);
            });
        }
        // Strided reduction: fewer elements per object.
        3 => {
            let step = [2, 4, 16][rng.next_below(3) as usize];
            b.counted_loop(zero, lim, step, |b, i| {
                let p = b.gep(a, i, 8, 0);
                let x = b.load(Type::I64, p);
                let s = b.load(Type::I64, acc);
                let s2 = b.binop(fold, s, x);
                b.store(acc, s2);
            });
        }
        // A short outer loop around an inner reduction.
        _ => {
            let outer = b.iconst(Type::I64, 3);
            b.counted_loop(zero, outer, 1, |b, r| {
                let z = b.iconst(Type::I64, 0);
                b.counted_loop(z, lim, 1, |b, i| {
                    let p = b.gep(a, i, 8, d);
                    let x = b.load(Type::I64, p);
                    let y = b.binop(BinOp::Add, x, r);
                    let s = b.load(Type::I64, acc);
                    let s2 = b.binop(fold, s, y);
                    b.store(acc, s2);
                });
            });
        }
    }
}

/// A module of `funcs` functions `f0 .. main`, each calling the previous one
/// and then running `loops` loops over the heap array it was passed.
/// All arithmetic wraps, so the program returns the same value on every
/// memory system; `expected` is left to the caller to establish on
/// `LocalMem`.
pub fn synth_module(seed: u64, funcs: usize, loops: usize) -> WorkloadSpec {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut m = Module::new(format!("synth-{funcs}x{loops}"));
    let sig = || Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64));
    let mut callee: Option<FuncId> = None;
    for k in 0..funcs {
        let name = if k + 1 == funcs {
            "main".to_string()
        } else {
            format!("f{k}")
        };
        let id = m.declare_function(name, sig());
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let (a, n) = (b.param(0), b.param(1));
        let slack = b.iconst(Type::I64, SLACK);
        let lim = b.binop(BinOp::Sub, n, slack);
        let acc = b.alloca(8, 8);
        let init = b.iconst(Type::I64, rng.next_range(0, 1 << 20));
        b.store(acc, init);
        for l in 0..loops {
            // The call sits between loops, so custody has to survive it (or
            // be re-established) on both sides.
            if let (Some(f), true) = (callee, l == loops / 2) {
                let r = b.call(f, vec![a, n], Some(Type::I64));
                let s = b.load(Type::I64, acc);
                let s2 = b.binop(BinOp::Add, s, r);
                b.store(acc, s2);
            }
            emit_loop(&mut b, &mut rng, k + l, a, lim, acc);
        }
        let out = b.load(Type::I64, acc);
        b.ret(Some(out));
        callee = Some(id);
    }
    m.verify().expect("synthetic module is well-formed");

    let words = (0..WORDS).map(|_| rng.next_u64() >> 16).collect();
    WorkloadSpec {
        name: m.name.clone(),
        module: m,
        inputs: vec![InputData::U64(words)],
        args: vec![ArgSpec::Input(0), ArgSpec::Const(WORDS as i64)],
        expected: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_workloads::{execute, RunConfig};

    #[test]
    fn synthetic_modules_compile_clean_and_agree_across_systems() {
        for (seed, funcs, loops) in [(1, 1, 1), (42, 3, 5), (7, 6, 14), (99, 12, 24)] {
            let spec = synth_module(seed, funcs, loops);
            // `compile` runs tfm-lint and panics on any finding.
            let local = execute(&spec, &RunConfig::local()).result.ret;
            let far = execute(&spec, &RunConfig::trackfm(0.25).with_object_size(64));
            assert_eq!(local, far.result.ret, "{}", spec.name);
            assert!(far.result.stats.total_guards() + far.result.stats.boundary_checks > 0);
            let again = synth_module(seed, funcs, loops);
            assert_eq!(spec.module, again.module, "same seed, same module");
        }
    }

    #[test]
    fn sizes_span_the_ladder() {
        let small = synth_module(1, 2, 3).module.total_live_insts();
        let large = synth_module(1, 12, 24).module.total_live_insts();
        assert!((100..400).contains(&small), "{small}");
        assert!((3_000..8_000).contains(&large), "{large}");
    }
}
