//! Randomized compiler-correctness properties.
//!
//! A generator builds arbitrary (but well-formed) programs — straight-line
//! integer arithmetic, a diamond branch, loads/stores through a scratch
//! buffer — then checks, for every generated program:
//!
//! * the verifier accepts it;
//! * `print → parse → print` is a fixpoint and preserves behaviour;
//! * the O1 pipeline (fold/CSE/RLE/LICM/simplify-cfg/DCE) preserves
//!   behaviour;
//! * the full TrackFM transformation preserves behaviour under far memory.

pub mod common;

use common::{run_far, Far, FarRun};
use trackfm_suite::compiler::{CostModel, TrackFmCompiler};
use trackfm_suite::ir::{
    parse_module, BinOp, CmpOp, FunctionBuilder, Module, Signature, Type, Value,
};
use trackfm_suite::sim::{LocalMem, Machine};
use trackfm_suite::workloads::SplitMix64;

/// One generated operation.
#[derive(Clone, Debug)]
enum Op {
    Bin(u8, u8, u8),
    Cmp(u8, u8, u8),
    StoreLoad(u8, u8), // store value, heap slot index
    StackSlot(u8, u8), // store value, stack slot index (mem2reg fodder)
}

fn random_op(rng: &mut SplitMix64) -> Op {
    let b8 = |rng: &mut SplitMix64| rng.next_u64() as u8;
    match rng.next_below(4) {
        0 => Op::Bin(b8(rng), b8(rng), b8(rng)),
        1 => Op::Cmp(b8(rng), b8(rng), b8(rng)),
        2 => Op::StoreLoad(b8(rng), b8(rng)),
        _ => Op::StackSlot(b8(rng), b8(rng)),
    }
}

const BINOPS: [BinOp; 9] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Lshr,
    BinOp::Ashr,
];
const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Slt,
    CmpOp::Sle,
    CmpOp::Ugt,
    CmpOp::Uge,
];

/// Emits one base op over the values so far. `StackSlot` goes through
/// `stack` when given, else through `scratch` like `StoreLoad`.
fn emit(
    b: &mut FunctionBuilder,
    op: &Op,
    vals: &[Value],
    scratch: Value,
    stack: Option<&[Value]>,
) -> Value {
    let pick = |n: u8| vals[n as usize % vals.len()];
    match (op, stack) {
        (Op::Bin(o, x, y), _) => b.binop(BINOPS[*o as usize % BINOPS.len()], pick(*x), pick(*y)),
        (Op::Cmp(o, x, y), _) => b.icmp(CMPS[*o as usize % CMPS.len()], pick(*x), pick(*y)),
        (Op::StackSlot(x, s), Some(slots)) => {
            let sl = slots[(*s % 4) as usize];
            b.store(sl, pick(*x));
            b.load(Type::I64, sl)
        }
        (Op::StoreLoad(x, s) | Op::StackSlot(x, s), _) => {
            let slot = b.iconst(Type::I64, (s % 16) as i64);
            let addr = b.gep(scratch, slot, 8, 0);
            b.store(addr, pick(*x));
            b.load(Type::I64, addr)
        }
    }
}

/// Builds a program from the op list: computes over two params plus a
/// 16-slot heap scratch buffer, ends with a diamond on the running value.
fn build(ops: &[Op], seed: i64) -> Module {
    let mut m = Module::new("rand");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let scratch = b.param(2);
        let slots: Vec<Value> = (0..4).map(|_| b.alloca(8, 8)).collect();
        let mut vals: Vec<Value> = vec![b.param(0), b.param(1)];
        let c = b.iconst(Type::I64, seed);
        for &sl in &slots {
            b.store(sl, c);
        }
        vals.push(c);
        for op in ops {
            let v = emit(&mut b, op, &vals, scratch, Some(&slots));
            vals.push(v);
        }
        let last = *vals.last().unwrap();
        // Diamond on the last value.
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        let zero = b.iconst(Type::I64, 0);
        let cnd = b.icmp(CmpOp::Sgt, last, zero);
        b.cond_br(cnd, t, e);
        b.switch_to_block(t);
        let tv = b.binop(BinOp::Xor, last, vals[0]);
        b.br(j);
        b.switch_to_block(e);
        let ev = b.binop(BinOp::Add, last, vals[1]);
        b.br(j);
        b.switch_to_block(j);
        let phi = b.phi(Type::I64, &[(t, tv), (e, ev)]);
        b.ret(Some(phi));
    }
    m
}

/// The oracle: `main(a, b, scratch)` on plain local memory.
fn run_local(m: &Module, a: u64, b: u64) -> u64 {
    let mut machine = Machine::new(m, LocalMem::new(1 << 16), CostModel::default(), 1 << 16);
    let scratch = machine.setup_alloc(128);
    machine.setup_write(scratch, &[0; 128]);
    machine.finish_setup(false);
    machine
        .run("main", &[a, b, scratch])
        .expect("clean run")
        .ret
}

#[test]
fn random_programs_verify_roundtrip_optimize_and_remote() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0001);
    for case in 0..64 {
        let ops: Vec<Op> = (0..rng.next_range(1, 39))
            .map(|_| random_op(&mut rng))
            .collect();
        let seed = rng.next_u64() as i64;
        let a = rng.next_u64();
        let b = rng.next_u64();
        let m = build(&ops, seed);
        assert!(
            m.verify().is_ok(),
            "case {case}: generated program must verify"
        );
        let want = run_local(&m, a, b);

        // Parser round-trip preserves behaviour and is a print fixpoint.
        let text1 = m.to_string();
        let parsed = parse_module(&text1).expect("printer output parses");
        parsed.verify().expect("parsed module verifies");
        assert_eq!(run_local(&parsed, a, b), want);
        let text2 = parsed.to_string();
        let reparsed = parse_module(&text2).expect("reparse");
        assert_eq!(reparsed.to_string(), text2, "print is a parse fixpoint");

        // O1 preserves behaviour.
        let mut opt = m.clone();
        trackfm_suite::compiler::passes::o1::run(&mut opt);
        opt.verify().expect("optimized module verifies");
        assert_eq!(run_local(&opt, a, b), want, "O1 changed behaviour");

        // The far-memory transformation preserves behaviour under pressure.
        let mut far = m.clone();
        TrackFmCompiler::default().compile(&mut far, None);
        let run_trackfm = |m: &Module| {
            run_far(m, &[a, b], Far::default())
                .0
                .expect("clean run")
                .ret
        };
        assert_eq!(run_trackfm(&far), want, "TrackFM changed behaviour");

        // And O1 + TrackFM together.
        let mut both = m.clone();
        let compiler = TrackFmCompiler::new(trackfm_suite::compiler::CompilerOptions {
            o1: true,
            ..Default::default()
        });
        compiler.compile(&mut both, None);
        assert_eq!(run_trackfm(&both), want, "O1+TrackFM changed behaviour");
    }
}

/// One operation of the *interprocedural* generator: the base ops plus
/// calls into helper functions and constant-trip loops over an invariant
/// far-memory slot. The compiler summarises no callee, so every call, pure
/// or not, kills custody in the caller.
#[derive(Clone, Debug)]
enum ExtOp {
    Base(Op),
    /// Call the pure arithmetic helper (kills nothing, still revokes
    /// custody).
    CallPure(u8),
    /// Call the RMW helper on a scratch slot (raw pointer-param deref).
    CallBump(u8, u8),
    /// Call the stack-only RMW helper on an alloca slot: the helper still
    /// guards its pointer param, whose provenance it cannot see.
    CallBumpStack(u8, u8),
    /// Call the allocating helper (custody-killing).
    CallKiller(u8),
    /// Constant-trip loop RMW'ing one invariant scratch slot; the second
    /// payload bit decides whether the body also calls the pure helper.
    InvLoop(u8, u8, u8),
}

fn random_ext_op(rng: &mut SplitMix64) -> ExtOp {
    let b8 = |rng: &mut SplitMix64| rng.next_u64() as u8;
    match rng.next_below(9) {
        0..=3 => ExtOp::Base(random_op(rng)),
        4 => ExtOp::CallPure(b8(rng)),
        5 => ExtOp::CallBump(b8(rng), b8(rng)),
        6 => ExtOp::CallBumpStack(b8(rng), b8(rng)),
        7 => ExtOp::CallKiller(b8(rng)),
        _ => ExtOp::InvLoop(b8(rng), b8(rng), b8(rng)),
    }
}

/// [`build`]'s multi-function sibling: `main` plus a pure helper, an
/// RMW-on-pointer-param helper, and an allocating (custody-killing)
/// helper. Behaviour stays pointer-value-free and deterministic.
fn build_interproc(ops: &[ExtOp], seed: i64) -> Module {
    let mut m = Module::new("rand_ip");

    // Pure: f(x) = (x ^ seed) + (x << 1). Kills nothing.
    let pure_fn = m.declare_function("pure", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(pure_fn));
        let x = b.param(0);
        let c = b.iconst(Type::I64, seed);
        let one = b.iconst(Type::I64, 1);
        let t = b.binop(BinOp::Xor, x, c);
        let s = b.binop(BinOp::Shl, x, one);
        let r = b.binop(BinOp::Add, t, s);
        b.ret(Some(r));
    }

    // Bump: v = *p; *p = v + x; return v. Raw deref of the pointer param,
    // which the helper guards itself.
    let bump_fn = m.declare_function(
        "bump",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(bump_fn));
        let p = b.param(0);
        let x = b.param(1);
        let v = b.load(Type::I64, p);
        let v2 = b.binop(BinOp::Add, v, x);
        b.store(p, v2);
        b.ret(Some(v));
    }

    // Stack-only bump: body identical to `bump`, but every call site
    // passes an alloca.
    let bump_stack_fn = m.declare_function(
        "bump_stack",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(bump_stack_fn));
        let p = b.param(0);
        let x = b.param(1);
        let v = b.load(Type::I64, p);
        let v2 = b.binop(BinOp::Add, v, x);
        b.store(p, v2);
        b.ret(Some(v));
    }

    // Killer: allocates (and frees) — may trigger evacuation, so custody
    // must not survive calls to it.
    let killer_fn = m.declare_function("killer", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(killer_fn));
        let x = b.param(0);
        let q = b.malloc_const(16);
        b.store(q, x);
        let v = b.load(Type::I64, q);
        b.intrinsic(trackfm_suite::ir::Intrinsic::Free, vec![q]);
        b.ret(Some(v));
    }

    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let scratch = b.param(2);
        let mut vals: Vec<Value> = vec![b.param(0), b.param(1)];
        let c = b.iconst(Type::I64, seed);
        let stack_slots: Vec<Value> = (0..4).map(|_| b.alloca(8, 8)).collect();
        for &sl in &stack_slots {
            b.store(sl, c);
        }
        vals.push(c);
        let pick = |vals: &[Value], n: u8| vals[n as usize % vals.len()];
        for op in ops {
            let v = match op {
                ExtOp::Base(op) => emit(&mut b, op, &vals, scratch, None),
                ExtOp::CallPure(x) => {
                    let a = pick(&vals, *x);
                    b.call(pure_fn, vec![a], Some(Type::I64))
                }
                ExtOp::CallBump(x, s) => {
                    let a = pick(&vals, *x);
                    let slot = b.iconst(Type::I64, (s % 16) as i64);
                    let addr = b.gep(scratch, slot, 8, 0);
                    b.call(bump_fn, vec![addr, a], Some(Type::I64))
                }
                ExtOp::CallBumpStack(x, s) => {
                    let a = pick(&vals, *x);
                    let sl = stack_slots[(s % 4) as usize];
                    b.call(bump_stack_fn, vec![sl, a], Some(Type::I64))
                }
                ExtOp::CallKiller(x) => {
                    let a = pick(&vals, *x);
                    b.call(killer_fn, vec![a], Some(Type::I64))
                }
                ExtOp::InvLoop(x, s, n) => {
                    let addend = pick(&vals, *x);
                    let slot = b.iconst(Type::I64, (s % 16) as i64);
                    let addr = b.gep(scratch, slot, 8, 0);
                    let zero = b.iconst(Type::I64, 0);
                    let trip = b.iconst(Type::I64, (n % 5 + 1) as i64);
                    let with_call = n & 0x80 != 0;
                    b.counted_loop(zero, trip, 1, |b, _i| {
                        let t = b.load(Type::I64, addr);
                        let inc = if with_call {
                            b.call(pure_fn, vec![addend], Some(Type::I64))
                        } else {
                            addend
                        };
                        let t2 = b.binop(BinOp::Add, t, inc);
                        b.store(addr, t2);
                    });
                    b.load(Type::I64, addr)
                }
            };
            vals.push(v);
        }
        let last = *vals.last().unwrap();
        b.ret(Some(last));
    }
    m
}

/// One seeded corpus case: even cases come from the single-function
/// generator, odd ones from the interprocedural one.
fn corpus_case(rng: &mut SplitMix64, case: usize) -> (Module, u64, u64) {
    let m = if case.is_multiple_of(2) {
        let ops: Vec<Op> = (0..rng.next_range(1, 31)).map(|_| random_op(rng)).collect();
        build(&ops, rng.next_u64() as i64)
    } else {
        let ops: Vec<ExtOp> = (0..rng.next_range(1, 25))
            .map(|_| random_ext_op(rng))
            .collect();
        build_interproc(&ops, rng.next_u64() as i64)
    };
    (m, rng.next_u64(), rng.next_u64())
}

/// The guard-removal gate. Over 200 seeded programs (single- and
/// multi-function), both [`GuardOpt`] levels:
///
/// * pass the static lint;
/// * run clean under the dynamic guard sanitizer — the two checkers agree;
/// * return the bit-identical result of a [`LocalMem`] oracle run;
/// * and `Local` never simulates *more* cycles than `None`.
///
/// `Local` must also demonstrably fold guards somewhere in the corpus.
#[test]
fn every_guard_opt_level_agrees_on_random_corpus() {
    use trackfm_suite::compiler::{CompilerOptions, GuardOpt};
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0008);
    let mut local_elided = 0usize;
    for case in 0..200 {
        let (m, a, b) = corpus_case(&mut rng, case);
        assert!(m.verify().is_ok(), "case {case}: program must verify");
        let want = run_local(&m, a, b);

        let [(none, c_none), (local, c_local)] = [GuardOpt::None, GuardOpt::Local].map(|level| {
            let mut far = m.clone();
            let report = TrackFmCompiler::new(CompilerOptions {
                guard_opt: level,
                ..Default::default()
            })
            .compile(&mut far, None);
            // Static: the pipeline's own lint stage already ran (it
            // panics on errors); check the exported entry point agrees.
            assert!(
                trackfm_suite::compiler::lint_module(&far).is_empty(),
                "case {case} {level:?}: lint must pass on pipeline output"
            );
            // Dynamic: the sanitizer checks custody on the taken path.
            let sanitized = Far {
                sanitize: true,
                ..Far::default()
            };
            let r = run_far(&far, &[a, b], sanitized)
                .0
                .expect("sanitizer-clean run");
            assert_eq!(
                r.ret, want,
                "case {case} {level:?}: result differs from the LocalMem oracle"
            );
            (report, r.stats.cycles)
        });
        assert!(
            c_none >= c_local,
            "case {case}: Local increased cycles ({c_none} -> {c_local})"
        );
        assert_eq!(none.elision.eliminated, 0);
        local_elided += local.elision.eliminated;
    }
    assert!(
        local_elided > 0,
        "the corpus should contain redundant guards for Local to fold"
    );
}

/// `main(a, b, p) = *p`: a raw heap dereference that never passed
/// through a guard.
fn unguarded_load() -> Module {
    let mut m = Module::new("bad");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::I64, Type::I64, Type::Ptr], Some(Type::I64)),
    );
    let mut b = FunctionBuilder::new(m.function_mut(id));
    let p = b.param(2);
    let v = b.load(Type::I64, p);
    b.ret(Some(v));
    m.verify().unwrap();
    m
}

/// Both checkers reject the same broken program: a raw dereference of a
/// heap pointer that never passed through a guard is a static lint error
/// *and* a dynamic sanitizer trap.
#[test]
fn lint_and_sanitizer_both_reject_unguarded_access() {
    use trackfm_suite::sim::Trap;

    let m = unguarded_load();
    let errors = trackfm_suite::compiler::lint_module(&m);
    assert_eq!(errors.len(), 1, "lint must flag the raw deref: {errors:?}");
    assert!(errors[0]
        .to_string()
        .contains("never passed through a guard"));

    let sanitized = Far {
        sanitize: true,
        ..Far::default()
    };
    match run_far(&m, &[0, 0], sanitized).0 {
        Err(Trap::UnguardedAccess { .. }) => {}
        other => panic!("sanitizer should trap the unguarded deref, got {other:?}"),
    }
}

/// Asserts the two engines produced bit-identical outcomes: same
/// result-or-trap (including trap positions), same full [`ExecStats`]
/// (cycles, instructions, loads/stores, every guard counter, stalls), and
/// the same final clock.
fn assert_engines_identical(ctx: &str, tw: FarRun, bc: FarRun) {
    match (&tw.0, &bc.0) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.ret, y.ret, "{ctx}: results differ");
            assert_eq!(x.stats, y.stats, "{ctx}: exec stats differ");
            assert_eq!(x.runtime, y.runtime, "{ctx}: runtime stats differ");
            assert_eq!(x.transfers, y.transfers, "{ctx}: transfer ledgers differ");
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{ctx}: traps differ"),
        _ => panic!(
            "{ctx}: engines disagree on outcome: {:?} vs {:?}",
            tw.0, bc.0
        ),
    }
    assert_eq!(tw.1, bc.1, "{ctx}: final clocks differ");
}

/// The differential engine sweep: over the 200-seed corpus (both the
/// single-function and the interprocedural generator), the tree-walker and
/// the bytecode engine must agree on result, trap, cycle count, and
/// sanitizer verdict — and, via a per-instruction fuel lockstep, at *every
/// instruction boundary*: truncating both engines after exactly k retired
/// instructions must leave them at the same clock with the same trap.
#[test]
fn engines_agree_on_random_corpus_in_lockstep() {
    use trackfm_suite::sim::ExecEngine;
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0010);
    for case in 0..200 {
        let (m, a, b) = corpus_case(&mut rng, case);
        let mut far = m.clone();
        TrackFmCompiler::default().compile(&mut far, None);

        // Full runs, sanitizer off and on: result, stats, cycles, verdict.
        for sanitize in [false, true] {
            let fuel = None;
            let run = |engine| {
                run_far(
                    &far,
                    &[a, b],
                    Far {
                        sanitize,
                        engine,
                        fuel,
                    },
                )
            };
            assert_engines_identical(
                &format!("case {case} sanitize={sanitize}"),
                run(ExecEngine::TreeWalk),
                run(ExecEngine::Bytecode),
            );
        }

        // Per-instruction lockstep on a deterministic subset: truncate both
        // engines at instruction k via the fuel limit and compare the
        // partial timelines. Identical clocks at every probed k means the
        // engines charge cycles in the same per-instruction order, not just
        // to the same total.
        if case % 10 == 0 {
            let sanitize = false;
            let run = |engine, fuel| {
                run_far(
                    &far,
                    &[a, b],
                    Far {
                        sanitize,
                        engine,
                        fuel,
                    },
                )
            };
            let (full, _) = run(ExecEngine::TreeWalk, None);
            let retired = full.as_ref().map(|r| r.stats.instructions).unwrap_or(64);
            for k in [
                1,
                2,
                3,
                5,
                retired / 3,
                retired / 2,
                retired.saturating_sub(1),
            ] {
                let k = k.max(1);
                assert_engines_identical(
                    &format!("case {case} fuel={k}"),
                    run(ExecEngine::TreeWalk, Some(k)),
                    run(ExecEngine::Bytecode, Some(k)),
                );
            }
        }
    }
}

/// Both engines resolve the same source position into
/// [`Trap::UnguardedAccess`]: the tree-walker reads it off the instruction
/// it is visiting, the bytecode engine maps the faulting pc back through
/// its side table — the messages must match byte for byte.
#[test]
fn engines_report_identical_sanitizer_trap_positions() {
    use trackfm_suite::sim::{ExecEngine, Trap};

    let m = unguarded_load();
    let (sanitize, fuel) = (true, None);
    let run = |engine| {
        run_far(
            &m,
            &[0, 0],
            Far {
                sanitize,
                engine,
                fuel,
            },
        )
    };
    let (tw, bc) = (run(ExecEngine::TreeWalk), run(ExecEngine::Bytecode));
    let (t1, t2) = (tw.0.unwrap_err(), bc.0.unwrap_err());
    assert!(matches!(t1, Trap::UnguardedAccess { .. }), "{t1:?}");
    assert_eq!(t1, t2, "trap payloads (incl. positions) must match");
    assert_eq!(t1.to_string(), t2.to_string());
    assert!(
        t1.to_string().contains("bb0 %3"),
        "position should point at the load: {t1}"
    );
}

/// The static trip-count analysis must agree with the interpreter:
/// for random (init, bound, step) counted loops, `static_trip_count`
/// equals the number of body executions observed by the profiler.
#[test]
fn static_trip_count_matches_execution() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0002);
    for _ in 0..48 {
        let init = rng.next_range(-50, 49);
        let bound = rng.next_range(-50, 199);
        let step = rng.next_range(1, 8);
        use trackfm_suite::analysis::dom::DomTree;
        use trackfm_suite::analysis::induction::{basic_ivs, static_trip_count};
        use trackfm_suite::analysis::loops::LoopForest;

        let mut m = Module::new("tc");
        let id = m.declare_function("main", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let i0 = b.iconst(Type::I64, init);
            let n = b.iconst(Type::I64, bound);
            b.counted_loop(i0, n, step, |_b, _i| {});
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        m.verify().unwrap();

        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        assert_eq!(forest.loops.len(), 1);
        let ivs = basic_ivs(f, &forest.loops[0]);
        let predicted = static_trip_count(f, &forest.loops[0], &ivs);

        let mut machine = Machine::new(&m, LocalMem::new(1 << 12), CostModel::default(), 1 << 12);
        machine.enable_profiling();
        machine.run("main", &[]).unwrap();
        let profile = machine.take_profile();
        let body = forest.loops[0].latches[0];
        let executed = profile.block_count("main", body);

        match predicted {
            Some(t) => assert_eq!(t, executed, "static vs dynamic trip count"),
            None => assert_eq!(executed, 0, "analysis only bails on zero-trip loops"),
        }
    }
}
