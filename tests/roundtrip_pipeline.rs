//! Parser/printer round-trip over *pipeline output*.
//!
//! The unit tests in `tfm-ir` round-trip hand-written modules; this suite
//! round-trips what the compiler actually emits for every suite workload
//! under every compiler configuration (`common::compiled_matrix`), plus
//! randomized programs, whose reparsed module must also *behave*
//! identically under far memory.
//!
//! Both text parsers are also fuzzed: seeded byte-level edits of suite
//! modules go through `parse_module`, `verify` and the printer, and edits
//! of a rendered run report through `Json::parse`. Most edits are errors;
//! none may panic.

pub mod common;

use common::{assert_roundtrip, compiled_matrix, run_far, Far};
use trackfm_suite::compiler::TrackFmCompiler;
use trackfm_suite::ir::{parse_module, Module};
use trackfm_suite::net::FaultPlan;
use trackfm_suite::telemetry::Json;
use trackfm_suite::workloads::runner::{execute_with_report, RunConfig};
use trackfm_suite::workloads::{kmeans, stream, SplitMix64};

#[test]
fn every_workload_pipeline_output_round_trips() {
    for cell in compiled_matrix() {
        assert_roundtrip(&cell.tag, &cell.module);
    }
}

#[test]
fn random_pipeline_output_round_trips_and_behaves() {
    let mut rng = SplitMix64::seed_from_u64(0x5EED_0005);
    for case in 0..32 {
        let mut m = Module::new("rand");
        {
            use trackfm_suite::ir::{BinOp, FunctionBuilder, Signature, Type};
            let id = m.declare_function(
                "main",
                Signature::new(vec![Type::I64, Type::Ptr], Some(Type::I64)),
            );
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(1);
            let mut acc = b.param(0);
            for i in 0..rng.next_range(1, 9) {
                let idx = b.iconst(Type::I64, rng.next_range(0, 16));
                let addr = b.gep(p, idx, 8, 0);
                if rng.next_below(2) == 0 {
                    b.store(addr, acc);
                }
                let v = b.load(Type::I64, addr);
                let k = b.iconst(Type::I64, case * 8 + i + 1);
                let t = b.binop(BinOp::Mul, v, k);
                acc = b.binop(BinOp::Add, acc, t);
            }
            b.ret(Some(acc));
        }
        m.verify().unwrap();

        let a = rng.next_u64();
        let mut far = m.clone();
        TrackFmCompiler::default().compile(&mut far, None);
        let parsed = assert_roundtrip(&format!("rand{case}"), &far);

        // The reparsed pipeline output computes the same thing the
        // in-memory pipeline output computes, under far-memory pressure.
        let run = |m: &Module| run_far(m, &[a], Far::default()).0.expect("clean run").ret;
        assert_eq!(
            run(&far),
            run(&parsed),
            "case {case}: reparse changed behaviour"
        );
    }
}

/// `cases` seeded variants of `text`, each with one or two byte edits:
/// overwrite, delete a short range, insert, or copy a slice elsewhere
/// (which can deepen nesting). Overwrites favour the grammar's own bytes.
/// An edit that splits a multi-byte char is repaired lossily, so each
/// variant is still a `&str`.
fn byte_edits(text: &str, seed: u64, cases: usize) -> impl Iterator<Item = String> + '_ {
    const BYTES: &[u8] = b"{}[]()<>,:;=%@\"\\ \n-+.0123456789aeiuxz\x00\xff";
    let mut rng = SplitMix64::seed_from_u64(seed);
    (0..cases).map(move |_| {
        let mut b = text.as_bytes().to_vec();
        for _ in 0..rng.next_range(1, 3) {
            let at = rng.next_below(b.len() as u64 + 1) as usize;
            match rng.next_below(4) {
                0 if at < b.len() => b[at] = BYTES[rng.next_below(BYTES.len() as u64) as usize],
                1 => {
                    let end = (at + rng.next_range(1, 9) as usize).min(b.len());
                    b.drain(at..end);
                }
                2 => b.insert(at, rng.next_below(256) as u8),
                _ => {
                    let from = rng.next_below(b.len() as u64) as usize;
                    let len = (rng.next_range(1, 65) as usize).min(b.len() - from);
                    let chunk = b[from..from + len].to_vec();
                    b.splice(at..at, chunk);
                }
            }
        }
        String::from_utf8_lossy(&b).into_owned()
    })
}

/// Runs `f` on every variant, naming the first one that panics.
fn never_panics(what: &str, variants: impl Iterator<Item = String>, f: impl Fn(&str) -> bool) {
    let mut ok = 0;
    for (case, text) in variants.enumerate() {
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&text)));
        let Ok(parsed) = run else {
            panic!("{what}: case {case} panicked on input:\n{text}");
        };
        ok += usize::from(parsed);
    }
    assert!(
        ok > 0,
        "{what}: no edited input parsed; the edits are too coarse"
    );
}

#[test]
fn parse_module_survives_byte_edits_of_suite_modules() {
    let specs = [
        kmeans::kmeans(&kmeans::KmeansParams {
            points: 64,
            dims: 2,
            k: 2,
            iters: 1,
        }),
        stream::sum(&stream::StreamParams { elems: 1 << 10 }),
    ];
    for (i, spec) in specs.iter().enumerate() {
        let mut compiled = spec.module.clone();
        TrackFmCompiler::default().compile(&mut compiled, None);
        for (j, m) in [&spec.module, &compiled].into_iter().enumerate() {
            let text = m.to_string();
            let seed = 0xF022 + 2 * i as u64 + j as u64;
            never_panics(&spec.name, byte_edits(&text, seed, 500), |t| {
                let Ok(m) = parse_module(t) else {
                    return false;
                };
                let _ = m.verify();
                let _ = m.to_string();
                true
            });
        }
    }
}

#[test]
fn json_parse_survives_byte_edits_of_a_run_report() {
    // Sharded, faulty and traced: the report carries every section.
    let spec = stream::sum(&stream::StreamParams { elems: 4 << 10 });
    let cfg = RunConfig::trackfm(0.25)
        .with_shards(2)
        .with_faults(FaultPlan::drops(0xF022, 100_000))
        .with_tracing();
    let (_, rep) = execute_with_report(&spec, &cfg);
    let text = rep.to_json().to_string_pretty();
    assert_eq!(Json::parse(&text), Ok(rep.to_json()));
    never_panics("run report", byte_edits(&text, 0xF022, 2_000), |t| {
        Json::parse(t).is_ok()
    });
}
