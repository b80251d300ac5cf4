//! STREAM (McCalpin) — the paper's sequential-access microbenchmark.
//!
//! Used by Figs. 7 (chunking speedup), 10 (object-size choice), 11
//! (prefetching) and 12 (vs. Fastswap). Elements are 4-byte integers, as in
//! §4.2 ("sequential access to arrays of small elements (integers)"), giving
//! an object density of 1024 at the 4 KB object size.

use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use tfm_ir::{BinOp, CastOp, FunctionBuilder, Module, Signature, Type};

/// STREAM parameters.
#[derive(Copy, Clone, Debug)]
pub struct StreamParams {
    /// Number of 4-byte elements per array.
    pub elems: usize,
}

impl Default for StreamParams {
    fn default() -> Self {
        // 8 MiB per array — scaled from the paper's 12 GB working set; the
        // local-memory *fraction* is what the figures sweep.
        StreamParams { elems: 2 << 20 }
    }
}

fn input_values(p: &StreamParams) -> Vec<u32> {
    (0..p.elems as u32)
        .map(|i| i.wrapping_mul(7).wrapping_add(3) & 0xFFFF)
        .collect()
}

/// Builds the "Sum" test: `for i { sum += a[i] }`.
pub fn sum(p: &StreamParams) -> WorkloadSpec {
    let vals = input_values(p);
    let expected: u64 = vals.iter().map(|&v| v as u64).sum();

    let mut m = Module::new("stream_sum");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let a = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(Type::I64, 0);
        let [acc] = b.counted_loop_carried(zero, n, 1, [(Type::I64, zero)], |b, i, [acc]| {
            let addr = b.gep(a, i, 4, 0);
            let x32 = b.load(Type::I32, addr);
            let x = b.cast(CastOp::Sext, x32, Type::I64);
            [b.binop(BinOp::Add, acc, x)]
        });
        b.ret(Some(acc));
    }
    m.verify().expect("stream sum is well-formed");

    WorkloadSpec {
        name: format!("stream-sum/{}", p.elems),
        module: m,
        inputs: vec![InputData::U32(vals)],
        args: vec![ArgSpec::Input(0), ArgSpec::Const(p.elems as i64)],
        expected: Some(expected),
    }
}

/// Builds the "Copy" test: `for i { b[i] = a[i] }` (returning the running
/// sum of copied elements as the checksum).
pub fn copy(p: &StreamParams) -> WorkloadSpec {
    let vals = input_values(p);
    let expected: u64 = vals.iter().map(|&v| v as u64).sum();

    let mut m = Module::new("stream_copy");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let src = b.param(0);
        let dst = b.param(1);
        let n = b.param(2);
        let zero = b.iconst(Type::I64, 0);
        let [acc] = b.counted_loop_carried(zero, n, 1, [(Type::I64, zero)], |b, i, [acc]| {
            let saddr = b.gep(src, i, 4, 0);
            let daddr = b.gep(dst, i, 4, 0);
            let x32 = b.load(Type::I32, saddr);
            b.store(daddr, x32);
            let x = b.cast(CastOp::Sext, x32, Type::I64);
            [b.binop(BinOp::Add, acc, x)]
        });
        b.ret(Some(acc));
    }
    m.verify().expect("stream copy is well-formed");

    WorkloadSpec {
        name: format!("stream-copy/{}", p.elems),
        module: m,
        inputs: vec![InputData::U32(vals), InputData::Zeroed(p.elems as u64 * 4)],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Const(p.elems as i64),
        ],
        expected: Some(expected),
    }
}

/// Builds the "Triad" test: `a[i] = b[i] + 3.0 * c[i]` over `f64` arrays
/// (three streams, two reads + one write per iteration — the heaviest
/// STREAM kernel).
pub fn triad(p: &StreamParams) -> WorkloadSpec {
    let n = p.elems / 2; // f64 arrays; halve the count to keep bytes similar
    let bvals: Vec<f64> = (0..n).map(|i| (i % 100) as f64 / 10.0).collect();
    let cvals: Vec<f64> = (0..n).map(|i| (i % 37) as f64 / 7.0).collect();
    let expected = {
        let mut acc = 0.0f64;
        for i in 0..n {
            let a = bvals[i] + 3.0 * cvals[i];
            acc += a;
        }
        acc.to_bits()
    };

    let mut m = Module::new("stream_triad");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![Type::Ptr, Type::Ptr, Type::Ptr, Type::I64],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let a = b.param(0);
        let bb = b.param(1);
        let cc = b.param(2);
        let n_v = b.param(3);
        let zero = b.iconst(Type::I64, 0);
        let f0 = b.fconst(0.0);
        let [acc] = b.counted_loop_carried(zero, n_v, 1, [(Type::F64, f0)], |b, i, [acc]| {
            let ba = b.gep(bb, i, 8, 0);
            let ca = b.gep(cc, i, 8, 0);
            let aa = b.gep(a, i, 8, 0);
            let bv = b.load(Type::F64, ba);
            let cv = b.load(Type::F64, ca);
            let three = b.fconst(3.0);
            let scaled = b.binop(BinOp::Fmul, three, cv);
            let av = b.binop(BinOp::Fadd, bv, scaled);
            b.store(aa, av);
            [b.binop(BinOp::Fadd, acc, av)]
        });
        let bits = b.cast(CastOp::Bitcast, acc, Type::I64);
        b.ret(Some(bits));
    }
    m.verify().expect("stream triad is well-formed");

    WorkloadSpec {
        name: format!("stream-triad/{n}"),
        module: m,
        inputs: vec![
            InputData::Zeroed(n as u64 * 8),
            InputData::F64(bvals),
            InputData::F64(cvals),
        ],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Const(n as i64),
        ],
        expected: Some(expected),
    }
}

/// Builds a STREAM-like "Sum" over elements of arbitrary byte stride —
/// used by the Fig. 6 cost-model crossover sweep (the loop touches the
/// first 8 bytes of each `elem_bytes`-wide record).
pub fn strided_sum(elems: usize, elem_bytes: u32) -> WorkloadSpec {
    assert!(elem_bytes >= 8 && elem_bytes.is_multiple_of(8));
    let n_words = elems * (elem_bytes as usize / 8);
    let vals: Vec<u64> = (0..n_words as u64).map(|i| i & 0xFF).collect();
    let stride_words = (elem_bytes / 8) as u64;
    let expected: u64 = (0..elems as u64)
        .map(|i| vals[(i * stride_words) as usize])
        .sum();

    let mut m = Module::new("strided_sum");
    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let a = b.param(0);
        let n = b.param(1);
        let zero = b.iconst(Type::I64, 0);
        let [acc] = b.counted_loop_carried(zero, n, 1, [(Type::I64, zero)], |b, i, [acc]| {
            let addr = b.gep(a, i, elem_bytes, 0);
            let x = b.load(Type::I64, addr);
            [b.binop(BinOp::Add, acc, x)]
        });
        b.ret(Some(acc));
    }
    m.verify().expect("strided sum is well-formed");

    WorkloadSpec {
        name: format!("strided-sum/{elems}x{elem_bytes}"),
        module: m,
        inputs: vec![InputData::U64(vals)],
        args: vec![ArgSpec::Input(0), ArgSpec::Const(elems as i64)],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, RunConfig};

    fn small() -> StreamParams {
        StreamParams { elems: 64 << 10 } // 256 KiB
    }

    #[test]
    fn sum_is_semantically_preserved_everywhere() {
        let spec = sum(&small());
        for cfg in [
            RunConfig::local(),
            RunConfig::fastswap(0.25),
            RunConfig::trackfm(0.25),
            RunConfig::aifm(0.25),
        ] {
            let out = execute(&spec, &cfg); // panics on wrong checksum
            assert!(out.result.stats.cycles > 0);
        }
    }

    #[test]
    fn copy_moves_data_under_trackfm() {
        let spec = copy(&small());
        let out = execute(&spec, &RunConfig::trackfm(0.25));
        let report = out.report.unwrap();
        assert_eq!(report.chunking.streams, 2);
        assert!(out.result.bytes_transferred() > 0);
    }

    #[test]
    fn chunking_beats_naive_guards_on_stream() {
        // The Fig. 7 mechanism at full local memory.
        let spec = sum(&small());
        let chunked = execute(&spec, &RunConfig::trackfm(1.0));
        let mut naive_cfg = RunConfig::trackfm(1.0);
        naive_cfg.compiler.chunking = trackfm::ChunkingMode::Off;
        let naive = execute(&spec, &naive_cfg);
        let speedup = naive.result.stats.cycles as f64 / chunked.result.stats.cycles as f64;
        assert!(
            speedup > 1.4,
            "chunking should speed STREAM up noticeably, got {speedup:.2}"
        );
        // Fast-path guards go to zero (§4.2: "we reduce the fast-path guard
        // count from ~1.6 billion to zero").
        assert_eq!(chunked.result.stats.guards_fast, 0);
        assert!(naive.result.stats.guards_fast > 0);
    }

    #[test]
    fn triad_chunks_three_streams_and_preserves_semantics() {
        let spec = triad(&small());
        for cfg in [
            RunConfig::local(),
            RunConfig::trackfm(0.25),
            RunConfig::fastswap(0.25),
        ] {
            execute(&spec, &cfg);
        }
        let out = execute(&spec, &RunConfig::trackfm(0.25));
        assert_eq!(out.report.unwrap().chunking.streams, 3);
    }

    #[test]
    fn strided_sum_checksum_holds() {
        let spec = strided_sum(1000, 64);
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.5));
    }
}
