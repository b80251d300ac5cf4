//! A memcached-like key-value store — the paper's Fig. 16 workload.
//!
//! §4.5: memcached 1.2.7 transformed by TrackFM, USR-style small key/value
//! pairs, 100M Zipfian `get`s with skew swept from 1.0 to 1.3. The store
//! here has the same shape: a hash index mapping keys to slab slots, and a
//! slab area holding 64-byte values that each `get` reads in full. Access
//! granularity is small and spatially scattered, so Fastswap's 4 KB pages
//! amplify I/O (66× in the paper) while TrackFM's small objects keep it low.
//!
//! The index is the open-addressing table of the `table` module, shared with
//! the Zipf hashmap; the open-loop `get` ([`crate::openloop`]) serves this
//! same store.

use crate::rng::SplitMix64;
use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use crate::table::{emit_probe, Table};
use crate::zipf::zipf_trace;
use tfm_ir::{BinOp, FunctionBuilder, Module, Signature, Type, Value};

/// Value payload size (bytes); USR-style small objects.
pub const VALUE_BYTES: usize = 64;
const VALUE_WORDS: usize = VALUE_BYTES / 8;

/// Key-value store parameters.
#[derive(Copy, Clone, Debug)]
pub struct MemcachedParams {
    /// Number of stored keys.
    pub keys: usize,
    /// Number of `get` operations.
    pub gets: usize,
    /// Zipf skew (paper sweeps 1.0–1.3; use e.g. 1.01).
    pub skew: f64,
    /// Trace RNG seed.
    pub seed: u64,
}

impl Default for MemcachedParams {
    fn default() -> Self {
        MemcachedParams {
            keys: 100_000, // 1.6 MiB index + 6.4 MiB slab
            gets: 300_000,
            skew: 1.01,
            seed: 17,
        }
    }
}

fn word_of(slab_idx: u64, w: u64) -> u64 {
    (slab_idx * VALUE_WORDS as u64 + w).wrapping_mul(0x2545_F491_4F6C_DD1D)
}

pub(crate) struct Store {
    /// Maps each key to its slab index + 1 (0 = empty).
    pub(crate) index: Table,
    pub(crate) slab: Vec<u64>,
}

impl Store {
    /// The xor of `key`'s value words, or `None` if `key` is absent.
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        let base = (self.index.get(key)? - 1) as usize * VALUE_WORDS;
        Some(
            self.slab[base..base + VALUE_WORDS]
                .iter()
                .fold(0, |x, w| x ^ w),
        )
    }
}

/// Host-side store construction: key `rank+1` lives in slab slot `rank`
/// (hash-ordered placement scatters index entries, not slab entries; the
/// slab is written in insertion order, like a real slab allocator — the §5
/// "lesson" about batched small allocations limiting I/O-amplification
/// mitigation applies to the index, not the values).
pub(crate) fn build(keys: usize) -> Store {
    let mut index = Table::with_keys(keys);
    let mut slab = vec![0u64; keys * VALUE_WORDS];
    for rank in 0..keys as u64 {
        index.insert(rank + 1, rank + 1);
        for w in 0..VALUE_WORDS as u64 {
            slab[(rank * VALUE_WORDS as u64 + w) as usize] = word_of(rank, w);
        }
    }
    Store { index, slab }
}

/// Emits `*acc ^= word` for each word of the value in slab slot
/// `slabp1 - 1`, and returns the constant 1 it emitted on the way.
pub(crate) fn emit_xor_value(
    b: &mut FunctionBuilder<'_>,
    slab: Value,
    slabp1: Value,
    acc: Value,
) -> Value {
    let one = b.iconst(Type::I64, 1);
    let slab_idx = b.binop(BinOp::Sub, slabp1, one);
    let vwords = b.iconst(Type::I64, VALUE_WORDS as i64);
    let base_w = b.binop(BinOp::Mul, slab_idx, vwords);
    let vbase = b.gep(slab, base_w, 8, 0);
    let zero = b.iconst(Type::I64, 0);
    b.counted_loop(zero, vwords, 1, |b, w| {
        let wa = b.gep(vbase, w, 8, 0);
        let wv = b.load(Type::I64, wa);
        let s = b.load(Type::I64, acc);
        let s2 = b.binop(BinOp::Xor, s, wv);
        b.store(acc, s2);
    });
    one
}

/// Builds the key-value store workload.
///
/// `main(index, mask, slab, trace, n) -> i64` performs `n` `get`s and
/// returns a checksum over the values read.
pub fn memcached(p: &MemcachedParams) -> WorkloadSpec {
    let store = build(p.keys);
    let mut rng = SplitMix64::seed_from_u64(p.seed);
    let trace: Vec<u64> = zipf_trace(p.keys as u64, p.skew, p.gets, &mut rng)
        .into_iter()
        .map(|r| r + 1)
        .collect();
    let expected = trace.iter().fold(0u64, |sum, &key| match store.get(key) {
        Some(x) => (sum ^ x).wrapping_add(1),
        None => sum,
    });

    let mut m = Module::new("memcached");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![Type::Ptr, Type::I64, Type::Ptr, Type::Ptr, Type::I64],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let index = b.param(0);
        let mask_v = b.param(1);
        let slab = b.param(2);
        let trace_p = b.param(3);
        let n = b.param(4);
        let zero = b.iconst(Type::I64, 0);
        let sum = b.alloca(8, 8);
        b.store(sum, zero);

        b.counted_loop(zero, n, 1, |b, t| {
            let kaddr = b.gep(trace_p, t, 8, 0);
            let key = b.load(Type::I64, kaddr);
            emit_probe(b, index, mask_v, key, |b, slabp1| {
                let one = emit_xor_value(b, slab, slabp1, sum);
                let s = b.load(Type::I64, sum);
                let s2 = b.binop(BinOp::Add, s, one);
                b.store(sum, s2);
            });
        });

        let out = b.load(Type::I64, sum);
        b.ret(Some(out));
    }
    m.verify().expect("memcached is well-formed");

    let (index, mask) = store.index.into_input();
    WorkloadSpec {
        name: format!("memcached/{}k-{}", p.keys / 1000, p.skew),
        module: m,
        inputs: vec![index, InputData::U64(store.slab), InputData::U64(trace)],
        args: vec![
            ArgSpec::Input(0),
            mask,
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Const(p.gets as i64),
        ],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, RunConfig};

    fn small() -> MemcachedParams {
        MemcachedParams {
            keys: 2_000,
            gets: 5_000,
            skew: 1.05,
            seed: 3,
        }
    }

    #[test]
    fn gets_are_semantically_preserved() {
        let spec = memcached(&small());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.2).with_object_size(64));
        execute(&spec, &RunConfig::fastswap(0.2));
    }

    #[test]
    fn skew_reduces_fastswap_misses() {
        // Higher skew → more temporal locality → fewer major faults; the
        // Fig. 16a convergence mechanism.
        let mild = memcached(&MemcachedParams {
            skew: 1.01,
            ..small()
        });
        let sharp = memcached(&MemcachedParams {
            skew: 1.3,
            ..small()
        });
        let f_mild = execute(&mild, &RunConfig::fastswap(0.15));
        let f_sharp = execute(&sharp, &RunConfig::fastswap(0.15));
        assert!(
            f_sharp.result.pager.unwrap().major_faults < f_mild.result.pager.unwrap().major_faults
        );
    }
}
