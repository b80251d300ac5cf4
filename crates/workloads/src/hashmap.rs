//! Zipfian hash-map lookups — the paper's Figs. 9/13 workload.
//!
//! §4.3: "The first microbenchmark involves accessing a hashmap, much like
//! how a key-value store would operate. [...] a small handful of the entries
//! in the hashmap will constitute the majority of accesses, so there will be
//! a high degree of temporal locality (but little spatial locality), and
//! accesses occur at very small granularities." Small object sizes win here
//! (Fig. 9) and page-granularity Fastswap suffers 43× I/O amplification
//! (Fig. 13).
//!
//! The table is the open-addressing one of the `table` module, which the
//! memcached store's index shares; its linear probe keeps loop chunking away
//! and every slot access guarded.

use crate::rng::SplitMix64;
use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use crate::table::{emit_probe, Table};
use crate::zipf::zipf_trace;
use tfm_ir::{BinOp, FunctionBuilder, Module, Signature, Type};

/// Hash-map workload parameters.
#[derive(Copy, Clone, Debug)]
pub struct HashmapParams {
    /// Number of key/value pairs inserted.
    pub keys: usize,
    /// Number of Zipf-distributed lookups.
    pub lookups: usize,
    /// Zipf skew (the paper uses 1.02).
    pub skew: f64,
    /// RNG seed for the trace.
    pub seed: u64,
}

impl Default for HashmapParams {
    fn default() -> Self {
        HashmapParams {
            keys: 200_000, // ~6.4 MiB table at load factor 0.5
            lookups: 500_000,
            skew: 1.02,
            seed: 42,
        }
    }
}

fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// Builds the hash-map workload.
///
/// `main(table, mask, trace, n) -> i64` returns the wrapped sum of all
/// looked-up values.
pub fn hashmap(p: &HashmapParams) -> WorkloadSpec {
    // The IR program only does lookups, like the paper's 50M-lookup
    // measurement phase.
    let mut table = Table::with_keys(p.keys);
    for key in 1..=p.keys as u64 {
        table.insert(key, value_of(key));
    }
    let mut rng = SplitMix64::seed_from_u64(p.seed);
    let trace: Vec<u64> = zipf_trace(p.keys as u64, p.skew, p.lookups, &mut rng)
        .into_iter()
        .map(|rank| rank + 1)
        .collect();
    let expected = trace.iter().fold(0u64, |sum, &key| {
        sum.wrapping_add(table.get(key).unwrap_or(0))
    });

    let mut m = Module::new("hashmap");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![Type::Ptr, Type::I64, Type::Ptr, Type::I64],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let table_v = b.param(0);
        let mask_v = b.param(1);
        let trace_p = b.param(2);
        let n = b.param(3);
        let zero = b.iconst(Type::I64, 0);
        let sum = b.alloca(8, 8);
        b.store(sum, zero);

        b.counted_loop(zero, n, 1, |b, t| {
            let kaddr = b.gep(trace_p, t, 8, 0);
            let key = b.load(Type::I64, kaddr);
            emit_probe(b, table_v, mask_v, key, |b, val| {
                let s = b.load(Type::I64, sum);
                let s2 = b.binop(BinOp::Add, s, val);
                b.store(sum, s2);
            });
        });

        let out = b.load(Type::I64, sum);
        b.ret(Some(out));
    }
    m.verify().expect("hashmap is well-formed");

    let (table, mask) = table.into_input();
    WorkloadSpec {
        name: format!("hashmap/{}k-{}", p.keys / 1000, p.skew),
        module: m,
        inputs: vec![table, InputData::U64(trace)],
        args: vec![
            ArgSpec::Input(0),
            mask,
            ArgSpec::Input(1),
            ArgSpec::Const(p.lookups as i64),
        ],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, RunConfig};

    fn small() -> HashmapParams {
        HashmapParams {
            keys: 4_000,
            lookups: 10_000,
            skew: 1.02,
            seed: 7,
        }
    }

    #[test]
    fn lookups_are_semantically_preserved() {
        let spec = hashmap(&small());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.25).with_object_size(256));
        execute(&spec, &RunConfig::fastswap(0.25));
    }

    #[test]
    fn probe_loop_is_not_chunked() {
        let spec = hashmap(&small());
        let out = execute(&spec, &RunConfig::trackfm(0.5));
        let rep = out.report.unwrap();
        // The trace scan may chunk, but slot probing must use plain guards.
        assert!(out.result.stats.guards_fast > 0);
        let _ = rep;
    }

    #[test]
    fn small_objects_reduce_io_amplification() {
        // The Fig. 9/13 mechanism at 25% local memory.
        let spec = hashmap(&small());
        let big = execute(&spec, &RunConfig::trackfm(0.25).with_object_size(4096));
        let small_o = execute(&spec, &RunConfig::trackfm(0.25).with_object_size(64));
        assert!(
            small_o.result.bytes_transferred() < big.result.bytes_transferred() / 4,
            "64B objects should move far less data: {} vs {}",
            small_o.result.bytes_transferred(),
            big.result.bytes_transferred()
        );
    }
}
