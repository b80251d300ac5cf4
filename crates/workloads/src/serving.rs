//! A guard-heavy request-serving loop with a call in its body.
//!
//! Each request is classified by a *pure helper function* (`classify`),
//! then charged to a data-dependent bucket counter and to one
//! loop-invariant far-memory total slot:
//!
//! ```text
//! for i in 0..n {
//!     op = ops[i];
//!     t  = *total_slot;           // loop-invariant pointer
//!     k  = classify(op);          // pure call — still kills custody
//!     counts[k] += op;            // data-dependent RMW
//!     *total_slot = t + 1;        // invariant RMW completes
//! }
//! return sum(counts) + *total_slot;
//! ```
//!
//! The compiler summarises no callee, so the `classify` call kills guard
//! custody every iteration: the total-slot read and write each keep their
//! own guard. A summary that proved `classify` kills nothing would fold the
//! pair into one write guard; it saved 0.02 % of this loop's cycles, and the
//! compiler no longer has one.

use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use tfm_ir::{BinOp, FunctionBuilder, Module, Signature, Type};

/// Serving-loop parameters.
#[derive(Copy, Clone, Debug)]
pub struct ServingParams {
    /// Number of requests.
    pub ops: usize,
    /// Bucket count (rounded up to a power of two).
    pub buckets: usize,
    /// RNG seed for the request stream.
    pub seed: u64,
}

impl Default for ServingParams {
    fn default() -> Self {
        ServingParams {
            ops: 1 << 16,
            buckets: 256,
            seed: 42,
        }
    }
}

/// Index of the slot used in the totals array (an arbitrary non-zero slot,
/// so the pointer is a `gep`, not the raw input base).
const TOTAL_SLOT: i64 = 3;

/// Builds the serving loop described in the module docs.
pub fn serving(p: &ServingParams) -> WorkloadSpec {
    let buckets = p.buckets.next_power_of_two().max(2);
    let mask = (buckets - 1) as u64;
    let mut rng = crate::rng::SplitMix64::seed_from_u64(p.seed);
    let ops: Vec<u64> = (0..p.ops).map(|_| rng.next_u64() & 0xFFFF).collect();

    // Oracle: every op lands in exactly one bucket, so the bucket sum is
    // the op sum; the total slot counts requests.
    let expected: u64 = ops.iter().sum::<u64>().wrapping_add(p.ops as u64);

    let mut m = Module::new("serving");

    // Pure classifier: op & (buckets - 1). No memory effects, yet the call
    // still kills custody in the loop.
    let classify = m.declare_function("classify", Signature::new(vec![Type::I64], Some(Type::I64)));
    {
        let mut b = FunctionBuilder::new(m.function_mut(classify));
        let op = b.param(0);
        let mk = b.iconst(Type::I64, mask as i64);
        let k = b.binop(BinOp::And, op, mk);
        b.ret(Some(k));
    }

    let id = m.declare_function(
        "main",
        Signature::new(vec![Type::Ptr, Type::Ptr, Type::Ptr], Some(Type::I64)),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let ops_ptr = b.param(0);
        let counts = b.param(1);
        let totals = b.param(2);
        let zero = b.iconst(Type::I64, 0);
        let one = b.iconst(Type::I64, 1);
        let n = b.iconst(Type::I64, p.ops as i64);
        let nb = b.iconst(Type::I64, buckets as i64);
        let slot_idx = b.iconst(Type::I64, TOTAL_SLOT);
        // Loop-invariant far-memory slot, computed once in the entry block.
        let total_slot = b.gep(totals, slot_idx, 8, 0);

        b.counted_loop(zero, n, 1, |b, i| {
            let oaddr = b.gep(ops_ptr, i, 8, 0);
            let op = b.load(Type::I64, oaddr);
            // Read the invariant slot *before* the call, write it after:
            // without call-aware kills, custody dies in between.
            let t = b.load(Type::I64, total_slot);
            let k = b.call(classify, vec![op], Some(Type::I64));
            let caddr = b.gep(counts, k, 8, 0);
            let c = b.load(Type::I64, caddr);
            let c2 = b.binop(BinOp::Add, c, op);
            b.store(caddr, c2);
            let t2 = b.binop(BinOp::Add, t, one);
            b.store(total_slot, t2);
        });

        // Checksum: bucket sum plus the request count from the slot.
        let acc_slot = b.alloca(8, 8);
        b.store(acc_slot, zero);
        b.counted_loop(zero, nb, 1, |b, j| {
            let caddr = b.gep(counts, j, 8, 0);
            let c = b.load(Type::I64, caddr);
            let a = b.load(Type::I64, acc_slot);
            let a2 = b.binop(BinOp::Add, a, c);
            b.store(acc_slot, a2);
        });
        let acc = b.load(Type::I64, acc_slot);
        let total = b.load(Type::I64, total_slot);
        let out = b.binop(BinOp::Add, acc, total);
        b.ret(Some(out));
    }
    m.verify().expect("serving loop is well-formed");

    WorkloadSpec {
        name: format!("serving/{}x{}", p.ops, buckets),
        module: m,
        inputs: vec![
            InputData::U64(ops),
            InputData::Zeroed(buckets as u64 * 8),
            InputData::Zeroed((TOTAL_SLOT as u64 + 1) * 8),
        ],
        args: vec![ArgSpec::Input(0), ArgSpec::Input(1), ArgSpec::Input(2)],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, RunConfig};

    #[test]
    fn serving_runs_and_checks_out_on_local_memory() {
        let spec = serving(&ServingParams {
            ops: 512,
            buckets: 16,
            seed: 7,
        });
        let out = execute(&spec, &RunConfig::local());
        assert_eq!(Some(out.result.ret), spec.expected);
    }

    #[test]
    fn serving_checks_out_on_trackfm() {
        let spec = serving(&ServingParams {
            ops: 512,
            buckets: 16,
            seed: 7,
        });
        let out = execute(&spec, &RunConfig::trackfm(0.25));
        assert_eq!(Some(out.result.ret), spec.expected);
        let rep = out.report.expect("trackfm compiles");
        // The `classify` call kills custody, so the total slot's read guard
        // and write guard do not fold across it: four sites survive.
        assert_eq!(rep.total_guards() - rep.elision.eliminated, 4);
    }
}
