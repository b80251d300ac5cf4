//! Columnar taxi-trip analytics — the paper's Figs. 14/15 application.
//!
//! §4.5: a Kaggle NYC-taxi analysis on a C dataframe library, 31 GB working
//! set, "many column scan operations, which involve tight loops with almost
//! no temporal locality but a high degree of spatial locality" (Fig. 14),
//! plus "several aggregation operations that involve loops that iterate
//! over small collections of table rows (low object density)" that make
//! indiscriminate chunking a slowdown (Fig. 15).
//!
//! The pipeline below has both phases over synthetic columns:
//!
//! 1. range-filter count over the distance column (scan);
//! 2. predicated sum over the fare column (scan);
//! 3. pickup-hour histogram (scan + tiny indexed writes);
//! 4. per-group fare averages over an index-list grouping whose per-group
//!    row lists are short — the low-density aggregation loops of Fig. 15.

use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use tfm_ir::{BinOp, CastOp, CmpOp, FunctionBuilder, Module, Signature, Type};

/// Analytics parameters.
#[derive(Copy, Clone, Debug)]
pub struct AnalyticsParams {
    /// Number of rows.
    pub rows: usize,
    /// Number of aggregation groups (rows/groups per-group list length;
    /// keep it small for the Fig. 15 effect).
    pub groups: usize,
}

impl Default for AnalyticsParams {
    fn default() -> Self {
        AnalyticsParams {
            rows: 200_000, // ~5.6 MiB of columns
            groups: 16_000,
        }
    }
}

struct Columns {
    dist: Vec<f64>,
    fare: Vec<f64>,
    hour: Vec<u32>,
    pass: Vec<u32>,
    offs: Vec<u64>,
    rows: Vec<u64>,
}

fn synth(p: &AnalyticsParams) -> Columns {
    let n = p.rows;
    let mut dist = Vec::with_capacity(n);
    let mut fare = Vec::with_capacity(n);
    let mut hour = Vec::with_capacity(n);
    let mut pass = Vec::with_capacity(n);
    for i in 0..n {
        let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        dist.push(((h >> 16) & 0x3FF) as f64 / 32.0); // 0..32 miles
        fare.push(2.5 + ((h >> 26) & 0xFFF) as f64 / 64.0);
        hour.push(((h >> 38) % 24) as u32);
        pass.push((1 + (h >> 43) % 6) as u32);
    }
    // Round-robin grouping: group g owns rows g, g+G, g+2G, ...
    let g = p.groups;
    let mut offs = Vec::with_capacity(g + 1);
    let mut rows = Vec::with_capacity(n);
    let mut acc = 0u64;
    for grp in 0..g {
        offs.push(acc);
        let mut r = grp;
        while r < n {
            rows.push(r as u64);
            acc += 1;
            r += g;
        }
    }
    offs.push(acc);
    Columns {
        dist,
        fare,
        hour,
        pass,
        offs,
        rows,
    }
}

fn reference(c: &Columns, n: usize, groups: usize) -> u64 {
    // Q1: count 2 <= dist < 10.
    let mut q1 = 0u64;
    for i in 0..n {
        if c.dist[i] >= 2.0 && c.dist[i] < 10.0 {
            q1 += 1;
        }
    }
    // Q2: sum fare where pass == 2.
    let mut q2 = 0.0f64;
    for i in 0..n {
        if c.pass[i] == 2 {
            q2 += c.fare[i];
        }
    }
    // Q3: hour histogram, then weighted sum.
    let mut hist = [0u64; 24];
    for i in 0..n {
        hist[c.hour[i] as usize] += 1;
    }
    let q3: u64 = hist
        .iter()
        .enumerate()
        .map(|(h, &cnt)| cnt.wrapping_mul(h as u64 + 1))
        .fold(0u64, |a, x| a.wrapping_add(x));
    // Q4: per-group fare sums folded together.
    let mut q4 = 0.0f64;
    for g in 0..groups {
        let mut s = 0.0f64;
        for r in c.offs[g]..c.offs[g + 1] {
            s += c.fare[c.rows[r as usize] as usize];
        }
        q4 += s;
    }
    q1.wrapping_add(q2.to_bits())
        .wrapping_add(q3)
        .wrapping_add(q4.to_bits())
}

/// Builds the analytics workload.
///
/// `main(dist, fare, hour, pass, hist, offs, rows, n, groups) -> i64`
/// returns the combined checksum of all four queries.
pub fn analytics(p: &AnalyticsParams) -> WorkloadSpec {
    let c = synth(p);
    let expected = reference(&c, p.rows, p.groups);

    let mut m = Module::new("analytics");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![
                Type::Ptr,
                Type::Ptr,
                Type::Ptr,
                Type::Ptr,
                Type::Ptr,
                Type::Ptr,
                Type::Ptr,
                Type::I64,
                Type::I64,
            ],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let dist = b.param(0);
        let fare = b.param(1);
        let hour = b.param(2);
        let pass = b.param(3);
        let hist = b.param(4);
        let offs = b.param(5);
        let rows = b.param(6);
        let n = b.param(7);
        let groups = b.param(8);

        let zero = b.iconst(Type::I64, 0);
        let q1 = b.alloca(8, 8);
        let q2 = b.alloca(8, 8);
        let q4 = b.alloca(8, 8);
        let f0 = b.fconst(0.0);
        b.store(q1, zero);
        b.store(q2, f0);
        b.store(q4, f0);

        // Q1: range filter over dist.
        b.counted_loop(zero, n, 1, |b, i| {
            let a = b.gep(dist, i, 8, 0);
            let d = b.load(Type::F64, a);
            let lo = b.fconst(2.0);
            let hi = b.fconst(10.0);
            let ge = b.fcmp(tfm_ir::FCmpOp::Oge, d, lo);
            let lt = b.fcmp(tfm_ir::FCmpOp::Olt, d, hi);
            let both = b.binop(BinOp::And, ge, lt);
            let cur = b.load(Type::I64, q1);
            let nxt = b.binop(BinOp::Add, cur, both);
            b.store(q1, nxt);
        });

        // Q2: predicated fare sum.
        let z1 = b.iconst(Type::I64, 0);
        b.counted_loop(z1, n, 1, |b, i| {
            let pa = b.gep(pass, i, 4, 0);
            let pv = b.load(Type::I32, pa);
            let two = b.iconst(Type::I32, 2);
            let is2 = b.icmp(CmpOp::Eq, pv, two);
            let hit = b.create_block();
            let cont = b.create_block();
            b.cond_br(is2, hit, cont);
            b.switch_to_block(hit);
            let fa = b.gep(fare, i, 8, 0);
            let fv = b.load(Type::F64, fa);
            let cur = b.load(Type::F64, q2);
            let nxt = b.binop(BinOp::Fadd, cur, fv);
            b.store(q2, nxt);
            b.br(cont);
            b.switch_to_block(cont);
        });

        // Q3: hour histogram.
        let z2 = b.iconst(Type::I64, 0);
        b.counted_loop(z2, n, 1, |b, i| {
            let ha = b.gep(hour, i, 4, 0);
            let hv = b.load(Type::I32, ha);
            let hx = b.cast(CastOp::Sext, hv, Type::I64);
            let slot = b.gep(hist, hx, 8, 0);
            let cur = b.load(Type::I64, slot);
            let one = b.iconst(Type::I64, 1);
            let nxt = b.binop(BinOp::Add, cur, one);
            b.store(slot, nxt);
        });
        // Weighted histogram fold.
        let q3v = b.alloca(8, 8);
        b.store(q3v, zero);
        let z3 = b.iconst(Type::I64, 0);
        let c24 = b.iconst(Type::I64, 24);
        b.counted_loop(z3, c24, 1, |b, h| {
            let slot = b.gep(hist, h, 8, 0);
            let cnt = b.load(Type::I64, slot);
            let one = b.iconst(Type::I64, 1);
            let w = b.binop(BinOp::Add, h, one);
            let prod = b.binop(BinOp::Mul, cnt, w);
            let cur = b.load(Type::I64, q3v);
            let nxt = b.binop(BinOp::Add, cur, prod);
            b.store(q3v, nxt);
        });

        // Q4: short per-group aggregation loops (the Fig. 15 villains).
        let z4 = b.iconst(Type::I64, 0);
        b.counted_loop(z4, groups, 1, |b, g| {
            let oa = b.gep(offs, g, 8, 0);
            let ob = b.gep(offs, g, 8, 8);
            let start = b.load(Type::I64, oa);
            let end = b.load(Type::I64, ob);
            // Inner short loop with its own accumulator phi.
            let f00 = b.fconst(0.0);
            let [acc] = b.counted_loop_carried(start, end, 1, [(Type::F64, f00)], |b, r, [acc]| {
                let ra = b.gep(rows, r, 8, 0);
                let ridx = b.load(Type::I64, ra);
                let fa = b.gep(fare, ridx, 8, 0);
                let fv = b.load(Type::F64, fa);
                [b.binop(BinOp::Fadd, acc, fv)]
            });
            let cur = b.load(Type::F64, q4);
            let nxt = b.binop(BinOp::Fadd, cur, acc);
            b.store(q4, nxt);
        });

        // Combine: q1 + bits(q2) + q3 + bits(q4), all wrapping.
        let v1 = b.load(Type::I64, q1);
        let v2f = b.load(Type::F64, q2);
        let v2 = b.cast(CastOp::Bitcast, v2f, Type::I64);
        let v3 = b.load(Type::I64, q3v);
        let v4f = b.load(Type::F64, q4);
        let v4 = b.cast(CastOp::Bitcast, v4f, Type::I64);
        let s1 = b.binop(BinOp::Add, v1, v2);
        let s2 = b.binop(BinOp::Add, s1, v3);
        let s3 = b.binop(BinOp::Add, s2, v4);
        b.ret(Some(s3));
    }
    m.verify().expect("analytics is well-formed");

    WorkloadSpec {
        name: format!("analytics/{}k", p.rows / 1000),
        module: m,
        inputs: vec![
            InputData::F64(c.dist),
            InputData::F64(c.fare),
            InputData::U32(c.hour),
            InputData::U32(c.pass),
            InputData::Zeroed(24 * 8),
            InputData::U64(c.offs),
            InputData::U64(c.rows),
        ],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Input(3),
            ArgSpec::Input(4),
            ArgSpec::Input(5),
            ArgSpec::Input(6),
            ArgSpec::Const(p.rows as i64),
            ArgSpec::Const(p.groups as i64),
        ],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{collect_profile, execute, execute_with_profile, RunConfig};
    use trackfm::ChunkingMode;

    fn small() -> AnalyticsParams {
        AnalyticsParams {
            rows: 12_000,
            groups: 1_000,
        }
    }

    #[test]
    fn checksum_matches_everywhere() {
        let spec = analytics(&small());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.25));
        execute(&spec, &RunConfig::fastswap(0.25));
        execute(&spec, &RunConfig::aifm(0.25));
    }

    #[test]
    fn selective_chunking_beats_all_loops() {
        // Fig. 15: chunking the short per-group loops hurts.
        let spec = analytics(&small());
        let profile = collect_profile(&spec);
        let mut all = RunConfig::trackfm(0.5);
        all.compiler.chunking = ChunkingMode::AllLoops;
        let mut model = RunConfig::trackfm(0.5);
        model.compiler.chunking = ChunkingMode::CostModel;
        let r_all = execute(&spec, &all);
        let r_model = execute_with_profile(&spec, &model, Some(&profile));
        assert!(
            r_model.result.stats.cycles < r_all.result.stats.cycles,
            "model-filtered chunking must beat indiscriminate chunking"
        );
        assert!(r_model.report.unwrap().chunking.skipped_low_benefit > 0);
    }
}
