//! k-means clustering — the paper's Fig. 8 workload.
//!
//! §4.2: "we automatically transformed a k-means benchmark, which contains
//! many loops for which it would be detrimental to apply the loop chunking
//! transformation [...] k-means has many nested loops with a low object
//! density. Such nested loops amplify the cost of loop chunking."
//!
//! The structure below has exactly that character: the distance computation
//! iterates over `dims`-element rows (tens of bytes) inside loops entered
//! once per point × centroid, so a chunk stream set up for an 8-iteration
//! loop pays a locality-invariant guard it can never amortize.

use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use tfm_ir::{BinOp, CmpOp, FCmpOp, FunctionBuilder, Module, Signature, Type};

/// k-means parameters.
#[derive(Copy, Clone, Debug)]
pub struct KmeansParams {
    /// Number of points.
    pub points: usize,
    /// Dimensions per point (small → low object density).
    pub dims: usize,
    /// Number of centroids.
    pub k: usize,
    /// Lloyd iterations.
    pub iters: usize,
}

impl Default for KmeansParams {
    fn default() -> Self {
        KmeansParams {
            points: 30_000,
            dims: 8,
            k: 8,
            iters: 2,
        }
    }
}

fn synth_points(p: &KmeansParams) -> Vec<f64> {
    // Deterministic blobs around k anchors (no RNG dependency needed).
    let mut out = Vec::with_capacity(p.points * p.dims);
    for i in 0..p.points {
        let cluster = i % p.k;
        for j in 0..p.dims {
            let anchor = (cluster * 10 + j) as f64;
            let jitter = ((i.wrapping_mul(2654435761) >> 8) & 0xFF) as f64 / 256.0;
            out.push(anchor + jitter);
        }
    }
    out
}

fn init_centroids(p: &KmeansParams, points: &[f64]) -> Vec<f64> {
    // First k points.
    points[..p.k * p.dims].to_vec()
}

/// Host mirror of the IR program (bit-exact: same operation order).
fn reference(p: &KmeansParams, points: &[f64], centroids_init: &[f64]) -> u64 {
    let (n, d, k) = (p.points, p.dims, p.k);
    let mut centroids = centroids_init.to_vec();
    let mut checksum: i64 = 0;
    for _ in 0..p.iters {
        let mut sums = vec![0.0f64; k * d];
        let mut counts = vec![0i64; k];
        for i in 0..n {
            let row = &points[i * d..(i + 1) * d];
            let mut best = 0i64;
            let mut bestd = f64::INFINITY;
            for c in 0..k {
                let crow = &centroids[c * d..(c + 1) * d];
                let mut d2 = 0.0;
                for j in 0..d {
                    let diff = row[j] - crow[j];
                    d2 += diff * diff;
                }
                if d2 < bestd {
                    bestd = d2;
                    best = c as i64;
                }
            }
            counts[best as usize] += 1;
            for j in 0..d {
                sums[best as usize * d + j] += row[j];
            }
            checksum = checksum.wrapping_add(best);
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centroids[c * d + j] = sums[c * d + j] / counts[c] as f64;
                }
            }
        }
    }
    checksum as u64
}

/// Builds the k-means workload.
///
/// `main(points, centroids, sums, counts, n, d, k, iters) -> i64` returns
/// the sum of assigned cluster ids across all iterations.
pub fn kmeans(p: &KmeansParams) -> WorkloadSpec {
    let pts = synth_points(p);
    let cents = init_centroids(p, &pts);
    let expected = reference(p, &pts, &cents);

    let mut m = Module::new("kmeans");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![
                Type::Ptr, // points
                Type::Ptr, // centroids
                Type::Ptr, // sums scratch (k*d f64)
                Type::Ptr, // counts scratch (k i64)
                Type::I64, // n
                Type::I64, // d
                Type::I64, // k
                Type::I64, // iters
            ],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let points = b.param(0);
        let centroids = b.param(1);
        let sums = b.param(2);
        let counts = b.param(3);
        let n = b.param(4);
        let d = b.param(5);
        let k = b.param(6);
        let iters = b.param(7);

        let zero = b.iconst(Type::I64, 0);
        let checksum = b.alloca(8, 8);
        b.store(checksum, zero);
        // Locals hoisted to the entry block, as clang would emit them
        // (allocas in loop bodies would grow the stack per iteration).
        let best = b.alloca(8, 8);
        let bestd = b.alloca(8, 8);
        let kd = b.binop(BinOp::Mul, k, d);

        b.counted_loop(zero, iters, 1, |b, _it| {
            // Zero scratch.
            let z0 = b.iconst(Type::I64, 0);
            let f0 = b.fconst(0.0);
            b.counted_loop(z0, kd, 1, |b, j| {
                let a = b.gep(sums, j, 8, 0);
                b.store(a, f0);
            });
            let z1 = b.iconst(Type::I64, 0);
            b.counted_loop(z1, k, 1, |b, c| {
                let a = b.gep(counts, c, 8, 0);
                b.store(a, z1);
            });

            // Assignment step.
            let z2 = b.iconst(Type::I64, 0);
            b.counted_loop(z2, n, 1, |b, i| {
                let id8 = b.binop(BinOp::Mul, i, d);
                let row = b.gep(points, id8, 8, 0);
                let zz = b.iconst(Type::I64, 0);
                let inf = b.fconst(f64::INFINITY);
                b.store(best, zz);
                b.store(bestd, inf);
                let z3 = b.iconst(Type::I64, 0);
                b.counted_loop(z3, k, 1, |b, c| {
                    let cd = b.binop(BinOp::Mul, c, d);
                    let crow = b.gep(centroids, cd, 8, 0);
                    // Inner distance loop: the low-density nested loop.
                    let z4 = b.iconst(Type::I64, 0);
                    let f0 = b.fconst(0.0);
                    let [acc] =
                        b.counted_loop_carried(z4, d, 1, [(Type::F64, f0)], |b, j, [acc]| {
                            let pa = b.gep(row, j, 8, 0);
                            let ca = b.gep(crow, j, 8, 0);
                            let pv = b.load(Type::F64, pa);
                            let cv = b.load(Type::F64, ca);
                            let diff = b.binop(BinOp::Fsub, pv, cv);
                            let sq = b.binop(BinOp::Fmul, diff, diff);
                            [b.binop(BinOp::Fadd, acc, sq)]
                        });
                    // if acc < bestd { bestd = acc; best = c }
                    let cur = b.load(Type::F64, bestd);
                    let lt = b.fcmp(FCmpOp::Olt, acc, cur);
                    let upd = b.create_block();
                    let cont = b.create_block();
                    b.cond_br(lt, upd, cont);
                    b.switch_to_block(upd);
                    b.store(bestd, acc);
                    b.store(best, c);
                    b.br(cont);
                    b.switch_to_block(cont);
                });
                // Accumulate into the winning cluster.
                let bi = b.load(Type::I64, best);
                let ca = b.gep(counts, bi, 8, 0);
                let cv = b.load(Type::I64, ca);
                let one = b.iconst(Type::I64, 1);
                let cv2 = b.binop(BinOp::Add, cv, one);
                b.store(ca, cv2);
                let bd = b.binop(BinOp::Mul, bi, d);
                let srow = b.gep(sums, bd, 8, 0);
                let z5 = b.iconst(Type::I64, 0);
                b.counted_loop(z5, d, 1, |b, j| {
                    let pa = b.gep(row, j, 8, 0);
                    let sa = b.gep(srow, j, 8, 0);
                    let pv = b.load(Type::F64, pa);
                    let sv = b.load(Type::F64, sa);
                    let sv2 = b.binop(BinOp::Fadd, sv, pv);
                    b.store(sa, sv2);
                });
                let cs = b.load(Type::I64, checksum);
                let cs2 = b.binop(BinOp::Add, cs, bi);
                b.store(checksum, cs2);
            });

            // Update step.
            let z6 = b.iconst(Type::I64, 0);
            b.counted_loop(z6, k, 1, |b, c| {
                let ca = b.gep(counts, c, 8, 0);
                let cnt = b.load(Type::I64, ca);
                let zz = b.iconst(Type::I64, 0);
                let nonzero = b.icmp(CmpOp::Sgt, cnt, zz);
                let doit = b.create_block();
                let skip = b.create_block();
                b.cond_br(nonzero, doit, skip);
                b.switch_to_block(doit);
                let cntf = b.cast(tfm_ir::CastOp::SiToFp, cnt, Type::F64);
                let cd = b.binop(BinOp::Mul, c, d);
                let srow = b.gep(sums, cd, 8, 0);
                let crow = b.gep(centroids, cd, 8, 0);
                let z7 = b.iconst(Type::I64, 0);
                b.counted_loop(z7, d, 1, |b, j| {
                    let sa = b.gep(srow, j, 8, 0);
                    let caab = b.gep(crow, j, 8, 0);
                    let sv = b.load(Type::F64, sa);
                    let mean = b.binop(BinOp::Fdiv, sv, cntf);
                    b.store(caab, mean);
                });
                b.br(skip);
                b.switch_to_block(skip);
            });
        });

        let out = b.load(Type::I64, checksum);
        b.ret(Some(out));
    }
    m.verify().expect("kmeans is well-formed");

    WorkloadSpec {
        name: format!("kmeans/{}x{}", p.points, p.dims),
        module: m,
        inputs: vec![
            InputData::F64(pts),
            InputData::F64(cents),
            InputData::Zeroed((p.k * p.dims * 8) as u64),
            InputData::Zeroed((p.k * 8) as u64),
        ],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Input(3),
            ArgSpec::Const(p.points as i64),
            ArgSpec::Const(p.dims as i64),
            ArgSpec::Const(p.k as i64),
            ArgSpec::Const(p.iters as i64),
        ],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{collect_profile, execute, execute_with_profile, RunConfig};
    use trackfm::ChunkingMode;

    fn small() -> KmeansParams {
        KmeansParams {
            points: 2_000,
            dims: 8,
            k: 4,
            iters: 2,
        }
    }

    #[test]
    fn checksum_matches_reference_everywhere() {
        let spec = kmeans(&small());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.5));
        execute(&spec, &RunConfig::fastswap(0.5));
    }

    #[test]
    fn indiscriminate_chunking_hurts_kmeans() {
        // The Fig. 8 mechanism: all-loops chunking pays locality guards in
        // 8-iteration inner loops.
        let spec = kmeans(&small());
        let profile = collect_profile(&spec);

        let mut all = RunConfig::trackfm(1.0);
        all.compiler.chunking = ChunkingMode::AllLoops;
        let mut filtered = RunConfig::trackfm(1.0);
        filtered.compiler.chunking = ChunkingMode::CostModel;
        let mut off = RunConfig::trackfm(1.0);
        off.compiler.chunking = ChunkingMode::Off;

        let r_all = execute(&spec, &all);
        let r_filtered = execute_with_profile(&spec, &filtered, Some(&profile));
        let r_off = execute(&spec, &off);

        let c_all = r_all.result.stats.cycles as f64;
        let c_filtered = r_filtered.result.stats.cycles as f64;
        let c_off = r_off.result.stats.cycles as f64;
        assert!(
            c_all > 1.5 * c_off,
            "all-loops chunking should slow k-means down: {c_all} vs {c_off}"
        );
        assert!(
            c_filtered < c_all / 1.5,
            "profile-guided filter should rescue it: {c_filtered} vs {c_all}"
        );
        // The filter must actually have skipped streams.
        let rep = r_filtered.report.unwrap();
        assert!(rep.chunking.skipped_low_benefit > 0);
    }
}
