//! NAS-like kernels — the paper's Fig. 17 benchmarks.
//!
//! §4.5 runs serial C++ NAS benchmarks CG, FT, IS, MG and SP (Table 3) at a
//! 25% local-memory constraint. We reproduce each kernel's *access-pattern
//! character* (what the figure actually measures) at MB scale:
//!
//! * **CG** — sparse matrix-vector products: strided walks over the CSR
//!   arrays plus irregular gathers from the dense vector;
//! * **FT** — deeply nested tight stencil passes with strong temporal reuse
//!   (Fastswap-friendly) whose register-computed indices confound the
//!   induction-variable analysis, plus heavy source-level redundancy —
//!   the Fig. 17b O1 target;
//! * **IS** — bucket sort: sequential key scans plus scattered writes;
//! * **MG** — multigrid V-cycles: 3-point smoothing sweeps across grid
//!   levels;
//! * **SP** — per-line penta-diagonal-style forward recurrences, also with
//!   redundant loads and register-computed indices (the second Fig. 17b
//!   target).

use crate::spec::{ArgSpec, InputData, WorkloadSpec};
use tfm_ir::{BinOp, CastOp, FunctionBuilder, Module, Signature, Type, Value};

/// Scale factor applied to default sizes (1 = benchmark scale; tests use
/// smaller).
#[derive(Copy, Clone, Debug)]
pub struct NasParams {
    /// Linear size divisor (2 → roughly 1/2 the elements per dimension).
    pub shrink: usize,
}

impl Default for NasParams {
    fn default() -> Self {
        NasParams { shrink: 1 }
    }
}

/// All five kernels at the given scale, for the Fig. 17 sweep.
pub fn all(p: &NasParams) -> Vec<WorkloadSpec> {
    vec![cg(p), ft(p), is(p), mg(p), sp(p)]
}

/// Returns the bits of the sum of the `n` f64s at `arr`: every kernel's
/// checksum.
fn ret_f64_sum(b: &mut FunctionBuilder<'_>, arr: Value, n: Value) {
    let zero = b.iconst(Type::I64, 0);
    let f0 = b.fconst(0.0);
    let [acc] = b.counted_loop_carried(zero, n, 1, [(Type::F64, f0)], |b, i, [acc]| {
        let addr = b.gep(arr, i, 8, 0);
        let v = b.load(Type::F64, addr);
        [b.binop(BinOp::Fadd, acc, v)]
    });
    let bits = b.cast(CastOp::Bitcast, acc, Type::I64);
    b.ret(Some(bits));
}

// ======================================================================
// CG — conjugate-gradient-style sparse mat-vec.
// ======================================================================

/// CG-like kernel: `T` sparse mat-vec products with a scaled copy-back.
pub fn cg(p: &NasParams) -> WorkloadSpec {
    let n = 30_000 / p.shrink;
    let per_row = 12usize;
    let iters = 2i64;
    let nnz = n * per_row;

    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(nnz);
    let mut vals = Vec::with_capacity(nnz);
    for r in 0..n {
        rowptr.push((r * per_row) as u64);
        for j in 0..per_row {
            colidx.push(((r * 31 + j * j * 7 + 1) % n) as u64);
            vals.push(1.0 + ((r + j) % 13) as f64 / 13.0);
        }
    }
    rowptr.push(nnz as u64);
    let x0: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 / 7.0).collect();

    // Host mirror.
    let expected = {
        let mut x = x0.clone();
        let mut y = vec![0.0f64; n];
        for _ in 0..iters {
            for r in 0..n {
                let mut acc = 0.0f64;
                for c in rowptr[r] as usize..rowptr[r + 1] as usize {
                    acc += vals[c] * x[colidx[c] as usize];
                }
                y[r] = acc;
            }
            for i in 0..n {
                x[i] = y[i] * 0.001;
            }
        }
        let mut s = 0.0f64;
        for v in y.iter().take(n) {
            s += v;
        }
        s.to_bits()
    };

    let mut m = Module::new("nas_cg");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![
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
        let rowptr_p = b.param(0);
        let colidx_p = b.param(1);
        let vals_p = b.param(2);
        let x_p = b.param(3);
        let y_p = b.param(4);
        let nv = b.param(5);
        let it = b.param(6);
        let zero = b.iconst(Type::I64, 0);

        b.counted_loop(zero, it, 1, |b, _t| {
            let z0 = b.iconst(Type::I64, 0);
            b.counted_loop(z0, nv, 1, |b, r| {
                let pa = b.gep(rowptr_p, r, 8, 0);
                let pb = b.gep(rowptr_p, r, 8, 8);
                let start = b.load(Type::I64, pa);
                let end = b.load(Type::I64, pb);
                let f0 = b.fconst(0.0);
                let [acc] =
                    b.counted_loop_carried(start, end, 1, [(Type::F64, f0)], |b, c, [acc]| {
                        let va = b.gep(vals_p, c, 8, 0);
                        let ca = b.gep(colidx_p, c, 8, 0);
                        let v = b.load(Type::F64, va);
                        let col = b.load(Type::I64, ca);
                        let xa = b.gep(x_p, col, 8, 0);
                        let xv = b.load(Type::F64, xa);
                        let prod = b.binop(BinOp::Fmul, v, xv);
                        [b.binop(BinOp::Fadd, acc, prod)]
                    });
                let ya = b.gep(y_p, r, 8, 0);
                b.store(ya, acc);
            });
            let z1 = b.iconst(Type::I64, 0);
            let scale = b.fconst(0.001);
            b.counted_loop(z1, nv, 1, |b, i| {
                let ya = b.gep(y_p, i, 8, 0);
                let xa = b.gep(x_p, i, 8, 0);
                let yv = b.load(Type::F64, ya);
                let nx = b.binop(BinOp::Fmul, yv, scale);
                b.store(xa, nx);
            });
        });
        ret_f64_sum(&mut b, y_p, nv);
    }
    m.verify().expect("cg is well-formed");

    WorkloadSpec {
        name: format!("nas-cg/{n}"),
        module: m,
        inputs: vec![
            InputData::U64(rowptr),
            InputData::U64(colidx),
            InputData::F64(vals),
            InputData::F64(x0),
            InputData::Zeroed(n as u64 * 8),
        ],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Input(3),
            ArgSpec::Input(4),
            ArgSpec::Const(n as i64),
            ArgSpec::Const(iters),
        ],
        expected: Some(expected),
    }
}

// ======================================================================
// FT — stencil passes with temporal reuse and redundant loads.
// ======================================================================

/// FT-like kernel: ping-pong 3-point stencil passes over a 3-D grid with
/// register-computed indices (defeating IV analysis) and source-level
/// redundant loads (the O1 pre-pipeline target).
pub fn ft(p: &NasParams) -> WorkloadSpec {
    let nx = 48 / p.shrink.min(8);
    let (ny, nz) = (nx, nx);
    let n = nx * ny * nz;
    let iters = 2i64;
    let g0: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) / 97.0).collect();

    // Host mirror: two passes per iteration (a→b then b→a).
    let expected = {
        let mut a = g0.clone();
        let mut bb = vec![0.0f64; n];
        let pass = |src: &[f64], dst: &mut [f64]| {
            for z in 0..nz {
                for y in 0..ny {
                    let rowbase = (z * ny + y) * nx;
                    for x in 1..nx - 1 {
                        let idx = rowbase + x;
                        let v = src[idx];
                        let l = src[idx - 1];
                        let r = src[idx + 1];
                        dst[idx] = v * 0.5 + (l + r) * 0.25 + v * 0.1 - v * 0.05;
                    }
                    dst[rowbase] = src[rowbase];
                    dst[rowbase + nx - 1] = src[rowbase + nx - 1];
                }
            }
        };
        for _ in 0..iters {
            pass(&a, &mut bb);
            pass(&bb, &mut a);
        }
        let mut s = 0.0f64;
        for v in &a {
            s += v;
        }
        s.to_bits()
    };

    let mut m = Module::new("nas_ft");
    // pass(src, dst, nx, ny, nz)
    let pass_id = m.declare_function(
        "pass",
        Signature::new(
            vec![Type::Ptr, Type::Ptr, Type::I64, Type::I64, Type::I64],
            None,
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(pass_id));
        let src = b.param(0);
        let dst = b.param(1);
        let nxv = b.param(2);
        let nyv = b.param(3);
        let nzv = b.param(4);
        let zero = b.iconst(Type::I64, 0);
        b.counted_loop(zero, nzv, 1, |b, z| {
            let z1 = b.iconst(Type::I64, 0);
            b.counted_loop(z1, nyv, 1, |b, y| {
                let zy = b.binop(BinOp::Mul, z, nyv);
                let zyy = b.binop(BinOp::Add, zy, y);
                let rowbase = b.binop(BinOp::Mul, zyy, nxv);
                let one = b.iconst(Type::I64, 1);
                let top = b.binop(BinOp::Sub, nxv, one);
                b.counted_loop(one, top, 1, |b, x| {
                    // idx is a register sum — the IV analysis cannot prove a
                    // stride, so every access below gets a full guard.
                    let idx = b.binop(BinOp::Add, rowbase, x);
                    // Redundant loads, exactly as naive source would read.
                    let a1 = b.gep(src, idx, 8, 0);
                    let v1 = b.load(Type::F64, a1);
                    let a2 = b.gep(src, idx, 8, 0);
                    let v2 = b.load(Type::F64, a2);
                    let a3 = b.gep(src, idx, 8, 0);
                    let v3 = b.load(Type::F64, a3);
                    let al = b.gep(src, idx, 8, -8);
                    let l = b.load(Type::F64, al);
                    let ar = b.gep(src, idx, 8, 8);
                    let r = b.load(Type::F64, ar);
                    // Naive source re-reads the neighbors for the average.
                    let al2 = b.gep(src, idx, 8, -8);
                    let l2 = b.load(Type::F64, al2);
                    let ar2 = b.gep(src, idx, 8, 8);
                    let r2 = b.load(Type::F64, ar2);
                    let half = b.fconst(0.5);
                    let quarter = b.fconst(0.25);
                    let tenth = b.fconst(0.1);
                    let twentieth = b.fconst(0.05);
                    let t1 = b.binop(BinOp::Fmul, v1, half);
                    let lr = b.binop(BinOp::Fadd, l, r);
                    let t2 = b.binop(BinOp::Fmul, lr, quarter);
                    let t3 = b.binop(BinOp::Fmul, v2, tenth);
                    let t4 = b.binop(BinOp::Fmul, v3, twentieth);
                    let lr2 = b.binop(BinOp::Fadd, l2, r2);
                    let zero_f = b.fconst(0.0);
                    let t5 = b.binop(BinOp::Fmul, lr2, zero_f);
                    let s1 = b.binop(BinOp::Fadd, t1, t2);
                    let s2 = b.binop(BinOp::Fadd, s1, t3);
                    let s2b = b.binop(BinOp::Fadd, s2, t5);
                    let s3 = b.binop(BinOp::Fsub, s2b, t4);
                    let da = b.gep(dst, idx, 8, 0);
                    b.store(da, s3);
                });
                // Copy row edges.
                let ea = b.gep(src, rowbase, 8, 0);
                let ev = b.load(Type::F64, ea);
                let da = b.gep(dst, rowbase, 8, 0);
                b.store(da, ev);
                let last = b.binop(BinOp::Add, rowbase, top);
                let ea2 = b.gep(src, last, 8, 0);
                let ev2 = b.load(Type::F64, ea2);
                let da2 = b.gep(dst, last, 8, 0);
                b.store(da2, ev2);
            });
        });
        b.ret(None);
    }
    let main_id = m.declare_function(
        "main",
        Signature::new(
            vec![
                Type::Ptr,
                Type::Ptr,
                Type::I64,
                Type::I64,
                Type::I64,
                Type::I64,
            ],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(main_id));
        let a = b.param(0);
        let bb = b.param(1);
        let nxv = b.param(2);
        let nyv = b.param(3);
        let nzv = b.param(4);
        let it = b.param(5);
        let zero = b.iconst(Type::I64, 0);
        b.counted_loop(zero, it, 1, |b, _t| {
            b.call(pass_id, vec![a, bb, nxv, nyv, nzv], None);
            b.call(pass_id, vec![bb, a, nxv, nyv, nzv], None);
        });
        // Checksum over a.
        let zy = b.binop(BinOp::Mul, nzv, nyv);
        let n_total = b.binop(BinOp::Mul, zy, nxv);
        ret_f64_sum(&mut b, a, n_total);
    }
    m.verify().expect("ft is well-formed");

    WorkloadSpec {
        name: format!("nas-ft/{nx}^3"),
        module: m,
        inputs: vec![InputData::F64(g0), InputData::Zeroed(n as u64 * 8)],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Const(nx as i64),
            ArgSpec::Const(ny as i64),
            ArgSpec::Const(nz as i64),
            ArgSpec::Const(iters),
        ],
        expected: Some(expected),
    }
}

// ======================================================================
// IS — bucket sort.
// ======================================================================

/// IS-like kernel: histogram, exclusive prefix sum, scatter.
pub fn is(p: &NasParams) -> WorkloadSpec {
    let n = 600_000 / p.shrink;
    let buckets = 1024usize;
    let shift = 32 - 10; // bucket = key >> 22
    let keys: Vec<u32> = (0..n)
        .map(|i| ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13) as u32)
        .collect();

    let expected = {
        let mut cnt = vec![0u64; buckets];
        for &k in &keys {
            cnt[(k >> shift) as usize] += 1;
        }
        let mut acc = 0u64;
        let mut pos = vec![0u64; buckets];
        for b in 0..buckets {
            pos[b] = acc;
            acc += cnt[b];
        }
        let mut out = vec![0u32; n];
        for &k in &keys {
            let b = (k >> shift) as usize;
            out[pos[b] as usize] = k;
            pos[b] += 1;
        }
        let mut s = 0u64;
        for (i, &v) in out.iter().enumerate() {
            s = s.wrapping_add((v as u64).wrapping_mul(i as u64 & 0xFF));
        }
        s
    };

    let mut m = Module::new("nas_is");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![Type::Ptr, Type::Ptr, Type::Ptr, Type::I64, Type::I64],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let keys_p = b.param(0);
        let cnt_p = b.param(1); // buckets u64 counters, reused as positions
        let out_p = b.param(2);
        let nv = b.param(3);
        let nb = b.param(4);
        let zero = b.iconst(Type::I64, 0);
        let shift_c = b.iconst(Type::I64, shift as i64);

        // Count.
        b.counted_loop(zero, nv, 1, |b, i| {
            let ka = b.gep(keys_p, i, 4, 0);
            let k32 = b.load(Type::I32, ka);
            let k = b.cast(CastOp::Zext, k32, Type::I64);
            let bi = b.binop(BinOp::Lshr, k, shift_c);
            let ca = b.gep(cnt_p, bi, 8, 0);
            let cv = b.load(Type::I64, ca);
            let one = b.iconst(Type::I64, 1);
            let cv2 = b.binop(BinOp::Add, cv, one);
            b.store(ca, cv2);
        });
        // Exclusive prefix sum (in place: cnt becomes start positions).
        let racc = b.alloca(8, 8);
        b.store(racc, zero);
        let z1 = b.iconst(Type::I64, 0);
        b.counted_loop(z1, nb, 1, |b, bi| {
            let ca = b.gep(cnt_p, bi, 8, 0);
            let cv = b.load(Type::I64, ca);
            let run = b.load(Type::I64, racc);
            b.store(ca, run);
            let run2 = b.binop(BinOp::Add, run, cv);
            b.store(racc, run2);
        });
        // Scatter.
        let z2 = b.iconst(Type::I64, 0);
        b.counted_loop(z2, nv, 1, |b, i| {
            let ka = b.gep(keys_p, i, 4, 0);
            let k32 = b.load(Type::I32, ka);
            let k = b.cast(CastOp::Zext, k32, Type::I64);
            let bi = b.binop(BinOp::Lshr, k, shift_c);
            let ca = b.gep(cnt_p, bi, 8, 0);
            let posn = b.load(Type::I64, ca);
            let oa = b.gep(out_p, posn, 4, 0);
            b.store(oa, k32);
            let one = b.iconst(Type::I64, 1);
            let p2 = b.binop(BinOp::Add, posn, one);
            b.store(ca, p2);
        });
        // Checksum.
        let sum = b.alloca(8, 8);
        b.store(sum, zero);
        let z3 = b.iconst(Type::I64, 0);
        b.counted_loop(z3, nv, 1, |b, i| {
            let oa = b.gep(out_p, i, 4, 0);
            let v32 = b.load(Type::I32, oa);
            let v = b.cast(CastOp::Zext, v32, Type::I64);
            let mask = b.iconst(Type::I64, 0xFF);
            let w = b.binop(BinOp::And, i, mask);
            let prod = b.binop(BinOp::Mul, v, w);
            let s = b.load(Type::I64, sum);
            let s2 = b.binop(BinOp::Add, s, prod);
            b.store(sum, s2);
        });
        let out = b.load(Type::I64, sum);
        b.ret(Some(out));
    }
    m.verify().expect("is is well-formed");

    WorkloadSpec {
        name: format!("nas-is/{n}"),
        module: m,
        inputs: vec![
            InputData::U32(keys),
            InputData::Zeroed(buckets as u64 * 8),
            InputData::Zeroed(n as u64 * 4),
        ],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Const(n as i64),
            ArgSpec::Const(buckets as i64),
        ],
        expected: Some(expected),
    }
}

// ======================================================================
// MG — multigrid V-cycles.
// ======================================================================

/// MG-like kernel: 1-D V-cycles (smooth → restrict → smooth → prolong →
/// smooth) over a fine and a coarse grid.
pub fn mg(p: &NasParams) -> WorkloadSpec {
    let n = 300_000 / p.shrink;
    let nc = n / 2;
    let cycles = 2i64;
    let g0: Vec<f64> = (0..n).map(|i| ((i % 31) as f64) / 31.0).collect();

    let expected = {
        let mut u = g0.clone();
        let mut c = vec![0.0f64; nc];
        let smooth = |v: &mut [f64], len: usize| {
            for i in 1..len - 1 {
                v[i] = 0.5 * v[i] + 0.25 * (v[i - 1] + v[i + 1]);
            }
        };
        for _ in 0..cycles {
            smooth(&mut u, n);
            for i in 0..nc {
                c[i] = u[2 * i];
            }
            smooth(&mut c, nc);
            for i in 0..nc {
                u[2 * i] += 0.5 * c[i];
            }
            smooth(&mut u, n);
        }
        let mut s = 0.0f64;
        for v in &u {
            s += v;
        }
        s.to_bits()
    };

    let mut m = Module::new("nas_mg");
    let smooth_id = m.declare_function("smooth", Signature::new(vec![Type::Ptr, Type::I64], None));
    {
        let mut b = FunctionBuilder::new(m.function_mut(smooth_id));
        let u = b.param(0);
        let len = b.param(1);
        let one = b.iconst(Type::I64, 1);
        let top = b.binop(BinOp::Sub, len, one);
        b.counted_loop(one, top, 1, |b, i| {
            let am = b.gep(u, i, 8, -8);
            let a0 = b.gep(u, i, 8, 0);
            let ap = b.gep(u, i, 8, 8);
            let vm = b.load(Type::F64, am);
            let v0 = b.load(Type::F64, a0);
            let vp = b.load(Type::F64, ap);
            let half = b.fconst(0.5);
            let quarter = b.fconst(0.25);
            let t1 = b.binop(BinOp::Fmul, v0, half);
            let nb = b.binop(BinOp::Fadd, vm, vp);
            let t2 = b.binop(BinOp::Fmul, nb, quarter);
            let nv = b.binop(BinOp::Fadd, t1, t2);
            b.store(a0, nv);
        });
        b.ret(None);
    }
    let main_id = m.declare_function(
        "main",
        Signature::new(
            vec![Type::Ptr, Type::Ptr, Type::I64, Type::I64, Type::I64],
            Some(Type::I64),
        ),
    );
    {
        let mut b = FunctionBuilder::new(m.function_mut(main_id));
        let u = b.param(0);
        let c = b.param(1);
        let nv = b.param(2);
        let ncv = b.param(3);
        let cyc = b.param(4);
        let zero = b.iconst(Type::I64, 0);
        b.counted_loop(zero, cyc, 1, |b, _t| {
            b.call(smooth_id, vec![u, nv], None);
            // Restrict: c[i] = u[2i].
            let z1 = b.iconst(Type::I64, 0);
            b.counted_loop(z1, ncv, 1, |b, i| {
                let two = b.iconst(Type::I64, 2);
                let i2 = b.binop(BinOp::Mul, i, two);
                let ua = b.gep(u, i2, 8, 0);
                let uv = b.load(Type::F64, ua);
                let ca = b.gep(c, i, 8, 0);
                b.store(ca, uv);
            });
            b.call(smooth_id, vec![c, ncv], None);
            // Prolong: u[2i] += 0.5 * c[i].
            let z2 = b.iconst(Type::I64, 0);
            b.counted_loop(z2, ncv, 1, |b, i| {
                let two = b.iconst(Type::I64, 2);
                let i2 = b.binop(BinOp::Mul, i, two);
                let ca = b.gep(c, i, 8, 0);
                let cv = b.load(Type::F64, ca);
                let half = b.fconst(0.5);
                let d = b.binop(BinOp::Fmul, half, cv);
                let ua = b.gep(u, i2, 8, 0);
                let uv = b.load(Type::F64, ua);
                let s = b.binop(BinOp::Fadd, uv, d);
                b.store(ua, s);
            });
            b.call(smooth_id, vec![u, nv], None);
        });
        ret_f64_sum(&mut b, u, nv);
    }
    m.verify().expect("mg is well-formed");

    WorkloadSpec {
        name: format!("nas-mg/{n}"),
        module: m,
        inputs: vec![InputData::F64(g0), InputData::Zeroed(nc as u64 * 8)],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Const(n as i64),
            ArgSpec::Const(nc as i64),
            ArgSpec::Const(cycles),
        ],
        expected: Some(expected),
    }
}

// ======================================================================
// SP — penta-diagonal-style line sweeps.
// ======================================================================

/// SP-like kernel: forward recurrences along independent lines, with
/// redundant coefficient loads and register-computed indices (the second
/// Fig. 17b O1 target).
pub fn sp(p: &NasParams) -> WorkloadSpec {
    let lines = 250 / p.shrink.min(5);
    let len = 1000usize;
    let total = lines * len;
    let a1: Vec<f64> = (0..total).map(|i| 0.1 + (i % 7) as f64 / 70.0).collect();
    let a2: Vec<f64> = (0..total).map(|i| 0.05 + (i % 5) as f64 / 100.0).collect();
    let bb: Vec<f64> = (0..total).map(|i| 1.0 + (i % 11) as f64 / 11.0).collect();

    let expected = {
        let mut x = vec![0.0f64; total];
        for l in 0..lines {
            let base = l * len;
            x[base] = bb[base];
            x[base + 1] = bb[base + 1];
            for i in 2..len {
                let t1 = a1[base + i];
                let t2 = a2[base + i];
                let v = bb[base + i] - t1 * x[base + i - 1] - t2 * x[base + i - 2];
                let denom = 1.0 / (t1 + t2 + 2.0);
                x[base + i] = v * denom;
            }
        }
        let mut s = 0.0f64;
        for v in &x {
            s += v;
        }
        s.to_bits()
    };

    let mut m = Module::new("nas_sp");
    let id = m.declare_function(
        "main",
        Signature::new(
            vec![
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
        let a1_p = b.param(0);
        let a2_p = b.param(1);
        let bb_p = b.param(2);
        let x_p = b.param(3);
        let lv = b.param(4);
        let nv = b.param(5);
        let zero = b.iconst(Type::I64, 0);

        b.counted_loop(zero, lv, 1, |b, l| {
            let base = b.binop(BinOp::Mul, l, nv);
            // x[base] = b[base]; x[base+1] = b[base+1].
            let ba = b.gep(bb_p, base, 8, 0);
            let bv = b.load(Type::F64, ba);
            let xa = b.gep(x_p, base, 8, 0);
            b.store(xa, bv);
            let ba1 = b.gep(bb_p, base, 8, 8);
            let bv1 = b.load(Type::F64, ba1);
            let xa1 = b.gep(x_p, base, 8, 8);
            b.store(xa1, bv1);
            let two = b.iconst(Type::I64, 2);
            b.counted_loop(two, nv, 1, |b, i| {
                // Register-computed index: base + i (defeats IV analysis).
                let idx = b.binop(BinOp::Add, base, i);
                // Redundant coefficient loads (O1 folds them).
                let aa1 = b.gep(a1_p, idx, 8, 0);
                let t1 = b.load(Type::F64, aa1);
                let aa2 = b.gep(a2_p, idx, 8, 0);
                let t2 = b.load(Type::F64, aa2);
                let aa1b = b.gep(a1_p, idx, 8, 0);
                let t1b = b.load(Type::F64, aa1b);
                let aa2b = b.gep(a2_p, idx, 8, 0);
                let t2b = b.load(Type::F64, aa2b);
                let bba = b.gep(bb_p, idx, 8, 0);
                let bv = b.load(Type::F64, bba);
                let xm1 = b.gep(x_p, idx, 8, -8);
                let x1 = b.load(Type::F64, xm1);
                let xm2 = b.gep(x_p, idx, 8, -16);
                let x2 = b.load(Type::F64, xm2);
                let p1 = b.binop(BinOp::Fmul, t1, x1);
                let p2 = b.binop(BinOp::Fmul, t2, x2);
                let v1 = b.binop(BinOp::Fsub, bv, p1);
                let v2 = b.binop(BinOp::Fsub, v1, p2);
                let twof = b.fconst(2.0);
                let d1 = b.binop(BinOp::Fadd, t1b, t2b);
                let d2 = b.binop(BinOp::Fadd, d1, twof);
                let onef = b.fconst(1.0);
                let denom = b.binop(BinOp::Fdiv, onef, d2);
                let res = b.binop(BinOp::Fmul, v2, denom);
                let xa2 = b.gep(x_p, idx, 8, 0);
                b.store(xa2, res);
            });
        });
        // Checksum over x.
        let total_v = b.binop(BinOp::Mul, lv, nv);
        ret_f64_sum(&mut b, x_p, total_v);
    }
    m.verify().expect("sp is well-formed");

    WorkloadSpec {
        name: format!("nas-sp/{lines}x{len}"),
        module: m,
        inputs: vec![
            InputData::F64(a1),
            InputData::F64(a2),
            InputData::F64(bb),
            InputData::Zeroed(total as u64 * 8),
        ],
        args: vec![
            ArgSpec::Input(0),
            ArgSpec::Input(1),
            ArgSpec::Input(2),
            ArgSpec::Input(3),
            ArgSpec::Const(lines as i64),
            ArgSpec::Const(len as i64),
        ],
        expected: Some(expected),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, RunConfig};

    fn tiny() -> NasParams {
        NasParams { shrink: 20 }
    }

    #[test]
    fn cg_checksum_everywhere() {
        let spec = cg(&tiny());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.25));
        execute(&spec, &RunConfig::fastswap(0.25));
    }

    #[test]
    fn ft_checksum_and_guard_explosion() {
        let spec = ft(&tiny());
        execute(&spec, &RunConfig::local());
        let out = execute(&spec, &RunConfig::trackfm(0.25));
        // FT's register-computed indices defeat chunking: guards dominate.
        assert!(out.result.stats.guards_fast > 0);
        let rep = out.report.unwrap();
        assert!(rep.total_guards() >= 7, "FT should need many guards");
    }

    #[test]
    fn ft_o1_reduces_memory_instructions() {
        // Fig. 17b: O1 pre-pipeline collapses FT's redundant loads.
        let spec = ft(&tiny());
        let plain = execute(&spec, &RunConfig::trackfm(0.25));
        let mut o1 = RunConfig::trackfm(0.25);
        o1.compiler.o1 = true;
        let opt = execute(&spec, &o1);
        assert!(
            opt.result.stats.loads < plain.result.stats.loads / 2,
            "O1 should cut FT loads >2x: {} vs {}",
            opt.result.stats.loads,
            plain.result.stats.loads
        );
        assert!(opt.result.stats.cycles < plain.result.stats.cycles);
    }

    #[test]
    fn is_checksum_everywhere() {
        let spec = is(&tiny());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.25));
    }

    #[test]
    fn mg_checksum_everywhere() {
        let spec = mg(&tiny());
        execute(&spec, &RunConfig::local());
        execute(&spec, &RunConfig::trackfm(0.25));
    }

    #[test]
    fn sp_checksum_and_o1() {
        let spec = sp(&tiny());
        execute(&spec, &RunConfig::local());
        let plain = execute(&spec, &RunConfig::trackfm(0.25));
        let mut o1 = RunConfig::trackfm(0.25);
        o1.compiler.o1 = true;
        let opt = execute(&spec, &o1);
        assert!(opt.result.stats.loads < plain.result.stats.loads);
    }

    #[test]
    fn all_returns_five_kernels() {
        let specs = all(&NasParams { shrink: 100 });
        assert_eq!(specs.len(), 5);
        let names: Vec<_> = specs.iter().map(|s| s.name.clone()).collect();
        for prefix in ["nas-cg", "nas-ft", "nas-is", "nas-mg", "nas-sp"] {
            assert!(names.iter().any(|n| n.starts_with(prefix)), "{names:?}");
        }
    }
}
