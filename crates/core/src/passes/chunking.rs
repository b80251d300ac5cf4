//! Loop chunking analysis + transform (§3.4, Fig. 5).
//!
//! For loops with a recognized induction variable and strided heap accesses,
//! the transform replaces per-element fast-path guards with:
//!
//! * a `tfm.chunk.begin` in the loop preheader (sets up the stream, carries
//!   write-intent and prefetch flags);
//! * a `tfm.chunk.deref` at each access — a 3-cycle object-boundary check
//!   while the access stays inside the pinned object, and a
//!   locality-invariant guard (runtime call that pins the next object,
//!   unpins the previous one, runs a collection point, and optionally
//!   prefetches ahead) when the boundary is crossed;
//! * a `tfm.chunk.end` on every loop-exit edge (releasing the pin).
//!
//! Whether to apply the transform is governed by the paper's cost model
//! (Eq. 1–3): indiscriminate chunking of low-density or short-trip loops is
//! a slowdown (Figs. 8/15), so [`ChunkingMode::CostModel`] consults the
//! static object density and, when available, the execution profile.

use crate::cost::CostModel;
use std::collections::HashSet;
use tfm_analysis::dom::DomTree;
use tfm_analysis::induction::{basic_ivs, strided_accesses, LoopAccess};
use tfm_analysis::loops::{ensure_preheader, split_edge, LoopForest};
use tfm_analysis::profile::Profile;
use tfm_ir::{
    Block, FuncId, Function, InstData, InstKind, Intrinsic, Module, Type, Value,
    CHUNK_FLAG_PREFETCH, CHUNK_FLAG_WRITE,
};

/// When to apply the chunking transform.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChunkingMode {
    /// Never chunk (the "baseline"/naive arm of Figs. 8/15).
    Off,
    /// Chunk every chunkable loop indiscriminately (the "all loops" arm).
    AllLoops,
    /// Chunk only loops the Eq. 3 cost model (optionally profile-guided)
    /// approves (the "high-density loops only" arm).
    CostModel,
}

/// Options for the chunking pass.
#[derive(Copy, Clone, Debug)]
pub struct ChunkingOptions {
    /// Application mode.
    pub mode: ChunkingMode,
    /// The AIFM object size the compiler selected (needed for density).
    pub object_size: u64,
    /// Whether chunk streams should request stride prefetching.
    pub prefetch: bool,
}

/// What the pass did (feeds the compile report and Figs. 8/15).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ChunkingOutcome {
    /// Chunk streams created (`tfm.chunk.begin` count).
    pub streams: usize,
    /// Accesses rewritten to `tfm.chunk.deref`.
    pub chunked_accesses: usize,
    /// Loops with at least one stream.
    pub chunked_loops: usize,
    /// Candidate streams rejected by the cost model.
    pub skipped_low_benefit: usize,
}

impl ChunkingOutcome {
    fn merge(&mut self, other: ChunkingOutcome) {
        self.streams += other.streams;
        self.chunked_accesses += other.chunked_accesses;
        self.chunked_loops += other.chunked_loops;
        self.skipped_low_benefit += other.skipped_low_benefit;
    }
}

/// Runs chunking on one function.
pub fn run(
    module: &mut Module,
    func: FuncId,
    cost: &CostModel,
    opts: &ChunkingOptions,
    profile: Option<&Profile>,
) -> ChunkingOutcome {
    let mut outcome = ChunkingOutcome::default();
    if opts.mode == ChunkingMode::Off {
        return outcome;
    }
    let mut handled: HashSet<Value> = HashSet::new();

    // One loop forest per function, kept valid across the preheaders and
    // split exit edges each transformed loop adds (see `join_enclosing`).
    // Profile trip counts are read before any edit: those edits perturb the
    // very edges `loop_entries` counts.
    let f = module.function_mut(func);
    let mut forest = LoopForest::compute(f, &DomTree::compute(f));
    let trip = |lp| profile.and_then(|p| p.avg_trip_count(f, lp));
    let trips: Vec<Option<f64>> = forest.loops.iter().map(trip).collect();

    // Innermost first (inner streams must claim their accesses before
    // enclosing loops see them); among equals, later in forest order first.
    let mut order: Vec<usize> = (0..forest.loops.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse((forest.loops[i].depth, i)));
    for i in order {
        let o = run_on_loop(f, &mut forest, i, cost, opts, trips[i], &mut handled);
        outcome.merge(o);
    }
    outcome
}

/// Adds `new`, which chunking put on an edge `from → to` leaving loop `lp`, to
/// the enclosing loops that now hold it (see `split_edge`; a preheader passes
/// `lp`'s header as both ends, and joins every enclosing loop).
fn join_enclosing(forest: &mut LoopForest, lp: usize, from: Block, to: Block, new: Block) {
    let mut cur = forest.loops[lp].parent;
    while let Some(a) = cur {
        let outer = &mut forest.loops[a];
        if outer.contains(to) {
            outer.blocks.insert(new);
            if to == outer.header {
                let latch = outer.latches.iter_mut().find(|l| **l == from);
                *latch.expect("an edge into the header is a back edge") = new;
            }
        }
        cur = outer.parent;
    }
}

/// Panics unless `forest` matches a fresh `LoopForest::compute` of `f`: the
/// same headers, and per header the same blocks, latches, parent and depth.
#[cfg(debug_assertions)]
fn assert_forest_current(f: &Function, forest: &LoopForest) {
    let fresh = LoopForest::compute(f, &DomTree::compute(f));
    let shape = |fo: &LoopForest, l: &tfm_analysis::loops::NaturalLoop| {
        let mut latches = l.latches.clone();
        latches.sort();
        let parent = l.parent.map(|p| fo.loops[p].header);
        (l.blocks.clone(), latches, parent, l.depth)
    };
    assert_eq!(forest.loops.len(), fresh.loops.len(), "loops in {}", f.name);
    for l in &forest.loops {
        let g = fresh.loops.iter().find(|g| g.header == l.header);
        let current = g.is_some_and(|g| shape(forest, l) == shape(&fresh, g));
        assert!(current, "stale loop {} in {}", l.header, f.name);
    }
}

fn run_on_loop(
    f: &mut Function,
    forest: &mut LoopForest,
    i: usize,
    cost: &CostModel,
    opts: &ChunkingOptions,
    avg_trips: Option<f64>,
    handled: &mut HashSet<Value>,
) -> ChunkingOutcome {
    let mut outcome = ChunkingOutcome::default();
    let lp = &forest.loops[i];
    let ivs = basic_ivs(f, lp);
    if ivs.is_empty() {
        return outcome;
    }
    let accesses: Vec<LoopAccess> = strided_accesses(f, lp, &ivs)
        .into_iter()
        .filter(|a| !handled.contains(&a.inst) && a.stride != 0)
        .collect();
    if accesses.is_empty() {
        return outcome;
    }

    // Group accesses into streams by (base pointer, IV).
    let mut groups: Vec<(Value, Value, Vec<LoopAccess>)> = Vec::new();
    for a in accesses {
        match groups
            .iter_mut()
            .find(|(b, phi, _)| *b == a.base && *phi == a.iv.phi)
        {
            Some((_, _, list)) => list.push(a),
            None => groups.push((a.base, a.iv.phi, vec![a])),
        }
    }

    let mut approved: Vec<(Value, Vec<LoopAccess>)> = Vec::new();
    for (base, _phi, list) in groups {
        let elem = list.iter().map(|a| a.element_size()).max().unwrap_or(1);
        let density = opts.object_size as f64 / elem as f64;
        let take = match opts.mode {
            ChunkingMode::Off => false,
            ChunkingMode::AllLoops => true,
            ChunkingMode::CostModel => cost.should_chunk(density, avg_trips),
        };
        if take {
            approved.push((base, list));
        } else {
            outcome.skipped_low_benefit += 1;
        }
    }
    if approved.is_empty() {
        return outcome;
    }

    // Transform. All streams of this loop share the preheader and the exit
    // edge splits.
    let (header, n_blocks) = (lp.header, f.num_blocks());
    let preheader = ensure_preheader(f, lp);
    let exits = lp.exit_edges(f);
    if f.num_blocks() > n_blocks {
        join_enclosing(forest, i, header, header, preheader);
    }
    let ph_term = f.terminator(preheader).expect("preheader terminated");
    let mut handles = Vec::new();
    for (base, list) in &approved {
        let write = list.iter().any(|a| a.is_store);
        let mut flags = 0;
        if write {
            flags |= CHUNK_FLAG_WRITE;
        }
        if opts.prefetch {
            flags |= CHUNK_FLAG_PREFETCH;
        }
        let flags_c = f.insert_before(
            ph_term,
            InstData {
                kind: InstKind::ConstInt(flags),
                ty: Some(Type::I64),
                block: preheader,
            },
        );
        let handle = f.insert_before(
            ph_term,
            InstData {
                kind: InstKind::IntrinsicCall {
                    intr: Intrinsic::ChunkBegin,
                    args: vec![*base, flags_c],
                },
                ty: Some(Type::I64),
                block: preheader,
            },
        );
        handles.push(handle);
        for a in list {
            let ptr_operand = match f.kind(a.inst) {
                InstKind::Load { ptr } => *ptr,
                InstKind::Store { ptr, .. } => *ptr,
                _ => continue,
            };
            let deref = f.insert_before(
                a.inst,
                InstData {
                    kind: InstKind::IntrinsicCall {
                        intr: Intrinsic::ChunkDeref,
                        args: vec![handle, ptr_operand],
                    },
                    ty: Some(Type::Ptr),
                    block: f.inst(a.inst).block,
                },
            );
            match &mut f.inst_mut(a.inst).kind {
                InstKind::Load { ptr } => *ptr = deref,
                InstKind::Store { ptr, .. } => *ptr = deref,
                _ => unreachable!(),
            }
            handled.insert(a.inst);
            outcome.chunked_accesses += 1;
        }
        outcome.streams += 1;
    }
    outcome.chunked_loops += 1;

    // Release pins on every exit edge.
    for (from, to) in exits {
        let mid = split_edge(f, from, to);
        join_enclosing(forest, i, from, to, mid);
        let mid_term = f.terminator(mid).expect("split block terminated");
        for &h in &handles {
            f.insert_before(
                mid_term,
                InstData {
                    kind: InstKind::IntrinsicCall {
                        intr: Intrinsic::ChunkEnd,
                        args: vec![h],
                    },
                    ty: None,
                    block: mid,
                },
            );
        }
    }
    #[cfg(debug_assertions)]
    assert_forest_current(f, forest);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_ir::{BinOp, CmpOp, FunctionBuilder, Signature};

    fn stream_sum_module(elems: i64, elem_bytes: u32) -> (Module, FuncId) {
        let mut m = Module::new("t");
        let id = m.declare_function("main", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, elems);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(arr, i, elem_bytes, 0);
                let x = b.load(Type::I64, addr);
                let _ = b.binop(BinOp::Add, x, x);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        (m, id)
    }

    fn count_intr(m: &Module, id: FuncId, intr: Intrinsic) -> usize {
        m.function(id)
            .live_insts()
            .into_iter()
            .filter(|&v| {
                matches!(m.function(id).kind(v), InstKind::IntrinsicCall { intr: i, .. } if *i == intr)
            })
            .count()
    }

    fn opts(mode: ChunkingMode) -> ChunkingOptions {
        ChunkingOptions {
            mode,
            object_size: 4096,
            prefetch: true,
        }
    }

    #[test]
    fn chunks_dense_stream_and_stays_valid() {
        let (mut m, id) = stream_sum_module(1000, 8); // density 512 > 75
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            None,
        );
        assert_eq!(out.streams, 1);
        assert_eq!(out.chunked_accesses, 1);
        assert_eq!(out.chunked_loops, 1);
        assert_eq!(out.skipped_low_benefit, 0);
        m.verify().unwrap();
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkBegin), 1);
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkDeref), 1);
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkEnd), 1);
    }

    #[test]
    fn cost_model_rejects_sparse_stream() {
        // 4096-byte elements in 4096-byte objects: density 1 → never chunk.
        let (mut m, id) = stream_sum_module(1000, 4096);
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            None,
        );
        assert_eq!(out.streams, 0);
        assert_eq!(out.skipped_low_benefit, 1);
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkDeref), 0);
    }

    #[test]
    fn all_loops_mode_chunks_indiscriminately() {
        let (mut m, id) = stream_sum_module(1000, 4096);
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::AllLoops),
            None,
        );
        assert_eq!(out.streams, 1);
        m.verify().unwrap();
    }

    #[test]
    fn off_mode_does_nothing() {
        let (mut m, id) = stream_sum_module(1000, 8);
        let before = m.total_live_insts();
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::Off),
            None,
        );
        assert_eq!(out, ChunkingOutcome::default());
        assert_eq!(m.total_live_insts(), before);
    }

    #[test]
    fn copy_loop_gets_two_streams_with_write_intent() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let dst = b.param(0);
            let src = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 1 << 16);
            b.counted_loop(zero, n, 1, |b, i| {
                let saddr = b.gep(src, i, 8, 0);
                let daddr = b.gep(dst, i, 8, 0);
                let x = b.load(Type::I64, saddr);
                b.store(daddr, x);
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            None,
        );
        assert_eq!(out.streams, 2);
        assert_eq!(out.chunked_accesses, 2);
        m.verify().unwrap();
        // One stream must carry the write flag, one must not.
        let f = m.function(id);
        let mut flags_seen = Vec::new();
        for v in f.live_insts() {
            if let InstKind::IntrinsicCall {
                intr: Intrinsic::ChunkBegin,
                args,
            } = f.kind(v)
            {
                if let InstKind::ConstInt(c) = f.kind(args[1]) {
                    flags_seen.push(*c & CHUNK_FLAG_WRITE);
                }
            }
        }
        flags_seen.sort();
        assert_eq!(flags_seen, vec![0, CHUNK_FLAG_WRITE]);
    }

    #[test]
    fn profile_guided_rejects_short_inner_loops() {
        // Nested loops: outer long, inner short (8 iterations). With a
        // profile, only the outer access is chunked — the k-means scenario.
        let mut m = Module::new("t");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let big = b.param(0);
            let small = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100_000);
            let d = b.iconst(Type::I64, 8);
            b.counted_loop(zero, n, 1, |b, i| {
                let addr = b.gep(big, i, 8, 0);
                let _ = b.load(Type::I64, addr);
                let z2 = b.iconst(Type::I64, 0);
                b.counted_loop(z2, d, 1, |b, j| {
                    let a2 = b.gep(small, j, 8, 0);
                    let _ = b.load(Type::I64, a2);
                });
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();

        // Build a synthetic profile: outer loop runs 100K iterations, inner
        // runs 8 per entry.
        let f = m.function(id);
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let mut prof = Profile::new();
        for lp in &forest.loops {
            let pre = lp.preheader(f).unwrap();
            let (entries, iters) = if lp.depth == 1 {
                (1, 100_000)
            } else {
                (100_000, 8)
            };
            for _ in 0..entries {
                prof.count_edge(&f.name, pre, lp.header);
            }
            for _ in 0..(iters * entries) {
                prof.count_block(&f.name, lp.header);
            }
        }

        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::CostModel),
            Some(&prof),
        );
        assert_eq!(out.streams, 1, "only the outer stream should be chunked");
        assert_eq!(out.skipped_low_benefit, 1);
        m.verify().unwrap();
    }

    #[test]
    fn nested_loops_all_mode_chunks_both() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "main",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a1 = b.param(0);
            let a2 = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 64);
            b.counted_loop(zero, n, 1, |b, i| {
                let p = b.gep(a1, i, 8, 0);
                let _ = b.load(Type::I64, p);
                let z2 = b.iconst(Type::I64, 0);
                b.counted_loop(z2, n, 1, |b, j| {
                    let q = b.gep(a2, j, 8, 0);
                    let x = b.load(Type::I64, q);
                    b.store(q, x);
                });
            });
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::AllLoops),
            None,
        );
        assert_eq!(out.chunked_loops, 2);
        assert_eq!(out.streams, 2);
        assert_eq!(out.chunked_accesses, 3);
        m.verify().unwrap();
    }

    /// Two inner loops `A` and `B` in an outer loop `P`, shaped so chunking's
    /// edits must update enclosing loops in the two ways `counted_loop`
    /// never needs:
    ///
    /// ```text
    /// entry -> hP;  hP: k < n ? hA : done     (reads a[k])
    /// hA: i < n ? bodyA : hB;  bodyA: a[i] == 7 ? done : hA
    /// hB: j < n ? bodyB : hP;  bodyB: b[j] += 1; -> hB
    /// ```
    ///
    /// `bodyA -> done` breaks out of both loops, so its split block stays out
    /// of `P`; `hB -> hP` is `P`'s back edge, so its split block becomes
    /// `P`'s latch. `hA` also branches two ways, so `B` (whose header `hA`
    /// enters) and `A` (entered from `hP`) get fresh preheaders inside `P`.
    /// In debug builds `run` checks its forest against a fresh one after
    /// every loop it transforms.
    #[test]
    fn hand_built_nest_keeps_forest_across_breaks_and_back_edge_exits() {
        let mut m = Module::new("t");
        let sig = Signature::new(vec![Type::Ptr, Type::Ptr, Type::I64], Some(Type::I64));
        let id = m.declare_function("main", sig);
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let entry = b.current_block();
            let [hp, ha, body_a, hb, body_b, done] = [(); 6].map(|_| b.create_block());
            let (a, arr_b, n) = (b.param(0), b.param(1), b.param(2));
            let zero = b.iconst(Type::I64, 0);
            let one = b.iconst(Type::I64, 1);
            let seven = b.iconst(Type::I64, 7);
            b.br(hp);

            b.switch_to_block(hp);
            let k = b.phi(Type::I64, &[(entry, zero)]);
            let pk = b.gep(a, k, 8, 0);
            let _ = b.load(Type::I64, pk);
            let k1 = b.binop(BinOp::Add, k, one);
            let ck = b.icmp(CmpOp::Slt, k, n);
            b.cond_br(ck, ha, done);

            b.switch_to_block(ha);
            let i = b.phi(Type::I64, &[(hp, zero)]);
            let ci = b.icmp(CmpOp::Slt, i, n);
            b.cond_br(ci, body_a, hb);

            b.switch_to_block(body_a);
            let pi = b.gep(a, i, 8, 0);
            let x = b.load(Type::I64, pi);
            let i1 = b.binop(BinOp::Add, i, one);
            b.add_phi_incoming(i, body_a, i1);
            let brk = b.icmp(CmpOp::Eq, x, seven);
            b.cond_br(brk, done, ha);

            b.switch_to_block(hb);
            let j = b.phi(Type::I64, &[(ha, zero)]);
            b.add_phi_incoming(k, hb, k1);
            let cj = b.icmp(CmpOp::Slt, j, n);
            b.cond_br(cj, body_b, hp);

            b.switch_to_block(body_b);
            let pj = b.gep(arr_b, j, 8, 0);
            let y = b.load(Type::I64, pj);
            let y1 = b.binop(BinOp::Add, y, one);
            b.store(pj, y1);
            let j1 = b.binop(BinOp::Add, j, one);
            b.add_phi_incoming(j, body_b, j1);
            b.br(hb);

            b.switch_to_block(done);
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let f = m.function(id);
        let forest = LoopForest::compute(f, &DomTree::compute(f));
        let depths: Vec<u32> = forest.loops.iter().map(|l| l.depth).collect();
        assert_eq!(depths.iter().filter(|&&d| d == 2).count(), 2, "{depths:?}");

        let out = run(
            &mut m,
            id,
            &CostModel::default(),
            &opts(ChunkingMode::AllLoops),
            None,
        );
        assert_eq!(out.chunked_loops, 3);
        assert_eq!(out.streams, 3);
        assert_eq!(
            out.chunked_accesses, 4,
            "a[k], a[i], and b[j]'s load and store"
        );
        m.verify().unwrap();
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkBegin), 3);
        // A: two exits; B: one; P: its own exit plus the split `A -> done`
        // block, which lies outside `P`.
        assert_eq!(count_intr(&m, id, Intrinsic::ChunkEnd), 2 + 1 + 2);
    }
}
