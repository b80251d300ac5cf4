//! The register-machine interpreter.
//!
//! Executes [`tfm_ir`] modules against a [`MemorySystem`], charging
//! [`CostModel`] cycles per operation. Data lives in host byte buffers
//! (heap / globals / stack); residency and network costs are delegated to
//! the memory system (see DESIGN.md §2 for why this split preserves the
//! paper's measured quantities).
//!
//! Integer values are stored sign-extended to 64 bits; unsigned operations
//! mask to the operand width first. `f64` values are stored as raw bits.

use crate::bytecode::{lower_module, Program};
use crate::memsys::{MemorySystem, GLOBAL_BASE, HEAP_BASE, STACK_BASE};
#[cfg(feature = "oracle")]
use crate::oracle::ExecEngine;
use crate::stats::{ExecStats, RunResult};
use crate::trap::Trap;
use std::collections::HashMap;
use std::rc::Rc;
use tfm_analysis::profile::Profile;
use tfm_ir::{BinOp, Block, CastOp, CmpOp, FCmpOp, FuncId, Intrinsic, Module, Type};
use tfm_runtime::TfmPtr;
use tfm_telemetry::{SiteKey, SpanKind, Telemetry};
use trackfm::CostModel;

/// Downgrades every killable custody bit (see [`shadow`]): the dynamic
/// counterpart of the static analysis clearing its cover map at calls and
/// allocating intrinsics.
pub(crate) fn kill_custody(cov: &mut [u8]) {
    for c in cov.iter_mut() {
        if *c == shadow::CUSTODY {
            *c = shadow::NONE;
        }
    }
}

/// Default simulated stack size (1 MiB).
pub(crate) const STACK_SIZE: usize = 1 << 20;

#[derive(Default)]
struct ProfileCollector {
    /// Per function: block execution counts.
    blocks: HashMap<u32, Vec<u64>>,
    /// `(func, from, to) → traversals`.
    edges: HashMap<(u32, u32, u32), u64>,
}

/// The interpreter.
pub struct Machine<'m, M: MemorySystem> {
    pub(crate) module: &'m Module,
    /// The memory system (exposed for test assertions).
    pub mem: M,
    pub(crate) cost: CostModel,
    heap: Vec<u8>,
    globals: Vec<u8>,
    pub(crate) global_offsets: Vec<u64>,
    pub(crate) stack: Vec<u8>,
    pub(crate) stack_top: u64,
    pub(crate) clock: u64,
    pub(crate) stats: ExecStats,
    profiler: Option<ProfileCollector>,
    pub(crate) fuel: u64,
    tel: Telemetry,
    pub(crate) sanitize: bool,
    /// Which engine [`Machine::run`] executes on (test builds only).
    #[cfg(feature = "oracle")]
    pub(crate) engine: ExecEngine,
    /// The module lowered to register bytecode (`Rc` so the dispatch loop
    /// can hold it across `&mut self` method calls).
    pub(crate) bc: Rc<Program>,
    /// Shared register stack for bytecode frames (one zero-filled window
    /// per active call).
    pub(crate) bc_regs: Vec<u64>,
    /// Shadow custody stack parallel to [`Self::bc_regs`] (sanitizer only).
    pub(crate) bc_cov: Vec<u8>,
    /// Reusable parallel-copy scratch for phi edges.
    pub(crate) bc_scratch: Vec<(u32, u64, u8)>,
}

/// Guard-sanitizer shadow state for one SSA value (see
/// [`Machine::enable_guard_sanitizer`]).
pub(crate) mod shadow {
    /// No custody: dereferencing a heap address through this value traps.
    pub const NONE: u8 = 0;
    /// Guard/chunk-deref custody: valid until the next call or allocating
    /// intrinsic (mirrors the static kill set of
    /// `tfm_analysis::guard_check`).
    pub const CUSTODY: u8 = 1;
    /// Permanently safe: stack slots, globals, and libc `malloc`/`calloc`
    /// results (only untransformed modules call libc, and they run on
    /// memory systems whose accesses need no guard).
    pub const STABLE: u8 = 2;
}

impl<'m, M: MemorySystem> Machine<'m, M> {
    /// Creates a machine with `heap_size` bytes of far-heap backing store.
    /// Globals are laid out and initialized immediately.
    pub fn new(module: &'m Module, mem: M, cost: CostModel, heap_size: u64) -> Self {
        let mut global_offsets = Vec::new();
        let mut gsize = 0u64;
        for (_, g) in module.globals() {
            gsize = gsize.next_multiple_of(16);
            global_offsets.push(gsize);
            gsize += g.size;
        }
        let mut globals = vec![0u8; gsize as usize];
        for ((_, g), &off) in module.globals().zip(&global_offsets) {
            if let Some(init) = &g.init {
                globals[off as usize..off as usize + init.len()].copy_from_slice(init);
            }
        }
        Machine {
            module,
            mem,
            cost,
            heap: vec![0; heap_size as usize],
            globals,
            global_offsets,
            stack: vec![0; STACK_SIZE],
            stack_top: 0,
            clock: 0,
            stats: ExecStats::default(),
            profiler: None,
            fuel: u64::MAX,
            tel: Telemetry::disabled(),
            sanitize: false,
            #[cfg(feature = "oracle")]
            engine: ExecEngine::default(),
            bc: Rc::new(lower_module(module)),
            bc_regs: Vec::new(),
            bc_cov: Vec::new(),
            bc_scratch: Vec::new(),
        }
    }

    /// Enables the dynamic guard sanitizer: every register carries a shadow
    /// custody state, and any load/store of a heap (or tagged) address
    /// through a value without live custody traps with
    /// [`Trap::UnguardedAccess`]. This is the dynamic mirror of the static
    /// `tfm-lint` pass, with its call rule: every call revokes the caller's
    /// custody, a callee frame starts with none, and a return carries none.
    /// A program the lint accepts must run sanitizer-clean (the sanitizer
    /// tracks the dynamically-taken path, so it is never stricter than the
    /// all-paths static analysis).
    pub fn enable_guard_sanitizer(&mut self) {
        self.sanitize = true;
    }

    /// Attaches a telemetry sink: the machine attributes guard and chunk
    /// outcomes to their originating IR site, and forwards the handle to
    /// the memory system for fetch latency, residency and spans.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.mem.set_telemetry(tel.clone());
        self.tel = tel;
    }

    /// Limits the number of interpreted instructions (runaway protection in
    /// tests).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Enables profile collection (block & edge counts).
    pub fn enable_profiling(&mut self) {
        self.profiler = Some(ProfileCollector::default());
    }

    /// Extracts the collected profile in [`tfm_analysis`] form.
    pub fn take_profile(&mut self) -> Profile {
        let mut p = Profile::new();
        if let Some(col) = self.profiler.take() {
            for (fidx, counts) in col.blocks {
                let name = &self.module.function(FuncId(fidx)).name;
                for (b, &n) in counts.iter().enumerate() {
                    if n > 0 {
                        p.block_counts
                            .insert((name.clone(), Block::from_index(b)), n);
                    }
                }
            }
            for ((fidx, from, to), n) in col.edges {
                let name = &self.module.function(FuncId(fidx)).name;
                p.edge_counts
                    .insert((name.clone(), Block(from), Block(to)), n);
            }
        }
        p
    }

    /// Current simulated cycle.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Sets the simulated clock. The multi-core scheduler uses this to run
    /// one request at each core's local time: it warps the shared machine
    /// to `max(core clock, arrival cycle)` before dispatching. Plain
    /// single-machine runs never call it.
    pub fn set_clock(&mut self, clock: u64) {
        self.clock = clock;
    }

    /// Tags subsequent execution with a worker core id: telemetry stamps it
    /// onto spans and timeline lanes, and the memory system threads it into
    /// per-core retry jitter. Single-core runs never call it, keeping their
    /// output byte-identical.
    pub fn set_core(&mut self, core: u32) {
        self.tel.set_core(core);
        self.mem.set_core(core);
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    // ------------------------------------------------------------------
    // Setup-phase API (used by benchmark harnesses; charges no CPU cycles).
    // ------------------------------------------------------------------

    /// Allocates memory during setup.
    ///
    /// # Panics
    /// Panics on allocation failure (setup sizing is the harness's job).
    pub fn setup_alloc(&mut self, size: u64) -> u64 {
        self.mem
            .alloc(size, self.clock)
            .expect("setup allocation failed — heap too small for workload")
    }

    /// Writes raw bytes during setup, updating residency bookkeeping
    /// (objects/pages become dirty) without charging CPU cycles.
    ///
    /// # Panics
    /// Panics on out-of-range addresses.
    pub fn setup_write(&mut self, ptr: u64, bytes: &[u8]) {
        let mut scratch = ExecStats::default();
        self.mem
            .access_range(ptr, bytes.len() as u64, true, self.clock, &mut scratch)
            .expect("setup write out of range");
        let addr = self.mem.canonical(ptr);
        let dst = self
            .resolve(addr, bytes.len() as u64)
            .expect("setup write out of range");
        dst[..bytes.len()].copy_from_slice(bytes);
    }

    /// Ends the setup phase: optionally evacuates everything (cold start),
    /// then clears all counters and rewinds the clock.
    pub fn finish_setup(&mut self, cold_start: bool) {
        if cold_start {
            self.mem.evacuate_all(self.clock);
        }
        self.mem.reset_stats();
        self.clock = 0;
        self.stats = ExecStats::default();
    }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /// Runs `func` with `args` (raw 64-bit values) to completion.
    ///
    /// # Errors
    /// Returns the [`Trap`] that aborted execution, if any.
    ///
    /// # Panics
    /// Panics if the function does not exist.
    pub fn run(&mut self, func: &str, args: &[u64]) -> Result<RunResult, Trap> {
        let fid = self
            .module
            .find_function(func)
            .unwrap_or_else(|| panic!("no function named `{func}`"));
        // One engine; an `oracle` build can divert to the reference.
        let ret = match () {
            #[cfg(feature = "oracle")]
            () if self.engine == ExecEngine::TreeWalk => self.exec_function(fid, args)?,
            () => self.run_bytecode(fid, args)?,
        };
        let mut stats = self.stats;
        stats.cycles = self.clock;
        let summary = self.mem.summary();
        Ok(RunResult {
            ret,
            stats,
            runtime: summary.runtime,
            pager: summary.pager,
            transfers: summary.transfers,
            shards: summary.shards,
        })
    }

    /// True if the sanitizer polices accesses to `addr`: tagged TrackFM
    /// pointers (always) and canonical heap addresses (whose custody the
    /// shadow state must vouch for). Stack and global addresses are exempt.
    #[inline]
    pub(crate) fn is_sanitized_addr(&self, addr: u64) -> bool {
        TfmPtr::is_tfm(addr) || (addr >= HEAP_BASE && addr < HEAP_BASE + self.heap.len() as u64)
    }

    /// Records one edge traversal when profiling is on.
    #[inline]
    pub(crate) fn note_edge(&mut self, fid: FuncId, from: u32, to: u32) {
        if let Some(col) = &mut self.profiler {
            *col.edges.entry((fid.0, from, to)).or_insert(0) += 1;
        }
    }

    #[inline]
    pub(crate) fn profile_block(&mut self, fid: FuncId, b: Block, num_blocks: usize) {
        if let Some(col) = &mut self.profiler {
            let counts = col
                .blocks
                .entry(fid.0)
                .or_insert_with(|| vec![0; num_blocks]);
            if counts.len() < num_blocks {
                counts.resize(num_blocks, 0);
            }
            counts[b.index()] += 1;
        }
    }

    /// Classifies a guard/chunk outcome from the stat deltas around the
    /// memory-system call, folds the cost into the per-site attribution
    /// table, and returns the span kind the guard's span is recorded as,
    /// plus whether that span is worth keeping when tracing. Fast-path
    /// outcomes (no stall, no runtime excursion) are discarded so the arena
    /// holds only spans with interior structure or real latency.
    fn note_guard_site(
        &mut self,
        site: SiteKey,
        now: u64,
        cycles: u64,
        before: &ExecStats,
    ) -> (SpanKind, bool) {
        let s = self.stats;
        let stall = s.stall_cycles - before.stall_cycles;
        let d_fast = s.guards_fast - before.guards_fast;
        let d_local = s.guards_slow_local - before.guards_slow_local;
        let d_remote = s.guards_slow_remote - before.guards_slow_remote;
        let d_custody = s.custody_exits - before.custody_exits;
        let d_boundary = s.boundary_checks - before.boundary_checks;
        let d_locality = s.locality_guards - before.locality_guards;
        let span = if d_remote > 0 {
            (SpanKind::GuardSlowRemote, true)
        } else if d_local > 0 {
            (SpanKind::GuardSlowLocal, true)
        } else if d_locality > 0 {
            (SpanKind::LocalityGuard, true)
        } else if d_boundary > 0 {
            (SpanKind::BoundaryCheck, false)
        } else if d_custody > 0 {
            (SpanKind::CustodyExit, false)
        } else {
            // Includes transparent guards (LocalMem, Fastswap): the site
            // was hit, nothing stalled.
            (SpanKind::GuardFast, false)
        };
        self.tel.timeline_access(now, d_remote > 0);
        self.tel.record_stall(stall);
        self.tel.record_site(site, |ss| {
            ss.hits += 1;
            // Chunk derefs fold into the same fast/slow split: boundary
            // checks are the cheap path, locality guards the runtime call.
            ss.fast += d_fast + d_boundary;
            ss.slow_remote += d_remote + if stall > 0 { d_locality } else { 0 };
            ss.slow_local += d_local + if stall > 0 { 0 } else { d_locality };
            ss.custody_exits += d_custody;
            ss.cycles += cycles;
            ss.stall_cycles += stall;
        });
        span
    }

    pub(crate) fn exec_intrinsic(
        &mut self,
        intr: Intrinsic,
        args: &[u64],
        site: SiteKey,
    ) -> Result<u64, Trap> {
        match intr {
            Intrinsic::Malloc | Intrinsic::TfmAlloc => {
                self.clock += self.cost.alloc_cycles;
                self.mem.alloc(args[0], self.clock)
            }
            Intrinsic::Calloc | Intrinsic::TfmCalloc => {
                self.clock += self.cost.alloc_cycles;
                let bytes = args[0].saturating_mul(args[1]);
                let ptr = self.mem.alloc(bytes, self.clock)?;
                self.clock += bytes / self.cost.memcpy_bytes_per_cycle.max(1);
                let addr = self.mem.canonical(ptr);
                let dst = self.resolve(addr, bytes)?;
                dst[..bytes as usize].fill(0);
                Ok(ptr)
            }
            Intrinsic::Realloc | Intrinsic::TfmRealloc => {
                self.clock += self.cost.alloc_cycles;
                let (old, new_size) = (args[0], args[1]);
                let old_size = self
                    .mem
                    .alloc_size(old)
                    .ok_or(Trap::OutOfBounds { addr: old, size: 0 })?;
                let new = self.mem.alloc(new_size, self.clock)?;
                let n = old_size.min(new_size);
                self.copy_bytes(new, old, n)?;
                self.mem.free(old, self.clock)?;
                Ok(new)
            }
            Intrinsic::Free | Intrinsic::TfmFree => {
                self.clock += self.cost.alloc_cycles;
                self.mem.free(args[0], self.clock)?;
                Ok(0)
            }
            Intrinsic::RuntimeInit => {
                self.clock += self.cost.runtime_init_cycles;
                Ok(0)
            }
            Intrinsic::GuardRead | Intrinsic::GuardWrite => {
                let write = intr == Intrinsic::GuardWrite;
                if self.tel.is_enabled() {
                    let before = self.stats;
                    let now = self.clock;
                    // Provisional: reclassified by outcome once the stat
                    // deltas are known. Opened before the memory-system call
                    // so transfer/retry leaves nest under the guard.
                    let sp = self.tel.span_begin(SpanKind::GuardSlowRemote, site.0, now);
                    let (c, out) = self.mem.guard(args[0], write, now, &mut self.stats)?;
                    self.clock += c;
                    let (sk, keep) = self.note_guard_site(site, now, c, &before);
                    self.tel.span_finish(sp, now + c, sk, keep);
                    Ok(out)
                } else {
                    let (c, out) = self
                        .mem
                        .guard(args[0], write, self.clock, &mut self.stats)?;
                    self.clock += c;
                    Ok(out)
                }
            }
            Intrinsic::ChunkBegin => {
                let (c, h) = self.mem.chunk_begin(args[0], args[1] as i64, self.clock);
                self.clock += c;
                Ok(h)
            }
            Intrinsic::ChunkDeref => {
                if self.tel.is_enabled() {
                    let before = self.stats;
                    let now = self.clock;
                    // Provisional kind, as for guards above.
                    let sp = self.tel.span_begin(SpanKind::GuardSlowRemote, site.0, now);
                    let (c, out) = self
                        .mem
                        .chunk_deref(args[0], args[1], now, &mut self.stats)?;
                    self.clock += c;
                    let (sk, keep) = self.note_guard_site(site, now, c, &before);
                    self.tel.span_finish(sp, now + c, sk, keep);
                    Ok(out)
                } else {
                    let (c, out) =
                        self.mem
                            .chunk_deref(args[0], args[1], self.clock, &mut self.stats)?;
                    self.clock += c;
                    Ok(out)
                }
            }
            Intrinsic::ChunkEnd => {
                let c = self.mem.chunk_end(args[0], self.clock)?;
                self.clock += c;
                Ok(0)
            }
            Intrinsic::Prefetch => {
                self.clock += self.cost.alu;
                self.mem.prefetch_hint(args[0], self.clock);
                Ok(0)
            }
            Intrinsic::Memcpy => {
                let (dst, src, n) = (args[0], args[1], args[2]);
                self.copy_bytes(dst, src, n)?;
                Ok(0)
            }
            Intrinsic::Memset => {
                let (dst, byte, n) = (args[0], args[1], args[2]);
                let extra = self
                    .mem
                    .access_range(dst, n, true, self.clock, &mut self.stats)?;
                self.clock += extra + n / self.cost.memcpy_bytes_per_cycle.max(1);
                let addr = self.mem.canonical(dst);
                let d = self.resolve(addr, n)?;
                d[..n as usize].fill(byte as u8);
                Ok(0)
            }
        }
    }

    fn copy_bytes(&mut self, dst: u64, src: u64, n: u64) -> Result<(), Trap> {
        if n == 0 {
            return Ok(());
        }
        let e1 = self
            .mem
            .access_range(src, n, false, self.clock, &mut self.stats)?;
        let e2 = self
            .mem
            .access_range(dst, n, true, self.clock + e1, &mut self.stats)?;
        self.clock += e1 + e2 + n / self.cost.memcpy_bytes_per_cycle.max(1);
        let saddr = self.mem.canonical(src);
        let daddr = self.mem.canonical(dst);
        let tmp = self.resolve(saddr, n)?[..n as usize].to_vec();
        self.resolve(daddr, n)?[..n as usize].copy_from_slice(&tmp);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw byte access.
    // ------------------------------------------------------------------

    #[inline]
    pub(crate) fn resolve(&mut self, addr: u64, size: u64) -> Result<&mut [u8], Trap> {
        let end = addr.wrapping_add(size);
        if addr >= HEAP_BASE && end <= HEAP_BASE + self.heap.len() as u64 {
            let off = (addr - HEAP_BASE) as usize;
            Ok(&mut self.heap[off..])
        } else if addr >= GLOBAL_BASE && end <= GLOBAL_BASE + self.globals.len() as u64 {
            let off = (addr - GLOBAL_BASE) as usize;
            Ok(&mut self.globals[off..])
        } else if addr >= STACK_BASE && end <= STACK_BASE + self.stack.len() as u64 {
            let off = (addr - STACK_BASE) as usize;
            Ok(&mut self.stack[off..])
        } else {
            Err(Trap::OutOfBounds { addr, size })
        }
    }

    #[inline]
    pub(crate) fn read_mem(&mut self, addr: u64, ty: Type) -> Result<u64, Trap> {
        let size = ty.size() as usize;
        let b = self.resolve(addr, size as u64)?;
        Ok(match ty {
            Type::I8 => b[0] as i8 as i64 as u64,
            Type::I16 => i16::from_le_bytes(b[..2].try_into().unwrap()) as i64 as u64,
            Type::I32 => i32::from_le_bytes(b[..4].try_into().unwrap()) as i64 as u64,
            Type::I64 | Type::F64 | Type::Ptr => u64::from_le_bytes(b[..8].try_into().unwrap()),
        })
    }

    #[inline]
    pub(crate) fn write_mem(&mut self, addr: u64, val: u64, ty: Type) -> Result<(), Trap> {
        let size = ty.size() as usize;
        let b = self.resolve(addr, size as u64)?;
        match ty {
            Type::I8 => b[0] = val as u8,
            Type::I16 => b[..2].copy_from_slice(&(val as u16).to_le_bytes()),
            Type::I32 => b[..4].copy_from_slice(&(val as u32).to_le_bytes()),
            Type::I64 | Type::F64 | Type::Ptr => b[..8].copy_from_slice(&val.to_le_bytes()),
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Scalar operation semantics.
// ----------------------------------------------------------------------

#[inline]
fn mask_unsigned(v: u64, ty: Type) -> u64 {
    match ty {
        Type::I8 => v & 0xFF,
        Type::I16 => v & 0xFFFF,
        Type::I32 => v & 0xFFFF_FFFF,
        _ => v,
    }
}

#[inline]
fn sext(v: u64, ty: Type) -> u64 {
    match ty {
        Type::I8 => v as u8 as i8 as i64 as u64,
        Type::I16 => v as u16 as i16 as i64 as u64,
        Type::I32 => v as u32 as i32 as i64 as u64,
        _ => v,
    }
}

#[inline(always)]
pub(crate) fn exec_binop(op: BinOp, a: u64, b: u64, ty: Type) -> Result<u64, Trap> {
    if op.is_float() {
        let (x, y) = (f64::from_bits(a), f64::from_bits(b));
        let r = match op {
            BinOp::Fadd => x + y,
            BinOp::Fsub => x - y,
            BinOp::Fmul => x * y,
            BinOp::Fdiv => x / y,
            _ => unreachable!(),
        };
        return Ok(r.to_bits());
    }
    let (sa, sb) = (a as i64, b as i64);
    let (ua, ub) = (mask_unsigned(a, ty), mask_unsigned(b, ty));
    let r = match op {
        BinOp::Add => sa.wrapping_add(sb) as u64,
        BinOp::Sub => sa.wrapping_sub(sb) as u64,
        BinOp::Mul => sa.wrapping_mul(sb) as u64,
        BinOp::Sdiv => {
            if sb == 0 {
                return Err(Trap::DivByZero);
            }
            sa.wrapping_div(sb) as u64
        }
        BinOp::Udiv => {
            if ub == 0 {
                return Err(Trap::DivByZero);
            }
            ua / ub
        }
        BinOp::Srem => {
            if sb == 0 {
                return Err(Trap::DivByZero);
            }
            sa.wrapping_rem(sb) as u64
        }
        BinOp::Urem => {
            if ub == 0 {
                return Err(Trap::DivByZero);
            }
            ua % ub
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => (sa.wrapping_shl(b as u32 & 63)) as u64,
        BinOp::Lshr => ua.wrapping_shr(b as u32 & 63),
        BinOp::Ashr => (sa >> (b as u32 & 63).min(63)) as u64,
        _ => unreachable!(),
    };
    Ok(sext(r, ty))
}

#[inline(always)]
pub(crate) fn exec_icmp(op: CmpOp, a: u64, b: u64, ty: Type) -> bool {
    let (sa, sb) = (a as i64, b as i64);
    let (ua, ub) = (mask_unsigned(a, ty), mask_unsigned(b, ty));
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Slt => sa < sb,
        CmpOp::Sle => sa <= sb,
        CmpOp::Sgt => sa > sb,
        CmpOp::Sge => sa >= sb,
        CmpOp::Ult => ua < ub,
        CmpOp::Ule => ua <= ub,
        CmpOp::Ugt => ua > ub,
        CmpOp::Uge => ua >= ub,
    }
}

#[inline(always)]
pub(crate) fn exec_fcmp(op: FCmpOp, x: f64, y: f64) -> bool {
    match op {
        FCmpOp::Oeq => x == y,
        FCmpOp::One => x != y && !x.is_nan() && !y.is_nan(),
        FCmpOp::Olt => x < y,
        FCmpOp::Ole => x <= y,
        FCmpOp::Ogt => x > y,
        FCmpOp::Oge => x >= y,
    }
}

#[inline(always)]
pub(crate) fn exec_cast(op: CastOp, v: u64, from: Type, to: Type) -> u64 {
    match op {
        CastOp::Zext => mask_unsigned(v, from),
        CastOp::Sext => sext(v, from),
        CastOp::Trunc => sext(v, to),
        CastOp::IntToPtr | CastOp::PtrToInt | CastOp::Bitcast => v,
        CastOp::SiToFp => ((v as i64) as f64).to_bits(),
        CastOp::FpToSi => {
            let f = f64::from_bits(v);
            if f.is_nan() {
                0
            } else {
                sext((f as i64) as u64, to)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memsys::LocalMem;
    use tfm_ir::{FunctionBuilder, Module, Signature};

    fn machine(m: &Module) -> Machine<'_, LocalMem> {
        Machine::new(m, LocalMem::new(1 << 20), CostModel::default(), 1 << 20)
    }

    #[test]
    fn arithmetic_and_return() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::I64, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let s = b.binop(BinOp::Mul, b.param(0), b.param(1));
            let c = b.iconst(Type::I64, 5);
            let r = b.binop(BinOp::Add, s, c);
            b.ret(Some(r));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        let r = mach.run("f", &[6, 7]).unwrap();
        assert_eq!(r.ret, 47);
        assert!(r.stats.cycles > 0);
        assert!(r.stats.instructions >= 4);
    }

    #[test]
    fn loop_sums_memory() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "sum",
            Signature::new(vec![Type::Ptr, Type::I64], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let arr = b.param(0);
            let n = b.param(1);
            let zero = b.iconst(Type::I64, 0);
            let pre = b.current_block();
            let header = b.create_block();
            let body = b.create_block();
            let exit = b.create_block();
            b.br(header);
            b.switch_to_block(header);
            let i = b.phi(Type::I64, &[(pre, zero)]);
            let acc = b.phi(Type::I64, &[(pre, zero)]);
            let c = b.icmp(CmpOp::Slt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let addr = b.gep(arr, i, 8, 0);
            let x = b.load(Type::I64, addr);
            let acc2 = b.binop(BinOp::Add, acc, x);
            let one = b.iconst(Type::I64, 1);
            let i2 = b.binop(BinOp::Add, i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(acc));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        let ptr = mach.setup_alloc(80);
        mach.setup_write(
            ptr,
            &(1..=10u64).flat_map(u64::to_le_bytes).collect::<Vec<u8>>(),
        );
        mach.finish_setup(false);
        let r = mach.run("sum", &[ptr, 10]).unwrap();
        assert_eq!(r.ret, 55);
        assert_eq!(r.stats.loads, 10);
    }

    #[test]
    fn float_kernel() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::F64], Some(Type::F64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.param(0);
            let half = b.fconst(0.5);
            let y = b.binop(BinOp::Fmul, x, half);
            let z = b.binop(BinOp::Fadd, y, half);
            b.ret(Some(z));
        }
        let mut mach = machine(&m);
        let r = mach.run("f", &[3.0f64.to_bits()]).unwrap();
        assert_eq!(f64::from_bits(r.ret), 2.0);
    }

    #[test]
    fn narrow_integer_semantics() {
        // i8 arithmetic wraps; unsigned compare masks.
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let a = b.iconst(Type::I8, -1); // 0xFF
            let c = b.iconst(Type::I8, 1);
            let ult = b.icmp(CmpOp::Ult, c, a); // 1 <u 255 → 1
            b.ret(Some(ult));
        }
        let mut mach = machine(&m);
        assert_eq!(mach.run("f", &[]).unwrap().ret, 1);
    }

    #[test]
    fn division_by_zero_traps() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let x = b.param(0);
            let z = b.iconst(Type::I64, 0);
            let d = b.binop(BinOp::Sdiv, x, z);
            b.ret(Some(d));
        }
        let mut mach = machine(&m);
        assert_eq!(mach.run("f", &[5]).unwrap_err(), Trap::DivByZero);
    }

    #[test]
    fn calls_and_stack_discipline() {
        let mut m = Module::new("t");
        let callee = m.declare_function("sq", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(callee));
            let slot = b.alloca(8, 8);
            let x = b.param(0);
            b.store(slot, x);
            let y = b.load(Type::I64, slot);
            let r = b.binop(BinOp::Mul, y, y);
            b.ret(Some(r));
        }
        let caller = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(caller));
            let zero = b.iconst(Type::I64, 0);
            let n = b.iconst(Type::I64, 100);
            b.counted_loop(zero, n, 1, |b, i| {
                let _ = b.call(callee, vec![i], Some(Type::I64));
            });
            let four = b.iconst(Type::I64, 4);
            let r = b.call(callee, vec![four], Some(Type::I64));
            b.ret(Some(r));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        let r = mach.run("f", &[]).unwrap();
        assert_eq!(r.ret, 16);
    }

    #[test]
    fn globals_are_initialized_and_writable() {
        let mut m = Module::new("t");
        let g = m.add_global("counter", 16, Some(vec![7, 0, 0, 0, 0, 0, 0, 0]));
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let addr = b.global_addr(g);
            let x = b.load(Type::I64, addr);
            let one = b.iconst(Type::I64, 1);
            let y = b.binop(BinOp::Add, x, one);
            b.store(addr, y);
            let z = b.load(Type::I64, addr);
            b.ret(Some(z));
        }
        let mut mach = machine(&m);
        assert_eq!(mach.run("f", &[]).unwrap().ret, 8);
    }

    #[test]
    fn fuel_limit_catches_infinite_loops() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![], None));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let spin = b.create_block();
            b.br(spin);
            b.switch_to_block(spin);
            b.br(spin);
        }
        let mut mach = machine(&m);
        mach.set_fuel(10_000);
        assert_eq!(mach.run("f", &[]).unwrap_err(), Trap::FuelExhausted);
    }

    /// `f(p) = *p`.
    fn load_param() -> Module {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let mut b = FunctionBuilder::new(m.function_mut(id));
        let p = b.param(0);
        let x = b.load(Type::I64, p);
        b.ret(Some(x));
        m
    }

    #[test]
    fn out_of_bounds_traps() {
        let m = load_param();
        let mut mach = machine(&m);
        let err = mach.run("f", &[0xdead]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }));
    }

    #[test]
    fn wild_heap_pointer_traps_without_growing_the_page_table() {
        // The pager sees a heap-range address before the bounds check does.
        use crate::memsys::FastswapMem;
        let m = load_param();
        let heap = 1 << 20;
        let mem = FastswapMem::new(heap, tfm_fastswap::PagerConfig::default());
        let mut mach = Machine::new(&m, mem, CostModel::default(), heap);
        let p = mach.setup_alloc(64);
        mach.finish_setup(false);
        mach.run("f", &[p]).unwrap();
        let pager = |mach: &Machine<'_, FastswapMem>| {
            let p = mach.mem.pager();
            (p.resident_bytes(), p.table_len(), p.stats())
        };
        let before = pager(&mach);
        assert!(before.0 > 0 && before.1 > 0);
        let err = mach.run("f", &[HEAP_BASE + heap + (1 << 40)]).unwrap_err();
        assert!(matches!(err, Trap::OutOfBounds { .. }));
        assert_eq!(pager(&mach), before);
    }

    #[test]
    fn memcpy_and_memset_move_data() {
        let mut m = Module::new("t");
        let id = m.declare_function(
            "f",
            Signature::new(vec![Type::Ptr, Type::Ptr], Some(Type::I64)),
        );
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let dst = b.param(0);
            let src = b.param(1);
            let n = b.iconst(Type::I64, 64);
            b.intrinsic(Intrinsic::Memcpy, vec![dst, src, n]);
            let x = b.load(Type::I64, dst);
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        let a = mach.setup_alloc(64);
        let bptr = mach.setup_alloc(64);
        mach.setup_write(
            bptr,
            &[0x1122334455667788u64, 2, 3, 4, 5, 6, 7, 8]
                .map(u64::to_le_bytes)
                .concat(),
        );
        mach.finish_setup(false);
        let r = mach.run("f", &[a, bptr]).unwrap();
        assert_eq!(r.ret, 0x1122334455667788);
    }

    #[test]
    fn telemetry_attributes_guards_to_sites() {
        use crate::memsys::TrackFmMem;
        use tfm_net::LinkParams;
        use tfm_runtime::FarMemoryConfig;
        use trackfm::CostModel;

        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let q = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let x = b.load(Type::I64, q);
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 8 * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        };
        let mem = TrackFmMem::new(cfg, CostModel::default());
        let mut mach = Machine::new(&m, mem, CostModel::default(), 1 << 20);
        let tel = Telemetry::enabled();
        mach.set_telemetry(tel.clone());
        let ptr = mach.setup_alloc(4096);
        mach.finish_setup(true); // cold start: the first guard fetches
        mach.run("f", &[ptr]).unwrap();
        let r = mach.run("f", &[ptr]).unwrap(); // now resident: fast path

        assert_eq!(r.stats.guards_slow_remote, 1);
        assert_eq!(r.stats.guards_fast, 1);
        let snap = tel.snapshot().unwrap();
        let sites: Vec<_> = snap.sites.iter().collect();
        assert_eq!(sites.len(), 1, "one guard instruction, one site");
        let (key, stats) = sites[0];
        assert_eq!(key.func(), id.0);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.slow_remote, 1);
        assert_eq!(stats.fast, 1);
        assert!(stats.stall_cycles > 0, "the cold fetch stalls");
        assert_eq!(snap.stall_per_access.count(), 2);
    }

    #[test]
    fn sanitizer_accepts_guarded_and_rejects_unguarded_heap_access() {
        let build = |guarded: bool| {
            let mut m = Module::new("t");
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            {
                let mut b = FunctionBuilder::new(m.function_mut(id));
                let p = b.param(0);
                let ptr = if guarded {
                    b.intrinsic(Intrinsic::GuardRead, vec![p])
                } else {
                    p
                };
                let x = b.load(Type::I64, ptr);
                b.ret(Some(x));
            }
            m.verify().unwrap();
            m
        };
        let good = build(true);
        let mut mach = machine(&good);
        mach.enable_guard_sanitizer();
        let ptr = mach.setup_alloc(64);
        mach.setup_write(ptr, &42u64.to_le_bytes());
        mach.finish_setup(false);
        assert_eq!(mach.run("f", &[ptr]).unwrap().ret, 42);

        let bad = build(false);
        let mut mach = machine(&bad);
        mach.enable_guard_sanitizer();
        let ptr = mach.setup_alloc(64);
        mach.finish_setup(false);
        assert!(matches!(
            mach.run("f", &[ptr]).unwrap_err(),
            Trap::UnguardedAccess { .. }
        ));
        // Without the sanitizer, LocalMem lets the unguarded access through.
        let mut mach = machine(&bad);
        let ptr = mach.setup_alloc(64);
        mach.finish_setup(false);
        assert!(mach.run("f", &[ptr]).is_ok());
    }

    #[test]
    fn sanitizer_catches_custody_lapse_across_calls() {
        // A guard result reused after a call that really kills (the callee
        // allocates): the canonical address is still valid memory, so only
        // the sanitizer's shadow kill catches it.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let _ = b.malloc_const(8);
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let _ = b.load(Type::I64, g);
            let _ = b.call(h, vec![], Some(Type::I64));
            let x = b.load(Type::I64, g); // custody lapsed
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        mach.enable_guard_sanitizer();
        let ptr = mach.setup_alloc(64);
        mach.finish_setup(false);
        assert!(matches!(
            mach.run("f", &[ptr]).unwrap_err(),
            Trap::UnguardedAccess { .. }
        ));
    }

    /// Runs `f(ptr)` sanitized on a fresh 64-byte heap object holding 7; in
    /// an `oracle` build the reference engine must return the same.
    fn sanitized_run(m: &Module) -> Result<u64, Trap> {
        let run = |mut mach: Machine<'_, LocalMem>| {
            mach.enable_guard_sanitizer();
            let ptr = mach.setup_alloc(64);
            mach.setup_write(ptr, &7u64.to_le_bytes());
            mach.finish_setup(false);
            mach.run("f", &[ptr]).map(|r| r.ret)
        };
        let r = run(machine(m));
        #[cfg(feature = "oracle")]
        {
            let mut tw = machine(m);
            tw.set_engine(ExecEngine::TreeWalk);
            assert_eq!(run(tw), r, "engines disagree");
        }
        r
    }

    #[test]
    fn sanitizer_revokes_custody_at_a_call_even_when_the_callee_kills_nothing() {
        // The callee executes no killing operation, yet the guard result is
        // reused after the call without a fresh guard: the call revokes the
        // caller's custody, as the lint's rule says.
        let mut m = Module::new("t");
        let h = m.declare_function("h", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let x = b.param(0);
            let y = b.binop(tfm_ir::BinOp::Add, x, x);
            b.ret(Some(y));
        }
        let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            let a = b.load(Type::I64, g);
            let _ = b.call(h, vec![a], Some(Type::I64));
            let x = b.load(Type::I64, g); // custody revoked by the call
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let r = sanitized_run(&m);
        assert!(matches!(r, Err(Trap::UnguardedAccess { .. })), "{r:?}");
    }

    #[test]
    fn sanitizer_gives_callee_frames_and_returns_no_custody() {
        // A guarded pointer passed as an argument carries no custody into
        // the callee, and a guard result returned to the caller carries
        // none back: each unguarded access traps.
        let mut m = Module::new("t");
        let reader = m.declare_function("reader", Signature::new(vec![Type::Ptr], Some(Type::I64)));
        let loc = m.declare_function("loc", Signature::new(vec![Type::Ptr], Some(Type::Ptr)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(reader));
            let p = b.param(0);
            let x = b.load(Type::I64, p); // the caller's guard does not reach
            b.ret(Some(x));
        }
        {
            let mut b = FunctionBuilder::new(m.function_mut(loc));
            let p = b.param(0);
            let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
            b.ret(Some(g));
        }
        let build = |through_reader: bool| {
            let mut m = m.clone();
            let id = m.declare_function("f", Signature::new(vec![Type::Ptr], Some(Type::I64)));
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let p = b.param(0);
            let x = if through_reader {
                let g = b.intrinsic(Intrinsic::GuardRead, vec![p]);
                b.call(reader, vec![g], Some(Type::I64))
            } else {
                let q = b.call(loc, vec![p], Some(Type::Ptr));
                b.load(Type::I64, q) // the callee's guard does not return
            };
            b.ret(Some(x));
            m.verify().unwrap();
            m
        };
        for through_reader in [true, false] {
            let r = sanitized_run(&build(through_reader));
            assert!(
                matches!(r, Err(Trap::UnguardedAccess { .. })),
                "through_reader={through_reader}: {r:?}"
            );
        }
    }

    #[test]
    fn sanitizer_exempts_stack_globals_and_local_allocs() {
        let mut m = Module::new("t");
        let g = m.add_global("g", 8, None);
        let h = m.declare_function("h", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(h));
            let z = b.iconst(Type::I64, 0);
            b.ret(Some(z));
        }
        let id = m.declare_function("f", Signature::new(vec![], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let one = b.iconst(Type::I64, 1);
            let slot = b.alloca(8, 8);
            b.store(slot, one);
            let ga = b.global_addr(g);
            b.store(ga, one);
            // A libc allocation stays accessible even across a call.
            let loc = b.malloc_const(64);
            b.store(loc, one);
            let _ = b.call(h, vec![], Some(Type::I64));
            let x = b.load(Type::I64, loc);
            b.ret(Some(x));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        mach.enable_guard_sanitizer();
        assert_eq!(mach.run("f", &[]).unwrap().ret, 1);
    }

    #[test]
    fn profiling_counts_blocks_and_edges() {
        let mut m = Module::new("t");
        let id = m.declare_function("f", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(id));
            let n = b.param(0);
            let zero = b.iconst(Type::I64, 0);
            b.counted_loop(zero, n, 1, |_b, _i| {});
            b.ret(Some(zero));
        }
        m.verify().unwrap();
        let mut mach = machine(&m);
        mach.enable_profiling();
        mach.run("f", &[25]).unwrap();
        let prof = mach.take_profile();
        // Header (bb1) executes 26 times: 25 iterations + exit check.
        assert_eq!(prof.block_count("f", Block(1)), 26);
    }
}

#[cfg(test)]
mod recursion_tests {
    use super::*;
    use crate::memsys::LocalMem;
    use tfm_ir::{BinOp, CmpOp, FunctionBuilder, Module, Signature};

    /// Recursive fib(n): exercises nested frames, per-frame registers and
    /// stack discipline across deep call chains.
    #[test]
    fn recursive_fibonacci() {
        let mut m = Module::new("t");
        let fib = m.declare_function("fib", Signature::new(vec![Type::I64], Some(Type::I64)));
        {
            let mut b = FunctionBuilder::new(m.function_mut(fib));
            let n = b.param(0);
            let base = b.create_block();
            let rec = b.create_block();
            let two = b.iconst(Type::I64, 2);
            let c = b.icmp(CmpOp::Slt, n, two);
            b.cond_br(c, base, rec);
            b.switch_to_block(base);
            b.ret(Some(n));
            b.switch_to_block(rec);
            let one = b.iconst(Type::I64, 1);
            let n1 = b.binop(BinOp::Sub, n, one);
            let n2 = b.binop(BinOp::Sub, n, two);
            let f1 = b.call(fib, vec![n1], Some(Type::I64));
            let f2 = b.call(fib, vec![n2], Some(Type::I64));
            let s = b.binop(BinOp::Add, f1, f2);
            b.ret(Some(s));
        }
        m.verify().unwrap();
        let mut mach = Machine::new(&m, LocalMem::new(1 << 16), CostModel::default(), 1 << 16);
        let r = mach.run("fib", &[20]).unwrap();
        assert_eq!(r.ret, 6765);
        // The call overhead must have been charged for every invocation.
        assert!(r.stats.cycles > 6765);
    }
}
