//! Memory systems: three implementors of [`MemorySystem`], one per runtime.
//!
//! | back-end | paper system | program form | access cost |
//! |---|---|---|---|
//! | [`LocalMem`] | "all local" baseline | any | plain loads/stores |
//! | [`FastswapMem`] | Fastswap (kernel paging) | *untransformed* | page faults at 4 KB granularity |
//! | [`TrackFmMem`], [`Flavor::TrackFm`] | TrackFM | *transformed* | compiler guards + object runtime |
//! | [`TrackFmMem`], [`Flavor::Aifm`] | AIFM (library) | *transformed*¹ | smart-pointer derefs + object runtime |
//! | [`TrackFmMem`], [`Flavor::Hybrid`] | §5 compiler+kernel hybrid | *transformed, `guards = false`* | chunk streams + kernel-style faults on raw accesses |
//!
//! ¹ The AIFM baseline executes the same transformed program but charges the
//! costs a hand-modified application would pay: no custody checks (the
//! developer knows which pointers are remoteable) and cheaper dereferences,
//! per the substitution table in DESIGN.md.
//!
//! The three flavors are behaviours of *one* object runtime sharing one
//! cache: they differ only in what a guard costs and in what a raw access
//! to a managed pointer does ([`MemorySystem::data_access`]).

use crate::stats::ExecStats;
use crate::trap::Trap;
use tfm_fastswap::{Pager, PagerConfig, PagerStats};
use tfm_ir::{CHUNK_FLAG_PREFETCH, CHUNK_FLAG_WRITE};
use tfm_net::{ShardSnapshot, TransferStats};
use tfm_runtime::{FarMemory, FarMemoryConfig, ObjId, RegionAllocator, RuntimeStats, TfmPtr};
use tfm_telemetry::Telemetry;
use trackfm::CostModel;

/// Base address of the canonical heap mapping.
pub const HEAP_BASE: u64 = 0x2000_0000_0000;
/// Base address of global data.
pub const GLOBAL_BASE: u64 = 0x6000_0000_0000;
/// Base address of the stack.
pub const STACK_BASE: u64 = 0x7000_0000_0000;

/// End-of-run counters from the memory system.
#[derive(Clone, Debug, Default)]
pub struct MemSummary {
    /// Far-memory runtime counters, if any.
    pub runtime: Option<RuntimeStats>,
    /// Pager counters, if any.
    pub pager: Option<PagerStats>,
    /// Network ledger, if any (aggregated over shards).
    pub transfers: Option<TransferStats>,
    /// Per-shard ledgers and health, populated only for multi-node
    /// backends (single-node summaries stay byte-identical to the
    /// pre-sharding format).
    pub shards: Vec<ShardSnapshot>,
}

/// A memory system the interpreter executes against.
///
/// All methods take `now` (the current simulated cycle) and return the extra
/// cycles the access/operation costs; the interpreter advances its clock by
/// the sum of operation cost and these extras.
pub trait MemorySystem {
    /// Allocates heap memory, returning the application-visible pointer.
    ///
    /// # Errors
    /// [`Trap::AllocFailure`] when the heap is exhausted.
    fn alloc(&mut self, size: u64, now: u64) -> Result<u64, Trap>;

    /// Frees an allocation.
    ///
    /// # Errors
    /// [`Trap::OutOfBounds`] for pointers this system never returned.
    fn free(&mut self, ptr: u64, now: u64) -> Result<(), Trap>;

    /// Rounded size of a live allocation (for `realloc`).
    fn alloc_size(&self, ptr: u64) -> Option<u64>;

    /// Charges residency costs for a data access at `addr`.
    ///
    /// # Errors
    /// [`Trap::NonCanonicalAccess`] for unguarded TrackFM pointers.
    fn data_access(
        &mut self,
        addr: u64,
        size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap>;

    /// Executes a guard (Fig. 4): returns `(cycles, localized pointer)`.
    /// Identity by default — systems without an object runtime execute
    /// transformed programs with every guard a free no-op.
    ///
    /// # Errors
    /// Out-of-range TrackFM pointers trap.
    fn guard(
        &mut self,
        ptr: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        Ok((0, ptr))
    }

    /// Opens a chunk stream; returns `(cycles, handle)`.
    fn chunk_begin(&mut self, _ptr: u64, _flags: i64, _now: u64) -> (u64, u64) {
        (0, 0)
    }

    /// Chunk dereference (boundary check or locality-invariant guard);
    /// returns `(cycles, localized pointer)`.
    ///
    /// # Errors
    /// [`Trap::BadChunkHandle`] on invalid handles.
    fn chunk_deref(
        &mut self,
        _handle: u64,
        ptr: u64,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        Ok((0, ptr))
    }

    /// Closes a chunk stream (unpins its current object).
    ///
    /// # Errors
    /// [`Trap::BadChunkHandle`] on invalid handles.
    fn chunk_end(&mut self, _handle: u64, _now: u64) -> Result<u64, Trap> {
        Ok(0)
    }

    /// Asynchronous localization hint.
    fn prefetch_hint(&mut self, _ptr: u64, _now: u64) {}

    /// Translates an application address to its canonical form for raw data
    /// resolution (strips the TrackFM tag).
    fn canonical(&self, addr: u64) -> u64 {
        addr
    }

    /// Charges residency for a byte range (memcpy/memset support): one
    /// [`MemorySystem::data_access`] over the whole range by default.
    ///
    /// # Errors
    /// Propagates residency traps.
    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        self.data_access(addr, len, write, now, stats)
    }

    /// Pages/evacuates everything out (cold-start between setup and run).
    fn evacuate_all(&mut self, now: u64);

    /// Clears counters and link state.
    fn reset_stats(&mut self);

    /// End-of-run counters.
    fn summary(&self) -> MemSummary;

    /// Attaches a telemetry sink. Systems with nothing to report (e.g.
    /// [`LocalMem`]) keep the default no-op.
    fn set_telemetry(&mut self, _tel: Telemetry) {}

    /// Tells the system which simulated worker core is about to execute
    /// (multi-core scheduler only; threads into per-core retry jitter).
    /// Systems without core-dependent behavior keep the default no-op.
    fn set_core(&mut self, _core: u32) {}

    /// Switches demand misses to the split issue/complete protocol
    /// (multi-core scheduler only). Off — the default everywhere — keeps
    /// the synchronous single-core path bit-identical to before the split.
    fn set_async_fetch(&mut self, _on: bool) {}

    /// Drains the completion horizon: the latest delivery cycle of any
    /// miss issued asynchronously since the last call (0 if none, and
    /// always 0 on the synchronous path). The scheduler folds it into
    /// per-request latency — a core moves on at the issue point, but the
    /// request only completes when its data lands.
    fn take_completion_horizon(&mut self) -> u64 {
        0
    }
}

// ======================================================================
// LocalMem
// ======================================================================

/// All memory is local: the "local-only" baseline every figure normalizes
/// against. Also executes *transformed* programs (guards become identity)
/// so the semantic-preservation tests can compare before/after IR.
#[derive(Clone, Debug)]
pub struct LocalMem {
    alloc: RegionAllocator,
}

impl LocalMem {
    /// Creates a local memory system over `heap_size` bytes.
    pub fn new(heap_size: u64) -> Self {
        LocalMem {
            alloc: RegionAllocator::new(heap_size, 4096),
        }
    }
}

impl MemorySystem for LocalMem {
    fn alloc(&mut self, size: u64, _now: u64) -> Result<u64, Trap> {
        let p = self.alloc.alloc(size).map_err(|_| Trap::AllocFailure)?;
        Ok(HEAP_BASE + p.offset())
    }

    fn free(&mut self, ptr: u64, _now: u64) -> Result<(), Trap> {
        if ptr < HEAP_BASE {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        }
        self.alloc.free(TfmPtr::from_offset(ptr - HEAP_BASE));
        Ok(())
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        ptr.checked_sub(HEAP_BASE)
            .and_then(|off| self.alloc.size_of(TfmPtr::from_offset(off)))
    }

    fn data_access(
        &mut self,
        _addr: u64,
        _size: u64,
        _write: bool,
        _now: u64,
        _stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        Ok(0)
    }

    fn evacuate_all(&mut self, _now: u64) {}

    fn reset_stats(&mut self) {}

    fn summary(&self) -> MemSummary {
        MemSummary::default()
    }
}

// ======================================================================
// FastswapMem
// ======================================================================

/// The kernel-paging baseline: untransformed programs, page-granularity
/// faults.
pub struct FastswapMem {
    /// The flat heap: allocation is [`LocalMem`]'s, only residency differs.
    heap: LocalMem,
    pager: Pager,
}

impl FastswapMem {
    /// Creates a Fastswap memory system.
    pub fn new(heap_size: u64, pager_cfg: PagerConfig) -> Self {
        FastswapMem {
            heap: LocalMem::new(heap_size),
            pager: Pager::with_range(pager_cfg, HEAP_BASE, heap_size),
        }
    }

    /// The pager (for assertions in tests).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }
}

impl MemorySystem for FastswapMem {
    fn alloc(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        self.heap.alloc(size, now)
    }

    fn free(&mut self, ptr: u64, now: u64) -> Result<(), Trap> {
        self.heap.free(ptr, now)
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        self.heap.alloc_size(ptr)
    }

    fn data_access(
        &mut self,
        addr: u64,
        size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if (HEAP_BASE..GLOBAL_BASE).contains(&addr) {
            let cycles = self.pager.access(addr, size, write, now);
            stats.stall_cycles += cycles;
            Ok(cycles)
        } else {
            Ok(0)
        }
    }

    fn evacuate_all(&mut self, now: u64) {
        self.pager.evacuate_all(now);
    }

    fn reset_stats(&mut self) {
        self.pager.reset_stats();
    }

    fn summary(&self) -> MemSummary {
        MemSummary {
            runtime: None,
            pager: Some(self.pager.stats()),
            transfers: Some(self.pager.transfer_stats()),
            shards: if self.pager.shard_count() > 1 {
                self.pager.shard_snapshots()
            } else {
                Vec::new()
            },
        }
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        self.pager.set_telemetry(tel);
    }

    fn set_async_fetch(&mut self, on: bool) {
        self.pager.set_async_fetch(on);
    }

    fn take_completion_horizon(&mut self) -> u64 {
        self.pager.take_completion_horizon()
    }
}

// ======================================================================
// TrackFmMem and its three flavors
// ======================================================================

/// What a [`TrackFmMem`] charges for a guard and does on a raw access to a
/// managed pointer. Everything else — allocation, chunk streams, the
/// object cache, prefetching, eviction — is shared.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// TrackFM: compiler guards pay the custody check plus Table 1's
    /// fast/slow path; a raw access to a managed pointer is the §3.1
    /// general-protection fault.
    TrackFm,
    /// AIFM (library baseline): developer-integrated costs — no custody
    /// check, cheap smart-pointer deref.
    Aifm,
    /// The §5 "hybrid approach (compiler and kernel)": chunk streams run on
    /// the object runtime exactly as TrackFM's do, but *unchunked* heap
    /// accesses carry **no guards at all** (compile with
    /// `CompilerOptions { guards: false, .. }`) — they execute raw, and a
    /// miss vectors into a kernel-style fault handler. Resident irregular
    /// accesses cost *zero* extra cycles, but every miss pays the kernel
    /// fault cost (Table 2: ~1.3 K cycles) on top of the fetch instead of
    /// the ~150-cycle slow-path guard. Misses are counted in
    /// [`ExecStats::guards_slow_remote`]/`_local` (they are the fault-path
    /// events of this flavor).
    Hybrid,
}

#[derive(Clone, Debug)]
struct ChunkStream {
    /// Pinned window: the current object and the previous one. Stencil
    /// loops touch `i-1, i, i+1` through one stream; a single-slot window
    /// would ping-pong locality guards at every object boundary.
    cur: Option<ObjId>,
    prev: Option<ObjId>,
    write: bool,
    prefetch: bool,
    last_dir: i64,
    active: bool,
}

/// The TrackFM memory system: compiler guards backed by the AIFM-like
/// object runtime.
#[derive(Debug)]
pub struct TrackFmMem {
    fm: FarMemory,
    cost: CostModel,
    streams: Vec<ChunkStream>,
    free_streams: Vec<usize>,
    flavor: Flavor,
}

impl TrackFmMem {
    /// Creates a TrackFM memory system ([`Flavor::TrackFm`]).
    pub fn new(cfg: FarMemoryConfig, cost: CostModel) -> Self {
        Self::with_flavor(Flavor::TrackFm, cfg, cost)
    }

    /// Creates the object runtime in the given flavor.
    pub fn with_flavor(flavor: Flavor, cfg: FarMemoryConfig, cost: CostModel) -> Self {
        TrackFmMem {
            fm: FarMemory::new(cfg),
            cost,
            streams: Vec::new(),
            free_streams: Vec::new(),
            flavor,
        }
    }

    /// The underlying runtime (for assertions in tests).
    pub fn far_memory(&self) -> &FarMemory {
        &self.fm
    }

    #[inline]
    fn canonical_of(&self, ptr: u64) -> u64 {
        HEAP_BASE + (ptr & tfm_runtime::OFFSET_MASK)
    }

    #[inline]
    fn obj_of_ptr(&self, ptr: u64) -> Result<ObjId, Trap> {
        let off = ptr & tfm_runtime::OFFSET_MASK;
        if off >= self.fm.config().heap_size {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        }
        Ok(self.fm.obj_of_offset(off))
    }

    /// The slow path shared by guards and hybrid faults: `base` cycles of
    /// handler (runtime call or kernel fault), possibly a remote fetch,
    /// then a collection point (§3.3). Returns the total cycles.
    fn slow_path(
        &mut self,
        obj: ObjId,
        write: bool,
        now: u64,
        base: u64,
        stats: &mut ExecStats,
    ) -> u64 {
        let stall = self.fm.localize(obj, write, now + base);
        if stall > 0 {
            stats.guards_slow_remote += 1;
            stats.stall_cycles += stall;
        } else {
            stats.guards_slow_local += 1;
        }
        self.fm.collection_point(now + base + stall);
        base + stall
    }
}

impl MemorySystem for TrackFmMem {
    fn alloc(&mut self, size: u64, now: u64) -> Result<u64, Trap> {
        self.fm
            .allocate(size, now)
            .map(|p| p.raw())
            .map_err(|_| Trap::AllocFailure)
    }

    fn free(&mut self, ptr: u64, _now: u64) -> Result<(), Trap> {
        if !TfmPtr::is_tfm(ptr) {
            return Err(Trap::OutOfBounds { addr: ptr, size: 0 });
        }
        self.fm.free(TfmPtr(ptr));
        Ok(())
    }

    fn alloc_size(&self, ptr: u64) -> Option<u64> {
        if !TfmPtr::is_tfm(ptr) {
            return None;
        }
        self.fm.allocator().size_of(TfmPtr(ptr))
    }

    fn data_access(
        &mut self,
        addr: u64,
        _size: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if !TfmPtr::is_tfm(addr) {
            return Ok(0);
        }
        if self.flavor != Flavor::Hybrid {
            // An unguarded access to a TrackFM pointer is the §3.1 general
            // protection fault: the compiler missed a guard.
            return Err(Trap::NonCanonicalAccess { addr });
        }
        // Hybrid: raw accesses to managed memory are legal. Mapped objects
        // are free; a miss takes a kernel-style fault that localizes the
        // object.
        let obj = self.obj_of_ptr(addr)?;
        if self.fm.table().is_safe(obj) {
            self.fm.fast_touch(obj, write);
            return Ok(0);
        }
        let base = PagerConfig::default().kernel_fault_cycles;
        Ok(self.slow_path(obj, write, now, base, stats))
    }

    fn guard(
        &mut self,
        ptr: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        if !TfmPtr::is_tfm(ptr) {
            // Custody check exits early: not a TrackFM pointer.
            if self.flavor == Flavor::Aifm {
                return Ok((0, ptr)); // the developer never wraps these
            }
            stats.custody_exits += 1;
            return Ok((self.cost.custody_check, ptr));
        }
        let obj = self.obj_of_ptr(ptr)?;
        if self.fm.table().is_safe(obj) {
            // Fast path.
            let cycles = if self.flavor == Flavor::Aifm {
                self.cost.aifm_deref
            } else if write {
                self.cost.custody_check + self.cost.guard_fast_write
            } else {
                self.cost.custody_check + self.cost.guard_fast_read
            };
            stats.guards_fast += 1;
            self.fm.fast_touch(obj, write);
            return Ok((cycles, self.canonical_of(ptr)));
        }
        // Slow path: runtime call, possibly a remote fetch, then a
        // collection point (§3.3).
        let base = if self.flavor == Flavor::Aifm {
            self.cost.aifm_slow
        } else if write {
            self.cost.custody_check + self.cost.guard_slow_write
        } else {
            self.cost.custody_check + self.cost.guard_slow_read
        };
        let cycles = self.slow_path(obj, write, now, base, stats);
        Ok((cycles, self.canonical_of(ptr)))
    }

    fn chunk_begin(&mut self, _ptr: u64, flags: i64, _now: u64) -> (u64, u64) {
        let stream = ChunkStream {
            cur: None,
            prev: None,
            write: flags & CHUNK_FLAG_WRITE != 0,
            prefetch: flags & CHUNK_FLAG_PREFETCH != 0,
            last_dir: 1,
            active: true,
        };
        let idx = match self.free_streams.pop() {
            Some(i) => {
                self.streams[i] = stream;
                i
            }
            None => {
                self.streams.push(stream);
                self.streams.len() - 1
            }
        };
        (self.cost.alu, idx as u64)
    }

    fn chunk_deref(
        &mut self,
        handle: u64,
        ptr: u64,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<(u64, u64), Trap> {
        let idx = handle as usize;
        if idx >= self.streams.len() || !self.streams[idx].active {
            return Err(Trap::BadChunkHandle { handle });
        }
        if !TfmPtr::is_tfm(ptr) {
            // Chunked stream over a non-managed pointer (e.g. a stack
            // array): boundary check only.
            stats.boundary_checks += 1;
            return Ok((self.cost.boundary_check, ptr));
        }
        let obj = self.obj_of_ptr(ptr)?;
        let (cur, prev, write, prefetch) = {
            let s = &self.streams[idx];
            (s.cur, s.prev, s.write, s.prefetch)
        };
        if cur == Some(obj) || prev == Some(obj) {
            // In-window: the cheap conditional of Fig. 5.
            let c = if self.flavor == Flavor::Aifm {
                self.cost.boundary_check.min(self.cost.aifm_deref)
            } else {
                self.cost.boundary_check
            };
            stats.boundary_checks += 1;
            self.fm.fast_touch(obj, write);
            return Ok((c, self.canonical_of(ptr)));
        }
        // Object crossing: locality-invariant guard. The window slides:
        // the oldest pin is released, the new object pinned.
        let base = if self.flavor == Flavor::Aifm {
            self.cost.aifm_slow
        } else {
            self.cost.locality_guard
        };
        if let Some(old) = prev {
            self.fm.unpin(old);
        }
        if let Some(cur) = cur {
            let dir = if obj.0 >= cur.0 { 1 } else { -1 };
            self.streams[idx].last_dir = dir;
        }
        let stall = self.fm.localize(obj, write, now + base);
        if stall > 0 {
            stats.stall_cycles += stall;
        }
        self.fm.pin(obj);
        self.fm.collection_point(now + base + stall);
        if prefetch {
            let dir = self.streams[idx].last_dir;
            self.fm.prefetch_ahead(obj, dir, now + base + stall);
        }
        self.streams[idx].prev = cur;
        self.streams[idx].cur = Some(obj);
        stats.locality_guards += 1;
        Ok((base + stall, self.canonical_of(ptr)))
    }

    fn chunk_end(&mut self, handle: u64, _now: u64) -> Result<u64, Trap> {
        let idx = handle as usize;
        if idx >= self.streams.len() || !self.streams[idx].active {
            return Err(Trap::BadChunkHandle { handle });
        }
        if let Some(obj) = self.streams[idx].cur.take() {
            self.fm.unpin(obj);
        }
        if let Some(obj) = self.streams[idx].prev.take() {
            self.fm.unpin(obj);
        }
        self.streams[idx].active = false;
        self.free_streams.push(idx);
        Ok(self.cost.alu)
    }

    fn prefetch_hint(&mut self, ptr: u64, now: u64) {
        if TfmPtr::is_tfm(ptr) {
            if let Ok(obj) = self.obj_of_ptr(ptr) {
                self.fm.prefetch(obj, now);
            }
        }
    }

    fn canonical(&self, addr: u64) -> u64 {
        if TfmPtr::is_tfm(addr) {
            self.canonical_of(addr)
        } else {
            addr
        }
    }

    fn access_range(
        &mut self,
        addr: u64,
        len: u64,
        write: bool,
        now: u64,
        stats: &mut ExecStats,
    ) -> Result<u64, Trap> {
        if !TfmPtr::is_tfm(addr) {
            return Ok(0);
        }
        // Runtime-internal memcpy path: localize each covered object via the
        // slow path (pre-transformed library code, §2).
        let obj_size = self.fm.object_size();
        let start = addr & tfm_runtime::OFFSET_MASK;
        let end = start + len.max(1) - 1;
        if end >= self.fm.config().heap_size {
            return Err(Trap::OutOfBounds { addr, size: len });
        }
        let mut cycles = 0;
        for o in (start / obj_size)..=(end / obj_size) {
            let obj = ObjId(o);
            if self.fm.table().is_safe(obj) {
                self.fm.fast_touch(obj, write);
                cycles += self.cost.guard_fast_read;
                stats.guards_fast += 1;
            } else {
                let base = self.cost.guard_slow_read;
                let stall = self.fm.localize(obj, write, now + cycles + base);
                if stall > 0 {
                    stats.guards_slow_remote += 1;
                    stats.stall_cycles += stall;
                } else {
                    stats.guards_slow_local += 1;
                }
                cycles += base + stall;
            }
        }
        Ok(cycles)
    }

    fn evacuate_all(&mut self, now: u64) {
        self.fm.evacuate_all(now);
    }

    fn reset_stats(&mut self) {
        self.fm.reset_stats();
    }

    fn summary(&self) -> MemSummary {
        MemSummary {
            runtime: Some(*self.fm.stats()),
            pager: None,
            transfers: Some(self.fm.transfer_stats()),
            shards: if self.fm.shard_count() > 1 {
                self.fm.shard_snapshots()
            } else {
                Vec::new()
            },
        }
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        self.fm.set_telemetry(tel);
    }

    fn set_core(&mut self, core: u32) {
        self.fm.set_core(core);
    }

    fn set_async_fetch(&mut self, on: bool) {
        self.fm.set_async_fetch(on);
    }

    fn take_completion_horizon(&mut self) -> u64 {
        self.fm.take_completion_horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_net::LinkParams;

    fn tfm_cfg(budget_objs: u64) -> FarMemoryConfig {
        FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: budget_objs * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
    }

    #[test]
    fn guard_paths_charge_per_table1() {
        let cost = CostModel::default();
        let mut m = TrackFmMem::new(tfm_cfg(8), cost);
        let mut st = ExecStats::default();
        let ptr = m.alloc(4096, 0).unwrap();
        assert!(TfmPtr::is_tfm(ptr));

        // Fresh object: fast path read = custody + 21.
        let (c, out) = m.guard(ptr, false, 0, &mut st).unwrap();
        assert_eq!(c, cost.custody_check + cost.guard_fast_read);
        assert_eq!(out, HEAP_BASE + (ptr & tfm_runtime::OFFSET_MASK));
        assert_eq!(st.guards_fast, 1);

        // Fast write.
        let (c, _) = m.guard(ptr, true, 0, &mut st).unwrap();
        assert_eq!(c, cost.custody_check + cost.guard_fast_write);

        // Non-TrackFM pointer: custody check only, pointer unchanged.
        let (c, out) = m.guard(STACK_BASE + 64, false, 0, &mut st).unwrap();
        assert_eq!(c, cost.custody_check);
        assert_eq!(out, STACK_BASE + 64);
        assert_eq!(st.custody_exits, 1);

        // Evacuate, then slow remote path.
        m.evacuate_all(0);
        let (c, _) = m.guard(ptr, false, 0, &mut st).unwrap();
        assert!(c > 30_000, "remote slow path = {c}");
        assert_eq!(st.guards_slow_remote, 1);
    }

    #[test]
    fn raw_access_to_a_remote_managed_pointer_by_flavor() {
        let kernel = PagerConfig::default().kernel_fault_cycles;
        for flavor in [Flavor::TrackFm, Flavor::Aifm, Flavor::Hybrid] {
            let mut m = TrackFmMem::with_flavor(flavor, tfm_cfg(8), CostModel::default());
            let mut st = ExecStats::default();
            let ptr = m.alloc(64, 0).unwrap();
            m.evacuate_all(0);
            m.reset_stats();
            let first = m.data_access(ptr, 8, false, 0, &mut st);
            // Canonical addresses are fine in every flavor.
            assert_eq!(m.data_access(HEAP_BASE, 8, false, 0, &mut st), Ok(0));
            if flavor != Flavor::Hybrid {
                // The §3.1 general-protection fault: the compiler missed a
                // guard.
                assert_eq!(first, Err(Trap::NonCanonicalAccess { addr: ptr }));
                continue;
            }
            // Kernel fault cost plus the fetch; the second touch is free.
            let c = first.unwrap();
            assert!(c > kernel + 30_000, "{flavor:?}: fault + fetch = {c}");
            assert_eq!(st.guards_slow_remote, 1);
            assert_eq!(st.stall_cycles, c - kernel);
            assert_eq!(m.summary().runtime.unwrap().remote_fetches, 1);
            assert_eq!(m.data_access(ptr, 8, true, c, &mut st), Ok(0));
        }
    }

    #[test]
    fn hybrid_fault_is_a_collection_point() {
        // Budget of two objects, both pinned by a chunk stream's window: a
        // prefetch of a third overruns the budget. Once the stream closes,
        // the next fault — a prefetch hit, so nothing is fetched and no
        // room is made — must bring residency back under budget.
        let mut m = TrackFmMem::with_flavor(Flavor::Hybrid, tfm_cfg(2), CostModel::default());
        let mut st = ExecStats::default();
        // Objects 0, 2 and 5: no unit stride, so the runtime's own stride
        // prefetcher (which would make room) stays out of the picture.
        let ptr = m.alloc(6 * 4096, 0).unwrap();
        m.evacuate_all(0);
        let (_, h) = m.chunk_begin(ptr, 0, 0);
        m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        m.chunk_deref(h, ptr + 2 * 4096, 100_000, &mut st).unwrap();
        m.prefetch_hint(ptr + 5 * 4096, 200_000);
        m.chunk_end(h, 200_000).unwrap();
        assert_eq!(m.far_memory().resident_bytes(), 3 * 4096);
        assert_eq!(
            m.data_access(ptr + 5 * 4096, 8, false, 1_000_000, &mut st),
            Ok(PagerConfig::default().kernel_fault_cycles)
        );
        assert_eq!(m.far_memory().resident_bytes(), 2 * 4096);
    }

    #[test]
    fn chunk_stream_boundary_vs_locality() {
        let cost = CostModel::default();
        let mut m = TrackFmMem::new(tfm_cfg(8), cost);
        let mut st = ExecStats::default();
        let ptr = m.alloc(8192, 0).unwrap();
        m.evacuate_all(0);
        m.reset_stats();

        let (_, h) = m.chunk_begin(ptr, CHUNK_FLAG_WRITE, 0);
        // First deref: crossing (None → obj0) = locality guard + fetch.
        let (c1, _) = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        assert!(c1 >= cost.locality_guard);
        assert_eq!(st.locality_guards, 1);
        // Subsequent derefs within obj0: 3-cycle boundary checks.
        for i in 1..512u64 {
            let (c, _) = m.chunk_deref(h, ptr + i * 8, 1_000_000, &mut st).unwrap();
            assert_eq!(c, cost.boundary_check);
        }
        assert_eq!(st.boundary_checks, 511);
        // Crossing into obj1: locality guard again.
        let (c2, _) = m.chunk_deref(h, ptr + 4096, 2_000_000, &mut st).unwrap();
        assert!(c2 >= cost.locality_guard);
        assert_eq!(st.locality_guards, 2);
        assert!(m.chunk_end(h, 0).is_ok());
        // Closed stream rejects further use.
        assert!(matches!(
            m.chunk_deref(h, ptr, 0, &mut st),
            Err(Trap::BadChunkHandle { .. })
        ));
    }

    #[test]
    fn chunk_crossing_pins_current_object() {
        let mut m = TrackFmMem::new(tfm_cfg(1), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(8192, 0).unwrap();
        m.evacuate_all(0);
        let (_, h) = m.chunk_begin(ptr, 0, 0);
        let (_, _) = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        let obj0 = m.far_memory().obj_of_offset(ptr & tfm_runtime::OFFSET_MASK);
        assert_eq!(m.far_memory().table().pins(obj0), 1);
        // Budget is 1 object; a guard on another allocation cannot evict the
        // pinned one.
        let other = m.alloc(4096, 0).unwrap();
        let _ = m.guard(other, false, 1_000_000, &mut st).unwrap();
        assert!(m.far_memory().table().is_present(obj0));
        m.chunk_end(h, 0).unwrap();
        assert_eq!(m.far_memory().table().pins(obj0), 0);
    }

    #[test]
    fn stream_prefetch_runs_ahead() {
        let mut m = TrackFmMem::new(tfm_cfg(64), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(64 * 4096, 0).unwrap();
        m.evacuate_all(0);
        m.reset_stats();
        let (_, h) = m.chunk_begin(ptr, CHUNK_FLAG_PREFETCH, 0);
        let _ = m.chunk_deref(h, ptr, 0, &mut st).unwrap();
        let s = m.summary().runtime.unwrap();
        assert!(s.prefetch_issued >= 8, "prefetch depth should be issued");
        // Crossing into the prefetched object much later: a hit, no demand
        // fetch.
        let (_c, _) = m.chunk_deref(h, ptr + 4096, 10_000_000, &mut st).unwrap();
        let s = m.summary().runtime.unwrap();
        assert_eq!(
            s.remote_fetches, 1,
            "only the first object was a demand fetch"
        );
        assert!(s.prefetch_hits >= 1);
    }

    #[test]
    fn aifm_flavor_is_cheaper_on_fast_path() {
        let cost = CostModel::default();
        let mut tfm = TrackFmMem::new(tfm_cfg(8), cost);
        let mut aifm = TrackFmMem::with_flavor(Flavor::Aifm, tfm_cfg(8), cost);
        let mut st = ExecStats::default();
        let p1 = tfm.alloc(4096, 0).unwrap();
        let p2 = aifm.alloc(4096, 0).unwrap();
        let (c_tfm, _) = tfm.guard(p1, false, 0, &mut st).unwrap();
        let (c_aifm, _) = aifm.guard(p2, false, 0, &mut st).unwrap();
        assert!(
            c_aifm < c_tfm,
            "AIFM deref {c_aifm} must beat guard {c_tfm}"
        );
    }

    #[test]
    fn access_range_walks_objects() {
        let mut m = TrackFmMem::new(tfm_cfg(16), CostModel::default());
        let mut st = ExecStats::default();
        let ptr = m.alloc(3 * 4096, 0).unwrap();
        m.evacuate_all(0);
        m.reset_stats();
        let c = m.access_range(ptr, 3 * 4096, false, 0, &mut st).unwrap();
        assert!(c > 90_000, "three remote fetches: {c}");
        assert_eq!(m.summary().runtime.unwrap().remote_fetches, 3);
    }

    #[test]
    fn fastswap_mem_routes_heap_through_pager() {
        let mut m = FastswapMem::new(1 << 20, PagerConfig::default());
        let mut st = ExecStats::default();
        let p = m.alloc(8192, 0).unwrap();
        let c = m.data_access(p, 8, true, 0, &mut st).unwrap();
        assert!(c > 0, "first touch faults");
        assert_eq!(m.data_access(p, 8, false, c, &mut st).unwrap(), 0);
        // Stack accesses never fault.
        assert_eq!(m.data_access(STACK_BASE, 8, true, 0, &mut st).unwrap(), 0);
        assert_eq!(m.summary().pager.unwrap().minor_faults, 1);
    }

    #[test]
    fn local_mem_is_free_and_identity() {
        let mut m = LocalMem::new(1 << 20);
        let mut st = ExecStats::default();
        let p = m.alloc(128, 0).unwrap();
        assert!(p >= HEAP_BASE);
        assert_eq!(m.data_access(p, 8, true, 0, &mut st).unwrap(), 0);
        let (c, out) = m.guard(p, true, 0, &mut st).unwrap();
        assert_eq!((c, out), (0, p));
        assert_eq!(m.alloc_size(p), Some(128));
        m.free(p, 0).unwrap();
        assert!(m.summary().transfers.is_none());
    }

    #[test]
    fn stream_handles_are_reused() {
        let mut m = TrackFmMem::new(tfm_cfg(8), CostModel::default());
        let (_, h1) = m.chunk_begin(HEAP_BASE, 0, 0);
        m.chunk_end(h1, 0).unwrap();
        let (_, h2) = m.chunk_begin(HEAP_BASE, 0, 0);
        assert_eq!(h1, h2, "freed handle should be recycled");
    }
}
