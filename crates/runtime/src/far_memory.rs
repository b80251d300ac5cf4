//! The far-memory object runtime (AIFM stand-in).
//!
//! [`FarMemory`] owns the object state table, the region allocator, the
//! simulated link, and the evacuator's CLOCK. It is a *metadata* runtime:
//! object payloads live in the host process (the simulator's flat heap), so
//! localize/evict operations move bookkeeping and charge cycles/bytes rather
//! than copying data. See DESIGN.md §2 for why this preserves the paper's
//! measured quantities.
//!
//! Lifecycle of an object (matching AIFM's semantics as used in §3.2–3.3):
//!
//! * freshly allocated objects are local and dirty (they have no remote copy
//!   yet);
//! * the evacuator keeps resident bytes under the local budget, skipping
//!   pinned and in-flight objects, writing dirty victims back over the link;
//! * a slow-path guard localizes a remote object synchronously; the chunk
//!   locality-invariant guard additionally pins it for the duration of a
//!   chunk; the prefetcher localizes asynchronously, overlapping latency
//!   with execution.

use crate::alloc::{AllocError, RegionAllocator};
use crate::config::{FarMemoryConfig, RetryPolicy};
use crate::ptr::{ObjId, TfmPtr};
use crate::state::{StateTable, DEMAND, DIRTY, HOT, INFLIGHT, PRESENT};
use crate::stats::RuntimeStats;
use std::collections::VecDeque;
use tfm_net::{
    build_backend, drive_retries, FailoverAudit, LinkFault, RetryOps, ShardSnapshot, ShardState,
    Sharded, TransferStats,
};
use tfm_telemetry::{Span, SpanId, SpanKind, Telemetry};

/// The far-memory runtime.
#[derive(Debug)]
pub struct FarMemory {
    cfg: FarMemoryConfig,
    log2_obj: u32,
    table: StateTable,
    alloc: RegionAllocator,
    backend: Sharded,
    clock: VecDeque<ObjId>,
    resident_bytes: u64,
    stats: RuntimeStats,
    /// AIFM's runtime stride prefetcher: a small table of concurrent
    /// streams (AIFM keeps per-data-structure prefetcher state; several
    /// interleaved scans are the common case, e.g. CSR walks).
    streams: Vec<StrideStream>,
    stream_victim: usize,
    tel: Telemetry,
    /// Per-shard mirror of the backend's degraded flags; transitions count
    /// `degradations` and gate the prefetcher on the affected shard only.
    degraded: Vec<bool>,
    /// Never read. Its one small allocation, made right after `degraded`,
    /// keeps glibc's heap layout where it was when this runtime kept its own
    /// per-shard failover mirror there: without it `tfm-perf`'s `stream_far`
    /// `peak_rss_mb` reads 116.6 MiB instead of 97.6 (see CHANGES.md).
    /// Delete it with the pager's `INITIAL_ENTRIES` once ROADMAP item 1(c)
    /// pins glibc's mmap threshold.
    _heap_ballast: Vec<ShardState>,
    /// The simulated core currently driving this runtime (0 on the
    /// synchronous single-core machine). Folded into the retry jitter seed
    /// so each core draws an independent deterministic backoff schedule.
    core: u32,
    /// Split issue/complete demand fetches (DESIGN.md §6h). Engaged only by
    /// the multi-core scheduler; the synchronous machine never sets it, so
    /// `cores(1)` keeps the legacy blocking path bit-identical.
    async_fetch: bool,
    /// Latest delivery cycle of any fetch issued asynchronously since the
    /// scheduler last drained it: a core is charged only to the issue
    /// point, so the request's semantic completion (data actually landed)
    /// is reported out of band for latency accounting.
    completion_horizon: u64,
}

#[derive(Copy, Clone, Debug, Default)]
struct StrideStream {
    last: u64,
    dir: i64,
    run: u32,
}

/// Number of concurrent miss streams the runtime prefetcher tracks.
const STRIDE_STREAMS: usize = 8;

impl FarMemory {
    /// Creates a runtime from a validated configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`FarMemoryConfig::validate`]).
    pub fn new(cfg: FarMemoryConfig) -> Self {
        cfg.validate();
        let backend = build_backend(cfg.link, cfg.backend, cfg.faults);
        let degraded = vec![false; backend.shard_count()];
        let _heap_ballast = vec![ShardState::Up; backend.shard_count()];
        FarMemory {
            log2_obj: cfg.log2_object_size(),
            table: StateTable::new(cfg.num_objects()),
            alloc: RegionAllocator::new(cfg.heap_size, cfg.object_size),
            backend,
            clock: VecDeque::new(),
            resident_bytes: 0,
            stats: RuntimeStats::default(),
            streams: Vec::new(),
            stream_victim: 0,
            tel: Telemetry::disabled(),
            degraded,
            _heap_ballast,
            core: 0,
            async_fetch: false,
            completion_horizon: 0,
            cfg,
        }
    }

    /// Sets the simulated core driving subsequent operations (retry jitter
    /// is drawn per core; core 0 reproduces the single-core schedule).
    pub fn set_core(&mut self, core: u32) {
        self.core = core;
    }

    /// Switches demand fetches to the split issue/complete protocol: a miss
    /// charges the wire immediately but leaves the object `INFLIGHT | DEMAND`
    /// in the state table instead of blocking, and a second core missing
    /// the same object joins the pending fetch — one transfer on the wire
    /// serves both. Only the multi-core scheduler turns this on — the
    /// synchronous machine keeps the blocking path.
    pub fn set_async_fetch(&mut self, on: bool) {
        self.async_fetch = on;
    }

    /// Number of demand fetches issued and not yet claimed (a table scan).
    pub fn demand_inflight_len(&self) -> usize {
        self.table.count(DEMAND)
    }

    /// Drains the completion horizon: the latest delivery cycle of any
    /// demand fetch issued asynchronously since the last call (0 if none).
    /// The multi-core scheduler folds this into per-request latency — the
    /// core moves on at the issue point, but the request is not complete
    /// until its data lands.
    pub fn take_completion_horizon(&mut self) -> u64 {
        std::mem::take(&mut self.completion_horizon)
    }

    /// Attaches a telemetry sink (shared with the backend's links): fetch
    /// latency, retry penalties, residency lifetimes and operation spans
    /// flow there.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.backend.set_telemetry(tel.clone());
        self.tel = tel;
    }

    /// The configuration.
    pub fn config(&self) -> &FarMemoryConfig {
        &self.cfg
    }

    /// Object size in bytes.
    #[inline]
    pub fn object_size(&self) -> u64 {
        self.cfg.object_size
    }

    /// log2(object size): the pointer→object shift used by guards.
    #[inline]
    pub fn log2_object_size(&self) -> u32 {
        self.log2_obj
    }

    /// The object containing a far-heap byte offset.
    #[inline]
    pub fn obj_of_offset(&self, offset: u64) -> ObjId {
        ObjId(offset >> self.log2_obj)
    }

    /// Shared access to the state table (what the fast-path guard reads).
    #[inline]
    pub fn table(&self) -> &StateTable {
        &self.table
    }

    /// Runtime counters.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// Backend transfer ledger, aggregated over all shards (bytes moved —
    /// the I/O amplification metric).
    pub fn transfer_stats(&self) -> TransferStats {
        self.backend.stats()
    }

    /// Bytes currently resident locally.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// True while any shard runs in its degraded configuration (prefetch
    /// suppressed, backoff widened) because of sustained link faults.
    pub fn is_degraded(&self) -> bool {
        self.degraded.iter().any(|&d| d)
    }

    /// True while `shard` specifically is degraded.
    pub fn shard_degraded(&self, shard: usize) -> bool {
        self.degraded[shard]
    }

    /// Failover state of one shard (Up / Suspect / Down / Recovering).
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.backend.shard_state(shard)
    }

    /// The replica audit (acknowledged keys, losses, under-replication) —
    /// `None` unless the backend tracks failover (replication or a crash
    /// plan).
    pub fn failover_audit(&self) -> Option<FailoverAudit> {
        self.backend.audit()
    }

    /// The remote backend (shard topology, per-shard ledgers and health).
    pub fn backend(&self) -> &Sharded {
        &self.backend
    }

    /// Number of remote nodes behind the runtime.
    pub fn shard_count(&self) -> usize {
        self.backend.shard_count()
    }

    /// Per-shard end-of-run counters, for reports.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.backend.shard_snapshots()
    }

    /// Clears all counters (runtime + backend) and every shard's occupancy
    /// horizon, and rewinds the fault schedules and health state. Used by
    /// benchmarks to exclude setup traffic from the measured phase.
    pub fn reset_stats(&mut self) {
        self.stats = RuntimeStats::default();
        self.backend.reset_stats();
        self.degraded.fill(false);
    }

    // ------------------------------------------------------------------
    // Fault handling.
    // ------------------------------------------------------------------

    /// Runs after every backend attempt, delivered or faulted. Reconciles
    /// the runtime's degraded flag for `shard` with that shard's health
    /// tracker, counting each transition into degraded mode (each shard
    /// degrades and recovers on its own), then lets the backend service
    /// failover transitions and counts what that did.
    #[inline]
    fn observe_attempt(&mut self, shard: usize, now: u64) {
        let health = self.backend.shard_health(shard);
        // Sampled only under a fault plan: a flawless run's timeline has no
        // shard lanes.
        if self.tel.is_enabled() && self.backend.faults_active() {
            self.tel.timeline_shard(
                now,
                shard as u32,
                health.fault_rate_ppm(),
                health.is_degraded(),
            );
        }
        if health.is_degraded() != self.degraded[shard] {
            self.stats.degradations += u64::from(health.is_degraded());
            self.degraded[shard] = health.is_degraded();
        }
        let r = self.backend.service(now, self.cfg.object_size);
        self.stats.shard_downs += r.downs;
        self.stats.shard_recoveries += r.recoveries;
        self.stats.re_replications += r.re_replicated;
        self.stats.resynced_objects += r.resynced;
        self.stats.lost_objects += r.lost;
    }

    /// Drives one backend operation to completion under the retry policy:
    /// exponential backoff between attempts (widened while the target shard
    /// is degraded) and a per-operation deadline that is counted when blown.
    /// On the flawless fabric the first attempt delivers and none of that
    /// runs.
    ///
    /// Returns the completion cycle, or `None` when a *writeback* exhausted
    /// [`RetryPolicy::MAX_ATTEMPTS`] — writebacks are deferrable (the object
    /// simply stays resident and dirty), fetches are not (the caller needs
    /// the data) and keep retrying until the backend delivers.
    fn transfer_with_retry(
        &mut self,
        key: u64,
        bytes: u64,
        now: u64,
        writeback: bool,
    ) -> Option<u64> {
        let shard = self.backend.shard_of(key);
        let deadline = now.saturating_add(RetryPolicy::DEADLINE);
        let mut ops = RuntimeRetry {
            fm: self,
            key,
            bytes,
            writeback,
            shard,
            deadline,
            deadline_counted: false,
        };
        let r = drive_retries(&mut ops, now)?;
        if r.attempts > 0 {
            // Penalty = detect timeouts + backoffs accumulated before the
            // attempt that finally delivered.
            self.tel.record_retry_latency(r.issued_at - now);
        }
        Some(r.done)
    }

    // ------------------------------------------------------------------
    // Allocation.
    // ------------------------------------------------------------------

    /// Allocates far memory; newly covered objects become resident and
    /// dirty. Charges eviction traffic to the link as needed.
    ///
    /// # Errors
    /// Propagates allocator failures.
    pub fn allocate(&mut self, size: u64, now: u64) -> Result<TfmPtr, AllocError> {
        let ptr = self.alloc.alloc(size)?;
        let rounded = self.alloc.size_of(ptr).expect("fresh allocation");
        let first = self.obj_of_offset(ptr.offset());
        let last = self.obj_of_offset(ptr.offset() + rounded - 1);
        for o in first.0..=last.0 {
            let o = ObjId(o);
            if !self.table.is_present(o) && !self.table.is_inflight(o) {
                self.ensure_capacity(self.cfg.object_size, now, INFLIGHT);
                self.table.set(o, PRESENT | DIRTY | HOT);
                self.resident_bytes += self.cfg.object_size;
                self.clock.push_back(o);
                self.tel.note_resident(o.0, now);
            } else {
                self.table.set(o, DIRTY | HOT);
            }
        }
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(self.resident_bytes);
        self.stats.allocations += 1;
        Ok(ptr)
    }

    /// Frees an allocation. Residency of the covered objects is untouched
    /// (they are reclaimed by the evacuator like any other cold object).
    ///
    /// # Panics
    /// Panics on invalid or double free.
    pub fn free(&mut self, ptr: TfmPtr) {
        self.alloc.free(ptr);
        self.stats.frees += 1;
    }

    /// The allocator (for size queries and accounting).
    pub fn allocator(&self) -> &RegionAllocator {
        &self.alloc
    }

    // ------------------------------------------------------------------
    // Guard back-ends.
    // ------------------------------------------------------------------

    /// Fast-path bookkeeping after a successful safety check: sets the CLOCK
    /// reference bit (and the dirty bit for writes). Free of simulated
    /// cycles — the guard cost is charged by the execution engine.
    #[inline]
    pub fn fast_touch(&mut self, o: ObjId, write: bool) {
        self.table.set(o, if write { HOT | DIRTY } else { HOT });
    }

    /// Slow-path localization: makes `o` resident, returning the simulated
    /// cycles the calling thread stalls (0 if the object was already
    /// resident or a prefetch had completed).
    ///
    /// Every localization also feeds AIFM's runtime stride prefetcher
    /// (§4.3: "we use AIFM's existing stride prefetcher"): after two
    /// consecutive unit-stride object localizations, the runtime keeps
    /// `prefetch.depth` objects in flight ahead of the stream — with no
    /// compiler involvement. This is what lets even naive-guarded
    /// sequential scans (e.g. CSR walks whose short inner loops the cost
    /// model declines to chunk) overlap fetch latency.
    pub fn localize(&mut self, o: ObjId, write: bool, now: u64) -> u64 {
        let size = self.cfg.object_size;
        let mark = if write { HOT | DIRTY } else { HOT };
        let entry = self.table.entry(o);
        if entry & PRESENT != 0 {
            self.table.set(o, mark);
            return 0;
        }
        let stall = if entry & INFLIGHT != 0 {
            if entry & DEMAND != 0 {
                // Another core's demand fetch is pending on this object.
                let ready = self.table.ready_cycle(o);
                if ready > now {
                    // Join the in-flight entry: one transfer on the wire
                    // serves both cores. The joining core also moves on at
                    // the issue point — its request completes at the shared
                    // delivery cycle, reported through the completion
                    // horizon.
                    self.stats.fetch_joins += 1;
                    self.table.set(o, mark);
                    self.completion_horizon = self.completion_horizon.max(ready);
                    0
                } else {
                    // The fetch landed unclaimed; silent conversion.
                    self.table.clear(o, INFLIGHT | DEMAND);
                    self.table.set(o, PRESENT | mark);
                    0
                }
            } else {
                // A prefetch is outstanding; wait for it if it has not
                // landed.
                let ready = self.table.ready_cycle(o);
                self.table.clear(o, INFLIGHT);
                self.table.set(o, PRESENT | mark);
                if ready > now {
                    self.stats.prefetch_late += 1;
                    ready - now
                } else {
                    self.stats.prefetch_hits += 1;
                    0
                }
            }
        } else {
            // Demand fetch. A localize must succeed for correctness: it
            // retries (with backoff) until the link delivers.
            //
            // Tracing: open a DemandFetch root only when no operation span
            // is already open — under a traced guard, the transfer/retry
            // leaves attach directly to the guard root, which is the
            // decomposition the per-site latency breakdown wants.
            let sp = if self.tel.span_active() {
                SpanId::NONE
            } else {
                self.tel.span_begin_root(SpanKind::DemandFetch, o.0, now)
            };
            self.ensure_capacity(size, now, INFLIGHT);
            let done = self
                .transfer_with_retry(o.0, size, now, false)
                .expect("demand fetches retry until delivered");
            self.tel.span_end(sp, done);
            let charged = if self.async_fetch {
                // Issue/complete split: the core is charged only to the
                // issue point — queueing for the wire plus occupancy, not
                // the propagation latency. The object stays in flight,
                // marked as a demand fetch so other cores can join it, and
                // the delivery cycle flows to the scheduler through the
                // completion horizon for per-request latency.
                self.table.set(o, INFLIGHT | DEMAND | mark);
                self.table.set_ready_cycle(o, done);
                self.completion_horizon = self.completion_horizon.max(done);
                done.saturating_sub(self.cfg.link.base_latency).max(now) - now
            } else {
                self.table.set(o, PRESENT | mark);
                done - now
            };
            self.resident_bytes += size;
            self.stats.peak_resident_bytes =
                self.stats.peak_resident_bytes.max(self.resident_bytes);
            self.clock.push_back(o);
            self.stats.remote_fetches += 1;
            if self.tel.is_enabled() {
                self.tel.record_fetch_latency(done - now);
                self.tel.note_resident(o.0, now);
                self.tel.timeline_occupancy(now, self.resident_bytes);
            }
            charged
        };
        self.stride_detect(o, now + stall);
        stall
    }

    /// Runtime stride detection: called on every slow-path localization.
    /// Matches the object against the stream table; a stream that advances
    /// by ±1 twice in a row starts prefetching `depth` objects ahead.
    fn stride_detect(&mut self, o: ObjId, now: u64) {
        let mut fire: Option<i64> = None;
        let mut matched = false;
        for st in &mut self.streams {
            let delta = o.0 as i64 - st.last as i64;
            if delta == 1 || delta == -1 {
                st.run = if delta == st.dir { st.run + 1 } else { 1 };
                st.dir = delta;
                st.last = o.0;
                if st.run >= 2 {
                    fire = Some(delta);
                }
                matched = true;
                break;
            }
        }
        if !matched {
            let fresh = StrideStream {
                last: o.0,
                dir: 0,
                run: 0,
            };
            if self.streams.len() < STRIDE_STREAMS {
                self.streams.push(fresh);
            } else {
                self.streams[self.stream_victim] = fresh;
                self.stream_victim = (self.stream_victim + 1) % STRIDE_STREAMS;
            }
        }
        if let Some(dir) = fire {
            self.prefetch_ahead(o, dir, now);
        }
    }

    /// The one stream look-ahead loop, behind both the stride detector and
    /// the compiler's chunk streams: prefetches up to
    /// [`FarMemory::prefetch_depth`] objects past `from` in direction `dir`
    /// (±1), nearest first, stopping at either end of the object space.
    pub fn prefetch_ahead(&mut self, from: ObjId, dir: i64, now: u64) {
        let max_obj = self.cfg.num_objects() as i64;
        for k in 1..=self.prefetch_depth() as i64 {
            let t = from.0 as i64 + k * dir;
            if t < 0 || t >= max_obj {
                break;
            }
            self.prefetch(ObjId(t as u64), now);
        }
    }

    /// Issues an asynchronous fetch for `o` if it is neither resident nor in
    /// flight. Returns true if a fetch was issued.
    ///
    /// Prefetches are pure optimization, so they get no retry budget: a
    /// faulted attempt cancels the prefetch (the stream falls back to demand
    /// fetching) instead of wedging it in flight, and a degraded shard
    /// suppresses prefetching onto it until recovery — healthy shards keep
    /// prefetching.
    pub fn prefetch(&mut self, o: ObjId, now: u64) -> bool {
        if !self.cfg.prefetch.enabled
            || o.index() >= self.table.len()
            || self.table.is_present(o)
            || self.table.is_inflight(o)
        {
            return false;
        }
        let shard = self.backend.shard_of(o.0);
        if self.degraded[shard] {
            self.stats.prefetch_suppressed += 1;
            return false;
        }
        let size = self.cfg.object_size;
        // A prefetch may not take a landed prefetch: the stream that issued
        // it is about to reach it.
        self.ensure_capacity(size, now, DEMAND);
        // Prefetch lifetime extends past the triggering access, so it gets
        // its own root span rather than nesting under the open guard span.
        let sp = self.tel.span_begin_root(SpanKind::Prefetch, o.0, now);
        let res = self.backend.try_transfer(o.0, size, now);
        self.observe_attempt(shard, now);
        let ready = match res {
            Ok(r) => r,
            Err(f) => {
                self.stats.link_faults += 1;
                self.stats.prefetch_canceled += 1;
                // The canceled attempt still burned cycles on the wire;
                // keep the span (its transfer leaf carries the fault).
                self.tel.span_end(sp, f.detected_at);
                return false;
            }
        };
        self.tel.span_end(sp, ready);
        self.table.set(o, INFLIGHT);
        self.table.set_ready_cycle(o, ready);
        self.resident_bytes += size;
        self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(self.resident_bytes);
        self.clock.push_back(o);
        self.stats.prefetch_issued += 1;
        self.tel.note_resident(o.0, now);
        true
    }

    /// Effective look-ahead depth of one firing stream (0 when disabled).
    /// Capped at a quarter of the local budget, which bounds that stream
    /// only: the stride detector has 8 stream slots, and a prefetch can
    /// still evict an object the application is using, even the one whose
    /// `localize` triggered it (ROADMAP items 6 and 15).
    pub fn prefetch_depth(&self) -> u32 {
        if !self.cfg.prefetch.enabled {
            return 0;
        }
        let budget_objs = (self.cfg.local_budget / self.cfg.object_size / 4).max(1);
        self.cfg.prefetch.depth.min(budget_objs as u32)
    }

    /// Pins an object (chunk locality invariant / deref scope): the
    /// evacuator will skip it.
    #[inline]
    pub fn pin(&mut self, o: ObjId) {
        self.table.pin(o);
    }

    /// Releases a pin.
    #[inline]
    pub fn unpin(&mut self, o: ObjId) {
        self.table.unpin(o);
    }

    /// A collection point (§3.3: the slow-path guard "triggers a periodic
    /// collection point to allow stale objects to be evacuated"): brings
    /// residency back under budget.
    pub fn collection_point(&mut self, now: u64) {
        self.ensure_capacity(0, now, INFLIGHT);
    }

    /// Evicts cold objects until `resident + incoming ≤ budget`, or until
    /// only pinned/in-flight objects remain (then records a budget overrun).
    /// For `claim`, see [`FarMemory::claim_landed_fetch`].
    fn ensure_capacity(&mut self, incoming: u64, now: u64, claim: u64) {
        let budget = self.cfg.local_budget;
        if self.resident_bytes + incoming <= budget {
            return;
        }
        // Bound the scan: each entry gets at most two visits per call (one
        // to strip its HOT bit, one to evict).
        let mut visits = self.clock.len().saturating_mul(2) + 1;
        while self.resident_bytes + incoming > budget && visits > 0 {
            visits -= 1;
            let Some(o) = self.clock.pop_front() else {
                break;
            };
            if !self.reclaimable(o, now, claim) {
                continue;
            }
            if self.table.entry(o) & HOT != 0 {
                self.table.clear(o, HOT);
                self.clock.push_back(o);
                continue;
            }
            self.evict(o, now);
        }
        if self.resident_bytes + incoming > budget {
            self.stats.budget_overruns += 1;
        }
    }

    /// Whether the evacuator may take queue entry `o`, just popped from the
    /// CLOCK queue. A fetch that has landed with nobody touching it since is
    /// claimed first (when `claim` admits it); pinned objects and fetches
    /// still on the wire are requeued, stale entries dropped. The one place
    /// reclaim decides what is off limits.
    fn reclaimable(&mut self, o: ObjId, now: u64, claim: u64) -> bool {
        if self.table.entry(o) & (PRESENT | INFLIGHT) == 0 {
            return false; // stale queue entry
        }
        self.claim_landed_fetch(o, now, claim);
        if self.table.pins(o) > 0 || self.table.is_inflight(o) {
            self.clock.push_back(o);
            return false;
        }
        true
    }

    /// Evicts the resident, unpinned object `o`, writing it back first when
    /// dirty. A writeback that exhausts its retry budget is deferred: the
    /// object stays resident and dirty (degrading toward local-only
    /// operation) and is requeued for a later attempt.
    fn evict(&mut self, o: ObjId, now: u64) {
        debug_assert!(
            self.table.entry(o) & (PRESENT | INFLIGHT) == PRESENT && self.table.pins(o) == 0,
            "evicting {o}, which is not resident, is in flight or is pinned"
        );
        if self.table.is_dirty(o) {
            // Writebacks are asynchronous (fire-and-forget): root span,
            // not a child of whatever operation forced the eviction.
            let sp = self.tel.span_begin_root(SpanKind::WritebackOp, o.0, now);
            match self.transfer_with_retry(o.0, self.cfg.object_size, now, true) {
                None => {
                    self.tel.span_end(sp, now);
                    self.stats.writeback_deferrals += 1;
                    self.clock.push_back(o);
                    return;
                }
                Some(done) => self.tel.span_end(sp, done),
            }
            self.stats.writebacks += 1;
        }
        self.table.clear(o, PRESENT | DIRTY | HOT);
        self.resident_bytes -= self.cfg.object_size;
        self.stats.evictions += 1;
        self.tel.note_evicted(o.0, now);
    }

    /// Converts a completed-but-unclaimed fetch back to `PRESENT` under the
    /// evacuator's scan: the data landed at `ready_cycle` but nothing has
    /// touched the object since, so it is evictable like any other resident
    /// object. A landed prefetch also gets `HOT`, one CLOCK second chance
    /// for the stream that asked for it. `claim` is the flag the entry must
    /// carry: [`INFLIGHT`] takes any landed fetch, [`DEMAND`] (a prefetch's
    /// own scan) only demand fetches. No-op for anything still on the wire.
    fn claim_landed_fetch(&mut self, o: ObjId, now: u64, claim: u64) {
        let entry = self.table.entry(o);
        if entry & claim == 0 || self.table.ready_cycle(o) > now {
            return;
        }
        self.table.clear(o, INFLIGHT | DEMAND);
        let second_chance = if entry & DEMAND == 0 { HOT } else { 0 };
        self.table.set(o, PRESENT | second_chance);
    }

    /// Evacuates every resident, unpinned object (writing dirty ones back).
    /// Benchmarks call this after setup to start from a cold far-memory
    /// state, then [`FarMemory::reset_stats`].
    pub fn evacuate_all(&mut self, now: u64) {
        let mut visits = self.clock.len().saturating_mul(2) + 1;
        while visits > 0 {
            visits -= 1;
            let Some(o) = self.clock.pop_front() else {
                break;
            };
            if self.reclaimable(o, now, INFLIGHT) {
                self.evict(o, now);
            }
        }
        debug_assert_eq!(
            self.resident_bytes,
            self.table.count(PRESENT | INFLIGHT) as u64 * self.cfg.object_size
        );
        debug_assert!(
            (0..self.table.len() as u64)
                .map(ObjId)
                .all(|o| !self.table.is_inflight(o) || self.table.ready_cycle(o) > now),
            "a fetch landed by cycle {now} is still in flight after a full evacuation"
        );
    }
}

/// The runtime's [`RetryOps`] policy for one backend operation: backoff,
/// deadline, deferrable writebacks. It owns every per-attempt side effect —
/// stats, spans, health and failover polling.
struct RuntimeRetry<'a> {
    fm: &'a mut FarMemory,
    key: u64,
    bytes: u64,
    writeback: bool,
    shard: usize,
    deadline: u64,
    deadline_counted: bool,
}

impl RetryOps for RuntimeRetry<'_> {
    fn issue(&mut self, at: u64, _attempts: u32) -> Result<u64, LinkFault> {
        let res = if self.writeback {
            self.fm.backend.try_writeback(self.key, self.bytes, at)
        } else {
            self.fm.backend.try_transfer(self.key, self.bytes, at)
        };
        self.fm.observe_attempt(self.shard, at);
        res
    }

    fn on_fault(&mut self, attempts: u32, f: LinkFault) -> Option<u64> {
        let fm = &mut *self.fm;
        fm.stats.link_faults += 1;
        if self.writeback && attempts >= RetryPolicy::MAX_ATTEMPTS {
            return None;
        }
        let mut backoff = RetryPolicy::backoff_jittered_on(attempts, self.key, fm.core);
        if fm.degraded[self.shard] {
            backoff = backoff.saturating_mul(RetryPolicy::DEGRADED_BACKOFF_MULT);
        }
        let at = f.detected_at + backoff;
        fm.stats.retries += 1;
        // The retry interval: fault detection through the end of the
        // backoff wait, after which the next attempt issues.
        fm.tel.span_leaf(Span {
            kind: SpanKind::Retry,
            start: f.detected_at,
            end: at,
            parent: Span::NO_PARENT,
            arg: attempts as u64,
            wait: backoff,
            shard: self.shard as u32,
            fault: f.kind.code() as u32,
            core: Span::NO_CORE,
        });
        if !self.deadline_counted && at > self.deadline {
            fm.stats.deadline_exceeded += 1;
            self.deadline_counted = true;
        }
        Some(at)
    }

    fn describe_dead(&self, attempts: u32) -> String {
        format!(
            "shard {} permanently dead: {} consecutive faults on one operation",
            self.shard, attempts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_net::LinkParams;

    fn fm_with(budget_objs: u64) -> FarMemory {
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: budget_objs * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        };
        FarMemory::new(cfg)
    }

    #[test]
    fn fresh_allocations_are_local_and_dirty() {
        let mut fm = fm_with(16);
        let p = fm.allocate(10_000, 0).unwrap();
        let first = fm.obj_of_offset(p.offset());
        assert!(fm.table().is_present(first));
        assert!(fm.table().is_dirty(first));
        assert_eq!(fm.resident_bytes(), 3 * 4096); // 10_000 → 3 objects
        assert_eq!(fm.stats().allocations, 1);
    }

    #[test]
    fn allocation_beyond_budget_triggers_eviction_with_writeback() {
        let mut fm = fm_with(2);
        let mut ptrs = Vec::new();
        for _ in 0..4 {
            ptrs.push(fm.allocate(4096, 0).unwrap());
        }
        assert!(fm.resident_bytes() <= 2 * 4096 + 4096); // budget honored per alloc
        assert!(fm.stats().evictions >= 2);
        // Evicted fresh objects are dirty → must be written back.
        assert_eq!(fm.stats().writebacks, fm.stats().evictions);
        assert!(fm.transfer_stats().bytes_written_back > 0);
    }

    #[test]
    fn localize_charges_link_latency_then_fast() {
        let mut fm = fm_with(8);
        let p = fm.allocate(4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        assert!(!fm.table().is_present(o));
        fm.reset_stats();

        let stall = fm.localize(o, false, 0);
        assert!(stall > 30_000, "remote fetch should cost ~35K cycles");
        assert_eq!(fm.stats().remote_fetches, 1);
        assert!(fm.table().is_safe(o));
        // Second access: already present, no cost.
        assert_eq!(fm.localize(o, false, stall), 0);
        assert_eq!(fm.stats().remote_fetches, 1);
    }

    #[test]
    fn write_localize_marks_dirty_eviction_writes_back() {
        let mut fm = fm_with(1);
        let p1 = fm.allocate(4096, 0).unwrap();
        let p2 = fm.allocate(4096, 0).unwrap();
        let (o1, o2) = (fm.obj_of_offset(p1.offset()), fm.obj_of_offset(p2.offset()));
        fm.evacuate_all(0);
        fm.reset_stats();

        fm.localize(o1, true, 0);
        assert!(fm.table().is_dirty(o1));
        // Bringing in o2 with budget=1 must evict dirty o1 → writeback.
        fm.localize(o2, false, 100_000);
        assert!(!fm.table().is_present(o1));
        assert_eq!(fm.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_skips_writeback() {
        let mut fm = fm_with(1);
        let p1 = fm.allocate(4096, 0).unwrap();
        let p2 = fm.allocate(4096, 0).unwrap();
        let (o1, o2) = (fm.obj_of_offset(p1.offset()), fm.obj_of_offset(p2.offset()));
        fm.evacuate_all(0);
        fm.reset_stats();
        fm.localize(o1, false, 0); // clean read
        fm.localize(o2, false, 100_000);
        assert_eq!(fm.stats().evictions, 1);
        assert_eq!(fm.stats().writebacks, 0);
    }

    #[test]
    fn pinned_objects_survive_pressure() {
        let mut fm = fm_with(1);
        let p1 = fm.allocate(4096, 0).unwrap();
        let p2 = fm.allocate(4096, 0).unwrap();
        let (o1, o2) = (fm.obj_of_offset(p1.offset()), fm.obj_of_offset(p2.offset()));
        fm.evacuate_all(0);
        fm.reset_stats();
        fm.localize(o1, false, 0);
        fm.pin(o1);
        fm.localize(o2, false, 100_000);
        assert!(
            fm.table().is_present(o1),
            "pinned object must not be evicted"
        );
        assert!(fm.stats().budget_overruns > 0);
        fm.unpin(o1);
        fm.collection_point(200_000);
        assert!(fm.resident_bytes() <= 4096);
    }

    #[test]
    fn prefetch_hides_latency_when_early() {
        let mut fm = fm_with(8);
        let p = fm.allocate(4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        fm.reset_stats();

        assert!(fm.prefetch(o, 0));
        assert!(fm.table().is_inflight(o));
        assert!(!fm.table().is_safe(o));
        // Access long after the fetch completed: free.
        let stall = fm.localize(o, false, 1_000_000);
        assert_eq!(stall, 0);
        assert_eq!(fm.stats().prefetch_hits, 1);
        assert_eq!(fm.stats().remote_fetches, 0);
    }

    #[test]
    fn late_prefetch_charges_partial_stall() {
        let mut fm = fm_with(8);
        let p = fm.allocate(4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        fm.reset_stats();
        assert!(fm.prefetch(o, 0));
        // Access after 10K cycles; fetch needs ~35K → stall ~25K.
        let stall = fm.localize(o, false, 10_000);
        assert!(stall > 0 && stall < 35_000, "stall = {stall}");
        assert_eq!(fm.stats().prefetch_late, 1);
    }

    #[test]
    fn duplicate_prefetch_is_refused() {
        let mut fm = fm_with(8);
        let p = fm.allocate(4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        assert!(fm.prefetch(o, 0));
        assert!(!fm.prefetch(o, 0), "already in flight");
        fm.localize(o, false, 1_000_000);
        assert!(!fm.prefetch(o, 1_000_000), "already present");
    }

    #[test]
    fn prefetch_disabled_is_noop() {
        let cfg = FarMemoryConfig::small().with_prefetch(false);
        let mut fm = FarMemory::new(cfg);
        let p = fm.allocate(4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        assert!(!fm.prefetch(o, 0));
        assert_eq!(fm.prefetch_depth(), 0);
    }

    #[test]
    fn free_then_realloc_reuses_space() {
        let mut fm = fm_with(16);
        let p = fm.allocate(64, 0).unwrap();
        fm.free(p);
        let q = fm.allocate(64, 0).unwrap();
        assert_eq!(p.offset(), q.offset());
        assert_eq!(fm.stats().frees, 1);
    }

    #[test]
    fn evacuator_skips_inflight_objects() {
        let mut fm = fm_with(2);
        let p = fm.allocate(4 * 4096, 0).unwrap();
        let o0 = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        fm.reset_stats();
        // Prefetch two objects (fills the budget), then demand-fetch a third:
        // the in-flight ones must not be evicted mid-transfer.
        assert!(fm.prefetch(o0, 0));
        assert!(fm.prefetch(ObjId(o0.0 + 1), 0));
        let _ = fm.localize(ObjId(o0.0 + 2), false, 10);
        assert!(
            fm.table().is_inflight(o0) || fm.table().is_present(o0),
            "in-flight prefetch must survive pressure"
        );
        // Once landed, they are evictable again.
        let _ = fm.localize(o0, false, 10_000_000);
        fm.collection_point(10_000_001);
        assert!(fm.resident_bytes() <= fm.config().local_budget + 4096);
    }

    #[test]
    fn landed_untouched_prefetch_yields_to_a_demand_miss() {
        let mut fm = fm_with(2);
        let p = fm.allocate(4 * 4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset()).0;
        fm.evacuate_all(0);
        fm.reset_stats();
        // Two prefetches fill the budget and land; nothing ever touches them.
        assert!(fm.prefetch(ObjId(o), 0));
        assert!(fm.prefetch(ObjId(o + 1), 0));
        let now = 10_000_000;
        fm.localize(ObjId(o + 2), false, now);
        fm.localize(ObjId(o + 3), false, now + 100_000);
        let s = fm.stats();
        assert_eq!(
            s.budget_overruns, 0,
            "dead prefetches must not pin budget: {s:?}"
        );
        assert_eq!(s.evictions, 2);
        assert_eq!(s.prefetch_hits, 0);
        assert!(fm.resident_bytes() <= fm.config().local_budget);
        assert!(!fm.table().is_inflight(ObjId(o)) && !fm.table().is_present(ObjId(o)));
    }

    #[test]
    fn a_claimed_prefetch_gets_one_clock_second_chance() {
        let mut fm = fm_with(2);
        let p = fm.allocate(10 * 4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset()).0;
        fm.evacuate_all(0);
        fm.reset_stats();
        fm.localize(ObjId(o), false, 0);
        assert!(fm.prefetch(ObjId(o + 5), 0));
        // The scan strips the demand-fetched object's reference bit, claims
        // the landed prefetch as referenced, and so comes back to the former.
        fm.localize(ObjId(o + 9), false, 10_000_000);
        assert!(!fm.table().is_present(ObjId(o)));
        assert!(fm.table().is_present(ObjId(o + 5)));
        assert_eq!(fm.stats().evictions, 1);
    }

    #[test]
    fn a_prefetch_leaves_a_landed_prefetch_resident() {
        let mut fm = fm_with(1);
        let p = fm.allocate(2 * 4096, 0).unwrap();
        let o0 = fm.obj_of_offset(p.offset());
        let o1 = ObjId(o0.0 + 1);
        fm.evacuate_all(0);
        fm.reset_stats();
        assert!(fm.prefetch(o0, 0));
        // o0 landed long ago, but the stream that fetched it is about to
        // reach it: the next prefetch overruns the budget rather than take it.
        assert!(fm.prefetch(o1, 10_000_000));
        assert!(fm.table().is_inflight(o0), "unclaimed, still resident");
        assert_eq!(fm.stats().evictions, 0);
        assert_eq!(fm.stats().budget_overruns, 1);
        // A demand scan does take it.
        fm.collection_point(10_000_000);
        assert!(!fm.table().is_present(o0) && !fm.table().is_inflight(o0));
        assert_eq!(fm.stats().evictions, 1);
    }

    #[test]
    fn evacuate_all_leaves_no_landed_fetch_in_flight() {
        let mut fm = fm_with(8);
        let p = fm.allocate(4 * 4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset()).0;
        fm.evacuate_all(0);
        for k in 0..3 {
            assert!(fm.prefetch(ObjId(o + k), 0));
        }
        fm.set_async_fetch(true);
        fm.localize(ObjId(o + 3), false, 0);
        assert_eq!(fm.demand_inflight_len(), 1);
        fm.evacuate_all(10_000_000);
        assert_eq!(fm.resident_bytes(), 0);
        for k in 0..4 {
            assert!(!fm.table().is_inflight(ObjId(o + k)), "object {k}");
        }
    }

    #[test]
    fn stride_prefetcher_detects_interleaved_streams() {
        let mut fm = fm_with(64);
        let p = fm.allocate(64 * 4096, 0).unwrap();
        let base = fm.obj_of_offset(p.offset()).0;
        fm.evacuate_all(0);
        fm.reset_stats();
        // Two interleaved ascending miss streams (the CSR pattern).
        let mut now = 0;
        for k in 0..4u64 {
            now += fm.localize(ObjId(base + k), false, now);
            now += fm.localize(ObjId(base + 32 + k), false, now);
        }
        let s = fm.stats();
        assert!(
            s.prefetch_issued > 0,
            "multi-stream detector must fire on interleaved scans: {s:?}"
        );
    }

    #[test]
    fn prefetch_depth_is_budget_capped() {
        let fm = fm_with(4); // 4-object budget
        assert!(
            fm.prefetch_depth() <= 1,
            "depth must shrink with the budget"
        );
        let roomy = FarMemory::new(FarMemoryConfig {
            heap_size: 1 << 20,
            local_budget: 256 * 4096,
            object_size: 4096,
            link: tfm_net::LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        });
        assert_eq!(roomy.prefetch_depth(), 8);
    }

    #[test]
    fn peak_resident_tracks_every_residency_increase() {
        // Regression: the high-water mark must be updated on all three
        // residency-increase paths — allocate, demand localize, prefetch.
        // Allocation path.
        let mut fm = fm_with(16);
        let p = fm.allocate(3 * 4096, 0).unwrap();
        assert_eq!(fm.stats().peak_resident_bytes, 3 * 4096);

        // Demand-localize path: evacuate, then fetch objects back one by
        // one; the peak must follow the refill.
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        fm.reset_stats();
        assert_eq!(fm.stats().peak_resident_bytes, 0);
        fm.localize(o, false, 0);
        assert_eq!(fm.stats().peak_resident_bytes, 4096);
        fm.localize(ObjId(o.0 + 1), false, 100_000);
        assert_eq!(fm.stats().peak_resident_bytes, 2 * 4096);

        // Prefetch path: in-flight bytes count against residency and the
        // peak immediately.
        fm.evacuate_all(200_000);
        fm.reset_stats();
        assert!(fm.prefetch(o, 200_000));
        assert_eq!(fm.stats().peak_resident_bytes, 4096);

        // The peak never decreases on eviction.
        fm.localize(o, false, 10_000_000);
        fm.evacuate_all(10_000_000);
        assert_eq!(fm.resident_bytes(), 0);
        assert_eq!(fm.stats().peak_resident_bytes, 4096);
    }

    #[test]
    fn telemetry_sees_fetch_eviction_and_residency() {
        use tfm_telemetry::Telemetry;
        let mut fm = fm_with(8);
        let tel = Telemetry::enabled();
        fm.set_telemetry(tel.clone());
        let p = fm.allocate(2 * 4096, 0).unwrap();
        let o = fm.obj_of_offset(p.offset());
        fm.evacuate_all(1_000);
        let stall = fm.localize(o, false, 2_000);
        assert!(stall > 0);
        fm.evacuate_all(500_000);

        let s = fm.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.remote_fetches, 1);
        // 2 allocated objects evicted cold, then the re-fetched one again.
        assert_eq!(s.evictions, 3);
        assert!(s.writebacks >= 2, "fresh objects are dirty");
        let snap = tel.snapshot().unwrap();
        assert_eq!(snap.fetch_latency.count(), 1);
        assert!(snap.fetch_latency.max() > 30_000);
        // Residency lifetimes: all three evictions had a matching
        // note_resident.
        assert_eq!(snap.residency.count(), 3);
        // The link recorded transfer sizes (fetch + writebacks).
        assert!(snap.transfer_bytes.count() >= 3);
        assert_eq!(snap.transfer_bytes.max(), 4096);
    }

    #[test]
    fn localize_retries_through_drops_until_delivered() {
        use tfm_net::FaultPlan;
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 16 * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
        .with_faults(FaultPlan::drops(0xBAD, 500_000)); // 50% drops
        let mut fm = FarMemory::new(cfg);
        let tel = tfm_telemetry::Telemetry::enabled();
        fm.set_telemetry(tel.clone());
        let p = fm.allocate(8 * 4096, 0).unwrap();
        let base = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0);
        fm.reset_stats();

        let mut now = 0;
        for k in 0..8u64 {
            now += fm.localize(ObjId(base.0 + k), false, now);
            assert!(fm.table().is_present(ObjId(base.0 + k)));
        }
        let s = fm.stats();
        assert_eq!(s.remote_fetches + s.prefetch_issued, 8);
        assert!(s.link_faults > 0, "a 50% plan must fault: {s:?}");
        assert!(s.retries > 0, "demand faults are retried: {s:?}");
        // Faults either became retries (demand path) or prefetch cancels.
        assert_eq!(s.link_faults, s.retries + s.prefetch_canceled, "{s:?}");
        let snap = tel.snapshot().unwrap();
        assert!(snap.retry_latency.count() > 0, "retry penalty recorded");
        assert!(fm.transfer_stats().faults > 0, "the link counts each fault");
    }

    #[test]
    fn fault_schedule_is_reproducible_across_runs() {
        use tfm_net::FaultPlan;
        let run = || {
            let cfg = FarMemoryConfig {
                heap_size: 1 << 20,
                object_size: 4096,
                local_budget: 4 * 4096,
                link: LinkParams::tcp_25g(),
                ..FarMemoryConfig::small()
            }
            .with_faults(FaultPlan::drops(0x5EED, 200_000));
            let mut fm = FarMemory::new(cfg);
            let p = fm.allocate(16 * 4096, 0).unwrap();
            let base = fm.obj_of_offset(p.offset());
            fm.evacuate_all(0);
            fm.reset_stats();
            let mut now = 0;
            for k in 0..16u64 {
                now += fm.localize(ObjId(base.0 + k), true, now);
            }
            fm.evacuate_all(now);
            (*fm.stats(), fm.transfer_stats(), now)
        };
        assert_eq!(run(), run(), "identical seeds, identical everything");
    }

    #[test]
    fn dead_link_defers_writebacks_instead_of_wedging() {
        use tfm_net::{FaultPlan, PPM};
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 4096, // one-object budget forces eviction
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
        .with_faults(FaultPlan::drops(7, PPM)); // every attempt drops
        let mut fm = FarMemory::new(cfg);
        // Two fresh (dirty) objects: evicting the first needs a writeback,
        // which can never succeed — it must defer, not loop forever.
        let _ = fm.allocate(4096, 0).unwrap();
        let p2 = fm.allocate(4096, 0).unwrap();
        let s = fm.stats();
        assert!(s.writeback_deferrals > 0, "{s:?}");
        assert_eq!(s.writebacks, 0, "no writeback can complete");
        assert!(s.budget_overruns > 0, "deferral leaves us over budget");
        // Both objects are still resident and dirty — degraded to local.
        let o2 = fm.obj_of_offset(p2.offset());
        assert!(fm.table().is_present(o2) && fm.table().is_dirty(o2));
        assert_eq!(fm.resident_bytes(), 2 * 4096);
    }

    #[test]
    fn outage_degrades_runtime_then_recovery_restores_prefetch() {
        use tfm_net::FaultPlan;
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 64 * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
        .with_faults(FaultPlan::none().with_outage(1_000_000, 1_500_000));
        let mut fm = FarMemory::new(cfg);
        let p = fm.allocate(64 * 4096, 0).unwrap();
        let base = fm.obj_of_offset(p.offset());
        fm.evacuate_all(0); // before the outage: all writebacks succeed
        fm.reset_stats();

        // A demand fetch inside the outage retries its way through the
        // window; sustained failures flip the runtime to degraded.
        let mut now = 1_000_000;
        let stall = fm.localize(base, false, now);
        assert!(fm.table().is_present(base), "localize must still succeed");
        assert!(fm.is_degraded(), "outage must degrade the runtime");
        assert!(fm.stats().deadline_exceeded <= 1);
        assert!(!fm.prefetch(ObjId(base.0 + 40), now + stall));
        assert!(fm.stats().prefetch_suppressed > 0);
        now += stall;
        assert!(now >= 1_500_000, "completion lands after the window");

        // Clean traffic after the window decays the EWMA: recovery.
        for k in 1..32u64 {
            now += fm.localize(ObjId(base.0 + k), false, now);
        }
        assert!(!fm.is_degraded(), "clean link must recover");
        assert_eq!(fm.stats().degradations, 1, "one degraded episode");
        // After recovery the prefetcher works again.
        assert!(fm.prefetch(ObjId(base.0 + 200), now));
    }

    #[test]
    fn sharded_outage_degrades_only_the_sick_shard() {
        use tfm_net::{BackendSpec, FaultPlan};
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 64 * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
        .with_backend(BackendSpec::sharded(4).with_fault_shard(2))
        .with_faults(FaultPlan::none().with_outage(1_000_000, 1_500_000));
        let mut fm = FarMemory::new(cfg);
        assert_eq!(fm.shard_count(), 4);
        let p = fm.allocate(32 * 4096, 0).unwrap();
        let base = fm.obj_of_offset(p.offset());
        assert_eq!(base.0, 0, "the test's object ids start at 0");
        fm.evacuate_all(0); // before the outage: all writebacks succeed
        fm.reset_stats();
        // Objects 0..256 split by whether shard 2 is their home.
        let (sick, well): (Vec<u64>, Vec<u64>) =
            (0..256).partition(|&o| fm.backend().shard_of(o) == 2);

        // Objects on healthy shards fetch cleanly inside the window…
        let mut now = 1_000_000;
        for &o in &well[..3] {
            let stall = fm.localize(ObjId(o), false, now);
            assert!(stall < 100_000, "object {o} is healthy, stall = {stall}");
            now += stall;
        }
        assert!(!fm.is_degraded(), "healthy shards must not degrade");
        // …while a shard-2 fetch retries its way through the outage and
        // degrades that shard alone.
        let stall = fm.localize(ObjId(sick[0]), false, now);
        assert!(fm.table().is_present(ObjId(sick[0])));
        assert!(fm.shard_degraded(2), "shard 2 rode through an outage");
        for s in [0usize, 1, 3] {
            assert!(!fm.shard_degraded(s), "shard {s} stays healthy");
        }
        assert!(fm.is_degraded(), "any sick shard degrades the aggregate");
        assert_eq!(fm.stats().degradations, 1);

        // Prefetch is suppressed onto the sick shard only. (Objects from 13
        // on sit outside the stride volley the sick fetch already fired.)
        now += stall;
        let suppressed = fm.stats().prefetch_suppressed;
        assert!(suppressed > 0, "the stride volley already hit shard 2");
        let far = |objs: &[u64]| ObjId(*objs.iter().find(|&&o| o >= 13).unwrap());
        assert!(!fm.prefetch(far(&sick), now), "routes to degraded shard 2");
        assert_eq!(fm.stats().prefetch_suppressed, suppressed + 1);
        assert!(
            fm.prefetch(far(&well), now),
            "healthy shards keep prefetching"
        );

        // Only shard 2's counters show faults, and clean traffic after the
        // window recovers it.
        let snaps = fm.shard_snapshots();
        assert!(snaps[2].stats.faults > 0);
        for s in [0usize, 1, 3] {
            assert_eq!(snaps[s].stats.faults, 0, "shard {s} saw no faults");
        }
        for &o in &sick[1..40] {
            now += fm.localize(ObjId(o), false, now.max(1_500_000));
        }
        assert!(!fm.is_degraded(), "shard 2 recovers after the window");
    }

    #[test]
    fn observed_crash_drains_the_shard_then_recovery_rejoins_it() {
        use tfm_net::{BackendSpec, FaultPlan, ShardState};
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 4 * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
        .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(2))
        .with_faults(FaultPlan::none().with_cold_crash(1_000_000, 2_000_000));
        let mut fm = FarMemory::new(cfg);
        let p = fm.allocate(32 * 4096, 0).unwrap();
        let base = fm.obj_of_offset(p.offset());
        assert_eq!(base.0, 0, "the test's object ids start at 0");
        let sick = ObjId((0..32).find(|&o| fm.backend().shard_of(o) == 2).unwrap());
        fm.evacuate_all(0);
        assert_eq!(
            fm.failover_audit().unwrap().acked_keys,
            32,
            "every acked writeback is ledgered"
        );

        // Traffic inside the window observes the crash: the sick object's
        // primary is Down, so the read fails over to its replica and the
        // Down transition drains every ledgered object off shard 2.
        let stall = fm.localize(sick, false, 1_000_000);
        assert!(fm.table().is_present(sick), "replica served the read");
        assert!(stall < 100_000, "failover read, not a retry storm: {stall}");
        assert_eq!(fm.shard_state(2), ShardState::Down);
        assert_eq!(fm.stats().shard_downs, 1);
        assert!(
            fm.stats().re_replications > 0,
            "ledgered objects hosted on the dead shard get re-homed"
        );
        let snaps = fm.shard_snapshots();
        assert!(snaps.iter().map(|s| s.failover_reads).sum::<u64>() > 0);

        // Traffic after the window drives restart: epoch bump, ack-ledger
        // resync, rejoin as Up — with zero acknowledged writes lost.
        let mut now = 2_000_000;
        for k in 0..32u64 {
            now += fm.localize(ObjId(k), true, now);
        }
        fm.evacuate_all(now);
        assert_eq!(fm.shard_state(2), ShardState::Up);
        assert_eq!(fm.stats().shard_recoveries, 1);
        assert_eq!(fm.stats().lost_objects, 0);
        assert_eq!(fm.backend().shard_epoch(2), 1, "restart bumps the epoch");
        let audit = fm.failover_audit().expect("replicated backend audits");
        assert!(audit.acked_keys >= 32);
        assert_eq!(audit.lost, 0, "R=2 rides through a cold crash");
    }

    #[test]
    fn unobserved_cold_crash_is_resynced_from_the_ack_ledger() {
        use tfm_net::{BackendSpec, FaultPlan, ShardState};
        let cfg = FarMemoryConfig {
            heap_size: 1 << 20,
            object_size: 4096,
            local_budget: 4 * 4096,
            link: LinkParams::tcp_25g(),
            ..FarMemoryConfig::small()
        }
        .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(2))
        .with_faults(FaultPlan::none().with_cold_crash(1_000_000, 1_500_000));
        let mut fm = FarMemory::new(cfg);
        let p = fm.allocate(32 * 4096, 0).unwrap();
        assert_eq!(fm.obj_of_offset(p.offset()).0, 0);
        fm.evacuate_all(0);
        // Shard 2 hosts the objects homed on it and on shard 1 (R = 2).
        let hosted = (0..32)
            .filter(|&o| matches!(fm.backend().shard_of(o), 1 | 2))
            .count() as u64;

        // Nobody touches the backend during the crash window: the restart
        // edge still fires on the first attempt after it, and the wiped
        // store is rebuilt from the ledger instead of being drained.
        let _ = fm.localize(ObjId(0), false, 2_000_000);
        assert_eq!(
            fm.stats().shard_downs,
            0,
            "the crash itself went unobserved"
        );
        assert_eq!(fm.stats().shard_recoveries, 1);
        assert_eq!(
            fm.stats().resynced_objects,
            hosted,
            "every object shard 2 hosts is re-synced: {:?}",
            fm.stats()
        );
        assert_eq!(fm.stats().lost_objects, 0);
        assert_eq!(fm.shard_state(2), ShardState::Up);
        assert_eq!(fm.failover_audit().unwrap().lost, 0);
    }

    #[test]
    fn crash_failover_schedule_is_reproducible() {
        use tfm_net::{BackendSpec, FaultPlan};
        let run = || {
            let cfg = FarMemoryConfig {
                heap_size: 1 << 20,
                object_size: 4096,
                local_budget: 4 * 4096,
                link: LinkParams::tcp_25g(),
                ..FarMemoryConfig::small()
            }
            .with_backend(BackendSpec::sharded(4).with_replicas(2).with_fault_shard(1))
            .with_faults(FaultPlan::drops(0x5EED, 200_000).with_cold_crash(500_000, 1_200_000));
            let mut fm = FarMemory::new(cfg);
            let p = fm.allocate(16 * 4096, 0).unwrap();
            let base = fm.obj_of_offset(p.offset());
            fm.evacuate_all(0);
            fm.reset_stats();
            let mut now = 0;
            for k in 0..16u64 {
                now += fm.localize(ObjId(base.0 + k), true, now);
            }
            fm.evacuate_all(now);
            (*fm.stats(), fm.transfer_stats(), fm.failover_audit(), now)
        };
        assert_eq!(run(), run(), "identical seeds, identical failover story");
    }

    #[test]
    fn small_allocations_share_an_object() {
        let mut fm = fm_with(16);
        let a = fm.allocate(64, 0).unwrap();
        let b = fm.allocate(64, 0).unwrap();
        assert_eq!(
            fm.obj_of_offset(a.offset()),
            fm.obj_of_offset(b.offset()),
            "two 64B allocations should be grouped into one 4KB object"
        );
        assert_eq!(fm.resident_bytes(), 4096);
    }
}
