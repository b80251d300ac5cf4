//! # tfm-fastswap — the kernel-paging baseline (Fastswap stand-in)
//!
//! Fastswap (Amaro et al., EuroSys '20) is the paper's kernel-based
//! comparator: a modified Linux swap subsystem that pages 4 KB pages to a
//! remote server over one-sided RDMA. Its performance character — the one the
//! paper's figures rely on — comes from three properties:
//!
//! 1. every miss costs a **hardware page fault plus kernel handling**
//!    (~1.3 K cycles even when the data is local, ~34 K when remote,
//!    Table 2);
//! 2. transfers happen at the **architected page size**, so fine-grained
//!    access patterns suffer heavy I/O amplification (Figs. 13/16);
//! 3. under memory pressure, reclaim (cgroup eviction + dirty writeback)
//!    adds work on the fault path (§4.1: "mapping and cgroups memory
//!    reclamation").
//!
//! [`Pager`] reproduces all three on the simulated cycle timeline: a page
//! table over the heap address range (one packed word per page, indexed by
//! page number), CLOCK reclamation with dirty writebacks, and per-fault cost
//! accounting over an RDMA [`tfm_net::Link`]. The *untransformed* program
//! runs against it — kernel paging needs no compiler support, which is
//! exactly its appeal.
//!
//! ```
//! use tfm_fastswap::{Pager, PagerConfig};
//! let mut p = Pager::new(PagerConfig { local_budget: 8 * 4096, ..PagerConfig::default() });
//! // First touch of fresh memory: minor fault (kernel cost only).
//! let minor = p.access(0x1000, 8, true, 0);
//! assert_eq!(minor, p.config().kernel_fault_cycles);
//! // Page it out, touch again: major fault, ~34K cycles over RDMA.
//! p.evacuate_all(minor);
//! let major = p.access(0x1000, 8, false, minor);
//! assert!(major > 30_000);
//! // Third touch: resident, no fault cost.
//! assert_eq!(p.access(0x1008, 8, false, minor + major), 0);
//! ```

use std::collections::VecDeque;
use tfm_net::{
    build_backend, drive_retries, BackendSpec, FaultPlan, LinkFault, LinkParams, RetryOps,
    ShardSnapshot, Sharded, TransferStats,
};
use tfm_telemetry::{Span, SpanKind, StatGroup, Telemetry};

/// The architected page size Fastswap is bound to.
pub const PAGE_SIZE: u64 = 4096;
const PAGE_SHIFT: u32 = 12;

/// Pager configuration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PagerConfig {
    /// Local memory budget in bytes (cgroup limit in Fastswap terms).
    pub local_budget: u64,
    /// Kernel cycles to handle a fault when the page is already in the swap
    /// cache / local (Table 2: 1.3 K cycles).
    pub kernel_fault_cycles: u64,
    /// Extra kernel cycles per reclaimed page on the fault path (cgroup
    /// reclaim + unmap).
    pub reclaim_cycles: u64,
    /// RDMA backend parameters.
    pub link: LinkParams,
    /// Fault-injection schedule for the link ([`FaultPlan::none`] = the
    /// flawless fabric).
    pub faults: FaultPlan,
    /// Remote-memory topology: one node (the default) or N sharded nodes;
    /// pages route to shards by page number.
    pub backend: BackendSpec,
}

impl Default for PagerConfig {
    fn default() -> Self {
        PagerConfig {
            local_budget: 16 << 20,
            kernel_fault_cycles: 1_300,
            reclaim_cycles: 400,
            link: LinkParams::rdma_25g(),
            faults: FaultPlan::none(),
            backend: BackendSpec::single(),
        }
    }
}

// One page-table entry, packed like the runtime's `StateTable` word: flag
// bits on top, the pending RDMA read's completion cycle in the low 48 bits.
const RESIDENT: u64 = 1 << 63;
const DIRTY: u64 = 1 << 62;
/// CLOCK reference bit.
const REFERENCED: u64 = 1 << 61;
/// An RDMA read was issued for the page and no touch has consumed it yet;
/// the payload is its completion cycle. Only the split protocol sets it.
const PENDING: u64 = 1 << 60;
/// The page has been paged out at least once, so it has a remote copy.
/// Pages without one fault "minor" on first touch.
const REMOTE_COPY: u64 = 1 << 59;
const CYCLE_MASK: u64 = (1 << 48) - 1;
/// Entries a page table starts with (512 B); it doubles from there. Not 0:
/// where this first block lands decides which of glibc's heap layouts a
/// long `tfm-perf` run settles into, and with it `peak_rss_mb` on
/// `stream_far` (CHANGES.md, PR 18). Any value from 32 to 256 reads alike.
const INITIAL_ENTRIES: usize = 64;

/// Fault/reclaim counters.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct PagerStats {
    /// Faults served from remote memory (RDMA fetch).
    pub major_faults: u64,
    /// Faults on pages that were never paged out (first touch of fresh
    /// memory): kernel cost only, no transfer.
    pub minor_faults: u64,
    /// Pages reclaimed under pressure.
    pub reclaims: u64,
    /// Reclaimed pages that were dirty (written back).
    pub writebacks: u64,
    /// Major faults re-driven after the RDMA read faulted: each retry
    /// charges another round of kernel fault handling on top of the link's
    /// detection timeout.
    pub fault_retries: u64,
    /// Restarted shards the swap device re-registered with (one per
    /// Recovering → Up transition it drove).
    pub recoveries: u64,
    /// Pages re-copied onto a restarted shard from a surviving replica
    /// during re-registration.
    pub resynced_pages: u64,
    /// Acknowledged page writebacks with no surviving copy after a cold
    /// restart (only possible unreplicated).
    pub lost_pages: u64,
    /// Faults that joined an already-in-flight RDMA read for the same page
    /// instead of issuing their own (multi-core in-flight page table;
    /// always zero on the synchronous single-core machine).
    pub fault_joins: u64,
}

impl StatGroup for PagerStats {
    fn group_name(&self) -> &'static str {
        "pager"
    }

    fn stat_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("major_faults", self.major_faults),
            ("minor_faults", self.minor_faults),
            ("reclaims", self.reclaims),
            ("writebacks", self.writebacks),
            ("fault_retries", self.fault_retries),
            ("recoveries", self.recoveries),
            ("resynced_pages", self.resynced_pages),
            ("lost_pages", self.lost_pages),
            ("fault_joins", self.fault_joins),
        ]
    }
}

/// The page-granularity far-memory pager.
pub struct Pager {
    cfg: PagerConfig,
    /// The page table: entry `page - base_page` is that page's packed word.
    /// Grows on demand, never past `max_pages`.
    table: Vec<u64>,
    base_page: u64,
    max_pages: u64,
    clock: VecDeque<u64>,
    resident_pages: u64,
    backend: Sharded,
    stats: PagerStats,
    tel: Telemetry,
    /// Split issue/complete fault handling (multi-core scheduler only):
    /// major faults issue their RDMA read and record the completion cycle
    /// in the page's entry instead of stalling until it; later touches of
    /// the page either join the pending read or find it landed. Off (the
    /// synchronous path) by default.
    async_fetch: bool,
    /// Latest completion cycle of any read issued asynchronously since the
    /// scheduler last drained it — the core is charged to the issue point,
    /// so request latency learns about the delivery through this horizon.
    completion_horizon: u64,
}

impl Pager {
    /// Creates a pager with an empty resident set whose page table starts
    /// at address 0 and grows with the highest page touched.
    pub fn new(cfg: PagerConfig) -> Self {
        Self::with_range(cfg, 0, u64::MAX)
    }

    /// Creates a pager for the `len` bytes at `base`. Pages past the range
    /// are never mapped — a simulated address must not size a host
    /// allocation — so an access there costs nothing and changes nothing;
    /// whoever owns the address space rejects it.
    pub fn with_range(cfg: PagerConfig, base: u64, len: u64) -> Self {
        let mut backend = build_backend(cfg.link, cfg.backend, cfg.faults);
        backend.set_key_base(base >> PAGE_SHIFT);
        Pager {
            table: Vec::with_capacity(INITIAL_ENTRIES),
            base_page: base >> PAGE_SHIFT,
            max_pages: base.saturating_add(len).div_ceil(PAGE_SIZE) - (base >> PAGE_SHIFT),
            clock: VecDeque::new(),
            resident_pages: 0,
            backend,
            stats: PagerStats::default(),
            tel: Telemetry::disabled(),
            async_fetch: false,
            completion_horizon: 0,
            cfg,
        }
    }

    /// Switches major faults to the split issue/complete protocol (used by
    /// the multi-core scheduler). Off, the pager is the synchronous
    /// single-core baseline, bit-identical to before the split existed.
    pub fn set_async_fetch(&mut self, on: bool) {
        self.async_fetch = on;
    }

    /// Number of pages with an issued-but-unconsumed RDMA read.
    pub fn inflight_pages(&self) -> usize {
        self.count(PENDING)
    }

    /// Number of page-table entries (8 bytes of host memory each).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    fn count(&self, flag: u64) -> usize {
        self.table.iter().filter(|&&e| e & flag != 0).count()
    }

    /// Table index of a page that has been touched before.
    #[inline]
    fn index(&self, page: u64) -> usize {
        (page - self.base_page) as usize
    }

    /// Table index of `page`, growing the table to reach it; `None` for a
    /// page past the pager's range.
    #[inline]
    fn slot(&mut self, page: u64) -> Option<usize> {
        let Some(idx) = page.checked_sub(self.base_page) else {
            panic!(
                "page {page:#x} lies below the pager's base page {:#x}",
                self.base_page
            );
        };
        if idx >= self.table.len() as u64 {
            if idx >= self.max_pages {
                return None;
            }
            self.table.resize(idx as usize + 1, 0);
        }
        Some(idx as usize)
    }

    /// Drains the completion horizon: the latest completion cycle of any
    /// RDMA read issued asynchronously since the last call (0 if none).
    pub fn take_completion_horizon(&mut self) -> u64 {
        std::mem::take(&mut self.completion_horizon)
    }

    /// Attaches a telemetry sink (shared with the backend's links):
    /// fault-service latency, page residency lifetimes and fault/reclaim
    /// spans flow there.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.backend.set_telemetry(tel.clone());
        self.tel = tel;
    }

    /// The configuration.
    pub fn config(&self) -> &PagerConfig {
        &self.cfg
    }

    /// Fault/reclaim counters.
    pub fn stats(&self) -> PagerStats {
        self.stats
    }

    /// Bytes moved over the backend, aggregated over all shards (4 KB
    /// granularity — the I/O-amplification ledger for Figs. 13/16).
    pub fn transfer_stats(&self) -> TransferStats {
        self.backend.stats()
    }

    /// The remote backend (shard topology, per-shard ledgers and health).
    pub fn backend(&self) -> &Sharded {
        &self.backend
    }

    /// Number of remote nodes behind the pager.
    pub fn shard_count(&self) -> usize {
        self.backend.shard_count()
    }

    /// Per-shard end-of-run counters, for reports.
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        self.backend.shard_snapshots()
    }

    /// Bytes currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_pages * PAGE_SIZE
    }

    /// Clears counters and every shard's occupancy horizon (after benchmark
    /// setup).
    pub fn reset_stats(&mut self) {
        self.stats = PagerStats::default();
        self.backend.reset_stats();
    }

    /// Simulates an access of `size` bytes at `addr`; returns the cycles the
    /// faulting thread stalls (0 when all touched pages are resident).
    /// Accesses spanning page boundaries fault on each page.
    pub fn access(&mut self, addr: u64, size: u64, write: bool, now: u64) -> u64 {
        let first = addr >> PAGE_SHIFT;
        let last = (addr + size.max(1) - 1) >> PAGE_SHIFT;
        let mut cycles = 0;
        for page in first..=last {
            cycles += self.touch_page(page, write, now + cycles);
        }
        cycles
    }

    /// Traced kernel-round leaf: one charge of `kernel_fault_cycles`
    /// starting at `at` (the initial fault entry or a re-drive after a
    /// faulted RDMA read; `attempt` is 0 for the initial round).
    fn kernel_leaf(&self, at: u64, attempt: u64) {
        self.tel.span_leaf(Span {
            kind: SpanKind::Kernel,
            start: at,
            end: at + self.cfg.kernel_fault_cycles,
            parent: Span::NO_PARENT,
            arg: attempt,
            wait: 0,
            shard: Span::NO_SHARD,
            fault: Span::NO_FAULT,
            core: Span::NO_CORE,
        });
    }

    /// The kernel's shard re-registration path: the backend drains a dead
    /// memory server's pages onto substitutes and, when it restarts,
    /// re-copies every page it should hold from a surviving replica before
    /// putting it back in service (the backend's ack ledger is the source
    /// of truth). The pager only counts what that did.
    fn service_failover(&mut self, now: u64) {
        let r = self.backend.service(now, PAGE_SIZE);
        self.stats.recoveries += r.recoveries;
        self.stats.resynced_pages += r.resynced;
        self.stats.lost_pages += r.lost;
    }

    fn touch_page(&mut self, page: u64, write: bool, now: u64) -> u64 {
        let Some(idx) = self.slot(page) else {
            return 0;
        };
        let mut e = self.table[idx];
        // Split-protocol path: an earlier fault may have issued this page's
        // RDMA read without stalling for it. A touch after the completion
        // cycle silently consumes the entry; before it, the toucher joins
        // the pending read and stalls only for its remaining latency.
        if e & PENDING != 0 && now >= e & CYCLE_MASK {
            e &= !(PENDING | CYCLE_MASK);
        }
        if e & RESIDENT != 0 {
            self.table[idx] = e | REFERENCED | if write { DIRTY } else { 0 };
            self.tel.timeline_access(now, false);
            if e & PENDING != 0 {
                // Join the pending read: no second transfer, and the
                // joining core moves on too — the shared completion
                // cycle reaches the scheduler through the horizon.
                self.stats.fault_joins += 1;
                self.completion_horizon = self.completion_horizon.max(e & CYCLE_MASK);
            }
            return 0;
        }
        self.tel.timeline_access(now, true);
        // Fault path: kernel handling + (for paged-out pages) an RDMA fetch,
        // plus any reclaim work needed to make room. Provisionally traced as
        // a major fault; reclassified to MinorFault if the kernel resolves
        // it with a zero page.
        let sp = self.tel.span_begin(SpanKind::MajorFault, page, now);
        self.service_failover(now);
        let mut cycles = self.cfg.kernel_fault_cycles;
        self.kernel_leaf(now, 0);
        cycles += self.make_room(now + cycles);
        let mut mapped = RESIDENT | REFERENCED;
        if e & REMOTE_COPY != 0 {
            // The RDMA read can fault; the kernel re-drives the fault after
            // the timeout, charging another round of fault handling each
            // time (there is no backoff in the kernel fast path).
            let mut ops = PagerRetry { pager: self, page };
            let r = drive_retries(&mut ops, now + cycles)
                .expect("the kernel re-drives forever; it never abandons a fault");
            cycles = r.issued_at - now;
            if self.async_fetch {
                // Issue/complete split: record the completion cycle and
                // return without stalling for the wire; a later touch (any
                // core) joins or consumes it.
                debug_assert!(r.done <= CYCLE_MASK, "simulated time overflowed 48 bits");
                mapped |= PENDING | r.done;
                self.completion_horizon = self.completion_horizon.max(r.done);
            } else {
                cycles += r.done.saturating_sub(now + cycles);
            }
            mapped |= REMOTE_COPY | if write { DIRTY } else { 0 };
            self.stats.major_faults += 1;
            self.tel
                .span_finish(sp, now + cycles, SpanKind::MajorFault, true);
            self.tel.record_fetch_latency(cycles);
        } else {
            // Fresh page: the kernel just maps a zero page.
            mapped |= DIRTY;
            self.stats.minor_faults += 1;
            self.tel
                .span_finish(sp, now + cycles, SpanKind::MinorFault, true);
        }
        self.table[idx] = mapped;
        self.resident_pages += 1;
        self.clock.push_back(page);
        self.tel.note_resident(page, now);
        cycles
    }

    /// CLOCK reclamation down to the budget; returns reclaim cycles charged
    /// to the faulting thread.
    fn make_room(&mut self, now: u64) -> u64 {
        let budget_pages = self.cfg.local_budget / PAGE_SIZE;
        let mut cycles = 0;
        let mut visits = self.clock.len().saturating_mul(2) + 1;
        while self.resident_pages + 1 > budget_pages && visits > 0 {
            visits -= 1;
            let Some(page) = self.clock.pop_front() else {
                break;
            };
            let idx = self.index(page);
            let e = &mut self.table[idx];
            if *e & RESIDENT == 0 {
                continue; // stale entry
            }
            if *e & PENDING != 0 && now >= *e & CYCLE_MASK {
                // Landed and never consumed: an ordinary resident page now.
                *e &= !(PENDING | CYCLE_MASK);
            }
            if *e & REFERENCED != 0 {
                *e &= !REFERENCED;
                self.clock.push_back(page);
                continue;
            }
            if *e & PENDING != 0 {
                // The page's RDMA read is still in flight; reclaiming it now
                // would tear the transfer. Give it a second chance instead.
                self.clock.push_back(page);
                continue;
            }
            // Reclaim: the kernel's reclaim work, then the page-out.
            cycles += self.cfg.reclaim_cycles;
            self.tel.span_leaf(Span {
                kind: SpanKind::Kernel,
                start: now + cycles - self.cfg.reclaim_cycles,
                end: now + cycles,
                parent: Span::NO_PARENT,
                arg: page,
                wait: 0,
                shard: Span::NO_SHARD,
                fault: Span::NO_FAULT,
                core: Span::NO_CORE,
            });
            self.page_out(page, now + cycles);
        }
        cycles
    }

    /// Pages the resident `page` out at cycle `at`: unmaps it, writes it
    /// back when dirty, and counts the reclaim.
    fn page_out(&mut self, page: u64, at: u64) {
        let idx = self.index(page);
        let e = self.table[idx];
        debug_assert!(
            e & (RESIDENT | PENDING) == RESIDENT,
            "paging out page {page:#x}, which is not resident or has a read in flight"
        );
        self.table[idx] = REMOTE_COPY;
        self.resident_pages -= 1;
        self.stats.reclaims += 1;
        if e & DIRTY != 0 {
            self.backend.writeback(page, PAGE_SIZE, at);
            self.stats.writebacks += 1;
        }
        self.tel.note_evicted(page, at);
    }

    /// Pages everything out (dirty pages write back). Benchmarks call this
    /// after setup for a cold start, then [`Pager::reset_stats`].
    pub fn evacuate_all(&mut self, now: u64) {
        while let Some(page) = self.clock.pop_front() {
            let idx = self.index(page);
            // Any pending read has logically landed by a full evacuation
            // point (benchmarks call this between phases).
            self.table[idx] &= !(PENDING | CYCLE_MASK);
            if self.table[idx] & RESIDENT != 0 {
                self.page_out(page, now);
            }
        }
        debug_assert_eq!(self.resident_pages as usize, self.count(RESIDENT));
        debug_assert!(
            self.table
                .iter()
                .all(|&e| e & PENDING == 0 || e & CYCLE_MASK > now),
            "a read landed by cycle {now} is still pending after a full evacuation"
        );
    }
}

/// [`RetryOps`] adapter for the kernel fault path: issue over the RDMA
/// backend; on each fault, charge another round of kernel fault handling at
/// the detection cycle and re-drive (the kernel fast path has no backoff
/// and never gives up).
struct PagerRetry<'a> {
    pager: &'a mut Pager,
    page: u64,
}

impl RetryOps for PagerRetry<'_> {
    fn issue(&mut self, at: u64, _attempts: u32) -> Result<u64, LinkFault> {
        self.pager.backend.try_transfer(self.page, PAGE_SIZE, at)
    }

    fn on_fault(&mut self, attempts: u32, fault: LinkFault) -> Option<u64> {
        self.pager.stats.fault_retries += 1;
        self.pager.kernel_leaf(fault.detected_at, attempts as u64);
        self.pager.service_failover(fault.detected_at);
        Some(fault.detected_at + self.pager.cfg.kernel_fault_cycles)
    }

    fn describe_dead(&self, attempts: u32) -> String {
        format!("link permanently dead: {attempts} consecutive faults on one page fault")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfm_net::ShardState;

    fn pager(pages: u64) -> Pager {
        Pager::new(PagerConfig {
            local_budget: pages * PAGE_SIZE,
            ..PagerConfig::default()
        })
    }

    #[test]
    fn first_touch_is_minor_fault() {
        let mut p = pager(8);
        let c = p.access(0, 8, true, 0);
        assert_eq!(c, p.config().kernel_fault_cycles);
        assert_eq!(p.stats().minor_faults, 1);
        assert_eq!(p.stats().major_faults, 0);
        assert_eq!(p.transfer_stats().bytes_fetched, 0);
    }

    #[test]
    fn remote_fault_costs_match_table2() {
        let mut p = pager(8);
        p.access(0, 8, true, 0);
        p.evacuate_all(0);
        p.reset_stats();
        let c = p.access(0, 8, false, 0);
        assert!((32_000..36_000).contains(&c), "remote fault = {c}");
        assert_eq!(p.stats().major_faults, 1);
        assert_eq!(p.transfer_stats().bytes_fetched, PAGE_SIZE);
    }

    #[test]
    fn resident_access_is_free() {
        let mut p = pager(8);
        p.access(0, 8, false, 0);
        assert_eq!(p.access(100, 8, false, 0), 0);
        assert_eq!(p.access(4000, 8, false, 0), 0);
    }

    #[test]
    fn page_spanning_access_faults_twice() {
        let mut p = pager(8);
        let c = p.access(4090, 16, false, 0);
        assert_eq!(p.stats().minor_faults, 2);
        assert_eq!(c, 2 * p.config().kernel_fault_cycles);
    }

    #[test]
    fn io_amplification_is_page_granular() {
        // Touch one byte in each of 16 distinct cold (paged-out) pages: 64 KB
        // fetched for 16 bytes of use — the Fig. 13 mechanism.
        let mut p = pager(32);
        for i in 0..16u64 {
            p.access(i * PAGE_SIZE, 1, true, 0);
        }
        p.evacuate_all(0);
        p.reset_stats();
        let mut now = 0;
        for i in 0..16u64 {
            now += p.access(i * PAGE_SIZE, 1, false, now);
        }
        assert_eq!(p.transfer_stats().bytes_fetched, 16 * PAGE_SIZE);
    }

    #[test]
    fn reclaim_under_pressure_writes_back_dirty_pages() {
        let mut p = pager(2);
        let mut now = 0;
        for i in 0..4u64 {
            now += p.access(i * PAGE_SIZE, 8, true, now);
        }
        assert!(p.resident_bytes() <= 3 * PAGE_SIZE);
        assert!(p.stats().reclaims >= 2);
        assert!(p.stats().writebacks >= 2, "fresh pages are dirty");
        // Re-touching a reclaimed page is now a major fault.
        p.reset_stats();
        now += p.access(0, 8, false, now);
        assert_eq!(p.stats().major_faults, 1);
        let _ = now;
    }

    #[test]
    fn temporal_locality_amortizes_faults() {
        // The paper's observation (§5): with repeated access, page fault
        // costs amortize. 1 fault then N free accesses.
        let mut p = pager(8);
        p.access(0, 8, true, 0);
        p.evacuate_all(0);
        p.reset_stats();
        let mut total = p.access(0, 8, false, 0);
        for _ in 0..1000 {
            total += p.access(8, 8, false, total);
        }
        assert_eq!(p.stats().major_faults, 1);
        assert!(total < 40_000);
    }

    #[test]
    fn default_config_has_no_fault_plan() {
        assert_eq!(PagerConfig::default().faults, FaultPlan::none());
        assert!(!PagerConfig::default().faults.is_active());
    }

    #[test]
    fn major_faults_retry_and_charge_kernel_cost() {
        let mk = || {
            Pager::new(PagerConfig {
                local_budget: 32 * PAGE_SIZE,
                faults: FaultPlan::drops(0xFA57, 500_000), // 50% drops
                ..PagerConfig::default()
            })
        };
        let run = |p: &mut Pager| {
            for i in 0..16u64 {
                p.access(i * PAGE_SIZE, 8, true, 0);
            }
            p.evacuate_all(0);
            p.reset_stats();
            let mut now = 0;
            for i in 0..16u64 {
                now += p.access(i * PAGE_SIZE, 8, false, now);
            }
            (p.stats(), p.transfer_stats(), now)
        };
        let mut p = mk();
        let (stats, transfer, elapsed) = run(&mut p);
        assert_eq!(stats.major_faults, 16, "every page still lands");
        assert!(stats.fault_retries > 0, "a 50% plan must force retries");
        assert_eq!(transfer.faults, stats.fault_retries);
        assert_eq!(transfer.bytes_fetched, 16 * PAGE_SIZE);
        // Each retry costs at least a timeout + another kernel fault.
        let flawless = {
            let mut q = Pager::new(PagerConfig {
                local_budget: 32 * PAGE_SIZE,
                ..PagerConfig::default()
            });
            run(&mut q).2
        };
        assert!(elapsed > flawless, "{elapsed} vs {flawless}");
        // Determinism: the same seed reproduces the exact same run.
        let mut p2 = mk();
        assert_eq!(run(&mut p2), (stats, transfer, elapsed));
    }

    #[test]
    fn writeback_re_sends_are_blind_and_charge_no_kernel_cost() {
        let mut p = Pager::new(PagerConfig {
            local_budget: 32 * PAGE_SIZE,
            faults: FaultPlan::drops(0xFA57, 500_000), // 50% drops
            ..PagerConfig::default()
        });
        for i in 0..16u64 {
            p.access(i * PAGE_SIZE, 8, true, 0);
        }
        p.evacuate_all(0);
        let (stats, transfer) = (p.stats(), p.transfer_stats());
        assert_eq!(stats.writebacks, 16, "every dirty page writes back");
        assert_eq!(transfer.writebacks, stats.writebacks);
        assert!(transfer.faults > 0, "a 50% plan must drop some writebacks");
        // Re-sending a dropped writeback is the backend's blind policy: no
        // kernel re-drive, so the pager's retry counter stays at zero.
        assert_eq!(stats.fault_retries, 0);
    }

    #[test]
    fn sharded_pager_spreads_pages_across_shards() {
        let mut p = Pager::new(PagerConfig {
            local_budget: 32 * PAGE_SIZE,
            backend: BackendSpec::sharded(4),
            ..PagerConfig::default()
        });
        for i in 0..16u64 {
            p.access(i * PAGE_SIZE, 8, true, 0);
        }
        p.evacuate_all(0);
        p.reset_stats();
        let mut now = 0;
        for i in 0..16u64 {
            now += p.access(i * PAGE_SIZE, 8, false, now);
        }
        // Each shard serves the refills of exactly the pages homed on it,
        // and every shard gets some.
        assert_eq!(p.stats().major_faults, 16);
        assert_eq!(p.transfer_stats().bytes_fetched, 16 * PAGE_SIZE);
        for (s, snap) in p.shard_snapshots().iter().enumerate() {
            let homed = (0..16).filter(|&i| p.backend().shard_of(i) == s).count() as u64;
            assert!(homed > 0, "shard {s} hosts no page");
            assert_eq!(snap.stats.fetches, homed, "shard {s} serves its pages");
        }
    }

    #[test]
    fn unreplicated_crash_re_drives_until_the_shard_restarts() {
        let mut p = Pager::new(PagerConfig {
            local_budget: 4 * PAGE_SIZE,
            backend: BackendSpec::sharded(2).with_fault_shard(0),
            faults: FaultPlan::none().with_cold_crash(100_000, 400_000),
            ..PagerConfig::default()
        });
        for i in 0..8u64 {
            p.access(i * PAGE_SIZE, 8, true, 0);
        }
        p.evacuate_all(0);
        // This page lives on the crashed shard and has no replica: the
        // kernel re-drives the fault (fail-fast, one RTT per round) until
        // the shard restarts, then re-registers with it and completes.
        let page = (0..8).find(|&i| p.backend().shard_of(i) == 0).unwrap();
        let stall = p.access(page * PAGE_SIZE, 8, false, 100_000);
        assert_eq!(p.stats().major_faults, 1);
        assert!(p.stats().fault_retries > 5, "{:?}", p.stats());
        assert!(
            stall >= 300_000,
            "blocked for the rest of the window: {stall}"
        );
        assert_eq!(p.stats().recoveries, 1, "re-registration drove the rejoin");
        assert_eq!(p.backend().shard_state(0), ShardState::Up);
        assert_eq!(p.backend().shard_epoch(0), 1, "restart bumped the epoch");
        // The shard came back empty and no replica holds its pages: each
        // page homed there is lost, and the books say so.
        let homed = (0..8).filter(|&i| p.backend().shard_of(i) == 0).count() as u64;
        assert_eq!(p.stats().lost_pages, homed, "{:?}", p.stats());
        assert_eq!(p.stats().resynced_pages, 0, "nothing to resync from");
        assert_eq!(p.backend().audit().unwrap().lost, homed);
    }

    #[test]
    fn replicated_pager_survives_a_cold_crash_without_losing_pages() {
        // At the simulator's heap base page numbers are near 1 << 33: the
        // replica ledger must start at the base page, as the table does.
        for base in [0, 0x2000_0000_0000] {
            let cfg = PagerConfig {
                local_budget: 4 * PAGE_SIZE,
                backend: BackendSpec::sharded(2).with_replicas(2).with_fault_shard(0),
                faults: FaultPlan::none().with_cold_crash(100_000, 400_000),
                ..PagerConfig::default()
            };
            let mut p = Pager::with_range(cfg, base, 8 * PAGE_SIZE);
            for i in 0..8u64 {
                p.access(base + i * PAGE_SIZE, 8, true, 0);
            }
            p.evacuate_all(0);
            // Inside the window every read is served by the surviving
            // replica — no re-drive storm, just failover.
            let mut now = 100_000;
            for i in 0..8u64 {
                now += p.access(base + i * PAGE_SIZE, 8, false, now);
            }
            assert_eq!(p.stats().major_faults, 8);
            assert_eq!(p.stats().fault_retries, 0, "the replica absorbs the crash");
            let snaps = p.shard_snapshots();
            assert!(snaps[1].failover_reads > 0, "shard 1 covered for shard 0");
            // After the restart the wiped store is rebuilt from the replica.
            p.evacuate_all(now);
            let _ = p.access(base, 8, false, now.max(400_000));
            assert_eq!(p.stats().recoveries, 1);
            assert_eq!(p.stats().resynced_pages, 8, "cold store rebuilt in full");
            assert_eq!(p.stats().lost_pages, 0);
            let audit = p.backend().audit().unwrap();
            assert_eq!(audit.lost, 0, "R=2 loses nothing to a cold crash");
            assert_eq!(p.backend().shard_epoch(0), 1);
        }
    }

    #[test]
    fn an_observed_crash_re_homes_the_dead_shards_pages() {
        let mut p = Pager::new(PagerConfig {
            local_budget: 4 * PAGE_SIZE,
            backend: BackendSpec::sharded(4).with_replicas(2).with_fault_shard(0),
            faults: FaultPlan::none().with_cold_crash(100_000, 400_000),
            ..PagerConfig::default()
        });
        for i in 0..8u64 {
            p.access(i * PAGE_SIZE, 8, true, 0);
        }
        p.evacuate_all(0);
        let writebacks = |p: &Pager| -> Vec<u64> {
            p.shard_snapshots()
                .iter()
                .map(|s| s.stats.writebacks)
                .collect()
        };
        // A page homed on shard h mirrors onto shards h and h + 1 (mod 4).
        let homes: Vec<usize> = (0..8).map(|i| p.backend().shard_of(i)).collect();
        let mut want = [0u64; 4];
        for &h in &homes {
            want[h] += 1;
            want[(h + 1) % 4] += 1;
        }
        assert_eq!(writebacks(&p), want);
        // A fault inside the window sees shard 0 Down. Its pages move to
        // the next live shard outside each replica set: those homed on 0
        // (set {0, 1}) to shard 2, those homed on 3 (set {3, 0}) to shard 1.
        for &h in &homes {
            match h {
                0 => want[2] += 1,
                3 => want[1] += 1,
                _ => {}
            }
        }
        assert!(writebacks(&p) != want, "shard 0 hosts some page");
        p.access(PAGE_SIZE, 8, false, 100_000);
        assert_eq!(p.backend().shard_state(0), ShardState::Down);
        assert_eq!(writebacks(&p), want);
        let audit = p.backend().audit().unwrap();
        assert_eq!((audit.lost, audit.under_replicated), (0, 0));
        // The restart finds nothing left to rebuild.
        p.access(2 * PAGE_SIZE, 8, false, 400_000);
        let s = p.stats();
        assert_eq!((s.recoveries, s.resynced_pages, s.lost_pages), (1, 0, 0));
        assert_eq!(p.backend().shard_state(0), ShardState::Up);
    }

    #[test]
    fn async_fetch_splits_issue_from_completion_and_joins() {
        let mut p = pager(8);
        p.access(0, 8, true, 0);
        p.evacuate_all(0);
        p.reset_stats();
        let sync_stall = {
            let mut q = pager(8);
            q.access(0, 8, true, 0);
            q.evacuate_all(0);
            q.reset_stats();
            q.access(0, 8, false, 0)
        };
        p.set_async_fetch(true);
        // Issue: the faulting core is charged only up to the RDMA issue
        // point, not the wire time.
        let issue_stall = p.access(0, 8, false, 0);
        assert!(issue_stall < sync_stall, "{issue_stall} vs {sync_stall}");
        assert_eq!(p.stats().major_faults, 1);
        assert_eq!(p.inflight_pages(), 1);
        let done = issue_stall + (sync_stall - issue_stall); // == sync_stall
        assert_eq!(p.take_completion_horizon(), done, "delivery cycle reported");
        // A second touch before completion joins the pending read: no new
        // transfer, no stall — the joining request completes at the shared
        // delivery cycle, reported through the horizon.
        let join_stall = p.access(0, 8, false, issue_stall);
        assert_eq!(join_stall, 0);
        assert_eq!(p.take_completion_horizon(), done);
        assert_eq!(p.stats().fault_joins, 1);
        assert_eq!(p.stats().major_faults, 1, "no second fault");
        assert_eq!(p.transfer_stats().fetches, 1, "one wire transfer total");
        // A touch after completion consumes the entry silently and is free.
        assert_eq!(p.access(0, 8, false, done), 0);
        assert_eq!(p.inflight_pages(), 0);
        assert_eq!(p.stats().fault_joins, 1);
    }

    #[test]
    fn make_room_reclaims_a_landed_pending_page() {
        let mut p = pager(1);
        p.access(0, 8, true, 0);
        p.access(PAGE_SIZE, 8, true, 0);
        p.evacuate_all(0);
        p.reset_stats();
        p.set_async_fetch(true);
        p.access(0, 8, false, 0);
        assert_eq!(p.inflight_pages(), 1);
        // Page 0's read landed long ago and nobody consumed it: the next
        // fault reclaims it instead of going over budget.
        p.access(PAGE_SIZE, 8, false, 10_000_000);
        assert_eq!(p.stats().reclaims, 1);
        assert_eq!(p.resident_bytes(), PAGE_SIZE);
        assert_eq!(p.inflight_pages(), 1, "only page 1's read is pending");
    }

    #[test]
    fn a_based_pager_replays_the_base_zero_trace_identically() {
        // The simulator's heap base: far enough up that indexing the table
        // by absolute page number would ask for 64 GiB.
        const BASE: u64 = 0x2000_0000_0000;
        const PAGES: u64 = 256;
        let cfg = PagerConfig {
            local_budget: PAGES / 4 * PAGE_SIZE,
            ..PagerConfig::default()
        };
        let replay = |mut p: Pager, base: u64| {
            let mut now = 0;
            let mut stalls = Vec::new();
            let mut touch = |p: &mut Pager, page: u64, write: bool| {
                let stall = p.access(base + page * PAGE_SIZE + 8, 8, write, now);
                now += 100 + stall;
                stalls.push(stall);
            };
            // Sequential fill (grows the table a page at a time), then a
            // seeded replay skewed toward the low pages.
            for page in 0..PAGES {
                touch(&mut p, page, true);
            }
            let mut z = 42u64;
            for i in 0..4096u64 {
                z = z
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (z >> 33) % PAGES;
                touch(&mut p, u * u / PAGES, i % 3 == 0);
            }
            assert_eq!(p.table_len() as u64, PAGES);
            (stalls, p.stats(), p.transfer_stats())
        };
        let zero = replay(Pager::new(cfg), 0);
        let based = replay(Pager::with_range(cfg, BASE, PAGES * PAGE_SIZE), BASE);
        assert!(zero.1.major_faults > 0 && zero.1.writebacks > 0);
        assert_eq!(zero, based);
    }

    #[test]
    fn pages_past_the_range_are_never_mapped() {
        let mut p = Pager::with_range(PagerConfig::default(), 16 * PAGE_SIZE, 4 * PAGE_SIZE);
        assert_eq!(p.access(19 * PAGE_SIZE, 8, true, 0), 1_300);
        let before = (p.resident_bytes(), p.table_len(), p.stats());
        // One page past the end, a page-straddling access off the end, and
        // a wild address: no fault, no entry, no allocation.
        assert_eq!(p.access(20 * PAGE_SIZE, 8, true, 0), 0);
        assert_eq!(p.access(20 * PAGE_SIZE - 4, 8, true, 0), 0);
        assert_eq!(p.access(1 << 60, 8, false, 0), 0);
        assert_eq!((p.resident_bytes(), p.table_len(), p.stats()), before);
    }

    #[test]
    #[should_panic(expected = "below the pager's base page")]
    fn a_page_below_the_base_is_a_caller_bug() {
        let mut p = Pager::with_range(PagerConfig::default(), 16 * PAGE_SIZE, 4 * PAGE_SIZE);
        p.access(15 * PAGE_SIZE, 8, false, 0);
    }

    #[test]
    fn clock_second_chance_prefers_unreferenced() {
        let mut p = pager(2);
        let mut now = 0;
        now += p.access(0, 8, false, now); // page 0
        now += p.access(PAGE_SIZE, 8, false, now); // page 1
                                                   // Re-reference page 0 so it gets a second chance.
        now += p.access(0, 8, false, now);
        // Pressure: page 2 comes in; CLOCK strips ref bits, evicts page 1
        // (page 0 was referenced more recently in clock order).
        now += p.access(2 * PAGE_SIZE, 8, false, now);
        let _ = now;
        assert!(p.stats().reclaims >= 1);
    }
}
