//! # tfm-net — the cycle-accounted network link model
//!
//! Far-memory performance is dominated by three network quantities: the
//! per-message latency, the link bandwidth, and the total bytes moved
//! (I/O amplification). This crate models exactly those three on a simulated
//! cycle timeline, standing in for the paper's 25 Gb/s ConnectX-4 fabric with
//! its two software backends:
//!
//! * **TCP** (AIFM/Shenango's backend, used by TrackFM): higher per-message
//!   base latency;
//! * **RDMA** (Fastswap's backend): slightly lower per-message latency.
//!
//! The presets are calibrated so that a 4 KB fetch costs ≈35 K cycles end to
//! end over TCP and a remote 4 KB page fault lands at ≈34 K cycles over RDMA
//! (1.3 K of which is kernel fault handling), matching Table 2 of the paper.
//!
//! ## Timeline semantics
//!
//! [`Link`] keeps a single `free_at` horizon. A transfer issued at cycle
//! `now` begins its bandwidth slot at `max(now, free_at)`, occupies the link
//! for `bytes / bandwidth` cycles, and completes `base_latency` cycles after
//! its slot ends. Latency therefore overlaps across outstanding messages
//! (pipelining) while bandwidth strictly serializes — the behaviour that
//! makes prefetching profitable (Fig. 11) and small-object fetches
//! latency-bound (Fig. 9).
//!
//! ```
//! use tfm_net::{Link, LinkParams};
//! let mut link = Link::new(LinkParams::tcp_25g());
//! let done = link.transfer(4096, 0);
//! assert!(done > 30_000); // latency-dominated
//! let second = link.transfer(4096, 0); // queued behind the first
//! assert!(second > done);
//! ```

#![warn(missing_docs)]

use tfm_telemetry::{Span, SpanKind, StatGroup, Telemetry};

mod backend;
mod fault;
mod retry;

pub use backend::{
    build_backend, BackendSpec, FailoverAudit, Recovered, ShardSnapshot, Sharded, SpecError,
};
use fault::FaultState;
pub use fault::{
    mix, CrashWindow, FaultKind, FaultPlan, LinkFault, LinkHealth, OutageWindow, ShardState, PPM,
};
use retry::blind;
pub use retry::{drive_retries, Retried, RetryOps, MAX_DRIVEN_RETRIES};

/// Parameters of a simulated link.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct LinkParams {
    /// Fixed per-message latency in cycles (software stack + wire + remote
    /// service), charged after the message's bandwidth slot.
    pub base_latency: u64,
    /// Bandwidth expressed as cycles per 1024 bytes (so fractional
    /// bytes-per-cycle rates stay in integer math).
    pub cycles_per_kib: u64,
}

impl LinkParams {
    /// 25 Gb/s link on a 2.4 GHz core: ≈0.77 B/cycle ≈ 1330 cycles/KiB.
    const CYCLES_PER_KIB_25G: u64 = 1330;

    /// Derives link parameters from a wire rate in Gb/s plus a fixed
    /// per-message setup cost in cycles. The bandwidth term scales the
    /// calibrated 25 Gb/s point (1330 cycles/KiB on a 2.4 GHz core), so
    /// `from_gbps(25, _)` reproduces the presets exactly.
    ///
    /// # Panics
    /// Panics if `gbps` is zero.
    pub fn from_gbps(gbps: u64, setup_cycles: u64) -> Self {
        assert!(gbps > 0, "a link needs a non-zero wire rate");
        LinkParams {
            base_latency: setup_cycles,
            cycles_per_kib: 25 * Self::CYCLES_PER_KIB_25G / gbps,
        }
    }

    /// TCP backend preset (AIFM/Shenango): 4 KB fetch ≈ 35 K cycles,
    /// matching the TrackFM remote slow-path guard in Table 2.
    pub fn tcp_25g() -> Self {
        Self::from_gbps(25, 30_000)
    }

    /// RDMA backend preset (Fastswap): one-sided 4 KB read ≈ 33 K cycles;
    /// with ≈1.3 K cycles of kernel fault handling on top this reproduces the
    /// ≈34 K-cycle remote fault of Table 2.
    pub fn rdma_25g() -> Self {
        Self::from_gbps(25, 27_500)
    }

    /// An idealized instant link (useful in tests).
    pub fn instant() -> Self {
        LinkParams {
            base_latency: 0,
            cycles_per_kib: 0,
        }
    }

    /// Cycles the link's bandwidth is occupied transferring `bytes`.
    ///
    /// Units: simulated core cycles (2.4 GHz calibration), computed as
    /// `ceil(bytes * cycles_per_kib / 1024)`. This is the *serializing*
    /// term of a transfer — while these cycles elapse no other message can
    /// use the wire; the per-message `base_latency` is charged after the
    /// slot and pipelines across outstanding messages.
    #[inline]
    pub fn occupancy(&self, bytes: u64) -> u64 {
        // Round up: even a 1-byte message consumes a sliver of bandwidth.
        // The intermediate product is taken in u128: `bytes *
        // cycles_per_kib` overflows u64 once bytes exceeds ~2^53 (a dozen
        // PiB at the 25 Gb/s calibration) — unrealistic for one message,
        // but cheap to make impossible.
        ((bytes as u128 * self.cycles_per_kib as u128).div_ceil(1024)) as u64
    }

    /// End-to-end cycles for a single transfer on an idle link:
    /// [`occupancy`](Self::occupancy) (bandwidth slot, serializes) plus
    /// `base_latency` (per-message setup + wire + remote service,
    /// pipelines). Under queueing the real completion time is later; this
    /// is the contention-free floor.
    #[inline]
    pub fn solo_cost(&self, bytes: u64) -> u64 {
        self.occupancy(bytes) + self.base_latency
    }
}

/// Byte/message counters, split by direction.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TransferStats {
    /// Messages fetched from the remote node.
    pub fetches: u64,
    /// Bytes fetched from the remote node.
    pub bytes_fetched: u64,
    /// Messages written back to the remote node.
    pub writebacks: u64,
    /// Bytes written back to the remote node.
    pub bytes_written_back: u64,
    /// Failed transfer attempts (drops, outage hits and crashes).
    pub faults: u64,
    /// Bytes whose bandwidth slot was burned by a failed attempt.
    pub fault_wasted_bytes: u64,
    /// Always 0: every fault fails its attempt, so no transfer completes
    /// late. Kept only while `tfm-perf`'s `net.delay_cycles` row reads it.
    pub delay_cycles: u64,
}

impl TransferStats {
    /// Total bytes moved in either direction — the I/O-amplification
    /// numerator used by Figs. 13 and 16c.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_fetched + self.bytes_written_back
    }

    /// Folds another ledger into this one (every counter adds): how the
    /// sharded backend sums its per-shard ledgers.
    pub fn merge(&mut self, other: &Self) {
        self.fetches += other.fetches;
        self.bytes_fetched += other.bytes_fetched;
        self.writebacks += other.writebacks;
        self.bytes_written_back += other.bytes_written_back;
        self.faults += other.faults;
        self.fault_wasted_bytes += other.fault_wasted_bytes;
    }
}

impl StatGroup for TransferStats {
    fn group_name(&self) -> &'static str {
        "transfer"
    }

    fn stat_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("fetches", self.fetches),
            ("bytes_fetched", self.bytes_fetched),
            ("writebacks", self.writebacks),
            ("bytes_written_back", self.bytes_written_back),
            ("faults", self.faults),
            ("fault_wasted_bytes", self.fault_wasted_bytes),
            ("delay_cycles", self.delay_cycles),
        ]
    }
}

/// A simulated link with an occupancy horizon and a transfer ledger.
#[derive(Clone, Debug)]
pub struct Link {
    params: LinkParams,
    free_at: u64,
    stats: TransferStats,
    tel: Telemetry,
    /// Present only when an active [`FaultPlan`] is attached; the flawless
    /// fabric pays one `Option` branch per transfer and nothing else.
    fault: Option<FaultState>,
    health: LinkHealth,
    /// Shard index stamped on traced transfer spans (0 for a single-node
    /// backend; set by `Sharded` so each link gets its own trace track).
    shard: u32,
    /// Failover state of the node behind this link (DESIGN.md §6g). Only
    /// leaves `Up` when a crash plan is attached or health degrades.
    fstate: ShardState,
    /// Restart epoch: bumped every time the node comes back from a crash.
    /// A fenced reader refuses replicas whose store predates the epoch's
    /// resync.
    epoch: u64,
    /// Latched once the scripted crash's restart has been processed, so
    /// the `Down → Recovering` edge fires exactly once even if no attempt
    /// ever landed inside the window.
    crash_done: bool,
}

impl Link {
    /// Creates an idle link.
    pub fn new(params: LinkParams) -> Self {
        Link {
            params,
            free_at: 0,
            stats: TransferStats::default(),
            tel: Telemetry::disabled(),
            fault: None,
            health: LinkHealth::default(),
            shard: 0,
            fstate: ShardState::Up,
            epoch: 0,
            crash_done: false,
        }
    }

    /// Attaches a telemetry sink; every transfer records its size there.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Sets the shard index stamped on this link's traced transfer spans.
    pub fn set_shard(&mut self, shard: u32) {
        self.shard = shard;
    }

    /// Attaches a fault plan. [`FaultPlan::none`] (or any inactive plan)
    /// detaches fault injection entirely, restoring the flawless fabric.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan.is_active().then(|| FaultState::new(plan));
    }

    /// The attached fault plan ([`FaultPlan::none`] when fault injection is
    /// detached).
    pub fn fault_plan(&self) -> FaultPlan {
        self.fault.as_ref().map(|f| f.plan).unwrap_or_default()
    }

    /// The link-health tracker (EWMA fault rate + degraded flag). Only
    /// advances while a fault plan is attached.
    pub fn health(&self) -> LinkHealth {
        self.health
    }

    /// The link parameters.
    pub fn params(&self) -> LinkParams {
        self.params
    }

    /// One transfer attempt: decides its fate, burns the bandwidth slot
    /// unless the node has crashed (a lost message still occupied the
    /// wire), and updates the ledger and health tracker.
    fn attempt(&mut self, bytes: u64, now: u64, writeback: bool) -> Result<u64, LinkFault> {
        // Every outcome is one leaf span from `now` to `end`.
        let leaf = |l: &Self, end: u64, wait: u64, fault: Option<FaultKind>| {
            let kind = if writeback {
                SpanKind::WritebackXfer
            } else {
                SpanKind::Transfer
            };
            l.tel.span_leaf(Span {
                wait,
                shard: l.shard,
                fault: fault.map_or(Span::NO_FAULT, |k| k.code() as u32),
                ..Span::leaf(kind, now, end, bytes)
            })
        };
        if let Some(f) = &self.fault {
            if f.plan.crash.is_some_and(|c| c.contains(now)) && !self.crash_done {
                // Crashed node: connection refused. No bandwidth slot is
                // burned (nothing went on the wire) and detection takes one
                // base latency — the RST comes back in one trip, not the
                // full drop timeout. Fail-fast is what lets the failover
                // machinery react orders of magnitude sooner than a drop.
                self.stats.faults += 1;
                self.health.on_attempt(true);
                self.fstate = ShardState::Down;
                let detected_at = now + self.params.base_latency.max(1);
                leaf(self, detected_at, 0, Some(FaultKind::Crash));
                return Err(LinkFault {
                    kind: FaultKind::Crash,
                    detected_at,
                });
            }
        }
        let start = now.max(self.free_at);
        let fate = self.fault.as_mut().and_then(|f| f.decide(start));
        self.free_at = start + self.params.occupancy(bytes);
        if let Some(kind) = fate {
            self.stats.faults += 1;
            self.stats.fault_wasted_bytes += bytes;
            self.health.on_attempt(true);
            self.refresh_suspect();
            let detected_at = self.free_at + self.params.drop_timeout();
            leaf(self, detected_at, start - now, Some(kind));
            return Err(LinkFault { kind, detected_at });
        }
        if writeback {
            self.stats.writebacks += 1;
            self.stats.bytes_written_back += bytes;
        } else {
            self.stats.fetches += 1;
            self.stats.bytes_fetched += bytes;
        }
        self.tel.record_transfer(bytes);
        let done = self.free_at + self.params.base_latency;
        if self.fault.is_some() {
            self.health.on_attempt(false);
            self.refresh_suspect();
        }
        leaf(self, done, start - now, None);
        Ok(done)
    }

    /// Attempts a fetch of `bytes` at cycle `now`. Returns the completion
    /// cycle, or the [`LinkFault`] if the attempt failed — `detected_at` is
    /// the earliest cycle the caller's timeout fires and a retry can be
    /// issued. Retry/backoff policy lives with the caller.
    pub fn try_transfer(&mut self, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        self.attempt(bytes, now, false)
    }

    /// Attempts a writeback of `bytes` at cycle `now`; see
    /// [`Link::try_transfer`] for the failure contract.
    pub fn try_writeback(&mut self, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        self.attempt(bytes, now, true)
    }

    /// Schedules a fetch of `bytes` at cycle `now`; returns the completion
    /// cycle. Synchronous callers stall until then; asynchronous callers
    /// (the prefetcher) record it as the object's ready time. Under an
    /// attached fault plan, faulted attempts are retried under the blind
    /// policy (timeout charged, no backoff) until one delivers.
    pub fn transfer(&mut self, bytes: u64, now: u64) -> u64 {
        blind(self, now, |l, at| l.try_transfer(bytes, at), Link::dead)
    }

    /// Schedules a writeback (evacuation of a dirty object/page). Returns the
    /// completion cycle, though callers typically fire-and-forget: the cost
    /// surfaces as queueing delay for subsequent fetches.
    pub fn writeback(&mut self, bytes: u64, now: u64) -> u64 {
        blind(self, now, |l, at| l.try_writeback(bytes, at), Link::dead)
    }

    /// The blind policy's panic message for a permanently dead link.
    fn dead(&self, attempts: u32) -> String {
        format!(
            "link permanently dead: {attempts} consecutive faults (plan: {})",
            self.fault_plan()
        )
    }

    /// Health-driven `Up ↔ Suspect` hysteresis. Never touches `Down` /
    /// `Recovering` — those edges belong to the crash machinery.
    fn refresh_suspect(&mut self) {
        match self.fstate {
            ShardState::Up if self.health.is_degraded() => self.fstate = ShardState::Suspect,
            ShardState::Suspect if !self.health.is_degraded() => self.fstate = ShardState::Up,
            _ => {}
        }
    }

    /// Advances the crash-driven failover transitions to cycle `now`
    /// without issuing any traffic. Returns true exactly once per scripted
    /// crash, at the `Down → Recovering` edge (restart): the epoch is
    /// bumped, the node lost its store, and `Sharded` owns re-syncing it.
    /// The edge fires even if no attempt ever landed inside the window —
    /// the crash happened whether or not anyone was talking to the node.
    pub(crate) fn poll_failover(&mut self, now: u64) -> bool {
        let Some(c) = self.fault.as_ref().and_then(|f| f.plan.crash) else {
            return false;
        };
        // Once the restart has been processed the window is history: an
        // attempt stamped with an in-window cycle can still arrive later
        // (overlapping operations advance their own timelines at different
        // rates) and must not knock the restarted node back Down.
        if self.crash_done {
            return false;
        }
        if c.contains(now) {
            self.fstate = ShardState::Down;
        } else if now >= c.end {
            // A plan scripts one window, and `crash_done` latches its
            // restart edge: the epoch is bumped once per window (only
            // `reset_stats` rewinds it) and no shard re-enters `Recovering`
            // for a window already serviced.
            self.crash_done = true;
            self.fstate = ShardState::Recovering;
            self.epoch += 1;
            return true;
        }
        false
    }

    /// The node's failover state.
    pub fn failover_state(&self) -> ShardState {
        self.fstate
    }

    /// The node's restart epoch (0 until it crashes for the first time).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// `Recovering → Up`: the backend finished re-syncing the restarted
    /// node from its ack ledger, so it may serve reads again.
    pub(crate) fn mark_synced(&mut self) {
        if self.fstate == ShardState::Recovering {
            self.fstate = ShardState::Up;
        }
    }

    /// First cycle at which a new transfer could start.
    pub fn free_at(&self) -> u64 {
        self.free_at
    }

    /// The transfer ledger.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Resets the ledger and the occupancy horizon (used between benchmark
    /// phases, e.g. to exclude setup traffic). Also rewinds the fault
    /// schedule and health tracker so a measured phase sees the same fault
    /// sequence regardless of setup traffic.
    pub fn reset_stats(&mut self) {
        self.stats = TransferStats::default();
        self.free_at = 0;
        if let Some(f) = &mut self.fault {
            f.reset();
        }
        self.health = LinkHealth::default();
        self.fstate = ShardState::Up;
        self.epoch = 0;
        self.crash_done = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_put_a_4k_fetch_near_35k_cycles() {
        // TCP 4KB fetch ≈ 35K cycles once the 144-cycle slow-path guard is
        // added by the runtime; the raw link cost must sit just below that.
        let tcp = LinkParams::tcp_25g().solo_cost(4096);
        assert!((34_000..36_000).contains(&tcp), "tcp 4KB = {tcp}");
        // RDMA + 1.3K kernel handling ≈ 34K.
        let rdma = LinkParams::rdma_25g().solo_cost(4096) + 1_300;
        assert!((33_000..35_500).contains(&rdma), "rdma fault = {rdma}");
    }

    #[test]
    fn from_gbps_scales_the_calibrated_point() {
        // The presets are exact instances of the shared constructor.
        assert_eq!(LinkParams::from_gbps(25, 30_000), LinkParams::tcp_25g());
        assert_eq!(LinkParams::from_gbps(25, 27_500), LinkParams::rdma_25g());
        // Double the wire rate, half the per-KiB occupancy.
        assert_eq!(LinkParams::from_gbps(50, 0).cycles_per_kib, 665);
        assert_eq!(LinkParams::from_gbps(100, 0).cycles_per_kib, 332);
    }

    #[test]
    fn occupancy_rounds_up_and_scales() {
        let p = LinkParams::tcp_25g();
        assert_eq!(p.occupancy(0), 0);
        assert!(p.occupancy(1) >= 1);
        assert_eq!(p.occupancy(2048), 2 * p.occupancy(1024));
    }

    #[test]
    fn latency_overlaps_bandwidth_serializes() {
        let p = LinkParams {
            base_latency: 1000,
            cycles_per_kib: 1024, // 1 byte per cycle
        };
        let mut l = Link::new(p);
        let a = l.transfer(100, 0);
        let b = l.transfer(100, 0);
        assert_eq!(a, 100 + 1000);
        // Second message waits for the first's bandwidth slot only, not its
        // latency: starts at 100, done at 200 + 1000.
        assert_eq!(b, 200 + 1000);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let p = LinkParams {
            base_latency: 10,
            cycles_per_kib: 1024,
        };
        let mut l = Link::new(p);
        let _ = l.transfer(50, 0);
        // Issue long after the link drained: no queueing.
        let done = l.transfer(50, 10_000);
        assert_eq!(done, 10_000 + 50 + 10);
    }

    #[test]
    fn ledger_accumulates_both_directions() {
        let mut l = Link::new(LinkParams::instant());
        l.transfer(4096, 0);
        l.transfer(64, 0);
        l.writeback(4096, 0);
        let s = l.stats();
        assert_eq!(s.fetches, 2);
        assert_eq!(s.bytes_fetched, 4160);
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.bytes_written_back, 4096);
        assert_eq!(s.total_bytes(), 8256);
    }

    #[test]
    fn reset_clears_horizon_and_ledger() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.transfer(1 << 20, 0);
        assert!(l.free_at() > 0);
        l.reset_stats();
        assert_eq!(l.free_at(), 0);
        assert_eq!(l.stats().total_bytes(), 0);
    }

    #[test]
    fn occupancy_survives_multi_tib_transfers() {
        // Regression: `bytes * cycles_per_kib` used to overflow u64 for
        // sizes past ~2^53 bytes. 2^54 bytes is exactly 1330 << 44 cycles
        // at the 25 Gb/s calibration.
        let p = LinkParams::tcp_25g();
        assert_eq!(p.occupancy(1 << 54), 1330u64 << 44);
        // And the small-size behaviour is untouched.
        assert_eq!(p.occupancy(1024), 1330);
    }

    #[test]
    fn inactive_fault_plan_is_bit_identical_to_no_plan() {
        let mut plain = Link::new(LinkParams::tcp_25g());
        let mut planned = Link::new(LinkParams::tcp_25g());
        planned.set_fault_plan(FaultPlan::none());
        for i in 0..100 {
            let (size, at) = (64 + i * 37, i * 1000);
            assert_eq!(plain.transfer(size, at), planned.transfer(size, at));
            assert_eq!(plain.writeback(size, at), planned.writeback(size, at));
        }
        assert_eq!(plain.stats(), planned.stats());
        assert_eq!(plain.free_at(), planned.free_at());
        assert!(!planned.health().is_degraded());
        assert_eq!(planned.fault_plan(), FaultPlan::none());
    }

    #[test]
    fn faulted_attempt_burns_the_slot_and_reports_detection_time() {
        let p = LinkParams::tcp_25g();
        let mut l = Link::new(p);
        l.set_fault_plan(FaultPlan::drops(1, fault::PPM)); // every attempt drops
        let f = l.try_transfer(4096, 0).unwrap_err();
        assert_eq!(f.kind, FaultKind::Drop);
        // The lost message occupied the wire; detection is one timeout
        // (2x base latency) after its slot ended.
        assert_eq!(l.free_at(), p.occupancy(4096));
        assert_eq!(f.detected_at, p.occupancy(4096) + p.drop_timeout());
        let s = l.stats();
        assert_eq!((s.faults, s.fault_wasted_bytes), (1, 4096));
        assert_eq!(s.fetches, 0);
    }

    #[test]
    fn blocking_transfer_retries_through_drops() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::drops(0xFEED, 500_000)); // 50%
        let mut now = 0;
        for _ in 0..64 {
            now = l.transfer(4096, now);
        }
        let s = l.stats();
        assert_eq!(s.fetches, 64, "every transfer eventually delivers");
        assert!(s.faults > 10, "a 50% plan must have faulted: {}", s.faults);
        assert_eq!(s.bytes_fetched, 64 * 4096);
        assert_eq!(s.fault_wasted_bytes, s.faults * 4096);
    }

    #[test]
    #[should_panic(expected = "link permanently dead")]
    fn blocking_transfer_on_a_dead_link_panics() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::drops(7, fault::PPM)); // every attempt drops
        l.transfer(4096, 0);
    }

    #[test]
    fn outage_window_defers_completion_past_its_end() {
        let p = LinkParams::tcp_25g();
        let mut l = Link::new(p);
        l.set_fault_plan(FaultPlan::none().with_outage(0, 200_000));
        let done = l.transfer(4096, 0);
        assert!(done > 200_000, "completed at {done} inside the outage");
        assert!(l.stats().faults > 0);
        assert_eq!(l.stats().fetches, 1);
    }

    #[test]
    fn reset_stats_rewinds_the_fault_schedule() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::drops(3, 300_000));
        let mut now = 0;
        for _ in 0..32 {
            now = l.transfer(512, now);
        }
        let first = l.stats();
        l.reset_stats();
        let mut now = 0;
        for _ in 0..32 {
            now = l.transfer(512, now);
        }
        assert_eq!(l.stats(), first, "same schedule after reset");
        assert_eq!(l.health().faults(), first.faults);
    }

    #[test]
    fn sustained_faults_degrade_health_then_recovery_restores_it() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::none().with_outage(0, 1_000_000));
        // Attempts inside the outage all fail.
        let mut now = 0;
        for _ in 0..4 {
            now = match l.try_transfer(64, now) {
                Ok(d) => d,
                Err(f) => f.detected_at,
            };
        }
        assert!(l.health().is_degraded());
        // Past the window everything delivers; health decays back.
        let mut now = 2_000_000;
        for _ in 0..40 {
            now = l.transfer(64, now);
        }
        assert!(!l.health().is_degraded());
    }

    #[test]
    fn crash_fails_fast_without_burning_the_wire() {
        let p = LinkParams::tcp_25g();
        let mut l = Link::new(p);
        l.set_fault_plan(FaultPlan::none().with_cold_crash(0, 500_000));
        let f = l.try_transfer(4096, 100).unwrap_err();
        assert_eq!(f.kind, FaultKind::Crash);
        // Connection refused: detection after one base latency, not the
        // occupancy + drop timeout a lost message costs.
        assert_eq!(f.detected_at, 100 + p.base_latency);
        assert_eq!(l.free_at(), 0, "no bandwidth slot was burned");
        assert_eq!(l.stats().fault_wasted_bytes, 0);
        assert_eq!(l.stats().faults, 1);
        assert_eq!(l.failover_state(), ShardState::Down);
        // Past the window the node restarts: exactly one Recovering edge.
        assert!(l.poll_failover(600_000));
        assert_eq!(l.failover_state(), ShardState::Recovering);
        assert_eq!(l.epoch(), 1);
        assert!(!l.poll_failover(700_000), "restart fires once");
        l.mark_synced();
        assert_eq!(l.failover_state(), ShardState::Up);
        let done = l.try_transfer(4096, 700_000).unwrap();
        assert_eq!(done, 700_000 + p.solo_cost(4096));
    }

    #[test]
    fn unobserved_crash_still_restarts_with_a_bumped_epoch() {
        // Nobody talks to the node during its window; the restart edge must
        // still fire on the first poll after the window (the crash wiped
        // the store whether or not anyone noticed).
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::none().with_cold_crash(1_000, 2_000));
        assert!(!l.poll_failover(500), "before the window: nothing");
        assert_eq!(l.failover_state(), ShardState::Up);
        assert!(l.poll_failover(5_000), "restart reported");
        assert_eq!(l.epoch(), 1);
        assert_eq!(l.failover_state(), ShardState::Recovering);
    }

    #[test]
    fn health_suspects_a_degraded_link_and_clears_on_recovery() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::none().with_outage(0, 1_000_000));
        let mut now = 0;
        for _ in 0..4 {
            now = match l.try_transfer(64, now) {
                Ok(d) => d,
                Err(f) => f.detected_at,
            };
        }
        assert_eq!(l.failover_state(), ShardState::Suspect);
        let mut now = 2_000_000;
        for _ in 0..40 {
            now = l.transfer(64, now);
        }
        assert_eq!(l.failover_state(), ShardState::Up);
    }

    #[test]
    fn reset_stats_clears_failover_state_and_epoch() {
        let mut l = Link::new(LinkParams::tcp_25g());
        l.set_fault_plan(FaultPlan::none().with_cold_crash(0, 1_000));
        let _ = l.try_transfer(64, 10);
        assert_eq!(l.failover_state(), ShardState::Down);
        assert!(l.poll_failover(5_000));
        assert_eq!(l.epoch(), 1);
        l.reset_stats();
        assert_eq!(l.failover_state(), ShardState::Up);
        assert_eq!(l.epoch(), 0);
        // The schedule rewound too: the crash can fire again.
        let _ = l.try_transfer(64, 10);
        assert_eq!(l.failover_state(), ShardState::Down);
    }

    #[test]
    fn small_objects_are_latency_bound_large_are_bandwidth_bound() {
        // The Fig. 9/10 mechanism: per-byte cost of a 64B fetch is far worse
        // than per-byte cost of a 4KB fetch.
        let p = LinkParams::tcp_25g();
        let small = p.solo_cost(64) as f64 / 64.0;
        let large = p.solo_cost(4096) as f64 / 4096.0;
        assert!(small > 40.0 * large, "small {small} vs large {large}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;

    /// Tiny deterministic PRNG (SplitMix64) so these randomized properties
    /// need no external dependency and reproduce from the seed alone.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn range(&mut self, lo: u64, hi: u64) -> u64 {
            lo + ((self.next() as u128 * (hi - lo) as u128) >> 64) as u64
        }
    }

    /// Completion times are monotone in issue order, never precede the
    /// issue time plus the solo cost's latency component, and the byte
    /// ledger is exact.
    #[test]
    fn link_timeline_is_monotone_and_exact() {
        let mut rng = Rng(0x11CE);
        for _ in 0..256 {
            let msgs: Vec<(u64, u64)> = (0..rng.range(1, 40))
                .map(|_| (rng.range(1, 64_000), rng.range(0, 100_000)))
                .collect();
            let mut link = Link::new(LinkParams::tcp_25g());
            let mut now = 0u64;
            let mut last_done = 0u64;
            let mut total = 0u64;
            for (s, g) in &msgs {
                now += g;
                let done = link.transfer(*s, now);
                assert!(done >= last_done, "completions must be ordered");
                assert!(done >= now + LinkParams::tcp_25g().base_latency);
                last_done = done;
                total += s;
            }
            assert_eq!(link.stats().bytes_fetched, total);
            assert_eq!(link.stats().fetches, msgs.len() as u64);
        }
    }

    /// A transfer on an idle link costs exactly the solo cost.
    #[test]
    fn idle_link_charges_solo_cost() {
        let mut rng = Rng(0x1D1E);
        for _ in 0..256 {
            let size = rng.range(1, 1_000_000);
            let start = rng.range(0, 1_000_000);
            let p = LinkParams::rdma_25g();
            let mut link = Link::new(p);
            // Drain any state by starting fresh; first transfer at `start`.
            let done = link.transfer(size, start);
            assert_eq!(done, start + p.solo_cost(size));
        }
    }
}
