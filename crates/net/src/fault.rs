//! Deterministic fault injection for the simulated link.
//!
//! Production far-memory fabrics lose messages, stall under congestion, and
//! occasionally lose the remote node entirely. This module models those
//! hazards on the cycle timeline without giving up determinism: every
//! transfer attempt draws its fate from a [`FaultPlan`]-seeded hash of the
//! attempt's sequence number, so the same seed and the same sequence of
//! attempts reproduce the exact same fault schedule — and therefore the
//! exact same counters, retry histograms, and workload outputs.
//!
//! Fault taxonomy (see DESIGN.md §6c):
//!
//! * **Drop** — the message (or its response) is lost. The attempt still
//!   burns its bandwidth slot; the sender learns of the failure only after a
//!   timeout ([`LinkParams::drop_timeout`]) and must retry.
//! * **Outage** — a scripted [`OutageWindow`] during which the remote node
//!   is unreachable: every attempt whose wire slot starts inside the window
//!   fails like a drop. This is the "remote node died for N ms" experiment.
//! * **Stall** — the remote node hiccups (GC pause, scheduler delay): the
//!   transfer succeeds but completes [`FaultPlan::stall_cycles`] late.
//! * **Jitter** — congestion noise: the transfer succeeds with a uniformly
//!   drawn extra latency in `[0, max_jitter)`.
//!
//! [`FaultPlan::none`] (the default everywhere) injects nothing and costs
//! one branch on the transfer path — the machinery is strictly pay-for-use.

use crate::LinkParams;

/// What kind of fault was injected into a transfer attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Message lost; detected by timeout, must be retried.
    Drop,
    /// Attempt landed inside a scripted remote-node outage window.
    Outage,
    /// Remote-node stall: success, but late by a fixed amount.
    Stall,
    /// Congestion jitter: success, with drawn extra latency.
    Jitter,
    /// Whole-node crash: the shard is down, every attempt fails fast
    /// (connection refused — no bandwidth slot is burned, detection takes
    /// one base latency instead of the drop timeout).
    Crash,
}

impl FaultKind {
    /// Stable lowercase name (logs and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Outage => "outage",
            FaultKind::Stall => "stall",
            FaultKind::Jitter => "jitter",
            FaultKind::Crash => "crash",
        }
    }

    /// Stable numeric code — the `fault` tag of traced transfer spans.
    pub fn code(self) -> u64 {
        match self {
            FaultKind::Drop => 0,
            FaultKind::Outage => 1,
            FaultKind::Stall => 2,
            FaultKind::Jitter => 3,
            FaultKind::Crash => 4,
        }
    }
}

/// A failed transfer attempt, reported by `Link::try_transfer` /
/// `Link::try_writeback`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct LinkFault {
    /// Why the attempt failed ([`FaultKind::Drop`] or [`FaultKind::Outage`]).
    pub kind: FaultKind,
    /// Cycle at which the sender detects the failure (its timeout fires);
    /// the earliest cycle a retry can be issued.
    pub detected_at: u64,
}

/// A scripted remote-node outage on the cycle timeline: every transfer
/// attempt whose bandwidth slot starts in `[start, end)` fails.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OutageWindow {
    /// First cycle of the outage.
    pub start: u64,
    /// First cycle after the outage (exclusive).
    pub end: u64,
}

impl OutageWindow {
    /// True if `cycle` falls inside the window.
    #[inline]
    pub fn contains(&self, cycle: u64) -> bool {
        (self.start..self.end).contains(&cycle)
    }
}

/// A scripted whole-node crash/restart window: the shard is down for
/// `[start, end)` and restarts at `end`. While down, every attempt fails
/// fast ([`FaultKind::Crash`]); at restart the shard re-enters service
/// through the failover state machine (`Down → Recovering → Up`) with a
/// bumped epoch, and — if `cold` — with its un-synced store wiped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// First cycle the node is down.
    pub start: u64,
    /// First cycle after the restart (exclusive).
    pub end: u64,
    /// Cold restart: the node comes back empty and must be re-synced
    /// before it may serve (a warm restart keeps its durable store).
    pub cold: bool,
}

impl CrashWindow {
    /// True if `cycle` falls inside the down window.
    #[inline]
    pub fn contains(&self, cycle: u64) -> bool {
        (self.start..self.end).contains(&cycle)
    }
}

/// Failover state of one shard, driven by fail-fast crash signals and
/// [`LinkHealth`] (see DESIGN.md §6g).
///
/// `Up → Suspect` when the health EWMA degrades; `Suspect → Up` when it
/// recovers. `→ Down` on a crash signal; `Down → Recovering` at restart
/// (epoch bump, cold-restart store wipe); `Recovering → Up` once the
/// backend has re-synced the shard from its ack ledger
/// (`Sharded::service`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum ShardState {
    /// Healthy and serving.
    #[default]
    Up,
    /// Degraded health: still serving, but reads prefer a replica.
    Suspect,
    /// Crashed: every attempt fails fast; reads fail over, writes skip it.
    Down,
    /// Restarted but not yet re-synced: it must not serve reads (epoch
    /// fence) until every acked key it hosts has been re-synced onto it.
    Recovering,
}

impl ShardState {
    /// Stable lowercase name (logs and reports).
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Up => "up",
            ShardState::Suspect => "suspect",
            ShardState::Down => "down",
            ShardState::Recovering => "recovering",
        }
    }

    /// Stable numeric code (report counters).
    pub fn code(self) -> u64 {
        match self {
            ShardState::Up => 0,
            ShardState::Suspect => 1,
            ShardState::Down => 2,
            ShardState::Recovering => 3,
        }
    }
}

impl std::fmt::Display for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scale of the per-attempt probability draws: rates are expressed in
/// parts-per-million so the whole plan stays in deterministic integer math.
pub const PPM: u32 = 1_000_000;

/// A seeded, deterministic fault schedule for one link.
///
/// Rates are parts-per-million of transfer *attempts* (e.g. `drop_ppm =
/// 10_000` is a 1% drop rate). Fate draws are keyed by the attempt sequence
/// number, so identical seeds and identical attempt sequences reproduce the
/// identical schedule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-attempt fate draws.
    pub seed: u64,
    /// Fraction of attempts dropped (lost message → timeout → retry).
    pub drop_ppm: u32,
    /// Fraction of attempts hit by a remote-node stall.
    pub stall_ppm: u32,
    /// Extra completion latency of a stalled transfer.
    pub stall_cycles: u64,
    /// Fraction of attempts hit by congestion jitter.
    pub jitter_ppm: u32,
    /// Exclusive upper bound of the drawn jitter latency.
    pub max_jitter: u64,
    /// Scripted remote-node outage, if any.
    pub outage: Option<OutageWindow>,
    /// Scripted whole-node crash/restart, if any.
    pub crash: Option<CrashWindow>,
}

impl FaultPlan {
    /// The flawless-fabric plan: injects nothing, costs one branch.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_ppm: 0,
            stall_ppm: 0,
            stall_cycles: 0,
            jitter_ppm: 0,
            max_jitter: 0,
            outage: None,
            crash: None,
        }
    }

    /// A drop-only plan: `drop_ppm` of attempts are lost.
    pub fn drops(seed: u64, drop_ppm: u32) -> Self {
        FaultPlan {
            seed,
            drop_ppm,
            ..Self::none()
        }
    }

    /// Returns a copy with a scripted remote-node outage window.
    pub fn with_outage(mut self, start: u64, end: u64) -> Self {
        assert!(start < end, "outage window must be non-empty");
        self.outage = Some(OutageWindow { start, end });
        self
    }

    /// Returns a copy with a scripted warm crash/restart: the node is down
    /// for `[start, end)`, restarts with its store intact.
    pub fn with_crash(mut self, start: u64, end: u64) -> Self {
        assert!(start < end, "crash window must be non-empty");
        self.crash = Some(CrashWindow {
            start,
            end,
            cold: false,
        });
        self
    }

    /// Returns a copy with a scripted cold crash/restart: the node is down
    /// for `[start, end)` and loses its un-synced store at restart.
    pub fn with_cold_crash(mut self, start: u64, end: u64) -> Self {
        assert!(start < end, "crash window must be non-empty");
        self.crash = Some(CrashWindow {
            start,
            end,
            cold: true,
        });
        self
    }

    /// Returns a copy with remote-node stalls (`ppm` of attempts are
    /// `cycles` late).
    pub fn with_stalls(mut self, ppm: u32, cycles: u64) -> Self {
        self.stall_ppm = ppm;
        self.stall_cycles = cycles;
        self
    }

    /// Returns a copy with congestion jitter (`ppm` of attempts gain up to
    /// `max_jitter` extra cycles).
    pub fn with_jitter(mut self, ppm: u32, max_jitter: u64) -> Self {
        self.jitter_ppm = ppm;
        self.max_jitter = max_jitter;
        self
    }

    /// True if this plan can ever perturb a transfer. The link skips all
    /// fault bookkeeping for inactive plans (pay-for-use).
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0
            || self.stall_ppm > 0
            || self.jitter_ppm > 0
            || self.outage.is_some()
            || self.crash.is_some()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if !self.is_active() {
            return write!(f, "none");
        }
        write!(
            f,
            "seed={} drop={}ppm stall={}ppm jitter={}ppm",
            self.seed, self.drop_ppm, self.stall_ppm, self.jitter_ppm
        )?;
        if let Some(w) = self.outage {
            write!(f, " outage=[{}, {})", w.start, w.end)?;
        }
        if let Some(c) = self.crash {
            let mode = if c.cold { "cold" } else { "warm" };
            write!(f, " crash=[{}, {}) {mode}", c.start, c.end)?;
        }
        Ok(())
    }
}

/// The fate of one transfer attempt, decided before it touches the wire.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Normal delivery.
    Deliver,
    /// Success with `extra` cycles of additional latency.
    Slow(FaultKind, u64),
    /// Failure: the sender must time out and retry.
    Fail(FaultKind),
}

/// SplitMix64 finalizer: a statistically strong 64-bit mix, the same
/// generator the workloads crate uses for seeded randomness. Also used by
/// the sharded backend for hashed object→shard placement and per-shard
/// seed derivation.
#[inline]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-link fault state: the plan plus the attempt sequence counter the
/// fate draws are keyed by.
#[derive(Copy, Clone, Debug)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    seq: u64,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState { plan, seq: 0 }
    }

    /// Rewinds the attempt counter (measured phases restart the schedule).
    pub(crate) fn reset(&mut self) {
        self.seq = 0;
    }

    /// Decides the fate of the attempt whose bandwidth slot starts at
    /// `wire_start`. Consumes one sequence number per call.
    pub(crate) fn decide(&mut self, wire_start: u64) -> Fate {
        let seq = self.seq;
        self.seq += 1;
        if let Some(w) = self.plan.outage {
            if w.contains(wire_start) {
                return Fate::Fail(FaultKind::Outage);
            }
        }
        let h = mix(self.plan.seed ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
        let draw = (h % PPM as u64) as u32;
        if draw < self.plan.drop_ppm {
            return Fate::Fail(FaultKind::Drop);
        }
        if draw < self.plan.drop_ppm + self.plan.stall_ppm {
            return Fate::Slow(FaultKind::Stall, self.plan.stall_cycles);
        }
        if draw < self.plan.drop_ppm + self.plan.stall_ppm + self.plan.jitter_ppm {
            let extra = if self.plan.max_jitter == 0 {
                0
            } else {
                mix(h) % self.plan.max_jitter
            };
            return Fate::Slow(FaultKind::Jitter, extra);
        }
        Fate::Deliver
    }
}

impl LinkParams {
    /// How long a sender waits before declaring a transfer lost: a
    /// retransmission-timeout stand-in of two base latencies (≈ one RTT
    /// plus slack).
    #[inline]
    pub fn drop_timeout(&self) -> u64 {
        2 * self.base_latency
    }
}

/// Exponentially-weighted fault-rate tracker with hysteresis — the signal
/// behind graceful degradation.
///
/// Every transfer attempt feeds one sample (fault or success). The EWMA
/// (α = 1/8, integer fixed-point in ppm) crosses
/// [`LinkHealth::DEGRADE_ENTER_PPM`] after roughly three consecutive faults
/// and decays back below [`LinkHealth::DEGRADE_EXIT_PPM`] after a dozen or
/// so clean attempts, so short blips don't flap the runtime's configuration.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkHealth {
    ewma_ppm: u64,
    degraded: bool,
    attempts: u64,
    faults: u64,
}

impl LinkHealth {
    /// EWMA fault rate above which the link is declared degraded (30%).
    pub const DEGRADE_ENTER_PPM: u64 = 300_000;
    /// EWMA fault rate below which a degraded link is declared recovered
    /// (5%) — the hysteresis gap prevents oscillation.
    pub const DEGRADE_EXIT_PPM: u64 = 50_000;
    /// EWMA weight: new sample gets 1/2^ALPHA_SHIFT.
    const ALPHA_SHIFT: u32 = 3;

    /// Feeds one attempt outcome into the tracker.
    pub fn on_attempt(&mut self, faulted: bool) {
        self.attempts += 1;
        let sample: u64 = if faulted {
            self.faults += 1;
            PPM as u64
        } else {
            0
        };
        self.ewma_ppm =
            self.ewma_ppm - (self.ewma_ppm >> Self::ALPHA_SHIFT) + (sample >> Self::ALPHA_SHIFT);
        if !self.degraded && self.ewma_ppm >= Self::DEGRADE_ENTER_PPM {
            self.degraded = true;
        } else if self.degraded && self.ewma_ppm < Self::DEGRADE_EXIT_PPM {
            self.degraded = false;
        }
    }

    /// Smoothed recent fault rate in parts-per-million.
    pub fn fault_rate_ppm(&self) -> u64 {
        self.ewma_ppm
    }

    /// True while the EWMA sits inside the degraded band.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Total attempts observed.
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Total faulted attempts observed.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Folds another tracker into this one, for aggregate views over a
    /// sharded backend: counters sum, the EWMA takes the worst shard's
    /// rate, and the aggregate is degraded if *any* constituent is.
    pub fn absorb(&mut self, other: &Self) {
        self.attempts += other.attempts;
        self.faults += other.faults;
        self.ewma_ppm = self.ewma_ppm.max(other.ewma_ppm);
        self.degraded |= other.degraded;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_never_faults() {
        let mut fs = FaultState::new(FaultPlan::none());
        assert!(!fs.plan.is_active());
        for c in 0..1000 {
            assert_eq!(fs.decide(c), Fate::Deliver);
        }
    }

    #[test]
    fn schedule_is_deterministic_in_sequence_numbers() {
        let plan = FaultPlan::drops(0xC0FFEE, 100_000).with_jitter(200_000, 5_000);
        let mut a = FaultState::new(plan);
        let mut b = FaultState::new(plan);
        let fates_a: Vec<Fate> = (0..512).map(|c| a.decide(c)).collect();
        let fates_b: Vec<Fate> = (0..512).map(|c| b.decide(c)).collect();
        assert_eq!(fates_a, fates_b);
        // The schedule keys off the sequence number, not the cycle: shifting
        // issue times leaves the fate sequence unchanged.
        let mut c = FaultState::new(plan);
        let fates_c: Vec<Fate> = (0..512).map(|i| c.decide(i * 77 + 13)).collect();
        assert_eq!(fates_a, fates_c);
    }

    #[test]
    fn drop_rate_approximates_configured_ppm() {
        let mut fs = FaultState::new(FaultPlan::drops(7, 100_000)); // 10%
        let n = 100_000;
        let drops = (0..n)
            .filter(|&c| matches!(fs.decide(c), Fate::Fail(FaultKind::Drop)))
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "drop rate = {rate}");
    }

    #[test]
    fn outage_window_fails_everything_inside() {
        let plan = FaultPlan::none().with_outage(1_000, 2_000);
        let mut fs = FaultState::new(plan);
        assert_eq!(fs.decide(999), Fate::Deliver);
        assert_eq!(fs.decide(1_000), Fate::Fail(FaultKind::Outage));
        assert_eq!(fs.decide(1_999), Fate::Fail(FaultKind::Outage));
        assert_eq!(fs.decide(2_000), Fate::Deliver);
    }

    #[test]
    fn reset_rewinds_the_schedule() {
        let plan = FaultPlan::drops(42, 500_000);
        let mut fs = FaultState::new(plan);
        let first: Vec<Fate> = (0..64).map(|c| fs.decide(c)).collect();
        fs.reset();
        let second: Vec<Fate> = (0..64).map(|c| fs.decide(c)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn health_enters_degraded_after_sustained_faults_and_recovers() {
        let mut h = LinkHealth::default();
        assert!(!h.is_degraded());
        // Three consecutive faults push the EWMA over 30%.
        for _ in 0..3 {
            h.on_attempt(true);
        }
        assert!(h.is_degraded(), "ewma = {}", h.fault_rate_ppm());
        // A single success must NOT immediately recover (hysteresis).
        h.on_attempt(false);
        assert!(h.is_degraded());
        // A sustained clean run decays the EWMA below the exit threshold.
        for _ in 0..30 {
            h.on_attempt(false);
        }
        assert!(!h.is_degraded(), "ewma = {}", h.fault_rate_ppm());
        assert_eq!(h.faults(), 3);
        assert_eq!(h.attempts(), 34);
    }

    #[test]
    fn absorb_sums_counters_and_takes_the_worst_rate() {
        let mut sick = LinkHealth::default();
        for _ in 0..4 {
            sick.on_attempt(true);
        }
        let mut well = LinkHealth::default();
        for _ in 0..12 {
            well.on_attempt(false);
        }
        let mut agg = LinkHealth::default();
        agg.absorb(&well);
        agg.absorb(&sick);
        assert_eq!(agg.attempts(), 16);
        assert_eq!(agg.faults(), 4);
        assert_eq!(agg.fault_rate_ppm(), sick.fault_rate_ppm());
        assert!(agg.is_degraded(), "one sick shard degrades the aggregate");
    }

    #[test]
    fn health_ignores_isolated_blips() {
        let mut h = LinkHealth::default();
        for i in 0..100 {
            h.on_attempt(i % 10 == 0); // 10% fault rate
            assert!(!h.is_degraded(), "10% faults must not degrade the link");
        }
    }

    #[test]
    fn plan_display_summarizes() {
        assert_eq!(FaultPlan::none().to_string(), "none");
        let p = FaultPlan::drops(9, 1_000).with_outage(5, 10);
        let s = p.to_string();
        assert!(s.contains("seed=9") && s.contains("drop=1000ppm") && s.contains("outage=[5, 10)"));
    }

    #[test]
    fn fault_kind_codes_and_names_are_stable() {
        let kinds = [
            FaultKind::Drop,
            FaultKind::Outage,
            FaultKind::Stall,
            FaultKind::Jitter,
            FaultKind::Crash,
        ];
        let mut codes: Vec<u64> = kinds.iter().map(|k| k.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), kinds.len());
        assert_eq!(FaultKind::Outage.name(), "outage");
        assert_eq!(FaultKind::Crash.name(), "crash");
        assert_eq!(FaultKind::Crash.code(), 4);
    }

    #[test]
    fn outage_window_boundaries_are_inclusive_exclusive() {
        let w = OutageWindow { start: 10, end: 20 };
        assert!(!w.contains(9), "cycle before start is outside");
        assert!(w.contains(10), "start cycle is inside (inclusive)");
        assert!(w.contains(19), "last cycle before end is inside");
        assert!(!w.contains(20), "end cycle is outside (exclusive)");
        assert!(!w.contains(21));
        // Degenerate empty window contains nothing, even its own start.
        let empty = OutageWindow { start: 5, end: 5 };
        assert!(!empty.contains(5));
        // u64 extremes behave: a window ending at u64::MAX excludes MAX.
        let top = OutageWindow {
            start: u64::MAX - 1,
            end: u64::MAX,
        };
        assert!(top.contains(u64::MAX - 1));
        assert!(!top.contains(u64::MAX));
        // A window starting at 0 includes cycle 0.
        let zero = OutageWindow { start: 0, end: 1 };
        assert!(zero.contains(0));
        assert!(!zero.contains(1));
    }

    #[test]
    fn crash_window_boundaries_match_outage_semantics() {
        let c = CrashWindow {
            start: 100,
            end: 200,
            cold: true,
        };
        assert!(!c.contains(99));
        assert!(c.contains(100));
        assert!(c.contains(199));
        assert!(!c.contains(200), "the restart cycle is already up");
    }

    #[test]
    fn absorb_merges_degraded_and_recovered_states() {
        // recovered ⊕ recovered = recovered
        let well = {
            let mut h = LinkHealth::default();
            for _ in 0..8 {
                h.on_attempt(false);
            }
            h
        };
        let sick = {
            let mut h = LinkHealth::default();
            for _ in 0..4 {
                h.on_attempt(true);
            }
            h
        };
        let mut agg = LinkHealth::default();
        agg.absorb(&well);
        agg.absorb(&well);
        assert!(!agg.is_degraded(), "two healthy shards stay healthy");
        assert_eq!(agg.attempts(), 16);
        assert_eq!(agg.faults(), 0);

        // recovered ⊕ degraded = degraded, regardless of absorb order.
        let mut a = LinkHealth::default();
        a.absorb(&well);
        a.absorb(&sick);
        let mut b = LinkHealth::default();
        b.absorb(&sick);
        b.absorb(&well);
        assert!(a.is_degraded() && b.is_degraded());
        assert_eq!(a, b, "absorb is order-independent");

        // degraded ⊕ degraded sums counters and keeps the worst EWMA.
        let mut c = LinkHealth::default();
        c.absorb(&sick);
        c.absorb(&sick);
        assert!(c.is_degraded());
        assert_eq!(c.attempts(), 8);
        assert_eq!(c.faults(), 8);
        assert_eq!(c.fault_rate_ppm(), sick.fault_rate_ppm());

        // A shard that degraded and then recovered merges as recovered.
        let recovered = {
            let mut h = sick;
            for _ in 0..40 {
                h.on_attempt(false);
            }
            assert!(!h.is_degraded());
            h
        };
        let mut d = LinkHealth::default();
        d.absorb(&recovered);
        d.absorb(&well);
        assert!(
            !d.is_degraded(),
            "a recovered shard does not taint the aggregate"
        );
        assert_eq!(d.faults(), 4, "its fault history still counts");
    }

    #[test]
    fn crash_plan_is_active_and_displays() {
        let p = FaultPlan::none().with_crash(1_000, 2_000);
        assert!(p.is_active());
        assert!(p.to_string().contains("crash=[1000, 2000) warm"));
        let c = FaultPlan::none().with_cold_crash(5, 9);
        assert!(c.to_string().contains("crash=[5, 9) cold"));
        assert!(c.crash.unwrap().cold);
        assert!(!p.crash.unwrap().cold);
    }

    #[test]
    fn shard_state_codes_and_names_are_stable() {
        let states = [
            ShardState::Up,
            ShardState::Suspect,
            ShardState::Down,
            ShardState::Recovering,
        ];
        for (i, s) in states.iter().enumerate() {
            assert_eq!(s.code(), i as u64);
        }
        assert_eq!(ShardState::default(), ShardState::Up);
        assert_eq!(ShardState::Recovering.name(), "recovering");
        assert_eq!(ShardState::Down.to_string(), "down");
    }
}
