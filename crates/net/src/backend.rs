//! The remote-memory backend.
//!
//! The runtime and the pager ask for *what* they need (fetch/writeback an
//! object, observe health and occupancy); [`Sharded`], which both hold by
//! value, decides *where* the bytes live.
//! It spreads objects across N nodes, each with its own [`Link`]
//! (independent bandwidth queues), its own [`FaultPlan`] schedule, and its
//! own [`LinkHealth`] tracker — one shard can degrade or die while the others
//! keep serving. The paper's fabric, one far-memory node behind one wire, is
//! the N = 1 case ([`BackendSpec::single`]), not a second implementation.
//!
//! Every operation takes a `key` (the caller's object id or page number),
//! routed through a deterministic [`PlacementPolicy`], so the same seed and
//! the same object set always produce the same shard assignment — and
//! therefore the same counters and the same run reports.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::fault::{mix, FaultKind, FaultPlan, LinkFault, LinkHealth, ShardState};
use crate::retry::blind;
use crate::{Link, LinkParams, TransferStats};
use tfm_telemetry::{SpanKind, StatGroup, Telemetry};

/// Why a [`BackendSpec`] is invalid. Returned by [`BackendSpec::validate`];
/// panicking callers unwrap it so the message survives verbatim.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// A spec with zero shards.
    ZeroShards,
    /// The targeted fault shard does not exist.
    FaultShardOutOfRange {
        /// The shard the spec targets.
        fault_shard: u32,
        /// How many shards the spec builds.
        shards: u32,
    },
    /// A replication factor of zero (an object must live somewhere).
    ZeroReplicas,
    /// More replicas than shards: each copy needs its own node.
    ReplicasExceedShards {
        /// The requested replication factor.
        replicas: u32,
        /// How many shards the spec builds.
        shards: u32,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::ZeroShards => write!(f, "a sharded backend needs at least one shard"),
            SpecError::FaultShardOutOfRange {
                fault_shard,
                shards,
            } => write!(
                f,
                "fault shard {fault_shard} out of range for {shards} shards"
            ),
            SpecError::ZeroReplicas => {
                write!(f, "replication factor must be at least 1 (every object needs a home)")
            }
            SpecError::ReplicasExceedShards { replicas, shards } => write!(
                f,
                "replication factor {replicas} exceeds {shards} shards (each replica needs its own node)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

/// What one [`Sharded::service`] pass did: the failover edges it saw and
/// the recovery work they triggered. The runtime and the pager add these to
/// their own counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Recovered {
    /// Shards newly seen `Down`.
    pub downs: u64,
    /// Restarted shards re-synced and rejoined as `Up`.
    pub recoveries: u64,
    /// Acked keys copied off a `Down` shard onto a substitute.
    pub re_replicated: u64,
    /// Acked keys re-copied onto a restarted shard from a surviving replica.
    pub resynced: u64,
    /// Acked keys a restarted shard should hold that no shard holds any
    /// more: acknowledged writebacks lost.
    pub lost: u64,
}

/// End-of-run durability audit over every acknowledged writeback
/// ([`Sharded::audit`]). The chaos suite's core assertion is
/// `lost == 0`: no write the backend acknowledged may ever disappear,
/// whatever the crash schedule did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FailoverAudit {
    /// Keys with at least one acknowledged writeback.
    pub acked_keys: u64,
    /// Acked keys no shard can serve at (or above) the acked version:
    /// acknowledged data lost. Must be zero under replication.
    pub lost: u64,
    /// Acked keys currently held by fewer shards than their replica set
    /// demands — redundancy not yet restored (but no data lost).
    pub under_replicated: u64,
}

/// One shard's end-of-run counters, as published into run reports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// The shard's transfer ledger.
    pub stats: TransferStats,
    /// The shard's health tracker.
    pub health: LinkHealth,
    /// The shard's failover state at snapshot time.
    pub state: ShardState,
    /// The shard's restart epoch (0 = never crashed).
    pub epoch: u64,
    /// Reads served by this shard on behalf of a dead or fenced primary.
    pub failover_reads: u64,
    /// Writebacks this shard missed while Down (replica divergence repaid
    /// by resync/re-replication).
    pub divergent_writes: u64,
}

impl StatGroup for ShardSnapshot {
    fn group_name(&self) -> &'static str {
        // Reports publish one section per shard under caller-chosen names
        // ("shard0", "shard1", ...); this is only the fallback.
        "shard"
    }

    fn stat_fields(&self) -> Vec<(&'static str, u64)> {
        let mut fields = self.stats.stat_fields();
        fields.push(("ewma_fault_ppm", self.health.fault_rate_ppm()));
        fields.push(("degraded", u64::from(self.health.is_degraded())));
        fields.push(("state", self.state.code()));
        fields.push(("epoch", self.epoch));
        fields.push(("failover_reads", self.failover_reads));
        fields.push(("divergent_writes", self.divergent_writes));
        fields
    }
}

/// Deterministic object→shard routing.
///
/// Policies are pure functions of `(key, shard_count)`: no state, no
/// randomness, so shard assignment is reproducible across runs by
/// construction.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// SplitMix64 hash of the object id, modulo shard count: spreads hot
    /// ranges evenly, destroys spatial locality (neighboring objects land
    /// on different shards — good for load balance).
    #[default]
    Hash,
    /// `key % shards`: neighboring objects round-robin across shards, so a
    /// sequential scan stripes its fetches over every node's bandwidth.
    Interleave,
}

impl PlacementPolicy {
    /// The shard serving `key` out of `shards` nodes.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    #[inline]
    pub fn shard_of(self, key: u64, shards: usize) -> usize {
        assert!(shards > 0, "a backend needs at least one shard");
        match self {
            PlacementPolicy::Hash => (mix(key) % shards as u64) as usize,
            PlacementPolicy::Interleave => (key % shards as u64) as usize,
        }
    }

    /// Stable lowercase name (report labels).
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::Hash => "hash",
            PlacementPolicy::Interleave => "interleave",
        }
    }
}

/// Declarative backend selection, carried by run configurations.
///
/// `Copy` on purpose: configs spread freely through the workspace. The spec
/// is *what to build*; [`build_backend`] turns it into a live backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BackendSpec {
    /// Number of remote nodes, each with an independent link and fault
    /// schedule. One — the default — is the paper's fabric.
    shards: u32,
    /// Object→shard routing policy.
    placement: PlacementPolicy,
    /// When set, the configured fault plan applies *only* to this shard
    /// (the "one node dies" experiment); otherwise every shard runs the
    /// plan with a per-shard derived seed.
    fault_shard: Option<u32>,
    /// Replication factor R: every object lives on R consecutive shards
    /// of its placement ring. 1 (the default) is unreplicated and
    /// bit-identical to the pre-replication backend.
    replicas: u32,
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec::single()
    }
}

impl BackendSpec {
    /// One remote node behind one link (the paper's fabric): `sharded(1)`.
    pub fn single() -> Self {
        BackendSpec::sharded(1)
    }

    /// A backend of `shards` nodes, hashed placement, and no replication.
    pub fn sharded(shards: u32) -> Self {
        BackendSpec {
            shards,
            placement: PlacementPolicy::Hash,
            fault_shard: None,
            replicas: 1,
        }
    }

    /// Returns a copy with a different placement policy.
    pub fn with_placement(mut self, policy: PlacementPolicy) -> Self {
        self.placement = policy;
        self
    }

    /// Returns a copy targeting the fault plan at one shard.
    pub fn with_fault_shard(mut self, shard: u32) -> Self {
        self.fault_shard = Some(shard);
        self
    }

    /// Returns a copy with replication factor `r`.
    pub fn with_replicas(mut self, r: u32) -> Self {
        self.replicas = r;
        self
    }

    /// The spec's replication factor.
    pub fn replica_count(&self) -> u32 {
        self.replicas
    }

    /// Number of shards this spec builds.
    pub fn shard_count(&self) -> u32 {
        self.shards.max(1)
    }

    /// True for one node. Reports of such runs carry no `backend` line and
    /// no per-shard sections.
    pub fn is_single(&self) -> bool {
        self.shards == 1
    }

    /// Validates invariants, returning a descriptive [`SpecError`] for a
    /// spec with zero shards, an out-of-range fault shard, or an impossible
    /// replication factor. Callers that cannot proceed simply unwrap — the
    /// error's `Display` is the panic message.
    pub fn validate(&self) -> Result<(), SpecError> {
        let (shards, replicas) = (self.shards, self.replicas);
        if shards == 0 {
            return Err(SpecError::ZeroShards);
        }
        if let Some(fault_shard) = self.fault_shard.filter(|&fs| fs >= shards) {
            return Err(SpecError::FaultShardOutOfRange {
                fault_shard,
                shards,
            });
        }
        if replicas == 0 {
            return Err(SpecError::ZeroReplicas);
        }
        if replicas > shards {
            return Err(SpecError::ReplicasExceedShards { replicas, shards });
        }
        Ok(())
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_single() {
            return write!(f, "single");
        }
        write!(f, "sharded({}, {})", self.shards, self.placement.name())?;
        if self.replicas > 1 {
            write!(f, " replicas={}", self.replicas)?;
        }
        if let Some(fs) = self.fault_shard {
            write!(f, " fault_shard={fs}")?;
        }
        Ok(())
    }
}

/// Builds a live backend from a spec: link parameters are shared by every
/// shard, the fault plan is attached per the spec's targeting rules.
///
/// Seed derivation for untargeted plans: shard 0 keeps the plan's seed
/// verbatim (so one shard replays exactly the schedule a lone [`Link`]
/// would); shard `i > 0` draws `mix(seed ^ i)` so shards fault independently
/// instead of in lockstep.
pub fn build_backend(params: LinkParams, spec: BackendSpec, faults: FaultPlan) -> Sharded {
    spec.validate().unwrap_or_else(|e| panic!("{e}"));
    let mut b = Sharded::new(params, spec.shards, spec.placement);
    match spec.fault_shard {
        Some(fs) => b.set_fault_plan_on(fs as usize, faults),
        None if faults.is_active() => b.set_fault_plan_everywhere(faults),
        None => {}
    }
    b.set_replicas(spec.replicas);
    b
}

// ======================================================================
// Sharded
// ======================================================================

/// N remote nodes, each behind its own [`Link`]: independent bandwidth
/// queues and occupancy horizons (fetches to different shards pipeline
/// freely), independent fault schedules, independent health trackers.
///
/// With `replicas > 1` (or any scripted crash plan attached) the backend
/// switches into *tracked* mode: every object lives on R consecutive shards
/// of its placement ring, writebacks mirror synchronously to every live
/// replica (quorum-free: an op is acknowledged only when *all* live
/// replicas hold it), reads fail over to a surviving replica, and a
/// version-fenced store model catches any acknowledged write a restarted
/// shard would otherwise serve stale. With `replicas == 1` and no crash
/// plan, every tracked-mode branch is skipped and the backend is
/// bit-identical to the pre-replication `Sharded`.
#[derive(Debug)]
pub struct Sharded {
    links: Vec<Link>,
    placement: PlacementPolicy,
    /// Replication factor R (1 = unreplicated).
    replicas: u32,
    /// Cached "tracked mode" flag: replicas > 1 or any crash plan armed.
    /// Gates *all* replica bookkeeping (pay-for-use).
    tracked: bool,
    /// Store model, per shard: key → highest version the shard holds.
    /// BTreeMap for deterministic iteration.
    stores: Vec<BTreeMap<u64, u64>>,
    /// key → latest version whose writeback was acknowledged to the caller.
    acked: BTreeMap<u64, u64>,
    /// Keys re-homed off a Down shard by the re-replicator: key → its new
    /// replica set (overrides the placement ring).
    moved: BTreeMap<u64, Vec<u32>>,
    /// Monotone writeback version counter.
    next_version: u64,
    /// Acknowledged keys declared unrecoverable by resync (no surviving
    /// copy at the acked version). Moved out of `acked` so the version
    /// fence stops blocking reads of data that is provably gone, while the
    /// audit still reports the loss.
    lost_keys: BTreeSet<u64>,
    /// Per shard: reads served on behalf of a dead or fenced primary.
    failover_reads: Vec<u64>,
    /// Per shard: writebacks missed while Down (replica divergence).
    divergent_writes: Vec<u64>,
    /// Per shard: the failover state [`Sharded::service`] last acted on, so
    /// each `Down` or `Recovering` edge is serviced exactly once. Sized by
    /// the first tracked pass: an untracked backend allocates nothing here.
    serviced: Vec<ShardState>,
    /// The sink shared with the links; recovery spans open here.
    tel: Telemetry,
}

impl Sharded {
    /// Creates a sharded backend of `shards` idle nodes sharing one set of
    /// link parameters.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn new(params: LinkParams, shards: u32, placement: PlacementPolicy) -> Self {
        assert!(shards >= 1, "a sharded backend needs at least one shard");
        Sharded {
            links: (0..shards)
                .map(|i| {
                    let mut link = Link::new(params);
                    link.set_shard(i);
                    link
                })
                .collect(),
            placement,
            replicas: 1,
            tracked: false,
            stores: vec![BTreeMap::new(); shards as usize],
            acked: BTreeMap::new(),
            moved: BTreeMap::new(),
            next_version: 0,
            lost_keys: BTreeSet::new(),
            failover_reads: vec![0; shards as usize],
            divergent_writes: vec![0; shards as usize],
            serviced: Vec::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a fault plan to one shard's link.
    ///
    /// # Panics
    /// Panics if `shard` is out of range.
    pub fn set_fault_plan_on(&mut self, shard: usize, plan: FaultPlan) {
        self.links[shard].set_fault_plan(plan);
        self.refresh_tracked();
    }

    /// Attaches an untargeted plan to every shard under the seed rule of
    /// [`build_backend`]: verbatim on shard 0, `mix(seed ^ i)` on shard `i`.
    fn set_fault_plan_everywhere(&mut self, faults: FaultPlan) {
        for s in 0..self.links.len() {
            let mut plan = faults;
            if s > 0 {
                plan.seed = mix(faults.seed ^ s as u64);
            }
            self.set_fault_plan_on(s, plan);
        }
    }

    /// Sets the replication factor.
    ///
    /// # Panics
    /// Panics if `r` is zero or exceeds the shard count.
    pub fn set_replicas(&mut self, r: u32) {
        assert!(r >= 1, "replication factor must be at least 1");
        assert!(
            r as usize <= self.links.len(),
            "replication factor {r} exceeds {} shards",
            self.links.len()
        );
        self.replicas = r;
        self.refresh_tracked();
    }

    fn refresh_tracked(&mut self) {
        self.tracked =
            self.replicas > 1 || self.links.iter().any(|l| l.fault_plan().crash.is_some());
    }

    #[inline]
    fn route(&self, key: u64) -> usize {
        // One node (the paper's fabric, and the default): there is nowhere
        // else to go, so skip the hash and the division by a runtime length.
        if self.links.len() == 1 {
            return 0;
        }
        self.placement.shard_of(key, self.links.len())
    }

    /// The shards hosting `key`: R consecutive ring positions starting at
    /// the placement shard, unless the re-replicator has re-homed the key.
    fn replica_set(&self, key: u64) -> Vec<usize> {
        let n = self.links.len();
        let set: Vec<usize> = match self.moved.get(&key) {
            Some(m) => m.iter().map(|&s| s as usize).collect(),
            None => {
                let p = self.route(key);
                (0..self.replicas as usize).map(|i| (p + i) % n).collect()
            }
        };
        debug_assert!(
            set.len() == self.replicas as usize
                && (0..set.len()).all(|i| set[i] < n && !set[..i].contains(&set[i])),
            "key {key}: replica set {set:?} is not R distinct shards of {n}"
        );
        set
    }

    /// The fabricated fault for an operation with no serving replica:
    /// connection refused everywhere, detected after one base latency. The
    /// caller backs off, polls, and retries — by then a shard has usually
    /// restarted.
    fn unreachable_fault(&self, now: u64) -> LinkFault {
        let lat = self.links[0].params().base_latency.max(1);
        LinkFault {
            kind: FaultKind::Crash,
            detected_at: now + lat,
        }
    }

    /// First replica fit to serve `key`: an `Up` shard if possible, else a
    /// `Suspect` one. `Down`/`Recovering` shards never serve, and the
    /// version fence skips any shard whose store misses the acknowledged
    /// version (a restarted replica that has not been re-synced).
    fn choose_serving(&self, set: &[usize], key: u64) -> Option<usize> {
        let acked = self.acked.get(&key).copied();
        let fenced_ok = |s: usize| acked.is_none_or(|v| self.holds(s, key, v));
        let in_state = |want: ShardState| {
            set.iter()
                .copied()
                .find(|&s| self.links[s].failover_state() == want && fenced_ok(s))
        };
        in_state(ShardState::Up).or_else(|| in_state(ShardState::Suspect))
    }

    /// Tracked-mode fetch: read failover across the replica set.
    fn tracked_try_transfer(&mut self, key: u64, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        self.poll(now);
        let set = self.replica_set(key);
        let Some(s) = self.choose_serving(&set, key) else {
            return Err(self.unreachable_fault(now));
        };
        let res = self.links[s].try_transfer(bytes, now);
        if res.is_ok() && s != set[0] {
            self.failover_reads[s] += 1;
        }
        res
    }

    /// Tracked-mode writeback: synchronous mirroring to every live replica.
    /// The op is acknowledged (and the version recorded in `acked`) only
    /// when *all* live replicas hold it; a Down replica is skipped and its
    /// divergence recorded, to be repaid by resync or re-replication.
    fn tracked_try_writeback(&mut self, key: u64, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        self.poll(now);
        let set = self.replica_set(key);
        self.next_version += 1;
        let ver = self.next_version;
        let mut done: Option<u64> = None;
        let mut failed: Option<LinkFault> = None;
        for &s in &set {
            if self.links[s].failover_state() == ShardState::Down {
                self.divergent_writes[s] += 1;
                continue;
            }
            match self.links[s].try_writeback(bytes, now) {
                Ok(d) => {
                    self.stores[s].insert(key, ver);
                    done = Some(done.map_or(d, |x: u64| x.max(d)));
                }
                Err(f) => {
                    // Keep the latest detection time: the caller's retry
                    // must not race a replica that is still timing out.
                    failed = Some(match failed {
                        Some(g) if g.detected_at >= f.detected_at => g,
                        _ => f,
                    });
                }
            }
        }
        match (failed, done) {
            // A live replica missed the mirror: the op is NOT acknowledged
            // (any partial copies carry a version nobody acked — harmless).
            (Some(f), _) => Err(f),
            (None, Some(d)) => {
                let prev = self.acked.insert(key, ver);
                debug_assert!(
                    prev.is_none_or(|p| p < ver),
                    "key {key}: acked version went back from {prev:?} to {ver}"
                );
                Ok(d)
            }
            // Every replica is Down.
            (None, None) => Err(self.unreachable_fault(now)),
        }
    }

    /// Drives `attempt` at `key` under the blind policy until it delivers.
    fn blind(
        &mut self,
        key: u64,
        now: u64,
        attempt: impl FnMut(&mut Self, u64) -> Result<u64, LinkFault>,
    ) -> u64 {
        blind(self, now, attempt, |_, n| {
            format!("no replica of key {key} ever came back: {n} consecutive faults")
        })
    }
}

/// The data plane: where localize/writeback traffic goes.
///
/// All methods mirror [`Link`]'s contract, with an added routing `key` (the
/// object id or page number being moved). The fallible forms
/// ([`try_transfer`](Self::try_transfer)/[`try_writeback`](Self::try_writeback))
/// are the one data-plane surface: each is one attempt that surfaces its
/// [`LinkFault`], and every retry schedule is a [`RetryOps`](crate::RetryOps)
/// policy over them in [`drive_retries`](crate::drive_retries). The blocking
/// forms ([`transfer`](Self::transfer)/[`writeback`](Self::writeback)) are
/// the blind policy (re-issue at detection, no backoff) over `try_*`. The
/// failover surface (DESIGN.md §6g) starts at
/// [`failover_active`](Self::failover_active).
impl Sharded {
    /// Number of remote nodes behind this backend.
    pub fn shard_count(&self) -> usize {
        self.links.len()
    }

    /// The shard serving `key` (always 0 for a single node): the first of
    /// its replica set. Only tracked mode ever re-homes a key.
    #[inline]
    pub fn shard_of(&self, key: u64) -> usize {
        match self.moved.get(&key) {
            Some(set) => set[0] as usize,
            None => self.route(key),
        }
    }

    /// Blocking fetch of `bytes` for `key` at cycle `now`; returns the
    /// completion cycle. Faulted attempts are retried under the blind
    /// policy until one delivers.
    pub fn transfer(&mut self, key: u64, bytes: u64, now: u64) -> u64 {
        self.blind(key, now, |b, at| b.try_transfer(key, bytes, at))
    }

    /// Blocking writeback counterpart of [`transfer`](Self::transfer).
    pub fn writeback(&mut self, key: u64, bytes: u64, now: u64) -> u64 {
        self.blind(key, now, |b, at| b.try_writeback(key, bytes, at))
    }

    /// One fetch attempt; the caller owns retry policy on failure.
    ///
    /// This is also the issue half of the asynchronous protocol (DESIGN.md
    /// §6h): the link model computes the completion cycle analytically at
    /// issue time (bandwidth slot + pipelined latency), so the wire is
    /// occupied and the ledger charged immediately while the *caller* keeps
    /// computing and compares the returned cycle against its advancing clock.
    #[inline]
    pub fn try_transfer(&mut self, key: u64, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        if self.tracked {
            return self.tracked_try_transfer(key, bytes, now);
        }
        let s = self.route(key);
        self.links[s].try_transfer(bytes, now)
    }

    /// One writeback attempt; the caller owns retry policy on failure.
    #[inline]
    pub fn try_writeback(&mut self, key: u64, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        if self.tracked {
            return self.tracked_try_writeback(key, bytes, now);
        }
        let s = self.route(key);
        self.links[s].try_writeback(bytes, now)
    }

    /// True if any shard has an active fault plan attached. The runtime
    /// samples shard health into traced timelines only then.
    pub fn faults_active(&self) -> bool {
        self.links.iter().any(|l| l.fault_plan().is_active())
    }

    /// Aggregate health: counters summed, fault-rate EWMA maxed, degraded
    /// if *any* shard is degraded.
    pub fn health(&self) -> LinkHealth {
        let mut agg = LinkHealth::default();
        for l in &self.links {
            agg.absorb(&l.health());
        }
        agg
    }

    /// Health of one shard.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_health(&self, shard: usize) -> LinkHealth {
        self.links[shard].health()
    }

    /// Aggregate transfer ledger (all shards merged).
    pub fn stats(&self) -> TransferStats {
        let mut agg = TransferStats::default();
        for l in &self.links {
            agg.merge(&l.stats());
        }
        agg
    }

    /// Transfer ledger of one shard.
    ///
    /// # Panics
    /// Panics if `shard >= shard_count()`.
    pub fn shard_stats(&self, shard: usize) -> TransferStats {
        self.links[shard].stats()
    }

    /// Attaches a telemetry sink (shared across shards; recovery spans open
    /// there too).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        for l in &mut self.links {
            l.set_telemetry(tel.clone());
        }
        self.tel = tel;
    }

    /// Clears ledgers, occupancy horizons, fault schedules, and health —
    /// on every shard.
    pub fn reset_stats(&mut self) {
        for l in &mut self.links {
            l.reset_stats();
        }
        for s in &mut self.stores {
            s.clear();
        }
        self.acked.clear();
        self.moved.clear();
        self.next_version = 0;
        self.lost_keys.clear();
        self.failover_reads.fill(0);
        self.divergent_writes.fill(0);
        self.serviced.fill(ShardState::Up);
    }

    /// True when the crash/replication machinery is armed (replication
    /// factor > 1 or a scripted crash on some shard). Callers gate their
    /// failover bookkeeping on this — pay-for-use.
    pub fn failover_active(&self) -> bool {
        self.tracked
    }

    /// Replication factor R (1 = unreplicated).
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Services the failover edges since the last call (DESIGN.md §6g).
    /// Advances the crash schedules to `now`, then, in shard order, drains a
    /// newly `Down` shard (each acked key it hosts is copied onto a
    /// substitute and re-homed there for good) and re-syncs a newly
    /// `Recovering` one before it rejoins `Up`. Each copy moves `key_bytes`.
    /// Returns zeros at once unless the backend is tracked.
    pub fn service(&mut self, now: u64, key_bytes: u64) -> Recovered {
        let mut r = Recovered::default();
        if !self.tracked {
            return r;
        }
        self.serviced.resize(self.links.len(), ShardState::Up);
        self.poll(now);
        let mut synced = Vec::new();
        for s in 0..self.links.len() {
            let cur = self.links[s].failover_state();
            if cur == self.serviced[s] {
                continue;
            }
            match cur {
                ShardState::Down => {
                    r.downs += 1;
                    for key in self.acked.keys().copied().collect::<Vec<_>>() {
                        if self.re_replicate(key, s, key_bytes, now).is_some() {
                            r.re_replicated += 1;
                        }
                    }
                }
                ShardState::Recovering => {
                    self.resync_shard(s, key_bytes, now, &mut r);
                    synced.push(s);
                }
                ShardState::Up | ShardState::Suspect => {}
            }
            // A resync advances the shard past `cur` (to Up): re-read.
            self.serviced[s] = self.links[s].failover_state();
        }
        debug_assert!(
            self.links
                .iter()
                .all(|l| l.failover_state() != ShardState::Recovering),
            "a restarted shard is still Recovering after service at cycle {now}"
        );
        debug_assert!(
            synced
                .iter()
                .all(|&s| self.acked.iter().all(|(&key, &ver)| {
                    !self.replica_set(key).contains(&s)
                        || self.holds(s, key, ver)
                        || self.lost_keys.contains(&key)
                })),
            "a just-synced shard of {synced:?} misses an acked key it hosts"
        );
        r
    }

    /// Re-syncs restarted `shard`: every acked key it hosts whose copy is
    /// stale or wiped is re-copied from a surviving replica, then the shard
    /// rejoins `Up`. A key with no surviving copy is lost.
    fn resync_shard(&mut self, shard: usize, key_bytes: u64, now: u64, r: &mut Recovered) {
        let sp = self
            .tel
            .span_begin_root(SpanKind::Recovery, shard as u64, now);
        let mut end = now;
        for (key, ver) in self.acked.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>() {
            if !self.replica_set(key).contains(&shard) || self.holds(shard, key, ver) {
                continue;
            }
            let source = (0..self.links.len()).any(|s| {
                s != shard
                    && self.links[s].failover_state() != ShardState::Down
                    && self.holds(s, key, ver)
            });
            if source {
                // Cost model: one writeback's worth of traffic into the
                // shard (the source's read side is off the critical path).
                end = end.max(self.links[shard].writeback(key_bytes, now));
                self.stores[shard].insert(key, ver);
                r.resynced += 1;
            } else {
                // The acked version is gone everywhere. Drop the fence (the
                // restarted shard becomes the authoritative — empty — home,
                // so future writes can land) but keep the loss on the books.
                self.acked.remove(&key);
                self.lost_keys.insert(key);
                r.lost += 1;
            }
        }
        self.links[shard].mark_synced();
        r.recoveries += 1;
        self.tel.span_end(sp, end);
    }

    /// Whether shard `s` holds `key` at version `ver` or newer.
    fn holds(&self, s: usize, key: u64, ver: u64) -> bool {
        self.stores[s].get(&key).is_some_and(|&h| h >= ver)
    }

    /// Advances scripted crash/restart transitions to cycle `now` without
    /// issuing traffic; a cold restart wipes the shard's store (that is what
    /// "cold" means). A no-op unless some shard has a crash plan.
    fn poll(&mut self, now: u64) {
        for s in 0..self.links.len() {
            if let Some(cold) = self.links[s].poll_failover(now) {
                if cold {
                    self.stores[s].clear();
                }
            }
        }
    }

    /// Failover state of one shard.
    pub fn shard_state(&self, shard: usize) -> ShardState {
        self.links[shard].failover_state()
    }

    /// Restart epoch of one shard (0 until its first crash).
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.links[shard].epoch()
    }

    /// Restores `key`'s redundancy by copying it from a surviving replica
    /// onto a substitute shard and re-homing the key off Down shard `from`
    /// (the migration hook). Returns the copy's completion cycle if a copy
    /// was made.
    fn re_replicate(&mut self, key: u64, from: usize, bytes: u64, now: u64) -> Option<u64> {
        if self.replicas <= 1 {
            return None;
        }
        let set = self.replica_set(key);
        if !set.contains(&from) {
            return None;
        }
        let &ver = self.acked.get(&key)?;
        let have_source = set.iter().any(|&s| {
            s != from
                && self.links[s].failover_state() != ShardState::Down
                && self.holds(s, key, ver)
        });
        if !have_source {
            return None;
        }
        // Substitute: the first ring position after `from` that is neither
        // already hosting the key nor Down itself.
        let n = self.links.len();
        let sub = (1..n)
            .map(|i| (from + i) % n)
            .find(|&c| !set.contains(&c) && self.links[c].failover_state() != ShardState::Down)?;
        let done = self.links[sub].writeback(bytes, now);
        self.stores[sub].insert(key, ver);
        let new_set: Vec<u32> = set
            .iter()
            .map(|&s| if s == from { sub as u32 } else { s as u32 })
            .collect();
        self.moved.insert(key, new_set);
        Some(done)
    }

    /// End-of-run durability audit; `None` unless the replication machinery
    /// is armed.
    pub fn audit(&self) -> Option<FailoverAudit> {
        if !self.tracked {
            return None;
        }
        let mut audit = FailoverAudit::default();
        audit.acked_keys += self.lost_keys.len() as u64;
        audit.lost += self.lost_keys.len() as u64;
        for (&key, &ver) in &self.acked {
            audit.acked_keys += 1;
            let set = self.replica_set(key);
            let in_set = set.iter().filter(|&&s| self.holds(s, key, ver)).count();
            // Copies parked outside the current set (an old home that was
            // re-homed away) still avert loss, though they don't count
            // toward the set's redundancy.
            let anywhere = (0..self.links.len())
                .filter(|&s| self.holds(s, key, ver))
                .count();
            if anywhere == 0 {
                audit.lost += 1;
            } else if in_set < set.len() {
                audit.under_replicated += 1;
            }
        }
        Some(audit)
    }

    /// Per-shard ledger + health, for reports. Cheap (copies counters).
    pub fn shard_snapshots(&self) -> Vec<ShardSnapshot> {
        (0..self.shard_count())
            .map(|s| ShardSnapshot {
                stats: self.shard_stats(s),
                health: self.shard_health(s),
                state: self.links[s].failover_state(),
                epoch: self.links[s].epoch(),
                failover_reads: self.failover_reads[s],
                divergent_writes: self.divergent_writes[s],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PPM;

    #[test]
    fn placement_is_deterministic_and_in_range() {
        for policy in [PlacementPolicy::Hash, PlacementPolicy::Interleave] {
            for shards in [1usize, 2, 4, 7, 8] {
                let first: Vec<usize> = (0..1024).map(|k| policy.shard_of(k, shards)).collect();
                let second: Vec<usize> = (0..1024).map(|k| policy.shard_of(k, shards)).collect();
                assert_eq!(first, second, "{policy:?}/{shards} must be a pure function");
                assert!(first.iter().all(|&s| s < shards));
            }
        }
    }

    #[test]
    fn hash_placement_spreads_contiguous_keys() {
        let shards = 4;
        let mut counts = vec![0u64; shards];
        for k in 0..4096u64 {
            counts[PlacementPolicy::Hash.shard_of(k, shards)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // Fair share is 1024; a heavily skewed hash would fail loudly.
            assert!((700..1400).contains(&c), "shard {s} got {c} of 4096 keys");
        }
    }

    #[test]
    fn interleave_round_robins() {
        for k in 0..64u64 {
            assert_eq!(PlacementPolicy::Interleave.shard_of(k, 4), (k % 4) as usize);
        }
    }

    #[test]
    fn shards_have_independent_bandwidth_queues() {
        let params = LinkParams {
            base_latency: 1000,
            cycles_per_kib: 1024, // 1 byte/cycle
        };
        let mut b = Sharded::new(params, 2, PlacementPolicy::Interleave);
        // Keys 0 and 1 land on different shards: neither queues behind the
        // other, both complete at the solo cost.
        let a = b.transfer(0, 1000, 0);
        let c = b.transfer(1, 1000, 0);
        assert_eq!(a, 1000 + 1000);
        assert_eq!(c, 1000 + 1000, "different shard, no queueing");
        // A second message to shard 0 does queue.
        let d = b.transfer(2, 1000, 0);
        assert_eq!(d, 2000 + 1000);
    }

    #[test]
    fn aggregate_stats_sum_over_shards() {
        let mut b = Sharded::new(LinkParams::instant(), 4, PlacementPolicy::Interleave);
        for k in 0..16u64 {
            b.transfer(k, 4096, 0);
        }
        b.writeback(3, 4096, 0);
        let mut manual = TransferStats::default();
        for s in 0..4 {
            manual.merge(&b.shard_stats(s));
        }
        assert_eq!(b.stats(), manual);
        assert_eq!(b.stats().fetches, 16);
        assert_eq!(b.stats().writebacks, 1);
        // Interleaved keys spread evenly: 4 fetches per shard.
        for s in 0..4 {
            assert_eq!(b.shard_stats(s).fetches, 4);
        }
    }

    #[test]
    fn one_dead_shard_leaves_the_others_serving() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4, PlacementPolicy::Interleave);
        b.set_fault_plan_on(2, FaultPlan::drops(9, PPM)); // shard 2 always drops
        assert!(b.faults_active());
        let mut now = 0;
        for k in 0..32u64 {
            if b.shard_of(k) == 2 {
                assert!(b.try_transfer(k, 4096, now).is_err(), "shard 2 is dead");
            } else {
                now = b.try_transfer(k, 4096, now).expect("healthy shard serves");
            }
        }
        assert!(b.shard_health(2).is_degraded());
        for s in [0usize, 1, 3] {
            assert!(
                !b.shard_health(s).is_degraded(),
                "shard {s} must stay healthy"
            );
            assert_eq!(b.shard_stats(s).faults, 0);
            assert_eq!(b.shard_stats(s).fetches, 8);
        }
        assert_eq!(b.shard_stats(2).fetches, 0);
        assert_eq!(b.shard_stats(2).faults, 8);
        // Aggregate health reflects the sick shard.
        assert!(b.health().is_degraded());
        assert_eq!(b.health().faults(), 8);
        assert_eq!(b.stats().faults, 8);
    }

    #[test]
    fn untargeted_plans_get_per_shard_seeds() {
        let faults = FaultPlan::drops(0xABCD, 500_000);
        let mut direct = Sharded::new(LinkParams::tcp_25g(), 4, PlacementPolicy::Hash);
        direct.set_fault_plan_everywhere(faults);
        let seeds: Vec<u64> = direct.links.iter().map(|l| l.fault_plan().seed).collect();
        assert_eq!(seeds[0], faults.seed, "shard 0 keeps the seed");
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(
            uniq.len(),
            4,
            "shards must not fault in lockstep: {seeds:?}"
        );
        for l in &direct.links {
            assert_eq!(l.fault_plan().drop_ppm, faults.drop_ppm);
        }
    }

    #[test]
    fn single_node_spec_costs_what_a_lone_link_does() {
        // The paper's fabric through `build_backend`: one shard, every key
        // routed to it, the plan's seed verbatim — so completion cycles and
        // the ledger match a bare `Link` under the same plan.
        for faults in [FaultPlan::none(), FaultPlan::drops(0xFEED, 300_000)] {
            let mut single = build_backend(LinkParams::tcp_25g(), BackendSpec::single(), faults);
            let mut link = Link::new(LinkParams::tcp_25g());
            link.set_fault_plan(faults);
            for k in 0..256u64 {
                let (bytes, at) = (64 + k * 131, k * 5000);
                assert_eq!(single.transfer(k, bytes, at), link.transfer(bytes, at));
                assert_eq!(single.writeback(k, bytes, at), link.writeback(bytes, at));
            }
            assert_eq!(single.stats(), link.stats());
            assert_eq!(single.health(), link.health());
        }
    }

    #[test]
    fn targeted_fault_shard_leaves_others_flawless() {
        let faults = FaultPlan::drops(1, PPM);
        let spec = BackendSpec::sharded(4).with_fault_shard(2);
        let mut b = build_backend(LinkParams::tcp_25g(), spec, faults);
        assert!(b.faults_active());
        for k in 0..64u64 {
            let r = b.try_transfer(k, 64, 0);
            if b.shard_of(k) == 2 {
                assert!(r.is_err());
            } else {
                assert!(r.is_ok());
            }
        }
        for s in 0..4 {
            let expect_faults = s == 2;
            assert_eq!(b.shard_stats(s).faults > 0, expect_faults, "shard {s}");
        }
    }

    #[test]
    fn spec_display_and_validation() {
        assert_eq!(BackendSpec::single().to_string(), "single");
        assert_eq!(BackendSpec::single(), BackendSpec::sharded(1));
        assert_eq!(BackendSpec::single(), BackendSpec::default());
        assert!(BackendSpec::single().is_single());
        let s = BackendSpec::sharded(4)
            .with_placement(PlacementPolicy::Interleave)
            .with_fault_shard(1);
        assert_eq!(s.to_string(), "sharded(4, interleave) fault_shard=1");
        assert_eq!(s.shard_count(), 4);
        assert!(!s.is_single());
        assert_eq!(s.replica_count(), 1);
        s.validate().unwrap();
        let r = BackendSpec::sharded(4).with_replicas(2);
        assert_eq!(r.to_string(), "sharded(4, hash) replicas=2");
        assert_eq!(r.replica_count(), 2);
        r.validate().unwrap();
    }

    #[test]
    fn spec_validation_rejects_each_bad_shape() {
        assert_eq!(
            BackendSpec::sharded(0).validate(),
            Err(SpecError::ZeroShards)
        );
        assert_eq!(
            BackendSpec::sharded(2).with_fault_shard(5).validate(),
            Err(SpecError::FaultShardOutOfRange {
                fault_shard: 5,
                shards: 2
            })
        );
        assert_eq!(
            BackendSpec::sharded(2).with_replicas(0).validate(),
            Err(SpecError::ZeroReplicas)
        );
        assert_eq!(
            BackendSpec::sharded(2).with_replicas(3).validate(),
            Err(SpecError::ReplicasExceedShards {
                replicas: 3,
                shards: 2
            })
        );
        assert!(BackendSpec::sharded(2).with_replicas(2).validate().is_ok());
        assert!(BackendSpec::single().validate().is_ok());
        // One node is one shard: it cannot hold a second replica either.
        assert_eq!(
            BackendSpec::single().with_replicas(2).validate(),
            Err(SpecError::ReplicasExceedShards {
                replicas: 2,
                shards: 1
            })
        );
        // The Display text is descriptive — panicking callers surface it
        // verbatim, so config-level #[should_panic] pins keep matching.
        let msg = BackendSpec::sharded(2)
            .with_fault_shard(5)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(msg.contains("fault shard 5 out of range for 2 shards"));
        assert!(BackendSpec::sharded(8)
            .with_replicas(0)
            .validate()
            .unwrap_err()
            .to_string()
            .contains("replication factor"));
    }

    #[test]
    #[should_panic(expected = "fault shard")]
    fn build_backend_panics_on_invalid_spec() {
        build_backend(
            LinkParams::tcp_25g(),
            BackendSpec::sharded(2).with_fault_shard(5),
            FaultPlan::none(),
        );
    }

    #[test]
    fn replicas_one_is_bit_identical_to_plain_sharded() {
        // The pay-for-use pin: with_replicas(1) must leave every completion
        // cycle, counter, and snapshot untouched — tracked mode stays off.
        for faults in [FaultPlan::none(), FaultPlan::drops(0xFEED, 200_000)] {
            let spec = BackendSpec::sharded(4);
            let mut plain = build_backend(LinkParams::tcp_25g(), spec, faults);
            let mut reppy = build_backend(LinkParams::tcp_25g(), spec.with_replicas(1), faults);
            assert!(!reppy.failover_active());
            for k in 0..512u64 {
                let (bytes, at) = (64 + k * 97, k * 3000);
                assert_eq!(
                    plain.try_transfer(k, bytes, at).ok(),
                    reppy.try_transfer(k, bytes, at).ok()
                );
                assert_eq!(
                    plain.try_writeback(k, bytes, at).ok(),
                    reppy.try_writeback(k, bytes, at).ok()
                );
            }
            assert_eq!(plain.stats(), reppy.stats());
            assert_eq!(plain.shard_snapshots(), reppy.shard_snapshots());
            assert!(reppy.audit().is_none(), "untracked mode keeps no ledger");
        }
    }

    #[test]
    fn mirrored_writeback_lands_on_every_replica() {
        let mut b = Sharded::new(LinkParams::instant(), 4, PlacementPolicy::Interleave);
        b.set_replicas(2);
        assert!(b.failover_active());
        assert_eq!(b.replicas(), 2);
        b.try_writeback(0, 4096, 0).unwrap(); // replicas on shards 0 and 1
        assert_eq!(b.shard_stats(0).writebacks, 1);
        assert_eq!(b.shard_stats(1).writebacks, 1);
        assert_eq!(b.shard_stats(2).writebacks, 0);
        let a = b.audit().unwrap();
        assert_eq!(a.acked_keys, 1);
        assert_eq!((a.lost, a.under_replicated), (0, 0));
        // Reads hit only the primary.
        b.try_transfer(0, 4096, 0).unwrap();
        assert_eq!(b.shard_stats(0).fetches, 1);
        assert_eq!(b.shard_stats(1).fetches, 0);
    }

    #[test]
    fn reads_fail_over_to_the_replica_while_the_primary_is_down() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4, PlacementPolicy::Interleave);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_crash(100_000, 900_000));
        // Key 0's replicas are shards 0 (primary) and 1.
        b.try_writeback(0, 4096, 0).unwrap();
        // During the crash window the replica serves without a single
        // failed attempt: the poll notices the crash before routing.
        let done = b.try_transfer(0, 4096, 200_000).unwrap();
        assert!(done > 200_000);
        assert_eq!(b.shard_state(0), ShardState::Down);
        assert_eq!(b.shard_stats(1).fetches, 1, "replica served the read");
        assert_eq!(b.shard_snapshots()[1].failover_reads, 1);
        // A writeback during the window lands only on the live replica and
        // records the divergence — but is still acknowledged.
        b.try_writeback(0, 4096, 300_000).unwrap();
        assert_eq!(b.shard_snapshots()[0].divergent_writes, 1);
        let a = b.audit().unwrap();
        assert_eq!(a.lost, 0);
        assert_eq!(a.under_replicated, 1, "shard 0 missed the second write");
    }

    #[test]
    fn epoch_fence_blocks_a_stale_restarted_primary_until_resync() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4, PlacementPolicy::Interleave);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 500_000));
        b.try_writeback(0, 4096, 0).unwrap();
        // Shard 0 crashes cold; a write during the window bumps the acked
        // version past anything shard 0 will hold at restart.
        b.try_writeback(0, 4096, 200_000).unwrap();
        // Past the window: shard 0 restarts (Recovering, epoch 1) — but the
        // read must NOT come from it even after mark_synced flips it Up,
        // until its store is re-synced.
        b.poll(600_000);
        assert_eq!(b.shard_state(0), ShardState::Recovering);
        assert_eq!(b.shard_epoch(0), 1);
        b.links[0].mark_synced();
        assert_eq!(b.shard_state(0), ShardState::Up);
        let before = b.shard_stats(1).fetches;
        b.try_transfer(0, 4096, 600_000).unwrap();
        assert_eq!(
            b.shard_stats(1).fetches,
            before + 1,
            "fence must route the read to the replica, not the stale primary"
        );
        assert_eq!(b.shard_stats(0).fetches, 0);
        // Resync repays the divergence; now the primary serves again.
        let mut r = Recovered::default();
        b.resync_shard(0, 4096, 700_000, &mut r);
        assert_eq!((r.resynced, r.lost), (1, 0));
        b.try_transfer(0, 4096, 800_000).unwrap();
        assert_eq!(b.shard_stats(0).fetches, 1);
        let a = b.audit().unwrap();
        assert_eq!((a.lost, a.under_replicated), (0, 0));
    }

    #[test]
    fn unreplicated_cold_crash_loses_acknowledged_writes() {
        // The audit has teeth: with R=1 a cold crash destroys the only
        // copy, and the audit says so.
        let mut b = Sharded::new(LinkParams::tcp_25g(), 2, PlacementPolicy::Interleave);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 500_000));
        assert!(
            b.failover_active(),
            "a crash plan arms tracking even at R=1"
        );
        b.try_writeback(0, 4096, 0).unwrap();
        assert_eq!(b.audit().unwrap().lost, 0);
        b.poll(600_000);
        assert_eq!(b.audit().unwrap().lost, 1, "the only copy was wiped");
        let r = b.service(600_000, 4096);
        assert_eq!((r.recoveries, r.resynced, r.lost), (1, 0, 1));
    }

    #[test]
    fn re_replication_restores_redundancy_and_rehomes_the_key() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4, PlacementPolicy::Interleave);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 10_000_000));
        b.try_writeback(0, 4096, 0).unwrap();
        // The Down edge drains key 0 off the dead shard: of its homes
        // {0, 1}, shard 1 survives, so the substitute is shard 2.
        let r = b.service(200_000, 4096);
        assert_eq!((r.downs, r.re_replicated), (1, 1));
        assert_eq!(b.shard_state(0), ShardState::Down);
        assert_eq!(b.shard_stats(2).writebacks, 1);
        assert_eq!(b.shard_of(0), 2, "primary re-homed to the substitute");
        let a = b.audit().unwrap();
        assert_eq!((a.lost, a.under_replicated), (0, 0), "redundancy restored");
        // Subsequent writes mirror to the new set {2, 1} and skip the corpse.
        b.try_writeback(0, 4096, 300_000).unwrap();
        assert_eq!(b.shard_stats(2).writebacks, 2);
        assert_eq!(b.shard_stats(1).writebacks, 2);
        assert_eq!(b.shard_stats(0).writebacks, 1);
        // Re-replicating an already-drained key is a no-op.
        assert!(b.re_replicate(0, 0, 4096, 400_000).is_none());
    }

    #[test]
    #[should_panic(expected = "no replica of key 7 ever came back")]
    fn blocking_transfer_with_every_replica_down_for_good_panics() {
        let spec = BackendSpec::sharded(2).with_replicas(2);
        let crash = FaultPlan::none().with_crash(0, u64::MAX); // never restarts
        let mut b = build_backend(LinkParams::tcp_25g(), spec, crash);
        b.transfer(7, 64, 0);
    }

    #[test]
    fn service_resyncs_every_hosted_key_across_a_restart() {
        let mut b = Sharded::new(LinkParams::instant(), 3, PlacementPolicy::Interleave);
        b.set_replicas(2);
        b.set_fault_plan_on(1, FaultPlan::none().with_cold_crash(1_000, 2_000));
        // Keys 0 (shards {0,1}) and 1 (shards {1,2}) both live on shard 1.
        b.try_writeback(0, 64, 0).unwrap();
        b.try_writeback(1, 64, 0).unwrap();
        assert_eq!(
            b.service(500, 64),
            Recovered::default(),
            "before the window"
        );
        // Nobody looks during the window: the first pass after it sees the
        // restart, rebuilds the wiped store and rejoins the shard.
        let r = b.service(5_000, 64);
        let want = Recovered {
            recoveries: 1,
            resynced: 2,
            ..Recovered::default()
        };
        assert_eq!(r, want);
        assert_eq!(b.shard_state(1), ShardState::Up);
        assert_eq!(b.shard_stats(1).writebacks, 4, "2 mirrors, then 2 resyncs");
        let a = b.audit().unwrap();
        assert_eq!((a.lost, a.under_replicated), (0, 0));
        // Each edge is serviced once.
        assert_eq!(b.service(6_000, 64), Recovered::default());
    }
}
