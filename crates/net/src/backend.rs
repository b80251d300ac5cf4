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
//! Every operation takes a `key` (the caller's object id or page number).
//! Placement is hashed: a key's home is `mix(key) % shards` (SplitMix64, a
//! pure function of key and shard count), so the same object set always
//! lands on the same shards — and therefore produces the same counters and
//! the same run reports. Hashing spreads hot ranges evenly and stripes a
//! sequential scan over every node; [`Sharded::shard_of`] answers where a
//! key lives.

use std::collections::BTreeSet;
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

/// Declarative backend selection, carried by run configurations.
///
/// `Copy` on purpose: configs spread freely through the workspace. The spec
/// is *what to build*; [`build_backend`] turns it into a live backend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BackendSpec {
    /// Number of remote nodes, each with an independent link and fault
    /// schedule. One — the default — is the paper's fabric.
    shards: u32,
    /// When set, the configured fault plan applies *only* to this shard
    /// (the "one node dies" experiment); otherwise every shard runs the
    /// plan with a per-shard derived seed.
    fault_shard: Option<u32>,
    /// Replication factor R: every object lives on R consecutive shards
    /// of its placement ring, starting at its hashed home. 1 (the default)
    /// is unreplicated and bit-identical to the pre-replication backend.
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
            fault_shard: None,
            replicas: 1,
        }
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
        write!(f, "sharded({})", self.shards)?;
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
    let mut b = Sharded::new(params, spec.shards);
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
///
/// **Key contract.** Keys are object ids from 0 or page numbers from the
/// pager's base page ([`set_key_base`](Self::set_key_base)), below that base
/// plus heap size / granule. Tracked mode's ledger is dense: one vector per
/// table indexed by `key - key_base`, grown to the largest key written,
/// version 0 (or an `ON_RING` re-home slot) meaning absent.
#[derive(Debug)]
pub struct Sharded {
    links: Vec<Link>,
    /// Replication factor R (1 = unreplicated).
    replicas: u32,
    /// Cached "tracked mode" flag: replicas > 1 or any crash plan armed.
    /// Gates *all* replica bookkeeping (pay-for-use).
    tracked: bool,
    /// The lowest key: the ledger's tables index `key - key_base`.
    key_base: u64,
    /// Store model, per shard, indexed by key: the highest version held.
    stores: Vec<Vec<u64>>,
    /// Indexed by key: the latest version acknowledged to the caller.
    acked: Vec<u64>,
    /// R slots per key: the replica set the re-replicator re-homed the key
    /// to off a Down shard (overrides the placement ring), or `ON_RING`.
    moved: Vec<u32>,
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
    pub fn new(params: LinkParams, shards: u32) -> Self {
        assert!(shards >= 1, "a sharded backend needs at least one shard");
        Sharded {
            links: (0..shards)
                .map(|i| {
                    let mut link = Link::new(params);
                    link.set_shard(i);
                    link
                })
                .collect(),
            replicas: 1,
            tracked: false,
            key_base: 0,
            stores: vec![Vec::new(); shards as usize],
            acked: Vec::new(),
            moved: Vec::new(),
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

    /// Starts the ledger's tables at `base`, the caller's lowest key.
    pub fn set_key_base(&mut self, base: u64) {
        self.key_base = base;
    }

    fn refresh_tracked(&mut self) {
        self.tracked =
            self.replicas > 1 || self.links.iter().any(|l| l.fault_plan().crash.is_some());
    }

    /// `key`'s hashed home: `mix(key) % shards`.
    #[inline]
    fn route(&self, key: u64) -> usize {
        // One node (the paper's fabric, and the default): there is nowhere
        // else to go, so skip the hash and the division by a runtime length.
        if self.links.len() == 1 {
            return 0;
        }
        (mix(key) % self.links.len() as u64) as usize
    }

    /// Replica `i < R` of `key`: ring position `i` from the placement shard
    /// unless re-homed. `i == 0`, every untracked lookup, costs no division.
    #[inline]
    fn replica_at(&self, key: u64, i: usize) -> usize {
        match self.moved.get(self.slot(key) * self.replicas as usize + i) {
            Some(&s) if s != ON_RING => s as usize,
            _ if i == 0 => self.route(key),
            _ => (self.route(key) + i) % self.links.len(),
        }
    }

    /// `key`'s index in the ledger's dense tables (the key contract).
    #[inline]
    fn slot(&self, key: u64) -> usize {
        (key - self.key_base) as usize
    }

    /// The shards hosting `key`. The hot paths walk
    /// [`replica_at`](Self::replica_at) instead.
    fn replica_set(&self, key: u64) -> Vec<usize> {
        self.debug_check_replicas(key);
        (0..self.replicas as usize)
            .map(|i| self.replica_at(key, i))
            .collect()
    }

    /// Asserts (debug builds) that `key`'s replicas are R distinct shards.
    fn debug_check_replicas(&self, key: u64) {
        let (n, r) = (self.links.len(), |i| self.replica_at(key, i));
        debug_assert!(
            (0..self.replicas as usize).all(|i| r(i) < n && (0..i).all(|j| r(j) != r(i))),
            "key {key}: replicas {:?} are not R distinct shards of {n}",
            (0..self.replicas as usize).map(r).collect::<Vec<_>>()
        );
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
    fn choose_serving(&self, key: u64) -> Option<usize> {
        let acked = version(&self.acked, self.slot(key));
        let in_state = |want: ShardState| {
            (0..self.replicas as usize)
                .map(|i| self.replica_at(key, i))
                .find(|&s| self.links[s].failover_state() == want && self.holds(s, key, acked))
        };
        in_state(ShardState::Up).or_else(|| in_state(ShardState::Suspect))
    }

    /// Tracked-mode fetch: read failover across the replica set.
    fn tracked_try_transfer(&mut self, key: u64, bytes: u64, now: u64) -> Result<u64, LinkFault> {
        self.poll(now);
        let Some(s) = self.choose_serving(key) else {
            return Err(self.unreachable_fault(now));
        };
        let res = self.links[s].try_transfer(bytes, now);
        if res.is_ok() && s != self.replica_at(key, 0) {
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
        self.debug_check_replicas(key);
        self.next_version += 1;
        let ver = self.next_version;
        let mut done: Option<u64> = None;
        let mut failed: Option<LinkFault> = None;
        let i = self.slot(key);
        for r in 0..self.replicas as usize {
            let s = self.replica_at(key, r);
            if self.links[s].failover_state() == ShardState::Down {
                self.divergent_writes[s] += 1;
                continue;
            }
            match self.links[s].try_writeback(bytes, now) {
                Ok(d) => {
                    put(&mut self.stores[s], i, ver);
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
                let prev = version(&self.acked, i);
                debug_assert!(
                    prev < ver,
                    "key {key}: acked version went back from {prev} to {ver}"
                );
                put(&mut self.acked, i, ver);
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
        self.replica_at(key, 0)
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
                    for (key, _) in self.acked_keys().collect::<Vec<_>>() {
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
            synced.iter().all(|&s| self.acked_keys().all(|(key, ver)| {
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
        for (key, ver) in self.acked_keys().collect::<Vec<_>>() {
            if !self.replica_set(key).contains(&shard) || self.holds(shard, key, ver) {
                continue;
            }
            let i = self.slot(key);
            let source = (0..self.links.len()).any(|s| {
                s != shard
                    && self.links[s].failover_state() != ShardState::Down
                    && self.holds(s, key, ver)
            });
            if source {
                // Cost model: one writeback's worth of traffic into the
                // shard (the source's read side is off the critical path).
                end = end.max(self.links[shard].writeback(key_bytes, now));
                put(&mut self.stores[shard], i, ver);
                r.resynced += 1;
            } else {
                // The acked version is gone everywhere. Drop the fence (the
                // restarted shard becomes the authoritative — empty — home,
                // so future writes can land) but keep the loss on the books.
                self.acked[i] = 0;
                self.lost_keys.insert(key);
                r.lost += 1;
            }
        }
        self.links[shard].mark_synced();
        r.recoveries += 1;
        self.tel.span_end(sp, end);
    }

    /// Whether shard `s` holds `key` at version `ver` or newer (any, at 0).
    fn holds(&self, s: usize, key: u64, ver: u64) -> bool {
        version(&self.stores[s], self.slot(key)) >= ver
    }

    /// Every acked key with its version, in ascending key order.
    fn acked_keys(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (self.key_base..)
            .zip(self.acked.iter().copied())
            .filter(|&(_, ver)| ver != 0)
    }

    /// Advances scripted crash/restart transitions to cycle `now` without
    /// issuing traffic; a restart wipes the shard's store. A no-op unless
    /// some shard has a crash plan.
    fn poll(&mut self, now: u64) {
        for s in 0..self.links.len() {
            if self.links[s].poll_failover(now) {
                self.stores[s].clear();
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
        let ver = version(&self.acked, self.slot(key));
        let set = self.replica_set(key);
        if self.replicas <= 1 || ver == 0 || !set.contains(&from) {
            return None;
        }
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
        let i = self.slot(key);
        put(&mut self.stores[sub], i, ver);
        let at = i * set.len();
        self.moved
            .resize(self.moved.len().max(at + set.len()), ON_RING);
        for (slot, &s) in self.moved[at..].iter_mut().zip(&set) {
            *slot = (if s == from { sub } else { s }) as u32;
        }
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
        for (key, ver) in self.acked_keys() {
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

/// A re-home slot of a key that lives on its placement ring.
const ON_RING: u32 = u32::MAX;

/// Entry `i` of a dense per-key table: 0 (absent) past its end.
fn version(table: &[u64], i: usize) -> u64 {
    table.get(i).copied().unwrap_or(0)
}

/// Sets entry `i` of a dense per-key table, growing it with zeros.
fn put(table: &mut Vec<u64>, i: usize, ver: u64) {
    debug_assert!(
        i < 1 << 32,
        "key index {i} breaks the key contract of `Sharded`"
    );
    table.resize(table.len().max(i + 1), 0);
    table[i] = ver;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::PPM;

    /// The `nth` key (from 0) whose home is `shard`.
    fn key_on(b: &Sharded, shard: usize, nth: usize) -> u64 {
        (0..).filter(|&k| b.shard_of(k) == shard).nth(nth).unwrap()
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        for shards in [1u32, 2, 4, 7, 8] {
            let b = Sharded::new(LinkParams::instant(), shards);
            for k in (0..1024).chain((0..64).map(|k| k << 40)) {
                let home = b.shard_of(k);
                assert!(home < shards as usize);
                assert_eq!(home, (mix(k) % u64::from(shards)) as usize, "key {k}");
            }
        }
    }

    #[test]
    fn hash_placement_spreads_contiguous_keys() {
        let b = Sharded::new(LinkParams::instant(), 4);
        let mut counts = [0u64; 4];
        for k in 0..4096u64 {
            counts[b.shard_of(k)] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            // Fair share is 1024; a heavily skewed hash would fail loudly.
            assert!((700..1400).contains(&c), "shard {s} got {c} of 4096 keys");
        }
    }

    #[test]
    fn shards_have_independent_bandwidth_queues() {
        let params = LinkParams {
            base_latency: 1000,
            cycles_per_kib: 1024, // 1 byte/cycle
        };
        let mut b = Sharded::new(params, 2);
        let (k0, k1, k0_again) = (key_on(&b, 0, 0), key_on(&b, 1, 0), key_on(&b, 0, 1));
        // Keys on different shards: neither queues behind the other, both
        // complete at the solo cost.
        let a = b.transfer(k0, 1000, 0);
        let c = b.transfer(k1, 1000, 0);
        assert_eq!(a, 1000 + 1000);
        assert_eq!(c, 1000 + 1000, "different shard, no queueing");
        // A second message to shard 0 does queue.
        let d = b.transfer(k0_again, 1000, 0);
        assert_eq!(d, 2000 + 1000);
    }

    #[test]
    fn aggregate_stats_sum_over_shards() {
        let mut b = Sharded::new(LinkParams::instant(), 4);
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
        // Each shard fetched exactly the keys homed on it.
        for s in 0..4 {
            let homed = (0..16).filter(|&k| b.shard_of(k) == s).count() as u64;
            assert_eq!(b.shard_stats(s).fetches, homed, "shard {s}");
        }
    }

    #[test]
    fn one_dead_shard_leaves_the_others_serving() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4);
        b.set_fault_plan_on(2, FaultPlan::drops(9, PPM)); // shard 2 always drops
        assert!(b.faults_active());
        let homed = |b: &Sharded, s| (0..32).filter(|&k| b.shard_of(k) == s).count() as u64;
        let sick = homed(&b, 2);
        assert!(sick >= 3, "enough attempts on shard 2 to degrade it");
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
            assert_eq!(b.shard_stats(s).fetches, homed(&b, s));
        }
        assert_eq!(b.shard_stats(2).fetches, 0);
        assert_eq!(b.shard_stats(2).faults, sick);
        // Aggregate health reflects the sick shard.
        assert!(b.health().is_degraded());
        assert_eq!(b.health().faults(), sick);
        assert_eq!(b.stats().faults, sick);
    }

    #[test]
    fn untargeted_plans_get_per_shard_seeds() {
        let faults = FaultPlan::drops(0xABCD, 500_000);
        let mut direct = Sharded::new(LinkParams::tcp_25g(), 4);
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
        let s = BackendSpec::sharded(4).with_fault_shard(1);
        assert_eq!(s.to_string(), "sharded(4) fault_shard=1");
        assert_eq!(s.shard_count(), 4);
        assert!(!s.is_single());
        s.validate().unwrap();
        let r = BackendSpec::sharded(4).with_replicas(2);
        assert_eq!(r.to_string(), "sharded(4) replicas=2");
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
        let mut b = Sharded::new(LinkParams::instant(), 4);
        b.set_replicas(2);
        assert!(b.failover_active());
        assert_eq!(b.replicas(), 2);
        let key = key_on(&b, 0, 0);
        b.try_writeback(key, 4096, 0).unwrap(); // replicas on shards 0 and 1
        assert_eq!(b.shard_stats(0).writebacks, 1);
        assert_eq!(b.shard_stats(1).writebacks, 1);
        assert_eq!(b.shard_stats(2).writebacks, 0);
        let a = b.audit().unwrap();
        assert_eq!(a.acked_keys, 1);
        assert_eq!((a.lost, a.under_replicated), (0, 0));
        // Reads hit only the primary.
        b.try_transfer(key, 4096, 0).unwrap();
        assert_eq!(b.shard_stats(0).fetches, 1);
        assert_eq!(b.shard_stats(1).fetches, 0);
    }

    #[test]
    fn reads_fail_over_to_the_replica_while_the_primary_is_down() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 900_000));
        // The key's replicas are shards 0 (primary) and 1.
        let key = key_on(&b, 0, 0);
        b.try_writeback(key, 4096, 0).unwrap();
        // During the crash window the replica serves without a single
        // failed attempt: the poll notices the crash before routing.
        let done = b.try_transfer(key, 4096, 200_000).unwrap();
        assert!(done > 200_000);
        assert_eq!(b.shard_state(0), ShardState::Down);
        assert_eq!(b.shard_stats(1).fetches, 1, "replica served the read");
        assert_eq!(b.shard_snapshots()[1].failover_reads, 1);
        // A writeback during the window lands only on the live replica and
        // records the divergence — but is still acknowledged.
        b.try_writeback(key, 4096, 300_000).unwrap();
        assert_eq!(b.shard_snapshots()[0].divergent_writes, 1);
        let a = b.audit().unwrap();
        assert_eq!(a.lost, 0);
        assert_eq!(a.under_replicated, 1, "shard 0 missed the second write");
    }

    #[test]
    fn epoch_fence_blocks_a_stale_restarted_primary_until_resync() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 500_000));
        // The key's replicas are shards 0 (primary) and 1.
        let key = key_on(&b, 0, 0);
        b.try_writeback(key, 4096, 0).unwrap();
        // Shard 0 crashes cold; a write during the window bumps the acked
        // version past anything shard 0 will hold at restart.
        b.try_writeback(key, 4096, 200_000).unwrap();
        // Past the window: shard 0 restarts (Recovering, epoch 1) — but the
        // read must NOT come from it even after mark_synced flips it Up,
        // until its store is re-synced.
        b.poll(600_000);
        assert_eq!(b.shard_state(0), ShardState::Recovering);
        assert_eq!(b.shard_epoch(0), 1);
        b.links[0].mark_synced();
        assert_eq!(b.shard_state(0), ShardState::Up);
        let before = b.shard_stats(1).fetches;
        b.try_transfer(key, 4096, 600_000).unwrap();
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
        b.try_transfer(key, 4096, 800_000).unwrap();
        assert_eq!(b.shard_stats(0).fetches, 1);
        let a = b.audit().unwrap();
        assert_eq!((a.lost, a.under_replicated), (0, 0));
    }

    #[test]
    fn unreplicated_cold_crash_loses_acknowledged_writes() {
        // The audit has teeth: with R=1 a cold crash destroys the only
        // copy, and the audit says so.
        let mut b = Sharded::new(LinkParams::tcp_25g(), 2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 500_000));
        assert!(
            b.failover_active(),
            "a crash plan arms tracking even at R=1"
        );
        b.try_writeback(key_on(&b, 0, 0), 4096, 0).unwrap();
        assert_eq!(b.audit().unwrap().lost, 0);
        b.poll(600_000);
        assert_eq!(b.audit().unwrap().lost, 1, "the only copy was wiped");
        let r = b.service(600_000, 4096);
        assert_eq!((r.recoveries, r.resynced, r.lost), (1, 0, 1));
    }

    #[test]
    fn re_replication_restores_redundancy_and_rehomes_the_key() {
        let mut b = Sharded::new(LinkParams::tcp_25g(), 4);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(100_000, 10_000_000));
        let key = key_on(&b, 0, 0);
        b.try_writeback(key, 4096, 0).unwrap();
        // The Down edge drains the key off the dead shard: of its homes
        // {0, 1}, shard 1 survives, so the substitute is shard 2.
        let r = b.service(200_000, 4096);
        assert_eq!((r.downs, r.re_replicated), (1, 1));
        assert_eq!(b.shard_state(0), ShardState::Down);
        assert_eq!(b.shard_stats(2).writebacks, 1);
        assert_eq!(b.shard_of(key), 2, "primary re-homed to the substitute");
        let a = b.audit().unwrap();
        assert_eq!((a.lost, a.under_replicated), (0, 0), "redundancy restored");
        // Subsequent writes mirror to the new set {2, 1} and skip the corpse.
        b.try_writeback(key, 4096, 300_000).unwrap();
        assert_eq!(b.shard_stats(2).writebacks, 2);
        assert_eq!(b.shard_stats(1).writebacks, 2);
        assert_eq!(b.shard_stats(0).writebacks, 1);
        // Re-replicating an already-drained key is a no-op.
        assert!(b.re_replicate(key, 0, 4096, 400_000).is_none());
    }

    #[test]
    #[should_panic(expected = "no replica of key 7 ever came back")]
    fn blocking_transfer_with_every_replica_down_for_good_panics() {
        let spec = BackendSpec::sharded(2).with_replicas(2);
        let crash = FaultPlan::none().with_cold_crash(0, u64::MAX); // never restarts
        let mut b = build_backend(LinkParams::tcp_25g(), spec, crash);
        b.transfer(7, 64, 0);
    }

    #[test]
    fn service_resyncs_every_hosted_key_across_a_restart() {
        let mut b = Sharded::new(LinkParams::instant(), 3);
        b.set_replicas(2);
        b.set_fault_plan_on(1, FaultPlan::none().with_cold_crash(1_000, 2_000));
        // Keys on shards {0,1} and {1,2} both live on shard 1.
        b.try_writeback(key_on(&b, 0, 0), 64, 0).unwrap();
        b.try_writeback(key_on(&b, 1, 0), 64, 0).unwrap();
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

    #[test]
    fn the_ledger_covers_every_key_and_a_reset_forgets_it() {
        let mut b = Sharded::new(LinkParams::instant(), 3);
        b.set_replicas(2);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(1_000, 2_000));
        // Rings: a -> {0,1}, c -> {2,0}, far -> {1,2}; d -> {0,1} comes later.
        let (a, c, d) = (key_on(&b, 0, 0), key_on(&b, 2, 0), key_on(&b, 0, 1));
        let far = (1 << 20..).find(|&k| b.shard_of(k) == 1).unwrap();
        for key in [a, c, far] {
            b.try_writeback(key, 64, 0).unwrap();
        }
        // The Down edge re-homes the keys shard 0 hosts: a -> {2,1}, c -> {2,1}.
        let r = b.service(1_500, 64);
        assert_eq!((r.downs, r.re_replicated), (1, 2));
        assert_eq!(b.shard_of(a), 2);
        // Key d (ring {0,1}) is acked while shard 0 is dark.
        b.try_writeback(d, 64, 1_600).unwrap();
        // The cold restart wipes shard 0 and no other shard.
        b.poll(5_000);
        assert!(!b.holds(0, a, 1) && !b.holds(0, c, 1));
        for (s, key) in [(1, a), (1, c), (1, d), (1, far), (2, a), (2, c), (2, far)] {
            assert!(b.holds(s, key, 1), "shard {s} lost key {key}");
        }
        // Resync copies exactly the acked keys shard 0 still hosts: key d.
        let hosted = [a, c, d, far]
            .into_iter()
            .filter(|&k| b.replica_set(k).contains(&0))
            .count() as u64;
        let r = b.service(5_000, 64);
        assert_eq!((r.recoveries, r.resynced, r.lost), (1, hosted, 0));
        assert_eq!(hosted, 1);
        let audit = b.audit().unwrap();
        assert_eq!(
            (audit.acked_keys, audit.lost, audit.under_replicated),
            (4, 0, 0)
        );
        // A reset forgets every ack and every re-home.
        b.reset_stats();
        assert_eq!(b.audit().unwrap(), FailoverAudit::default());
        assert_eq!(b.shard_of(a), 0, "key a is back on its ring");
        b.try_writeback(a, 64, 0).unwrap();
        assert_eq!(b.shard_stats(0).writebacks, 1);
        assert_eq!(b.shard_stats(2).writebacks, 0);
    }

    #[test]
    fn a_key_base_starts_the_ledger_there_and_keeps_routing_whole() {
        // The pager's keys start at its base page (the simulator's heap base
        // is page 1 << 33): the ledger starts there too, routing does not.
        let base = 1 << 33;
        let mut b = Sharded::new(LinkParams::instant(), 3);
        b.set_replicas(2);
        b.set_key_base(base);
        b.set_fault_plan_on(0, FaultPlan::none().with_cold_crash(1_000, 2_000));
        let keys = base..base + 8;
        for key in keys.clone() {
            assert_eq!(b.shard_of(key), (mix(key) % 3) as usize);
            b.try_writeback(key, 64, 0).unwrap();
        }
        let hosted = keys.clone().filter(|&k| b.replica_set(k).contains(&0));
        let hosted = hosted.count() as u64;
        assert!(hosted > 0);
        assert_eq!(b.service(1_500, 64).re_replicated, hosted);
        assert!(keys.clone().all(|k| !b.replica_set(k).contains(&0)));
        assert_eq!(b.service(5_000, 64).lost, 0);
        let a = b.audit().unwrap();
        assert_eq!((a.acked_keys, a.lost, a.under_replicated), (8, 0, 0));
        // Every table spans the keys written, not the keys below the base.
        assert_eq!(b.acked.len(), 8);
        assert!(b.stores.iter().all(|s| s.len() <= 8) && b.moved.len() <= 16);
        assert_eq!(b.acked_keys().next(), Some((base, 1)));
    }
}
