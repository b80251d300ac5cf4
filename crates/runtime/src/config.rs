//! Runtime configuration.

use tfm_net::{mix, BackendSpec, FaultPlan, LinkParams};

/// Retry/backoff policy the runtime applies to faulted link operations.
///
/// A faulted attempt is detected at the link's drop timeout; the runtime
/// then waits an exponentially growing backoff (`BACKOFF_BASE << (attempt -
/// 1)`, capped at [`BACKOFF_CAP`](Self::BACKOFF_CAP)) plus a deterministic
/// jitter before reissuing. While the link is degraded (see `LinkHealth`),
/// every backoff is multiplied by
/// [`DEGRADED_BACKOFF_MULT`](Self::DEGRADED_BACKOFF_MULT) to shed load from
/// a struggling fabric.
pub struct RetryPolicy;

impl RetryPolicy {
    /// Attempts before a *deferrable* operation (writeback) gives up; a
    /// localize must succeed for correctness and keeps retrying past this.
    pub const MAX_ATTEMPTS: u32 = 16;
    /// First retry's backoff in cycles.
    pub const BACKOFF_BASE: u64 = 4_096;
    /// Upper bound on a single backoff in cycles, before jitter.
    pub const BACKOFF_CAP: u64 = 1 << 20;
    /// Per-operation cycle budget; operations that blow through it are
    /// counted (`deadline_exceeded`) but still driven to completion.
    pub const DEADLINE: u64 = 8_000_000;
    /// Backoff multiplier applied while the link is degraded.
    pub const DEGRADED_BACKOFF_MULT: u64 = 4;
    /// Seed of the deterministic per-attempt backoff jitter.
    pub const JITTER_SEED: u64 = 0x7C15_DA39_6A1B_44E3;

    /// Backoff charged before retry number `attempt` (1-based), before
    /// jitter and the degraded multiplier.
    pub fn backoff(attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1);
        if shift >= Self::BACKOFF_BASE.leading_zeros() {
            return Self::BACKOFF_CAP; // doubling any further would overflow
        }
        (Self::BACKOFF_BASE << shift).min(Self::BACKOFF_CAP)
    }

    /// [`backoff`](Self::backoff) plus a deterministic jitter drawn in
    /// `[0, backoff/4]`, keyed on `(core, key, attempt)`. Concurrent
    /// operations against the same recovering shard spread their retries
    /// instead of re-arriving in lockstep — across keys and across simulated
    /// cores — yet the same core, key, and attempt always draw the same
    /// jitter, so runs stay bit-identical. Core 0 (and the synchronous
    /// single-core machine, which always passes 0) draws from the bare seed:
    /// the schedule from before cores existed, which the `cores(1)` identity
    /// gate depends on.
    pub fn backoff_jittered_on(attempt: u32, key: u64, core: u32) -> u64 {
        let base = Self::backoff(attempt);
        let seed = match core {
            0 => Self::JITTER_SEED,
            _ => Self::JITTER_SEED ^ mix(u64::from(core)),
        };
        let h = mix(seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(attempt));
        base + h % (base / 4 + 1)
    }
}

/// Prefetcher configuration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PrefetchConfig {
    /// Master switch. When off, `tfm.prefetch` hints and chunk-stream
    /// prefetching are ignored (the Fig. 11 "no prefetch" arm).
    pub enabled: bool,
    /// How many objects ahead of the current stream position to keep in
    /// flight (AIFM's stride prefetcher look-ahead).
    pub depth: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            depth: 8,
        }
    }
}

/// Configuration of the far-memory runtime.
///
/// The two knobs the paper sweeps are [`object_size`](Self::object_size)
/// (Figs. 9/10) and the local-memory budget (the x-axis of most figures,
/// expressed as a fraction of the working set).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FarMemoryConfig {
    /// Total far-heap capacity in bytes (multiple of `object_size`).
    pub heap_size: u64,
    /// AIFM object size in bytes; power of two in `[64, 4096]` per §3.2.
    pub object_size: u64,
    /// Local-memory budget in bytes; resident objects above this trigger the
    /// evacuator.
    pub local_budget: u64,
    /// Network backend parameters (TCP for TrackFM/AIFM).
    pub link: LinkParams,
    /// Prefetcher settings.
    pub prefetch: PrefetchConfig,
    /// Fault-injection schedule for the link ([`FaultPlan::none`] = the
    /// flawless fabric of the paper's evaluation).
    pub faults: FaultPlan,
    /// Remote-memory topology: one node (the default) or N sharded nodes.
    pub backend: BackendSpec,
}

impl FarMemoryConfig {
    /// A small default configuration: 64 MiB heap, 4 KiB objects, 16 MiB
    /// local budget, TCP backend.
    pub fn small() -> Self {
        FarMemoryConfig {
            heap_size: 64 << 20,
            object_size: 4096,
            local_budget: 16 << 20,
            link: LinkParams::tcp_25g(),
            prefetch: PrefetchConfig::default(),
            faults: FaultPlan::none(),
            backend: BackendSpec::single(),
        }
    }

    /// Validates invariants, panicking with a descriptive message otherwise.
    ///
    /// # Panics
    /// If the object size is not a power of two in `[64, 4096]`, or the heap
    /// size is not a multiple of the object size, or the budget is zero.
    pub fn validate(&self) {
        assert!(
            self.object_size.is_power_of_two() && (64..=4096).contains(&self.object_size),
            "object size must be a power of two in [64, 4096], got {}",
            self.object_size
        );
        assert!(
            self.heap_size.is_multiple_of(self.object_size) && self.heap_size > 0,
            "heap size must be a positive multiple of the object size"
        );
        assert!(self.local_budget > 0, "local budget must be positive");
        self.backend.validate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Number of objects in the heap (= state-table entries).
    pub fn num_objects(&self) -> u64 {
        self.heap_size / self.object_size
    }

    /// log2 of the object size — the shift the guards use to derive object
    /// ids from pointers.
    pub fn log2_object_size(&self) -> u32 {
        self.object_size.trailing_zeros()
    }

    /// Returns a copy with a different object size.
    pub fn with_object_size(mut self, object_size: u64) -> Self {
        self.object_size = object_size;
        self
    }

    /// Returns a copy with a different local budget.
    pub fn with_local_budget(mut self, budget: u64) -> Self {
        self.local_budget = budget;
        self
    }

    /// Returns a copy with prefetching toggled.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.prefetch.enabled = enabled;
        self
    }

    /// Returns a copy with a fault-injection schedule attached.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns a copy with a different remote-memory topology.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy sharded over `n` remote nodes (hashed placement).
    pub fn with_shards(self, n: u32) -> Self {
        self.with_backend(BackendSpec::sharded(n))
    }

    /// Returns a copy with replication factor `r` on the current backend
    /// (which needs at least `r` shards).
    pub fn with_replicas(mut self, r: u32) -> Self {
        self.backend = self.backend.with_replicas(r);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        let c = FarMemoryConfig::small();
        c.validate();
        assert_eq!(c.num_objects(), (64 << 20) / 4096);
        assert_eq!(c.log2_object_size(), 12);
    }

    #[test]
    #[should_panic(expected = "object size")]
    fn rejects_non_power_of_two_objects() {
        FarMemoryConfig::small().with_object_size(3000).validate();
    }

    #[test]
    #[should_panic(expected = "object size")]
    fn rejects_tiny_objects() {
        // §3.2: below a cache line "would saturate the network with many
        // small packets".
        FarMemoryConfig::small().with_object_size(32).validate();
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(RetryPolicy::backoff(1), RetryPolicy::BACKOFF_BASE);
        assert_eq!(RetryPolicy::backoff(2), 2 * RetryPolicy::BACKOFF_BASE);
        assert_eq!(RetryPolicy::backoff(3), 4 * RetryPolicy::BACKOFF_BASE);
        assert_eq!(RetryPolicy::backoff(60), RetryPolicy::BACKOFF_CAP);
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(RetryPolicy::backoff(u32::MAX), RetryPolicy::BACKOFF_CAP);
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_spread() {
        for core in 0..8u32 {
            for attempt in 1..=20 {
                for key in [0u64, 1, 17, 0xDEAD_BEEF] {
                    let a = RetryPolicy::backoff_jittered_on(attempt, key, core);
                    let b = RetryPolicy::backoff_jittered_on(attempt, key, core);
                    assert_eq!(a, b, "same (core, key, attempt) ⇒ same draw");
                    let base = RetryPolicy::backoff(attempt);
                    assert!(
                        (base..=base + base / 4).contains(&a),
                        "jitter must stay within 25% of the base: {a} vs {base}"
                    );
                }
            }
        }
        // Different keys de-synchronize: across many keys the draws are not
        // all equal (that is the whole point).
        let draws: Vec<u64> = (0..64)
            .map(|k| RetryPolicy::backoff_jittered_on(3, k, 0))
            .collect();
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 8, "keys retry in lockstep: {draws:?}");
        // Distinct cores draw distinct schedules for the same (key, attempt)
        // somewhere — otherwise threading the core id bought nothing.
        assert!((0..64u64).any(|k| {
            RetryPolicy::backoff_jittered_on(2, k, 1) != RetryPolicy::backoff_jittered_on(2, k, 2)
        }));
    }

    #[test]
    fn core_zero_jitter_matches_the_unthreaded_schedule() {
        // The synchronous machine passes core 0 everywhere; its schedule
        // must stay the pre-multi-core draw, pinned here by value.
        let draws: Vec<u64> = (1..=4)
            .flat_map(|attempt| [0, 9].map(|key| RetryPolicy::backoff_jittered_on(attempt, key, 0)))
            .collect();
        assert_eq!(
            draws,
            [4209, 5041, 9621, 8966, 16429, 18167, 34689, 38112],
            "(attempt 1..=4) x (key 0, 9)"
        );
    }

    #[test]
    fn replicas_builder_updates_the_backend_spec() {
        let c = FarMemoryConfig::small().with_shards(4).with_replicas(2);
        c.validate();
        assert_eq!(c.backend, BackendSpec::sharded(4).with_replicas(2));
    }

    #[test]
    #[should_panic(expected = "replication factor 2 exceeds 1 shards")]
    fn rejects_a_second_replica_on_one_node() {
        FarMemoryConfig::small().with_replicas(2).validate();
    }

    #[test]
    #[should_panic(expected = "replication factor")]
    fn rejects_more_replicas_than_shards() {
        FarMemoryConfig::small()
            .with_shards(2)
            .with_replicas(3)
            .validate();
    }

    #[test]
    fn faults_builder_attaches_a_plan() {
        let plan = FaultPlan::drops(11, 5_000);
        let c = FarMemoryConfig::small().with_faults(plan);
        c.validate();
        assert_eq!(c.faults, plan);
        assert!(c.faults.is_active());
    }

    #[test]
    fn backend_builder_selects_sharding() {
        let c = FarMemoryConfig::small().with_shards(4);
        c.validate();
        assert_eq!(c.backend.shard_count(), 4);
        assert!(!c.backend.is_single());
        assert!(FarMemoryConfig::small().backend.is_single());
    }

    #[test]
    #[should_panic(expected = "fault shard")]
    fn rejects_fault_shard_out_of_range() {
        FarMemoryConfig::small()
            .with_backend(BackendSpec::sharded(2).with_fault_shard(7))
            .validate();
    }

    #[test]
    fn builder_style_updates() {
        let c = FarMemoryConfig::small()
            .with_object_size(256)
            .with_local_budget(1 << 20)
            .with_prefetch(false);
        c.validate();
        assert_eq!(c.object_size, 256);
        assert_eq!(c.local_budget, 1 << 20);
        assert!(!c.prefetch.enabled);
    }
}
