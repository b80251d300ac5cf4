//! Runtime event counters.

use std::fmt;

use tfm_telemetry::StatGroup;

/// Counters maintained by the far-memory runtime.
///
/// Guard-path counters (fast/slow path hits) belong to the execution engine;
/// these are the runtime-internal events: fetches, prefetch outcomes,
/// evacuations.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct RuntimeStats {
    /// Synchronous (demand) remote fetches.
    pub remote_fetches: u64,
    /// Asynchronous fetches issued by the prefetcher.
    pub prefetch_issued: u64,
    /// Prefetches that completed before first use (fully hidden latency).
    /// A landed prefetch that a demand scan claimed first (it turns
    /// `PRESENT`) is not counted: its first use takes the fast path.
    pub prefetch_hits: u64,
    /// Prefetches still in flight at first use (partially hidden latency).
    pub prefetch_late: u64,
    /// Objects evacuated to the remote node.
    pub evictions: u64,
    /// Evacuations that had to write dirty data back.
    pub writebacks: u64,
    /// Times the evacuator could not reach the budget because every resident
    /// object was pinned or in flight.
    pub budget_overruns: u64,
    /// Successful allocations.
    pub allocations: u64,
    /// Frees.
    pub frees: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
    /// Link faults observed by runtime operations (each failed attempt).
    pub link_faults: u64,
    /// Retries issued after faulted attempts (localize + writeback).
    pub retries: u64,
    /// Operations that blew through the per-operation retry deadline.
    pub deadline_exceeded: u64,
    /// In-flight prefetches cancelled because their transfer faulted.
    pub prefetch_canceled: u64,
    /// Prefetches suppressed because the link was degraded.
    pub prefetch_suppressed: u64,
    /// Writebacks deferred (object kept resident+dirty) after exhausting
    /// retry attempts.
    pub writeback_deferrals: u64,
    /// Transitions into degraded mode.
    pub degradations: u64,
    /// Shards observed crashing (Up/Suspect → Down transitions).
    pub shard_downs: u64,
    /// Shard recoveries completed (ack ledger resynced, shard rejoined).
    pub shard_recoveries: u64,
    /// Acknowledged objects re-synced onto recovering shards.
    pub resynced_objects: u64,
    /// Objects re-replicated off Down shards onto substitutes.
    pub re_replications: u64,
    /// Acknowledged writebacks found unrecoverable during resync (must stay
    /// zero under replication — the chaos suite pins this).
    pub lost_objects: u64,
    /// Demand misses that joined another core's pending fetch instead of
    /// issuing their own transfer (multi-core in-flight fetch table; always
    /// zero on the synchronous single-core machine).
    pub fetch_joins: u64,
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fetches: {}, prefetch: {} issued / {} hit / {} late, evictions: {} ({} dirty), \
             overruns: {}, allocs: {} / frees: {}, peak resident: {} B",
            self.remote_fetches,
            self.prefetch_issued,
            self.prefetch_hits,
            self.prefetch_late,
            self.evictions,
            self.writebacks,
            self.budget_overruns,
            self.allocations,
            self.frees,
            self.peak_resident_bytes
        )?;
        if self.link_faults > 0 || self.retries > 0 || self.degradations > 0 {
            write!(
                f,
                ", link faults: {} / retries: {} / deadline misses: {}, \
                 prefetch canceled: {} / suppressed: {}, wb deferrals: {}, \
                 degradations: {}",
                self.link_faults,
                self.retries,
                self.deadline_exceeded,
                self.prefetch_canceled,
                self.prefetch_suppressed,
                self.writeback_deferrals,
                self.degradations
            )?;
        }
        if self.shard_downs > 0 || self.shard_recoveries > 0 || self.re_replications > 0 {
            write!(
                f,
                ", shard downs: {} / recoveries: {}, resynced: {} / re-replicated: {} / lost: {}",
                self.shard_downs,
                self.shard_recoveries,
                self.resynced_objects,
                self.re_replications,
                self.lost_objects
            )?;
        }
        if self.fetch_joins > 0 {
            write!(f, ", fetch joins: {}", self.fetch_joins)?;
        }
        Ok(())
    }
}

impl StatGroup for RuntimeStats {
    fn group_name(&self) -> &'static str {
        "runtime"
    }

    fn stat_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("remote_fetches", self.remote_fetches),
            ("prefetch_issued", self.prefetch_issued),
            ("prefetch_hits", self.prefetch_hits),
            ("prefetch_late", self.prefetch_late),
            ("evictions", self.evictions),
            ("writebacks", self.writebacks),
            ("budget_overruns", self.budget_overruns),
            ("allocations", self.allocations),
            ("frees", self.frees),
            ("peak_resident_bytes", self.peak_resident_bytes),
            ("link_faults", self.link_faults),
            ("retries", self.retries),
            ("deadline_exceeded", self.deadline_exceeded),
            ("prefetch_canceled", self.prefetch_canceled),
            ("prefetch_suppressed", self.prefetch_suppressed),
            ("writeback_deferrals", self.writeback_deferrals),
            ("degradations", self.degradations),
            ("shard_downs", self.shard_downs),
            ("shard_recoveries", self.shard_recoveries),
            ("resynced_objects", self.resynced_objects),
            ("re_replications", self.re_replications),
            ("lost_objects", self.lost_objects),
            ("fetch_joins", self.fetch_joins),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed_and_displays() {
        let s = RuntimeStats::default();
        assert_eq!(s.remote_fetches, 0);
        assert_eq!(s.evictions, 0);
        let text = s.to_string();
        assert!(text.contains("fetches: 0"));
        assert!(text.contains("evictions: 0"));
    }

    #[test]
    fn display_includes_every_counter() {
        // Regression: overruns/allocations/frees used to be silently
        // dropped from the Display output.
        let s = RuntimeStats {
            budget_overruns: 7,
            allocations: 8,
            frees: 9,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("overruns: 7"), "{text}");
        assert!(text.contains("allocs: 8"), "{text}");
        assert!(text.contains("frees: 9"), "{text}");
    }

    #[test]
    fn stat_fields_cover_every_display_counter() {
        let s = RuntimeStats {
            remote_fetches: 1,
            prefetch_issued: 2,
            prefetch_hits: 3,
            prefetch_late: 4,
            evictions: 5,
            writebacks: 6,
            budget_overruns: 7,
            allocations: 8,
            frees: 9,
            peak_resident_bytes: 10,
            link_faults: 11,
            retries: 12,
            deadline_exceeded: 13,
            prefetch_canceled: 14,
            prefetch_suppressed: 15,
            writeback_deferrals: 16,
            degradations: 17,
            shard_downs: 18,
            shard_recoveries: 19,
            resynced_objects: 20,
            re_replications: 21,
            lost_objects: 22,
            fetch_joins: 23,
        };
        let fields = s.stat_fields();
        assert_eq!(fields.len(), 23);
        let vals: Vec<u64> = fields.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, (1..=23).collect::<Vec<u64>>());
    }

    #[test]
    fn display_shows_fault_counters_only_when_present() {
        let clean = RuntimeStats::default().to_string();
        assert!(!clean.contains("link faults"), "{clean}");
        let faulty = RuntimeStats {
            link_faults: 3,
            retries: 2,
            writeback_deferrals: 1,
            ..Default::default()
        }
        .to_string();
        assert!(faulty.contains("link faults: 3"), "{faulty}");
        assert!(faulty.contains("retries: 2"), "{faulty}");
        assert!(faulty.contains("wb deferrals: 1"), "{faulty}");
    }
}
