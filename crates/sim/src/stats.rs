//! Execution statistics.

use tfm_fastswap::PagerStats;
use tfm_net::{ShardSnapshot, TransferStats};
use tfm_runtime::RuntimeStats;
use tfm_telemetry::StatGroup;

/// Counters accumulated while interpreting a program.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct ExecStats {
    /// Simulated cycles (the primary performance metric).
    pub cycles: u64,
    /// IR instructions retired.
    pub instructions: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Guard custody checks that exited early (non-TrackFM pointer).
    pub custody_exits: u64,
    /// Fast-path guards taken (object local & safe).
    pub guards_fast: u64,
    /// Slow-path guards where the object was already local.
    pub guards_slow_local: u64,
    /// Slow-path guards requiring a remote fetch (or in-flight wait).
    pub guards_slow_remote: u64,
    /// Chunk object-boundary checks (in-object hits).
    pub boundary_checks: u64,
    /// Chunk locality-invariant guards (object crossings).
    pub locality_guards: u64,
    /// Cycles spent stalled on the network (demand fetches + late
    /// prefetches).
    pub stall_cycles: u64,
}

impl ExecStats {
    /// Total guard events of any kind — the "#guards" series of
    /// Figs. 14b/16b.
    pub fn total_guards(&self) -> u64 {
        self.guards_fast + self.guards_slow_local + self.guards_slow_remote
    }

    /// Total slow-path guards.
    pub fn slow_guards(&self) -> u64 {
        self.guards_slow_local + self.guards_slow_remote
    }
}

impl StatGroup for ExecStats {
    fn group_name(&self) -> &'static str {
        "exec"
    }

    fn stat_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("cycles", self.cycles),
            ("instructions", self.instructions),
            ("loads", self.loads),
            ("stores", self.stores),
            ("custody_exits", self.custody_exits),
            ("guards_fast", self.guards_fast),
            ("guards_slow_local", self.guards_slow_local),
            ("guards_slow_remote", self.guards_slow_remote),
            ("boundary_checks", self.boundary_checks),
            ("locality_guards", self.locality_guards),
            ("stall_cycles", self.stall_cycles),
        ]
    }
}

/// The result of running a program to completion.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The entry function's return value (bit pattern).
    pub ret: u64,
    /// Interpreter counters.
    pub stats: ExecStats,
    /// Far-memory runtime counters (TrackFM/AIFM runs).
    pub runtime: Option<RuntimeStats>,
    /// Pager counters (Fastswap runs).
    pub pager: Option<PagerStats>,
    /// Network ledger (all far-memory runs; aggregated over shards).
    pub transfers: Option<TransferStats>,
    /// Per-shard ledgers and health; empty for single-node backends.
    pub shards: Vec<ShardSnapshot>,
}

impl RunResult {
    /// Simulated seconds at a given clock rate.
    pub fn seconds(&self, hz: f64) -> f64 {
        self.stats.cycles as f64 / hz
    }

    /// Simulated seconds at the paper's 2.4 GHz testbed clock.
    pub fn seconds_2_4ghz(&self) -> f64 {
        self.seconds(2.4e9)
    }

    /// Total bytes moved over the network, if this run used far memory.
    pub fn bytes_transferred(&self) -> u64 {
        self.transfers.map(|t| t.total_bytes()).unwrap_or(0)
    }

    /// Fault-or-guard event count: slow+fast guards for TrackFM runs, major
    /// faults for Fastswap runs (the comparable series of Fig. 14b).
    pub fn guards_or_faults(&self) -> u64 {
        if let Some(p) = self.pager {
            p.major_faults
        } else {
            self.stats.total_guards()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let s = ExecStats {
            guards_fast: 10,
            guards_slow_local: 2,
            guards_slow_remote: 3,
            ..Default::default()
        };
        assert_eq!(s.total_guards(), 15);
        assert_eq!(s.slow_guards(), 5);
    }

    #[test]
    fn seconds_at_clock() {
        let r = RunResult {
            ret: 0,
            stats: ExecStats {
                cycles: 2_400_000_000,
                ..Default::default()
            },
            runtime: None,
            pager: None,
            transfers: None,
            shards: Vec::new(),
        };
        assert!((r.seconds_2_4ghz() - 1.0).abs() < 1e-9);
        assert_eq!(r.bytes_transferred(), 0);
    }
}
