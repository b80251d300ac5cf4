//! Per-guard-site attribution.
//!
//! A *site* is one guard-bearing IR instruction in the compiled module,
//! identified by the stable pair (function index, value index). The site
//! table accumulates fast/slow outcomes, cycles, and stall cycles per site
//! so the runner can answer "*which* guard is slow" — the data behind the
//! paper's per-workload breakdown figures.

use std::collections::HashMap;

/// Stable identifier of a guard site: `(function index << 32) | value index`
/// in the compiled module. Stable for a given compiled module, cheap to
/// carry through the interpreter hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteKey(pub u64);

impl SiteKey {
    /// Builds a key from function and value indices.
    pub fn new(func: u32, value: u32) -> Self {
        Self(((func as u64) << 32) | value as u64)
    }

    /// Function index of the site.
    pub fn func(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Value (instruction) index of the site.
    pub fn value(self) -> u32 {
        self.0 as u32
    }
}

impl std::fmt::Display for SiteKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}:v{}", self.func(), self.value())
    }
}

/// Accumulated per-site counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Total executions of the site.
    pub hits: u64,
    /// Fast-path executions.
    pub fast: u64,
    /// Slow-path executions resolved without a transfer.
    pub slow_local: u64,
    /// Slow-path executions that fetched from remote.
    pub slow_remote: u64,
    /// Custody-check failures attributed to the site.
    pub custody_exits: u64,
    /// Total cycles charged at the site (checks + stalls).
    pub cycles: u64,
    /// Cycles spent stalled on the network at the site.
    pub stall_cycles: u64,
    /// Duplicate guards statically folded into this (surviving) site by
    /// redundant-guard elimination. Recorded at compile time, so every run
    /// shows which hot sites absorbed how many deleted checks.
    pub elided: u64,
}

impl SiteStats {
    /// Slow-path executions of either flavor.
    pub fn slow(&self) -> u64 {
        self.slow_local + self.slow_remote
    }
}

/// Counters keyed by [`SiteKey`].
#[derive(Clone, Debug, Default)]
pub struct SiteTable {
    map: HashMap<SiteKey, SiteStats>,
}

impl SiteTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct sites seen.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no site has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Mutable access to a site's counters, creating them on first use.
    #[inline]
    pub fn stats_mut(&mut self, key: SiteKey) -> &mut SiteStats {
        self.map.entry(key).or_default()
    }

    /// A site's counters, if it was ever recorded.
    pub fn get(&self, key: SiteKey) -> Option<&SiteStats> {
        self.map.get(&key)
    }

    /// All `(key, stats)` pairs, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (SiteKey, &SiteStats)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }

    /// The `n` sites with the most stall cycles (ties broken by total
    /// cycles, then key, so the order is deterministic).
    pub fn top_by_stall(&self, n: usize) -> Vec<(SiteKey, SiteStats)> {
        let mut rows: Vec<(SiteKey, SiteStats)> = self.map.iter().map(|(k, v)| (*k, *v)).collect();
        rows.sort_by(|a, b| {
            b.1.stall_cycles
                .cmp(&a.1.stall_cycles)
                .then(b.1.cycles.cmp(&a.1.cycles))
                .then(a.0.cmp(&b.0))
        });
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_packs_and_unpacks() {
        let k = SiteKey::new(7, 42);
        assert_eq!(k.func(), 7);
        assert_eq!(k.value(), 42);
        assert_eq!(k.to_string(), "f7:v42");
        assert_eq!(SiteKey::new(u32::MAX, u32::MAX).func(), u32::MAX);
    }

    #[test]
    fn top_by_stall_orders_deterministically() {
        let mut t = SiteTable::new();
        t.stats_mut(SiteKey::new(0, 1)).stall_cycles = 10;
        t.stats_mut(SiteKey::new(0, 2)).stall_cycles = 30;
        t.stats_mut(SiteKey::new(0, 3)).stall_cycles = 20;
        // Tie on stall; broken by cycles.
        t.stats_mut(SiteKey::new(0, 4)).stall_cycles = 10;
        t.stats_mut(SiteKey::new(0, 4)).cycles = 5;
        let top = t.top_by_stall(3);
        assert_eq!(top[0].0, SiteKey::new(0, 2));
        assert_eq!(top[1].0, SiteKey::new(0, 3));
        assert_eq!(top[2].0, SiteKey::new(0, 4));
    }
}
