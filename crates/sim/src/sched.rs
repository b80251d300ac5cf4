//! Deterministic cooperative multi-core scheduling (DESIGN.md §6h).
//!
//! The multi-core machine is **simulated**, not threaded: one shared
//! [`Machine`] executes requests serially, and a [`CoreSet`] tracks N
//! per-core simulated-cycle clocks. For each request, the driver picks the
//! core that frees up earliest (fixed round-robin on ties: lowest id wins),
//! warps the machine's clock to `max(core clock, arrival cycle)`, tags the
//! machine with the core id, runs the request synchronously, and charges
//! the elapsed cycles back to that core. Overlap comes from the far-memory
//! layer's split issue/complete protocol: a core that misses is charged
//! only to the issue point, and the next request — possibly on another
//! core at an earlier simulated time — can join the pending fetch instead
//! of issuing its own.
//!
//! Everything is a pure function of the inputs: no OS threads, no wall
//! clocks, no atomics — the same seed and config produce bit-identical
//! core clocks, stats and traces on every run. With one core the driver
//! degenerates to today's synchronous machine (no async fetch, no core
//! tagging), which the concurrency tests and bench gate pin bitwise.
//!
//! [`Machine`]: crate::Machine

/// Per-core simulated-cycle clocks with deterministic next-core selection.
#[derive(Clone, Debug)]
pub struct CoreSet {
    clocks: Vec<u64>,
}

impl CoreSet {
    /// A set of `n` cores (min 1), all starting at cycle 0.
    pub fn new(n: u32) -> Self {
        CoreSet {
            clocks: vec![0; n.max(1) as usize],
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Always false — a set has at least one core (clippy convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// A core's current clock.
    pub fn clock(&self, core: u32) -> u64 {
        self.clocks[core as usize]
    }

    /// The core to dispatch the next request on: earliest clock, lowest id
    /// on ties. Pure function of the clocks — this is what makes the
    /// schedule reproducible.
    pub fn pick(&self) -> u32 {
        let mut best = 0usize;
        for (i, &c) in self.clocks.iter().enumerate().skip(1) {
            if c < self.clocks[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Starts a request on `core` that arrived at `arrival`: returns the
    /// dispatch cycle `max(core clock, arrival)` (a core cannot serve a
    /// request before it arrives, and a request cannot start before its
    /// core frees up).
    pub fn begin(&self, core: u32, arrival: u64) -> u64 {
        self.clocks[core as usize].max(arrival)
    }

    /// Completes a request on `core` at cycle `end`, advancing its clock.
    /// Clocks never move backwards (an `end` before the current clock —
    /// possible when a joined fetch lands early — leaves it unchanged).
    pub fn finish(&mut self, core: u32, end: u64) {
        let c = &mut self.clocks[core as usize];
        *c = (*c).max(end);
    }

    /// The makespan: the latest core clock (the run's wall time in
    /// simulated cycles).
    pub fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_least_one_core_and_zeroed_clocks() {
        let s = CoreSet::new(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.clock(0), 0);
        assert_eq!(s.makespan(), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn pick_prefers_earliest_clock_then_lowest_id() {
        let mut s = CoreSet::new(3);
        assert_eq!(s.pick(), 0, "all equal: lowest id");
        s.finish(0, 100);
        assert_eq!(s.pick(), 1);
        s.finish(1, 100);
        assert_eq!(s.pick(), 2);
        s.finish(2, 50);
        assert_eq!(s.pick(), 2, "strictly earliest wins");
        s.finish(2, 100);
        assert_eq!(s.pick(), 0, "ties resolve round-robin-stable to id 0");
    }

    #[test]
    fn begin_respects_both_core_clock_and_arrival() {
        let mut s = CoreSet::new(2);
        s.finish(0, 500);
        assert_eq!(s.begin(0, 100), 500, "core busy past the arrival");
        assert_eq!(s.begin(1, 100), 100, "idle core waits for the arrival");
    }

    #[test]
    fn finish_never_rewinds_a_clock() {
        let mut s = CoreSet::new(1);
        s.finish(0, 300);
        s.finish(0, 200);
        assert_eq!(s.clock(0), 300);
    }

    #[test]
    fn makespan_is_the_latest_core_clock() {
        let mut s = CoreSet::new(4);
        for (core, end) in [(0u32, 40u64), (1, 90), (2, 10), (3, 60)] {
            s.finish(core, end);
        }
        assert_eq!(s.makespan(), 90);
    }

    #[test]
    fn a_schedule_is_a_pure_function_of_its_inputs() {
        let run = || {
            let mut s = CoreSet::new(3);
            let mut order = Vec::new();
            for (i, arrival) in (0..12u64).map(|i| (i, i * 7)) {
                let core = s.pick();
                let start = s.begin(core, arrival);
                s.finish(core, start + 100 + (i % 3) * 40);
                order.push((core, start));
            }
            (order, s.makespan())
        };
        assert_eq!(run(), run(), "bit-identical schedules run to run");
    }
}
