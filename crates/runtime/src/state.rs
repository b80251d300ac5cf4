//! The TrackFM object state table.
//!
//! §3.2: "TrackFM eliminates one of these operations by maintaining an
//! object state table, an optimization that caches object metadata in a
//! contiguous lookup table, allowing us to perform a simple index calculation
//! rather than an indirect memory reference to derive object metadata. [...]
//! The object state table contains metadata entries (8B each) for each
//! object in the system."
//!
//! Each entry is one `u64`: status flags in the high bits (including whose
//! fetch is in flight — a core's or the prefetcher's), a pin count, and the
//! asynchronous-fetch ready cycle in the low bits. The compiler-injected
//! fast-path guard (Fig. 4) tests a single mask against this entry.

use crate::ptr::ObjId;

/// Object is resident in local memory.
pub const PRESENT: u64 = 1 << 63;
/// Object has local modifications not yet written back.
pub const DIRTY: u64 = 1 << 62;
/// CLOCK reference bit, set on access, cleared by the evacuator's hand.
pub const HOT: u64 = 1 << 61;
/// An asynchronous fetch — a prefetch, or a core's with `DEMAND` — is
/// outstanding; the evacuator may claim either kind once it has landed.
pub const INFLIGHT: u64 = 1 << 60;
/// The outstanding fetch is a core's demand fetch, issued without blocking
/// (DESIGN.md §6h), not a prefetch: a second core missing the object joins
/// it rather than waiting it out as a late prefetch, and a prefetch's own
/// reclaim scan may claim it once landed (that scan leaves landed prefetches
/// alone). Only ever set together with [`INFLIGHT`].
pub(crate) const DEMAND: u64 = 1 << 58;

const PIN_SHIFT: u32 = 48;
const PIN_MASK: u64 = 0xFF << PIN_SHIFT;
const PAYLOAD_MASK: u64 = (1 << PIN_SHIFT) - 1;

/// Mask of the bits that must be *exactly* `PRESENT` for the fast path: the
/// object is local and no fetch is racing it. This is the "is object safe
/// (localized)?" test of Fig. 4 line 6.
pub const SAFETY_MASK: u64 = PRESENT | INFLIGHT;

/// The contiguous metadata table: one 8-byte entry per object.
#[derive(Clone, Debug)]
pub struct StateTable {
    entries: Vec<u64>,
}

impl StateTable {
    /// Creates a table for `num_objects` objects, all remote/clean.
    pub fn new(num_objects: u64) -> Self {
        StateTable {
            entries: vec![0; num_objects as usize],
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Table size in bytes (8 B per entry) — the overhead discussed in §3.2
    /// ("a 32 GB remote heap [...] would need 2^23 entries [...] thus
    /// consuming 64 MB for the full table").
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        self.entries.len() as u64 * 8
    }

    /// The raw entry.
    #[inline]
    pub fn entry(&self, o: ObjId) -> u64 {
        self.entries[o.index()]
    }

    /// The single-load fast-path test (Fig. 4): safe iff present and neither
    /// in-flight nor being evacuated.
    #[inline]
    pub fn is_safe(&self, o: ObjId) -> bool {
        self.entries[o.index()] & SAFETY_MASK == PRESENT
    }

    /// True if the object is resident.
    #[inline]
    pub fn is_present(&self, o: ObjId) -> bool {
        self.entries[o.index()] & PRESENT != 0
    }

    /// True if the object has unwritten local modifications.
    #[inline]
    pub fn is_dirty(&self, o: ObjId) -> bool {
        self.entries[o.index()] & DIRTY != 0
    }

    /// True if an async fetch is outstanding.
    #[inline]
    pub fn is_inflight(&self, o: ObjId) -> bool {
        self.entries[o.index()] & INFLIGHT != 0
    }

    /// Number of entries with any of `flags` set (a full scan: for audits
    /// and tests, not for hot paths).
    pub(crate) fn count(&self, flags: u64) -> usize {
        self.entries.iter().filter(|&&e| e & flags != 0).count()
    }

    /// Sets flag bits.
    #[inline]
    pub fn set(&mut self, o: ObjId, flags: u64) {
        self.entries[o.index()] |= flags;
        self.debug_check(o);
    }

    /// Clears flag bits.
    #[inline]
    pub fn clear(&mut self, o: ObjId, flags: u64) {
        self.entries[o.index()] &= !flags;
        self.debug_check(o);
    }

    /// What `set` and `clear` must leave true: `DEMAND` qualifies `INFLIGHT`.
    #[inline]
    fn debug_check(&self, o: ObjId) {
        let e = self.entries[o.index()];
        debug_assert!(
            e & DEMAND == 0 || e & INFLIGHT != 0,
            "DEMAND without INFLIGHT on {o}"
        );
    }

    /// Pin count (objects with pins are never evacuated; this is how the
    /// DerefScope / chunk locality invariant is enforced).
    #[inline]
    pub fn pins(&self, o: ObjId) -> u32 {
        ((self.entries[o.index()] & PIN_MASK) >> PIN_SHIFT) as u32
    }

    /// Increments the pin count.
    ///
    /// # Panics
    /// Panics if the 8-bit pin count would overflow.
    #[inline]
    pub fn pin(&mut self, o: ObjId) {
        let e = &mut self.entries[o.index()];
        let pins = (*e & PIN_MASK) >> PIN_SHIFT;
        assert!(pins < 0xFF, "pin count overflow on {o}");
        *e = (*e & !PIN_MASK) | ((pins + 1) << PIN_SHIFT);
    }

    /// Decrements the pin count.
    ///
    /// # Panics
    /// Panics on unpin of an unpinned object.
    #[inline]
    pub fn unpin(&mut self, o: ObjId) {
        let e = &mut self.entries[o.index()];
        let pins = (*e & PIN_MASK) >> PIN_SHIFT;
        assert!(pins > 0, "unpin of unpinned {o}");
        *e = (*e & !PIN_MASK) | ((pins - 1) << PIN_SHIFT);
    }

    /// Stores the ready-cycle payload for an in-flight fetch (low 48 bits).
    #[inline]
    pub fn set_ready_cycle(&mut self, o: ObjId, cycle: u64) {
        debug_assert!(cycle <= PAYLOAD_MASK, "simulated time overflowed 48 bits");
        let e = &mut self.entries[o.index()];
        *e = (*e & !PAYLOAD_MASK) | (cycle & PAYLOAD_MASK);
    }

    /// Reads the ready-cycle payload.
    #[inline]
    pub fn ready_cycle(&self, o: ObjId) -> u64 {
        self.entries[o.index()] & PAYLOAD_MASK
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_is_all_remote() {
        let t = StateTable::new(16);
        assert_eq!(t.len(), 16);
        assert!(!t.is_empty());
        assert_eq!(t.size_bytes(), 128);
        for i in 0..16 {
            let o = ObjId(i);
            assert!(!t.is_present(o));
            assert!(!t.is_safe(o));
            assert_eq!(t.pins(o), 0);
        }
    }

    #[test]
    fn table_overhead_matches_paper_example() {
        // 32 GB heap / 4 KB objects = 2^23 entries = 64 MB of table.
        let t = StateTable::new((32 * (1u64 << 30)) >> 12);
        assert_eq!(t.len() as u64, 1 << 23);
        assert_eq!(t.size_bytes(), 64 << 20);
    }

    #[test]
    fn safety_requires_present_and_quiescent() {
        let mut t = StateTable::new(4);
        let o = ObjId(1);
        t.set(o, PRESENT);
        assert!(t.is_safe(o));
        t.set(o, INFLIGHT);
        assert!(!t.is_safe(o));
        t.clear(o, INFLIGHT);
        assert!(t.is_safe(o));
        // Dirty/hot do not affect safety.
        t.set(o, DIRTY | HOT);
        assert!(t.is_safe(o));
    }

    #[test]
    fn pin_counting() {
        let mut t = StateTable::new(2);
        let o = ObjId(0);
        t.pin(o);
        t.pin(o);
        assert_eq!(t.pins(o), 2);
        t.unpin(o);
        assert_eq!(t.pins(o), 1);
        t.unpin(o);
        assert_eq!(t.pins(o), 0);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned")]
    fn unpin_underflow_panics() {
        let mut t = StateTable::new(1);
        t.unpin(ObjId(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "DEMAND without INFLIGHT")]
    fn demand_may_not_outlive_inflight() {
        let mut t = StateTable::new(1);
        t.set(ObjId(0), INFLIGHT | DEMAND);
        t.clear(ObjId(0), INFLIGHT);
    }

    #[test]
    fn ready_cycle_payload_is_independent_of_flags() {
        let mut t = StateTable::new(1);
        let o = ObjId(0);
        t.set(o, INFLIGHT | DIRTY);
        t.pin(o);
        t.set_ready_cycle(o, 123_456_789);
        assert_eq!(t.ready_cycle(o), 123_456_789);
        assert!(t.is_inflight(o));
        assert!(t.is_dirty(o));
        assert_eq!(t.pins(o), 1);
        t.set_ready_cycle(o, 7);
        assert_eq!(t.ready_cycle(o), 7);
        assert_eq!(t.pins(o), 1);
    }
}
