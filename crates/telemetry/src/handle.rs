//! The shared telemetry handle.
//!
//! [`Telemetry`] is a cheaply-clonable handle passed to every component of a
//! run (machine, memory system, runtime, link, pager). All clones feed one
//! shared sink, so the histograms, the site table and the span trace see
//! the whole stack on one cycle timeline. A disabled handle (`Telemetry::disabled()`, the default)
//! is a `None` — every probe is a branch on `Option::is_some` and nothing
//! else, which keeps the instrumented hot paths within noise of the
//! un-instrumented ones.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::hist::Histogram;
use crate::site::{SiteKey, SiteStats, SiteTable};
use crate::trace::{Span, SpanId, SpanKind, SpanTracer, TraceSnapshot};

/// The shared sink behind a [`Telemetry`] handle.
#[derive(Clone, Debug)]
pub struct TelemetryInner {
    /// Demand-fetch completion latency (cycles).
    pub fetch_latency: Histogram,
    /// Stall cycles per guarded access (zero for fast paths).
    pub stall_per_access: Histogram,
    /// Object/page residency lifetime (cycles between localize and evict).
    pub residency: Histogram,
    /// Network transfer sizes (bytes, both directions).
    pub transfer_bytes: Histogram,
    /// Extra cycles spent in detect/backoff before a faulted transfer
    /// finally succeeded (one sample per operation that needed retries).
    pub retry_latency: Histogram,
    /// Per-guard-site attribution.
    pub sites: SiteTable,
    /// Causal span tracer — `None` unless the run opted into tracing
    /// ([`Telemetry::traced`]). A second pay-for-use gate: an enabled
    /// sink without a tracer pays one `Option` branch per span probe, so
    /// telemetry-on/tracing-off output stays byte-identical to pre-tracing
    /// builds.
    pub trace: Option<SpanTracer>,
    /// When each currently-resident object/page became resident.
    resident_since: HashMap<u64, u64>,
}

impl TelemetryInner {
    fn new() -> Self {
        Self {
            fetch_latency: Histogram::new(),
            stall_per_access: Histogram::new(),
            residency: Histogram::new(),
            transfer_bytes: Histogram::new(),
            retry_latency: Histogram::new(),
            sites: SiteTable::new(),
            trace: None,
            resident_since: HashMap::new(),
        }
    }
}

/// A handle to a run's telemetry sink; `None` inside means disabled and
/// every probe is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<TelemetryInner>>>,
}

impl Telemetry {
    /// The no-op handle (the default everywhere).
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle without a span tracer.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Rc::new(RefCell::new(TelemetryInner::new()))),
        }
    }

    /// An enabled handle with a causal span tracer attached.
    pub fn traced() -> Self {
        let mut inner = TelemetryInner::new();
        inner.trace = Some(SpanTracer::default());
        Self {
            inner: Some(Rc::new(RefCell::new(inner))),
        }
    }

    /// True when a span tracer is attached (span/timeline probes record).
    #[inline]
    pub fn tracing(&self) -> bool {
        match &self.inner {
            Some(i) => i.borrow().trace.is_some(),
            None => false,
        }
    }

    /// True when probes record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a demand-fetch latency sample.
    #[inline]
    pub fn record_fetch_latency(&self, cycles: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().fetch_latency.record(cycles);
        }
    }

    /// Records the stall contribution of one guarded access.
    #[inline]
    pub fn record_stall(&self, cycles: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().stall_per_access.record(cycles);
        }
    }

    /// Records one network transfer's size.
    #[inline]
    pub fn record_transfer(&self, bytes: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().transfer_bytes.record(bytes);
        }
    }

    /// Records the total retry penalty (detect + backoff cycles) of one
    /// operation that succeeded only after faulted attempts.
    #[inline]
    pub fn record_retry_latency(&self, cycles: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().retry_latency.record(cycles);
        }
    }

    /// Marks `id` (object or page) resident as of `now`, for residency
    /// lifetime accounting.
    #[inline]
    pub fn note_resident(&self, id: u64, now: u64) {
        if let Some(i) = &self.inner {
            i.borrow_mut().resident_since.insert(id, now);
        }
    }

    /// Marks `id` evicted at `now`, recording its residency lifetime.
    #[inline]
    pub fn note_evicted(&self, id: u64, now: u64) {
        if let Some(i) = &self.inner {
            let mut i = i.borrow_mut();
            if let Some(since) = i.resident_since.remove(&id) {
                i.residency.record(now.saturating_sub(since));
            }
        }
    }

    /// Updates a guard site's counters.
    #[inline]
    pub fn record_site(&self, key: SiteKey, f: impl FnOnce(&mut SiteStats)) {
        if let Some(i) = &self.inner {
            f(i.borrow_mut().sites.stats_mut(key));
        }
    }

    /// Opens a span as a child of the innermost open span. No-op (returning
    /// [`SpanId::NONE`]) unless a tracer is attached.
    #[inline]
    pub fn span_begin(&self, kind: SpanKind, arg: u64, cycle: u64) -> SpanId {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                return t.begin(kind, arg, cycle);
            }
        }
        SpanId::NONE
    }

    /// Opens a root span regardless of any open span — for asynchronous
    /// operations (prefetch, writeback) whose lifetime extends past the
    /// operation that triggered them.
    #[inline]
    pub fn span_begin_root(&self, kind: SpanKind, arg: u64, cycle: u64) -> SpanId {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                return t.begin_root(kind, arg, cycle);
            }
        }
        SpanId::NONE
    }

    /// Closes an open span at `cycle`.
    #[inline]
    pub fn span_end(&self, id: SpanId, cycle: u64) {
        if id.is_none() {
            return;
        }
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                t.end(id, cycle);
            }
        }
    }

    /// Closes an open span at `cycle`, reclassifying it as `kind`; with
    /// `keep = false` a childless span is removed entirely.
    #[inline]
    pub fn span_finish(&self, id: SpanId, cycle: u64, kind: SpanKind, keep: bool) {
        if id.is_none() {
            return;
        }
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                t.finish(id, cycle, kind, keep);
            }
        }
    }

    /// Records a complete leaf span under the innermost open span; the
    /// caller fills everything but `parent`.
    #[inline]
    pub fn span_leaf(&self, span: Span) {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                t.leaf(span);
            }
        }
    }

    /// True while a traced operation is open (used to avoid opening a
    /// redundant root span). Always false without a tracer.
    #[inline]
    pub fn span_active(&self) -> bool {
        if let Some(i) = &self.inner {
            if let Some(t) = &i.borrow().trace {
                return t.active();
            }
        }
        false
    }

    /// Sets the worker core stamped onto subsequently recorded spans and
    /// timeline lanes. Called only by the multi-core scheduler before
    /// dispatching each request; single-core runs never call it, so their
    /// traces carry no core tags and render byte-identically.
    #[inline]
    pub fn set_core(&self, core: u32) {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                t.set_core(core);
            }
        }
    }

    /// Timeline probe: one guarded/paged access (`miss` when it went
    /// remote). On a multi-core machine the access also lands on the
    /// current core's lane.
    #[inline]
    pub fn timeline_access(&self, cycle: u64, miss: bool) {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                let core = t.current_core();
                let tl = t.timeline_mut();
                tl.access(cycle, miss);
                if core != Span::NO_CORE {
                    tl.core_access(cycle, core);
                }
            }
        }
    }

    /// Timeline probe: current local occupancy in bytes.
    #[inline]
    pub fn timeline_occupancy(&self, cycle: u64, bytes: u64) {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                t.timeline_mut().occupancy(cycle, bytes);
            }
        }
    }

    /// Timeline probe: one shard-health sample (EWMA fault ppm + degraded
    /// flag).
    #[inline]
    pub fn timeline_shard(&self, cycle: u64, shard: u32, ppm: u64, degraded: bool) {
        if let Some(i) = &self.inner {
            if let Some(t) = &mut i.borrow_mut().trace {
                t.timeline_mut().shard(cycle, shard, ppm, degraded);
            }
        }
    }

    /// A copy of the sink's current contents, or `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.as_ref().map(|i| {
            let i = i.borrow();
            TelemetrySnapshot {
                events_dropped: 0,
                fetch_latency: i.fetch_latency.clone(),
                stall_per_access: i.stall_per_access.clone(),
                residency: i.residency.clone(),
                transfer_bytes: i.transfer_bytes.clone(),
                retry_latency: i.retry_latency.clone(),
                sites: i.sites.clone(),
                trace: i.trace.as_ref().map(|t| t.snapshot()),
            }
        })
    }
}

/// An owned copy of everything a [`Telemetry`] sink collected.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Always 0: nothing is buffered, so nothing is dropped. Kept only
    /// because `tfm-perf` reads it (`benchmark/src/traced.rs`, its pinned
    /// `telemetry.events_dropped` row); it goes once that row does.
    pub events_dropped: u64,
    /// Demand-fetch completion latency (cycles).
    pub fetch_latency: Histogram,
    /// Stall cycles per guarded access.
    pub stall_per_access: Histogram,
    /// Residency lifetime (cycles).
    pub residency: Histogram,
    /// Transfer sizes (bytes).
    pub transfer_bytes: Histogram,
    /// Retry penalty per operation that needed retries (cycles).
    pub retry_latency: Histogram,
    /// Per-guard-site attribution.
    pub sites: SiteTable,
    /// Causal span trace (`None` when tracing was off).
    pub trace: Option<TraceSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record_fetch_latency(10);
        t.record_site(SiteKey::new(0, 0), |s| s.hits += 1);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.record_fetch_latency(100);
        u.record_fetch_latency(300);
        t.record_site(SiteKey::new(0, 7), |s| s.hits += 1);
        u.record_site(SiteKey::new(0, 7), |s| s.hits += 2);
        let s = u.snapshot().unwrap();
        assert_eq!(s.fetch_latency.count(), 2);
        assert_eq!(s.sites.get(SiteKey::new(0, 7)).unwrap().hits, 3);
        assert_eq!(s.events_dropped, 0);
    }

    #[test]
    fn span_probes_are_inert_without_a_tracer() {
        for t in [Telemetry::disabled(), Telemetry::enabled()] {
            assert!(!t.tracing());
            let id = t.span_begin(SpanKind::GuardSlowRemote, 1, 0);
            assert!(id.is_none());
            assert!(!t.span_active());
            t.span_end(id, 10);
            t.timeline_access(0, true);
            if let Some(s) = t.snapshot() {
                assert!(s.trace.is_none());
            }
        }
    }

    #[test]
    fn traced_records_spans_and_timeline() {
        let t = Telemetry::traced();
        assert!(t.tracing() && t.is_enabled());
        let root = t.span_begin(SpanKind::GuardSlowRemote, 7, 100);
        assert!(t.span_active());
        t.span_leaf(Span {
            kind: SpanKind::Transfer,
            start: 100,
            end: 180,
            parent: Span::NO_PARENT,
            arg: 4096,
            wait: 0,
            shard: 0,
            fault: Span::NO_FAULT,
            core: Span::NO_CORE,
        });
        t.span_end(root, 200);
        t.timeline_access(100, true);
        let trace = t.snapshot().unwrap().trace.unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, 0);
        assert_eq!(trace.timeline.misses, vec![1]);
    }

    #[test]
    fn residency_lifetime_tracking() {
        let t = Telemetry::enabled();
        t.note_resident(7, 100);
        t.note_evicted(7, 350);
        // Evicting an unknown id records nothing.
        t.note_evicted(99, 400);
        let s = t.snapshot().unwrap();
        assert_eq!(s.residency.count(), 1);
        assert_eq!(s.residency.max(), 250);
    }
}
