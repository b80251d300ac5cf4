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
use crate::trace::{Span, SpanId, SpanKind, SpanTracer, Trace};

/// Everything a [`Telemetry`] sink collects. The sink records into this
/// struct directly, so [`Telemetry::snapshot`] is its clone.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Always 0: the histograms and the site table aggregate in place and
    /// never drop a sample. (Spans a full arena drops are counted in
    /// [`Trace::dropped`], not here.) Kept only because `tfm-perf` reads it
    /// (`benchmark/src/traced.rs`, its pinned `telemetry.events_dropped`
    /// row); it goes once that row does.
    pub events_dropped: u64,
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
    /// Causal span trace — `None` unless the run opted into tracing
    /// ([`Telemetry::traced`]). A second pay-for-use gate: an enabled
    /// sink without a trace pays one `Option` branch per span probe, so
    /// telemetry-on/tracing-off output stays byte-identical to pre-tracing
    /// builds.
    pub trace: Option<Trace>,
}

/// The shared sink: the record, plus the bookkeeping that feeds it but is
/// not part of it.
#[derive(Debug, Default)]
struct Sink {
    record: TelemetrySnapshot,
    /// When each currently-resident object/page became resident.
    resident_since: HashMap<u64, u64>,
    /// Open spans and current core for `record.trace`.
    tracer: SpanTracer,
}

/// A handle to a run's telemetry sink; `None` inside means disabled and
/// every probe is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    sink: Option<Rc<RefCell<Sink>>>,
}

impl Telemetry {
    /// The no-op handle (the default everywhere).
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    fn with_trace(trace: Option<Trace>) -> Self {
        let mut sink = Sink::default();
        sink.record.trace = trace;
        Self {
            sink: Some(Rc::new(RefCell::new(sink))),
        }
    }

    /// An enabled handle without a span trace.
    pub fn enabled() -> Self {
        Self::with_trace(None)
    }

    /// An enabled handle recording a causal span trace.
    pub fn traced() -> Self {
        Self::with_trace(Some(Trace::default()))
    }

    /// True when a span trace records (span/timeline probes record).
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink
            .as_ref()
            .is_some_and(|s| s.borrow().record.trace.is_some())
    }

    /// True when probes record anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Runs `f` on the record when enabled.
    #[inline]
    fn record(&self, f: impl FnOnce(&mut TelemetrySnapshot)) {
        if let Some(s) = &self.sink {
            f(&mut s.borrow_mut().record);
        }
    }

    /// Runs `f` on the tracer and its trace when tracing.
    #[inline]
    fn trace<R>(&self, f: impl FnOnce(&mut SpanTracer, &mut Trace) -> R) -> Option<R> {
        let sink = &mut *self.sink.as_ref()?.borrow_mut();
        let trace = sink.record.trace.as_mut()?;
        Some(f(&mut sink.tracer, trace))
    }

    /// Records a demand-fetch latency sample.
    #[inline]
    pub fn record_fetch_latency(&self, cycles: u64) {
        self.record(|r| r.fetch_latency.record(cycles));
    }

    /// Records the stall contribution of one guarded access.
    #[inline]
    pub fn record_stall(&self, cycles: u64) {
        self.record(|r| r.stall_per_access.record(cycles));
    }

    /// Records one network transfer's size.
    #[inline]
    pub fn record_transfer(&self, bytes: u64) {
        self.record(|r| r.transfer_bytes.record(bytes));
    }

    /// Records the total retry penalty (detect + backoff cycles) of one
    /// operation that succeeded only after faulted attempts.
    #[inline]
    pub fn record_retry_latency(&self, cycles: u64) {
        self.record(|r| r.retry_latency.record(cycles));
    }

    /// Marks `id` (object or page) resident as of `now`, for residency
    /// lifetime accounting.
    #[inline]
    pub fn note_resident(&self, id: u64, now: u64) {
        if let Some(s) = &self.sink {
            s.borrow_mut().resident_since.insert(id, now);
        }
    }

    /// Marks `id` evicted at `now`, recording its residency lifetime.
    #[inline]
    pub fn note_evicted(&self, id: u64, now: u64) {
        if let Some(s) = &self.sink {
            let s = &mut *s.borrow_mut();
            if let Some(since) = s.resident_since.remove(&id) {
                s.record.residency.record(now.saturating_sub(since));
            }
        }
    }

    /// Updates a guard site's counters.
    #[inline]
    pub fn record_site(&self, key: SiteKey, f: impl FnOnce(&mut SiteStats)) {
        self.record(|r| f(r.sites.stats_mut(key)));
    }

    /// Opens a span as a child of the innermost open span. No-op (returning
    /// [`SpanId::NONE`]) unless tracing.
    #[inline]
    pub fn span_begin(&self, kind: SpanKind, arg: u64, cycle: u64) -> SpanId {
        self.trace(|t, tr| t.begin(tr, kind, arg, cycle))
            .unwrap_or(SpanId::NONE)
    }

    /// Opens a root span regardless of any open span — for asynchronous
    /// operations (prefetch, writeback) whose lifetime extends past the
    /// operation that triggered them.
    #[inline]
    pub fn span_begin_root(&self, kind: SpanKind, arg: u64, cycle: u64) -> SpanId {
        self.trace(|t, tr| t.begin_root(tr, kind, arg, cycle))
            .unwrap_or(SpanId::NONE)
    }

    /// Closes an open span at `cycle`.
    #[inline]
    pub fn span_end(&self, id: SpanId, cycle: u64) {
        if !id.is_none() {
            self.trace(|t, tr| t.end(tr, id, cycle));
        }
    }

    /// Closes an open span at `cycle`, reclassifying it as `kind`; with
    /// `keep = false` a childless span is removed entirely.
    #[inline]
    pub fn span_finish(&self, id: SpanId, cycle: u64, kind: SpanKind, keep: bool) {
        if !id.is_none() {
            self.trace(|t, tr| t.finish(tr, id, cycle, kind, keep));
        }
    }

    /// Records a complete leaf span under the innermost open span (build
    /// it with [`Span::leaf`]; the tracer stamps `parent` and `core`).
    #[inline]
    pub fn span_leaf(&self, span: Span) {
        self.trace(|t, tr| t.leaf(tr, span));
    }

    /// True while a traced operation is open (used to avoid opening a
    /// redundant root span). Always false without a trace.
    #[inline]
    pub fn span_active(&self) -> bool {
        self.trace(|t, _| t.active()).unwrap_or(false)
    }

    /// Sets the worker core stamped onto subsequently recorded spans and
    /// timeline lanes. Called only by the multi-core scheduler before
    /// dispatching each request; single-core runs never call it, so their
    /// traces carry no core tags and render byte-identically.
    #[inline]
    pub fn set_core(&self, core: u32) {
        self.trace(|t, _| t.set_core(core));
    }

    /// Timeline probe: one guarded/paged access (`miss` when it went
    /// remote). On a multi-core machine the access also lands on the
    /// current core's lane.
    #[inline]
    pub fn timeline_access(&self, cycle: u64, miss: bool) {
        self.trace(|t, tr| {
            tr.timeline.access(cycle, miss);
            if t.current_core() != Span::NO_CORE {
                tr.timeline.core_access(cycle, t.current_core());
            }
        });
    }

    /// Timeline probe: current local occupancy in bytes.
    #[inline]
    pub fn timeline_occupancy(&self, cycle: u64, bytes: u64) {
        self.trace(|_, tr| tr.timeline.occupancy(cycle, bytes));
    }

    /// Timeline probe: one shard-health sample (EWMA fault ppm + degraded
    /// flag).
    #[inline]
    pub fn timeline_shard(&self, cycle: u64, shard: u32, ppm: u64, degraded: bool) {
        self.trace(|_, tr| tr.timeline.shard(cycle, shard, ppm, degraded));
    }

    /// A copy of the record collected so far, or `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.sink.as_ref().map(|s| s.borrow().record.clone())
    }
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
            shard: 0,
            ..Span::leaf(SpanKind::Transfer, 100, 180, 4096)
        });
        t.span_end(root, 200);
        t.timeline_access(100, true);
        let trace = t.snapshot().unwrap().trace.unwrap();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, 0);
        assert_eq!(trace.timeline.misses(), [1]);
    }

    #[test]
    fn a_snapshot_does_not_move_when_later_probes_record() {
        let t = Telemetry::traced();
        t.record_fetch_latency(100);
        t.record_site(SiteKey::new(0, 7), |s| s.hits += 1);
        let g = t.span_begin(SpanKind::GuardSlowRemote, 7, 0);
        t.span_end(g, 50);
        t.timeline_access(10, true);
        t.note_resident(3, 0);
        let before = t.snapshot().unwrap();
        let kept = format!("{before:?}");
        t.record_fetch_latency(900);
        t.record_stall(5);
        t.record_transfer(4096);
        t.record_retry_latency(70);
        t.note_evicted(3, 400);
        t.record_site(SiteKey::new(0, 7), |s| s.hits += 1);
        t.record_site(SiteKey::new(0, 8), |s| s.hits += 1);
        t.span_leaf(Span::leaf(SpanKind::Transfer, 60, 90, 64));
        t.set_core(1);
        t.timeline_access(5 * crate::trace::BUCKET_CYCLES, true);
        t.timeline_occupancy(20, 8192);
        t.timeline_shard(20, 1, 9, true);
        assert_eq!(format!("{before:?}"), kept);
        assert_ne!(format!("{:?}", t.snapshot().unwrap()), kept);
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
