//! Causal span tracing and windowed time-series metrics.
//!
//! The stats counters and histograms aggregate: they say *how much* but
//! never *why this operation was slow*. This module adds the missing causal
//! layer — a span tree stamped in simulated cycles:
//!
//! * a **root span** per runtime operation (guard slow path, demand fetch,
//!   prefetch, writeback, major/minor fault);
//! * **child spans** for everything the operation waited on: each backend
//!   transfer attempt (tagged with its queueing delay and any injected
//!   fault), each retry (tagged with its backoff wait), and each round of
//!   kernel fault handling —
//!
//! so an operation's latency decomposes into queueing vs transfer vs
//! retry-backoff vs kernel components. The span arena is fixed-capacity and
//! allocation-free after construction: once full, new spans are counted as
//! dropped and their children attach to the enclosing span (deterministic
//! degradation, never reallocation on the hot path).
//!
//! Because the simulation is synchronous and single-threaded, parenting is
//! implicit: a stack of open spans lives in the tracer, and every new span
//! (or leaf) attaches to the innermost open one. Asynchronous operations
//! (prefetch, writeback) open *root* spans — their completion extends past
//! the operation that triggered them, so nesting them under it would lie
//! about latency attribution.
//!
//! A windowed [`Timeline`] rides along: per-N-cycle buckets of access/miss
//! counts, local occupancy, and per-shard health (EWMA fault ppm + degraded
//! windows), rendered as a `timeline` section in the run report plus a
//! human sparkline view.
//!
//! The spans, the dropped count and the timeline are one record, [`Trace`];
//! the [`SpanTracer`] beside it holds only the open-span stack and the
//! current core, so a snapshot of a trace is a clone of the record. Two
//! exporters turn a [`Trace`] into standard tooling formats:
//! [`Trace::chrome_trace`] (Chrome trace-event JSON, loadable in
//! Perfetto / `chrome://tracing`, with per-shard link tracks) and
//! [`Trace::folded_stacks`] (Brendan-Gregg folded stacks keyed by
//! the stable guard-site labels, weighted in simulated cycles — pipe into
//! any flamegraph renderer).
//!
//! Tracing is pay-for-use twice over: a disabled [`Telemetry`] handle skips
//! everything, and an enabled handle without a trace pays one `Option`
//! branch per probe — simulated cycles and report bytes are identical with
//! tracing off (asserted by the `tracing-off` row of
//! `tests/identity_matrix.rs`).
//!
//! [`Telemetry`]: crate::Telemetry

use crate::json::Json;

/// Span arena capacity: once this many spans are retained, further spans
/// are dropped (and counted) instead of reallocating.
pub const MAX_SPANS: usize = 1 << 16;

/// Timeline bucket width in simulated cycles.
pub const BUCKET_CYCLES: u64 = 1 << 20;

/// What a span covers. Guard kinds mirror the machine's guard-outcome
/// counters (`ExecStats::guards_*`); the rest are the runtime/pager/link
/// operations a guard (or raw access) decomposes into.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Guard took the fast path (normally canceled, kept only if something
    /// nested under it).
    GuardFast,
    /// Guard slow path resolved locally.
    GuardSlowLocal,
    /// Guard slow path fetched from remote memory.
    GuardSlowRemote,
    /// Custody check failed; the access left the cached object.
    CustodyExit,
    /// Chunked-loop boundary check (cheap path).
    BoundaryCheck,
    /// Chunked-loop locality guard (runtime call).
    LocalityGuard,
    /// Demand fetch issued outside any guard (hybrid/raw access paths).
    DemandFetch,
    /// Asynchronous prefetch: from issue to the object's ready cycle.
    Prefetch,
    /// Eviction writeback operation (asynchronous; completion extends past
    /// the triggering operation).
    WritebackOp,
    /// Kernel page fault serviced with a remote transfer.
    MajorFault,
    /// Kernel page fault serviced locally.
    MinorFault,
    /// One fetch attempt on a link (leaf; `wait` = queueing delay, `fault`
    /// set when the attempt was faulted or delayed).
    Transfer,
    /// One writeback attempt on a link (leaf).
    WritebackXfer,
    /// One retry interval: fault detection to re-issue (leaf; `wait` =
    /// backoff cycles, `arg` = attempt number).
    Retry,
    /// One round of kernel fault handling (leaf).
    Kernel,
    /// Ack-ledger resync onto a recovering shard (root; `arg` = shard
    /// index, covers restart to rejoin).
    Recovery,
}

impl SpanKind {
    /// Every kind, in declaration order.
    pub const ALL: &'static [SpanKind] = &[
        SpanKind::GuardFast,
        SpanKind::GuardSlowLocal,
        SpanKind::GuardSlowRemote,
        SpanKind::CustodyExit,
        SpanKind::BoundaryCheck,
        SpanKind::LocalityGuard,
        SpanKind::DemandFetch,
        SpanKind::Prefetch,
        SpanKind::WritebackOp,
        SpanKind::MajorFault,
        SpanKind::MinorFault,
        SpanKind::Transfer,
        SpanKind::WritebackXfer,
        SpanKind::Retry,
        SpanKind::Kernel,
        SpanKind::Recovery,
    ];

    /// Stable snake_case name (used in exported traces).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::GuardFast => "guard_fast",
            SpanKind::GuardSlowLocal => "guard_slow_local",
            SpanKind::GuardSlowRemote => "guard_slow_remote",
            SpanKind::CustodyExit => "custody_exit",
            SpanKind::BoundaryCheck => "boundary_check",
            SpanKind::LocalityGuard => "locality_guard",
            SpanKind::DemandFetch => "demand_fetch",
            SpanKind::Prefetch => "prefetch",
            SpanKind::WritebackOp => "writeback",
            SpanKind::MajorFault => "major_fault",
            SpanKind::MinorFault => "minor_fault",
            SpanKind::Transfer => "transfer",
            SpanKind::WritebackXfer => "writeback_transfer",
            SpanKind::Retry => "retry",
            SpanKind::Kernel => "kernel",
            SpanKind::Recovery => "recovery",
        }
    }

    /// True for guard-site kinds whose `arg` is a packed site key (named
    /// by the guard-site label in exports).
    pub fn is_guard(self) -> bool {
        matches!(
            self,
            SpanKind::GuardFast
                | SpanKind::GuardSlowLocal
                | SpanKind::GuardSlowRemote
                | SpanKind::CustodyExit
                | SpanKind::BoundaryCheck
                | SpanKind::LocalityGuard
        )
    }

    /// True for link-attempt leaves (placed on per-shard tracks in the
    /// Chrome export).
    pub fn is_transfer(self) -> bool {
        matches!(self, SpanKind::Transfer | SpanKind::WritebackXfer)
    }

    /// True for asynchronous root operations (their completion extends past
    /// the operation that triggered them).
    pub fn is_async_op(self) -> bool {
        matches!(self, SpanKind::Prefetch | SpanKind::WritebackOp)
    }
}

/// One node of the span tree. `Copy`, 8-byte-aligned, no heap data — the
/// arena is a flat `Vec<Span>` preallocated at construction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What this span covers.
    pub kind: SpanKind,
    /// First cycle of the span.
    pub start: u64,
    /// One past the last cycle of the span (`end - start` is the duration).
    pub end: u64,
    /// Arena index of the parent ([`Span::NO_PARENT`] for roots).
    pub parent: u32,
    /// Kind-specific payload: packed site key for guard kinds, object/page
    /// id for runtime ops, byte count for transfers, attempt number for
    /// retries.
    pub arg: u64,
    /// Kind-specific wait component: queueing delay for transfers, backoff
    /// cycles for retries, 0 elsewhere.
    pub wait: u64,
    /// Shard index for transfer leaves ([`Span::NO_SHARD`] elsewhere).
    pub shard: u32,
    /// Injected-fault code when the span was faulted or delayed
    /// ([`Span::NO_FAULT`] otherwise).
    pub fault: u32,
    /// Simulated worker core that recorded the span ([`Span::NO_CORE`] on
    /// the synchronous single-core machine). Stamped centrally by the
    /// tracer, so probe sites never set it themselves.
    pub core: u32,
}

impl Span {
    /// `parent` sentinel: the span is a root.
    pub const NO_PARENT: u32 = u32::MAX;
    /// `shard` sentinel: not a shard-routed span.
    pub const NO_SHARD: u32 = u32::MAX;
    /// `fault` sentinel: nothing was injected.
    pub const NO_FAULT: u32 = u32::MAX;
    /// `core` sentinel: not recorded on a multi-core machine.
    pub const NO_CORE: u32 = u32::MAX;

    /// A `kind` span over `[start, end)` carrying `arg`, with no wait and
    /// every sentinel set. The tracer stamps `parent` and `core` when it
    /// records the span; callers set `wait`, `shard` and `fault` by struct
    /// update where they apply.
    pub fn leaf(kind: SpanKind, start: u64, end: u64, arg: u64) -> Span {
        Span {
            kind,
            start,
            end,
            parent: Self::NO_PARENT,
            arg,
            wait: 0,
            shard: Self::NO_SHARD,
            fault: Self::NO_FAULT,
            core: Self::NO_CORE,
        }
    }

    /// Duration in cycles.
    #[inline]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// True when the span has a parent in the arena.
    #[inline]
    pub fn has_parent(&self) -> bool {
        self.parent != Self::NO_PARENT
    }
}

/// Handle to an open span. [`SpanId::NONE`] (returned when tracing is off or
/// the arena is full) makes every subsequent operation on it a no-op.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The no-op handle.
    pub const NONE: SpanId = SpanId(u32::MAX);

    /// True for the no-op handle.
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == u32::MAX
    }
}

/// Upper bound on timeline buckets (observations beyond it are ignored) so
/// a run of any length cannot grow the series without bound.
const MAX_BUCKETS: usize = 1 << 16;

/// Upper bound on shard and core lanes (samples for a higher index are
/// ignored); no realistic topology exceeds it.
const MAX_LANES: usize = 64;

/// Windowed time series: per-[`BUCKET_CYCLES`] access/miss counts, local
/// occupancy, and per-shard health and per-core load lanes.
///
/// Every series has one length while it records: a new bucket grows them
/// all, and a new shard or core lane starts at the current length. So the
/// stored series are the exported ones. The fields are private because the
/// recording methods index every lane by the shared length.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Timeline {
    accesses: Vec<u64>,
    misses: Vec<u64>,
    occupancy_bytes: Vec<u64>,
    shard_ppm: Vec<Vec<u64>>,
    shard_degraded: Vec<Vec<bool>>,
    core_accesses: Vec<Vec<u64>>,
}

/// Unicode sparkline of a series, max-scaled (empty string for an empty or
/// all-zero series).
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return values.iter().map(|_| BARS[0]).collect();
    }
    values
        .iter()
        .map(|&v| BARS[((v as u128 * (BARS.len() as u128 - 1)).div_ceil(max as u128)) as usize])
        .collect()
}

impl Timeline {
    /// The bucket `cycle` falls in, with every series grown to cover it
    /// (`None` past [`MAX_BUCKETS`]).
    fn bucket(&mut self, cycle: u64) -> Option<usize> {
        let b = (cycle / BUCKET_CYCLES) as usize;
        if b >= MAX_BUCKETS {
            return None;
        }
        if b >= self.accesses.len() {
            let n = b + 1;
            self.accesses.resize(n, 0);
            self.misses.resize(n, 0);
            self.occupancy_bytes.resize(n, 0);
            self.shard_ppm.iter_mut().for_each(|s| s.resize(n, 0));
            self.shard_degraded
                .iter_mut()
                .for_each(|s| s.resize(n, false));
            self.core_accesses.iter_mut().for_each(|c| c.resize(n, 0));
        }
        Some(b)
    }

    /// Records one guarded/paged access; `miss` when it went remote.
    pub fn access(&mut self, cycle: u64, miss: bool) {
        let Some(b) = self.bucket(cycle) else { return };
        self.accesses[b] += 1;
        self.misses[b] += miss as u64;
    }

    /// Records the current local occupancy in bytes.
    pub fn occupancy(&mut self, cycle: u64, bytes: u64) {
        let Some(b) = self.bucket(cycle) else { return };
        self.occupancy_bytes[b] = bytes;
    }

    /// Records one guarded/paged access on a specific worker core's lane
    /// (on top of the aggregate series — call [`Timeline::access`] too).
    pub fn core_access(&mut self, cycle: u64, core: u32) {
        let c = core as usize;
        if c >= MAX_LANES {
            return;
        }
        let Some(b) = self.bucket(cycle) else { return };
        if self.core_accesses.len() <= c {
            let n = self.accesses.len();
            self.core_accesses.resize(c + 1, vec![0; n]);
        }
        self.core_accesses[c][b] += 1;
    }

    /// Records one shard-health sample.
    pub fn shard(&mut self, cycle: u64, shard: u32, ppm: u64, degraded: bool) {
        let s = shard as usize;
        if s >= MAX_LANES {
            return;
        }
        let Some(b) = self.bucket(cycle) else { return };
        if self.shard_ppm.len() <= s {
            let n = self.accesses.len();
            self.shard_ppm.resize(s + 1, vec![0; n]);
            self.shard_degraded.resize(s + 1, vec![false; n]);
        }
        self.shard_ppm[s][b] = ppm;
        self.shard_degraded[s][b] |= degraded;
    }

    /// True when no bucket recorded anything.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Guarded/paged accesses per bucket.
    pub fn accesses(&self) -> &[u64] {
        &self.accesses
    }

    /// Remote misses per bucket.
    pub fn misses(&self) -> &[u64] {
        &self.misses
    }

    /// Last observed local occupancy (bytes) per bucket; 0 where no
    /// observation landed.
    pub fn occupancy_bytes(&self) -> &[u64] {
        &self.occupancy_bytes
    }

    /// Per shard: last observed EWMA fault rate (ppm) per bucket.
    pub fn shard_ppm(&self) -> &[Vec<u64>] {
        &self.shard_ppm
    }

    /// Per shard: whether the shard was observed degraded at any point in
    /// each bucket.
    pub fn shard_degraded(&self) -> &[Vec<bool>] {
        &self.shard_degraded
    }

    /// Per worker core: accesses per bucket. Empty on the single-core
    /// machine (the tracer routes accesses here only when a current core
    /// is set), so reports stay byte-identical there.
    pub fn core_accesses(&self) -> &[Vec<u64>] {
        &self.core_accesses
    }

    /// Miss rate per bucket in permille (0 where no access landed).
    pub fn miss_permille(&self) -> Vec<u64> {
        self.accesses
            .iter()
            .zip(&self.misses)
            .map(|(&a, &m)| (m * 1000).checked_div(a).unwrap_or(0))
            .collect()
    }

    /// The `timeline` section of the run-report JSON.
    pub fn to_json(&self) -> Json {
        let ints = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::Int(x)).collect());
        let mut pairs = vec![
            ("bucket_cycles".into(), Json::Int(BUCKET_CYCLES)),
            ("accesses".into(), ints(&self.accesses)),
            ("misses".into(), ints(&self.misses)),
            ("occupancy_bytes".into(), ints(&self.occupancy_bytes)),
        ];
        if !self.shard_ppm.is_empty() {
            pairs.push((
                "shard_health_ppm".into(),
                Json::Arr(self.shard_ppm.iter().map(|s| ints(s)).collect()),
            ));
            pairs.push((
                "shard_degraded".into(),
                Json::Arr(
                    self.shard_degraded
                        .iter()
                        .map(|s| Json::Arr(s.iter().map(|&d| Json::Bool(d)).collect()))
                        .collect(),
                ),
            ));
        }
        if !self.core_accesses.is_empty() {
            pairs.push((
                "core_accesses".into(),
                Json::Arr(self.core_accesses.iter().map(|c| ints(c)).collect()),
            ));
        }
        Json::Obj(pairs)
    }

    /// Human sparkline view (one line per series).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.is_empty() {
            return out;
        }
        let _ = writeln!(
            out,
            "timeline ({} buckets x {BUCKET_CYCLES} cycles):",
            self.accesses.len()
        );
        let _ = writeln!(out, "  miss_rate  {}", sparkline(&self.miss_permille()));
        let _ = writeln!(out, "  occupancy  {}", sparkline(&self.occupancy_bytes));
        for (s, (ppm, degraded)) in self.shard_ppm.iter().zip(&self.shard_degraded).enumerate() {
            let degraded = degraded.iter().filter(|&&d| d).count();
            let _ = writeln!(
                out,
                "  shard{s} ppm {} (degraded in {degraded} bucket(s))",
                sparkline(ppm)
            );
        }
        for (c, accesses) in self.core_accesses.iter().enumerate() {
            let _ = writeln!(out, "  core{c} load {}", sparkline(accesses));
        }
        out
    }
}

/// A run's span trace: the span arena, the spans a full arena dropped, and
/// the timeline. A [`SpanTracer`] records into it, and a snapshot of it is
/// its clone.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The span arena, in creation order (parents precede children).
    pub spans: Vec<Span>,
    /// Spans not recorded because the arena was full.
    pub dropped: u64,
    /// The windowed time series.
    pub timeline: Timeline,
}

impl Default for Trace {
    /// An empty trace with its arena preallocated to [`MAX_SPANS`].
    fn default() -> Self {
        Trace {
            spans: Vec::with_capacity(MAX_SPANS),
            dropped: 0,
            timeline: Timeline::default(),
        }
    }
}

/// The recording state kept beside a [`Trace`]: the stack of open spans
/// and the worker core stamped onto new ones.
///
/// Lives inside the shared telemetry sink; all probes go through the
/// [`Telemetry`] handle's `span_*`/`timeline_*` methods, which are no-ops
/// when no trace is attached.
///
/// [`Telemetry`]: crate::Telemetry
#[derive(Clone, Debug)]
pub struct SpanTracer {
    stack: Vec<u32>,
    core: u32,
}

impl Default for SpanTracer {
    /// No open span and no core ([`Span::NO_CORE`]).
    fn default() -> Self {
        SpanTracer {
            stack: Vec::new(),
            core: Span::NO_CORE,
        }
    }
}

impl SpanTracer {
    /// Sets the worker core stamped onto subsequently recorded spans. The
    /// multi-core scheduler calls this before dispatching each request;
    /// nothing else does, so single-core traces carry [`Span::NO_CORE`]
    /// everywhere and render byte-identically to before.
    pub fn set_core(&mut self, core: u32) {
        self.core = core;
    }

    /// The core stamped onto new spans ([`Span::NO_CORE`] when unset).
    pub fn current_core(&self) -> u32 {
        self.core
    }

    /// True while any span is open (used to avoid opening a redundant
    /// root when an operation already runs under one).
    pub fn active(&self) -> bool {
        !self.stack.is_empty()
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(Span::NO_PARENT)
    }

    /// Appends `span` to the arena, stamped with the current core; `u32::MAX`
    /// (and a count in `dropped`) when the arena is full.
    fn alloc(&self, trace: &mut Trace, span: Span) -> u32 {
        if trace.spans.len() >= MAX_SPANS {
            trace.dropped += 1;
            return u32::MAX;
        }
        trace.spans.push(Span {
            core: self.core,
            ..span
        });
        trace.spans.len() as u32 - 1
    }

    fn open(
        &mut self,
        trace: &mut Trace,
        kind: SpanKind,
        arg: u64,
        cycle: u64,
        parent: u32,
    ) -> SpanId {
        let id = self.alloc(
            trace,
            Span {
                parent,
                ..Span::leaf(kind, cycle, cycle, arg)
            },
        );
        if id != u32::MAX {
            self.stack.push(id);
        }
        SpanId(id)
    }

    /// Opens a span as a child of the innermost open span (a root if none).
    pub fn begin(&mut self, trace: &mut Trace, kind: SpanKind, arg: u64, cycle: u64) -> SpanId {
        let parent = self.parent();
        self.open(trace, kind, arg, cycle, parent)
    }

    /// Opens a *root* span regardless of the open stack — for asynchronous
    /// operations whose lifetime extends past their trigger.
    pub fn begin_root(
        &mut self,
        trace: &mut Trace,
        kind: SpanKind,
        arg: u64,
        cycle: u64,
    ) -> SpanId {
        self.open(trace, kind, arg, cycle, Span::NO_PARENT)
    }

    /// Pops `id` and everything opened after it off the open stack.
    fn close(&mut self, id: SpanId) {
        if let Some(pos) = self.stack.iter().rposition(|&i| i == id.0) {
            self.stack.truncate(pos);
        }
    }

    /// Closes `id` at `cycle` (no-op for [`SpanId::NONE`]).
    pub fn end(&mut self, trace: &mut Trace, id: SpanId, cycle: u64) {
        if id.is_none() {
            return;
        }
        if let Some(s) = trace.spans.get_mut(id.0 as usize) {
            s.end = cycle;
        }
        self.close(id);
    }

    /// Closes `id` at `cycle`, reclassifying it as `kind`. With
    /// `keep = false` the span is canceled — removed entirely when it is
    /// provably childless (it is the newest span in the arena), kept
    /// otherwise so its children stay attached.
    pub fn finish(
        &mut self,
        trace: &mut Trace,
        id: SpanId,
        cycle: u64,
        kind: SpanKind,
        keep: bool,
    ) {
        if id.is_none() {
            return;
        }
        let idx = id.0 as usize;
        self.close(id);
        if !keep && idx + 1 == trace.spans.len() {
            trace.spans.truncate(idx);
            return;
        }
        if let Some(s) = trace.spans.get_mut(idx) {
            s.kind = kind;
            s.end = cycle;
        }
    }

    /// Records a complete leaf span attached to the innermost open span.
    /// The caller fills everything but `parent` and `core` (both stamped
    /// here, overriding whatever the caller put in them).
    pub fn leaf(&mut self, trace: &mut Trace, span: Span) {
        let parent = self.parent();
        self.alloc(trace, Span { parent, ..span });
    }
}

/// Chrome track ids: synchronous runtime operations.
const TID_RUNTIME: u64 = 1;
/// Chrome track ids: asynchronous operations (prefetch, writeback).
const TID_ASYNC: u64 = 2;
/// Chrome track ids: first per-shard link track (`3 + shard`).
const TID_SHARD0: u64 = 3;
/// Chrome track ids: first per-core track (`100 + core`) — only emitted
/// for core-tagged spans from the multi-core scheduler.
const TID_CORE0: u64 = 100;

impl Trace {
    /// For every span, the index of its root ancestor. Parents always
    /// precede children in the arena, so one forward pass suffices.
    fn roots(&self) -> Vec<u32> {
        let mut root = vec![0u32; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            root[i] = if s.has_parent() {
                root[s.parent as usize]
            } else {
                i as u32
            };
        }
        root
    }

    fn span_name(s: &Span, label_of: &dyn Fn(u64) -> Option<String>) -> String {
        if s.kind.is_guard() {
            if let Some(l) = label_of(s.arg) {
                return l;
            }
        }
        s.kind.name().to_string()
    }

    /// Exports the span tree as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` form; load it in Perfetto or
    /// `chrome://tracing`). Timestamps and durations are simulated cycles.
    ///
    /// Track layout: tid 1 carries synchronous runtime operations (guards,
    /// demand fetches, page faults and their retry/kernel leaves), tid 2
    /// the asynchronous ones (prefetches, writebacks), and tid `3 + shard`
    /// one track per remote shard with its transfer attempts. On a
    /// multi-core machine, core-tagged spans move to tid `100 + core`
    /// ("core N") so overlapping demand fetches from different cores render
    /// as concurrent tracks; transfer leaves stay on their shard tracks
    /// (with the issuing core in `args`). Every event's `args` carries
    /// `id`/`parent`, so causality is machine-checkable even across tracks.
    ///
    /// `label_of` resolves guard-span args (packed site keys) to the stable
    /// guard-site labels; return `None` to fall back to the kind name.
    pub fn chrome_trace(&self, label_of: &dyn Fn(u64) -> Option<String>) -> Json {
        let roots = self.roots();
        let mut events: Vec<Json> = Vec::with_capacity(self.spans.len() + 8);
        let meta = |name: &str, tid: Option<u64>, value: &str| {
            let mut pairs = vec![
                ("name".into(), Json::str(name)),
                ("ph".into(), Json::str("M")),
                ("pid".into(), Json::Int(1)),
            ];
            if let Some(t) = tid {
                pairs.push(("tid".into(), Json::Int(t)));
            }
            pairs.push((
                "args".into(),
                Json::Obj(vec![("name".into(), Json::str(value))]),
            ));
            Json::Obj(pairs)
        };
        events.push(meta("process_name", None, "trackfm-sim"));
        events.push(meta("thread_name", Some(TID_RUNTIME), "runtime"));
        if self.spans.iter().any(|s| s.kind.is_async_op()) {
            events.push(meta("thread_name", Some(TID_ASYNC), "async"));
        }
        let mut shards: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| s.kind.is_transfer() && s.shard != Span::NO_SHARD)
            .map(|s| s.shard)
            .collect();
        shards.sort_unstable();
        shards.dedup();
        for &s in &shards {
            events.push(meta(
                "thread_name",
                Some(TID_SHARD0 + s as u64),
                &format!("shard {s}"),
            ));
        }
        let mut cores: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| {
                s.core != Span::NO_CORE && !(s.kind.is_transfer() && s.shard != Span::NO_SHARD)
            })
            .map(|s| s.core)
            .collect();
        cores.sort_unstable();
        cores.dedup();
        for &c in &cores {
            events.push(meta(
                "thread_name",
                Some(TID_CORE0 + c as u64),
                &format!("core {c}"),
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let tid = if s.kind.is_transfer() && s.shard != Span::NO_SHARD {
                TID_SHARD0 + s.shard as u64
            } else if s.core != Span::NO_CORE {
                TID_CORE0 + s.core as u64
            } else if self.spans[roots[i] as usize].kind.is_async_op() {
                TID_ASYNC
            } else {
                TID_RUNTIME
            };
            let mut args = vec![
                ("id".into(), Json::Int(i as u64)),
                ("kind".into(), Json::str(s.kind.name())),
                ("arg".into(), Json::Int(s.arg)),
                ("wait".into(), Json::Int(s.wait)),
            ];
            if s.has_parent() {
                args.push(("parent".into(), Json::Int(s.parent as u64)));
            }
            if s.fault != Span::NO_FAULT {
                args.push(("fault".into(), Json::Int(s.fault as u64)));
            }
            if s.core != Span::NO_CORE {
                args.push(("core".into(), Json::Int(s.core as u64)));
            }
            events.push(Json::Obj(vec![
                ("name".into(), Json::str(Self::span_name(s, label_of))),
                ("cat".into(), Json::str("tfm")),
                ("ph".into(), Json::str("X")),
                ("ts".into(), Json::Int(s.start)),
                ("dur".into(), Json::Int(s.dur())),
                ("pid".into(), Json::Int(1)),
                ("tid".into(), Json::Int(tid)),
                ("args".into(), Json::Obj(args)),
            ]));
        }
        Json::Obj(vec![("traceEvents".into(), Json::Arr(events))])
    }

    /// Exports the span tree as folded stacks (`root;child;leaf weight`
    /// lines, one per unique stack, sorted — byte-deterministic), with
    /// *self* cycles as the weight: a span's duration minus its direct
    /// children's. Guard roots are keyed by their stable site labels, so
    /// the flamegraph answers "which guard site burns the cycles, and in
    /// what phase". Pipe into `flamegraph.pl` or speedscope.
    pub fn folded_stacks(&self, label_of: &dyn Fn(u64) -> Option<String>) -> String {
        let sanitize = |s: String| {
            s.chars()
                .map(|c| {
                    if c == ';' || c.is_whitespace() {
                        '_'
                    } else {
                        c
                    }
                })
                .collect::<String>()
        };
        let names: Vec<String> = self
            .spans
            .iter()
            .map(|s| sanitize(Self::span_name(s, label_of)))
            .collect();
        let mut child_total = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.has_parent() {
                child_total[s.parent as usize] += s.dur();
            }
        }
        let mut folded: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let this = s.dur().saturating_sub(child_total[i]);
            if this == 0 {
                continue;
            }
            let mut path = vec![names[i].as_str()];
            let mut at = s.parent;
            while at != Span::NO_PARENT {
                path.push(names[at as usize].as_str());
                at = self.spans[at as usize].parent;
            }
            path.reverse();
            *folded.entry(path.join(";")).or_insert(0) += this;
        }
        let mut out = String::new();
        for (stack, weight) in folded {
            out.push_str(&stack);
            out.push(' ');
            out.push_str(&weight.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        let mut names: Vec<&str> = SpanKind::ALL.iter().map(|k| k.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), SpanKind::ALL.len());
    }

    #[test]
    fn spans_nest_by_open_stack() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        let root = t.begin(&mut tr, SpanKind::GuardSlowRemote, 7, 100);
        t.leaf(&mut tr, Span::leaf(SpanKind::Transfer, 100, 200, 0));
        let inner = t.begin(&mut tr, SpanKind::DemandFetch, 9, 150);
        t.leaf(&mut tr, Span::leaf(SpanKind::Retry, 150, 180, 0));
        t.end(&mut tr, inner, 200);
        t.end(&mut tr, root, 250);
        assert_eq!(tr.spans.len(), 4);
        assert!(!tr.spans[0].has_parent());
        assert_eq!(tr.spans[1].parent, 0, "leaf under root");
        assert_eq!(tr.spans[2].parent, 0, "inner under root");
        assert_eq!(tr.spans[3].parent, 2, "retry under inner");
        assert_eq!(tr.spans[0].dur(), 150);
    }

    #[test]
    fn begin_root_ignores_the_stack() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        let g = t.begin(&mut tr, SpanKind::GuardSlowRemote, 1, 0);
        let p = t.begin_root(&mut tr, SpanKind::Prefetch, 5, 10);
        t.leaf(&mut tr, Span::leaf(SpanKind::Transfer, 10, 50, 0));
        t.end(&mut tr, p, 50);
        t.end(&mut tr, g, 20);
        assert!(!tr.spans[1].has_parent(), "prefetch is a root");
        assert_eq!(tr.spans[2].parent, 1, "its transfer nests under it");
    }

    #[test]
    fn canceled_childless_span_vanishes_but_parents_of_children_stay() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        // Childless fast guard: canceled, removed.
        let a = t.begin(&mut tr, SpanKind::GuardSlowRemote, 1, 0);
        t.finish(&mut tr, a, 5, SpanKind::GuardFast, false);
        assert_eq!(tr.spans.len(), 0);
        // A canceled span that acquired a child is kept (reclassified).
        let b = t.begin(&mut tr, SpanKind::GuardSlowRemote, 1, 10);
        t.leaf(&mut tr, Span::leaf(SpanKind::Transfer, 10, 30, 0));
        t.finish(&mut tr, b, 30, SpanKind::GuardFast, false);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].kind, SpanKind::GuardFast);
        assert!(!t.active());
    }

    #[test]
    fn full_arena_drops_deterministically() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        let a = t.begin(&mut tr, SpanKind::GuardSlowRemote, 1, 0);
        for _ in 1..MAX_SPANS {
            t.leaf(&mut tr, Span::leaf(SpanKind::Transfer, 0, 10, 0));
        }
        let b = t.begin(&mut tr, SpanKind::DemandFetch, 2, 5); // arena full
        assert!(b.is_none());
        t.leaf(&mut tr, Span::leaf(SpanKind::Retry, 5, 8, 0)); // dropped too
        t.end(&mut tr, b, 9); // no-op
        t.end(&mut tr, a, 10);
        assert_eq!(tr.spans.len(), MAX_SPANS);
        assert_eq!(tr.dropped, 2);
        assert!(!t.active());
        assert_eq!(tr.spans.capacity(), MAX_SPANS, "the arena never grew");
    }

    #[test]
    fn timeline_buckets_and_normalizes() {
        // Cycles in units of a bucket width.
        let at = |x: u64| x * BUCKET_CYCLES / 100;
        let mut tl = Timeline::default();
        tl.access(at(10), false);
        tl.access(at(110), true);
        tl.access(at(120), true);
        tl.occupancy(at(250), 8192);
        tl.shard(at(110), 1, 40_000, true);
        // A shard lane and a core lane that first appear at the last bucket.
        tl.shard(at(260), 2, 7, false);
        tl.core_access(at(270), 1);
        // Past the lane cap: ignored, and nothing grows.
        tl.shard(at(990), 64, 1, true);
        tl.core_access(at(990), 64);
        assert_eq!(tl.accesses, vec![1, 2, 0]);
        assert_eq!(tl.misses, vec![0, 2, 0]);
        assert_eq!(tl.occupancy_bytes, vec![0, 0, 8192]);
        assert_eq!(tl.miss_permille(), vec![0, 1000, 0]);
        assert_eq!(tl.shard_ppm.len(), 3, "shards 0..=2 materialized");
        assert_eq!(tl.shard_ppm[0], vec![0, 0, 0]);
        assert_eq!(tl.shard_ppm[1], vec![0, 40_000, 0]);
        assert_eq!(tl.shard_ppm[2], vec![0, 0, 7]);
        assert_eq!(tl.shard_degraded[1], vec![false, true, false]);
        assert_eq!(tl.shard_degraded[2], vec![false; 3]);
        assert_eq!(tl.core_accesses, vec![vec![0; 3], vec![0, 0, 1]]);
        assert!(tl.render().contains("miss_rate"));
        assert!(tl.render().contains("shard1 ppm"));
        assert!(tl.render().contains("core1 load"));
        let j = tl.to_json();
        assert_eq!(
            j.get("bucket_cycles").and_then(Json::as_u64),
            Some(BUCKET_CYCLES)
        );
        let len = |key: &str, lane: usize| {
            j.get(key).unwrap().as_arr().unwrap()[lane]
                .as_arr()
                .unwrap()
                .len()
        };
        assert_eq!(j.get("accesses").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(len("shard_health_ppm", 2), 3, "late shard lane padded");
        assert_eq!(len("shard_degraded", 2), 3);
        assert_eq!(len("core_accesses", 0), 3, "late core lane padded");
        // A later bucket grows every lane, late ones included.
        tl.access(at(320), false);
        assert!(tl
            .shard_ppm
            .iter()
            .chain(&tl.core_accesses)
            .all(|l| l.len() == 4));
        assert!(tl.shard_degraded.iter().all(|l| l.len() == 4));
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let line = sparkline(&[0, 1, 50, 100]);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('█'));
        assert!(line.starts_with('▁'));
    }

    #[test]
    fn chrome_trace_is_parseable_and_causal() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        let g = t.begin(&mut tr, SpanKind::GuardSlowRemote, 42, 100);
        t.leaf(
            &mut tr,
            Span {
                shard: 3,
                fault: 0,
                wait: 7,
                ..Span::leaf(SpanKind::Transfer, 100, 200, 0)
            },
        );
        t.end(&mut tr, g, 260);
        let p = t.begin_root(&mut tr, SpanKind::Prefetch, 9, 300);
        t.end(&mut tr, p, 400);
        let doc = tr.chrome_trace(&|arg| (arg == 42).then(|| "main:v7:read".to_string()));
        let text = doc.to_string_pretty();
        let back = Json::parse(&text).unwrap();
        let events = back.get("traceEvents").unwrap().as_arr().unwrap();
        let guard = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("main:v7:read"))
            .expect("guard root labeled by site");
        assert_eq!(guard.get("ts").and_then(Json::as_u64), Some(100));
        assert_eq!(guard.get("dur").and_then(Json::as_u64), Some(160));
        assert_eq!(guard.get("tid").and_then(Json::as_u64), Some(TID_RUNTIME));
        let xfer = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("transfer"))
            .unwrap();
        assert_eq!(xfer.get("tid").and_then(Json::as_u64), Some(TID_SHARD0 + 3));
        let args = xfer.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("fault").and_then(Json::as_u64), Some(0));
        assert_eq!(args.get("wait").and_then(Json::as_u64), Some(7));
        let pf = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("prefetch"))
            .unwrap();
        assert_eq!(pf.get("tid").and_then(Json::as_u64), Some(TID_ASYNC));
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
    }

    #[test]
    fn core_tagging_stamps_spans_and_moves_chrome_tracks() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        // Untagged span first: stays on the runtime track.
        let g0 = t.begin(&mut tr, SpanKind::GuardSlowRemote, 1, 0);
        t.end(&mut tr, g0, 10);
        // Tag core 2: spans and leaves pick it up centrally, even when the
        // caller passed NO_CORE in the literal.
        t.set_core(2);
        assert_eq!(t.current_core(), 2);
        let g2 = t.begin(&mut tr, SpanKind::DemandFetch, 5, 100);
        t.leaf(
            &mut tr,
            Span {
                shard: 1,
                ..Span::leaf(SpanKind::Transfer, 100, 150, 0)
            },
        );
        t.end(&mut tr, g2, 160);
        tr.timeline.core_access(100, 2);
        assert_eq!(tr.spans[0].core, Span::NO_CORE);
        assert_eq!(tr.spans[1].core, 2);
        assert_eq!(tr.spans[2].core, 2, "leaf stamped too");
        let doc = tr.chrome_trace(&|_| None);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let fetch = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("demand_fetch"))
            .unwrap();
        assert_eq!(fetch.get("tid").and_then(Json::as_u64), Some(TID_CORE0 + 2));
        assert_eq!(
            fetch
                .get("args")
                .unwrap()
                .get("core")
                .and_then(Json::as_u64),
            Some(2)
        );
        let xfer = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("transfer"))
            .unwrap();
        assert_eq!(
            xfer.get("tid").and_then(Json::as_u64),
            Some(TID_SHARD0 + 1),
            "transfers stay on their shard track"
        );
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Json::as_str) == Some("M")
                && e.get("args").unwrap().get("name").and_then(Json::as_str) == Some("core 2")
        }));
        // Core lane landed in the timeline and its exports.
        assert_eq!(tr.timeline.core_accesses.len(), 3);
        assert_eq!(tr.timeline.core_accesses[2], vec![1]);
        assert!(tr.timeline.render().contains("core2 load"));
        assert!(tr.timeline.to_json().get("core_accesses").is_some());
    }

    #[test]
    fn untagged_traces_render_without_core_artifacts() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        let g = t.begin(&mut tr, SpanKind::GuardSlowRemote, 1, 0);
        t.leaf(&mut tr, Span::leaf(SpanKind::Transfer, 0, 10, 0));
        t.end(&mut tr, g, 20);
        tr.timeline.access(5, true);
        let text = tr.chrome_trace(&|_| None).to_string_pretty();
        assert!(!text.contains("core"), "no core track or arg leaks: {text}");
        assert!(tr.timeline.core_accesses.is_empty());
        assert!(tr.timeline.to_json().get("core_accesses").is_none());
        assert!(!tr.timeline.render().contains("core"));
    }

    #[test]
    fn folded_stacks_weight_self_cycles() {
        let (mut t, mut tr) = (SpanTracer::default(), Trace::default());
        let g = t.begin(&mut tr, SpanKind::GuardSlowRemote, 42, 0);
        t.leaf(&mut tr, Span::leaf(SpanKind::Transfer, 0, 70, 0));
        t.leaf(&mut tr, Span::leaf(SpanKind::Retry, 70, 90, 0));
        t.end(&mut tr, g, 100);
        let label = |arg| (arg == 42).then(|| "main v7;read".to_string());
        let out = tr.folded_stacks(&label);
        // Label sanitized; self weight of the root = 100 - 70 - 20 = 10.
        assert!(out.contains("main_v7_read 10\n"), "got: {out}");
        assert!(out.contains("main_v7_read;transfer 70\n"), "got: {out}");
        assert!(out.contains("main_v7_read;retry 20\n"), "got: {out}");
        // Deterministic: sorted by stack path.
        assert_eq!(out, tr.clone().folded_stacks(&label));
    }
}
