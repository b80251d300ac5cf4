//! # tfm-telemetry — the observability layer of the TrackFM reproduction
//!
//! Everything the evaluation needs to *attribute* cycles, in one
//! dependency-free leaf crate:
//!
//! * [`Telemetry`] — a cheaply-clonable handle shared by the machine, the
//!   memory systems, the runtime, the pager, and the link, so one run's
//!   samples land on a single cycle timeline. Disabled by default; every
//!   probe on a disabled handle is a single branch. Event *counts* (guard
//!   paths, fetches, evictions, faults, shard transitions) are not kept
//!   here: each subsystem's own stats struct counts them once.
//! * [`Histogram`] — log₂-bucketed distributions with p50/p90/p99
//!   accessors, used for fetch latency, stall-per-access, residency
//!   lifetime, and transfer sizes.
//! * [`SiteTable`] / [`SiteKey`] — per-guard-site attribution: slow-path
//!   and stall counters keyed by the originating IR instruction, the data
//!   behind "top-N hottest guard sites".
//! * [`RunReport`] — the unified record of a run: the four subsystem stat
//!   structs (via [`StatGroup`]), the histograms, and the site table, with
//!   human-readable and JSON renderers. [`Json`] is a minimal hand-rolled
//!   tree/writer/parser so nothing here needs serde.
//! * [`trace`] — causal span tracing: a fixed-capacity span tree stamped
//!   in simulated cycles (roots per runtime operation, children per
//!   transfer/retry/kernel round), a windowed [`Timeline`] of miss rate /
//!   occupancy / shard health, and exporters to Chrome trace-event JSON
//!   and folded-stacks flamegraphs. Off by default and pay-for-use.
//!
//! See `DESIGN.md` ("Telemetry & run reports") for how the pieces wire
//! together.

pub mod handle;
pub mod hist;
pub mod json;
pub mod report;
pub mod site;
pub mod trace;

pub use handle::{Telemetry, TelemetryInner, TelemetrySnapshot};
pub use hist::{Histogram, BUCKETS};
pub use json::Json;
pub use report::{RunReport, SiteRow, StatGroup, StatSection, TOP_SITES};
pub use site::{SiteKey, SiteStats, SiteTable};
pub use trace::{
    sparkline, Span, SpanId, SpanKind, SpanTracer, Timeline, TimelineSnapshot, TraceSnapshot,
};
