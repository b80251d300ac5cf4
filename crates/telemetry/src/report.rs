//! Unified run reports.
//!
//! A [`RunReport`] composes the per-subsystem counter structs (exposed
//! generically through [`StatGroup`] so this crate stays a leaf), the
//! telemetry histograms, and the per-guard-site attribution table, and
//! renders as either a human-readable text block or machine-readable JSON.

use crate::hist::Histogram;
use crate::json::Json;
use crate::site::{SiteKey, SiteStats, SiteTable};
use crate::trace::Timeline;

/// Counter structs that can publish themselves into a report section.
/// Implemented by `ExecStats`, `RuntimeStats`, `TransferStats`, and
/// `PagerStats` in their own crates.
pub trait StatGroup {
    /// Section name, e.g. `"exec"` or `"runtime"`.
    fn group_name(&self) -> &'static str;

    /// Field names and values, in display order.
    fn stat_fields(&self) -> Vec<(&'static str, u64)>;

    /// This group as a report section.
    fn section(&self) -> StatSection {
        StatSection {
            name: self.group_name().to_string(),
            fields: self
                .stat_fields()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        }
    }
}

/// One named group of counters inside a report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatSection {
    /// Section name.
    pub name: String,
    /// `(field, value)` pairs in display order.
    pub fields: Vec<(String, u64)>,
}

/// One row of the guard-site attribution table.
#[derive(Clone, Debug)]
pub struct SiteRow {
    /// Stable site key.
    pub key: SiteKey,
    /// Human-readable label (function, value, access kind); falls back to
    /// the key's `f<func>:v<value>` form when the compiler produced none.
    pub label: String,
    /// Accumulated counters.
    pub stats: SiteStats,
}

/// Number of site rows shown by the human renderer.
pub const TOP_SITES: usize = 10;

/// A complete, self-describing record of one run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Memory system the run executed on.
    pub system: String,
    /// Free-form configuration metadata (`local_fraction`, `object_size`, ...).
    pub meta: Vec<(String, String)>,
    /// Subsystem counter sections.
    pub sections: Vec<StatSection>,
    /// Named latency/size distributions.
    pub histograms: Vec<(String, Histogram)>,
    /// Guard-site attribution, hottest (most stall cycles) first.
    pub sites: Vec<SiteRow>,
    /// Windowed time series (only when the run traced; `None` keeps the
    /// report byte-identical to untraced runs).
    pub timeline: Option<Timeline>,
}

impl RunReport {
    /// An empty report for `workload` on `system`.
    pub fn new(workload: impl Into<String>, system: impl Into<String>) -> Self {
        Self {
            workload: workload.into(),
            system: system.into(),
            ..Self::default()
        }
    }

    /// Adds a configuration key/value.
    pub fn push_meta(&mut self, key: impl Into<String>, value: impl ToString) {
        self.meta.push((key.into(), value.to_string()));
    }

    /// Adds a counter section from any [`StatGroup`].
    pub fn push_section(&mut self, group: &dyn StatGroup) {
        self.sections.push(group.section());
    }

    /// Adds a counter section under a caller-chosen name instead of the
    /// group's own — for per-instance sections like one per remote shard
    /// (`"shard0"`, `"shard1"`, ...), where [`StatGroup::group_name`]'s
    /// `&'static str` cannot carry the instance index.
    pub fn push_named_section(&mut self, name: impl Into<String>, group: &dyn StatGroup) {
        let mut section = group.section();
        section.name = name.into();
        self.sections.push(section);
    }

    /// Adds a named histogram (empty ones are kept: they show the probe ran).
    pub fn push_histogram(&mut self, name: impl Into<String>, h: Histogram) {
        self.histograms.push((name.into(), h));
    }

    /// Fills the site table, resolving labels via `label_of` (return `None`
    /// to fall back to the key form). Rows are sorted hottest-first.
    pub fn set_sites(&mut self, table: &SiteTable, label_of: impl Fn(SiteKey) -> Option<String>) {
        self.sites = table
            .top_by_stall(usize::MAX)
            .into_iter()
            .map(|(key, stats)| SiteRow {
                key,
                label: label_of(key).unwrap_or_else(|| key.to_string()),
                stats,
            })
            .collect();
    }

    /// Attaches the windowed time series of a traced run.
    pub fn set_timeline(&mut self, timeline: Timeline) {
        self.timeline = Some(timeline);
    }

    /// A section's value, for programmatic consumers (benches, tests).
    pub fn field(&self, section: &str, field: &str) -> Option<u64> {
        self.sections
            .iter()
            .find(|s| s.name == section)?
            .fields
            .iter()
            .find(|(k, _)| k == field)
            .map(|(_, v)| *v)
    }

    /// A histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Machine-readable JSON form. The `timeline` key appears only for
    /// traced runs, so untraced report bytes stay stable across builds
    /// with and without tracing support.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".into(), Json::str(&self.workload)),
            ("system".into(), Json::str(&self.system)),
            (
                "meta".into(),
                Json::Obj(
                    self.meta
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v)))
                        .collect(),
                ),
            ),
            (
                "stats".into(),
                Json::Obj(
                    self.sections
                        .iter()
                        .map(|s| {
                            (
                                s.name.clone(),
                                Json::Obj(
                                    s.fields
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::Int(*v)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
            (
                "guard_sites".into(),
                Json::Arr(
                    self.sites
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("site".into(), Json::str(r.key.to_string())),
                                ("label".into(), Json::str(&r.label)),
                                ("hits".into(), Json::Int(r.stats.hits)),
                                ("fast".into(), Json::Int(r.stats.fast)),
                                ("slow_local".into(), Json::Int(r.stats.slow_local)),
                                ("slow_remote".into(), Json::Int(r.stats.slow_remote)),
                                ("custody_exits".into(), Json::Int(r.stats.custody_exits)),
                                ("cycles".into(), Json::Int(r.stats.cycles)),
                                ("stall_cycles".into(), Json::Int(r.stats.stall_cycles)),
                                ("elided".into(), Json::Int(r.stats.elided)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(t) = &self.timeline {
            pairs.push(("timeline".into(), t.to_json()));
        }
        Json::Obj(pairs)
    }

    /// Human-readable rendering: sections, histogram summaries, and the
    /// top-[`TOP_SITES`] guard-site table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== run report: {} on {} ==",
            self.workload, self.system
        );
        if !self.meta.is_empty() {
            let kv: Vec<String> = self.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "config: {}", kv.join(" "));
        }
        for s in &self.sections {
            let kv: Vec<String> = s.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "[{:>8}] {}", s.name, kv.join(" "));
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(out, "hist {name}: {h}");
        }
        if let Some(t) = &self.timeline {
            out.push_str(&t.render());
        }
        if !self.sites.is_empty() {
            let _ = writeln!(out, "top guard sites by stall cycles:");
            let _ = writeln!(
                out,
                "  {:>4}  {:<32} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>7}",
                "rank", "site", "hits", "fast", "slow_loc", "slow_rem", "cycles", "stall", "elided"
            );
            for (i, r) in self.sites.iter().take(TOP_SITES).enumerate() {
                let _ = writeln!(
                    out,
                    "  {:>4}  {:<32} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12} {:>7}",
                    i + 1,
                    r.label,
                    r.stats.hits,
                    r.stats.fast,
                    r.stats.slow_local,
                    r.stats.slow_remote,
                    r.stats.cycles,
                    r.stats.stall_cycles,
                    r.stats.elided
                );
            }
            if self.sites.len() > TOP_SITES {
                let _ = writeln!(out, "  ... and {} more sites", self.sites.len() - TOP_SITES);
            }
        }
        out
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake;
    impl StatGroup for Fake {
        fn group_name(&self) -> &'static str {
            "fake"
        }
        fn stat_fields(&self) -> Vec<(&'static str, u64)> {
            vec![("a", 1), ("b", 2)]
        }
    }

    fn sample_report() -> RunReport {
        let mut r = RunReport::new("stream", "trackfm");
        r.push_meta("local_fraction", 0.25);
        r.push_section(&Fake);
        let mut h = Histogram::new();
        h.record(100);
        h.record(30_000);
        r.push_histogram("fetch_latency_cycles", h);
        let mut t = SiteTable::new();
        let s = t.stats_mut(SiteKey::new(0, 7));
        s.hits = 10;
        s.slow_remote = 3;
        s.stall_cycles = 90_000;
        r.set_sites(&t, |k| (k.value() == 7).then(|| "main:v7:read".to_string()));
        r
    }

    #[test]
    fn named_sections_override_the_group_name() {
        let mut r = RunReport::new("stream", "trackfm");
        r.push_named_section("shard0", &Fake);
        r.push_named_section("shard1", &Fake);
        assert_eq!(r.field("shard0", "a"), Some(1));
        assert_eq!(r.field("shard1", "b"), Some(2));
        assert_eq!(r.field("fake", "a"), None);
        let doc = Json::parse(&r.to_json().to_string_pretty()).unwrap();
        assert_eq!(
            doc.get("stats")
                .unwrap()
                .get("shard1")
                .unwrap()
                .get("a")
                .unwrap(),
            &Json::Int(1)
        );
        assert!(r.render().contains("[  shard0] a=1 b=2"));
    }

    #[test]
    fn field_and_histogram_lookup() {
        let r = sample_report();
        assert_eq!(r.field("fake", "b"), Some(2));
        assert_eq!(r.field("fake", "zz"), None);
        assert_eq!(r.field("zz", "b"), None);
        assert_eq!(r.histogram("fetch_latency_cycles").unwrap().count(), 2);
    }

    #[test]
    fn json_round_trips_and_contains_everything() {
        let r = sample_report();
        let text = r.to_json().to_string_pretty();
        let doc = Json::parse(&text).unwrap();
        let Json::Obj(pairs) = &doc else {
            panic!("a report is a JSON object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "workload",
                "system",
                "meta",
                "stats",
                "histograms",
                "guard_sites"
            ]
        );
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("stream"));
        assert_eq!(
            doc.get("stats")
                .unwrap()
                .get("fake")
                .unwrap()
                .get("a")
                .unwrap(),
            &Json::Int(1)
        );
        let hist = doc
            .get("histograms")
            .unwrap()
            .get("fetch_latency_cycles")
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert!(hist.get("p99").and_then(Json::as_u64).unwrap() >= 30_000);
        let sites = doc.get("guard_sites").unwrap().as_arr().unwrap();
        assert_eq!(
            sites[0].get("label").and_then(Json::as_str),
            Some("main:v7:read")
        );
        assert_eq!(
            sites[0].get("stall_cycles").and_then(Json::as_u64),
            Some(90_000)
        );
    }

    #[test]
    fn human_render_shows_site_table() {
        let r = sample_report();
        let text = r.render();
        assert!(text.contains("run report: stream on trackfm"));
        assert!(text.contains("top guard sites"));
        assert!(text.contains("main:v7:read"));
        assert!(text.contains("fetch_latency_cycles"));
    }

    #[test]
    fn timeline_appears_only_when_set() {
        let mut r = sample_report();
        let json = r.to_json().to_string_pretty();
        assert!(!json.contains("\"timeline\""));
        assert!(!r.render().contains("timeline ("));
        let mut t = Timeline::default();
        t.access(0, true);
        t.access(crate::trace::BUCKET_CYCLES, false);
        t.occupancy(crate::trace::BUCKET_CYCLES, 4096);
        r.set_timeline(t);
        let json = r.to_json().to_string_pretty();
        let doc = Json::parse(&json).unwrap();
        let t = doc.get("timeline").expect("timeline key present");
        assert_eq!(
            t.get("bucket_cycles").and_then(Json::as_u64),
            Some(crate::trace::BUCKET_CYCLES)
        );
        assert_eq!(t.get("accesses").unwrap().as_arr().unwrap().len(), 2);
        assert!(r.render().contains("miss_rate"));
    }
}
