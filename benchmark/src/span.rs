//! Span recorder for the traced pass.
//!
//! The benchmark records a span around each public call it makes into a
//! layer: name, start, end, the span that caused it, and the row it belongs
//! to. Spans live in one vector until the run ends. A span's self time is
//! its duration minus the part its children cover, so the self times of a
//! tree sum to the duration of its root.

use std::collections::BTreeMap;
use std::time::Instant;

use tfm_telemetry::Json;

/// Parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    /// Index of the row the span belongs to.
    pub row: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// The innermost open span.
    current: u32,
    row: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1024),
            current: NO_PARENT,
            row: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Spans opened from now on belong to row `row`.
    pub fn set_row(&mut self, row: usize) {
        self.row = row as u32;
    }

    /// Runs `f` inside a span named `name`, a child of whichever span is
    /// open. Returns `f`'s result and the span's duration in nanoseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.current,
            row: self.row,
        });
        self.current = id;
        let out = f(self);
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end = end;
        self.current = s.parent;
        (out, end - start)
    }

    /// Closes every open span now. For the caller that caught a panic which
    /// unwound through [`Recorder::span`]: the next span must not become a
    /// child of one that will never end.
    pub fn close_open(&mut self) {
        let now = self.now();
        while self.current != NO_PARENT {
            let s = &mut self.spans[self.current as usize];
            s.end = now;
            self.current = s.parent;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of the spans named `name`.
    pub fn total_nanos(&self, name: &str) -> u64 {
        let named = self.spans.iter().filter(|s| s.name == name);
        named.map(Span::nanos).sum()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                own[s.parent as usize] -= s.nanos();
            }
        }
        own
    }

    /// Self time summed by span name.
    pub fn self_nanos_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut by_name = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_nanos()) {
            *by_name.entry(s.name).or_insert(0) += own;
        }
        by_name
    }

    /// The trace file: every span, and self time by name. `row_ids[i]` names
    /// row `i`.
    pub fn to_json(&self, row_ids: &[String]) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let parent = if s.parent == NO_PARENT {
                    Json::Null
                } else {
                    Json::Int(s.parent as u64)
                };
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("start_ns".into(), Json::Int(s.start)),
                    ("end_ns".into(), Json::Int(s.end)),
                    ("parent".into(), parent),
                    ("row".into(), Json::str(row_ids[s.row as usize].as_str())),
                ])
            })
            .collect();
        let self_ns = self
            .self_nanos_by_name()
            .into_iter()
            .map(|(name, ns)| (name.to_string(), Json::Int(ns)))
            .collect();
        Json::Obj(vec![
            ("spans".into(), Json::Arr(spans)),
            ("self_ns".into(), Json::Obj(self_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn children_nest_inside_parents_and_self_times_sum_to_the_root() {
        let mut rec = Recorder::new();
        rec.span("root", |rec| {
            spin(20_000);
            rec.span("a", |rec| {
                spin(20_000);
                rec.span("a.leaf", |_| spin(20_000));
            });
            rec.set_row(1);
            rec.span("b", |_| spin(20_000));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(
            [spans[1].parent, spans[2].parent, spans[3].parent],
            [0, 1, 0]
        );
        assert_eq!([spans[2].row, spans[3].row], [0, 1]);
        for s in &spans[1..] {
            let p = spans[s.parent as usize];
            assert!(p.start <= s.start && s.end <= p.end, "{s:?} outside {p:?}");
        }
        let own = rec.self_nanos();
        assert_eq!(own.iter().sum::<u64>(), spans[0].nanos());
        assert!(own.iter().all(|&ns| ns >= 20_000), "{own:?}");
        let by_name = rec.self_nanos_by_name();
        assert_eq!(by_name.values().sum::<u64>(), spans[0].nanos());
        assert!(Json::parse(&rec.to_json(&["r0".into(), "r1".into()]).to_string_compact()).is_ok());
    }

    #[test]
    fn spans_a_panic_unwound_through_are_closed_not_inherited() {
        let mut rec = Recorder::new();
        let row = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rec.span("row", |rec| rec.span("phase", |_| panic!("the row failed")));
        }));
        assert!(row.is_err());
        rec.close_open();
        rec.span("next", |_| spin(1_000));
        let spans = rec.spans();
        assert_eq!(spans[2].parent, NO_PARENT);
        assert!(spans[0].end >= spans[1].end && spans[1].end > spans[1].start);
        assert_eq!(
            rec.self_nanos().iter().sum::<u64>(),
            spans[0].nanos() + spans[2].nanos()
        );
    }
}
