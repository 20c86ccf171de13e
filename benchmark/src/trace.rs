//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out once at exit. Nothing here runs inside the program
//! under test.

use sdflmq::mqttfc::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// `client` value of a span that belongs to no single client.
pub const NO_CLIENT: i64 = -1;

/// One timed interval. `parent` is the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub round: u64,
    pub client: i64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn duration_ms(&self) -> f64 {
        self.duration_ns() as f64 / 1e6
    }
}

/// Collects spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// The driver's live spans (`live_begin`) are recorded only while this
    /// is set: it is raised for the traced rounds of a traced run.
    pub live: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            live: false,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        client: i64,
    ) -> SpanId {
        let start_ns = self.now_ns();
        self.record(name, parent, round, client, start_ns, start_ns)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// [`Tracer::begin`] while `live` is set; otherwise nothing.
    pub fn live_begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        client: i64,
    ) -> Option<SpanId> {
        self.live.then(|| self.begin(name, parent, round, client))
    }

    /// Closes what [`Tracer::live_begin`] opened, if it opened anything.
    pub fn live_end(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.end(id);
        }
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        client: i64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            parent,
            name,
            round,
            client,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, round, NO_CLIENT);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are counted once,
/// and a child is clipped to its parent's interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Self time in milliseconds of every span, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        by_name
            .entry(span.name)
            .or_default()
            .push(self_ns as f64 / 1e6);
    }
    by_name
}

/// The trace document: one object per span, `id` being its index.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Array(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object([
                    ("id", Json::num(id as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                    ),
                    ("name", Json::str(s.name)),
                    ("round", Json::num(s.round as f64)),
                    ("client", Json::num(s.client as f64)),
                    ("start_ns", Json::num(s.start_ns as f64)),
                    ("end_ns", Json::num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            round: 1,
            client: NO_CLIENT,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = vec![
            span(None, "round", 0, 100),
            span(Some(0), "send", 10, 40),
            span(Some(1), "encode", 15, 25),
            span(Some(0), "wait", 50, 90),
        ];
        // round: 100 - (30 + 40); send: 30 - 10; grandchildren never reach
        // the root's account.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(None, "round", 100, 200),
            span(Some(0), "a", 110, 150),
            span(Some(0), "b", 140, 170), // overlaps a by 10
            span(Some(0), "c", 145, 148), // wholly inside a and b
            span(Some(0), "d", 190, 260), // runs past the parent's end
            span(Some(0), "e", 20, 90),   // wholly outside the parent
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn self_time_is_grouped_by_name() {
        let spans = vec![
            span(None, "round", 0, 10_000_000),
            span(Some(0), "send", 0, 4_000_000),
            span(None, "round", 10_000_000, 30_000_000),
            span(Some(2), "send", 12_000_000, 20_000_000),
        ];
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["round"], vec![6.0, 12.0]);
        assert_eq!(by_name["send"], vec![4.0, 8.0]);
    }

    #[test]
    fn live_spans_are_recorded_only_while_live() {
        let mut tracer = Tracer::new();
        let off = tracer.live_begin("round", None, 1, NO_CLIENT);
        tracer.live_end(off);
        assert!(off.is_none() && tracer.spans().is_empty());
        tracer.live = true;
        let on = tracer.live_begin("round", None, 2, NO_CLIENT);
        let child = tracer.live_begin("send_local", on, 2, 0);
        tracer.live_end(child);
        tracer.live_end(on);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, on);
    }

    #[test]
    fn trace_document_round_trips_through_the_parser() {
        let mut tracer = Tracer::new();
        let root = tracer.begin("round", None, 3, NO_CLIENT);
        tracer.record("send_local", Some(root), 3, 5, 10, 25);
        tracer.end(root);
        let doc = to_json(tracer.spans());
        let parsed = Json::parse(&doc.to_string_compact()).expect("valid JSON");
        assert_eq!(parsed, doc);
        let child = &parsed.as_array().expect("array")[1];
        assert_eq!(child.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(child.get("client").and_then(Json::as_f64), Some(5.0));
        assert_eq!(child.get("name").and_then(Json::as_str), Some("send_local"));
        assert_eq!(child.get("end_ns").and_then(Json::as_u64), Some(25));
    }
}
