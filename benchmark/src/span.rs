//! In-memory span recorder for the traced run.
//!
//! Spans `{name, start_ns, end_ns, parent}` — the workload is the run's, so
//! it is written once per event at export, not stored per span — are
//! recorded from the benchmark's own files, around the calls into each layer (`workload:<w>` → `point:<id>`, `probe:<layer>` →
//! `call`); the simulator itself is not instrumented, so a `point` span's
//! self time is the whole stack beneath it. The vector is preallocated and
//! written out as Chrome-trace `ph:"X"` events when the run ends.

use std::time::Instant;

use crate::json;

/// One recorded span. `parent` indexes into the recorder's span list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records properly nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder with room for `capacity` spans, so recording does not
    /// reallocate inside a measured region.
    pub fn new(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Open a span under the innermost open one. The clock is read last,
    /// so the bookkeeping is charged to the parent.
    pub fn enter(&mut self, name: String) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Close the innermost open span; returns its duration in nanoseconds.
    pub fn exit(&mut self) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = now;
        self.spans[id].duration_ns()
    }

    /// Run `f` inside a span.
    pub fn scope<T>(&mut self, name: String, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete event per
/// span, microsecond timestamps, the traced workload as the category, the
/// parent index and self time in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"self_ns\": {}}}}}{}\n",
            json::quote(&s.name),
            json::quote(workload),
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            own[i],
            if i + 1 == spans.len() { "" } else { "," },
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ a 10..60 ⊃ b 20..30
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_subtracts_every_sibling() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 0, 30, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 100, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
    }

    #[test]
    fn zero_length_spans_cost_nothing() {
        let spans = [span("root", 5, 5, None), span("a", 5, 5, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 0]);
    }

    #[test]
    fn self_times_sum_to_the_root_span() {
        let mut rec = Recorder::new(16);
        rec.scope("root".to_string(), |rec| {
            rec.scope("a".to_string(), |rec| {
                rec.scope("a1".to_string(), |_| std::hint::black_box(1 + 1));
            });
            rec.scope("b".to_string(), |_| std::hint::black_box(2 + 2));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let total: u64 = self_times_ns(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let spans = [
            span("workload:x", 0, 2_500, None),
            span("point:\"q\"", 500, 1_500, Some(0)),
        ];
        let doc = json::parse(&chrome_trace(&spans, "w")).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_arr)
            .expect("traceEvents");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(json::Value::as_str), Some("X"));
        assert_eq!(
            events[1].get("dur").and_then(json::Value::as_f64),
            Some(1.0)
        );
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(
            args.get("self_ns").and_then(json::Value::as_f64),
            Some(1000.0)
        );
    }
}
