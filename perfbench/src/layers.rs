//! Layer spans recorded from outside the program: the benchmark wraps
//! each public call it makes into `ctlm-lab` in a span (name, start,
//! end, parent, the workload run's id) and keeps them in memory until
//! the run ends, then writes them as Chrome/Perfetto trace-event JSON —
//! complete (`"X"`) events, the shape `ctlm_lab::flight` exports.

use std::time::Instant;

use serde_json::Value;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    args: Vec<(String, Value)>,
}

/// In-memory span log for one workload run. A disabled recorder keeps
/// nothing, so the untraced pipeline pays only a branch per boundary.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    run_id: String,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans, all tagged with `run_id`.
    pub fn on(run_id: String) -> Self {
        Self {
            enabled: true,
            origin: Instant::now(),
            run_id,
            spans: Vec::new(),
        }
    }

    /// A recorder that keeps nothing.
    pub fn off() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            run_id: String::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            args: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span, attaching the counts taken at its boundary.
    pub fn end(&mut self, id: SpanId, args: Vec<(&str, Value)>) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.args
            .extend(args.into_iter().map(|(k, v)| (k.to_string(), v)));
    }

    /// The spans as a trace-event document: one process for the run,
    /// one thread per nesting depth so children stack under parents.
    pub fn trace_document(&self) -> Value {
        let mut events = vec![obj(vec![
            ("name", st("process_name")),
            ("ph", st("M")),
            ("pid", Value::Num(1.0)),
            ("args", obj(vec![("name", st(&self.run_id))])),
        ])];
        for (i, s) in self.spans.iter().enumerate() {
            let mut args: Vec<(String, Value)> = vec![
                ("run_id".to_string(), st(&self.run_id)),
                ("span_id".to_string(), Value::Num(i as f64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::Num(p as f64)));
                args.push(("parent_name".to_string(), st(self.spans[p].name)));
            }
            args.extend(s.args.iter().cloned());
            events.push(obj(vec![
                ("name", st(s.name)),
                ("cat", st("layer")),
                ("ph", st("X")),
                ("pid", Value::Num(1.0)),
                ("tid", Value::Num(self.depth(i) as f64)),
                ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                ("dur", Value::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("args", Value::Object(args)),
            ]));
        }
        Value::Object(vec![
            ("displayTimeUnit".to_string(), st("ms")),
            ("traceEvents".to_string(), Value::Array(events)),
        ])
    }

    fn depth(&self, mut i: SpanId) -> usize {
        let mut d = 0;
        while let Some(p) = self.spans[i].parent {
            d += 1;
            i = p;
        }
        d
    }
}

pub fn st(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
