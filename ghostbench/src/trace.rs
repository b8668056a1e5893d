//! The benchmark's own span recorder: spans around each timed call into a
//! layer's public API, kept in memory and written out as one Chrome trace
//! (open it in Perfetto or `chrome://tracing`) when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use strider_support::json::JsonValue;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    sweep: u64,
}

/// An open span; close it with [`Tracer::exit`].
#[must_use = "an entered span must be exited"]
pub struct SpanId(usize);

/// Records nested spans on the benchmark thread.
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    sweep: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            origin: Instant::now(),
            workload,
            sweep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Tags every span opened from now on with sweep index `sweep`.
    pub fn set_sweep(&mut self, sweep: u64) {
        self.sweep = sweep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span named `layer.call`, child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            sweep: self.sweep,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost span and returns its duration in ms.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let end = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e6
    }

    /// Self time per layer in ms: each span's duration minus the part its
    /// children cover, summed by the layer prefix of its name.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *by_layer.entry(layer).or_insert(0.0) += own as f64 / 1e6;
        }
        by_layer
    }

    /// Writes every span as a Chrome trace `X` event, plus the per-layer
    /// self times under `selfTimeMs`.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let events = self
            .spans
            .iter()
            .map(|span| {
                let parent = span.parent.map_or(JsonValue::Null, |p| {
                    JsonValue::Str(self.spans[p].name.to_string())
                });
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(span.name.to_string())),
                    (
                        "cat".into(),
                        JsonValue::Str(span.name.split('.').next().unwrap_or("").to_string()),
                    ),
                    ("ph".into(), JsonValue::Str("X".into())),
                    ("ts".into(), JsonValue::Float(span.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        JsonValue::Float((span.end_ns - span.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), JsonValue::UInt(1)),
                    ("tid".into(), JsonValue::UInt(1)),
                    (
                        "args".into(),
                        JsonValue::Obj(vec![
                            ("workload".into(), JsonValue::Str(self.workload.to_string())),
                            ("sweep".into(), JsonValue::UInt(span.sweep)),
                            ("parent".into(), parent),
                        ]),
                    ),
                ])
            })
            .collect();
        let self_time = self
            .self_time_by_layer()
            .into_iter()
            .map(|(layer, ms)| (layer.to_string(), JsonValue::Float(ms)))
            .collect();
        let doc = JsonValue::Obj(vec![
            ("traceEvents".into(), JsonValue::Arr(events)),
            ("selfTimeMs".into(), JsonValue::Obj(self_time)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}
