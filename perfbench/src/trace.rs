//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end on the engine's telemetry clock
//! (the clock the servers' `TRACE` spans use, so both line up), the span
//! that caused it, and the trace id shared by every span of one request.
//! Spans stay in memory and are written out when the run ends.

use crate::json::Json;
use ctori_engine::telemetry::monotonic_nanos;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Span {
    pub trace: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span sink; a disabled tracer records nothing and costs one branch.
pub struct Tracer {
    enabled: bool,
    next_id: AtomicU64,
    next_trace: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Where a span hangs: its trace id and its parent span, if any.
#[derive(Clone, Copy)]
pub struct Ctx {
    pub trace: u64,
    pub parent: Option<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            next_id: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The root context of a new request.
    pub fn root(&self) -> Ctx {
        Ctx {
            trace: self.next_trace.fetch_add(1, Ordering::Relaxed),
            parent: None,
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the context for
    /// child spans.
    pub fn span<T>(&self, at: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.enabled {
            return f(at);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = monotonic_nanos();
        let out = f(Ctx {
            trace: at.trace,
            parent: Some(id),
        });
        self.record(at, id, name, start, monotonic_nanos());
        out
    }

    /// Records an already-timed span (server-side spans from `TRACE`, or
    /// a step span derived from `RoundStats`).
    pub fn add(&self, at: Ctx, name: &'static str, start: u64, end: u64) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.record(at, id, name, start, end);
        }
    }

    fn record(&self, at: Ctx, id: u64, name: &'static str, start: u64, end: u64) {
        self.spans.lock().expect("span sink poisoned").push(Span {
            trace: at.trace,
            id,
            parent: at.parent,
            name,
            start,
            end,
        });
    }

    /// Every recorded span as JSON lines, in recording order.
    pub fn to_jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span sink poisoned");
        let mut out = String::new();
        for s in spans.iter() {
            let line = Json::obj([
                ("trace", Json::Int(s.trace)),
                ("id", Json::Int(s.id)),
                ("parent", s.parent.map_or(Json::Int(0), Json::Int)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(s.start)),
                ("end_ns", Json::Int(s.end)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}
