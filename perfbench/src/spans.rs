//! In-memory span recording for the traced replay.
//!
//! A span covers one call into a layer: its name (`<layer>.<call>`),
//! start and end on a run-wide clock, the span that caused it and the
//! matrix cell it belongs to. Spans stay in memory until the run ends
//! and are written out once, so recording costs two short mutex
//! sections per layer call and no I/O.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Obj;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub cell: Option<usize>,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Every span, as JSON objects in start order of recording.
    pub fn to_json(&self) -> Vec<String> {
        let spans = self.spans.lock().expect("no recorder user panics");
        spans
            .iter()
            .map(|s| {
                Obj::new()
                    .str("name", s.name)
                    .num("start_ns", s.start_ns as f64)
                    .num("end_ns", s.end_ns as f64)
                    .opt("parent", s.parent.map(|p| p as f64))
                    .opt("cell", s.cell.map(|c| c as f64))
                    .finish()
            })
            .collect()
    }
}

/// A handle that opens spans under a fixed parent and cell. With no
/// recorder it only calls through, so traced and untraced replays run
/// the same code.
#[derive(Clone, Copy)]
pub struct Tracer<'a> {
    rec: Option<&'a Recorder>,
    parent: Option<usize>,
    cell: Option<usize>,
}

impl<'a> Tracer<'a> {
    pub fn root(rec: Option<&'a Recorder>) -> Tracer<'a> {
        Tracer {
            rec,
            parent: None,
            cell: None,
        }
    }

    /// The same tracer, with spans attributed to `cell`.
    pub fn for_cell(self, cell: usize) -> Tracer<'a> {
        Tracer {
            cell: Some(cell),
            ..self
        }
    }

    /// Runs `f` inside a span named `name`; spans `f` opens through the
    /// tracer it receives become children of this one.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Tracer<'a>) -> R) -> R {
        let Some(rec) = self.rec else {
            return f(*self);
        };
        let id = {
            let mut spans = rec.spans.lock().expect("no recorder user panics");
            spans.push(Span {
                name,
                start_ns: rec.now_ns(),
                end_ns: 0,
                parent: self.parent,
                cell: self.cell,
            });
            spans.len() - 1
        };
        let out = f(Tracer {
            parent: Some(id),
            ..*self
        });
        let end = rec.now_ns();
        rec.spans.lock().expect("no recorder user panics")[id].end_ns = end;
        out
    }
}
