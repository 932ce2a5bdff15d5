//! Spans around the benchmark's calls into the program's layers.
//!
//! A [`Tracer`] built with tracing off only runs the closure it is
//! given. With tracing on it records one [`Span`] per call: layer, name,
//! start, end, the enclosing span on the same thread, the job or request
//! id, and the allocations made while the span was open. Spans stay in
//! memory; [`Tracer::write_chrome`] writes them at the end as Chrome
//! trace-event JSON through the in-tree `mrlr_core::io::Json` writer, and
//! [`self_times`] turns them into the per-layer self-time table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mrlr_core::io::Json;

use crate::alloc;

/// Layer name of the benchmark's own root spans (one per job or request).
pub const BENCH: &str = "bench";
/// Name of the root span of a job or request.
pub const JOB: &str = "job";

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span open on the same thread when this one started; 0 at
    /// the root.
    pub parent: u64,
    pub layer: &'static str,
    pub name: &'static str,
    /// Job or request id the span belongs to.
    pub job: u64,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Span recorder shared by every thread of a run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    /// A recorder; with `on == false` [`Tracer::span`] records nothing.
    pub fn new(on: bool) -> Tracer {
        if on {
            alloc::enable();
        }
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name` of layer `layer`.
    pub fn span<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let (allocs0, bytes0) = alloc::counts();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (allocs1, bytes1) = alloc::counts();
        OPEN.with(|open| open.borrow_mut().pop());
        let span = Span {
            id,
            parent,
            layer,
            name,
            job,
            tid: TID.with(|t| *t),
            start_ns,
            end_ns,
            allocs: allocs1 - allocs0,
            alloc_bytes: bytes1 - bytes0,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes the spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps; layer as category, ids in `args`).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let pid = u64::from(std::process::id());
        let events = self
            .spans()
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::F64(s.start_ns as f64 / 1e3)),
                    ("dur", Json::F64((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::U64(pid)),
                    ("tid", Json::U64(s.tid)),
                    (
                        "args",
                        Json::Obj(vec![
                            ("id", Json::U64(s.id)),
                            ("parent", Json::U64(s.parent)),
                            ("job", Json::U64(s.job)),
                            ("allocs", Json::U64(s.allocs)),
                            ("alloc_bytes", Json::U64(s.alloc_bytes)),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ]);
        std::fs::write(path, doc.render_compact())
    }
}

/// Self time of every span: its duration minus the time its children
/// (spans whose `parent` is it) were open.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut own: BTreeMap<u64, f64> = spans.iter().map(|s| (s.id, s.secs())).collect();
    for s in spans {
        if let Some(parent) = own.get_mut(&s.parent) {
            *parent -= s.secs();
        }
    }
    own
}

/// Per-layer self time in seconds, summed over `spans`.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut table = BTreeMap::new();
    for s in spans {
        *table.entry(s.layer).or_insert(0.0) += own[&s.id];
    }
    table
}

/// Share of root job-span wall time that no layer span covers.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut uncovered, mut wall) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.layer == BENCH && s.name == JOB) {
        uncovered += own[&s.id];
        wall += s.secs();
    }
    if wall > 0.0 {
        uncovered / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        tracer.span(BENCH, JOB, 7, || {
            tracer.span("io", "io.parse", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.parent, root.id);
        assert_eq!(child.job, 7);
        let table = layer_table(&spans);
        assert!(table["io"] >= 0.02);
        let share = unattributed_share(&spans);
        assert!(share > 0.0 && share < 0.5, "share {share}");
    }

    #[test]
    fn untraced_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("io", "io.read", 1, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
