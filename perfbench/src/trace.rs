//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers.
//!
//! A span has a layer (one of [`LAYERS`]), an operation name, start and
//! end times, its parent span, and a request id shared by every span of
//! one operation or request. Spans stay in memory until the run ends;
//! [`Tracer::write_jsonl`] then writes them out. A layer's self time is
//! the sum over its spans of each span's duration minus the part of it
//! that child spans cover.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layers spans are attributed to: the program's modules plus the
/// benchmark's own load generator and operation loop (`loadgen`).
pub const LAYERS: [&str; 12] = [
    "lang",
    "lint",
    "sim.index",
    "sim.engine",
    "sim.incremental",
    "sim.mc",
    "sim.bounds",
    "serve.http",
    "serve.cache",
    "serve.api",
    "serve.render",
    "loadgen",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where new spans on this thread attach: `(parent span id, request id)`.
pub type Ctx = (u64, u64);

thread_local! {
    static STACK: RefCell<Vec<Ctx>> = const { RefCell::new(Vec::new()) };
}

/// A span recorder; when off, [`Tracer::span`] only runs its closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span that is a child of this thread's current
    /// span (and shares its request id).
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (parent, req) = STACK.with(|s| s.borrow().last().copied()).unzip();
        self.record(parent, req.unwrap_or(0), layer, name, f)
    }

    /// Runs `f` inside a root span that starts request `req`.
    pub fn request<T>(
        &self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        self.record(None, req, layer, name, f)
    }

    fn record<T>(
        &self,
        parent: Option<u64>,
        req: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push((id, req)));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans.lock().expect("span list lock").push(Span {
            id,
            parent,
            req,
            layer,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// This thread's current span, to hand to work on another thread.
    pub fn current(&self) -> Option<Ctx> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` with spans attaching under `ctx` (from [`Self::current`]
    /// on the thread that handed the work over).
    pub fn adopt<T>(&self, ctx: Option<Ctx>, f: impl FnOnce() -> T) -> T {
        let Some(ctx) = ctx.filter(|_| self.on) else {
            return f();
        };
        STACK.with(|s| s.borrow_mut().push(ctx));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes the spans as JSON lines, one object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list lock").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.req, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals (clipped to the span), in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Per-layer `(self time ns, span count)` over `spans`.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.layer).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Durations in ms of the spans named `name` in `layer`.
pub fn durations_ms(spans: &[Span], layer: &str, name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer && s.name == name)
        .map(|s| s.dur() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span(1, None, "loadgen", 0, 100),
            // Two overlapping children (parallel workers) cover 10..50.
            span(2, Some(1), "sim.engine", 10, 40),
            span(3, Some(1), "sim.engine", 30, 50),
            // A disjoint child covers 60..70.
            span(4, Some(1), "serve.render", 60, 70),
            // A grandchild covers part of span 2 only.
            span(5, Some(2), "sim.index", 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 10]);
        let layers = by_layer(&spans);
        assert_eq!(layers["loadgen"], (50, 1));
        assert_eq!(layers["sim.engine"], (40, 2));
        assert_eq!(layers["serve.render"], (10, 1));
        assert_eq!(layers["sim.index"], (10, 1));
    }

    #[test]
    fn a_child_running_past_its_parent_is_clipped() {
        let spans = vec![
            span(1, None, "serve.api", 0, 10),
            span(2, Some(1), "sim.mc", 5, 20),
        ];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn tracer_links_parents_and_request_ids() {
        let t = Tracer::new(true);
        t.request(7, "loadgen", "op", || {
            t.span("lang", "parse", || ());
            let ctx = t.current();
            std::thread::scope(|s| {
                s.spawn(|| t.adopt(ctx, || t.span("sim.engine", "run", || ())));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.layer == "loadgen").unwrap();
        assert_eq!(root.parent, None);
        for s in spans.iter().filter(|s| s.layer != "loadgen") {
            assert_eq!((s.parent, s.req), (Some(root.id), 7));
        }
        let off = Tracer::new(false);
        assert_eq!(off.span("lang", "parse", || 3), 3);
        assert!(off.spans().is_empty());
    }
}
