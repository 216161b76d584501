//! In-memory span recorder for traced runs, and self-time accounting.
//!
//! Spans are recorded only here, around calls into the program's public
//! functions; the program itself carries no probe. A span has a name, a
//! start, an end, a parent and a lane count: a span that fans its children
//! out over `lanes` worker threads (a pool) owns `lanes × duration` of
//! thread time. Self time is weighted so that it tiles the root exactly:
//! a child of a pool with `J` lanes counts `1/J` of its duration toward the
//! wall clock, and the pool's own self time is the idle share of its lanes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are ns since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// Parent id; 0 for a root.
    pub parent: u64,
    /// Layer name.
    pub name: &'static str,
    /// Worker threads the span's children run on.
    pub lanes: u32,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Reserves a span id (for a span whose children start before it ends).
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id, for its children.
    pub fn time<R>(&self, name: &'static str, parent: u64, f: impl FnOnce(u64) -> R) -> R {
        self.time_lanes(name, parent, 1, f)
    }

    /// [`Tracer::time`] for a span whose children run on `lanes` threads.
    pub fn time_lanes<R>(
        &self,
        name: &'static str,
        parent: u64,
        lanes: usize,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.id();
        let start_ns = self.now_ns();
        let r = f(id);
        self.record(Span {
            id,
            parent,
            name,
            lanes: lanes.max(1) as u32,
            start_ns,
            end_ns: self.now_ns(),
        });
        r
    }

    /// Records a span of known duration that the program measured itself
    /// (an engine handler class, a daemon phase), laid out from `start_ns`.
    pub fn attribute(&self, name: &'static str, parent: u64, start_ns: u64, dur_ns: u64) {
        self.record(Span {
            id: self.id(),
            parent,
            name,
            lanes: 1,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let mut s = self.spans.lock().expect("span list poisoned").clone();
        s.sort_by_key(|s| s.id);
        s
    }
}

/// Self-time accounting over one span tree.
#[derive(Debug, Default)]
pub struct Accounting {
    /// Σ root-span durations, ms: the traced wall time.
    pub wall_ms: f64,
    /// Per layer: wall-equivalent self time, ms (roots excluded).
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Per layer: (calls, Σ duration ns) — for per-call means.
    pub calls: BTreeMap<&'static str, (u64, f64)>,
    /// Wall time not covered by any layer: the roots' own self time.
    pub unaccounted_ms: f64,
}

impl Accounting {
    /// Mean duration of one `layer` call, µs (0 when it never ran).
    pub fn mean_us(&self, layer: &str) -> f64 {
        match self.calls.get(layer) {
            Some(&(n, total)) if n > 0 => total / n as f64 / 1e3,
            _ => 0.0,
        }
    }

    /// Σ duration of `layer` spans, ms (thread time, not wall-weighted).
    pub fn busy_ms(&self, layer: &str) -> f64 {
        self.calls.get(layer).map_or(0.0, |&(_, t)| t / 1e6)
    }
}

/// Computes weighted self times: for every span,
/// `weight × (duration − Σ child durations / lanes)`, where a root weighs 1
/// and a child weighs its parent's weight divided by the parent's lanes.
/// The per-layer self times plus the roots' self time (unaccounted) sum to
/// the roots' total duration.
pub fn account(spans: &[Span]) -> Accounting {
    let index: BTreeMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_dur = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            child_dur[p] += s.dur();
        }
    }
    // Ids grow from parent to child (a parent reserves its id before its
    // children start), so one pass in id order sees every parent first.
    let mut weight = vec![1.0f64; spans.len()];
    let mut acc = Accounting::default();
    for (i, s) in spans.iter().enumerate() {
        let parent = index.get(&s.parent).copied();
        if let Some(p) = parent {
            weight[i] = weight[p] / spans[p].lanes as f64;
        }
        let own = weight[i] * (s.dur() - child_dur[i] / s.lanes as f64) / 1e6;
        let c = acc.calls.entry(s.name).or_default();
        c.0 += 1;
        c.1 += s.dur();
        if parent.is_none() {
            acc.wall_ms += s.dur() / 1e6;
            acc.unaccounted_ms += own;
        } else {
            *acc.self_ms.entry(s.name).or_default() += own;
        }
    }
    acc
}

/// The spans as JSON lines (`id`, `parent`, `name`, `lanes`, `start_ns`,
/// `end_ns`).
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"lanes\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.lanes, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, lanes: u32, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            lanes,
            start_ns: s * 1_000_000,
            end_ns: e * 1_000_000,
        }
    }

    #[test]
    fn self_times_tile_the_root_through_a_pool() {
        // root 0..100 ms; a pool 10..90 ms on 2 lanes holds three points
        // of 100 ms thread time in all, one of them with an engine child.
        let spans = vec![
            span(1, 0, "run", 1, 0, 100),
            span(2, 1, "pool", 2, 10, 90),
            span(3, 2, "point", 1, 10, 60),
            span(4, 2, "point", 1, 10, 40),
            span(5, 3, "engine", 1, 20, 50),
            span(6, 2, "point", 1, 40, 60),
        ];
        let acc = account(&spans);
        assert_eq!(acc.wall_ms, 100.0);
        let total: f64 = acc.self_ms.values().sum::<f64>() + acc.unaccounted_ms;
        assert!((total - 100.0).abs() < 1e-9);
        assert_eq!(acc.unaccounted_ms, 20.0);
        assert_eq!(acc.self_ms["engine"], 15.0);
        assert_eq!(acc.self_ms["point"], 35.0); // (100 − 30) / 2
        assert_eq!(acc.self_ms["pool"], 30.0); // 80 − 100 / 2
        assert!((acc.mean_us("point") - 100_000.0 / 3.0).abs() < 1e-6);
    }
}
