//! Recording into an existing metrics series allocates nothing.
//!
//! A counting global allocator tallies the allocations of the current
//! thread only, so the test harness's own threads cannot disturb the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use chiplet_sim::{MetricKind, MetricsRegistry, SimTime};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every call to the system allocator unchanged; the tally
// is a plain thread-local counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn recording_into_existing_series_allocates_nothing() {
    let mut m = MetricsRegistry::new();
    m.describe("req_total", MetricKind::Counter, "Requests.");
    let at = SimTime::from_nanos(5);
    // Labels out of sorted order: the lookup must sort them itself.
    let labels = [("route", "/v1/run"), ("client", "ci-a"), ("code", "200")];
    let record = |m: &mut MetricsRegistry| {
        m.counter_add("req_total", &labels, 1.0);
        m.gauge_set("inflight", &[("client", "ci-a")], 3.0);
        m.observe("latency_ns", &labels, at, 250.0);
        m.counter_add("ticks", &[], 1.0);
    };
    // First touch creates the families and series, and may allocate.
    assert!(allocations_during(|| record(&mut m)) > 0);
    let repeated = allocations_during(|| {
        for _ in 0..1000 {
            record(&mut m);
        }
    });
    assert_eq!(repeated, 0, "recording into existing series allocated");
    assert_eq!(m.counter_value("req_total", &labels), Some(1001.0));
    assert_eq!(
        m.counter_value(
            "req_total",
            &[("code", "200"), ("client", "ci-a"), ("route", "/v1/run")]
        ),
        Some(1001.0)
    );
    assert_eq!(
        m.histogram("latency_ns", &labels).map(|h| h.count()),
        Some(1001)
    );
    // A new label value is a new series, found again without allocating.
    let other = [("route", "/v1/run"), ("client", "ci-b"), ("code", "200")];
    m.counter_add("req_total", &other, 1.0);
    assert_eq!(
        allocations_during(|| m.counter_add("req_total", &other, 1.0)),
        0
    );
    assert_eq!(m.counter_value("req_total", &other), Some(2.0));
    assert_eq!(m.counter_value("req_total", &labels), Some(1001.0));
}
