//! The unified metrics registry (§4 #5's counter half).
//!
//! Every layer of the workspace reports runtime telemetry into one
//! [`MetricsRegistry`]: the event engine at transaction completion, the
//! fluid engine per integration epoch, the phase profiler, and the sweep
//! runner per executed point. It lives in this domain-free crate so
//! producers below `chiplet-net` record into it directly. Three series
//! kinds exist:
//!
//! * **counters** — monotone totals (bytes, completions, ticks), optionally
//!   attributed to fixed sim-time windows;
//! * **gauges** — last-value samples (achieved GB/s, utilization);
//! * **histograms** — [`QuantileSketch`]-backed distributions with
//!   **windowed sketch telemetry**: observations land both in a whole-run
//!   sketch and in the sketch of the fixed sim-time window containing
//!   their timestamp. Window boundaries are *simulated* time, never wall
//!   clock, so dumps are byte-identical run-to-run; and because DDSketch
//!   merging is exact bucket addition, merging all window sketches
//!   reproduces the whole-run sketch exactly. A histogram in a volatile
//!   family (below) keeps only its whole-run sketch.
//!
//! Hot-path producers resolve a series once with
//! [`MetricsRegistry::series_handle`] and record through the `*_handle`
//! methods; the string methods resolve the same handle per sample.
//! Series are keyed by sorted label sets (`flow`, `link_id`, `dir`,
//! `backend`, `scenario`, `sweep_point`) inside `BTreeMap`s, so iteration —
//! and therefore the [OpenMetrics] text exposition
//! ([`MetricsRegistry::to_openmetrics`]) — is deterministic. Families
//! marked *volatile* (wall time, pool occupancy, cache hit/miss: anything
//! execution-dependent) are excluded from the default exposition to keep
//! the byte-identity guarantee, and included only by
//! [`MetricsRegistry::to_openmetrics_with_volatile`].
//!
//! [OpenMetrics]: https://github.com/OpenObservability/OpenMetrics

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use crate::sketch::QuantileSketch;
use crate::time::{SimDuration, SimTime};

/// Default histogram window when a registry is built with
/// [`MetricsRegistry::new`].
pub const DEFAULT_WINDOW: SimDuration = SimDuration::from_millis(1);

/// The quantiles every histogram family exposes.
const QUANTILES: [(f64, &str); 4] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

/// Sample suffixes OpenMetrics permits on top of a family name.
const SAMPLE_SUFFIXES: [&str; 5] = ["_total", "_count", "_sum", "_bucket", "_created"];

/// What a metric family measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone total; exposed with an `_total` sample suffix.
    Counter,
    /// A last-value sample.
    Gauge,
    /// A windowed quantile sketch; exposed as an OpenMetrics summary.
    Histogram,
}

impl MetricKind {
    fn om_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "summary",
        }
    }
}

/// A sorted `(key, value)` label list — the series key within a family.
pub type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut v: LabelSet = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

/// Label sets of up to this many pairs are looked up without allocating.
const STACK_LABELS: usize = 8;

/// A sorted label list, owned (a stored [`LabelSet`]) or borrowed (a
/// caller's pairs sorted on the stack), ordered exactly like `LabelSet`:
/// a family's `BTreeMap<LabelSet, _>` can then be searched with borrowed
/// `&str` pairs instead of a freshly built `LabelSet`.
trait SortedLabels {
    fn len(&self) -> usize;
    fn pair(&self, i: usize) -> (&str, &str);
}

impl SortedLabels for LabelSet {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn pair(&self, i: usize) -> (&str, &str) {
        (self[i].0.as_str(), self[i].1.as_str())
    }
}

/// Borrowed pairs, already sorted.
struct SortedPairs<'a>(&'a [(&'a str, &'a str)]);

impl SortedLabels for SortedPairs<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn pair(&self, i: usize) -> (&str, &str) {
        self.0[i]
    }
}

impl<'a> Borrow<dyn SortedLabels + 'a> for LabelSet {
    fn borrow(&self) -> &(dyn SortedLabels + 'a) {
        self
    }
}

impl Ord for dyn SortedLabels + '_ {
    /// `Vec`'s order: pairwise, then the shorter list first.
    fn cmp(&self, other: &Self) -> Ordering {
        (0..self.len().min(other.len()))
            .map(|i| self.pair(i).cmp(&other.pair(i)))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| self.len().cmp(&other.len()))
    }
}
impl PartialOrd for dyn SortedLabels + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for dyn SortedLabels + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for dyn SortedLabels + '_ {}

/// The slot of the series labelled `labels` (in any order), if it exists.
/// Up to [`STACK_LABELS`] pairs are sorted on the stack, so looking up an
/// existing series allocates nothing.
fn find_series(series: &BTreeMap<LabelSet, u32>, labels: &[(&str, &str)]) -> Option<u32> {
    let mut buf = [("", ""); STACK_LABELS];
    match buf.get_mut(..labels.len()) {
        Some(sorted) => {
            sorted.copy_from_slice(labels);
            sorted.sort_unstable();
            let key: &dyn SortedLabels = &SortedPairs(sorted);
            series.get(key).copied()
        }
        None => series.get(&label_set(labels)).copied(),
    }
}

/// A quantile sketch with sim-time-windowed snapshots.
///
/// Each observation lands in the whole-run sketch *and* in the sketch of
/// the window `⌊at / window⌋` containing its timestamp. Windows hold full
/// [`QuantileSketch`]es, so any window's quantiles can be queried after the
/// run, and the union of all windows equals the whole-run sketch exactly —
/// DDSketch merging is bucket-count addition, so no information is lost at
/// window boundaries.
///
/// A histogram of a volatile family keeps only the whole-run sketch: its
/// timestamps are wall clock, and one window per busy millisecond of
/// uptime would grow without bound.
#[derive(Debug, Clone)]
pub struct WindowedSketch {
    /// `None` keeps no windows (volatile families).
    window: Option<SimDuration>,
    /// `(window index, sketch)`, ascending by index.
    windows: Vec<(u64, QuantileSketch)>,
    total: QuantileSketch,
    sum: f64,
}

impl WindowedSketch {
    /// An empty sketch windowed at `window` (the registry guarantees it is
    /// non-zero), or whole-run only for `None`.
    fn new(window: Option<SimDuration>) -> Self {
        WindowedSketch {
            window,
            windows: Vec::new(),
            total: QuantileSketch::new(),
            sum: 0.0,
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.total.count()
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The whole-run sketch.
    pub fn total(&self) -> &QuantileSketch {
        &self.total
    }

    /// Records one observation at sim time `at`.
    pub fn record(&mut self, at: SimTime, v: f64) {
        self.total.record(v);
        self.sum += v;
        let Some(window) = self.window else {
            return;
        };
        let idx = at.as_nanos() / window.as_nanos();
        // The common case is in-order arrival into the latest window;
        // merged registries may interleave, so fall back to binary search.
        let found = match self.windows.last() {
            Some(&(last, _)) if last == idx => Ok(self.windows.len() - 1),
            Some(&(last, _)) if last > idx => self.windows.binary_search_by_key(&idx, |&(i, _)| i),
            _ => Err(self.windows.len()),
        };
        let pos = found.unwrap_or_else(|pos| {
            self.windows.insert(pos, (idx, QuantileSketch::new()));
            pos
        });
        self.windows[pos].1.record(v);
    }

    /// The non-empty windows, ascending: `(window start, sketch)`.
    pub fn windows(&self) -> impl Iterator<Item = (SimTime, &QuantileSketch)> {
        let w = self.window.map_or(0, SimDuration::as_nanos);
        self.windows
            .iter()
            .map(move |(i, sk)| (SimTime::from_nanos(i * w), sk))
    }

    /// Merges another windowed sketch (same window).
    ///
    /// # Panics
    ///
    /// Panics on mismatched windows.
    pub fn merge(&mut self, other: &WindowedSketch) {
        assert!(
            self.window == other.window,
            "cannot merge windowed sketches with different windows"
        );
        for (idx, sk) in &other.windows {
            match self.windows.binary_search_by_key(idx, |&(i, _)| i) {
                Ok(pos) => self.windows[pos].1.merge(sk),
                Err(pos) => self.windows.insert(pos, (*idx, sk.clone())),
            }
        }
        self.total.merge(&other.total);
        self.sum += other.sum;
    }
}

/// Per-window increments of a counter series.
#[derive(Debug, Clone, Default)]
struct CounterWindows {
    window_ns: u64,
    /// `(window index, increment)`, ascending by index.
    buckets: Vec<(u64, f64)>,
}

impl CounterWindows {
    fn add(&mut self, window_ns: u64, at: SimTime, v: f64) {
        debug_assert!(window_ns > 0);
        if self.window_ns == 0 {
            self.window_ns = window_ns;
        }
        assert!(
            self.window_ns == window_ns,
            "cannot window one counter series at two widths"
        );
        let idx = at.as_nanos() / self.window_ns;
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += v,
            Err(pos) => self.buckets.insert(pos, (idx, v)),
        }
    }

    fn merge(&mut self, other: &CounterWindows) {
        if other.window_ns == 0 {
            return;
        }
        for &(idx, v) in &other.buckets {
            self.add(
                other.window_ns,
                SimTime::from_nanos(idx * other.window_ns),
                v,
            );
        }
    }
}

#[derive(Debug, Clone)]
enum SeriesValue {
    Counter { total: f64, windows: CounterWindows },
    Gauge(f64),
    Histogram(WindowedSketch),
}

impl SeriesValue {
    /// A new series of `kind`; a histogram windows at `window`.
    fn empty(kind: MetricKind, window: Option<SimDuration>) -> SeriesValue {
        match kind {
            MetricKind::Counter => SeriesValue::Counter {
                total: 0.0,
                windows: CounterWindows::default(),
            },
            MetricKind::Gauge => SeriesValue::Gauge(0.0),
            MetricKind::Histogram => SeriesValue::Histogram(WindowedSketch::new(window)),
        }
    }

    /// Folds `other` (same kind) in: counters add, gauges take the
    /// incoming value, histograms merge sketches.
    fn merge(&mut self, other: &SeriesValue) {
        match (self, other) {
            (
                SeriesValue::Counter { total, windows },
                SeriesValue::Counter {
                    total: t2,
                    windows: w2,
                },
            ) => {
                *total += t2;
                windows.merge(w2);
            }
            (SeriesValue::Gauge(g), SeriesValue::Gauge(g2)) => *g = *g2,
            (SeriesValue::Histogram(sk), SeriesValue::Histogram(sk2)) => sk.merge(sk2),
            _ => unreachable!("family_mut checked the kind"),
        }
    }
}

/// A registry-assigned dense series identifier.
///
/// Hot-path producers resolve `(kind, name, labels)` once via
/// [`MetricsRegistry::series_handle`] and record through the handle
/// thereafter, skipping the per-sample name lookup and label-set
/// allocation. Handles are only meaningful to the registry that issued
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesHandle(u32);

/// One named metric family: a kind, help text, and its series.
///
/// Series *values* live in the registry's dense slot arena; the family
/// maps each sorted label set to its slot index, so hot-path recording
/// through a [`SeriesHandle`] is a single `Vec` index while iteration (and
/// the OpenMetrics exposition) stays `BTreeMap`-ordered and deterministic.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    kind: MetricKind,
    help: String,
    volatile: bool,
    series: BTreeMap<LabelSet, u32>,
}

/// The registry: named families of counters, gauges, and windowed
/// histograms. See the [module docs](self) for the model.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    window: SimDuration,
    families: BTreeMap<String, MetricFamily>,
    /// The dense series arena; family maps index into it.
    slots: Vec<SeriesValue>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// A registry windowing histograms at [`DEFAULT_WINDOW`].
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// A registry windowing histograms (and windowed counters) at `window`
    /// of sim time.
    ///
    /// # Panics
    ///
    /// Panics on a zero window.
    pub fn with_window(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window must be positive");
        MetricsRegistry {
            window,
            families: BTreeMap::new(),
            slots: Vec::new(),
        }
    }

    /// Declares a family's kind and help text (idempotent; creating the
    /// family on first use). Samples may arrive before or after.
    ///
    /// # Panics
    ///
    /// Panics when the family already exists with a different kind.
    pub fn describe(&mut self, name: &str, kind: MetricKind, help: &str) {
        let fam = family_mut(&mut self.families, name, kind);
        if fam.help.is_empty() {
            fam.help = help.to_string();
        }
    }

    /// Like [`MetricsRegistry::describe`], additionally marking the family
    /// volatile: execution-dependent (wall time, pool occupancy, cache
    /// hits), excluded from the deterministic exposition.
    pub fn describe_volatile(&mut self, name: &str, kind: MetricKind, help: &str) {
        self.describe(name, kind, help);
        family_mut(&mut self.families, name, kind).volatile = true;
    }

    /// Number of series across every family.
    pub fn series_count(&self) -> usize {
        self.slots.len()
    }

    /// Resolves `(kind, name, labels)` to a dense handle, creating the
    /// family and an empty series on first touch; resolving an existing
    /// series allocates nothing. A histogram series of a volatile family
    /// keeps no time windows.
    ///
    /// # Panics
    ///
    /// Panics when the family already exists with a different kind.
    pub fn series_handle(
        &mut self,
        kind: MetricKind,
        name: &str,
        labels: &[(&str, &str)],
    ) -> SeriesHandle {
        let fam = family_mut(&mut self.families, name, kind);
        if let Some(idx) = find_series(&fam.series, labels) {
            return SeriesHandle(idx);
        }
        let idx = u32::try_from(self.slots.len()).expect("series arena overflow");
        let window = (!fam.volatile).then_some(self.window);
        self.slots.push(SeriesValue::empty(kind, window));
        fam.series.insert(label_set(labels), idx);
        SeriesHandle(idx)
    }

    /// Adds `v` (≥ 0) to the counter series behind `h`.
    pub fn counter_add_handle(&mut self, h: SeriesHandle, v: f64) {
        match &mut self.slots[h.0 as usize] {
            SeriesValue::Counter { total, .. } => *total += v,
            _ => panic!("handle {h:?} is not a counter"),
        }
    }

    /// Adds `v` to the counter series behind `h`, also attributing it to
    /// the sim-time window containing `at`.
    pub fn counter_add_at_handle(&mut self, h: SeriesHandle, at: SimTime, v: f64) {
        let window_ns = self.window.as_nanos();
        match &mut self.slots[h.0 as usize] {
            SeriesValue::Counter { total, windows } => {
                *total += v;
                windows.add(window_ns, at, v);
            }
            _ => panic!("handle {h:?} is not a counter"),
        }
    }

    /// Sets the gauge series behind `h` to `v`.
    pub fn gauge_set_handle(&mut self, h: SeriesHandle, v: f64) {
        match &mut self.slots[h.0 as usize] {
            SeriesValue::Gauge(g) => *g = v,
            _ => panic!("handle {h:?} is not a gauge"),
        }
    }

    /// Records one observation of `v` at sim time `at` into the histogram
    /// series behind `h`.
    pub fn observe_handle(&mut self, h: SeriesHandle, at: SimTime, v: f64) {
        match &mut self.slots[h.0 as usize] {
            SeriesValue::Histogram(sk) => sk.record(at, v),
            _ => panic!("handle {h:?} is not a histogram"),
        }
    }

    /// Adds `v` (≥ 0) to a counter series.
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let h = self.series_handle(MetricKind::Counter, name, labels);
        self.counter_add_handle(h, v);
    }

    /// Adds `v` to a counter series, also attributing it to the sim-time
    /// window containing `at`.
    pub fn counter_add_at(&mut self, name: &str, labels: &[(&str, &str)], at: SimTime, v: f64) {
        let h = self.series_handle(MetricKind::Counter, name, labels);
        self.counter_add_at_handle(h, at, v);
    }

    /// Sets a gauge series to `v`.
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let h = self.series_handle(MetricKind::Gauge, name, labels);
        self.gauge_set_handle(h, v);
    }

    /// Records one observation of `v` at sim time `at` into a histogram
    /// series.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], at: SimTime, v: f64) {
        let h = self.series_handle(MetricKind::Histogram, name, labels);
        self.observe_handle(h, at, v);
    }

    fn slot(&self, name: &str, labels: &[(&str, &str)]) -> Option<&SeriesValue> {
        let idx = find_series(&self.families.get(name)?.series, labels)?;
        Some(&self.slots[idx as usize])
    }

    /// A counter series' total, if it exists.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self.slot(name, labels)? {
            SeriesValue::Counter { total, .. } => Some(*total),
            _ => None,
        }
    }

    /// A histogram series' windowed sketch, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&WindowedSketch> {
        match self.slot(name, labels)? {
            SeriesValue::Histogram(sk) => Some(sk),
            _ => None,
        }
    }

    /// Merges every series of `other` into this registry, extending each
    /// series' label set with `extra` pairs (e.g. `backend`, `scenario`,
    /// `sweep_point`). Counters add, gauges take the incoming value,
    /// histograms merge sketches; family help and volatility are adopted
    /// where this registry has none.
    ///
    /// # Panics
    ///
    /// Panics when a family exists in both registries with different
    /// kinds, or when merged histogram series disagree on window.
    pub fn merge_labeled(&mut self, other: &MetricsRegistry, extra: &[(&str, &str)]) {
        for (name, fam) in &other.families {
            let dst = family_mut(&mut self.families, name, fam.kind);
            if dst.help.is_empty() {
                dst.help = fam.help.clone();
            }
            dst.volatile = dst.volatile || fam.volatile;
            for (labels, &src_idx) in &fam.series {
                let value = &other.slots[src_idx as usize];
                let mut key = labels.clone();
                key.extend(extra.iter().map(|&(k, v)| (k.to_string(), v.to_string())));
                key.sort();
                let dst = self.families.get_mut(name).expect("family exists");
                match dst.series.entry(key) {
                    Entry::Occupied(e) => self.slots[*e.get() as usize].merge(value),
                    Entry::Vacant(e) => {
                        e.insert(u32::try_from(self.slots.len()).expect("series arena overflow"));
                        self.slots.push(value.clone());
                    }
                }
            }
        }
    }

    /// Encodes the deterministic families as OpenMetrics text (ending in
    /// `# EOF`). Volatile families are excluded, so for a fixed scenario
    /// and seed the bytes are identical across runs, worker counts, and
    /// cache states.
    pub fn to_openmetrics(&self) -> String {
        self.encode(false)
    }

    /// Encodes **all** families, volatile ones included. The output is not
    /// byte-stable across runs; use it for interactive inspection only.
    pub fn to_openmetrics_with_volatile(&self) -> String {
        self.encode(true)
    }

    fn encode(&self, include_volatile: bool) -> String {
        let mut out = String::new();
        for (name, fam) in &self.families {
            if (fam.volatile && !include_volatile) || fam.series.is_empty() {
                continue;
            }
            encode_family_header(&mut out, name, fam.kind, &fam.help);
            match fam.kind {
                MetricKind::Counter => {
                    for (labels, &idx) in &fam.series {
                        let SeriesValue::Counter { total, .. } = &self.slots[idx as usize] else {
                            unreachable!("counter family holds counters");
                        };
                        sample_line(&mut out, &format!("{name}_total"), labels, &[], *total);
                    }
                    encode_counter_windows(&mut out, name, fam, &self.slots);
                }
                MetricKind::Gauge => {
                    for (labels, &idx) in &fam.series {
                        let SeriesValue::Gauge(v) = &self.slots[idx as usize] else {
                            unreachable!("gauge family holds gauges");
                        };
                        sample_line(&mut out, name, labels, &[], *v);
                    }
                }
                MetricKind::Histogram => {
                    for (labels, &idx) in &fam.series {
                        let SeriesValue::Histogram(sk) = &self.slots[idx as usize] else {
                            unreachable!("histogram family holds histograms");
                        };
                        encode_summary(&mut out, name, labels, &[], sk.total(), sk.sum());
                    }
                    encode_histogram_windows(&mut out, name, fam, &self.slots);
                }
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

fn family_mut<'a>(
    families: &'a mut BTreeMap<String, MetricFamily>,
    name: &str,
    kind: MetricKind,
) -> &'a mut MetricFamily {
    // Looked up by `&str` first: only a new family allocates its name.
    if !families.contains_key(name) {
        families.insert(
            name.to_string(),
            MetricFamily {
                kind,
                help: String::new(),
                volatile: false,
                series: BTreeMap::new(),
            },
        );
    }
    let fam = families.get_mut(name).expect("inserted above");
    assert!(
        fam.kind == kind,
        "metric family '{name}' used with two kinds"
    );
    fam
}

// ---------------------------------------------------------------------------
// OpenMetrics text encoding.

fn encode_family_header(out: &mut String, name: &str, kind: MetricKind, help: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind.om_type());
    out.push('\n');
    if !help.is_empty() {
        out.push_str("# HELP ");
        out.push_str(name);
        out.push(' ');
        out.push_str(&escape_help(help));
        out.push('\n');
    }
}

fn encode_counter_windows(out: &mut String, name: &str, fam: &MetricFamily, slots: &[SeriesValue]) {
    let windowed = fam.series.values().any(|&i| {
        matches!(&slots[i as usize], SeriesValue::Counter { windows, .. } if !windows.buckets.is_empty())
    });
    if !windowed {
        return;
    }
    let wname = format!("{name}_window");
    encode_family_header(
        out,
        &wname,
        MetricKind::Gauge,
        &format!("Per-sim-time-window increments of {name}."),
    );
    for (labels, &idx) in &fam.series {
        let SeriesValue::Counter { windows, .. } = &slots[idx as usize] else {
            unreachable!("counter family holds counters");
        };
        for &(idx, v) in &windows.buckets {
            let start = (idx * windows.window_ns).to_string();
            sample_line(out, &wname, labels, &[("window_start_ns", &start)], v);
        }
    }
}

fn encode_histogram_windows(
    out: &mut String,
    name: &str,
    fam: &MetricFamily,
    slots: &[SeriesValue],
) {
    let windowed = fam.series.values().any(|&i| {
        matches!(&slots[i as usize], SeriesValue::Histogram(sk) if sk.windows.iter().any(|(_, q)| q.count() > 0))
    });
    if !windowed {
        return;
    }
    let wname = format!("{name}_window");
    encode_family_header(
        out,
        &wname,
        MetricKind::Histogram,
        &format!("Per-sim-time-window sketch snapshots of {name}."),
    );
    for (labels, &idx) in &fam.series {
        let SeriesValue::Histogram(sk) = &slots[idx as usize] else {
            unreachable!("histogram family holds histograms");
        };
        for (start, q) in sk.windows() {
            let start = start.as_nanos().to_string();
            encode_summary(
                out,
                &wname,
                labels,
                &[("window_start_ns", &start)],
                q,
                f64::NAN,
            );
        }
    }
}

/// Encodes one summary series: its quantile samples plus `_count` (and
/// `_sum` when `sum` is finite — per-window snapshots track no sums).
fn encode_summary(
    out: &mut String,
    name: &str,
    labels: &LabelSet,
    extra: &[(&str, &str)],
    sketch: &QuantileSketch,
    sum: f64,
) {
    for (q, qs) in QUANTILES {
        if let Some(v) = sketch.quantile(q) {
            let mut with_q: Vec<(&str, &str)> = extra.to_vec();
            with_q.push(("quantile", qs));
            sample_line(out, name, labels, &with_q, v);
        }
    }
    sample_line(
        out,
        &format!("{name}_count"),
        labels,
        extra,
        sketch.count() as f64,
    );
    if sum.is_finite() {
        sample_line(out, &format!("{name}_sum"), labels, extra, sum);
    }
}

/// Writes `name{labels,extra} value`, with `extra` pairs merged into the
/// sorted label list.
fn sample_line(out: &mut String, name: &str, labels: &LabelSet, extra: &[(&str, &str)], v: f64) {
    out.push_str(name);
    let mut all: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra.iter().copied())
        .collect();
    all.sort();
    if !all.is_empty() {
        out.push('{');
        for (i, (k, val)) in all.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(val));
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(&format_value(v));
    out.push('\n');
}

/// Deterministic sample-value formatting: integral values print without a
/// fractional part, everything else uses Rust's shortest round-trip form.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// OpenMetrics text parsing and linting (for `chiplet-scenario top` and
// `lint-metrics`, and CI).

/// One parsed sample line of an OpenMetrics dump.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Full sample name (family name plus any `_total`/`_count`/… suffix).
    pub name: String,
    /// Sorted labels.
    pub labels: LabelSet,
    /// The value.
    pub value: f64,
}

impl MetricSample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses the sample lines of an OpenMetrics text dump (comment and
/// metadata lines are skipped). Errors carry the 1-based line number.
pub fn parse_openmetrics(text: &str) -> Result<Vec<MetricSample>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}", no + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<MetricSample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unclosed label braces".to_string())?;
            (
                &line[..brace],
                Some((&line[brace + 1..close], &line[close + 1..])),
            )
        }
        None => match line.find(' ') {
            Some(sp) => (&line[..sp], None),
            None => return Err("sample line without a value".into()),
        },
    };
    let name = name_part.trim().to_string();
    if name.is_empty() {
        return Err("sample line without a metric name".into());
    }
    let (labels, value_part) = match rest {
        Some((labels_text, after)) => (parse_labels(labels_text)?, after),
        None => (Vec::new(), &line[name_part.len()..]),
    };
    let value_text = value_part.split_whitespace().next().unwrap_or("");
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t
            .parse::<f64>()
            .map_err(|_| format!("bad sample value '{t}'"))?,
    };
    let mut labels = labels;
    labels.sort();
    Ok(MetricSample {
        name,
        labels,
        value,
    })
}

fn parse_labels(text: &str) -> Result<LabelSet, String> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        // Skip separators.
        while matches!(chars.peek(), Some(',') | Some(' ')) {
            chars.next();
        }
        if chars.peek().is_none() {
            return Ok(out);
        }
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if chars.next() != Some('"') {
            return Err(format!("label '{key}' value is not quoted"));
        }
        let mut value = String::new();
        let mut escaped = false;
        let mut closed = false;
        for c in chars.by_ref() {
            if escaped {
                value.push(match c {
                    'n' => '\n',
                    c => c,
                });
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                closed = true;
                break;
            } else {
                value.push(c);
            }
        }
        if !closed {
            return Err(format!("label '{key}' value is not terminated"));
        }
        out.push((key.trim().to_string(), value));
    }
}

/// Lints an OpenMetrics text dump: the last line must be `# EOF`, every
/// sample must belong to a family declared by a preceding `# TYPE` line,
/// and no series (sample name + label set) may repeat. Returns every
/// violation found.
pub fn lint_openmetrics(text: &str) -> Result<(), Vec<String>> {
    let mut errors = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    match lines.last() {
        Some(&"# EOF") => {}
        _ => errors.push("the last line must be '# EOF'".to_string()),
    }
    let mut types: BTreeMap<String, usize> = BTreeMap::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut after_eof = false;
    for (no, raw) in lines.iter().enumerate() {
        let line = raw.trim_end();
        let lineno = no + 1;
        if after_eof && !line.is_empty() {
            errors.push(format!("line {lineno}: content after '# EOF'"));
            continue;
        }
        if line == "# EOF" {
            after_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some(name), Some(_kind)) => {
                    if types.insert(name.to_string(), lineno).is_some() {
                        errors.push(format!("line {lineno}: duplicate # TYPE for '{name}'"));
                    }
                }
                _ => errors.push(format!("line {lineno}: malformed # TYPE line")),
            }
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let sample = match parse_sample(line) {
            Ok(s) => s,
            Err(e) => {
                errors.push(format!("line {lineno}: {e}"));
                continue;
            }
        };
        let family = family_of(&sample.name, &types);
        match family {
            Some(decl_line) if decl_line < lineno => {}
            Some(_) => errors.push(format!(
                "line {lineno}: sample '{}' precedes its # TYPE line",
                sample.name
            )),
            None => errors.push(format!(
                "line {lineno}: sample '{}' has no preceding # TYPE",
                sample.name
            )),
        }
        let key = format!("{}{:?}", sample.name, sample.labels);
        if !seen.insert(key) {
            errors.push(format!(
                "line {lineno}: duplicate series '{}' {:?}",
                sample.name, sample.labels
            ));
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// The `# TYPE` declaration line of the family a sample name belongs to:
/// the name itself, or the name minus one OpenMetrics sample suffix.
fn family_of(sample_name: &str, types: &BTreeMap<String, usize>) -> Option<usize> {
    if let Some(&l) = types.get(sample_name) {
        return Some(l);
    }
    for suffix in SAMPLE_SUFFIXES {
        if let Some(stripped) = sample_name.strip_suffix(suffix) {
            if let Some(&l) = types.get(stripped) {
                return Some(l);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The union of every window's sketch.
    fn merged(sk: &WindowedSketch) -> QuantileSketch {
        let mut out = QuantileSketch::new();
        for (_, window) in sk.windows() {
            out.merge(window);
        }
        out
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut reg = MetricsRegistry::with_window(SimDuration::from_micros(1));
        reg.describe("bytes", MetricKind::Counter, "Payload bytes.");
        reg.counter_add_at("bytes", &[("flow", "a")], SimTime::from_nanos(10), 64.0);
        reg.counter_add_at("bytes", &[("flow", "a")], SimTime::from_nanos(1500), 64.0);
        reg.gauge_set("rate", &[("flow", "a")], 12.5);
        reg.observe("lat", &[("flow", "a")], SimTime::from_nanos(10), 100.0);
        assert_eq!(reg.counter_value("bytes", &[("flow", "a")]), Some(128.0));
        assert_eq!(reg.histogram("lat", &[("flow", "a")]).unwrap().count(), 1);
        let text = reg.to_openmetrics();
        assert!(text.contains("rate{flow=\"a\"} 12.5"));
        assert!(text.contains("# TYPE bytes counter"));
        assert!(text.contains("bytes_total{flow=\"a\"} 128"));
        assert!(text.contains("bytes_window{flow=\"a\",window_start_ns=\"0\"} 64"));
        assert!(text.contains("bytes_window{flow=\"a\",window_start_ns=\"1000\"} 64"));
        assert!(text.ends_with("# EOF\n"));
        lint_openmetrics(&text).expect("encoder output lints clean");
    }

    #[test]
    fn string_methods_and_handles_record_into_one_series() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add_at("bytes", &[], SimTime::from_micros(3), 64.0);
        assert_eq!(reg.counter_value("bytes", &[]), Some(64.0));
        let h = reg.series_handle(MetricKind::Counter, "bytes", &[]);
        reg.counter_add_handle(h, 64.0);
        assert_eq!(reg.counter_value("bytes", &[]), Some(128.0));
    }

    #[test]
    fn label_order_is_canonical() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", &[("b", "2"), ("a", "1")], 1.0);
        reg.counter_add("x", &[("a", "1"), ("b", "2")], 1.0);
        assert_eq!(reg.counter_value("x", &[("b", "2"), ("a", "1")]), Some(2.0));
        assert!(reg.to_openmetrics().contains("x_total{a=\"1\",b=\"2\"} 2"));
    }

    #[test]
    fn windowed_sketch_windows_merge_to_total() {
        let mut sk = WindowedSketch::new(Some(SimDuration::from_micros(1)));
        for i in 0..10_000u64 {
            sk.record(SimTime::from_nanos(i * 17), (i % 997) as f64);
        }
        assert!(sk.windows().count() > 100);
        let merged = merged(&sk);
        assert_eq!(merged.count(), sk.total().count());
        for q in [0.01, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(merged.quantile(q), sk.total().quantile(q), "q={q}");
        }
    }

    #[test]
    fn windowed_sketch_merge_is_window_aligned() {
        let w = SimDuration::from_micros(1);
        let mut a = WindowedSketch::new(Some(w));
        let mut b = WindowedSketch::new(Some(w));
        a.record(SimTime::from_nanos(100), 1.0);
        b.record(SimTime::from_nanos(200), 3.0);
        b.record(SimTime::from_nanos(1_200), 5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.windows().count(), 2);
        assert_eq!(merged(&a).count(), a.total().count());
    }

    #[test]
    #[should_panic(expected = "different windows")]
    fn window_mismatch_rejected() {
        let mut a = WindowedSketch::new(Some(SimDuration::from_micros(1)));
        let b = WindowedSketch::new(Some(SimDuration::from_micros(2)));
        a.merge(&b);
    }

    #[test]
    fn merge_labeled_extends_labels() {
        let mut inner = MetricsRegistry::new();
        inner.counter_add("bytes", &[("flow", "a")], 10.0);
        inner.observe("lat", &[("flow", "a")], SimTime::ZERO, 5.0);
        inner.gauge_set("rate", &[], 7.0);
        let mut outer = MetricsRegistry::new();
        outer.merge_labeled(&inner, &[("scenario", "s1"), ("backend", "event")]);
        outer.merge_labeled(&inner, &[("scenario", "s2"), ("backend", "event")]);
        let labels = [("flow", "a"), ("scenario", "s1"), ("backend", "event")];
        assert_eq!(outer.counter_value("bytes", &labels), Some(10.0));
        assert_eq!(outer.histogram("lat", &labels).unwrap().count(), 1);
        let text = outer.to_openmetrics();
        assert!(text.contains("rate{backend=\"event\",scenario=\"s2\"} 7"));
        lint_openmetrics(&text).expect("merged registry lints clean");
    }

    #[test]
    fn volatile_families_are_excluded_by_default() {
        let mut reg = MetricsRegistry::new();
        reg.describe_volatile("wall", MetricKind::Gauge, "Wall seconds.");
        reg.gauge_set("wall", &[], 1.25);
        reg.counter_add("stable", &[], 1.0);
        let text = reg.to_openmetrics();
        assert!(!text.contains("wall"));
        assert!(text.contains("stable_total 1"));
        let all = reg.to_openmetrics_with_volatile();
        assert!(all.contains("wall 1.25"));
        lint_openmetrics(&all).expect("volatile exposition lints clean");
    }

    #[test]
    fn escaping_round_trips_through_the_parser() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("x", &[("name", "a\"b\\c\nd")], 1.0);
        let text = reg.to_openmetrics();
        let samples = parse_openmetrics(&text).unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].label("name"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn lint_catches_the_three_violations() {
        // No EOF.
        let e = lint_openmetrics("# TYPE x counter\nx_total 1\n").unwrap_err();
        assert!(e.iter().any(|m| m.contains("# EOF")), "{e:?}");
        // Sample without TYPE.
        let e = lint_openmetrics("y_total 1\n# EOF").unwrap_err();
        assert!(e.iter().any(|m| m.contains("no preceding # TYPE")), "{e:?}");
        // Duplicate series.
        let e = lint_openmetrics("# TYPE x counter\nx_total{a=\"1\"} 1\nx_total{a=\"1\"} 2\n# EOF")
            .unwrap_err();
        assert!(e.iter().any(|m| m.contains("duplicate series")), "{e:?}");
        // A clean dump passes.
        lint_openmetrics("# TYPE x counter\nx_total{a=\"1\"} 1\n# EOF").unwrap();
    }

    #[test]
    fn format_value_is_stable() {
        assert_eq!(format_value(0.0), "0");
        assert_eq!(format_value(128.0), "128");
        assert_eq!(format_value(12.5), "12.5");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(1e-7), "0.0000001");
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let mut reg = MetricsRegistry::with_window(SimDuration::from_micros(2));
            for i in 0..50u64 {
                reg.counter_add_at(
                    "bytes",
                    &[("flow", if i % 2 == 0 { "a" } else { "b" })],
                    SimTime::from_nanos(i * 131),
                    64.0,
                );
                reg.observe(
                    "lat",
                    &[("flow", "a")],
                    SimTime::from_nanos(i * 131),
                    (i % 7) as f64 * 10.0,
                );
            }
            reg.to_openmetrics()
        };
        assert_eq!(build(), build());
    }

    mod window_merge_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The windowed telemetry guarantee: merging every window
            /// sketch reproduces the whole-run sketch — same count, same
            /// quantile answers — for arbitrary sample streams and window
            /// widths, and the windows partition the samples exactly.
            #[test]
            fn window_sketches_merge_back_to_the_whole_run(
                window_ns in 1u64..5_000,
                samples in prop::collection::vec(
                    (0u64..100_000, 1e-3f64..1e6),
                    1..400,
                ),
            ) {
                let mut ws = WindowedSketch::new(Some(SimDuration::from_nanos(window_ns)));
                let mut whole = QuantileSketch::new();
                for &(t, v) in &samples {
                    ws.record(SimTime::from_nanos(t), v);
                    whole.record(v);
                }
                let merged = super::merged(&ws);
                prop_assert_eq!(merged.count(), whole.count());
                for q in [0.5, 0.9, 0.99, 0.999] {
                    prop_assert_eq!(merged.quantile(q), whole.quantile(q));
                }
                let windowed_total: u64 = ws.windows().map(|(_, s)| s.count()).sum();
                prop_assert_eq!(windowed_total, whole.count());
            }
        }
    }
}
