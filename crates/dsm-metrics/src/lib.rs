//! Metric snapshots — counters, gauges and histogram summaries at one
//! instant — collected into a time series and exported as JSONL (one
//! snapshot per line) or Prometheus exposition text.
//!
//! Nothing here measures: the runtime's per-node report is the source of
//! truth, and `ftdsm::NodeReport::metrics` is the table that names every
//! number of it. A [`Snapshot`] is that table written down at a timestamp,
//! by the periodic sampler, at teardown, and — through
//! [`register_flight_source`] — at the moment of a panic.
//!
//! Naming follows the Prometheus convention: `snake_case` with a unit
//! suffix (`_total` for counters, `_ns`/`_bytes` where applicable) and a
//! label block baked into the metric key, e.g.
//! `fabric_msgs_sent_total{node="0"}`. A snapshot treats the full labelled
//! string as the key; the exposition writer emits one `# TYPE` line per base
//! name (the part before `{`).
//!
//! A [`TimeSeries`] accumulates snapshots during a run — its
//! [`merge`](TimeSeries::merge) is order-insensitive, so per-node or
//! per-shard series can be folded in any order (property-tested).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, Weak};

use dsm_trace::Histogram;

/// A monotonically increasing counter handle of a [`Registry`].
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named lock-free counters for code that counts on a hot path of its own.
/// The runtime has no such path (its numbers live in the node report), so
/// today only the benchmark's `metrics.counter_inc_ns` probe uses this.
#[derive(Clone, Default)]
pub struct Registry {
    counters: Arc<Mutex<BTreeMap<String, Arc<AtomicU64>>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        Counter(Arc::clone(m.entry(name.to_string()).or_default()))
    }
}

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Mean sample (0 when empty).
    pub mean: u64,
    /// Median (power-of-two resolution).
    pub p50: u64,
    /// 99th percentile (power-of-two resolution).
    pub p99: u64,
}

impl HistSnapshot {
    fn of(h: &Histogram) -> Self {
        HistSnapshot {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
        }
    }
}

/// All metric values at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Nanoseconds since the sampling epoch.
    pub ts_ns: u64,
    /// Counter values by metric key.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric key.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by metric key.
    pub hists: BTreeMap<String, HistSnapshot>,
}

/// One metric's value, as a [`Snapshot`] files it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue<'a> {
    /// A total that never decreases.
    Counter(u64),
    /// A level or a high-water mark.
    Gauge(u64),
    /// A distribution, kept as its summary.
    Hist(&'a Histogram),
}

/// The metric key `name` with `label="value"` added to its label block
/// (opened if `name` has none yet).
pub fn labelled(name: &str, label: &str, value: impl std::fmt::Display) -> String {
    match name.strip_suffix('}') {
        Some(open) => format!("{open},{label}=\"{value}\"}}"),
        None => format!("{name}{{{label}=\"{value}\"}}"),
    }
}

impl Snapshot {
    /// An empty snapshot taken `ts_ns` into the run.
    pub fn at(ts_ns: u64) -> Self {
        Snapshot {
            ts_ns,
            ..Snapshot::default()
        }
    }

    /// File `value` under `key`.
    pub fn insert(&mut self, key: String, value: MetricValue<'_>) {
        match value {
            MetricValue::Counter(v) => {
                self.counters.insert(key, v);
            }
            MetricValue::Gauge(v) => {
                self.gauges.insert(key, v as i64);
            }
            MetricValue::Hist(h) => {
                self.hists.insert(key, HistSnapshot::of(h));
            }
        }
    }

    /// One JSONL record: `{"ts_ns":…,"counters":{…},"gauges":{…},"hists":{…}}`.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write;
        let mut s = format!("{{\"ts_ns\":{}", self.ts_ns);
        s.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{v}", dsm_trace::json::escape(k));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{}\":{v}", dsm_trace::json::escape(k));
        }
        s.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":{{\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p99\":{}}}",
                dsm_trace::json::escape(k),
                h.count,
                h.min,
                h.max,
                h.mean,
                h.p50,
                h.p99
            );
        }
        s.push_str("}}");
        s
    }

    /// Append [`Snapshot::to_jsonl`] as one line to the file at `path`,
    /// created if need be. Best-effort: a metrics file that cannot be
    /// written must not fail the run it describes.
    pub fn append_jsonl(&self, path: &std::path::Path) {
        use std::io::Write;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path);
        if let Ok(mut f) = file {
            let _ = writeln!(f, "{}", self.to_jsonl());
        }
    }

    /// Prometheus exposition text. Histograms are rendered as summaries
    /// (`{quantile="…"}` series plus `_count`/`_sum`-style companions).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        fn base(name: &str) -> &str {
            name.split('{').next().unwrap_or(name)
        }
        let mut s = String::new();
        let mut typed: Option<&str> = None;
        for (k, v) in &self.counters {
            if typed != Some(base(k)) {
                let _ = writeln!(s, "# TYPE {} counter", base(k));
                typed = Some(base(k));
            }
            let _ = writeln!(s, "{k} {v}");
        }
        typed = None;
        for (k, v) in &self.gauges {
            if typed != Some(base(k)) {
                let _ = writeln!(s, "# TYPE {} gauge", base(k));
                typed = Some(base(k));
            }
            let _ = writeln!(s, "{k} {v}");
        }
        typed = None;
        for (k, h) in &self.hists {
            let (b, labels) = match k.find('{') {
                Some(i) => (&k[..i], format!(",{}", &k[i + 1..k.len() - 1])),
                None => (k.as_str(), String::new()),
            };
            if typed != Some(base(k)) {
                let _ = writeln!(s, "# TYPE {b} summary");
                typed = Some(base(k));
            }
            let _ = writeln!(s, "{b}{{quantile=\"0.5\"{labels}}} {}", h.p50);
            let _ = writeln!(s, "{b}{{quantile=\"0.99\"{labels}}} {}", h.p99);
            let _ = writeln!(
                s,
                "{b}_count{{{}}} {}",
                labels.trim_start_matches(','),
                h.count
            );
        }
        s
    }
}

/// A run's sequence of snapshots, ordered by timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Snapshots in time order; after a [`merge`](TimeSeries::merge),
    /// sorted by `(ts_ns, content)`.
    pub snapshots: Vec<Snapshot>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Append one snapshot, taken no earlier than the last (a sampler's
    /// samples, then the run's closing one).
    pub fn push(&mut self, snap: Snapshot) {
        self.snapshots.push(snap);
    }

    /// Fold another series into this one. Order-insensitive:
    /// `a.merge(b) == b.merge(a)` element-for-element, because the result
    /// is sorted with a total tie-break on serialized content, each
    /// snapshot rendered once.
    pub fn merge(&mut self, other: &TimeSeries) {
        self.snapshots.extend(other.snapshots.iter().cloned());
        self.snapshots
            .sort_by_cached_key(|snap| (snap.ts_ns, snap.to_jsonl()));
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&Snapshot> {
        self.snapshots.last()
    }

    /// Whole series as JSONL, one snapshot per line.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        for snap in &self.snapshots {
            s.push_str(&snap.to_jsonl());
            s.push('\n');
        }
        s
    }
}

/// Something that can say what the metrics are right now. Must never block
/// (it is called from a panic hook): skip what is locked.
pub type FlightSource = dyn Fn() -> Snapshot + Send + Sync;

static FLIGHT: OnceLock<Mutex<Vec<Weak<FlightSource>>>> = OnceLock::new();

fn flight_registry() -> &'static Mutex<Vec<Weak<FlightSource>>> {
    FLIGHT.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register `source` for the panic-time dump (see [`dump_on_panic`]) for as
/// long as the caller keeps it alive.
pub fn register_flight_source(source: &Arc<FlightSource>) {
    let mut reg = flight_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(source));
}

/// A fresh snapshot from every registered, still-live source.
pub fn flight_snapshots() -> Vec<Snapshot> {
    let reg = flight_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let live: Vec<_> = reg.iter().filter_map(Weak::upgrade).collect();
    drop(reg);
    live.iter().map(|source| source()).collect()
}

/// Dump [`flight_snapshots`] to stderr. Called from panic hooks alongside
/// the trace flight recorder; best-effort, never panics.
pub fn dump_on_panic() {
    let snaps = flight_snapshots();
    if snaps.is_empty() {
        return;
    }
    eprintln!("=== dsm-metrics flight recorder ===");
    for snap in snaps {
        eprintln!("{}", snap.to_jsonl());
    }
    eprintln!("=== end metrics flight recorder ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot_at(ts_ns: u64, counters: &[(&str, u64)]) -> Snapshot {
        let mut snap = Snapshot::at(ts_ns);
        for &(key, v) in counters {
            snap.insert(key.to_string(), MetricValue::Counter(v));
        }
        snap
    }

    #[test]
    fn a_registry_hands_out_one_counter_per_name() {
        let r = Registry::new();
        r.counter("msgs_total{node=\"0\"}").add(3);
        r.counter("msgs_total{node=\"0\"}").inc();
        assert_eq!(r.counter("msgs_total{node=\"0\"}").get(), 4);
        assert_eq!(r.counter("other_total").get(), 0);
    }

    #[test]
    fn a_label_opens_the_block_or_joins_it() {
        assert_eq!(labelled("x_total", "node", 3), "x_total{node=\"3\"}");
        assert_eq!(
            labelled(&labelled("x_total", "kind", "PageReq"), "node", 0),
            "x_total{kind=\"PageReq\",node=\"0\"}"
        );
    }

    #[test]
    fn jsonl_parses_with_the_trace_json_parser() {
        let mut h = Histogram::new();
        h.record(5);
        let mut snap = snapshot_at(42, &[("a_total", 1)]);
        snap.insert("g".into(), MetricValue::Gauge(7));
        snap.insert("h_ns".into(), MetricValue::Hist(&h));
        let v = dsm_trace::json::parse(&snap.to_jsonl()).unwrap();
        assert_eq!(v.get("ts_ns").unwrap().as_num(), Some(42.0));
        assert_eq!(
            v.get("counters").unwrap().get("a_total").unwrap().as_num(),
            Some(1.0)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("g").unwrap().as_num(),
            Some(7.0)
        );
        assert_eq!(
            v.get("hists")
                .unwrap()
                .get("h_ns")
                .unwrap()
                .get("count")
                .unwrap()
                .as_num(),
            Some(1.0)
        );
    }

    #[test]
    fn prometheus_text_has_type_lines_and_values() {
        let mut h = Histogram::new();
        h.record(64);
        let mut snap = snapshot_at(
            0,
            &[("msgs_total{node=\"0\"}", 5), ("msgs_total{node=\"1\"}", 7)],
        );
        snap.insert("mode".into(), MetricValue::Gauge(1));
        snap.insert(labelled("lat_ns", "node", 0), MetricValue::Hist(&h));
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE msgs_total counter"));
        assert_eq!(text.matches("# TYPE msgs_total").count(), 1);
        assert!(text.contains("msgs_total{node=\"0\"} 5"));
        assert!(text.contains("msgs_total{node=\"1\"} 7"));
        assert!(text.contains("# TYPE mode gauge"));
        assert!(text.contains("# TYPE lat_ns summary"));
        assert!(text.contains("lat_ns{quantile=\"0.5\",node=\"0\"} 64"));
        assert!(text.contains("lat_ns_count{node=\"0\"} 1"));
    }

    #[test]
    fn time_series_merge_is_order_insensitive() {
        let parts: Vec<TimeSeries> = (0..4u64)
            .map(|i| {
                let mut ts = TimeSeries::new();
                ts.push(snapshot_at(i * 100, &[("x_total", i + 1)]));
                ts
            })
            .collect();
        let mut fwd = TimeSeries::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = TimeSeries::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.snapshots.len(), 4);
        assert_eq!(fwd.last().unwrap().ts_ns, 300);
    }

    #[test]
    fn the_flight_dump_asks_live_sources_and_forgets_dead_ones() {
        let alive: Arc<FlightSource> = Arc::new(|| snapshot_at(7, &[("alive_total", 1)]));
        register_flight_source(&alive);
        {
            let dead: Arc<FlightSource> = Arc::new(|| snapshot_at(8, &[]));
            register_flight_source(&dead);
        }
        let snaps = flight_snapshots();
        assert!(snaps
            .iter()
            .any(|s| s.ts_ns == 7 && s.counters["alive_total"] == 1));
        assert!(snaps.iter().all(|s| s.ts_ns != 8));
        dump_on_panic();
    }
}
