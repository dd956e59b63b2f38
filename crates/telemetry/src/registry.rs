//! The instrument directory and its two exporters.
//!
//! A [`Registry`] maps `(name, labels)` to an instrument. Components
//! ask the registry for an instrument ([`Registry::counter`] /
//! [`Registry::gauge`] / [`Registry::histogram`]); the call is
//! get-or-create, so every caller naming the same series shares one
//! handle. That is how a fleet of devices feeds one set of series.
//!
//! # Exporters and schema stability
//!
//! [`Registry::to_json`] and [`Registry::to_prometheus`] sort series
//! by `(name, labels)` and format numbers deterministically, so equal
//! telemetry states render byte-identically. The JSON schema carries
//! an explicit `"schema": 2` version; bumping it is a deliberate act
//! that breaks the golden tests (DESIGN.md §8).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::counter::Counter;
use crate::gauge::Gauge;
use crate::hist::{bucket_bounds, Histogram, BUCKETS};

/// A label set: ordered `(key, value)` pairs. Order is part of the
/// series identity — instrumentation sites use a fixed order, so this
/// never bites in practice and keeps lookups allocation-light.
type Labels = Vec<(String, String)>;

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Series {
    name: String,
    labels: Labels,
    instrument: Instrument,
}

/// One exported value, as rendered by [`Registry::to_json`].
///
/// The histogram variant carries the full 65-bucket snapshot inline —
/// values only exist on the cold collect/export path, so matching
/// ergonomics win over the size imbalance boxing would fix.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge's last-set value.
    Gauge(u64),
    /// A histogram snapshot.
    Histogram(crate::hist::HistogramSnapshot),
}

/// One collected series: name, label pairs, value — [`Registry::collect`]'s
/// row type.
pub type CollectedSeries = (String, Labels, MetricValue);

/// The registry's interior: the series in registration order plus a
/// hash index over `(name, labels)`. The index keeps get-or-create
/// O(1): every fleet join asks for the same few dozen series again,
/// and a linear directory scan would cost each join the whole
/// directory.
#[derive(Default)]
struct Directory {
    series: Vec<Series>,
    index: HashMap<(String, Labels), usize>,
}

/// A shared, thread-safe instrument directory.
///
/// Cloning is shallow; all clones view and mint the same series.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Directory>>,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn to_owned_labels(labels: &[(&str, &str)]) -> Labels {
    labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter series `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut dir = lock_unpoisoned(&self.inner);
        if let Some(&i) = dir.index.get(&key_of(name, labels)) {
            if let Instrument::Counter(c) = &dir.series[i].instrument {
                return c.clone();
            }
            panic!("series {name} already registered as a histogram");
        }
        let c = Counter::new();
        dir.push(name, labels, Instrument::Counter(c.clone()));
        c
    }

    /// Gets or creates the gauge series `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut dir = lock_unpoisoned(&self.inner);
        if let Some(&i) = dir.index.get(&key_of(name, labels)) {
            if let Instrument::Gauge(g) = &dir.series[i].instrument {
                return g.clone();
            }
            panic!("series {name} already registered as a non-gauge");
        }
        let g = Gauge::new();
        dir.push(name, labels, Instrument::Gauge(g.clone()));
        g
    }

    /// Gets or creates the histogram series `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut dir = lock_unpoisoned(&self.inner);
        if let Some(&i) = dir.index.get(&key_of(name, labels)) {
            if let Instrument::Histogram(h) = &dir.series[i].instrument {
                return h.clone();
            }
            panic!("series {name} already registered as a counter");
        }
        let h = Histogram::new();
        dir.push(name, labels, Instrument::Histogram(h.clone()));
        h
    }

    /// All series values, sorted by `(name, labels)` — the exporters'
    /// iteration order, exposed for tests and ad-hoc reporting.
    pub fn collect(&self) -> Vec<CollectedSeries> {
        let dir = lock_unpoisoned(&self.inner);
        let mut out: Vec<_> = dir
            .series
            .iter()
            .map(|s| {
                let value = match &s.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (s.name.clone(), s.labels.clone(), value)
            })
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }

    /// Renders every series as versioned, stable-schema JSON.
    ///
    /// Histograms export `count`, `sum`, nearest-rank `p50/p90/p99`
    /// (bucket upper bounds) and the non-empty buckets as
    /// `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": 2,\n  \"metrics\": [\n");
        let collected = self.collect();
        for (i, (name, labels, value)) in collected.iter().enumerate() {
            out.push_str("    {\"name\": \"");
            out.push_str(&json_escape(name));
            out.push_str("\", \"labels\": {");
            for (j, (k, v)) in labels.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                out.push_str(&json_escape(k));
                out.push_str("\": \"");
                out.push_str(&json_escape(v));
                out.push('"');
            }
            out.push_str("}, ");
            match value {
                MetricValue::Counter(total) => {
                    out.push_str(&format!("\"type\": \"counter\", \"value\": {total}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("\"type\": \"gauge\", \"value\": {v}"));
                }
                MetricValue::Histogram(s) => {
                    let p = |q: f64| {
                        s.percentile(q)
                            .map(|v| v.to_string())
                            .unwrap_or_else(|| "null".into())
                    };
                    out.push_str(&format!(
                        "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                        s.count(),
                        s.sum,
                        p(0.50),
                        p(0.90),
                        p(0.99),
                    ));
                    let mut first = true;
                    for (b, &c) in s.buckets.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if !first {
                            out.push_str(", ");
                        }
                        first = false;
                        out.push_str(&format!("[{}, {}]", bucket_bounds(b).1, c));
                    }
                    out.push(']');
                }
            }
            out.push('}');
            if i + 1 != collected.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders every series in the Prometheus text exposition format.
    ///
    /// Histograms follow the standard cumulative-`le` convention; only
    /// buckets that change the cumulative count are emitted (plus the
    /// mandatory `+Inf`), keeping the output compact and stable.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let collected = self.collect();
        let mut last_name: Option<&str> = None;
        for (name, labels, value) in &collected {
            if last_name != Some(name.as_str()) {
                let kind = match value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_name = Some(name.as_str());
            }
            match value {
                MetricValue::Counter(total) | MetricValue::Gauge(total) => {
                    out.push_str(name);
                    out.push_str(&prom_labels(labels, None));
                    out.push_str(&format!(" {total}\n"));
                }
                MetricValue::Histogram(s) => {
                    let mut cumulative = 0u64;
                    for (b, &c) in s.buckets.iter().enumerate().take(BUCKETS - 1) {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        out.push_str(&format!(
                            "{name}_bucket{} {cumulative}\n",
                            prom_labels(labels, Some(&bucket_bounds(b).1.to_string()))
                        ));
                    }
                    let total = s.count();
                    out.push_str(&format!(
                        "{name}_bucket{} {total}\n",
                        prom_labels(labels, Some("+Inf"))
                    ));
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        prom_labels(labels, None),
                        s.sum
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {total}\n",
                        prom_labels(labels, None)
                    ));
                }
            }
        }
        out
    }
}

impl Directory {
    fn push(&mut self, name: &str, labels: &[(&str, &str)], instrument: Instrument) {
        let i = self.series.len();
        self.series.push(Series {
            name: name.to_string(),
            labels: to_owned_labels(labels),
            instrument,
        });
        self.index.insert(key_of(name, labels), i);
    }
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> (String, Labels) {
    (name.to_string(), to_owned_labels(labels))
}

/// Escapes a string for a JSON string literal (same subset the service
/// layer's exporter escapes — names here are static identifiers, and
/// label values are too, but the exporter must not trust that).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a Prometheus label block, optionally with a trailing `le`.
fn prom_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&v.replace('\\', "\\\\").replace('"', "\\\""));
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_series_are_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("requests_total", &[("path", "fast")]);
        let b = reg.counter("requests_total", &[("path", "fast")]);
        a.add(2);
        b.add(3);
        match &reg.collect()[0].2 {
            MetricValue::Counter(v) => assert_eq!(*v, 5),
            other => panic!("expected counter, got {other:?}"),
        }
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let reg = Registry::new();
        reg.counter("x", &[("k", "a")]).inc();
        reg.counter("x", &[("k", "b")]).add(2);
        let collected = reg.collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].2, MetricValue::Counter(1));
        assert_eq!(collected[1].2, MetricValue::Counter(2));
    }

    #[test]
    fn gauge_series_export_last_value_in_both_formats() {
        let reg = Registry::new();
        let g = reg.gauge("detect_probability_per_mille", &[("k", "4")]);
        g.set(100);
        g.set(684);
        assert_eq!(reg.collect()[0].2, MetricValue::Gauge(684));
        let json = reg.to_json();
        assert!(json.contains("\"type\": \"gauge\", \"value\": 684"));
        let prom = reg.to_prometheus();
        assert!(prom.contains("# TYPE detect_probability_per_mille gauge\n"));
        assert!(prom.contains("detect_probability_per_mille{k=\"4\"} 684\n"));
        // Re-asking for the same series shares state.
        reg.gauge("detect_probability_per_mille", &[("k", "4")])
            .set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn json_export_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("zeta_total", &[]).inc();
        reg.counter("alpha_total", &[("device", "gpu-1")]).add(3);
        let h = reg.histogram("lat_ns", &[]);
        h.record(10);
        h.record(100);
        let a = reg.to_json();
        let b = reg.to_json();
        assert_eq!(a, b, "export must be deterministic");
        let alpha = a.find("alpha_total").unwrap();
        let zeta = a.find("zeta_total").unwrap();
        assert!(alpha < zeta, "series must be name-sorted");
        assert!(a.contains("\"schema\": 2"));
        assert!(a.contains("\"count\": 2, \"sum\": 110"));
    }

    #[test]
    fn prometheus_export_renders_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[("stage", "claim")]);
        h.record(3); // bucket [2,3]
        h.record(3);
        h.record(20); // bucket [16,31]
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lat histogram"));
        assert!(text.contains("lat_bucket{stage=\"claim\",le=\"3\"} 2"));
        assert!(text.contains("lat_bucket{stage=\"claim\",le=\"31\"} 3"));
        assert!(text.contains("lat_bucket{stage=\"claim\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_sum{stage=\"claim\"} 26"));
        assert!(text.contains("lat_count{stage=\"claim\"} 3"));
    }

    #[test]
    fn empty_label_counter_renders_bare_name() {
        let reg = Registry::new();
        reg.counter("ticks_total", &[]).add(9);
        assert!(reg.to_prometheus().contains("ticks_total 9\n"));
    }
}
