//! The lock-free metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones over plain atomics; recording into one is a single relaxed
//! RMW with no lock anywhere on the path. The [`MetricsRegistry`] map
//! is only locked to resolve a *name* to a handle (registration /
//! snapshot), so hot paths resolve once and keep the handle.
//!
//! Registries are **instance-scoped**, not process-global: every
//! component creates its own by default, and a deployment threads one
//! shared registry through broker, engine, stores and frontends so
//! `deployment.metrics()` is a single coherent snapshot. Tests that
//! build two apps therefore never see each other's counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use safeweb_json::Value;
use safeweb_sync::RwLock;

/// A monotonically increasing counter.
///
/// Increments are `Relaxed` (the count is monotonic, ordering between
/// two increments is irrelevant); reads are `Acquire` so a snapshot
/// taken after an observed effect (a response on a channel, a joined
/// thread) includes that effect's increments. This is the ordering fix
/// the old ad-hoc stats structs (all-`Relaxed`, including loads) were
/// missing.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a detached counter (not registered anywhere).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A gauge: a value that goes up and down (queue depths, caps).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Creates a detached gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Release);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A fixed-bucket histogram: `bounds.len() + 1` atomic buckets, where
/// bucket `i` counts observations `v <= bounds[i]` not already counted
/// by a lower bucket, and the last bucket is the `+inf` overflow.
///
/// Quantile queries return the **upper bound** of the bucket containing
/// the requested rank (saturating at the last finite bound for
/// overflow), so the reported p99 is a guaranteed upper estimate at
/// bucket resolution. `observe` is two relaxed RMWs plus a bucket
/// search over a small sorted slice — no locks, no allocation.
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

#[derive(Debug)]
struct HistInner {
    bounds: Box<[u64]>,
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the default latency layout
    /// ([`Histogram::latency_bounds`]).
    pub fn new() -> Histogram {
        Histogram::with_bounds(Self::latency_bounds())
    }

    /// Creates a histogram over explicit bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            inner: Arc::new(HistInner {
                bounds: bounds.into(),
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// The default latency layout: powers of two from 1 µs to ~8.4 s
    /// (24 finite buckets + overflow), in nanoseconds.
    pub fn latency_bounds() -> &'static [u64] {
        const BOUNDS: [u64; 24] = {
            let mut b = [0u64; 24];
            let mut i = 0;
            while i < 24 {
                b[i] = 1000u64 << i;
                i += 1;
            }
            b
        };
        &BOUNDS
    }

    /// A size layout: powers of two from 1 to 1024 (for batch sizes).
    pub fn size_bounds() -> &'static [u64] {
        const BOUNDS: [u64; 11] = {
            let mut b = [0u64; 11];
            let mut i = 0;
            while i < 11 {
                b[i] = 1u64 << i;
                i += 1;
            }
            b
        };
        &BOUNDS
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.inner.bounds.partition_point(|b| v > *b);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn observe_ns(&self, dur: std::time::Duration) {
        self.observe(dur.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Acquire)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Acquire)
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) at bucket resolution; see the
    /// type docs for the upper-bound convention. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Median upper estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile upper estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile upper estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// A point-in-time copy of the buckets (for merging and queries).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.inner.bounds.to_vec(),
            counts: self
                .inner
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Acquire))
                .collect(),
            sum: self.sum(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A point-in-time copy of one histogram's buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds (strictly increasing).
    pub bounds: Vec<u64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1` (overflow last).
    pub counts: Vec<u64>,
    /// Sum of observations.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Quantile with the same convention as [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested order statistic, 1-based: ceil(q * n).
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Overflow bucket saturates to the last finite bound.
                return self.bounds.get(i).copied().unwrap_or_else(|| {
                    *self
                        .bounds
                        .last()
                        .expect("histogram has at least one bound")
                });
            }
        }
        *self
            .bounds
            .last()
            .expect("histogram has at least one bound")
    }

    /// Merges another snapshot (e.g. of a per-shard histogram) into this
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        assert_eq!(self.bounds, other.bounds, "merging unequal bucket layouts");
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.sum += other.sum;
    }
}

/// One registered metric.
#[derive(Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A derived gauge: computed at snapshot time from other metrics
    /// (hit rates, lag). Never on a record path.
    Derived(Arc<dyn Fn() -> f64 + Send + Sync>),
}

/// A named registry of metrics; cheap to clone and share.
///
/// `counter`/`gauge`/`histogram` are get-or-register: the first call
/// for a name creates the metric, later calls return a handle to the
/// same underlying atomics (and panic if the name is already registered
/// as a different kind — a programming error, not an operational one).
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<RwLock<BTreeMap<String, Metric>>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.metrics.read();
        f.debug_struct("MetricsRegistry")
            .field("len", &metrics.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn get_or_insert<T: Clone>(
        &self,
        name: &str,
        kind: &'static str,
        extract: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (T, Metric),
    ) -> T {
        if let Some(existing) = self.metrics.read().get(name) {
            return extract(existing)
                .unwrap_or_else(|| panic!("metric {name:?} already registered as a non-{kind}"));
        }
        let mut metrics = self.metrics.write();
        if let Some(existing) = metrics.get(name) {
            return extract(existing)
                .unwrap_or_else(|| panic!("metric {name:?} already registered as a non-{kind}"));
        }
        let (handle, metric) = make();
        metrics.insert(name.to_string(), metric);
        handle
    }

    /// Gets or registers a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.get_or_insert(
            name,
            "counter",
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Metric::Counter(c))
            },
        )
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.get_or_insert(
            name,
            "gauge",
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Metric::Gauge(g))
            },
        )
    }

    /// Gets or registers a histogram with the default latency layout.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, Histogram::latency_bounds())
    }

    /// Gets or registers a histogram with explicit bounds (the bounds
    /// only apply on first registration).
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Histogram {
        self.get_or_insert(
            name,
            "histogram",
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::with_bounds(bounds);
                (h.clone(), Metric::Histogram(h))
            },
        )
    }

    /// Registers an already-existing counter handle under `name`, so a
    /// component created before any registry existed can surface its
    /// live counter without resetting it. Replaces a previous counter of
    /// the same name; panics if `name` holds a different metric kind.
    pub fn register_counter(&self, name: &str, counter: &Counter) {
        let mut metrics = self.metrics.write();
        if let Some(existing) = metrics.get(name) {
            assert!(
                matches!(existing, Metric::Counter(_)),
                "metric {name:?} already registered as a non-counter"
            );
        }
        metrics.insert(name.to_string(), Metric::Counter(counter.clone()));
    }

    /// [`MetricsRegistry::register_counter`] for histograms: surfaces an
    /// existing handle (and its accumulated observations) under `name`.
    pub fn register_histogram(&self, name: &str, histogram: &Histogram) {
        let mut metrics = self.metrics.write();
        if let Some(existing) = metrics.get(name) {
            assert!(
                matches!(existing, Metric::Histogram(_)),
                "metric {name:?} already registered as a non-histogram"
            );
        }
        metrics.insert(name.to_string(), Metric::Histogram(histogram.clone()));
    }

    /// Registers (or replaces) a derived gauge computed at snapshot
    /// time — hit rates, lag, anything that is a pure function of other
    /// metrics. The closure must itself be label-safe: it returns a
    /// number and must not capture labelled data.
    pub fn register_derived(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        self.metrics
            .write()
            .insert(name.to_string(), Metric::Derived(Arc::new(f)));
    }

    /// Removes a metric (used when a subsystem is disabled so its stale
    /// zeros do not linger in snapshots).
    pub fn unregister(&self, name: &str) {
        self.metrics.write().remove(name);
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        self.metrics.read().keys().cloned().collect()
    }

    /// Snapshot of every metric as JSON: counters and gauges as
    /// integers, derived gauges as floats, histograms as
    /// `{count, sum, p50, p99, p999}` objects.
    pub fn snapshot(&self) -> Value {
        // Clone handles out first: derived closures may read other
        // subsystems' state and must not run under the registry lock.
        let entries: Vec<(String, Metric)> = {
            let metrics = self.metrics.read();
            metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let mut out = Value::object();
        for (name, metric) in entries {
            match metric {
                Metric::Counter(c) => {
                    out.set(&name, c.get() as i64);
                }
                Metric::Gauge(g) => {
                    out.set(&name, g.get());
                }
                Metric::Derived(f) => {
                    out.set(&name, f());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut v = Value::object();
                    v.set("count", snap.count() as i64);
                    v.set("sum", snap.sum as i64);
                    v.set("p50", snap.quantile(0.50) as i64);
                    v.set("p99", snap.quantile(0.99) as i64);
                    v.set("p999", snap.quantile(0.999) as i64);
                    out.set(&name, v);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.count").get(), 5, "same handle by name");
        let g = reg.gauge("a.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(reg.gauge("a.depth").get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        for v in [1, 9, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5131);
        // Ranks: 1..=3 land in buckets [<=10 x3], 4..=5 in <=100, 6 overflow.
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(0.75), 100);
        assert_eq!(h.quantile(1.0), 1000, "overflow saturates to last bound");
        assert_eq!(Histogram::new().quantile(0.99), 0, "empty reports zero");
    }

    #[test]
    fn snapshot_merge_equals_combined_stream() {
        let a = Histogram::with_bounds(&[10, 100]);
        let b = Histogram::with_bounds(&[10, 100]);
        let both = Histogram::with_bounds(&[10, 100]);
        for v in [1u64, 50, 200] {
            a.observe(v);
            both.observe(v);
        }
        for v in [5u64, 500] {
            b.observe(v);
            both.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }

    #[test]
    fn derived_gauge_snapshots_as_float() {
        let reg = MetricsRegistry::new();
        let hits = reg.counter("cache.hits");
        let misses = reg.counter("cache.misses");
        hits.add(3);
        misses.inc();
        let (h2, m2) = (hits.clone(), misses.clone());
        reg.register_derived("cache.hit_rate", move || {
            let (h, m) = (h2.get(), m2.get());
            if h + m == 0 {
                0.0
            } else {
                h as f64 / (h + m) as f64
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.get("cache.hits").and_then(Value::as_i64), Some(3));
        let rate = snap.get("cache.hit_rate").and_then(Value::as_f64).unwrap();
        assert!((rate - 0.75).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn unregister_removes_from_snapshot() {
        let reg = MetricsRegistry::new();
        reg.counter("gone");
        reg.unregister("gone");
        assert!(reg.snapshot().get("gone").is_none());
    }
}
