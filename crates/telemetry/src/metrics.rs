//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, aggregated in memory and flushed to sinks as [`Event`]s
//! when a run finishes.

use crate::Event;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Bucket upper bounds for a histogram (each bucket counts values `<=`
/// its bound; values above the last bound land in an implicit overflow
/// bucket).
#[derive(Debug, Clone, PartialEq)]
pub struct Buckets(pub Vec<f64>);

impl Buckets {
    /// `count` buckets starting at `start`, each `factor` times the last:
    /// `start, start*factor, ...` — the usual shape for latencies.
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1`, or `count == 0`.
    pub fn exponential(start: f64, factor: f64, count: usize) -> Buckets {
        assert!(
            start > 0.0 && factor > 1.0 && count > 0,
            "bad exponential buckets"
        );
        let mut bound = start;
        Buckets(
            (0..count)
                .map(|_| {
                    let current = bound;
                    bound *= factor;
                    current
                })
                .collect(),
        )
    }

    /// `count` buckets starting at `start`, each `width` above the last.
    ///
    /// # Panics
    ///
    /// Panics if `width <= 0` or `count == 0`.
    pub fn linear(start: f64, width: f64, count: usize) -> Buckets {
        assert!(width > 0.0 && count > 0, "bad linear buckets");
        Buckets((0..count).map(|i| start + width * i as f64).collect())
    }
}

/// An aggregated histogram: per-bucket counts plus running summary stats.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// Count per bucket; one element longer than `bounds` (the last is
    /// the overflow bucket).
    pub counts: Vec<u64>,
    /// Total number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (`f64::INFINITY` when empty).
    pub min: f64,
    /// Largest recorded value (`f64::NEG_INFINITY` when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    fn new(buckets: &Buckets) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: buckets.0.clone(),
            counts: vec![0; buckets.0.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn record(&mut self, value: f64) {
        let index = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.counts[index] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the bucket containing the target rank, the same scheme
    /// Prometheus' `histogram_quantile` uses. The estimate is clamped to
    /// the observed `[min, max]`, so a quantile landing in the first or
    /// overflow bucket degrades gracefully instead of extrapolating past
    /// real data. Returns `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (index, &bucket_count) in self.counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            let before = seen as f64;
            seen += bucket_count;
            if (seen as f64) < rank {
                continue;
            }
            if index == self.bounds.len() {
                // Overflow bucket has no upper bound to interpolate
                // against; the observed max is the best estimate.
                return self.max;
            }
            let lower = if index == 0 {
                self.min
            } else {
                self.bounds[index - 1].max(self.min)
            };
            let upper = self.bounds[index].min(self.max);
            let fraction = ((rank - before) / bucket_count as f64).clamp(0.0, 1.0);
            return (lower + (upper - lower) * fraction).clamp(self.min, self.max);
        }
        self.max
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Thread-safe registry of named metrics.
///
/// Metric updates do not emit events; they aggregate in memory until
/// [`MetricsRegistry::drain_events`] converts the final values into
/// [`Event`]s for the sinks.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    state: Mutex<State>,
}

impl MetricsRegistry {
    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add_counter(&self, name: &str, delta: u64) {
        let mut state = self.state.lock().expect("metrics lock");
        // Look up before inserting: the name is copied only on first use,
        // not on every update of a hot counter.
        match state.counters.get_mut(name) {
            Some(counter) => *counter += delta,
            None => {
                state.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut state = self.state.lock().expect("metrics lock");
        state.gauges.insert(name.to_string(), value);
    }

    /// Records `value` into the named histogram, creating it with
    /// `buckets` on first use (later calls keep the original buckets).
    pub fn record(&self, name: &str, buckets: &Buckets, value: f64) {
        let mut state = self.state.lock().expect("metrics lock");
        match state.histograms.get_mut(name) {
            Some(histogram) => histogram.record(value),
            None => {
                let mut histogram = HistogramSnapshot::new(buckets);
                histogram.record(value);
                state.histograms.insert(name.to_string(), histogram);
            }
        }
    }

    /// Current value of a counter (`0` if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.state
            .lock()
            .expect("metrics lock")
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Current value of a gauge, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.state
            .lock()
            .expect("metrics lock")
            .gauges
            .get(name)
            .copied()
    }

    /// A copy of the named histogram, if any values were recorded.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.state
            .lock()
            .expect("metrics lock")
            .histograms
            .get(name)
            .cloned()
    }

    /// Converts every metric into an [`Event`] and resets the registry.
    /// Events come out in name order, counters first, then gauges, then
    /// histograms — deterministic for tests.
    pub fn drain_events(&self) -> Vec<Event> {
        let mut state = self.state.lock().expect("metrics lock");
        let state = std::mem::take(&mut *state);
        Self::state_events(&state)
    }

    /// Converts every metric into an [`Event`] *without* resetting — the
    /// live-scrape counterpart of [`MetricsRegistry::drain_events`], used
    /// by the `/metrics` endpoint and checkpoint-time snapshot flushes.
    /// Same deterministic ordering.
    pub fn snapshot_events(&self) -> Vec<Event> {
        let state = self.state.lock().expect("metrics lock");
        Self::state_events(&state)
    }

    fn state_events(state: &State) -> Vec<Event> {
        let mut events = Vec::new();
        for (name, value) in &state.counters {
            events.push(Event::Counter {
                name: name.clone(),
                value: *value,
            });
        }
        for (name, value) in &state.gauges {
            events.push(Event::Gauge {
                name: name.clone(),
                value: *value,
            });
        }
        for (name, snapshot) in &state.histograms {
            events.push(Event::Histogram {
                name: name.clone(),
                snapshot: snapshot.clone(),
            });
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_buckets_grow_by_factor() {
        let buckets = Buckets::exponential(100.0, 10.0, 4);
        assert_eq!(buckets.0, vec![100.0, 1_000.0, 10_000.0, 100_000.0]);
    }

    #[test]
    fn linear_buckets_step_by_width() {
        let buckets = Buckets::linear(0.0, 5.0, 3);
        assert_eq!(buckets.0, vec![0.0, 5.0, 10.0]);
    }

    #[test]
    fn histogram_buckets_values_inclusively_with_overflow() {
        let registry = MetricsRegistry::default();
        let buckets = Buckets::linear(10.0, 10.0, 3); // bounds 10, 20, 30
        for value in [5.0, 10.0, 10.1, 20.0, 29.9, 31.0, 1e9] {
            registry.record("lat", &buckets, value);
        }
        let snapshot = registry.histogram("lat").unwrap();
        // <=10: {5, 10}; <=20: {10.1, 20}; <=30: {29.9}; overflow: {31, 1e9}.
        assert_eq!(snapshot.counts, vec![2, 2, 1, 2]);
        assert_eq!(snapshot.count, 7);
        assert_eq!(snapshot.min, 5.0);
        assert_eq!(snapshot.max, 1e9);
        assert!(
            (snapshot.mean() - (5.0 + 10.0 + 10.1 + 20.0 + 29.9 + 31.0 + 1e9) / 7.0).abs() < 1e-6
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let registry = MetricsRegistry::default();
        let buckets = Buckets::linear(10.0, 10.0, 10); // bounds 10..100
                                                       // 100 values uniform over (0, 100]: value i+1 lands in bucket i/10.
        for i in 0..100 {
            registry.record("lat", &buckets, (i + 1) as f64);
        }
        let snapshot = registry.histogram("lat").unwrap();
        // Uniform data: the q-quantile should sit near 100*q.
        for (q, expected) in [(0.5, 50.0), (0.95, 95.0), (0.99, 99.0)] {
            let got = snapshot.quantile(q);
            assert!(
                (got - expected).abs() <= 1.0,
                "q={q}: got {got}, expected ~{expected}"
            );
        }
        assert_eq!(snapshot.quantile(0.0), snapshot.min);
        assert_eq!(snapshot.quantile(1.0), 100.0);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = MetricsRegistry::default();
        empty.record("x", &Buckets::linear(1.0, 1.0, 1), 0.5);
        let one = empty.histogram("x").unwrap();
        // Single value: every quantile is that value.
        assert_eq!(one.quantile(0.5), 0.5);
        assert_eq!(one.quantile(0.99), 0.5);

        let registry = MetricsRegistry::default();
        let buckets = Buckets::linear(10.0, 10.0, 2); // bounds 10, 20
        for v in [100.0, 200.0, 300.0] {
            registry.record("over", &buckets, v);
        }
        // Everything overflowed: quantiles collapse to the observed max.
        let snapshot = registry.histogram("over").unwrap();
        assert_eq!(snapshot.quantile(0.5), 300.0);

        let degenerate = HistogramSnapshot::new(&buckets);
        assert_eq!(degenerate.quantile(0.5), 0.0, "empty histogram");
    }

    #[test]
    fn snapshot_events_do_not_reset() {
        let registry = MetricsRegistry::default();
        registry.add_counter("ops", 4);
        registry.set_gauge("g", 2.0);
        registry.record("h", &Buckets::linear(1.0, 1.0, 1), 0.5);
        let first = registry.snapshot_events();
        assert_eq!(first.len(), 3);
        registry.add_counter("ops", 1);
        let second = registry.snapshot_events();
        assert!(matches!(&second[0], Event::Counter { name, value: 5 } if name == "ops"));
        // drain afterwards still sees everything, then resets.
        assert_eq!(registry.drain_events().len(), 3);
        assert!(registry.drain_events().is_empty());
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let registry = MetricsRegistry::default();
        registry.add_counter("ops", 2);
        registry.add_counter("ops", 3);
        registry.set_gauge("temp", 55.0);
        registry.set_gauge("temp", 60.0);
        assert_eq!(registry.counter("ops"), 5);
        assert_eq!(registry.gauge("temp"), Some(60.0));
        assert_eq!(registry.counter("untouched"), 0);
    }

    #[test]
    fn drain_orders_and_resets() {
        let registry = MetricsRegistry::default();
        registry.add_counter("b", 1);
        registry.add_counter("a", 1);
        registry.set_gauge("g", 1.0);
        registry.record("h", &Buckets::linear(0.0, 1.0, 1), 0.5);
        let events = registry.drain_events();
        let names: Vec<&str> = events
            .iter()
            .map(|e| match e {
                Event::Counter { name, .. }
                | Event::Gauge { name, .. }
                | Event::Histogram { name, .. } => name.as_str(),
                _ => unreachable!("drain emits only metric events"),
            })
            .collect();
        assert_eq!(names, vec!["a", "b", "g", "h"]);
        assert!(registry.drain_events().is_empty(), "drain resets");
    }
}
