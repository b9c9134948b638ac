//! Reads the program's own telemetry, live (as a sink) or from the JSONL
//! traces `gest run --trace` and `gest serve` write, into per-name totals.

use gest::telemetry::json::Value;
use gest::telemetry::{Event, FieldValue, Sink};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;

/// Count and summed duration of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, microseconds.
    pub sum_us: u64,
}

/// Totals folded from a stream of telemetry events.
#[derive(Debug, Default, Clone)]
pub struct TraceTotals {
    /// Per span name.
    pub spans: HashMap<String, SpanTotal>,
    /// Durations of every `generation` span, microseconds.
    pub generation_us: Vec<u64>,
    /// Last value of each counter (counter records are cumulative).
    pub counters: HashMap<String, u64>,
    /// Worker-side measure times from `worker.measure` points.
    pub worker_measure_us: Vec<u64>,
}

impl TraceTotals {
    /// Folds one event in.
    pub fn add(&mut self, event: &Event) {
        match event {
            Event::SpanEnd { name, dur_us, .. } => {
                let total = self.spans.entry(name.clone()).or_default();
                total.count += 1;
                total.sum_us += dur_us;
                if name == "generation" {
                    self.generation_us.push(*dur_us);
                }
            }
            Event::Counter { name, value } => {
                self.counters.insert(name.clone(), *value);
            }
            Event::Point { name, fields, .. } if name == "worker.measure" => {
                let measure_us = fields.iter().find_map(|(key, value)| match value {
                    FieldValue::U64(us) if key == "measure_us" => Some(*us),
                    _ => None,
                });
                if let Some(us) = measure_us {
                    self.worker_measure_us.push(us);
                }
            }
            _ => {}
        }
    }

    /// Folds in every parseable line of one run's JSONL trace file. Each
    /// file's counters are that run's totals, so they add across files.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file.
    pub fn add_file(&mut self, path: &Path) -> std::io::Result<()> {
        let text = std::fs::read_to_string(path)?;
        let mut run = TraceTotals::default();
        for line in text.lines() {
            if let Some(event) = Value::parse(line).ok().as_ref().and_then(Event::from_json) {
                run.add(&event);
            }
        }
        for (name, total) in run.spans {
            let into = self.spans.entry(name).or_default();
            into.count += total.count;
            into.sum_us += total.sum_us;
        }
        for (name, value) in run.counters {
            *self.counters.entry(name).or_default() += value;
        }
        self.generation_us.extend(run.generation_us);
        self.worker_measure_us.extend(run.worker_measure_us);
        Ok(())
    }

    /// Totals of one span name (zero when absent).
    pub fn span(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    /// Last value of a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A telemetry sink that keeps only [`TraceTotals`]: bounded memory, and
/// the cheapest enabled pipeline a traced round can have.
#[derive(Debug, Default)]
pub struct TotalsSink(Mutex<TraceTotals>);

impl TotalsSink {
    /// A copy of the totals so far.
    pub fn totals(&self) -> TraceTotals {
        self.0.lock().expect("totals sink lock").clone()
    }
}

impl Sink for TotalsSink {
    fn event(&self, event: &Event) {
        self.0.lock().expect("totals sink lock").add(event);
    }
}
