//! End-to-end telemetry: a short search traced through a [`JsonlSink`]
//! must produce a `run_trace.jsonl` whose every line parses back into an
//! event, and whose span/point counts match the run's own summary.

use gest::core::{GestConfig, GestRun};
use gest::telemetry::json::Value;
use gest::telemetry::{Event, JsonlSink, Telemetry};
use std::sync::Arc;

#[test]
fn traced_run_writes_parseable_jsonl_matching_summary() {
    let dir = std::env::temp_dir().join(format!("gest_trace_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("run_trace.jsonl");

    let population_size = 5;
    let generations = 3;
    let config = GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(population_size)
        .individual_size(6)
        .generations(generations)
        .seed(7)
        .build()
        .unwrap();
    let summary = GestRun::builder()
        .config(config)
        .telemetry(Telemetry::new(Arc::new(
            JsonlSink::create(&trace_path).unwrap(),
        )))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.generations, generations);

    // Every line must parse as JSON and decode as a known event.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let events: Vec<Event> = text
        .lines()
        .map(|line| {
            let value =
                Value::parse(line).unwrap_or_else(|e| panic!("bad JSON line {line:?}: {e}"));
            Event::from_json(&value).unwrap_or_else(|| panic!("unknown event in {line:?}"))
        })
        .collect();
    assert!(!events.is_empty());

    let span_starts = |name: &str| {
        events
            .iter()
            .filter(|e| matches!(e, Event::SpanStart { name: n, .. } if n == name))
            .count()
    };
    let expected_generations = summary.generations as usize;
    let expected_candidates = expected_generations * population_size;
    assert_eq!(span_starts("run"), 1);
    assert_eq!(span_starts("generation"), expected_generations);
    assert_eq!(span_starts("evaluate"), expected_generations);
    assert_eq!(span_starts("eval.candidate"), expected_candidates);

    // Spans are balanced and parented: every end has a start, every
    // non-run span start names an existing parent.
    let start_ids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e {
            Event::SpanStart { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    let end_count = events
        .iter()
        .filter(|e| matches!(e, Event::SpanEnd { .. }))
        .count();
    assert_eq!(end_count, start_ids.len(), "every span closes exactly once");
    for event in &events {
        if let Event::SpanStart { name, parent, .. } = event {
            if name == "run" {
                assert_eq!(*parent, None);
            } else {
                let parent = parent.unwrap_or_else(|| panic!("span {name:?} has no parent"));
                assert!(
                    start_ids.contains(&parent),
                    "span {name:?} parent {parent} unknown"
                );
            }
        }
    }

    // Convergence points mirror the recorded history.
    let points: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e, Event::Point { name, .. } if name == "generation"))
        .collect();
    assert_eq!(points.len(), summary.history.summaries().len());
    let last_best = summary.history.best_series().last().copied().unwrap();
    if let Event::Point { fields, .. } = points.last().unwrap() {
        let best = fields.iter().find(|(k, _)| k == "best_fitness").unwrap();
        assert_eq!(best.1.to_string(), format!("{last_best:.4}"));
    }

    // Flushed metrics: the latency histogram covers every candidate and
    // the final gauges agree with the summary.
    let histogram_count = events
        .iter()
        .find_map(|e| match e {
            Event::Histogram { name, snapshot } if name == "eval.latency_us" => {
                Some(snapshot.count)
            }
            _ => None,
        })
        .expect("eval.latency_us histogram flushed");
    assert_eq!(histogram_count as usize, expected_candidates);
    let gauge = |wanted: &str| {
        events.iter().find_map(|e| match e {
            Event::Gauge { name, value } if name == wanted => Some(*value),
            _ => None,
        })
    };
    assert_eq!(
        gauge("run.generations"),
        Some(f64::from(summary.generations))
    );
    assert_eq!(gauge("run.best_fitness"), Some(summary.best.fitness));

    std::fs::remove_dir_all(&dir).unwrap();
}
