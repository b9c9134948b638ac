//! `gest-obs`: the live observability plane.
//!
//! PR 1's telemetry is post-hoc — `run_trace.jsonl` is summarized by
//! `gest report` after the run — and a distributed fleet is a black box
//! while it runs. This crate layers a *live* view on the same event
//! stream: [`ObsSink`] is just another [`Sink`] in the telemetry fan-out
//! that folds events into an in-memory run snapshot, and
//! [`StatusServer`] is a tiny embedded HTTP/1.1 server (std
//! `TcpListener`, hand-rolled request parsing in the same spirit as the
//! `GESTDST1` framing) exposing it:
//!
//! - `/metrics` — Prometheus text exposition of the counter / gauge /
//!   histogram registry, with p50/p95/p99 derived from bucket snapshots;
//! - `/status` — a JSON run summary: run id, generation, best/mean
//!   fitness, cache hit rate, search health, and the fleet table;
//! - `/trace` — the tail of recent events as JSONL.
//!
//! [`top`] renders `/status` as a periodically redrawn console
//! dashboard (`gest top`).
//!
//! Everything is strictly read-only with respect to the GA: the plane
//! observes the same event stream the trace file gets, and nothing read
//! from it feeds back into the search — scraping a run never changes the
//! evolved result.

#![warn(missing_docs)]

pub mod http;
pub mod prom;
pub mod top;

pub use http::{
    accept_until_stopped, http_get, http_request, read_http_request, wake_accept_loop,
    write_http_response, write_http_response_with_headers, HttpRequest, ParsedRequest,
    StatusServer, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};

use gest_telemetry::json::Value;
use gest_telemetry::{Event, FieldValue, Sink, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

/// Default number of events kept for the `/trace` tail.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Looks a field up by key in a span/point field list.
fn field<'a>(fields: &'a [(String, FieldValue)], key: &str) -> Option<&'a FieldValue> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn field_u64(fields: &[(String, FieldValue)], key: &str) -> Option<u64> {
    match field(fields, key)? {
        FieldValue::U64(v) => Some(*v),
        FieldValue::F64(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
        _ => None,
    }
}

fn field_f64(fields: &[(String, FieldValue)], key: &str) -> Option<f64> {
    match field(fields, key)? {
        FieldValue::U64(v) => Some(*v as f64),
        FieldValue::F64(v) => Some(*v),
        _ => None,
    }
}

fn field_str<'a>(fields: &'a [(String, FieldValue)], key: &str) -> Option<&'a str> {
    match field(fields, key)? {
        FieldValue::Str(v) => Some(v),
        _ => None,
    }
}

/// Latest per-generation search-health snapshot (mirrors the `health`
/// trace point emitted by the runner).
#[derive(Debug, Clone, Copy, Default)]
struct HealthView {
    generation: u64,
    diversity: f64,
    stall_generations: u64,
    plateaued: bool,
    quarantined: u64,
    eval_retries: u64,
}

/// One worker row of the fleet table.
#[derive(Debug, Clone, Default)]
struct WorkerView {
    addr: String,
    host: String,
    alive: bool,
    lost: Option<String>,
}

#[derive(Debug, Default)]
struct LiveState {
    run_id: Option<String>,
    machine: Option<String>,
    generations_total: u64,
    generation: Option<u64>,
    best_fitness: Option<f64>,
    mean_fitness: Option<f64>,
    best_ever: Option<f64>,
    health: Option<HealthView>,
    workers: BTreeMap<u64, WorkerView>,
    trace: VecDeque<Event>,
}

/// A [`Sink`] that folds the event stream into a live run snapshot.
///
/// Add it to the telemetry fan-out (alongside the JSONL trace sink) and
/// hand the same `Arc` to [`StatusServer::start`]; the server reads the
/// snapshot for `/status` and the ring buffer for `/trace`, while
/// `/metrics` reads the registry straight off the [`Telemetry`] handle.
#[derive(Debug)]
pub struct ObsSink {
    state: Mutex<LiveState>,
    trace_capacity: usize,
}

impl Default for ObsSink {
    fn default() -> ObsSink {
        ObsSink::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl ObsSink {
    /// Creates a sink keeping the last `trace_capacity` events for the
    /// `/trace` tail.
    pub fn new(trace_capacity: usize) -> ObsSink {
        ObsSink {
            state: Mutex::new(LiveState::default()),
            trace_capacity: trace_capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LiveState> {
        // A panic while holding this lock only ever leaves a stale
        // snapshot behind; serving that is better than taking the
        // endpoint down with the poisoned-lock panic.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The last events received, oldest first.
    pub fn trace_tail(&self) -> Vec<Event> {
        self.lock().trace.iter().cloned().collect()
    }

    /// Builds the `/status` JSON document. Per-worker dispatch/retry
    /// counts and heartbeat ages live in the metrics registry, so the
    /// builder needs the [`Telemetry`] handle too.
    pub fn status_json(&self, telemetry: &Telemetry) -> Value {
        let state = self.lock();
        let uptime_us = telemetry.uptime_us();
        let num = |v: u64| Value::Num(v as f64);
        let opt_num = |v: Option<f64>| v.map_or(Value::Null, Value::Num);

        let cache = Value::Obj(vec![
            (
                "hit_rate".into(),
                opt_num(telemetry.gauge_value("evalcache.hit_rate")),
            ),
            (
                "entries".into(),
                opt_num(telemetry.gauge_value("evalcache.entries")),
            ),
            (
                "bytes".into(),
                opt_num(telemetry.gauge_value("evalcache.bytes")),
            ),
        ]);

        let health = match &state.health {
            None => Value::Null,
            Some(h) => Value::Obj(vec![
                ("generation".into(), num(h.generation)),
                ("diversity".into(), Value::Num(h.diversity)),
                ("stall_generations".into(), num(h.stall_generations)),
                ("plateaued".into(), Value::Bool(h.plateaued)),
                ("quarantined".into(), num(h.quarantined)),
                ("eval_retries".into(), num(h.eval_retries)),
            ]),
        };

        let workers = Value::Arr(
            state
                .workers
                .iter()
                .map(|(index, worker)| {
                    let requests =
                        telemetry.counter_value(&format!("dist.worker.{index}.requests"));
                    let retries = telemetry.counter_value(&format!("dist.worker.{index}.retries"));
                    let heartbeat_age = telemetry
                        .gauge_value(&format!("dist.worker.{index}.last_seen_us"))
                        .map(|last_seen| uptime_us.saturating_sub(last_seen as u64));
                    Value::Obj(vec![
                        ("worker".into(), num(*index)),
                        ("addr".into(), Value::Str(worker.addr.clone())),
                        ("host".into(), Value::Str(worker.host.clone())),
                        ("alive".into(), Value::Bool(worker.alive)),
                        (
                            "lost".into(),
                            worker.lost.clone().map_or(Value::Null, Value::Str),
                        ),
                        ("requests".into(), num(requests)),
                        ("retries".into(), num(retries)),
                        (
                            "heartbeat_age_us".into(),
                            heartbeat_age.map_or(Value::Null, num),
                        ),
                    ])
                })
                .collect(),
        );

        Value::Obj(vec![
            (
                "run_id".into(),
                state.run_id.clone().map_or(Value::Null, Value::Str),
            ),
            (
                "machine".into(),
                state.machine.clone().map_or(Value::Null, Value::Str),
            ),
            ("uptime_us".into(), num(uptime_us)),
            (
                "generation".into(),
                state.generation.map_or(Value::Null, num),
            ),
            ("generations_total".into(), num(state.generations_total)),
            ("best_fitness".into(), opt_num(state.best_fitness)),
            ("mean_fitness".into(), opt_num(state.mean_fitness)),
            ("best_ever".into(), opt_num(state.best_ever)),
            ("cache".into(), cache),
            ("health".into(), health),
            ("workers".into(), workers),
        ])
    }
}

impl Sink for ObsSink {
    fn event(&self, event: &Event) {
        let mut state = self.lock();
        match event {
            Event::SpanStart { name, fields, .. } if name == "run" => {
                state.run_id = field_str(fields, "config_fp").map(str::to_string);
                state.machine = field_str(fields, "machine").map(str::to_string);
                state.generations_total = field_u64(fields, "generations").unwrap_or(0);
            }
            Event::Point { name, fields, .. } if name == "generation" => {
                state.generation = field_u64(fields, "generation").map(|g| g + 1);
                state.best_fitness = field_f64(fields, "best_fitness");
                state.mean_fitness = field_f64(fields, "mean_fitness");
                state.best_ever = field_f64(fields, "best_ever");
            }
            Event::Point { name, fields, .. } if name == "health" => {
                state.health = Some(HealthView {
                    generation: field_u64(fields, "generation").unwrap_or(0),
                    diversity: field_f64(fields, "diversity").unwrap_or(0.0),
                    stall_generations: field_u64(fields, "stall_generations").unwrap_or(0),
                    plateaued: field_u64(fields, "plateaued").unwrap_or(0) != 0,
                    quarantined: field_u64(fields, "quarantined").unwrap_or(0),
                    eval_retries: field_u64(fields, "eval_retries").unwrap_or(0),
                });
            }
            Event::Point { name, fields, .. } if name == "dist.worker.connected" => {
                if let Some(index) = field_u64(fields, "worker") {
                    state.workers.insert(
                        index,
                        WorkerView {
                            addr: field_str(fields, "addr").unwrap_or("").to_string(),
                            host: field_str(fields, "host").unwrap_or("").to_string(),
                            alive: true,
                            lost: None,
                        },
                    );
                }
            }
            Event::Point { name, fields, .. } if name == "dist.worker.lost" => {
                if let Some(index) = field_u64(fields, "worker") {
                    let entry = state.workers.entry(index).or_default();
                    entry.alive = false;
                    entry.lost = field_str(fields, "kind").map(str::to_string);
                }
            }
            _ => {}
        }
        if state.trace.len() == self.trace_capacity {
            state.trace.pop_front();
        }
        state.trace.push_back(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sink_folds_run_generation_health_and_fleet_events() {
        let sink = Arc::new(ObsSink::default());
        let telemetry = Telemetry::new(Arc::clone(&sink) as Arc<dyn Sink>);
        let span = telemetry.span_with(
            "run",
            &[
                ("config_fp", "00c0ffee00c0ffee".into()),
                ("machine", "cortex-a15".into()),
                ("generations", 5u64.into()),
            ],
        );
        telemetry.point(
            "generation",
            &[
                ("generation", 2u64.into()),
                ("best_fitness", 1.5f64.into()),
                ("mean_fitness", 1.25f64.into()),
                ("best_ever", 1.5f64.into()),
            ],
        );
        telemetry.point(
            "health",
            &[
                ("generation", 2u64.into()),
                ("diversity", 0.75f64.into()),
                ("stall_generations", 1u64.into()),
                ("plateaued", 0u64.into()),
            ],
        );
        telemetry.point(
            "dist.worker.connected",
            &[
                ("worker", 0u64.into()),
                ("addr", "127.0.0.1:9000".into()),
                ("host", "nodeA".into()),
            ],
        );
        telemetry.point(
            "dist.worker.lost",
            &[("worker", 0u64.into()), ("kind", "read".into())],
        );
        telemetry.add_counter("dist.worker.0.requests", 7);
        drop(span);

        let status = sink.status_json(&telemetry);
        assert_eq!(
            status.get("run_id").unwrap().as_str(),
            Some("00c0ffee00c0ffee")
        );
        assert_eq!(status.get("machine").unwrap().as_str(), Some("cortex-a15"));
        // Point carries the 0-based index of the generation just
        // finished; /status reports completed count.
        assert_eq!(status.get("generation").unwrap().as_u64(), Some(3));
        assert_eq!(status.get("generations_total").unwrap().as_u64(), Some(5));
        assert_eq!(status.get("best_fitness").unwrap().as_f64(), Some(1.5));
        let health = status.get("health").unwrap();
        assert_eq!(health.get("diversity").unwrap().as_f64(), Some(0.75));
        assert_eq!(health.get("stall_generations").unwrap().as_u64(), Some(1));
        let workers = status.get("workers").unwrap().as_arr().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("requests").unwrap().as_u64(), Some(7));
        assert_eq!(workers[0].get("alive"), Some(&Value::Bool(false)));
        assert_eq!(workers[0].get("lost").unwrap().as_str(), Some("read"));

        // The document round-trips through the JSON writer/parser.
        let mut text = String::new();
        status.write(&mut text);
        assert_eq!(Value::parse(&text).unwrap(), status);
    }

    #[test]
    fn trace_ring_is_bounded_and_ordered() {
        let sink = ObsSink::new(3);
        for i in 0..10u64 {
            sink.event(&Event::Counter {
                name: format!("c{i}"),
                value: i,
            });
        }
        let tail = sink.trace_tail();
        assert_eq!(tail.len(), 3);
        let names: Vec<&str> = tail
            .iter()
            .map(|e| match e {
                Event::Counter { name, .. } => name.as_str(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["c7", "c8", "c9"]);
    }
}
