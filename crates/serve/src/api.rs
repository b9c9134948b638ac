//! The HTTP face of the service: request routing, status documents, the
//! SSE progress stream, and artifact downloads.
//!
//! Transport is the hand-rolled HTTP/1.1 server from `gest-obs` — its
//! blocking accept loop, thread per connection, `Connection: close` on
//! every response — with the request parser shared so POST bodies (the
//! submitted configuration XML) ride the same code path the status
//! server uses.

use crate::registry::RunQuota;
use crate::scheduler::TRACE_FILE;
use crate::{Shared, SubmitError, POLL_INTERVAL};
use gest_core::{GestConfig, OutputWriter, CHECKPOINT_FILE};
use gest_obs::{
    read_http_request, write_http_response, write_http_response_with_headers, HttpRequest,
    ParsedRequest,
};
use gest_telemetry::json::Value;
use std::io::{Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Per-connection socket timeout for plain request/response exchanges.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// Serves one accepted connection: a single request and its response.
pub(crate) fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let request = match read_http_request(&mut stream) {
        Some(ParsedRequest::Request(request)) => request,
        Some(ParsedRequest::TooLarge) => {
            write_http_response(
                &mut stream,
                "413 Payload Too Large",
                "text/plain",
                format!(
                    "request body exceeds the {} byte cap\n",
                    gest_obs::MAX_BODY_BYTES
                )
                .as_bytes(),
            );
            return;
        }
        Some(ParsedRequest::Malformed) => {
            write_http_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                b"malformed HTTP request\n",
            );
            return;
        }
        None => return,
    };
    route(&mut stream, shared, &request);
}

/// Splits `/runs/...` paths into at most three segments after the root.
fn segments(path: &str) -> Vec<&str> {
    path.trim_matches('/')
        .split('/')
        .filter(|s| !s.is_empty())
        .collect()
}

fn route(stream: &mut TcpStream, shared: &Arc<Shared>, request: &HttpRequest) {
    let parts = segments(&request.path);
    match (request.method.as_str(), parts.as_slice()) {
        ("GET", []) => write_http_response(
            stream,
            "200 OK",
            "text/plain",
            b"gest-serve: POST /runs, GET /runs, GET /status, GET /runs/{id}, \
              GET /runs/{id}/events, GET /runs/{id}/artifacts/{population|checkpoint|report}, \
              DELETE /runs/{id}\n",
        ),
        ("GET", ["status"]) => {
            let doc = service_status(shared);
            write_json(stream, "200 OK", &doc);
        }
        ("GET", ["runs"]) => {
            let list = Value::Arr(
                shared
                    .lock_runs()
                    .iter()
                    .map(|entry| entry.status_json())
                    .collect(),
            );
            write_json(stream, "200 OK", &list);
        }
        ("POST", ["runs"]) => submit(stream, shared, request),
        ("GET", ["runs", id]) => match status_of(shared, id) {
            Some(doc) => write_json(stream, "200 OK", &doc),
            None => not_found(stream, id),
        },
        ("DELETE", ["runs", id]) => cancel(stream, shared, id),
        ("GET", ["runs", id, "events"]) => stream_events(stream, shared, id),
        ("GET", ["runs", id, "artifacts", kind]) => artifact(stream, shared, id, kind),
        ("GET", _) => {
            write_http_response(stream, "404 Not Found", "text/plain", b"no such route\n")
        }
        _ => write_http_response(
            stream,
            "405 Method Not Allowed",
            "text/plain",
            b"unsupported method for this route\n",
        ),
    }
}

fn write_json(stream: &mut TcpStream, status: &str, doc: &Value) {
    let mut text = String::new();
    doc.write(&mut text);
    text.push('\n');
    write_http_response(stream, status, "application/json", text.as_bytes());
}

fn not_found(stream: &mut TcpStream, id: &str) {
    write_http_response(
        stream,
        "404 Not Found",
        "text/plain",
        format!("no run named {id}\n").as_bytes(),
    );
}

fn status_of(shared: &Shared, id: &str) -> Option<Value> {
    shared
        .lock_runs()
        .iter()
        .find(|entry| entry.id == id)
        .map(|entry| entry.status_json())
}

/// `GET /status`: the service-wide health document — uptime, the
/// scheduler's supervision counters, queue depth, and every run's status
/// document. `gest top` renders the `serve` object as its serve row.
fn service_status(shared: &Shared) -> Value {
    let telemetry = shared.telemetry();
    let counter = |name: &str| Value::Num(telemetry.counter_value(name) as f64);
    let serve = Value::Obj(vec![
        (
            "queue_depth".into(),
            Value::Num(shared.queue_depth() as f64),
        ),
        ("activations".into(), counter("serve.activations")),
        ("evictions".into(), counter("serve.evictions")),
        ("restarts".into(), counter("serve.restarts")),
        ("quarantines".into(), counter("serve.quarantines")),
        ("expirations".into(), counter("serve.expirations")),
        ("persist_failures".into(), counter("serve.persist_failures")),
        ("rejections".into(), counter("serve.rejections")),
    ]);
    let runs = Value::Arr(
        shared
            .lock_runs()
            .iter()
            .map(|entry| entry.status_json())
            .collect(),
    );
    Value::Obj(vec![
        ("uptime_us".into(), Value::Num(telemetry.uptime_us() as f64)),
        ("serve".into(), serve),
        ("runs".into(), runs),
    ])
}

/// One `key=value` from a query string, if present.
fn query_param<'q>(query: Option<&'q str>, key: &str) -> Option<&'q str> {
    query?
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

/// `POST /runs`: body is the configuration XML; `?seed=N` overrides the
/// config's seed, `?priority=P` sets the scheduling weight, and
/// `?max_generations=N` / `?deadline_s=S` set per-run quotas (terminal
/// state `Expired` with a resumable checkpoint left behind). Admission
/// control (`--max-pending`, disk preflight) answers `503` with a
/// `Retry-After` header.
fn submit(stream: &mut TcpStream, shared: &Arc<Shared>, request: &HttpRequest) {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        write_http_response(
            stream,
            "400 Bad Request",
            "text/plain",
            b"configuration XML must be UTF-8\n",
        );
        return;
    };
    let mut config = match GestConfig::from_xml_str(body) {
        Ok(config) => config,
        Err(error) => {
            write_http_response(
                stream,
                "400 Bad Request",
                "text/plain",
                format!("invalid configuration: {error}\n").as_bytes(),
            );
            return;
        }
    };
    let query = request.query.as_deref();
    if let Some(seed) = query_param(query, "seed") {
        match seed.parse::<u64>() {
            Ok(seed) => config.seed = seed,
            Err(_) => {
                write_http_response(
                    stream,
                    "400 Bad Request",
                    "text/plain",
                    b"seed must be an unsigned integer\n",
                );
                return;
            }
        }
    }
    let priority = match query_param(query, "priority").map(str::parse::<u32>) {
        None => 1,
        Some(Ok(priority)) => priority,
        Some(Err(_)) => {
            write_http_response(
                stream,
                "400 Bad Request",
                "text/plain",
                b"priority must be an unsigned integer\n",
            );
            return;
        }
    };
    let mut quota = RunQuota::default();
    match query_param(query, "max_generations").map(str::parse::<u32>) {
        None => {}
        Some(Ok(cap)) => quota.max_generations = Some(cap),
        Some(Err(_)) => {
            write_http_response(
                stream,
                "400 Bad Request",
                "text/plain",
                b"max_generations must be an unsigned integer\n",
            );
            return;
        }
    }
    let deadline = query_param(query, "deadline_s").map(|text| {
        text.parse::<f64>()
            .ok()
            .and_then(|seconds| Duration::try_from_secs_f64(seconds).ok())
    });
    match deadline {
        None => {}
        Some(Some(deadline)) => quota.deadline = Some(deadline),
        Some(None) => {
            write_http_response(
                stream,
                "400 Bad Request",
                "text/plain",
                b"deadline_s must be a non-negative number of seconds below 2^64\n",
            );
            return;
        }
    }
    match shared.submit(config, priority, quota) {
        Ok(entry) => {
            let doc = Value::Obj(vec![
                ("id".into(), Value::Str(entry.id.clone())),
                ("dir".into(), Value::Str(entry.dir.display().to_string())),
            ]);
            write_json(stream, "201 Created", &doc);
        }
        Err(SubmitError::Busy {
            reason,
            retry_after_s,
        }) => {
            // Graceful degradation: the service is healthy but loaded —
            // shed the submission, keep stepping resident runs, and tell
            // the client when to come back.
            write_http_response_with_headers(
                stream,
                "503 Service Unavailable",
                "text/plain",
                &[("Retry-After", retry_after_s.to_string().as_str())],
                format!("{reason}\n").as_bytes(),
            );
        }
        Err(SubmitError::Invalid(error)) => write_http_response(
            stream,
            "409 Conflict",
            "text/plain",
            format!("{error}\n").as_bytes(),
        ),
    }
}

/// `DELETE /runs/{id}`: marks the run for cancellation; the scheduler
/// finalizes at the next slice boundary. Cancelling a terminal run is a
/// no-op that reports the terminal state.
fn cancel(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) {
    let state = {
        let mut runs = shared.lock_runs();
        match runs.iter_mut().find(|entry| entry.id == id) {
            Some(entry) => {
                if !entry.state.is_terminal() {
                    entry.cancel_requested = true;
                }
                Some(entry.state)
            }
            None => None,
        }
    };
    let Some(state) = state else {
        not_found(stream, id);
        return;
    };
    shared.wake.notify_all();
    let doc = Value::Obj(vec![
        ("id".into(), Value::Str(id.to_string())),
        ("cancelling".into(), Value::Bool(!state.is_terminal())),
        ("state".into(), Value::Str(state.to_string())),
    ]);
    write_json(stream, "200 OK", &doc);
}

/// `GET /runs/{id}/events`: a Server-Sent-Events stream tailing the
/// run's telemetry JSONL — each complete line becomes one `data:` event,
/// and a final `event: end` carries the terminal state once the run is
/// finished and the trace drained.
fn stream_events(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) {
    let Some(dir) = shared
        .lock_runs()
        .iter()
        .find(|entry| entry.id == id)
        .map(|entry| entry.dir.clone())
    else {
        not_found(stream, id);
        return;
    };
    // SSE keeps the socket open for the life of the run; the write
    // timeout only bounds a single stalled client.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let head = "HTTP/1.1 200 OK\r\n\
                Content-Type: text/event-stream\r\n\
                Cache-Control: no-cache\r\n\
                Connection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let trace = dir.join(TRACE_FILE);
    let mut offset: u64 = 0;
    let mut partial = Vec::new();
    loop {
        // Drain complete lines appended since the last poll.
        if let Ok(mut file) = std::fs::File::open(&trace) {
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            if len > offset && file.seek(SeekFrom::Start(offset)).is_ok() {
                let mut fresh = Vec::new();
                if file.take(len - offset).read_to_end(&mut fresh).is_ok() {
                    offset += fresh.len() as u64;
                    partial.extend_from_slice(&fresh);
                    while let Some(newline) = partial.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = partial.drain(..=newline).collect();
                        let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                        if line.is_empty() {
                            continue;
                        }
                        if stream
                            .write_all(format!("data: {line}\n\n").as_bytes())
                            .is_err()
                        {
                            return;
                        }
                    }
                }
            }
        }
        let state = shared
            .lock_runs()
            .iter()
            .find(|entry| entry.id == id)
            .map(|entry| entry.state);
        let stopping = shared.stop.load(Ordering::SeqCst);
        match state {
            Some(state) if state.is_terminal() => {
                let _ = stream.write_all(format!("event: end\ndata: {state}\n\n").as_bytes());
                return;
            }
            Some(_) if stopping => {
                // Graceful shutdown pauses the run; tell the client the
                // stream is ending without a terminal state.
                let _ = stream.write_all(b"event: end\ndata: shutdown\n\n");
                return;
            }
            Some(_) => std::thread::sleep(POLL_INTERVAL),
            None => {
                let _ = stream.write_all(b"event: end\ndata: unknown\n\n");
                return;
            }
        }
    }
}

/// `GET /runs/{id}/artifacts/{kind}`: serves the latest population file,
/// the checkpoint manifest, or the rendered per-generation report.
fn artifact(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str, kind: &str) {
    let entry = shared
        .lock_runs()
        .iter()
        .find(|entry| entry.id == id)
        .map(|entry| (entry.dir.clone(), entry.state));
    let Some((dir, state)) = entry else {
        not_found(stream, id);
        return;
    };
    let missing = |stream: &mut TcpStream, what: &str| {
        write_http_response(
            stream,
            "404 Not Found",
            "text/plain",
            format!("run {id} ({state}) has no {what} yet\n").as_bytes(),
        );
    };
    match kind {
        "population" => {
            let latest = OutputWriter::population_files(&dir)
                .ok()
                .and_then(|files| files.last().cloned());
            match latest.and_then(|path| std::fs::read(path).ok()) {
                Some(bytes) => {
                    write_http_response(stream, "200 OK", "application/octet-stream", &bytes);
                }
                None => missing(stream, "population file"),
            }
        }
        "checkpoint" => match std::fs::read(dir.join(CHECKPOINT_FILE)) {
            Ok(bytes) => {
                write_http_response(stream, "200 OK", "application/octet-stream", &bytes);
            }
            Err(_) => missing(stream, "checkpoint"),
        },
        "report" => match gest_core::stats::analyze_dir(&dir) {
            Ok(stats) if !stats.is_empty() => {
                let report = gest_core::stats::render_report(&stats);
                write_http_response(stream, "200 OK", "text/plain", report.as_bytes());
            }
            _ => missing(stream, "report"),
        },
        _ => write_http_response(
            stream,
            "404 Not Found",
            "text/plain",
            b"artifact kinds: population, checkpoint, report\n",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RunState;

    #[test]
    fn segments_split_and_query_params_parse() {
        assert_eq!(segments("/"), Vec::<&str>::new());
        assert_eq!(segments("/runs"), vec!["runs"]);
        assert_eq!(
            segments("/runs/r1/artifacts/population"),
            vec!["runs", "r1", "artifacts", "population"]
        );
        assert_eq!(query_param(Some("seed=7&priority=3"), "seed"), Some("7"));
        assert_eq!(
            query_param(Some("seed=7&priority=3"), "priority"),
            Some("3")
        );
        assert_eq!(query_param(Some("seed=7"), "priority"), None);
        assert_eq!(query_param(None, "seed"), None);
    }

    #[test]
    fn run_states_used_in_responses_render_lowercase() {
        assert_eq!(RunState::Done.to_string(), "done");
        assert_eq!(RunState::Cancelled.to_string(), "cancelled");
    }
}
