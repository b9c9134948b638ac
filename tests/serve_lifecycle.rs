//! `gest-serve` lifecycle integration tests, all over real loopback
//! HTTP: concurrent runs multiplexed by the generation-step scheduler
//! must finish with artifacts **byte-identical** to the same-seed
//! blocking `gest run` path — including when eviction/rehydration cycles
//! runs through their checkpoints (`--max-active=1`) and when a graceful
//! shutdown parks every run mid-search and a fresh server resumes them.

use gest::core::{GestConfig, GestRun, OutputWriter, CHECKPOINT_FILE};
use gest::obs::http_request;
use gest::serve::{ServeOptions, ServeServer};
use gest::telemetry::json::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gest_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn search_config(dir: &Path, seed: u64, generations: u32) -> GestConfig {
    GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(generations)
        .seed(seed)
        .output_dir(dir)
        .checkpoint_every(2)
        .build()
        .unwrap()
}

/// Every artifact whose bytes the service must reproduce exactly.
fn artifact_snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut snapshot = BTreeMap::new();
    for path in OutputWriter::population_files(dir).unwrap() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        snapshot.insert(name, std::fs::read(&path).unwrap());
    }
    for name in [CHECKPOINT_FILE, "config.xml"] {
        snapshot.insert(name.to_string(), std::fs::read(dir.join(name)).unwrap());
    }
    snapshot
}

/// Runs the blocking reference search in `dir`, snapshots its artifacts,
/// and wipes the directory so the service can rebuild it from scratch
/// (the submitted XML names the same `<output dir=...>`, which the
/// checkpoint fingerprint covers).
fn reference_artifacts(
    dir: &Path,
    seed: u64,
    generations: u32,
) -> (String, BTreeMap<String, Vec<u8>>) {
    reference_artifacts_of(search_config(dir, seed, generations))
}

/// [`reference_artifacts`] of any configuration with an output directory.
fn reference_artifacts_of(config: GestConfig) -> (String, BTreeMap<String, Vec<u8>>) {
    let dir = config.output_dir.clone().unwrap();
    let xml = config.to_xml().to_string();
    GestRun::builder()
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let snapshot = artifact_snapshot(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    (xml, snapshot)
}

fn submit(addr: &str, xml: &str, query: &str) -> String {
    let (status, body) = http_request(
        addr,
        "POST",
        &format!("/runs{query}"),
        xml.as_bytes(),
        HTTP_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let doc = Value::parse(String::from_utf8(body).unwrap().trim()).unwrap();
    doc.get("id").and_then(Value::as_str).unwrap().to_string()
}

fn status_doc(addr: &str, id: &str) -> Value {
    let (status, body) =
        http_request(addr, "GET", &format!("/runs/{id}"), &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    Value::parse(String::from_utf8(body).unwrap().trim()).unwrap()
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn assert_matches_reference(dir: &Path, reference: &BTreeMap<String, Vec<u8>>) {
    let served = artifact_snapshot(dir);
    assert_eq!(
        served.keys().collect::<Vec<_>>(),
        reference.keys().collect::<Vec<_>>(),
        "artifact sets differ in {}",
        dir.display()
    );
    for (name, bytes) in reference {
        assert_eq!(&served[name], bytes, "{name} differs in {}", dir.display());
    }
}

/// Streams `/runs/{id}/events` to the end-of-stream marker, returning
/// the raw SSE text (the server closes the connection after `event:
/// end`).
fn sse_to_completion(addr: &str, id: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        stream,
        "GET /runs/{id}/events HTTP/1.1\r\nHost: gest\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text
}

#[test]
fn concurrent_runs_stream_to_completion_with_byte_identical_artifacts() {
    let state_dir = temp_dir("state");
    let dir_a = temp_dir("run_a");
    let dir_b = temp_dir("run_b");
    let (xml_a, reference_a) = reference_artifacts(&dir_a, 11, 5);
    let (xml_b, reference_b) = reference_artifacts(&dir_b, 22, 5);

    let server = ServeServer::start("127.0.0.1:0", ServeOptions::new(&state_dir)).unwrap();
    let addr = server.addr().to_string();

    let id_a = submit(&addr, &xml_a, "");
    let id_b = submit(&addr, &xml_b, "?priority=2");
    assert_ne!(id_a, id_b);

    // Resubmitting into a directory a registered run owns is refused,
    // whether or not that run has finished.
    let (status, _) = http_request(&addr, "POST", "/runs", xml_a.as_bytes(), HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 409);

    // The SSE stream carries telemetry lines and ends with the terminal
    // state once the run completes.
    let events = sse_to_completion(&addr, &id_a);
    assert!(events.contains("text/event-stream"), "{events}");
    assert!(
        events.contains("data: {"),
        "no telemetry events in {events}"
    );
    assert!(events.contains("event: end"), "{events}");
    assert!(events.trim_end().ends_with("data: done"), "{events}");

    wait_until("both runs done", || server.idle());

    for (id, dir, generations) in [(&id_a, &dir_a, 5), (&id_b, &dir_b, 5)] {
        let doc = status_doc(&addr, id);
        assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
        assert_eq!(
            doc.get("generation").and_then(Value::as_u64),
            Some(generations)
        );
        assert!(doc.get("best_fitness").and_then(Value::as_f64).is_some());
        assert_eq!(
            doc.get("dir").and_then(Value::as_str),
            Some(dir.to_string_lossy().as_ref())
        );
    }

    // The scheduler-built artifacts are byte-identical to the blocking
    // reference runs, and the artifact endpoints serve the same bytes.
    assert_matches_reference(&dir_a, &reference_a);
    assert_matches_reference(&dir_b, &reference_b);
    for (id, dir) in [(&id_a, &dir_a), (&id_b, &dir_b)] {
        let (status, body) = http_request(
            &addr,
            "GET",
            &format!("/runs/{id}/artifacts/population"),
            &[],
            HTTP_TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 200);
        let latest = OutputWriter::population_files(dir).unwrap();
        assert_eq!(body, std::fs::read(latest.last().unwrap()).unwrap());

        let (status, body) = http_request(
            &addr,
            "GET",
            &format!("/runs/{id}/artifacts/checkpoint"),
            &[],
            HTTP_TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap());

        let (status, body) = http_request(
            &addr,
            "GET",
            &format!("/runs/{id}/artifacts/report"),
            &[],
            HTTP_TIMEOUT,
        )
        .unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(body).unwrap().contains("generation"));
    }

    // The run list names both runs; unknown ids and artifacts 404.
    let (status, body) = http_request(&addr, "GET", "/runs", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let list = Value::parse(String::from_utf8(body).unwrap().trim()).unwrap();
    assert_eq!(list.as_arr().unwrap().len(), 2);
    let (status, _) = http_request(&addr, "GET", "/runs/nope", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 404);
    let (status, _) = http_request(
        &addr,
        "GET",
        &format!("/runs/{id_a}/artifacts/nope"),
        &[],
        HTTP_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 404);

    drop(server);
    for dir in [&state_dir, &dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn eviction_and_rehydration_keep_runs_bit_identical() {
    let state_dir = temp_dir("evict_state");
    let dir_a = temp_dir("evict_a");
    let dir_b = temp_dir("evict_b");
    let (xml_a, reference_a) = reference_artifacts(&dir_a, 33, 5);
    let (xml_b, reference_b) = reference_artifacts(&dir_b, 44, 5);

    // One residency slot for two runs: every scheduling slice evicts the
    // other run to its checkpoint and rehydrates it next slice, so the
    // whole search exercises the resume path continuously.
    let mut options = ServeOptions::new(&state_dir);
    options.max_active = 1;
    let server = ServeServer::start("127.0.0.1:0", options).unwrap();
    let addr = server.addr().to_string();

    submit(&addr, &xml_a, "");
    submit(&addr, &xml_b, "");
    wait_until("both runs done under eviction", || server.idle());

    assert_matches_reference(&dir_a, &reference_a);
    assert_matches_reference(&dir_b, &reference_b);

    drop(server);
    for dir in [&state_dir, &dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// The service rebuilds a run from its submitted `config.xml` on every
/// activation, so a setting that XML did not carry would be lost from the
/// first slice on. A temperature search with a non-default thermal hold,
/// evicted and rehydrated every slice, must match its local reference.
#[test]
fn eviction_and_rehydration_keep_a_non_default_thermal_hold() {
    let held = |dir: &Path, seed: u64| {
        let mut config = search_config(dir, seed, 5);
        config.machine = gest::sim::MachineConfig::xgene2();
        config.measurement_name = "temperature".into();
        config.run_config.thermal_hold_s = 0.5;
        config
    };
    let state_dir = temp_dir("hold_state");
    let dir_a = temp_dir("hold_a");
    let dir_b = temp_dir("hold_b");
    let (xml_a, reference_a) = reference_artifacts_of(held(&dir_a, 33));
    let (xml_b, reference_b) = reference_artifacts_of(held(&dir_b, 44));

    let mut options = ServeOptions::new(&state_dir);
    options.max_active = 1;
    let server = ServeServer::start("127.0.0.1:0", options).unwrap();
    let addr = server.addr().to_string();

    submit(&addr, &xml_a, "");
    submit(&addr, &xml_b, "");
    wait_until("both held runs done under eviction", || server.idle());

    assert_matches_reference(&dir_a, &reference_a);
    assert_matches_reference(&dir_b, &reference_b);
    assert!(xml_a.contains(r#"thermal_hold_s="0.5""#), "{xml_a}");

    drop(server);
    for dir in [&state_dir, &dir_a, &dir_b] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn graceful_shutdown_parks_runs_and_a_new_server_resumes_them() {
    let state_dir = temp_dir("restart_state");
    let dir = temp_dir("restart_run");
    let (xml, reference) = reference_artifacts(&dir, 55, 100);

    let mut first = ServeServer::start("127.0.0.1:0", ServeOptions::new(&state_dir)).unwrap();
    let addr = first.addr().to_string();
    let id = submit(&addr, &xml, "");

    // Let the run get past its first durable checkpoint, then shut the
    // server down mid-search.
    wait_until("first checkpoint", || {
        status_doc(&addr, &id)
            .get("generation")
            .and_then(Value::as_u64)
            >= Some(2)
    });
    first.shutdown();
    let parked = status_doc_offline(&dir);
    assert!(
        matches!(parked.as_deref(), Some("running" | "pending")),
        "parked run should persist as non-terminal, got {parked:?}"
    );

    // A fresh server over the same state directory rehydrates the parked
    // run from its checkpoint and finishes it bit-identically.
    drop(first);
    let second = ServeServer::start("127.0.0.1:0", ServeOptions::new(&state_dir)).unwrap();
    let addr = second.addr().to_string();
    wait_until("resumed run done", || second.idle());
    let doc = status_doc(&addr, &id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
    assert_matches_reference(&dir, &reference);

    // The restarted run's cache came back from the sidecar the shutdown
    // checkpoint wrote: its first generation hits at least the elites.
    let measured = measured_in_first_generation_after_resume(&dir);
    assert!(
        measured < 8,
        "the first generation after the restart measured all {measured} candidates"
    );

    // Cancelling a finished run is a reported no-op.
    let (status, body) =
        http_request(&addr, "DELETE", &format!("/runs/{id}"), &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let doc = Value::parse(String::from_utf8(body).unwrap().trim()).unwrap();
    assert_eq!(doc.get("cancelling").and_then(Value::as_bool), Some(false));

    drop(second);
    for dir in [&state_dir, &dir] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

/// Reads the parked run's persisted state straight from its manifest.
fn status_doc_offline(dir: &Path) -> Option<String> {
    let text = std::fs::read_to_string(dir.join("serve_run.json")).ok()?;
    let doc = Value::parse(text.trim()).ok()?;
    doc.get("state").and_then(Value::as_str).map(str::to_string)
}

/// Leaders plus followers (the candidates the cache did not answer up
/// front) of the first `evaluate.fanout` after the run's last `resume`
/// point.
fn measured_in_first_generation_after_resume(dir: &Path) -> u64 {
    let trace = std::fs::read_to_string(dir.join("run_trace.jsonl")).unwrap();
    let points: Vec<Value> = trace
        .lines()
        .filter_map(|line| Value::parse(line).ok())
        .filter(|event| event.get("type").and_then(Value::as_str) == Some("point"))
        .collect();
    let name = |event: &Value| {
        event
            .get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    let resume = points
        .iter()
        .rposition(|event| name(event).as_deref() == Some("resume"))
        .expect("a resume point in the trace");
    let fanout = points[resume..]
        .iter()
        .find(|event| name(event).as_deref() == Some("evaluate.fanout"))
        .expect("a fan-out after the resume point");
    let field = |key: &str| {
        fanout
            .get("fields")
            .and_then(|fields| fields.get(key))
            .and_then(Value::as_u64)
            .unwrap()
    };
    field("leaders") + field("followers")
}
