//! `gest-serve` robustness integration tests, over real loopback HTTP:
//! run supervision (transient-fault restarts with a bounded budget, and
//! the terminal states they produce), per-run quotas
//! (`?max_generations=`, `?deadline_s=`) that expire runs behind a
//! resumable checkpoint, out-of-range deadlines (refused with `400`, and
//! skipped in a manifest at startup), hostile configuration bodies
//! (refused with `400`), and admission control
//! (`max_pending`, free-disk floor) answering `503` + `Retry-After` while
//! resident runs keep stepping.

use gest::core::{
    EvalBackend, EvalRequest, FaultPolicy, GestConfig, GestError, GestRun, LocalBackend,
    OutputWriter, RealFs, Registry, CHECKPOINT_FILE,
};
use gest::obs::http_request;
use gest::serve::registry::{save_index_via, RUN_MANIFEST_FILE};
use gest::serve::{RunEntry, ServeOptions, ServeServer};
use gest::sim::RunResult;
use gest::telemetry::json::Value;
use gest::telemetry::{NoopSink, Telemetry};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gest_robust_{tag}_{}", std::process::id()));
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
/// and wipes the directory so the service can rebuild it from scratch.
fn reference_artifacts(
    dir: &Path,
    seed: u64,
    generations: u32,
) -> (String, BTreeMap<String, Vec<u8>>) {
    let config = search_config(dir, seed, generations);
    let xml = config.to_xml().to_string();
    GestRun::builder()
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let snapshot = artifact_snapshot(dir);
    std::fs::remove_dir_all(dir).unwrap();
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

/// A raw HTTP exchange that keeps the response head, so tests can read
/// headers (`gest::obs::http_request` discards them).
fn raw_request(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(HTTP_TIMEOUT)).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: gest\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    let head_end = text.find("\r\n\r\n").expect("complete response head");
    let head = text[..head_end].to_string();
    let status: u16 = head
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    (status, head, raw[head_end + 4..].to_vec())
}

/// An evaluation backend whose every measurement fails — the shape of a
/// measurement host that is down. `GestError::Backend` classifies as
/// *transient*, so the supervisor restarts the run until the budget
/// runs out.
#[derive(Debug)]
struct OutageBackend;

impl EvalBackend for OutageBackend {
    fn name(&self) -> &str {
        "outage"
    }
    fn slots(&self, _pending: usize) -> usize {
        2
    }
    fn measure(
        &self,
        _slot: usize,
        _request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        Err(GestError::Backend("injected measurement outage".into()))
    }
}

#[test]
fn a_faulting_run_fails_with_its_error_while_a_healthy_run_stays_byte_identical() {
    let state_dir = temp_dir("fail_state");
    let fail_dir = temp_dir("fail_run");
    let healthy_dir = temp_dir("fail_healthy");
    let (healthy_xml, healthy_reference) = reference_artifacts(&healthy_dir, 77, 5);

    // The faulting run propagates measurement errors out of `step()`:
    // no candidate quarantine, one in-runner retry, then the error
    // surfaces to the serve supervisor.
    let fail_config = GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(5)
        .seed(66)
        .output_dir(&fail_dir)
        .checkpoint_every(2)
        .fault_policy(FaultPolicy {
            max_retries: 1,
            backoff_base_ms: 1,
            deadline_ms: None,
            watchdog_ms: None,
            quarantine: false,
        })
        .build()
        .unwrap();
    let fail_xml = fail_config.to_xml().to_string();

    // The factory hands the broken backend only to the faulting run
    // (keyed on its output directory in the canonical XML); for anyone
    // else it reports the fleet unavailable, which falls back to local
    // evaluation without taking the lease.
    let fail_marker = fail_dir.to_string_lossy().into_owned();
    let mut options = ServeOptions::new(&state_dir);
    options.restart_budget = 1;
    options.backend_factory = Some(Arc::new(move |config_xml: &str| {
        if config_xml.contains(&fail_marker) {
            Ok(Arc::new(OutageBackend) as Arc<dyn EvalBackend>)
        } else {
            Err(GestError::Backend("no fleet for healthy runs".into()))
        }
    }));
    let server = ServeServer::start("127.0.0.1:0", options).unwrap();
    let addr = server.addr().to_string();

    let fail_id = submit(&addr, &fail_xml, "");
    let healthy_id = submit(&addr, &healthy_xml, "");
    wait_until("both runs terminal", || server.idle());

    // The faulting run burned its restart budget and failed, and the
    // whole story is readable from its status document.
    let doc = status_doc(&addr, &fail_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("failed"));
    assert_eq!(doc.get("restarts").and_then(Value::as_u64), Some(1));
    let error = doc.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(
        error.contains("restart budget") && error.contains("measurement outage"),
        "unexpected error field: {error:?}"
    );

    // The concurrent healthy run is untouched: done, no restarts, and
    // byte-identical to its blocking reference.
    let doc = status_doc(&addr, &healthy_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(doc.get("restarts").and_then(Value::as_u64), Some(0));
    assert!(doc.get("error").and_then(Value::as_str).is_none());
    assert_matches_reference(&healthy_dir, &healthy_reference);

    drop(server);
    for dir in [&state_dir, &fail_dir, &healthy_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_failed_activation_leaves_the_fleet_to_the_next_run() {
    let state_dir = temp_dir("lease_state");
    let broken_dir = temp_dir("lease_broken");
    let healthy_dir = temp_dir("lease_healthy");
    // A garbage checkpoint fails the broken run's activation in
    // `build()`, after the factory has handed it the fleet backend.
    std::fs::create_dir_all(&broken_dir).unwrap();
    std::fs::write(broken_dir.join(CHECKPOINT_FILE), b"not a checkpoint").unwrap();
    let broken_xml = search_config(&broken_dir, 5, 3).to_xml().to_string();
    let healthy_config = search_config(&healthy_dir, 6, 3);
    let healthy_xml = healthy_config.to_xml().to_string();

    // The fleet: one local backend, handed out by a factory that counts
    // how often the scheduler asks for it.
    let measurement = Registry::default()
        .build_measurement(
            &healthy_config.measurement_name,
            healthy_config.machine.clone(),
            healthy_config.run_config,
        )
        .unwrap();
    let backend: Arc<dyn EvalBackend> = Arc::new(LocalBackend::new(
        measurement,
        healthy_config.template.clone(),
        1,
    ));
    let calls = Arc::new(AtomicUsize::new(0));
    let mut options = ServeOptions::new(&state_dir);
    options.backend_factory = Some({
        let calls = Arc::clone(&calls);
        Arc::new(move |_config_xml: &str| {
            calls.fetch_add(1, Ordering::SeqCst);
            Ok(Arc::clone(&backend))
        })
    });
    let server = ServeServer::start("127.0.0.1:0", options).unwrap();
    let addr = server.addr().to_string();

    let broken_id = submit(&addr, &broken_xml, "");
    wait_until("broken run terminal", || server.idle());
    let doc = status_doc(&addr, &broken_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("failed"));

    // The failed activation held no lease, so the next run is offered
    // the fleet again.
    let healthy_id = submit(&addr, &healthy_xml, "");
    wait_until("healthy run terminal", || server.idle());
    let doc = status_doc(&addr, &healthy_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "the fleet was not offered to the run after a failed activation"
    );

    drop(server);
    for dir in [&state_dir, &broken_dir, &healthy_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn quotas_expire_runs_behind_a_resumable_checkpoint() {
    let state_dir = temp_dir("quota_state");
    let capped_dir = temp_dir("quota_capped");
    let deadline_dir = temp_dir("quota_deadline");
    let (capped_xml, reference) = reference_artifacts(&capped_dir, 88, 6);
    let deadline_xml = search_config(&deadline_dir, 99, 6).to_xml().to_string();

    let server = ServeServer::start("127.0.0.1:0", ServeOptions::new(&state_dir)).unwrap();
    let addr = server.addr().to_string();

    // Malformed quota values are rejected up front.
    let (status, _) = http_request(
        &addr,
        "POST",
        "/runs?max_generations=nope",
        capped_xml.as_bytes(),
        HTTP_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 400);

    let capped_id = submit(&addr, &capped_xml, "?max_generations=3");
    let deadline_id = submit(&addr, &deadline_xml, "?deadline_s=0");
    wait_until("both quota runs terminal", || server.idle());

    // The generation-capped run stopped at exactly its quota, is
    // documented as expired, and left a resumable checkpoint behind.
    let doc = status_doc(&addr, &capped_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("expired"));
    assert_eq!(doc.get("generation").and_then(Value::as_u64), Some(3));
    assert_eq!(doc.get("max_generations").and_then(Value::as_u64), Some(3));
    let error = doc.get("error").and_then(Value::as_str).unwrap_or_default();
    assert!(
        error.contains("expired"),
        "unexpected error field: {error:?}"
    );
    assert!(capped_dir.join(CHECKPOINT_FILE).exists());

    // The zero-deadline run expired before stepping at all.
    let doc = status_doc(&addr, &deadline_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("expired"));
    assert_eq!(doc.get("generation").and_then(Value::as_u64), Some(0));
    assert!(!deadline_dir.join(CHECKPOINT_FILE).exists());

    drop(server);

    // `gest resume` over the expired run's checkpoint finishes the
    // remaining generations bit-exactly: the full 6-generation artifacts
    // match the never-interrupted blocking reference byte for byte.
    GestRun::builder()
        .resume_from(&capped_dir)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_matches_reference(&capped_dir, &reference);

    for dir in [&state_dir, &capped_dir, &deadline_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn admission_control_sheds_submissions_with_503_and_retry_after() {
    let state_dir = temp_dir("admit_state");
    let long_dir = temp_dir("admit_long");
    let late_dir = temp_dir("admit_late");
    let long_xml = search_config(&long_dir, 111, 60).to_xml().to_string();
    let late_xml = search_config(&late_dir, 112, 3).to_xml().to_string();

    let telemetry = Telemetry::new(Arc::new(NoopSink));
    let mut options = ServeOptions::new(&state_dir);
    options.max_pending = Some(1);
    options.telemetry = telemetry.clone();
    let server = ServeServer::start("127.0.0.1:0", options).unwrap();
    let addr = server.addr().to_string();

    // One slot, taken: the next submission is shed with 503 and a
    // Retry-After hint while the resident run keeps stepping.
    let long_id = submit(&addr, &long_xml, "");
    // Resident before the cancel below: a run cancelled while still
    // pending is never activated, and the activation count checked at
    // the end would then depend on thread scheduling.
    wait_until("long run resident", || {
        status_doc(&addr, &long_id)
            .get("state")
            .and_then(Value::as_str)
            == Some("running")
    });
    let (status, head, body) = raw_request(&addr, "POST", "/runs", late_xml.as_bytes());
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert!(
        head.contains("Retry-After: 5"),
        "no Retry-After in {head:?}"
    );
    assert!(
        String::from_utf8_lossy(&body).contains("queue full"),
        "{}",
        String::from_utf8_lossy(&body)
    );
    assert!(telemetry.counter_value("serve.rejections") >= 1);

    // Freeing the slot readmits the same submission.
    let (status, _) = http_request(
        &addr,
        "DELETE",
        &format!("/runs/{long_id}"),
        &[],
        HTTP_TIMEOUT,
    )
    .unwrap();
    assert_eq!(status, 200);
    wait_until("cancelled run terminal", || {
        status_doc(&addr, &long_id)
            .get("state")
            .and_then(Value::as_str)
            == Some("cancelled")
    });
    let late_id = submit(&addr, &late_xml, "");
    wait_until("late run done", || server.idle());
    let doc = status_doc(&addr, &late_id);
    assert_eq!(doc.get("state").and_then(Value::as_str), Some("done"));

    // The service health endpoint surfaces the scheduler counters the
    // whole episode incremented.
    let (status, body) = http_request(&addr, "GET", "/status", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    let doc = Value::parse(String::from_utf8(body).unwrap().trim()).unwrap();
    let serve = doc.get("serve").expect("serve section in /status");
    assert!(serve.get("rejections").and_then(Value::as_u64) >= Some(1));
    assert!(serve.get("activations").and_then(Value::as_u64) >= Some(2));
    assert_eq!(
        doc.get("runs").and_then(Value::as_arr).map(<[Value]>::len),
        Some(2)
    );

    drop(server);
    for dir in [&state_dir, &long_dir, &late_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn out_of_range_deadlines_are_rejected_over_http_and_skipped_at_startup() {
    let state_dir = temp_dir("deadline_state");
    let run_dir = temp_dir("deadline_run");
    let xml = search_config(&run_dir, 121, 3).to_xml().to_string();

    // A manifest whose deadline no `Duration` can hold, listed in the
    // index of the state directory the service starts from.
    std::fs::create_dir_all(&run_dir).unwrap();
    let mut entry = RunEntry::new("hostile".into(), run_dir.clone(), xml.clone(), 1, 3);
    entry.quota.deadline = Some(Duration::from_secs(1));
    entry.persist_via(&RealFs).unwrap();
    let manifest = run_dir.join(RUN_MANIFEST_FILE);
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert!(text.contains("\"deadline_s\":1,"), "{text}");
    std::fs::write(
        &manifest,
        text.replace("\"deadline_s\":1,", "\"deadline_s\":-1,"),
    )
    .unwrap();
    std::fs::create_dir_all(&state_dir).unwrap();
    save_index_via(&RealFs, &state_dir, &[entry]).unwrap();

    // The service starts, skipping the run it cannot decode.
    let server = ServeServer::start("127.0.0.1:0", ServeOptions::new(&state_dir)).unwrap();
    let addr = server.addr().to_string();
    let (status, body) = http_request(&addr, "GET", "/runs", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap().trim(), "[]");

    // Deadlines a `Duration` cannot hold answer 400 on the connection
    // that sent them, and the service keeps answering.
    for deadline in ["-1", "1e20", "NaN", "inf"] {
        let (status, body) = http_request(
            &addr,
            "POST",
            &format!("/runs?deadline_s={deadline}"),
            xml.as_bytes(),
            HTTP_TIMEOUT,
        )
        .unwrap();
        assert_eq!(
            status,
            400,
            "deadline_s={deadline}: {}",
            String::from_utf8_lossy(&body)
        );
    }
    let (status, _) = http_request(&addr, "GET", "/runs", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);

    drop(server);
    for dir in [&state_dir, &run_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn a_deeply_nested_configuration_body_is_rejected_and_the_service_keeps_answering() {
    let state_dir = temp_dir("nesting_state");
    let server = ServeServer::start("127.0.0.1:0", ServeOptions::new(&state_dir)).unwrap();
    let addr = server.addr().to_string();

    // About 56 KB, far under the body cap: without a depth cap, building
    // its tree overflows the connection thread's stack and aborts the
    // whole process.
    let depth = 8_000;
    let body = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
    let (status, reply) =
        http_request(&addr, "POST", "/runs", body.as_bytes(), HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&reply));
    assert!(
        String::from_utf8_lossy(&reply).contains("nested deeper"),
        "{}",
        String::from_utf8_lossy(&reply)
    );
    let (status, body) = http_request(&addr, "GET", "/runs", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);
    assert_eq!(String::from_utf8(body).unwrap().trim(), "[]");

    drop(server);
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn the_free_disk_preflight_rejects_submissions_on_a_full_filesystem() {
    let state_dir = temp_dir("disk_state");
    let run_dir = temp_dir("disk_run");
    let xml = search_config(&run_dir, 113, 3).to_xml().to_string();

    // An impossible floor models a (nearly) full disk: every submission
    // is shed, but the service itself stays healthy and answers.
    let mut options = ServeOptions::new(&state_dir);
    options.min_free_bytes = u64::MAX;
    let server = ServeServer::start("127.0.0.1:0", options).unwrap();
    let addr = server.addr().to_string();

    let (status, head, body) = raw_request(&addr, "POST", "/runs", xml.as_bytes());
    assert_eq!(status, 503, "{}", String::from_utf8_lossy(&body));
    assert!(
        head.contains("Retry-After: 5"),
        "no Retry-After in {head:?}"
    );
    assert!(
        String::from_utf8_lossy(&body).contains("low on space"),
        "{}",
        String::from_utf8_lossy(&body)
    );
    let (status, _) = http_request(&addr, "GET", "/runs", &[], HTTP_TIMEOUT).unwrap();
    assert_eq!(status, 200);

    drop(server);
    for dir in [&state_dir, &run_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
