//! Observability-plane integration tests: a distributed run scraped
//! mid-flight through the `/metrics`, `/status`, and `/trace` endpoints
//! must produce artifacts **byte-identical** to the same-seed unscraped
//! run — the plane is strictly read-only over the GA — and its merged
//! trace must attribute work to every worker in the fleet plus carry the
//! per-generation search-health events.

use gest::chaos::{FaultKind, FaultLayer, FaultPlan};
use gest::core::{GestConfig, GestRun, CHECKPOINT_FILE};
use gest::dist::{Coordinator, CoordinatorOptions, Worker};
use gest::obs::{http_get, ObsSink, StatusServer};
use gest::telemetry::json::Value;
use gest::telemetry::{Event, FieldValue, MemorySink, MultiSink, Sink, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SCRAPE_TIMEOUT: Duration = Duration::from_secs(5);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gest_obs_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn search_config(dir: &Path) -> GestConfig {
    GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(5)
        .seed(20260808)
        .threads(2)
        .output_dir(dir)
        .checkpoint_every(2)
        .build()
        .unwrap()
}

fn artifact_snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut snapshot = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let interesting = (name.starts_with("population_") && name.ends_with(".bin"))
            || name == CHECKPOINT_FILE
            || name == "config.xml";
        if interesting {
            snapshot.insert(name, std::fs::read(&path).unwrap());
        }
    }
    assert!(
        !snapshot.is_empty(),
        "run saved nothing into {}",
        dir.display()
    );
    snapshot
}

/// The same-seed run, never scraped, never distributed: the byte-level
/// ground truth.
fn unscraped_reference(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let summary = GestRun::builder()
        .config(search_config(dir))
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.generations, 5);
    let snapshot = artifact_snapshot(dir);
    std::fs::remove_dir_all(dir).unwrap();
    snapshot
}

/// Asserts one Prometheus exposition document is well-formed: every
/// non-comment line is `name{labels}? value` with a parseable value.
fn assert_exposition_parses(text: &str) {
    assert!(
        text.contains("gest_uptime_microseconds"),
        "exposition missing the synthetic uptime gauge:\n{text}"
    );
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("sample line has two columns");
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        assert!(
            value.parse::<f64>().is_ok() || ["+Inf", "-Inf", "NaN"].contains(&value),
            "unparseable sample value in {line:?}"
        );
    }
}

#[test]
fn scraped_distributed_run_stays_byte_identical_with_a_merged_fleet_trace() {
    let dir = temp_dir("accept");
    let reference = unscraped_reference(&dir);

    let worker_a = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let worker_b = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let addrs = vec![worker_a.addr().to_string(), worker_b.addr().to_string()];

    let memory = Arc::new(MemorySink::default());
    let obs = Arc::new(ObsSink::default());
    let telemetry = Telemetry::new(Arc::new(MultiSink::new(vec![
        Arc::clone(&memory) as Arc<dyn Sink>,
        Arc::clone(&obs) as Arc<dyn Sink>,
    ])));
    let server = StatusServer::start("127.0.0.1:0", telemetry.clone(), Arc::clone(&obs)).unwrap();
    let endpoint = server.addr().to_string();

    let config = search_config(&dir);
    let coordinator = Arc::new(
        Coordinator::connect(
            &addrs,
            config.to_xml().to_string(),
            telemetry.clone(),
            CoordinatorOptions::default(),
        )
        .unwrap(),
    );
    let mut run = GestRun::builder()
        .config(config)
        .telemetry(telemetry.clone())
        .eval_backend(coordinator)
        .build()
        .unwrap();

    // Scrape every route between generations — genuinely mid-run, with
    // live state and open spans behind the endpoint.
    let mut status_mid_run = None;
    while !run.is_complete() {
        run.step().unwrap();
        let (code, metrics) = http_get(&endpoint, "/metrics", SCRAPE_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        assert_exposition_parses(&metrics);
        let (code, status) = http_get(&endpoint, "/status", SCRAPE_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        status_mid_run = Some(Value::parse(status.trim()).expect("status must be valid JSON"));
        let (code, trace) = http_get(&endpoint, "/trace", SCRAPE_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        for line in trace.lines().filter(|l| !l.is_empty()) {
            let value = Value::parse(line).expect("trace tail lines are JSON events");
            assert!(Event::from_json(&value).is_some(), "unknown event: {line}");
        }
    }
    run.finish();
    drop(server);
    worker_a.kill();
    worker_b.kill();

    // Read-only invariant: five generations of scraping changed nothing.
    let scraped = artifact_snapshot(&dir);
    assert_eq!(
        reference.keys().collect::<Vec<_>>(),
        scraped.keys().collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for (name, bytes) in &reference {
        assert_eq!(
            bytes, &scraped[name],
            "artifact {name} differs between scraped and unscraped runs"
        );
    }

    // The mid-run /status document knew the run and its fleet.
    let status = status_mid_run.expect("at least one generation was scraped");
    assert!(status.get("run_id").and_then(Value::as_str).is_some());
    let workers = status.get("workers").and_then(Value::as_arr).unwrap();
    assert_eq!(workers.len(), 2, "fleet table must list both workers");
    assert!(
        status.get("health").is_some(),
        "mid-run status must carry search health"
    );

    // The merged trace attributes measurements to *both* workers (the
    // v2 frames carried worker-side timings home) and carries one
    // health event per generation.
    let events = memory.events();
    let measured_by: BTreeSet<u64> = events
        .iter()
        .filter_map(|event| match event {
            Event::Point { name, fields, .. } if name == "worker.measure" => {
                fields.iter().find_map(|(key, value)| match value {
                    FieldValue::U64(worker) if key == "worker" => Some(*worker),
                    _ => None,
                })
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        measured_by,
        BTreeSet::from([0, 1]),
        "worker.measure points must attribute both workers"
    );
    let health_events = events
        .iter()
        .filter(|event| matches!(event, Event::Point { name, .. } if name == "health"))
        .count();
    assert_eq!(health_events, 5, "one health event per generation");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_scrape_hammer_never_breaks_the_run_or_the_endpoint() {
    let dir = temp_dir("hammer");
    let reference = unscraped_reference(&dir);

    let obs = Arc::new(ObsSink::default());
    let telemetry = Telemetry::new(Arc::clone(&obs) as Arc<dyn Sink>);
    let server = StatusServer::start("127.0.0.1:0", telemetry.clone(), Arc::clone(&obs)).unwrap();
    let endpoint = server.addr().to_string();

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scrapers: Vec<_> = (0..4)
        .map(|i| {
            let endpoint = endpoint.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut scrapes = 0u64;
                let routes = ["/metrics", "/status", "/trace"];
                while !stop.load(std::sync::atomic::Ordering::SeqCst) {
                    let (code, _body) =
                        http_get(&endpoint, routes[i % routes.len()], SCRAPE_TIMEOUT)
                            .expect("endpoint must answer under load");
                    assert_eq!(code, 200);
                    scrapes += 1;
                }
                scrapes
            })
        })
        .collect();

    let summary = GestRun::builder()
        .config(search_config(&dir))
        .telemetry(telemetry.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.generations, 5);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    for scraper in scrapers {
        assert!(scraper.join().unwrap() > 0, "scraper never got a response");
    }
    drop(server);

    let hammered = artifact_snapshot(&dir);
    for (name, bytes) in &reference {
        assert_eq!(
            bytes, &hammered[name],
            "artifact {name} differs under concurrent scraping"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replays the chaos plan's transport faults against the endpoint socket
/// itself: dropped connections, garbled bytes, truncated requests, and
/// stalled sends. The server must survive all of it and keep serving.
#[test]
fn transport_faults_at_the_endpoint_socket_do_not_kill_the_server() {
    let obs = Arc::new(ObsSink::default());
    let telemetry = Telemetry::new(Arc::clone(&obs) as Arc<dyn Sink>);
    telemetry.add_counter("eval.done", 3);
    // One trace event so /trace has a tail to serve.
    telemetry.point("generation", &[("generation", 0u64.into())]);
    let server = StatusServer::start("127.0.0.1:0", telemetry.clone(), Arc::clone(&obs)).unwrap();
    let addr = server.addr();

    let faults = FaultPlan::generate(0xAB5E5, 24).for_layer(FaultLayer::Transport);
    assert!(!faults.is_empty(), "plan must schedule transport faults");
    for fault in faults {
        match fault {
            // A peer that connects and vanishes before sending anything.
            FaultKind::DropFrame => {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                drop(stream);
            }
            // A peer speaking something that is not HTTP at all.
            FaultKind::GarbleFrame => {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let _ = stream.write_all(&[0xFF, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, b'\n']);
            }
            // A request cut off mid-line, as a dying client would leave.
            FaultKind::TruncateFrame => {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let _ = stream.write_all(b"GET /met");
                drop(stream);
            }
            // A slow-loris peer: headers trickle in with a stall.
            FaultKind::DelayHeartbeat => {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                let _ = stream.write_all(b"GET /status HTTP/1.1\r\n");
                std::thread::sleep(Duration::from_millis(50));
                let _ = stream.write_all(b"\r\n");
            }
            other => unreachable!("{other:?} is not a transport fault"),
        }
    }

    // After every abuse pattern, a well-formed scrape still succeeds.
    for route in ["/metrics", "/status", "/trace"] {
        let (code, body) = http_get(&addr.to_string(), route, SCRAPE_TIMEOUT).unwrap();
        assert_eq!(code, 200, "{route} failed after socket abuse");
        assert!(!body.is_empty());
    }
    let (code, metrics) = http_get(&addr.to_string(), "/metrics", SCRAPE_TIMEOUT).unwrap();
    assert_eq!(code, 200);
    assert!(metrics.contains("eval_done 3"), "{metrics}");
}
