//! Distributed-evaluation integration tests over loopback TCP: a search
//! fanned out to `gest-dist` workers must produce **byte-identical**
//! population and checkpoint artifacts to the same-seed local run — even
//! when a worker is killed and restarted mid-run.
//!
//! Both runs use the *same* output directory path (sequentially): the
//! directory is embedded in `config.xml`, which the checkpoint manifest
//! fingerprints, so artifact bytes can only match when the paths do.

use gest::core::{GestConfig, GestRun, CHECKPOINT_FILE};
use gest::dist::{Coordinator, CoordinatorOptions, Worker};
use gest::telemetry::{MemorySink, Telemetry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gest_dist_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn search_config(dir: &Path) -> GestConfig {
    GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(5)
        .seed(20260807)
        .threads(2)
        .output_dir(dir)
        .checkpoint_every(2)
        .build()
        .unwrap()
}

/// Snapshot of every artifact byte-identity cares about: per-generation
/// population files, the checkpoint manifest, and `config.xml` itself.
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
        snapshot.contains_key(CHECKPOINT_FILE),
        "run saved no checkpoint into {}",
        dir.display()
    );
    assert!(
        snapshot.keys().any(|name| name.starts_with("population_")),
        "run saved no populations into {}",
        dir.display()
    );
    snapshot
}

fn assert_identical(local: &BTreeMap<String, Vec<u8>>, dist: &BTreeMap<String, Vec<u8>>) {
    assert_eq!(
        local.keys().collect::<Vec<_>>(),
        dist.keys().collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for (name, bytes) in local {
        assert_eq!(
            bytes, &dist[name],
            "artifact {name} differs between local and distributed runs"
        );
    }
}

/// Runs the reference search with the default local thread backend and
/// snapshots its artifacts, leaving the directory clean for the
/// distributed run to re-create at the same path.
fn local_reference(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    local_reference_of(search_config(dir))
}

/// [`local_reference`] of any five-generation configuration with an
/// output directory.
fn local_reference_of(config: GestConfig) -> BTreeMap<String, Vec<u8>> {
    let dir = config.output_dir.clone().unwrap();
    let summary = GestRun::builder()
        .config(config)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.generations, 5);
    let snapshot = artifact_snapshot(&dir);
    std::fs::remove_dir_all(&dir).unwrap();
    snapshot
}

fn connect(workers: &[String], dir: &Path, telemetry: Telemetry) -> Arc<Coordinator> {
    connect_config(workers, &search_config(dir), telemetry)
}

/// A coordinator whose workers rebuild `config` from its `config.xml`.
fn connect_config(
    workers: &[String],
    config: &GestConfig,
    telemetry: Telemetry,
) -> Arc<Coordinator> {
    Arc::new(
        Coordinator::connect(
            workers,
            config.to_xml().to_string(),
            telemetry,
            CoordinatorOptions::default(),
        )
        .unwrap(),
    )
}

#[test]
fn two_loopback_workers_match_local_artifacts_byte_for_byte() {
    let dir = temp_dir("clean");
    let local = local_reference(&dir);

    let worker_a = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let worker_b = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let addrs = vec![worker_a.addr().to_string(), worker_b.addr().to_string()];

    let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
    let coordinator = connect(&addrs, &dir, telemetry.clone());
    let summary = GestRun::builder()
        .config(search_config(&dir))
        .eval_backend(coordinator)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.generations, 5);

    let dist = artifact_snapshot(&dir);
    assert_identical(&local, &dist);

    // Both workers really took part, and nothing needed a retry.
    assert!(worker_a.requests_served() > 0, "worker A never dispatched");
    assert!(worker_b.requests_served() > 0, "worker B never dispatched");
    assert!(telemetry.counter_value("dist.dispatches") > 0);
    assert_eq!(telemetry.counter_value("dist.retries"), 0);

    worker_a.kill();
    worker_b.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Workers rebuild the search's measurement from the `config.xml` the
/// coordinator sends, so a setting that XML did not carry would be
/// measured at its default. A temperature search with a non-default
/// thermal hold must match its local reference.
#[test]
fn two_loopback_workers_keep_a_non_default_thermal_hold() {
    let dir = temp_dir("hold");
    let held = || {
        let mut config = search_config(&dir);
        config.machine = gest::sim::MachineConfig::xgene2();
        config.measurement_name = "temperature".into();
        config.run_config.thermal_hold_s = 0.5;
        config
    };
    let local = local_reference_of(held());

    let worker_a = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let worker_b = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let addrs = vec![worker_a.addr().to_string(), worker_b.addr().to_string()];
    let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
    let coordinator = connect_config(&addrs, &held(), telemetry.clone());
    GestRun::builder()
        .config(held())
        .eval_backend(coordinator)
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert_identical(&local, &artifact_snapshot(&dir));
    assert!(worker_a.requests_served() > 0, "worker A never dispatched");
    assert!(worker_b.requests_served() > 0, "worker B never dispatched");
    assert_eq!(telemetry.counter_value("dist.retries"), 0);

    worker_a.kill();
    worker_b.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killing_and_restarting_a_worker_mid_run_keeps_artifacts_byte_identical() {
    let dir = temp_dir("crash");
    let local = local_reference(&dir);

    let worker_a = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let worker_b = Worker::bind("127.0.0.1:0").unwrap().spawn();
    let port_a = worker_a.addr().port();
    let addrs = vec![worker_a.addr().to_string(), worker_b.addr().to_string()];

    let telemetry = Telemetry::new(Arc::new(MemorySink::default()));
    let coordinator = connect(&addrs, &dir, telemetry.clone());

    // Saboteur: as soon as worker A has accepted work, kill it abruptly
    // (its in-flight session socket is severed, as with a real crash),
    // then restart a fresh worker on the same port so the coordinator's
    // reconnection path has something to find.
    let saboteur = std::thread::spawn(move || {
        while worker_a.requests_served() == 0 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        worker_a.kill();
        loop {
            // The accept loop has exited, but give the OS a beat to
            // finish releasing the port if needed.
            match Worker::bind(("127.0.0.1", port_a)) {
                Ok(worker) => break worker.spawn(),
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
    });

    let summary = GestRun::builder()
        .config(search_config(&dir))
        .eval_backend(coordinator)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(summary.generations, 5);

    let restarted = saboteur.join().unwrap();

    // The kill must not have perturbed a single artifact byte: candidates
    // caught on the dead worker were retried elsewhere, producing the
    // same measurements by content purity, and result ordering is the
    // runner's, not the transport's.
    let dist = artifact_snapshot(&dir);
    assert_identical(&local, &dist);

    // The crash was actually exercised: at least one candidate hit a
    // transport failure and was retried on a surviving worker.
    assert!(
        telemetry.counter_value("dist.retries") >= 1,
        "the kill landed after the run finished; nothing was exercised"
    );

    restarted.kill();
    worker_b.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
