//! The chaos soak: one full checkpointed, distributed, cached search
//! under a randomized [`FaultPlan`], asserted byte-identical against the
//! fault-free same-seed run.
//!
//! The soak is the crate's end-to-end claim. It runs the *same* search
//! twice at the *same* output path (sequentially — the path is embedded
//! in `config.xml`, which the checkpoint fingerprints):
//!
//! 1. a clean local run, whose artifacts become the reference;
//! 2. a distributed run with every chaos shim installed — backend
//!    faults ahead of the coordinator, transport faults under its frame
//!    reader, persistence faults on the write path — plus, when the
//!    plan says so, an abrupt kill of the whole in-process worker fleet
//!    mid-run, forcing the coordinator's graceful degradation to a
//!    [`LocalBackend`] fallback.
//!
//! A hardened stack absorbs all of it: every population file, the
//! checkpoint manifest, and `config.xml` must come out byte-identical.

use crate::{ChaosBackend, ChaosFs, ChaosTransport, FaultKind, FaultPlan};
use gest_core::{
    EvalBackend, FaultPolicy, GestConfig, GestError, GestRun, LocalBackend, Registry,
    CHECKPOINT_FILE,
};
use gest_dist::{Coordinator, CoordinatorOptions, Worker};
use gest_telemetry::{Event, MemorySink, Sink, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for one soak run.
#[derive(Debug, Clone)]
pub struct SoakOptions {
    /// Seeds both the search and the fault plan.
    pub seed: u64,
    /// Number of scheduled faults; `>= 11` guarantees the plan covers
    /// every fault kind (see [`FaultPlan::generate`]).
    pub faults: usize,
    /// Output directory, used sequentially by both runs and removed
    /// first. Must not hold anything worth keeping.
    pub dir: PathBuf,
    /// In-process workers to spawn for the distributed run.
    pub workers: usize,
    /// Leave the faulted run's artifacts on disk for inspection.
    pub keep_dir: bool,
}

impl SoakOptions {
    /// Defaults: two workers, directory removed afterwards.
    pub fn new(seed: u64, faults: usize, dir: impl Into<PathBuf>) -> SoakOptions {
        SoakOptions {
            seed,
            faults,
            dir: dir.into(),
            workers: 2,
            keep_dir: false,
        }
    }
}

/// What one soak run observed.
#[derive(Debug)]
pub struct SoakReport {
    /// The fault schedule that ran.
    pub plan: FaultPlan,
    /// Each fault kind that actually fired, with its telemetry count.
    pub fired: Vec<(&'static str, u64)>,
    /// Whether the coordinator degraded to its local fallback.
    pub degraded: bool,
    /// Value of the `dist.local_fallback` counter (0 or 1).
    pub local_fallbacks: u64,
    /// Generations completed by the faulted run.
    pub generations: u32,
    /// Artifact names that differ from the fault-free reference
    /// (empty on success).
    pub mismatched: Vec<String>,
    /// Total artifacts compared.
    pub artifacts: usize,
}

impl SoakReport {
    /// Whether every artifact matched the fault-free run bit for bit.
    pub fn byte_identical(&self) -> bool {
        self.mismatched.is_empty()
    }

    /// Number of distinct fault kinds that fired.
    pub fn distinct_fired(&self) -> usize {
        self.fired.len()
    }

    /// Total fault injections across all kinds.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|(_, count)| count).sum()
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "chaos soak: plan {}", self.plan)?;
        writeln!(
            f,
            "  fired {} faults across {} kinds:",
            self.total_fired(),
            self.distinct_fired()
        )?;
        for (name, count) in &self.fired {
            writeln!(f, "    {name:<24} x{count}")?;
        }
        writeln!(
            f,
            "  fleet degraded to local fallback: {}",
            if self.degraded { "yes" } else { "no" }
        )?;
        if self.byte_identical() {
            writeln!(
                f,
                "  artifacts: all {} byte-identical to the fault-free run",
                self.artifacts
            )
        } else {
            writeln!(f, "  MISMATCHED artifacts: {}", self.mismatched.join(", "))
        }
    }
}

/// The search both runs execute. Small but complete: checkpointing
/// every 2 of 6 generations, eval cache on, 2 runner threads, a retry
/// budget that out-lasts the per-candidate injection cap, and a 500 ms
/// watchdog for the injected hangs to trip. Shared with the serve soak,
/// which runs several of these at consecutive seeds.
pub(crate) fn soak_config(dir: &Path, seed: u64) -> Result<GestConfig, GestError> {
    GestConfig::builder("cortex-a15")
        .measurement("power")
        .population_size(8)
        .individual_size(10)
        .generations(6)
        .seed(seed)
        .threads(2)
        .output_dir(dir)
        .checkpoint_every(2)
        .fault_policy(FaultPolicy {
            max_retries: 3,
            backoff_base_ms: 1,
            deadline_ms: None,
            watchdog_ms: Some(500),
            quarantine: true,
        })
        .build()
}

/// Reads every artifact byte-identity cares about: per-generation
/// population files, the checkpoint manifest, and `config.xml`.
pub(crate) fn artifact_snapshot(dir: &Path) -> Result<BTreeMap<String, Vec<u8>>, GestError> {
    let mut snapshot = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(GestError::Io)? {
        let path = entry.map_err(GestError::Io)?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
            continue;
        };
        let interesting = (name.starts_with("population_") && name.ends_with(".bin"))
            || name == CHECKPOINT_FILE
            || name == "config.xml";
        if interesting {
            snapshot.insert(name, std::fs::read(&path).map_err(GestError::Io)?);
        }
    }
    if !snapshot.contains_key(CHECKPOINT_FILE) {
        return Err(GestError::Backend(format!(
            "chaos soak: run left no checkpoint manifest in {}",
            dir.display()
        )));
    }
    Ok(snapshot)
}

/// Total observed value of one counter. Counter events in the sink are
/// cumulative snapshots — checkpoints flush the registry mid-run without
/// resetting it, and `Telemetry::finish` drains it at the end — so the
/// *last* flushed record carries the running total, and anything still
/// live in the registry (a run that never finished) can only be larger.
fn counter_total(telemetry: &Telemetry, sink: &MemorySink, name: &str) -> u64 {
    let flushed = sink
        .events()
        .iter()
        .filter_map(|event| match event {
            Event::Counter { name: n, value } if n == name => Some(*value),
            _ => None,
        })
        .next_back()
        .unwrap_or(0);
    flushed.max(telemetry.counter_value(name))
}

/// Runs the full soak; see the module docs for the shape.
///
/// # Errors
///
/// Any [`GestError`] from either run, plus [`GestError::Backend`] for
/// harness-level failures (missing artifacts, saboteur panic). A
/// *mismatch* is not an error — it is reported via
/// [`SoakReport::mismatched`] so callers can print the diff.
pub fn run_soak(options: &SoakOptions) -> Result<SoakReport, GestError> {
    let dir = &options.dir;
    let _ = std::fs::remove_dir_all(dir);

    // 1. Fault-free reference at the same seed and path.
    GestRun::builder()
        .config(soak_config(dir, options.seed)?)
        .build()?
        .run()?;
    let reference = artifact_snapshot(dir)?;
    std::fs::remove_dir_all(dir).map_err(GestError::Io)?;

    // 2. The faulted run.
    let plan = FaultPlan::generate(options.seed, options.faults);
    let sink = Arc::new(MemorySink::default());
    let telemetry = Telemetry::new(Arc::clone(&sink) as Arc<dyn Sink>);
    let config = soak_config(dir, options.seed)?;

    let mut workers = Vec::new();
    for _ in 0..options.workers.max(1) {
        workers.push(Worker::bind("127.0.0.1:0").map_err(GestError::Io)?.spawn());
    }
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();

    let measurement = Registry::default().build_measurement(
        &config.measurement_name,
        config.machine.clone(),
        config.run_config,
    )?;
    let local = LocalBackend::new(measurement, config.template.clone(), config.threads);
    let coordinator = Arc::new(Coordinator::connect(
        &addrs,
        config.to_xml().to_string(),
        telemetry.clone(),
        CoordinatorOptions {
            heartbeat_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_millis(300),
            chaos: Some(Arc::new(ChaosTransport::new(&plan, telemetry.clone()))),
            local_fallback: Some((1, Arc::new(local))),
        },
    )?);

    // Saboteur: once the fleet has served a handful of requests — long
    // enough for the transport faults to see real result frames — kill
    // every worker abruptly: total fleet loss mid-run. When the plan
    // schedules no kill, the thread just babysits the handles so they
    // outlive the run.
    let kill_fleet = plan.kills_workers();
    let saboteur = {
        let telemetry = telemetry.clone();
        std::thread::spawn(move || {
            if !kill_fleet {
                return workers;
            }
            while workers.iter().map(|w| w.requests_served()).sum::<u64>() < 4 {
                std::thread::sleep(Duration::from_millis(1));
            }
            for worker in workers {
                telemetry.add_counter(&FaultKind::KillWorker.counter(), 1);
                worker.kill();
            }
            Vec::new()
        })
    };

    let chaos_backend = Arc::new(ChaosBackend::new(
        Arc::clone(&coordinator) as Arc<dyn EvalBackend>,
        &plan,
        telemetry.clone(),
    ));
    let summary = GestRun::builder()
        .config(config)
        .eval_backend(chaos_backend)
        .telemetry(telemetry.clone())
        .write_fs(Arc::new(ChaosFs::new(&plan, telemetry.clone())))
        .build()?
        .run()?;

    let survivors = saboteur
        .join()
        .map_err(|_| GestError::Backend("chaos soak: saboteur thread panicked".into()))?;
    for worker in survivors {
        worker.kill();
    }

    // 3. Compare.
    let faulted = artifact_snapshot(dir)?;
    let mut mismatched: Vec<String> = reference
        .iter()
        .filter(|(name, bytes)| faulted.get(*name) != Some(bytes))
        .map(|(name, _)| name.clone())
        .collect();
    mismatched.extend(
        faulted
            .keys()
            .filter(|name| !reference.contains_key(*name))
            .cloned(),
    );
    mismatched.sort();
    mismatched.dedup();

    let fired: Vec<(&'static str, u64)> = FaultKind::ALL
        .iter()
        .map(|kind| {
            (
                kind.name(),
                counter_total(&telemetry, &sink, &kind.counter()),
            )
        })
        .filter(|(_, count)| *count > 0)
        .collect();

    if !options.keep_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    Ok(SoakReport {
        plan,
        fired,
        degraded: coordinator.is_degraded(),
        local_fallbacks: counter_total(&telemetry, &sink, "dist.local_fallback"),
        generations: summary.generations,
        mismatched,
        artifacts: reference.len(),
    })
}
