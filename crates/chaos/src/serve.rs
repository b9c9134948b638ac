//! The serve chaos soak: a live `gest-serve` service under a seeded
//! serve-seam fault plan, asserted over its own HTTP API.
//!
//! Where the classic [`crate::soak`] hammers one blocking run, this soak
//! hammers the *service*: several runs are submitted over `POST /runs`
//! to a server whose write path is a [`ChaosFs`] and whose evaluation
//! backend stack injects measurement faults plus one panic that escapes
//! `GestRun::step()` on the scheduler thread. The claims, matching the
//! supervision layer's contract:
//!
//! * the server process never exits — every fault is contained, and the
//!   API answers throughout;
//! * every faulted run terminates in a documented state (`quarantined`,
//!   `failed`, or recovered via restart) with its error readable from
//!   `GET /runs/{id}`;
//! * every run that completes (`done`) has population / checkpoint /
//!   config artifacts **byte-identical** to the same-seed blocking
//!   `gest run` reference — fault recovery never changes results;
//! * a submission shed by an injected registry ENOSPC comes back as
//!   `503` and succeeds on retry (graceful degradation, not a crash).
//!
//! Run it from the CLI with `gest chaos --serve --seed=S`.

use crate::soak::{artifact_snapshot, soak_config};
use crate::{ChaosBackend, ChaosFs, FaultKind, FaultPlan};
use gest_core::{
    EvalBackend, EvalRequest, GestError, GestRun, LocalBackend, MeasuredBatch, Registry,
};
use gest_obs::http_request;
use gest_serve::{BackendFactory, ServeOptions, ServeServer};
use gest_sim::RunResult;
use gest_telemetry::json::Value;
use gest_telemetry::{NoopSink, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-request timeout for the soak's HTTP client.
const HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the soak waits for every submitted run to reach a terminal
/// state before declaring the service wedged.
const SOAK_DEADLINE: Duration = Duration::from_secs(180);

/// An [`EvalBackend`] decorator whose `slots()` hook panics exactly once
/// — [`FaultKind::StepPanic`]. `slots()` runs on the thread driving
/// `GestRun::step()` (unlike `measure`, which `catch_measure` shields on
/// worker threads), so the panic unwinds out of `step()` itself: the
/// exact fault the serve scheduler's `catch_unwind` containment exists
/// for.
#[derive(Debug)]
pub struct StepPanicBackend {
    inner: Arc<dyn EvalBackend>,
    telemetry: Telemetry,
    armed: AtomicBool,
}

impl StepPanicBackend {
    /// Wraps `inner`, arming the panic iff `plan` schedules
    /// [`FaultKind::StepPanic`].
    pub fn new(inner: Arc<dyn EvalBackend>, plan: &FaultPlan, telemetry: Telemetry) -> Self {
        StepPanicBackend {
            inner,
            telemetry,
            armed: AtomicBool::new(plan.faults().contains(&FaultKind::StepPanic)),
        }
    }

    /// Whether the panic has not fired yet.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

impl EvalBackend for StepPanicBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn slots(&self, pending: usize) -> usize {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.telemetry
                .add_counter(&FaultKind::StepPanic.counter(), 1);
            self.telemetry.point(
                "chaos.inject",
                &[("kind", FaultKind::StepPanic.name().into())],
            );
            panic!("chaos: injected panic escaping step()");
        }
        self.inner.slots(pending)
    }

    fn measure(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        self.inner.measure(slot, request)
    }

    fn lane_width(&self) -> usize {
        self.inner.lane_width()
    }

    fn measure_batch(&self, slot: usize, requests: &[EvalRequest<'_>]) -> MeasuredBatch {
        self.inner.measure_batch(slot, requests)
    }
}

/// Knobs for one serve soak.
#[derive(Debug, Clone)]
pub struct ServeSoakOptions {
    /// Seeds the fault plan; run `i` searches at seed `seed + i`.
    pub seed: u64,
    /// Number of scheduled faults; `>= 7` guarantees the plan covers
    /// the whole serve taxonomy ([`FaultKind::SERVE`]).
    pub faults: usize,
    /// Working directory (references, run directories, service state),
    /// removed first. Must not hold anything worth keeping.
    pub dir: PathBuf,
    /// How many runs to submit. The service's residency budget is held
    /// one below this (min 1), so eviction/rehydration is exercised too.
    pub runs: usize,
    /// Leave everything on disk for inspection.
    pub keep_dir: bool,
}

impl ServeSoakOptions {
    /// Defaults: three runs, the full serve taxonomy, directory removed
    /// afterwards.
    pub fn new(seed: u64, dir: impl Into<PathBuf>) -> ServeSoakOptions {
        ServeSoakOptions {
            seed,
            faults: FaultKind::SERVE.len(),
            dir: dir.into(),
            runs: 3,
            keep_dir: false,
        }
    }
}

/// One submitted run's fate, as observed over the API.
#[derive(Debug)]
pub struct ServeRunOutcome {
    /// The run id the service assigned.
    pub id: String,
    /// The search seed this run used.
    pub seed: u64,
    /// Terminal state string from `GET /runs/{id}` (`done`,
    /// `quarantined`, `failed`, …).
    pub state: String,
    /// The `restarts` field of the final status document.
    pub restarts: u64,
    /// The `error` field of the final status document, if any.
    pub error: Option<String>,
    /// For `done` runs: whether every artifact matched the same-seed
    /// blocking reference. `None` for runs that did not complete.
    pub byte_identical: Option<bool>,
    /// How many submission attempts this run needed (>1 means a `503`
    /// was served and retried).
    pub submit_attempts: u32,
}

/// What one serve soak observed.
#[derive(Debug)]
pub struct ServeSoakReport {
    /// The fault schedule that ran.
    pub plan: FaultPlan,
    /// Each fault kind that actually fired, with its telemetry count.
    pub fired: Vec<(&'static str, u64)>,
    /// Every submitted run's terminal state and verdict.
    pub runs: Vec<ServeRunOutcome>,
    /// Final value of the `serve.quarantines` counter.
    pub quarantines: u64,
    /// Final value of the `serve.restarts` counter.
    pub restarts: u64,
    /// Final value of the `serve.persist_failures` counter.
    pub persist_failures: u64,
    /// Final value of the `serve.rejections` counter (`503`s served).
    pub rejections: u64,
}

impl ServeSoakReport {
    /// Number of distinct fault kinds that fired.
    pub fn distinct_fired(&self) -> usize {
        self.fired.len()
    }

    /// Total fault injections across all kinds.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().map(|(_, count)| count).sum()
    }

    /// Whether every completed run matched its reference bit for bit.
    pub fn completed_runs_byte_identical(&self) -> bool {
        self.runs
            .iter()
            .all(|run| run.byte_identical != Some(false))
    }

    /// Whether every run landed in a documented terminal state and every
    /// non-`done` run carries an error readable over the API.
    pub fn faulted_runs_documented(&self) -> bool {
        self.runs.iter().all(|run| match run.state.as_str() {
            "done" => true,
            "quarantined" | "failed" | "expired" => {
                run.error.as_deref().is_some_and(|e| !e.is_empty())
            }
            _ => false,
        })
    }
}

impl fmt::Display for ServeSoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "serve chaos soak: plan {}", self.plan)?;
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
            "  service: quarantines {}  restarts {}  persist-failures {}  rejections {}",
            self.quarantines, self.restarts, self.persist_failures, self.rejections
        )?;
        for run in &self.runs {
            let verdict = match run.byte_identical {
                Some(true) => "byte-identical",
                Some(false) => "MISMATCHED",
                None => "no artifact claim",
            };
            writeln!(
                f,
                "  run {} (seed {}): {}  restarts {}  submits {}  {}{}",
                run.id,
                run.seed,
                run.state,
                run.restarts,
                run.submit_attempts,
                verdict,
                run.error
                    .as_deref()
                    .map(|e| format!("  error: {e}"))
                    .unwrap_or_default(),
            )?;
        }
        Ok(())
    }
}

/// One field of a status document, as a string.
fn doc_str(doc: &Value, key: &str) -> Option<String> {
    doc.get(key).and_then(Value::as_str).map(str::to_owned)
}

/// Runs the full serve soak; see the module docs for the claims.
///
/// # Errors
///
/// [`GestError`] for harness-level failures: the reference runs, the
/// server not starting, the API not answering (the "server survived"
/// claim failing), or runs never reaching a terminal state. A byte
/// mismatch or an undocumented terminal state is *not* an error — it is
/// reported via [`ServeSoakReport`] so callers can print the diff.
pub fn run_serve_soak(options: &ServeSoakOptions) -> Result<ServeSoakReport, GestError> {
    let dir = &options.dir;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(GestError::Io)?;
    let runs = options.runs.max(1);

    // 1. Blocking same-seed references, one per planned run, at the
    // exact directories the serve-managed runs will use (the path is
    // embedded in config.xml, which the checkpoint fingerprints).
    let mut references: Vec<BTreeMap<String, Vec<u8>>> = Vec::new();
    for i in 0..runs {
        let run_dir = dir.join(format!("run_{i}"));
        GestRun::builder()
            .config(soak_config(&run_dir, options.seed + i as u64)?)
            .build()?
            .run()?;
        references.push(artifact_snapshot(&run_dir)?);
        std::fs::remove_dir_all(&run_dir).map_err(GestError::Io)?;
    }

    // 2. The service under chaos. One telemetry handle feeds every shim
    // and the scheduler's counters; its registry is read directly at the
    // end (nothing here ever flushes it).
    let plan = FaultPlan::generate_from(options.seed, options.faults, &FaultKind::SERVE);
    let telemetry = Telemetry::new(Arc::new(NoopSink));
    let chaos_fs = Arc::new(ChaosFs::new(&plan, telemetry.clone()));

    // The evaluation stack every leased run shares: panic shim over
    // measurement-fault shim over one real local backend (the configs
    // differ only in seed and path, so one backend serves them all).
    let probe_config = soak_config(&dir.join("probe"), options.seed)?;
    let measurement = Registry::default().build_measurement(
        &probe_config.measurement_name,
        probe_config.machine.clone(),
        probe_config.run_config,
    )?;
    let local = Arc::new(LocalBackend::new(
        measurement,
        probe_config.template.clone(),
        probe_config.threads,
    ));
    let chaos_backend = Arc::new(ChaosBackend::new(local, &plan, telemetry.clone()).hang_ms(700));
    let stack = Arc::new(StepPanicBackend::new(
        chaos_backend,
        &plan,
        telemetry.clone(),
    ));
    let factory: BackendFactory = {
        let stack = Arc::clone(&stack);
        Arc::new(move |_config_xml| Ok(Arc::clone(&stack) as Arc<dyn EvalBackend>))
    };

    let mut serve_options = ServeOptions::new(dir.join("state"));
    // One fewer resident slot than runs, so eviction/rehydration runs
    // under fault pressure too.
    serve_options.max_active = (runs - 1).max(1);
    serve_options.backend_factory = Some(factory);
    serve_options.write_fs = Arc::clone(&chaos_fs) as Arc<dyn gest_core::WriteFs>;
    serve_options.telemetry = telemetry.clone();
    let mut server = ServeServer::start("127.0.0.1:0", serve_options)?;
    let addr = server.addr().to_string();

    // 3. Submit every run over the API. An injected registry ENOSPC can
    // shed a submission with 503 — retry it, which is the documented
    // client contract.
    let mut submitted: Vec<(String, u64, u32)> = Vec::new();
    for i in 0..runs {
        let run_dir = dir.join(format!("run_{i}"));
        let seed = options.seed + i as u64;
        let xml = soak_config(&run_dir, seed)?.to_xml().to_string();
        let mut attempts = 0u32;
        let id = loop {
            attempts += 1;
            let (status, body) = http_request(&addr, "POST", "/runs", xml.as_bytes(), HTTP_TIMEOUT)
                .map_err(|e| GestError::Backend(format!("serve soak: submit failed: {e}")))?;
            match status {
                201 => {
                    let doc = Value::parse(String::from_utf8_lossy(&body).trim()).map_err(|e| {
                        GestError::Backend(format!("serve soak: unparseable submit response: {e}"))
                    })?;
                    break doc_str(&doc, "id").ok_or_else(|| {
                        GestError::Backend("serve soak: submit response has no id".into())
                    })?;
                }
                503 if attempts < 10 => {
                    // Shed by admission control or an injected persist
                    // fault; the service is alive, come back shortly.
                    std::thread::sleep(Duration::from_millis(50));
                }
                other => {
                    return Err(GestError::Backend(format!(
                        "serve soak: submit of run {i} got HTTP {other}: {}",
                        String::from_utf8_lossy(&body)
                    )))
                }
            }
        };
        submitted.push((id, seed, attempts));
    }

    // 4. Poll the API until every run is terminal. Every poll doubles as
    // the liveness probe: if the server thread had unwound, the request
    // errors and the soak fails loudly.
    let deadline = Instant::now() + SOAK_DEADLINE;
    let mut final_docs: Vec<Value> = Vec::new();
    loop {
        final_docs.clear();
        let mut all_terminal = true;
        for (id, _, _) in &submitted {
            let (status, body) =
                http_request(&addr, "GET", &format!("/runs/{id}"), &[], HTTP_TIMEOUT).map_err(
                    |e| GestError::Backend(format!("serve soak: server stopped answering: {e}")),
                )?;
            if status != 200 {
                return Err(GestError::Backend(format!(
                    "serve soak: GET /runs/{id} answered HTTP {status}"
                )));
            }
            let doc = Value::parse(String::from_utf8_lossy(&body).trim()).map_err(|e| {
                GestError::Backend(format!("serve soak: unparseable status doc: {e}"))
            })?;
            let state = doc_str(&doc, "state").unwrap_or_default();
            all_terminal &= matches!(
                state.as_str(),
                "done" | "failed" | "cancelled" | "quarantined" | "expired"
            );
            final_docs.push(doc);
        }
        if all_terminal {
            break;
        }
        if Instant::now() > deadline {
            return Err(GestError::Backend(
                "serve soak: runs never reached a terminal state".into(),
            ));
        }
        std::thread::sleep(Duration::from_millis(25));
    }

    // The API must still answer after the dust settles — the "server
    // survived" claim, probed explicitly once more.
    let (status, _) = http_request(&addr, "GET", "/status", &[], HTTP_TIMEOUT)
        .map_err(|e| GestError::Backend(format!("serve soak: /status unreachable: {e}")))?;
    if status != 200 {
        return Err(GestError::Backend(format!(
            "serve soak: /status answered HTTP {status}"
        )));
    }
    server.shutdown();

    // 5. Verdicts: every `done` run byte-compared to its reference.
    let mut outcomes = Vec::new();
    for (i, ((id, seed, submit_attempts), doc)) in submitted.iter().zip(&final_docs).enumerate() {
        let state = doc_str(doc, "state").unwrap_or_default();
        let byte_identical = if state == "done" {
            let faulted = artifact_snapshot(&dir.join(format!("run_{i}")))?;
            Some(faulted == references[i])
        } else {
            None
        };
        outcomes.push(ServeRunOutcome {
            id: id.clone(),
            seed: *seed,
            state,
            restarts: doc.get("restarts").and_then(Value::as_u64).unwrap_or(0),
            error: doc_str(doc, "error"),
            byte_identical,
            submit_attempts: *submit_attempts,
        });
    }

    let fired: Vec<(&'static str, u64)> = FaultKind::ALL
        .iter()
        .map(|kind| (kind.name(), telemetry.counter_value(&kind.counter())))
        .filter(|(_, count)| *count > 0)
        .collect();

    let report = ServeSoakReport {
        plan,
        fired,
        runs: outcomes,
        quarantines: telemetry.counter_value("serve.quarantines"),
        restarts: telemetry.counter_value("serve.restarts"),
        persist_failures: telemetry.counter_value("serve.persist_failures"),
        rejections: telemetry.counter_value("serve.rejections"),
    };
    if !options.keep_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_panic_shim_fires_exactly_once_then_delegates() {
        let plan = FaultPlan::generate_from(0, FaultKind::SERVE.len(), &FaultKind::SERVE);
        assert!(plan.faults().contains(&FaultKind::StepPanic));
        let inner = Arc::new(LocalProbe);
        let telemetry = Telemetry::new(Arc::new(NoopSink));
        let shim = StepPanicBackend::new(inner, &plan, telemetry.clone());
        assert!(shim.armed());
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| shim.slots(4))).is_err();
        assert!(panicked, "the first slots() call must panic");
        assert!(!shim.armed());
        assert_eq!(shim.slots(4), 2, "later calls delegate");
        assert_eq!(telemetry.counter_value(&FaultKind::StepPanic.counter()), 1);
    }

    #[test]
    fn unarmed_shim_never_panics() {
        // A plan without StepPanic leaves the shim disarmed.
        let plan = FaultPlan::generate(0, 1);
        let shim = StepPanicBackend::new(Arc::new(LocalProbe), &plan, Telemetry::disabled());
        assert!(!shim.armed());
        assert_eq!(shim.slots(9), 2);
    }

    #[derive(Debug)]
    struct LocalProbe;

    impl EvalBackend for LocalProbe {
        fn name(&self) -> &str {
            "probe"
        }
        fn slots(&self, _pending: usize) -> usize {
            2
        }
        fn measure(
            &self,
            _slot: usize,
            _request: &EvalRequest<'_>,
        ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
            Ok((vec![1.0], None))
        }
    }
}
