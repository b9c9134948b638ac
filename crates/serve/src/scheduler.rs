//! The single-threaded run scheduler and its supervision layer.
//!
//! One thread owns every resident [`GestRun`] and multiplexes them over
//! the [`GestRun::step`] state machine: each scheduling slice advances
//! one run by `priority` generations, slices rotate round-robin over the
//! runnable runs, and once more runs are live than `max_active` allows,
//! the least-recently-stepped resident is evicted — checkpointed to its
//! directory and dropped — then rehydrated through the bit-exact resume
//! path when its next slice comes up.
//!
//! Supervision: the scheduler is only as robust as its least lucky
//! tenant, so every step is contained and classified.
//!
//! * A **panic** escaping `step()` is caught with `catch_unwind`; the
//!   poisoned live state is discarded and the run lands in the terminal
//!   [`RunState::Quarantined`] state with the panic payload in its
//!   status document. The scheduler thread — and every other run —
//!   keeps going.
//! * A **transient** step error ([`GestError::is_transient`]: I/O,
//!   backend, measurement faults) consumes one unit of the run's
//!   bounded restart budget: the live state is dropped, a deterministic
//!   exponential backoff delays the retry, and the run rehydrates from
//!   its last checkpoint through the bit-exact resume path. Only an
//!   exhausted budget (or a permanent config/logic fault) marks the run
//!   [`RunState::Failed`].
//! * **Quotas** (`?max_generations=N`, `?deadline_s=S`) are enforced at
//!   slice boundaries: the run is checkpointed and parked in the
//!   terminal [`RunState::Expired`] state, resumable by hand later.
//!
//! The fleet lease is a flag on the resident run that holds it, so every
//! way out of residency (cancel, expiry, step error, budget, quarantine,
//! eviction) releases it.
//!
//! Determinism: a run's search state never leaves its own `GestRun` (and
//! its own directory while evicted), so interleaving cannot couple runs.
//! A run's eval cache is the one its first activation in this process
//! built (loaded from the `evalcache.bin` sidecar on a resume), handed
//! back at every later activation, so a run resumes warm after a restart
//! or an eviction; the cache is content-addressed, so a hit is
//! bit-identical to a fresh evaluation. A run's cache is dropped once
//! the run reaches a terminal state.

use crate::registry::{RunEntry, RunState};
use crate::{Shared, POLL_INTERVAL};
use gest_core::{EvalCache, GestConfig, GestError, GestRun, StepOutcome, CHECKPOINT_FILE};
use gest_telemetry::{JsonlSink, Sink, Telemetry};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Trace file every serve-managed run writes (the SSE source).
pub const TRACE_FILE: &str = "run_trace.jsonl";

/// Prefix of the staleness note recorded when a manifest persist fails;
/// cleared automatically by the next successful persist.
pub(crate) const PERSIST_STALE: &str = "manifest persist failed";

/// First restart delay after a transient fault; doubles per attempt.
const RESTART_BACKOFF_BASE_MS: u64 = 100;

/// Ceiling on the restart backoff.
const RESTART_BACKOFF_MAX_MS: u64 = 5_000;

/// Deterministic restart delay: `base << (attempt - 1)`, capped — the
/// same shape as `gest_core::FaultPolicy::backoff`, so a failing run's
/// schedule is a pure function of its attempt count.
fn restart_backoff(attempt: u32) -> Duration {
    let shift = attempt.saturating_sub(1).min(16);
    Duration::from_millis((RESTART_BACKOFF_BASE_MS << shift).min(RESTART_BACKOFF_MAX_MS))
}

/// A run currently holding live search state in memory.
struct ResidentRun {
    id: String,
    run: GestRun,
    /// The run's JSONL trace sink, flushed after every step so the SSE
    /// tail sees events promptly.
    sink: Arc<JsonlSink>,
    /// Whether the run holds the factory (fleet) backend. A worker serves
    /// one coordinator session at a time, so the fleet is a lease held by
    /// at most one resident, and it leaves residency with that run.
    leased: bool,
}

/// Takes `id` out of residency, keeping the others in order.
fn take_resident(resident: &mut Vec<ResidentRun>, id: &str) -> Option<ResidentRun> {
    let index = resident.iter().position(|r| r.id == id)?;
    Some(resident.remove(index))
}

/// How a scheduling slice ended.
enum SliceEnd {
    /// The slice ran out, or a cancel or shutdown cut it short.
    Paused,
    /// The generation budget is spent.
    Budget,
    /// `step()` panicked; the rendered payload.
    Panicked(String),
    /// `step()` returned an error.
    Failed(GestError),
}

/// Mutates one registry entry under the lock, then persists its manifest
/// when `persist` is set. A persist failure is *recorded*, not just
/// logged: the entry's `error` field carries a staleness note (cleared
/// by the next successful persist) and `serve.persist_failures` counts
/// it, so clients can see their status document may be behind.
fn with_entry(shared: &Shared, id: &str, persist: bool, mutate: impl FnOnce(&mut RunEntry)) {
    let mut runs = shared.lock_runs();
    let Some(entry) = runs.iter_mut().find(|run| run.id == id) else {
        return;
    };
    mutate(entry);
    if persist {
        if entry
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with(PERSIST_STALE))
        {
            entry.error = None;
        }
        if let Err(error) = entry.persist_via(&*shared.options.write_fs) {
            shared.telemetry().add_counter("serve.persist_failures", 1);
            entry.error = Some(format!(
                "{PERSIST_STALE}: {error} (status doc may be stale)"
            ));
            eprintln!("gest serve: cannot persist manifest for {id}: {error}");
        }
    }
}

/// Renders a `catch_unwind` payload for the status document.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Why a slice-boundary quota check parked the run, if it did.
fn quota_expiry(entry: &RunEntry) -> Option<String> {
    if let Some(cap) = entry.quota.max_generations {
        if entry.generation >= cap {
            return Some(format!(
                "generation quota reached: {} of max_generations={cap}",
                entry.generation
            ));
        }
    }
    if let Some(deadline) = entry.quota.deadline {
        if entry.submitted.elapsed() >= deadline {
            return Some(format!(
                "deadline_s={} elapsed at generation {}",
                deadline.as_secs_f64(),
                entry.generation
            ));
        }
    }
    None
}

/// The scheduler thread body; returns when [`Shared::stop`] is set,
/// after checkpointing every resident run.
pub(crate) fn scheduler_loop(shared: &Arc<Shared>) {
    // Least recently stepped first.
    let mut resident: Vec<ResidentRun> = Vec::new();
    // Each non-terminal run's eval cache, by run id: the cache the run's
    // first activation built, handed back at every later one. Every run
    // has its own output directory, which its fingerprint covers, so no
    // two runs could share a cache anyway.
    let mut caches: HashMap<String, Arc<EvalCache>> = HashMap::new();
    // Runs waiting out their restart backoff: not runnable until the
    // deadline passes.
    let mut backoff: HashMap<String, Instant> = HashMap::new();
    let mut cursor: usize = 0;

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            park_residents(shared, resident);
            return;
        }
        {
            let runs = shared.lock_runs();
            caches.retain(|id, _| {
                runs.iter()
                    .any(|run| run.id == *id && !run.state.is_terminal())
            });
        }
        let telemetry = shared.telemetry();
        telemetry.set_gauge("serve.resident", resident.len() as f64);
        telemetry.set_gauge("serve.queue_depth", shared.queue_depth() as f64);
        telemetry.set_gauge("serve.eval_caches", caches.len() as f64);

        // Finalize cancellations first: a cancelled run must stop
        // consuming slices immediately.
        let cancelled: Vec<String> = shared
            .lock_runs()
            .iter()
            .filter(|run| run.cancel_requested && !run.state.is_terminal())
            .map(|run| run.id.clone())
            .collect();
        for id in cancelled {
            if let Some(managed) = take_resident(&mut resident, &id) {
                wind_down(managed, Some("cancel"));
            }
            backoff.remove(&id);
            with_entry(shared, &id, true, |entry| entry.state = RunState::Cancelled);
        }

        // Pick the next runnable run, round-robin. Runs waiting out a
        // restart backoff are skipped until their deadline passes.
        let now = Instant::now();
        backoff.retain(|_, until| *until > now);
        let next = {
            let runs = shared.lock_runs();
            let runnable: Vec<(String, u32)> = runs
                .iter()
                .filter(|run| {
                    !run.state.is_terminal()
                        && !run.cancel_requested
                        && !backoff.contains_key(&run.id)
                })
                .map(|run| (run.id.clone(), run.priority))
                .collect();
            if runnable.is_empty() {
                // Idle (or everything is backing off): wait for a
                // submission/cancel/stop, bounded so the stop flag and
                // backoff deadlines are polled even without a wakeup.
                let _ = shared.wake.wait_timeout(runs, POLL_INTERVAL);
                continue;
            }
            let pick = runnable[cursor % runnable.len()].clone();
            cursor = cursor.wrapping_add(1);
            pick
        };
        let (id, priority) = next;

        // Slice-boundary quota check — before the run spends anything
        // further. An expired resident is checkpointed so the terminal
        // state always leaves a resumable anchor behind.
        let entry_snapshot = shared.lock_runs().iter().find(|r| r.id == id).cloned();
        let Some(entry_snapshot) = entry_snapshot else {
            continue;
        };
        if let Some(reason) = quota_expiry(&entry_snapshot) {
            if let Some(managed) = take_resident(&mut resident, &id) {
                wind_down(managed, Some("expiry"));
            }
            telemetry.add_counter("serve.expirations", 1);
            eprintln!("gest serve: run {id} expired: {reason}");
            with_entry(shared, &id, true, |entry| {
                entry.state = RunState::Expired;
                entry.error = Some(format!("expired: {reason}"));
            });
            continue;
        }

        // Move the run to the back, the most recently stepped end: take
        // it out, or activate it, evicting from the front while the
        // budget is full. The front run's last background artifact write,
        // which the eviction checkpoint waits for, has had the longest to
        // land; evicting from the back evicts less often, yet measured
        // slower for that wait.
        let managed = match take_resident(&mut resident, &id) {
            Some(managed) => managed,
            None => {
                while resident.len() >= shared.options.max_active {
                    evict(shared, resident.remove(0));
                }
                let fleet_free = !resident.iter().any(|r| r.leased);
                match activate(shared, &id, &mut caches, fleet_free) {
                    Ok(managed) => {
                        telemetry.add_counter("serve.activations", 1);
                        with_entry(shared, &id, true, |entry| entry.state = RunState::Running);
                        managed
                    }
                    Err(error) => {
                        eprintln!("gest serve: cannot activate run {id}: {error}");
                        with_entry(shared, &id, true, |entry| {
                            entry.state = RunState::Failed;
                            entry.error = Some(error.to_string());
                        });
                        continue;
                    }
                }
            }
        };
        resident.push(managed);
        let managed = resident.last_mut().expect("just pushed");

        // The slice: `priority` generations, trimmed so a generation
        // quota is hit exactly at a slice boundary.
        let mut steps = u64::from(priority.max(1));
        if let Some(cap) = entry_snapshot.quota.max_generations {
            steps = steps.min(u64::from(cap.saturating_sub(entry_snapshot.generation)));
        }
        match run_slice(shared, managed, steps) {
            SliceEnd::Paused => {}
            SliceEnd::Budget => {
                wind_down(take_resident(&mut resident, &id).expect("resident"), None);
                with_entry(shared, &id, true, |entry| {
                    entry.state = RunState::Done;
                    // A completed run has no live failure: drop any
                    // stale restart/persist note.
                    entry.error = None;
                });
            }
            SliceEnd::Panicked(message) => {
                eprintln!("gest serve: run {id} panicked in step(): {message}");
                telemetry.add_counter("serve.quarantines", 1);
                let managed = take_resident(&mut resident, &id).expect("resident");
                // No `finish()`: the run died mid-step and its state is
                // poisoned; even the teardown is contained.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(move || {
                    managed.sink.flush();
                    drop(managed);
                }));
                with_entry(shared, &id, true, |entry| {
                    entry.state = RunState::Quarantined;
                    entry.error = Some(format!("step panicked: {message}"));
                });
            }
            SliceEnd::Failed(error) => {
                wind_down(take_resident(&mut resident, &id).expect("resident"), None);
                let budget = shared.options.restart_budget;
                let restarts = entry_snapshot.restarts;
                if error.is_transient() && restarts < budget {
                    // Transient fault: drop the live state and retry from
                    // the last checkpoint (bit-exact resume) after a
                    // deterministic backoff.
                    let attempt = restarts + 1;
                    let delay = restart_backoff(attempt);
                    eprintln!(
                        "gest serve: run {id} hit a transient fault ({error}); \
                         restart {attempt}/{budget} from its last checkpoint \
                         in {delay:?}"
                    );
                    telemetry.add_counter("serve.restarts", 1);
                    backoff.insert(id.clone(), Instant::now() + delay);
                    with_entry(shared, &id, true, |entry| {
                        entry.restarts = attempt;
                        entry.state = RunState::Pending;
                        entry.error = Some(format!(
                            "transient fault (restart {attempt}/{budget} scheduled): {error}"
                        ));
                    });
                } else {
                    let why = if error.is_transient() {
                        format!("restart budget ({budget}) exhausted: {error}")
                    } else {
                        error.to_string()
                    };
                    eprintln!("gest serve: run {id} failed: {why}");
                    with_entry(shared, &id, true, |entry| {
                        entry.state = RunState::Failed;
                        entry.error = Some(why.clone());
                    });
                }
            }
        }
    }
}

/// One scheduling slice: up to `steps` generations of `managed`, each
/// contained against panics, ending early on budget exhaustion, error,
/// panic, cancel, or shutdown.
fn run_slice(shared: &Shared, managed: &mut ResidentRun, steps: u64) -> SliceEnd {
    for _ in 0..steps {
        let cancelled = shared
            .lock_runs()
            .iter()
            .any(|run| run.id == managed.id && run.cancel_requested);
        if shared.stop.load(Ordering::SeqCst) || cancelled {
            break;
        }
        // Panic containment: `GestRun` is not `UnwindSafe` on paper
        // (interior mutexes), but every lock in the stack recovers from
        // poisoning and the run is discarded on panic, so the assertion
        // is sound — nothing observes the broken state.
        let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| managed.run.step())) {
            Err(payload) => return SliceEnd::Panicked(panic_message(payload.as_ref())),
            Ok(Err(error)) => return SliceEnd::Failed(error),
            Ok(Ok(outcome)) => outcome,
        };
        managed.sink.flush();
        let generation = managed.run.generation();
        let best = managed.run.best().map(|best| best.fitness);
        with_entry(shared, &managed.id, false, |entry| {
            entry.generation = generation;
            entry.best_fitness = best;
            entry.converged = outcome == StepOutcome::Converged;
        });
        if outcome.is_terminal() {
            return SliceEnd::Budget;
        }
    }
    SliceEnd::Paused
}

/// Closes a run leaving residency other than by eviction or shutdown:
/// a best-effort checkpoint when `checkpoint` names the exit, then
/// `finish` and a last trace flush.
fn wind_down(mut managed: ResidentRun, checkpoint: Option<&str>) {
    if let Some(exit) = checkpoint {
        checkpoint_best_effort(&managed, exit);
    }
    managed.run.finish();
    managed.sink.flush();
}

/// Checkpoints a run on its way out of residency so the work done so far
/// stays resumable; a failure is only reported.
fn checkpoint_best_effort(managed: &ResidentRun, exit: &str) {
    if managed.run.generation() >= 1 {
        if let Err(error) = managed.run.checkpoint_now() {
            eprintln!(
                "gest serve: {exit} checkpoint for {} failed: {error}",
                managed.id
            );
        }
    }
}

/// Graceful shutdown: checkpoint every resident run (so a restarted
/// server resumes bit-exactly) and persist its manifest as still
/// running.
fn park_residents(shared: &Shared, resident: Vec<ResidentRun>) {
    for managed in resident {
        let id = managed.id.clone();
        // A failure leaves the run to restart from its last durable one.
        checkpoint_best_effort(&managed, "shutdown");
        managed.sink.flush();
        // No `finish()`: shutdown pauses the run, the restarted server
        // appends to the same trace.
        drop(managed);
        with_entry(shared, &id, true, |entry| entry.state = RunState::Running);
    }
}

/// Eviction: checkpoint to the run directory, persist the manifest, drop
/// the live state. The run rehydrates through [`GestRun::resume`]'s
/// bit-exact path at its next slice. The checkpoint is retried once
/// (the PR 5 retry-once discipline — `checkpoint_now` already retries
/// the manifest write internally, so this covers a *persistently*
/// failing first round) before the run is failed.
fn evict(shared: &Shared, managed: ResidentRun) {
    let id = managed.id.clone();
    let checkpointed = managed.run.checkpoint_now().or_else(|first| {
        eprintln!("gest serve: eviction checkpoint for {id} failed ({first}); retrying once");
        shared
            .telemetry()
            .add_counter("serve.evict_checkpoint_retries", 1);
        managed.run.checkpoint_now()
    });
    if let Err(error) = checkpointed {
        // A run that cannot persist its resume point cannot be evicted
        // safely; failing it loudly beats silently restarting it later.
        eprintln!("gest serve: eviction checkpoint for {id} failed twice: {error}");
        with_entry(shared, &id, true, |entry| {
            entry.state = RunState::Failed;
            entry.error = Some(format!("eviction checkpoint failed twice: {error}"));
        });
        return;
    }
    shared.telemetry().add_counter("serve.evictions", 1);
    managed.sink.flush();
    with_entry(shared, &id, true, |entry| entry.converged = false);
}

/// Builds the live [`GestRun`] for an entry: the bit-exact resume path
/// when the directory holds a checkpoint, a fresh build from the stored
/// canonical XML otherwise (a kill before the first checkpoint restarts
/// from generation 0 and deterministically rewrites the same artifacts).
/// The run gets the eval cache `caches` holds for it; without one it
/// builds its own (empty, or from the sidecar on resume) for `caches` to
/// keep. It asks for the fleet when `fleet_free`.
fn activate(
    shared: &Shared,
    id: &str,
    caches: &mut HashMap<String, Arc<EvalCache>>,
    fleet_free: bool,
) -> Result<ResidentRun, GestError> {
    let entry = shared
        .lock_runs()
        .iter()
        .find(|run| run.id == id)
        .cloned()
        .ok_or_else(|| GestError::Config(format!("run {id} vanished from the registry")))?;
    std::fs::create_dir_all(&entry.dir)?;
    let resume = entry.dir.join(CHECKPOINT_FILE).exists();
    let mut builder = GestRun::builder().write_fs(Arc::clone(&shared.options.write_fs));
    builder = if resume {
        builder.resume_from(&entry.dir)
    } else {
        builder.config(GestConfig::from_xml_str(&entry.config_xml)?)
    };
    if let Some(cache) = caches.get(id) {
        builder = builder.eval_cache_handle(Arc::clone(cache));
    }
    let trace = entry.dir.join(TRACE_FILE);
    let sink = Arc::new(if resume {
        JsonlSink::append(&trace)?
    } else {
        JsonlSink::create(&trace)?
    });
    builder = builder.telemetry(Telemetry::new(Arc::clone(&sink) as Arc<dyn Sink>));
    let mut leased = false;
    if let (Some(factory), true) = (&shared.options.backend_factory, fleet_free) {
        match factory(&entry.config_xml) {
            Ok(backend) => {
                builder = builder.eval_backend(backend);
                leased = true;
            }
            Err(error) => eprintln!(
                "gest serve: fleet backend for {id} unavailable ({error}); evaluating locally"
            ),
        }
    }
    let run = builder.build()?;
    if let Some(cache) = run.eval_cache() {
        caches.insert(id.to_string(), Arc::clone(cache));
    }
    Ok(ResidentRun {
        id: id.to_string(),
        run,
        sink,
        leased,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_backoff_is_deterministic_exponential_and_capped() {
        assert_eq!(restart_backoff(1), Duration::from_millis(100));
        assert_eq!(restart_backoff(2), Duration::from_millis(200));
        assert_eq!(restart_backoff(3), Duration::from_millis(400));
        assert_eq!(restart_backoff(10), Duration::from_millis(5_000));
        assert_eq!(restart_backoff(64), Duration::from_millis(5_000));
    }

    #[test]
    fn quota_expiry_reads_generations_and_deadline() {
        let mut entry = RunEntry::new("r".into(), "/tmp/r".into(), "<gest/>".into(), 1, 10);
        assert_eq!(quota_expiry(&entry), None);
        entry.quota.max_generations = Some(4);
        entry.generation = 3;
        assert_eq!(quota_expiry(&entry), None);
        entry.generation = 4;
        assert!(quota_expiry(&entry).unwrap().contains("generation quota"));
        entry.quota.max_generations = None;
        entry.quota.deadline = Some(Duration::from_secs(0));
        assert!(quota_expiry(&entry).unwrap().contains("deadline_s"));
    }

    #[test]
    fn with_entry_records_persist_failures_and_clears_them_on_recovery() {
        use crate::ServeOptions;
        use gest_core::{RunIdAllocator, WriteFs};
        use gest_telemetry::NoopSink;
        use std::path::Path;
        use std::sync::atomic::AtomicBool;
        use std::sync::{Condvar, Mutex};

        /// Fails every write while `broken` holds.
        #[derive(Debug)]
        struct FlakyFs(AtomicBool);
        impl WriteFs for FlakyFs {
            fn write_atomic(&self, _path: &Path, _bytes: &[u8]) -> std::io::Result<()> {
                if self.0.load(Ordering::SeqCst) {
                    Err(std::io::Error::new(
                        std::io::ErrorKind::StorageFull,
                        "disk full",
                    ))
                } else {
                    Ok(())
                }
            }
        }

        let fs = Arc::new(FlakyFs(AtomicBool::new(true)));
        let dir = std::env::temp_dir().join(format!("gest_with_entry_{}", std::process::id()));
        let mut options = ServeOptions::new(&dir);
        options.write_fs = Arc::clone(&fs) as Arc<dyn WriteFs>;
        options.telemetry = Telemetry::new(Arc::new(NoopSink));
        let telemetry = options.telemetry.clone();
        let shared = Shared {
            options,
            runs: Mutex::new(vec![RunEntry::new(
                "r1".into(),
                dir.clone(),
                "<gest/>".into(),
                1,
                6,
            )]),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            allocator: RunIdAllocator::seeded(0),
        };

        // A failing persist still applies the mutation, but records the
        // failure in the entry's error and the counter — the status doc
        // says both what the run is doing and that the doc may be stale.
        with_entry(&shared, "r1", true, |entry| entry.generation = 3);
        assert_eq!(telemetry.counter_value("serve.persist_failures"), 1);
        let entry = shared.lock_runs()[0].clone();
        assert_eq!(entry.generation, 3);
        let error = entry.error.expect("persist failure recorded");
        assert!(error.starts_with(PERSIST_STALE), "{error}");
        assert!(error.contains("disk full"), "{error}");

        // Once the disk drains, the next successful persist clears the
        // stale marker (and only that marker).
        fs.0.store(false, Ordering::SeqCst);
        with_entry(&shared, "r1", true, |entry| entry.generation = 4);
        let entry = shared.lock_runs()[0].clone();
        assert_eq!(entry.generation, 4);
        assert_eq!(entry.error, None);
        assert_eq!(telemetry.counter_value("serve.persist_failures"), 1);
    }

    #[test]
    fn finished_runs_release_their_eval_caches() {
        use crate::{RunQuota, ServeOptions, ServeServer};

        let dir = std::env::temp_dir().join(format!("gest_serve_caches_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = ServeServer::start("127.0.0.1:0", ServeOptions::new(&dir)).unwrap();
        for seed in [1, 2] {
            let config = GestConfig::builder("cortex-a7")
                .measurement("power")
                .population_size(4)
                .individual_size(6)
                .generations(2)
                .seed(seed)
                .build()
                .unwrap();
            assert!(server.shared.submit(config, 1, RunQuota::default()).is_ok());
        }
        let telemetry = server.shared.telemetry().clone();
        let started = Instant::now();
        while !(server.idle() && telemetry.gauge_value("serve.eval_caches") == Some(0.0)) {
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "caches held after every run finished: {:?}",
                telemetry.gauge_value("serve.eval_caches")
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(telemetry.counter_value("serve.activations"), 2);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_payloads_render_for_str_string_and_other() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(payload.as_ref()), "boom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("kaboom"));
        assert_eq!(panic_message(payload.as_ref()), "kaboom");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
