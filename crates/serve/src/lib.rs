#![warn(missing_docs)]

//! `gest-serve`: the multi-tenant GeST search service.
//!
//! Turns the CLI-only runner into a long-lived HTTP service: clients
//! `POST` a configuration XML to `/runs`, get a run id back, watch
//! progress as an SSE stream of the run's telemetry JSONL, and fetch
//! artifacts (population / checkpoint / report) when done. One
//! single-threaded scheduler multiplexes every run over the
//! [`gest_core::GestRun::step`] state machine — one generation per
//! slice, weighted by per-run priority, with checkpoint-backed eviction
//! and rehydration once more runs are live than `max_active` allows.
//!
//! The determinism discipline of the rest of the framework holds here
//! too: a run executed through the scheduler produces population,
//! checkpoint, and config artifacts byte-identical to the same-seed
//! `gest run`, including across evictions and full server restarts —
//! each run's search state is self-contained, the shared eval cache is
//! content-addressed (a hit is bit-identical to a fresh evaluation), and
//! resume is the bit-exact PR 2 path.
//!
//! # REST API
//!
//! | Route | Method | Effect |
//! |---|---|---|
//! | `/runs` | POST | submit config XML (`?seed=N&priority=P&max_generations=N&deadline_s=S`) → run id |
//! | `/runs` | GET | list every run's status document |
//! | `/runs/{id}` | GET | state, generation, best fitness, restarts, health |
//! | `/runs/{id}/events` | GET | SSE stream tailing the run's trace |
//! | `/runs/{id}/artifacts/population` | GET | latest population file |
//! | `/runs/{id}/artifacts/checkpoint` | GET | checkpoint manifest |
//! | `/runs/{id}/artifacts/report` | GET | per-generation text report |
//! | `/runs/{id}` | DELETE | cancel |
//! | `/status` | GET | service health: uptime, scheduler counters, every run |
//!
//! Submissions pass admission control first: a queue-depth cap
//! (`max_pending`) and a free-disk floor (`min_free_bytes`) each turn
//! `POST /runs` into `503 Service Unavailable` with a `Retry-After`
//! header while resident runs keep stepping. Runs that step into
//! trouble are supervised rather than trusted: a panic escaping
//! `step()` quarantines the run (terminal `quarantined`, payload in the
//! status document), transient faults restart it from its last
//! checkpoint under a bounded budget, and per-run quotas
//! (`?max_generations=`, `?deadline_s=`) expire it at a slice boundary
//! with its checkpoint left behind for `gest resume`.

pub mod api;
pub mod registry;
pub mod scheduler;

pub use registry::{RunEntry, RunQuota, RunState};

use gest_core::{EvalBackend, GestConfig, GestError, RealFs, RunIdAllocator, WriteFs};
use gest_telemetry::Telemetry;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Builds an evaluation backend for one run from its canonical
/// configuration XML — the seam through which the CLI plugs the
/// `gest-dist` coordinator in without this crate depending on it.
pub type BackendFactory =
    Arc<dyn Fn(&str) -> Result<Arc<dyn EvalBackend>, GestError> + Send + Sync>;

/// Service configuration.
#[derive(Clone)]
pub struct ServeOptions {
    /// Where service state lives: the run index, plus the directories of
    /// runs whose configuration names no `<output dir=...>`.
    pub state_dir: PathBuf,
    /// How many runs may be resident (holding live search state in
    /// memory) at once; the rest wait as checkpoints on disk. ≥ 1.
    pub max_active: usize,
    /// Seed for the run-id allocator — restarts of the same service
    /// continue the same id sequence.
    pub id_seed: u64,
    /// When set, each activated run asks this factory for its evaluation
    /// backend; at most one resident run holds a factory backend at a
    /// time (a `gest worker` serves one coordinator session at a time),
    /// the rest evaluate locally. Backend choice never changes
    /// artifacts, so the mix is invisible in the results.
    pub backend_factory: Option<BackendFactory>,
    /// Admission cap on non-terminal runs: once this many runs are
    /// pending or running, `POST /runs` answers `503` with `Retry-After`
    /// until one finishes. `None` = unbounded.
    pub max_pending: Option<usize>,
    /// Free-space preflight on the state directory's filesystem: when
    /// fewer bytes than this are available, submissions are rejected
    /// with `503` (resident runs keep stepping). `0` disables the
    /// preflight; it is also skipped where the probe is unavailable.
    pub min_free_bytes: u64,
    /// How many times a run may be restarted from its last checkpoint
    /// after a *transient* step fault (I/O, backend, measurement) before
    /// it is marked `Failed`. Permanent faults never retry.
    pub restart_budget: u32,
    /// The write seam for registry manifests, the run index, and every
    /// managed run's checkpoint artifacts. Production: [`RealFs`];
    /// chaos harnesses substitute a fault-injecting shim.
    pub write_fs: Arc<dyn WriteFs>,
    /// Telemetry handle for the scheduler's counters
    /// (`serve.activations`, `serve.restarts`, …), surfaced by
    /// `GET /status` and `gest top`.
    pub telemetry: Telemetry,
}

impl std::fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeOptions")
            .field("state_dir", &self.state_dir)
            .field("max_active", &self.max_active)
            .field("id_seed", &self.id_seed)
            .field("max_pending", &self.max_pending)
            .field("min_free_bytes", &self.min_free_bytes)
            .field("restart_budget", &self.restart_budget)
            .finish()
    }
}

impl ServeOptions {
    /// Default free-space floor for the submission preflight: 16 MiB.
    pub const DEFAULT_MIN_FREE_BYTES: u64 = 16 << 20;

    /// Default per-run transient-fault restart budget.
    pub const DEFAULT_RESTART_BUDGET: u32 = 2;

    /// Options with the given state directory and the defaults:
    /// `max_active = 4`, local evaluation, id seed 0, unbounded
    /// admissions over a 16 MiB free-space floor, restart budget 2.
    pub fn new(state_dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            state_dir: state_dir.into(),
            max_active: 4,
            id_seed: 0,
            backend_factory: None,
            max_pending: None,
            min_free_bytes: Self::DEFAULT_MIN_FREE_BYTES,
            restart_budget: Self::DEFAULT_RESTART_BUDGET,
            write_fs: Arc::new(RealFs),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// State shared between the HTTP handlers and the scheduler thread.
pub(crate) struct Shared {
    pub(crate) options: ServeOptions,
    pub(crate) runs: Mutex<Vec<RunEntry>>,
    /// Signalled on submission/cancellation so an idle scheduler wakes
    /// immediately.
    pub(crate) wake: Condvar,
    /// Graceful-shutdown flag: the scheduler checkpoints every resident
    /// run and exits its loop.
    pub(crate) stop: AtomicBool,
    pub(crate) allocator: RunIdAllocator,
}

/// Why `POST /runs` was not answered `201`.
pub(crate) enum SubmitError {
    /// Admission control rejected the submission — the service is
    /// healthy but loaded (queue cap) or its disk is nearly full. Maps
    /// to `503` with a `Retry-After` header; resident runs keep
    /// stepping.
    Busy { reason: String, retry_after_s: u64 },
    /// The submission itself is unusable (e.g. its output directory
    /// already belongs to another run). Maps to `409`.
    Invalid(GestError),
}

/// `Retry-After` hint attached to admission-control rejections.
pub(crate) const RETRY_AFTER_S: u64 = 5;

impl Shared {
    pub(crate) fn lock_runs(&self) -> MutexGuard<'_, Vec<RunEntry>> {
        // A panic while holding the lock leaves the registry in its last
        // consistent snapshot; serving it beats poisoning the service.
        self.runs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn telemetry(&self) -> &Telemetry {
        &self.options.telemetry
    }

    /// Runs the scheduler still owes work: pending or running.
    pub(crate) fn queue_depth(&self) -> usize {
        self.lock_runs()
            .iter()
            .filter(|run| !run.state.is_terminal())
            .count()
    }

    /// The admission preflight: queue-depth cap, then free-disk floor.
    /// `Some(reason)` means shed this submission with `503`.
    fn admission_rejection(&self) -> Option<String> {
        if let Some(cap) = self.options.max_pending {
            let depth = self.queue_depth();
            if depth >= cap {
                return Some(format!(
                    "queue full: {depth} run(s) pending or running (--max-pending={cap})"
                ));
            }
        }
        if self.options.min_free_bytes > 0 {
            if let Some(free) = free_disk_bytes(&self.options.state_dir) {
                if free < self.options.min_free_bytes {
                    return Some(format!(
                        "state directory filesystem low on space: {free} bytes free, \
                         {} required",
                        self.options.min_free_bytes
                    ));
                }
            }
        }
        None
    }

    /// Submits a parsed configuration: allocates id + directory, records
    /// the entry, persists manifest and index, and wakes the scheduler.
    pub(crate) fn submit(
        &self,
        config: GestConfig,
        priority: u32,
        quota: RunQuota,
    ) -> Result<RunEntry, SubmitError> {
        if let Some(reason) = self.admission_rejection() {
            self.options.telemetry.add_counter("serve.rejections", 1);
            return Err(SubmitError::Busy {
                reason,
                retry_after_s: RETRY_AFTER_S,
            });
        }
        match self.admit(config, priority, quota) {
            Ok(entry) => Ok(entry),
            // A submission-time persist failure is a disk problem, not a
            // bad request: shed it as `503` so the client retries once
            // the disk drains, same as the preflight rejections.
            Err(GestError::Io(error)) => {
                self.options.telemetry.add_counter("serve.rejections", 1);
                Err(SubmitError::Busy {
                    reason: format!("cannot persist the submission: {error}"),
                    retry_after_s: RETRY_AFTER_S,
                })
            }
            Err(error) => Err(SubmitError::Invalid(error)),
        }
    }

    fn admit(
        &self,
        mut config: GestConfig,
        priority: u32,
        quota: RunQuota,
    ) -> Result<RunEntry, GestError> {
        let (id, dir) = match &config.output_dir {
            Some(dir) => {
                let dir = dir.clone();
                std::fs::create_dir_all(&dir)?;
                (self.allocator.next_id(), dir)
            }
            None => {
                let (id, dir) = self.allocator.allocate_dir(&self.options.state_dir)?;
                config.output_dir = Some(dir.clone());
                (id, dir)
            }
        };
        let config_xml = config.to_xml().to_string();
        let mut entry = RunEntry::new(id, dir, config_xml, priority.max(1), config.generations);
        entry.quota = quota;
        let mut runs = self.lock_runs();
        // Terminal runs keep their claim too: resubmitting into a finished
        // run's directory would resume it under a duplicate id.
        if let Some(clash) = runs.iter().find(|run| run.dir == entry.dir) {
            return Err(GestError::Config(format!(
                "output directory {} already belongs to run {}",
                entry.dir.display(),
                clash.id
            )));
        }
        entry.persist_via(&*self.options.write_fs)?;
        runs.push(entry.clone());
        registry::save_index_via(&*self.options.write_fs, &self.options.state_dir, &runs)?;
        drop(runs);
        self.wake.notify_all();
        Ok(entry)
    }
}

/// Bytes available to unprivileged writers on `path`'s filesystem, via
/// `statvfs(2)` — declared directly (`std` links libc already), keeping
/// the crate dependency-free. `None` when the probe fails or the
/// platform has no `statvfs`.
#[cfg(target_os = "linux")]
fn free_disk_bytes(path: &Path) -> Option<u64> {
    use std::os::unix::ffi::OsStrExt;

    // glibc's LP64 struct statvfs layout; padded generously so a
    // differing libc layout can only over-allocate, never overflow.
    #[repr(C)]
    struct StatVfs {
        f_bsize: u64,
        f_frsize: u64,
        f_blocks: u64,
        f_bfree: u64,
        f_bavail: u64,
        _rest: [u64; 16],
    }
    extern "C" {
        fn statvfs(path: *const u8, buf: *mut StatVfs) -> i32;
    }
    let mut raw = path.as_os_str().as_bytes().to_vec();
    raw.push(0);
    let mut stat = StatVfs {
        f_bsize: 0,
        f_frsize: 0,
        f_blocks: 0,
        f_bfree: 0,
        f_bavail: 0,
        _rest: [0; 16],
    };
    let rc = unsafe { statvfs(raw.as_ptr(), &mut stat) };
    if rc != 0 {
        return None;
    }
    let frsize = if stat.f_frsize > 0 {
        stat.f_frsize
    } else {
        stat.f_bsize
    };
    Some(stat.f_bavail.saturating_mul(frsize))
}

/// No free-space probe off Linux: the preflight is skipped.
#[cfg(not(target_os = "linux"))]
fn free_disk_bytes(_path: &Path) -> Option<u64> {
    None
}

/// The running service: HTTP accept loop plus the scheduler thread.
///
/// Shutdown ([`ServeServer::shutdown`], also run by `Drop`) is graceful:
/// every resident run is checkpointed and its manifest persisted before
/// the threads exit, so the next [`ServeServer::start`] over the same
/// state directory rehydrates and finishes the interrupted runs.
pub struct ServeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    scheduler_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ServeServer {
    /// Binds `listen` (e.g. `127.0.0.1:0` for an ephemeral port),
    /// rehydrates any non-terminal runs recorded in the state directory,
    /// and starts the scheduler and accept threads.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener or creating the state directory;
    /// configuration errors for `max_active = 0`.
    pub fn start(
        listen: impl ToSocketAddrs,
        mut options: ServeOptions,
    ) -> Result<ServeServer, GestError> {
        if options.max_active == 0 {
            return Err(GestError::Config("--max-active must be at least 1".into()));
        }
        // Scheduler counters live in the telemetry metrics registry; a
        // disabled handle would silently drop them, so upgrade it to an
        // enabled handle over a no-op sink (registry only, no stream).
        if !options.telemetry.is_enabled() {
            options.telemetry = Telemetry::new(Arc::new(gest_telemetry::NoopSink));
        }
        std::fs::create_dir_all(&options.state_dir)?;
        let runs = rehydrate(&options)?;
        let allocator = RunIdAllocator::seeded(options.id_seed);
        // Every registered run consumed one id from this sequence; skip
        // past them so a restarted service never reissues an id.
        allocator.advance_past(runs.len() as u64);
        let shared = Arc::new(Shared {
            options,
            runs: Mutex::new(runs),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            allocator,
        });
        let listener = std::net::TcpListener::bind(listen).map_err(GestError::Io)?;
        let addr = listener.local_addr().map_err(GestError::Io)?;
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || {
                gest_obs::accept_until_stopped(&listener, &stop, move |stream| {
                    api::serve_connection(stream, &shared)
                })
            })
        };
        let scheduler_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler::scheduler_loop(&shared))
        };
        Ok(ServeServer {
            addr,
            shared,
            accept_stop,
            accept_thread: Some(accept_thread),
            scheduler_thread: Some(scheduler_thread),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether every non-terminal run has been driven to completion —
    /// what a test polls instead of sleeping.
    pub fn idle(&self) -> bool {
        self.shared
            .lock_runs()
            .iter()
            .all(|run| run.state.is_terminal())
    }

    /// Graceful shutdown: stops accepting, lets the scheduler checkpoint
    /// every resident run, and joins both threads. Idempotent.
    pub fn shutdown(&mut self) {
        self.accept_stop.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(thread) = self.accept_thread.take() {
            // A loop that cannot be woken is left detached rather than
            // joined forever.
            if gest_obs::wake_accept_loop(self.addr) {
                let _ = thread.join();
            }
        }
        if let Some(thread) = self.scheduler_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Rebuilds the registry from the state directory: terminal runs are
/// listed as-is; pending/running runs go back to `Pending` for the
/// scheduler, which resumes them from their checkpoints (or restarts
/// them from generation 0 when the kill predated the first checkpoint —
/// deterministic either way). Unreadable manifests are skipped with a
/// warning rather than wedging the whole service.
fn rehydrate(options: &ServeOptions) -> Result<Vec<RunEntry>, GestError> {
    let mut runs = Vec::new();
    for (id, dir) in registry::load_index(&options.state_dir)? {
        match RunEntry::load(&dir) {
            Ok(mut entry) => {
                if !entry.state.is_terminal() {
                    entry.state = RunState::Pending;
                }
                runs.push(entry);
            }
            Err(error) => {
                eprintln!(
                    "gest serve: skipping run {id} in {}: {error}",
                    dir.display()
                );
            }
        }
    }
    Ok(runs)
}

/// Set by the process signal handler; polled by `gest serve`'s main
/// loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Whether SIGTERM/SIGINT arrived since
/// [`install_signal_handlers`] ran.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Signal handler body: the only async-signal-safe thing it does is flip
/// the atomic.
extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM and SIGINT handlers that flip the flag behind
/// [`shutdown_requested`]. Dependency-free: `std` links libc already, so
/// `signal(2)` is declared directly. No-op on non-Unix targets.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_shutdown_signal as *const () as usize);
        signal(SIGTERM, on_shutdown_signal as *const () as usize);
    }
}

/// Installs SIGTERM and SIGINT handlers (no-op off Unix).
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// How long API handlers and the scheduler wait when polling.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(50);
