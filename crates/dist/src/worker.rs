//! The worker side: a TCP server that measures candidates on request.
//!
//! A worker is the distributed analogue of one "identical board" from
//! paper §III.C: it receives the run's configuration once per session,
//! builds the measurement plug-in locally, and then measures whatever
//! candidates the coordinator ships — each wrapped in
//! [`gest_core::catch_measure`], so a panicking measurement becomes an
//! `EvalResult` error frame instead of killing the worker. Content-pure
//! measurements get a worker-local [`EvalCache`], keyed by the same
//! content addressing the coordinator uses.
//!
//! Sessions are served one at a time: a worker models one board, and a
//! board can only measure one coordinator's programs meaningfully.

use crate::proto::{
    negotiate_version, read_frame, write_frame, DistError, Frame, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use gest_core::{
    catch_measure, genes_hash, CachedEval, EvalCache, EvalKey, GestConfig, Measurement, Registry,
};
use gest_isa::InstructionPool;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a busy worker emits `Heartbeat` frames.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Default in-memory cache budget for a worker's local eval cache.
const WORKER_CACHE_BYTES: usize = 64 << 20;

/// Poll granularity for the accept loop and idle session reads; bounds
/// how long a stop request can go unnoticed.
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Best-effort host name for telemetry: `/proc`, then `$HOSTNAME`, then
/// a fixed fallback — no libc call, keeping the crate dependency-free.
pub fn hostname() -> String {
    if let Ok(name) = std::fs::read_to_string("/proc/sys/kernel/hostname") {
        let name = name.trim();
        if !name.is_empty() {
            return name.to_string();
        }
    }
    match std::env::var("HOSTNAME") {
        Ok(name) if !name.trim().is_empty() => name.trim().to_string(),
        _ => "unknown".to_string(),
    }
}

/// A running worker server.
#[derive(Debug)]
pub struct Worker {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    /// The current session's stream, for abrupt termination in tests.
    session: Arc<Mutex<Option<TcpStream>>>,
    once: bool,
}

impl Worker {
    /// Binds a worker to `addr` (e.g. `127.0.0.1:7421`, or port 0 for an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Worker> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Worker {
            listener,
            addr,
            stop: Arc::new(AtomicBool::new(false)),
            requests: Arc::new(AtomicU64::new(0)),
            session: Arc::new(Mutex::new(None)),
            once: false,
        })
    }

    /// Serve a single session, then return (for tests and one-shot CLI
    /// invocations).
    pub fn once(mut self) -> Worker {
        self.once = true;
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves coordinator sessions until stopped (or after one session
    /// with [`Worker::once`]). Sessions are serial: one board, one
    /// coordinator at a time.
    ///
    /// # Errors
    ///
    /// Listener-level failures; per-session errors (protocol violations,
    /// measurement failures) are reported to the peer and end only that
    /// session.
    pub fn run(&self) -> Result<(), DistError> {
        self.listener.set_nonblocking(true)?;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    let _ = stream.set_nodelay(true);
                    *self.session.lock().unwrap() = Some(stream.try_clone()?);
                    // Session errors are per-coordinator: log to stderr
                    // and keep serving.
                    if let Err(e) = self.session(stream) {
                        if !e.is_clean_eof() {
                            eprintln!("gest-dist worker: session ended: {e}");
                        }
                    }
                    *self.session.lock().unwrap() = None;
                    if self.once {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Handshake + eval loop for one coordinator connection.
    fn session(&self, mut stream: TcpStream) -> Result<(), DistError> {
        // Idle reads poll so a stop request interrupts a quiet session;
        // sends and mid-frame reads retry through the same timeout.
        stream.set_read_timeout(Some(POLL_INTERVAL))?;

        // 1. Version handshake before anything else is interpreted. The
        //    worker echoes the *negotiated* version — min(peer, ours) —
        //    so a v2 worker still serves a v1 coordinator (and vice
        //    versa: a newer coordinator downgrades to us).
        let session_version = match self.read_polling(&mut stream)? {
            Some(Frame::Hello { version }) => match negotiate_version(version) {
                Some(negotiated) => negotiated,
                None => {
                    let message = format!(
                        "protocol version mismatch: coordinator {version}, \
                         worker speaks {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION}"
                    );
                    let _ = write_frame(
                        &mut stream,
                        &Frame::Error {
                            message: message.clone(),
                        },
                    );
                    return Err(DistError::Protocol(message));
                }
            },
            Some(other) => {
                return Err(DistError::Protocol(format!(
                    "expected Hello, got {other:?}"
                )))
            }
            None => return Ok(()),
        };
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: session_version,
            },
        )?;

        // 2. Configuration: parse, re-render, fingerprint the re-render.
        //    A schema mismatch between coordinator and worker builds
        //    changes the re-rendering, so the coordinator sees a
        //    different fingerprint than it computed and refuses the
        //    worker rather than silently measuring something else.
        let xml = match self.read_polling(&mut stream)? {
            Some(Frame::Config { xml }) => xml,
            Some(other) => {
                return Err(DistError::Protocol(format!(
                    "expected Config, got {other:?}"
                )))
            }
            None => return Ok(()),
        };
        let config = match GestConfig::from_xml_str(&xml) {
            Ok(config) => config,
            Err(e) => {
                let message = format!("config rejected: {e}");
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        message: message.clone(),
                    },
                );
                return Err(DistError::Protocol(message));
            }
        };
        let fingerprint = config.fingerprint();
        let measurement = match Registry::default().build_measurement(
            &config.measurement_name,
            config.machine.clone(),
            config.run_config,
        ) {
            Ok(measurement) => measurement,
            Err(e) => {
                let message = format!("measurement unavailable: {e}");
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        message: message.clone(),
                    },
                );
                return Err(DistError::Protocol(message));
            }
        };
        write_frame(
            &mut stream,
            &Frame::ConfigAck {
                fingerprint,
                host: hostname(),
            },
        )?;

        let cache = measurement
            .content_pure()
            .then(|| EvalCache::new(WORKER_CACHE_BYTES, fingerprint));

        // 3. Eval loop. While a measurement runs, a sibling thread emits
        //    heartbeats so the coordinator can tell "slow" from "dead".
        //    Session-local cache totals ride on every v2 result frame so
        //    the coordinator can attribute cache behaviour per worker.
        let writer = Arc::new(Mutex::new(stream.try_clone()?));
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        loop {
            let frame = match self.read_polling(&mut stream)? {
                Some(frame) => frame,
                None => return Ok(()),
            };
            match frame {
                Frame::EvalRequest {
                    generation,
                    candidate,
                    genes,
                } => {
                    self.requests.fetch_add(1, Ordering::SeqCst);
                    let measured = {
                        let _beat = HeartbeatGuard::start(Arc::clone(&writer));
                        measure_one(
                            &config,
                            measurement.as_ref(),
                            cache.as_ref(),
                            fingerprint,
                            generation,
                            candidate,
                            &genes,
                        )
                    };
                    if measured.cache_hit {
                        cache_hits += 1;
                    } else {
                        cache_misses += 1;
                    }
                    // The measurement vector is identical either way: v2
                    // only adds observability fields, so artifact bytes
                    // never depend on the negotiated version.
                    let reply = if session_version >= 2 {
                        Frame::EvalResultV2 {
                            candidate,
                            outcome: measured.outcome,
                            measure_us: measured.measure_us,
                            cache_hit: measured.cache_hit,
                            cache_hits,
                            cache_misses,
                        }
                    } else {
                        Frame::EvalResult {
                            candidate,
                            outcome: measured.outcome,
                        }
                    };
                    write_frame(&mut *writer.lock().unwrap(), &reply)?;
                }
                Frame::Heartbeat => {}
                Frame::Shutdown => return Ok(()),
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected frame in eval loop: {other:?}"
                    )))
                }
            }
        }
    }

    /// Reads one frame, polling the stop flag between idle timeouts.
    /// Returns `None` on clean end-of-session (EOF or stop request).
    fn read_polling(&self, stream: &mut TcpStream) -> Result<Option<Frame>, DistError> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            // Peek first so an idle timeout cannot split a frame header.
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            // Data is pending: read the whole frame, riding out timeouts
            // that hit mid-frame (the peer is mid-send).
            return match read_frame(&mut RetryingReader { stream }) {
                Ok(frame) => Ok(Some(frame)),
                Err(e) if e.is_clean_eof() => Ok(None),
                Err(e) => Err(e),
            };
        }
    }

    /// Spawns this worker onto a thread, returning a control handle.
    pub fn spawn(self) -> WorkerHandle {
        let addr = self.addr;
        let stop = Arc::clone(&self.stop);
        let requests = Arc::clone(&self.requests);
        let session = Arc::clone(&self.session);
        let join = std::thread::spawn(move || self.run());
        WorkerHandle {
            addr,
            stop,
            requests,
            session,
            join: Some(join),
        }
    }
}

/// Reads that ride out `WouldBlock`/`TimedOut` from a read-timeout
/// socket: used only once a frame is known to be in flight.
struct RetryingReader<'a> {
    stream: &'a mut TcpStream,
}

impl Read for RetryingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                other => return other,
            }
        }
    }
}

/// Emits heartbeats on a writer until dropped. The thread waits on a
/// channel between beats, so dropping the guard (which drops the sender)
/// wakes and ends it at once.
struct HeartbeatGuard {
    stop: Option<mpsc::Sender<()>>,
    join: Option<JoinHandle<()>>,
}

impl HeartbeatGuard {
    fn start(writer: Arc<Mutex<TcpStream>>) -> HeartbeatGuard {
        let (stop, stopped) = mpsc::channel::<()>();
        let join = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(HEARTBEAT_INTERVAL) {
                let mut writer = writer.lock().unwrap();
                if write_frame(&mut *writer, &Frame::Heartbeat).is_err() {
                    return;
                }
            }
        });
        HeartbeatGuard {
            stop: Some(stop),
            join: Some(join),
        }
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// One worker-side measurement plus the observability facts a v2 result
/// frame carries back to the coordinator.
struct Measured {
    outcome: Result<Vec<f64>, String>,
    /// Wall-clock time spent inside this call, cache lookups included.
    measure_us: u64,
    cache_hit: bool,
}

/// Measures one candidate locally: cache lookup (content-pure
/// measurements only), materialize, measure with panic containment,
/// insert. The returned `Err` is the failure *message* — it travels the
/// wire and is rehydrated into a `GestError::Measurement` by the
/// coordinator.
fn measure_one(
    config: &GestConfig,
    measurement: &dyn Measurement,
    cache: Option<&EvalCache>,
    fingerprint: u64,
    generation: u32,
    candidate: u64,
    genes: &[gest_isa::Gene],
) -> Measured {
    let started = std::time::Instant::now();
    let elapsed_us = |started: std::time::Instant| {
        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
    };
    let key = cache.map(|_| EvalKey {
        config_fp: fingerprint,
        genes_hash: genes_hash(genes),
    });
    if let (Some(cache), Some(key)) = (cache, key.as_ref()) {
        if let Some(measurements) = cache.measurements(key) {
            return Measured {
                outcome: Ok(measurements),
                measure_us: elapsed_us(started),
                cache_hit: true,
            };
        }
    }
    let body = InstructionPool::flatten(genes);
    let program = config
        .template
        .materialize(format!("{generation}_{candidate}"), body);
    let result = catch_measure(candidate, || measurement.measure_detailed(&program));
    let outcome = match result {
        Ok((measurements, detail)) => {
            if let (Some(cache), Some(key)) = (cache, key) {
                cache.insert(
                    key,
                    CachedEval {
                        measurements: measurements.clone(),
                        detail_kv: detail.as_ref().map(|r| r.metric_kv()),
                    },
                );
            }
            Ok(measurements)
        }
        Err(e) => Err(e.to_string()),
    };
    Measured {
        outcome,
        measure_us: elapsed_us(started),
        cache_hit: false,
    }
}

/// Control handle for a [`Worker::spawn`]ed worker thread.
#[derive(Debug)]
pub struct WorkerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    session: Arc<Mutex<Option<TcpStream>>>,
    join: Option<JoinHandle<Result<(), DistError>>>,
}

impl WorkerHandle {
    /// The worker's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of eval requests this worker has accepted.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }

    /// Kills the worker abruptly: severs any in-flight session socket
    /// (the coordinator sees a transport error, as with a real crash)
    /// and stops the accept loop. The port is free once this returns.
    pub fn kill(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(stream) = self.session.lock().unwrap().take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(stream) = self.session.lock().unwrap().take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}
