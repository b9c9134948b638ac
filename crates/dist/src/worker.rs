//! The worker side: a TCP server that measures candidates on request.
//!
//! A worker is the distributed analogue of one "identical board" from
//! paper §III.C: it receives the run's configuration once per session,
//! builds the measurement plug-in locally, and then measures whatever
//! candidates the coordinator ships — each wrapped in
//! [`gest_core::catch_measure`], so a panicking measurement becomes an
//! `EvalResult` error frame instead of killing the worker. The worker
//! keeps no search state and no cache: it measures through the same
//! [`LocalBackend`] an in-process run uses, and every lookup, retry and
//! fitness decision stays with the coordinator's run.
//!
//! Sessions are served one at a time: a worker models one board, and a
//! board can only measure one coordinator's programs meaningfully.

use crate::proto::{
    negotiate_version, read_frame, write_frame, DistError, Frame, MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
};
use gest_core::{catch_measure, EvalBackend, EvalRequest, GestConfig, LocalBackend, Registry};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a busy worker emits `Heartbeat` frames.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

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

        let backend = LocalBackend::new(measurement, config.template, 1);

        // 3. Eval loop. While a measurement runs, the session's heartbeat
        //    thread emits heartbeats so the coordinator can tell "slow"
        //    from "dead".
        let heartbeat = Heartbeat::start(stream.try_clone()?);
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
                    let request = EvalRequest {
                        generation,
                        candidate_id: candidate,
                        genes: &genes,
                    };
                    // The `Err` travels the wire as a message and is
                    // rehydrated into a `GestError::Measurement` by the
                    // coordinator.
                    heartbeat.measuring();
                    let started = Instant::now();
                    let outcome = catch_measure(candidate, || backend.measure(0, &request))
                        .map(|(measurements, _detail)| measurements)
                        .map_err(|e| e.to_string());
                    let elapsed = started.elapsed().as_micros();
                    let measure_us = u64::try_from(elapsed).unwrap_or(u64::MAX);
                    // The measurement vector is identical either way: v2
                    // only adds observability fields, so artifact bytes
                    // never depend on the negotiated version. The three
                    // cache fields are reserved and always zero.
                    let reply = if session_version >= 2 {
                        Frame::EvalResultV2 {
                            candidate,
                            outcome,
                            measure_us,
                            cache_hit: false,
                            cache_hits: 0,
                            cache_misses: 0,
                        }
                    } else {
                        Frame::EvalResult { candidate, outcome }
                    };
                    heartbeat.finish(&reply)?;
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

/// A session's result writer and its one heartbeat thread. The thread
/// sleeps while the worker is idle and, while a measurement is in
/// flight, writes a `Heartbeat` every [`HEARTBEAT_INTERVAL`]. Dropping
/// the handle ends and joins the thread.
struct Heartbeat {
    shared: Arc<(Mutex<BeatState>, Condvar)>,
    join: Option<JoinHandle<()>>,
}

/// What the session and its heartbeat thread share, under one lock.
struct BeatState {
    stream: TcpStream,
    /// When the next beat is due; `None` while no measurement is in
    /// flight.
    due: Option<Instant>,
    /// Set when the session ends.
    closed: bool,
}

impl Heartbeat {
    fn start(stream: TcpStream) -> Heartbeat {
        let shared = Arc::new((
            Mutex::new(BeatState {
                stream,
                due: None,
                closed: false,
            }),
            Condvar::new(),
        ));
        let beats = Arc::clone(&shared);
        let join = std::thread::spawn(move || {
            let (state, wake) = &*beats;
            let mut state = state.lock().unwrap();
            while !state.closed {
                let Some(due) = state.due else {
                    state = wake.wait(state).unwrap();
                    continue;
                };
                let now = Instant::now();
                if now < due {
                    state = wake.wait_timeout(state, due - now).unwrap().0;
                } else if write_frame(&mut state.stream, &Frame::Heartbeat).is_ok() {
                    state.due = Some(now + HEARTBEAT_INTERVAL);
                } else {
                    return;
                }
            }
        });
        Heartbeat {
            shared,
            join: Some(join),
        }
    }

    /// A measurement starts: the first beat is due one interval from now.
    fn measuring(&self) {
        let (state, wake) = &*self.shared;
        state.lock().unwrap().due = Some(Instant::now() + HEARTBEAT_INTERVAL);
        wake.notify_one();
    }

    /// The measurement ended: writes its result. No beat is due any more,
    /// and none can follow the result, since both happen under the lock
    /// the thread beats under.
    fn finish(&self, reply: &Frame) -> Result<(), DistError> {
        let mut state = self.shared.0.lock().unwrap();
        state.due = None;
        write_frame(&mut state.stream, reply)
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        let (state, wake) = &*self.shared;
        state.lock().unwrap().closed = true;
        wake.notify_one();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::read_frame;

    fn result(candidate: u64) -> Frame {
        Frame::EvalResult {
            candidate,
            outcome: Ok(vec![candidate as f64]),
        }
    }

    #[test]
    fn a_long_measurement_after_quick_ones_beats_before_its_result() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let worker_side = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut coordinator_side, _) = listener.accept().unwrap();

        let heartbeat = Heartbeat::start(worker_side);
        for candidate in 0..5 {
            heartbeat.measuring();
            heartbeat.finish(&result(candidate)).unwrap();
        }
        heartbeat.measuring();
        std::thread::sleep(HEARTBEAT_INTERVAL * 3 / 2);
        heartbeat.finish(&result(5)).unwrap();
        // Ends and joins the session's one heartbeat thread, closing the
        // worker's side of the stream.
        drop(heartbeat);

        let mut beats_in_flight = 0;
        let mut next = 0;
        while next <= 5 {
            match read_frame(&mut coordinator_side).unwrap() {
                Frame::Heartbeat if next == 5 => beats_in_flight += 1,
                Frame::Heartbeat => {}
                Frame::EvalResult { candidate, .. } => {
                    assert_eq!(candidate, next, "results arrive in order");
                    next += 1;
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(
            beats_in_flight >= 1,
            "a measurement past the interval must heartbeat"
        );
        let after = read_frame(&mut coordinator_side);
        assert!(
            matches!(&after, Err(e) if e.is_clean_eof()),
            "no beat follows the last result: {after:?}"
        );
    }
}
