//! The coordinator side: an [`EvalBackend`] that ships candidates to
//! remote workers.
//!
//! The coordinator owns only *where* a measurement runs; everything
//! determinism-relevant — cache lookups, fitness, retry budgets, result
//! ordering — stays in `GestRun`. Dispatch is work-stealing: the runner
//! drives one thread per [`Coordinator::slots`] slot, and each
//! `measure` call checks a connection out of a shared pool, so a slow
//! worker naturally takes fewer candidates while a fast one drains the
//! queue.
//!
//! Failure handling is two-layered. Transport failures (connection
//! reset, heartbeat silence past the timeout) mark the worker broken and
//! retry the candidate on another worker *without* consuming the
//! runner's [`gest_core::FaultPolicy`] budget — a dead board says
//! nothing about the candidate. Only when no worker can be reached does
//! `measure` fail, handing the candidate to the fault policy's
//! backoff/retry (a reconnection window) and eventually quarantine.
//! Worker-side *measurement* errors, by contrast, are deterministic
//! properties of the candidate and are returned immediately without
//! retrying elsewhere.

use crate::proto::{
    read_frame, read_payload, write_frame, DistError, Frame, TransportChaos, PROTOCOL_VERSION,
};
use gest_core::{config_fingerprint, EvalBackend, EvalRequest, GestError};
use gest_sim::RunResult;
use gest_telemetry::Buckets;
use gest_telemetry::Telemetry;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Tunables for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// How long a worker may stay silent (no result, no heartbeat)
    /// before it is declared hung. Workers heartbeat every 500 ms, so
    /// the default 5 s tolerates ~10 missed beats.
    pub heartbeat_timeout: Duration,
    /// TCP connect timeout per worker.
    pub connect_timeout: Duration,
    /// Fault-injection hook applied to every received payload after the
    /// handshake (see [`TransportChaos`]). `None` in production.
    pub chaos: Option<Arc<dyn TransportChaos>>,
    /// Graceful degradation: `Some((n, backend))` means that after `n`
    /// *consecutive* all-workers-unavailable checkout failures the
    /// coordinator permanently degrades to `backend` (usually a
    /// `LocalBackend`) instead of failing the candidate. `None` (the
    /// default) never degrades — total fleet loss surfaces to the
    /// runner's fault policy as before.
    pub local_fallback: Option<(u32, Arc<dyn EvalBackend>)>,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            heartbeat_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(5),
            chaos: None,
            local_fallback: None,
        }
    }
}

/// One live worker connection.
#[derive(Debug)]
struct Conn {
    /// Index into `Coordinator::addrs` (stable worker identity for
    /// telemetry and reconnection).
    index: usize,
    stream: TcpStream,
    /// The worker's self-reported host name from `ConfigAck`, for
    /// fleet-attributed telemetry.
    host: String,
}

#[derive(Debug)]
struct PoolState {
    idle: Vec<Conn>,
    /// Worker indices currently disconnected, awaiting reconnection.
    broken: Vec<usize>,
    /// Number of workers not in `broken` (idle or checked out).
    live: usize,
}

/// A TCP fan-out [`EvalBackend`] over a fixed set of workers.
#[derive(Debug)]
pub struct Coordinator {
    addrs: Vec<String>,
    /// The exact `config.xml` rendering sent to every worker.
    xml: String,
    /// `config_fingerprint(xml)`; every worker must ack with this value.
    fingerprint: u64,
    options: CoordinatorOptions,
    pool: Mutex<PoolState>,
    available: Condvar,
    telemetry: Telemetry,
    /// Requests currently inside `measure`, for the queue-depth gauge.
    outstanding: AtomicUsize,
    /// Latched once the fleet is declared lost; from then on every
    /// measurement goes to [`CoordinatorOptions::local_fallback`].
    degraded: AtomicBool,
    /// Consecutive all-workers-unavailable checkout failures; reset by
    /// any successful checkout.
    fleet_failures: AtomicU32,
}

impl Coordinator {
    /// Connects and handshakes every worker in `addrs` up front; a
    /// worker that cannot be reached or does not agree on the protocol
    /// version and configuration fingerprint fails construction — a
    /// misconfigured fleet should fail loudly before the search starts,
    /// not quarantine candidates at generation 40.
    ///
    /// # Errors
    ///
    /// [`GestError::Config`] naming the offending worker on connect,
    /// handshake, version, or fingerprint failures.
    pub fn connect(
        addrs: &[String],
        config_xml: String,
        telemetry: Telemetry,
        options: CoordinatorOptions,
    ) -> Result<Coordinator, GestError> {
        if addrs.is_empty() {
            return Err(GestError::Backend(
                "dist: cannot build a coordinator over an empty worker list — \
                 pass at least one address (e.g. --workers=host:7421)"
                    .into(),
            ));
        }
        let fingerprint = config_fingerprint(&config_xml);
        let coordinator = Coordinator {
            addrs: addrs.to_vec(),
            xml: config_xml,
            fingerprint,
            options,
            pool: Mutex::new(PoolState {
                idle: Vec::new(),
                broken: Vec::new(),
                live: 0,
            }),
            available: Condvar::new(),
            telemetry,
            outstanding: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            fleet_failures: AtomicU32::new(0),
        };
        for (index, addr) in addrs.iter().enumerate() {
            let conn = coordinator
                .dial(index)
                .map_err(|e| GestError::Config(format!("dist: worker {addr}: {e}")))?;
            let mut pool = coordinator.lock_pool();
            pool.idle.push(conn);
            pool.live += 1;
        }
        Ok(coordinator)
    }

    /// Whether the coordinator has permanently degraded to its fallback
    /// backend after total fleet loss.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Locks the pool, recovering from poison: a dispatch thread that
    /// panicked while holding the lock must not cascade into every other
    /// slot. The pool state is self-healing — a connection lost in the
    /// panic is re-dialed through the `broken` list — so continuing with
    /// the inner state is always safe.
    fn lock_pool(&self) -> MutexGuard<'_, PoolState> {
        self.pool.lock().unwrap_or_else(|poisoned| {
            self.telemetry.add_counter("dist.lock_poisoned", 1);
            poisoned.into_inner()
        })
    }

    /// Connects and handshakes one worker.
    fn dial(&self, index: usize) -> Result<Conn, DistError> {
        let addr = &self.addrs[index];
        let resolved = std::net::ToSocketAddrs::to_socket_addrs(addr.as_str())
            .map_err(DistError::Io)?
            .next()
            .ok_or_else(|| DistError::Protocol(format!("{addr} resolves to no address")))?;
        let mut stream = TcpStream::connect_timeout(&resolved, self.options.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(self.options.heartbeat_timeout))?;

        write_frame(&mut stream, &Frame::hello())?;
        match read_frame(&mut stream)? {
            Frame::Hello {
                version: PROTOCOL_VERSION,
            } => {}
            Frame::Hello { version } => {
                return Err(DistError::Protocol(format!(
                    "protocol version mismatch: worker speaks {version}, \
                     coordinator speaks {PROTOCOL_VERSION}"
                )))
            }
            Frame::Error { message } => return Err(DistError::Protocol(message)),
            other => {
                return Err(DistError::Protocol(format!(
                    "expected Hello, got {other:?}"
                )))
            }
        }
        write_frame(
            &mut stream,
            &Frame::Config {
                xml: self.xml.clone(),
            },
        )?;
        match read_frame(&mut stream)? {
            Frame::ConfigAck { fingerprint, host } => {
                if fingerprint != self.fingerprint {
                    return Err(DistError::Protocol(format!(
                        "config fingerprint mismatch: worker re-rendered \
                         {fingerprint:016x}, coordinator sent {:016x} — \
                         coordinator and worker builds disagree on the \
                         configuration schema",
                        self.fingerprint
                    )));
                }
                self.telemetry.point(
                    "dist.worker.connected",
                    &[
                        ("worker", (index as u64).into()),
                        ("addr", self.addrs[index].as_str().into()),
                        ("host", host.as_str().into()),
                        ("version", u64::from(PROTOCOL_VERSION).into()),
                    ],
                );
                Ok(Conn {
                    index,
                    stream,
                    host,
                })
            }
            Frame::Error { message } => Err(DistError::Protocol(message)),
            other => Err(DistError::Protocol(format!(
                "expected ConfigAck, got {other:?}"
            ))),
        }
    }

    /// Checks a connection out of the pool, reconnecting broken workers
    /// opportunistically while waiting.
    ///
    /// Fails only when every worker is broken and none could be
    /// reconnected on this attempt — the caller turns that into a
    /// measurement error for the runner's fault policy, whose backoff
    /// becomes the reconnection window.
    fn checkout(&self, candidate: u64) -> Result<Conn, GestError> {
        let mut pool = self.lock_pool();
        loop {
            if let Some(conn) = pool.idle.pop() {
                return Ok(conn);
            }
            if !pool.broken.is_empty() {
                // Try to resurrect one broken worker per wait iteration;
                // dial without holding the lock (it can block for the
                // connect timeout).
                let index = pool.broken.remove(0);
                drop(pool);
                match self.dial(index) {
                    Ok(conn) => {
                        self.telemetry.add_counter("dist.reconnects", 1);
                        pool = self.lock_pool();
                        pool.live += 1;
                        return Ok(conn);
                    }
                    Err(_) => {
                        pool = self.lock_pool();
                        pool.broken.push(index);
                    }
                }
            }
            if pool.live == 0 && pool.broken.len() == self.addrs.len() {
                // All workers down and this attempt reconnected none:
                // report up. The fault policy's retry/backoff will call
                // measure (and thus reconnection) again.
                return Err(GestError::Measurement {
                    candidate,
                    message: format!("dist: all {} workers unavailable", self.addrs.len()),
                });
            }
            let (next, _timeout) = self
                .available
                .wait_timeout(pool, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| {
                    self.telemetry.add_counter("dist.lock_poisoned", 1);
                    poisoned.into_inner()
                });
            pool = next;
        }
    }

    /// Returns a healthy connection to the pool.
    fn checkin(&self, conn: Conn) {
        let mut pool = self.lock_pool();
        pool.idle.push(conn);
        drop(pool);
        self.available.notify_one();
    }

    /// Marks a worker's connection broken and schedules reconnection.
    fn discard(&self, conn: Conn) {
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        let mut pool = self.lock_pool();
        pool.live -= 1;
        pool.broken.push(conn.index);
        drop(pool);
        self.available.notify_all();
    }

    /// Reads one frame, routing the raw payload through the configured
    /// [`TransportChaos`] hook (if any) before decoding — so injected
    /// garbling and truncation exercise the real protocol error paths.
    /// The handshake in [`Coordinator::dial`] deliberately bypasses this:
    /// chaos targets the steady-state request loop, not construction.
    fn read_frame_chaos(&self, stream: &mut TcpStream) -> Result<Frame, DistError> {
        let mut payload = read_payload(stream)?;
        if let Some(chaos) = &self.options.chaos {
            if let Some(error) = chaos.on_receive(&mut payload) {
                return Err(error);
            }
        }
        Frame::decode(&payload)
    }

    /// Sends one request and waits for its result, treating heartbeat
    /// frames as liveness and the socket read timeout as a hang. Every
    /// received frame (heartbeats included) refreshes the worker's
    /// last-seen gauge, which feeds the status endpoint's heartbeat-age
    /// column.
    fn exchange(
        &self,
        conn: &mut Conn,
        request: &EvalRequest<'_>,
    ) -> Result<WorkerReply, DistError> {
        write_frame(
            &mut conn.stream,
            &Frame::EvalRequest {
                generation: request.generation,
                candidate: request.candidate_id,
                genes: request.genes.to_vec(),
            },
        )?;
        loop {
            // Each received frame (heartbeats included) restarts the
            // read timeout, so only true silence trips it.
            let frame = self.read_frame_chaos(&mut conn.stream)?;
            self.telemetry.set_gauge(
                &format!("dist.worker.{}.last_seen_us", conn.index),
                self.telemetry.uptime_us() as f64,
            );
            let (candidate, reply) = match frame {
                Frame::Heartbeat => continue,
                Frame::EvalResult {
                    candidate,
                    outcome,
                    measure_us,
                } => (
                    candidate,
                    WorkerReply {
                        outcome,
                        measure_us,
                    },
                ),
                Frame::Error { message } => return Err(DistError::Protocol(message)),
                other => {
                    return Err(DistError::Protocol(format!(
                        "unexpected frame awaiting result: {other:?}"
                    )))
                }
            };
            if candidate != request.candidate_id {
                return Err(DistError::Protocol(format!(
                    "result for candidate {candidate}, expected {}",
                    request.candidate_id
                )));
            }
            return Ok(reply);
        }
    }

    /// Number of workers configured (live or currently broken).
    pub fn worker_count(&self) -> usize {
        self.addrs.len()
    }
}

/// One worker reply: the measurement outcome and the worker-side
/// measure time.
struct WorkerReply {
    outcome: Result<Vec<f64>, String>,
    measure_us: u64,
}

impl EvalBackend for Coordinator {
    fn name(&self) -> &str {
        "dist"
    }

    fn slots(&self, pending: usize) -> usize {
        match &self.options.local_fallback {
            Some((_, fallback)) if self.is_degraded() => fallback.slots(pending),
            _ => self.addrs.len().min(pending.max(1)),
        }
    }

    fn measure(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        if let Some((_, fallback)) = &self.options.local_fallback {
            if self.is_degraded() {
                return fallback.measure(slot, request);
            }
        }
        let depth = self.outstanding.fetch_add(1, Ordering::SeqCst) + 1;
        self.telemetry.set_gauge("dist.queue_depth", depth as f64);
        let result = self.measure_inner(slot, request);
        let depth = self.outstanding.fetch_sub(1, Ordering::SeqCst) - 1;
        self.telemetry.set_gauge("dist.queue_depth", depth as f64);
        result
    }
}

impl Coordinator {
    /// Handles one all-workers-unavailable checkout failure: count it,
    /// and once the consecutive count reaches the configured threshold
    /// latch the degraded state. Returns the fallback to delegate to, or
    /// `None` to propagate the error.
    fn on_fleet_unavailable(&self) -> Option<&dyn EvalBackend> {
        let failures = self.fleet_failures.fetch_add(1, Ordering::SeqCst) + 1;
        let (threshold, fallback) = self.options.local_fallback.as_ref()?;
        if failures < *threshold {
            return None;
        }
        if !self.degraded.swap(true, Ordering::SeqCst) {
            self.telemetry.add_counter("dist.local_fallback", 1);
            self.telemetry.point(
                "dist.local_fallback",
                &[
                    ("workers", (self.addrs.len() as u64).into()),
                    ("after_failures", u64::from(failures).into()),
                    ("fallback", fallback.name().into()),
                ],
            );
            eprintln!(
                "gest: all {} workers unavailable after {failures} checkout \
                 attempts; degrading to the {} backend for the rest of the run",
                self.addrs.len(),
                fallback.name()
            );
        }
        Some(fallback.as_ref())
    }

    /// Folds one reply's worker-side measure time into the merged
    /// trace: a worker-attributed point (the distributed analogue of the
    /// local eval span) and a fleet-wide measure-time histogram.
    fn emit_worker_measure(&self, conn: &Conn, request: &EvalRequest<'_>, measure_us: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.point(
            "worker.measure",
            &[
                ("worker", (conn.index as u64).into()),
                ("host", conn.host.as_str().into()),
                ("candidate", request.candidate_id.into()),
                ("generation", u64::from(request.generation).into()),
                ("measure_us", measure_us.into()),
            ],
        );
        // Same bucket layout as the runner's local eval.latency_us, so
        // the two histograms compare directly in /metrics.
        let buckets = Buckets::exponential(100.0, 10.0, 7);
        self.telemetry
            .record("dist.worker.measure_us", &buckets, measure_us as f64);
    }

    fn measure_inner(
        &self,
        slot: usize,
        request: &EvalRequest<'_>,
    ) -> Result<(Vec<f64>, Option<RunResult>), GestError> {
        loop {
            let mut conn = match self.checkout(request.candidate_id) {
                Ok(conn) => {
                    self.fleet_failures.store(0, Ordering::SeqCst);
                    conn
                }
                Err(error) => match self.on_fleet_unavailable() {
                    Some(fallback) => return fallback.measure(slot, request),
                    None => return Err(error),
                },
            };
            let span = self.telemetry.span_with(
                "dist.request",
                &[
                    ("candidate", request.candidate_id.into()),
                    ("generation", u64::from(request.generation).into()),
                    ("worker", (conn.index as u64).into()),
                ],
            );
            self.telemetry.add_counter("dist.dispatches", 1);
            match self.exchange(&mut conn, request) {
                Ok(reply) => {
                    drop(span);
                    self.telemetry
                        .add_counter(&format!("dist.worker.{}.requests", conn.index), 1);
                    self.emit_worker_measure(&conn, request, reply.measure_us);
                    self.checkin(conn);
                    return match reply.outcome {
                        Ok(measurements) => Ok((measurements, None)),
                        // A worker-side measurement failure is a property
                        // of the candidate, not the worker: surface it
                        // without retrying elsewhere.
                        Err(message) => Err(GestError::Measurement {
                            candidate: request.candidate_id,
                            message,
                        }),
                    };
                }
                Err(e) => {
                    // Transport trouble (crash, hang, protocol break):
                    // the candidate is innocent. Retry on another worker
                    // without consuming fault-policy budget.
                    drop(span);
                    let kind = if e.is_timeout() { "hang" } else { "transport" };
                    self.telemetry.point(
                        "dist.worker.lost",
                        &[
                            ("worker", (conn.index as u64).into()),
                            ("kind", kind.into()),
                            ("error", e.to_string().as_str().into()),
                        ],
                    );
                    self.telemetry.add_counter("dist.retries", 1);
                    self.telemetry
                        .add_counter(&format!("dist.worker.{}.retries", conn.index), 1);
                    self.discard(conn);
                }
            }
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        let mut pool = self.lock_pool();
        for conn in pool.idle.iter_mut() {
            let _ = write_frame(&mut conn.stream, &Frame::Shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_sane() {
        let options = CoordinatorOptions::default();
        assert!(options.heartbeat_timeout >= Duration::from_secs(1));
        assert!(options.connect_timeout >= Duration::from_secs(1));
    }

    #[test]
    fn connect_requires_addresses() {
        let err = Coordinator::connect(
            &[],
            "<gest/>".into(),
            Telemetry::disabled(),
            CoordinatorOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, GestError::Backend(ref m) if m.contains("empty worker list")),
            "{err}"
        );
    }

    #[test]
    fn connect_fails_fast_on_unreachable_worker() {
        // Bind-then-drop yields a port with nothing listening.
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let err = Coordinator::connect(
            &[format!("127.0.0.1:{port}")],
            "<gest/>".into(),
            Telemetry::disabled(),
            CoordinatorOptions {
                connect_timeout: Duration::from_millis(500),
                ..CoordinatorOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, GestError::Config(ref m) if m.contains(&format!("127.0.0.1:{port}"))),
            "{err}"
        );
    }
}
