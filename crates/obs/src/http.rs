//! The embedded status endpoint: a deliberately tiny HTTP/1.1 server on
//! std's `TcpListener`, plus the matching one-shot client used by
//! `gest top` and the tests.
//!
//! Request parsing is hand-rolled in the same spirit as the `GESTDST1`
//! frame codec: total over arbitrary bytes, bounded (8 KiB of headers,
//! 1 MiB of body), and malformed input gets a `400` response — never a
//! panic. The parser ([`read_http_request`]) is shared with
//! `gest-serve`, whose REST API needs `POST`/`DELETE` and
//! `Content-Length`-driven bodies; the status endpoint itself still
//! serves only `GET`. Every response closes the connection, so there is
//! no keep-alive state machine to get wrong. One thread accepts, one
//! short-lived thread serves each connection — scrape and control
//! traffic is a few requests per second, not a web workload.

use crate::{prom, ObsSink};
use gest_telemetry::Telemetry;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on a request head (request line + headers). Anything
/// longer is rejected as malformed — real clients send a few hundred
/// bytes of headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Upper bound on a request body — sized for realistic config-XML
/// uploads (a large instruction pool renders to tens of KiB). Anything
/// longer earns a `413 Payload Too Large`.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Per-connection socket timeout: a stalled or byte-dribbling client
/// gets cut off instead of pinning a handler thread.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// How long an accept loop backs off after an `accept` error (say, the
/// process ran out of file descriptors) before trying again.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Wakes an accept loop blocked on the listener bound to `addr` by
/// connecting to it once; the loop sees its stop flag on that
/// connection and exits. An unspecified bind address (`0.0.0.0`, `::`)
/// is reached through loopback. Returns whether the connection was made,
/// i.e. whether joining the accept thread is safe.
pub fn wake_accept_loop(addr: SocketAddr) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match target.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    TcpStream::connect_timeout(&target, SOCKET_TIMEOUT).is_ok()
}

/// Runs a blocking accept loop on `listener` until `stop` is set (and
/// [`wake_accept_loop`] unblocks it), handing each connection to
/// `handle` on its own detached thread.
pub fn accept_until_stopped(
    listener: &TcpListener,
    stop: &AtomicBool,
    handle: impl Fn(TcpStream) + Clone + Send + 'static,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                // Detached on purpose: each connection is bounded by its
                // socket timeouts, so handlers cannot outlive a stop by
                // more than that.
                std::thread::spawn(move || handle(stream));
            }
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
}

/// The live status endpoint (`/metrics`, `/status`, `/trace`).
///
/// Runs its accept loop on a background thread until dropped (or
/// [`StatusServer::stop`] is called). Serving is read-only: handlers
/// snapshot the metrics registry and the [`ObsSink`] state, and never
/// touch the search.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for StatusServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatusServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving.
    ///
    /// # Errors
    ///
    /// I/O errors binding the listener.
    pub fn start(
        addr: impl ToSocketAddrs,
        telemetry: Telemetry,
        obs: Arc<ObsSink>,
    ) -> io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            accept_until_stopped(&listener, &accept_stop, move |stream| {
                serve_connection(stream, &telemetry, &obs)
            })
        });
        Ok(StatusServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins it. Called by `Drop`; explicit
    /// calls are idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.accept_thread.take() {
            // A loop that cannot be woken is left detached rather than
            // joined forever.
            if wake_accept_loop(self.addr) {
                let _ = thread.join();
            }
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A successfully parsed HTTP/1.1 request: method, split target, and the
/// `Content-Length`-delimited body (empty when the header is absent).
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// The request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The target path with any query string stripped.
    pub path: String,
    /// The query string after `?`, when present.
    pub query: Option<String>,
    /// The request body, `Content-Length` bytes of it.
    pub body: Vec<u8>,
}

/// What request parsing decided.
#[derive(Debug)]
pub enum ParsedRequest {
    /// A well-formed request.
    Request(HttpRequest),
    /// Syntactically broken input or an oversized head (response: 400).
    Malformed,
    /// Valid HTTP whose declared body exceeds [`MAX_BODY_BYTES`]
    /// (response: 413).
    TooLarge,
}

/// Reads and parses one request (head + `Content-Length` body) from the
/// stream. Total: any byte sequence maps to a [`ParsedRequest`]; I/O
/// errors (including timeouts) map to `None`, which callers treat as
/// "drop the connection without a response". The answer does not depend
/// on how the bytes are split across reads: a head whose end lies past
/// [`MAX_HEAD_BYTES`] is malformed however it arrives. Shared by the
/// status endpoint and `gest-serve` — the route tables differ, the wire
/// handling must not.
pub fn read_http_request(stream: &mut impl Read) -> Option<ParsedRequest> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Every window starting before `scanned` has been searched already; a
    // terminator straddling two reads starts at most 3 bytes before the
    // new data, so each byte is scanned a bounded number of times.
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
            break scanned + pos + 4;
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() >= MAX_HEAD_BYTES {
            return Some(ParsedRequest::Malformed);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF before the head completed: parse whatever arrived.
                break buf.len();
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return None,
        }
    };
    // One read can carry the head's end past the cap.
    if head_end > MAX_HEAD_BYTES {
        return Some(ParsedRequest::Malformed);
    }
    let head = String::from_utf8_lossy(&buf[..head_end]);
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = (parts.next(), parts.next(), parts.next());
    let (Some(method), Some(target), Some(version)) = (method, target, version) else {
        return Some(ParsedRequest::Malformed);
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") || !target.starts_with('/') {
        return Some(ParsedRequest::Malformed);
    }
    let mut content_length: usize = 0;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let Ok(length) = value.trim().parse::<usize>() else {
                return Some(ParsedRequest::Malformed);
            };
            content_length = length;
        } else if name.trim().eq_ignore_ascii_case("transfer-encoding") {
            // No chunked support: a body without a declared length
            // cannot be framed, so reject rather than misread it.
            return Some(ParsedRequest::Malformed);
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Some(ParsedRequest::TooLarge);
    }
    let mut body = buf[head_end..].to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Some(ParsedRequest::Malformed), // truncated body
            Ok(n) => {
                let want = content_length - body.len();
                body.extend_from_slice(&chunk[..n.min(want)]);
            }
            Err(_) => return None,
        }
    }
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path.to_string(), Some(query.to_string())),
        None => (target.to_string(), None),
    };
    Some(ParsedRequest::Request(HttpRequest {
        method: method.to_string(),
        path,
        query,
        body,
    }))
}

/// Writes one `Connection: close` HTTP/1.1 response. Best-effort: the
/// peer may already have hung up, so write errors are swallowed.
pub fn write_http_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &[u8]) {
    write_http_response_with_headers(stream, status, content_type, &[], body);
}

/// [`write_http_response`] with extra response headers — how `gest-serve`
/// attaches `Retry-After` to its admission-control `503`s. Each pair is
/// rendered as `name: value`; callers must pass well-formed header
/// names/values (no CR/LF).
pub fn write_http_response_with_headers(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) {
    let mut header = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        header.push_str(name);
        header.push_str(": ");
        header.push_str(value);
        header.push_str("\r\n");
    }
    header.push_str("Connection: close\r\n\r\n");
    let _ = stream.write_all(header.as_bytes());
    let _ = stream.write_all(body);
    let _ = stream.flush();
}

fn write_response(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    write_http_response(stream, status, content_type, body.as_bytes());
}

fn serve_connection(mut stream: TcpStream, telemetry: &Telemetry, obs: &ObsSink) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let Some(request) = read_http_request(&mut stream) else {
        return;
    };
    match request {
        ParsedRequest::Malformed => {
            write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain",
                "bad request\n",
            );
        }
        ParsedRequest::TooLarge => {
            write_response(
                &mut stream,
                "413 Payload Too Large",
                "text/plain",
                "request body exceeds the 1 MiB cap\n",
            );
        }
        ParsedRequest::Request(request) if request.method != "GET" => {
            write_response(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain",
                "only GET is supported\n",
            );
        }
        ParsedRequest::Request(request) => match request.path.as_str() {
            "/metrics" => {
                let body = prom::render_metrics(&telemetry.metrics_events(), telemetry.uptime_us());
                write_response(
                    &mut stream,
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    &body,
                );
            }
            "/status" => {
                let mut body = String::new();
                obs.status_json(telemetry).write(&mut body);
                body.push('\n');
                write_response(&mut stream, "200 OK", "application/json", &body);
            }
            "/trace" => {
                let mut body = String::new();
                for event in obs.trace_tail() {
                    event.to_json().write(&mut body);
                    body.push('\n');
                }
                write_response(&mut stream, "200 OK", "application/x-ndjson", &body);
            }
            "/" => write_response(
                &mut stream,
                "200 OK",
                "text/plain",
                "gest status endpoint: /metrics /status /trace\n",
            ),
            _ => write_response(&mut stream, "404 Not Found", "text/plain", "not found\n"),
        },
    }
}

/// One-shot HTTP GET against `addr` (host:port), returning
/// `(status_code, body)` — the client side of the endpoint, used by
/// `gest top` and tests. Dependency-free by design.
///
/// # Errors
///
/// Connection/socket errors, or a response that is not parseable HTTP.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> io::Result<(u16, String)> {
    let (status, body) = http_request(addr, "GET", path, &[], timeout)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// One-shot HTTP request with an arbitrary method and body against
/// `addr` (host:port), returning `(status_code, body_bytes)` — the
/// client side of the `gest-serve` REST API (config-XML uploads, binary
/// artifact downloads). Dependency-free by design.
///
/// # Errors
///
/// Connection/socket errors, or a response that is not parseable HTTP.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let mut resolved = addr.to_socket_addrs()?;
    let target = resolved.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
    })?;
    let mut stream = TcpStream::connect_timeout(&target, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    stream.write_all(body)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let separator = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header/body separator"))?;
    let head = String::from_utf8_lossy(&response[..separator]);
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, response[separator + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gest_telemetry::json::Value;
    use gest_telemetry::{Buckets, Sink};

    fn test_server() -> (StatusServer, Telemetry, Arc<ObsSink>) {
        let obs = Arc::new(ObsSink::default());
        let telemetry = Telemetry::new(Arc::clone(&obs) as Arc<dyn Sink>);
        telemetry.add_counter("dist.dispatches", 3);
        telemetry.record(
            "eval.latency_us",
            &Buckets::exponential(100.0, 10.0, 3),
            250.0,
        );
        telemetry.point("generation", &[("generation", 0u64.into())]);
        let server =
            StatusServer::start("127.0.0.1:0", telemetry.clone(), Arc::clone(&obs)).unwrap();
        (server, telemetry, obs)
    }

    #[test]
    fn serves_metrics_status_and_trace() {
        let (server, _telemetry, _obs) = test_server();
        let addr = server.addr().to_string();
        let timeout = Duration::from_secs(5);

        let (code, body) = http_get(&addr, "/metrics", timeout).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("dist_dispatches 3"));
        assert!(body.contains("eval_latency_us_p95"));

        let (code, body) = http_get(&addr, "/status", timeout).unwrap();
        assert_eq!(code, 200);
        let status = Value::parse(body.trim()).unwrap();
        assert_eq!(status.get("generation").unwrap().as_u64(), Some(1));

        let (code, body) = http_get(&addr, "/trace", timeout).unwrap();
        assert_eq!(code, 200);
        assert!(body.lines().count() >= 1, "trace tail has the point");

        let (code, _) = http_get(&addr, "/nope", timeout).unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn malformed_requests_get_400_not_a_panic() {
        let (server, _telemetry, _obs) = test_server();
        let addr = server.addr();
        let timeout = Duration::from_secs(5);

        for garbage in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"GARBAGE\r\n\r\n",
            b"GET missing-slash HTTP/1.1\r\n\r\n",
            b"GET / SMTP/3.0\r\n\r\n",
            b"GET / HTTP/1.1 extra words\r\n\r\n",
        ] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(timeout)).unwrap();
            stream.write_all(garbage).unwrap();
            let mut response = String::new();
            let _ = stream.read_to_string(&mut response);
            assert!(
                response.starts_with("HTTP/1.1 400"),
                "{garbage:?} should get a 400, got {response:?}"
            );
        }

        // Non-GET methods are rejected with 405.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(timeout)).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\n\r\n").unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 405"), "got {response:?}");

        // A body over the 1 MiB cap is refused up front with 413 — the
        // server never tries to buffer it.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(timeout)).unwrap();
        stream
            .write_all(b"POST /metrics HTTP/1.1\r\nContent-Length: 1048577\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        assert!(response.starts_with("HTTP/1.1 413"), "got {response:?}");

        // A connect-then-slam client leaves the server serving.
        drop(TcpStream::connect(addr).unwrap());
        let (code, _) = http_get(&addr.to_string(), "/metrics", timeout).unwrap();
        assert_eq!(code, 200);
    }

    #[test]
    fn parser_reads_content_length_bodies() {
        // A one-connection echo fixture for the shared parser.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let parsed = read_http_request(&mut stream).unwrap();
            let ParsedRequest::Request(request) = parsed else {
                panic!("want a request, got {parsed:?}");
            };
            write_http_response(
                &mut stream,
                "200 OK",
                "application/octet-stream",
                &request.body,
            );
            request
        });
        // Body split across writes: the parser must keep reading past the
        // head until Content-Length bytes arrived.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /runs?priority=2 HTTP/1.1\r\nContent-Length: 11\r\n\r\nhello")
            .unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
        stream.write_all(b" world").unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        let request = server.join().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/runs");
        assert_eq!(request.query.as_deref(), Some("priority=2"));
        assert_eq!(request.body, b"hello world");
        assert!(response.ends_with(b"hello world"));
    }

    #[test]
    fn stop_wakes_a_loop_bound_to_the_unspecified_address() {
        let obs = Arc::new(ObsSink::default());
        let telemetry = Telemetry::new(Arc::clone(&obs) as Arc<dyn Sink>);
        let mut server = StatusServer::start("0.0.0.0:0", telemetry, obs).unwrap();
        let port = server.addr().port();
        // The blocked loop still serves, and stop reaches it through
        // loopback and joins it.
        let (code, _) = http_get(&format!("127.0.0.1:{port}"), "/status", SOCKET_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        server.stop();
        assert!(server.accept_thread.is_none());
        assert!(TcpStream::connect_timeout(
            &([127, 0, 0, 1], port).into(),
            Duration::from_millis(500)
        )
        .is_err());
    }

    #[test]
    fn stop_terminates_the_accept_loop() {
        let (mut server, _telemetry, _obs) = test_server();
        let addr = server.addr();
        server.stop();
        server.stop(); // idempotent
                       // The listener is closed: new connections are refused (or reset).
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
    }
}
