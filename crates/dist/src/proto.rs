//! The `GESTDST1` wire protocol: length-prefixed binary frames.
//!
//! Every frame on the wire is `[u32 LE payload length][payload]`, where
//! the payload starts with a one-byte frame kind followed by
//! kind-specific fields in [`gest_isa::codec`] encoding. Genes travel in
//! their canonical codec form ([`Encoder::genes`]), the same bytes
//! [`gest_core::genes_hash`] hashes — so a worker's cache key for a
//! candidate is derived from exactly the content the coordinator
//! addressed it by.
//!
//! A session is: `Hello` exchange (magic + protocol version, catching
//! version skew before anything else is parsed), `Config` →
//! [`Frame::ConfigAck`] (the worker re-renders the parsed configuration
//! and fingerprints the re-render, catching schema skew that survives a
//! byte-equal protocol version), then any number of `EvalRequest` →
//! `EvalResult` pairs interleaved with worker→coordinator `Heartbeat`
//! frames, ended by `Shutdown` or connection close.
//!
//! Versions are *negotiated*, not matched: each side sends the highest
//! version it speaks, the worker echoes `min(coordinator, worker)`, and
//! both sides then speak that session version. Version 2 adds
//! [`Frame::EvalResultV2`], which carries worker-side measure timing and
//! local-cache statistics back with each result so the coordinator can
//! merge one fleet-wide trace; a v1 peer on either end keeps the session
//! at v1 with the original result frame. The extra v2 fields are
//! observability-only — the measurement vector is identical either way,
//! so artifact bytes never depend on the negotiated version.

use gest_isa::codec::{Decoder, Encoder};
use gest_isa::{CodecError, Gene};
use std::io::{self, Read, Write};

/// Protocol magic carried in the `Hello` frame.
pub const MAGIC: &[u8; 8] = b"GESTDST1";

/// Highest protocol version this build speaks; bump on any wire-format
/// change.
pub const PROTOCOL_VERSION: u32 = 2;

/// Oldest protocol version this build still accepts from a peer.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// `min(peer, ours)` when the peer is acceptable: the session version
/// both sides speak.
pub fn negotiate_version(peer: u32) -> Option<u32> {
    (peer >= MIN_PROTOCOL_VERSION).then(|| peer.min(PROTOCOL_VERSION))
}

/// Upper bound on a frame payload, guarding against garbage lengths from
/// a confused peer (a population's genes are a few KiB; configs < 1 MiB).
pub const MAX_FRAME: u32 = 8 << 20;

/// A transport or protocol failure.
#[derive(Debug)]
pub enum DistError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The peer spoke, but not this protocol (bad magic, unknown frame
    /// kind, malformed payload, version or fingerprint mismatch).
    Protocol(String),
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist i/o: {e}"),
            DistError::Protocol(message) => write!(f, "dist protocol: {message}"),
        }
    }
}

impl std::error::Error for DistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistError::Io(e) => Some(e),
            DistError::Protocol(_) => None,
        }
    }
}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> DistError {
        DistError::Io(e)
    }
}

impl From<CodecError> for DistError {
    fn from(e: CodecError) -> DistError {
        DistError::Protocol(format!("malformed frame: {e}"))
    }
}

impl From<DistError> for gest_core::GestError {
    fn from(e: DistError) -> gest_core::GestError {
        match e {
            DistError::Io(e) => gest_core::GestError::Io(e),
            DistError::Protocol(message) => gest_core::GestError::Config(message),
        }
    }
}

impl DistError {
    /// Whether this is a clean end-of-stream (peer closed between
    /// frames), as opposed to a mid-frame truncation or protocol error.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, DistError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof)
    }

    /// Whether this is a socket read timeout (peer still connected but
    /// silent past the deadline).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            DistError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener, sent by both sides; carries [`MAGIC`] and
    /// [`PROTOCOL_VERSION`] so incompatible peers fail before any other
    /// payload is interpreted.
    Hello {
        /// The sender's protocol version.
        version: u32,
    },
    /// Coordinator → worker: the run's canonical `config.xml` rendering.
    Config {
        /// Exact XML string; the worker parses and re-renders it.
        xml: String,
    },
    /// Worker → coordinator: configuration accepted.
    ConfigAck {
        /// `config_fingerprint` of the worker's *re-rendering* of the
        /// parsed configuration. Equal to the coordinator's fingerprint
        /// only when both sides agree on the full schema.
        fingerprint: u64,
        /// The worker's host name, for telemetry.
        host: String,
    },
    /// Coordinator → worker: measure one candidate.
    EvalRequest {
        /// Generation index (program naming only; not part of content).
        generation: u32,
        /// Candidate id within the run.
        candidate: u64,
        /// The candidate's genes, canonically encoded.
        genes: Vec<Gene>,
    },
    /// Worker → coordinator: the measurement outcome for one candidate.
    EvalResult {
        /// Candidate id echoed from the request.
        candidate: u64,
        /// The measurement vector, or the failure message (measurement
        /// errors and contained panics both arrive here).
        outcome: Result<Vec<f64>, String>,
    },
    /// Worker → coordinator (protocol ≥ 2): the measurement outcome plus
    /// worker-side observability. Carries the same `outcome` a v1
    /// `EvalResult` would — the extra fields feed the coordinator's
    /// merged fleet trace and never influence the result itself.
    EvalResultV2 {
        /// Candidate id echoed from the request.
        candidate: u64,
        /// The measurement vector, or the failure message.
        outcome: Result<Vec<f64>, String>,
        /// Wall-clock microseconds the worker spent producing the
        /// outcome (cache lookup through measurement return).
        measure_us: u64,
        /// Whether the outcome came from the worker-local eval cache.
        cache_hit: bool,
        /// Worker-local cache hits across this session so far.
        cache_hits: u64,
        /// Worker-local cache misses across this session so far.
        cache_misses: u64,
    },
    /// Worker → coordinator liveness signal while a measurement runs.
    Heartbeat,
    /// Coordinator → worker: end the session cleanly.
    Shutdown,
    /// Either side: fatal session error with a human-readable reason.
    Error {
        /// What went wrong.
        message: String,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_CONFIG: u8 = 2;
const KIND_CONFIG_ACK: u8 = 3;
const KIND_EVAL_REQUEST: u8 = 4;
const KIND_EVAL_RESULT: u8 = 5;
const KIND_HEARTBEAT: u8 = 6;
const KIND_SHUTDOWN: u8 = 7;
const KIND_ERROR: u8 = 8;
const KIND_EVAL_RESULT_V2: u8 = 9;

impl Frame {
    /// A `Hello` frame for this build's protocol version.
    pub fn hello() -> Frame {
        Frame::Hello {
            version: PROTOCOL_VERSION,
        }
    }

    /// Serializes the frame into its payload bytes (without the length
    /// prefix). Public so fault-injection harnesses and fuzzers can
    /// construct wire bytes directly.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Frame::Hello { version } => {
                enc.u8(KIND_HELLO).bytes(MAGIC).u32(*version);
            }
            Frame::Config { xml } => {
                enc.u8(KIND_CONFIG).str(xml);
            }
            Frame::ConfigAck { fingerprint, host } => {
                enc.u8(KIND_CONFIG_ACK).u64(*fingerprint).str(host);
            }
            Frame::EvalRequest {
                generation,
                candidate,
                genes,
            } => {
                enc.u8(KIND_EVAL_REQUEST)
                    .u32(*generation)
                    .u64(*candidate)
                    .genes(genes);
            }
            Frame::EvalResult { candidate, outcome } => {
                enc.u8(KIND_EVAL_RESULT).u64(*candidate);
                encode_outcome(&mut enc, outcome);
            }
            Frame::EvalResultV2 {
                candidate,
                outcome,
                measure_us,
                cache_hit,
                cache_hits,
                cache_misses,
            } => {
                enc.u8(KIND_EVAL_RESULT_V2).u64(*candidate);
                encode_outcome(&mut enc, outcome);
                enc.u64(*measure_us)
                    .u8(u8::from(*cache_hit))
                    .varint(*cache_hits)
                    .varint(*cache_misses);
            }
            Frame::Heartbeat => {
                enc.u8(KIND_HEARTBEAT);
            }
            Frame::Shutdown => {
                enc.u8(KIND_SHUTDOWN);
            }
            Frame::Error { message } => {
                enc.u8(KIND_ERROR).str(message);
            }
        }
        enc.into_bytes()
    }

    /// Parses one payload (without the length prefix) into a frame.
    /// Total: arbitrary bytes must produce [`DistError::Protocol`], never
    /// a panic or an unbounded allocation (fuzzed by the dist proptests).
    ///
    /// # Errors
    ///
    /// [`DistError::Protocol`] for unknown kinds, malformed fields, bad
    /// magic, or trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Frame, DistError> {
        let mut dec = Decoder::new(payload);
        let frame = match dec.u8()? {
            KIND_HELLO => {
                let magic = dec.bytes()?;
                if magic != MAGIC.as_slice() {
                    return Err(DistError::Protocol(format!(
                        "bad magic {magic:?}: peer is not a GeST dist endpoint"
                    )));
                }
                Frame::Hello {
                    version: dec.u32()?,
                }
            }
            KIND_CONFIG => Frame::Config {
                xml: dec.str()?.to_string(),
            },
            KIND_CONFIG_ACK => Frame::ConfigAck {
                fingerprint: dec.u64()?,
                host: dec.str()?.to_string(),
            },
            KIND_EVAL_REQUEST => {
                let generation = dec.u32()?;
                let candidate = dec.u64()?;
                let genes = decode_genes(&mut dec)?;
                Frame::EvalRequest {
                    generation,
                    candidate,
                    genes,
                }
            }
            KIND_EVAL_RESULT => {
                let candidate = dec.u64()?;
                let outcome = decode_outcome(&mut dec)?;
                Frame::EvalResult { candidate, outcome }
            }
            KIND_EVAL_RESULT_V2 => {
                let candidate = dec.u64()?;
                let outcome = decode_outcome(&mut dec)?;
                let measure_us = dec.u64()?;
                let cache_hit = match dec.u8()? {
                    0 => false,
                    1 => true,
                    tag => return Err(DistError::Protocol(format!("bad cache-hit flag {tag}"))),
                };
                Frame::EvalResultV2 {
                    candidate,
                    outcome,
                    measure_us,
                    cache_hit,
                    cache_hits: dec.varint()?,
                    cache_misses: dec.varint()?,
                }
            }
            KIND_HEARTBEAT => Frame::Heartbeat,
            KIND_SHUTDOWN => Frame::Shutdown,
            KIND_ERROR => Frame::Error {
                message: dec.str()?.to_string(),
            },
            kind => return Err(DistError::Protocol(format!("unknown frame kind {kind}"))),
        };
        if !dec.is_finished() {
            return Err(DistError::Protocol(format!(
                "{} trailing bytes after frame",
                dec.remaining()
            )));
        }
        Ok(frame)
    }
}

/// Encodes an eval outcome (shared by the v1 and v2 result frames):
/// tag 0 + measurement vector, or tag 1 + failure message.
fn encode_outcome(enc: &mut Encoder, outcome: &Result<Vec<f64>, String>) {
    match outcome {
        Ok(measurements) => {
            enc.u8(0).varint(measurements.len() as u64);
            for m in measurements {
                enc.f64(*m);
            }
        }
        Err(message) => {
            enc.u8(1).str(message);
        }
    }
}

fn decode_outcome(dec: &mut Decoder<'_>) -> Result<Result<Vec<f64>, String>, DistError> {
    match dec.u8()? {
        0 => {
            let count = dec.count(8, "measurements")?;
            let mut measurements = Vec::with_capacity(count);
            for _ in 0..count {
                measurements.push(dec.f64()?);
            }
            Ok(Ok(measurements))
        }
        1 => Ok(Err(dec.str()?.to_string())),
        tag => Err(DistError::Protocol(format!(
            "unknown eval-result tag {tag}"
        ))),
    }
}

fn decode_genes(dec: &mut Decoder<'_>) -> Result<Vec<Gene>, DistError> {
    // A gene is at least its definition index and instruction count.
    let count = dec.count(2, "genes")?;
    let mut genes = Vec::with_capacity(count);
    for _ in 0..count {
        let def_index = dec.varint()? as usize;
        let instrs = dec.instructions()?;
        genes.push(Gene { def_index, instrs });
    }
    Ok(genes)
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// # Errors
///
/// Socket write failures.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> Result<(), DistError> {
    let payload = frame.encode();
    debug_assert!(payload.len() as u32 <= MAX_FRAME);
    writer.write_all(&(payload.len() as u32).to_le_bytes())?;
    writer.write_all(&payload)?;
    writer.flush()?;
    Ok(())
}

/// Reads one frame.
///
/// # Errors
///
/// Socket read failures (including timeouts; see
/// [`DistError::is_timeout`]), oversized lengths, and malformed payloads.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, DistError> {
    Frame::decode(&read_payload(reader)?)
}

/// Reads one frame's raw payload bytes (length prefix validated and
/// stripped) without decoding — the seam a [`TransportChaos`] hook sits
/// under: the caller can damage the payload before handing it to
/// [`Frame::decode`], exercising the real protocol error paths.
///
/// # Errors
///
/// Socket read failures and oversized/zero lengths.
pub fn read_payload(reader: &mut impl Read) -> Result<Vec<u8>, DistError> {
    let mut header = [0u8; 4];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len == 0 || len > MAX_FRAME {
        return Err(DistError::Protocol(format!(
            "frame length {len} outside 1..={MAX_FRAME}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

/// Fault-injection hook under the coordinator's framed reader.
///
/// Called once per received payload, before [`Frame::decode`]. The hook
/// may mutate the payload in place (garble a kind byte, truncate it), or
/// return a synthetic [`DistError`] to simulate a dropped frame or read
/// timeout; returning `None` leaves the payload untouched. Implementations
/// are expected to be deterministic given their seed — `gest-chaos` drives
/// this from a seeded schedule.
pub trait TransportChaos: Send + Sync + std::fmt::Debug {
    /// Inspect/damage one received payload; `Some(error)` replaces the
    /// read's outcome with `error`.
    fn on_receive(&self, payload: &mut Vec<u8>) -> Option<DistError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let decoded = read_frame(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(decoded, frame);
        decoded
    }

    #[test]
    fn all_frame_kinds_roundtrip() {
        roundtrip(Frame::hello());
        roundtrip(Frame::Config {
            xml: "<gest machine=\"cortex-a7\"/>".into(),
        });
        roundtrip(Frame::ConfigAck {
            fingerprint: 0xdead_beef_cafe_f00d,
            host: "board-03".into(),
        });
        let genes = vec![
            Gene {
                def_index: 2,
                instrs: gest_isa::asm::parse_block("ADD x1, x2, x3").unwrap(),
            },
            Gene {
                def_index: 0,
                instrs: gest_isa::asm::parse_block("MUL x4, x5, x6").unwrap(),
            },
        ];
        roundtrip(Frame::EvalRequest {
            generation: 7,
            candidate: 123,
            genes,
        });
        roundtrip(Frame::EvalResult {
            candidate: 123,
            outcome: Ok(vec![1.5, -2.25, 0.0]),
        });
        roundtrip(Frame::EvalResult {
            candidate: 9,
            outcome: Err("probe fell off".into()),
        });
        roundtrip(Frame::EvalResultV2 {
            candidate: 123,
            outcome: Ok(vec![1.5, -2.25]),
            measure_us: 4_200,
            cache_hit: true,
            cache_hits: 17,
            cache_misses: 3,
        });
        roundtrip(Frame::EvalResultV2 {
            candidate: 9,
            outcome: Err("probe fell off".into()),
            measure_us: 12,
            cache_hit: false,
            cache_hits: 0,
            cache_misses: 1,
        });
        roundtrip(Frame::Heartbeat);
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Error {
            message: "fingerprint mismatch".into(),
        });
    }

    #[test]
    fn eval_request_genes_encode_canonically() {
        // The wire bytes for genes must be the exact bytes genes_hash
        // hashes, so worker-side cache keys match content addressing.
        let genes = vec![Gene {
            def_index: 5,
            instrs: gest_isa::asm::parse_block("ADD x1, x2, x3").unwrap(),
        }];
        let mut enc = Encoder::new();
        enc.genes(&genes);
        let wire = enc.into_bytes();

        let mut reference = Encoder::new();
        reference.varint(genes.len() as u64);
        for gene in &genes {
            reference.varint(gene.def_index as u64);
            reference.instructions(&gene.instrs);
        }
        assert_eq!(wire, reference.into_bytes());

        let mut dec = Decoder::new(&wire);
        assert_eq!(decode_genes(&mut dec).unwrap(), genes);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(&oversized)).unwrap_err();
        assert!(matches!(err, DistError::Protocol(_)), "{err}");

        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::hello()).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, DistError::Io(_)), "{err}");

        let empty: &[u8] = &[];
        let err = read_frame(&mut Cursor::new(empty)).unwrap_err();
        assert!(err.is_clean_eof(), "{err}");
    }

    #[test]
    fn hello_rejects_wrong_magic() {
        let mut enc = Encoder::new();
        enc.u8(1).bytes(b"NOTGESTD").u32(PROTOCOL_VERSION);
        let payload = enc.into_bytes();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, DistError::Protocol(ref m) if m.contains("magic")),
            "{err}"
        );
    }

    #[test]
    fn version_negotiation_takes_the_minimum() {
        assert_eq!(negotiate_version(1), Some(1));
        assert_eq!(negotiate_version(PROTOCOL_VERSION), Some(PROTOCOL_VERSION));
        // A future peer downgrades to what we speak.
        assert_eq!(
            negotiate_version(PROTOCOL_VERSION + 5),
            Some(PROTOCOL_VERSION)
        );
        assert_eq!(negotiate_version(0), None);
    }

    #[test]
    fn v2_result_rejects_bad_cache_flag() {
        let frame = Frame::EvalResultV2 {
            candidate: 1,
            outcome: Ok(vec![]),
            measure_us: 0,
            cache_hit: false,
            cache_hits: 0,
            cache_misses: 0,
        };
        let mut payload = frame.encode();
        // The cache-hit flag sits right after the 8-byte measure_us;
        // flip it to something that is neither 0 nor 1.
        let flag_offset = payload.len() - 3;
        payload[flag_offset] = 7;
        let err = Frame::decode(&payload).unwrap_err();
        assert!(
            matches!(err, DistError::Protocol(ref m) if m.contains("cache-hit")),
            "{err}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Encoder::new();
        enc.u8(6).u8(0xff);
        let payload = enc.into_bytes();
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(&buf)).unwrap_err();
        assert!(
            matches!(err, DistError::Protocol(ref m) if m.contains("trailing")),
            "{err}"
        );
    }
}
