//! Property-based fuzzing of the HTTP request parser
//! ([`read_http_request`]) shared by `gest serve` and the status endpoint.
//! Arbitrary bytes, bit flips and truncations of valid requests, random
//! read sizes and injected I/O errors must never panic, and the verdict
//! must not depend on how the bytes are split across reads. Well-formed
//! requests give back their method, path, query and body; a head past
//! [`MAX_HEAD_BYTES`] is malformed and a declared body past
//! [`MAX_BODY_BYTES`] is too large, however the bytes arrive.

use gest_obs::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use gest_obs::{read_http_request, ParsedRequest};
use proptest::prelude::*;
use std::io::{self, Read};

/// A byte source that hands out `bytes` in reads of the given sizes
/// (cycled) and fails every read from byte `fail_at` on.
struct Chunked {
    bytes: Vec<u8>,
    sizes: Vec<usize>,
    reads: usize,
    position: usize,
    fail_at: Option<usize>,
}

impl Chunked {
    fn new(bytes: &[u8], sizes: &[usize]) -> Chunked {
        Chunked {
            bytes: bytes.to_vec(),
            sizes: sizes.to_vec(),
            reads: 0,
            position: 0,
            fail_at: None,
        }
    }

    fn failing_at(mut self, offset: usize) -> Chunked {
        self.fail_at = Some(offset);
        self
    }
}

impl Read for Chunked {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let end = self.fail_at.unwrap_or(usize::MAX).min(self.bytes.len());
        if self.fail_at.is_some_and(|at| self.position >= at) {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected"));
        }
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(out.len()).min(end - self.position);
        out[..n].copy_from_slice(&self.bytes[self.position..self.position + n]);
        self.position += n;
        Ok(n)
    }
}

/// The parser's verdict on `bytes` delivered in reads of `sizes`,
/// rendered for comparison.
fn parse(bytes: &[u8], sizes: &[usize]) -> String {
    format!("{:?}", read_http_request(&mut Chunked::new(bytes, sizes)))
}

/// Parses `bytes` whole and under `sizes`, and checks the two agree.
fn parse_chunking_invariant(bytes: &[u8], sizes: &[usize]) -> String {
    let whole = parse(bytes, &[usize::MAX]);
    assert_eq!(parse(bytes, sizes), whole, "reads of {sizes:?}");
    whole
}

fn sizes_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1..700usize, 1..8usize)
}

/// A well-formed request: method, path, optional query, extra headers
/// (never `Content-Length` or `Transfer-Encoding`) and a body.
#[derive(Debug, Clone)]
struct Wire {
    method: String,
    path: String,
    query: Option<String>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Wire {
    fn head(&self) -> String {
        let target = match &self.query {
            Some(query) => format!("{}?{query}", self.path),
            None => self.path.clone(),
        };
        let mut head = format!("{} {target} HTTP/1.1\r\n", self.method);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len()));
        head
    }

    fn bytes(&self) -> Vec<u8> {
        let mut bytes = self.head().into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

fn wire_strategy() -> impl Strategy<Value = Wire> {
    (
        prop::sample::select(vec!["GET", "POST", "DELETE", "PUT", "PATCH"]),
        prop::collection::vec("[a-z0-9_.-]{0,12}", 1..5usize),
        (any::<bool>(), "[a-z0-9=&%]{0,24}"),
        prop::collection::vec(("x-[a-z]{1,12}", "[ -~]{0,40}"), 0..6usize),
        prop::collection::vec(any::<u8>(), 0..1500usize),
    )
        .prop_map(
            |(method, segments, (has_query, query), headers, body)| Wire {
                method: method.to_string(),
                path: format!("/{}", segments.join("/")),
                query: has_query.then_some(query),
                headers,
                body,
            },
        )
}

/// A `GET` whose head is exactly `head_len` bytes long, padded by one
/// filler header.
fn padded_head(head_len: usize) -> Vec<u8> {
    let prefix = "GET /status HTTP/1.1\r\nX-Filler: ";
    let suffix = "\r\n\r\n";
    let filler = "a".repeat(head_len - prefix.len() - suffix.len());
    format!("{prefix}{filler}{suffix}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        noise in prop::collection::vec(any::<u8>(), 0..2000usize),
        sizes in sizes_strategy(),
    ) {
        parse_chunking_invariant(&noise, &sizes);
        // With a terminator the bytes after it are read as a body.
        let mut framed = noise.clone();
        framed.splice(noise.len() / 2..noise.len() / 2, *b"\r\n\r\n");
        parse_chunking_invariant(&framed, &sizes);
    }

    #[test]
    fn bit_flips_and_truncations_never_panic(
        wire in wire_strategy(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..4usize),
        cut in any::<usize>(),
        sizes in sizes_strategy(),
    ) {
        let bytes = wire.bytes();
        let mut flipped = bytes.clone();
        for &(position, bit) in &flips {
            let position = position % flipped.len();
            flipped[position] ^= 1 << (bit % 8);
        }
        parse_chunking_invariant(&flipped, &sizes);
        let truncated = &bytes[..cut % bytes.len()];
        let verdict = parse_chunking_invariant(truncated, &sizes);
        // A cut inside the body leaves it short of its Content-Length.
        if truncated.len() > wire.head().len() {
            prop_assert_eq!(verdict, "Some(Malformed)");
        }
    }

    #[test]
    fn injected_io_errors_drop_the_connection(
        wire in wire_strategy(),
        noise in prop::collection::vec(any::<u8>(), 0..600usize),
        fail_at in any::<usize>(),
        sizes in sizes_strategy(),
    ) {
        // Arbitrary input with a failing source never panics.
        let fail_noise = fail_at % (noise.len() + 1);
        let _ = read_http_request(&mut Chunked::new(&noise, &sizes).failing_at(fail_noise));
        // A failure before the request's last byte always drops it.
        let bytes = wire.bytes();
        let fail_at = fail_at % bytes.len();
        let mut source = Chunked::new(&bytes, &sizes).failing_at(fail_at);
        prop_assert!(read_http_request(&mut source).is_none());
    }

    #[test]
    fn well_formed_requests_round_trip_under_any_chunking(
        wire in wire_strategy(),
        sizes in sizes_strategy(),
    ) {
        let parsed = read_http_request(&mut Chunked::new(&wire.bytes(), &sizes));
        let Some(ParsedRequest::Request(request)) = parsed else {
            panic!("want a request, got {parsed:?}");
        };
        prop_assert_eq!(request.method, wire.method);
        prop_assert_eq!(request.path, wire.path);
        prop_assert_eq!(request.query, wire.query);
        prop_assert_eq!(request.body, wire.body);
    }

    #[test]
    fn the_head_cap_holds_under_any_chunking(
        over in 1..2000usize,
        under in 0..500usize,
        body in prop::collection::vec(any::<u8>(), 0..600usize),
        sizes in sizes_strategy(),
    ) {
        let mut over_cap = padded_head(MAX_HEAD_BYTES + over);
        over_cap.extend_from_slice(&body);
        let verdict = parse(&over_cap, &sizes);
        prop_assert_eq!(verdict, "Some(Malformed)");
        let at_cap = padded_head(MAX_HEAD_BYTES - under);
        let parsed = read_http_request(&mut Chunked::new(&at_cap, &sizes));
        prop_assert!(matches!(parsed, Some(ParsedRequest::Request(_))), "{parsed:?}");
    }

    #[test]
    fn an_oversized_content_length_is_too_large_under_any_chunking(
        excess in 1..=u32::MAX as usize,
        sizes in sizes_strategy(),
    ) {
        let request = format!(
            "POST /runs HTTP/1.1\r\nContent-Length: {}\r\n\r\nsome of the body",
            MAX_BODY_BYTES + excess
        );
        let verdict = parse(request.as_bytes(), &sizes);
        prop_assert_eq!(verdict, "Some(TooLarge)");
    }
}

/// An 8,250-byte head that arrives as 100 bytes and then the rest used to
/// parse: the cap was checked only before each read, so the read that
/// crossed it and also completed the head was never checked.
#[test]
fn a_split_over_cap_head_is_malformed() {
    let head = padded_head(8_250);
    assert!(head.len() > MAX_HEAD_BYTES);
    for sizes in [&[100, usize::MAX][..], &[usize::MAX], &[1]] {
        let parsed = read_http_request(&mut Chunked::new(&head, sizes));
        assert!(
            matches!(parsed, Some(ParsedRequest::Malformed)),
            "reads of {sizes:?}: {parsed:?}"
        );
    }
}
