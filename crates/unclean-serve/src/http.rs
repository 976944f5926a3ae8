//! A deliberately minimal HTTP/1.x layer: an incremental, buffer-based
//! request parser and a response serializer. No chunked encoding, no
//! async — but unlike the v1 close-per-request protocol, HTTP/1.1
//! keep-alive and pipelining are first-class: [`parse_request`] consumes
//! complete requests off a growing byte buffer (returning how many bytes
//! each used, so several pipelined requests parse out of one read), and
//! [`write_response`] serializes into an output buffer that a
//! nonblocking event loop flushes when the socket allows.
//!
//! Version handling follows the satellite contract: HTTP/1.0 and
//! HTTP/1.1 are both accepted and echoed back; a request line with *no*
//! version token is treated as HTTP/1.0 (the old parser's behavior);
//! anything else (HTTP/0.9, HTTP/2, garbage) is
//! [`HttpError::UnsupportedVersion`], which the server answers with 505.
//! Header names *and* the `Connection` token values are matched
//! case-insensitively (`connection: Keep-Alive` works).
//!
//! The blocking one-shot helpers [`read_request`] / [`respond`] keep the
//! old read-one-answer-one-close discipline: the non-unix fallback
//! server reads with the first, and the event loop answers an over-cap
//! connection's `503` with the second.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Cap on `Content-Length`; batches beyond this are a client error.
pub const MAX_BODY_BYTES: usize = 4 << 20;

/// Cap on the request line + headers, against slow-loris style garbage.
pub const MAX_HEAD_BYTES: usize = 16 << 10;

/// The HTTP versions the daemon speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// HTTP/1.0 — close by default, keep-alive opt-in.
    Http10,
    /// HTTP/1.1 — keep-alive by default, close opt-in.
    Http11,
}

impl Version {
    /// The protocol token echoed in the status line.
    pub fn token(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// The path component of the target, e.g. `/lookup`.
    pub path: String,
    /// The raw query string (without `?`), empty when absent.
    pub query: String,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// The request's HTTP version (no token on the request line parses
    /// as 1.0).
    pub version: Version,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 unless `Connection: close`; HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// The value of a `key=value` query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Why a buffer failed to parse as a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Syntactically broken head — the connection is unrecoverable
    /// (byte boundaries are lost), answer 400 and close.
    Malformed(String),
    /// A well-formed request line naming a version the daemon does not
    /// speak — answer 505 and close.
    UnsupportedVersion(String),
    /// Head or declared body beyond the caps — answer 431/413-ish (the
    /// server uses 400) and close.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported http version {v:?}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Outcome of one [`parse_request`] call over the buffered bytes.
#[derive(Debug)]
pub enum Parse {
    /// No complete request in the buffer yet — read more.
    Partial,
    /// One request parsed; `.1` is how many buffer bytes it consumed
    /// (drain them, then try again: pipelined requests queue behind).
    Complete(Request, usize),
}

/// Byte index just past the `\r\n\r\n` (or bare `\n\n`) head terminator.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] == b'\n' {
            match buf.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Try to parse one complete request from the front of `buf`.
///
/// Returns [`Parse::Partial`] until the head terminator *and* the full
/// declared body are buffered; errors are terminal for the connection.
/// Tolerates bare-`\n` line endings (the old reader did). The head is
/// checked on borrowed text and nothing is allocated until the whole
/// request is buffered, so a body arriving in many small reads costs no
/// more than one that arrives at once.
pub fn parse_request(buf: &[u8]) -> Result<Parse, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("request head exceeds cap".into()));
        }
        return Ok(Parse::Partial);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge("request head exceeds cap".into()));
    }
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not utf-8".into()))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    if !target.starts_with('/') {
        return Err(HttpError::Malformed(format!(
            "bad request target {target:?}"
        )));
    }
    let version = match parts.next() {
        // The old parser never required a version token; keep treating
        // its absence as 1.0.
        None => Version::Http10,
        Some(tok) if tok.eq_ignore_ascii_case("HTTP/1.0") => Version::Http10,
        Some(tok) if tok.eq_ignore_ascii_case("HTTP/1.1") => Version::Http11,
        Some(tok) => return Err(HttpError::UnsupportedVersion(tok.to_string())),
    };
    let mut content_length = 0usize;
    let mut keep_alive = version == Version::Http11;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge(format!(
                    "body of {content_length} bytes exceeds cap"
                )));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list, each token case-insensitive: "Keep-Alive",
            // "close", "close, TE", ...
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }

    let total = head_end + content_length;
    if buf.len() < total {
        return Ok(Parse::Partial);
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok(Parse::Complete(
        Request {
            method: method.to_ascii_uppercase(),
            path: path.to_string(),
            query: query.to_string(),
            body: buf[head_end..total].to_vec(),
            version,
            keep_alive,
        },
        total,
    ))
}

/// Serialize one response into `out`. The status line echoes `version`;
/// the `Connection` header states whether the server will keep the
/// connection open (the event loop must act accordingly).
pub fn write_response(
    out: &mut Vec<u8>,
    version: Version,
    status: u16,
    reason: &str,
    content_type: &str,
    keep_alive: bool,
    body: &[u8],
) {
    use std::io::Write as _;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Writing into a Vec cannot fail.
    let _ = write!(
        out,
        "{} {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {connection}\r\n\r\n",
        version.token(),
        body.len()
    );
    out.extend_from_slice(body);
}

fn io_invalid(e: HttpError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// Read and parse one request, blocking. Honors the stream's read
/// timeout; enforces the head and body caps. The one-shot sibling of
/// [`parse_request`] for the non-unix fallback server; the event loop
/// parses its own buffers.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    loop {
        match parse_request(&buf).map_err(io_invalid)? {
            Parse::Complete(req, _) => return Ok(req),
            Parse::Partial => {}
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Write one HTTP/1.0 `Connection: close` response and flush — the
/// close-per-request sibling of [`write_response`], for consumers of
/// [`read_request`]. The connection is then done.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(128 + body.len());
    write_response(
        &mut out,
        Version::Http10,
        status,
        reason,
        content_type,
        false,
        body,
    );
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Round-trip helper: write `raw` into a socket, parse it server-side.
    fn parse_raw(raw: &[u8]) -> std::io::Result<Request> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            c.write_all(&raw).expect("write");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let req = read_request(&mut stream);
        writer.join().expect("writer");
        req
    }

    /// Parse from a buffer, expecting completion.
    fn parse_buf(raw: &[u8]) -> Result<(Request, usize), HttpError> {
        match parse_request(raw)? {
            Parse::Complete(req, used) => Ok((req, used)),
            Parse::Partial => panic!("unexpectedly partial"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse_raw(b"GET /lookup?ip=9.1.1.7&x=2 HTTP/1.0\r\nHost: h\r\n\r\n").expect("ok");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/lookup");
        assert_eq!(req.query_param("ip"), Some("9.1.1.7"));
        assert_eq!(req.query_param("x"), Some("2"));
        assert_eq!(req.query_param("missing"), None);
        assert!(req.body.is_empty());
        assert_eq!(req.version, Version::Http10);
        assert!(!req.keep_alive, "1.0 defaults to close");
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_raw(b"POST /batch HTTP/1.0\r\nContent-Length: 8\r\n\r\n9.1.1.7\n").expect("ok");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/batch");
        assert_eq!(req.body, b"9.1.1.7\n");
    }

    #[test]
    fn http11_defaults_to_keep_alive_and_echoes_version() {
        let (req, _) =
            parse_buf(b"GET /lookup?ip=1.2.3.4 HTTP/1.1\r\nHost: h\r\n\r\n").expect("ok");
        assert_eq!(req.version, Version::Http11);
        assert!(req.keep_alive, "1.1 defaults to keep-alive");

        let (req, _) =
            parse_buf(b"GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").expect("close variant");
        assert!(!req.keep_alive, "explicit close wins on 1.1");
    }

    #[test]
    fn header_case_variance_is_tolerated() {
        // The satellite case verbatim: lowercase name, mixed-case token.
        let (req, _) = parse_buf(b"GET / HTTP/1.0\r\nconnection: Keep-Alive\r\n\r\n").expect("ok");
        assert_eq!(req.version, Version::Http10);
        assert!(req.keep_alive, "1.0 + keep-alive token stays open");

        let (req, _) = parse_buf(b"POST /b HTTP/1.1\r\nCONTENT-LENGTH: 2\r\n\r\nhi").expect("ok");
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn missing_version_token_parses_as_http10() {
        let (req, _) = parse_buf(b"GET /healthz\r\n\r\n").expect("ok");
        assert_eq!(req.version, Version::Http10);
        assert!(!req.keep_alive);
    }

    #[test]
    fn genuinely_unsupported_versions_error() {
        for raw in [
            b"GET / HTTP/2.0\r\n\r\n".as_slice(),
            b"GET / HTTP/0.9\r\n\r\n".as_slice(),
        ] {
            assert!(
                matches!(parse_request(raw), Err(HttpError::UnsupportedVersion(_))),
                "{raw:?}"
            );
        }
        // ... but case variance on a supported token is fine.
        let (req, _) = parse_buf(b"GET / http/1.1\r\n\r\n").expect("ok");
        assert_eq!(req.version, Version::Http11);
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyzGET /c HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, used1) = parse_buf(raw).expect("first");
        assert_eq!(first.path, "/a");
        let (second, used2) = parse_buf(&raw[used1..]).expect("second");
        assert_eq!(second.path, "/b");
        assert_eq!(second.body, b"xyz");
        let (third, used3) = parse_buf(&raw[used1 + used2..]).expect("third");
        assert_eq!(third.path, "/c");
        assert!(!third.keep_alive);
        assert_eq!(used1 + used2 + used3, raw.len(), "all bytes consumed");
    }

    #[test]
    fn partial_heads_and_bodies_ask_for_more() {
        assert!(matches!(parse_request(b""), Ok(Parse::Partial)));
        assert!(matches!(
            parse_request(b"GET /lookup HTTP/1.1\r\nHos"),
            Ok(Parse::Partial)
        ));
        assert!(matches!(
            parse_request(b"POST /b HTTP/1.1\r\nContent-Length: 10\r\n\r\n12345"),
            Ok(Parse::Partial),
        ));
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(parse_raw(b"\r\n\r\n").is_err(), "empty request line");
        assert!(parse_raw(b"GET\r\n\r\n").is_err(), "missing target");
        assert!(
            parse_raw(b"GET lookup HTTP/1.0\r\n\r\n").is_err(),
            "relative target"
        );
        assert!(
            parse_raw(b"POST /b HTTP/1.0\r\nContent-Length: oops\r\n\r\n").is_err(),
            "bad content-length"
        );
        assert!(
            parse_raw(
                format!("POST /b HTTP/1.0\r\nContent-Length: {}\r\n\r\n", 5 << 20).as_bytes()
            )
            .is_err(),
            "body cap"
        );
    }

    #[test]
    fn response_is_well_formed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let reader = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).expect("connect");
            let mut text = String::new();
            c.read_to_string(&mut text).expect("read");
            text
        });
        let (mut stream, _) = listener.accept().expect("accept");
        respond(&mut stream, 200, "OK", "text/plain", b"ok\n").expect("respond");
        drop(stream);
        let text = reader.join().expect("reader");
        assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    #[test]
    fn serializer_echoes_version_and_connection() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            Version::Http11,
            200,
            "OK",
            "application/octet-stream",
            true,
            b"\x01\x02",
        );
        let text = String::from_utf8_lossy(&out);
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
    }
}
