//! A deliberately minimal HTTP/1.1 subset over `std::io` streams.
//!
//! The serving layer needs exactly enough HTTP to be reachable from
//! `curl`, browsers, and load generators: request-line + headers +
//! `Content-Length` bodies in, status + headers + body out, with
//! keep-alive connection reuse. Chunked transfer encoding, multipart,
//! compression, and TLS are out of scope — a production deployment
//! would sit this behind a terminating proxy. Parsing is hardened the
//! boring way: hard caps on request-line, header, and body sizes, and
//! every malformed input is a typed error the server maps to a 4xx
//! response instead of a panic.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line plus all headers (16 KiB).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Largest up-front reservation for a request body (64 KiB); longer
/// bodies grow as their bytes arrive.
const MAX_BODY_RESERVE: usize = 64 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The request target path, e.g. `/synopses/foo/query`.
    pub target: String,
    /// Header `(name, value)` pairs in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The bytes were not a well-formed request (maps to 400).
    Malformed(String),
    /// A size cap was exceeded (maps to 413).
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

fn read_line_capped<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            if line.is_empty() {
                return Err(HttpError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                )));
            }
            break;
        }
        let stop = available.iter().position(|&b| b == b'\n');
        let take = stop.map_or(available.len(), |p| p + 1);
        if take > *budget {
            return Err(HttpError::TooLarge(format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        *budget -= take;
        line.extend_from_slice(&available[..take]);
        r.consume(take);
        if stop.is_some() {
            break;
        }
    }
    while matches!(line.last(), Some(b'\n') | Some(b'\r')) {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))
}

/// Reads one request from the stream. Returns `Ok(None)` when the peer
/// closed the connection cleanly between requests (normal keep-alive
/// teardown). `max_body` caps the accepted `Content-Length`.
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<Option<Request>, HttpError> {
    // A clean close shows up as EOF before any request byte.
    if r.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line_capped(r, &mut budget)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line_capped(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send Content-Length".into(),
        ));
    }
    // Reject duplicate Content-Length headers outright (RFC 9112):
    // picking either value would let a front proxy that honors the
    // other one smuggle a second request through this connection.
    let mut lengths = request
        .headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str());
    let body_len = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(HttpError::Malformed(
                "conflicting Content-Length headers".into(),
            ))
        }
        (Some(v), None) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{v}`")))?,
    };
    if body_len > max_body {
        return Err(HttpError::TooLarge(format!(
            "body of {body_len} bytes exceeds the {max_body}-byte limit"
        )));
    }
    // Reserve at most `MAX_BODY_RESERVE` up front and grow as bytes
    // arrive, so memory follows the bytes received, not the length a
    // client declares.
    let mut body = Vec::with_capacity(body_len.min(MAX_BODY_RESERVE));
    r.take(body_len as u64).read_to_end(&mut body)?;
    if body.len() < body_len {
        return Err(HttpError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("body ended after {} of {body_len} bytes", body.len()),
        )));
    }
    Ok(Some(Request { body, ..request }))
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response. JSON in, JSON out: every body this server
/// produces is `application/json`.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    w.write_all(body.as_bytes())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /synopses/t HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/synopses/t");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"body");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none_but_truncation_is_an_error() {
        assert!(parse("").unwrap().is_none());
        // A head truncated mid-line is malformed (the partial line has
        // no colon), not a clean close.
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn malformed_heads_are_typed_errors() {
        for raw in [
            "NOT-A-REQUEST\r\n\r\n",
            "GET /x HTTP/2\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello",
            "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpError::Malformed(_))),
                "{raw:?} must be malformed"
            );
        }
    }

    #[test]
    fn size_caps_are_enforced() {
        assert!(matches!(
            parse("GET /x HTTP/1.1\r\nContent-Length: 99999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        let huge_header = format!(
            "GET /x HTTP/1.1\r\nh: {}\r\n\r\n",
            "v".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge_header), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn declared_length_is_not_reserved_before_the_bytes_arrive() {
        // 1 TiB declared under a 1 TiB cap, 10 bytes sent: a short body,
        // not an attempt to allocate what the client claimed.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 1099511627776\r\n\r\n0123456789";
        let got = read_request(&mut BufReader::new(&raw[..]), 1 << 40);
        assert!(matches!(got, Err(HttpError::Io(_))));
    }

    #[test]
    fn a_body_arriving_one_byte_per_read_is_assembled_exactly() {
        struct Trickle<'a>(&'a [u8]);
        impl std::io::Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let Some((&first, rest)) = self.0.split_first() else {
                    return Ok(0);
                };
                match buf.first_mut() {
                    Some(slot) => *slot = first,
                    None => return Ok(0),
                }
                self.0 = rest;
                Ok(1)
            }
        }
        // Longer than the up-front reservation, so the body must grow.
        let body: Vec<u8> = (0..MAX_BODY_RESERVE + 1000)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let mut raw =
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).into_bytes();
        raw.extend_from_slice(&body);
        let req = read_request(&mut BufReader::new(Trickle(&raw)), 1 << 20)
            .unwrap()
            .unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.wants_close());
    }

    #[test]
    fn every_status_the_server_writes_has_a_reason_phrase() {
        use crate::error::ServeError;
        let errors = [
            ServeError::BadRequest(String::new()),
            ServeError::UnknownSynopsis(String::new()),
            ServeError::NoSuchRoute(String::new()),
            ServeError::MethodNotAllowed {
                path: String::new(),
                allowed: "GET",
            },
            ServeError::TooLarge(String::new()),
            ServeError::Conflict(String::new()),
            ServeError::BudgetExhausted(String::new()),
        ];
        // 200 answers a routed request; 400 and 413 are what the
        // connection loop writes for a malformed or oversized request.
        for status in errors.iter().map(ServeError::status).chain([200, 400, 413]) {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
    }

    #[test]
    fn responses_are_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
