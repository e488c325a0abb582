//! A hand-rolled HTTP/1.1 subset: exactly what the derivation API needs.
//!
//! The build environment resolves no crates registry, so hyper/tokio are
//! off the table (see DESIGN.md); this module implements the slice of
//! RFC 9112 the service actually speaks — one request per connection
//! (`Connection: close`), `Content-Length` bodies only (no chunked
//! transfer coding), bounded header and body sizes, and read timeouts so
//! a stalled client can never wedge a worker. The same constraints make
//! the parser small enough to test exhaustively.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers (16 KiB — generous for an
/// API whose richest request is a few short header lines).
pub const MAX_HEAD: usize = 16 * 1024;

/// Default upper bound on request bodies (4 MiB — a schema text plus a
/// request fleet fits with room to spare).
pub const DEFAULT_MAX_BODY: usize = 4 * 1024 * 1024;

/// How long a worker waits on a socket read before giving up on the
/// client.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `PUT`, …).
    pub method: String,
    /// Decoded path without the query string (`/v1/project`).
    pub path: String,
    /// The raw query string (empty when absent), e.g. `format=json`.
    pub query: String,
    /// The raw `traceparent` header value, when the client sent one
    /// (either the full `00-…-…-01` form or a bare 32-hex trace id).
    pub trace: Option<String>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// The value of query parameter `key`, if present (`a=b&c=d` form; no
    /// percent-decoding — the API's parameter values never need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read. Each variant maps onto the HTTP
/// status the connection handler answers with.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request (→ 400).
    Malformed(String),
    /// Declared body length exceeds the configured bound (→ 413).
    BodyTooLarge(usize),
    /// The socket failed or timed out mid-request (no response possible).
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::BodyTooLarge(n) => write!(f, "request body of {n} bytes exceeds the limit"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Reads and parses one HTTP/1.1 request from `stream`.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Read until the blank line ending the head, keeping any body bytes
    // that rode along in the same segments.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD {
            return Err(HttpError::Malformed("request head too large".into()));
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(HttpError::Malformed(
                    "connection closed before the request head ended".into(),
                ))
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::Io(e)),
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::Malformed(format!(
                "bad request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version `{version}`")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut content_length = 0usize;
    let mut trace = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line `{line}`")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad Content-Length `{value}`")))?;
        } else if name.eq_ignore_ascii_case("traceparent") {
            trace = Some(value.trim().to_string());
        }
    }
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge(content_length));
    }

    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > content_length {
        return Err(HttpError::Malformed(
            "more body bytes than Content-Length declared".into(),
        ));
    }
    while body.len() < content_length {
        let mut chunk = [0u8; 8192];
        let want = (content_length - body.len()).min(chunk.len());
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(HttpError::Malformed(
                    "connection closed before the declared body arrived".into(),
                ))
            }
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    Ok(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        trace,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. `Retry-After` on 429.
    pub extra_headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error envelope: `{"error": "...", "status": N}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!(
                "{{\"error\": {}, \"status\": {status}}}\n",
                td_telemetry::json::quote(message)
            ),
        )
    }

    /// Serializes and writes the response; always closes the connection
    /// (the API is one-request-per-connection by design).
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let reason = reason_phrase(self.status);
        let mut head = format!(
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Writes a rejection on a connection whose request body was never
/// fully read, then drains what the client already sent (bounded).
///
/// Closing with unread bytes in the receive buffer makes the kernel
/// send RST instead of FIN, which can destroy the response before the
/// client reads it. Shutting down our write side and sinking the
/// remaining body (up to 1 MiB, under the read timeout) lets the client
/// finish sending and still see the status line.
pub fn reject(stream: &mut TcpStream, response: &Response) {
    let _ = response.write_to(stream);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut sink = [0u8; 8192];
    let mut drained = 0usize;
    while drained < 1024 * 1024 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// A fully parsed client-side response: status, headers and body.
#[derive(Debug, Clone)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Response headers as `(lowercased name, value)` pairs in wire
    /// order.
    pub headers: Vec<(String, String)>,
    /// The response body.
    pub body: String,
}

impl HttpReply {
    /// The first header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A minimal HTTP client for `tdv client`, the CI smoke job and the
/// loopback test suite: sends one request, returns `(status, body)`.
///
/// `addr` is `host:port`; redirects, TLS and keep-alive are deliberately
/// out of scope.
pub fn http_call(
    addr: &str,
    method: &str,
    path_and_query: &str,
    body: Option<&[u8]>,
) -> std::io::Result<(u16, String)> {
    let reply = http_request(addr, method, path_and_query, &[], body)?;
    Ok((reply.status, reply.body))
}

/// [`http_call`] with explicit extra request headers and the full
/// response ([`HttpReply`]) — the trace-correlated client path: pass a
/// `("traceparent", id)` header and read the echoed one back.
pub fn http_request(
    addr: &str,
    method: &str,
    path_and_query: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> std::io::Result<HttpReply> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let body = body.unwrap_or(b"");
    let mut head = format!(
        "{method} {path_and_query} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let head_end = find_head_end(&raw).ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response without a complete head",
        )
    })?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad response status line")
        })?;
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    let body = String::from_utf8_lossy(&raw[head_end + 4..]).into_owned();
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Runs `read_request` against raw client bytes over a real loopback
    /// socket pair.
    fn parse_raw(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(&raw).unwrap();
            // Keep the connection open briefly so the parser sees a
            // stall, not EOF, when it wants more bytes.
            std::thread::sleep(Duration::from_millis(50));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, max_body);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_request_with_body_and_query() {
        let req = parse_raw(
            b"POST /v1/project?format=json&x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nwork",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/project");
        assert_eq!(req.query_param("format"), Some("json"));
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body, b"work");
    }

    #[test]
    fn captures_the_traceparent_header() {
        let req = parse_raw(
            b"POST /v1/project HTTP/1.1\r\nHost: h\r\n\
              Traceparent: 00-0123456789abcdef0123456789abcdef-0123456789abcdef-01\r\n\
              Content-Length: 0\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(
            req.trace.as_deref(),
            Some("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
        );
        let req = parse_raw(b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n", 1024).unwrap();
        assert_eq!(req.trace, None);
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(
            parse_raw(b"NOT-HTTP\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x SPAM/9\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x HTTP/1.1\r\nbad header line\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_raw(b"GET /x HTTP/1.1\r\nContent-Length: soup\r\n\r\n", 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let e = parse_raw(
            b"POST /v1/batch HTTP/1.1\r\nContent-Length: 4096\r\n\r\n",
            64,
        )
        .unwrap_err();
        assert!(matches!(e, HttpError::BodyTooLarge(4096)));
    }

    #[test]
    fn response_roundtrips_through_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream, 1024).unwrap();
            assert_eq!(req.method, "PUT");
            assert_eq!(req.body, b"type A { }");
            let mut resp = Response::json(429, "{\"error\": \"busy\"}\n");
            resp.extra_headers
                .push(("Retry-After".to_string(), "1".to_string()));
            resp.write_to(&mut stream).unwrap();
        });
        let (status, body) =
            http_call(&addr, "PUT", "/v1/tenants/a/schemas/s", Some(b"type A { }")).unwrap();
        assert_eq!(status, 429);
        assert_eq!(body, "{\"error\": \"busy\"}\n");
        server.join().unwrap();
    }
}
