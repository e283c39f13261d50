//! A minimal server-side HTTP/1.1 implementation over `std::net`.
//!
//! The daemon's wire surface is five small endpoints, so a hand-rolled
//! parser (consistent with the workspace's zero-third-party-deps stance)
//! is simpler than a framework and keeps the whole protocol auditable.
//! The parser is deliberately strict and bounded: request lines and
//! headers have hard size caps, bodies are only accepted with an exact
//! `Content-Length` under the configured limit, and anything else is
//! rejected with the right 4xx before a byte of it is buffered.

use copart_telemetry::JsonWriter;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Hard cap on the request line (method + target + version), bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Hard cap on a single header line, bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Hard cap on the number of header lines.
pub const MAX_HEADERS: usize = 64;
/// Default cap on request bodies, bytes (the config can lower it).
pub const DEFAULT_MAX_BODY: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// The path component of the request target, without the query.
    pub path: String,
    /// The raw query string (empty when the target has none).
    pub query: String,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// The value of a `key=value` query parameter, if present.
    ///
    /// # Examples
    ///
    /// ```
    /// use copart_serve::http::Request;
    /// let req = Request {
    ///     method: "GET".into(),
    ///     path: "/trace".into(),
    ///     query: "tail=16".into(),
    ///     body: Vec::new(),
    ///     keep_alive: true,
    /// };
    /// assert_eq!(req.query_param("tail"), Some("16"));
    /// assert_eq!(req.query_param("absent"), None);
    /// ```
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be parsed, carrying the status to answer with.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or body framing → 400.
    BadRequest(String),
    /// The declared `Content-Length` exceeds the body cap → 413.
    PayloadTooLarge {
        /// The length the client declared.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// Request line or a header line exceeds its size cap → 431.
    HeaderTooLarge,
    /// A framing the server does not implement (chunked bodies) → 501.
    Unimplemented(&'static str),
    /// The connection failed mid-request; no response is possible.
    Io(io::Error),
}

impl HttpError {
    /// The HTTP status this error should be answered with (0 for I/O
    /// errors, where the connection is simply dropped).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::PayloadTooLarge { .. } => 413,
            HttpError::HeaderTooLarge => 431,
            HttpError::Unimplemented(_) => 501,
            HttpError::Io(_) => 0,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::PayloadTooLarge { declared, limit } => {
                write!(f, "body of {declared} bytes exceeds the {limit}-byte cap")
            }
            HttpError::HeaderTooLarge => f.write_str("request line or header too large"),
            HttpError::Unimplemented(what) => write!(f, "not implemented: {what}"),
            HttpError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

/// What one attempt to read a request produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed the connection cleanly between requests.
    Closed,
    /// The read timed out before the first byte of a request arrived;
    /// the connection is still usable (nothing was consumed).
    Idle,
}

/// Reads one line (up to and including `\n`) with a hard byte cap,
/// without over-reading past it, into `line` (cleared first). Returns the
/// line without its `\r\n`, or `None` on EOF before any byte.
fn read_line_capped<'a, R: BufRead>(
    r: &mut R,
    cap: usize,
    line: &'a mut Vec<u8>,
) -> Result<Option<&'a str>, HttpError> {
    line.clear();
    loop {
        let available = match r.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if available.is_empty() {
            // EOF mid-line: a clean close only if nothing was read yet.
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("connection closed mid-line".into()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if line.len() + take > cap {
            return Err(HttpError::HeaderTooLarge);
        }
        line.extend_from_slice(&available[..take]);
        r.consume(take);
        if newline.is_some() {
            let text = std::str::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("non-UTF-8 header bytes".into()))?;
            return Ok(Some(text.trim_end_matches(['\r', '\n'])));
        }
    }
}

/// Reads one request from the connection.
///
/// Returns [`ReadOutcome::Closed`] on a clean EOF before any byte and
/// [`ReadOutcome::Idle`] when the first read times out (the caller's
/// read-timeout is the keep-alive poll interval).
///
/// # Errors
///
/// Any [`HttpError`] with a non-zero status should be answered with that
/// status; an [`HttpError::Io`] means the connection is gone.
pub fn read_request<R: BufRead>(r: &mut R, max_body: usize) -> Result<ReadOutcome, HttpError> {
    // The first fill distinguishes idle-timeout from mid-request errors.
    match r.fill_buf() {
        Ok([]) => return Ok(ReadOutcome::Closed),
        Ok(_) => {}
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return Ok(ReadOutcome::Idle);
        }
        Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(ReadOutcome::Idle),
        Err(e) => return Err(HttpError::Io(e)),
    }
    // One line buffer serves the request line and every header.
    let mut buf = Vec::new();
    let Some(line) = read_line_capped(r, MAX_REQUEST_LINE, &mut buf)? else {
        return Ok(ReadOutcome::Closed);
    };
    let mut parts = line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {line:?}"
        )));
    };
    if parts.next().is_some() {
        return Err(HttpError::BadRequest(format!(
            "malformed request line {line:?}"
        )));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    let mut keep_alive = version == "HTTP/1.1";
    // Owned before the header lines reuse the buffer they borrow from.
    let method = method.to_ascii_uppercase();
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let (path, query) = (path.to_string(), query.to_string());
    let mut content_length: usize = 0;
    let mut headers = 0usize;
    loop {
        let Some(header) = read_line_capped(r, MAX_HEADER_LINE, &mut buf)? else {
            return Err(HttpError::BadRequest("EOF inside headers".into()));
        };
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::HeaderTooLarge);
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header {header:?}"
            )));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Unimplemented("chunked transfer encoding"));
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        io::Read::read_exact(r, &mut body).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                HttpError::BadRequest("body shorter than Content-Length".into())
            } else {
                HttpError::Io(e)
            }
        })?;
    }
    Ok(ReadOutcome::Request(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// One HTTP response, ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
    /// Whether to answer `Connection: close` and drop the connection.
    pub close: bool,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            close: false,
        }
    }

    /// A JSON error response: `{"error": "<msg>"}`.
    pub fn error(status: u16, msg: &str) -> Response {
        let mut body = String::new();
        JsonWriter::new(&mut body)
            .begin_obj()
            .key("error")
            .str(msg)
            .end_obj();
        Response::json(status, body)
    }

    /// Serializes status line, headers, and body into `buf` (cleared
    /// first; the caller keeps one per connection) and hands it to the
    /// connection in one `write_all`, so a response is one `write(2)`
    /// and, under `TCP_NODELAY`, one TCP segment.
    ///
    /// # Errors
    ///
    /// Propagates write failures (the caller drops the connection).
    pub fn write_to<W: Write>(&self, w: &mut W, buf: &mut Vec<u8>) -> io::Result<()> {
        buf.clear();
        write!(
            buf,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        )?;
        buf.extend_from_slice(&self.body);
        w.write_all(buf)?;
        w.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<ReadOutcome, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), DEFAULT_MAX_BODY)
    }

    fn request(raw: &str) -> Request {
        match parse(raw).unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query() {
        let r = request("GET /trace?tail=8&x=1 HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/trace");
        assert_eq!(r.query_param("tail"), Some("8"));
        assert_eq!(r.query_param("x"), Some("1"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body_exactly() {
        let r = request("POST /apps HTTP/1.1\r\nContent-Length: 16\r\n\r\n{\"bench\": \"WN\"}\n");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"bench\": \"WN\"}\n");
    }

    #[test]
    fn connection_close_is_honored() {
        let r = request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!r.keep_alive);
        let r = request("GET / HTTP/1.0\r\n\r\n");
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn clean_eof_is_closed() {
        assert!(matches!(parse("").unwrap(), ReadOutcome::Closed));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/1.1 junk\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} → {err}");
        }
    }

    #[test]
    fn rejects_oversize_bodies_without_reading_them() {
        let raw = "POST /apps HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let err = parse(raw).unwrap_err();
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn rejects_oversize_headers() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
        let many: String = (0..MAX_HEADERS + 1)
            .map(|i| format!("h{i}: v\r\n"))
            .collect();
        let raw = format!("GET / HTTP/1.1\r\n{many}\r\n");
        assert_eq!(parse(&raw).unwrap_err().status(), 431);
    }

    #[test]
    fn rejects_chunked_encoding() {
        let raw = "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert_eq!(parse(raw).unwrap_err().status(), 501);
    }

    #[test]
    fn truncated_body_is_bad_request() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert_eq!(parse(raw).unwrap_err().status(), 400);
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let (mut out, mut buf) = (Vec::new(), Vec::new());
        Response::json(200, "{}")
            .write_to(&mut out, &mut buf)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
             Connection: keep-alive\r\n\r\n{}"
        );
        // The buffer is reused: a second response leaves no trace of the first.
        let mut out = Vec::new();
        let mut resp = Response::error(413, "too big");
        resp.close = true;
        resp.write_to(&mut out, &mut buf).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 413 Payload Too Large\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"too big\"}"));
    }

    /// A writer that counts `write` calls and keeps what they wrote.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(data);
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write() {
        let mut buf = Vec::new();
        for resp in [
            Response::json(200, "{\"epoch\":3}"),
            Response::text(200, ""),
            Response::error(503, "server is at connection capacity"),
        ] {
            let mut w = CountingWriter::default();
            resp.write_to(&mut w, &mut buf).unwrap();
            assert_eq!(w.writes, 1, "{} response", resp.status);
            assert!(w.bytes.ends_with(&resp.body));
        }
    }
}
