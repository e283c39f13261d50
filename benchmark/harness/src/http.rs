//! A keep-alive HTTP/1.1 client over `std::net`, the benchmark's own
//! so that request timings never depend on the daemon crate's client.
//!
//! One [`Client`] is one connection. A request that fails on a
//! connection that has already served one is retried once on a fresh
//! connection (the server may have closed an idle keep-alive); a second
//! failure is the request's failure.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Responses larger than this are refused rather than buffered.
const MAX_BODY: usize = 16 << 20;

/// One keep-alive connection to `addr`.
pub struct Client {
    addr: String,
    timeout: Duration,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened over the client's life (1 = never dropped).
    pub connects: u64,
}

/// A response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body bytes (`Content-Length` framed).
    pub body: Vec<u8>,
}

impl Response {
    /// Whether the status is 2xx.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

impl Client {
    /// A client for `host:port`; connects lazily. `timeout` bounds every
    /// read and write, so a hung daemon fails a request instead of
    /// hanging the benchmark.
    pub fn new(addr: &str, timeout: Duration) -> Client {
        Client {
            addr: addr.to_string(),
            timeout,
            conn: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            // Request/response over keep-alive: Nagle plus delayed ACK
            // would add ~40 ms to every round trip.
            stream.set_nodelay(true)?;
            self.connects += 1;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sends one request and reads the response.
    ///
    /// # Errors
    ///
    /// Connect, transport and framing errors, after the one retry
    /// described in the module docs.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.request_once(method, path, body) {
            Ok(resp) => Ok(resp),
            Err(_) if reused => {
                self.conn = None;
                self.request_once(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    fn request_once(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n",
            self.addr
        );
        if !body.is_empty() {
            req.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        req.push_str("\r\n");
        req.push_str(body);
        let result = (|| {
            let conn = self.connect()?;
            conn.get_mut().write_all(req.as_bytes())?;
            read_response(conn)
        })();
        match result {
            Ok((resp, close)) => {
                if close {
                    self.conn = None;
                }
                Ok(resp)
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Reads one `Content-Length`-framed response; the flag says whether the
/// server asked to close the connection.
fn read_response(reader: &mut impl BufRead) -> io::Result<(Response, bool)> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(bad("connection closed before the status line"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut content_length = 0usize;
    let mut close = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed inside the headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("malformed Content-Length"))?;
                if content_length > MAX_BODY {
                    return Err(bad("response body too large"));
                }
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((Response { status, body }, close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn parses_a_framed_response() {
        let raw = "HTTP/1.1 201 Created\r\nContent-Type: application/json\r\n\
                   content-length: 11\r\n\r\n{\"group\":5}NEXT";
        let mut reader = io::BufReader::new(raw.as_bytes());
        let (resp, close) = read_response(&mut reader).unwrap();
        assert_eq!(resp.status, 201);
        assert_eq!(resp.text(), "{\"group\":5}");
        assert!(resp.ok());
        assert!(!close);
        // The next response's bytes are left unread.
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap();
        assert_eq!(rest, "NEXT");
    }

    #[test]
    fn rejects_truncated_and_oversized_responses() {
        for raw in [
            "",
            "HTTP/1.1\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc",
            "HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n",
            "HTTP/1.1 200 OK\r\nContent-Length: 1",
        ] {
            assert!(
                read_response(&mut io::BufReader::new(raw.as_bytes())).is_err(),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn keeps_alive_and_reconnects_once_after_a_server_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First connection: two requests, then the server hangs up
            // without saying so. Second connection: one request.
            for served in [2usize, 1] {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                for _ in 0..served {
                    let mut line = String::new();
                    while reader.read_line(&mut line).unwrap() > 2 {
                        line.clear();
                    }
                    reader
                        .get_mut()
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                        .unwrap();
                }
            }
        });
        let mut client = Client::new(&addr, Duration::from_secs(5));
        for _ in 0..3 {
            assert_eq!(client.request("GET", "/status", "").unwrap().text(), "ok");
        }
        assert_eq!(client.connects, 2);
        server.join().unwrap();
    }
}
