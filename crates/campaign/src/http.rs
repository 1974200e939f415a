//! A hand-rolled HTTP/1.1 core: just enough protocol for the campaign
//! service, written against `std` alone per the shims policy (no
//! registry dependencies, ever).
//!
//! Scope is deliberately narrow — this is a **control plane**, not a
//! general web server:
//!
//! * one request per connection (`Connection: close` on every
//!   response), which keeps worker threads stateless;
//! * `Content-Length` bodies only (no chunked *requests*), with an
//!   `Expect: 100-continue` handshake so `curl -d @spec.toml` works;
//! * chunked *responses* via [`ChunkedWriter`] for the long-poll event
//!   stream;
//! * a [`BoundedPool`] of connection-handler threads fed through a
//!   bounded channel, so a flood of connections backpressures the
//!   accept loop instead of spawning unbounded threads.
//!
//! Everything here is pure protocol: no routing, no campaign knowledge.
//! [`crate::server`] supplies those.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Hard cap on request-body size (covers any plausible spec file; a
/// full Table 2 grid spec is under 2 KiB).
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Hard cap on one header line (request line included).
const MAX_LINE_BYTES: usize = 8 << 10;

/// Hard cap on the number of header lines.
const MAX_HEADERS: usize = 100;

/// A parsed HTTP request: method, decoded path, decoded query pairs,
/// lower-cased headers and the raw body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-case method (`GET`, `POST`, …) exactly as sent.
    pub method: String,
    /// Percent-decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` query pairs in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header of this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The first query parameter of this name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path split on `/`, empty segments dropped: `/campaigns/x/report`
    /// → `["campaigns", "x", "report"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a full request arrived
    /// (common and harmless: health probes, aborted curls).
    Closed,
    /// The bytes were not valid HTTP; the message is safe to echo back
    /// in a 400 body.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`]; respond 413.
    TooLarge(usize),
    /// The socket failed mid-read.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(n) => write!(f, "request body of {n} bytes exceeds the limit"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

/// Reads one request off a stream, answering `Expect: 100-continue`
/// in-line so clients that wait for the interim response make progress.
/// The stream is read through one buffer, so a request costs a few
/// `read` calls rather than one per byte; bytes buffered past the body
/// are dropped (one request per connection).
///
/// # Errors
///
/// [`HttpError::Closed`] on immediate EOF, [`HttpError::Malformed`] on
/// protocol violations, [`HttpError::TooLarge`] when the declared body
/// exceeds [`MAX_BODY_BYTES`], [`HttpError::Io`] on socket failure.
pub fn read_request<S: Read + Write>(stream: &mut S) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let request_line = match read_line(&mut reader)? {
        Some(line) => line,
        None => return Err(HttpError::Closed),
    };
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol '{version}'"
        )));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(&mut reader)?
            .ok_or_else(|| HttpError::Malformed("connection closed inside headers".into()))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line '{line}' has no colon")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length '{v}'")))?,
        None => 0,
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(content_length));
    }
    let expects_continue = headers
        .iter()
        .any(|(n, v)| n == "expect" && v.eq_ignore_ascii_case("100-continue"));
    if expects_continue && content_length > 0 {
        let stream = reader.get_mut();
        stream
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| stream.flush())
            .map_err(HttpError::Io)?;
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::Malformed("connection closed inside body".into())
        } else {
            HttpError::Io(e)
        }
    })?;

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)
        .ok_or_else(|| HttpError::Malformed(format!("bad percent-encoding in '{raw_path}'")))?;
    let mut query = Vec::new();
    for pair in raw_query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let decode = |s: &str| percent_decode(&s.replace('+', " "));
        match (decode(k), decode(v)) {
            (Some(k), Some(v)) => query.push((k, v)),
            _ => {
                return Err(HttpError::Malformed(format!(
                    "bad percent-encoding in query pair '{pair}'"
                )))
            }
        }
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Reads one CRLF (or bare-LF) terminated line of at most
/// `MAX_LINE_BYTES` bytes before the LF; `None` on clean EOF before any
/// byte.
fn read_line<R: BufRead>(reader: &mut R) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if available.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("connection closed mid-line".into()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(available.len());
        if line.len() + take > MAX_LINE_BYTES {
            return Err(HttpError::Malformed("header line too long".into()));
        }
        line.extend_from_slice(&available[..take]);
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_some() {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("non-UTF-8 header line".into()));
        }
    }
}

/// Decodes `%XX` escapes; `None` on a truncated or non-hex escape.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes.get(i + 1..i + 3)?;
            let hi = (hex[0] as char).to_digit(16)?;
            let lo = (hex[1] as char).to_digit(16)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// The canonical reason phrase for the status codes this service emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response (`Content-Length`-framed, connection
/// closing) in one `write_all` and flushes.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_response<S: Write>(
    stream: &mut S,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status_reason(status),
        body.len(),
    )
    .into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)?;
    stream.flush()
}

/// Writes a JSON response.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_json<S: Write>(stream: &mut S, status: u16, json: &str) -> std::io::Result<()> {
    write_response(stream, status, "application/json", json.as_bytes())
}

/// A JSON error body: `{"error": <message>, "status": <status>}`.
pub fn error_body(status: u16, message: &str) -> String {
    serde_json::Value::Object(vec![
        (
            "error".to_string(),
            serde_json::Value::String(message.to_string()),
        ),
        ("status".to_string(), serde::Serialize::to_value(&status)),
    ])
    .to_json()
}

/// Writes a JSON error response.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_error<S: Write>(stream: &mut S, status: u16, message: &str) -> std::io::Result<()> {
    write_json(stream, status, &error_body(status, message))
}

/// A chunked (`Transfer-Encoding: chunked`) response in progress — the
/// event stream's transport. Construction writes the header; each
/// [`ChunkedWriter::chunk`] writes one frame in one `write_all` and
/// flushes it so long-poll clients see events as they happen;
/// [`ChunkedWriter::finish`] writes the final zero-length chunk.
#[derive(Debug)]
pub struct ChunkedWriter<S: Write> {
    stream: S,
}

impl<S: Write> ChunkedWriter<S> {
    /// Starts a chunked response on the stream.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn begin(mut stream: S, status: u16, content_type: &str) -> std::io::Result<Self> {
        let header = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status_reason(status),
        );
        stream.write_all(header.as_bytes())?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Writes one chunk and flushes it (no-op on empty data — an empty
    /// chunk would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket errors (a closed socket here means the client
    /// hung up; callers stop streaming).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut frame = format!("{:x}\r\n", data.len()).into_bytes();
        frame.extend_from_slice(data);
        frame.extend_from_slice(b"\r\n");
        self.stream.write_all(&frame)?;
        self.stream.flush()
    }

    /// Terminates the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// A fixed pool of connection-handler threads fed through a **bounded**
/// channel: when every handler is busy and the queue is full, the
/// accept loop blocks in [`BoundedPool::submit`] instead of piling up
/// threads — ancestry shared with [`crate::executor::ThreadPool`], but
/// for connections rather than scenario units.
pub struct BoundedPool {
    sender: Option<SyncSender<TcpStream>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for BoundedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl BoundedPool {
    /// Spawns `workers` handler threads (at least one), each running
    /// `handler` on every connection it dequeues. A handler panic kills
    /// its thread, so handlers are expected to contain their own panics
    /// (the server's dispatcher does).
    pub fn new<H>(workers: usize, handler: H) -> Self
    where
        H: Fn(TcpStream) + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let (sender, receiver) = std::sync::mpsc::sync_channel::<TcpStream>(workers * 2);
        let receiver = Arc::new(Mutex::new(receiver));
        let handler = Arc::new(handler);
        let handles = (0..workers)
            .map(|i| {
                let receiver: Arc<Mutex<Receiver<TcpStream>>> = Arc::clone(&receiver);
                let handler = Arc::clone(&handler);
                std::thread::Builder::new()
                    .name(format!("http-{i}"))
                    .spawn(move || loop {
                        let job = receiver.lock().expect("poisoned http queue").recv();
                        match job {
                            Ok(stream) => handler(stream),
                            Err(_) => break, // pool shut down
                        }
                    })
                    .expect("spawn http worker")
            })
            .collect();
        Self {
            sender: Some(sender),
            handles,
        }
    }

    /// Hands a connection to the pool, blocking while the queue is full.
    /// Dropped silently if the pool is already shutting down.
    pub fn submit(&self, stream: TcpStream) {
        if let Some(sender) = &self.sender {
            let _ = sender.send(stream);
        }
    }

    /// Closes the queue and joins every handler thread (in-flight
    /// connections finish first).
    pub fn shutdown(mut self) {
        self.sender = None; // disconnects the channel
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test double: reads from a script at most `max_read` bytes per
    /// call, records writes, and counts both calls (each is one syscall
    /// on a socket).
    struct Wire {
        input: std::io::Cursor<Vec<u8>>,
        max_read: usize,
        output: Vec<u8>,
        reads: usize,
        writes: usize,
    }

    impl Wire {
        fn new(script: &str) -> Self {
            Self::from_bytes(script.as_bytes().to_vec(), usize::MAX)
        }

        fn from_bytes(input: Vec<u8>, max_read: usize) -> Self {
            Self {
                input: std::io::Cursor::new(input),
                max_read,
                output: Vec::new(),
                reads: 0,
                writes: 0,
            }
        }
    }

    impl Read for Wire {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.max_read);
            self.input.read(&mut buf[..n])
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn parses_get_with_query_and_encoded_path() {
        let mut wire = Wire::new(
            "GET /campaigns/c%2D1/events?since=3&format=json+pretty HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        let req = read_request(&mut wire).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/campaigns/c-1/events");
        assert_eq!(req.segments(), vec!["campaigns", "c-1", "events"]);
        assert_eq!(req.query_param("since"), Some("3"));
        assert_eq!(req.query_param("format"), Some("json pretty"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_body_and_answers_100_continue() {
        let mut wire = Wire::new(
            "POST /campaigns HTTP/1.1\r\nContent-Length: 11\r\nExpect: 100-continue\r\n\r\nname = \"x\"\n",
        );
        let req = read_request(&mut wire).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"name = \"x\"\n");
        let echoed = String::from_utf8(wire.output.clone()).unwrap();
        assert!(echoed.starts_with("HTTP/1.1 100 Continue"), "{echoed}");
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let mut wire = Wire::new(&format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        ));
        assert!(matches!(
            read_request(&mut wire),
            Err(HttpError::TooLarge(_))
        ));
        let mut wire = Wire::new("NOT-HTTP\r\n\r\n");
        assert!(matches!(
            read_request(&mut wire),
            Err(HttpError::Malformed(_))
        ));
        let mut wire = Wire::new("");
        assert!(matches!(read_request(&mut wire), Err(HttpError::Closed)));
    }

    #[test]
    fn a_request_costs_a_bounded_number_of_reads() {
        let mut wire = Wire::new(
            "GET /campaigns/c-1/report?format=json HTTP/1.1\r\nHost: localhost:8080\r\n\
             User-Agent: curl/8.0\r\nAccept: */*\r\n\r\n",
        );
        read_request(&mut wire).unwrap();
        assert!(wire.reads <= 2, "{} reads for one GET", wire.reads);

        let body = "x".repeat(20_000);
        let mut wire = Wire::new(&format!(
            "POST /campaigns HTTP/1.1\r\nContent-Length: {}\r\nExpect: 100-continue\r\n\r\n{body}",
            body.len()
        ));
        let req = read_request(&mut wire).unwrap();
        assert_eq!(req.body.len(), body.len());
        assert!(wire.reads <= 4, "{} reads for one POST", wire.reads);
        assert_eq!(wire.writes, 1, "the 100 Continue reply is one write");
    }

    #[test]
    fn every_response_and_chunk_is_one_write() {
        let mut wire = Wire::new("");
        write_json(&mut wire, 200, &"x".repeat(10_000)).unwrap();
        assert_eq!(wire.writes, 1);
        let mut wire = Wire::new("");
        write_error(&mut wire, 404, "no such campaign").unwrap();
        assert_eq!(wire.writes, 1);

        let mut wire = Wire::new("");
        let mut w = ChunkedWriter::begin(&mut wire, 200, "application/x-ndjson").unwrap();
        w.chunk(b"{\"seq\":0}\n").unwrap();
        w.chunk(b"{\"seq\":1}\n").unwrap();
        w.finish().unwrap();
        assert_eq!(wire.writes, 4, "header, two chunks, terminator");
    }

    #[test]
    fn line_and_header_caps_are_exact() {
        let request = |header_line: &str, extra_headers: usize| {
            let mut text = format!("GET / HTTP/1.1\r\n{header_line}\r\n");
            for i in 0..extra_headers {
                text.push_str(&format!("X-{i}: v\r\n"));
            }
            text.push_str("\r\n");
            read_request(&mut Wire::from_bytes(text.into_bytes(), 7))
        };
        // the cap counts every byte before the LF, CR included
        let at_cap = format!("X: {}", "a".repeat(MAX_LINE_BYTES - 4));
        assert!(request(&at_cap, 0).is_ok());
        let over = format!("X: {}", "a".repeat(MAX_LINE_BYTES - 3));
        assert!(
            matches!(request(&over, 0), Err(HttpError::Malformed(m)) if m.contains("too long"))
        );
        assert!(request("X: v", MAX_HEADERS - 1).is_ok());
        assert!(
            matches!(request("X: v", MAX_HEADERS), Err(HttpError::Malformed(m)) if m.contains("too many"))
        );
    }

    #[test]
    fn responses_are_length_framed_and_close() {
        let mut out = Vec::new();
        write_json(&mut out, 200, "{\"ok\":true}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }

    #[test]
    fn error_bodies_are_json_with_status() {
        let body = error_body(400, "axis 'seeds' is empty");
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["error"], "axis 'seeds' is empty");
        assert_eq!(v["status"], 400.0);
    }

    #[test]
    fn chunked_writer_frames_and_terminates() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::begin(&mut out, 200, "application/json").unwrap();
        w.chunk(b"hello\n").unwrap();
        w.chunk(b"").unwrap(); // must NOT terminate the stream
        w.chunk(b"world\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"), "{text}");
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(body, "6\r\nhello\n\r\n6\r\nworld\n\r\n0\r\n\r\n");
    }

    #[test]
    fn percent_decoding_is_strict() {
        assert_eq!(percent_decode("a%20b").as_deref(), Some("a b"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("bad%2"), None);
        assert_eq!(percent_decode("bad%zz"), None);
    }

    #[test]
    fn pool_runs_every_submitted_connection() {
        use std::net::{TcpListener, TcpStream};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handled = Arc::new(AtomicUsize::new(0));
        let pool = {
            let handled = Arc::clone(&handled);
            BoundedPool::new(2, move |stream: TcpStream| {
                drop(stream);
                handled.fetch_add(1, Ordering::SeqCst);
            })
        };
        const CONNS: usize = 8;
        for _ in 0..CONNS {
            let client = TcpStream::connect(addr).unwrap();
            let (server_side, _) = listener.accept().unwrap();
            pool.submit(server_side);
            drop(client);
        }
        pool.shutdown(); // joins: all submitted connections handled
        assert_eq!(handled.load(Ordering::SeqCst), CONNS);
    }

    /// A `(raw, parsed)` pair: the bytes sent and what the parser must
    /// make of them.
    type Token = (&'static str, &'static str);

    /// A well-formed request, built from parts whose decoded form is
    /// known, so the parse of its bytes can be checked field by field.
    #[derive(Debug, Clone)]
    struct Sample {
        method: &'static str,
        /// Path segments (parsed: percent-decoded).
        segments: Vec<Token>,
        /// Query keys and values (parsed: decoded).
        query: Vec<(Token, Token)>,
        /// Header names and values (parsed: lower-cased, trimmed).
        headers: Vec<(Token, Token)>,
        body: Vec<u8>,
        crlf: bool,
        expect_continue: bool,
    }

    impl Sample {
        /// The request bytes declaring `declared` body bytes, and the
        /// length of the head (request line + headers + blank line).
        fn render(&self, declared: u64) -> (Vec<u8>, usize) {
            let eol = if self.crlf { "\r\n" } else { "\n" };
            let mut target = String::from("/");
            target.push_str(
                &self
                    .segments
                    .iter()
                    .map(|s| s.0)
                    .collect::<Vec<_>>()
                    .join("/"),
            );
            if !self.query.is_empty() {
                target.push('?');
                let pairs: Vec<String> = self
                    .query
                    .iter()
                    .map(|(k, v)| format!("{}={}", k.0, v.0))
                    .collect();
                target.push_str(&pairs.join("&"));
            }
            let mut head = format!("{} {target} HTTP/1.1{eol}", self.method);
            for ((name, _), (value, _)) in &self.headers {
                head.push_str(&format!("{name}:{value}{eol}"));
            }
            head.push_str(&format!("Content-Length: {declared}{eol}"));
            if self.expect_continue {
                head.push_str(&format!("Expect: 100-continue{eol}"));
            }
            head.push_str(eol);
            let mut bytes = head.into_bytes();
            let head_len = bytes.len();
            bytes.extend_from_slice(&self.body);
            (bytes, head_len)
        }

        fn expected(&self) -> Request {
            let mut headers: Vec<(String, String)> = self
                .headers
                .iter()
                .map(|((_, n), (_, v))| (n.to_string(), v.to_string()))
                .collect();
            headers.push(("content-length".into(), self.body.len().to_string()));
            if self.expect_continue {
                headers.push(("expect".into(), "100-continue".into()));
            }
            Request {
                method: self.method.into(),
                path: format!(
                    "/{}",
                    self.segments
                        .iter()
                        .map(|s| s.1)
                        .collect::<Vec<_>>()
                        .join("/")
                ),
                query: self
                    .query
                    .iter()
                    .map(|(k, v)| (k.1.to_string(), v.1.to_string()))
                    .collect(),
                headers,
                body: self.body.clone(),
            }
        }
    }

    fn sample() -> impl Strategy<Value = Sample> {
        (
            prop::sample::select(vec!["GET", "POST", "DELETE"]),
            prop::collection::vec(
                prop::sample::select(vec![
                    ("campaigns", "campaigns"),
                    ("c-1f2e", "c-1f2e"),
                    ("events", "events"),
                    ("a%20b", "a b"),
                    ("x%2Fy", "x/y"),
                ]),
                0..4,
            ),
            prop::collection::vec(
                (
                    prop::sample::select(vec![("since", "since"), ("q%3D", "q=")]),
                    prop::sample::select(vec![("3", "3"), ("a+b", "a b"), ("%41", "A"), ("", "")]),
                ),
                0..3,
            ),
            prop::collection::vec(
                (
                    prop::sample::select(vec![("Host", "host"), ("X-Trace", "x-trace")]),
                    prop::sample::select(vec![
                        ("localhost", "localhost"),
                        ("  padded ", "padded"),
                        ("*/*", "*/*"),
                    ]),
                ),
                0..5,
            ),
            prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..300),
            0u8..2,
            0u8..2,
        )
            .prop_map(
                |(method, segments, query, headers, body, crlf, expect)| Sample {
                    method,
                    segments,
                    query,
                    headers,
                    body,
                    crlf: crlf == 1,
                    expect_continue: expect == 1,
                },
            )
    }

    /// Parses `input` whole and trickled `chunk` bytes per read; both
    /// must agree, and `Io` never occurs on an in-memory wire.
    fn parse(input: &[u8], chunk: usize) -> Result<Request, HttpError> {
        let whole = read_request(&mut Wire::from_bytes(input.to_vec(), usize::MAX));
        let trickled = read_request(&mut Wire::from_bytes(input.to_vec(), chunk));
        assert_eq!(
            format!("{whole:?}"),
            format!("{trickled:?}"),
            "chunking changed the parse"
        );
        assert!(!matches!(whole, Err(HttpError::Io(_))), "{whole:?}");
        whole
    }

    /// An independent framing model over the complete input: the head's
    /// lines (CR stripped) and the offset just past the blank line.
    fn reference_head(input: &[u8]) -> Option<(Vec<&[u8]>, usize)> {
        let mut lines = Vec::new();
        let mut start = 0;
        while let Some(i) = input[start..].iter().position(|&b| b == b'\n') {
            let line = &input[start..start + i];
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            start += i + 1;
            if line.is_empty() && !lines.is_empty() {
                return Some((lines, start));
            }
            lines.push(line);
        }
        None
    }

    /// A parsed request must be exactly what the bytes frame: its method
    /// from the request line, one header per head line, and its body the
    /// declared number of bytes right after the blank line.
    fn assert_framed(input: &[u8], req: &Request) {
        let (lines, head_len) = reference_head(input).expect("a parsed request has a head");
        let first = String::from_utf8_lossy(lines[0]);
        assert_eq!(
            first.split(' ').find(|p| !p.is_empty()),
            Some(req.method.as_str())
        );
        assert_eq!(req.headers.len(), lines.len() - 1);
        for ((name, value), line) in req.headers.iter().zip(&lines[1..]) {
            let (n, v) = std::str::from_utf8(line).unwrap().split_once(':').unwrap();
            assert_eq!(
                (name.as_str(), value.as_str()),
                (n.trim().to_ascii_lowercase().as_str(), v.trim())
            );
        }
        let declared = req
            .header("content-length")
            .map_or(0, |v| v.parse::<usize>().unwrap());
        assert_eq!(req.body.len(), declared);
        assert_eq!(req.body.as_slice(), &input[head_len..head_len + declared]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn mutated_requests_fail_cleanly_or_parse_exactly(
            sample in sample(),
            kind in 0u8..4,
            at in 0.0..1.0f64,
            mask in 1u8..255,
            declared in (MAX_BODY_BYTES as u64 + 1)..u64::MAX,
            chunk in 1usize..64,
        ) {
            let (bytes, head_len) = sample.render(sample.body.len() as u64);
            assert_eq!(parse(&bytes, chunk).unwrap(), sample.expected());
            match kind {
                // truncation anywhere short of the end never yields a request
                0 => {
                    let cut = (at * bytes.len() as f64) as usize;
                    match parse(&bytes[..cut], chunk) {
                        Err(HttpError::Closed) => assert_eq!(cut, 0),
                        Err(HttpError::Malformed(_)) => assert!(cut > 0),
                        other => panic!("truncated at {cut}: {other:?}"),
                    }
                }
                // a flipped byte: body bytes are opaque and carried exactly;
                // in the head, the parse is an error or matches the framing
                1 => {
                    let pos = (at * bytes.len() as f64) as usize;
                    let mut flipped = bytes.clone();
                    flipped[pos] ^= mask;
                    match parse(&flipped, chunk) {
                        Ok(req) if pos >= head_len => {
                            let mut expected = sample.expected();
                            expected.body[pos - head_len] ^= mask;
                            assert_eq!(req, expected);
                        }
                        Ok(req) => assert_framed(&flipped, &req),
                        Err(HttpError::Malformed(_)) | Err(HttpError::TooLarge(_)) => {
                            assert!(pos < head_len, "a body flip at {pos} was rejected");
                        }
                        Err(e) => panic!("flip at {pos}: {e:?}"),
                    }
                }
                // a line run past the cap is refused, wherever it lands
                2 => {
                    let pos = (at * head_len as f64) as usize;
                    let mut long = bytes[..pos].to_vec();
                    long.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 1));
                    long.extend_from_slice(&bytes[pos..]);
                    match parse(&long, chunk) {
                        Err(HttpError::Malformed(m)) => assert!(m.contains("too long"), "{m}"),
                        other => panic!("overlong line at {pos}: {other:?}"),
                    }
                }
                // a declared length past the cap is refused before the body
                // is allocated or read
                _ => {
                    let (huge, head_len) = sample.render(declared);
                    let mut wire = Wire::from_bytes(huge[..head_len].to_vec(), usize::MAX);
                    match read_request(&mut wire) {
                        Err(HttpError::TooLarge(n)) => assert_eq!(n as u64, declared),
                        other => panic!("Content-Length {declared}: {other:?}"),
                    }
                    assert!(wire.output.is_empty(), "no 100 Continue for a refused body");
                    assert!(wire.reads <= 2, "{} reads", wire.reads);
                }
            }
        }
    }
}
