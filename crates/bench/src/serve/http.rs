//! Just enough HTTP/1.1 for the serving daemon — std only, matching the
//! workspace's vendoring posture (no hyper, no tokio).
//!
//! One request per connection (`Connection: close`); request line, headers,
//! and a `Content-Length` body; plain or chunked responses. That subset is
//! all `curl`, the CI smoke job, and the load-test client need.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Largest request body the daemon accepts (a hand-written sweep spec is
/// kilobytes; anything near this limit is abuse, not an experiment).
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Largest request head (request line plus headers) the daemon reads. A
/// longer head is [`HeadTooLarge`], whatever its line count, so a client
/// that streams bytes without a newline cannot grow a line without bound.
pub const MAX_HEAD: u64 = 64 * 1024;

/// The error inside the `io::Error` that [`read_request`] returns for a
/// head longer than [`MAX_HEAD`]; the daemon answers it with a 431.
#[derive(Debug)]
pub struct HeadTooLarge;

impl std::fmt::Display for HeadTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request head exceeds {MAX_HEAD} bytes")
    }
}

impl std::error::Error for HeadTooLarge {}

impl HeadTooLarge {
    /// Whether `e` is a [`HeadTooLarge`] from [`read_request`].
    pub fn is(e: &std::io::Error) -> bool {
        e.get_ref().is_some_and(|inner| inner.is::<HeadTooLarge>())
    }
}

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/v1/sweep`.
    pub path: String,
    /// Decoded query parameters, last occurrence winning.
    pub query: HashMap<String, String>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// A query parameter, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Reads one request from the stream. The head is read through a
/// [`MAX_HEAD`] cap; a head the cap cuts short is a [`HeadTooLarge`] error.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Request> {
    let mut head = BufReader::new(stream).take(MAX_HEAD);
    let line = read_head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return Err(bad("malformed request line")),
    };
    let mut content_length = 0usize;
    loop {
        let header = read_head_line(&mut head)?;
        if header.is_empty() {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad(format!("body of {content_length} bytes exceeds limit")));
    }
    let mut body = vec![0u8; content_length];
    head.into_inner().read_exact(&mut body)?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, HashMap::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Reads one line of the request head, newline included (empty at end of
/// stream). A line that the [`MAX_HEAD`] cap ends before its newline, or a
/// read with the cap spent, is [`HeadTooLarge`]. The cap is checked on the
/// raw bytes before they are decoded, so a cap that cuts a multi-byte
/// character is still [`HeadTooLarge`], not a UTF-8 error.
fn read_head_line(head: &mut Take<BufReader<&mut TcpStream>>) -> std::io::Result<String> {
    let mut line = Vec::new();
    head.read_until(b'\n', &mut line)?;
    if head.limit() == 0 && line.last() != Some(&b'\n') {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            HeadTooLarge,
        ));
    }
    String::from_utf8(line).map_err(|_| bad("request head is not UTF-8"))
}

/// Closes a connection whose reply went out before its request was read
/// to the end (a [`HeadTooLarge`] head). Closing a socket with unread
/// input resets the connection, which can destroy the reply before the
/// client reads it. So this half-closes `stream`, then reads and discards
/// what the client still sends, for at most [`MAX_BODY`] bytes and 2 s.
pub fn linger_close(stream: &mut TcpStream) {
    const LINGER: Duration = Duration::from_secs(2);
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + LINGER;
    let _ = stream.set_read_timeout(Some(LINGER));
    let mut buf = [0u8; 8192];
    let mut left = MAX_BODY;
    while left > 0 && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// Parses `a=1&b=two` with `%XX` and `+` decoding.
fn parse_query(q: &str) -> HashMap<String, String> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(b) => {
                        out.push(b);
                        i += 2;
                    }
                    Err(_) => out.push(b'%'),
                }
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "",
    }
}

/// Sends one whole message with a single `write_all` and flushes, so a
/// response head, a chunk or a request never goes out as a run of small
/// writes (one segment each on an unbuffered socket).
fn send(stream: &mut impl Write, message: &[u8]) -> std::io::Result<()> {
    stream.write_all(message)?;
    stream.flush()
}

/// A response head: the status line, `framing` (the body-length header),
/// `Content-Type`, `Connection: close` and `extra_headers`, then the blank
/// line.
fn response_head(
    status: u16,
    content_type: &str,
    framing: &str,
    extra_headers: &[(&str, &str)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n{framing}\r\n\
         Connection: close\r\n",
        reason(status)
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    head.into_bytes()
}

/// Writes a complete response and flushes.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    write_response_with(stream, status, content_type, body, &[])
}

/// [`write_response`] with extra response headers (e.g. `X-Request-Id`).
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let framing = format!("Content-Length: {}", body.len());
    let mut message = response_head(status, content_type, &framing, extra_headers);
    message.extend_from_slice(body.as_bytes());
    send(stream, &message)
}

/// A `Transfer-Encoding: chunked` response in progress — the daemon's
/// per-point progress stream.
pub struct ChunkedResponse<'a, W: Write> {
    stream: &'a mut W,
}

impl<'a, W: Write> ChunkedResponse<'a, W> {
    /// Writes the status line and headers, plus `extra_headers`, leaving
    /// the body open.
    pub fn begin_with(
        stream: &'a mut W,
        status: u16,
        content_type: &str,
        extra_headers: &[(&str, &str)],
    ) -> std::io::Result<Self> {
        let head = response_head(
            status,
            content_type,
            "Transfer-Encoding: chunked",
            extra_headers,
        );
        send(stream, &head)?;
        Ok(ChunkedResponse { stream })
    }

    /// Sends one chunk (flushed immediately, so clients see progress live).
    /// Empty chunks are skipped: a zero-length chunk is the chunked-body
    /// terminator on the wire, so writing one here would silently end the
    /// stream and turn every later chunk into garbage the client rejects.
    pub fn chunk(&mut self, data: &str) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut message = format!("{:x}\r\n", data.len()).into_bytes();
        message.extend_from_slice(data.as_bytes());
        message.extend_from_slice(b"\r\n");
        send(self.stream, &message)
    }

    /// Terminates the chunked body.
    pub fn finish(self) -> std::io::Result<()> {
        send(self.stream, b"0\r\n\r\n")
    }
}

/// Client half: sends `method target` with an optional body over a fresh
/// connection and returns `(status, body)`, decoding chunked transfer.
pub fn fetch(
    addr: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let (status, _headers, body) = fetch_with_headers(addr, method, target, body)?;
    Ok((status, body))
}

/// Response header list: `(lowercased name, value)` pairs in wire order.
pub type Headers = Vec<(String, String)>;

/// [`fetch`] that also returns the response headers (lowercased names), so
/// callers can read e.g. the daemon's `X-Request-Id`.
pub fn fetch_with_headers(
    addr: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, Headers, String)> {
    let mut stream = TcpStream::connect(addr)?;
    send(
        &mut stream,
        &request(addr, method, target, body.unwrap_or("")),
    )?;
    read_response_with_headers(&mut stream)
}

/// A whole `Connection: close` request with a `Content-Length` body.
fn request(addr: &str, method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut message = format!(
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body.as_bytes());
    message
}

/// Finds a header by case-insensitive name in a [`fetch_with_headers`]
/// header list.
pub fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Reads a full response from the stream, decoding chunked bodies and
/// keeping the response headers (lowercased names).
pub fn read_response_with_headers(
    stream: &mut TcpStream,
) -> std::io::Result<(u16, Headers, String)> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line: {line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if name == "content-length" {
                content_length = value.parse().ok();
            } else if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
                chunked = true;
            }
            headers.push((name, value.to_string()));
        }
    }
    let mut body = Vec::new();
    if chunked {
        loop {
            let mut size_line = String::new();
            reader.read_line(&mut size_line)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| bad(format!("bad chunk size: {size_line:?}")))?;
            if size == 0 {
                let mut trailer = String::new();
                let _ = reader.read_line(&mut trailer);
                break;
            }
            let mut chunk = vec![0u8; size];
            reader.read_exact(&mut chunk)?;
            body.extend_from_slice(&chunk);
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
        }
    } else if let Some(n) = content_length {
        body.resize(n, 0);
        reader.read_exact(&mut body)?;
    } else {
        reader.read_to_end(&mut body)?;
    }
    Ok((status, headers, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_strings_decode() {
        let q = parse_query("client=team+a&name=fig5_sweep&x=%2Fpath&flag");
        assert_eq!(q["client"], "team a");
        assert_eq!(q["name"], "fig5_sweep");
        assert_eq!(q["x"], "/path");
        assert_eq!(q["flag"], "");
    }

    /// A sink that records each `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_goes_out_in_one_write() {
        let mut w = Writes::default();
        write_response_with(
            &mut w,
            200,
            "application/json",
            "{}",
            &[("X-Request-Id", "7")],
        )
        .unwrap();
        assert_eq!(
            w.0,
            [
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\
               Connection: close\r\nX-Request-Id: 7\r\n\r\n{}"
                    .to_vec()
            ]
        );

        let mut w = Writes::default();
        let mut resp =
            ChunkedResponse::begin_with(&mut w, 200, "text/plain", &[("A", "b")]).unwrap();
        resp.chunk("hello").unwrap();
        resp.chunk("").unwrap();
        resp.chunk("0123456789abcdef").unwrap();
        resp.finish().unwrap();
        let writes: Vec<&[u8]> = w.0.iter().map(Vec::as_slice).collect();
        assert_eq!(
            writes,
            [
                &b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nTransfer-Encoding: chunked\r\n\
                   Connection: close\r\nA: b\r\n\r\n"[..],
                b"5\r\nhello\r\n",
                b"10\r\n0123456789abcdef\r\n",
                b"0\r\n\r\n",
            ]
        );

        let mut w = Writes::default();
        send(&mut w, &request("h:1", "POST", "/v1/run", "{}")).unwrap();
        assert_eq!(
            w.0,
            [
                b"POST /v1/run HTTP/1.1\r\nHost: h:1\r\nContent-Length: 2\r\n\
               Connection: close\r\n\r\n{}"
                    .to_vec()
            ]
        );
    }

    #[test]
    fn request_and_response_round_trip_over_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/v1/run");
            assert_eq!(req.param("client"), Some("c1"));
            assert_eq!(req.body, b"{\"x\":1}");
            write_response(&mut conn, 200, "application/json", "{\"ok\":true}").unwrap();
        });
        let (status, body) = fetch(&addr, "POST", "/v1/run?client=c1", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn chunked_bodies_reassemble() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_request(&mut conn).unwrap();
            let mut resp =
                ChunkedResponse::begin_with(&mut conn, 200, "application/jsonl", &[]).unwrap();
            resp.chunk("{\"point\":0}\n").unwrap();
            resp.chunk("{\"point\":1}\n").unwrap();
            resp.finish().unwrap();
        });
        let (status, body) = fetch(&addr, "GET", "/stream", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"point\":0}\n{\"point\":1}\n");
        server.join().unwrap();
    }

    #[test]
    fn extra_headers_round_trip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_request(&mut conn).unwrap();
            write_response_with(
                &mut conn,
                200,
                "application/json",
                "{}",
                &[("X-Request-Id", "r-00000042")],
            )
            .unwrap();
        });
        let (status, headers, body) = fetch_with_headers(&addr, "GET", "/", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{}");
        assert_eq!(header(&headers, "x-request-id"), Some("r-00000042"));
        assert_eq!(header(&headers, "X-REQUEST-ID"), Some("r-00000042"));
        assert_eq!(header(&headers, "content-type"), Some("application/json"));
        server.join().unwrap();
    }

    #[test]
    fn zero_length_chunks_do_not_terminate_the_stream() {
        // "0\r\n\r\n" is the chunked terminator; an empty payload chunk
        // must be skipped, not written, or everything after it is lost.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_request(&mut conn).unwrap();
            let mut resp = ChunkedResponse::begin_with(&mut conn, 200, "text/plain", &[]).unwrap();
            resp.chunk("before").unwrap();
            resp.chunk("").unwrap();
            resp.chunk("after").unwrap();
            resp.finish().unwrap();
        });
        let (status, body) = fetch(&addr, "GET", "/", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "beforeafter", "data after the empty chunk survives");
        server.join().unwrap();
    }

    #[test]
    fn chunk_exactly_at_reader_buffer_size_survives() {
        // BufReader's default buffer is 8 KiB; a chunk of exactly that
        // size straddles the refill path in the client's decoder.
        let payload = "x".repeat(8192);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let expected = payload.clone();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_request(&mut conn).unwrap();
            let mut resp = ChunkedResponse::begin_with(&mut conn, 200, "text/plain", &[]).unwrap();
            resp.chunk(&payload).unwrap();
            resp.chunk("tail").unwrap();
            resp.finish().unwrap();
        });
        let (status, body) = fetch(&addr, "GET", "/", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body.len(), expected.len() + 4);
        assert_eq!(&body[..8192], expected);
        assert_eq!(&body[8192..], "tail");
        server.join().unwrap();
    }

    #[test]
    fn client_disconnect_mid_stream_surfaces_as_io_error() {
        // The server must get an Err (not a panic or a hang) when the
        // client hangs up between chunks — the daemon treats that as a
        // normally-completed request with an aborted respond phase.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || -> std::io::Result<()> {
            let (mut conn, _) = listener.accept().unwrap();
            let _ = read_request(&mut conn)?;
            let mut resp = ChunkedResponse::begin_with(&mut conn, 200, "text/plain", &[])?;
            // Keep writing until the peer's RST lands; a closed socket can
            // absorb a few writes into kernel buffers first.
            for _ in 0..10_000 {
                resp.chunk(&"y".repeat(4096))?;
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            panic!("peer hung up but writes kept succeeding");
        });
        {
            let mut conn = TcpStream::connect(&addr).unwrap();
            write!(
                conn,
                "GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
            .unwrap();
            conn.flush().unwrap();
            // Read a little, then drop the connection mid-body.
            let mut buf = [0u8; 64];
            let _ = conn.read(&mut buf).unwrap();
        }
        let err = server.join().unwrap().unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::WriteZero
            ),
            "unexpected error kind: {err:?}"
        );
    }
}
