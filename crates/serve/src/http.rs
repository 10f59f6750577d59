//! A deliberately small HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The daemon needs exactly: request-line + header parsing with a
//! bounded body, fixed-length responses, and chunked transfer encoding
//! for the snapshot streams. Pulling in an async runtime for that would
//! violate the workspace's no-new-deps rule and buy nothing — each
//! connection is one OS thread, and the concurrency ceiling is the
//! worker pool, not the socket count. A matching minimal client lives
//! here too so the benchmark and tests exercise the real wire format.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest request body we accept (a job submission is ~200 bytes).
pub const MAX_BODY: usize = 64 * 1024;
/// Largest request head (request line + headers).
pub const MAX_HEAD: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (no leading `?`), empty if absent.
    pub query: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Value of one `key=value` query parameter.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (k == key).then_some(v)
        })
    }

    /// Split the path into non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Read one head line into `line` through the `MAX_HEAD` budget that
/// `head_bytes` has not used yet, so a hostile peer can make us buffer
/// at most `MAX_HEAD` bytes. A line that fills the budget without
/// ending is refused. Returns the bytes read (0 at end of stream).
fn read_head_line(
    stream: &mut BufReader<TcpStream>,
    head_bytes: &mut usize,
    line: &mut String,
) -> Result<usize, String> {
    let left = MAX_HEAD - *head_bytes;
    let n = stream
        .take(left as u64)
        .read_line(line)
        .map_err(|e| format!("read request head: {e}"))?;
    if n == left && !line.ends_with('\n') {
        return Err("request head too large".into());
    }
    *head_bytes += n;
    Ok(n)
}

/// The body length the head declares (RFC 9112 §6.3): every
/// `Content-Length` header must be `1*DIGIT` and all must agree — a
/// sign, a list or two values would let two parsers frame the body
/// differently.
fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, String> {
    let mut lens = headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"));
    let Some((_, len)) = lens.next() else {
        return Ok(None);
    };
    if lens.any(|(_, v)| v != len) {
        return Err("conflicting content-length headers".into());
    }
    match len.parse() {
        Ok(n) if len.bytes().all(|b| b.is_ascii_digit()) => Ok(Some(n)),
        _ => Err(format!("bad content-length {len:?}")),
    }
}

/// Read and parse one request from the stream. `Ok(None)` means the
/// peer closed before sending anything (normal keep-alive teardown).
pub fn read_request(stream: &mut BufReader<TcpStream>) -> Result<Option<Request>, String> {
    let mut head_bytes = 0;
    let mut line = String::new();
    if read_head_line(stream, &mut head_bytes, &mut line)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("missing request target")?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        read_head_line(stream, &mut head_bytes, &mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }

    let mut req = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if let Some(len) = content_length(&req.headers)? {
        if len > MAX_BODY {
            return Err(format!("body of {len} bytes exceeds cap of {MAX_BODY}"));
        }
        let mut body = vec![0u8; len];
        stream
            .read_exact(&mut body)
            .map_err(|e| format!("read body: {e}"))?;
        req.body = body;
    }
    Ok(Some(req))
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write a complete fixed-length response. `extra_headers` are raw
/// `Name: value` lines.
pub fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    extra_headers: &[String],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        code,
        status_text(code),
        content_type,
        body.len(),
    );
    for h in extra_headers {
        head.push_str(h);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Shorthand for a JSON body.
pub fn respond_json(stream: &mut TcpStream, code: u16, body: &str) -> std::io::Result<()> {
    respond(stream, code, "application/json", &[], body.as_bytes())
}

/// Shorthand for a JSON error body `{"error": ...}`.
pub fn respond_error(stream: &mut TcpStream, code: u16, msg: &str) -> std::io::Result<()> {
    let mut w = greem_obs::json::JsonWriter::new();
    w.begin_obj(None);
    w.str_(Some("error"), msg);
    w.end_obj();
    respond_json(stream, code, &w.finish())
}

/// Begin a chunked response; follow with [`write_chunk`] calls and
/// finish with [`finish_chunked`].
pub fn start_chunked(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// One chunk (empty payloads are skipped — an empty chunk terminates
/// the stream in HTTP).
pub fn write_chunk(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    write!(stream, "{:x}\r\n", payload.len())?;
    stream.write_all(payload)?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminate a chunked response.
pub fn finish_chunked(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Minimal client — used by `harness serve-bench`, the integration tests
// and anything else that wants to talk to a daemon in-process.
// ---------------------------------------------------------------------------

/// A complete client response.
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

fn read_response_head(
    reader: &mut BufReader<TcpStream>,
) -> Result<(u16, Vec<(String, String)>), String> {
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read status line: {e}"))?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let mut h = String::new();
        reader
            .read_line(&mut h)
            .map_err(|e| format!("read header: {e}"))?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.trim().to_string(), v.trim().to_string()));
        }
    }
    Ok((status, headers))
}

/// One-shot request; reads the entire response body (fixed-length or
/// chunked) before returning.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<ClientResponse, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let mut out = stream.try_clone().map_err(|e| e.to_string())?;
    let body_bytes = body.map(str::as_bytes).unwrap_or(b"");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body_bytes.len(),
    );
    out.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    out.write_all(body_bytes).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    let mut reader = BufReader::new(stream);
    let (status, headers) = read_response_head(&mut reader)?;
    let chunked = headers
        .iter()
        .any(|(k, v)| k.eq_ignore_ascii_case("transfer-encoding") && v.contains("chunked"));
    let body = if chunked {
        let mut body = Vec::new();
        while let Some(chunk) = read_chunk(&mut reader)? {
            body.extend_from_slice(&chunk);
        }
        body
    } else {
        let len = headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).map_err(|e| e.to_string())?;
        body
    };
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

/// A client handle onto an in-progress chunked stream: yields one chunk
/// at a time so consumers can react to each snapshot as it arrives.
pub struct ChunkStream {
    reader: BufReader<TcpStream>,
    pub status: u16,
    done: bool,
}

/// Open a streaming GET; returns once the response head is in.
pub fn open_stream(addr: &str, path: &str) -> Result<ChunkStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut out = stream.try_clone().map_err(|e| e.to_string())?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    out.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let (status, _headers) = read_response_head(&mut reader)?;
    Ok(ChunkStream {
        reader,
        status,
        done: false,
    })
}

impl ChunkStream {
    /// Next chunk payload, `None` once the stream terminates.
    pub fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.done {
            return Ok(None);
        }
        match read_chunk(&mut self.reader)? {
            Some(c) => Ok(Some(c)),
            None => {
                self.done = true;
                Ok(None)
            }
        }
    }
}

fn read_chunk(reader: &mut BufReader<TcpStream>) -> Result<Option<Vec<u8>>, String> {
    let mut size_line = String::new();
    reader
        .read_line(&mut size_line)
        .map_err(|e| format!("read chunk size: {e}"))?;
    let size = usize::from_str_radix(size_line.trim(), 16)
        .map_err(|_| format!("bad chunk size line: {size_line:?}"))?;
    if size == 0 {
        let mut trailer = String::new();
        reader.read_line(&mut trailer).ok();
        return Ok(None);
    }
    let mut payload = vec![0u8; size];
    reader
        .read_exact(&mut payload)
        .map_err(|e| format!("read chunk payload: {e}"))?;
    let mut crlf = [0u8; 2];
    reader
        .read_exact(&mut crlf)
        .map_err(|e| format!("read chunk terminator: {e}"))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let req = read_request(&mut reader).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.query_param("trace"), Some("1"));
            assert_eq!(req.segments(), vec!["jobs"]);
            assert_eq!(req.body, b"{\"n\": 64}");
            let mut stream = stream;
            respond_json(&mut stream, 202, "{\"id\": \"j-0\"}").unwrap();
        });
        let resp = request(&addr, "POST", "/jobs?trace=1", Some("{\"n\": 64}")).unwrap();
        assert_eq!(resp.status, 202);
        assert_eq!(resp.body_str(), "{\"id\": \"j-0\"}");
        server.join().unwrap();
    }

    #[test]
    fn chunked_stream_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            read_request(&mut reader).unwrap().unwrap();
            let mut stream = stream;
            start_chunked(&mut stream, "application/x-ndjson").unwrap();
            for i in 0..3 {
                write_chunk(&mut stream, format!("{{\"step\": {i}}}\n").as_bytes()).unwrap();
            }
            finish_chunked(&mut stream).unwrap();
        });
        let mut s = open_stream(&addr, "/jobs/j-0/stream").unwrap();
        assert_eq!(s.status, 200);
        let mut chunks = Vec::new();
        while let Some(c) = s.next_chunk().unwrap() {
            chunks.push(String::from_utf8(c).unwrap());
        }
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2], "{\"step\": 2}\n");
        assert!(s.next_chunk().unwrap().is_none(), "stream stays terminated");
        server.join().unwrap();
    }

    #[test]
    fn oversized_body_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let err = read_request(&mut reader).unwrap_err();
            assert!(err.contains("exceeds cap"));
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        let head = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        server.join().unwrap();
    }

    /// Send `head` (with an empty body) to a fresh `read_request` and
    /// return its error.
    fn refused_head(head: &str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        stream.write_all(head.as_bytes()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        read_request(&mut BufReader::new(conn)).unwrap_err()
    }

    #[test]
    fn malformed_or_conflicting_content_length_rejected() {
        for len in ["+5", "-5", "5 5", "0x5", "5,5", ""] {
            let err = refused_head(&format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {len}\r\n\r\nhello"
            ));
            assert!(err.starts_with("bad content-length"), "{len:?}: {err}");
        }
        let err = refused_head(
            "POST /jobs HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 3\r\n\r\nhello",
        );
        assert_eq!(err, "conflicting content-length headers");
    }

    #[test]
    fn unterminated_head_is_capped() {
        // 1 MiB of one unbroken token and no newline: the server must
        // stop at MAX_HEAD and refuse, not buffer the whole MiB.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).unwrap();
            // The server may hang up mid-write once it has refused.
            if stream.write_all(&vec![b'a'; 1 << 20]).is_ok() {
                let _ = stream.shutdown(std::net::Shutdown::Write);
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let err = read_request(&mut reader).unwrap_err();
        assert_eq!(err, "request head too large");
        drop(reader);
        client.join().unwrap();
    }
}
