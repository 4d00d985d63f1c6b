//! Minimal HTTP/1.1 request parsing and response writing over
//! `std::net::TcpStream` — just enough of the protocol for this
//! service's `Connection: close` request/response exchanges, with hard
//! caps on header and body size so a misbehaving client cannot balloon
//! memory.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Largest accepted header block, bytes.
const MAX_HEADER: usize = 16 * 1024;
/// Largest accepted body, bytes.
const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, path, headers, and raw body.
#[derive(Debug)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Header `(name, value)` pairs in wire order, names as sent.
    pub headers: Vec<(String, String)>,
    /// Raw request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Socket failure mid-read.
    Io(std::io::Error),
    /// The bytes on the wire were not a parseable HTTP/1.1 request.
    Malformed(String),
    /// The request exceeded a size cap.
    TooLarge(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

/// Read one HTTP/1.1 request from the stream.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    // Read until the end of the header block.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER {
            return Err(HttpError::TooLarge(format!(
                "header block exceeds {MAX_HEADER} bytes"
            )));
        }
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed before end of headers".to_string(),
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let header_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = header_text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".to_string()))?
        .to_string();

    let mut content_length = 0usize;
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    HttpError::Malformed(format!("bad content-length {:?}", value.trim()))
                })?;
            }
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY}"
        )));
    }

    // Body: whatever arrived past the header block, then the remainder.
    let mut body: Vec<u8> = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed(
                "connection closed mid-body".to_string(),
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Write a complete response and flush. Always `Connection: close`.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_extra(stream, status, reason, content_type, &[], body)
}

/// Append `name: value` header lines and the blank line that ends the
/// header block.
fn end_head<K: AsRef<str>, V: AsRef<str>>(head: &mut String, extra: &[(K, V)]) {
    for (name, value) in extra {
        head.push_str(name.as_ref());
        head.push_str(": ");
        head.push_str(value.as_ref());
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
}

/// Head and body as one buffer, so a message leaves in one write.
fn message(head: String, body: &[u8]) -> Vec<u8> {
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body);
    msg
}

/// [`write_response`] with extra headers (`Retry-After`, `Deprecation`,
/// ...) between the standard block and the body. Head and body leave in
/// one write.
pub fn write_response_extra<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    end_head(&mut head, extra);
    stream.write_all(&message(head, body))?;
    stream.flush()
}

/// A client request to `host`: request line, JSON content type, length,
/// `Connection: close`, the `extra` headers and the body, in one buffer.
pub fn request_message<K: AsRef<str>, V: AsRef<str>>(
    method: &str,
    path: &str,
    host: &str,
    extra: &[(K, V)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    end_head(&mut head, extra);
    message(head, body)
}

/// Start a chunked response: status line and headers with
/// `Transfer-Encoding: chunked` instead of `Content-Length`. Follow
/// with [`write_chunk`] calls and one [`finish_chunked`].
pub fn write_chunked_head<W: Write>(
    stream: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n"
    );
    end_head(&mut head, extra);
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Append one HTTP/1.1 chunk (size line, payload, CRLF) to `msg`.
fn push_chunk(msg: &mut Vec<u8>, payload: &[u8]) {
    msg.extend_from_slice(format!("{:x}\r\n", payload.len()).as_bytes());
    msg.extend_from_slice(payload);
    msg.extend_from_slice(b"\r\n");
}

/// Write one HTTP/1.1 chunk in one write and flush, so the client sees
/// the span as soon as the scheduler produced it. Empty payloads are
/// skipped — a zero-size chunk would terminate the stream.
pub fn write_chunk<W: Write>(stream: &mut W, payload: &[u8]) -> std::io::Result<()> {
    if payload.is_empty() {
        return Ok(());
    }
    let mut msg = Vec::with_capacity(payload.len() + 12);
    push_chunk(&mut msg, payload);
    stream.write_all(&msg)?;
    stream.flush()
}

/// Terminate a chunked response: the chunk `last` (none when empty) and
/// the zero-size chunk, in one write.
pub fn finish_chunked<W: Write>(stream: &mut W, last: &[u8]) -> std::io::Result<()> {
    let mut msg = Vec::with_capacity(last.len() + 17);
    if !last.is_empty() {
        push_chunk(&mut msg, last);
    }
    msg.extend_from_slice(b"0\r\n\r\n");
    stream.write_all(&msg)?;
    stream.flush()
}

/// Decode a chunked transfer coding body into the payload bytes.
/// Tolerates a truncated tail (a stream cut mid-chunk yields the bytes
/// that made it), which is exactly what a deadline-expired stream
/// leaves on the wire.
///
/// No size cap applies: the payload is never longer than `raw`, which
/// the caller has already read in full. A `/v1/stream` response for a
/// long route is legitimately larger than the request-body cap.
pub fn decode_chunked(raw: &[u8]) -> Result<Vec<u8>, HttpError> {
    let mut out = Vec::with_capacity(raw.len());
    let mut pos = 0usize;
    // A missing size line means a truncated stream: return what decoded.
    while let Some(line_end) = raw[pos..].windows(2).position(|w| w == b"\r\n") {
        let size_line = String::from_utf8_lossy(&raw[pos..pos + line_end]);
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_hex, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_hex:?}")))?;
        pos += line_end + 2;
        if size == 0 {
            break; // terminal chunk
        }
        let take = size.min(raw.len().saturating_sub(pos));
        out.extend_from_slice(&raw[pos..pos + take]);
        pos += size + 2; // payload + trailing CRLF
        if pos > raw.len() {
            break; // truncated payload
        }
    }
    Ok(out)
}

/// Shorthand for a JSON response.
pub fn write_json(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    json: &str,
) -> std::io::Result<()> {
    write_response(stream, status, reason, "application/json", json.as_bytes())
}

/// Shorthand for a JSON response with extra headers.
pub fn write_json_extra(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, &str)],
    json: &str,
) -> std::io::Result<()> {
    write_response_extra(
        stream,
        status,
        reason,
        "application/json",
        extra,
        json.as_bytes(),
    )
}

/// A parsed client-side response: status, headers, and body text.
#[derive(Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Response header `(name, value)` pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body text.
    pub body: String,
}

impl HttpResponse {
    /// First response header with the given name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Blocking one-shot HTTP client for tools and tests: send `method
/// path` with an optional JSON body, return `(status, body)`.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, String), HttpError> {
    let resp = http_request_full(addr, method, path, &[], body)?;
    Ok((resp.status, resp.body))
}

/// [`http_request`] with extra request headers and the full parsed
/// response (status, headers, body) — tests use this to pin
/// `Retry-After` and `Deprecation` headers.
pub fn http_request_full(
    addr: &str,
    method: &str,
    path: &str,
    extra: &[(&str, &str)],
    body: Option<&str>,
) -> Result<HttpResponse, HttpError> {
    let mut stream = TcpStream::connect(addr).map_err(HttpError::Io)?;
    let msg = request_message(method, path, addr, extra, body.unwrap_or("").as_bytes());
    stream.write_all(&msg).map_err(HttpError::Io)?;
    stream.flush().map_err(HttpError::Io)?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(HttpError::Io)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| HttpError::Malformed("no header/body separator in response".to_string()))?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty response".to_string()))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    let chunked = headers.iter().any(|(n, v)| {
        n.eq_ignore_ascii_case("transfer-encoding") && v.eq_ignore_ascii_case("chunked")
    });
    let body = if chunked {
        String::from_utf8_lossy(&decode_chunked(payload.as_bytes())?).into_owned()
    } else {
        payload.to_string()
    };
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that keeps each `write` call's bytes apart.
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

    /// Each message leaves in one write, carrying the bytes the helpers
    /// used to send piece by piece (head, body; size line, payload, CRLF;
    /// trailer chunk, terminator).
    #[test]
    fn each_message_is_one_write_of_the_same_bytes() {
        let extra = [("Retry-After", "1"), ("X-Trace-Id", "00ab")];
        let body = br#"{"ok":true}"#;
        let mut w = Writes::default();
        write_response_extra(
            &mut w,
            503,
            "Service Unavailable",
            "application/json",
            &extra,
            body,
        )
        .unwrap();
        let head = "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
                    Content-Length: 11\r\nConnection: close\r\nRetry-After: 1\r\n\
                    X-Trace-Id: 00ab\r\n\r\n";
        assert_eq!(w.0, vec![[head.as_bytes(), body].concat()]);

        let mut w = Writes::default();
        write_chunked_head(&mut w, 200, "OK", "application/x-ndjson", &extra[1..]).unwrap();
        write_chunk(&mut w, b"").unwrap();
        write_chunk(&mut w, b"{\"seq\":0}\n").unwrap();
        finish_chunked(&mut w, b"{\"done\":true}\n").unwrap();
        finish_chunked(&mut w, b"").unwrap();
        let head = "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                    Transfer-Encoding: chunked\r\nConnection: close\r\nX-Trace-Id: 00ab\r\n\r\n";
        let want: [&[u8]; 4] = [
            head.as_bytes(),
            b"a\r\n{\"seq\":0}\n\r\n",
            b"e\r\n{\"done\":true}\n\r\n0\r\n\r\n",
            b"0\r\n\r\n",
        ];
        assert_eq!(w.0, want.map(<[u8]>::to_vec));

        let msg = request_message("POST", "/v1/stream", "127.0.0.1:9", &extra[1..], body);
        let head = "POST /v1/stream HTTP/1.1\r\nHost: 127.0.0.1:9\r\n\
                    Content-Type: application/json\r\nContent-Length: 11\r\n\
                    Connection: close\r\nX-Trace-Id: 00ab\r\n\r\n";
        assert_eq!(msg, [head.as_bytes(), body].concat());
        let none: [(&str, &str); 0] = [];
        let msg = request_message("GET", "/v1/models", "h", &none, b"");
        let head = "GET /v1/models HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n\
                    Content-Length: 0\r\nConnection: close\r\n\r\n";
        assert_eq!(msg, head.as_bytes());
    }

    #[test]
    fn header_end_detection() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n"), None);
    }

    #[test]
    fn chunked_roundtrip_and_truncation() {
        // Two chunks + terminator.
        let wire = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
        let body = decode_chunked(wire).expect("well-formed chunked body");
        assert_eq!(body, b"hello world");

        // Cut mid-payload: the bytes that made it are returned.
        let cut = &wire[..10];
        assert_eq!(decode_chunked(cut).expect("truncated decodes"), b"hello");

        // Garbage size line is an error, not silent truncation.
        assert!(decode_chunked(b"zz\r\nhello\r\n").is_err());
    }

    #[test]
    fn chunked_body_larger_than_the_request_cap_decodes() {
        // A long route's stream: 2 MiB in 32 KiB chunks, twice MAX_BODY.
        let payload: Vec<u8> = (0..2 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        for chunk in payload.chunks(32 * 1024) {
            wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
            wire.extend_from_slice(chunk);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        assert!(payload.len() > MAX_BODY);
        assert_eq!(decode_chunked(&wire).expect("2 MiB chunked body"), payload);
    }

    #[test]
    fn header_lookup_is_case_insensitive() {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/generate".to_string(),
            headers: vec![("Deadline-Ms".to_string(), "250".to_string())],
            body: Vec::new(),
        };
        assert_eq!(req.header("deadline-ms"), Some("250"));
        assert_eq!(req.header("DEADLINE-MS"), Some("250"));
        assert_eq!(req.header("retry-after"), None);
    }
}
