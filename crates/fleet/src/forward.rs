//! Worker transport: forwarding a request over HTTP/1.1 with a hard
//! timeout, plus the production [`Probe`] implementation.
//!
//! Both are behind traits so the audit sync-check gate can substitute
//! deterministic stubs. The real paths carry the chaos probes
//! `fleet.forward` and `fleet.health` (`GENDT_FAULTS`), so the fleet
//! failover logic is testable under seeded fault schedules like every
//! other subsystem.

use crate::membership::Probe;
use gendt_faults::GendtError;
use gendt_serve::api::InfoResponse;
use gendt_serve::http::{request_message, HttpResponse};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Request transport to one worker, substitutable for checking.
pub trait Forwarder: Send + Sync {
    /// Send `method path` with optional extra headers and body; return
    /// the worker's full response. Must complete within `timeout`.
    fn forward(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        extra_headers: &[(String, String)],
        body: Option<&str>,
        timeout: Duration,
    ) -> Result<HttpResponse, GendtError>;
}

/// Floor for socket timeouts: `set_read_timeout(0)` is an error, and a
/// sub-millisecond budget is as good as expired.
const MIN_TIMEOUT: Duration = Duration::from_millis(1);

fn io_unavailable(what: &str, addr: &str, e: &dyn std::fmt::Display) -> GendtError {
    GendtError::unavailable(format!("{what} {addr}: {e}"))
}

/// One timed HTTP/1.1 exchange with `addr`.
fn timed_request(
    addr: &str,
    method: &str,
    path: &str,
    extra_headers: &[(String, String)],
    body: Option<&str>,
    timeout: Duration,
) -> Result<HttpResponse, GendtError> {
    let timeout = timeout.max(MIN_TIMEOUT);
    let sock: SocketAddr = addr
        .parse()
        .map_err(|e| GendtError::config(format!("bad worker addr {addr:?}: {e}")))?;
    let stream = TcpStream::connect_timeout(&sock, timeout)
        .map_err(|e| io_unavailable("connecting to worker", addr, &e))?;
    let mut stream = stream;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| io_unavailable("configuring socket to", addr, &e))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| io_unavailable("configuring socket to", addr, &e))?;

    let msg = request_message(
        method,
        path,
        addr,
        extra_headers,
        body.unwrap_or("").as_bytes(),
    );
    stream
        .write_all(&msg)
        .and_then(|()| stream.flush())
        .map_err(|e| io_unavailable("writing to worker", addr, &e))?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            GendtError::timeout(format!("worker {addr} exceeded {timeout:?}"))
        } else {
            io_unavailable("reading from worker", addr, &e)
        }
    })?;
    parse_response(addr, &raw)
}

fn parse_response(addr: &str, raw: &[u8]) -> Result<HttpResponse, GendtError> {
    let text = String::from_utf8_lossy(raw);
    let (head, payload) = text.split_once("\r\n\r\n").ok_or_else(|| {
        GendtError::unavailable(format!("worker {addr} sent a truncated response"))
    })?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| GendtError::unavailable(format!("worker {addr} sent an empty response")))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            GendtError::unavailable(format!("worker {addr}: bad status line {status_line:?}"))
        })?;
    let headers = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(n, v)| (n.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    Ok(HttpResponse {
        status,
        headers,
        body: payload.to_string(),
    })
}

/// The production [`Forwarder`]: plain HTTP/1.1 over loopback TCP.
pub struct HttpForwarder;

impl Forwarder for HttpForwarder {
    fn forward(
        &self,
        addr: &str,
        method: &str,
        path: &str,
        extra_headers: &[(String, String)],
        body: Option<&str>,
        timeout: Duration,
    ) -> Result<HttpResponse, GendtError> {
        gendt_faults::fail_io("fleet.forward")
            .map_err(|e| GendtError::unavailable(format!("forward to {addr}: {e}")))?;
        gendt_faults::sleep_if_slow("fleet.forward");
        timed_request(addr, method, path, extra_headers, body, timeout)
    }
}

/// Health/discovery probe budget: generous against a loaded worker,
/// small against a dead one.
const PROBE_TIMEOUT: Duration = Duration::from_millis(1500);

/// The production [`Probe`]: `GET /v1/healthz` + `GET /v1/info`.
pub struct HttpProbe;

impl Probe for HttpProbe {
    fn healthz(&self, addr: &str) -> Result<bool, GendtError> {
        gendt_faults::fail_io("fleet.health")
            .map_err(|e| GendtError::unavailable(format!("health probe {addr}: {e}")))?;
        gendt_faults::sleep_if_slow("fleet.health");
        let resp = timed_request(addr, "GET", "/v1/healthz", &[], None, PROBE_TIMEOUT)?;
        Ok(resp.status == 200)
    }

    fn info(&self, addr: &str) -> Result<InfoResponse, GendtError> {
        let resp = timed_request(addr, "GET", "/v1/info", &[], None, PROBE_TIMEOUT)?;
        if resp.status != 200 {
            return Err(GendtError::unavailable(format!(
                "info probe {addr} returned {}",
                resp.status
            )));
        }
        serde_json::from_str(&resp.body)
            .map_err(|e| GendtError::corrupt(format!("info probe {addr}: bad body: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_response_extracts_status_headers_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Type: application/json\r\n\r\n{\"code\":\"unavailable\"}";
        let resp = parse_response("127.0.0.1:9", raw).expect("parse");
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert!(resp.body.contains("unavailable"));
    }

    #[test]
    fn truncated_response_is_unavailable() {
        let err = parse_response("127.0.0.1:9", b"HTTP/1.1 200 OK\r\n").expect_err("truncated");
        assert_eq!(err.kind(), gendt_faults::ErrorKind::Unavailable);
    }

    #[test]
    fn connect_to_dead_port_is_unavailable() {
        // Bind-then-drop guarantees an unbound port.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        };
        let err = HttpForwarder
            .forward(
                &addr,
                "POST",
                "/v1/generate",
                &[],
                Some("{}"),
                Duration::from_millis(200),
            )
            .expect_err("dead worker");
        assert!(err.retryable(), "transport failure must be retryable");
    }

    #[test]
    fn bad_addr_is_config_error() {
        let err = HttpForwarder
            .forward(
                "not-an-addr",
                "GET",
                "/v1/healthz",
                &[],
                None,
                Duration::from_millis(50),
            )
            .expect_err("bad addr");
        assert_eq!(err.kind(), gendt_faults::ErrorKind::Config);
    }
}
