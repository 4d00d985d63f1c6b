//! The benchmark's own load generator: a blocking HTTP/1.1 client and a
//! bounded open loop. Each request is timed from its due time on a
//! seeded Poisson schedule, so a stall also charges the requests queued
//! behind it; at most `threads` requests (one connection each) are in
//! flight at once.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// No single request may hold a client thread longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// Shed or refused by the server (429, 503): not served, not broken.
    Refused,
    Failed,
}

pub struct Reply {
    pub status: u16,
    pub body: String,
}

impl Reply {
    pub fn class(&self) -> Status {
        match self.status {
            200 => Status::Ok,
            429 | 503 => Status::Refused,
            _ => Status::Failed,
        }
    }
}

/// `GET` or `POST` one request on a fresh connection and read the whole
/// response (the server closes every connection after one exchange).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Result<Reply, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket options: {e}"))?;
    let mut wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in headers {
        wire.push_str(&format!("{name}: {value}\r\n"));
    }
    wire.push_str("\r\n");
    wire.push_str(body);
    // One write, so the request never waits on Nagle's algorithm.
    stream
        .write_all(wire.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|e| format!("header: {e}"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let chunked = lines.filter_map(|l| l.split_once(':')).any(|(n, v)| {
        n.trim().eq_ignore_ascii_case("transfer-encoding")
            && v.trim().eq_ignore_ascii_case("chunked")
    });
    let payload = &raw[split + 4..];
    let body = if chunked {
        gendt_serve::http::decode_chunked(payload).map_err(|e| format!("chunked body: {e}"))?
    } else {
        payload.to_vec()
    };
    Ok(Reply {
        status,
        body: String::from_utf8(body).map_err(|e| format!("body: {e}"))?,
    })
}

/// One request of a phase, times in seconds from the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub idx: usize,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub status: Status,
}

impl Sample {
    /// Due time to last byte; a request that was not served counts as +∞.
    pub fn latency_ms(&self) -> f64 {
        if self.status == Status::Ok {
            (self.done - self.due) * 1e3
        } else {
            f64::INFINITY
        }
    }
}

pub struct Phase {
    pub name: &'static str,
    pub samples: Vec<Sample>,
    /// Phase start to last completion, seconds.
    pub wall: f64,
    /// CPU seconds this process used, and seconds the machine's CPUs
    /// were stolen, over the phase.
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Phase {
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_ms).collect()
    }

    pub fn count(&self, status: Status) -> usize {
        self.samples.iter().filter(|s| s.status == status).count()
    }

    /// How late the generator sent, milliseconds (its own diagnostic).
    pub fn send_lag_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.sent - s.due).max(0.0) * 1e3)
            .collect()
    }
}

/// Offer one request per entry of `offsets` (seconds from now) with at
/// most `threads` in flight; `op(idx)` performs request `idx`.
pub fn open_loop(
    name: &'static str,
    offsets: &[f64],
    threads: usize,
    op: &(dyn Fn(usize) -> Status + Sync),
) -> Phase {
    let meter = (crate::cpu_seconds(), crate::steal_seconds());
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(offsets.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&due) = offsets.get(idx) else { break };
                let wait = due - start.elapsed().as_secs_f64();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let sent = start.elapsed().as_secs_f64();
                let status = op(idx);
                let done = start.elapsed().as_secs_f64();
                let s = Sample {
                    idx,
                    due,
                    sent,
                    done,
                    status,
                };
                samples.lock().expect("sample lock").push(s);
            });
        }
    });
    finish(name, samples.into_inner().expect("sample lock"), meter)
}

/// Every one of `threads` connections sends back to back for `seconds`.
pub fn saturate(
    name: &'static str,
    seconds: f64,
    threads: usize,
    op: &(dyn Fn(usize) -> Status + Sync),
) -> Phase {
    let meter = (crate::cpu_seconds(), crate::steal_seconds());
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let sent = start.elapsed().as_secs_f64();
                if sent >= seconds {
                    break;
                }
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let status = op(idx);
                let done = start.elapsed().as_secs_f64();
                let s = Sample {
                    idx,
                    due: sent,
                    sent,
                    done,
                    status,
                };
                samples.lock().expect("sample lock").push(s);
            });
        }
    });
    finish(name, samples.into_inner().expect("sample lock"), meter)
}

fn finish(name: &'static str, mut samples: Vec<Sample>, (cpu0, steal0): (f64, f64)) -> Phase {
    samples.sort_by_key(|s| s.idx);
    let wall = samples.iter().map(|s| s.done).fold(0.0, f64::max);
    Phase {
        name,
        samples,
        wall,
        cpu_s: crate::cpu_seconds() - cpu0,
        steal_s: crate::steal_seconds() - steal0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time_and_counts_failures() {
        let offsets = [0.0, 0.0, 0.0, 0.02];
        // One thread: the second and third requests wait behind the first.
        let phase = open_loop("t", &offsets, 1, &|idx| {
            std::thread::sleep(Duration::from_millis(10));
            if idx == 3 {
                Status::Refused
            } else {
                Status::Ok
            }
        });
        let lat = phase.latencies_ms();
        assert_eq!(lat.len(), 4);
        assert!(
            lat[2] >= 30.0 - 1.0,
            "queued request charged its wait: {lat:?}"
        );
        assert_eq!(lat[3], f64::INFINITY);
        assert_eq!(phase.count(Status::Refused), 1);
    }

    #[test]
    fn replies_parse_plain_and_chunked_bodies() {
        let plain = parse_reply(b"HTTP/1.1 429 Too Many\r\nRetry-After: 1\r\n\r\n{}").unwrap();
        assert_eq!((plain.status, plain.class()), (429, Status::Refused));
        assert_eq!(plain.body, "{}");
        let chunked = parse_reply(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
        )
        .unwrap();
        assert_eq!(chunked.body, "abc");
    }
}
