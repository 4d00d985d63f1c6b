//! `gendt-audit stream-smoke` — end-to-end gate for the `/v1/stream`
//! session surface (DESIGN.md §15).
//!
//! Stands up a real single-node server over a demo checkpoint and pins
//! the streaming API's whole contract:
//!
//! 1. **Parity** — a session opened with `max_windows` budgets and
//!    continued to completion must concatenate, chunk by chunk across
//!    responses, to a series bitwise-identical to the one-shot
//!    `/v1/generate` answer for the same spec and seed; a one-window
//!    continuation raises `gendt_serve_context_steps_extracted_total`
//!    by exactly one window's steps.
//! 2. **Deadline mid-stream** — a request carrying `Deadline-Ms: 1`
//!    ends with a `deadline` trailer and an open session; a follow-up
//!    continuation finishes the series, and the union of both
//!    responses' chunks still matches the one-shot bitwise.
//! 3. **Drain with open sessions** — after `POST /v1/shutdown`, a
//!    paused session's continuation is refused with a typed 503 (the
//!    drain shed its state; nothing hangs, nothing panics).
//! 4. **One synthesis per route** — concurrent opens of one route,
//!    released together, raise the worker's
//!    `gendt_serve_context_cache_misses_total` by exactly 1 (the opens
//!    share one single-flight trajectory synthesis), and every
//!    session's chunks still equal the one-shot series.
//! 5. **Long route in one response** — a 4 h walk opened with one
//!    window per chunk and no window budget streams its whole series in
//!    one response, over 1 MiB; the workspace client reads all of it,
//!    the trailer reads `complete`, the chunks equal the one-shot
//!    series, and the stream extracted the context of exactly
//!    `total_windows` windows' steps: each step once, when its window
//!    was generated.
//!
//! Every window of every checked series is compared exactly; a single
//! flipped bit anywhere fails the gate.

use gendt_faults::GendtError;
use gendt_serve::api::{
    stream_reason, GenerateRequest, GenerateResponse, StreamChunk, StreamTrailer, SESSION_HEADER,
};
use gendt_serve::http::{http_request_full, HttpResponse};
use gendt_serve::{serve, ServerCfg, ServerHandle};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

/// Sample seed shared by every run; parity only holds within a seed.
const SEED: u64 = 11;

/// Run the gate; prints its findings and returns overall success.
pub fn run() -> bool {
    println!("== stream-smoke: /v1/stream parity, deadline, drain, shared route, long route ==");
    let ok = match smoke() {
        Ok(()) => true,
        Err(e) => {
            println!("  [FAIL] {e}");
            false
        }
    };
    println!("stream-smoke: {}", if ok { "PASS" } else { "FAILED" });
    ok
}

fn fail(msg: impl Into<String>) -> GendtError {
    GendtError::internal(msg.into())
}

fn http(
    addr: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> Result<HttpResponse, GendtError> {
    http_request_full(addr, "POST", path, headers, body)
        .map_err(|e| fail(format!("POST {path}: {e}")))
}

fn model_dir() -> Result<PathBuf, GendtError> {
    let dir = std::env::temp_dir().join("gendt-audit-stream-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .map_err(|e| fail(format!("create model dir {}: {e}", dir.display())))?;
    gendt_serve::demo::write_demo_model(&dir.join("demo.json"), 1)?;
    Ok(dir)
}

fn start_server(dir: &std::path::Path) -> Result<(ServerHandle, String), GendtError> {
    let cfg = ServerCfg::builder(dir.to_path_buf())
        .workers(1)
        .session_cap(64)
        .build()?;
    let handle = serve(cfg)?;
    let addr = handle.addr.to_string();
    Ok((handle, addr))
}

/// Route length of the parity and drain passes, seconds.
const SHORT_ROUTE_S: f64 = 30.0;

/// Route length of the deadline pass: streaming its 360 windows takes
/// far longer than a 1 ms deadline on any host, and one response still
/// carries the whole series.
const DEADLINE_ROUTE_S: f64 = 3600.0;

/// Route length of the shared-route and long-route passes: the longest
/// a request may ask for.
const LONG_ROUTE_S: f64 = 4.0 * 3600.0;

fn open_body(duration_s: f64, chunk_windows: usize, max_windows: usize) -> String {
    format!(
        "{{\"model\":\"demo\",\"scenario\":\"walk\",\"duration_s\":{duration_s:?},\
         \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":3,\"sample_seed\":{SEED},\
         \"chunk_windows\":{chunk_windows},\"max_windows\":{max_windows}}}"
    )
}

fn one_shot(addr: &str, duration_s: f64) -> Result<Vec<Vec<f64>>, GendtError> {
    let body = serde_json::to_string(&GenerateRequest {
        model: "demo".to_string(),
        scenario: "walk".to_string(),
        duration_s,
        start_x: 0.0,
        start_y: 0.0,
        traj_seed: 3,
        sample_seed: SEED,
    })
    .map_err(|e| fail(format!("encode one-shot request: {e}")))?;
    let resp = http(addr, "/v1/generate", &[], Some(&body))?;
    if resp.status != 200 {
        return Err(fail(format!(
            "one-shot status {}: {}",
            resp.status, resp.body
        )));
    }
    let decoded: GenerateResponse = serde_json::from_str(&resp.body)
        .map_err(|e| fail(format!("decode one-shot response: {e}")))?;
    Ok(decoded.series.series)
}

/// Split an NDJSON stream body into its chunk lines and final trailer.
fn parse_stream(resp: &HttpResponse) -> Result<(Vec<StreamChunk>, StreamTrailer), GendtError> {
    if resp.status != 200 {
        return Err(fail(format!(
            "stream status {}: {}",
            resp.status, resp.body
        )));
    }
    if resp.header("transfer-encoding") != Some("chunked") {
        return Err(fail("stream response is not chunked transfer encoding"));
    }
    let lines: Vec<&str> = resp.body.lines().filter(|l| !l.is_empty()).collect();
    let Some((last, chunks)) = lines.split_last() else {
        return Err(fail("empty stream body (no trailer line)"));
    };
    let trailer: StreamTrailer = serde_json::from_str(last)
        .map_err(|e| fail(format!("last stream line is not a trailer: {e}")))?;
    let chunks = chunks
        .iter()
        .map(|l| serde_json::from_str::<StreamChunk>(l))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| fail(format!("bad chunk line: {e}")))?;
    Ok((chunks, trailer))
}

/// The model's window length, from the first chunk of a stream.
fn window_len(chunks: &[StreamChunk]) -> Result<usize, GendtError> {
    match chunks.first() {
        Some(c) if c.windows > 0 => Ok(c.series.len() / c.windows),
        _ => Err(fail("no chunk to read the window length from")),
    }
}

fn concat_into(acc: &mut Vec<Vec<f64>>, chunks: &[StreamChunk]) {
    for c in chunks {
        if acc.is_empty() {
            acc.resize(c.series.series.len(), Vec::new());
        }
        for (dst, src) in acc.iter_mut().zip(c.series.series.iter()) {
            dst.extend_from_slice(src);
        }
    }
}

/// Continue `sid` until its trailer reports done, appending every
/// chunk to `acc`. Bounded so a server bug cannot hang the gate.
fn drain_session(
    addr: &str,
    sid: &str,
    acc: &mut Vec<Vec<f64>>,
    per_response: usize,
) -> Result<StreamTrailer, GendtError> {
    for _ in 0..256 {
        let body = format!("{{\"session\":{sid:?},\"max_windows\":{per_response}}}");
        let resp = http(addr, "/v1/stream", &[], Some(&body))?;
        let (chunks, trailer) = parse_stream(&resp)?;
        concat_into(acc, &chunks);
        if trailer.done {
            return Ok(trailer);
        }
        if trailer.reason != stream_reason::PAUSED {
            return Err(fail(format!(
                "continuation ended with reason {:?}, not paused/complete",
                trailer.reason
            )));
        }
    }
    Err(fail("session never completed after 256 continuations"))
}

/// One full parity pass against a fresh server: open with a small
/// budget, continue to completion, and require the concatenation to be
/// bitwise-identical to the one-shot series.
fn parity_pass(dir: &std::path::Path) -> Result<(), GendtError> {
    let (handle, addr) = start_server(dir)?;
    let reference = one_shot(&addr, SHORT_ROUTE_S)?;

    let resp = http(
        &addr,
        "/v1/stream",
        &[],
        Some(&open_body(SHORT_ROUTE_S, 1, 2)),
    )?;
    let sid = resp
        .header(SESSION_HEADER)
        .ok_or_else(|| fail("stream response is missing the session id header"))?
        .to_string();
    let (chunks, trailer) = parse_stream(&resp)?;
    let mut cat: Vec<Vec<f64>> = Vec::new();
    concat_into(&mut cat, &chunks);
    if trailer.done || trailer.reason != stream_reason::PAUSED {
        return Err(fail(format!("budgeted open ended {:?}", trailer.reason)));
    }
    // A one-window continuation extracts exactly one window's steps.
    let before = steps_extracted(&addr)?;
    let cont = format!("{{\"session\":{sid:?},\"max_windows\":1}}");
    let (one, trailer) = parse_stream(&http(&addr, "/v1/stream", &[], Some(&cont))?)?;
    let extracted = steps_extracted(&addr)? - before;
    let window_len = window_len(&chunks)?;
    if one.len() != 1 || extracted != window_len as u64 {
        return Err(fail(format!(
            "a one-window continuation streamed {} chunks and extracted {extracted} steps, want 1 and {window_len}",
            one.len()
        )));
    }
    concat_into(&mut cat, &one);
    let trailer = if trailer.done {
        trailer
    } else {
        drain_session(&addr, &sid, &mut cat, 3)?
    };
    if trailer.reason != stream_reason::COMPLETE {
        return Err(fail(format!("final trailer reason {:?}", trailer.reason)));
    }
    if cat != reference {
        return Err(fail(
            "streamed concatenation diverged from the one-shot series",
        ));
    }
    println!(
        "  parity: {} windows streamed across continuations, concat bitwise-equal to one-shot",
        trailer.total_windows
    );
    handle.shutdown();
    Ok(())
}

/// Deadline expiry mid-stream: `deadline` trailer, surviving session,
/// and parity across the expired response plus its continuation.
fn deadline_pass(dir: &std::path::Path) -> Result<(), GendtError> {
    let (handle, addr) = start_server(dir)?;
    // The open synthesizes the route, then each chunk extracts and
    // generates its window; the deadline expires at one of the loop's
    // checks between chunks (or in the queue), long before the route's
    // last window.
    let resp = http(
        &addr,
        "/v1/stream",
        &[("Deadline-Ms", "1")],
        Some(&open_body(DEADLINE_ROUTE_S, 1, 0)),
    )?;
    let sid = resp
        .header(SESSION_HEADER)
        .ok_or_else(|| fail("deadline stream is missing the session id header"))?
        .to_string();
    let (chunks, trailer) = parse_stream(&resp)?;
    if trailer.reason != stream_reason::DEADLINE || trailer.done {
        return Err(fail(format!(
            "expected a deadline trailer with the session kept open, got reason {:?} done {}",
            trailer.reason, trailer.done
        )));
    }
    let mut cat: Vec<Vec<f64>> = Vec::new();
    concat_into(&mut cat, &chunks);
    let reference = one_shot(&addr, DEADLINE_ROUTE_S)?;
    // The session must have survived the expiry: continue it (without a
    // deadline) and the union of responses must still match one-shot.
    let done = drain_session(&addr, &sid, &mut cat, 0)?;
    if done.reason != stream_reason::COMPLETE {
        return Err(fail(format!(
            "post-deadline continuation ended {:?}",
            done.reason
        )));
    }
    if cat != reference {
        return Err(fail(
            "deadline: expired-response chunks plus continuation diverged from one-shot",
        ));
    }
    println!(
        "  deadline: expired after {} chunk(s), session survived, continuation completed bitwise-equal",
        chunks.len()
    );
    handle.shutdown();
    Ok(())
}

/// Drain with open sessions: a paused session's state is shed and its
/// continuation refused with a typed 503 instead of hanging.
fn drain_pass(dir: &std::path::Path) -> Result<(), GendtError> {
    let (handle, addr) = start_server(dir)?;
    let resp = http(
        &addr,
        "/v1/stream",
        &[],
        Some(&open_body(SHORT_ROUTE_S, 1, 1)),
    )?;
    let sid = resp
        .header(SESSION_HEADER)
        .ok_or_else(|| fail("drain stream is missing the session id header"))?
        .to_string();
    let (_, trailer) = parse_stream(&resp)?;
    if trailer.reason != stream_reason::PAUSED {
        return Err(fail(format!("drain setup trailer {:?}", trailer.reason)));
    }

    let drain = http(&addr, "/v1/shutdown", &[], None)?;
    if drain.status != 200 {
        return Err(fail(format!("shutdown returned {}", drain.status)));
    }
    let cont = format!("{{\"session\":{sid:?},\"max_windows\":0}}");
    let refused = http(&addr, "/v1/stream", &[], Some(&cont))?;
    if refused.status != 503 {
        return Err(fail(format!(
            "draining continuation returned {} ({}), want a typed 503",
            refused.status, refused.body
        )));
    }
    println!("  drain: open session shed, continuation refused with typed 503");
    handle.shutdown();
    Ok(())
}

/// A counter of the worker's, scraped from `/v1/metrics`.
fn counter(addr: &str, name: &str) -> Result<u64, GendtError> {
    let resp = http_request_full(addr, "GET", "/v1/metrics", &[], None)
        .map_err(|e| fail(format!("GET /v1/metrics: {e}")))?;
    resp.body
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| fail(format!("/v1/metrics has no {name}")))
}

/// The route cache's misses: one per route synthesis.
fn cache_misses(addr: &str) -> Result<u64, GendtError> {
    counter(addr, "gendt_serve_context_cache_misses_total")
}

/// Route steps whose context the worker has extracted.
fn steps_extracted(addr: &str) -> Result<u64, GendtError> {
    counter(addr, "gendt_serve_context_steps_extracted_total")
}

/// Concurrent opens of one not-yet-cached route: the flight is one
/// trajectory synthesis, exactly one between them, and every session
/// is still bitwise-equal to the one-shot series.
fn shared_route_pass(dir: &std::path::Path) -> Result<(), GendtError> {
    const OPENS: usize = 6;
    let (handle, addr) = start_server(dir)?;
    let before = cache_misses(&addr)?;
    let gate = Arc::new(Barrier::new(OPENS));
    let opens: Vec<_> = (0..OPENS)
        .map(|_| {
            let (gate, addr) = (gate.clone(), addr.clone());
            std::thread::spawn(move || {
                gate.wait();
                let body = open_body(LONG_ROUTE_S, 64, 0);
                let resp = http(&addr, "/v1/stream", &[], Some(&body))?;
                let (chunks, trailer) = parse_stream(&resp)?;
                if trailer.reason != stream_reason::COMPLETE {
                    return Err(fail(format!("open ended {:?}", trailer.reason)));
                }
                let mut cat: Vec<Vec<f64>> = Vec::new();
                concat_into(&mut cat, &chunks);
                Ok(cat)
            })
        })
        .collect();
    let mut sessions = Vec::new();
    for h in opens {
        sessions.push(h.join().map_err(|_| fail("open thread panicked"))??);
    }
    let syntheses = cache_misses(&addr)? - before;
    if syntheses != 1 {
        return Err(fail(format!(
            "{OPENS} concurrent opens of one route ran {syntheses} route syntheses, want 1"
        )));
    }
    let reference = one_shot(&addr, LONG_ROUTE_S)?;
    if sessions.iter().any(|cat| *cat != reference) {
        return Err(fail(
            "shared route: a concurrently opened session diverged from one-shot",
        ));
    }
    println!(
        "  shared route: {OPENS} concurrent opens, 1 route synthesis, every session bitwise-equal to one-shot"
    );
    handle.shutdown();
    Ok(())
}

/// The longest route a request may ask for, one window per chunk and
/// no budget: a single response carries every window, the client must
/// read it whole, and each chunk extracts its own window's steps and
/// no others.
fn long_route_pass(dir: &std::path::Path) -> Result<(), GendtError> {
    let (handle, addr) = start_server(dir)?;
    let before = steps_extracted(&addr)?;
    let resp = http(
        &addr,
        "/v1/stream",
        &[],
        Some(&open_body(LONG_ROUTE_S, 1, 0)),
    )?;
    let (chunks, trailer) = parse_stream(&resp)?;
    if trailer.reason != stream_reason::COMPLETE || !trailer.done {
        return Err(fail(format!(
            "long route ended {:?} (done {})",
            trailer.reason, trailer.done
        )));
    }
    let extracted = steps_extracted(&addr)? - before;
    let mut cat: Vec<Vec<f64>> = Vec::new();
    concat_into(&mut cat, &chunks);
    let window_len = window_len(&chunks)?;
    let want = (trailer.total_windows * window_len) as u64;
    if extracted != want {
        return Err(fail(format!(
            "long route: streaming {} windows of {window_len} steps extracted {extracted} steps, want {want}",
            trailer.total_windows
        )));
    }
    if cat != one_shot(&addr, LONG_ROUTE_S)? {
        return Err(fail(
            "long route: the one-response stream diverged from one-shot",
        ));
    }
    println!(
        "  long route: {} chunks in one {}-byte response, complete, bitwise-equal to one-shot, {extracted} steps extracted ({} windows x {window_len})",
        chunks.len(),
        resp.body.len(),
        trailer.total_windows
    );
    handle.shutdown();
    Ok(())
}

fn smoke() -> Result<(), GendtError> {
    let dir = model_dir()?;
    parity_pass(&dir)?;
    deadline_pass(&dir)?;
    drain_pass(&dir)?;
    shared_route_pass(&dir)?;
    long_route_pass(&dir)?;
    Ok(())
}
