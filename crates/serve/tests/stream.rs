//! `/v1/stream` end to end: stateful sessions over chunked transfer
//! encoding. Pins the parity contract (concatenated chunks bitwise
//! equal to the one-shot series), pause/continue semantics, session
//! errors, and the legacy surface's sunset.

use gendt_serve::api::{
    stream_reason, ErrorEnvelope, GenerateRequest, GenerateResponse, StreamChunk, StreamTrailer,
    SESSION_HEADER,
};
use gendt_serve::http::{http_request_full, HttpResponse};
use gendt_serve::{serve, ServerCfg, ServerCfgBuilder, ServerHandle};
use std::path::PathBuf;
use std::sync::OnceLock;

fn demo_ckpt_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = std::env::temp_dir().join("gendt-stream-test-demo.json");
        gendt_serve::demo::write_demo_model(&path, 1).expect("train demo model");
        std::fs::read(&path).expect("read demo checkpoint")
    })
}

fn fresh_model_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gendt-stream-test-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create model dir");
    std::fs::write(dir.join("demo.json"), demo_ckpt_bytes()).expect("write checkpoint");
    dir
}

fn start_server(
    test: &str,
    tweak: impl Fn(ServerCfgBuilder) -> ServerCfgBuilder,
) -> (ServerHandle, String) {
    let cfg = tweak(ServerCfg::builder(fresh_model_dir(test)).workers(1))
        .build()
        .expect("valid server config");
    let handle = serve(cfg).expect("server starts");
    let addr = handle.addr.to_string();
    (handle, addr)
}

fn one_shot(addr: &str, sample_seed: u64) -> GenerateResponse {
    let body = serde_json::to_string(&GenerateRequest {
        model: "demo".to_string(),
        scenario: "walk".to_string(),
        duration_s: 30.0,
        start_x: 0.0,
        start_y: 0.0,
        traj_seed: 3,
        sample_seed,
    })
    .expect("encode request");
    let resp = http_request_full(addr, "POST", "/v1/generate", &[], Some(&body)).expect("one-shot");
    assert_eq!(resp.status, 200, "one-shot failed: {}", resp.body);
    serde_json::from_str(&resp.body).expect("decode one-shot")
}

/// Split an NDJSON stream body into its chunk lines and final trailer.
fn parse_stream(resp: &HttpResponse) -> (Vec<StreamChunk>, StreamTrailer) {
    assert_eq!(resp.status, 200, "stream failed: {}", resp.body);
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "stream responses must use chunked transfer encoding"
    );
    let lines: Vec<&str> = resp.body.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "empty stream body");
    let trailer: StreamTrailer =
        serde_json::from_str(lines[lines.len() - 1]).expect("last line is the trailer");
    let chunks = lines[..lines.len() - 1]
        .iter()
        .map(|l| serde_json::from_str::<StreamChunk>(l).expect("chunk line"))
        .collect();
    (chunks, trailer)
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

#[test]
fn streamed_chunks_concatenate_to_one_shot_bitwise() {
    let (handle, addr) = start_server("parity", |b| b);
    let reference = one_shot(&addr, 11);

    let open = "{\"model\":\"demo\",\"scenario\":\"walk\",\"duration_s\":30.0,\
                \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":3,\"sample_seed\":11,\
                \"chunk_windows\":1}";
    let resp = http_request_full(&addr, "POST", "/v1/stream", &[], Some(open)).expect("stream");
    let sid = resp
        .header(SESSION_HEADER)
        .expect("stream responses carry the session id header")
        .to_string();
    let (chunks, trailer) = parse_stream(&resp);

    assert!(trailer.done, "unbudgeted stream must run to completion");
    assert_eq!(trailer.reason, stream_reason::COMPLETE);
    assert_eq!(trailer.session, sid);
    assert_eq!(trailer.next_window, trailer.total_windows);
    assert!(
        chunks.len() >= 2,
        "chunk_windows=1 must yield several chunks"
    );
    for (i, c) in chunks.iter().enumerate() {
        assert_eq!(c.seq, i as u64, "chunk seq must be dense from 0");
        assert_eq!(c.session, sid);
        assert_eq!(c.windows, 1);
    }
    // Chunks start at increasing absolute step offsets.
    let step = chunks[1].start - chunks[0].start;
    assert!(step > 0);
    for (i, c) in chunks.iter().enumerate() {
        assert_eq!(c.start, i * step);
    }

    let mut cat: Vec<Vec<f64>> = Vec::new();
    concat_into(&mut cat, &chunks);
    assert_eq!(
        cat, reference.series.series,
        "streamed concat must be bitwise-identical to the one-shot series"
    );

    // The completed session is gone: continuing it is a typed 404.
    let cont = format!("{{\"session\":{sid:?}}}");
    let resp =
        http_request_full(&addr, "POST", "/v1/stream", &[], Some(&cont)).expect("continuation");
    assert_eq!(resp.status, 404, "{}", resp.body);
    let env: ErrorEnvelope = serde_json::from_str(&resp.body).expect("typed envelope");
    assert_eq!(env.code, "not_found");

    assert!(
        handle
            .metrics()
            .stream_chunks
            .load(std::sync::atomic::Ordering::Relaxed)
            >= chunks.len() as u64
    );
    handle.shutdown();
}

/// At the paper's window length (`L = 50`) the open and every
/// one-window continuation extract the context of exactly their own 50
/// steps, wherever they are in the route: the server keeps no context
/// between chunks.
#[test]
fn one_window_chunks_extract_one_windows_steps_at_paper_shapes() {
    let dir = std::env::temp_dir().join("gendt-stream-test-paper-steps");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create model dir");
    let mut cfg = gendt::GenDtCfg::paper(4, 5);
    cfg.window.max_cells = 8;
    gendt::save_model_to_file(&gendt::GenDt::new(cfg), &dir.join("paper.json"))
        .expect("write checkpoint");
    let handle =
        serve(ServerCfg::builder(dir).workers(1).build().expect("config")).expect("server starts");
    let addr = handle.addr.to_string();
    let metrics = handle.metrics();
    let steps = || {
        metrics
            .context_steps_extracted
            .load(std::sync::atomic::Ordering::Relaxed)
    };

    let open = "{\"model\":\"paper\",\"scenario\":\"walk\",\"duration_s\":600.0,\
                \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":3,\"sample_seed\":5,\
                \"chunk_windows\":1,\"max_windows\":1}";
    let resp = http_request_full(&addr, "POST", "/v1/stream", &[], Some(open)).expect("open");
    let sid = resp.header(SESSION_HEADER).expect("session id").to_string();
    let (chunks, trailer) = parse_stream(&resp);
    assert_eq!((chunks.len(), trailer.total_windows), (1, 12));
    assert_eq!(steps(), 50, "the open extracts its one window");

    let cont = format!("{{\"session\":{sid:?},\"max_windows\":1}}");
    for k in 1..4u64 {
        let resp =
            http_request_full(&addr, "POST", "/v1/stream", &[], Some(&cont)).expect("continue");
        let (chunks, trailer) = parse_stream(&resp);
        assert_eq!(trailer.reason, stream_reason::PAUSED);
        assert_eq!((chunks.len(), chunks[0].start), (1, 50 * k as usize));
        assert_eq!(steps(), 50 * (k + 1), "continuation {k} extracts 50 steps");
    }
    handle.shutdown();
}

#[test]
fn budgeted_stream_pauses_then_continuation_completes() {
    let (handle, addr) = start_server("resume", |b| b.chunk_windows(1));
    let reference = one_shot(&addr, 21);

    let open = "{\"model\":\"demo\",\"scenario\":\"walk\",\"duration_s\":30.0,\
                \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":3,\"sample_seed\":21,\
                \"max_windows\":2}";
    let resp = http_request_full(&addr, "POST", "/v1/stream", &[], Some(open)).expect("open");
    let sid = resp.header(SESSION_HEADER).expect("session id").to_string();
    let (first, trailer) = parse_stream(&resp);
    assert!(!trailer.done);
    assert_eq!(trailer.reason, stream_reason::PAUSED);
    assert_eq!(trailer.next_window, 2, "budget of 2 windows spent");
    let mut cat: Vec<Vec<f64>> = Vec::new();
    concat_into(&mut cat, &first);

    // Continue to the end over a second connection.
    let cont = format!("{{\"session\":{sid:?}}}");
    let resp =
        http_request_full(&addr, "POST", "/v1/stream", &[], Some(&cont)).expect("continuation");
    assert_eq!(
        resp.header(SESSION_HEADER),
        Some(sid.as_str()),
        "continuation echoes the session id"
    );
    let (rest, trailer) = parse_stream(&resp);
    assert!(trailer.done, "unbudgeted continuation runs to completion");
    assert_eq!(trailer.reason, stream_reason::COMPLETE);
    assert_eq!(
        rest[0].seq,
        first.len() as u64,
        "seq continues across responses"
    );
    concat_into(&mut cat, &rest);

    assert_eq!(
        cat, reference.series.series,
        "open + continuation concat must equal the one-shot series"
    );
    handle.shutdown();
}

#[test]
fn stream_open_validates_like_generate() {
    let (handle, addr) = start_server("validate", |b| b);

    // Missing spec fields → invalid_request naming the field.
    let resp = http_request_full(
        &addr,
        "POST",
        "/v1/stream",
        &[],
        Some("{\"model\":\"demo\"}"),
    )
    .expect("bad open");
    assert_eq!(resp.status, 400, "{}", resp.body);
    let env: ErrorEnvelope = serde_json::from_str(&resp.body).expect("typed envelope");
    assert_eq!(env.code, "invalid_request");
    assert!(env.message.contains("scenario"), "{}", env.message);

    // Unknown model → 404, same as /v1/generate.
    let open = "{\"model\":\"nope\",\"scenario\":\"walk\",\"duration_s\":30.0,\
                \"start_x\":0.0,\"start_y\":0.0}";
    let resp = http_request_full(&addr, "POST", "/v1/stream", &[], Some(open)).expect("open");
    assert_eq!(resp.status, 404, "{}", resp.body);

    // The stream route does not exist on the legacy surface.
    let resp = http_request_full(&addr, "POST", "/stream", &[], Some(open)).expect("legacy");
    assert_eq!(resp.status, 404, "{}", resp.body);

    handle.shutdown();
}

#[test]
fn legacy_surface_carries_sunset_and_v1_only_removes_it() {
    let (handle, addr) = start_server("sunset", |b| b);

    let legacy = http_request_full(&addr, "GET", "/models", &[], None).expect("legacy models");
    assert_eq!(legacy.status, 200);
    assert_eq!(legacy.header("deprecation"), Some("true"));
    assert!(
        legacy.header("sunset").is_some(),
        "legacy routes must announce their sunset date"
    );
    let v1 = http_request_full(&addr, "GET", "/v1/models", &[], None).expect("v1 models");
    assert_eq!(v1.header("sunset"), None, "v1 never sunsets");
    assert_eq!(
        handle
            .metrics()
            .legacy_requests
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "exactly the one legacy request is counted"
    );
    handle.shutdown();

    // With the removal flag on, the legacy surface answers 410 Gone and
    // v1 is unaffected.
    let (handle, addr) = start_server("v1only", |b| b.v1_only(true));
    let legacy = http_request_full(&addr, "GET", "/models", &[], None).expect("legacy models");
    assert_eq!(legacy.status, 410, "{}", legacy.body);
    assert!(legacy.body.contains("/v1/models"), "{}", legacy.body);
    assert!(legacy.header("sunset").is_some());
    let v1 = http_request_full(&addr, "GET", "/v1/models", &[], None).expect("v1 models");
    assert_eq!(v1.status, 200);
    // Operational endpoints stay up for supervisors either way.
    let health = http_request_full(&addr, "GET", "/healthz", &[], None).expect("healthz");
    assert_eq!(health.status, 200);
    handle.shutdown();
}
