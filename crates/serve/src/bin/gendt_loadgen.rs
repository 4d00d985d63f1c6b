//! `gendt-loadgen` — drive a `gendt-serve` instance with open-loop
//! Poisson arrivals and report serving latency/throughput.
//!
//! ```text
//! gendt-loadgen [--addr HOST:PORT] [--rate RPS] [--requests N]
//!               [--max-inflight N] [--seed N] [--out PATH]
//!               [--quick] [--smoke] [--stream] [--sessions N]
//! ```
//!
//! Arrivals are offered at the configured rate whether or not earlier
//! requests returned (open loop), so tail latency reflects queueing
//! rather than client back-pressure; the arrival schedule is seeded and
//! exactly reproducible. Without `--addr`, an in-process server is
//! stood up against a freshly trained demo checkpoint — this is what CI
//! uses, so the gate needs no external binaries (no curl in the
//! container). `--quick` shrinks the run for CI; `--smoke` only checks
//! one request plus a `/metrics` scrape and a clean shutdown. Results
//! (p50/p95/p99/p99.9 latency, offered vs achieved throughput, batch
//! occupancy) land in `BENCH_serve.json`.

#![forbid(unsafe_code)]

use gendt_faults::GendtError;
use gendt_serve::api::{GenerateRequest, GenerateResponse};
use gendt_serve::http::http_request;
use gendt_serve::loadgen::{
    drive_open_loop, drive_stream_sessions, stream_knee_of, stream_saturation_sweep, OpenLoopCfg,
    StreamLoadCfg,
};
use gendt_serve::scheduler::SchedCfg;
use gendt_serve::{serve, ServerCfg, ServerHandle};
use serde::{Deserialize, Serialize};
use std::process::ExitCode;

/// Load-driver knobs echoed into the artifact so a recorded run is
/// reproducible from its own header.
#[derive(Debug, Serialize, Deserialize)]
struct BenchConfig {
    mode: String,
    rate_rps: f64,
    requests: usize,
    max_inflight: usize,
    seed: u64,
}

#[derive(Debug, Serialize, Deserialize)]
struct BenchOut {
    /// Versioned layout marker (`gendt_trace::BENCH_SCHEMA`); bumped when
    /// a field changes meaning, so cross-PR comparisons can tell.
    bench_schema: u32,
    git_rev: String,
    config: BenchConfig,
    offered_rps: f64,
    achieved_rps: f64,
    ok: u64,
    rejected: u64,
    failed: u64,
    client_shed: u64,
    wall_s: f64,
    latency_ms: gendt_metrics::Quantiles,
    batch_occupancy: f64,
    batches: u64,
}

struct Opts {
    addr: Option<String>,
    cfg: OpenLoopCfg,
    out: String,
    smoke: bool,
    stream: bool,
    sessions: usize,
}

fn parse_opts() -> Result<Opts, GendtError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut o = Opts {
        addr: None,
        cfg: OpenLoopCfg {
            rate_rps: 400.0,
            requests: 512,
            seed: 1,
            max_inflight: 256,
        },
        out: "BENCH_serve.json".to_string(),
        smoke: false,
        stream: false,
        sessions: 1024,
    };
    let need = |flag: &str| GendtError::config(format!("{flag} needs a value"));
    let bad = |flag: &str| GendtError::config(format!("{flag}: bad value"));
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => o.addr = Some(it.next().ok_or_else(|| need("--addr"))?.clone()),
            "--rate" => {
                o.cfg.rate_rps = it
                    .next()
                    .ok_or_else(|| need("--rate"))?
                    .parse()
                    .map_err(|_| bad("--rate"))?
            }
            "--requests" => {
                o.cfg.requests = it
                    .next()
                    .ok_or_else(|| need("--requests"))?
                    .parse()
                    .map_err(|_| bad("--requests"))?
            }
            "--max-inflight" => {
                o.cfg.max_inflight = it
                    .next()
                    .ok_or_else(|| need("--max-inflight"))?
                    .parse()
                    .map_err(|_| bad("--max-inflight"))?
            }
            "--seed" => {
                o.cfg.seed = it
                    .next()
                    .ok_or_else(|| need("--seed"))?
                    .parse()
                    .map_err(|_| bad("--seed"))?
            }
            "--out" => o.out = it.next().ok_or_else(|| need("--out"))?.clone(),
            "--quick" => {
                o.cfg.rate_rps = 250.0;
                o.cfg.requests = 96;
                o.sessions = 64;
            }
            "--smoke" => o.smoke = true,
            "--stream" => o.stream = true,
            "--sessions" => {
                o.sessions = it
                    .next()
                    .ok_or_else(|| need("--sessions"))?
                    .parse()
                    .map_err(|_| bad("--sessions"))?
            }
            other => return Err(GendtError::config(format!("unknown flag {other}"))),
        }
    }
    o.cfg.validate()?;
    Ok(o)
}

/// Stand up an in-process server over a demo checkpoint.
fn inprocess_server() -> Result<ServerHandle, GendtError> {
    let dir = std::env::temp_dir().join("gendt-loadgen-models");
    let ckpt = dir.join("demo_a.json");
    if !ckpt.exists() {
        eprintln!("training demo checkpoint at {} ...", ckpt.display());
        gendt_serve::demo::write_demo_model(&ckpt, 1)?;
    }
    let cfg = ServerCfg {
        sched: SchedCfg {
            max_batch: 8,
            queue_cap: 256,
        },
        ..ServerCfg::new(dir)
    };
    serve(cfg)
}

fn request_body(i: usize) -> String {
    let req = GenerateRequest {
        model: "demo_a".to_string(),
        scenario: "walk".to_string(),
        duration_s: 40.0,
        start_x: 0.0,
        start_y: 0.0,
        // A handful of distinct routes: exercises both the context
        // cache (repeats) and batched heterogeneity (distinct).
        traj_seed: (i % 4) as u64,
        sample_seed: i as u64,
    };
    serde_json::to_string(&req).unwrap_or_default()
}

fn scrape_counter(metrics_text: &str, name: &str) -> Option<f64> {
    metrics_text
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

fn smoke(addr: &str) -> Result<(), GendtError> {
    let (status, body) = http_request(addr, "POST", "/v1/generate", Some(&request_body(0)))
        .map_err(|e| GendtError::unavailable(format!("generate: {e}")))?;
    if status != 200 {
        return Err(GendtError::internal(format!(
            "generate returned {status}: {body}"
        )));
    }
    let resp: GenerateResponse = serde_json::from_str(&body)
        .map_err(|e| GendtError::internal(format!("bad generate body: {e}")))?;
    if resp.series.is_empty() {
        return Err(GendtError::internal("generate returned an empty series"));
    }
    let (status, text) = http_request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| GendtError::unavailable(format!("metrics: {e}")))?;
    if status != 200 || !text.contains("gendt_serve_http_requests_total") {
        return Err(GendtError::internal(format!(
            "metrics scrape failed ({status})"
        )));
    }
    println!(
        "serve smoke OK: 1 request, {} KPI channels",
        resp.series.kpis.len()
    );
    Ok(())
}

fn run() -> Result<(), GendtError> {
    let opts = parse_opts()?;
    let (addr, handle) = match &opts.addr {
        Some(a) => (a.clone(), None),
        None => {
            let h = inprocess_server()?;
            (h.addr.to_string(), Some(h))
        }
    };

    let result = if opts.smoke {
        smoke(&addr)
    } else if opts.stream {
        drive_stream(&addr, &opts)
    } else {
        drive(&addr, &opts)
    };

    if let Some(h) = handle {
        h.shutdown();
    }
    result
}

fn drive(addr: &str, opts: &Opts) -> Result<(), GendtError> {
    let report = drive_open_loop(addr, &request_body, &opts.cfg)?;

    let (text_status, metrics_text) = http_request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| GendtError::unavailable(format!("metrics: {e}")))?;
    if text_status != 200 {
        return Err(GendtError::internal(format!(
            "metrics scrape failed ({text_status})"
        )));
    }
    let batched =
        scrape_counter(&metrics_text, "gendt_serve_batched_requests_total").unwrap_or(0.0);
    let batches = scrape_counter(&metrics_text, "gendt_serve_batches_total").unwrap_or(0.0);
    let occupancy = if batches > 0.0 {
        batched / batches
    } else {
        0.0
    };

    let out = BenchOut {
        bench_schema: gendt_trace::BENCH_SCHEMA,
        git_rev: gendt_trace::git_rev(),
        config: BenchConfig {
            mode: "open_loop_poisson".to_string(),
            rate_rps: opts.cfg.rate_rps,
            requests: opts.cfg.requests,
            max_inflight: opts.cfg.max_inflight,
            seed: opts.cfg.seed,
        },
        offered_rps: report.offered_rps,
        achieved_rps: report.achieved_rps,
        ok: report.ok,
        rejected: report.rejected,
        failed: report.failed,
        client_shed: report.client_shed,
        wall_s: report.wall_s,
        latency_ms: report.latency_ms,
        batch_occupancy: occupancy,
        batches: batches as u64,
    };
    // Preserve an existing fleet section (written by `gendt-fleet
    // bench`) when refreshing the single-node numbers in place.
    let json = match merge_preserving_fleet(&opts.out, &out) {
        Some(merged) => merged,
        None => serde_json::to_string(&out)
            .map_err(|e| GendtError::internal(format!("encoding results: {e}")))?,
    };
    std::fs::write(&opts.out, &json)
        .map_err(|e| GendtError::from(e).wrap(format!("writing {}", opts.out)))?;
    println!(
        "loadgen: offered {:.0} rps → achieved {:.1} rps ({} ok / {} rejected / {} failed / {} client-shed) in {:.2}s, p50={:.1}ms p95={:.1}ms p99={:.1}ms p99.9={:.1}ms, batch occupancy {:.2}",
        out.offered_rps,
        out.achieved_rps,
        out.ok,
        out.rejected,
        out.failed,
        out.client_shed,
        out.wall_s,
        out.latency_ms.p50,
        out.latency_ms.p95,
        out.latency_ms.p99,
        out.latency_ms.p999,
        out.batch_occupancy,
    );
    println!("wrote {}", opts.out);
    Ok(())
}

/// Session-workload knobs echoed into the `stream` section header.
#[derive(Debug, Serialize, Deserialize)]
struct StreamBenchConfig {
    mode: String,
    sessions: usize,
    rate_rps: f64,
    requests: usize,
    max_inflight: usize,
    seed: u64,
}

/// One step of the stream saturation sweep.
#[derive(Debug, Serialize, Deserialize)]
struct StreamStep {
    offered_rps: f64,
    achieved_rps: f64,
    ok: u64,
    rejected: u64,
    failed: u64,
    completed: u64,
    p99_ms: f64,
    p999_ms: f64,
}

/// The `stream` section of the bench artifact: the headline session
/// run plus the continuation-rate saturation sweep.
#[derive(Debug, Serialize, Deserialize)]
struct StreamBenchOut {
    /// Section-local schema stamp, same meaning as the top level.
    bench_schema: u32,
    git_rev: String,
    config: StreamBenchConfig,
    /// Sessions concurrently resident when the continuation phase ran.
    opened: u64,
    open_failed: u64,
    offered_rps: f64,
    achieved_rps: f64,
    ok: u64,
    rejected: u64,
    failed: u64,
    client_shed: u64,
    completed: u64,
    wall_s: f64,
    latency_ms: gendt_metrics::Quantiles,
    /// Total chunks the server streamed over the whole run (scraped).
    chunks_total: u64,
    knee_rps: f64,
    sweep: Vec<StreamStep>,
}

/// Drive the stateful `/v1/stream` workload and graft the results into
/// the artifact's `stream` section, leaving other sections untouched.
fn drive_stream(addr: &str, opts: &Opts) -> Result<(), GendtError> {
    let cfg = StreamLoadCfg {
        sessions: opts.sessions,
        rate_rps: opts.cfg.rate_rps,
        requests: opts.cfg.requests,
        seed: opts.cfg.seed,
        max_inflight: opts.cfg.max_inflight,
    };
    let open_body = |i: usize| {
        // `max_windows: 1` pauses every session after one window, so
        // the whole population is concurrently resident server-side.
        format!(
            "{{\"model\":\"demo_a\",\"scenario\":\"walk\",\"duration_s\":40.0,\
             \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":{},\"sample_seed\":{},\
             \"max_windows\":1}}",
            i % 4,
            i
        )
    };
    let report = drive_stream_sessions(addr, &open_body, &cfg)?;
    let sweep_cfg = StreamLoadCfg {
        requests: (cfg.requests / 2).max(96),
        ..cfg.clone()
    };
    let sweep = stream_saturation_sweep(
        addr,
        &open_body,
        &sweep_cfg,
        (cfg.rate_rps / 2.0).max(1.0),
        1.6,
        0.9,
        4,
    )?;
    let knee_rps = stream_knee_of(&sweep)
        .map(|k| k.achieved_rps)
        .unwrap_or(0.0);

    let (text_status, metrics_text) = http_request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| GendtError::unavailable(format!("metrics: {e}")))?;
    if text_status != 200 {
        return Err(GendtError::internal(format!(
            "metrics scrape failed ({text_status})"
        )));
    }
    let chunks_total =
        scrape_counter(&metrics_text, "gendt_serve_stream_chunks_total").unwrap_or(0.0) as u64;

    let out = StreamBenchOut {
        bench_schema: gendt_trace::BENCH_SCHEMA,
        git_rev: gendt_trace::git_rev(),
        config: StreamBenchConfig {
            mode: "open_loop_stream_sessions".to_string(),
            sessions: cfg.sessions,
            rate_rps: cfg.rate_rps,
            requests: cfg.requests,
            max_inflight: cfg.max_inflight,
            seed: cfg.seed,
        },
        opened: report.opened,
        open_failed: report.open_failed,
        offered_rps: report.offered_rps,
        achieved_rps: report.achieved_rps,
        ok: report.ok,
        rejected: report.rejected,
        failed: report.failed,
        client_shed: report.client_shed,
        completed: report.completed,
        wall_s: report.wall_s,
        latency_ms: report.latency_ms,
        chunks_total,
        knee_rps,
        sweep: sweep
            .iter()
            .map(|p| StreamStep {
                offered_rps: p.offered_rps,
                achieved_rps: p.achieved_rps,
                ok: p.report.ok,
                rejected: p.report.rejected,
                failed: p.report.failed,
                completed: p.report.completed,
                p99_ms: p.report.latency_ms.p99,
                p999_ms: p.report.latency_ms.p999,
            })
            .collect(),
    };
    let fresh = serde_json::to_string(&out)
        .map_err(|e| GendtError::internal(format!("encoding stream results: {e}")))?;
    let fresh: serde::Value = serde_json::from_str(&fresh)
        .map_err(|e| GendtError::internal(format!("round-tripping stream results: {e}")))?;
    let json = graft_section(&opts.out, "stream", fresh);
    std::fs::write(&opts.out, &json)
        .map_err(|e| GendtError::from(e).wrap(format!("writing {}", opts.out)))?;
    println!(
        "stream loadgen: {} sessions resident, offered {:.0} rps → achieved {:.1} rps ({} ok / {} rejected / {} failed) in {:.2}s, p50={:.1}ms p99={:.1}ms p99.9={:.1}ms, knee {:.1} rps over {} steps",
        out.opened,
        out.offered_rps,
        out.achieved_rps,
        out.ok,
        out.rejected,
        out.failed,
        out.wall_s,
        out.latency_ms.p50,
        out.latency_ms.p99,
        out.latency_ms.p999,
        out.knee_rps,
        out.sweep.len(),
    );
    println!("wrote {} (stream section)", opts.out);
    Ok(())
}

/// Replace `key` in the artifact at `path` with `fresh`, preserving
/// every other top-level entry (or start a new single-entry artifact
/// when the file is missing or unreadable).
fn graft_section(path: &str, key: &str, fresh: serde::Value) -> String {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|old| serde_json::from_str::<serde::Value>(&old).ok())
        .filter(|v| matches!(v, serde::Value::Map(_)))
        .unwrap_or_else(|| serde::Value::Map(Vec::new()));
    if let serde::Value::Map(entries) = &mut doc {
        entries.retain(|(k, _)| k != key);
        entries.push((key.to_string(), fresh));
    }
    serde_json::to_string(&doc).unwrap_or_else(|_| "{}".to_string())
}

/// If `path` already holds a bench artifact with sections owned by the
/// other producers (`fleet` from `gendt-fleet bench`, `stream` from
/// `--stream`), graft them onto the fresh single-node results so all
/// producers share one file.
fn merge_preserving_fleet(path: &str, out: &BenchOut) -> Option<String> {
    let old = std::fs::read_to_string(path).ok()?;
    let old: serde::Value = serde_json::from_str(&old).ok()?;
    let kept: Vec<(String, serde::Value)> = old
        .as_map_for("bench artifact")
        .ok()?
        .iter()
        .filter(|(k, _)| k == "fleet" || k == "stream")
        .cloned()
        .collect();
    if kept.is_empty() {
        return None;
    }
    let fresh = serde_json::to_string(out).ok()?;
    let mut doc: serde::Value = serde_json::from_str(&fresh).ok()?;
    if let serde::Value::Map(entries) = &mut doc {
        entries.extend(kept);
    }
    serde_json::to_string(&doc).ok()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gendt-loadgen: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
