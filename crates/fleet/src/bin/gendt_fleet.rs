//! `gendt-fleet` — sharded multi-process GenDT serving.
//!
//! ```text
//! gendt-fleet --models DIR [--workers N] [--addr HOST:PORT] [--seed N]
//! gendt-fleet smoke
//! ```
//!
//! The default command spawns N worker processes (each today's
//! single-node `gendt-serve` scheduler, unchanged), fronts them with
//! the consistent-hash router, and serves `/v1/*` until
//! `POST /v1/shutdown`. `smoke` is the CI gate: parity vs single-node,
//! failover on a killed worker, typed envelopes throughout, and no
//! worker outliving a fleet that failed to start.
//!
//! The placement seed comes from `--seed`, falling back to the
//! `GENDT_FLEET_SEED` env var, falling back to 1.

#![forbid(unsafe_code)]

use gendt_faults::{ErrorKind, GendtError};
use gendt_fleet::{maybe_run_worker, start_fleet};
use gendt_serve::http::{http_request, http_request_full};
use gendt_sync::{mpsc, thread};
use std::io::Read;
use std::net::TcpListener;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// How long the smoke waits for a fleet that failed to start to close
/// its stderr. Its workers inherit that stderr, so the pipe stays open
/// while any of them runs.
const ORPHAN_WAIT: Duration = Duration::from_secs(30);

fn usage() -> String {
    "usage: gendt-fleet --models DIR [--workers N] [--addr HOST:PORT] [--seed N]\n\
     \x20      gendt-fleet smoke"
        .to_string()
}

fn parse_num<T: std::str::FromStr>(
    args: &mut std::slice::Iter<String>,
    flag: &str,
) -> Result<T, GendtError> {
    let v = args
        .next()
        .ok_or_else(|| GendtError::config(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| GendtError::config(format!("{flag}: bad value {v:?}")))
}

fn env_seed() -> u64 {
    std::env::var("GENDT_FLEET_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn run_fleet(argv: &[String]) -> Result<(), GendtError> {
    let mut models: Option<String> = None;
    let mut workers = 4usize;
    let mut addr = "127.0.0.1:8090".to_string();
    let mut seed = env_seed();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--models" => {
                models = Some(
                    it.next()
                        .ok_or_else(|| GendtError::config("--models needs a value"))?
                        .clone(),
                )
            }
            "--workers" => workers = parse_num(&mut it, "--workers")?,
            "--addr" => {
                addr = it
                    .next()
                    .ok_or_else(|| GendtError::config("--addr needs a value"))?
                    .clone()
            }
            "--seed" => seed = parse_num(&mut it, "--seed")?,
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(GendtError::config(format!("unknown flag {other}"))),
        }
    }
    let models = models.ok_or_else(|| GendtError::config("--models DIR is required"))?;
    if workers == 0 {
        return Err(GendtError::config("--workers must be > 0"));
    }

    let fleet = start_fleet(&models, workers, &addr, seed, &[])?;
    println!(
        "gendt-fleet: routing {} worker(s) on http://{} (seed {seed})",
        workers,
        fleet.addr()
    );
    for w in &fleet.pool {
        println!("  {} -> http://{}", w.id, w.addr);
    }
    let clean = fleet.join();
    println!("gendt-fleet stopped ({clean}/{workers} workers drained cleanly)");
    Ok(())
}

/// The CI smoke gate. Self-contained: trains a demo checkpoint in a
/// temp dir, runs a 2-worker fleet plus a 1-worker reference, and
/// checks parity, failover, and envelope discipline; then starts this
/// binary on a busy address and checks that no worker outlives it.
fn smoke() -> Result<(), GendtError> {
    let dir = std::env::temp_dir().join("gendt-fleet-smoke-models");
    let ckpt = dir.join("demo_a.json");
    if !ckpt.exists() {
        eprintln!("smoke: training demo checkpoint at {} ...", ckpt.display());
        gendt_serve::demo::write_demo_model(&ckpt, 1)?;
    }
    let models = dir.to_string_lossy().into_owned();

    // Reference: a single worker behind its own router (same seed), so
    // parity compares fleet routing against single-node output.
    let reference = start_fleet(&models, 1, "127.0.0.1:0", 7, &[])?;
    let fleet = start_fleet(&models, 2, "127.0.0.1:0", 7, &[])?;
    let scenarios = ["walk", "bus", "tram", "city_drive", "highway"];
    let body_for = |scenario: &str| {
        format!(
            "{{\"model\":\"demo_a\",\"scenario\":\"{scenario}\",\"duration_s\":20.0,\
             \"start_x\":0.0,\"start_y\":0.0,\"traj_seed\":3,\"sample_seed\":11}}"
        )
    };

    // 1. Bitwise parity: every scenario, fleet output == single-node
    //    output, and repeat calls are deterministic.
    for scenario in &scenarios {
        let body = body_for(scenario);
        let (s1, via_fleet) = http_request(&fleet.addr(), "POST", "/v1/generate", Some(&body))
            .map_err(|e| GendtError::unavailable(format!("smoke fleet request: {e}")))?;
        let (s2, via_single) = http_request(&reference.addr(), "POST", "/v1/generate", Some(&body))
            .map_err(|e| GendtError::unavailable(format!("smoke reference request: {e}")))?;
        if s1 != 200 || s2 != 200 {
            return Err(GendtError::internal(format!(
                "smoke parity: scenario {scenario} got {s1}/{s2}, want 200/200"
            )));
        }
        if via_fleet != via_single {
            return Err(GendtError::internal(format!(
                "smoke parity: scenario {scenario}: fleet and single-node bodies differ"
            )));
        }
        let (_, again) = http_request(&fleet.addr(), "POST", "/v1/generate", Some(&body))
            .map_err(|e| GendtError::unavailable(format!("smoke repeat request: {e}")))?;
        if again != via_fleet {
            return Err(GendtError::internal(format!(
                "smoke determinism: scenario {scenario}: repeat through fleet differs"
            )));
        }
    }
    println!("smoke: parity ok across {} scenarios", scenarios.len());

    // 2. Kill one worker. Every subsequent request must get a definite,
    //    well-formed answer: 200 (failover worked) or a typed retryable
    //    503 envelope — never a hang, never an untyped error.
    let mut fleet = fleet;
    let victim = fleet.pool.remove(0);
    let victim_id = victim.id.clone();
    {
        let mut victim = victim;
        victim.kill()?;
    }
    let mut saw_ok = false;
    for i in 0..20usize {
        let body = body_for(scenarios[i % scenarios.len()]);
        let resp = http_request_full(&fleet.addr(), "POST", "/v1/generate", &[], Some(&body))
            .map_err(|e| {
                GendtError::internal(format!("smoke failover: request {i} got no answer: {e}"))
            })?;
        match resp.status {
            200 => saw_ok = true,
            503 => {
                if !resp.body.contains("\"retryable\":true") {
                    return Err(GendtError::internal(format!(
                        "smoke failover: 503 without typed retryable envelope: {}",
                        resp.body
                    )));
                }
                if resp.header("retry-after").is_none() {
                    return Err(GendtError::internal(
                        "smoke failover: 503 without Retry-After",
                    ));
                }
            }
            other => {
                return Err(GendtError::internal(format!(
                    "smoke failover: unexpected status {other}: {}",
                    resp.body
                )));
            }
        }
    }
    if !saw_ok {
        return Err(GendtError::internal(
            "smoke failover: no request succeeded after killing one of two workers",
        ));
    }
    println!("smoke: failover ok after killing {victim_id}");

    // 3. The fleet status must have noticed: one healthy worker left.
    //    (Forward-path eviction is immediate; poll may lag a beat.)
    let mut healthy_one = false;
    for _ in 0..25 {
        let (status, body) = http_request(&fleet.addr(), "GET", "/v1/fleet", None)
            .map_err(|e| GendtError::unavailable(format!("smoke /v1/fleet: {e}")))?;
        if status == 200 && body.contains("\"healthy\":1") {
            healthy_one = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    if !healthy_one {
        return Err(GendtError::internal(
            "smoke: /v1/fleet never reported exactly 1 healthy worker",
        ));
    }
    println!("smoke: membership converged to 1 healthy worker");

    // 4. Router metrics render and carry fleet series.
    let (status, metrics_text) = http_request(&fleet.addr(), "GET", "/v1/metrics", None)
        .map_err(|e| GendtError::unavailable(format!("smoke /v1/metrics: {e}")))?;
    if status != 200 || !metrics_text.contains("gendt_fleet_forwarded_total") {
        return Err(GendtError::internal("smoke: router /v1/metrics incomplete"));
    }

    // 5. Graceful teardown: drain must answer and workers must exit.
    let (status, _) = http_request(&fleet.addr(), "POST", "/v1/shutdown", None)
        .map_err(|e| GendtError::unavailable(format!("smoke shutdown: {e}")))?;
    if status != 200 {
        return Err(GendtError::internal(format!(
            "smoke: router shutdown answered {status}"
        )));
    }
    let survivors = fleet.pool.len();
    let clean = fleet.join();
    if clean < survivors {
        return Err(GendtError::internal(format!(
            "smoke: only {clean}/{survivors} surviving workers drained cleanly"
        )));
    }
    reference.shutdown();

    // 6. A fleet whose router cannot bind exits non-zero and takes its
    //    workers with it.
    busy_address_leaves_no_workers(&models)?;
    println!("smoke: PASS");
    Ok(())
}

/// Run this binary as a 2-worker fleet on an address the smoke holds.
/// It must exit non-zero, and its stderr must reach EOF within
/// [`ORPHAN_WAIT`]: the workers inherit that stderr, so a worker left
/// running holds the pipe open.
fn busy_address_leaves_no_workers(models: &str) -> Result<(), GendtError> {
    let held = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| GendtError::from(e).wrap("smoke: holding a port"))?;
    let addr = held
        .local_addr()
        .map_err(|e| GendtError::from(e).wrap("smoke: held port"))?
        .to_string();
    let exe = std::env::current_exe()
        .map_err(|e| GendtError::from(e).wrap("cannot locate current executable"))?;
    let mut child = Command::new(exe)
        .args(["--models", models, "--workers", "2", "--addr", &addr])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| GendtError::from(e).wrap("smoke: spawning a fleet on a busy address"))?;
    let mut stderr = child
        .stderr
        .take()
        .ok_or_else(|| GendtError::internal("smoke: no stderr pipe"))?;
    let (tx, rx) = mpsc::channel::<String>();
    let _reader = thread::spawn_named("smoke-busy-stderr", move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        let _ = tx.send(text);
    });
    let text = rx.recv_timeout(ORPHAN_WAIT);
    if text.is_err() {
        // Reap the fleet below even if it is what still runs.
        let _ = child.kill();
    }
    let status = child
        .wait()
        .map_err(|e| GendtError::from(e).wrap("smoke: waiting for the busy-address fleet"))?;
    let text = text.map_err(|_| {
        GendtError::internal(format!(
            "smoke busy address: stderr still open {ORPHAN_WAIT:?} after starting a fleet \
             on {addr}: a worker outlived it"
        ))
    })?;
    if status.success() {
        return Err(GendtError::internal(format!(
            "smoke busy address: a fleet on held {addr} exited 0"
        )));
    }
    println!(
        "smoke: busy address -> {status}, no worker left ({})",
        text.lines().next().unwrap_or("").trim()
    );
    Ok(())
}

fn run() -> Result<(), GendtError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("smoke") => smoke(),
        Some("--help") | Some("-h") => {
            println!("{}", usage());
            Ok(())
        }
        _ => run_fleet(&argv),
    }
}

fn main() -> ExitCode {
    // Worker mode: this same binary, re-exec'd by the supervisor.
    if let Some(code) = maybe_run_worker() {
        return ExitCode::from(code);
    }
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gendt-fleet: {e}");
            if e.kind() == ErrorKind::Config {
                eprintln!("{}", usage());
            }
            ExitCode::from(e.exit_code())
        }
    }
}
