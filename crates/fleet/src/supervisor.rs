//! Worker-pool supervision: spawn N worker processes, wait for each to
//! report its bound address, front them with a router
//! ([`start_fleet`]), and drain them gracefully on shutdown.
//!
//! Workers are the `gendt-fleet` binary re-exec'd with the
//! [`WORKER_ENV`] variable set to a [`WorkerSpec`] JSON — no separate
//! worker binary, no PATH lookup, and `cargo test` can spawn the pool
//! from any build directory. A worker runs [`gendt_serve::serve`] on
//! `127.0.0.1:0`, prints `GENDT_FLEET_WORKER_READY <addr>` on stdout,
//! and serves until `POST /shutdown` (the worker's own two-phase drain:
//! healthz flips 503, new work sheds, in-flight flushes). A worker
//! whose [`WorkerProc`] is dropped while it still runs is killed, so an
//! early error return cannot orphan the pool.

use crate::forward::{Forwarder, HttpForwarder, HttpProbe};
use crate::membership::Membership;
use crate::metrics::FleetMetrics;
use crate::router::{route_serve, RouterCfg, RouterHandle};
use gendt_faults::GendtError;
use gendt_serve::{serve, ServerCfg};
use gendt_sync::mpsc;
use gendt_sync::thread;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Env var carrying the [`WorkerSpec`] JSON; its presence switches the
/// `gendt-fleet` binary into worker mode.
pub const WORKER_ENV: &str = "GENDT_FLEET_WORKER";

/// Stdout line prefix a worker prints once its listener is bound.
pub const READY_PREFIX: &str = "GENDT_FLEET_WORKER_READY ";

/// How long [`spawn_pool`] waits for one worker's ready line.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// How long [`drain_pool`] waits for a draining worker to exit.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(8);

/// Scheduler queue capacity of each worker (the single-node default is
/// 64). Every other server setting is [`ServerCfg::new`]'s.
const WORKER_QUEUE_CAP: usize = 256;

/// Everything a worker process needs to stand up its server.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkerSpec {
    /// Directory of model checkpoints.
    pub models_dir: String,
    /// This worker's index in the pool (`w<N>`); declared to the
    /// flight recorder so records attribute without plumbing.
    pub worker_index: usize,
}

impl WorkerSpec {
    /// A spec serving the checkpoints in `models_dir`.
    pub fn new(models_dir: &str) -> WorkerSpec {
        WorkerSpec {
            models_dir: models_dir.to_string(),
            worker_index: 0,
        }
    }

    fn server_cfg(&self) -> ServerCfg {
        let mut cfg = ServerCfg::new(PathBuf::from(&self.models_dir));
        cfg.sched.queue_cap = WORKER_QUEUE_CAP;
        cfg
    }
}

/// One spawned worker process.
#[derive(Debug)]
pub struct WorkerProc {
    /// Stable worker id (`w0`, `w1`, ...) — the ring member id.
    pub id: String,
    /// The address the worker bound (`127.0.0.1:<port>`).
    pub addr: String,
    child: Child,
}

impl WorkerProc {
    /// Kill the worker immediately (fault-injection in smoke tests).
    pub fn kill(&mut self) -> Result<(), GendtError> {
        self.child
            .kill()
            .map_err(|e| GendtError::from(e).wrap(format!("killing worker {}", self.id)))?;
        let _ = self.child.wait();
        Ok(())
    }

    /// Whether the process has exited.
    pub fn exited(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(Some(_)))
    }
}

impl Drop for WorkerProc {
    /// Kill and reap a worker that is still running, so no error path
    /// between spawn and [`drain_pool`] leaves it orphaned.
    fn drop(&mut self) {
        if !self.exited() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// If this process was launched in worker mode, run the worker server
/// to completion and return `Some(exit_code)`; otherwise `None`.
/// Binaries call this first thing in `main`.
pub fn maybe_run_worker() -> Option<u8> {
    let spec_json = std::env::var(WORKER_ENV).ok()?;
    let code = match run_worker(&spec_json) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("gendt-fleet worker: {e}");
            e.exit_code()
        }
    };
    Some(code)
}

fn run_worker(spec_json: &str) -> Result<(), GendtError> {
    let spec: WorkerSpec = serde_json::from_str(spec_json)
        .map_err(|e| GendtError::config(format!("bad {WORKER_ENV} spec: {e}")))?;
    gendt_obs::flightrec::set_self_worker(spec.worker_index);
    let handle = serve(spec.server_cfg())?;
    // The ready line is the spawn handshake; everything else the worker
    // prints goes to the supervisor's drainer thread.
    println!("{READY_PREFIX}{}", handle.addr);
    handle.join();
    Ok(())
}

fn spawn_one(
    index: usize,
    spec: &WorkerSpec,
    extra_env: &[(String, String)],
) -> Result<WorkerProc, GendtError> {
    let exe = std::env::current_exe()
        .map_err(|e| GendtError::from(e).wrap("cannot locate current executable"))?;
    let mut spec = spec.clone();
    spec.worker_index = index;
    let spec_json = serde_json::to_string(&spec)
        .map_err(|e| GendtError::internal(format!("serializing WorkerSpec: {e}")))?;
    let id = format!("w{index}");
    let mut cmd = Command::new(exe);
    cmd.env(WORKER_ENV, spec_json)
        // Workers must not recurse into fleet mode or inherit the
        // router's fault schedule unless the caller re-injects one.
        .env_remove("GENDT_FAULTS")
        .env("GENDT_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let child = cmd
        .spawn()
        .map_err(|e| GendtError::from(e).wrap(format!("spawning worker {id}")))?;
    // From here on, an error return drops `worker`, which kills it.
    let mut worker = WorkerProc {
        id: id.clone(),
        addr: String::new(),
        child,
    };

    let stdout = worker
        .child
        .stdout
        .take()
        .ok_or_else(|| GendtError::internal(format!("worker {id}: no stdout pipe")))?;
    let mut reader = BufReader::new(stdout);

    // Wait for the ready line in a helper thread so a hung worker
    // cannot hang the supervisor past SPAWN_TIMEOUT.
    let (tx, rx) = mpsc::channel::<Result<String, GendtError>>();
    let reader_id = id.clone();
    let _drainer = thread::spawn_named(&format!("fleet-stdout-{id}"), move || {
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    let _ = tx.send(Err(GendtError::unavailable(format!(
                        "worker {reader_id} exited before ready"
                    ))));
                    return;
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix(READY_PREFIX) {
                        let _ = tx.send(Ok(addr.to_string()));
                        break;
                    }
                }
                Err(e) => {
                    let _ = tx.send(Err(
                        GendtError::from(e).wrap(format!("worker {reader_id} stdout"))
                    ));
                    return;
                }
            }
        }
        // Keep draining so the worker never blocks on a full pipe.
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => return,
                Ok(_) => {}
            }
        }
    });

    match rx.recv_timeout(SPAWN_TIMEOUT) {
        Ok(Ok(addr)) => {
            worker.addr = addr;
            Ok(worker)
        }
        Ok(Err(err)) => Err(err),
        Err(_) => Err(GendtError::timeout(format!(
            "worker {id} did not report ready within {SPAWN_TIMEOUT:?}"
        ))),
    }
}

/// Spawn `n` workers from `spec`, each with `extra_env` applied on top
/// of the worker baseline. Fails fast: on any spawn error, dropping the
/// partial pool kills the workers already started.
pub fn spawn_pool(
    n: usize,
    spec: &WorkerSpec,
    extra_env: &[(String, String)],
) -> Result<Vec<WorkerProc>, GendtError> {
    if n == 0 {
        return Err(GendtError::config("spawn_pool: need at least 1 worker"));
    }
    let mut pool: Vec<WorkerProc> = Vec::with_capacity(n);
    for i in 0..n {
        pool.push(
            spawn_one(i, spec, extra_env).map_err(|e| e.wrap(format!("spawning pool of {n}")))?,
        );
    }
    Ok(pool)
}

/// Drain the pool gracefully: `POST /shutdown` to every worker (its
/// two-phase drain), wait for exits, kill stragglers. Returns how many
/// exited on their own.
pub fn drain_pool(pool: &mut Vec<WorkerProc>, forwarder: &dyn Forwarder) -> usize {
    for w in pool.iter() {
        let _ = forwarder.forward(
            &w.addr,
            "POST",
            "/v1/shutdown",
            &[],
            None,
            Duration::from_millis(1500),
        );
    }
    let deadline = gendt_sync::time::Instant::now() + DRAIN_TIMEOUT;
    let mut clean = 0usize;
    for w in pool.iter_mut() {
        loop {
            match w.child.try_wait() {
                Ok(Some(_)) => {
                    clean += 1;
                    break;
                }
                Ok(None) if gendt_sync::time::Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(20));
                }
                _ => break,
            }
        }
    }
    // Dropping a straggler kills it.
    pool.clear();
    clean
}

/// A running fleet: worker pool + router. [`Fleet::shutdown`] or
/// [`Fleet::join`] tears it down in order; dropping it kills the
/// workers.
pub struct Fleet {
    /// The spawned workers.
    pub pool: Vec<WorkerProc>,
    /// The running router.
    pub router: RouterHandle,
}

impl Fleet {
    /// Router bind address, `host:port`.
    pub fn addr(&self) -> String {
        self.router.addr.to_string()
    }

    /// Graceful teardown: stop the router, then drain the pool.
    pub fn shutdown(mut self) {
        self.router.shutdown();
        drain_pool(&mut self.pool, &HttpForwarder);
    }

    /// Serve until a client posts `/v1/shutdown` to the router, then
    /// drain the pool. Returns how many workers exited on their own.
    pub fn join(mut self) -> usize {
        self.router.join();
        drain_pool(&mut self.pool, &HttpForwarder)
    }
}

/// Spawn `n` workers over `models_dir`, each with `env` applied on top
/// of the worker baseline, and start a router on `addr` in front of
/// them that places keys with `seed`. Fails unless the router binds and
/// every worker passes the initial health poll.
pub fn start_fleet(
    models_dir: &str,
    n: usize,
    addr: &str,
    seed: u64,
    env: &[(String, String)],
) -> Result<Fleet, GendtError> {
    let pool = spawn_pool(n, &WorkerSpec::new(models_dir), env)?;
    let metrics = Arc::new(FleetMetrics::new());
    let membership = Arc::new(Membership::new(seed, metrics.clone()));
    for w in &pool {
        membership.register(&w.id, &w.addr);
    }
    let cfg = RouterCfg {
        addr: addr.to_string(),
        seed,
        ..RouterCfg::new()
    };
    // On an error, dropping `pool` kills the workers.
    let router = route_serve(
        cfg,
        membership.clone(),
        Arc::new(HttpProbe),
        Arc::new(HttpForwarder),
        metrics,
    )
    .map_err(|e| e.wrap("starting fleet router"))?;
    let fleet = Fleet { pool, router };
    let healthy = membership.healthy_count();
    if healthy < n {
        fleet.shutdown();
        return Err(GendtError::unavailable(format!(
            "only {healthy}/{n} workers passed the initial health poll"
        )));
    }
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_spec_round_trips_through_json() {
        let mut spec = WorkerSpec::new("/tmp/models");
        spec.worker_index = 3;
        let json = serde_json::to_string(&spec).expect("serialize");
        let back: WorkerSpec = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.worker_index, 3);
        // The server a worker runs: pinned so the pool serves as it did
        // when each of these was a spec field.
        let cfg = back.server_cfg();
        assert_eq!(cfg.models_dir, PathBuf::from("/tmp/models"));
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.sched.max_batch, 8);
        assert_eq!(cfg.sched.queue_cap, 256);
        assert_eq!(cfg.cache_cap, 128);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.world_seed, 1);
        assert_eq!(cfg.default_deadline_ms, 0);
    }

    #[test]
    fn bad_spec_json_is_config_error() {
        let err = run_worker("{not json").expect_err("bad spec");
        assert_eq!(err.kind(), gendt_faults::ErrorKind::Config);
    }

    #[test]
    fn spawn_pool_rejects_zero() {
        let err = spawn_pool(0, &WorkerSpec::new("/nope"), &[]).expect_err("zero");
        assert_eq!(err.kind(), gendt_faults::ErrorKind::Config);
    }
}
