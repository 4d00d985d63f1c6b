//! The set-up `generate` and `stream` share: a paper-shape checkpoint,
//! one in-process gendt-serve worker with the default `ServerCfg`, and
//! an in-process gendt-fleet router in front of it. Also the in-process
//! reference the output checks compare against.

use crate::client::request;
use crate::train::paper_cfg;
use gendt::{load_model_from_file, save_model_to_file, GenDt};
use gendt_data::{extract, ContextCfg, RunContext};
use gendt_fleet::{
    route_serve, FleetMetrics, HttpForwarder, HttpProbe, Membership, RouterCfg, RouterHandle,
};
use gendt_geo::{trajectory, Scenario, World, WorldCfg, XY};
use gendt_nn::Rng;
use gendt_radio::Deployment;
use gendt_serve::metrics::ServeMetrics;
use gendt_serve::{serve, ServerCfg, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Served model name (the checkpoint's file stem).
pub const MODEL: &str = "paper";
/// Weight seed of the served checkpoint.
const CKPT_SEED: u64 = 2022;
/// The world every worker serves (`ServerCfg`'s default world seed).
const WORLD_SEED: u64 = 1;
/// Samples per generation window (the paper's L).
const WINDOW: usize = 50;
/// The server's cap on a trajectory's duration, seconds.
pub const MAX_DURATION_S: f64 = 4.0 * 3600.0;

const SCENARIOS: [(&str, Scenario); 5] = [
    ("walk", Scenario::Walk),
    ("bus", Scenario::Bus),
    ("tram", Scenario::Tram),
    ("city_drive", Scenario::CityDrive),
    ("highway", Scenario::Highway),
];

/// One trajectory spec as a client sends it.
#[derive(Clone, Debug)]
pub struct Spec {
    pub scenario: usize,
    /// Generation windows asked for (nominal: the trajectory's own
    /// sampling decides the exact count).
    pub windows: usize,
    pub duration_s: f64,
    pub start_x: f64,
    pub start_y: f64,
    pub traj_seed: u64,
}

impl Spec {
    /// A spec in scenario `scenario` about `windows` generation windows
    /// long (capped at the server's 4 h limit), starting inside the city.
    pub fn draw(rng: &mut Rng, scenario: usize, windows: usize) -> Spec {
        let period = SCENARIOS[scenario].1.sample_period();
        Spec {
            scenario,
            windows,
            duration_s: (((windows * WINDOW) as f64 + 10.0) * period).min(MAX_DURATION_S),
            start_x: rng.uniform(-2500.0, 2500.0),
            start_y: rng.uniform(-2500.0, 2500.0),
            traj_seed: rng.next_u64() % 1_000_000,
        }
    }

    pub fn scenario_count() -> usize {
        SCENARIOS.len()
    }

    fn fields(&self) -> String {
        format!(
            "\"model\":\"{MODEL}\",\"scenario\":\"{}\",\"duration_s\":{},\"start_x\":{},\"start_y\":{},\"traj_seed\":{}",
            SCENARIOS[self.scenario].0, self.duration_s, self.start_x, self.start_y, self.traj_seed
        )
    }

    pub fn generate_body(&self, sample_seed: u64) -> String {
        format!("{{{},\"sample_seed\":{sample_seed}}}", self.fields())
    }

    /// Open a stream that produces one window now and pauses.
    pub fn open_body(&self, sample_seed: u64) -> String {
        format!(
            "{{{},\"sample_seed\":{sample_seed},\"chunk_windows\":1,\"max_windows\":1}}",
            self.fields()
        )
    }
}

/// A running worker and the router in front of it.
pub struct Stack {
    server: ServerHandle,
    router: RouterHandle,
    /// The worker's address (for direct requests and metrics).
    pub worker: String,
    /// The router's address (where load is sent).
    pub front: String,
    pub metrics: Arc<ServeMetrics>,
    pub dir: PathBuf,
}

impl Stack {
    /// Write the checkpoint into `dir` and start the worker and router.
    pub fn start(dir: &Path) -> Result<Stack, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let model = GenDt::new(paper_cfg(CKPT_SEED));
        save_model_to_file(&model, &dir.join(format!("{MODEL}.json")))
            .map_err(|e| format!("save checkpoint: {e}"))?;
        let server = serve(ServerCfg::new(dir.to_path_buf())).map_err(|e| format!("serve: {e}"))?;
        let worker = server.addr.to_string();
        let fleet_metrics = Arc::new(FleetMetrics::new());
        let membership = Arc::new(Membership::new(
            RouterCfg::new().seed,
            fleet_metrics.clone(),
        ));
        membership.register("w0", &worker);
        let router = route_serve(
            RouterCfg::new(),
            membership,
            Arc::new(HttpProbe),
            Arc::new(HttpForwarder),
            fleet_metrics,
        )
        .map_err(|e| format!("route_serve: {e}"))?;
        Ok(Stack {
            metrics: server.metrics(),
            front: router.addr.to_string(),
            server,
            router,
            worker,
            dir: dir.to_path_buf(),
        })
    }

    /// Stop the router, then the worker, and remove the checkpoint.
    pub fn stop(self) {
        self.router.shutdown();
        self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// Context-cache (hits, misses) from the worker's `/v1/metrics`.
    pub fn cache_stats(&self) -> (f64, f64) {
        let text = request(&self.worker, "GET", "/v1/metrics", &[], "")
            .map(|r| r.body)
            .unwrap_or_default();
        let read = |name: &str| {
            text.lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (
            read("gendt_serve_context_cache_hits_total"),
            read("gendt_serve_context_cache_misses_total"),
        )
    }

    /// (batches, batched requests, sessions evicted + expired) so far.
    pub fn counters(&self) -> [u64; 3] {
        use std::sync::atomic::Ordering::Relaxed;
        let m = &self.metrics;
        [
            m.batches.load(Relaxed),
            m.batched_requests.load(Relaxed),
            m.stream_sessions_evicted.load(Relaxed) + m.stream_sessions_expired.load(Relaxed),
        ]
    }
}

/// What the output checks compare the served bytes against: the same
/// world, deployment and checkpoint, run in this process.
pub struct Reference {
    pub world: World,
    pub deployment: Deployment,
    pub model: GenDt,
}

impl Reference {
    pub fn load(dir: &Path) -> Result<Reference, String> {
        let world = World::generate(WorldCfg::city(WORLD_SEED));
        let deployment = Deployment::from_world(&world);
        let model = load_model_from_file(&dir.join(format!("{MODEL}.json")))
            .map_err(|e| format!("load checkpoint: {e}"))?;
        Ok(Reference {
            world,
            deployment,
            model,
        })
    }

    /// Trajectory synthesis plus context extraction, as the worker does
    /// it on a cache miss.
    pub fn context(&self, spec: &Spec) -> RunContext {
        let cfg = trajectory::TrajectoryCfg::new(
            SCENARIOS[spec.scenario].1,
            spec.duration_s,
            XY {
                x: spec.start_x,
                y: spec.start_y,
            },
            spec.traj_seed,
        );
        let traj = trajectory::generate(&self.world, &cfg);
        let ctx_cfg = ContextCfg {
            max_cells: self.model.cfg().window.max_cells,
            ..ContextCfg::default()
        };
        extract(&self.world, &self.deployment, &traj, &ctx_cfg)
    }
}
