//! Helpers shared by the serving-path test binaries: demo checkpoints,
//! request bodies and the direct `generate_series` reference.

use gendt::checkpoint::load_model_from_file;
use gendt::generate_series;
use gendt_data::context::{extract, ContextCfg, RunContext};
use gendt_data::kpi_types::Kpi;
use gendt_geo::{trajectory, World, WorldCfg, XY};
use gendt_radio::Deployment;
use gendt_serve::api::GenerateRequest;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Seed of the synthetic world every test server serves against.
pub const WORLD_SEED: u64 = 1;

/// Scratch path unique to this test binary, so binaries run side by
/// side never share files.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gendt-{}-test-{name}", env!("CARGO_CRATE_NAME")))
}

/// Demo checkpoints are expensive to train in debug builds; train each
/// seed once per test binary and copy the bytes into per-test dirs.
pub fn demo_ckpt_bytes(seed: u64) -> &'static [u8] {
    static V1: OnceLock<Vec<u8>> = OnceLock::new();
    static V2: OnceLock<Vec<u8>> = OnceLock::new();
    let slot = match seed {
        1 => &V1,
        2 => &V2,
        _ => panic!("only seeds 1 and 2 are pre-trained"),
    };
    slot.get_or_init(|| {
        let path = scratch(&format!("demo-{seed}.json"));
        gendt_serve::demo::write_demo_model(&path, seed).expect("train demo model");
        std::fs::read(&path).expect("read demo checkpoint")
    })
}

/// A fresh models directory holding the seed's checkpoint as `demo`.
pub fn fresh_model_dir(test: &str, seed: u64) -> PathBuf {
    let dir = scratch(test);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create model dir");
    std::fs::write(dir.join("demo.json"), demo_ckpt_bytes(seed)).expect("write checkpoint");
    dir
}

/// A `/generate` body for a walk from the origin.
pub fn request_json(traj_seed: u64, sample_seed: u64, duration_s: f64) -> String {
    serde_json::to_string(&GenerateRequest {
        model: "demo".to_string(),
        scenario: "walk".to_string(),
        duration_s,
        start_x: 0.0,
        start_y: 0.0,
        traj_seed,
        sample_seed,
    })
    .expect("encode request")
}

/// What the server should produce, computed directly against the same
/// checkpoint, world, and seeds.
pub fn direct_series(
    ckpt: &Path,
    traj_seed: u64,
    sample_seed: u64,
    duration_s: f64,
) -> Vec<Vec<f64>> {
    let mut model = load_model_from_file(ckpt).expect("load checkpoint");
    let world = World::generate(WorldCfg::city(WORLD_SEED));
    let deployment = Deployment::from_world(&world);
    let cfg = trajectory::TrajectoryCfg::new(
        trajectory::Scenario::Walk,
        duration_s,
        XY { x: 0.0, y: 0.0 },
        traj_seed,
    );
    let traj = trajectory::generate(&world, &cfg);
    let ctx: RunContext = extract(
        &world,
        &deployment,
        &traj,
        &ContextCfg {
            max_cells: model.cfg().window.max_cells,
            ..ContextCfg::default()
        },
    );
    generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, sample_seed).series
}
