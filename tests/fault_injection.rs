//! Fault-injection and degraded-input tests, in the spirit of the
//! networking guides' examples: the pipeline must behave sensibly when
//! fed coverage holes, degenerate contexts, or pathological inputs — not
//! panic or emit non-finite KPIs.

use gendt::{generate_series, GenDt, GenDtCfg};
use gendt_data::context::RunContext;
use gendt_data::{dataset_a, extract, windows, BuildCfg, ContextCfg, Kpi};
use gendt_geo::landuse::ENV_ATTRS;
use gendt_geo::trajectory::{Scenario, TrackPoint, Trajectory};
use gendt_geo::world::{World, WorldCfg};
use gendt_geo::XY;
use gendt_radio::cells::Deployment;
use gendt_radio::kpi::{KpiCfg, KpiEngine};
use gendt_radio::propagation::PropagationCfg;

fn tiny_trained() -> (GenDt, ContextCfg, gendt_data::run::Dataset) {
    let ds = dataset_a(&BuildCfg::quick(401));
    let mut cfg = GenDtCfg::fast(4, 401);
    cfg.hidden = 8;
    cfg.resgen_hidden = 8;
    cfg.disc_hidden = 4;
    cfg.window.len = 10;
    cfg.window.stride = 10;
    cfg.window.max_cells = 2;
    cfg.steps = 3;
    cfg.batch_size = 4;
    let ctx_cfg = ContextCfg {
        max_cells: 2,
        coord_scale_m: ds.world.cfg.extent_m,
        ..ContextCfg::default()
    };
    let run = &ds.runs[0];
    let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ctx_cfg);
    let pool = windows(run, &ctx, &Kpi::DATASET_A, &cfg.window);
    let mut model = GenDt::new(cfg);
    model.train(&pool);
    (model, ctx_cfg, ds)
}

#[test]
fn out_of_coverage_trajectory_yields_floor_kpis_not_panics() {
    // A trajectory pinned in the far corner of an empty region: no cell
    // within range. The engine must emit floor samples, not panic.
    let world = World::generate(WorldCfg::city(402));
    let deployment = Deployment::from_world(&world);
    let engine = KpiEngine::new(
        &world,
        &deployment,
        PropagationCfg::default(),
        KpiCfg {
            serving_range_m: 50.0,
            ..KpiCfg::default()
        }, // absurdly small range
    );
    let traj = Trajectory {
        scenario: Scenario::Walk,
        points: (0..20)
            .map(|k| TrackPoint {
                t: k as f64,
                pos: XY::new(3990.0, 3990.0),
                speed: 0.0,
            })
            .collect(),
    };
    let samples = engine.measure(&traj, 1);
    assert_eq!(samples.len(), 20);
    for s in &samples {
        assert!(s.rsrp_dbm >= -140.0 && s.rsrp_dbm <= -44.0);
        assert!(s.rsrq_db.is_finite() && s.sinr_db.is_finite());
    }
}

#[test]
fn generation_with_empty_cell_context_stays_finite() {
    let (mut model, _, _) = tiny_trained();
    // Hand-built context with NO visible cells and zeroed environment.
    let mut ctx = RunContext::default();
    for _ in 0..20 {
        ctx.push_step([], &[0.0; ENV_ATTRS]);
    }
    let out = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 7);
    assert_eq!(out.len(), 20);
    for ch in &out.series {
        assert!(
            ch.iter().all(|v| v.is_finite()),
            "non-finite KPI on empty context"
        );
    }
}

#[test]
fn generation_with_extreme_env_attributes_stays_in_range() {
    let (mut model, _, _) = tiny_trained();
    // Saturated environment attributes (all land-use 1.0 is impossible but
    // adversarial; huge PoI counts log-compress upstream, feed raw here).
    let mut ctx = RunContext::default();
    for _ in 0..20 {
        ctx.push_step([(0, [0.5, -0.5, 1.0, 0.9, 0.1])], &[5.0; ENV_ATTRS]);
    }
    let out = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 7);
    let rsrp = out.channel(Kpi::Rsrp).unwrap();
    assert!(rsrp.iter().all(|&v| (-140.0..=-44.0).contains(&v)));
}

#[test]
fn trajectory_shorter_than_one_window_generates_nothing() {
    let (mut model, ctx_cfg, ds) = tiny_trained();
    let run = &ds.runs[1];
    let mut short = run.traj.clone();
    short.points.truncate(5); // window length is 10
    let ctx = extract(&ds.world, &ds.deployment, &short, &ctx_cfg);
    let out = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 3);
    assert!(out.is_empty());
}

#[test]
fn mismatched_kpi_list_is_rejected() {
    let (mut model, ctx_cfg, ds) = tiny_trained();
    let ctx = extract(&ds.world, &ds.deployment, &ds.runs[0].traj, &ctx_cfg);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Model has 4 channels; asking for 2 must panic loudly rather
        // than silently mislabel the output.
        generate_series(&mut model, &ctx, &[Kpi::Rsrp, Kpi::Rsrq], false, 1)
    }));
    assert!(result.is_err(), "channel mismatch must be rejected");
}

#[test]
fn training_on_single_window_pool_does_not_diverge() {
    let (_, ctx_cfg, ds) = tiny_trained();
    let mut cfg = GenDtCfg::fast(4, 403);
    cfg.hidden = 8;
    cfg.resgen_hidden = 8;
    cfg.disc_hidden = 4;
    cfg.window.len = 10;
    cfg.window.stride = 10;
    cfg.window.max_cells = 2;
    cfg.steps = 10;
    cfg.batch_size = 4;
    let run = &ds.runs[0];
    let ctx = extract(&ds.world, &ds.deployment, &run.traj, &ctx_cfg);
    let mut pool = windows(run, &ctx, &Kpi::DATASET_A, &cfg.window);
    pool.truncate(1);
    let mut model = GenDt::new(cfg);
    model.train(&pool);
    for p in model.generator.store.iter() {
        assert!(!p.value.has_non_finite(), "{} diverged", p.name);
    }
}
