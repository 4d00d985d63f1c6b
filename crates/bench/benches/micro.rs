//! Micro-benchmarks of the hot primitives underlying every experiment:
//! matrix products, LSTM steps, metric kernels, and simulator queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gendt::{ArMode, CarryState, GenDt, GenDtCfg, Generator};
use gendt_data::windows::Window;
use gendt_data::{extract, ContextCfg};
use gendt_geo::landuse::ENV_ATTRS;
use gendt_geo::trajectory::{generate, Scenario, TrajectoryCfg};
use gendt_geo::world::{World, WorldCfg};
use gendt_geo::XY;
use gendt_nn::{Graph, Lstm, LstmNodeState, Matrix, ParamStore, PlanCache, PlanKey, Rng};
use gendt_radio::cells::Deployment;
use gendt_radio::kpi::{KpiCfg, KpiEngine};
use gendt_radio::propagation::{PropagationCfg, ShadowField};

fn rand_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.uniform(-1.0, 1.0) as f32)
            .collect(),
    )
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for n in [32usize, 64, 128] {
        let mut rng = Rng::seed_from(1);
        let a = rand_matrix(&mut rng, n, n);
        let b = rand_matrix(&mut rng, n, n);
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul(&b)));
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul_naive(&b)));
        });
        group.bench_with_input(BenchmarkId::new("tn_blocked", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul_tn(&b)));
        });
        group.bench_with_input(BenchmarkId::new("nt_blocked", n), &n, |bch, _| {
            bch.iter(|| std::hint::black_box(a.matmul_nt(&b)));
        });
    }
    group.finish();
}

/// The three products at the paper's LSTM shapes (H = 100, four gates
/// = 400 columns) for the node LSTM's 32 rows (a training shard of 4
/// windows × 8 cells) and the aggregation LSTM's 4 rows: `nn` is the
/// forward gate product `h·W_hh`, `tn` the weight gradient `hᵀ·dG`, `nt`
/// the state gradient `dG·W_hhᵀ`.
fn bench_matmul_paper_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_paper");
    let mut rng = Rng::seed_from(4);
    let w_hh = rand_matrix(&mut rng, 100, 400);
    for rows in [32usize, 4] {
        let h = rand_matrix(&mut rng, rows, 100);
        let d_gates = rand_matrix(&mut rng, rows, 400);
        group.bench_with_input(BenchmarkId::new("nn", rows), &rows, |bch, _| {
            bch.iter(|| std::hint::black_box(h.matmul(&w_hh)));
        });
        group.bench_with_input(BenchmarkId::new("tn", rows), &rows, |bch, _| {
            bch.iter(|| std::hint::black_box(h.matmul_tn(&d_gates)));
        });
        group.bench_with_input(BenchmarkId::new("nt", rows), &rows, |bch, _| {
            bch.iter(|| std::hint::black_box(d_gates.matmul_nt(&w_hh)));
        });
    }
    // Batch 1, the serving batch size: `h·W_hh` replayed from a compiled
    // plan, which column-packs the parameter once and runs single-row
    // products over four packed column blocks per pass.
    let mut store = ParamStore::new();
    let w = store.add("w_hh", w_hh.clone());
    let h = rand_matrix(&mut rng, 1, 100);
    let plans = PlanCache::new();
    let key = PlanKey::new("matmul_paper_nn", [1, 100, 400, 0, 0, 0]);
    group.bench_with_input(BenchmarkId::new("nn", 1), &1, |bch, _| {
        bch.iter(|| {
            plans.run(key, |g| {
                let x = g.input_ref(&h);
                let wn = g.param(&store, w);
                let y = g.matmul(x, wn);
                (std::hint::black_box(g.value(y).data[0]), None)
            })
        });
    });
    group.finish();
}

fn synth_window(rng: &mut Rng, l: usize, n_cells: usize, n_ch: usize, m: usize) -> Window {
    Window {
        targets: (0..n_ch)
            .map(|_| (0..l).map(|_| rng.uniform(-1.0, 1.0) as f32).collect())
            .collect(),
        cells: (0..n_cells)
            .map(|_| {
                (0..l)
                    .map(|_| {
                        [
                            rng.uniform01() as f32,
                            rng.uniform01() as f32,
                            rng.uniform01() as f32,
                            rng.uniform01() as f32,
                            0.0,
                        ]
                    })
                    .collect()
            })
            .collect(),
        cell_ids: (0..n_cells as u32).collect(),
        env: (0..l).map(|_| vec![0.2; ENV_ATTRS]).collect(),
        ar_seed: vec![vec![0.0; m]; n_ch],
        start: 0,
    }
}

fn bench_generator_forward(c: &mut Criterion) {
    let mut cfg = GenDtCfg::fast(4, 3);
    cfg.window.len = 20;
    cfg.window.max_cells = 4;
    let mut rng = Rng::seed_from(5);
    let generator = Generator::new(cfg.clone(), &mut rng);
    let wins: Vec<Window> = (0..4)
        .map(|_| synth_window(&mut rng, cfg.window.len, 4, cfg.n_ch, cfg.window.ar_context))
        .collect();
    let batch: Vec<&Window> = wins.iter().collect();
    let carry = CarryState::zeros(&cfg, batch.len());
    let mut group = c.benchmark_group("generator_forward");
    group.bench_function("cell_packed", |b| {
        b.iter(|| {
            let mut fr = Rng::seed_from(9);
            let mut g = Graph::new();
            std::hint::black_box(generator.forward(
                &mut g,
                &batch,
                &carry,
                ArMode::TeacherForced,
                true,
                &mut fr,
            ))
        })
    });
    group.bench_function("per_cell", |b| {
        b.iter(|| {
            let mut fr = Rng::seed_from(9);
            let mut g = Graph::new();
            std::hint::black_box(generator.forward_percell(
                &mut g,
                &batch,
                &carry,
                ArMode::TeacherForced,
                true,
                &mut fr,
            ))
        })
    });
    group.finish();
}

fn bench_train_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_step");
    group.sample_size(10);
    for shards in [1usize, 4] {
        let mut cfg = GenDtCfg::fast(4, 7);
        cfg.steps = 1;
        cfg.train_shards = shards;
        let mut rng = Rng::seed_from(3);
        let pool: Vec<Window> = (0..8)
            .map(|_| synth_window(&mut rng, cfg.window.len, 4, cfg.n_ch, cfg.window.ar_context))
            .collect();
        let mut model = GenDt::new(cfg);
        group.bench_with_input(BenchmarkId::from_parameter(shards), &shards, |b, _| {
            b.iter(|| std::hint::black_box(model.train_step(&pool)))
        });
    }
    group.finish();
}

fn bench_lstm_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm_step");
    for hidden in [32usize, 100] {
        let mut rng = Rng::seed_from(2);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 7, hidden, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(hidden), &hidden, |bch, &h| {
            bch.iter(|| {
                let mut g = Graph::new();
                let x = g.input(Matrix::full(8, 7, 0.3));
                let st = LstmNodeState {
                    h: g.input(Matrix::zeros(8, h)),
                    c: g.input(Matrix::zeros(8, h)),
                };
                std::hint::black_box(lstm.step(&mut g, &store, x, st));
            });
        });
    }
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.1).sin() * 10.0).collect();
    let ys: Vec<f64> = (0..1000)
        .map(|i| ((i as f64 - 3.0) * 0.1).sin() * 10.0)
        .collect();
    c.bench_function("dtw_1000", |b| {
        b.iter(|| std::hint::black_box(gendt_metrics::dtw(&xs, &ys)))
    });
    c.bench_function("hwd_1000", |b| {
        b.iter(|| std::hint::black_box(gendt_metrics::hwd(&xs, &ys)))
    });
    c.bench_function("mae_1000", |b| {
        b.iter(|| std::hint::black_box(gendt_metrics::mae(&xs, &ys)))
    });
}

fn bench_simulator(c: &mut Criterion) {
    let world = World::generate(WorldCfg::city(7));
    let deployment = Deployment::from_world(&world);
    c.bench_function("cells_within_2km", |b| {
        b.iter(|| std::hint::black_box(deployment.cells_within(XY::new(100.0, -50.0), 2000.0)))
    });
    c.bench_function("nearest_within_2km_k8", |b| {
        b.iter(|| std::hint::black_box(deployment.nearest_within(XY::new(100.0, -50.0), 2000.0, 8)))
    });
    c.bench_function("env_context_500m", |b| {
        b.iter(|| std::hint::black_box(world.env_context(XY::new(100.0, -50.0), 500.0)))
    });
    // Context extraction for a one-hour walk, 8 cells per step as the
    // paper-shape model takes them.
    let walk = generate(
        &world,
        &TrajectoryCfg::new(Scenario::Walk, 3600.0, XY::new(0.0, 0.0), 5),
    );
    let ctx_cfg = ContextCfg {
        max_cells: 8,
        ..ContextCfg::default()
    };
    c.bench_function("extract_1h_walk", |b| {
        b.iter(|| std::hint::black_box(extract(&world, &deployment, &walk, &ctx_cfg)))
    });
    let prop = PropagationCfg::default();
    let shadow = ShadowField::new(7, 3, &prop);
    c.bench_function("shadow_field_eval", |b| {
        let mut x = 0.0;
        b.iter(|| {
            x += 1.0;
            std::hint::black_box(shadow.at(XY::new(x, -x)))
        })
    });
    let engine = KpiEngine::new(&world, &deployment, prop, KpiCfg::default());
    let traj = generate(
        &world,
        &TrajectoryCfg::new(Scenario::Bus, 60.0, XY::new(0.0, 0.0), 3),
    );
    c.bench_function("kpi_measure_60s_bus", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(engine.measure(&traj, seed))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_matmul, bench_matmul_paper_shapes, bench_lstm_step, bench_generator_forward, bench_train_step, bench_metrics, bench_simulator
}
criterion_main!(benches);
