//! DoppelGANger (DG) baseline (paper §5.2 and Appendix B; after Lin et
//! al., IMC 2020) — a two-stage multivariate time-series GAN:
//!
//! 1. A **context (metadata) generator** maps noise to a static per-window
//!    metadata vector; an MLP discriminator trains it against real
//!    metadata (original DG only).
//! 2. A **time-series generator** — an LSTM conditioned on the (static)
//!    metadata plus per-step noise — produces the KPI window.
//!
//! Two operating modes mirror the paper's comparison:
//!
//! * [`DgMode::Original`] — generation uses *generated* metadata, so the
//!   output is unaligned with the target trajectory (poor MAE/DTW).
//! * [`DgMode::RealContext`] — the paper's optimized variant: stage 1 is
//!   bypassed and the real window metadata conditions stage 2 directly.
//!
//! Deviations from the original DG (documented in DESIGN.md): training
//! adds an MSE anchor alongside the adversarial loss — pure-GAN training
//! at the tiny scale used here diverges — and metadata is the window mean
//! of the environment context plus a 3-value cell summary rather than DG's
//! dataset-specific attributes. Neither changes DG's defining limitations
//! relative to GenDT: static per-window context and no dynamic cell set.

use gendt_data::context::RunContext;
use gendt_data::kpi_types::Kpi;
use gendt_data::windows::{Window, WindowCfg};
use gendt_geo::landuse::ENV_ATTRS;
use gendt_nn::{Adam, Graph, Linear, Lstm, LstmNodeState, Matrix, Mlp, NodeId, ParamStore, Rng};
use serde::{Deserialize, Serialize};

/// Metadata dimension: mean environment context + cell-count summary +
/// mean cell distance + mean cell power.
pub const META_DIM: usize = ENV_ATTRS + 3;

/// DG operating mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DgMode {
    /// Two-stage: metadata is generated from noise.
    Original,
    /// Metadata comes from the real context ("Real Context DG").
    RealContext,
}

/// DG configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DgCfg {
    /// Operating mode.
    pub mode: DgMode,
    /// KPI channels.
    pub n_ch: usize,
    /// LSTM hidden size.
    pub hidden: usize,
    /// Per-step noise dimension.
    pub n_z: usize,
    /// Window length (must match the windows used for training).
    pub window: WindowCfg,
    /// Training steps.
    pub steps: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adversarial weight on the generator loss.
    pub lambda_gan: f32,
    /// Seed.
    pub seed: u64,
}

impl DgCfg {
    /// Defaults sized like the `GenDtCfg::fast` models.
    pub fn fast(mode: DgMode, n_ch: usize, seed: u64) -> Self {
        DgCfg {
            mode,
            n_ch,
            hidden: 32,
            n_z: 4,
            window: WindowCfg {
                len: 30,
                stride: 30,
                max_cells: 6,
                ar_context: 4,
            },
            steps: 120,
            batch_size: 8,
            lambda_gan: 0.1,
            seed,
        }
    }
}

/// Compute a window's metadata vector: mean env context, mean cell count,
/// mean nearest-cell distance, mean cell power feature.
pub fn window_metadata(w: &Window) -> Vec<f32> {
    let l = w.env.len().max(1);
    let mut meta = vec![0.0f32; META_DIM];
    for step in &w.env {
        for (i, &v) in step.iter().enumerate() {
            meta[i] += v / l as f32;
        }
    }
    let n_cells = w.cells.len();
    meta[ENV_ATTRS] = n_cells as f32 / 10.0;
    if n_cells > 0 {
        let mut dist = 0.0;
        let mut pow = 0.0;
        for cell in &w.cells {
            for f in cell {
                dist += f[4] / (n_cells * l) as f32;
                pow += f[2] / (n_cells * l) as f32;
            }
        }
        meta[ENV_ATTRS + 1] = dist;
        meta[ENV_ATTRS + 2] = pow;
    }
    meta
}

/// Metadata for a slice of context steps (generation path).
fn ctx_metadata(ctx: &RunContext, start: usize, len: usize) -> Vec<f32> {
    let mut meta = vec![0.0f32; META_DIM];
    for step in start..start + len {
        for (i, &v) in ctx.env(step).iter().enumerate() {
            meta[i] += v / len as f32;
        }
        let cells = ctx.cells(step);
        meta[ENV_ATTRS] += cells.len() as f32 / (10.0 * len as f32);
        if !cells.is_empty() {
            let n = cells.len() as f32;
            meta[ENV_ATTRS + 1] += cells.iter().map(|(_, f)| f[4]).sum::<f32>() / (n * len as f32);
            meta[ENV_ATTRS + 2] += cells.iter().map(|(_, f)| f[2]).sum::<f32>() / (n * len as f32);
        }
    }
    meta
}

/// The DoppelGANger model.
pub struct DoppelGanger {
    /// Configuration.
    pub cfg: DgCfg,
    g_store: ParamStore,
    d_store: ParamStore,
    m_store: ParamStore,
    md_store: ParamStore,
    ts_lstm: Lstm,
    ts_head: Linear,
    ts_disc_lstm: Lstm,
    ts_disc_head: Linear,
    meta_gen: Mlp,
    meta_disc: Mlp,
    rng: Rng,
    /// Pool of real metadata (kept for the Original mode's stage-1
    /// training diagnostics).
    real_meta_seen: usize,
}

const META_NOISE: usize = 8;

impl DoppelGanger {
    /// Initialize an untrained DG.
    pub fn new(cfg: DgCfg) -> Self {
        let mut rng = Rng::seed_from(cfg.seed);
        let mut g_store = ParamStore::new();
        let ts_in = META_DIM + cfg.n_z;
        let ts_lstm = Lstm::new(&mut g_store, "dg_ts", ts_in, cfg.hidden, &mut rng);
        let ts_head = Linear::new(&mut g_store, "dg_head", cfg.hidden, cfg.n_ch, &mut rng);
        let mut d_store = ParamStore::new();
        let ts_disc_lstm = Lstm::new(&mut d_store, "dg_disc", cfg.n_ch + META_DIM, 16, &mut rng);
        let ts_disc_head = Linear::new(&mut d_store, "dg_disc_head", 16, 1, &mut rng);
        let mut m_store = ParamStore::new();
        let meta_gen = Mlp::new(
            &mut m_store,
            "dg_meta",
            &[META_NOISE, 32, META_DIM],
            &mut rng,
        );
        let mut md_store = ParamStore::new();
        let meta_disc = Mlp::new(&mut md_store, "dg_meta_disc", &[META_DIM, 32, 1], &mut rng);
        DoppelGanger {
            cfg,
            g_store,
            d_store,
            m_store,
            md_store,
            ts_lstm,
            ts_head,
            ts_disc_lstm,
            ts_disc_head,
            meta_gen,
            meta_disc,
            rng,
            real_meta_seen: 0,
        }
    }

    fn ts_forward(&self, g: &mut Graph, meta: &Matrix, len: usize, rng: &mut Rng) -> Vec<NodeId> {
        let b = meta.rows;
        let meta_node = g.input(meta.clone());
        let mut st = LstmNodeState {
            h: g.input(Matrix::zeros(b, self.cfg.hidden)),
            c: g.input(Matrix::zeros(b, self.cfg.hidden)),
        };
        let mut outs = Vec::with_capacity(len);
        for _ in 0..len {
            let mut z = Matrix::zeros(b, self.cfg.n_z);
            for v in z.data.iter_mut() {
                *v = rng.normal() as f32;
            }
            let zn = g.input(z);
            let inp = g.concat_cols(meta_node, zn);
            st = self.ts_lstm.step(g, &self.g_store, inp, st);
            outs.push(self.ts_head.forward(g, &self.g_store, st.h));
        }
        outs
    }

    fn ts_disc(&self, g: &mut Graph, xs: &[NodeId], meta: &Matrix, frozen: bool) -> NodeId {
        let b = meta.rows;
        let meta_node = g.input(meta.clone());
        let mut st = LstmNodeState {
            h: g.input(Matrix::zeros(b, 16)),
            c: g.input(Matrix::zeros(b, 16)),
        };
        let w = self.ts_disc_lstm.weights(g, &self.d_store, frozen);
        for &x in xs {
            let inp = g.concat_cols(x, meta_node);
            st = self.ts_disc_lstm.step_with(g, w, inp, st);
        }
        self.ts_disc_head
            .forward_mode(g, &self.d_store, st.h, frozen)
    }

    /// Train on a pool of windows.
    pub fn train(&mut self, pool: &[Window]) {
        assert!(!pool.is_empty(), "empty DG training pool");
        let metas: Vec<Vec<f32>> = pool.iter().map(window_metadata).collect();
        self.real_meta_seen = metas.len();
        let mut opt_g = Adam::new(2e-3);
        let mut opt_d = Adam::new(1e-3);
        let mut opt_m = Adam::new(2e-3);
        let mut opt_md = Adam::new(1e-3);
        let l = pool[0].env.len();
        for _ in 0..self.cfg.steps {
            let bsz = self.cfg.batch_size.min(pool.len());
            let idxs: Vec<usize> = (0..bsz).map(|_| self.rng.gen_range(pool.len())).collect();
            let mut meta = Matrix::zeros(bsz, META_DIM);
            for (bi, &i) in idxs.iter().enumerate() {
                meta.data[bi * META_DIM..(bi + 1) * META_DIM].copy_from_slice(&metas[i]);
            }
            let real_steps: Vec<Matrix> = (0..l)
                .map(|t| {
                    let mut m = Matrix::zeros(bsz, self.cfg.n_ch);
                    for (bi, &i) in idxs.iter().enumerate() {
                        for ch in 0..self.cfg.n_ch {
                            m.data[bi * self.cfg.n_ch + ch] = pool[i].targets[ch][t];
                        }
                    }
                    m
                })
                .collect();

            // --- Time-series generator step (MSE anchor + GAN) ---
            self.g_store.zero_grad();
            let mut g = Graph::new();
            let mut rng2 = self.rng.fork(1);
            let outs = self.ts_forward(&mut g, &meta, l, &mut rng2);
            let mut terms: Vec<(NodeId, f32)> = Vec::new();
            for (t, &o) in outs.iter().enumerate() {
                let target = g.input(real_steps[t].clone());
                let mse = g.mse_loss(o, target);
                terms.push((mse, 1.0 / l as f32));
            }
            let mse_node = g.weighted_sum(terms);
            let logit = self.ts_disc(&mut g, &outs, &meta, true);
            let gan_g = g.bce_with_logits(logit, Matrix::full(bsz, 1, 1.0));
            let loss = g.weighted_sum(vec![(mse_node, 1.0), (gan_g, self.cfg.lambda_gan)]);
            g.backward(loss, &mut self.g_store);
            self.g_store.scrub_non_finite_grads();
            self.g_store.clip_grad_norm(5.0);
            opt_g.step(&mut self.g_store);

            // --- Time-series discriminator step ---
            let fake_vals: Vec<Matrix> = outs.iter().map(|&o| g.value(o).clone()).collect();
            drop(g);
            self.d_store.zero_grad();
            let mut gd = Graph::new();
            let real_nodes: Vec<NodeId> = real_steps.iter().map(|m| gd.input(m.clone())).collect();
            let fake_nodes: Vec<NodeId> = fake_vals.iter().map(|m| gd.input(m.clone())).collect();
            let lr = self.ts_disc(&mut gd, &real_nodes, &meta, false);
            let lf = self.ts_disc(&mut gd, &fake_nodes, &meta, false);
            let loss_r = gd.bce_with_logits(lr, Matrix::full(bsz, 1, 1.0));
            let loss_f = gd.bce_with_logits(lf, Matrix::full(bsz, 1, 0.0));
            let loss_d = gd.weighted_sum(vec![(loss_r, 0.5), (loss_f, 0.5)]);
            gd.backward(loss_d, &mut self.d_store);
            self.d_store.scrub_non_finite_grads();
            self.d_store.clip_grad_norm(5.0);
            opt_d.step(&mut self.d_store);

            // --- Metadata GAN (Original mode only) ---
            if self.cfg.mode == DgMode::Original {
                // Generator step.
                self.m_store.zero_grad();
                let mut gm = Graph::new();
                let mut zm = Matrix::zeros(bsz, META_NOISE);
                for v in zm.data.iter_mut() {
                    *v = self.rng.normal() as f32;
                }
                let z = gm.input(zm.clone());
                let fake_meta = self.meta_gen.forward(&mut gm, &self.m_store, z);
                // Frozen metadata discriminator.
                let logit_m =
                    forward_mlp_frozen(&self.meta_disc, &mut gm, &self.md_store, fake_meta);
                let loss_m = gm.bce_with_logits(logit_m, Matrix::full(bsz, 1, 1.0));
                gm.backward(loss_m, &mut self.m_store);
                self.m_store.scrub_non_finite_grads();
                self.m_store.clip_grad_norm(5.0);
                opt_m.step(&mut self.m_store);
                let fake_meta_vals = gm.value(fake_meta).clone();
                drop(gm);
                // Discriminator step.
                self.md_store.zero_grad();
                let mut gmd = Graph::new();
                let real_m = gmd.input(meta.clone());
                let fake_m = gmd.input(fake_meta_vals);
                let lr = self.meta_disc.forward(&mut gmd, &self.md_store, real_m);
                let lf = self.meta_disc.forward(&mut gmd, &self.md_store, fake_m);
                let loss_r = gmd.bce_with_logits(lr, Matrix::full(bsz, 1, 1.0));
                let loss_f = gmd.bce_with_logits(lf, Matrix::full(bsz, 1, 0.0));
                let loss = gmd.weighted_sum(vec![(loss_r, 0.5), (loss_f, 0.5)]);
                gmd.backward(loss, &mut self.md_store);
                self.md_store.scrub_non_finite_grads();
                self.md_store.clip_grad_norm(5.0);
                opt_md.step(&mut self.md_store);
            }
        }
    }

    /// Generate series for a trajectory context, window by window.
    /// Original mode draws metadata from the metadata generator; real-
    /// context mode computes it from the trajectory's own context.
    pub fn generate(&mut self, ctx: &RunContext, kpis: &[Kpi], seed: u64) -> Vec<Vec<f64>> {
        assert_eq!(kpis.len(), self.cfg.n_ch, "KPI/channel mismatch");
        let l = self.cfg.window.len;
        let n_windows = ctx.len() / l;
        let mut rng = Rng::seed_from(seed);
        let mut out = vec![Vec::new(); self.cfg.n_ch];
        for wi in 0..n_windows {
            let meta_vec = match self.cfg.mode {
                DgMode::RealContext => ctx_metadata(ctx, wi * l, l),
                DgMode::Original => {
                    let mut g = Graph::new();
                    let mut zm = Matrix::zeros(1, META_NOISE);
                    for v in zm.data.iter_mut() {
                        *v = rng.normal() as f32;
                    }
                    let z = g.input(zm);
                    let node = self.meta_gen.forward(&mut g, &self.m_store, z);
                    g.value(node).data.clone()
                }
            };
            let meta = Matrix::from_vec(1, META_DIM, meta_vec);
            let mut g = Graph::new();
            let outs = self.ts_forward(&mut g, &meta, l, &mut rng);
            for &o in &outs {
                let v = g.value(o);
                for (ch, &k) in kpis.iter().enumerate() {
                    out[ch].push(k.denormalize(v.data[ch]));
                }
            }
        }
        out
    }
}

/// Forward an MLP with frozen parameters (gradient flows to the input).
fn forward_mlp_frozen(mlp: &Mlp, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
    let mut cur = x;
    for (i, layer) in mlp.layers.iter().enumerate() {
        cur = layer.forward_mode(g, store, cur, true);
        if i + 1 < mlp.layers.len() {
            cur = g.leaky_relu(cur, mlp.slope);
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::context::{extract, ContextCfg};
    use gendt_data::windows::windows as make_windows;

    fn tiny_cfg(mode: DgMode) -> DgCfg {
        let mut c = DgCfg::fast(mode, 4, 3);
        c.hidden = 8;
        c.window = WindowCfg {
            len: 10,
            stride: 10,
            max_cells: 3,
            ar_context: 4,
        };
        c.steps = 5;
        c.batch_size = 4;
        c
    }

    fn pool_and_ctx(cfg: &DgCfg) -> (Vec<Window>, RunContext) {
        let ds = dataset_a(&BuildCfg::quick(71));
        let run = &ds.runs[0];
        let ctx = extract(
            &ds.world,
            &ds.deployment,
            &run.traj,
            &ContextCfg {
                max_cells: 3,
                ..ContextCfg::default()
            },
        );
        (make_windows(run, &ctx, &Kpi::DATASET_A, &cfg.window), ctx)
    }

    #[test]
    fn real_context_dg_trains_and_generates() {
        let cfg = tiny_cfg(DgMode::RealContext);
        let (pool, ctx) = pool_and_ctx(&cfg);
        let mut dg = DoppelGanger::new(cfg);
        dg.train(&pool);
        let out = dg.generate(&ctx, &Kpi::DATASET_A, 5);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].len(), (ctx.len() / 10) * 10);
        assert!(out[0].iter().all(|v| v.is_finite()));
    }

    #[test]
    fn original_dg_trains_metadata_generator() {
        let cfg = tiny_cfg(DgMode::Original);
        let (pool, ctx) = pool_and_ctx(&cfg);
        let mut dg = DoppelGanger::new(cfg);
        dg.train(&pool);
        let out = dg.generate(&ctx, &Kpi::DATASET_A, 5);
        assert!(!out[0].is_empty());
        assert!(out[0].iter().all(|v| (-140.0..=-44.0).contains(v)));
    }

    #[test]
    fn metadata_vector_shape_and_env_mean() {
        let cfg = tiny_cfg(DgMode::RealContext);
        let (pool, _) = pool_and_ctx(&cfg);
        let meta = window_metadata(&pool[0]);
        assert_eq!(meta.len(), META_DIM);
        // First 12 entries are mean land-use fractions; sum near 1.
        let lu: f32 = meta[..12].iter().sum();
        assert!((lu - 1.0).abs() < 0.05, "land-use mean sum {lu}");
    }

    #[test]
    fn modes_generate_different_series() {
        let cfg_r = tiny_cfg(DgMode::RealContext);
        let (pool, ctx) = pool_and_ctx(&cfg_r);
        let mut dg_r = DoppelGanger::new(cfg_r);
        dg_r.train(&pool);
        let mut dg_o = DoppelGanger::new(tiny_cfg(DgMode::Original));
        dg_o.train(&pool);
        let a = dg_r.generate(&ctx, &Kpi::DATASET_A, 9);
        let b = dg_o.generate(&ctx, &Kpi::DATASET_A, 9);
        assert_ne!(a[0], b[0]);
    }
}
