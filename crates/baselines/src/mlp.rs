//! Per-step MLP regression baseline (paper §5.2).
//!
//! Infers each KPI independently at each time step from the step's context
//! (environment attributes plus a fixed-size summary of the nearest
//! cells). No temporal model, no stochasticity — exactly the baseline's
//! documented weaknesses (poor HWD, intermediate MAE/DTW).

use gendt_data::context::{RunContext, CELL_FEATS};
use gendt_data::kpi_types::Kpi;
use gendt_geo::landuse::ENV_ATTRS;
use gendt_nn::{Adam, Graph, Matrix, Mlp, ParamStore, Rng};

/// Number of nearest cells summarized in the feature vector.
const K_CELLS: usize = 3;

/// Feature dimension: environment + K nearest cells + visible count.
pub const MLP_FEATS: usize = ENV_ATTRS + K_CELLS * CELL_FEATS + 1;

/// The trained regression baseline.
pub struct MlpBaseline {
    kpis: Vec<Kpi>,
    store: ParamStore,
    net: Mlp,
    /// Training configuration: epochs over the pooled steps.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch: usize,
    rng: Rng,
}

/// Flatten step `i` of a context into the MLP feature vector.
pub fn step_features(ctx: &RunContext, i: usize) -> Vec<f32> {
    let cells = ctx.cells(i);
    let mut f = Vec::with_capacity(MLP_FEATS);
    f.extend_from_slice(ctx.env(i));
    for k in 0..K_CELLS {
        match cells.get(k) {
            Some((_, feats)) => f.extend_from_slice(&feats),
            None => f.extend_from_slice(&[0.0, 0.0, 0.0, 0.0, 1.0]),
        }
    }
    f.push((cells.len() as f32 / 10.0).min(2.0));
    f
}

impl MlpBaseline {
    /// Initialize with a `[features, 64, 64, n_kpis]` network.
    pub fn new(kpis: &[Kpi], hidden: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        let net = Mlp::new(
            &mut store,
            "mlp",
            &[MLP_FEATS, hidden, hidden, kpis.len()],
            &mut rng,
        );
        MlpBaseline {
            kpis: kpis.to_vec(),
            store,
            net,
            epochs: 30,
            batch: 64,
            rng,
        }
    }

    /// Fit on pooled `(step context, physical KPI values)` pairs from the
    /// training runs.
    pub fn fit(&mut self, contexts: &[&RunContext], targets: &[Vec<Vec<f64>>]) {
        assert_eq!(
            contexts.len(),
            targets.len(),
            "context/target run count mismatch"
        );
        // Pool all steps.
        let mut xs: Vec<Vec<f32>> = Vec::new();
        let mut ys: Vec<Vec<f32>> = Vec::new();
        for (ctx, t) in contexts.iter().zip(targets.iter()) {
            assert_eq!(t.len(), self.kpis.len(), "target channel count mismatch");
            let n = ctx.len();
            for i in 0..n {
                if t.iter().any(|ch| ch.len() != n) {
                    continue;
                }
                xs.push(step_features(ctx, i));
                ys.push(
                    self.kpis
                        .iter()
                        .enumerate()
                        .map(|(ch, &k)| k.normalize(t[ch][i]))
                        .collect(),
                );
            }
        }
        if xs.is_empty() {
            return;
        }
        let mut opt = Adam::new(2e-3);
        let steps = self.epochs * xs.len().div_ceil(self.batch);
        for _ in 0..steps {
            let bsz = self.batch.min(xs.len());
            let mut xm = Matrix::zeros(bsz, MLP_FEATS);
            let mut ym = Matrix::zeros(bsz, self.kpis.len());
            for bi in 0..bsz {
                let idx = self.rng.gen_range(xs.len());
                xm.data[bi * MLP_FEATS..(bi + 1) * MLP_FEATS].copy_from_slice(&xs[idx]);
                ym.data[bi * self.kpis.len()..(bi + 1) * self.kpis.len()].copy_from_slice(&ys[idx]);
            }
            self.store.zero_grad();
            let mut g = Graph::new();
            let x = g.input(xm);
            let pred = self.net.forward(&mut g, &self.store, x);
            let target = g.input(ym);
            let loss = g.mse_loss(pred, target);
            g.backward(loss, &mut self.store);
            self.store.clip_grad_norm(5.0);
            opt.step(&mut self.store);
        }
    }

    /// Predict (deterministically) the KPI series for a trajectory
    /// context, in physical units: `[n_kpis][T]`.
    pub fn generate(&self, ctx: &RunContext) -> Vec<Vec<f64>> {
        let n = ctx.len();
        let mut out = vec![Vec::with_capacity(n); self.kpis.len()];
        for i in 0..n {
            let f = step_features(ctx, i);
            let mut g = Graph::new();
            let x = g.input(Matrix::from_vec(1, MLP_FEATS, f));
            let pred = self.net.forward(&mut g, &self.store, x);
            let v = g.value(pred);
            for (ch, &k) in self.kpis.iter().enumerate() {
                out[ch].push(k.denormalize(v.data[ch]));
            }
        }
        out
    }

    /// KPI channels in order.
    pub fn kpis(&self) -> &[Kpi] {
        &self.kpis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::context::{extract, ContextCfg};

    #[test]
    fn mlp_fits_context_dependent_signal() {
        let ds = dataset_a(&BuildCfg::quick(61));
        let ctx_cfg = ContextCfg::default();
        let ctxs: Vec<RunContext> = ds
            .runs
            .iter()
            .take(2)
            .map(|r| extract(&ds.world, &ds.deployment, &r.traj, &ctx_cfg))
            .collect();
        let ctx_refs: Vec<&RunContext> = ctxs.iter().collect();
        let targets: Vec<Vec<Vec<f64>>> = ds
            .runs
            .iter()
            .take(2)
            .map(|r| vec![r.series(Kpi::Rsrp), r.series(Kpi::Rsrq)])
            .collect();
        let mut mlp = MlpBaseline::new(&[Kpi::Rsrp, Kpi::Rsrq], 16, 3);
        mlp.epochs = 8;
        mlp.fit(&ctx_refs, &targets);
        let pred = mlp.generate(&ctxs[0]);
        assert_eq!(pred.len(), 2);
        assert_eq!(pred[0].len(), ctxs[0].len());
        // Should beat a constant-at-midrange predictor on training data.
        let real = &targets[0][0];
        let mae_pred = gendt_metrics::mae(real, &pred[0]);
        let midrange = vec![-92.0; real.len()];
        let mae_mid = gendt_metrics::mae(real, &midrange);
        assert!(
            mae_pred < mae_mid,
            "MLP MAE {mae_pred} vs midrange {mae_mid}"
        );
    }

    #[test]
    fn prediction_is_deterministic() {
        let ds = dataset_a(&BuildCfg::quick(61));
        let ctx = extract(
            &ds.world,
            &ds.deployment,
            &ds.runs[0].traj,
            &ContextCfg::default(),
        );
        let mlp = MlpBaseline::new(&[Kpi::Rsrp], 8, 5);
        assert_eq!(mlp.generate(&ctx), mlp.generate(&ctx));
    }
}
