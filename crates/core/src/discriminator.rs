//! The GenDT discriminator (paper §4.3.5): a single-layer LSTM density-
//! ratio estimator over `(x_t, h_avg_t)` pairs, with a linear head on the
//! final hidden state producing one real/fake logit per window.

use crate::cfg::GenDtCfg;
use gendt_nn::{Graph, Linear, Lstm, LstmNodeState, Matrix, NodeId, ParamStore, Rng};

/// The discriminator's trainable components.
pub struct Discriminator {
    /// Parameter store holding the discriminator weights.
    pub store: ParamStore,
    lstm: Lstm,
    head: Linear,
    hidden: usize,
}

impl Discriminator {
    /// Initialize for a given model configuration.
    pub fn new(cfg: &GenDtCfg, rng: &mut Rng) -> Self {
        let mut store = ParamStore::new();
        let in_dim = cfg.n_ch + cfg.hidden;
        let lstm = Lstm::new(&mut store, "disc", in_dim, cfg.disc_hidden, rng);
        let head = Linear::new(&mut store, "disc_head", cfg.disc_hidden, 1, rng);
        Discriminator {
            store,
            lstm,
            head,
            hidden: cfg.disc_hidden,
        }
    }

    /// Forward a window of per-step inputs.
    ///
    /// * `xs` — `[L]` nodes of `B x n_ch` (real or generated KPI values).
    /// * `ctx` — `[L]` nodes of `B x H` (the graph-level context `h_avg`).
    /// * `frozen` — when true, the discriminator weights enter the graph
    ///   as constants: gradients flow through to `xs`/`ctx` (the
    ///   generator-update graph) but never into the discriminator store.
    ///
    /// Returns the `B x 1` logit.
    pub fn forward(&self, g: &mut Graph, xs: &[NodeId], ctx: &[NodeId], frozen: bool) -> NodeId {
        assert_eq!(xs.len(), ctx.len(), "x/context length mismatch");
        assert!(!xs.is_empty(), "empty discriminator input");
        let b = g.value(xs[0]).rows;
        let mut st = LstmNodeState {
            h: g.input(Matrix::zeros(b, self.hidden)),
            c: g.input(Matrix::zeros(b, self.hidden)),
        };
        let w = self.lstm.weights(g, &self.store, frozen);
        for (&x, &c) in xs.iter().zip(ctx.iter()) {
            let inp = g.concat_cols(x, c);
            st = self.lstm.step_with(g, w, inp, st);
        }
        self.head.forward_mode(g, &self.store, st.h, frozen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::GenDtCfg;

    fn tiny() -> GenDtCfg {
        let mut c = GenDtCfg::fast(2, 1);
        c.hidden = 6;
        c.disc_hidden = 4;
        c
    }

    #[test]
    fn logit_shape() {
        let cfg = tiny();
        let mut rng = Rng::seed_from(1);
        let d = Discriminator::new(&cfg, &mut rng);
        let mut g = Graph::new();
        let xs: Vec<NodeId> = (0..5).map(|_| g.input(Matrix::full(3, 2, 0.1))).collect();
        let cs: Vec<NodeId> = (0..5).map(|_| g.input(Matrix::full(3, 6, 0.2))).collect();
        let logit = d.forward(&mut g, &xs, &cs, false);
        assert_eq!(g.value(logit).shape(), (3, 1));
        assert!(!g.value(logit).has_non_finite());
    }

    #[test]
    fn discriminator_learns_to_separate() {
        // Real = constant 0.8 series, fake = constant -0.8 series; after a
        // few steps D should assign them different logits.
        let cfg = tiny();
        let mut rng = Rng::seed_from(2);
        let d = Discriminator::new(&cfg, &mut rng);
        let mut store = d.store.clone();
        let mut opt = gendt_nn::Adam::new(0.02);
        let ctx_val = Matrix::zeros(4, 6);
        for _ in 0..100 {
            store.zero_grad();
            let mut g = Graph::new();
            let d2 = Discriminator {
                store: store.clone(),
                ..rebuild(&cfg)
            };
            let real: Vec<NodeId> = (0..6).map(|_| g.input(Matrix::full(4, 2, 0.8))).collect();
            let fake: Vec<NodeId> = (0..6).map(|_| g.input(Matrix::full(4, 2, -0.8))).collect();
            let cs: Vec<NodeId> = (0..6).map(|_| g.input(ctx_val.clone())).collect();
            let lr = d2.forward(&mut g, &real, &cs, false);
            let lf = d2.forward(&mut g, &fake, &cs, false);
            let loss_r = g.bce_with_logits(lr, Matrix::full(4, 1, 1.0));
            let loss_f = g.bce_with_logits(lf, Matrix::full(4, 1, 0.0));
            let loss = g.weighted_sum(vec![(loss_r, 0.5), (loss_f, 0.5)]);
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        // Evaluate.
        let d2 = Discriminator {
            store: store.clone(),
            ..rebuild(&cfg)
        };
        let mut g = Graph::new();
        let real: Vec<NodeId> = (0..6).map(|_| g.input(Matrix::full(4, 2, 0.8))).collect();
        let fake: Vec<NodeId> = (0..6).map(|_| g.input(Matrix::full(4, 2, -0.8))).collect();
        let cs: Vec<NodeId> = (0..6).map(|_| g.input(ctx_val.clone())).collect();
        let lr_node = d2.forward(&mut g, &real, &cs, false);
        let lf_node = d2.forward(&mut g, &fake, &cs, false);
        let lr = g.value(lr_node).data[0];
        let lf = g.value(lf_node).data[0];
        assert!(lr > lf + 1.0, "real logit {lr} should exceed fake {lf}");
    }

    #[test]
    fn frozen_weights_enter_once_with_unchanged_values_and_gradients() {
        // The frozen forward leafs each weight once per forward. Leafing
        // the LSTM weights again at every step, as the discriminator once
        // did, must give the same logit and input gradients, bit for bit.
        let cfg = tiny();
        let d = Discriminator::new(&cfg, &mut Rng::seed_from(3));
        let run = |per_step: bool| {
            let mut g = Graph::new();
            let mut rng = Rng::seed_from(4);
            let mut leaf = |g: &mut Graph, cols| {
                let data = (0..3 * cols).map(|_| rng.normal() as f32).collect();
                g.input_with_grad(Matrix::from_vec(3, cols, data))
            };
            let xs: Vec<NodeId> = (0..5).map(|_| leaf(&mut g, 2)).collect();
            let cs: Vec<NodeId> = (0..5).map(|_| leaf(&mut g, 6)).collect();
            let logit = if per_step {
                let mut st = LstmNodeState {
                    h: g.input(Matrix::zeros(3, d.hidden)),
                    c: g.input(Matrix::zeros(3, d.hidden)),
                };
                for (&x, &c) in xs.iter().zip(cs.iter()) {
                    let inp = g.concat_cols(x, c);
                    let w = d.lstm.weights(&mut g, &d.store, true);
                    st = d.lstm.step_with(&mut g, w, inp, st);
                }
                d.head.forward_mode(&mut g, &d.store, st.h, true)
            } else {
                d.forward(&mut g, &xs, &cs, true)
            };
            let loss = g.bce_with_logits(logit, Matrix::full(3, 1, 1.0));
            g.backward(loss, &mut ParamStore::new());
            let mut bits: Vec<u32> = g.value(logit).data.iter().map(|v| v.to_bits()).collect();
            for &n in xs.iter().chain(cs.iter()) {
                bits.extend(
                    g.grad(n)
                        .expect("input gradient")
                        .data
                        .iter()
                        .map(|v| v.to_bits()),
                );
            }
            (g.len(), bits)
        };
        let (once_nodes, once) = run(false);
        let (per_step_nodes, per_step) = run(true);
        assert_eq!(once, per_step);
        assert_eq!(
            per_step_nodes - once_nodes,
            3 * 4,
            "three leaves per extra step"
        );
    }

    /// Rebuild a discriminator skeleton with the same layer structure (the
    /// stores are swapped in by the caller). Parameter ids are positional,
    /// so a same-shape rebuild aligns with a cloned store.
    fn rebuild(cfg: &GenDtCfg) -> Discriminator {
        let mut rng = Rng::seed_from(2);
        Discriminator::new(cfg, &mut rng)
    }
}
