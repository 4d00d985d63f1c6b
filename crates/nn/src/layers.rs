//! Neural-network layers built on the autograd [`Graph`].
//!
//! Layers own [`ParamId`]s inside a shared [`ParamStore`] and expose a
//! `forward` that records ops onto a caller-supplied graph. This keeps one
//! training step = one graph, with parameters persisting across steps.

use crate::graph::{Graph, NodeId};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::rng::Rng;
use serde::{Deserialize, Serialize};

/// Fully-connected layer `y = x W + b`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight `in_dim x out_dim`.
    pub w: ParamId,
    /// Bias `1 x out_dim`.
    pub b: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Output feature dimension.
    pub out_dim: usize,
}

impl Linear {
    /// Register a new layer's parameters in `store`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        let w = store.add_xavier(&format!("{name}.w"), in_dim, out_dim, rng);
        let b = store.add_zeros(&format!("{name}.b"), 1, out_dim);
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Record `x W + b` on `g`. `x` is `batch x in_dim`.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        self.forward_mode(g, store, x, false)
    }

    /// Like [`Linear::forward`], but with `frozen = true` the weights enter
    /// as constants (no gradient to the parameters; gradients still flow
    /// through to `x`).
    pub fn forward_mode(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        frozen: bool,
    ) -> NodeId {
        let (w, b) = if frozen {
            (g.param_frozen(store, self.w), g.param_frozen(store, self.b))
        } else {
            (g.param(store, self.w), g.param(store, self.b))
        };
        let xw = g.matmul(x, w);
        g.add_row(xw, b)
    }
}

/// State carried by an LSTM across time steps (and across generation
/// batches, for long-series coherence).
#[derive(Clone, Debug)]
pub struct LstmState {
    /// Hidden state `batch x hidden`.
    pub h: Matrix,
    /// Cell memory `batch x hidden`.
    pub c: Matrix,
}

impl LstmState {
    /// Zero state for the given batch size and hidden dimension.
    pub fn zeros(batch: usize, hidden: usize) -> Self {
        LstmState {
            h: Matrix::zeros(batch, hidden),
            c: Matrix::zeros(batch, hidden),
        }
    }
}

/// LSTM state expressed as graph nodes (used while unrolling).
#[derive(Clone, Copy, Debug)]
pub struct LstmNodeState {
    /// Hidden-state node.
    pub h: NodeId,
    /// Cell-memory node.
    pub c: NodeId,
}

/// An [`Lstm`]'s weights as graph nodes (see [`Lstm::weights`]).
#[derive(Clone, Copy, Debug)]
pub struct LstmWeights {
    /// Input-to-gates weight node.
    pub w_ih: NodeId,
    /// Hidden-to-gates weight node.
    pub w_hh: NodeId,
    /// Gate-bias node.
    pub b: NodeId,
}

/// Configuration of the SRNN stochastic layer (paper §4.3.4, appendix A.2):
/// uniform noise added to the LSTM hidden state and memory each step, then
/// renormalized so the per-row total stays unchanged.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StochasticCfg {
    /// Noise intensity on the hidden state (`a_h`, paper default 2).
    pub a_h: f32,
    /// Noise intensity on the memory (`a_c`, paper default 2).
    pub a_c: f32,
}

impl StochasticCfg {
    /// Paper default `a_h = a_c = 2`.
    pub fn paper_default() -> Self {
        StochasticCfg { a_h: 2.0, a_c: 2.0 }
    }
}

/// A single-layer LSTM with optional SRNN stochastic layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Lstm {
    /// Input-to-gates weight `in_dim x 4*hidden`, gate order `[i, f, g, o]`.
    pub w_ih: ParamId,
    /// Hidden-to-gates weight `hidden x 4*hidden`.
    pub w_hh: ParamId,
    /// Gate bias `1 x 4*hidden` (forget-gate slice initialized to 1).
    pub b: ParamId,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden dimension.
    pub hidden: usize,
}

impl Lstm {
    /// Register a new LSTM's parameters. The forget-gate bias is set to 1,
    /// the standard trick for gradient flow on long sequences.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut Rng,
    ) -> Self {
        let w_ih = store.add_xavier(&format!("{name}.w_ih"), in_dim, 4 * hidden, rng);
        let w_hh = store.add_xavier(&format!("{name}.w_hh"), hidden, 4 * hidden, rng);
        let mut bias = Matrix::zeros(1, 4 * hidden);
        for c in hidden..2 * hidden {
            bias.data[c] = 1.0;
        }
        let b = store.add(&format!("{name}.b"), bias);
        Lstm {
            w_ih,
            w_hh,
            b,
            in_dim,
            hidden,
        }
    }

    /// One LSTM step: consumes `x_t` (`batch x in_dim`) and the previous
    /// state, returns the next state.
    pub fn step(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        state: LstmNodeState,
    ) -> LstmNodeState {
        let w = self.weights(g, store, false);
        self.step_with(g, w, x, state)
    }

    /// Leaf the weights into `g`, once per unroll: every step of the
    /// unroll then takes the same nodes through [`Lstm::step_with`]. With
    /// `frozen = true` they enter as constants (gradients still flow
    /// through to the inputs and the state, never into `store`).
    pub fn weights(&self, g: &mut Graph, store: &ParamStore, frozen: bool) -> LstmWeights {
        let leaf = |g: &mut Graph, id| {
            if frozen {
                g.param_frozen(store, id)
            } else {
                g.param(store, id)
            }
        };
        LstmWeights {
            w_ih: leaf(g, self.w_ih),
            w_hh: leaf(g, self.w_hh),
            b: leaf(g, self.b),
        }
    }

    /// One LSTM step on weights from [`Lstm::weights`].
    pub fn step_with(
        &self,
        g: &mut Graph,
        w: LstmWeights,
        x: NodeId,
        state: LstmNodeState,
    ) -> LstmNodeState {
        let xi = g.matmul(x, w.w_ih);
        let hh = g.matmul(state.h, w.w_hh);
        let h = self.hidden;
        let gates = g.add_add_row(xi, hh, w.b);
        let hc = g.lstm_cell(gates, state.c, h);
        let h_new = g.slice_cols(hc, 0, h);
        let c_new = g.slice_cols(hc, h, 2 * h);
        LstmNodeState { h: h_new, c: c_new }
    }

    /// Apply the SRNN stochastic layer to a state: `h' = (h + a*n) *
    /// sum(h)/sum(h + a*n)` per row, and likewise for `c` (appendix A.2).
    ///
    /// The noise `n` is uniform in `[0, mean(|h_t|)]`, adapting to the
    /// hidden-state magnitude; it enters the graph as a constant so the
    /// renormalization is differentiable with respect to the state.
    pub fn stochastic(
        &self,
        g: &mut Graph,
        cfg: StochasticCfg,
        state: LstmNodeState,
        rng: &mut Rng,
    ) -> LstmNodeState {
        let h = Self::noisy_renorm(g, state.h, cfg.a_h, rng);
        let c = Self::noisy_renorm(g, state.c, cfg.a_c, rng);
        LstmNodeState { h, c }
    }

    /// [`Lstm::stochastic`] with the raw uniform draws supplied by the
    /// caller instead of drawn here.
    ///
    /// `u_h` / `u_c` hold one `uniform01` draw per state element (same
    /// shape as the state); they are consumed only when the matching
    /// noise scale is non-zero, mirroring `stochastic`'s early return.
    /// The cell-packed generator forward uses this to pre-draw noise for
    /// all cell slots in the legacy per-cell order, keeping the RNG
    /// stream — and therefore every output — identical to the unpacked
    /// path.
    pub fn stochastic_with_noise(
        &self,
        g: &mut Graph,
        cfg: StochasticCfg,
        state: LstmNodeState,
        u_h: &Matrix,
        u_c: &Matrix,
    ) -> LstmNodeState {
        let h = Self::noisy_renorm_with(g, state.h, cfg.a_h, u_h);
        let c = Self::noisy_renorm_with(g, state.c, cfg.a_c, u_c);
        LstmNodeState { h, c }
    }

    fn noisy_renorm(g: &mut Graph, x: NodeId, a: f32, rng: &mut Rng) -> NodeId {
        if a == 0.0 {
            return x;
        }
        let (rows, cols) = g.value(x).shape();
        let mut u = Matrix::zeros(rows, cols);
        for v in u.data.iter_mut() {
            *v = rng.uniform01() as f32;
        }
        Self::noisy_renorm_with(g, x, a, &u)
    }

    fn noisy_renorm_with(g: &mut Graph, x: NodeId, a: f32, u: &Matrix) -> NodeId {
        if a == 0.0 {
            return x;
        }
        g.noisy_renorm(x, a, u)
    }
}

/// Multi-layer perceptron with LeakyReLU activations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Mlp {
    /// The stacked linear layers.
    pub layers: Vec<Linear>,
    /// LeakyReLU negative slope applied between layers (not after the last).
    pub slope: f32,
}

impl Mlp {
    /// Build an MLP with the given layer sizes, e.g. `[in, h1, h2, out]`.
    pub fn new(store: &mut ParamStore, name: &str, sizes: &[usize], rng: &mut Rng) -> Self {
        assert!(
            sizes.len() >= 2,
            "MLP needs at least input and output sizes"
        );
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.fc{i}"), w[0], w[1], rng))
            .collect();
        Mlp { layers, slope: 0.2 }
    }

    /// Forward pass; activation between layers, linear output.
    pub fn forward(&self, g: &mut Graph, store: &ParamStore, x: NodeId) -> NodeId {
        let mut cur = x;
        for (i, layer) in self.layers.iter().enumerate() {
            cur = layer.forward(g, store, cur);
            if i + 1 < self.layers.len() {
                cur = g.leaky_relu(cur, self.slope);
            }
        }
        cur
    }

    /// Forward pass with inverted dropout (keep-prob `1 - p`) before the
    /// final layer, as in the paper's ResGen. Pass `train = false` to
    /// disable the mask (deterministic inference) or `true` to sample it —
    /// MC-dropout uncertainty estimation keeps it on at generation time.
    pub fn forward_dropout(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        p: f32,
        train: bool,
        rng: &mut Rng,
    ) -> NodeId {
        let mut cur = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let last = i + 1 == self.layers.len();
            if last && train && p > 0.0 {
                cur = dropout(g, cur, p, rng);
            }
            cur = layer.forward(g, store, cur);
            if !last {
                cur = g.leaky_relu(cur, self.slope);
            }
        }
        cur
    }
}

/// Inverted dropout: zero each element with probability `p` and scale the
/// survivors by `1/(1-p)` so the expectation is unchanged.
pub fn dropout(g: &mut Graph, x: NodeId, p: f32, rng: &mut Rng) -> NodeId {
    assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
    if p == 0.0 {
        return x;
    }
    let shape = g.value(x).shape();
    let keep = 1.0 - p;
    let mut mask = Matrix::zeros(shape.0, shape.1);
    for m in mask.data.iter_mut() {
        *m = if rng.bernoulli(keep as f64) {
            1.0 / keep
        } else {
            0.0
        };
    }
    let m = g.input(mask);
    g.mul(x, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Adam;

    #[test]
    fn linear_forward_shape() {
        let mut rng = Rng::seed_from(1);
        let mut store = ParamStore::new();
        let lin = Linear::new(&mut store, "l", 3, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.input(Matrix::zeros(4, 3));
        let y = lin.forward(&mut g, &store, x);
        assert_eq!(g.value(y).shape(), (4, 5));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = Rng::seed_from(2);
        let mut store = ParamStore::new();
        let mlp = Mlp::new(&mut store, "m", &[2, 8, 1], &mut rng);
        let mut opt = Adam::new(0.05);
        let xs = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let ys = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        let mut final_loss = f32::MAX;
        for _ in 0..800 {
            store.zero_grad();
            let mut g = Graph::new();
            let x = g.input(xs.clone());
            let logits = mlp.forward(&mut g, &store, x);
            let pred = g.sigmoid(logits);
            let t = g.input(ys.clone());
            let loss = g.mse_loss(pred, t);
            final_loss = g.value(loss).data[0];
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!(final_loss < 0.02, "XOR loss {final_loss}");
    }

    #[test]
    fn lstm_step_shapes_and_state_flow() {
        let mut rng = Rng::seed_from(3);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 4, 6, &mut rng);
        let mut g = Graph::new();
        let s0 = LstmState::zeros(2, 6);
        let h0 = g.input(s0.h);
        let c0 = g.input(s0.c);
        let mut st = LstmNodeState { h: h0, c: c0 };
        for _ in 0..3 {
            let x = g.input(Matrix::full(2, 4, 0.5));
            st = lstm.step(&mut g, &store, x, st);
        }
        assert_eq!(g.value(st.h).shape(), (2, 6));
        assert_eq!(g.value(st.c).shape(), (2, 6));
        // Hidden state should have moved away from zero.
        assert!(g.value(st.h).norm_sq() > 0.0);
    }

    #[test]
    fn lstm_learns_to_sum_sequence() {
        // Task: after seeing a sequence of scalars, output their sum / 4.
        let mut rng = Rng::seed_from(4);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 1, 8, &mut rng);
        let head = Linear::new(&mut store, "head", 8, 1, &mut rng);
        let mut opt = Adam::new(0.02);
        let mut final_loss = f32::MAX;
        for _ in 0..400 {
            let batch = 8;
            let tlen = 4;
            let mut seqs = vec![vec![0f32; tlen]; batch];
            let mut targets = vec![0f32; batch];
            for bi in 0..batch {
                for s in seqs[bi].iter_mut() {
                    let v = rng.uniform(-1.0, 1.0) as f32;
                    *s = v;
                    targets[bi] += v / 4.0;
                }
            }
            store.zero_grad();
            let mut g = Graph::new();
            let h0 = g.input(Matrix::zeros(batch, 8));
            let c0 = g.input(Matrix::zeros(batch, 8));
            let mut st = LstmNodeState { h: h0, c: c0 };
            for t in 0..tlen {
                let xt: Vec<f32> = seqs.iter().map(|s| s[t]).collect();
                let x = g.input(Matrix::from_vec(batch, 1, xt));
                st = lstm.step(&mut g, &store, x, st);
            }
            let pred = head.forward(&mut g, &store, st.h);
            let t = g.input(Matrix::from_vec(batch, 1, targets));
            let loss = g.mse_loss(pred, t);
            final_loss = g.value(loss).data[0];
            g.backward(loss, &mut store);
            store.clip_grad_norm(5.0);
            opt.step(&mut store);
        }
        assert!(final_loss < 0.02, "sequence-sum loss {final_loss}");
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = Rng::seed_from(5);
        let mut g = Graph::new();
        let x = g.input(Matrix::full(1, 1000, 1.0));
        let y = dropout(&mut g, x, 0.5, &mut rng);
        let vals = &g.value(y).data;
        // Survivors are exactly 2.0, dropped are 0.0; mean near 1.
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        let mean: f32 = vals.iter().sum::<f32>() / 1000.0;
        assert!((mean - 1.0).abs() < 0.15, "dropout mean {mean}");
    }

    #[test]
    fn stochastic_layer_preserves_row_mass_approximately() {
        let mut rng = Rng::seed_from(6);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 16, &mut rng);
        let mut g = Graph::new();
        let h = g.input(Matrix::full(3, 16, 0.5));
        let c = g.input(Matrix::full(3, 16, -0.25));
        let st = LstmNodeState { h, c };
        let noisy = lstm.stochastic(&mut g, StochasticCfg::paper_default(), st, &mut rng);
        // Row sums should be (approximately) preserved by the renorm.
        let hv = g.value(noisy.h);
        for r in 0..3 {
            let s: f32 = hv.row_slice(r).iter().sum();
            assert!((s - 8.0).abs() < 0.05, "row {r} mass {s}");
        }
        // But the values themselves must have changed (noise was injected).
        assert!(hv.data.iter().any(|&v| (v - 0.5).abs() > 1e-4));
    }

    #[test]
    fn stochastic_zero_intensity_is_identity() {
        let mut rng = Rng::seed_from(7);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "l", 2, 4, &mut rng);
        let mut g = Graph::new();
        let h = g.input(Matrix::full(1, 4, 0.3));
        let c = g.input(Matrix::full(1, 4, 0.1));
        let st = LstmNodeState { h, c };
        let out = lstm.stochastic(&mut g, StochasticCfg { a_h: 0.0, a_c: 0.0 }, st, &mut rng);
        assert_eq!(out.h, st.h);
        assert_eq!(out.c, st.c);
    }
}
