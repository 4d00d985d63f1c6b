//! # gendt-nn — minimal neural-network substrate for GenDT
//!
//! A from-scratch, pure-Rust deep-learning substrate: dense matrices,
//! reverse-mode automatic differentiation, LSTM / fully-connected layers,
//! the SRNN stochastic layer from the GenDT paper, dropout, Adam, and the
//! GAN / Gaussian losses the GenDT training scheme needs.
//!
//! Design goals follow the networking guides this repo was built against:
//! simplicity and robustness over cleverness — no `unsafe`, no macro or
//! type tricks, a deliberately small op set, and deterministic seeding
//! everywhere so experiments are reproducible.
//!
//! ## Architecture
//!
//! * [`matrix::Matrix`] — dense row-major `f32` matrices; rows carry the
//!   mini-batch, columns carry features, time is unrolled by layers.
//! * [`graph::Graph`] — a single-use autodiff tape. One training step =
//!   one graph; parameters persist in a [`params::ParamStore`].
//! * [`layers`] — `Linear`, `Lstm` (with SRNN stochastic layers), `Mlp`,
//!   and inverted dropout.
//! * [`params`] — parameter store, gradient clipping/scrubbing, Adam, SGD.
//! * [`threads`] — `GENDT_THREADS` worker-count plumbing and the
//!   deterministic parallel-partitioning helper used by the blocked
//!   matrix kernels (the kernels themselves are internal to the crate;
//!   `Matrix::matmul*` is the public surface).
//! * [`checkpoint`] — JSON save/restore by parameter name.
//! * [`sanitize`] — opt-in `GENDT_SANITIZE=1` mode: every forward value
//!   and backward gradient is checked for NaN/Inf at op granularity.
//! * [`rng::Rng`] — a fixed-algorithm deterministic RNG.
//!
//! ## Example
//!
//! ```
//! use gendt_nn::{graph::Graph, layers::Mlp, matrix::Matrix,
//!                params::{Adam, ParamStore}, rng::Rng};
//!
//! let mut rng = Rng::seed_from(42);
//! let mut store = ParamStore::new();
//! let mlp = Mlp::new(&mut store, "demo", &[1, 8, 1], &mut rng);
//! let mut opt = Adam::new(0.02);
//! // Fit y = 3x on a few steps.
//! for _ in 0..200 {
//!     store.zero_grad();
//!     let mut g = Graph::new();
//!     let x = g.input(Matrix::from_vec(4, 1, vec![-1.0, -0.5, 0.5, 1.0]));
//!     let pred = mlp.forward(&mut g, &store, x);
//!     let target = g.input(Matrix::from_vec(4, 1, vec![-3.0, -1.5, 1.5, 3.0]));
//!     let loss = g.mse_loss(pred, target);
//!     g.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod graph;
mod kernels;
pub mod layers;
pub mod matrix;
pub mod params;
pub mod plan;
pub mod sanitize;
pub mod threads;
/// Deterministic RNG (re-exported from `gendt-rng`).
pub mod rng {
    pub use gendt_rng::*;
}

pub use graph::{Graph, NodeId, Op};
pub use layers::{
    dropout, Linear, Lstm, LstmNodeState, LstmState, LstmWeights, Mlp, StochasticCfg,
};
pub use matrix::Matrix;
pub use params::{Adam, ParamId, ParamStore, Sgd};
pub use plan::{fold_dims, LiveRange, Plan, PlanCache, PlanKey};
pub use rng::Rng;
pub use sanitize::{sanitize_enabled, set_sanitize};
pub use threads::{num_threads, set_num_threads};
