//! Persistent parameter storage, gradient accumulation, and optimizers.
//!
//! Parameters live outside the per-step autograd graph: each training step
//! builds a fresh [`crate::graph::Graph`], leafs the parameters into it via
//! [`crate::graph::Graph::param`], and after the backward pass the gradients
//! accumulated here are consumed by an optimizer step.

use crate::checkpoint::CheckpointError;
use crate::matrix::Matrix;
use crate::rng::Rng;
use gendt_sync::atomic::{AtomicU64, Ordering};
use serde::{Deserialize, Serialize};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParamId(pub usize);

/// A named, trainable parameter matrix with its accumulated gradient.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Param {
    /// Human-readable name (used in checkpoints and diagnostics).
    pub name: String,
    /// Current value.
    pub value: Matrix,
    /// Gradient accumulated since the last [`ParamStore::zero_grad`].
    pub grad: Matrix,
}

/// The set of all trainable parameters of one model (or sub-model).
///
/// A store is not serialized itself: checkpoints hold its values by
/// parameter name (see [`crate::checkpoint`]), and its identity belongs
/// to the running process.
#[derive(Debug)]
pub struct ParamStore {
    params: Vec<Param>,
    /// Monotonic mutation counter: bumped whenever parameter *values*
    /// may have changed (registration, `value_mut`, optimizer steps) —
    /// but not by gradient traffic. A plan cache compares it to decide
    /// whether its copy of the weights needs re-synchronizing; a copy
    /// starts at a sentinel version, so any store state triggers a first
    /// sync.
    version: u64,
    /// Identity of this store object, unique in the process: a plan
    /// cache keys its weight copies by it, since two stores (a model's
    /// generator and discriminator) both number their parameters from
    /// `ParamId(0)`. A clone is a new store and draws a new identity.
    id: u64,
}

/// Next store identity.
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(0);

fn next_store_id() -> u64 {
    // sync: a unique-id counter; nothing is published through it.
    NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed)
}

impl Default for ParamStore {
    fn default() -> Self {
        ParamStore {
            params: Vec::new(),
            version: 0,
            id: next_store_id(),
        }
    }
}

impl Clone for ParamStore {
    fn clone(&self) -> Self {
        ParamStore {
            params: self.params.clone(),
            version: self.version,
            id: next_store_id(),
        }
    }
}

impl ParamStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current value-mutation version (see the field docs).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Process-unique identity of this store object (see the field docs).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Register a parameter with an explicit initial value.
    pub fn add(&mut self, name: &str, value: Matrix) -> ParamId {
        let grad = Matrix::zeros(value.rows, value.cols);
        self.version += 1;
        self.params.push(Param {
            name: name.to_string(),
            value,
            grad,
        });
        ParamId(self.params.len() - 1)
    }

    /// Register a parameter initialized with Xavier/Glorot uniform noise.
    pub fn add_xavier(&mut self, name: &str, rows: usize, cols: usize, rng: &mut Rng) -> ParamId {
        let bound = (6.0 / (rows + cols) as f64).sqrt() as f32;
        let data = (0..rows * cols)
            .map(|_| rng.uniform(-bound as f64, bound as f64) as f32)
            .collect();
        self.add(name, Matrix::from_vec(rows, cols, data))
    }

    /// Register an all-zeros parameter (typical for biases).
    pub fn add_zeros(&mut self, name: &str, rows: usize, cols: usize) -> ParamId {
        self.add(name, Matrix::zeros(rows, cols))
    }

    /// Value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].value
    }

    /// Mutable value (used by checkpoint loading and tests).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.version += 1;
        &mut self.params[id.0].value
    }

    /// Accumulated gradient of a parameter.
    pub fn grad(&self, id: ParamId) -> &Matrix {
        &self.params[id.0].grad
    }

    /// Accumulate `g` into the gradient of `id`.
    pub fn accumulate_grad(&mut self, id: ParamId, g: &Matrix) {
        self.params[id.0].grad.add_assign(g);
    }

    /// Accumulate every gradient from `other` — a clone of this store
    /// that ran its own backward pass — into this store's gradients.
    ///
    /// This is the reduction step of sharded training: worker shards
    /// backward into clones, and the trainer merges them in fixed shard
    /// order so the result is independent of execution order.
    ///
    /// # Panics
    /// Panics if the stores have different parameter layouts.
    pub fn accumulate_grads_from(&mut self, other: &ParamStore) {
        assert_eq!(
            self.params.len(),
            other.params.len(),
            "param store layout mismatch"
        );
        for (p, o) in self.params.iter_mut().zip(other.params.iter()) {
            p.grad.add_assign(&o.grad);
        }
    }

    /// Reset all gradients to zero.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.data.iter_mut().for_each(|v| *v = 0.0);
        }
    }

    /// Number of parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// True if no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.data.len()).sum()
    }

    /// Iterate over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// Clip the global gradient norm to `max_norm`; returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let total: f32 = self.params.iter().map(|p| p.grad.norm_sq()).sum();
        let norm = total.sqrt();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                p.grad.scale_assign(s);
            }
        }
        norm
    }

    /// Replace any non-finite gradient entries with zero. Returns how many
    /// entries were scrubbed; a non-zero count signals an unstable step.
    pub fn scrub_non_finite_grads(&mut self) -> usize {
        let mut n = 0;
        for p in &mut self.params {
            for g in p.grad.data.iter_mut() {
                if !g.is_finite() {
                    *g = 0.0;
                    n += 1;
                }
            }
        }
        n
    }
}

/// Adam optimizer (Kingma & Ba) with decoupled state per [`ParamStore`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with standard betas for the given learning rate.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Check restored moments against the store they will update: `m`
    /// and `v` list the same parameters, no more than `store` holds, and
    /// each moment has its parameter's element count. [`Adam::step`]
    /// zips every weight with its moments, so a short moment would
    /// silently freeze the trailing weights.
    pub fn check_state(&self, store: &ParamStore) -> Result<(), CheckpointError> {
        if self.m.len() != self.v.len() || self.m.len() > store.params.len() {
            return Err(CheckpointError::Format(format!(
                "Adam state holds {} first and {} second moments for {} parameters",
                self.m.len(),
                self.v.len(),
                store.params.len()
            )));
        }
        for ((m, v), p) in self.m.iter().zip(&self.v).zip(&store.params) {
            let n = p.value.data.len();
            if m.len() != n || v.len() != n {
                return Err(CheckpointError::Format(format!(
                    "Adam moments of parameter {:?} hold {} and {} values, expected {n}",
                    p.name,
                    m.len(),
                    v.len()
                )));
            }
        }
        Ok(())
    }

    /// Apply one update step using the gradients currently in `store`.
    pub fn step(&mut self, store: &mut ParamStore) {
        while self.m.len() < store.params.len() {
            let i = self.m.len();
            let n = store.params[i].value.data.len();
            self.m.push(vec![0.0; n]);
            self.v.push(vec![0.0; n]);
        }
        self.t += 1;
        store.version += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in store.params.iter_mut().enumerate() {
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((w, &g), (mi, vi)) in p
                .value
                .data
                .iter_mut()
                .zip(p.grad.data.iter())
                .zip(m.iter_mut().zip(v.iter_mut()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
                let mhat = *mi / b1t;
                let vhat = *vi / b2t;
                *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

/// Plain SGD, used by tests as a reference optimizer.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Apply one `w -= lr * g` step.
    pub fn step(&mut self, store: &mut ParamStore) {
        store.version += 1;
        for p in &mut store.params {
            for (w, &g) in p.value.data.iter_mut().zip(p.grad.data.iter()) {
                *w -= self.lr * g;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::from_vec(1, 2, vec![1.0, 2.0]));
        s.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![0.5, 0.5]));
        s.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![0.5, 0.5]));
        assert_eq!(s.grad(id).data, vec![1.0, 1.0]);
        s.zero_grad();
        assert_eq!(s.grad(id).data, vec![0.0, 0.0]);
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::from_vec(1, 1, vec![1.0]));
        s.accumulate_grad(id, &Matrix::from_vec(1, 1, vec![2.0]));
        Sgd::new(0.1).step(&mut s);
        assert!((s.value(id).data[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(w) = (w - 3)^2 by feeding grad = 2(w - 3).
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            s.zero_grad();
            let w = s.value(id).data[0];
            s.accumulate_grad(id, &Matrix::from_vec(1, 1, vec![2.0 * (w - 3.0)]));
            opt.step(&mut s);
        }
        assert!((s.value(id).data[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::zeros(1, 2));
        s.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![3.0, 4.0]));
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post = s.grad(id).norm_sq().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn scrub_non_finite() {
        let mut s = ParamStore::new();
        let id = s.add("w", Matrix::zeros(1, 2));
        s.accumulate_grad(id, &Matrix::from_vec(1, 2, vec![f32::NAN, 1.0]));
        assert_eq!(s.scrub_non_finite_grads(), 1);
        assert_eq!(s.grad(id).data, vec![0.0, 1.0]);
    }

    #[test]
    fn xavier_init_is_bounded() {
        let mut s = ParamStore::new();
        let mut rng = Rng::seed_from(7);
        let id = s.add_xavier("w", 10, 20, &mut rng);
        let bound = (6.0f32 / 30.0).sqrt();
        assert!(s.value(id).data.iter().all(|v| v.abs() <= bound));
    }
}
