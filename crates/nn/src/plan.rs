//! Ahead-of-time compiled execution plans with arena memory — and the
//! one executor every op runs on.
//!
//! GenDT's train-once/generate-many workload builds the same op sequence
//! over and over: it is a pure function of the (model, batch-shape) pair.
//! This module compiles one recorded tape into a [`Plan`] — a
//! topo-ordered op list with resolved shapes for forward and backward —
//! and re-executes it with **zero per-step heap allocation**:
//!
//! * **One executor.** [`Plan::eval`] and [`Plan::backward_step`] hold the
//!   only forward and backward arithmetic of every op. Recording runs on
//!   them too: a record-mode [`Graph`] is a plan under construction whose
//!   steps are all [`Kind::Plain`], each with its own value buffer and a
//!   gradient buffer allocated when a gradient first reaches it
//!   ([`Plan::record`]). The recorded backward frees each step's gradient
//!   once the step has pushed it to its inputs ([`Plan::free_grad`]), so
//!   afterwards only the leaves that take a gradient (parameters, inputs
//!   built with one) and the loss still hold theirs; [`Graph::into_plan`]
//!   frees the value buffers and compiles the recorded steps.
//! * **Liveness + arena.** A first-use/last-use interval pass assigns
//!   every value and gradient to a slot in a reusable arena. Slots are
//!   `Matrix` buffers allocated once at compile time and rebound
//!   (shape + length within the preallocated capacity) as steps
//!   execute; two live buffers never share a slot (see
//!   [`Plan::live_ranges`]).
//! * **Plan-time fusion.** Two chain patterns from the recorded tape are
//!   collapsed at compile time: the LSTM gate assembly
//!   `MatMul + MatMul + AddAddRow` becomes two in-place GEMMs plus a
//!   bias pass into one buffer ([`Kind::FusedGates`]), and an
//!   `LstmCell` whose `[h | c]` output is consumed only by its two
//!   column slices writes `h` and `c` directly into the slices' slots
//!   without materializing the concatenation ([`Kind::CellSplit`]).
//! * **Replay via the same builder.** A plan is executed by running the
//!   *same* model-building code against [`Graph::replay`]: each op
//!   constructor validates that it matches the recorded step (panicking
//!   loudly on divergence), refreshes per-step constants (inputs, noise,
//!   targets) in place, and evaluates into the arena. This keeps
//!   control-flow that depends on intermediate values (the generator's
//!   free-running feedback loop) working unchanged.
//!
//! # Determinism contract
//!
//! Replaying a plan is **bitwise identical** to recording it: the fused
//! kinds replicate the unfused arithmetic exactly, including
//! accumulation order and the `±0.0` behavior of sparse gradient
//! scatters, and arena binding never changes a number. Replay therefore
//! changes wall-clock, never numbers. What can still differ — fusion,
//! arena binding, and replay of fresh inputs — is what the parity gate in
//! `scripts/ci.sh` checks; the finite-difference gradcheck checks the one
//! backward both modes run.

use crate::graph::{Graph, NodeId, Op};
use crate::kernels;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use gendt_sync::Mutex;
use std::cell::Cell;
use std::collections::BinaryHeap;

/// Slot sentinel: this step has no value (or gradient) buffer.
const NONE: u32 = u32::MAX;

/// Release time for arena bindings that live for the whole plan.
const PINNED: usize = usize::MAX;

/// How a step executes, decided once at compile time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    /// Execute the recorded op as-is.
    Plain,
    /// A `MatMul` absorbed into a [`Kind::FusedGates`] parent: forward is
    /// a no-op (the parent computes both products), backward reads the
    /// parent's gradient directly instead of a materialized copy.
    GateMatmul {
        /// Step index of the absorbing `AddAddRow`.
        parent: u32,
    },
    /// An `AddAddRow(xi, hh, bias)` whose two addends are single-consumer
    /// `MatMul`s: evaluated as GEMM-store + GEMM-accumulate + bias pass
    /// into one buffer. Backward contributes only the bias column sum;
    /// the matmul operands take their gradients at the [`Kind::GateMatmul`]
    /// steps, reading this step's gradient in place.
    FusedGates {
        /// Step index of the first absorbed `MatMul` (`x · W_ih`).
        xi: u32,
        /// Step index of the second absorbed `MatMul` (`h · W_hh`).
        hh: u32,
    },
    /// An `LstmCell` whose `[h | c]` output is consumed exactly by its
    /// two covering `SliceCols`: forward writes `h` and `c` straight into
    /// the slices' slots (the concatenated value is never materialized),
    /// backward assembles the split gradients with the exact `±0.0`
    /// semantics of the two slices' scatter (see [`grad_pair`]).
    CellSplit {
        /// Step index of the `SliceCols(.., 0, hidden)` consumer.
        h_step: u32,
        /// Step index of the `SliceCols(.., hidden, 2*hidden)` consumer.
        c_step: u32,
    },
    /// A `SliceCols` owned by a [`Kind::CellSplit`] parent: forward and
    /// backward are no-ops (the cell writes the value and consumes the
    /// gradient).
    CellSlice,
}

/// One compiled step: the recorded op plus resolved shape, execution
/// kind, and arena slot assignments.
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) op: Op,
    pub(crate) kind: Kind,
    /// Arena slot holding this step's forward value ([`NONE`] for
    /// [`Kind::GateMatmul`] steps, whose value is never materialized).
    pub(crate) val_slot: u32,
    /// Arena slot holding this step's gradient during backward
    /// ([`NONE`] when no gradient ever materializes here).
    pub(crate) grad_slot: u32,
    pub(crate) needs_grad: bool,
    /// Whether the recording pass read this value externally
    /// (via [`crate::graph::Graph::value`]); such slots are pinned.
    pub(crate) ext: Cell<bool>,
    pub(crate) rows: u32,
    pub(crate) cols: u32,
}

impl Step {
    pub(crate) fn elems(&self) -> usize {
        self.rows as usize * self.cols as usize
    }
}

/// One arena-slot binding interval, for introspection and the
/// no-aliasing property tests.
#[derive(Clone, Copy, Debug)]
pub struct LiveRange {
    /// Arena slot index.
    pub slot: usize,
    /// Step index whose value/gradient this binding holds.
    pub step: usize,
    /// True for a gradient binding, false for a value binding.
    pub is_grad: bool,
    /// First timeline point the buffer is live (forward step index, or
    /// `2n-1-i` for gradients born during backward).
    pub start: usize,
    /// Last timeline point the buffer is read (`usize::MAX` = pinned).
    pub end: usize,
    /// Element count of the bound shape.
    pub elems: usize,
}

/// A compiled execution plan: topo-ordered steps, the arena they execute
/// in, and everything needed to replay forward/backward with zero heap
/// allocation. Build one with [`crate::graph::Graph::into_plan`] and
/// execute it with [`crate::graph::Graph::replay`].
#[derive(Debug)]
pub struct Plan {
    pub(crate) steps: Vec<Step>,
    /// The arena: one reusable `Matrix` per slot, allocated to its
    /// maximum bound capacity at compile time.
    slots: Vec<Matrix>,
    /// Per-slot element capacity (rebinding must stay within it).
    caps: Vec<usize>,
    /// Whether each step's gradient currently holds a contribution: the
    /// first contribution sets the buffer, later ones add to it.
    grad_present: Vec<bool>,
    /// Shared scratch for GEMM packing, LSTM activations, and backward
    /// row reductions. Sized at compile time to the largest need.
    ws: Vec<f32>,
    /// Compiled length of `ws` (kept while the arena is released).
    ws_len: usize,
    /// True while the arena (slots, `ws` and `pack_bufs`) is freed: a
    /// cache miss releases idle plans, and
    /// [`crate::graph::Graph::replay`] reserves the arena again before the
    /// next replay.
    released: bool,
    /// Loss step index when the plan was compiled from a tape that runs
    /// backward; `None` for generation-only plans.
    loss: Option<usize>,
    /// All `Param` steps in recording order, for store synchronization.
    param_steps: Vec<(ParamId, u32)>,
    /// Param memoization: repeated [`crate::graph::Graph::param`] calls
    /// for one id return one step, while recording and on every replay;
    /// cleared by [`crate::graph::Graph::replay`].
    pub(crate) param_memo: Vec<(ParamId, u32)>,
    /// Store version the param slots were last synchronized against.
    param_version: u64,
    /// Param steps consumed as the B operand of a forward GEMM, whose
    /// column-block pack is hoisted out of the per-step kernel: packed
    /// once per store version by [`Plan::sync_params`], then reused by
    /// every GEMM reading them (an LSTM weight is hit `L` times per
    /// forward). `pack_of[step]` indexes `pack_steps`/`pack_bufs`.
    pack_steps: Vec<u32>,
    /// Pre-packed buffers, parallel to `pack_steps` (see
    /// [`crate::kernels::pack_b_full`]); allocated at compile time.
    pack_bufs: Vec<Vec<f32>>,
    /// Per-step index into `pack_bufs` ([`NONE`] when not packed).
    pack_of: Vec<u32>,
    /// Binding intervals, kept for property tests and diagnostics.
    ranges: Vec<LiveRange>,
}

impl Plan {
    /// Number of compiled steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of arena slots.
    pub fn arena_slots(&self) -> usize {
        self.caps.len()
    }

    /// Total bytes of the arena (slot capacities, workspace and hoisted
    /// weight packs) while it is resident.
    pub fn arena_bytes(&self) -> usize {
        let packs: usize = (0..self.pack_bufs.len()).map(|k| self.pack_len(k)).sum();
        4 * (self.caps.iter().sum::<usize>() + self.ws_len + packs)
    }

    /// Element count of hoisted weight pack `k`.
    fn pack_len(&self, k: usize) -> usize {
        let st = &self.steps[self.pack_steps[k] as usize];
        kernels::packed_b_len(st.rows as usize, st.cols as usize)
    }

    /// All binding intervals assigned by the liveness pass.
    pub fn live_ranges(&self) -> &[LiveRange] {
        &self.ranges
    }

    /// Per-slot element capacities.
    pub fn slot_caps(&self) -> &[usize] {
        &self.caps
    }

    pub(crate) fn val_ref(&self, i: usize) -> &Matrix {
        &self.slots[self.steps[i].val_slot as usize]
    }

    fn grad_ref(&self, i: usize) -> &Matrix {
        &self.slots[self.steps[i].grad_slot as usize]
    }

    pub(crate) fn diverged(&self, i: usize, got: &str) -> ! {
        panic!(
            "plan replay diverged at step {i}: recorded {}, got {got}; \
             the plan cache key does not fully determine the op sequence",
            self.steps[i].op.describe()
        )
    }

    pub(crate) fn expect_step(&self, i: usize, what: &str) {
        assert!(
            i < self.steps.len(),
            "plan replay overran the recorded tape at step {i} (got {what}); \
             the plan cache key does not fully determine the op sequence"
        );
    }

    /// Value of an externally-read step during replay.
    pub(crate) fn ext_value(&self, i: usize, cursor: usize) -> &Matrix {
        assert!(i < cursor, "plan replay: value read before step {i} ran");
        let st = &self.steps[i];
        assert!(
            st.ext.get(),
            "plan replay: step {i} ({}) was not read externally during \
             recording; external reads must be identical for every \
             execution of the same plan key",
            st.op.describe()
        );
        &self.slots[st.val_slot as usize]
    }

    /// Free the arena while the plan sits idle in a cache. Parameter
    /// slots and weight packs lose their synchronized values, so the next
    /// replay re-syncs them.
    fn release(&mut self) {
        self.slots.fill_with(Matrix::default);
        self.ws = Vec::new();
        self.pack_bufs.fill_with(Vec::new);
        self.param_version = u64::MAX;
        self.released = true;
    }

    /// Re-allocate a released arena at its compiled capacities; a no-op
    /// on a resident plan, so warm replays stay allocation-free.
    pub(crate) fn reserve(&mut self) {
        if !self.released {
            return;
        }
        for (slot, &cap) in self.slots.iter_mut().zip(&self.caps) {
            slot.data.reserve_exact(cap);
        }
        self.ws.reserve_exact(self.ws_len);
        self.ws.resize(self.ws_len, 0.0);
        for k in 0..self.pack_bufs.len() {
            let len = self.pack_len(k);
            self.pack_bufs[k].reserve_exact(len);
            self.pack_bufs[k].resize(len, 0.0);
        }
        self.released = false;
    }

    // -----------------------------------------------------------------
    // Recording
    // -----------------------------------------------------------------

    /// An empty plan to record into (see [`Plan::record`]).
    pub(crate) fn recording() -> Plan {
        Plan {
            steps: Vec::new(),
            slots: Vec::new(),
            caps: Vec::new(),
            grad_present: Vec::new(),
            ws: Vec::new(),
            ws_len: 0,
            released: false,
            loss: None,
            param_steps: Vec::new(),
            param_memo: Vec::new(),
            param_version: u64::MAX,
            pack_steps: Vec::new(),
            pack_bufs: Vec::new(),
            pack_of: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Record mode: append `op` as an unfused [`Kind::Plain`] step with
    /// its own value buffer (holding `value` for a leaf, otherwise
    /// allocated empty at the step's size) and its own gradient buffer,
    /// which stays unallocated until a gradient reaches it and, unless
    /// the step is a leaf or the loss, is freed again by the recorded
    /// backward ([`Plan::free_grad`]). Returns the step index; the caller
    /// evaluates it with [`Plan::eval`].
    pub(crate) fn record(
        &mut self,
        op: Op,
        (rows, cols): (usize, usize),
        needs_grad: bool,
        value: Option<Matrix>,
    ) -> usize {
        let i = self.steps.len();
        let val_slot = self.slots.len() as u32;
        let value = value.unwrap_or_else(|| Matrix {
            rows,
            cols,
            data: Vec::with_capacity(rows * cols),
        });
        self.slots.extend([value, Matrix::default()]);
        self.caps.extend([rows * cols; 2]);
        self.steps.push(Step {
            op,
            kind: Kind::Plain,
            val_slot,
            grad_slot: val_slot + 1,
            needs_grad,
            ext: Cell::new(false),
            rows: rows as u32,
            cols: cols as u32,
        });
        self.grad_present.push(false);
        self.pack_of.push(NONE);
        self.grow_ws(ws_need(&self.steps, i, false));
        i
    }

    /// Record mode: size the workspace for the backward pass of steps
    /// `0..=loss_idx` before [`Plan::backward_with`] runs it.
    pub(crate) fn reserve_backward(&mut self, loss_idx: usize) {
        for i in 0..=loss_idx {
            self.grow_ws(ws_need(&self.steps, i, true));
        }
    }

    fn grow_ws(&mut self, need: usize) {
        if need > self.ws.len() {
            self.ws.resize(need, 0.0);
            self.ws_len = need;
        }
    }

    /// Gradient of step `i` from the last backward pass, if one reached
    /// it and it is still held. Meaningful on a recorded plan, where the
    /// leaves and the loss keep their gradients after backward and every
    /// other step's is freed once pushed to its inputs; on a compiled
    /// plan an arena slot may since hold another binding.
    pub(crate) fn grad(&self, i: usize) -> Option<&Matrix> {
        self.grad_present[i].then(|| self.grad_ref(i))
    }

    /// Record mode: free step `i`'s gradient buffer once its backward
    /// step has pushed its contributions to its inputs. Afterwards
    /// [`Plan::grad`] reports no gradient for it.
    pub(crate) fn free_grad(&mut self, i: usize) {
        self.slots[self.steps[i].grad_slot as usize] = Matrix::default();
        self.grad_present[i] = false;
    }

    /// Capacity of step `i`'s gradient buffer: on a recorded plan, the
    /// step's own buffer, allocated or not.
    #[cfg(test)]
    pub(crate) fn grad_capacity(&self, i: usize) -> usize {
        self.grad_ref(i).data.capacity()
    }

    // -----------------------------------------------------------------
    // Forward execution (the zero-allocation step path)
    // -----------------------------------------------------------------
    // plan-lint: begin step path

    /// Take a step's value buffer out of the arena, bound to the step's
    /// recorded shape. Rebinding resizes within the preallocated slot
    /// capacity and never reallocates.
    fn take_val(&mut self, i: usize) -> Matrix {
        let st = &self.steps[i];
        let os = st.val_slot as usize;
        let (r, c) = (st.rows as usize, st.cols as usize);
        debug_assert!(r * c <= self.caps[os], "arena slot capacity underflow");
        let mut m = std::mem::take(&mut self.slots[os]);
        m.rows = r;
        m.cols = c;
        m.data.resize(r * c, 0.0);
        m
    }

    fn put_val(&mut self, i: usize, m: Matrix) {
        self.slots[self.steps[i].val_slot as usize] = m;
    }

    /// Bind a step's value slot and copy `src` into it (inputs, frozen
    /// params, and the store synchronization path).
    pub(crate) fn write_value(&mut self, i: usize, src: &Matrix) {
        let st = &self.steps[i];
        assert_eq!(
            (src.rows, src.cols),
            (st.rows as usize, st.cols as usize),
            "plan replay: shape of step {i} ({}) changed; the plan cache \
             key does not fully determine shapes",
            st.op.describe()
        );
        let mut m = self.take_val(i);
        m.data.copy_from_slice(&src.data);
        self.put_val(i, m);
    }

    /// Synchronize all parameter slots from `store`, gated on the store's
    /// mutation version so unchanged replays skip the copies entirely.
    pub(crate) fn sync_params(&mut self, store: &ParamStore) {
        if self.param_version == store.version() {
            return;
        }
        for k in 0..self.param_steps.len() {
            let (pid, si) = self.param_steps[k];
            self.write_value(si as usize, store.value(pid));
        }
        // Refresh the hoisted GEMM packs from the freshly synced values.
        for k in 0..self.pack_steps.len() {
            let si = self.pack_steps[k] as usize;
            let mut buf = std::mem::take(&mut self.pack_bufs[k]);
            kernels::pack_b_full(self.val_ref(si), &mut buf);
            self.pack_bufs[k] = buf;
        }
        self.param_version = store.version();
    }

    /// Evaluate step `i` into the arena — the one forward implementation
    /// of every op, for recording and replay alike. `extra` carries the
    /// per-step noise matrix for `NoisyRenorm` (the one recorded constant
    /// whose refresh needs an input value); all other per-step constants
    /// are refreshed in place by the replaying constructor before this
    /// call.
    pub(crate) fn eval(&mut self, i: usize, extra: Option<&Matrix>) {
        match self.steps[i].kind {
            // Value produced (or never materialized) elsewhere.
            Kind::GateMatmul { .. } | Kind::CellSlice => return,
            Kind::CellSplit { h_step, c_step } => {
                self.eval_cell_split(i, h_step as usize, c_step as usize);
                return;
            }
            Kind::FusedGates { xi, hh } => {
                self.eval_fused_gates(i, xi as usize, hh as usize);
                return;
            }
            Kind::Plain => {}
        }
        if let Op::NoisyRenorm { .. } = self.steps[i].op {
            let u = extra.expect("plan replay: NoisyRenorm needs its noise input");
            self.eval_noisy_renorm(i, u);
            return;
        }
        let mut out = self.take_val(i);
        let mut ws = std::mem::take(&mut self.ws);
        let rows = out.rows;
        let cols = out.cols;
        match &self.steps[i].op {
            // Values written by the constructor / param sync, not here.
            Op::Input | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                self.gemm_step(a.index(), b.index(), &mut out, &mut ws, false);
            }
            Op::Add(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                for ((o, &x), &y) in out.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *o = x + y;
                }
            }
            Op::Sub(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                for ((o, &x), &y) in out.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *o = x - y;
                }
            }
            Op::Mul(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                for ((o, &x), &y) in out.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *o = x * y;
                }
            }
            Op::AddRow(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                for r in 0..rows {
                    let ar = &va.data[r * cols..(r + 1) * cols];
                    let o = &mut out.data[r * cols..(r + 1) * cols];
                    for c in 0..cols {
                        o[c] = ar[c] + vb.data[c];
                    }
                }
            }
            Op::MulCol(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                for r in 0..rows {
                    let s = vb.data[r];
                    let ar = &va.data[r * cols..(r + 1) * cols];
                    let o = &mut out.data[r * cols..(r + 1) * cols];
                    for c in 0..cols {
                        o[c] = ar[c] * s;
                    }
                }
            }
            Op::Scale(a, s) => {
                let s = *s;
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = x * s;
                }
            }
            Op::Offset(a, s) => {
                let s = *s;
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = x + s;
                }
            }
            Op::Sigmoid(a) => {
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = kernels::fast_sigmoid(x);
                }
            }
            Op::Tanh(a) => {
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = kernels::fast_tanh(x);
                }
            }
            Op::LeakyRelu(a, slope) => {
                let slope = *slope;
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = if x >= 0.0 { x } else { slope * x };
                }
            }
            Op::Exp(a) => {
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = kernels::fast_exp(x);
                }
            }
            Op::Softplus(a) => {
                let va = self.val_ref(a.index());
                for (o, &x) in out.data.iter_mut().zip(&va.data) {
                    *o = if x > 20.0 {
                        x
                    } else if x < -20.0 {
                        x.exp()
                    } else {
                        (1.0 + x.exp()).ln()
                    };
                }
            }
            Op::ConcatCols(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                let (ca, cb) = (va.cols, vb.cols);
                for r in 0..rows {
                    out.data[r * cols..r * cols + ca]
                        .copy_from_slice(&va.data[r * ca..(r + 1) * ca]);
                    out.data[r * cols + ca..(r + 1) * cols]
                        .copy_from_slice(&vb.data[r * cb..(r + 1) * cb]);
                }
            }
            Op::SliceCols(a, c0, _c1) => {
                let c0 = *c0;
                let va = self.val_ref(a.index());
                let ca = va.cols;
                for r in 0..rows {
                    out.data[r * cols..(r + 1) * cols]
                        .copy_from_slice(&va.data[r * ca + c0..r * ca + c0 + cols]);
                }
            }
            Op::SliceRows(a, r0, r1) => {
                let (r0, r1) = (*r0, *r1);
                let va = self.val_ref(a.index());
                out.data.copy_from_slice(&va.data[r0 * cols..r1 * cols]);
            }
            Op::RowSum(a) => {
                let va = self.val_ref(a.index());
                for r in 0..rows {
                    out.data[r] = va.row_slice(r).iter().sum();
                }
            }
            Op::SumRowGroups(a, group) => {
                let group = *group;
                let va = self.val_ref(a.index());
                out.data.fill(0.0);
                for r in 0..rows {
                    for j in 0..group {
                        let src = (r * group + j) * cols;
                        let dst = r * cols;
                        for c in 0..cols {
                            out.data[dst + c] += va.data[src + c];
                        }
                    }
                }
            }
            Op::LstmCell {
                gates,
                c_prev,
                hidden,
            } => {
                let hidden = *hidden;
                let rows_out = out
                    .data
                    .chunks_exact_mut(2 * hidden)
                    .map(|row| row.split_at_mut(hidden));
                cell_forward(
                    self.val_ref(gates.index()),
                    self.val_ref(c_prev.index()),
                    &mut ws[..4 * hidden],
                    rows_out,
                );
            }
            Op::NoisyRenorm { .. } => unreachable!("handled above"),
            Op::AddAddRow(a, b, bias) => {
                let (va, vb, vbias) = (
                    self.val_ref(a.index()),
                    self.val_ref(b.index()),
                    self.val_ref(bias.index()),
                );
                for r in 0..rows {
                    let ar = &va.data[r * cols..(r + 1) * cols];
                    let br = &vb.data[r * cols..(r + 1) * cols];
                    let o = &mut out.data[r * cols..(r + 1) * cols];
                    for c in 0..cols {
                        o[c] = (ar[c] + br[c]) + vbias.data[c];
                    }
                }
            }
            Op::MaskedGroupMean {
                x,
                mask,
                scale,
                group,
                ..
            } => {
                let group = *group;
                let vx = self.val_ref(x.index());
                out.data.fill(0.0);
                for r in 0..rows {
                    let o = &mut out.data[r * cols..(r + 1) * cols];
                    for j in 0..group {
                        let src = (r * group + j) * cols;
                        let m = mask.data[r * group + j];
                        for (oo, xv) in o.iter_mut().zip(&vx.data[src..src + cols]) {
                            *oo += xv * m;
                        }
                    }
                    let s = scale.data[r];
                    for oo in o.iter_mut() {
                        *oo *= s;
                    }
                }
            }
            Op::Mean(a) => {
                out.data[0] = self.val_ref(a.index()).mean();
            }
            Op::MseLoss(a, b) => {
                let (va, vb) = (self.val_ref(a.index()), self.val_ref(b.index()));
                let n = va.data.len().max(1) as f32;
                let s: f32 = va
                    .data
                    .iter()
                    .zip(vb.data.iter())
                    .map(|(&x, &y)| (x - y) * (x - y))
                    .sum();
                out.data[0] = s / n;
            }
            Op::BceWithLogits(l, targets) => {
                let vl = self.val_ref(l.index());
                let n = vl.data.len().max(1) as f32;
                let s: f32 = vl
                    .data
                    .iter()
                    .zip(targets.data.iter())
                    .map(|(&x, &t)| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln())
                    .sum();
                out.data[0] = s / n;
            }
            Op::WeightedSum(terms) => {
                let mut s = 0.0;
                for &(id, w) in terms {
                    s += w * self.slots[self.steps[id.index()].val_slot as usize].data[0];
                }
                out.data[0] = s;
            }
            Op::GaussianNll { mu, sigma, target } => {
                let (vm, vs) = (self.val_ref(mu.index()), self.val_ref(sigma.index()));
                let n = vm.data.len().max(1) as f32;
                let mut s = 0.0;
                for k in 0..vm.data.len() {
                    let m = vm.data[k];
                    let sd = vs.data[k].max(1e-6);
                    let t = target.data[k];
                    s += sd.ln() + 0.5 * ((t - m) / sd).powi(2);
                }
                out.data[0] = s / n;
            }
        }
        self.ws = ws;
        self.put_val(i, out);
    }

    /// `NoisyRenorm` forward: refresh the recorded noise buffer from the
    /// step's fresh `u` draw and the input's current row means, then
    /// renormalize.
    fn eval_noisy_renorm(&mut self, i: usize, u: &Matrix) {
        let (x, a) = match &self.steps[i].op {
            Op::NoisyRenorm { x, a, .. } => (x.index(), *a),
            _ => unreachable!(),
        };
        let mut noise = match &mut self.steps[i].op {
            Op::NoisyRenorm { noise, .. } => std::mem::take(noise),
            _ => unreachable!(),
        };
        assert_eq!(
            u.shape(),
            noise.shape(),
            "plan replay: noisy_renorm noise shape changed"
        );
        let mut out = self.take_val(i);
        let (rows, cols) = (out.rows, out.cols);
        {
            let vx = self.val_ref(x);
            for r in 0..rows {
                let xr = &vx.data[r * cols..(r + 1) * cols];
                let ur = &u.data[r * cols..(r + 1) * cols];
                let nr = &mut noise.data[r * cols..(r + 1) * cols];
                let o = &mut out.data[r * cols..(r + 1) * cols];
                let mean = xr.iter().sum::<f32>() / cols.max(1) as f32;
                for c in 0..cols {
                    nr[c] = ur[c] * mean;
                }
                for c in 0..cols {
                    o[c] = xr[c] + nr[c] * a;
                }
                let sx: f32 = xr.iter().sum();
                let sp: f32 = o.iter().sum();
                let ratio = (sx + 1e-3) * (1.0 / (sp + 1e-3));
                for ov in o.iter_mut() {
                    *ov *= ratio;
                }
            }
        }
        match &mut self.steps[i].op {
            Op::NoisyRenorm { noise: slot, .. } => *slot = noise,
            _ => unreachable!(),
        }
        self.put_val(i, out);
    }

    /// GEMM `val[a] · val[b]` into `out`, routed through the hoisted
    /// column pack when `b` is a packed parameter step. Both routes are
    /// bitwise identical (the packed kernel shares the unpacked one's
    /// tile loop and consumes the same packed bytes).
    fn gemm_step(&self, a: usize, b: usize, out: &mut Matrix, ws: &mut [f32], acc: bool) {
        match self.pack_of[b] {
            NONE => kernels::gemm_nn_into(self.val_ref(a), self.val_ref(b), out, ws, acc),
            pk => kernels::gemm_nn_packed_into(
                self.val_ref(a),
                &self.pack_bufs[pk as usize],
                out.cols,
                out,
                acc,
            ),
        }
    }

    /// Fused gate assembly: `out = x·W_ih` (GEMM store), `+= h·W_hh`
    /// (GEMM accumulate), `+= bias` row broadcast. Each element sees
    /// `(xi + hh) + bias` with both products fully accumulated first —
    /// bitwise identical to the unfused `MatMul`/`MatMul`/`AddAddRow`.
    fn eval_fused_gates(&mut self, i: usize, xi: usize, hh: usize) {
        let (x, w1) = match &self.steps[xi].op {
            Op::MatMul(a, b) => (a.index(), b.index()),
            _ => unreachable!(),
        };
        let (h, w2) = match &self.steps[hh].op {
            Op::MatMul(a, b) => (a.index(), b.index()),
            _ => unreachable!(),
        };
        let bias = match &self.steps[i].op {
            Op::AddAddRow(_, _, bias) => bias.index(),
            _ => unreachable!(),
        };
        let mut out = self.take_val(i);
        let mut ws = std::mem::take(&mut self.ws);
        self.gemm_step(x, w1, &mut out, &mut ws, false);
        self.gemm_step(h, w2, &mut out, &mut ws, true);
        let cols = out.cols;
        let vb = self.val_ref(bias);
        for o in out.data.chunks_exact_mut(cols) {
            for (d, &b) in o.iter_mut().zip(&vb.data[..cols]) {
                *d += b;
            }
        }
        self.ws = ws;
        self.put_val(i, out);
    }

    /// Split LSTM cell: write `h` rows into the h-slice's slot and `c`
    /// rows into the c-slice's slot; the `[h | c]` concatenation is never
    /// materialized. The arithmetic is the plain cell forward.
    fn eval_cell_split(&mut self, i: usize, hs: usize, cs: usize) {
        let (gates, c_prev, hidden) = match &self.steps[i].op {
            Op::LstmCell {
                gates,
                c_prev,
                hidden,
            } => (gates.index(), c_prev.index(), *hidden),
            _ => unreachable!(),
        };
        let mut hout = self.take_val(hs);
        let mut cout = self.take_val(cs);
        let mut ws = std::mem::take(&mut self.ws);
        let rows_out = hout
            .data
            .chunks_exact_mut(hidden)
            .zip(cout.data.chunks_exact_mut(hidden));
        cell_forward(
            self.val_ref(gates),
            self.val_ref(c_prev),
            &mut ws[..4 * hidden],
            rows_out,
        );
        self.ws = ws;
        self.put_val(hs, hout);
        self.put_val(cs, cout);
    }

    // -----------------------------------------------------------------
    // Backward execution
    // -----------------------------------------------------------------

    /// Take step `j`'s gradient buffer out of the arena, bound to the
    /// step's shape, reporting whether it already holds a contribution.
    /// When it does not, the caller must overwrite every element (or
    /// zero-fill first): the bound buffer contains stale arena data. (A
    /// recorded plan's gradient buffer is allocated here, on its first
    /// binding.)
    fn take_grad(&mut self, j: usize) -> (Matrix, bool) {
        let st = &self.steps[j];
        let gs = st.grad_slot as usize;
        let (r, c) = (st.rows as usize, st.cols as usize);
        debug_assert!(r * c <= self.caps[gs], "arena slot capacity underflow");
        let mut m = std::mem::take(&mut self.slots[gs]);
        m.rows = r;
        m.cols = c;
        m.data.resize(r * c, 0.0);
        (m, self.grad_present[j])
    }

    fn put_grad(&mut self, j: usize, m: Matrix) {
        self.slots[self.steps[j].grad_slot as usize] = m;
        self.grad_present[j] = true;
    }

    fn needs(&self, j: usize) -> bool {
        self.steps[j].needs_grad
    }

    /// Dense whole-gradient contribution: `dst op= f(g)` elementwise,
    /// where the contribution element is fully computed before the one
    /// add (set mode writes the raw value).
    fn bwd_map(&mut self, src: usize, dst: usize, f: impl Fn(f32) -> f32) {
        if !self.needs(dst) {
            return;
        }
        let (mut m, present) = self.take_grad(dst);
        let g = self.grad_ref(src);
        if present {
            for (d, &x) in m.data.iter_mut().zip(&g.data) {
                *d += f(x);
            }
        } else {
            for (d, &x) in m.data.iter_mut().zip(&g.data) {
                *d = f(x);
            }
        }
        self.put_grad(dst, m);
    }

    /// Dense contribution from `g` zipped with another step's *value*
    /// (`src`'s own output for sigmoid-family ops, an input value for
    /// mul-family and activation-input ops).
    fn bwd_zip_val(&mut self, src: usize, dst: usize, vstep: usize, f: impl Fn(f32, f32) -> f32) {
        if !self.needs(dst) {
            return;
        }
        let (mut m, present) = self.take_grad(dst);
        let g = self.grad_ref(src);
        let v = self.val_ref(vstep);
        if present {
            for ((d, &x), &y) in m.data.iter_mut().zip(&g.data).zip(&v.data) {
                *d += f(x, y);
            }
        } else {
            for ((d, &x), &y) in m.data.iter_mut().zip(&g.data).zip(&v.data) {
                *d = f(x, y);
            }
        }
        self.put_grad(dst, m);
    }

    /// Column-sum contribution (`AddRow`/`AddAddRow` bias backward): the
    /// column sums are accumulated in workspace starting from `0.0` in
    /// row-ascending order, then applied to the destination in one pass.
    fn bwd_colsum(&mut self, src: usize, dst: usize) {
        if !self.needs(dst) {
            return;
        }
        let (mut m, present) = self.take_grad(dst);
        let mut ws = std::mem::take(&mut self.ws);
        {
            let g = self.grad_ref(src);
            let cols = g.cols;
            let sums = &mut ws[..cols];
            sums.fill(0.0);
            for row in g.data.chunks_exact(cols) {
                for (s, &v) in sums.iter_mut().zip(row) {
                    *s += v;
                }
            }
            if present {
                for (d, &s) in m.data.iter_mut().zip(sums.iter()) {
                    *d += s;
                }
            } else {
                m.data.copy_from_slice(sums);
            }
        }
        self.ws = ws;
        self.put_grad(dst, m);
    }

    /// MatMul backward for step `i`, reading the gradient of `gsrc`
    /// (the step itself, or its fused parent for [`Kind::GateMatmul`]).
    fn bwd_matmul(&mut self, i: usize, gsrc: usize) {
        let (a, b) = match &self.steps[i].op {
            Op::MatMul(a, b) => (a.index(), b.index()),
            _ => unreachable!(),
        };
        if self.needs(a) {
            let (mut m, present) = self.take_grad(a);
            kernels::gemm_nt_into(self.grad_ref(gsrc), self.val_ref(b), &mut m, present);
            self.put_grad(a, m);
        }
        if self.needs(b) {
            let (mut m, present) = self.take_grad(b);
            let mut ws = std::mem::take(&mut self.ws);
            kernels::gemm_tn_into(
                self.val_ref(a),
                self.grad_ref(gsrc),
                &mut m,
                &mut ws,
                present,
            );
            self.ws = ws;
            self.put_grad(b, m);
        }
    }

    /// `LstmCell` backward, reading the step's own `[h | c]` gradient
    /// ([`Kind::Plain`]) or its two slices' gradients (`split`, for
    /// [`Kind::CellSplit`]). Gate activations are recomputed from the
    /// saved pre-activations: bitwise the forward values.
    fn bwd_lstm(&mut self, i: usize, gsrc_h: usize, gsrc_c: usize, split: bool) {
        let (gates, c_prev, hidden) = match &self.steps[i].op {
            Op::LstmCell {
                gates,
                c_prev,
                hidden,
            } => (gates.index(), c_prev.index(), *hidden),
            _ => unreachable!(),
        };
        let (ng_g, ng_c) = (self.needs(gates), self.needs(c_prev));
        if !ng_g && !ng_c {
            return;
        }
        let gtar = if ng_g {
            Some(self.take_grad(gates))
        } else {
            None
        };
        let ctar = if ng_c {
            Some(self.take_grad(c_prev))
        } else {
            None
        };
        let (mut gtar, gpresent) = gtar.unzip_or_default();
        let (mut ctar, cpresent) = ctar.unzip_or_default();
        let mut ws = std::mem::take(&mut self.ws);
        {
            let (vg, vc) = (self.val_ref(gates), self.val_ref(c_prev));
            let rows = vg.rows;
            // Gradient sources: the step's own [h|c] gradient, or — for
            // CellSplit — the two slice gradients with presence flags
            // replicating the slices' scatter assembly (`0.0 + g` /
            // `g + 0.0` when both contributed, raw bits when only one).
            let (hp, cp) = if split {
                (self.grad_present[gsrc_h], self.grad_present[gsrc_c])
            } else {
                (true, true)
            };
            // A split slice whose gradient is absent (no slot assigned, or
            // simply not produced this pass) has nothing to read — its rows
            // are never consumed (`grad_pair` checks the presence flag
            // first), so an empty slice stands in for the whole buffer.
            let slot_data = |s: usize, present: bool| -> &[f32] {
                match self.steps[s].grad_slot {
                    _ if !present => &[],
                    NONE => &[],
                    slot => &self.slots[slot as usize].data,
                }
            };
            let gh_all = slot_data(gsrc_h, hp);
            let gc_all = slot_data(gsrc_c, cp);
            let (act, dct) = ws[..6 * hidden].split_at_mut(4 * hidden);
            for r in 0..rows {
                let gr = &vg.data[r * 4 * hidden..(r + 1) * 4 * hidden];
                let cpv = &vc.data[r * hidden..(r + 1) * hidden];
                cell_act(gr, act, hidden);
                let (i_v, rest) = act.split_at(hidden);
                let (f_v, rest) = rest.split_at(hidden);
                let (cand, o_v) = rest.split_at(hidden);
                fn slice_row(all: &[f32], r: usize, hidden: usize) -> &[f32] {
                    if all.is_empty() {
                        all
                    } else {
                        &all[r * hidden..(r + 1) * hidden]
                    }
                }
                let (gh_row, gc_row) = if split {
                    (slice_row(gh_all, r, hidden), slice_row(gc_all, r, hidden))
                } else {
                    let go = &gh_all[r * 2 * hidden..(r + 1) * 2 * hidden];
                    go.split_at(hidden)
                };
                let (ct, dc_total) = dct.split_at_mut(hidden);
                for k in 0..hidden {
                    ct[k] = kernels::fast_tanh(f_v[k] * cpv[k] + i_v[k] * cand[k]);
                }
                for k in 0..hidden {
                    let (gh_k, gc_k) = grad_pair(gh_row, gc_row, k, hp, cp, split);
                    dc_total[k] = gc_k + gh_k * o_v[k] * (1.0 - ct[k] * ct[k]);
                }
                if ng_g {
                    let dgr = &mut gtar.data[r * 4 * hidden..(r + 1) * 4 * hidden];
                    for k in 0..hidden {
                        let (gh_k, _) = grad_pair(gh_row, gc_row, k, hp, cp, split);
                        let d0 = dc_total[k] * cand[k] * i_v[k] * (1.0 - i_v[k]);
                        let d1 = dc_total[k] * cpv[k] * f_v[k] * (1.0 - f_v[k]);
                        let d2 = dc_total[k] * i_v[k] * (1.0 - cand[k] * cand[k]);
                        let d3 = gh_k * ct[k] * o_v[k] * (1.0 - o_v[k]);
                        if gpresent {
                            dgr[k] += d0;
                            dgr[hidden + k] += d1;
                            dgr[2 * hidden + k] += d2;
                            dgr[3 * hidden + k] += d3;
                        } else {
                            dgr[k] = d0;
                            dgr[hidden + k] = d1;
                            dgr[2 * hidden + k] = d2;
                            dgr[3 * hidden + k] = d3;
                        }
                    }
                }
                if ng_c {
                    let dcr = &mut ctar.data[r * hidden..(r + 1) * hidden];
                    for k in 0..hidden {
                        let d = dc_total[k] * f_v[k];
                        if cpresent {
                            dcr[k] += d;
                        } else {
                            dcr[k] = d;
                        }
                    }
                }
            }
        }
        self.ws = ws;
        if ng_g {
            self.put_grad(gates, gtar);
        }
        if ng_c {
            self.put_grad(c_prev, ctar);
        }
    }

    /// Run the backward pass over the compiled steps, accumulating
    /// parameter gradients into `store`.
    pub(crate) fn backward(&mut self, loss_idx: usize, store: &mut ParamStore) {
        assert_eq!(
            self.loss,
            Some(loss_idx),
            "plan replay: backward from a different loss node than the plan \
             was compiled for"
        );
        self.backward_with(loss_idx, store, Plan::backward_step);
    }

    /// Seed `d loss / d loss = 1`, then visit every gradient-carrying step
    /// from `loss_idx` down to 0 with `step` — [`Plan::backward_step`]
    /// itself on replay; the recording graph wraps it in its profiler and
    /// sanitizer.
    pub(crate) fn backward_with(
        &mut self,
        loss_idx: usize,
        store: &mut ParamStore,
        mut step: impl FnMut(&mut Plan, usize, &mut ParamStore),
    ) {
        self.grad_present.fill(false);
        let (mut seed, _) = self.take_grad(loss_idx);
        seed.data[0] = 1.0;
        self.put_grad(loss_idx, seed);
        for i in (0..=loss_idx).rev() {
            if self.steps[i].needs_grad {
                step(self, i, store);
            }
        }
    }

    /// Backward of step `i` — the one backward implementation of every
    /// op: push its gradient contributions to its inputs (parameter
    /// leaves accumulate into `store`), in a fixed order per op.
    pub(crate) fn backward_step(&mut self, i: usize, store: &mut ParamStore) {
        match self.steps[i].kind {
            Kind::CellSlice => return,
            Kind::GateMatmul { parent } => {
                if self.grad_present[parent as usize] {
                    self.bwd_matmul(i, parent as usize);
                }
                return;
            }
            Kind::CellSplit { h_step, c_step } => {
                let (hs, cs) = (h_step as usize, c_step as usize);
                if self.grad_present[hs] || self.grad_present[cs] {
                    self.bwd_lstm(i, hs, cs, true);
                }
                return;
            }
            Kind::FusedGates { .. } => {
                if self.grad_present[i] {
                    let bias = match &self.steps[i].op {
                        Op::AddAddRow(_, _, bias) => bias.index(),
                        _ => unreachable!(),
                    };
                    self.bwd_colsum(i, bias);
                }
                return;
            }
            Kind::Plain => {}
        }
        if !self.grad_present[i] {
            return;
        }
        match &self.steps[i].op {
            Op::Input => {}
            Op::Param(pid) => {
                let pid = *pid;
                store.accumulate_grad(pid, self.grad_ref(i));
            }
            Op::MatMul(..) => self.bwd_matmul(i, i),
            Op::Add(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_map(i, a, |x| x);
                self.bwd_map(i, b, |x| x);
            }
            Op::Sub(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_map(i, a, |x| x);
                self.bwd_map(i, b, |x| -x);
            }
            Op::Mul(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_zip_val(i, a, b, |g, y| g * y);
                self.bwd_zip_val(i, b, a, |g, y| g * y);
            }
            Op::AddRow(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_map(i, a, |x| x);
                self.bwd_colsum(i, b);
            }
            Op::MulCol(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_mul_col(i, a, b);
            }
            Op::Scale(a, s) => {
                let (a, s) = (a.index(), *s);
                self.bwd_map(i, a, move |x| x * s);
            }
            Op::Offset(a, _) => {
                let a = a.index();
                self.bwd_map(i, a, |x| x);
            }
            Op::Sigmoid(a) => {
                let a = a.index();
                self.bwd_zip_val(i, a, i, |g, y| g * y * (1.0 - y));
            }
            Op::Tanh(a) => {
                let a = a.index();
                self.bwd_zip_val(i, a, i, |g, y| g * (1.0 - y * y));
            }
            Op::LeakyRelu(a, slope) => {
                let (a, slope) = (a.index(), *slope);
                self.bwd_zip_val(i, a, a, move |g, x| if x >= 0.0 { g } else { g * slope });
            }
            Op::Exp(a) => {
                let a = a.index();
                self.bwd_zip_val(i, a, i, |g, y| g * y);
            }
            Op::Softplus(a) => {
                let a = a.index();
                self.bwd_zip_val(i, a, a, |g, x| g * stable_sigmoid(x));
            }
            Op::ConcatCols(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_concat(i, a, b);
            }
            Op::SliceCols(a, c0, c1) => {
                let (a, c0, c1) = (a.index(), *c0, *c1);
                self.bwd_slice_cols(i, a, c0, c1);
            }
            Op::SliceRows(a, r0, r1) => {
                let (a, r0, r1) = (a.index(), *r0, *r1);
                self.bwd_slice_rows(i, a, r0, r1);
            }
            Op::RowSum(a) => {
                let a = a.index();
                self.bwd_row_sum(i, a);
            }
            Op::SumRowGroups(a, group) => {
                let (a, group) = (a.index(), *group);
                self.bwd_sum_row_groups(i, a, group);
            }
            Op::LstmCell { .. } => self.bwd_lstm(i, i, i, false),
            Op::NoisyRenorm { x, .. } => {
                let x = x.index();
                self.bwd_noisy_renorm(i, x);
            }
            Op::AddAddRow(a, b, bias) => {
                let (a, b, bias) = (a.index(), b.index(), bias.index());
                self.bwd_map(i, a, |x| x);
                self.bwd_map(i, b, |x| x);
                self.bwd_colsum(i, bias);
            }
            Op::MaskedGroupMean { x, group, .. } => {
                let (x, group) = (x.index(), *group);
                self.bwd_masked_group_mean(i, x, group);
            }
            Op::Mean(a) => {
                let a = a.index();
                let st = &self.steps[a];
                let n = (st.rows as usize * st.cols as usize).max(1) as f32;
                let v = self.grad_ref(i).data[0] / n;
                if self.needs(a) {
                    let (mut m, present) = self.take_grad(a);
                    if present {
                        for d in m.data.iter_mut() {
                            *d += v;
                        }
                    } else {
                        m.data.fill(v);
                    }
                    self.put_grad(a, m);
                }
            }
            Op::MseLoss(a, b) => {
                let (a, b) = (a.index(), b.index());
                self.bwd_mse(i, a, b);
            }
            Op::BceWithLogits(l, _) => {
                let l = l.index();
                self.bwd_bce(i, l);
            }
            Op::WeightedSum(_) => self.bwd_weighted_sum(i),
            Op::GaussianNll { mu, sigma, .. } => {
                let (mu, sigma) = (mu.index(), sigma.index());
                self.bwd_gaussian_nll(i, mu, sigma);
            }
        }
    }

    fn bwd_mul_col(&mut self, i: usize, a: usize, b: usize) {
        if self.needs(a) {
            let (mut m, present) = self.take_grad(a);
            let g = self.grad_ref(i);
            let vb = self.val_ref(b);
            let cols = g.cols;
            for r in 0..g.rows {
                let s = vb.data[r];
                let gr = &g.data[r * cols..(r + 1) * cols];
                let dr = &mut m.data[r * cols..(r + 1) * cols];
                if present {
                    for c in 0..cols {
                        dr[c] += gr[c] * s;
                    }
                } else {
                    for c in 0..cols {
                        dr[c] = gr[c] * s;
                    }
                }
            }
            self.put_grad(a, m);
        }
        if self.needs(b) {
            let (mut m, present) = self.take_grad(b);
            let g = self.grad_ref(i);
            let va = self.val_ref(a);
            let cols = g.cols;
            for r in 0..g.rows {
                let mut acc = 0.0;
                for c in 0..cols {
                    acc += g.data[r * cols + c] * va.data[r * va.cols + c];
                }
                if present {
                    m.data[r] += acc;
                } else {
                    m.data[r] = acc;
                }
            }
            self.put_grad(b, m);
        }
    }

    fn bwd_concat(&mut self, i: usize, a: usize, b: usize) {
        let ca = self.steps[a].cols as usize;
        if self.needs(a) {
            let (mut m, present) = self.take_grad(a);
            let g = self.grad_ref(i);
            for r in 0..g.rows {
                let gr = &g.data[r * g.cols..r * g.cols + ca];
                let dr = &mut m.data[r * ca..(r + 1) * ca];
                if present {
                    for (d, &x) in dr.iter_mut().zip(gr) {
                        *d += x;
                    }
                } else {
                    dr.copy_from_slice(gr);
                }
            }
            self.put_grad(a, m);
        }
        if self.needs(b) {
            let (mut m, present) = self.take_grad(b);
            let g = self.grad_ref(i);
            let cb = g.cols - ca;
            for r in 0..g.rows {
                let gr = &g.data[r * g.cols + ca..(r + 1) * g.cols];
                let dr = &mut m.data[r * cb..(r + 1) * cb];
                if present {
                    for (d, &x) in dr.iter_mut().zip(gr) {
                        *d += x;
                    }
                } else {
                    dr.copy_from_slice(gr);
                }
            }
            self.put_grad(b, m);
        }
    }

    /// `SliceCols` backward: a full-width contribution that is `0.0`
    /// outside columns `c0..c1`. In add mode the untouched elements
    /// therefore receive `+= 0.0` — which is *not* a no-op for `-0.0` —
    /// so the add-mode loop spells out all three column segments.
    fn bwd_slice_cols(&mut self, i: usize, a: usize, c0: usize, c1: usize) {
        if !self.needs(a) {
            return;
        }
        let (mut m, present) = self.take_grad(a);
        let g = self.grad_ref(i);
        let cols = self.steps[a].cols as usize;
        if present {
            for r in 0..g.rows {
                let gr = &g.data[r * g.cols..(r + 1) * g.cols];
                let dr = &mut m.data[r * cols..(r + 1) * cols];
                for d in dr[..c0].iter_mut() {
                    *d += 0.0;
                }
                for (k, d) in dr[c0..c1].iter_mut().enumerate() {
                    *d += gr[k];
                }
                for d in dr[c1..].iter_mut() {
                    *d += 0.0;
                }
            }
        } else {
            m.data.fill(0.0);
            for r in 0..g.rows {
                let gr = &g.data[r * g.cols..(r + 1) * g.cols];
                m.data[r * cols + c0..r * cols + c1].copy_from_slice(gr);
            }
        }
        self.put_grad(a, m);
    }

    /// `SliceRows` backward; same `±0.0` add-mode contract as
    /// [`Plan::bwd_slice_cols`], segmented by rows.
    fn bwd_slice_rows(&mut self, i: usize, a: usize, r0: usize, r1: usize) {
        if !self.needs(a) {
            return;
        }
        let (mut m, present) = self.take_grad(a);
        let g = self.grad_ref(i);
        let cols = self.steps[a].cols as usize;
        if present {
            for d in m.data[..r0 * cols].iter_mut() {
                *d += 0.0;
            }
            for (d, &x) in m.data[r0 * cols..r1 * cols].iter_mut().zip(&g.data) {
                *d += x;
            }
            for d in m.data[r1 * cols..].iter_mut() {
                *d += 0.0;
            }
        } else {
            m.data.fill(0.0);
            m.data[r0 * cols..r1 * cols].copy_from_slice(&g.data);
        }
        self.put_grad(a, m);
    }

    fn bwd_row_sum(&mut self, i: usize, a: usize) {
        if !self.needs(a) {
            return;
        }
        let (mut m, present) = self.take_grad(a);
        let g = self.grad_ref(i);
        let cols = self.steps[a].cols as usize;
        for r in 0..m.rows {
            let s = g.data[r];
            let dr = &mut m.data[r * cols..(r + 1) * cols];
            if present {
                for d in dr.iter_mut() {
                    *d += s;
                }
            } else {
                for d in dr.iter_mut() {
                    *d = s;
                }
            }
        }
        self.put_grad(a, m);
    }

    fn bwd_sum_row_groups(&mut self, i: usize, a: usize, group: usize) {
        if !self.needs(a) {
            return;
        }
        let (mut m, present) = self.take_grad(a);
        let g = self.grad_ref(i);
        let cols = g.cols;
        for r in 0..g.rows {
            let src = &g.data[r * cols..(r + 1) * cols];
            for j in 0..group {
                let dr = &mut m.data[(r * group + j) * cols..(r * group + j + 1) * cols];
                if present {
                    for (d, &x) in dr.iter_mut().zip(src) {
                        *d += x;
                    }
                } else {
                    dr.copy_from_slice(src);
                }
            }
        }
        self.put_grad(a, m);
    }

    fn bwd_noisy_renorm(&mut self, i: usize, x: usize) {
        if !self.needs(x) {
            return;
        }
        let (noise, a) = match &mut self.steps[i].op {
            Op::NoisyRenorm { noise, a, .. } => (std::mem::take(noise), *a),
            _ => unreachable!(),
        };
        let (mut m, present) = self.take_grad(x);
        let mut ws = std::mem::take(&mut self.ws);
        {
            let g = self.grad_ref(i);
            let vx = self.val_ref(x);
            let (rows, cols) = (vx.rows, vx.cols);
            let pert = &mut ws[..cols];
            for r in 0..rows {
                let xr = &vx.data[r * cols..(r + 1) * cols];
                let nr = &noise.data[r * cols..(r + 1) * cols];
                let gr = &g.data[r * cols..(r + 1) * cols];
                for c in 0..cols {
                    pert[c] = xr[c] + nr[c] * a;
                }
                let sx: f32 = xr.iter().sum();
                let sp: f32 = pert.iter().sum();
                let rden = 1.0 / (sp + 1e-3);
                let ratio = (sx + 1e-3) * rden;
                let dot: f32 = gr.iter().zip(pert.iter()).map(|(&gi, &pi)| gi * pi).sum();
                let ds = dot * rden;
                let dr = &mut m.data[r * cols..(r + 1) * cols];
                if present {
                    for c in 0..cols {
                        dr[c] += gr[c] * ratio + ds;
                    }
                } else {
                    for c in 0..cols {
                        dr[c] = gr[c] * ratio + ds;
                    }
                }
            }
        }
        self.ws = ws;
        match &mut self.steps[i].op {
            Op::NoisyRenorm { noise: slot, .. } => *slot = noise,
            _ => unreachable!(),
        }
        self.put_grad(x, m);
    }

    fn bwd_masked_group_mean(&mut self, i: usize, x: usize, group: usize) {
        if !self.needs(x) {
            return;
        }
        let (mask, scale) = match &mut self.steps[i].op {
            Op::MaskedGroupMean { mask, scale, .. } => {
                (std::mem::take(mask), std::mem::take(scale))
            }
            _ => unreachable!(),
        };
        let (mut m, present) = self.take_grad(x);
        {
            let g = self.grad_ref(i);
            let cols = g.cols;
            for r in 0..g.rows {
                let gr = &g.data[r * cols..(r + 1) * cols];
                let s = scale.data[r];
                for j in 0..group {
                    let row = r * group + j;
                    let mk = mask.data[row];
                    let dr = &mut m.data[row * cols..(row + 1) * cols];
                    if present {
                        for c in 0..cols {
                            dr[c] += (gr[c] * s) * mk;
                        }
                    } else {
                        for c in 0..cols {
                            dr[c] = (gr[c] * s) * mk;
                        }
                    }
                }
            }
        }
        match &mut self.steps[i].op {
            Op::MaskedGroupMean {
                mask: mslot,
                scale: sslot,
                ..
            } => {
                *mslot = mask;
                *sslot = scale;
            }
            _ => unreachable!(),
        }
        self.put_grad(x, m);
    }

    fn bwd_mse(&mut self, i: usize, a: usize, b: usize) {
        let n = {
            let st = &self.steps[a];
            (st.rows as usize * st.cols as usize).max(1) as f32
        };
        let s = 2.0 * self.grad_ref(i).data[0] / n;
        if self.needs(a) {
            let (mut m, present) = self.take_grad(a);
            let (va, vb) = (self.val_ref(a), self.val_ref(b));
            if present {
                for ((d, &x), &y) in m.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *d += s * (x - y);
                }
            } else {
                for ((d, &x), &y) in m.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *d = s * (x - y);
                }
            }
            self.put_grad(a, m);
        }
        if self.needs(b) {
            let (mut m, present) = self.take_grad(b);
            let (va, vb) = (self.val_ref(a), self.val_ref(b));
            if present {
                for ((d, &x), &y) in m.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *d += -(s * (x - y));
                }
            } else {
                for ((d, &x), &y) in m.data.iter_mut().zip(&va.data).zip(&vb.data) {
                    *d = -(s * (x - y));
                }
            }
            self.put_grad(b, m);
        }
    }

    fn bwd_bce(&mut self, i: usize, l: usize) {
        if !self.needs(l) {
            return;
        }
        let targets = match &mut self.steps[i].op {
            Op::BceWithLogits(_, t) => std::mem::take(t),
            _ => unreachable!(),
        };
        let (mut m, present) = self.take_grad(l);
        {
            let vl = self.val_ref(l);
            let n = vl.data.len().max(1) as f32;
            let s = self.grad_ref(i).data[0] / n;
            if present {
                for ((d, &x), &t) in m.data.iter_mut().zip(&vl.data).zip(&targets.data) {
                    *d += s * (stable_sigmoid(x) - t);
                }
            } else {
                for ((d, &x), &t) in m.data.iter_mut().zip(&vl.data).zip(&targets.data) {
                    *d = s * (stable_sigmoid(x) - t);
                }
            }
        }
        match &mut self.steps[i].op {
            Op::BceWithLogits(_, t) => *t = targets,
            _ => unreachable!(),
        }
        self.put_grad(l, m);
    }

    fn bwd_weighted_sum(&mut self, i: usize) {
        let terms = match &mut self.steps[i].op {
            Op::WeightedSum(t) => std::mem::take(t),
            _ => unreachable!(),
        };
        let g0 = self.grad_ref(i).data[0];
        for &(id, w) in &terms {
            let j = id.index();
            if !self.needs(j) {
                continue;
            }
            let (mut m, present) = self.take_grad(j);
            if present {
                m.data[0] += g0 * w;
            } else {
                m.data[0] = g0 * w;
            }
            self.put_grad(j, m);
        }
        match &mut self.steps[i].op {
            Op::WeightedSum(t) => *t = terms,
            _ => unreachable!(),
        }
    }

    fn bwd_gaussian_nll(&mut self, i: usize, mu: usize, sigma: usize) {
        let target = match &mut self.steps[i].op {
            Op::GaussianNll { target, .. } => std::mem::take(target),
            _ => unreachable!(),
        };
        let n = {
            let st = &self.steps[mu];
            (st.rows as usize * st.cols as usize).max(1) as f32
        };
        let s = self.grad_ref(i).data[0] / n;
        if self.needs(mu) {
            let (mut m, present) = self.take_grad(mu);
            let (vm, vs) = (self.val_ref(mu), self.val_ref(sigma));
            for k in 0..vm.data.len() {
                let sd = vs.data[k].max(1e-6);
                let v = s * (vm.data[k] - target.data[k]) / (sd * sd);
                if present {
                    m.data[k] += v;
                } else {
                    m.data[k] = v;
                }
            }
            self.put_grad(mu, m);
        }
        if self.needs(sigma) {
            let (mut m, present) = self.take_grad(sigma);
            let (vm, vs) = (self.val_ref(mu), self.val_ref(sigma));
            for k in 0..vm.data.len() {
                let sd = vs.data[k].max(1e-6);
                let d = target.data[k] - vm.data[k];
                let v = s * (1.0 / sd - d * d / (sd * sd * sd));
                if present {
                    m.data[k] += v;
                } else {
                    m.data[k] = v;
                }
            }
            self.put_grad(sigma, m);
        }
        match &mut self.steps[i].op {
            Op::GaussianNll { target: t, .. } => *t = target,
            _ => unreachable!(),
        }
    }

    // plan-lint: end step path
}

/// Numerically-stable libm sigmoid, used by the softplus and BCE
/// backward passes.
fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Gate activations of one LSTM row: sigmoid over the `i`/`f` and `o`
/// blocks, tanh over the candidate block — shared by the cell forward
/// and backward so the two agree bitwise. Each pass runs over a
/// contiguous slice so the polynomial kernels vectorize.
fn cell_act(gr: &[f32], act: &mut [f32], hidden: usize) {
    for (a, &x) in act[..2 * hidden].iter_mut().zip(&gr[..2 * hidden]) {
        *a = kernels::fast_sigmoid(x); // i, f
    }
    for (a, &x) in act[2 * hidden..3 * hidden]
        .iter_mut()
        .zip(&gr[2 * hidden..3 * hidden])
    {
        *a = kernels::fast_tanh(x); // candidate
    }
    for (a, &x) in act[3 * hidden..].iter_mut().zip(&gr[3 * hidden..]) {
        *a = kernels::fast_sigmoid(x); // o
    }
}

/// LSTM cell forward over the gate pre-activations `vg` and previous cell
/// state `vc`, with `act` (`4 * hidden` long) as scratch. `rows_out`
/// yields each row's `h` and `c` destinations: the two halves of one
/// `[h | c]` row for [`Kind::Plain`], rows of the two slice slots for
/// [`Kind::CellSplit`].
fn cell_forward<'a>(
    vg: &Matrix,
    vc: &Matrix,
    act: &mut [f32],
    rows_out: impl Iterator<Item = (&'a mut [f32], &'a mut [f32])>,
) {
    let hidden = act.len() / 4;
    for (r, (h_out, c_out)) in rows_out.enumerate() {
        let gr = &vg.data[r * 4 * hidden..(r + 1) * 4 * hidden];
        let cp = &vc.data[r * hidden..(r + 1) * hidden];
        cell_act(gr, act, hidden);
        let (i_v, rest) = act.split_at(hidden);
        let (f_v, rest) = rest.split_at(hidden);
        let (cand, o_v) = rest.split_at(hidden);
        for k in 0..hidden {
            c_out[k] = f_v[k] * cp[k] + i_v[k] * cand[k];
        }
        for k in 0..hidden {
            h_out[k] = o_v[k] * kernels::fast_tanh(c_out[k]);
        }
    }
}

/// Effective `(gh, gc)` pair for the LSTM cell backward at element `k`.
///
/// For a [`Kind::CellSplit`] cell the two unfused `SliceCols` backwards
/// would have assembled the `[h | c]` gradient by scattering the
/// c-slice's gradient first (set) and then adding the h-slice's (add).
/// Replicated exactly:
/// when both slices contributed, `gh = 0.0 + gh_raw` and
/// `gc = gc_raw + 0.0` (the adds matter for `-0.0`); a lone contribution
/// keeps its raw bits and the other side is exactly `0.0`.
#[inline]
fn grad_pair(gh: &[f32], gc: &[f32], k: usize, hp: bool, cp: bool, split: bool) -> (f32, f32) {
    if !split {
        return (gh[k], gc[k]);
    }
    match (hp, cp) {
        (true, true) => (0.0 + gh[k], gc[k] + 0.0),
        (true, false) => (gh[k], 0.0),
        (false, true) => (0.0, gc[k]),
        (false, false) => (0.0, 0.0),
    }
}

/// `Option<(Matrix, bool)>` helper: unwrap or provide placeholder
/// values for the untaken branch (never read when the need flag is off).
trait UnzipOrDefault {
    fn unzip_or_default(self) -> (Matrix, bool);
}

impl UnzipOrDefault for Option<(Matrix, bool)> {
    fn unzip_or_default(self) -> (Matrix, bool) {
        self.unwrap_or((Matrix::default(), false))
    }
}

// ---------------------------------------------------------------------
// Compilation: consumers, fusion, liveness, arena assignment
// ---------------------------------------------------------------------

struct Binding {
    step: usize,
    is_grad: bool,
    start: usize,
    end: usize,
    elems: usize,
}

/// Compile recorded steps into a [`Plan`]: decide each step's [`Kind`],
/// then assign its value and gradient buffers to arena slots.
pub(crate) fn compile(mut nodes: Vec<Step>, loss: Option<usize>) -> Plan {
    let n = nodes.len();
    let bwd = loss.is_some();
    let li = loss.unwrap_or(0);
    let bt = |i: usize| 2 * n - 1 - i; // backward visitation time of step i

    // Consumer lists.
    let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (i, node) in nodes.iter().enumerate() {
        for inp in node.op.inputs() {
            consumers[inp.index()].push(i as u32);
        }
    }

    // Plan-time fusion.
    let mut kind: Vec<Kind> = vec![Kind::Plain; n];
    let mut slice_parent: Vec<u32> = vec![NONE; n];
    for i in 0..n {
        if let Op::AddAddRow(a, b, _) = &nodes[i].op {
            let (a, b) = (a.index(), b.index());
            if a != b
                && matches!(nodes[a].op, Op::MatMul(..))
                && matches!(nodes[b].op, Op::MatMul(..))
                && consumers[a].len() == 1
                && consumers[b].len() == 1
                && !nodes[a].ext.get()
                && !nodes[b].ext.get()
                && kind[a] == Kind::Plain
                && kind[b] == Kind::Plain
            {
                kind[i] = Kind::FusedGates {
                    xi: a as u32,
                    hh: b as u32,
                };
                kind[a] = Kind::GateMatmul { parent: i as u32 };
                kind[b] = Kind::GateMatmul { parent: i as u32 };
            }
        }
    }
    for i in 0..n {
        if let Op::LstmCell { hidden, .. } = nodes[i].op {
            if nodes[i].ext.get() || consumers[i].len() != 2 {
                continue;
            }
            let mut h_step = None;
            let mut c_step = None;
            for &s in &consumers[i] {
                let s = s as usize;
                match nodes[s].op {
                    Op::SliceCols(p, 0, c1) if p.index() == i && c1 == hidden => h_step = Some(s),
                    Op::SliceCols(p, c0, c1)
                        if p.index() == i && c0 == hidden && c1 == 2 * hidden =>
                    {
                        c_step = Some(s)
                    }
                    _ => {}
                }
            }
            if let (Some(hs), Some(cs)) = (h_step, c_step) {
                if hs != cs {
                    kind[i] = Kind::CellSplit {
                        h_step: hs as u32,
                        c_step: cs as u32,
                    };
                    kind[hs] = Kind::CellSlice;
                    kind[cs] = Kind::CellSlice;
                    slice_parent[hs] = i as u32;
                    slice_parent[cs] = i as u32;
                }
            }
        }
    }

    // Value liveness: born at eval time (the cell's index for CellSlice
    // values, which the cell writes), read by forward consumers and the
    // backward passes that need input or own-output values.
    let mut val_start: Vec<usize> = (0..n).collect();
    let mut val_end: Vec<usize> = (0..n).collect();
    for i in 0..n {
        if slice_parent[i] != NONE {
            val_start[i] = slice_parent[i] as usize;
        }
    }
    for (j, cons) in consumers.iter().enumerate() {
        for &i in cons {
            val_end[j] = val_end[j].max(i as usize);
        }
    }
    // A fused gate pair's GEMMs run at the absorbing AddAddRow's index,
    // so the matmul operands must stay live until the *parent*, not just
    // until the (earlier) matmul steps themselves.
    for j in 0..n {
        if let Kind::GateMatmul { parent } = kind[j] {
            for inp in nodes[j].op.inputs() {
                let k = inp.index();
                val_end[k] = val_end[k].max(parent as usize);
            }
        }
    }
    if bwd {
        for (i, node) in nodes.iter().enumerate().take(li + 1) {
            if !node.needs_grad {
                continue;
            }
            let t = bt(i);
            let mut read = |id: NodeId| {
                val_end[id.index()] = val_end[id.index()].max(t);
            };
            match &node.op {
                // Sigmoid-family backward reads its own output.
                Op::Sigmoid(_) | Op::Tanh(_) | Op::Exp(_) => val_end[i] = val_end[i].max(t),
                Op::MatMul(a, b) => {
                    if nodes[b.index()].needs_grad {
                        read(*a);
                    }
                    if nodes[a.index()].needs_grad {
                        read(*b);
                    }
                }
                Op::Mul(a, b) | Op::MulCol(a, b) => {
                    if nodes[a.index()].needs_grad {
                        read(*b);
                    }
                    if nodes[b.index()].needs_grad {
                        read(*a);
                    }
                }
                Op::LeakyRelu(a, _) | Op::Softplus(a) | Op::BceWithLogits(a, _) => read(*a),
                Op::NoisyRenorm { x, .. } => read(*x),
                Op::LstmCell { gates, c_prev, .. } => {
                    read(*gates);
                    read(*c_prev);
                }
                Op::MseLoss(a, b) => {
                    read(*a);
                    read(*b);
                }
                Op::GaussianNll { mu, sigma, .. } => {
                    read(*mu);
                    read(*sigma);
                }
                _ => {}
            }
        }
    }
    for (i, node) in nodes.iter().enumerate() {
        // Externally-read values and parameter leaves are pinned: ext
        // reads can happen any time during replay, and param slots must
        // survive across replays so the version-gated sync can skip
        // re-copying.
        if node.ext.get() || matches!(node.op, Op::Param(_)) {
            val_end[i] = PINNED;
        }
        // Param values are written by `sync_params` at replay *start*
        // (the step itself is a memoized no-op), so their slots are live
        // from time 0 — never time-shared with any earlier binding.
        if matches!(node.op, Op::Param(_)) {
            val_start[i] = 0;
        }
    }

    // Gradient liveness: born at the latest-visited contributing
    // consumer (the seed for the loss), consumed at the step's own
    // backward visit — extended for fused kinds whose gradients are
    // read by earlier-indexed (= later-visited) steps.
    let mut grad_start: Vec<usize> = vec![PINNED; n];
    let mut grad_end: Vec<usize> = vec![0; n];
    if bwd {
        for (j, node) in nodes.iter().enumerate().take(li + 1) {
            if !node.needs_grad {
                continue;
            }
            if matches!(kind[j], Kind::GateMatmul { .. } | Kind::CellSplit { .. }) {
                continue; // gradient never materialized
            }
            let first = consumers[j]
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| i <= li && nodes[i].needs_grad)
                .map(bt)
                .min();
            let start = if j == li { Some(n) } else { first };
            let Some(start) = start else { continue };
            grad_start[j] = start;
            grad_end[j] = bt(j);
            match kind[j] {
                Kind::FusedGates { xi, hh } => {
                    grad_end[j] = grad_end[j].max(bt((xi as usize).min(hh as usize)));
                }
                Kind::CellSlice => {
                    grad_end[j] = grad_end[j].max(bt(slice_parent[j] as usize));
                }
                _ => {}
            }
        }
    }

    // Collect bindings and run the greedy interval→slot assignment
    // (best-fit by capacity, release strictly before reuse).
    let mut bindings: Vec<Binding> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let elems = node.elems();
        if !matches!(kind[i], Kind::GateMatmul { .. }) {
            bindings.push(Binding {
                step: i,
                is_grad: false,
                start: val_start[i],
                end: val_end[i],
                elems,
            });
        }
        if bwd && grad_start[i] != PINNED {
            bindings.push(Binding {
                step: i,
                is_grad: true,
                start: grad_start[i],
                end: grad_end[i],
                elems,
            });
        }
    }
    bindings.sort_by_key(|b| (b.start, b.step, b.is_grad));

    let mut caps: Vec<usize> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // Min-heap of (release time, slot).
    let mut releases: BinaryHeap<std::cmp::Reverse<(usize, usize)>> = BinaryHeap::new();
    let mut val_slots: Vec<u32> = vec![NONE; n];
    let mut grad_slots: Vec<u32> = vec![NONE; n];
    let mut ranges: Vec<LiveRange> = Vec::with_capacity(bindings.len());
    for b in &bindings {
        while let Some(&std::cmp::Reverse((end, slot))) = releases.peek() {
            if end < b.start {
                releases.pop();
                free.push(slot);
            } else {
                break;
            }
        }
        // Best fit: smallest free capacity that holds the shape, else
        // the largest free slot (grown to fit), else a new slot.
        let mut best: Option<usize> = None;
        for (fi, &slot) in free.iter().enumerate() {
            let better = match best {
                None => true,
                Some(bi) => {
                    let (bc, fc) = (caps[free[bi]], caps[slot]);
                    if bc >= b.elems {
                        fc >= b.elems && fc < bc
                    } else {
                        fc > bc
                    }
                }
            };
            if better {
                best = Some(fi);
            }
        }
        let slot = match best {
            Some(fi) => free.swap_remove(fi),
            None => {
                caps.push(0);
                caps.len() - 1
            }
        };
        caps[slot] = caps[slot].max(b.elems.max(1));
        if b.end != PINNED {
            releases.push(std::cmp::Reverse((b.end, slot)));
        }
        if b.is_grad {
            grad_slots[b.step] = slot as u32;
        } else {
            val_slots[b.step] = slot as u32;
        }
        ranges.push(LiveRange {
            slot,
            step: b.step,
            is_grad: b.is_grad,
            start: b.start,
            end: b.end,
            elems: b.elems,
        });
    }

    // Debug builds validate the interval assignment: two bindings that
    // share a slot must never be live at the same time.
    #[cfg(debug_assertions)]
    {
        let mut by_slot: Vec<Vec<&LiveRange>> = vec![Vec::new(); caps.len()];
        for r in &ranges {
            by_slot[r.slot].push(r);
        }
        for rs in by_slot.iter_mut() {
            rs.sort_by_key(|r| r.start);
            for w in rs.windows(2) {
                assert!(
                    w[0].end < w[1].start,
                    "arena aliasing: slot {} holds step {} ({}, grad={}) \
                     [{}..{}] and step {} ({}, grad={}) [{}..{}]",
                    w[0].slot,
                    w[0].step,
                    nodes[w[0].step].op.describe(),
                    w[0].is_grad,
                    w[0].start,
                    w[0].end,
                    w[1].step,
                    nodes[w[1].step].op.describe(),
                    w[1].is_grad,
                    w[1].start,
                    w[1].end,
                );
            }
        }
    }

    // Workspace sizing: the largest GEMM pack, LSTM activation scratch,
    // or backward row reduction any step needs.
    let ws_len = (0..n)
        .map(|i| ws_need(&nodes, i, bwd && i <= li))
        .max()
        .unwrap_or(0);

    let mut param_steps: Vec<(ParamId, u32)> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if let Op::Param(pid) = node.op {
            param_steps.push((pid, i as u32));
        }
    }

    // Hoisted GEMM packs: any parameter consumed as a forward GEMM's B
    // operand (plain or gate-fused matmul) is packed once per store
    // version in `sync_params` instead of once per kernel call.
    let mut pack_of: Vec<u32> = vec![NONE; nodes.len()];
    let mut pack_steps: Vec<u32> = Vec::new();
    let mut pack_bufs: Vec<Vec<f32>> = Vec::new();
    for node in nodes.iter() {
        if let Op::MatMul(_, b) = node.op {
            let bi = b.index();
            if matches!(nodes[bi].op, Op::Param(_)) && pack_of[bi] == NONE {
                pack_of[bi] = pack_steps.len() as u32;
                pack_steps.push(bi as u32);
                let (rows, cols) = (nodes[bi].rows as usize, nodes[bi].cols as usize);
                pack_bufs.push(vec![0.0; kernels::packed_b_len(rows, cols)]);
            }
        }
    }

    let slots: Vec<Matrix> = caps
        .iter()
        .map(|&cap| Matrix {
            rows: 0,
            cols: 0,
            data: Vec::with_capacity(cap),
        })
        .collect();

    for (i, st) in nodes.iter_mut().enumerate() {
        st.kind = kind[i];
        st.val_slot = val_slots[i];
        st.grad_slot = grad_slots[i];
    }

    let memo_cap = param_steps.len();
    Plan {
        grad_present: vec![false; n],
        steps: nodes,
        slots,
        caps,
        ws: vec![0.0; ws_len],
        ws_len,
        loss,
        param_steps,
        param_memo: Vec::with_capacity(memo_cap),
        pack_steps,
        pack_bufs,
        pack_of,
        ranges,
        ..Plan::recording()
    }
}

/// Workspace elements step `i` needs: its GEMM column pack (and, when
/// `bwd` and both operands take gradients, the `Aᵀ·B` backward's pack
/// and transpose), its LSTM activation scratch, or its row reduction.
fn ws_need(steps: &[Step], i: usize, bwd: bool) -> usize {
    let st = &steps[i];
    match &st.op {
        Op::MatMul(a, b) => {
            let sa = &steps[a.index()];
            let (ar, ac) = (sa.rows as usize, sa.cols as usize);
            let tn = bwd && st.needs_grad && steps[b.index()].needs_grad;
            kernels::nn_ws_len(ac).max(if tn { kernels::tn_ws_len(ac, ar) } else { 0 })
        }
        Op::LstmCell { hidden, .. } => 6 * hidden,
        Op::NoisyRenorm { .. } | Op::AddRow(..) | Op::AddAddRow(..) => st.cols as usize,
        _ => 0,
    }
}

// ---------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------

/// Cache key for a compiled plan: a static tag naming the builder plus
/// the dimensions that fully determine its op sequence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlanKey {
    /// Builder identity (e.g. `"train_g"`, `"gen_batch"`).
    pub tag: &'static str,
    /// Shape/config dimensions. Every quantity that changes the op
    /// sequence must be folded in — replay panics loudly otherwise.
    pub dims: [u64; 6],
}

impl PlanKey {
    /// Key with a tag and up to six dimensions (missing ones zero).
    pub fn new(tag: &'static str, dims: [u64; 6]) -> Self {
        PlanKey { tag, dims }
    }
}

/// Fold an iterator of `u64`s into one FNV-1a hash, for key dimensions
/// that summarize variable-length shape lists (e.g. per-window lengths).
pub fn fold_dims(iter: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in iter {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Maximum number of plans kept per cache; oldest evicted beyond it.
const PLAN_CACHE_CAP: usize = 64;

/// A small keyed store of compiled plans. Plans are *taken* for
/// execution (a plan is single-threaded while replaying) and put back
/// afterwards, so one cache can serve concurrent shard workers.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<Vec<(PlanKey, Plan)>>,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute the graph keyed by `key` once: replay its cached plan on
    /// a hit; on a miss, record the graph and cache its compiled plan.
    /// `build` runs the model code on the graph and returns its result
    /// plus the loss node it ran backward from (`None` for forward-only
    /// graphs).
    ///
    /// `GENDT_SANITIZE` forces record mode, uncached: its per-op checks
    /// run only while recording.
    pub fn run<R>(&self, key: PlanKey, build: impl FnOnce(&mut Graph) -> (R, Option<NodeId>)) -> R {
        let record_only = crate::sanitize::sanitize_enabled();
        let plan = if record_only { None } else { self.take(&key) };
        let mut g = plan.map_or_else(Graph::new, Graph::replay);
        let (out, loss) = build(&mut g);
        if !record_only {
            self.put(key, g.into_plan(loss));
        }
        out
    }

    /// Remove and return the plan for `key`, if present. A miss releases
    /// the arenas of the plans left in the cache: the tape recorded next
    /// would otherwise stack on top of every idle arena. A released plan
    /// reserves its arena again on its next replay.
    pub fn take(&self, key: &PlanKey) -> Option<Plan> {
        let mut inner = self.inner.lock();
        match inner.iter().position(|(k, _)| k == key) {
            Some(pos) => Some(inner.remove(pos).1),
            None => {
                for (_, plan) in inner.iter_mut() {
                    plan.release();
                }
                None
            }
        }
    }

    /// Store (or return) a plan under `key`.
    pub fn put(&self, key: PlanKey, plan: Plan) {
        let mut inner = self.inner.lock();
        if inner.len() >= PLAN_CACHE_CAP {
            inner.remove(0);
        }
        inner.push((key, plan));
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::params::Sgd;
    use crate::rng::Rng;

    /// Constant tensors fed to the all-ops model (fresh per step in real
    /// training; here varied explicitly between replays).
    struct Data {
        x: Matrix,
        c0: Matrix,
        u: Matrix,
        mask: Matrix,
        scale: Matrix,
        tgt: Matrix,
        bce_t: Matrix,
        gnll_t: Matrix,
    }

    fn mk_data(seed: u64) -> Data {
        let mut rng = Rng::seed_from(seed);
        let mut m = |r: usize, c: usize, lo: f64, hi: f64| {
            Matrix::from_vec(
                r,
                c,
                (0..r * c).map(|_| rng.uniform(lo, hi) as f32).collect(),
            )
        };
        Data {
            x: m(4, 6, -1.0, 1.0),
            c0: m(4, 2, -0.5, 0.5),
            u: m(2, 4, -0.1, 0.1),
            mask: m(4, 1, 0.0, 1.0),
            scale: m(2, 1, 0.4, 0.6),
            tgt: m(2, 4, -1.0, 1.0),
            bce_t: m(1, 4, 0.0, 1.0),
            gnll_t: m(1, 4, -1.0, 1.0),
        }
    }

    fn mk_store(seed: u64) -> (ParamStore, Vec<ParamId>) {
        let mut rng = Rng::seed_from(seed);
        let mut store = ParamStore::new();
        let ids = vec![
            store.add_xavier("w", 6, 8, &mut rng),
            store.add_xavier("hp", 4, 8, &mut rng),
            store.add_xavier("w2", 8, 8, &mut rng),
            store.add_zeros("bias", 1, 8),
        ];
        (store, ids)
    }

    /// Build a graph touching every op variant: an LSTM gate assembly
    /// eligible for both fusions, then one of each remaining op chained
    /// to a four-term loss. Runs identically in record and replay mode.
    fn build_all_ops(g: &mut Graph, store: &ParamStore, ids: &[ParamId], d: &Data) -> NodeId {
        let xin = g.input_ref(&d.x);
        let wp = g.param(store, ids[0]);
        let a = g.matmul(xin, wp);
        let hp = g.param(store, ids[1]);
        let w2p = g.param(store, ids[2]);
        let b = g.matmul(hp, w2p);
        let biasp = g.param(store, ids[3]);
        let gates = g.add_add_row(a, b, biasp);
        let cprev = g.input_ref(&d.c0);
        let cell = g.lstm_cell(gates, cprev, 2);
        let h = g.slice_cols(cell, 0, 2);
        let c = g.slice_cols(cell, 2, 4);
        let s1 = g.sigmoid(h);
        let t1 = g.tanh(c);
        let m1 = g.mul(s1, t1);
        let sc = g.scale(m1, 0.1);
        let e1 = g.exp(sc);
        let sp = g.softplus(m1);
        let lr = g.leaky_relu(m1, 0.01);
        let ad = g.add(e1, s1);
        let sb = g.sub(ad, sp);
        let cc = g.concat_cols(sb, lr);
        let off = g.offset(cc, 0.5);
        let rs = g.row_sum(off);
        let mc = g.mul_col(cc, rs);
        let srg = g.sum_row_groups(mc, 2);
        let nr = g.noisy_renorm(srg, 0.3, &d.u);
        let sr = g.slice_rows(nr, 0, 1);
        let ar = g.add_row(mc, sr);
        let mgm = g.masked_group_mean(ar, &d.mask, &d.scale, 2);
        let mn = g.mean(mgm);
        let tin = g.input_ref(&d.tgt);
        let mse = g.mse_loss(mgm, tin);
        let bce = g.bce_with_logits(sr, d.bce_t.clone());
        let spo = g.softplus(sr);
        let sig = g.offset(spo, 1e-4);
        let gnll = g.gaussian_nll(sr, sig, d.gnll_t.clone());
        g.weighted_sum(vec![(mn, 0.5), (mse, 1.0), (bce, 0.3), (gnll, 0.2)])
    }

    /// Recorded reference: loss value, probe value, parameter grads.
    fn run_recorded(
        store_seed: u64,
        d: &Data,
        pre_steps: u32,
    ) -> (Matrix, Vec<Vec<f32>>, Graph, NodeId) {
        let (mut store, ids) = mk_store(store_seed);
        let mut sgd = Sgd::new(0.05);
        for s in 0..=pre_steps {
            store.zero_grad();
            let mut g = Graph::new();
            let loss = build_all_ops(&mut g, &store, &ids, d);
            let lv = g.value(loss).clone();
            g.backward(loss, &mut store);
            if s == pre_steps {
                let grads = store.iter().map(|p| p.grad.data.clone()).collect();
                return (lv, grads, g, loss);
            }
            sgd.step(&mut store);
        }
        unreachable!()
    }

    #[test]
    fn plan_matches_interpreted_bitwise_all_ops() {
        let d = mk_data(11);
        let (lv_ref, grads_ref, g_ref, loss_ref) = run_recorded(7, &d, 0);
        let plan = g_ref.into_plan(Some(loss_ref));

        let (mut store, ids) = mk_store(7);
        store.zero_grad();
        let mut g = Graph::replay(plan);
        let loss = build_all_ops(&mut g, &store, &ids, &d);
        assert_eq!(g.value(loss).data, lv_ref.data, "forward loss diverged");
        g.backward(loss, &mut store);
        for (p, gr) in store.iter().zip(grads_ref.iter()) {
            assert_eq!(p.grad.data, *gr, "grad of {} diverged", p.name);
        }
    }

    #[test]
    fn plan_replays_repeatedly_across_optimizer_steps() {
        let d = mk_data(23);
        // Compile once from step 0, then replay through three SGD steps,
        // checking each against a freshly recorded run of the same step.
        let (mut store, ids) = mk_store(9);
        let mut g0 = Graph::new();
        let loss0 = build_all_ops(&mut g0, &store, &ids, &d);
        let _ = g0.value(loss0);
        let mut plan = g0.into_plan(Some(loss0));

        let mut sgd = Sgd::new(0.05);
        for step in 0..3u32 {
            let (lv_ref, grads_ref, _, _) = run_recorded(9, &d, step);
            store.zero_grad();
            let mut g = Graph::replay(plan);
            let loss = build_all_ops(&mut g, &store, &ids, &d);
            assert_eq!(g.value(loss).data, lv_ref.data, "step {step} fwd");
            g.backward(loss, &mut store);
            for (p, gr) in store.iter().zip(grads_ref.iter()) {
                assert_eq!(p.grad.data, *gr, "step {step} grad {}", p.name);
            }
            plan = g.into_plan(Some(loss));
            sgd.step(&mut store);
        }
    }

    #[test]
    fn plan_tracks_fresh_inputs_and_constants() {
        // Same plan, different input/noise/target data each replay.
        let d0 = mk_data(31);
        let (_, _, g_ref, loss_ref) = run_recorded(13, &d0, 0);
        let mut plan = g_ref.into_plan(Some(loss_ref));
        for seed in [32u64, 33, 34] {
            let d = mk_data(seed);
            let (lv_ref, grads_ref, _, _) = run_recorded(13, &d, 0);
            let (mut store, ids) = mk_store(13);
            store.zero_grad();
            let mut g = Graph::replay(plan);
            let loss = build_all_ops(&mut g, &store, &ids, &d);
            assert_eq!(g.value(loss).data, lv_ref.data, "data {seed} fwd");
            g.backward(loss, &mut store);
            for (p, gr) in store.iter().zip(grads_ref.iter()) {
                assert_eq!(p.grad.data, *gr, "data {seed} grad {}", p.name);
            }
            plan = g.into_plan(Some(loss));
        }
    }

    #[test]
    fn forward_only_plan_serves_autoregressive_reads() {
        // Free-running generation: each iteration feeds back a value read
        // out of the graph mid-build, exercising ext pinning.
        let (store, ids) = mk_store(17);
        let run = |g: &mut Graph| -> Vec<f32> {
            let mut feed = Matrix::from_vec(1, 6, vec![0.1; 6]);
            for _ in 0..3 {
                let xin = g.input_ref(&feed);
                let wp = g.param(&store, ids[0]);
                let h = g.matmul(xin, wp);
                let t = g.tanh(h);
                let v = g.value(t);
                // Next input: first 6 activations, halved (host-side math).
                feed = Matrix::from_vec(1, 6, v.data[..6].iter().map(|x| 0.5 * x).collect());
            }
            feed.data
        };
        let mut g0 = Graph::new();
        let out_ref = run(&mut g0);
        let plan = g0.into_plan(None);
        let mut g1 = Graph::replay(plan);
        let out = run(&mut g1);
        assert_eq!(out, out_ref, "autoregressive replay diverged");
        let _ = g1.into_plan(None); // full-replay check
    }

    #[test]
    fn fusion_kinds_are_applied() {
        let d = mk_data(41);
        let (_, _, g_ref, loss_ref) = run_recorded(19, &d, 0);
        let plan = g_ref.into_plan(Some(loss_ref));
        let kinds: Vec<&Kind> = plan.steps.iter().map(|s| &s.kind).collect();
        assert!(
            kinds.iter().any(|k| matches!(k, Kind::FusedGates { .. })),
            "gate assembly not fused"
        );
        assert!(
            kinds.iter().any(|k| matches!(k, Kind::CellSplit { .. })),
            "lstm cell split not fused"
        );
    }

    /// Arena soundness: on any slot, binding intervals must be disjoint
    /// with strict ordering (a released buffer may only be rebound at a
    /// strictly later timeline point), pinned bindings must be the final
    /// occupant of their slot, and every binding must fit its capacity.
    fn assert_no_aliasing(plan: &Plan) {
        let mut by_slot: Vec<Vec<&LiveRange>> = vec![Vec::new(); plan.arena_slots()];
        for r in plan.live_ranges() {
            by_slot[r.slot].push(r);
        }
        for (slot, mut rs) in by_slot.into_iter().enumerate() {
            rs.sort_by_key(|r| r.start);
            for w in rs.windows(2) {
                assert!(
                    w[0].end < w[1].start,
                    "slot {slot}: binding for step {} (end {}) overlaps \
                     binding for step {} (start {})",
                    w[0].step,
                    w[0].end,
                    w[1].step,
                    w[1].start
                );
            }
            for r in rs {
                assert!(
                    plan.slot_caps()[slot] >= r.elems,
                    "slot {slot}: capacity {} < bound shape {} elems",
                    plan.slot_caps()[slot],
                    r.elems
                );
            }
        }
    }

    #[test]
    fn arena_bindings_never_alias() {
        let d = mk_data(53);
        let (_, _, g_ref, loss_ref) = run_recorded(29, &d, 0);
        let plan = g_ref.into_plan(Some(loss_ref));
        assert!(plan.arena_slots() > 0);
        assert!(
            plan.arena_slots() < plan.len(),
            "liveness pass reused no slots"
        );
        assert_no_aliasing(&plan);

        // Forward-only (generation-style) plan.
        let (store, ids) = mk_store(29);
        let mut g = Graph::new();
        let xin = g.input_ref(&d.x);
        let wp = g.param(&store, ids[0]);
        let h = g.matmul(xin, wp);
        let t = g.tanh(h);
        let _ = g.value(t);
        let plan = g.into_plan(None);
        assert_no_aliasing(&plan);
    }

    #[test]
    fn plan_cache_takes_and_puts() {
        let d = mk_data(61);
        let (_, _, g_ref, loss_ref) = run_recorded(31, &d, 0);
        let plan = g_ref.into_plan(Some(loss_ref));
        let cache = PlanCache::new();
        let key = PlanKey::new("test", [4, 6, 2, 0, 0, 0]);
        assert!(cache.take(&key).is_none());
        cache.put(key, plan);
        assert_eq!(cache.len(), 1);
        let p = cache.take(&key).expect("plan cached");
        assert!(cache.is_empty());
        assert!(!p.is_empty());
    }

    #[test]
    fn fold_dims_separates_shape_lists() {
        let a = fold_dims([50u64, 50, 48]);
        let b = fold_dims([50u64, 48, 50]);
        assert_ne!(a, b);
        assert_eq!(a, fold_dims([50u64, 50, 48]));
    }
}
