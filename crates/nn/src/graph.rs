//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Graph`] is a single-use tape: every op records its inputs and cached
//! forward value; [`Graph::backward`] walks the tape in reverse and pushes
//! gradients to inputs and, for parameter leaves, into the owning
//! [`ParamStore`]. One training step = one graph.
//!
//! The op set is deliberately small — exactly what the GenDT architecture
//! (LSTM + FC + stochastic layers + Gaussian head + GAN losses) needs.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::plan::{Mode, Plan};

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

impl NodeId {
    /// Position of the node on the tape (nodes are numbered in recording
    /// order starting at 0). Used by external tape auditors.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded tape operation.
///
/// The enum is public so external verification tooling (the `gendt-audit`
/// crate) can walk a recorded tape and re-derive every node's shape and
/// inputs with an *exhaustive* `match` — adding a variant without
/// updating the audit rules is a compile error, which is the point.
/// Graphs can only be built through the checked [`Graph`] constructors;
/// the variants carry no invariants of their own beyond what those
/// constructors established.
#[derive(Clone, Debug)]
pub enum Op {
    /// Constant input (no gradient).
    Input,
    /// Parameter leaf; backward accumulates into the store.
    Param(ParamId),
    /// `a * b` (matrix product).
    MatMul(NodeId, NodeId),
    /// `a + b`, elementwise, same shape.
    Add(NodeId, NodeId),
    /// `a - b`, elementwise, same shape.
    Sub(NodeId, NodeId),
    /// `a * b`, elementwise (Hadamard), same shape.
    Mul(NodeId, NodeId),
    /// `a + row_broadcast(b)` where `b` is `1 x cols` (bias add).
    AddRow(NodeId, NodeId),
    /// `a * col_broadcast(b)` where `b` is `rows x 1`.
    MulCol(NodeId, NodeId),
    /// `a * s` for scalar `s`.
    Scale(NodeId, f32),
    /// `a + s` for scalar `s` (the offset shows up in [`Op::describe`]).
    Offset(NodeId, f32),
    /// Elementwise sigmoid.
    Sigmoid(NodeId),
    /// Elementwise tanh.
    Tanh(NodeId),
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(NodeId, f32),
    /// Elementwise exp.
    Exp(NodeId),
    /// Elementwise softplus `ln(1 + e^x)`.
    Softplus(NodeId),
    /// Horizontal concat `[a | b]`.
    ConcatCols(NodeId, NodeId),
    /// Columns `c0..c1` of `a`.
    SliceCols(NodeId, usize, usize),
    /// Rows `r0..r1` of `a`.
    SliceRows(NodeId, usize, usize),
    /// Row-wise sum -> `rows x 1`.
    RowSum(NodeId),
    /// Sum each consecutive group of `group` rows -> `rows/group x cols`.
    SumRowGroups(NodeId, usize),
    /// Fused LSTM cell update: pre-activation `gates` (`rows x 4*hidden`,
    /// ordered `[i | f | g | o]`) plus previous cell state -> `[h | c]`
    /// (`rows x 2*hidden`).
    LstmCell {
        /// Pre-activation gate block, `rows x 4*hidden`, ordered `[i | f | g | o]`.
        gates: NodeId,
        /// Previous cell state, `rows x hidden`.
        c_prev: NodeId,
        /// LSTM hidden size.
        hidden: usize,
    },
    /// Fused SRNN noisy renormalization `(x + a*n) * rowsum(x)/rowsum(x+a*n)`
    /// with the stored noise `n` entering as a constant and the denominator
    /// treated as locally constant (matching the op-by-op composition).
    NoisyRenorm {
        /// Input activations.
        x: NodeId,
        /// Noise amplitude.
        a: f32,
        /// Sampled standard-normal noise, same shape as `x` (constant).
        noise: Matrix,
    },
    /// `(a + b) + row_broadcast(bias)` in one pass (LSTM gate assembly).
    AddAddRow(NodeId, NodeId, NodeId),
    /// Masked group mean: rows of `x` are scaled by the constant column
    /// `mask`, summed in consecutive groups of `group`, and the reduced
    /// rows scaled by the constant column `scale`.
    MaskedGroupMean {
        /// Input rows, `rows x cols` with `rows % group == 0`.
        x: NodeId,
        /// Per-row weight column, `rows x 1` (constant).
        mask: Matrix,
        /// Per-group normalizer column, `rows/group x 1` (constant).
        scale: Matrix,
        /// Consecutive rows reduced per output row.
        group: usize,
    },
    /// Mean of all elements -> `1 x 1`.
    Mean(NodeId),
    /// Mean of squared difference `mean((a-b)^2)` -> `1 x 1`.
    MseLoss(NodeId, NodeId),
    /// Binary cross-entropy with logits against constant targets -> `1 x 1`.
    BceWithLogits(NodeId, Matrix),
    /// Sum of several `1 x 1` scalars with weights.
    WeightedSum(Vec<(NodeId, f32)>),
    /// Gaussian negative log-likelihood of constant targets given
    /// `(mu, sigma)` nodes -> `1 x 1`. Sigma must be positive.
    GaussianNll {
        /// Predicted mean, same shape as `target`.
        mu: NodeId,
        /// Predicted standard deviation (positive), same shape as `target`.
        sigma: NodeId,
        /// Observed values (constant).
        target: Matrix,
    },
}

impl Op {
    /// The variant name, for diagnostics and audit reports.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Input => "Input",
            Op::Param(_) => "Param",
            Op::MatMul(..) => "MatMul",
            Op::Add(..) => "Add",
            Op::Sub(..) => "Sub",
            Op::Mul(..) => "Mul",
            Op::AddRow(..) => "AddRow",
            Op::MulCol(..) => "MulCol",
            Op::Scale(..) => "Scale",
            Op::Offset(..) => "Offset",
            Op::Sigmoid(_) => "Sigmoid",
            Op::Tanh(_) => "Tanh",
            Op::LeakyRelu(..) => "LeakyRelu",
            Op::Exp(_) => "Exp",
            Op::Softplus(_) => "Softplus",
            Op::ConcatCols(..) => "ConcatCols",
            Op::SliceCols(..) => "SliceCols",
            Op::SliceRows(..) => "SliceRows",
            Op::RowSum(_) => "RowSum",
            Op::SumRowGroups(..) => "SumRowGroups",
            Op::LstmCell { .. } => "LstmCell",
            Op::NoisyRenorm { .. } => "NoisyRenorm",
            Op::AddAddRow(..) => "AddAddRow",
            Op::MaskedGroupMean { .. } => "MaskedGroupMean",
            Op::Mean(_) => "Mean",
            Op::MseLoss(..) => "MseLoss",
            Op::BceWithLogits(..) => "BceWithLogits",
            Op::WeightedSum(_) => "WeightedSum",
            Op::GaussianNll { .. } => "GaussianNll",
        }
    }

    /// Human-readable description including the scalar attributes that
    /// change the op's semantics (scale factor, offset, slice bounds,
    /// group size, …). Used by sanitizer panics and verifier reports.
    pub fn describe(&self) -> String {
        match self {
            Op::Scale(_, s) => format!("Scale(*{s})"),
            Op::Offset(_, s) => format!("Offset(+{s})"),
            Op::LeakyRelu(_, slope) => format!("LeakyRelu(slope={slope})"),
            Op::SliceCols(_, c0, c1) => format!("SliceCols({c0}..{c1})"),
            Op::SliceRows(_, r0, r1) => format!("SliceRows({r0}..{r1})"),
            Op::SumRowGroups(_, group) => format!("SumRowGroups(group={group})"),
            Op::LstmCell { hidden, .. } => format!("LstmCell(hidden={hidden})"),
            Op::NoisyRenorm { a, .. } => format!("NoisyRenorm(a={a})"),
            Op::MaskedGroupMean { group, .. } => format!("MaskedGroupMean(group={group})"),
            Op::WeightedSum(terms) => format!("WeightedSum({} terms)", terms.len()),
            other => other.name().to_string(),
        }
    }

    /// The tape nodes this op reads, in argument order. Leaves (inputs,
    /// parameters) have none; constant matrices stored inside an op (noise,
    /// masks, targets) are not nodes and do not appear here.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            Op::Input | Op::Param(_) => Vec::new(),
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::AddRow(a, b)
            | Op::MulCol(a, b)
            | Op::ConcatCols(a, b)
            | Op::MseLoss(a, b) => vec![*a, *b],
            Op::Scale(a, _)
            | Op::Offset(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::LeakyRelu(a, _)
            | Op::Exp(a)
            | Op::Softplus(a)
            | Op::SliceCols(a, _, _)
            | Op::SliceRows(a, _, _)
            | Op::RowSum(a)
            | Op::SumRowGroups(a, _)
            | Op::Mean(a)
            | Op::BceWithLogits(a, _)
            | Op::NoisyRenorm { x: a, .. }
            | Op::MaskedGroupMean { x: a, .. } => vec![*a],
            Op::LstmCell { gates, c_prev, .. } => vec![*gates, *c_prev],
            Op::AddAddRow(a, b, bias) => vec![*a, *b, *bias],
            Op::WeightedSum(terms) => terms.iter().map(|&(id, _)| id).collect(),
            Op::GaussianNll { mu, sigma, .. } => vec![*mu, *sigma],
        }
    }
}

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
    needs_grad: bool,
    /// Whether [`Graph::value`] was called on this node — an *external*
    /// read whose result escaped the tape. The plan compiler pins such
    /// values in the arena (and refuses to fuse them away) so replay can
    /// serve the same reads. `Cell` because `value` takes `&self`.
    ext: std::cell::Cell<bool>,
}

/// A single-use reverse-mode autodiff tape.
///
/// A graph runs in one of two modes (see [`crate::plan`]): **record**
/// (the default — ops execute eagerly and append to the tape) or
/// **replay** ([`Graph::replay`] — the same builder code re-executes a
/// compiled [`Plan`] against its preallocated arena, with every
/// constructor validating that it matches the recorded step). Builder
/// code is mode-agnostic; only construction differs.
pub struct Graph {
    nodes: Vec<Node>,
    /// One leaf node per parameter: repeated [`Graph::param`] calls for
    /// the same id reuse the node (and its value clone) instead of
    /// cloning the weight matrix once per use.
    param_nodes: std::collections::HashMap<ParamId, NodeId>,
    /// Op profiler: completion time of the previous `push`, so the gap
    /// to the next push (the op's forward compute in the caller) can be
    /// attributed to the op being recorded. Zero until the first traced
    /// push; only read while `gendt_trace::trace_enabled()`.
    prof_last_ns: u64,
    /// Record (append to the tape) or replay (execute a compiled plan).
    mode: Mode,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

/// Numerically-stable libm sigmoid, used by the softplus and BCE
/// backward passes.
pub(crate) fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Gate activations of one LSTM row: sigmoid over the `i`/`f` and `o`
/// blocks, tanh over the candidate block — shared by the tape's and the
/// plan executor's cell forward/backward so all four agree bitwise. Each
/// pass runs over a contiguous slice so the polynomial kernels vectorize.
pub(crate) fn cell_act(gr: &[f32], act: &mut [f32], hidden: usize) {
    use crate::kernels::{fast_sigmoid, fast_tanh};
    for (a, &x) in act[..2 * hidden].iter_mut().zip(&gr[..2 * hidden]) {
        *a = fast_sigmoid(x); // i, f
    }
    for (a, &x) in act[2 * hidden..3 * hidden]
        .iter_mut()
        .zip(&gr[2 * hidden..3 * hidden])
    {
        *a = fast_tanh(x); // candidate
    }
    for (a, &x) in act[3 * hidden..].iter_mut().zip(&gr[3 * hidden..]) {
        *a = fast_sigmoid(x); // o
    }
}

/// Forward pass of the fused LSTM cell.
fn lstm_cell_forward(vg: &Matrix, vc: &Matrix, hidden: usize) -> Matrix {
    let rows = vg.rows;
    let mut v = Matrix::zeros(rows, 2 * hidden);
    // Per-gate scratch, reused across rows.
    let mut act = vec![0.0f32; 4 * hidden];
    for r in 0..rows {
        let gr = &vg.data[r * 4 * hidden..(r + 1) * 4 * hidden];
        let cp = &vc.data[r * hidden..(r + 1) * hidden];
        cell_act(gr, &mut act, hidden);
        let (i_v, rest) = act.split_at(hidden);
        let (f_v, rest) = rest.split_at(hidden);
        let (cand, o_v) = rest.split_at(hidden);
        let (h_out, c_out) = v.data[r * 2 * hidden..(r + 1) * 2 * hidden].split_at_mut(hidden);
        for k in 0..hidden {
            c_out[k] = f_v[k] * cp[k] + i_v[k] * cand[k];
        }
        for k in 0..hidden {
            h_out[k] = o_v[k] * crate::kernels::fast_tanh(c_out[k]);
        }
    }
    v
}

/// Backward pass of the fused LSTM cell. Gate activations are recomputed
/// from the saved pre-activations (bitwise the forward values, since the
/// same kernel runs on the same inputs); returns `(d_gates, d_c_prev)`.
fn lstm_cell_backward(grad: &Matrix, vg: &Matrix, vc: &Matrix, hidden: usize) -> (Matrix, Matrix) {
    let rows = vg.rows;
    let mut dg = Matrix::zeros(rows, 4 * hidden);
    let mut dc = Matrix::zeros(rows, hidden);
    let mut act = vec![0.0f32; 4 * hidden];
    let mut dct = vec![0.0f32; 2 * hidden];
    for r in 0..rows {
        let gr = &vg.data[r * 4 * hidden..(r + 1) * 4 * hidden];
        let cp = &vc.data[r * hidden..(r + 1) * hidden];
        let go = &grad.data[r * 2 * hidden..(r + 1) * 2 * hidden];
        cell_act(gr, &mut act, hidden);
        let (i_v, rest) = act.split_at(hidden);
        let (f_v, rest) = rest.split_at(hidden);
        let (cand, o_v) = rest.split_at(hidden);
        let (gh, gc) = go.split_at(hidden);
        let (ct, dc_total) = dct.split_at_mut(hidden);
        for k in 0..hidden {
            ct[k] = crate::kernels::fast_tanh(f_v[k] * cp[k] + i_v[k] * cand[k]);
        }
        for k in 0..hidden {
            dc_total[k] = gc[k] + gh[k] * o_v[k] * (1.0 - ct[k] * ct[k]);
        }
        let dgr = &mut dg.data[r * 4 * hidden..(r + 1) * 4 * hidden];
        let dcr = &mut dc.data[r * hidden..(r + 1) * hidden];
        for k in 0..hidden {
            dgr[k] = dc_total[k] * cand[k] * i_v[k] * (1.0 - i_v[k]);
            dgr[hidden + k] = dc_total[k] * cp[k] * f_v[k] * (1.0 - f_v[k]);
            dgr[2 * hidden + k] = dc_total[k] * i_v[k] * (1.0 - cand[k] * cand[k]);
            dgr[3 * hidden + k] = gh[k] * ct[k] * o_v[k] * (1.0 - o_v[k]);
            dcr[k] = dc_total[k] * f_v[k];
        }
    }
    (dg, dc)
}

impl Graph {
    /// Empty tape in record mode.
    pub fn new() -> Self {
        Graph {
            nodes: Vec::with_capacity(256),
            param_nodes: std::collections::HashMap::new(),
            prof_last_ns: 0,
            mode: Mode::Record,
        }
    }

    /// A graph that *replays* a compiled plan: the same builder code that
    /// recorded the plan re-executes against its arena, and
    /// [`Graph::into_plan`] recovers the plan afterwards for re-caching.
    /// Allocates nothing, except to reserve an arena that a plan-cache
    /// miss released.
    pub fn replay(mut plan: Plan) -> Self {
        plan.reserve();
        plan.param_memo.clear();
        Graph {
            nodes: Vec::new(),
            param_nodes: std::collections::HashMap::new(),
            prof_last_ns: 0,
            mode: Mode::Replay { plan, cursor: 0 },
        }
    }

    /// Finish the tape into a compiled [`Plan`] (record mode), or recover
    /// the replayed plan for re-caching (replay mode). `loss` names the
    /// node [`Graph::backward`] runs from, or `None` for forward-only
    /// (generation) plans.
    ///
    /// # Panics
    /// Panics in replay mode if the builder did not replay the full
    /// recorded op sequence — the plan key failed to determine the tape.
    pub fn into_plan(self, loss: Option<NodeId>) -> Plan {
        match self.mode {
            Mode::Record => crate::plan::compile(
                self.nodes
                    .into_iter()
                    .map(|n| crate::plan::Recorded {
                        op: n.op,
                        rows: n.value.rows,
                        cols: n.value.cols,
                        needs_grad: n.needs_grad,
                        ext: n.ext.get(),
                    })
                    .collect(),
                loss.map(|l| l.0),
            ),
            Mode::Replay { plan, cursor } => {
                assert_eq!(
                    cursor,
                    plan.len(),
                    "plan replay ended early: {cursor} of {} recorded steps ran; \
                     the plan cache key does not fully determine the op sequence",
                    plan.len()
                );
                plan
            }
        }
    }

    /// Replay-mode guard shared by the op constructors: match the op
    /// being built against the recorded step at the cursor (the `check`
    /// closure also refreshes per-step constants stored inside the op),
    /// advance, and evaluate the step into the arena. Returns `None` in
    /// record mode.
    fn r_step(
        &mut self,
        expect: &'static str,
        check: impl FnOnce(&mut Op) -> bool,
        extra: Option<&Matrix>,
    ) -> Option<NodeId> {
        let Mode::Replay { plan, cursor } = &mut self.mode else {
            return None;
        };
        let i = *cursor;
        plan.expect_step(i, expect);
        if !check(&mut plan.steps[i].op) {
            plan.diverged(i, expect);
        }
        *cursor = i + 1;
        plan.eval(i, extra);
        Some(NodeId(i))
    }

    /// Replay-mode guard for input-like leaves: the recorded step must be
    /// an `Input` with the same gradient flag and shape; its arena slot
    /// receives the fresh value.
    fn r_input(&mut self, value: &Matrix, needs_grad: bool) -> Option<NodeId> {
        let Mode::Replay { plan, cursor } = &mut self.mode else {
            return None;
        };
        let i = *cursor;
        plan.expect_step(i, "Input");
        if !matches!(plan.steps[i].op, Op::Input) || plan.steps[i].needs_grad != needs_grad {
            plan.diverged(i, "Input");
        }
        *cursor = i + 1;
        plan.write_value(i, value);
        Some(NodeId(i))
    }

    /// Replay-mode guard for parameter leaves: synchronize the plan's
    /// parameter slots against the store (version-gated, so unchanged
    /// stores cost one integer compare), then either return the memoized
    /// step for this id — mirroring record-mode memoization — or match
    /// and advance past the recorded `Param` step.
    fn r_param(&mut self, store: &ParamStore, id: ParamId) -> Option<NodeId> {
        let Mode::Replay { plan, cursor } = &mut self.mode else {
            return None;
        };
        plan.sync_params(store);
        if let Some(&(_, step)) = plan.param_memo.iter().find(|&&(pid, _)| pid == id) {
            return Some(NodeId(step as usize));
        }
        let i = *cursor;
        plan.expect_step(i, "Param");
        if !matches!(plan.steps[i].op, Op::Param(p) if p == id) {
            plan.diverged(i, "Param");
        }
        *cursor = i + 1;
        plan.param_memo.push((id, i as u32));
        Some(NodeId(i))
    }

    fn push(&mut self, op: Op, value: Matrix, needs_grad: bool) -> NodeId {
        if crate::sanitize::sanitize_enabled() {
            self.sanitize_forward(&op, &value);
        }
        if gendt_trace::trace_enabled() {
            self.profile_forward(&op, &value);
        }
        self.nodes.push(Node {
            op,
            value,
            grad: None,
            needs_grad,
            ext: std::cell::Cell::new(false),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Op-profiler forward hook: the wall time since the previous push
    /// completed is attributed to the op being recorded — every op's
    /// forward value is computed by its `Graph` constructor immediately
    /// before `push`, so the gap *is* that op's forward compute (plus
    /// negligible recording overhead). The first push of a tape gets a
    /// zero duration; it has no predecessor to measure from.
    fn profile_forward(&mut self, op: &Op, value: &Matrix) {
        let now = gendt_trace::now_ns();
        let dur = if self.prof_last_ns == 0 {
            0
        } else {
            now.saturating_sub(self.prof_last_ns)
        };
        let (flops, bytes) = self.op_cost(op, value);
        gendt_trace::record_op(op.name(), gendt_trace::Phase::Forward, dur, flops, bytes);
        self.prof_last_ns = gendt_trace::now_ns();
    }

    /// Order-of-magnitude FLOP and byte-traffic estimates for one op
    /// execution, from the shapes on the tape. MatMul is exact
    /// (`2·m·k·n`); elementwise and reduction ops count a few flops per
    /// element; bytes assume every input and the output move once.
    /// Backward visits reuse the same estimate — gradient kernels touch
    /// the same operands at the same shapes.
    fn op_cost(&self, op: &Op, out: &Matrix) -> (u64, u64) {
        let el = |id: &NodeId| self.nodes[id.0].value.data.len() as u64;
        let out_el = out.data.len() as u64;
        let in_el: u64 = op.inputs().iter().map(el).sum();
        let bytes = 4 * (in_el + out_el);
        let flops = match op {
            Op::Input | Op::Param(_) => 0,
            Op::MatMul(a, b) => {
                let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                2 * va.rows as u64 * va.cols as u64 * vb.cols as u64
            }
            // Transcendental activations: charge a handful of flops per
            // element for the polynomial kernels.
            Op::Sigmoid(_) | Op::Tanh(_) | Op::Exp(_) | Op::Softplus(_) => 8 * out_el,
            // Fused cell: 4 gate activations plus the state arithmetic.
            Op::LstmCell { gates, .. } => 12 * el(gates),
            Op::NoisyRenorm { .. } => 6 * out_el,
            Op::GaussianNll { mu, .. } => 8 * el(mu),
            Op::MseLoss(a, _) | Op::BceWithLogits(a, _) => 4 * el(a),
            _ => in_el.max(out_el),
        };
        (flops, bytes)
    }

    /// Sanitizer-mode forward check: every value recorded on the tape must
    /// have consistent shape metadata and contain only finite numbers.
    /// Panics with the offending op, its attributes, and the state of its
    /// inputs, so a NaN is caught at the op that *created* it rather than
    /// steps later in a loss or a checkpoint.
    fn sanitize_forward(&self, op: &Op, value: &Matrix) {
        if value.data.len() != value.rows * value.cols {
            panic!(
                "GENDT_SANITIZE: op {} (node {}) produced inconsistent shape metadata: \
                 {}x{} but {} elements{}",
                op.describe(),
                self.nodes.len(),
                value.rows,
                value.cols,
                value.data.len(),
                self.sanitize_inputs(op)
            );
        }
        if value.has_non_finite() {
            panic!(
                "GENDT_SANITIZE: op {} (node {}) produced a non-finite value (shape {}x{}){}",
                op.describe(),
                self.nodes.len(),
                value.rows,
                value.cols,
                self.sanitize_inputs(op)
            );
        }
    }

    /// One line per input node: op, shape, and whether it already holds
    /// non-finite values (i.e. whether the corruption is upstream).
    fn sanitize_inputs(&self, op: &Op) -> String {
        let mut s = String::new();
        for id in op.inputs() {
            let n = &self.nodes[id.0];
            s.push_str(&format!(
                "\n  input node {} = {} (shape {}x{}, non_finite={})",
                id.0,
                n.op.describe(),
                n.value.rows,
                n.value.cols,
                n.value.has_non_finite()
            ));
        }
        s
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.0].needs_grad
    }

    /// Forward value of a node.
    ///
    /// In record mode this also marks the node as *externally read*: the
    /// plan compiler pins such values in the arena so replays can serve
    /// the same read (any value a builder inspects mid-build — e.g. the
    /// generator's autoregressive feedback — must be read identically on
    /// every execution of the same plan key, which it is, being the same
    /// code).
    pub fn value(&self, id: NodeId) -> &Matrix {
        if let Mode::Replay { plan, cursor } = &self.mode {
            return plan.ext_value(id.0, *cursor);
        }
        let n = &self.nodes[id.0];
        n.ext.set(true);
        &n.value
    }

    /// The recorded operation of a node (for tape auditing).
    pub fn op(&self, id: NodeId) -> &Op {
        if let Mode::Replay { plan, .. } = &self.mode {
            return &plan.steps[id.0].op;
        }
        &self.nodes[id.0].op
    }

    /// Whether a node participates in gradient computation.
    pub fn node_needs_grad(&self, id: NodeId) -> bool {
        if let Mode::Replay { plan, .. } = &self.mode {
            return plan.steps[id.0].needs_grad;
        }
        self.nodes[id.0].needs_grad
    }

    /// All node ids on the tape, in recording order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// Gradient of a node after [`Graph::backward`]; `None` if it did not
    /// participate in the loss or does not require gradients.
    ///
    /// # Panics
    /// Panics in replay mode: plan execution keeps gradients in reused
    /// arena slots and does not retain them for inspection. Inspect
    /// gradients on a record-mode graph (the interpreted reference).
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        assert!(
            matches!(self.mode, Mode::Record),
            "node gradients are not inspectable in plan replay mode"
        );
        self.nodes[id.0].grad.as_ref()
    }

    /// Number of nodes recorded (or replayed) so far.
    pub fn len(&self) -> usize {
        if let Mode::Replay { cursor, .. } = &self.mode {
            return *cursor;
        }
        self.nodes.len()
    }

    /// True if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a constant (non-differentiable) input.
    pub fn input(&mut self, value: Matrix) -> NodeId {
        if let Some(n) = self.r_input(&value, false) {
            return n;
        }
        self.push(Op::Input, value, false)
    }

    /// Insert a constant input from a reference, avoiding the caller-side
    /// move (and, in replay mode, any allocation: the value is copied
    /// straight into the node's arena slot).
    pub fn input_ref(&mut self, value: &Matrix) -> NodeId {
        if let Some(n) = self.r_input(value, false) {
            return n;
        }
        self.push(Op::Input, value.clone(), false)
    }

    /// Insert a constant input that still receives a gradient (used by
    /// tests and by generator-through-discriminator plumbing).
    pub fn input_with_grad(&mut self, value: Matrix) -> NodeId {
        if let Some(n) = self.r_input(&value, true) {
            return n;
        }
        self.push(Op::Input, value, true)
    }

    /// Leaf a parameter into the graph. The backward pass accumulates its
    /// gradient into the store passed to [`Graph::backward`] — so a graph
    /// must only contain trainable params from ONE store; params of other
    /// models must enter via [`Graph::param_frozen`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if let Some(n) = self.r_param(store, id) {
            return n;
        }
        if let Some(&n) = self.param_nodes.get(&id) {
            return n;
        }
        let n = self.push(Op::Param(id), store.value(id).clone(), true);
        self.param_nodes.insert(id, n);
        n
    }

    /// Leaf a parameter as a frozen constant: gradients flow *through* ops
    /// using it (e.g. to the data side of a matmul) but the parameter
    /// itself receives no gradient. Used for the discriminator inside the
    /// generator's update graph.
    pub fn param_frozen(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if let Some(n) = self.r_input(store.value(id), false) {
            return n;
        }
        self.push(Op::Input, store.value(id).clone(), false)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "MatMul",
            |op| matches!(op, Op::MatMul(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.matmul(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MatMul(a, b), v, ng)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "Add",
            |op| matches!(op, Op::Add(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let mut v = self.nodes[a.0].value.clone();
        v.add_assign(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Add(a, b), v, ng)
    }

    /// Elementwise difference.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "Sub",
            |op| matches!(op, Op::Sub(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let data = va
            .data
            .iter()
            .zip(vb.data.iter())
            .map(|(&x, &y)| x - y)
            .collect();
        let v = Matrix::from_vec(va.rows, va.cols, data);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Sub(a, b), v, ng)
    }

    /// Hadamard product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "Mul",
            |op| matches!(op, Op::Mul(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let data = va
            .data
            .iter()
            .zip(vb.data.iter())
            .map(|(&x, &y)| x * y)
            .collect();
        let v = Matrix::from_vec(va.rows, va.cols, data);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::Mul(a, b), v, ng)
    }

    /// Bias add: `a + b` where `b` is a `1 x cols` row broadcast over rows.
    pub fn add_row(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "AddRow",
            |op| matches!(op, Op::AddRow(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(vb.rows, 1, "add_row: rhs must be a row vector");
        assert_eq!(va.cols, vb.cols, "add_row column mismatch");
        let mut v = va.clone();
        for r in 0..v.rows {
            for c in 0..v.cols {
                v.data[r * v.cols + c] += vb.data[c];
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::AddRow(a, b), v, ng)
    }

    /// Column broadcast multiply: `a * b` where `b` is `rows x 1`.
    pub fn mul_col(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "MulCol",
            |op| matches!(op, Op::MulCol(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(vb.cols, 1, "mul_col: rhs must be a column vector");
        assert_eq!(va.rows, vb.rows, "mul_col row mismatch");
        let mut v = va.clone();
        for r in 0..v.rows {
            let s = vb.data[r];
            for c in 0..v.cols {
                v.data[r * v.cols + c] *= s;
            }
        }
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MulCol(a, b), v, ng)
    }

    /// Scalar multiply.
    pub fn scale(&mut self, a: NodeId, s: f32) -> NodeId {
        if let Some(n) = self.r_step(
            "Scale",
            |op| matches!(op, Op::Scale(x, s0) if *x == a && *s0 == s),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.map(|x| x * s);
        let ng = self.needs(a);
        self.push(Op::Scale(a, s), v, ng)
    }

    /// Scalar add.
    pub fn offset(&mut self, a: NodeId, s: f32) -> NodeId {
        if let Some(n) = self.r_step(
            "Offset",
            |op| matches!(op, Op::Offset(x, s0) if *x == a && *s0 == s),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.map(|x| x + s);
        let ng = self.needs(a);
        self.push(Op::Offset(a, s), v, ng)
    }

    /// Elementwise sigmoid (vectorizable polynomial kernel).
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "Sigmoid",
            |op| matches!(op, Op::Sigmoid(x) if *x == a),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.map(crate::kernels::fast_sigmoid);
        let ng = self.needs(a);
        self.push(Op::Sigmoid(a), v, ng)
    }

    /// Elementwise tanh (vectorizable polynomial kernel).
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("Tanh", |op| matches!(op, Op::Tanh(x) if *x == a), None) {
            return n;
        }
        let v = self.nodes[a.0].value.map(crate::kernels::fast_tanh);
        let ng = self.needs(a);
        self.push(Op::Tanh(a), v, ng)
    }

    /// Leaky ReLU.
    pub fn leaky_relu(&mut self, a: NodeId, slope: f32) -> NodeId {
        if let Some(n) = self.r_step(
            "LeakyRelu",
            |op| matches!(op, Op::LeakyRelu(x, s0) if *x == a && *s0 == slope),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0]
            .value
            .map(|x| if x >= 0.0 { x } else { slope * x });
        let ng = self.needs(a);
        self.push(Op::LeakyRelu(a, slope), v, ng)
    }

    /// Elementwise exp (vectorizable polynomial kernel).
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("Exp", |op| matches!(op, Op::Exp(x) if *x == a), None) {
            return n;
        }
        let v = self.nodes[a.0].value.map(crate::kernels::fast_exp);
        let ng = self.needs(a);
        self.push(Op::Exp(a), v, ng)
    }

    /// Elementwise softplus, numerically stabilized.
    pub fn softplus(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "Softplus",
            |op| matches!(op, Op::Softplus(x) if *x == a),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.map(|x| {
            if x > 20.0 {
                x
            } else if x < -20.0 {
                x.exp()
            } else {
                (1.0 + x.exp()).ln()
            }
        });
        let ng = self.needs(a);
        self.push(Op::Softplus(a), v, ng)
    }

    /// Horizontal concatenation.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "ConcatCols",
            |op| matches!(op, Op::ConcatCols(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.concat_cols(&self.nodes[b.0].value);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::ConcatCols(a, b), v, ng)
    }

    /// Column slice `c0..c1`.
    pub fn slice_cols(&mut self, a: NodeId, c0: usize, c1: usize) -> NodeId {
        if let Some(n) = self.r_step(
            "SliceCols",
            |op| matches!(op, Op::SliceCols(x, a0, a1) if *x == a && *a0 == c0 && *a1 == c1),
            None,
        ) {
            return n;
        }
        let v = self.nodes[a.0].value.slice_cols(c0, c1);
        let ng = self.needs(a);
        self.push(Op::SliceCols(a, c0, c1), v, ng)
    }

    /// Rows `r0..r1` of `a` as a new `(r1-r0) x cols` node.
    ///
    /// # Panics
    /// Panics if the range is empty, out of order, or past the row count.
    pub fn slice_rows(&mut self, a: NodeId, r0: usize, r1: usize) -> NodeId {
        if let Some(n) = self.r_step(
            "SliceRows",
            |op| matches!(op, Op::SliceRows(x, a0, a1) if *x == a && *a0 == r0 && *a1 == r1),
            None,
        ) {
            return n;
        }
        let va = &self.nodes[a.0].value;
        assert!(
            r0 < r1 && r1 <= va.rows,
            "slice_rows: bad range {r0}..{r1} of {}",
            va.rows
        );
        let cols = va.cols;
        let v = Matrix::from_vec(r1 - r0, cols, va.data[r0 * cols..r1 * cols].to_vec());
        let ng = self.needs(a);
        self.push(Op::SliceRows(a, r0, r1), v, ng)
    }

    /// Row-wise sum, yielding a `rows x 1` column vector.
    pub fn row_sum(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("RowSum", |op| matches!(op, Op::RowSum(x) if *x == a), None) {
            return n;
        }
        let va = &self.nodes[a.0].value;
        let data = (0..va.rows).map(|r| va.row_slice(r).iter().sum()).collect();
        let v = Matrix::from_vec(va.rows, 1, data);
        let ng = self.needs(a);
        self.push(Op::RowSum(a), v, ng)
    }

    /// Sum each consecutive group of `group` rows, reducing a
    /// `(r * group) x c` matrix to `r x c`. Used by the cell-packed
    /// generator forward to collapse the `max_cells` cell slots packed
    /// into the batch dimension back to one row per window.
    ///
    /// Accumulation is group-index-ascending per element, matching a
    /// left-associated chain of [`Graph::add`] over the group's rows
    /// bit for bit.
    ///
    /// # Panics
    /// Panics if `group == 0` or the row count is not divisible by it.
    pub fn sum_row_groups(&mut self, a: NodeId, group: usize) -> NodeId {
        if let Some(n) = self.r_step(
            "SumRowGroups",
            |op| matches!(op, Op::SumRowGroups(x, g0) if *x == a && *g0 == group),
            None,
        ) {
            return n;
        }
        let va = &self.nodes[a.0].value;
        assert!(group > 0, "sum_row_groups: group must be positive");
        assert_eq!(
            va.rows % group,
            0,
            "sum_row_groups: rows not divisible by group"
        );
        let rows = va.rows / group;
        let cols = va.cols;
        let mut v = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for j in 0..group {
                let src = (r * group + j) * cols;
                let dst = r * cols;
                for c in 0..cols {
                    v.data[dst + c] += va.data[src + c];
                }
            }
        }
        let ng = self.needs(a);
        self.push(Op::SumRowGroups(a, group), v, ng)
    }

    /// Fused LSTM cell update: consumes the pre-activation gate matrix
    /// (`rows x 4*hidden`, column blocks ordered `[i | f | g | o]`) and the
    /// previous cell state (`rows x hidden`), producing `[h_new | c_new]`
    /// as a `rows x 2*hidden` matrix.
    ///
    /// One graph node replaces the dozen slice/activation/mul/add nodes of
    /// the op-by-op composition; the scalar arithmetic is identical, so the
    /// values (and hence the training trajectory) are bitwise-equal to the
    /// unfused form.
    ///
    /// # Panics
    /// Panics if `hidden == 0` or the shapes are inconsistent.
    pub fn lstm_cell(&mut self, gates: NodeId, c_prev: NodeId, hidden: usize) -> NodeId {
        if let Some(n) = self.r_step(
            "LstmCell",
            |op| {
                matches!(op, Op::LstmCell { gates: g0, c_prev: c0, hidden: h0 }
                    if *g0 == gates && *c0 == c_prev && *h0 == hidden)
            },
            None,
        ) {
            return n;
        }
        let (vg, vc) = (&self.nodes[gates.0].value, &self.nodes[c_prev.0].value);
        assert!(hidden > 0, "lstm_cell: hidden must be positive");
        assert_eq!(
            vg.cols,
            4 * hidden,
            "lstm_cell: gates must be rows x 4*hidden"
        );
        assert_eq!(
            vc.shape(),
            (vg.rows, hidden),
            "lstm_cell: c_prev shape mismatch"
        );
        let v = lstm_cell_forward(vg, vc, hidden);
        let ng = self.needs(gates) || self.needs(c_prev);
        self.push(
            Op::LstmCell {
                gates,
                c_prev,
                hidden,
            },
            v,
            ng,
        )
    }

    /// Fused SRNN noisy renormalization (paper appendix A.2), one node in
    /// place of the nine-op composition built from `scale`/`add`/`row_sum`/
    /// `offset`/`mul`/`mul_col`.
    ///
    /// Per row `r` with mean `m_r` of `x`'s row: the noise `n = u * m_r`
    /// enters as a constant, the output is `(x + a*n) * ratio_r` with
    /// `ratio_r = (rowsum(x)+1e-3) / (rowsum(x+a*n)+1e-3)`, and — exactly
    /// like the unfused form — the gradient flows through `x` and the
    /// numerator's row sum only, the denominator being a constant snapshot.
    /// Forward values and gradients are bitwise-equal to the composition.
    ///
    /// # Panics
    /// Panics if `u`'s shape differs from `x`'s.
    pub fn noisy_renorm(&mut self, x: NodeId, a: f32, u: &Matrix) -> NodeId {
        if let Some(n) = self.r_step(
            "NoisyRenorm",
            |op| {
                matches!(op, Op::NoisyRenorm { x: x0, a: a0, noise }
                    if *x0 == x && *a0 == a && noise.shape() == u.shape())
            },
            Some(u),
        ) {
            return n;
        }
        let vx = &self.nodes[x.0].value;
        assert_eq!(u.shape(), vx.shape(), "noisy_renorm: noise shape mismatch");
        let (rows, cols) = vx.shape();
        let mut noise = Matrix::zeros(rows, cols);
        let mut v = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let xr = &vx.data[r * cols..(r + 1) * cols];
            let ur = &u.data[r * cols..(r + 1) * cols];
            let nr = &mut noise.data[r * cols..(r + 1) * cols];
            let out = &mut v.data[r * cols..(r + 1) * cols];
            let mean = xr.iter().sum::<f32>() / cols.max(1) as f32;
            for c in 0..cols {
                nr[c] = ur[c] * mean;
            }
            // out first holds the perturbed row, then is scaled in place.
            for c in 0..cols {
                out[c] = xr[c] + nr[c] * a;
            }
            let sx: f32 = xr.iter().sum();
            let sp: f32 = out.iter().sum();
            let ratio = (sx + 1e-3) * (1.0 / (sp + 1e-3));
            for o in out.iter_mut() {
                *o *= ratio;
            }
        }
        let ng = self.needs(x);
        self.push(Op::NoisyRenorm { x, a, noise }, v, ng)
    }

    /// `(a + b) + row_broadcast(bias)` as a single node — the LSTM gate
    /// assembly `x·W_ih + h·W_hh + b` without the intermediate `add` node.
    /// Values and gradients are bitwise-equal to `add` + `add_row`.
    ///
    /// # Panics
    /// Panics on shape mismatch or if `bias` is not `1 x cols`.
    pub fn add_add_row(&mut self, a: NodeId, b: NodeId, bias: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "AddAddRow",
            |op| matches!(op, Op::AddAddRow(x, y, z) if *x == a && *y == b && *z == bias),
            None,
        ) {
            return n;
        }
        let (va, vb, vbias) = (
            &self.nodes[a.0].value,
            &self.nodes[b.0].value,
            &self.nodes[bias.0].value,
        );
        assert_eq!(va.shape(), vb.shape(), "add_add_row shape mismatch");
        assert_eq!(vbias.rows, 1, "add_add_row: bias must be a row vector");
        assert_eq!(va.cols, vbias.cols, "add_add_row bias column mismatch");
        let mut v = Matrix::zeros(va.rows, va.cols);
        for r in 0..va.rows {
            let ar = &va.data[r * va.cols..(r + 1) * va.cols];
            let br = &vb.data[r * va.cols..(r + 1) * va.cols];
            let out = &mut v.data[r * va.cols..(r + 1) * va.cols];
            for c in 0..va.cols {
                out[c] = (ar[c] + br[c]) + vbias.data[c];
            }
        }
        let ng = self.needs(a) || self.needs(b) || self.needs(bias);
        self.push(Op::AddAddRow(a, b, bias), v, ng)
    }

    /// Masked group mean over packed rows: multiply each row of `x` by the
    /// constant column `mask` (`rows x 1`), sum consecutive groups of
    /// `group` rows, and scale the reduced rows by the constant column
    /// `scale` (`rows/group x 1`). One node in place of
    /// `mul_col` + `sum_row_groups` + `mul_col`, bitwise-equal to it.
    ///
    /// # Panics
    /// Panics if the shapes or the group size are inconsistent.
    pub fn masked_group_mean(
        &mut self,
        x: NodeId,
        mask: &Matrix,
        scale: &Matrix,
        group: usize,
    ) -> NodeId {
        if let Some(n) = self.r_step(
            "MaskedGroupMean",
            |op| match op {
                Op::MaskedGroupMean {
                    x: x0,
                    mask: m0,
                    scale: s0,
                    group: g0,
                } if *x0 == x
                    && *g0 == group
                    && m0.shape() == mask.shape()
                    && s0.shape() == scale.shape() =>
                {
                    // The mask and scale columns vary per batch (padding
                    // pattern); refresh the recorded constants in place.
                    m0.data.copy_from_slice(&mask.data);
                    s0.data.copy_from_slice(&scale.data);
                    true
                }
                _ => false,
            },
            None,
        ) {
            return n;
        }
        let vx = &self.nodes[x.0].value;
        assert!(group > 0, "masked_group_mean: group must be positive");
        assert_eq!(
            vx.rows % group,
            0,
            "masked_group_mean: rows not divisible by group"
        );
        let rows = vx.rows / group;
        let cols = vx.cols;
        assert_eq!(mask.shape(), (vx.rows, 1), "masked_group_mean: mask shape");
        assert_eq!(scale.shape(), (rows, 1), "masked_group_mean: scale shape");
        let mut v = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let out = &mut v.data[r * cols..(r + 1) * cols];
            for j in 0..group {
                let src = (r * group + j) * cols;
                let m = mask.data[r * group + j];
                for (o, x) in out.iter_mut().zip(&vx.data[src..src + cols]) {
                    *o += x * m;
                }
            }
            let s = scale.data[r];
            for o in out.iter_mut() {
                *o *= s;
            }
        }
        let ng = self.needs(x);
        self.push(
            Op::MaskedGroupMean {
                x,
                mask: mask.clone(),
                scale: scale.clone(),
                group,
            },
            v,
            ng,
        )
    }

    /// Mean of all elements as a `1 x 1` scalar node.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("Mean", |op| matches!(op, Op::Mean(x) if *x == a), None) {
            return n;
        }
        let v = Matrix::from_vec(1, 1, vec![self.nodes[a.0].value.mean()]);
        let ng = self.needs(a);
        self.push(Op::Mean(a), v, ng)
    }

    /// Mean-squared-error loss `mean((a - b)^2)`.
    pub fn mse_loss(&mut self, a: NodeId, b: NodeId) -> NodeId {
        if let Some(n) = self.r_step(
            "MseLoss",
            |op| matches!(op, Op::MseLoss(x, y) if *x == a && *y == b),
            None,
        ) {
            return n;
        }
        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(va.shape(), vb.shape(), "mse_loss shape mismatch");
        let n = va.data.len().max(1) as f32;
        let s: f32 = va
            .data
            .iter()
            .zip(vb.data.iter())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum();
        let v = Matrix::from_vec(1, 1, vec![s / n]);
        let ng = self.needs(a) || self.needs(b);
        self.push(Op::MseLoss(a, b), v, ng)
    }

    /// Binary cross-entropy with logits against constant targets in `[0,1]`.
    ///
    /// Numerically stable formulation
    /// `max(x,0) - x*t + ln(1 + e^{-|x|})`.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: Matrix) -> NodeId {
        if let Some(n) = self.r_step(
            "BceWithLogits",
            |op| match op {
                Op::BceWithLogits(l0, t0) if *l0 == logits && t0.shape() == targets.shape() => {
                    t0.data.copy_from_slice(&targets.data);
                    true
                }
                _ => false,
            },
            None,
        ) {
            return n;
        }
        let vl = &self.nodes[logits.0].value;
        assert_eq!(vl.shape(), targets.shape(), "bce shape mismatch");
        let n = vl.data.len().max(1) as f32;
        let s: f32 = vl
            .data
            .iter()
            .zip(targets.data.iter())
            .map(|(&x, &t)| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln())
            .sum();
        let v = Matrix::from_vec(1, 1, vec![s / n]);
        let ng = self.needs(logits);
        self.push(Op::BceWithLogits(logits, targets), v, ng)
    }

    /// Weighted sum of `1 x 1` scalar nodes (loss combination).
    pub fn weighted_sum(&mut self, terms: Vec<(NodeId, f32)>) -> NodeId {
        if let Some(n) = self.r_step(
            "WeightedSum",
            |op| matches!(op, Op::WeightedSum(t0) if *t0 == terms),
            None,
        ) {
            return n;
        }
        let mut s = 0.0;
        let mut ng = false;
        for &(id, w) in &terms {
            let v = &self.nodes[id.0].value;
            assert_eq!(v.shape(), (1, 1), "weighted_sum expects scalar nodes");
            s += w * v.data[0];
            ng |= self.needs(id);
        }
        let v = Matrix::from_vec(1, 1, vec![s]);
        self.push(Op::WeightedSum(terms), v, ng)
    }

    /// Mean Gaussian negative log-likelihood of `target` under `N(mu, sigma)`.
    ///
    /// `sigma` must be elementwise positive (pass it through
    /// [`Graph::softplus`] plus a floor first).
    pub fn gaussian_nll(&mut self, mu: NodeId, sigma: NodeId, target: Matrix) -> NodeId {
        if let Some(n) = self.r_step(
            "GaussianNll",
            |op| match op {
                Op::GaussianNll {
                    mu: m0,
                    sigma: s0,
                    target: t0,
                } if *m0 == mu && *s0 == sigma && t0.shape() == target.shape() => {
                    t0.data.copy_from_slice(&target.data);
                    true
                }
                _ => false,
            },
            None,
        ) {
            return n;
        }
        let (vm, vs) = (&self.nodes[mu.0].value, &self.nodes[sigma.0].value);
        assert_eq!(vm.shape(), vs.shape(), "gaussian_nll mu/sigma mismatch");
        assert_eq!(vm.shape(), target.shape(), "gaussian_nll target mismatch");
        let n = vm.data.len().max(1) as f32;
        let mut s = 0.0;
        for i in 0..vm.data.len() {
            let m = vm.data[i];
            let sd = vs.data[i].max(1e-6);
            let t = target.data[i];
            s += sd.ln() + 0.5 * ((t - m) / sd).powi(2);
        }
        let v = Matrix::from_vec(1, 1, vec![s / n]);
        let ng = self.needs(mu) || self.needs(sigma);
        self.push(Op::GaussianNll { mu, sigma, target }, v, ng)
    }

    fn accum(&mut self, id: NodeId, g: Matrix) {
        if !self.nodes[id.0].needs_grad {
            return;
        }
        if crate::sanitize::sanitize_enabled() && g.has_non_finite() {
            panic!(
                "GENDT_SANITIZE: non-finite gradient flowing into node {} ({}, shape {}x{})",
                id.0,
                self.nodes[id.0].op.describe(),
                self.nodes[id.0].value.rows,
                self.nodes[id.0].value.cols
            );
        }
        match &mut self.nodes[id.0].grad {
            Some(existing) => existing.add_assign(&g),
            slot @ None => *slot = Some(g),
        }
    }

    /// Run the backward pass from a scalar `1 x 1` loss node, pushing
    /// parameter gradients into `store`.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        if let Mode::Replay { plan, cursor } = &mut self.mode {
            assert!(
                loss.0 < *cursor,
                "plan replay: backward from node {} but only {} steps replayed",
                loss.0,
                cursor
            );
            plan.backward(loss.0, store);
            return;
        }
        assert_eq!(
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward needs a scalar loss"
        );
        self.nodes[loss.0].grad = Some(Matrix::from_vec(1, 1, vec![1.0]));
        for i in (0..=loss.0).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.take() else {
                continue;
            };
            // Re-insert so callers can inspect grads after backward.
            self.nodes[i].grad = Some(g.clone());
            let op = self.nodes[i].op.clone();
            // Op profiler: time this op's gradient computation. Cost is
            // estimated before the match because the op moves into it.
            let prof = if gendt_trace::trace_enabled() {
                let (flops, bytes) = self.op_cost(&op, &self.nodes[i].value);
                Some((op.name(), flops, bytes, gendt_trace::now_ns()))
            } else {
                None
            };
            match op {
                Op::Input => {}
                Op::Param(pid) => store.accumulate_grad(pid, &g),
                Op::MatMul(a, b) => {
                    if self.needs(a) {
                        let ga = g.matmul_nt(&self.nodes[b.0].value);
                        self.accum(a, ga);
                    }
                    if self.needs(b) {
                        let gb = self.nodes[a.0].value.matmul_tn(&g);
                        self.accum(b, gb);
                    }
                }
                Op::Add(a, b) => {
                    self.accum(a, g.clone());
                    self.accum(b, g);
                }
                Op::Sub(a, b) => {
                    self.accum(a, g.clone());
                    self.accum(b, g.map(|x| -x));
                }
                Op::Mul(a, b) => {
                    if self.needs(a) {
                        let vb = &self.nodes[b.0].value;
                        let data = g
                            .data
                            .iter()
                            .zip(vb.data.iter())
                            .map(|(&x, &y)| x * y)
                            .collect();
                        self.accum(a, Matrix::from_vec(g.rows, g.cols, data));
                    }
                    if self.needs(b) {
                        let va = &self.nodes[a.0].value;
                        let data = g
                            .data
                            .iter()
                            .zip(va.data.iter())
                            .map(|(&x, &y)| x * y)
                            .collect();
                        self.accum(b, Matrix::from_vec(g.rows, g.cols, data));
                    }
                }
                Op::AddRow(a, b) => {
                    if self.needs(a) {
                        self.accum(a, g.clone());
                    }
                    if self.needs(b) {
                        let mut gb = Matrix::zeros(1, g.cols);
                        for r in 0..g.rows {
                            for c in 0..g.cols {
                                gb.data[c] += g.data[r * g.cols + c];
                            }
                        }
                        self.accum(b, gb);
                    }
                }
                Op::MulCol(a, b) => {
                    if self.needs(a) {
                        let vb = &self.nodes[b.0].value;
                        let mut ga = g.clone();
                        for r in 0..ga.rows {
                            let s = vb.data[r];
                            for c in 0..ga.cols {
                                ga.data[r * ga.cols + c] *= s;
                            }
                        }
                        self.accum(a, ga);
                    }
                    if self.needs(b) {
                        let va = &self.nodes[a.0].value;
                        let mut gb = Matrix::zeros(g.rows, 1);
                        for r in 0..g.rows {
                            let mut acc = 0.0;
                            for c in 0..g.cols {
                                acc += g.data[r * g.cols + c] * va.data[r * va.cols + c];
                            }
                            gb.data[r] = acc;
                        }
                        self.accum(b, gb);
                    }
                }
                Op::Scale(a, s) => self.accum(a, g.map(|x| x * s)),
                Op::Offset(a, _) => self.accum(a, g),
                Op::Sigmoid(a) => {
                    let y = &self.nodes[i].value;
                    let data = g
                        .data
                        .iter()
                        .zip(y.data.iter())
                        .map(|(&gi, &yi)| gi * yi * (1.0 - yi))
                        .collect();
                    self.accum(a, Matrix::from_vec(g.rows, g.cols, data));
                }
                Op::Tanh(a) => {
                    let y = &self.nodes[i].value;
                    let data = g
                        .data
                        .iter()
                        .zip(y.data.iter())
                        .map(|(&gi, &yi)| gi * (1.0 - yi * yi))
                        .collect();
                    self.accum(a, Matrix::from_vec(g.rows, g.cols, data));
                }
                Op::LeakyRelu(a, slope) => {
                    let x = &self.nodes[a.0].value;
                    let data = g
                        .data
                        .iter()
                        .zip(x.data.iter())
                        .map(|(&gi, &xi)| if xi >= 0.0 { gi } else { gi * slope })
                        .collect();
                    self.accum(a, Matrix::from_vec(g.rows, g.cols, data));
                }
                Op::Exp(a) => {
                    let y = &self.nodes[i].value;
                    let data = g
                        .data
                        .iter()
                        .zip(y.data.iter())
                        .map(|(&gi, &yi)| gi * yi)
                        .collect();
                    self.accum(a, Matrix::from_vec(g.rows, g.cols, data));
                }
                Op::Softplus(a) => {
                    let x = &self.nodes[a.0].value;
                    let data = g
                        .data
                        .iter()
                        .zip(x.data.iter())
                        .map(|(&gi, &xi)| gi * stable_sigmoid(xi))
                        .collect();
                    self.accum(a, Matrix::from_vec(g.rows, g.cols, data));
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.nodes[a.0].value.cols;
                    if self.needs(a) {
                        self.accum(a, g.slice_cols(0, ca));
                    }
                    if self.needs(b) {
                        self.accum(b, g.slice_cols(ca, g.cols));
                    }
                }
                Op::SliceCols(a, c0, c1) => {
                    let va_shape = self.nodes[a.0].value.shape();
                    let mut ga = Matrix::zeros(va_shape.0, va_shape.1);
                    for r in 0..g.rows {
                        for (k, c) in (c0..c1).enumerate() {
                            ga.data[r * va_shape.1 + c] = g.data[r * g.cols + k];
                        }
                    }
                    self.accum(a, ga);
                }
                Op::SliceRows(a, r0, r1) => {
                    let va_shape = self.nodes[a.0].value.shape();
                    let mut ga = Matrix::zeros(va_shape.0, va_shape.1);
                    let cols = va_shape.1;
                    ga.data[r0 * cols..r1 * cols].copy_from_slice(&g.data);
                    self.accum(a, ga);
                }
                Op::RowSum(a) => {
                    let va_shape = self.nodes[a.0].value.shape();
                    let mut ga = Matrix::zeros(va_shape.0, va_shape.1);
                    for r in 0..va_shape.0 {
                        let s = g.data[r];
                        for c in 0..va_shape.1 {
                            ga.data[r * va_shape.1 + c] = s;
                        }
                    }
                    self.accum(a, ga);
                }
                Op::SumRowGroups(a, group) => {
                    let (rows, cols) = self.nodes[a.0].value.shape();
                    let mut ga = Matrix::zeros(rows, cols);
                    for r in 0..g.rows {
                        let src = &g.data[r * cols..(r + 1) * cols];
                        for j in 0..group {
                            ga.data[(r * group + j) * cols..(r * group + j + 1) * cols]
                                .copy_from_slice(src);
                        }
                    }
                    self.accum(a, ga);
                }
                Op::LstmCell {
                    gates,
                    c_prev,
                    hidden,
                } => {
                    let (dg, dc) = lstm_cell_backward(
                        &g,
                        &self.nodes[gates.0].value,
                        &self.nodes[c_prev.0].value,
                        hidden,
                    );
                    if self.needs(gates) {
                        self.accum(gates, dg);
                    }
                    if self.needs(c_prev) {
                        self.accum(c_prev, dc);
                    }
                }
                Op::NoisyRenorm { x, a, noise } => {
                    let (rows, cols) = noise.shape();
                    let mut dx = Matrix::zeros(rows, cols);
                    {
                        let vx = &self.nodes[x.0].value;
                        for r in 0..rows {
                            let xr = &vx.data[r * cols..(r + 1) * cols];
                            let nr = &noise.data[r * cols..(r + 1) * cols];
                            let gr = &g.data[r * cols..(r + 1) * cols];
                            let dr = &mut dx.data[r * cols..(r + 1) * cols];
                            // Recompute the perturbed row and both row sums
                            // (bitwise the forward values — same code, same
                            // inputs), then combine the mul_col and row_sum
                            // paths of the unfused composition.
                            for c in 0..cols {
                                dr[c] = xr[c] + nr[c] * a;
                            }
                            let sx: f32 = xr.iter().sum();
                            let sp: f32 = dr.iter().sum();
                            let rden = 1.0 / (sp + 1e-3);
                            let ratio = (sx + 1e-3) * rden;
                            let dot: f32 = gr.iter().zip(dr.iter()).map(|(&gi, &pi)| gi * pi).sum();
                            let ds = dot * rden;
                            for c in 0..cols {
                                dr[c] = gr[c] * ratio + ds;
                            }
                        }
                    }
                    self.accum(x, dx);
                }
                Op::AddAddRow(a, b, bias) => {
                    if self.needs(a) {
                        self.accum(a, g.clone());
                    }
                    if self.needs(b) {
                        self.accum(b, g.clone());
                    }
                    if self.needs(bias) {
                        let mut gb = Matrix::zeros(1, g.cols);
                        for r in 0..g.rows {
                            for c in 0..g.cols {
                                gb.data[c] += g.data[r * g.cols + c];
                            }
                        }
                        self.accum(bias, gb);
                    }
                }
                Op::MaskedGroupMean {
                    x,
                    mask,
                    scale,
                    group,
                } => {
                    let (rows, cols) = self.nodes[x.0].value.shape();
                    let mut dx = Matrix::zeros(rows, cols);
                    for r in 0..g.rows {
                        let gr = &g.data[r * cols..(r + 1) * cols];
                        let s = scale.data[r];
                        for j in 0..group {
                            let row = r * group + j;
                            let m = mask.data[row];
                            let dr = &mut dx.data[row * cols..(row + 1) * cols];
                            for c in 0..cols {
                                dr[c] = (gr[c] * s) * m;
                            }
                        }
                    }
                    self.accum(x, dx);
                }
                Op::Mean(a) => {
                    let va_shape = self.nodes[a.0].value.shape();
                    let n = (va_shape.0 * va_shape.1).max(1) as f32;
                    let ga = Matrix::full(va_shape.0, va_shape.1, g.data[0] / n);
                    self.accum(a, ga);
                }
                Op::MseLoss(a, b) => {
                    let (ga_mat, gb_mat) = {
                        let (va, vb) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                        let n = va.data.len().max(1) as f32;
                        let s = 2.0 * g.data[0] / n;
                        let diff: Vec<f32> = va
                            .data
                            .iter()
                            .zip(vb.data.iter())
                            .map(|(&x, &y)| s * (x - y))
                            .collect();
                        let ga = Matrix::from_vec(va.rows, va.cols, diff.clone());
                        let gb =
                            Matrix::from_vec(va.rows, va.cols, diff.iter().map(|&d| -d).collect());
                        (ga, gb)
                    };
                    if self.needs(a) {
                        self.accum(a, ga_mat);
                    }
                    if self.needs(b) {
                        self.accum(b, gb_mat);
                    }
                }
                Op::BceWithLogits(l, targets) => {
                    let vl = &self.nodes[l.0].value;
                    let n = vl.data.len().max(1) as f32;
                    let s = g.data[0] / n;
                    let data = vl
                        .data
                        .iter()
                        .zip(targets.data.iter())
                        .map(|(&x, &t)| s * (stable_sigmoid(x) - t))
                        .collect();
                    self.accum(l, Matrix::from_vec(vl.rows, vl.cols, data));
                }
                Op::WeightedSum(terms) => {
                    for (id, w) in terms {
                        self.accum(id, Matrix::from_vec(1, 1, vec![g.data[0] * w]));
                    }
                }
                Op::GaussianNll { mu, sigma, target } => {
                    let (gmu, gsigma) = {
                        let (vm, vs) = (&self.nodes[mu.0].value, &self.nodes[sigma.0].value);
                        let n = vm.data.len().max(1) as f32;
                        let s = g.data[0] / n;
                        let gmu_data: Vec<f32> = (0..vm.data.len())
                            .map(|k| {
                                let sd = vs.data[k].max(1e-6);
                                s * (vm.data[k] - target.data[k]) / (sd * sd)
                            })
                            .collect();
                        let gsigma_data: Vec<f32> = (0..vm.data.len())
                            .map(|k| {
                                let sd = vs.data[k].max(1e-6);
                                let d = target.data[k] - vm.data[k];
                                s * (1.0 / sd - d * d / (sd * sd * sd))
                            })
                            .collect();
                        (
                            Matrix::from_vec(vm.rows, vm.cols, gmu_data),
                            Matrix::from_vec(vs.rows, vs.cols, gsigma_data),
                        )
                    };
                    if self.needs(mu) {
                        self.accum(mu, gmu);
                    }
                    if self.needs(sigma) {
                        self.accum(sigma, gsigma);
                    }
                }
            }
            if let Some((name, flops, bytes, t0)) = prof {
                let dur = gendt_trace::now_ns().saturating_sub(t0);
                gendt_trace::record_op(name, gendt_trace::Phase::Backward, dur, flops, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// Finite-difference check of d loss / d w for a scalar function builder.
    fn check_grad(build: impl Fn(&mut Graph, &ParamStore, ParamId) -> NodeId) {
        let mut rng = Rng::seed_from(123);
        let mut store = ParamStore::new();
        let data: Vec<f32> = (0..6).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
        let w = store.add("w", Matrix::from_vec(2, 3, data));

        // Analytic gradient.
        store.zero_grad();
        let mut g = Graph::new();
        let loss = build(&mut g, &store, w);
        g.backward(loss, &mut store);
        let analytic = store.grad(w).clone();

        // Finite differences.
        let eps = 1e-3f32;
        for k in 0..6 {
            let orig = store.value(w).data[k];
            store.value_mut(w).data[k] = orig + eps;
            let mut gp = Graph::new();
            let lp = build(&mut gp, &store, w);
            let fp = gp.value(lp).data[0];
            store.value_mut(w).data[k] = orig - eps;
            let mut gm = Graph::new();
            let lm = build(&mut gm, &store, w);
            let fm = gm.value(lm).data[0];
            store.value_mut(w).data[k] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.data[k];
            assert!(
                (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                "grad mismatch at {k}: analytic {a}, numeric {numeric}"
            );
        }
    }

    #[test]
    fn grad_matmul_mean() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let x = g.input(Matrix::from_vec(3, 2, vec![0.3, -0.2, 0.5, 0.7, -0.1, 0.4]));
            let y = g.matmul(wn, x);
            g.mean(y)
        });
    }

    #[test]
    fn grad_sigmoid_tanh_chain() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let a = g.sigmoid(wn);
            let b = g.tanh(a);
            g.mean(b)
        });
    }

    #[test]
    fn grad_leaky_relu_exp_softplus() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let a = g.leaky_relu(wn, 0.1);
            let b = g.softplus(a);
            let c = g.exp(b);
            g.mean(c)
        });
    }

    #[test]
    fn grad_mse_loss() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let target = g.input(Matrix::from_vec(2, 3, vec![0.1; 6]));
            g.mse_loss(wn, target)
        });
    }

    #[test]
    fn grad_bce_with_logits() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            g.bce_with_logits(
                wn,
                Matrix::from_vec(2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]),
            )
        });
    }

    #[test]
    fn grad_gaussian_nll() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let mu = g.slice_cols(wn, 0, 3); // rows 2 cols 3 -> use whole as mu
            let raw = g.scale(wn, 0.5);
            let sp = g.softplus(raw);
            let sigma = g.offset(sp, 0.1);
            g.gaussian_nll(mu, sigma, Matrix::from_vec(2, 3, vec![0.2; 6]))
        });
    }

    #[test]
    fn grad_concat_slice_rowsum() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let x = g.input(Matrix::from_vec(2, 2, vec![0.4, -0.3, 0.2, 0.8]));
            let cat = g.concat_cols(wn, x); // 2 x 5
            let sl = g.slice_cols(cat, 1, 4);
            let rs = g.row_sum(sl);
            g.mean(rs)
        });
    }

    #[test]
    fn grad_sum_row_groups() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w); // 2 x 3, group = 2 -> 1 x 3
            let sum = g.sum_row_groups(wn, 2);
            let t = g.tanh(sum);
            g.mean(t)
        });
    }

    #[test]
    fn grad_lstm_cell() {
        // Gradients flow through both the gates and the previous cell state.
        check_grad(|g, s, w| {
            let wn = g.param(s, w); // 2 x 3
            let k = g.input(Matrix::from_vec(
                3,
                4,
                (0..12).map(|i| 0.3 - 0.07 * i as f32).collect(),
            ));
            let gates = g.matmul(wn, k); // 2 x 4, hidden = 1
            let c_prev = g.slice_cols(wn, 0, 1); // 2 x 1
            let hc = g.lstm_cell(gates, c_prev, 1);
            g.mean(hc)
        });
    }

    #[test]
    fn lstm_cell_matches_unfused_bitwise() {
        let mut rng = Rng::seed_from(29);
        let h = 5;
        let rows = 4;
        let gates_m = Matrix::from_vec(
            rows,
            4 * h,
            (0..rows * 4 * h)
                .map(|_| rng.uniform(-3.0, 3.0) as f32)
                .collect(),
        );
        let c_m = Matrix::from_vec(
            rows,
            h,
            (0..rows * h)
                .map(|_| rng.uniform(-1.0, 1.0) as f32)
                .collect(),
        );

        let mut g = Graph::new();
        let gates = g.input(gates_m.clone());
        let c_prev = g.input(c_m.clone());
        let hc = g.lstm_cell(gates, c_prev, h);

        // Unfused reference composition on the same kernels.
        let mut g2 = Graph::new();
        let gates2 = g2.input(gates_m);
        let c_prev2 = g2.input(c_m);
        let i_g = g2.slice_cols(gates2, 0, h);
        let f_g = g2.slice_cols(gates2, h, 2 * h);
        let g_g = g2.slice_cols(gates2, 2 * h, 3 * h);
        let o_g = g2.slice_cols(gates2, 3 * h, 4 * h);
        let i = g2.sigmoid(i_g);
        let f = g2.sigmoid(f_g);
        let cand = g2.tanh(g_g);
        let o = g2.sigmoid(o_g);
        let fc = g2.mul(f, c_prev2);
        let ig = g2.mul(i, cand);
        let c_new = g2.add(fc, ig);
        let c_tanh = g2.tanh(c_new);
        let h_new = g2.mul(o, c_tanh);

        let fused = g.value(hc);
        for r in 0..rows {
            assert_eq!(
                &fused.data[r * 2 * h..r * 2 * h + h],
                &g2.value(h_new).data[r * h..(r + 1) * h],
                "h row {r}"
            );
            assert_eq!(
                &fused.data[r * 2 * h + h..(r + 1) * 2 * h],
                &g2.value(c_new).data[r * h..(r + 1) * h],
                "c row {r}"
            );
        }
    }

    #[test]
    fn grad_slice_rows() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w); // 2 x 3
            let top = g.slice_rows(wn, 0, 1);
            let bot = g.slice_rows(wn, 1, 2);
            let prod = g.mul(top, bot);
            let t = g.tanh(prod);
            g.mean(t)
        });
    }

    #[test]
    fn add_add_row_matches_unfused_bitwise() {
        let mut rng = Rng::seed_from(53);
        let mk = |rng: &mut Rng, r: usize, c: usize| {
            Matrix::from_vec(
                r,
                c,
                (0..r * c).map(|_| rng.uniform(-1.0, 1.0) as f32).collect(),
            )
        };
        let mut store = ParamStore::new();
        let wa = store.add("a", mk(&mut rng, 3, 4));
        let wb = store.add("b", mk(&mut rng, 3, 4));
        let wbias = store.add("bias", mk(&mut rng, 1, 4));

        store.zero_grad();
        let mut g = Graph::new();
        let (a, b, bias) = (
            g.param(&store, wa),
            g.param(&store, wb),
            g.param(&store, wbias),
        );
        let fused = g.add_add_row(a, b, bias);
        let target = g.input(Matrix::zeros(3, 4));
        let loss = g.mse_loss(fused, target);
        g.backward(loss, &mut store);
        let fv = g.value(fused).clone();
        let (ga1, gb1, gc1) = (
            store.grad(wa).clone(),
            store.grad(wb).clone(),
            store.grad(wbias).clone(),
        );

        store.zero_grad();
        let mut g2 = Graph::new();
        let (a, b, bias) = (
            g2.param(&store, wa),
            g2.param(&store, wb),
            g2.param(&store, wbias),
        );
        let pre = g2.add(a, b);
        let unfused = g2.add_row(pre, bias);
        let target = g2.input(Matrix::zeros(3, 4));
        let loss = g2.mse_loss(unfused, target);
        g2.backward(loss, &mut store);

        assert_eq!(fv.data, g2.value(unfused).data);
        assert_eq!(ga1.data, store.grad(wa).data);
        assert_eq!(gb1.data, store.grad(wb).data);
        assert_eq!(gc1.data, store.grad(wbias).data);
    }

    #[test]
    fn masked_group_mean_matches_unfused_bitwise() {
        let mut rng = Rng::seed_from(59);
        let (rows, cols, group) = (6, 4, 3);
        let mut store = ParamStore::new();
        let w = store.add(
            "x",
            Matrix::from_vec(
                rows,
                cols,
                (0..rows * cols)
                    .map(|_| rng.uniform(-1.0, 1.0) as f32)
                    .collect(),
            ),
        );
        let mask = Matrix::from_vec(rows, 1, vec![1.0, 1.0, 0.0, 1.0, 0.0, 0.0]);
        let scale = Matrix::from_vec(rows / group, 1, vec![0.5, 1.0]);

        store.zero_grad();
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let fused = g.masked_group_mean(x, &mask, &scale, group);
        let t = g.tanh(fused);
        let loss = g.mean(t);
        g.backward(loss, &mut store);
        let fv = g.value(fused).clone();
        let fg = store.grad(w).clone();

        store.zero_grad();
        let mut g2 = Graph::new();
        let x = g2.param(&store, w);
        let mask_n = g2.input(mask);
        let scale_n = g2.input(scale);
        let masked = g2.mul_col(x, mask_n);
        let summed = g2.sum_row_groups(masked, group);
        let unfused = g2.mul_col(summed, scale_n);
        let t = g2.tanh(unfused);
        let loss = g2.mean(t);
        g2.backward(loss, &mut store);

        assert_eq!(fv.data, g2.value(unfused).data);
        assert_eq!(fg.data, store.grad(w).data);
    }

    #[test]
    fn noisy_renorm_matches_unfused_bitwise() {
        let mut rng = Rng::seed_from(41);
        let (rows, cols) = (4, 6);
        let a = 0.25f32;
        let xd: Vec<f32> = (0..rows * cols)
            .map(|_| rng.uniform(-1.0, 1.0) as f32)
            .collect();
        let ud: Vec<f32> = (0..rows * cols).map(|_| rng.uniform01() as f32).collect();
        let u = Matrix::from_vec(rows, cols, ud);

        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(rows, cols, xd));

        store.zero_grad();
        let mut g = Graph::new();
        let x = g.param(&store, w);
        let fused = g.noisy_renorm(x, a, &u);
        let loss = g.mean(fused);
        g.backward(loss, &mut store);
        let fused_val = g.value(fused).clone();
        let fused_grad = store.grad(w).clone();

        // Unfused composition: noise constant, ratio with constant denom.
        store.zero_grad();
        let mut g2 = Graph::new();
        let x2 = g2.param(&store, w);
        let v = g2.value(x2).clone();
        let mut noise = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mean = v.row_slice(r).iter().sum::<f32>() / cols as f32;
            for c in 0..cols {
                noise.data[r * cols + c] = u.data[r * cols + c] * mean;
            }
        }
        let n = g2.input(noise);
        let an = g2.scale(n, a);
        let pert = g2.add(x2, an);
        let sx = g2.row_sum(x2);
        let sp = g2.row_sum(pert);
        let sx_off = g2.offset(sx, 1e-3);
        let sp_off = g2.offset(sp, 1e-3);
        let recip_vals = g2.value(sp_off).map(|x| 1.0 / x);
        let recip = g2.input(recip_vals);
        let ratio = g2.mul(sx_off, recip);
        let unfused = g2.mul_col(pert, ratio);
        let loss2 = g2.mean(unfused);
        g2.backward(loss2, &mut store);

        assert_eq!(
            fused_val.data,
            g2.value(unfused).data,
            "forward values differ"
        );
        assert_eq!(fused_grad.data, store.grad(w).data, "gradients differ");
    }

    #[test]
    fn slice_rows_matches_selection_matmul_bitwise() {
        let mut rng = Rng::seed_from(19);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 5, 3, &mut rng);
        let (r0, r1) = (1usize, 4usize);

        let mut g = Graph::new();
        let x = g.param(&store, w);
        let sliced = g.slice_rows(x, r0, r1);
        let loss = g.mean(sliced);
        g.backward(loss, &mut store);
        let sliced_val = g.value(sliced).clone();
        let sliced_grad = store.grad(w).clone();

        // Reference: multiply by a 0/1 row-selection matrix. Each output
        // element accumulates zeros plus exactly one selected value, and
        // 0 + x == x in f32, so forward and backward agree bitwise.
        store.zero_grad();
        let mut g2 = Graph::new();
        let x2 = g2.param(&store, w);
        let mut sel = Matrix::zeros(r1 - r0, 5);
        for i in 0..(r1 - r0) {
            sel.data[i * 5 + (r0 + i)] = 1.0;
        }
        let s = g2.input(sel);
        let picked = g2.matmul(s, x2);
        let loss2 = g2.mean(picked);
        g2.backward(loss2, &mut store);

        assert_eq!(
            sliced_val.data,
            g2.value(picked).data,
            "forward values differ"
        );
        assert_eq!(sliced_grad.data, store.grad(w).data, "gradients differ");
    }

    #[test]
    fn sum_row_groups_matches_add_chain_bitwise() {
        let mut rng = Rng::seed_from(17);
        let data: Vec<f32> = (0..6 * 4).map(|_| rng.uniform(-2.0, 2.0) as f32).collect();
        let packed = Matrix::from_vec(6, 4, data);
        let mut g = Graph::new();
        let p = g.input(packed.clone());
        let grouped = g.sum_row_groups(p, 3);
        // Reference: left-associated add chain over each group's rows.
        let mut g2 = Graph::new();
        let mut chain: Vec<NodeId> = Vec::new();
        for r in 0..2 {
            let mut acc = None;
            for j in 0..3 {
                let row = g2.input(Matrix::from_vec(1, 4, packed.row_slice(r * 3 + j).to_vec()));
                acc = Some(match acc {
                    Some(a) => g2.add(a, row),
                    None => row,
                });
            }
            chain.push(acc.unwrap());
        }
        for (r, &node) in chain.iter().enumerate() {
            assert_eq!(
                &g.value(grouped).data[r * 4..(r + 1) * 4],
                &g2.value(node).data[..],
                "row {r} differs from add chain"
            );
        }
    }

    #[test]
    fn grad_mul_col_broadcast() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let b = g.input(Matrix::from_vec(2, 1, vec![0.7, -1.2]));
            let y = g.mul_col(wn, b);
            g.mean(y)
        });
    }

    #[test]
    fn grad_add_row_bias() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let x = g.input(Matrix::from_vec(2, 3, vec![0.1; 6]));
            let mul = g.mul(wn, x);
            let bias = g.input(Matrix::from_vec(1, 3, vec![0.5, -0.5, 0.2]));
            let y = g.add_row(mul, bias);
            let t = g.tanh(y);
            g.mean(t)
        });
    }

    #[test]
    fn grad_weighted_sum_combines() {
        check_grad(|g, s, w| {
            let wn = g.param(s, w);
            let m1 = g.mean(wn);
            let sq = g.mul(wn, wn);
            let m2 = g.mean(sq);
            g.weighted_sum(vec![(m1, 0.3), (m2, 0.7)])
        });
    }

    #[test]
    fn bias_gradient_through_add_row() {
        // Directly check the AddRow rhs gradient (row-sum of upstream).
        let mut store = ParamStore::new();
        let b = store.add("b", Matrix::from_vec(1, 2, vec![0.0, 0.0]));
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(3, 2, vec![1.0; 6]));
        let bn = g.param(&store, b);
        let y = g.add_row(x, bn);
        let loss = g.mean(y);
        g.backward(loss, &mut store);
        // d mean / d b_c = rows / (rows*cols) = 3/6 = 0.5
        assert!(store.grad(b).data.iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn linear_regression_converges() {
        // Learn y = 2x + 1 with a 1x1 weight and bias via the graph.
        let mut rng = Rng::seed_from(9);
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::from_vec(1, 1, vec![0.0]));
        let b = store.add("b", Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = crate::params::Adam::new(0.05);
        for _ in 0..300 {
            let xs: Vec<f32> = (0..16).map(|_| rng.uniform(-1.0, 1.0) as f32).collect();
            let ys: Vec<f32> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
            store.zero_grad();
            let mut g = Graph::new();
            let x = g.input(Matrix::from_vec(16, 1, xs));
            let wn = g.param(&store, w);
            let bn = g.param(&store, b);
            let xw = g.matmul(x, wn);
            let pred = g.add_row(xw, bn);
            let target = g.input(Matrix::from_vec(16, 1, ys));
            let loss = g.mse_loss(pred, target);
            g.backward(loss, &mut store);
            opt.step(&mut store);
        }
        assert!((store.value(w).data[0] - 2.0).abs() < 0.05);
        assert!((store.value(b).data[0] - 1.0).abs() < 0.05);
    }
}
