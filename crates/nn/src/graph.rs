//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Graph`] is a single-use tape: every op records its inputs and its
//! forward value; [`Graph::backward`] walks the tape in reverse and pushes
//! gradients to inputs and, for parameter leaves, into the owning
//! [`ParamStore`]. One training step = one graph.
//!
//! The graph computes no op itself: it is the front end of the plan
//! executor in [`crate::plan`]. While recording, each constructor checks
//! its operands, appends one unfused step with its own value buffer, and
//! evaluates it with the same [`Plan::eval`] a replay calls; the backward
//! pass is the plan's, with a gradient buffer per node that lives until
//! the node has pushed it to its inputs (leaves and the loss keep
//! theirs). So each op has
//! one forward and one backward implementation, and the finite-difference
//! gradcheck tests the backward that replays run.
//!
//! The op set is deliberately small — exactly what the GenDT architecture
//! (LSTM + FC + stochastic layers + Gaussian head + GAN losses) needs.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use crate::plan::Plan;

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

/// A single-use reverse-mode autodiff tape.
///
/// A graph runs in one of two modes (see [`crate::plan`]): **record**
/// (the default — each op appends one unfused step to the tape and runs
/// it at once) or **replay** ([`Graph::replay`] — the same builder code
/// re-executes a compiled [`Plan`] against its preallocated arena, with
/// every constructor validating that it matches the recorded step).
/// Builder code is mode-agnostic; only construction differs.
pub struct Graph {
    /// Record mode: the steps recorded so far, each with its own value
    /// buffer and, while backward needs it, its own gradient buffer.
    /// Replay mode: the compiled plan being replayed.
    plan: Plan,
    /// Replay mode: the number of steps replayed so far. `None` while
    /// recording.
    cursor: Option<usize>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Empty tape in record mode.
    pub fn new() -> Self {
        Graph {
            plan: Plan::recording(),
            cursor: None,
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
            plan,
            cursor: Some(0),
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
        let Graph { mut plan, cursor } = self;
        let Some(cursor) = cursor else {
            // Free the recording buffers before compile allocates the arena.
            let steps = std::mem::take(&mut plan.steps);
            drop(plan);
            return crate::plan::compile(steps, loss.map(|l| l.0));
        };
        assert_eq!(
            cursor,
            plan.len(),
            "plan replay ended early: {cursor} of {} recorded steps ran; \
             the plan cache key does not fully determine the op sequence",
            plan.len()
        );
        plan
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
        let i = self.cursor?;
        self.plan.expect_step(i, expect);
        if !check(&mut self.plan.steps[i].op) {
            self.plan.diverged(i, expect);
        }
        self.cursor = Some(i + 1);
        self.plan.eval(i, extra);
        Some(NodeId(i))
    }

    /// Replay-mode guard for input-like leaves: the recorded step must be
    /// an `Input` with the same gradient flag and shape; its arena slot
    /// receives the fresh value.
    fn r_input(&mut self, value: &Matrix, needs_grad: bool) -> Option<NodeId> {
        let i = self.cursor?;
        self.plan.expect_step(i, "Input");
        let st = &self.plan.steps[i];
        if !matches!(st.op, Op::Input) || st.needs_grad != needs_grad {
            self.plan.diverged(i, "Input");
        }
        self.cursor = Some(i + 1);
        self.plan.write_value(i, value);
        Some(NodeId(i))
    }

    /// Record mode: append `op` as an unfused step of the given shape and
    /// evaluate it with the plan executor. `extra` is the per-step noise
    /// draw of a `NoisyRenorm` (see [`Plan::eval`]).
    fn push(&mut self, op: Op, shape: (usize, usize), extra: Option<&Matrix>) -> NodeId {
        let needs_grad = op.inputs().iter().any(|&id| self.needs(id));
        let i = self.plan.record(op, shape, needs_grad, None);
        self.run(i, extra)
    }

    /// Record mode: append a leaf step holding `value`. Its shape is
    /// checked against its storage here, where it enters the tape; every
    /// later value is bound to its step's shape by the executor.
    fn push_leaf(&mut self, op: Op, value: Matrix, needs_grad: bool) -> NodeId {
        assert_eq!(
            value.data.len(),
            value.rows * value.cols,
            "{} matrix claims {}x{} but holds {} elements",
            op.name(),
            value.rows,
            value.cols,
            value.data.len()
        );
        let i = self.plan.record(op, value.shape(), needs_grad, Some(value));
        self.run(i, None)
    }

    /// Evaluate recorded step `i` (a leaf already holds its value) under
    /// the op profiler and the sanitizer.
    fn run(&mut self, i: usize, extra: Option<&Matrix>) -> NodeId {
        let t0 = gendt_trace::trace_enabled().then(gendt_trace::now_ns);
        self.plan.eval(i, extra);
        if let Some(t0) = t0 {
            profile(&self.plan, i, gendt_trace::Phase::Forward, t0);
        }
        if crate::sanitize::sanitize_enabled() {
            sanitize_forward(&self.plan, i);
        }
        NodeId(i)
    }

    fn needs(&self, id: NodeId) -> bool {
        self.plan.steps[id.0].needs_grad
    }

    fn shape(&self, id: NodeId) -> (usize, usize) {
        let st = &self.plan.steps[id.0];
        (st.rows as usize, st.cols as usize)
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
        if let Some(cursor) = self.cursor {
            return self.plan.ext_value(id.0, cursor);
        }
        self.plan.steps[id.0].ext.set(true);
        self.plan.val_ref(id.0)
    }

    /// The recorded operation of a node (for tape auditing).
    pub fn op(&self, id: NodeId) -> &Op {
        &self.plan.steps[id.0].op
    }

    /// Whether a node participates in gradient computation.
    pub fn node_needs_grad(&self, id: NodeId) -> bool {
        self.needs(id)
    }

    /// All node ids on the tape, in recording order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// Gradient of a leaf (a parameter, or an input that takes a
    /// gradient) or of the loss after [`Graph::backward`]; `None` if the
    /// node did not participate in the loss, does not require gradients,
    /// or is an intermediate node, whose gradient the backward pass frees
    /// once it has pushed it to the node's inputs.
    ///
    /// # Panics
    /// Panics in replay mode: plan execution keeps gradients in reused
    /// arena slots and does not retain them for inspection. Inspect
    /// gradients on a record-mode graph.
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        assert!(
            self.cursor.is_none(),
            "node gradients are not inspectable in plan replay mode"
        );
        self.plan.grad(id.0)
    }

    /// Number of nodes recorded (or replayed) so far.
    pub fn len(&self) -> usize {
        self.cursor.unwrap_or(self.plan.len())
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
        self.push_leaf(Op::Input, value, false)
    }

    /// Insert a constant input from a reference, avoiding the caller-side
    /// move (and, in replay mode, any allocation: the value is copied
    /// straight into the node's arena slot).
    pub fn input_ref(&mut self, value: &Matrix) -> NodeId {
        if let Some(n) = self.r_input(value, false) {
            return n;
        }
        self.push_leaf(Op::Input, value.clone(), false)
    }

    /// Insert a constant input that still receives a gradient (used by
    /// tests and by generator-through-discriminator plumbing).
    pub fn input_with_grad(&mut self, value: Matrix) -> NodeId {
        if let Some(n) = self.r_input(&value, true) {
            return n;
        }
        self.push_leaf(Op::Input, value, true)
    }

    /// Leaf a parameter into the graph. The backward pass accumulates its
    /// gradient into the store passed to [`Graph::backward`] — so a graph
    /// must only contain trainable params from ONE store; params of other
    /// models must enter via [`Graph::param_frozen`].
    ///
    /// Repeated calls for the same id return the same node. In replay
    /// mode the plan's parameter slots are first synchronized against the
    /// store (version-gated, so unchanged stores cost one integer
    /// compare).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> NodeId {
        if self.cursor.is_some() {
            self.plan.sync_params(store);
        }
        let memo = &self.plan.param_memo;
        if let Some(&(_, step)) = memo.iter().find(|&&(pid, _)| pid == id) {
            return NodeId(step as usize);
        }
        let n = match self.cursor {
            Some(i) => {
                self.plan.expect_step(i, "Param");
                if !matches!(self.plan.steps[i].op, Op::Param(p) if p == id) {
                    self.plan.diverged(i, "Param");
                }
                self.cursor = Some(i + 1);
                NodeId(i)
            }
            None => self.push_leaf(Op::Param(id), store.value(id).clone(), true),
        };
        self.plan.param_memo.push((id, n.0 as u32));
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
        self.push_leaf(Op::Input, store.value(id).clone(), false)
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
        let ((m, k), (k2, n)) = (self.shape(a), self.shape(b));
        assert_eq!(k, k2, "matmul shape mismatch: {m}x{k} * {k2}x{n}");
        self.push(Op::MatMul(a, b), (m, n), None)
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
        assert_eq!(self.shape(a), self.shape(b), "add shape mismatch");
        self.push(Op::Add(a, b), self.shape(a), None)
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
        assert_eq!(self.shape(a), self.shape(b), "sub shape mismatch");
        self.push(Op::Sub(a, b), self.shape(a), None)
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
        assert_eq!(self.shape(a), self.shape(b), "mul shape mismatch");
        self.push(Op::Mul(a, b), self.shape(a), None)
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
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sb.0, 1, "add_row: rhs must be a row vector");
        assert_eq!(sa.1, sb.1, "add_row column mismatch");
        self.push(Op::AddRow(a, b), sa, None)
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
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sb.1, 1, "mul_col: rhs must be a column vector");
        assert_eq!(sa.0, sb.0, "mul_col row mismatch");
        self.push(Op::MulCol(a, b), sa, None)
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
        self.push(Op::Scale(a, s), self.shape(a), None)
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
        self.push(Op::Offset(a, s), self.shape(a), None)
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
        self.push(Op::Sigmoid(a), self.shape(a), None)
    }

    /// Elementwise tanh (vectorizable polynomial kernel).
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("Tanh", |op| matches!(op, Op::Tanh(x) if *x == a), None) {
            return n;
        }
        self.push(Op::Tanh(a), self.shape(a), None)
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
        self.push(Op::LeakyRelu(a, slope), self.shape(a), None)
    }

    /// Elementwise exp (vectorizable polynomial kernel).
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("Exp", |op| matches!(op, Op::Exp(x) if *x == a), None) {
            return n;
        }
        self.push(Op::Exp(a), self.shape(a), None)
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
        self.push(Op::Softplus(a), self.shape(a), None)
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
        let (sa, sb) = (self.shape(a), self.shape(b));
        assert_eq!(sa.0, sb.0, "concat_cols row mismatch");
        self.push(Op::ConcatCols(a, b), (sa.0, sa.1 + sb.1), None)
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
        let (rows, cols) = self.shape(a);
        assert!(c0 <= c1 && c1 <= cols, "slice_cols out of range");
        self.push(Op::SliceCols(a, c0, c1), (rows, c1 - c0), None)
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
        let (rows, cols) = self.shape(a);
        assert!(
            r0 < r1 && r1 <= rows,
            "slice_rows: bad range {r0}..{r1} of {rows}"
        );
        self.push(Op::SliceRows(a, r0, r1), (r1 - r0, cols), None)
    }

    /// Row-wise sum, yielding a `rows x 1` column vector.
    pub fn row_sum(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("RowSum", |op| matches!(op, Op::RowSum(x) if *x == a), None) {
            return n;
        }
        self.push(Op::RowSum(a), (self.shape(a).0, 1), None)
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
        let (rows, cols) = self.shape(a);
        assert!(group > 0, "sum_row_groups: group must be positive");
        assert_eq!(
            rows % group,
            0,
            "sum_row_groups: rows not divisible by group"
        );
        self.push(Op::SumRowGroups(a, group), (rows / group, cols), None)
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
        let (sg, sc) = (self.shape(gates), self.shape(c_prev));
        assert!(hidden > 0, "lstm_cell: hidden must be positive");
        assert_eq!(sg.1, 4 * hidden, "lstm_cell: gates must be rows x 4*hidden");
        assert_eq!(sc, (sg.0, hidden), "lstm_cell: c_prev shape mismatch");
        let op = Op::LstmCell {
            gates,
            c_prev,
            hidden,
        };
        self.push(op, (sg.0, 2 * hidden), None)
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
        let (rows, cols) = self.shape(x);
        assert_eq!(
            u.shape(),
            (rows, cols),
            "noisy_renorm: noise shape mismatch"
        );
        // The noise buffer is filled from `u` when the step evaluates.
        let noise = Matrix::zeros(rows, cols);
        self.push(Op::NoisyRenorm { x, a, noise }, (rows, cols), Some(u))
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
        let (sa, sbias) = (self.shape(a), self.shape(bias));
        assert_eq!(sa, self.shape(b), "add_add_row shape mismatch");
        assert_eq!(sbias.0, 1, "add_add_row: bias must be a row vector");
        assert_eq!(sa.1, sbias.1, "add_add_row bias column mismatch");
        self.push(Op::AddAddRow(a, b, bias), sa, None)
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
        let (rows, cols) = self.shape(x);
        assert!(group > 0, "masked_group_mean: group must be positive");
        assert_eq!(
            rows % group,
            0,
            "masked_group_mean: rows not divisible by group"
        );
        assert_eq!(mask.shape(), (rows, 1), "masked_group_mean: mask shape");
        assert_eq!(
            scale.shape(),
            (rows / group, 1),
            "masked_group_mean: scale shape"
        );
        let op = Op::MaskedGroupMean {
            x,
            mask: mask.clone(),
            scale: scale.clone(),
            group,
        };
        self.push(op, (rows / group, cols), None)
    }

    /// Mean of all elements as a `1 x 1` scalar node.
    pub fn mean(&mut self, a: NodeId) -> NodeId {
        if let Some(n) = self.r_step("Mean", |op| matches!(op, Op::Mean(x) if *x == a), None) {
            return n;
        }
        self.push(Op::Mean(a), (1, 1), None)
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
        assert_eq!(self.shape(a), self.shape(b), "mse_loss shape mismatch");
        self.push(Op::MseLoss(a, b), (1, 1), None)
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
        assert_eq!(self.shape(logits), targets.shape(), "bce shape mismatch");
        self.push(Op::BceWithLogits(logits, targets), (1, 1), None)
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
        for &(id, _) in &terms {
            assert_eq!(self.shape(id), (1, 1), "weighted_sum expects scalar nodes");
        }
        self.push(Op::WeightedSum(terms), (1, 1), None)
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
        let sm = self.shape(mu);
        assert_eq!(sm, self.shape(sigma), "gaussian_nll mu/sigma mismatch");
        assert_eq!(sm, target.shape(), "gaussian_nll target mismatch");
        self.push(Op::GaussianNll { mu, sigma, target }, (1, 1), None)
    }

    /// Run the backward pass from a scalar `1 x 1` loss node, pushing
    /// parameter gradients into `store`.
    ///
    /// Both modes run the plan executor's backward. A recorded graph
    /// gives every node's gradient its own buffer, profiles and sanitizes
    /// each step, and frees a node's gradient as soon as the node has
    /// pushed it to its inputs: no later step reads it. The leaves and
    /// the loss keep theirs, readable through [`Graph::grad`] afterwards.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: NodeId, store: &mut ParamStore) {
        if let Some(cursor) = self.cursor {
            assert!(
                loss.0 < cursor,
                "plan replay: backward from node {} but only {cursor} steps replayed",
                loss.0
            );
            self.plan.backward(loss.0, store);
            return;
        }
        assert_eq!(self.shape(loss), (1, 1), "backward needs a scalar loss");
        self.plan.reserve_backward(loss.0);
        let trace = gendt_trace::trace_enabled();
        let sanitize = crate::sanitize::sanitize_enabled();
        self.plan.backward_with(loss.0, store, |plan, i, store| {
            if plan.grad(i).is_none() {
                return;
            }
            let t0 = trace.then(gendt_trace::now_ns);
            plan.backward_step(i, store);
            if let Some(t0) = t0 {
                profile(plan, i, gendt_trace::Phase::Backward, t0);
            }
            if sanitize {
                sanitize_backward(plan, i);
            }
            // Every consumer of step `i` sits later on the tape, so its
            // backward has run and nothing reads this gradient again; only
            // the leaves and the loss keep theirs.
            if i != loss.0 && !matches!(plan.steps[i].op, Op::Input | Op::Param(_)) {
                plan.free_grad(i);
            }
        });
    }
}

/// Op profiler: attribute the wall time since `t0` to step `i`'s op.
fn profile(plan: &Plan, i: usize, phase: gendt_trace::Phase, t0: u64) {
    let dur = gendt_trace::now_ns().saturating_sub(t0);
    let (flops, bytes) = op_cost(plan, i);
    gendt_trace::record_op(plan.steps[i].op.name(), phase, dur, flops, bytes);
}

/// Order-of-magnitude FLOP and byte-traffic estimates for one execution
/// of step `i`, from the shapes on the tape. MatMul is exact
/// (`2·m·k·n`); elementwise and reduction ops count a few flops per
/// element; bytes assume every input and the output move once. Backward
/// visits reuse the same estimate — gradient kernels touch the same
/// operands at the same shapes.
fn op_cost(plan: &Plan, i: usize) -> (u64, u64) {
    let el = |id: &NodeId| plan.steps[id.0].elems() as u64;
    let op = &plan.steps[i].op;
    let out_el = el(&NodeId(i));
    let in_el: u64 = op.inputs().iter().map(el).sum();
    let bytes = 4 * (in_el + out_el);
    let flops = match op {
        Op::Input | Op::Param(_) => 0,
        Op::MatMul(a, b) => {
            let (sa, sb) = (&plan.steps[a.0], &plan.steps[b.0]);
            2 * sa.rows as u64 * sa.cols as u64 * sb.cols as u64
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
/// contain only finite numbers. Panics with the offending op, its
/// attributes, and the state of its inputs, so a NaN is caught at the op
/// that *created* it rather than steps later in a loss or a checkpoint.
fn sanitize_forward(plan: &Plan, i: usize) {
    let (op, value) = (&plan.steps[i].op, plan.val_ref(i));
    if value.has_non_finite() {
        panic!(
            "GENDT_SANITIZE: op {} (node {i}) produced a non-finite value (shape {}x{}){}",
            op.describe(),
            value.rows,
            value.cols,
            sanitize_inputs(plan, op)
        );
    }
}

/// One line per input node: op, shape, and whether it already holds
/// non-finite values (i.e. whether the corruption is upstream).
fn sanitize_inputs(plan: &Plan, op: &Op) -> String {
    let mut s = String::new();
    for id in op.inputs() {
        let v = plan.val_ref(id.0);
        s.push_str(&format!(
            "\n  input node {} = {} (shape {}x{}, non_finite={})",
            id.0,
            plan.steps[id.0].op.describe(),
            v.rows,
            v.cols,
            v.has_non_finite()
        ));
    }
    s
}

/// Sanitizer-mode backward check, after step `i` pushed its gradient
/// contributions: no input of `i` may now hold a non-finite gradient.
fn sanitize_backward(plan: &Plan, i: usize) {
    for id in plan.steps[i].op.inputs() {
        if let Some(g) = plan.grad(id.0).filter(|g| g.has_non_finite()) {
            panic!(
                "GENDT_SANITIZE: non-finite gradient flowing into node {} ({}, shape {}x{}) \
                 from node {i} ({})",
                id.0,
                plan.steps[id.0].op.describe(),
                g.rows,
                g.cols,
                plan.steps[i].op.describe()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Lstm, LstmNodeState, StochasticCfg};
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
        let recip_vals = g2.value(sp_off).data.iter().map(|x| 1.0 / x).collect();
        let recip = g2.input(Matrix::from_vec(rows, 1, recip_vals));
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
    fn recorded_values_and_grads_stay_readable_after_backward() {
        let mut rng = Rng::seed_from(71);
        let mut store = ParamStore::new();
        let w = store.add_xavier("w", 3, 4, &mut rng);
        let b = store.add("b", Matrix::from_vec(1, 4, vec![0.1, -0.2, 0.3, 0.0]));
        store.zero_grad();
        let mut g = Graph::new();
        let x = g.input(Matrix::from_vec(
            2,
            3,
            (0..6).map(|i| 0.2 * i as f32 - 0.5).collect(),
        ));
        let (wn, bn) = (g.param(&store, w), g.param(&store, b));
        let xw = g.matmul(x, wn);
        let y = g.add_row(xw, bn);
        let t = g.tanh(y);
        // The weight enters a second time through its memoized leaf.
        assert_eq!(g.param(&store, w), wn);
        let s = g.sum_row_groups(wn, 3);
        let z = g.add_row(t, s);
        let loss = g.mean(z);
        let before: Vec<Matrix> = g.node_ids().map(|n| g.value(n).clone()).collect();
        g.backward(loss, &mut store);
        for (n, v) in g.node_ids().zip(&before) {
            assert_eq!(g.value(n), v, "value of node {} changed", n.index());
        }
        for (node, pid) in [(wn, w), (bn, b)] {
            assert_eq!(g.grad(node), Some(store.grad(pid)), "param {pid:?}");
        }
        assert_eq!(g.grad(loss).map(|m| m.data.clone()), Some(vec![1.0]));
        assert!(g.grad(x).is_none(), "a constant input takes no gradient");
    }

    /// Three unrolled LSTM steps, each followed by the SRNN renorm, then a
    /// masked group mean and a parameter-fed head under an MSE loss. The
    /// LSTM input is a leaf that takes a gradient. Returns `(input, loss)`.
    fn build_srnn_head(
        g: &mut Graph,
        store: &ParamStore,
        lstm: &Lstm,
        head: &Linear,
        x: &Matrix,
    ) -> (NodeId, NodeId) {
        let mut rng = Rng::seed_from(5);
        let xin = g.input_with_grad(x.clone());
        let w = lstm.weights(g, store, false);
        let mut st = LstmNodeState {
            h: g.input(Matrix::zeros(4, lstm.hidden)),
            c: g.input(Matrix::zeros(4, lstm.hidden)),
        };
        for _ in 0..3 {
            st = lstm.step_with(g, w, xin, st);
            st = lstm.stochastic(g, StochasticCfg::paper_default(), st, &mut rng);
        }
        let mask = Matrix::from_vec(4, 1, vec![1.0, 0.0, 1.0, 1.0]);
        let scale = Matrix::from_vec(2, 1, vec![1.0, 0.5]);
        let pooled = g.masked_group_mean(st.h, &mask, &scale, 2);
        let y = head.forward(g, store, pooled);
        let t = g.input(Matrix::from_vec(2, 1, vec![0.3, -0.2]));
        (xin, g.mse_loss(y, t))
    }

    #[test]
    fn recorded_backward_frees_every_gradient_but_the_leaves_and_the_loss() {
        let mut rng = Rng::seed_from(81);
        let mut store = ParamStore::new();
        let lstm = Lstm::new(&mut store, "lstm", 3, 5, &mut rng);
        let head = Linear::new(&mut store, "head", 5, 1, &mut rng);
        let x = Matrix::from_vec(4, 3, (0..12).map(|i| 0.1 * i as f32 - 0.6).collect());
        let mut replay_store = store.clone();
        store.zero_grad();
        let mut g = Graph::new();
        let (xin, loss) = build_srnn_head(&mut g, &store, &lstm, &head, &x);
        g.backward(loss, &mut store);

        let mut params = 0;
        for n in g.node_ids() {
            let keeps = match g.op(n) {
                Op::Param(pid) => {
                    params += 1;
                    assert_eq!(g.grad(n), Some(store.grad(*pid)), "param {pid:?}");
                    true
                }
                Op::Input => g.node_needs_grad(n),
                _ => n == loss,
            };
            assert_eq!(
                g.plan.grad_capacity(n.index()) > 0,
                keeps,
                "gradient buffer of node {} ({})",
                n.index(),
                g.op(n).describe()
            );
        }
        assert_eq!(params, 5, "LSTM weights, bias and the head's two");
        assert_eq!(g.grad(loss).map(|m| m.data.clone()), Some(vec![1.0]));
        let gx = g.grad(xin).expect("the input leaf keeps its gradient");
        assert_eq!(gx.shape(), (4, 3));
        assert!(gx.data.iter().any(|&v| v != 0.0));

        let plan = g.into_plan(Some(loss));
        replay_store.zero_grad();
        let mut g = Graph::replay(plan);
        let (_, loss) = build_srnn_head(&mut g, &replay_store, &lstm, &head, &x);
        g.backward(loss, &mut replay_store);
        let bits = |s: &ParamStore| -> Vec<Vec<u32>> {
            s.iter()
                .map(|p| p.grad.data.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&store), bits(&replay_store));
    }

    #[test]
    #[should_panic(expected = "Input matrix claims 2x2 but holds 1 elements")]
    fn leaf_with_inconsistent_storage_is_rejected() {
        let mut g = Graph::new();
        g.input(Matrix {
            rows: 2,
            cols: 2,
            data: vec![1.0],
        });
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
