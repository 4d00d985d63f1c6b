//! Ahead-of-time compiled execution plans — shared programs run in lent
//! arenas — and the one executor every op runs on.
//!
//! GenDT's train-once/generate-many workload builds the same op sequence
//! over and over: it is a pure function of the (model, batch-shape) pair.
//! This module compiles one recorded tape into a program — a topo-ordered
//! op list with resolved shapes for forward and backward — and
//! re-executes it with **zero per-step heap allocation**. A [`Plan`] is
//! one run of a program: the program itself, immutable and shared by
//! `Arc` with every other run of its key; the arena the run executes in;
//! and the copy of the weights it reads.
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
//! * **Liveness + lent arenas.** A first-use/last-use interval pass
//!   assigns every value and gradient to a slot and records each slot's
//!   capacity in the program; two live buffers never share a slot (see
//!   [`Plan::live_ranges`]). The slots themselves — with the workspace,
//!   the gradient flags and the per-run constants of the ops (SRNN noise,
//!   masks, loss targets) — live in an arena that is **lent per run**,
//!   not allocated at compile time: [`PlanCache::run`] lends an idle
//!   arena from its pool and takes it back afterwards, and an arena grows
//!   once to the per-slot capacities of every program it has served.
//!   Buffers are rebound (shape + length within that capacity) as steps
//!   execute. Two runs need two arenas only when they run at once (two
//!   training shards); a teacher-forced and a free-running step of one
//!   shard take turns on one.
//! * **One weight copy per store.** Parameter values and the hoisted GEMM
//!   column packs of the weights are not arena state: a cache keeps one
//!   copy per parameter store, keyed by the store's identity and synced
//!   once per store version, and every run of every program that reads
//!   the store shares it.
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
//!   loudly on divergence), writes the step's per-run constants (inputs,
//!   masks, targets) into the arena, and evaluates into the arena. A
//!   replay never changes the program. This keeps control-flow that
//!   depends on intermediate values (the generator's free-running
//!   feedback loop) working unchanged.
//!
//! # Determinism contract
//!
//! Replaying a plan is **bitwise identical** to recording it: the fused
//! kinds replicate the unfused arithmetic exactly, including
//! accumulation order and the `±0.0` behavior of sparse gradient
//! scatters, and neither arena binding nor the arena a run is lent ever
//! changes a number. Replay therefore changes wall-clock, never numbers.
//! What can still differ — fusion, arena binding, and replay of fresh
//! inputs — is what the parity gate in `scripts/ci.sh` checks; the
//! finite-difference gradcheck checks the one backward both modes run.

use crate::graph::{Const, Graph, NodeId, Op};
use crate::kernels;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use gendt_sync::Mutex;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Slot sentinel: this step has no value (or gradient) buffer.
const NONE: u32 = u32::MAX;

/// Release time for arena bindings that live for the whole plan.
const PINNED: usize = usize::MAX;

/// Version of a weight copy that has never been synced.
const NO_VERSION: u64 = u64::MAX;

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
    /// semantics of the two slices' scatter (see [`select_cell_grads`]).
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
    /// [`Kind::GateMatmul`] steps, whose value is never materialized, and
    /// for the parameters of a compiled program, which read the weight
    /// copy).
    pub(crate) val_slot: u32,
    /// Arena slot holding this step's gradient during backward
    /// ([`NONE`] when no gradient ever materializes here).
    pub(crate) grad_slot: u32,
    pub(crate) needs_grad: bool,
    /// Whether the recording pass read this value externally
    /// (via [`crate::graph::Graph::value`]); such slots are pinned.
    pub(crate) ext: bool,
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

/// A compiled program: everything about a plan that is the same for every
/// run of its key. Immutable once compiled; the cache and every run share
/// it by `Arc`. While recording, the steps recorded so far.
#[derive(Debug, Default)]
pub(crate) struct Program {
    pub(crate) steps: Vec<Step>,
    /// Per-slot element capacity (rebinding must stay within it).
    caps: Vec<usize>,
    /// Workspace elements the neediest step uses.
    ws_len: usize,
    /// Element count of each per-run constant, by [`Const`] index.
    const_lens: Vec<usize>,
    /// Loss step index when the program was compiled from a tape that
    /// runs backward; `None` for generation-only programs.
    loss: Option<usize>,
    /// All `Param` steps in recording order, for binding the weights and
    /// for finding a repeated [`crate::graph::Graph::param`] call's step.
    param_steps: Vec<(ParamId, u32)>,
    /// Parameters consumed as the B operand of a forward GEMM. Their
    /// column-block pack is hoisted out of the per-step kernel into the
    /// weight copy: packed once per store version, then reused by every
    /// GEMM reading them (an LSTM weight is hit `L` times per forward).
    packs: Vec<ParamId>,
    /// Binding intervals, kept for property tests and diagnostics.
    ranges: Vec<LiveRange>,
}

impl Program {
    /// The step of parameter `id`, if the program has one.
    pub(crate) fn param_step(&self, id: ParamId) -> Option<usize> {
        self.param_steps
            .iter()
            .find(|&&(pid, _)| pid == id)
            .map(|&(_, s)| s as usize)
    }
}

/// Per-run state: the buffers one run of a program executes in. Lent by
/// [`PlanCache::run`] from its pool and taken back afterwards; fitted to
/// every program it serves. Nothing in it survives from one run to the
/// next: every buffer is written before it is read.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    /// Value and gradient buffers by slot (one pair per step while
    /// recording).
    slots: Vec<Matrix>,
    /// Shared scratch for GEMM packing, LSTM activations, and backward
    /// row reductions.
    ws: Vec<f32>,
    /// Whether each step's gradient currently holds a contribution: the
    /// first contribution sets the buffer, later ones add to it.
    grad_present: Vec<bool>,
    /// The ops' per-run constants (SRNN noise, masks, loss targets), by
    /// [`Const`] index.
    consts: Vec<Matrix>,
}

impl Arena {
    /// Grow to serve `prog`: every slot and constant to at least the
    /// program's capacity, the workspace and the flags to its lengths. A
    /// no-op on an arena that has served a program at least as large, so
    /// warm replays stay allocation-free.
    fn fit(&mut self, prog: &Program) {
        fit_bufs(&mut self.slots, &prog.caps);
        fit_bufs(&mut self.consts, &prog.const_lens);
        fit_len(&mut self.ws, prog.ws_len, 0.0);
        fit_len(&mut self.grad_present, prog.steps.len(), false);
    }

    /// Heap bytes the arena holds.
    fn bytes(&self) -> usize {
        let bufs = |v: &Vec<Matrix>| {
            v.capacity() * std::mem::size_of::<Matrix>()
                + v.iter().map(|m| 4 * m.data.capacity()).sum::<usize>()
        };
        bufs(&self.slots)
            + bufs(&self.consts)
            + 4 * self.ws.capacity()
            + self.grad_present.capacity()
    }
}

/// Grow `bufs` to `caps.len()` buffers, each with at least its capacity.
fn fit_bufs(bufs: &mut Vec<Matrix>, caps: &[usize]) {
    if bufs.len() < caps.len() {
        bufs.reserve_exact(caps.len() - bufs.len());
        bufs.resize_with(caps.len(), Matrix::default);
    }
    for (m, &cap) in bufs.iter_mut().zip(caps) {
        if m.data.capacity() < cap {
            m.data.reserve_exact(cap - m.data.len());
        }
    }
}

/// Grow `v` to at least `len` elements.
fn fit_len<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() < len {
        v.reserve_exact(len - v.len());
        v.resize(len, fill);
    }
}

/// One parameter store's weights as the runs of a cache read them: the
/// values, and the hoisted column packs of those a program reads as a
/// GEMM `B` operand.
#[derive(Debug)]
pub(crate) struct Weights {
    /// Identity of the store the copy mirrors.
    store: u64,
    /// Store version the copy holds ([`NO_VERSION`] before its first
    /// sync).
    version: u64,
    /// Values by [`ParamId`].
    values: Vec<Matrix>,
    /// Column packs by [`ParamId`] (see [`kernels::pack_b_full`]); `None`
    /// until some program reads the parameter as a GEMM `B` operand.
    packs: Vec<Option<Vec<f32>>>,
}

impl Weights {
    fn new(store: u64) -> Weights {
        Weights {
            store,
            version: NO_VERSION,
            values: Vec::new(),
            packs: Vec::new(),
        }
    }

    /// True when the copy holds `store`'s current values and every pack
    /// `prog` reads.
    fn serves(&self, store: &ParamStore, prog: &Program) -> bool {
        self.version == store.version()
            && prog
                .packs
                .iter()
                .all(|p| matches!(self.packs.get(p.0), Some(Some(_))))
    }

    /// Bring the copy to `store`'s version (values, then every pack it
    /// holds) and add the packs `prog` reads that it lacks. Buffers are
    /// refilled in place, so a warm sync allocates nothing. Returns
    /// whether the values were synced.
    fn sync(&mut self, store: &ParamStore, prog: &Program) -> bool {
        let synced = self.version != store.version();
        if synced {
            self.values.resize_with(store.len(), Matrix::default);
            self.packs.resize_with(store.len(), || None);
            for (v, p) in self.values.iter_mut().zip(store.iter()) {
                v.rows = p.value.rows;
                v.cols = p.value.cols;
                v.data.clear();
                v.data.extend_from_slice(&p.value.data);
            }
            for (pack, v) in self.packs.iter_mut().zip(&self.values) {
                if let Some(buf) = pack {
                    buf.resize(kernels::packed_b_len(v.rows, v.cols), 0.0);
                    kernels::pack_b_full(v, buf);
                }
            }
            self.version = store.version();
        }
        for &pid in &prog.packs {
            let v = &self.values[pid.0];
            if self.packs[pid.0].is_none() {
                let mut buf = vec![0.0; kernels::packed_b_len(v.rows, v.cols)];
                kernels::pack_b_full(v, &mut buf);
                self.packs[pid.0] = Some(buf);
            }
        }
        synced
    }

    /// Heap bytes the copy holds.
    fn bytes(&self) -> usize {
        let values: usize = self.values.iter().map(|m| m.data.capacity()).sum();
        let packs: usize = self.packs.iter().flatten().map(Vec::capacity).sum();
        4 * (values + packs)
    }
}

/// The weight copies of one cache (or of one plan outside any cache), one
/// per parameter store its programs read.
#[derive(Debug, Default)]
pub(crate) struct WeightPool {
    copies: Mutex<WeightCopies>,
}

#[derive(Debug, Default)]
struct WeightCopies {
    list: Vec<Arc<Weights>>,
    /// Version syncs so far, for the once-per-cache test.
    #[cfg(test)]
    syncs: usize,
}

impl WeightPool {
    /// The copy of `store`'s weights at its current version, with every
    /// pack `prog` reads. The first run to ask for a new store version
    /// syncs the copy in place; the runs after it share that copy. A copy
    /// still read by a run at an older version is left to that run, and
    /// the store gets a fresh one.
    fn acquire(&self, store: &ParamStore, prog: &Program) -> Arc<Weights> {
        let mut copies = self.copies.lock();
        let pos = match copies.list.iter().position(|w| w.store == store.id()) {
            Some(pos) => pos,
            None => {
                copies.list.push(Arc::new(Weights::new(store.id())));
                copies.list.len() - 1
            }
        };
        if !copies.list[pos].serves(store, prog) {
            if Arc::get_mut(&mut copies.list[pos]).is_none() {
                copies.list[pos] = Arc::new(Weights::new(store.id()));
            }
            let synced = Arc::get_mut(&mut copies.list[pos])
                .expect("a fresh weight copy is unshared")
                .sync(store, prog);
            #[cfg(test)]
            {
                copies.syncs += usize::from(synced);
            }
            let _ = synced;
        }
        Arc::clone(&copies.list[pos])
    }

    /// Number of copies and their heap bytes.
    fn usage(&self) -> (usize, usize) {
        let copies = self.copies.lock();
        let bytes = copies.list.iter().map(|w| w.bytes()).sum();
        (copies.list.len(), bytes)
    }
}

/// One run of a compiled program: the program (shared by `Arc` with its
/// cache and every other run of its key), the arena the run executes in,
/// and the weight copy it reads. Build one with
/// [`crate::graph::Graph::into_plan`] and execute it with
/// [`crate::graph::Graph::replay`]; a [`PlanCache`] keeps the program and
/// pools the arena between runs.
#[derive(Debug)]
pub struct Plan {
    pub(crate) prog: Arc<Program>,
    arena: Arena,
    /// Where the run finds its weights: the owning cache's copies, or the
    /// plan's own outside a cache.
    pool: Arc<WeightPool>,
    /// The copy the run reads, bound by its first
    /// [`crate::graph::Graph::param`] and dropped when the run ends.
    weights: Option<Arc<Weights>>,
}

impl Plan {
    /// Number of compiled steps.
    pub fn len(&self) -> usize {
        self.prog.steps.len()
    }

    /// True when the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.prog.steps.is_empty()
    }

    /// Number of arena slots the program uses.
    pub fn arena_slots(&self) -> usize {
        self.prog.caps.len()
    }

    /// All binding intervals assigned by the liveness pass.
    pub fn live_ranges(&self) -> &[LiveRange] {
        &self.prog.ranges
    }

    /// Per-slot element capacities.
    pub fn slot_caps(&self) -> &[usize] {
        &self.prog.caps
    }

    /// Value of step `i`: its arena slot, or the weight copy for a
    /// parameter of a compiled program.
    pub(crate) fn val_ref(&self, i: usize) -> &Matrix {
        match self.prog.steps[i].val_slot {
            NONE => self.weight(i),
            slot => &self.arena.slots[slot as usize],
        }
    }

    fn weight(&self, i: usize) -> &Matrix {
        let Op::Param(pid) = self.prog.steps[i].op else {
            unreachable!("step {i} has no value buffer")
        };
        &self.weights().values[pid.0]
    }

    fn weights(&self) -> &Weights {
        self.weights
            .as_deref()
            .expect("plan replay: a parameter was read before its store was bound")
    }

    fn grad_ref(&self, i: usize) -> &Matrix {
        &self.arena.slots[self.prog.steps[i].grad_slot as usize]
    }

    pub(crate) fn diverged(&self, i: usize, got: &str) -> ! {
        panic!(
            "plan replay diverged at step {i}: recorded {}, got {got}; \
             the plan cache key does not fully determine the op sequence",
            self.prog.steps[i].op.describe()
        )
    }

    pub(crate) fn expect_step(&self, i: usize, what: &str) {
        assert!(
            i < self.prog.steps.len(),
            "plan replay overran the recorded tape at step {i} (got {what}); \
             the plan cache key does not fully determine the op sequence"
        );
    }

    /// Value of an externally-read step during replay.
    pub(crate) fn ext_value(&self, i: usize, cursor: usize) -> &Matrix {
        assert!(i < cursor, "plan replay: value read before step {i} ran");
        let st = &self.prog.steps[i];
        assert!(
            st.ext,
            "plan replay: step {i} ({}) was not read externally during \
             recording; external reads must be identical for every \
             execution of the same plan key",
            st.op.describe()
        );
        self.val_ref(i)
    }

    /// Start a run: fit the arena to the program. Allocates only when the
    /// arena has not yet served a program this large.
    pub(crate) fn begin_run(&mut self) {
        self.arena.fit(&self.prog);
    }

    /// End a run: drop the weight copy, so the next store version can be
    /// synced into it in place.
    pub(crate) fn end_run(&mut self) {
        self.weights = None;
    }

    /// Bind the run to `store`'s weight copy at its current version; a
    /// no-op when already bound to it.
    ///
    /// # Panics
    /// Panics if the run already reads another store's parameters (a
    /// program's parameters all come from one store), or if a parameter's
    /// shape differs from the recording.
    pub(crate) fn bind_weights(&mut self, store: &ParamStore) {
        if let Some(w) = &self.weights {
            assert_eq!(
                w.store,
                store.id(),
                "plan replay: parameters of two stores in one graph"
            );
            if w.version == store.version() {
                return;
            }
        }
        self.weights = None;
        let w = self.pool.acquire(store, &self.prog);
        for &(pid, si) in &self.prog.param_steps {
            let st = &self.prog.steps[si as usize];
            let shape = w.values.get(pid.0).map(Matrix::shape);
            assert_eq!(
                shape,
                Some((st.rows as usize, st.cols as usize)),
                "plan replay: shape of parameter step {si} ({:?}) changed; the \
                 plan cache key does not fully determine shapes",
                pid
            );
        }
        self.weights = Some(w);
    }

    // -----------------------------------------------------------------
    // Recording
    // -----------------------------------------------------------------

    /// An empty plan to record into (see [`Plan::record`]).
    pub(crate) fn recording() -> Plan {
        Plan {
            prog: Arc::default(),
            arena: Arena::default(),
            pool: Arc::default(),
            weights: None,
        }
    }

    /// The program under construction.
    fn recorded(&mut self) -> &mut Program {
        Arc::get_mut(&mut self.prog).expect("a recording owns its program")
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
        let val_slot = self.arena.slots.len() as u32;
        let value = value.unwrap_or_else(|| Matrix {
            rows,
            cols,
            data: Vec::with_capacity(rows * cols),
        });
        self.arena.slots.extend([value, Matrix::default()]);
        self.arena.grad_present.push(false);
        let prog = self.recorded();
        let i = prog.steps.len();
        prog.caps.extend([rows * cols; 2]);
        prog.steps.push(Step {
            op,
            kind: Kind::Plain,
            val_slot,
            grad_slot: val_slot + 1,
            needs_grad,
            ext: false,
            rows: rows as u32,
            cols: cols as u32,
        });
        let need = ws_need(&prog.steps, i, false);
        self.grow_ws(need);
        i
    }

    /// Record mode: keep `value` as a per-run constant of the op about to
    /// be recorded, and return its handle.
    pub(crate) fn record_const(&mut self, value: Matrix) -> Const {
        let c = Const::new(value.shape(), self.arena.consts.len());
        self.arena.consts.push(value);
        c
    }

    /// Record mode: size the workspace for the backward pass of steps
    /// `0..=loss_idx` before [`Plan::backward_with`] runs it.
    pub(crate) fn reserve_backward(&mut self, loss_idx: usize) {
        for i in 0..=loss_idx {
            let need = ws_need(&self.prog.steps, i, true);
            self.grow_ws(need);
        }
    }

    fn grow_ws(&mut self, need: usize) {
        if need > self.arena.ws.len() {
            self.arena.ws.resize(need, 0.0);
        }
    }

    /// Finish a recording: free its buffers, set each step's external-read
    /// flag from `ext`, and compile the steps into a plan whose program
    /// runs backward from `loss` (`None` for a forward-only program). The
    /// plan keeps the recording's weight pool and has no arena yet.
    pub(crate) fn compile(self, ext: impl IntoIterator<Item = bool>, loss: Option<usize>) -> Plan {
        let Plan {
            prog, arena, pool, ..
        } = self;
        drop(arena);
        let mut steps = Arc::try_unwrap(prog)
            .expect("a recording owns its program")
            .steps;
        for (st, e) in steps.iter_mut().zip(ext) {
            st.ext = e;
        }
        Plan {
            prog: Arc::new(compile(steps, loss)),
            arena: Arena::default(),
            pool,
            weights: None,
        }
    }

    /// Gradient of step `i` from the last backward pass, if one reached
    /// it and it is still held. Meaningful on a recorded plan, where the
    /// leaves and the loss keep their gradients after backward and every
    /// other step's is freed once pushed to its inputs; on a compiled
    /// plan an arena slot may since hold another binding.
    pub(crate) fn grad(&self, i: usize) -> Option<&Matrix> {
        self.arena.grad_present[i].then(|| self.grad_ref(i))
    }

    /// Record mode: free step `i`'s gradient buffer once its backward
    /// step has pushed its contributions to its inputs. Afterwards
    /// [`Plan::grad`] reports no gradient for it.
    pub(crate) fn free_grad(&mut self, i: usize) {
        self.arena.slots[self.prog.steps[i].grad_slot as usize] = Matrix::default();
        self.arena.grad_present[i] = false;
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
    /// recorded shape. Rebinding resizes within the slot's fitted
    /// capacity and never reallocates.
    fn take_val(&mut self, i: usize) -> Matrix {
        let st = &self.prog.steps[i];
        let os = st.val_slot as usize;
        let (r, c) = (st.rows as usize, st.cols as usize);
        debug_assert!(r * c <= self.prog.caps[os], "arena slot capacity underflow");
        let mut m = std::mem::take(&mut self.arena.slots[os]);
        m.rows = r;
        m.cols = c;
        m.data.resize(r * c, 0.0);
        m
    }

    fn put_val(&mut self, i: usize, m: Matrix) {
        self.arena.slots[self.prog.steps[i].val_slot as usize] = m;
    }

    /// Bind a step's value slot and copy `src` into it (inputs and
    /// frozen params).
    pub(crate) fn write_value(&mut self, i: usize, src: &Matrix) {
        let st = &self.prog.steps[i];
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

    /// Write `v` into per-run constant `c`. The replaying constructor has
    /// matched `v`'s shape against the recorded one, so the write stays
    /// within the capacity the arena was fitted to.
    pub(crate) fn write_const(&mut self, c: Const, v: &Matrix) {
        debug_assert_eq!(c.shape(), v.shape(), "per-run constant shape");
        let m = &mut self.arena.consts[c.index()];
        m.rows = v.rows;
        m.cols = v.cols;
        m.data.clear();
        m.data.extend_from_slice(&v.data);
    }

    /// Per-run constant `c`, as last written.
    fn constant(&self, c: Const) -> &Matrix {
        &self.arena.consts[c.index()]
    }

    /// Evaluate step `i` into the arena — the one forward implementation
    /// of every op, for recording and replay alike. `extra` carries the
    /// per-step noise matrix for `NoisyRenorm` (the one recorded constant
    /// whose refresh needs an input value); all other per-step constants
    /// are refreshed in place by the replaying constructor before this
    /// call.
    pub(crate) fn eval(&mut self, i: usize, extra: Option<&Matrix>) {
        match self.prog.steps[i].kind {
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
        if let Op::NoisyRenorm { .. } = self.prog.steps[i].op {
            let u = extra.expect("plan replay: NoisyRenorm needs its noise input");
            self.eval_noisy_renorm(i, u);
            return;
        }
        let mut out = self.take_val(i);
        let mut ws = std::mem::take(&mut self.arena.ws);
        let rows = out.rows;
        let cols = out.cols;
        match &self.prog.steps[i].op {
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
                let (mask, scale) = (self.constant(*mask), self.constant(*scale));
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
                let targets = self.constant(*targets);
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
                    s += w * self.val_ref(id.index()).data[0];
                }
                out.data[0] = s;
            }
            Op::GaussianNll { mu, sigma, target } => {
                let (vm, vs) = (self.val_ref(mu.index()), self.val_ref(sigma.index()));
                let target = self.constant(*target);
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
        self.arena.ws = ws;
        self.put_val(i, out);
    }

    /// `NoisyRenorm` forward: fill the step's per-run noise constant from
    /// its fresh `u` draw and the input's current row means, then
    /// renormalize. Each row of `x` is summed once: its mean and the
    /// ratio's numerator come from the same sum.
    fn eval_noisy_renorm(&mut self, i: usize, u: &Matrix) {
        let (x, a, nc) = match &self.prog.steps[i].op {
            Op::NoisyRenorm { x, a, noise } => (x.index(), *a, *noise),
            _ => unreachable!(),
        };
        assert_eq!(
            u.shape(),
            nc.shape(),
            "plan replay: noisy_renorm noise shape changed"
        );
        let mut noise = std::mem::take(&mut self.arena.consts[nc.index()]);
        (noise.rows, noise.cols) = nc.shape();
        noise.data.resize(u.data.len(), 0.0);
        let mut out = self.take_val(i);
        let (rows, cols) = (out.rows, out.cols);
        {
            let vx = self.val_ref(x);
            for r in 0..rows {
                let xr = &vx.data[r * cols..(r + 1) * cols];
                let ur = &u.data[r * cols..(r + 1) * cols];
                let nr = &mut noise.data[r * cols..(r + 1) * cols];
                let o = &mut out.data[r * cols..(r + 1) * cols];
                let sx: f32 = xr.iter().sum();
                let mean = sx / cols.max(1) as f32;
                for c in 0..cols {
                    nr[c] = ur[c] * mean;
                }
                for c in 0..cols {
                    o[c] = xr[c] + nr[c] * a;
                }
                let sp: f32 = o.iter().sum();
                let ratio = (sx + 1e-3) * (1.0 / (sp + 1e-3));
                for ov in o.iter_mut() {
                    *ov *= ratio;
                }
            }
        }
        self.arena.consts[nc.index()] = noise;
        self.put_val(i, out);
    }

    /// GEMM `val[a] · val[b]` into `out`, routed through the hoisted
    /// column pack when `b` is a weight of a compiled program. Both routes
    /// are bitwise identical (the packed kernel shares the unpacked one's
    /// tile loop and consumes the same packed bytes).
    fn gemm_step(&self, a: usize, b: usize, out: &mut Matrix, ws: &mut [f32], acc: bool) {
        match self.pack(b) {
            None => kernels::gemm_nn_into(self.val_ref(a), self.val_ref(b), out, ws, acc),
            Some(pack) => kernels::gemm_nn_packed_into(self.val_ref(a), pack, out.cols, out, acc),
        }
    }

    /// The hoisted column pack of step `b`, when it is a parameter of a
    /// compiled program.
    fn pack(&self, b: usize) -> Option<&[f32]> {
        let st = &self.prog.steps[b];
        match (st.val_slot, &st.op) {
            (NONE, Op::Param(pid)) => self.weights().packs[pid.0].as_deref(),
            _ => None,
        }
    }

    /// Fused gate assembly: `out = x·W_ih` (GEMM store), `+= h·W_hh`
    /// (GEMM accumulate), `+= bias` row broadcast. Each element sees
    /// `(xi + hh) + bias` with both products fully accumulated first —
    /// bitwise identical to the unfused `MatMul`/`MatMul`/`AddAddRow`.
    fn eval_fused_gates(&mut self, i: usize, xi: usize, hh: usize) {
        let (x, w1) = match &self.prog.steps[xi].op {
            Op::MatMul(a, b) => (a.index(), b.index()),
            _ => unreachable!(),
        };
        let (h, w2) = match &self.prog.steps[hh].op {
            Op::MatMul(a, b) => (a.index(), b.index()),
            _ => unreachable!(),
        };
        let bias = match &self.prog.steps[i].op {
            Op::AddAddRow(_, _, bias) => bias.index(),
            _ => unreachable!(),
        };
        let mut out = self.take_val(i);
        let mut ws = std::mem::take(&mut self.arena.ws);
        self.gemm_step(x, w1, &mut out, &mut ws, false);
        self.gemm_step(h, w2, &mut out, &mut ws, true);
        let cols = out.cols;
        let vb = self.val_ref(bias);
        for o in out.data.chunks_exact_mut(cols) {
            for (d, &b) in o.iter_mut().zip(&vb.data[..cols]) {
                *d += b;
            }
        }
        self.arena.ws = ws;
        self.put_val(i, out);
    }

    /// Split LSTM cell: write `h` rows into the h-slice's slot and `c`
    /// rows into the c-slice's slot; the `[h | c]` concatenation is never
    /// materialized. The arithmetic is the plain cell forward.
    fn eval_cell_split(&mut self, i: usize, hs: usize, cs: usize) {
        let (gates, c_prev, hidden) = match &self.prog.steps[i].op {
            Op::LstmCell {
                gates,
                c_prev,
                hidden,
            } => (gates.index(), c_prev.index(), *hidden),
            _ => unreachable!(),
        };
        let mut hout = self.take_val(hs);
        let mut cout = self.take_val(cs);
        let mut ws = std::mem::take(&mut self.arena.ws);
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
        self.arena.ws = ws;
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
        let st = &self.prog.steps[j];
        let gs = st.grad_slot as usize;
        let (r, c) = (st.rows as usize, st.cols as usize);
        debug_assert!(r * c <= self.prog.caps[gs], "arena slot capacity underflow");
        let mut m = std::mem::take(&mut self.arena.slots[gs]);
        m.rows = r;
        m.cols = c;
        m.data.resize(r * c, 0.0);
        (m, self.arena.grad_present[j])
    }

    fn put_grad(&mut self, j: usize, m: Matrix) {
        self.arena.slots[self.prog.steps[j].grad_slot as usize] = m;
        self.arena.grad_present[j] = true;
    }

    fn needs(&self, j: usize) -> bool {
        self.prog.steps[j].needs_grad
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
        let mut ws = std::mem::take(&mut self.arena.ws);
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
        self.arena.ws = ws;
        self.put_grad(dst, m);
    }

    /// MatMul backward for step `i`, reading the gradient of `gsrc`
    /// (the step itself, or its fused parent for [`Kind::GateMatmul`]).
    fn bwd_matmul(&mut self, i: usize, gsrc: usize) {
        let (a, b) = match &self.prog.steps[i].op {
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
            let mut ws = std::mem::take(&mut self.arena.ws);
            kernels::gemm_tn_into(
                self.val_ref(a),
                self.grad_ref(gsrc),
                &mut m,
                &mut ws,
                present,
            );
            self.arena.ws = ws;
            self.put_grad(b, m);
        }
    }

    /// `LstmCell` backward, reading the step's own `[h | c]` gradient
    /// ([`Kind::Plain`]) or its two slices' gradients (`split`, for
    /// [`Kind::CellSplit`]). Gate activations are recomputed from the
    /// saved pre-activations: bitwise the forward values. A split cell's
    /// effective `(gh, gc)` rows are selected once per row into workspace
    /// ([`select_cell_grads`]); [`cell_backward_row`] then runs
    /// branch-free element loops.
    fn bwd_lstm(&mut self, i: usize, gsrc_h: usize, gsrc_c: usize, split: bool) {
        let (gates, c_prev, hidden) = match &self.prog.steps[i].op {
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
        let (mut gtar, gpresent) = if ng_g {
            self.take_grad(gates)
        } else {
            (Matrix::default(), false)
        };
        let (mut ctar, cpresent) = if ng_c {
            self.take_grad(c_prev)
        } else {
            (Matrix::default(), false)
        };
        let mut ws = std::mem::take(&mut self.arena.ws);
        {
            let (vg, vc) = (self.val_ref(gates), self.val_ref(c_prev));
            let (hp, cp) = if split {
                (
                    self.arena.grad_present[gsrc_h],
                    self.arena.grad_present[gsrc_c],
                )
            } else {
                (true, true)
            };
            // A split slice whose gradient is absent (no slot assigned, or
            // simply not produced this pass) has nothing to read — its rows
            // are never consumed (`select_cell_grads` checks the presence
            // flag first), so an empty slice stands in for the whole buffer.
            let slot_data = |s: usize, present: bool| -> &[f32] {
                match self.prog.steps[s].grad_slot {
                    _ if !present => &[],
                    NONE => &[],
                    slot => &self.arena.slots[slot as usize].data,
                }
            };
            let gh_all = slot_data(gsrc_h, hp);
            let gc_all = slot_data(gsrc_c, cp);
            let (scratch, sel) = ws[..8 * hidden].split_at_mut(6 * hidden);
            let (gh_sel, gc_sel) = sel.split_at_mut(hidden);
            fn row(all: &[f32], r: usize, hidden: usize) -> &[f32] {
                if all.is_empty() {
                    all
                } else {
                    &all[r * hidden..(r + 1) * hidden]
                }
            }
            for r in 0..vg.rows {
                let gr = &vg.data[r * 4 * hidden..(r + 1) * 4 * hidden];
                let cpv = &vc.data[r * hidden..(r + 1) * hidden];
                let (gh, gc): (&[f32], &[f32]) = if split {
                    select_cell_grads(
                        row(gh_all, r, hidden),
                        row(gc_all, r, hidden),
                        hp,
                        cp,
                        gh_sel,
                        gc_sel,
                    );
                    (gh_sel, gc_sel)
                } else {
                    gh_all[r * 2 * hidden..(r + 1) * 2 * hidden].split_at(hidden)
                };
                let dg = ng_g.then(|| {
                    (
                        &mut gtar.data[r * 4 * hidden..(r + 1) * 4 * hidden],
                        gpresent,
                    )
                });
                let dc = ng_c.then(|| (&mut ctar.data[r * hidden..(r + 1) * hidden], cpresent));
                cell_backward_row(gr, cpv, gh, gc, scratch, dg, dc);
            }
        }
        self.arena.ws = ws;
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
            self.prog.loss,
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
        self.arena.grad_present.fill(false);
        let (mut seed, _) = self.take_grad(loss_idx);
        seed.data[0] = 1.0;
        self.put_grad(loss_idx, seed);
        for i in (0..=loss_idx).rev() {
            if self.prog.steps[i].needs_grad {
                step(self, i, store);
            }
        }
    }

    /// Backward of step `i` — the one backward implementation of every
    /// op: push its gradient contributions to its inputs (parameter
    /// leaves accumulate into `store`), in a fixed order per op.
    pub(crate) fn backward_step(&mut self, i: usize, store: &mut ParamStore) {
        match self.prog.steps[i].kind {
            Kind::CellSlice => return,
            Kind::GateMatmul { parent } => {
                if self.arena.grad_present[parent as usize] {
                    self.bwd_matmul(i, parent as usize);
                }
                return;
            }
            Kind::CellSplit { h_step, c_step } => {
                let (hs, cs) = (h_step as usize, c_step as usize);
                if self.arena.grad_present[hs] || self.arena.grad_present[cs] {
                    self.bwd_lstm(i, hs, cs, true);
                }
                return;
            }
            Kind::FusedGates { .. } => {
                if self.arena.grad_present[i] {
                    let bias = match &self.prog.steps[i].op {
                        Op::AddAddRow(_, _, bias) => bias.index(),
                        _ => unreachable!(),
                    };
                    self.bwd_colsum(i, bias);
                }
                return;
            }
            Kind::Plain => {}
        }
        if !self.arena.grad_present[i] {
            return;
        }
        match &self.prog.steps[i].op {
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
                let st = &self.prog.steps[a];
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
        let ca = self.prog.steps[a].cols as usize;
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
        let cols = self.prog.steps[a].cols as usize;
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
        let cols = self.prog.steps[a].cols as usize;
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
        let cols = self.prog.steps[a].cols as usize;
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
        let (nc, a) = match &self.prog.steps[i].op {
            Op::NoisyRenorm { noise, a, .. } => (*noise, *a),
            _ => unreachable!(),
        };
        let (mut m, present) = self.take_grad(x);
        let mut ws = std::mem::take(&mut self.arena.ws);
        {
            let noise = self.constant(nc);
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
        self.arena.ws = ws;
        self.put_grad(x, m);
    }

    fn bwd_masked_group_mean(&mut self, i: usize, x: usize, group: usize) {
        if !self.needs(x) {
            return;
        }
        let (mc, sc) = match &self.prog.steps[i].op {
            Op::MaskedGroupMean { mask, scale, .. } => (*mask, *scale),
            _ => unreachable!(),
        };
        let (mut m, present) = self.take_grad(x);
        {
            let (mask, scale) = (self.constant(mc), self.constant(sc));
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
        self.put_grad(x, m);
    }

    fn bwd_mse(&mut self, i: usize, a: usize, b: usize) {
        let n = {
            let st = &self.prog.steps[a];
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
        let tc = match &self.prog.steps[i].op {
            Op::BceWithLogits(_, t) => *t,
            _ => unreachable!(),
        };
        let (mut m, present) = self.take_grad(l);
        {
            let targets = self.constant(tc);
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
        self.put_grad(l, m);
    }

    fn bwd_weighted_sum(&mut self, i: usize) {
        let n_terms = match &self.prog.steps[i].op {
            Op::WeightedSum(t) => t.len(),
            _ => unreachable!(),
        };
        let g0 = self.grad_ref(i).data[0];
        for k in 0..n_terms {
            let (id, w) = match &self.prog.steps[i].op {
                Op::WeightedSum(t) => t[k],
                _ => unreachable!(),
            };
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
    }

    fn bwd_gaussian_nll(&mut self, i: usize, mu: usize, sigma: usize) {
        let tc = match &self.prog.steps[i].op {
            Op::GaussianNll { target, .. } => *target,
            _ => unreachable!(),
        };
        let n = {
            let st = &self.prog.steps[mu];
            (st.rows as usize * st.cols as usize).max(1) as f32
        };
        let s = self.grad_ref(i).data[0] / n;
        if self.needs(mu) {
            let (mut m, present) = self.take_grad(mu);
            let (vm, vs) = (self.val_ref(mu), self.val_ref(sigma));
            let target = self.constant(tc);
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
            let target = self.constant(tc);
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

/// One row of the LSTM cell backward, given the effective gradients `gh`
/// and `gc` of the row's new `h` and `c`: recompute the gate activations
/// and `tanh(c)` into `scratch` (`6 * hidden`: activations, `tanh(c)`,
/// `dc`), then write (flag `false`) or add (flag `true`) the gate
/// pre-activation gradient into `dg` and the previous cell's into
/// `dc_prev`. Each element is the composition's arithmetic in its order;
/// the loops carry no per-element branch.
fn cell_backward_row(
    gr: &[f32],
    cpv: &[f32],
    gh: &[f32],
    gc: &[f32],
    scratch: &mut [f32],
    dg: Option<(&mut [f32], bool)>,
    dc_prev: Option<(&mut [f32], bool)>,
) {
    let hidden = cpv.len();
    let (act, rest) = scratch.split_at_mut(4 * hidden);
    let (ct, dc) = rest.split_at_mut(hidden);
    cell_act(gr, act, hidden);
    let (i_v, rest) = act.split_at(hidden);
    let (f_v, rest) = rest.split_at(hidden);
    let (cand, o_v) = rest.split_at(hidden);
    for k in 0..hidden {
        ct[k] = kernels::fast_tanh(f_v[k] * cpv[k] + i_v[k] * cand[k]);
    }
    for k in 0..hidden {
        dc[k] = gc[k] + gh[k] * o_v[k] * (1.0 - ct[k] * ct[k]);
    }
    if let Some((dgr, add)) = dg {
        let (d_i, rest) = dgr.split_at_mut(hidden);
        let (d_f, rest) = rest.split_at_mut(hidden);
        let (d_g, d_o) = rest.split_at_mut(hidden);
        if add {
            for k in 0..hidden {
                d_i[k] += dc[k] * cand[k] * i_v[k] * (1.0 - i_v[k]);
            }
            for k in 0..hidden {
                d_f[k] += dc[k] * cpv[k] * f_v[k] * (1.0 - f_v[k]);
            }
            for k in 0..hidden {
                d_g[k] += dc[k] * i_v[k] * (1.0 - cand[k] * cand[k]);
            }
            for k in 0..hidden {
                d_o[k] += gh[k] * ct[k] * o_v[k] * (1.0 - o_v[k]);
            }
        } else {
            for k in 0..hidden {
                d_i[k] = dc[k] * cand[k] * i_v[k] * (1.0 - i_v[k]);
            }
            for k in 0..hidden {
                d_f[k] = dc[k] * cpv[k] * f_v[k] * (1.0 - f_v[k]);
            }
            for k in 0..hidden {
                d_g[k] = dc[k] * i_v[k] * (1.0 - cand[k] * cand[k]);
            }
            for k in 0..hidden {
                d_o[k] = gh[k] * ct[k] * o_v[k] * (1.0 - o_v[k]);
            }
        }
    }
    if let Some((dcr, add)) = dc_prev {
        if add {
            for k in 0..hidden {
                dcr[k] += dc[k] * f_v[k];
            }
        } else {
            for k in 0..hidden {
                dcr[k] = dc[k] * f_v[k];
            }
        }
    }
}

/// Effective `(gh, gc)` rows of a [`Kind::CellSplit`] cell's backward,
/// written into `gh` and `gc`.
///
/// The two unfused `SliceCols` backwards would have assembled the
/// `[h | c]` gradient by scattering the c-slice's gradient first (set)
/// and then adding the h-slice's (add). Replicated exactly: when both
/// slices contributed (`hp`, `cp`), `gh = 0.0 + gh_raw` and
/// `gc = gc_raw + 0.0` (the adds matter for `-0.0`); a lone contribution
/// keeps its raw bits and the other side is exactly `0.0`. An absent
/// side's row is not read.
fn select_cell_grads(
    gh_raw: &[f32],
    gc_raw: &[f32],
    hp: bool,
    cp: bool,
    gh: &mut [f32],
    gc: &mut [f32],
) {
    if hp && cp {
        for (d, &g) in gh.iter_mut().zip(gh_raw) {
            *d = 0.0 + g;
        }
        for (d, &g) in gc.iter_mut().zip(gc_raw) {
            *d = g + 0.0;
        }
        return;
    }
    if hp {
        gh.copy_from_slice(gh_raw);
    } else {
        gh.fill(0.0);
    }
    if cp {
        gc.copy_from_slice(gc_raw);
    } else {
        gc.fill(0.0);
    }
}

/// The per-run constants an op reads, for sizing them at compile time.
fn op_consts(op: &Op) -> [Option<Const>; 2] {
    match op {
        Op::NoisyRenorm { noise, .. } => [Some(*noise), None],
        Op::MaskedGroupMean { mask, scale, .. } => [Some(*mask), Some(*scale)],
        Op::BceWithLogits(_, targets) => [Some(*targets), None],
        Op::GaussianNll { target, .. } => [Some(*target), None],
        _ => [None, None],
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

/// Compile recorded steps into a [`Program`]: decide each step's
/// [`Kind`], then assign its value and gradient buffers to arena slots.
/// Parameter values take no slot: a run reads them from its weight copy.
fn compile(mut nodes: Vec<Step>, loss: Option<usize>) -> Program {
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
                && !nodes[a].ext
                && !nodes[b].ext
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
            if nodes[i].ext || consumers[i].len() != 2 {
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
        // Externally-read values are pinned: ext reads can happen any
        // time during replay.
        if node.ext {
            val_end[i] = PINNED;
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
        if !matches!(kind[i], Kind::GateMatmul { .. }) && !matches!(node.op, Op::Param(_)) {
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
    // version in its weight copy instead of once per kernel call.
    let mut packs: Vec<ParamId> = Vec::new();
    for node in nodes.iter() {
        if let Op::MatMul(_, b) = node.op {
            if let Op::Param(pid) = nodes[b.index()].op {
                if !packs.contains(&pid) {
                    packs.push(pid);
                }
            }
        }
    }

    let mut const_lens: Vec<usize> = Vec::new();
    for node in nodes.iter() {
        for c in op_consts(&node.op).into_iter().flatten() {
            if const_lens.len() <= c.index() {
                const_lens.resize(c.index() + 1, 0);
            }
            let (rows, cols) = c.shape();
            const_lens[c.index()] = rows * cols;
        }
    }

    for (i, st) in nodes.iter_mut().enumerate() {
        st.kind = kind[i];
        st.val_slot = val_slots[i];
        st.grad_slot = grad_slots[i];
    }

    Program {
        steps: nodes,
        caps,
        ws_len,
        const_lens,
        loss,
        param_steps,
        packs,
        ranges,
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
        Op::LstmCell { hidden, .. } => 8 * hidden,
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

/// Maximum number of programs kept per cache; the least recently used is
/// evicted beyond it.
const PLAN_CACHE_CAP: usize = 64;

/// A small keyed store of compiled programs, with a pool of idle arenas
/// and one weight copy per parameter store. A run borrows its program by
/// `Arc` and is lent an arena, which it returns afterwards, so one cache
/// serves concurrent shard workers: two runs of one key share its
/// program and need two arenas only while both run.
#[derive(Debug, Default)]
pub struct PlanCache {
    inner: Mutex<Cached>,
    weights: Arc<WeightPool>,
}

#[derive(Debug, Default)]
struct Cached {
    /// Least recently used first.
    programs: Vec<(PlanKey, Arc<Program>)>,
    /// Arenas no run holds, each fitted to the programs it has served.
    idle: Vec<Arena>,
}

impl Cached {
    /// The program cached for `key`, marked most recently used.
    fn touch(&mut self, key: &PlanKey) -> Option<Arc<Program>> {
        let pos = self.programs.iter().position(|(k, _)| k == key)?;
        let entry = self.programs.remove(pos);
        let prog = Arc::clone(&entry.1);
        self.programs.push(entry);
        Some(prog)
    }
}

/// What a [`PlanCache`] holds, for diagnostics and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Compiled programs.
    pub programs: usize,
    /// Idle arenas in the pool (lent ones are not counted).
    pub arenas: usize,
    /// Heap bytes of the idle arenas.
    pub arena_bytes: usize,
    /// Weight copies: one per parameter store the programs have read.
    pub weight_copies: usize,
    /// Heap bytes of the weight copies (values and packs).
    pub weight_bytes: usize,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute the graph keyed by `key` once: replay its cached program
    /// in a lent arena on a hit; on a miss, record the graph and cache
    /// its compiled program. `build` runs the model code on the graph and
    /// returns its result plus the loss node it ran backward from (`None`
    /// for forward-only graphs).
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

    /// A run of the program for `key`, if one is cached: the program,
    /// an idle arena from the pool (or a new, empty one) and the cache's
    /// weight copies. A miss drops the idle arenas: the tape recorded
    /// next would otherwise stack on top of them. The next replay fits
    /// a fresh arena.
    pub fn take(&self, key: &PlanKey) -> Option<Plan> {
        let mut inner = self.inner.lock();
        let Some(prog) = inner.touch(key) else {
            inner.idle.clear();
            return None;
        };
        let arena = inner.idle.pop().unwrap_or_default();
        Some(Plan {
            prog,
            arena,
            pool: Arc::clone(&self.weights),
            weights: None,
        })
    }

    /// Return a run: cache its program under `key` unless the key
    /// already has one (two concurrent first runs compile a key twice;
    /// the first program put stays), mark the key most recently used,
    /// and pool the run's arena.
    pub fn put(&self, key: PlanKey, plan: Plan) {
        let Plan { prog, arena, .. } = plan;
        let mut inner = self.inner.lock();
        if inner.touch(&key).is_none() {
            if inner.programs.len() >= PLAN_CACHE_CAP {
                inner.programs.remove(0);
            }
            inner.programs.push((key, prog));
        }
        if !arena.slots.is_empty() {
            inner.idle.push(arena);
        }
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.inner.lock().programs.len()
    }

    /// True when no programs are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Programs, idle arenas and weight copies held, with their bytes.
    pub fn stats(&self) -> PlanCacheStats {
        let (programs, arenas, arena_bytes) = {
            let inner = self.inner.lock();
            let bytes = inner.idle.iter().map(Arena::bytes).sum();
            (inner.programs.len(), inner.idle.len(), bytes)
        };
        let (weight_copies, weight_bytes) = self.weights.usage();
        PlanCacheStats {
            programs,
            arenas,
            arena_bytes,
            weight_copies,
            weight_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::params::Sgd;
    use crate::rng::Rng;
    use gendt_sync::atomic::{AtomicUsize, Ordering};

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
        let kinds: Vec<&Kind> = plan.prog.steps.iter().map(|s| &s.kind).collect();
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
        let q = cache.take(&key).expect("program shared");
        assert_eq!(
            cache.len(),
            1,
            "a take lends the program, it does not remove it"
        );
        assert!(
            Arc::ptr_eq(&p.prog, &q.prog),
            "two runs of one key share its program"
        );
        assert!(!p.is_empty());
    }

    /// Loss bits and every parameter gradient's bits.
    type Bits = (u32, Vec<Vec<u32>>);

    fn bits_of(loss: f32, grads: &ParamStore) -> Bits {
        let g = grads
            .iter()
            .map(|p| p.grad.data.iter().map(|v| v.to_bits()).collect())
            .collect();
        (loss.to_bits(), g)
    }

    /// One training step of the all-ops model through `cache`: parameters
    /// read from `store`, gradients into `grads`; `meet` runs once the
    /// graph is built and backward has run, while the run still holds
    /// its arena.
    fn cached_step(
        cache: &PlanCache,
        store: &ParamStore,
        ids: &[ParamId],
        grads: &mut ParamStore,
        d: &Data,
        meet: impl FnOnce(),
    ) -> Bits {
        cache.run(PlanKey::new("all_ops", [0; 6]), |g| {
            grads.zero_grad();
            let loss = build_all_ops(g, store, ids, d);
            let lv = g.value(loss).data[0];
            g.backward(loss, grads);
            meet();
            (bits_of(lv, grads), Some(loss))
        })
    }

    /// Both threads wait here until the other has arrived.
    fn rendezvous(arrived: &AtomicUsize) {
        arrived.fetch_add(1, Ordering::SeqCst);
        while arrived.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_runs_of_one_key_share_one_program_on_two_arenas() {
        let (store, ids) = mk_store(37);
        let data = [mk_data(71), mk_data(72)];
        let cache = PlanCache::new();
        // Two threads inside `run` at once: first both recording (both
        // miss, both compile; one program is kept), then both replaying.
        let together = |cache: &PlanCache| -> Vec<Bits> {
            let arrived = AtomicUsize::new(0);
            std::thread::scope(|sc| {
                let runs: Vec<_> = data
                    .iter()
                    .map(|d| {
                        let (store, ids, arrived) = (&store, &ids, &arrived);
                        sc.spawn(move || {
                            let mut grads = store.clone();
                            cached_step(cache, store, ids, &mut grads, d, || rendezvous(arrived))
                        })
                    })
                    .collect();
                runs.into_iter()
                    .map(|h| h.join().expect("run thread"))
                    .collect()
            })
        };
        let recorded = together(&cache);
        let stats = cache.stats();
        assert_eq!((stats.programs, stats.arenas), (1, 0), "{stats:?}");
        let replayed = together(&cache);
        let stats = cache.stats();
        assert_eq!((stats.programs, stats.arenas), (1, 2), "{stats:?}");
        assert_eq!(stats.weight_copies, 1, "{stats:?}");
        // The same two replays one after the other, on the pooled arenas.
        let sequential: Vec<Bits> = data
            .iter()
            .map(|d| cached_step(&cache, &store, &ids, &mut store.clone(), d, || {}))
            .collect();
        assert_eq!(replayed, sequential);
        assert_eq!(recorded, sequential);
        assert_eq!(
            cache.stats(),
            stats,
            "sequential replays reuse the two arenas"
        );
    }

    #[test]
    fn the_least_recently_used_program_is_evicted() {
        let (store, ids) = mk_store(41);
        let cache = PlanCache::new();
        let forward = |g: &mut Graph| {
            let w = g.param(&store, ids[0]);
            g.tanh(w);
            ((), None)
        };
        let key = |i: u64| PlanKey::new("tanh", [i, 0, 0, 0, 0, 0]);
        // Key 0 is recorded first and used again after every new key.
        cache.run(key(0), forward);
        for i in 1..PLAN_CACHE_CAP as u64 {
            cache.run(key(i), forward);
            cache.run(key(0), forward);
        }
        // The cache is full: one more key evicts the one used longest ago.
        cache.run(key(PLAN_CACHE_CAP as u64), forward);
        assert_eq!(cache.len(), PLAN_CACHE_CAP);
        assert!(cache.take(&key(0)).is_some(), "the hot key stays cached");
        assert!(
            cache.take(&key(1)).is_none(),
            "the key used longest ago is evicted"
        );
    }

    /// A second program over the same store: a two-layer head with its
    /// own shapes, so it binds the pooled arena differently.
    fn build_head(g: &mut Graph, store: &ParamStore, ids: &[ParamId], d: &Data) -> NodeId {
        let x = g.input_ref(&d.x);
        let w = g.param(store, ids[0]);
        let h = g.matmul(x, w);
        let t = g.tanh(h);
        let w2 = g.param(store, ids[2]);
        let y = g.matmul(t, w2);
        let s = g.slice_cols(y, 0, 4);
        let r = g.slice_rows(s, 0, 2);
        let tin = g.input_ref(&d.tgt);
        g.mse_loss(r, tin)
    }

    /// One step of program `which` (0: all ops, 1: the head) through
    /// `cache`, with its gradients in `grads`.
    fn step_into(
        which: usize,
        cache: &PlanCache,
        store: &ParamStore,
        ids: &[ParamId],
        d: &Data,
        grads: &mut ParamStore,
    ) -> Bits {
        grads.zero_grad();
        let key = PlanKey::new(["all_ops", "head"][which], [0; 6]);
        cache.run(key, |g| {
            let loss = if which == 0 {
                build_all_ops(g, store, ids, d)
            } else {
                build_head(g, store, ids, d)
            };
            let lv = g.value(loss).data[0];
            g.backward(loss, grads);
            (bits_of(lv, grads), Some(loss))
        })
    }

    fn step_of(
        which: usize,
        cache: &PlanCache,
        store: &ParamStore,
        ids: &[ParamId],
        d: &Data,
    ) -> Bits {
        step_into(which, cache, store, ids, d, &mut store.clone())
    }

    #[test]
    fn programs_alternating_on_one_pooled_arena_match_fresh_arenas() {
        let (mut store, ids) = mk_store(43);
        let cache = PlanCache::new();
        let mut sgd = Sgd::new(0.05);
        for step in 0..6u64 {
            let which = (step % 2) as usize;
            let d = mk_data(100 + step);
            let mut grads = store.clone();
            let pooled = step_into(which, &cache, &store, &ids, &d, &mut grads);
            // The same step on a fresh arena: a new cache records it, then
            // replays it on the first arena it lends.
            let fresh = PlanCache::new();
            let recorded = step_of(which, &fresh, &store, &ids, &d);
            let replayed = step_of(which, &fresh, &store, &ids, &d);
            assert_eq!(pooled, replayed, "step {step}: pooled arena vs fresh arena");
            assert_eq!(pooled, recorded, "step {step}: replay vs recording");
            // Train on the pooled run's gradients.
            store.zero_grad();
            store.accumulate_grads_from(&grads);
            sgd.step(&mut store);
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.programs, stats.arenas, stats.weight_copies),
            (2, 1, 1),
            "{stats:?}"
        );
    }

    #[test]
    fn a_store_version_is_synced_once_per_cache() {
        let (mut store, ids) = mk_store(47);
        let d = mk_data(81);
        let cache = PlanCache::new();
        let syncs = |cache: &PlanCache| cache.weights.copies.lock().syncs;
        // Recording reads the store directly; replays read the copy.
        for which in [0, 1] {
            step_of(which, &cache, &store, &ids, &d);
        }
        assert_eq!(syncs(&cache), 0);
        for _ in 0..2 {
            for which in [0, 1] {
                step_of(which, &cache, &store, &ids, &d);
            }
        }
        assert_eq!(syncs(&cache), 1, "one version, two programs, four replays");
        sgd_step(&mut store);
        for which in [0, 1] {
            step_of(which, &cache, &store, &ids, &d);
        }
        assert_eq!(syncs(&cache), 2, "a new version is synced once");
        // Another store with the same parameter ids gets its own copy.
        let (other, _) = mk_store(48);
        step_of(1, &cache, &other, &ids, &d);
        assert_eq!(cache.stats().weight_copies, 2);
        assert_eq!(syncs(&cache), 3);
    }

    fn sgd_step(store: &mut ParamStore) {
        for p in 0..store.len() {
            let id = ParamId(p);
            store.value_mut(id).data.iter_mut().for_each(|v| *v *= 0.99);
        }
    }

    #[test]
    fn replays_leave_the_shared_program_unchanged() {
        let (store, ids) = mk_store(53);
        let cache = PlanCache::new();
        let mut grads = store.clone();
        cached_step(&cache, &store, &ids, &mut grads, &mk_data(90), || {});
        let prog = cache
            .take(&PlanKey::new("all_ops", [0; 6]))
            .expect("program cached")
            .prog;
        let ops: Vec<Op> = prog.steps.iter().map(|s| s.op.clone()).collect();
        // Fresh noise, masks and targets on every replay.
        for seed in 91..94 {
            cached_step(&cache, &store, &ids, &mut grads, &mk_data(seed), || {});
        }
        let after: Vec<Op> = prog.steps.iter().map(|s| s.op.clone()).collect();
        assert_eq!(ops, after, "a replay changed an op of the shared program");
        assert_eq!(cache.len(), 1);
    }

    /// The LSTM cell backward as it was written per element — sources
    /// chosen and set-or-add decided inside the loop — kept as the oracle
    /// of [`select_cell_grads`] and [`cell_backward_row`].
    #[allow(clippy::too_many_arguments)]
    fn cell_backward_oracle(
        gr: &[f32],
        cpv: &[f32],
        gh_row: &[f32],
        gc_row: &[f32],
        (hp, cp, split): (bool, bool, bool),
        dgr: &mut [f32],
        gpresent: bool,
        dcr: &mut [f32],
        cpresent: bool,
    ) {
        let hidden = cpv.len();
        let mut act = vec![0.0; 4 * hidden];
        let mut ct = vec![0.0; hidden];
        let mut dc_total = vec![0.0; hidden];
        cell_act(gr, &mut act, hidden);
        let (i_v, rest) = act.split_at(hidden);
        let (f_v, rest) = rest.split_at(hidden);
        let (cand, o_v) = rest.split_at(hidden);
        for k in 0..hidden {
            ct[k] = kernels::fast_tanh(f_v[k] * cpv[k] + i_v[k] * cand[k]);
        }
        for k in 0..hidden {
            let (gh_k, gc_k) = grad_pair(gh_row, gc_row, k, hp, cp, split);
            dc_total[k] = gc_k + gh_k * o_v[k] * (1.0 - ct[k] * ct[k]);
        }
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
        for k in 0..hidden {
            let d = dc_total[k] * f_v[k];
            if cpresent {
                dcr[k] += d;
            } else {
                dcr[k] = d;
            }
        }
    }

    /// The oracle's per-element choice of gradient sources.
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

    #[test]
    fn cell_backward_matches_the_per_element_oracle() {
        let mut rng = Rng::seed_from(61);
        let mut draw = |n: usize, lo: f64, hi: f64| -> Vec<f32> {
            (0..n)
                .map(|k| match k % 7 {
                    // Signed zeros, where `0.0 + g` and `g + 0.0` differ
                    // from `g`.
                    2 => -0.0,
                    5 => 0.0,
                    _ => rng.uniform(lo, hi) as f32,
                })
                .collect()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for hidden in [1usize, 5, 8, 13] {
            let cases: &[(bool, bool, bool)] = &[
                (true, true, false),
                (true, true, true),
                (true, false, true),
                (false, true, true),
                (false, false, true),
            ];
            for &(hp, cp, split) in cases {
                for (gadd, cadd) in [(false, false), (false, true), (true, false), (true, true)] {
                    let gr = draw(4 * hidden, -3.0, 3.0);
                    let cpv = draw(hidden, -1.0, 1.0);
                    let hc = draw(2 * hidden, -1.0, 1.0);
                    // A split cell reads its slices' rows (an absent one
                    // is empty); a plain cell the halves of its `[h | c]`.
                    let (gh_raw, gc_raw) = if split {
                        let (h, c) = hc.split_at(hidden);
                        (if hp { h } else { &[][..] }, if cp { c } else { &[][..] })
                    } else {
                        hc.split_at(hidden)
                    };
                    let dg0 = draw(4 * hidden, -1.0, 1.0);
                    let dc0 = draw(hidden, -1.0, 1.0);
                    let (mut dg_want, mut dc_want) = (dg0.clone(), dc0.clone());
                    cell_backward_oracle(
                        &gr,
                        &cpv,
                        gh_raw,
                        gc_raw,
                        (hp, cp, split),
                        &mut dg_want,
                        gadd,
                        &mut dc_want,
                        cadd,
                    );
                    let (mut dg, mut dc) = (dg0.clone(), dc0.clone());
                    let mut ws = vec![0.0; 8 * hidden];
                    let (scratch, sel) = ws.split_at_mut(6 * hidden);
                    let (gh_sel, gc_sel) = sel.split_at_mut(hidden);
                    let (gh, gc): (&[f32], &[f32]) = if split {
                        select_cell_grads(gh_raw, gc_raw, hp, cp, gh_sel, gc_sel);
                        (gh_sel, gc_sel)
                    } else {
                        (gh_raw, gc_raw)
                    };
                    cell_backward_row(
                        &gr,
                        &cpv,
                        gh,
                        gc,
                        scratch,
                        Some((&mut dg, gadd)),
                        Some((&mut dc, cadd)),
                    );
                    let case = format!("hidden {hidden}, {hp}/{cp}/{split}, add {gadd}/{cadd}");
                    assert_eq!(bits(&dg), bits(&dg_want), "gate gradient, {case}");
                    assert_eq!(bits(&dc), bits(&dc_want), "cell gradient, {case}");
                }
            }
        }
    }

    #[test]
    fn fold_dims_separates_shape_lists() {
        let a = fold_dims([50u64, 50, 48]);
        let b = fold_dims([50u64, 48, 50]);
        assert_ne!(a, b);
        assert_eq!(a, fold_dims([50u64, 50, 48]));
    }
}
