//! Proof of the plan executor's headline property: replaying a compiled
//! plan — forward, backward, and optimizer step — performs **zero heap
//! allocations** after the first (warm-up) replay. Programs that take
//! turns on one pooled arena allocate nothing once each has fitted it,
//! and after a cache miss dropped the idle arenas the next replay
//! allocates exactly one arena again, and nothing after.
//!
//! The test binary installs the vendored counting allocator globally and
//! diffs its per-thread counters around replayed training steps. The
//! production crates all `forbid(unsafe_code)`, so the allocator lives
//! in `vendor/alloc-counter`; everything here is safe code.

use alloc_counter::{snapshot, CountingAlloc};
use gendt_nn::{Graph, Matrix, NodeId, ParamId, ParamStore, PlanCache, PlanKey, Rng, Sgd};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const BATCH: usize = 4;
const IN: usize = 6;
const HIDDEN: usize = 5;
const OUT: usize = 3;

struct Params {
    w: ParamId,
    wh: ParamId,
    b: ParamId,
    w2: ParamId,
}

fn init(store: &mut ParamStore, rng: &mut Rng) -> Params {
    Params {
        w: store.add_xavier("w", IN, 4 * HIDDEN, rng),
        wh: store.add_xavier("wh", IN, 4 * HIDDEN, rng),
        b: store.add_zeros("b", 1, 4 * HIDDEN),
        w2: store.add_xavier("w2", HIDDEN, OUT, rng),
    }
}

/// One training-step graph: gate matmuls (fusion-eligible), an LSTM
/// cell consumed by its two covering slices (split-eligible, with the
/// `c` half dead so its gradient never materializes), a head matmul,
/// and an MSE loss. All leaves enter by reference so a replayed step
/// never clones an input.
fn build(
    g: &mut Graph,
    store: &ParamStore,
    p: &Params,
    x: &Matrix,
    c0: &Matrix,
    tgt: &Matrix,
) -> NodeId {
    let x = g.input_ref(x);
    let w = g.param(store, p.w);
    let wh = g.param(store, p.wh);
    let b = g.param(store, p.b);
    let w2 = g.param(store, p.w2);
    let c_prev = g.input_ref(c0);
    let xi = g.matmul(x, w);
    let hh = g.matmul(x, wh);
    let gates = g.add_add_row(xi, hh, b);
    let cell = g.lstm_cell(gates, c_prev, HIDDEN);
    let h = g.slice_cols(cell, 0, HIDDEN);
    let _c = g.slice_cols(cell, HIDDEN, 2 * HIDDEN);
    let y = g.matmul(h, w2);
    let target = g.input_ref(tgt);
    g.mse_loss(y, target)
}

#[test]
fn replayed_train_steps_do_not_allocate() {
    // Single-threaded: the counters are thread-local, and the blocked
    // kernels' multi-thread fallback path allocates by design.
    gendt_nn::set_num_threads(1);
    let mut rng = Rng::seed_from(11);
    let mut store = ParamStore::new();
    let p = init(&mut store, &mut rng);
    let mut opt = Sgd::new(0.05);

    let mut x = Matrix::zeros(BATCH, IN);
    let c0 = Matrix::zeros(BATCH, HIDDEN);
    let mut tgt = Matrix::zeros(BATCH, OUT);
    let fill = |m: &mut Matrix, rng: &mut Rng| {
        for v in m.data.iter_mut() {
            *v = rng.uniform(-1.0, 1.0) as f32;
        }
    };

    // Record once. Reading the loss marks its step externally-read, so
    // every replay can read it back too.
    fill(&mut x, &mut rng);
    fill(&mut tgt, &mut rng);
    store.zero_grad();
    let mut g = Graph::new();
    let loss = build(&mut g, &store, &p, &x, &c0, &tgt);
    g.backward(loss, &mut store);
    assert!(g.value(loss).data[0].is_finite());
    opt.step(&mut store);
    let mut plan = g.into_plan(Some(loss));

    // Warm-up replay: first param sync, scratch binding.
    fill(&mut x, &mut rng);
    fill(&mut tgt, &mut rng);
    store.zero_grad();
    let mut g = Graph::replay(plan);
    let loss = build(&mut g, &store, &p, &x, &c0, &tgt);
    g.backward(loss, &mut store);
    opt.step(&mut store);
    plan = g.into_plan(Some(loss));

    // Measured replays: fresh data, forward, backward, optimizer —
    // not one allocation allowed.
    for step in 0..5 {
        fill(&mut x, &mut rng);
        fill(&mut tgt, &mut rng);
        store.zero_grad();
        let before = snapshot();
        let mut g = Graph::replay(plan);
        let loss = build(&mut g, &store, &p, &x, &c0, &tgt);
        g.backward(loss, &mut store);
        let l = g.value(loss).data[0];
        plan = g.into_plan(Some(loss));
        let after = snapshot();
        opt.step(&mut store);
        assert!(l.is_finite(), "loss went non-finite at step {step}");
        let traffic = after.since(before);
        assert_eq!(
            (traffic.allocs, traffic.bytes),
            (0, 0),
            "replayed step {step} allocated {} time(s) / {} byte(s)",
            traffic.allocs,
            traffic.bytes
        );
    }
}

/// One training step of `build` through `cache`, keyed by the batch
/// size: parameters read from `store`, gradients into it. Returns the
/// loss bits.
fn cached_step(
    cache: &PlanCache,
    store: &mut ParamStore,
    p: &Params,
    (x, c0, tgt): (&Matrix, &Matrix, &Matrix),
) -> u32 {
    let key = PlanKey::new("step", [x.rows as u64, 0, 0, 0, 0, 0]);
    store.zero_grad();
    cache.run(key, |g| {
        let loss = build(g, store, p, x, c0, tgt);
        g.backward(loss, store);
        (g.value(loss).data[0].to_bits(), Some(loss))
    })
}

/// Fresh values in `[-1, 1)`.
fn fill(m: &mut Matrix, rng: &mut Rng) {
    for v in m.data.iter_mut() {
        *v = rng.uniform(-1.0, 1.0) as f32;
    }
}

/// Batch inputs, cell state and targets of `rows` windows.
fn batch(rows: usize, rng: &mut Rng) -> (Matrix, Matrix, Matrix) {
    let (mut x, c0, mut tgt) = (
        Matrix::zeros(rows, IN),
        Matrix::zeros(rows, HIDDEN),
        Matrix::zeros(rows, OUT),
    );
    fill(&mut x, rng);
    fill(&mut tgt, rng);
    (x, c0, tgt)
}

#[test]
fn released_arena_is_reserved_on_the_next_replay_only() {
    gendt_nn::set_num_threads(1);
    let mut rng = Rng::seed_from(23);
    let mut store = ParamStore::new();
    let p = init(&mut store, &mut rng);
    let (x, c0, tgt) = batch(BATCH, &mut rng);
    let grads = |store: &ParamStore| -> Vec<Vec<f32>> {
        store.iter().map(|q| q.grad.data.clone()).collect()
    };

    // Record one step, then replay it once so the cache holds a fitted
    // arena and a synced weight copy. No optimizer step follows, so every
    // run below sees the recording's inputs and parameters.
    let cache = PlanCache::new();
    let l = cached_step(&cache, &mut store, &p, (&x, &c0, &tgt));
    let recorded = (l, grads(&store));
    cached_step(&cache, &mut store, &p, (&x, &c0, &tgt));
    let warm = cache.stats();
    assert_eq!((warm.programs, warm.arenas, warm.weight_copies), (1, 1, 1));
    assert!(warm.arena_bytes > 0);

    // A miss on another key drops the idle arena; the weights stay.
    assert!(cache.take(&PlanKey::new("other", [0; 6])).is_none());
    let dropped = cache.stats();
    assert_eq!(
        (dropped.programs, dropped.arenas, dropped.weight_copies),
        (1, 0, 1)
    );

    // The next replay fits a fresh arena of the same size, and the ones
    // after it allocate nothing.
    for replay in 0..3 {
        let before = snapshot();
        let l = cached_step(&cache, &mut store, &p, (&x, &c0, &tgt));
        let traffic = snapshot().since(before);
        assert_eq!(
            (l, grads(&store)),
            recorded,
            "replay {replay} after the miss diverged from the recording"
        );
        let want = if replay == 0 {
            warm.arena_bytes as u64
        } else {
            0
        };
        assert_eq!(
            traffic.bytes, want,
            "replay {replay} allocated {} byte(s) in {} call(s)",
            traffic.bytes, traffic.allocs
        );
        assert_eq!(
            cache.stats(),
            warm,
            "replay {replay} left another cache state"
        );
    }
}

#[test]
fn alternating_programs_allocate_nothing_once_each_has_fitted_the_arena() {
    // Two programs of one model (the batch sizes differ, as a
    // teacher-forced and a free-running step's programs do) take turns
    // on one pooled arena, with an optimizer step after every run.
    gendt_nn::set_num_threads(1);
    let mut rng = Rng::seed_from(31);
    let mut store = ParamStore::new();
    let p = init(&mut store, &mut rng);
    let mut opt = Sgd::new(0.05);
    let mut batches = [batch(BATCH, &mut rng), batch(BATCH + 3, &mut rng)];
    let cache = PlanCache::new();
    for run in 0..10 {
        let (x, c0, tgt) = &mut batches[run % 2];
        fill(x, &mut rng);
        fill(tgt, &mut rng);
        let before = snapshot();
        let l = cached_step(&cache, &mut store, &p, (x, c0, tgt));
        let traffic = snapshot().since(before);
        opt.step(&mut store);
        assert!(f32::from_bits(l).is_finite(), "run {run}");
        // Runs 0-1 record; runs 2-3 fit the arena to each program.
        if run >= 4 {
            assert_eq!(
                (traffic.allocs, traffic.bytes),
                (0, 0),
                "run {run} allocated {} time(s) / {} byte(s)",
                traffic.allocs,
                traffic.bytes
            );
        }
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.programs, stats.arenas, stats.weight_copies),
        (2, 1, 1),
        "{stats:?}"
    );
}
