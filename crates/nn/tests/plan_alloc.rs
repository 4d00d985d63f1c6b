//! Proof of the plan executor's headline property: replaying a compiled
//! plan — forward, backward, and optimizer step — performs **zero heap
//! allocations** after the first (warm-up) replay. A plan whose arena a
//! cache miss released allocates exactly that arena on its next replay,
//! and nothing after.
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

#[test]
fn released_arena_is_reserved_on_the_next_replay_only() {
    gendt_nn::set_num_threads(1);
    let mut rng = Rng::seed_from(23);
    let mut store = ParamStore::new();
    let p = init(&mut store, &mut rng);
    let mut x = Matrix::zeros(BATCH, IN);
    let c0 = Matrix::zeros(BATCH, HIDDEN);
    let mut tgt = Matrix::zeros(BATCH, OUT);
    for v in x.data.iter_mut().chain(tgt.data.iter_mut()) {
        *v = rng.uniform(-1.0, 1.0) as f32;
    }
    let grads = |store: &ParamStore| -> Vec<Vec<f32>> {
        store.iter().map(|q| q.grad.data.clone()).collect()
    };

    // Record one step, replay it once so its parameter slots are synced,
    // and cache the plan. No optimizer step follows, so every replay
    // below sees the recording's inputs and parameters.
    let step = |g: &mut Graph, store: &mut ParamStore| -> NodeId {
        store.zero_grad();
        let loss = build(g, store, &p, &x, &c0, &tgt);
        g.backward(loss, store);
        loss
    };
    let mut g = Graph::new();
    let loss = step(&mut g, &mut store);
    let recorded = (g.value(loss).data[0].to_bits(), grads(&store));
    let mut g = Graph::replay(g.into_plan(Some(loss)));
    let loss = step(&mut g, &mut store);
    let cache = PlanCache::new();
    let key = PlanKey::new("step", [BATCH as u64, 0, 0, 0, 0, 0]);
    cache.put(key, g.into_plan(Some(loss)));

    // A miss on another key releases the cached plan's arena.
    assert!(cache.take(&PlanKey::new("other", [0; 6])).is_none());
    let mut plan = cache
        .take(&key)
        .expect("a miss keeps the other plans cached");
    let arena = plan.arena_bytes() as u64;
    assert!(arena > 0);

    for replay in 0..3 {
        let before = snapshot();
        let mut g = Graph::replay(plan);
        let loss = step(&mut g, &mut store);
        let l = g.value(loss).data[0];
        plan = g.into_plan(Some(loss));
        let traffic = snapshot().since(before);
        assert_eq!(
            (l.to_bits(), grads(&store)),
            recorded,
            "replay {replay} after the release diverged from the recording"
        );
        let want = if replay == 0 { arena } else { 0 };
        assert_eq!(
            traffic.bytes, want,
            "replay {replay} allocated {} byte(s) in {} call(s)",
            traffic.bytes, traffic.allocs
        );
    }
}
