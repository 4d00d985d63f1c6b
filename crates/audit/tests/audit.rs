//! Self-tests for the verification layer.
//!
//! The audit crate only earns trust by catching *seeded* defects, so the
//! tests here plant a wrong gradient, a mid-graph `Inf`, and a directory
//! of lint violations, and assert each detector fires — alongside the
//! clean-path assertions (every real op passes gradcheck, the real repo
//! lints clean, the zoo covers every variant).

use gendt_audit::{gradcheck, lint, tape, zoo};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use gendt_nn::{Graph, Matrix};

/// Serializes tests that flip the global `GENDT_SANITIZE` state.
static SANITIZE_LOCK: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------
// Gradcheck: clean path + seeded wrong gradient
// ---------------------------------------------------------------------

#[test]
fn gradcheck_every_case_passes() {
    for r in gradcheck::run_all() {
        assert!(
            r.passed,
            "case {} failed (max_rel_err {:.3e}): {}",
            r.name, r.max_rel_err, r.detail
        );
    }
}

#[test]
fn gradcheck_detects_seeded_wrong_gradient() {
    // The recorded graph computes mean(2w); the finite-difference
    // reference deliberately evaluates mean(3w). This simulates an op
    // whose backward disagrees with its forward — the harness must fail
    // the case, not paper over it.
    let r = gradcheck::check_case(
        "seeded_wrong_gradient",
        vec![(
            "w",
            Matrix::from_vec(2, 3, vec![0.3, -0.7, 1.1, 0.2, -0.4, 0.9]),
        )],
        &|g, s, ids| {
            let w = g.param(s, ids[0]);
            let y = g.scale(w, 2.0);
            g.mean(y)
        },
        Some(&|mats: &[&Matrix]| {
            let m = mats[0];
            3.0 * m.data.iter().map(|&v| f64::from(v)).sum::<f64>() / m.data.len() as f64
        }),
    );
    assert!(
        !r.passed,
        "harness accepted a gradient off by 1.5x: {}",
        r.detail
    );
    assert!(r.max_rel_err > gradcheck::TOLERANCE);
}

// ---------------------------------------------------------------------
// Zoo coverage: every Op variant recorded, mapped, and verified
// ---------------------------------------------------------------------

/// `Op::name()` of every variant. Adding a variant to `gendt-nn` already
/// breaks the exhaustive matches in `tape`/`gradcheck`; this list makes
/// the *zoo* fail loudly too until the new op is recorded there.
const ALL_OP_NAMES: &[&str] = &[
    "Input",
    "Param",
    "MatMul",
    "Add",
    "Sub",
    "Mul",
    "AddRow",
    "MulCol",
    "Scale",
    "Offset",
    "Sigmoid",
    "Tanh",
    "LeakyRelu",
    "Exp",
    "Softplus",
    "ConcatCols",
    "SliceCols",
    "SliceRows",
    "RowSum",
    "SumRowGroups",
    "LstmCell",
    "NoisyRenorm",
    "AddAddRow",
    "MaskedGroupMean",
    "Mean",
    "MseLoss",
    "BceWithLogits",
    "WeightedSum",
    "GaussianNll",
];

#[test]
fn zoo_records_every_op_variant() {
    let z = zoo::build();
    let recorded: Vec<&str> = z.graph.node_ids().map(|id| z.graph.op(id).name()).collect();
    for &name in ALL_OP_NAMES {
        assert!(
            recorded.contains(&name),
            "zoo graph never records Op::{name}"
        );
    }
}

#[test]
fn zoo_tape_verifies_clean() {
    let z = zoo::build();
    let report = tape::verify(&z.graph, Some(z.loss));
    assert!(
        report.issues.is_empty(),
        "zoo graph should verify with zero findings, got: {:#?}",
        report.issues
    );
}

#[test]
fn every_zoo_op_maps_to_registered_gradcheck_cases() {
    let z = zoo::build();
    let registry: Vec<&str> = gradcheck::all_cases().iter().map(|(n, _)| *n).collect();
    for id in z.graph.node_ids() {
        let op = z.graph.op(id);
        let cases = gradcheck::cases_for(op);
        assert!(
            !cases.is_empty(),
            "Op::{} maps to no gradcheck cases",
            op.name()
        );
        for &case in cases {
            assert!(
                registry.contains(&case),
                "Op::{} names case `{case}` which is not in the registry",
                op.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Tape verifier: shape rules and dead-node detection
// ---------------------------------------------------------------------

#[test]
fn expected_shape_accepts_and_rejects_matmul_operands() {
    // NodeIds can only come from a real graph; the shape closure is ours.
    let mut g = Graph::new();
    let a = g.input(Matrix::zeros(2, 3));
    let b = g.input(Matrix::zeros(3, 4));
    let ids = [a, b];

    let good = |id: gendt_nn::NodeId| if id == ids[0] { (2, 3) } else { (3, 4) };
    assert_eq!(
        tape::expected_shape(&gendt_nn::Op::MatMul(a, b), &good),
        Some(Ok((2, 4)))
    );

    let bad = |id: gendt_nn::NodeId| if id == ids[0] { (2, 3) } else { (5, 4) };
    match tape::expected_shape(&gendt_nn::Op::MatMul(a, b), &bad) {
        Some(Err(msg)) => assert!(
            msg.contains("inner dimensions"),
            "unexpected message: {msg}"
        ),
        other => panic!("mismatched matmul operands must be rejected, got {other:?}"),
    }
}

#[test]
fn verifier_flags_dead_node() {
    let mut g = Graph::new();
    let a = g.input(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
    let orphan = g.sigmoid(a); // never consumed, not the loss
    let live = g.tanh(a);
    let loss = g.mean(live);

    let report = tape::verify(&g, Some(loss));
    assert!(report.is_consistent(), "graph has no shape errors");
    let flagged: Vec<usize> = report
        .warnings()
        .filter(|i| i.message.contains("dead node"))
        .map(|i| i.node)
        .collect();
    assert_eq!(
        flagged,
        vec![orphan.index()],
        "exactly the orphan must be flagged"
    );
}

// ---------------------------------------------------------------------
// Sanitizer: seeded NaN/Inf in forward and backward
// ---------------------------------------------------------------------

#[test]
fn sanitizer_catches_seeded_forward_inf() {
    let _guard = SANITIZE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gendt_nn::set_sanitize(true);
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut g = Graph::new();
        let a = g.input(Matrix::full(1, 1, 1.0e38));
        let b = g.input(Matrix::full(1, 1, 1.0e38));
        g.mul(a, b) // 1e76 overflows f32 -> Inf at op granularity
    }));
    gendt_nn::set_sanitize(false);
    let msg = panic_message(result.expect_err("sanitizer must panic on a forward Inf"));
    assert!(
        msg.contains("GENDT_SANITIZE"),
        "panic must name the sanitizer: {msg}"
    );
    assert!(
        msg.contains("non-finite value"),
        "panic must describe the defect: {msg}"
    );
    assert!(
        msg.contains("Mul"),
        "panic must name the offending op: {msg}"
    );
}

#[test]
fn sanitizer_catches_seeded_backward_inf() {
    let _guard = SANITIZE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Record with the sanitizer OFF so the (finite-forward-breaking)
    // setup survives: exp(88) ~ 1.7e38 is finite, and the mul's Inf
    // forward goes unchecked. The backward then pushes
    // d(exp_in) = 3e38 * 1.7e38 = Inf into the parameter.
    gendt_nn::set_sanitize(false);
    let mut store = gendt_nn::ParamStore::new();
    let w = store.add("w", Matrix::full(1, 1, 88.0));
    let mut g = Graph::new();
    let x = g.param(&store, w);
    let y = g.exp(x);
    let c = g.input(Matrix::full(1, 1, 3.0e38));
    let z = g.mul(y, c);
    let loss = g.mean(z);

    gendt_nn::set_sanitize(true);
    let result = catch_unwind(AssertUnwindSafe(|| {
        g.backward(loss, &mut store);
    }));
    gendt_nn::set_sanitize(false);
    let msg = panic_message(result.expect_err("sanitizer must panic on a backward Inf"));
    assert!(
        msg.contains("GENDT_SANITIZE"),
        "panic must name the sanitizer: {msg}"
    );
    assert!(
        msg.contains("non-finite gradient"),
        "panic must describe the defect: {msg}"
    );
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        String::from("<non-string panic payload>")
    }
}

// ---------------------------------------------------------------------
// Lint: seeded violations in a fixture tree + the real repo stays clean
// ---------------------------------------------------------------------

struct FixtureDir(std::path::PathBuf);

impl Drop for FixtureDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_fixture(root: &std::path::Path, rel: &str, body: &str) {
    let p = root.join(rel);
    if let Some(dir) = p.parent() {
        std::fs::create_dir_all(dir).expect("fixture mkdir");
    }
    std::fs::write(p, body).expect("fixture write");
}

const CLEAN_FILE: &str = "pub fn noop() {}\n";

/// Lay out a miniature workspace with one seeded violation per rule
/// family, plus decoys (violating tokens inside comments, strings, and
/// `#[cfg(test)]` where the rule exempts them) that must NOT fire.
fn seeded_fixture() -> FixtureDir {
    let root =
        std::env::temp_dir().join(format!("gendt-audit-lint-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Seed 1 (unsafe-forbid): nn's lib.rs lacks the attribute.
    write_fixture(&root, "crates/nn/src/lib.rs", "pub mod graph;\n");
    // Seed 2 (no-unwrap): one unwrap outside tests in graph.rs; the one
    // inside #[cfg(test)] and the ones in comments/strings are exempt.
    // Seed 5 (fused-bitwise): every fused op except `sum_row_groups`
    // has a bitwise test fn.
    write_fixture(
        &root,
        "crates/nn/src/graph.rs",
        r#"
// a comment saying .unwrap() must not fire
pub fn hot() {
    let v: Option<u8> = Some(1);
    let msg = "string saying .unwrap() must not fire";
    let _ = msg;
    let _ = v.unwrap(); // seeded violation
}
#[cfg(test)]
mod tests {
    fn lstm_cell_bitwise() {}
    fn noisy_renorm_bitwise() {}
    fn add_add_row_bitwise() {}
    fn masked_group_mean_bitwise() {}
    fn slice_rows_bitwise() {}
    fn exempt() {
        let v: Option<u8> = Some(1);
        let _ = v.unwrap();
    }
}
"#,
    );
    write_fixture(&root, "crates/nn/src/kernels.rs", CLEAN_FILE);
    write_fixture(&root, "crates/nn/src/matrix.rs", CLEAN_FILE);
    write_fixture(&root, "crates/nn/src/layers.rs", CLEAN_FILE);
    write_fixture(&root, "crates/nn/src/params.rs", CLEAN_FILE);
    write_fixture(&root, "crates/nn/src/threads.rs", CLEAN_FILE);
    write_fixture(&root, "crates/nn/src/sanitize.rs", CLEAN_FILE);
    // Seed 11 (plan-no-alloc): a Matrix::zeros inside the plan step
    // path. Allocations outside the markers, tokens in comments, and
    // the `allow-alloc`-exempted line are decoys that must not fire.
    write_fixture(
        &root,
        "crates/nn/src/plan.rs",
        r#"
pub fn build() {
    let _v: Vec<u8> = Vec::new(); // outside the markers: fine
}
// plan-lint: begin step path
pub fn step() {
    // a comment mentioning vec! must not fire
    let _m = Matrix::zeros(1, 1); // seeded violation
    let _w: Vec<f32> = Vec::with_capacity(4); // plan-lint: allow-alloc (reference kernels)
}
// plan-lint: end step path
"#,
    );
    // Seed 3 (no-unwrap anywhere): checkpoint unwrap INSIDE #[cfg(test)]
    // still fires — the rule has no test exemption there.
    write_fixture(
        &root,
        "crates/nn/src/checkpoint.rs",
        "#[cfg(test)]\nmod tests {\n    fn t() {\n        let v: Option<u8> = Some(1);\n        let _ = v.expect(\"seeded\");\n    }\n}\n",
    );
    write_fixture(
        &root,
        "crates/core/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod trainer;\n",
    );
    // Seed 4 (determinism): SystemTime in the trainer; the mention in a
    // generator.rs comment is a decoy.
    write_fixture(
        &root,
        "crates/core/src/trainer.rs",
        "pub fn step() {\n    let _t = std::time::SystemTime::now();\n}\n",
    );
    write_fixture(
        &root,
        "crates/core/src/generator.rs",
        "// SystemTime in a comment is fine\npub fn g() {}\n",
    );
    write_fixture(&root, "crates/core/src/generate.rs", CLEAN_FILE);
    // Seed 6 (determinism/HashMap): HashMap in checkpoint code.
    write_fixture(
        &root,
        "crates/core/src/checkpoint.rs",
        "use std::collections::HashMap;\npub fn save(_m: &HashMap<String, f32>) {}\n",
    );
    // Serve request path. Seed 7 (no-unwrap): a handler unwrap in
    // server.rs; the poison-recovery `unwrap_or_else` is a no-unwrap
    // decoy that must not fire there — but server.rs is also a
    // facade-migrated file, so the same `std::sync::Mutex` import and
    // `.lock().unwrap_or_else` ARE seeded `sync-discipline` violations
    // (the real serve code routes both through `gendt_sync` now).
    write_fixture(
        &root,
        "crates/serve/src/lib.rs",
        "#![forbid(unsafe_code)]\npub mod server;\n",
    );
    write_fixture(&root, "crates/serve/src/http.rs", CLEAN_FILE);
    write_fixture(&root, "crates/serve/src/scheduler.rs", CLEAN_FILE);
    // Seed 14 (trace-propagation): this same server.rs never references
    // `TRACE_HEADER` outside tests — the comment mention and the
    // in-test use below are decoys that must not satisfy the rule.
    write_fixture(
        &root,
        "crates/serve/src/server.rs",
        "// a comment naming TRACE_HEADER must not satisfy trace-propagation\nuse std::sync::Mutex;\npub fn handle(m: &Mutex<u8>) -> u8 {\n    let held = *m.lock().unwrap_or_else(|poisoned| poisoned.into_inner());\n    let v: Option<u8> = Some(held);\n    v.unwrap() // seeded violation\n}\n#[cfg(test)]\nmod tests {\n    const TRACE_HEADER: &str = \"Gendt-Trace-Id\";\n    fn exempt() -> &'static str {\n        TRACE_HEADER\n    }\n}\n",
    );
    // The router fixture DOES propagate the trace header (outside
    // tests), so trace-propagation must stay quiet on it.
    write_fixture(
        &root,
        "crates/fleet/src/router.rs",
        "pub const TRACE_HEADER: &str = \"Gendt-Trace-Id\";\npub fn propagate(headers: &mut Vec<(String, String)>, id: u64) {\n    headers.push((TRACE_HEADER.to_string(), format!(\"{id:016x}\")));\n}\n",
    );
    // Seed 8 (determinism): a wall clock in batch assembly would make a
    // served response depend on arrival timing — must fire.
    write_fixture(
        &root,
        "crates/serve/src/batch.rs",
        "pub fn assemble() {\n    let _t = std::time::Instant::now();\n}\n",
    );
    // Seed 10 (error-taxonomy): a stringly-typed Result AND a raw panic!
    // in the registry (request path). The `Vec<(String, String)>` header
    // type and the `IoResult<` prefix are decoys that must not fire.
    write_fixture(
        &root,
        "crates/serve/src/registry.rs",
        r#"
pub type IoResult<T> = std::result::Result<T, std::io::Error>;
pub fn headers() -> Vec<(String, String)> {
    Vec::new()
}
pub fn scan() -> Result<Vec<u8>, String> {
    panic!("seeded violation")
}
"#,
    );
    // Error-taxonomy decoys: the violating tokens inside #[cfg(test)],
    // comments, and strings are all exempt.
    write_fixture(
        &root,
        "crates/serve/src/api.rs",
        r#"
// a comment mentioning Result<T, String> and panic! must not fire
pub fn encode() -> Result<u8, std::io::Error> {
    let msg = "string saying panic! and Result<u8, String> must not fire";
    let _ = msg;
    Ok(0)
}
#[cfg(test)]
mod tests {
    fn exempt() -> Result<(), String> {
        panic!("panics in tests are fine")
    }
}
"#,
    );
    write_fixture(&root, "crates/serve/src/bin/gendt_serve.rs", CLEAN_FILE);
    write_fixture(&root, "crates/core/src/bin/gendt_train.rs", CLEAN_FILE);
    // Seed 12 (sync-discipline): a multi-line `use std::sync::{..}`
    // group smuggling in Mutex, and an mpsc import. The bare-Arc
    // import, the comment/string mentions, and the in-test
    // `.lock().unwrap()` are decoys that must not fire.
    write_fixture(
        &root,
        "crates/trace/src/span.rs",
        r#"
// a comment naming std::sync::Mutex must not fire
use std::sync::Arc;
use std::sync::{
    Mutex,
    OnceLock,
}; // seeded violation (Mutex)
use std::sync::mpsc::Sender; // seeded violation (mpsc)
pub fn label() -> &'static str {
    "a string naming std::sync::Condvar must not fire"
}
#[cfg(test)]
mod tests {
    fn exempt() {
        let m = super::Mutex::new(0u8);
        let _ = m.lock().unwrap();
    }
}
"#,
    );
    // Seed 13 (atomic-ordering): a Relaxed fetch_add with no `// sync:`
    // in its paragraph, and an Acquire whose only justification sits in
    // a DIFFERENT paragraph (blank line between — must not count). The
    // justified Relaxed, the SeqCst, the comment mention, and the
    // in-test load are decoys that must not fire.
    write_fixture(
        &root,
        "crates/serve/src/metrics.rs",
        r#"
use gendt_sync::atomic::{AtomicU64, Ordering};

pub fn tick(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed); // seeded violation
}

pub fn scrape(c: &AtomicU64) -> u64 {
    // sync: monotonic counter scrape; no ordering needed.
    c.load(Ordering::Relaxed)
}

// sync: a justification in a different paragraph must not count.

pub fn far(c: &AtomicU64) -> u64 {
    c.load(Ordering::Acquire) // seeded violation
}

// a comment naming Ordering::Relaxed must not fire
pub fn strict(c: &AtomicU64) -> u64 {
    c.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    fn exempt(c: &super::AtomicU64) {
        let _ = c.load(super::Ordering::Relaxed);
    }
}
"#,
    );
    // Remaining facade-migrated files, clean.
    write_fixture(&root, "crates/serve/src/cache.rs", CLEAN_FILE);
    write_fixture(&root, "crates/trace/src/lib.rs", CLEAN_FILE);
    write_fixture(&root, "crates/trace/src/telemetry.rs", CLEAN_FILE);
    write_fixture(&root, "crates/trace/src/oplog.rs", CLEAN_FILE);
    write_fixture(&root, "crates/faults/src/inject.rs", CLEAN_FILE);
    // Seed 9 (no-prints): a bare println! in a telemetry-routed file;
    // prints in comments, strings, and #[cfg(test)] are decoys.
    write_fixture(
        &root,
        "crates/eval/src/main.rs",
        r#"
// a comment saying println! must not fire
pub fn report() {
    let msg = "string saying eprintln! must not fire";
    let _ = msg;
    println!("seeded violation");
}
#[cfg(test)]
mod tests {
    fn exempt() {
        eprintln!("prints in tests are fine");
    }
}
"#,
    );
    write_fixture(&root, "crates/eval/src/harness.rs", CLEAN_FILE);
    write_fixture(&root, "crates/bench/src/lib.rs", CLEAN_FILE);
    FixtureDir(root)
}

#[test]
fn lint_detects_seeded_violations_and_ignores_decoys() {
    let fixture = seeded_fixture();
    let violations = lint::run(&fixture.0);
    let has = |rule: &str, file: &str| violations.iter().any(|v| v.rule == rule && v.file == file);

    assert!(
        has("unsafe-forbid", "crates/nn/src/lib.rs"),
        "missing forbid not caught"
    );
    assert!(
        has("no-unwrap", "crates/nn/src/graph.rs"),
        "seeded unwrap not caught"
    );
    assert!(
        has("no-unwrap", "crates/nn/src/checkpoint.rs"),
        "in-test checkpoint expect not caught"
    );
    assert!(
        has("determinism", "crates/core/src/trainer.rs"),
        "SystemTime not caught"
    );
    assert!(
        has("determinism", "crates/core/src/checkpoint.rs"),
        "HashMap not caught"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.rule == "fused-bitwise" && v.message.contains("sum_row_groups")),
        "missing bitwise test not caught"
    );
    assert!(
        has("no-unwrap", "crates/serve/src/server.rs"),
        "seeded handler unwrap not caught"
    );
    assert!(
        has("determinism", "crates/serve/src/batch.rs"),
        "Instant::now in batch assembly not caught"
    );
    assert!(
        has("no-prints", "crates/eval/src/main.rs"),
        "seeded bare println! not caught"
    );
    assert!(
        violations.iter().any(|v| v.rule == "error-taxonomy"
            && v.file == "crates/serve/src/registry.rs"
            && v.message.contains("Result<_, String>")),
        "seeded stringly Result not caught"
    );
    assert!(
        violations.iter().any(|v| v.rule == "error-taxonomy"
            && v.file == "crates/serve/src/registry.rs"
            && v.message.contains("panic!")),
        "seeded raw panic! not caught"
    );

    // Decoys must stay quiet.
    let graph_unwraps: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "no-unwrap" && v.file == "crates/nn/src/graph.rs")
        .collect();
    assert_eq!(
        graph_unwraps.len(),
        1,
        "comment/string/test unwraps must not fire: {graph_unwraps:?}"
    );
    assert_eq!(
        graph_unwraps[0].line, 7,
        "violation should point at the seeded line"
    );
    assert!(
        !has("determinism", "crates/core/src/generator.rs"),
        "SystemTime inside a comment must not fire"
    );
    let server_unwraps: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "no-unwrap" && v.file == "crates/serve/src/server.rs")
        .collect();
    assert_eq!(
        server_unwraps.len(),
        1,
        "poison-recovery unwrap_or_else must not fire: {server_unwraps:?}"
    );
    assert!(
        !violations
            .iter()
            .any(|v| v.rule == "fused-bitwise" && v.message.contains("lstm_cell")),
        "covered fused ops must not fire"
    );
    let print_hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "no-prints")
        .collect();
    assert_eq!(
        print_hits.len(),
        1,
        "comment/string/test prints must not fire: {print_hits:?}"
    );
    assert_eq!(
        print_hits[0].line, 6,
        "violation should point at the seeded print line"
    );
    let taxonomy_hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "error-taxonomy")
        .collect();
    assert_eq!(
        taxonomy_hits.len(),
        2,
        "type-alias/tuple/comment/string/test decoys must not fire: {taxonomy_hits:?}"
    );
    assert!(
        taxonomy_hits
            .iter()
            .all(|v| v.file == "crates/serve/src/registry.rs"),
        "only the seeded registry file may fire: {taxonomy_hits:?}"
    );
    let sync_hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "sync-discipline")
        .collect();
    assert_eq!(
        sync_hits.len(),
        4,
        "expected the two span.rs imports plus the server.rs import and \
         poison-unwrap; Arc import, comment/string mentions, and in-test \
         lock().unwrap() must not fire: {sync_hits:?}"
    );
    assert_eq!(
        sync_hits
            .iter()
            .filter(|v| v.file == "crates/trace/src/span.rs")
            .count(),
        2,
        "span.rs should fire on the Mutex group import and the mpsc \
         import only: {sync_hits:?}"
    );
    assert_eq!(
        sync_hits
            .iter()
            .filter(|v| v.file == "crates/serve/src/server.rs")
            .count(),
        2,
        "server.rs should fire on the Mutex import and the \
         .lock().unwrap_or_else poison-unwrap: {sync_hits:?}"
    );
    let ordering_hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "atomic-ordering")
        .collect();
    assert_eq!(
        ordering_hits.len(),
        2,
        "justified/SeqCst/comment/in-test orderings must not fire: \
         {ordering_hits:?}"
    );
    assert!(
        ordering_hits
            .iter()
            .all(|v| v.file == "crates/serve/src/metrics.rs"),
        "only the seeded metrics file may fire: {ordering_hits:?}"
    );
    assert!(
        ordering_hits
            .iter()
            .any(|v| v.line == 5 && v.message.contains("Ordering::Relaxed")),
        "unjustified Relaxed fetch_add not caught at its line: {ordering_hits:?}"
    );
    assert!(
        ordering_hits
            .iter()
            .any(|v| v.message.contains("Ordering::Acquire")),
        "cross-paragraph justification must not cover the Acquire load: \
         {ordering_hits:?}"
    );
    let trace_prop_hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "trace-propagation")
        .collect();
    assert_eq!(
        trace_prop_hits.len(),
        1,
        "comment/in-test TRACE_HEADER mentions must not satisfy the \
         rule, and the propagating router must not fire: {trace_prop_hits:?}"
    );
    assert_eq!(
        trace_prop_hits[0].file, "crates/serve/src/server.rs",
        "the handler file that drops Gendt-Trace-Id should fire"
    );
    let plan_hits: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == "plan-no-alloc")
        .collect();
    assert_eq!(
        plan_hits.len(),
        1,
        "outside-marker/comment/allow-alloc decoys must not fire: {plan_hits:?}"
    );
    assert_eq!(
        plan_hits[0].line, 8,
        "violation should point at the seeded allocation line"
    );
    assert!(
        plan_hits[0].message.contains("Matrix::zeros("),
        "violation should name the allocating token: {}",
        plan_hits[0].message
    );
}

#[test]
fn lint_is_clean_on_this_repo() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let violations = lint::run(&root);
    assert!(
        violations.is_empty(),
        "the repo must lint clean:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}\n"))
            .collect::<String>()
    );
}
