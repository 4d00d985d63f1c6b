//! Repo-invariant source lint — plain file walking, no external deps.
//!
//! Four rule families, all cheap textual analysis over comment- and
//! string-stripped source:
//!
//! 1. **`unsafe-forbid`** — every crate root under `crates/*/src`
//!    (`lib.rs`, `main.rs`, `bin/*.rs`) carries `#![forbid(unsafe_code)]`.
//! 2. **`no-unwrap`** — no `.unwrap()` / `.expect(` in the hot autograd
//!    and training files or the serve request path outside
//!    `#[cfg(test)]`, and nowhere at all in the checkpoint modules
//!    (error paths there must propagate).
//! 3. **`determinism`** — no wall-clock or entropy sources
//!    (`SystemTime`, `Instant::now`, `thread_rng`, `from_entropy`,
//!    `rand::random`) in the training path or in serve's batch assembly
//!    (a served response must depend on seeds, never arrival timing),
//!    and no `HashMap` in the checkpoint modules (serialized output
//!    must iterate in a stable order — `BTreeMap` only).
//! 4. **`fused-bitwise`** — every fused tape op has a bitwise
//!    equivalence test in `graph.rs` (a test fn whose name contains the
//!    op name and `bitwise`), so fused rewrites stay provably identical
//!    to their unfused compositions.
//! 5. **`no-prints`** — no bare `println!` / `eprintln!` outside
//!    `#[cfg(test)]` in files whose console output is routed through the
//!    `gendt-trace` macros (`out!` / `info!` / `error!`), keeping
//!    verbosity env-controlled and quiet by default.
//! 6. **`error-taxonomy`** — the serve request path and the trainer
//!    checkpoint path speak [`gendt_faults::GendtError`] only: no
//!    `Result<_, String>` signatures (stringly errors erase the
//!    code/HTTP-status/exit-code mapping) and no raw `panic!` outside
//!    `#[cfg(test)]` (a panicking handler or checkpoint writer turns a
//!    recoverable fault into an outage).
//! 7. **`plan-no-alloc`** — no heap allocation (`Vec::new`,
//!    `with_capacity`, `vec!`, `Matrix::zeros`) in the compiled-plan
//!    step path of `crates/nn/src/plan.rs`, between the
//!    `// plan-lint: begin step path` and `// plan-lint: end step path`
//!    markers. The plan executor's whole point is zero allocation per
//!    replayed step; a line that must allocate carries
//!    `// plan-lint: allow-alloc <why>`.
//! 8. **`sync-discipline`** — files migrated onto the `gendt-sync`
//!    facade never reach back into raw `std::sync` primitives
//!    (`Mutex`, `Condvar`, `RwLock`, `mpsc`, `atomic`, `Barrier`;
//!    `Arc` / `OnceLock` stay fine — the facade does not wrap them),
//!    and never poison-unwrap a lock with `.lock().unwrap()` — the
//!    facade's `lock()` returns the guard directly, so an unwrap there
//!    means the code bypassed the facade (and the model checker).
//! 9. **`atomic-ordering`** — in those same files, every relaxed
//!    atomic ordering (`Relaxed`, `Acquire`, `Release`, `AcqRel`)
//!    carries a `// sync:` justification in the same blank-line
//!    delimited paragraph, stating what the ordering pairs with or why
//!    none is needed. `SeqCst` needs no comment: it is the safe
//!    default, and weakening it is what requires an argument.
//! 10. **`trace-propagation`** — every `/v1` request-path entry point
//!     (the worker server and the fleet router) references
//!     `traceid::TRACE_HEADER` outside `#[cfg(test)]`: a handler file
//!     that never touches the `Gendt-Trace-Id` header drops the
//!     distributed trace context, orphaning its spans from the
//!     cross-process timeline `gendt-obs assemble` stitches.
//!
//! The vendored stand-ins under `vendor/` model *external* crates and
//! are deliberately out of scope.

use std::fmt;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Rule family (`unsafe-forbid`, `no-unwrap`, `determinism`,
    /// `fused-bitwise`, `no-prints`, `error-taxonomy`, `plan-no-alloc`,
    /// `sync-discipline`, `atomic-ordering`, `trace-propagation`, or
    /// `lint-config` for missing targets).
    pub rule: &'static str,
    /// File the finding is in, relative to the linted root.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Files where `.unwrap()` / `.expect(` are banned outside `#[cfg(test)]`.
/// The serve request-path files are held to the same bar: a panicking
/// handler thread takes its connection (or the whole scheduler) with it.
const NO_UNWRAP_NONTEST: &[&str] = &[
    "crates/nn/src/graph.rs",
    "crates/nn/src/kernels.rs",
    "crates/nn/src/matrix.rs",
    "crates/core/src/trainer.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/batch.rs",
    // The session table sits inside every /v1/stream response; a panic
    // here takes the whole streaming connection pool down with it.
    "crates/serve/src/session.rs",
    // Every generate and stream open resolves its route here; a
    // panicking resolver would also strand the requests waiting on it.
    "crates/serve/src/cache.rs",
    // The fleet routing path: a panicking router connection thread
    // strands its client, and a panicking supervisor leaks workers.
    "crates/fleet/src/router.rs",
    "crates/fleet/src/forward.rs",
    "crates/fleet/src/membership.rs",
    "crates/fleet/src/supervisor.rs",
];

/// Files where `.unwrap()` / `.expect(` are banned everywhere, tests
/// included: checkpoint code is the error-propagation showcase.
const NO_UNWRAP_ANYWHERE: &[&str] = &[
    "crates/nn/src/checkpoint.rs",
    "crates/core/src/checkpoint.rs",
];

/// Training-path files where nondeterminism sources are banned.
const DETERMINISM_FILES: &[&str] = &[
    "crates/nn/src/graph.rs",
    "crates/nn/src/kernels.rs",
    "crates/nn/src/matrix.rs",
    "crates/nn/src/layers.rs",
    "crates/nn/src/params.rs",
    "crates/nn/src/threads.rs",
    "crates/nn/src/sanitize.rs",
    "crates/core/src/trainer.rs",
    "crates/core/src/generator.rs",
    "crates/core/src/generate.rs",
    // The batch assembly feeding generation must be clock-free, or a
    // served response could depend on arrival timing instead of seeds.
    "crates/serve/src/batch.rs",
];

/// Tokens that smell of wall clocks or ambient entropy.
const NONDET_TOKENS: &[&str] = &[
    "SystemTime",
    "Instant::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
];

/// Files whose console output must flow through the `gendt-trace`
/// macros, so runs are quiet by default and `GENDT_LOG` controls
/// progress chatter. A bare print here bypasses that switch.
const NO_PRINT_FILES: &[&str] = &[
    "crates/core/src/trainer.rs",
    "crates/eval/src/main.rs",
    "crates/eval/src/harness.rs",
    "crates/bench/src/lib.rs",
];

/// Files that must speak the `GendtError` taxonomy: the serve request
/// path and the trainer checkpoint path. `Result<_, String>` loses the
/// code → HTTP-status / exit-code mapping, and a raw `panic!` outside
/// tests turns a recoverable fault into a dead handler thread or a
/// half-written checkpoint.
const ERROR_TAXONOMY_FILES: &[&str] = &[
    "crates/serve/src/http.rs",
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/api.rs",
    "crates/serve/src/session.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/bin/gendt_serve.rs",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/bin/gendt_train.rs",
    // The fleet speaks the same envelope contract as the workers it
    // fronts; a stringly error here would leak an untyped 500 to
    // clients that were promised the taxonomy.
    "crates/fleet/src/router.rs",
    "crates/fleet/src/forward.rs",
    "crates/fleet/src/membership.rs",
    "crates/fleet/src/supervisor.rs",
    "crates/fleet/src/bin/gendt_fleet.rs",
];

/// Fused ops that must each have a `*bitwise*` equivalence test in
/// `graph.rs` proving them identical to their unfused composition.
const FUSED_OPS: &[&str] = &[
    "lstm_cell",
    "noisy_renorm",
    "add_add_row",
    "masked_group_mean",
    "sum_row_groups",
    "slice_rows",
];

/// Run every rule against the workspace rooted at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();
    lint_unsafe_forbid(root, &mut out);
    lint_no_unwrap(root, &mut out);
    lint_determinism(root, &mut out);
    lint_fused_bitwise(root, &mut out);
    lint_no_prints(root, &mut out);
    lint_error_taxonomy(root, &mut out);
    lint_plan_no_alloc(root, &mut out);
    lint_sync_discipline(root, &mut out);
    lint_atomic_ordering(root, &mut out);
    lint_trace_propagation(root, &mut out);
    out
}

fn read(root: &Path, rel: &str) -> Option<String> {
    std::fs::read_to_string(root.join(rel)).ok()
}

fn missing(out: &mut Vec<Violation>, rule: &'static str, rel: &str) {
    out.push(Violation {
        rule: "lint-config",
        file: rel.to_string(),
        line: 0,
        message: format!("file named by the {rule} rule is missing"),
    });
}

fn line_of(text: &str, byte: usize) -> usize {
    text.as_bytes()
        .iter()
        .take(byte)
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

// ---------------------------------------------------------------------
// Source model: strip comments/strings, locate #[cfg(test)] regions
// ---------------------------------------------------------------------

/// Replace comments, string literals, and char literals with spaces
/// (newlines preserved), so token scans cannot be fooled by docs or
/// message text.
fn strip_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    // Keep newlines so byte offsets still map to the original lines.
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[i] = b'\n';
        }
    }
    let mut i = 0;
    let n = b.len();
    let copy = |out: &mut Vec<u8>, i: usize| {
        out[i] = b[i];
    };
    while i < n {
        match b[i] {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                while i < n && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if i + 1 < n && b[i] == b'/' && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if i + 1 < n && b[i] == b'*' && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i += 1;
                while i < n && b[i] != b'"' {
                    if b[i] == b'\\' {
                        i += 1;
                    }
                    i += 1;
                }
                i += 1;
            }
            b'r' if i + 1 < n && (b[i + 1] == b'"' || b[i + 1] == b'#') => {
                // Raw string r"..." / r#"..."#: count hashes, match the tail.
                let mut j = i + 1;
                let mut hashes = 0;
                while j < n && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                if j < n && b[j] == b'"' {
                    j += 1;
                    'raw: while j < n {
                        if b[j] == b'"' {
                            let mut k = 0;
                            while k < hashes && j + 1 + k < n && b[j + 1 + k] == b'#' {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break 'raw;
                            }
                        }
                        j += 1;
                    }
                    i = j;
                } else {
                    copy(&mut out, i);
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs. lifetime: a closing quote within a
                // few bytes means a literal; otherwise leave the tick.
                let mut j = i + 1;
                if j < n && b[j] == b'\\' {
                    j += 2;
                    while j < n && b[j] != b'\'' && j < i + 12 {
                        j += 1; // \u{...}
                    }
                } else if j < n {
                    j += 1;
                }
                if j < n && b[j] == b'\'' {
                    i = j + 1;
                } else {
                    copy(&mut out, i);
                    i += 1;
                }
            }
            _ => {
                copy(&mut out, i);
                i += 1;
            }
        }
    }
    // Guaranteed valid: we only copied bytes at their original positions
    // or wrote ASCII spaces over complete multi-byte sequences.
    String::from_utf8_lossy(&out).into_owned()
}

/// Byte ranges covered by `#[cfg(test)]` items (mod or fn) in stripped
/// source: from the attribute to the close of the item's brace block.
fn test_regions(stripped: &str) -> Vec<(usize, usize)> {
    let b = stripped.as_bytes();
    let mut regions = Vec::new();
    let needle = "#[cfg(test)]";
    let mut from = 0;
    while let Some(pos) = stripped[from..].find(needle) {
        let start = from + pos;
        // Find the item's opening brace; a `;` first means a braceless
        // item (nothing to span).
        let mut i = start + needle.len();
        while i < b.len() && b[i] != b'{' && b[i] != b';' {
            i += 1;
        }
        if i < b.len() && b[i] == b'{' {
            let mut depth = 0usize;
            let mut j = i;
            while j < b.len() {
                match b[j] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            regions.push((start, j.min(b.len())));
            from = j.min(b.len());
        } else {
            from = i;
        }
    }
    regions
}

fn in_regions(regions: &[(usize, usize)], byte: usize) -> bool {
    regions.iter().any(|&(s, e)| byte >= s && byte <= e)
}

/// All byte offsets of `token` in `text`.
fn find_all(text: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(token) {
        out.push(from + pos);
        from += pos + token.len();
    }
    out
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut roots = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return roots;
    };
    let mut dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    dirs.sort();
    for dir in dirs {
        let src = dir.join("src");
        for name in ["lib.rs", "main.rs"] {
            let p = src.join(name);
            if p.is_file() {
                roots.push(p);
            }
        }
        let bin = src.join("bin");
        if let Ok(bins) = std::fs::read_dir(&bin) {
            let mut files: Vec<PathBuf> = bins
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "rs"))
                .collect();
            files.sort();
            roots.extend(files);
        }
    }
    roots
}

fn rel_to(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

fn lint_unsafe_forbid(root: &Path, out: &mut Vec<Violation>) {
    for p in crate_roots(root) {
        let rel = rel_to(root, &p);
        let Ok(src) = std::fs::read_to_string(&p) else {
            missing(out, "unsafe-forbid", &rel);
            continue;
        };
        if !strip_source(&src).contains("#![forbid(unsafe_code)]") {
            out.push(Violation {
                rule: "unsafe-forbid",
                file: rel,
                line: 1,
                message: "crate root lacks #![forbid(unsafe_code)]".into(),
            });
        }
    }
}

fn lint_no_unwrap(root: &Path, out: &mut Vec<Violation>) {
    for (&rel, tests_exempt) in NO_UNWRAP_NONTEST
        .iter()
        .map(|r| (r, true))
        .chain(NO_UNWRAP_ANYWHERE.iter().map(|r| (r, false)))
    {
        let Some(src) = read(root, rel) else {
            missing(out, "no-unwrap", rel);
            continue;
        };
        let stripped = strip_source(&src);
        let regions = if tests_exempt {
            test_regions(&stripped)
        } else {
            Vec::new()
        };
        for token in [".unwrap()", ".expect("] {
            for byte in find_all(&stripped, token) {
                if in_regions(&regions, byte) {
                    continue;
                }
                let scope = if tests_exempt {
                    "outside #[cfg(test)]"
                } else {
                    "anywhere"
                };
                out.push(Violation {
                    rule: "no-unwrap",
                    file: rel.to_string(),
                    line: line_of(&src, byte),
                    message: format!("{token} is banned {scope} in this file"),
                });
            }
        }
    }
}

fn lint_determinism(root: &Path, out: &mut Vec<Violation>) {
    for &rel in DETERMINISM_FILES {
        let Some(src) = read(root, rel) else {
            missing(out, "determinism", rel);
            continue;
        };
        let stripped = strip_source(&src);
        for &token in NONDET_TOKENS {
            for byte in find_all(&stripped, token) {
                out.push(Violation {
                    rule: "determinism",
                    file: rel.to_string(),
                    line: line_of(&src, byte),
                    message: format!("nondeterminism source `{token}` in a training path"),
                });
            }
        }
    }
    // Serialized checkpoint output must iterate stably: BTreeMap only.
    for &rel in NO_UNWRAP_ANYWHERE {
        let Some(src) = read(root, rel) else {
            continue; // already reported by no-unwrap
        };
        let stripped = strip_source(&src);
        for byte in find_all(&stripped, "HashMap") {
            out.push(Violation {
                rule: "determinism",
                file: rel.to_string(),
                line: line_of(&src, byte),
                message: "HashMap in checkpoint code: serialized output must use BTreeMap".into(),
            });
        }
    }
}

fn lint_no_prints(root: &Path, out: &mut Vec<Violation>) {
    for &rel in NO_PRINT_FILES {
        let Some(src) = read(root, rel) else {
            missing(out, "no-prints", rel);
            continue;
        };
        let stripped = strip_source(&src);
        let regions = test_regions(&stripped);
        // "println!" is a suffix of "eprintln!", so one token scan
        // covers both macros.
        for byte in find_all(&stripped, "println!") {
            if in_regions(&regions, byte) {
                continue;
            }
            out.push(Violation {
                rule: "no-prints",
                file: rel.to_string(),
                line: line_of(&src, byte),
                message: "bare print in a telemetry-routed file; use \
                          gendt_trace::{out!, info!, error!}"
                    .into(),
            });
        }
    }
}

/// Byte offsets of `Result<` tokens whose *error* type argument is
/// exactly `String`, found by matching the generic bracket nesting and
/// splitting the arguments at top-level commas. Catches
/// `Result<T, String>` for arbitrarily nested `T` without firing on
/// `Vec<(String, String)>` or map types.
fn result_string_offsets(stripped: &str) -> Vec<usize> {
    let b = stripped.as_bytes();
    let mut hits = Vec::new();
    for byte in find_all(stripped, "Result<") {
        // Token boundary: `IoResult<` or `result<` must not match.
        if byte > 0 {
            let prev = b[byte - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let open = byte + "Result<".len() - 1;
        let mut depth = 0usize;
        let mut top_commas = Vec::new();
        let mut close = None;
        for (j, &c) in b.iter().enumerate().skip(open) {
            match c {
                b'<' | b'(' | b'[' => depth += 1,
                b'>' | b')' | b']' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                b',' if depth == 1 => top_commas.push(j),
                _ => {}
            }
        }
        let (Some(close), Some(&comma)) = (close, top_commas.first()) else {
            continue; // Result<T> alias or unclosed — not our shape
        };
        if stripped[comma + 1..close].trim() == "String" {
            hits.push(byte);
        }
    }
    hits
}

fn lint_error_taxonomy(root: &Path, out: &mut Vec<Violation>) {
    for &rel in ERROR_TAXONOMY_FILES {
        let Some(src) = read(root, rel) else {
            missing(out, "error-taxonomy", rel);
            continue;
        };
        let stripped = strip_source(&src);
        let regions = test_regions(&stripped);
        for byte in result_string_offsets(&stripped) {
            if in_regions(&regions, byte) {
                continue;
            }
            out.push(Violation {
                rule: "error-taxonomy",
                file: rel.to_string(),
                line: line_of(&src, byte),
                message: "Result<_, String> in a taxonomy file; use gendt_faults::GendtError"
                    .into(),
            });
        }
        for byte in find_all(&stripped, "panic!") {
            if in_regions(&regions, byte) {
                continue;
            }
            // Token boundary: `dont_panic!` must not match.
            if byte > 0 {
                let prev = stripped.as_bytes()[byte - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' {
                    continue;
                }
            }
            out.push(Violation {
                rule: "error-taxonomy",
                file: rel.to_string(),
                line: line_of(&src, byte),
                message: "raw panic! outside #[cfg(test)]; propagate a GendtError instead".into(),
            });
        }
    }
}

/// Allocation tokens banned inside the plan executor's step path.
const PLAN_ALLOC_TOKENS: &[&str] = &["Vec::new(", "with_capacity(", "vec!", "Matrix::zeros("];

/// The comment exempting one line from `plan-no-alloc` (must state why).
const PLAN_ALLOW: &str = "// plan-lint: allow-alloc";

fn lint_plan_no_alloc(root: &Path, out: &mut Vec<Violation>) {
    let rel = "crates/nn/src/plan.rs";
    let Some(src) = read(root, rel) else {
        missing(out, "plan-no-alloc", rel);
        return;
    };
    let begin = src.find("// plan-lint: begin step path");
    let end = src.find("// plan-lint: end step path");
    let (Some(begin), Some(end)) = (begin, end) else {
        out.push(Violation {
            rule: "plan-no-alloc",
            file: rel.to_string(),
            line: 0,
            message: "step-path markers missing \
                      (`// plan-lint: begin step path` / `// plan-lint: end step path`)"
                .into(),
        });
        return;
    };
    if end <= begin {
        out.push(Violation {
            rule: "plan-no-alloc",
            file: rel.to_string(),
            line: line_of(&src, end),
            message: "`end step path` marker precedes `begin step path`".into(),
        });
        return;
    }
    let stripped = strip_source(&src);
    let lines: Vec<&str> = src.lines().collect();
    for &token in PLAN_ALLOC_TOKENS {
        for byte in find_all(&stripped, token) {
            if byte < begin || byte > end {
                continue;
            }
            let line = line_of(&src, byte);
            if lines.get(line - 1).is_some_and(|l| l.contains(PLAN_ALLOW)) {
                continue;
            }
            out.push(Violation {
                rule: "plan-no-alloc",
                file: rel.to_string(),
                line,
                message: format!(
                    "heap allocation `{token}` inside the plan step path; \
                     hoist it into plan build, or justify it with \
                     `{PLAN_ALLOW} <why>` on the same line"
                ),
            });
        }
    }
}

fn lint_fused_bitwise(root: &Path, out: &mut Vec<Violation>) {
    let rel = "crates/nn/src/graph.rs";
    let Some(src) = read(root, rel) else {
        missing(out, "fused-bitwise", rel);
        return;
    };
    // Collect all fn names.
    let stripped = strip_source(&src);
    let mut fn_names: Vec<String> = Vec::new();
    for byte in find_all(&stripped, "fn ") {
        // Only match at a token boundary ("fn " preceded by non-ident).
        if byte > 0 {
            let prev = stripped.as_bytes()[byte - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let name: String = stripped[byte + 3..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !name.is_empty() {
            fn_names.push(name);
        }
    }
    for &op in FUSED_OPS {
        let covered = fn_names
            .iter()
            .any(|n| n.contains(op) && n.contains("bitwise"));
        if !covered {
            out.push(Violation {
                rule: "fused-bitwise",
                file: rel.to_string(),
                line: 0,
                message: format!(
                    "fused op `{op}` has no bitwise-equivalence test \
                     (expected a fn containing `{op}` and `bitwise`)"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rules: sync-discipline / atomic-ordering — the gendt-sync facade
// ---------------------------------------------------------------------

/// Files migrated onto the `gendt-sync` facade. These are exactly the
/// modules `gendt-audit sync-check` model-checks; a raw `std::sync`
/// primitive here is invisible to the checker, so the proof would no
/// longer cover the shipped code.
const SYNC_FACADE_FILES: &[&str] = &[
    "crates/serve/src/scheduler.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/cache.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/metrics.rs",
    // The stream session table: sync-check's session_churn model
    // explores exactly this module's lock and gauge updates.
    "crates/serve/src/session.rs",
    "crates/trace/src/lib.rs",
    "crates/trace/src/span.rs",
    "crates/trace/src/telemetry.rs",
    "crates/trace/src/oplog.rs",
    "crates/faults/src/inject.rs",
    "crates/nn/src/threads.rs",
    "crates/nn/src/sanitize.rs",
    "crates/nn/src/kernels.rs",
    "crates/nn/src/plan.rs",
    // The fleet router: membership/ring state and the forwarding path
    // are exactly what `sync-check fleet` explores.
    "crates/fleet/src/membership.rs",
    "crates/fleet/src/router.rs",
    "crates/fleet/src/metrics.rs",
    "crates/fleet/src/forward.rs",
    "crates/fleet/src/supervisor.rs",
    // Observability plumbing sits on every request path; its gates and
    // rings must stay visible to the interleaving checker.
    "crates/obs/src/traceid.rs",
    "crates/obs/src/flightrec.rs",
];

/// `std::sync` items that must come from `gendt_sync` instead. `Arc`
/// and `OnceLock` are deliberately absent: they carry no blocking
/// behavior for the scheduler to interpose on.
const SYNC_BANNED_ITEMS: &[&str] = &["Mutex", "Condvar", "RwLock", "mpsc", "atomic", "Barrier"];

/// Poison-unwrap suffixes banned outside `#[cfg(test)]` in facade
/// files. The facade's `lock()` / `read()` / `write()` return the
/// guard directly (poisoning is handled inside), so these compile only
/// against raw `std` locks.
const SYNC_POISON_UNWRAPS: &[&str] = &[
    ".lock().unwrap",
    ".lock().expect",
    ".read().unwrap",
    ".read().expect",
    ".write().unwrap",
    ".write().expect",
];

/// True when `word` occurs in `hay` bounded by non-identifier chars.
fn has_word(hay: &str, word: &str) -> bool {
    let b = hay.as_bytes();
    let is_ident = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    for off in find_all(hay, word) {
        let pre_ok = off == 0 || !is_ident(b[off - 1]);
        let post = off + word.len();
        let post_ok = post >= b.len() || !is_ident(b[post]);
        if pre_ok && post_ok {
            return true;
        }
    }
    false
}

fn lint_sync_discipline(root: &Path, out: &mut Vec<Violation>) {
    for &rel in SYNC_FACADE_FILES {
        let Some(src) = read(root, rel) else {
            missing(out, "sync-discipline", rel);
            continue;
        };
        let stripped = strip_source(&src);
        let tests = test_regions(&stripped);
        // Raw std::sync primitives, banned everywhere in the file
        // (tests included — they build against the same facade).
        for byte in find_all(&stripped, "std::sync") {
            // Scan to the end of the statement so multi-line
            // `use std::sync::{..}` groups are covered too.
            let span_end = stripped[byte..]
                .find(';')
                .map_or(stripped.len(), |i| byte + i);
            let span = &stripped[byte..span_end.min(byte + 300)];
            if let Some(item) = SYNC_BANNED_ITEMS.iter().find(|w| has_word(span, w)) {
                out.push(Violation {
                    rule: "sync-discipline",
                    file: rel.to_string(),
                    line: line_of(&stripped, byte),
                    message: format!(
                        "raw `std::sync::{item}` in a facade-migrated file; \
                         use the `gendt_sync` equivalent so \
                         `gendt-audit sync-check` can interpose on it"
                    ),
                });
            }
        }
        // Poison-unwraps, banned outside tests.
        for &tok in SYNC_POISON_UNWRAPS {
            for byte in find_all(&stripped, tok) {
                if in_regions(&tests, byte) {
                    continue;
                }
                out.push(Violation {
                    rule: "sync-discipline",
                    file: rel.to_string(),
                    line: line_of(&stripped, byte),
                    message: format!(
                        "`{tok}(..)` in a facade-migrated file; the facade's \
                         guard methods return the guard directly and absorb \
                         poisoning — this call bypasses them"
                    ),
                });
            }
        }
    }
}

/// Atomic orderings that demand a written pairing argument.
const RELAXED_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// True when the blank-line delimited paragraph containing 1-based
/// `line` carries a `// sync:` comment on that line or above it.
fn paragraph_has_sync_comment(lines: &[&str], line: usize) -> bool {
    let mut i = line; // 1-based; inspect `lines[i - 1]` going upward
    while i >= 1 {
        let l = lines[i - 1];
        if l.trim().is_empty() {
            return false;
        }
        if l.contains("// sync:") {
            return true;
        }
        i -= 1;
    }
    false
}

fn lint_atomic_ordering(root: &Path, out: &mut Vec<Violation>) {
    for &rel in SYNC_FACADE_FILES {
        let Some(src) = read(root, rel) else {
            missing(out, "atomic-ordering", rel);
            continue;
        };
        let stripped = strip_source(&src);
        let tests = test_regions(&stripped);
        let lines: Vec<&str> = src.lines().collect();
        for byte in find_all(&stripped, "Ordering::") {
            if in_regions(&tests, byte) {
                continue;
            }
            let variant: String = stripped[byte + "Ordering::".len()..]
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            // Only atomic orderings; `SeqCst` (and `std::cmp::Ordering`
            // variants like `Less`) need no justification.
            if !RELAXED_ORDERINGS.contains(&variant.as_str()) {
                continue;
            }
            let line = line_of(&stripped, byte);
            if paragraph_has_sync_comment(&lines, line) {
                continue;
            }
            out.push(Violation {
                rule: "atomic-ordering",
                file: rel.to_string(),
                line,
                message: format!(
                    "`Ordering::{variant}` without a `// sync:` justification \
                     in its paragraph; state what the ordering pairs with \
                     (or why none is needed), or use `SeqCst`"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule: trace-propagation — /v1 handlers must thread Gendt-Trace-Id
// ---------------------------------------------------------------------

/// `/v1` request-path entry points. Each must reference
/// `traceid::TRACE_HEADER` (the `Gendt-Trace-Id` header) outside
/// `#[cfg(test)]`: a handler that never touches it drops the trace
/// context, so its spans fall out of the cross-process timeline.
const TRACE_PROP_FILES: &[&str] = &["crates/serve/src/server.rs", "crates/fleet/src/router.rs"];

fn lint_trace_propagation(root: &Path, out: &mut Vec<Violation>) {
    for &rel in TRACE_PROP_FILES {
        let Some(src) = read(root, rel) else {
            missing(out, "trace-propagation", rel);
            continue;
        };
        let stripped = strip_source(&src);
        let tests = test_regions(&stripped);
        let satisfied = find_all(&stripped, "TRACE_HEADER")
            .into_iter()
            .any(|byte| !in_regions(&tests, byte));
        if !satisfied {
            out.push(Violation {
                rule: "trace-propagation",
                file: rel.to_string(),
                line: 0,
                message: "`/v1` handler file never references \
                          `traceid::TRACE_HEADER`; propagate the \
                          `Gendt-Trace-Id` header through the request \
                          path so worker spans stay stitched to the \
                          router timeline"
                    .to_string(),
            });
        }
    }
}
