//! Bench-artifact stamping: a versioned schema number and the git
//! revision, so `BENCH_*.json` files are comparable across PRs.

use std::path::Path;

/// Version of the bench-output schema. Bump when a field in
/// `BENCH_serve.json` changes meaning, so the cross-PR bench trajectory
/// can tell layouts apart.
///
/// v2: serve bench moved from fixed-concurrency closed loop to
/// open-loop Poisson arrivals (`offered_rps`/`achieved_rps`), latency
/// quantiles gained `p999`, and `BENCH_serve.json` gained a `fleet`
/// scaling section.
///
/// v3: the fleet section gained a `config` header carrying the
/// `GENDT_FLEET_SEED` value and the worker-count ladder, so fleet
/// numbers are reproducible from the stamp alone.
pub const BENCH_SCHEMA: u32 = 3;

/// The current git revision, resolved by reading `.git/HEAD` (and the
/// ref file it points at) from the working directory or any ancestor.
/// Returns `"unknown"` outside a git checkout — never an error, since
/// bench stamping must not fail a run.
pub fn git_rev() -> String {
    std::env::current_dir()
        .ok()
        .and_then(|dir| rev_from(&dir))
        .unwrap_or_else(|| "unknown".to_string())
}

fn rev_from(start: &Path) -> Option<String> {
    let mut dir: Option<&Path> = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_head(&git);
        }
        dir = d.parent();
    }
    None
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(rf) = head.strip_prefix("ref: ") {
        let direct = git.join(rf);
        if let Ok(rev) = std::fs::read_to_string(direct) {
            return Some(rev.trim().to_string());
        }
        // Packed refs: "HASH refs/heads/branch" lines.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            let (hash, name) = l.split_once(' ')?;
            (name.trim() == rf).then(|| hash.trim().to_string())
        })
    } else {
        // Detached HEAD holds the hash directly.
        Some(head.to_string())
    }
}

/// `rev_from` starting at an explicit directory (tests use a fixture
/// tree instead of the process working directory).
#[cfg(test)]
fn git_rev_in(dir: &Path) -> String {
    rev_from(dir).unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempDir(PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn resolves_symbolic_and_detached_heads() {
        let root = std::env::temp_dir().join(format!("gendt-trace-gitrev-{}", std::process::id()));
        let tmp = TempDir(root.clone());
        let git = root.join("sub").join(".git");
        std::fs::create_dir_all(git.join("refs/heads")).expect("mkdir");
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").expect("write HEAD");
        std::fs::write(git.join("refs/heads/main"), "abc123\n").expect("write ref");
        // Resolution walks up from a nested directory to the .git root.
        let nested = root.join("sub").join("deep");
        std::fs::create_dir_all(&nested).expect("mkdir nested");
        assert_eq!(git_rev_in(&nested), "abc123");

        std::fs::write(git.join("HEAD"), "def456\n").expect("write detached HEAD");
        assert_eq!(git_rev_in(&nested), "def456");
        drop(tmp);
    }

    #[test]
    fn missing_repo_is_unknown() {
        let root = std::env::temp_dir().join(format!("gendt-trace-norepo-{}", std::process::id()));
        let tmp = TempDir(root.clone());
        std::fs::create_dir_all(&root).expect("mkdir");
        // temp_dir ancestors hold no .git on the build container.
        assert_eq!(git_rev_in(&root), "unknown");
        drop(tmp);
    }
}
