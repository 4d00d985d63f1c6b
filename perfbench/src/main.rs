//! The repository's benchmark: one command, three workloads (`train`,
//! `generate`, `stream`) against the real program at the paper's model
//! shapes. `--trace 0` prints the end-to-end metrics; `--trace 1` prints
//! the per-layer split, timed around the calls the benchmark itself makes
//! into each layer's public functions. Both check the program's outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload generate --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/README.md` for every metric and what it should move.

mod client;
mod generate;
mod serving;
mod stats;
mod stream;
mod trace;
mod train;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// Counts allocation calls and bytes per thread, for `nn.alloc_mb_per_step`.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Wall-clock latency and throughput are printed as rows, not metrics:
/// on a small shared host whose CPU steal moves between 0% and 28% from
/// minute to minute they spread 0.13-1.3 across seeds, too wide to gate
/// on. CPU time per window does not count stolen time.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_window", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.generator_forward_ms", "ms"),
    ("core.discriminator_forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("core.step_other_ms", "ms"),
    ("nn.alloc_mb_per_step", "MiB"),
    ("nn.allocs_per_step", "count"),
    ("nn.gflop_per_step", "GFLOP"),
    ("nn.gflops", "GFLOP/s"),
    ("data.pool_build_s", "s"),
    ("client.wire_ms", "ms"),
    ("fleet.router_ms", "ms"),
    ("fleet.hop_ms", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p95", "ms"),
    ("serve.batch_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("data.resolve_ms", "ms"),
    ("core.window_ms", "ms"),
    ("fleet.tunnel_ms", "ms"),
    ("core.chunk_ms", "ms"),
    ("core.generation_windows_ms", "ms"),
    ("serve.session_us", "us"),
    ("serve.stream_other_ms", "ms"),
    ("serve.sessions_lost", "count"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// Times the benchmark repeats its whole set-up; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// The run gives up (non-zero exit, no result) past this wall time.
const WATCHDOG: Duration = Duration::from_secs(170);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload measured and checked.
#[derive(Default)]
pub struct Report {
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: Vec<(&'static str, f64)>,
    /// Extra rows for people: the workload's own names for its numbers
    /// and the load generator's diagnostics.
    pub rows: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks: name and whether it passed.
    pub checks: Vec<(String, bool)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn row(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }
}

/// Give up on the run: the reason on stderr, a non-zero exit and no
/// result line.
pub fn fail(e: &str) -> ! {
    eprintln!("perfbench: {e}");
    std::process::exit(1)
}

/// Where a run keeps its checkpoint and trace, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

/// Write the traced run's spans as one Chrome-trace JSON document.
pub fn write_trace(workload: &str, tracer: &trace::Tracer, stamp: &str) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, tracer.chrome_json(stamp)));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// Worker threads the load generator and the measured program may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `setup_s`: the median of the measured set-up's duration `first`
/// (process start to the first timed operation) and `SETUPS - 1` more
/// runs of `setup`, each timed on its own and torn down untimed. The
/// repeats run after the measured phases and the output checks, so they
/// neither disturb the phases nor raise the reported peak RSS.
pub fn setup_median<T>(
    first: f64,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let t = Instant::now();
        let done = setup();
        times.push(t.elapsed().as_secs_f64());
        teardown(done);
    }
    stats::median(&times)
}

/// Refuse to run when any `GENDT_*` variable is set: the benchmark
/// measures the repository defaults only.
fn check_env(vars: impl Iterator<Item = String>) -> Result<(), String> {
    let set: Vec<String> = vars.filter(|k| k.starts_with("GENDT_")).collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the defaults",
            set.join(", ")
        ))
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    };
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(args)
}

/// `git_rev` of the checkout when it is a git work tree (only `./.git`
/// is read), otherwise "unknown".
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    match rev.trim() {
        "" => "unknown".into(),
        r => r.to_string(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU seconds this process has run (user + system), from
/// `/proc/self/stat`; steal time on a virtual machine is not counted.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    tick(11)
        .zip(tick(12))
        .map_or(f64::NAN, |(u, s)| (u + s) / 100.0)
}

/// Seconds the machine's CPUs were stolen by the hypervisor so far
/// (`/proc/stat`), a diagnostic for noisy runs.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |t| t / 100.0)
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("a string serializes")
}

/// JSON has no infinity: an unserved percentile is written as 1e12.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e12".into()
    }
}

fn main() {
    let process_start = Instant::now();
    if let Err(e) = check_env(std::env::vars().map(|(k, _)| k)) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!(
            "perfbench: run exceeded {} s, giving up",
            WATCHDOG.as_secs()
        );
        std::process::exit(3);
    });
    let stamp = format!(
        "{{\"git_rev\":{},\"nproc\":{},\"cpu\":{},\"rustc\":{},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(&git_rev()),
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    );
    let report = match args.workload.as_str() {
        "train" => train::run(&args, process_start, &stamp),
        "generate" => generate::run(&args, process_start, &stamp),
        "stream" => stream::run(&args, process_start, &stamp),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (train, generate, stream)");
            std::process::exit(2);
        }
    };

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    println!("stamp {stamp}");
    for (name, value, unit) in &report.rows {
        println!("row {} {name} {} {unit}", args.workload, json_num(*value));
    }
    for (name, ok) in &report.checks {
        println!(
            "check {} {name} {}",
            args.workload,
            if *ok { "ok" } else { "FAILED" }
        );
    }
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v);
        println!("metric {} {name} {} {unit}", args.workload, json_num(value));
        metrics.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let correct = !report.checks.is_empty() && report.checks.iter().all(|(_, ok)| *ok);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn refuses_to_start_on_any_gendt_variable() {
        let vars = |v: &[&str]| {
            v.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter()
        };
        assert!(check_env(vars(&["PATH", "HOME", "CARGO_TARGET_DIR"])).is_ok());
        for var in [
            "GENDT_PLAN",
            "GENDT_THREADS",
            "GENDT_TRACE",
            "GENDT_FLIGHTREC",
        ] {
            let err = check_env(vars(&["PATH", var])).unwrap_err();
            assert!(err.contains(var), "{err}");
        }
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv("--workload stream --seed 7 --seconds 25 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("stream", 7, 25.0, true)
        );
        assert!(parse_args(&argv("--workload train")).is_err());
        assert!(parse_args(&argv("--workload train --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload train --seed x")).is_err());
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
