//! `gendt-serve` — the GenDT generation service.
//!
//! ```text
//! gendt-serve --models DIR [--addr HOST:PORT] [--world-seed N]
//!             [--max-batch N] [--queue-cap N] [--cache-cap N]
//!             [--workers N] [--deadline-ms N]
//! gendt-serve demo-model PATH [--seed N]
//! ```
//!
//! The `demo-model` subcommand trains a small checkpoint so the
//! quickstart (and CI) can stand up a server without a training run.
//! Failures exit with the taxonomy code of their [`GendtError`] kind
//! (config 2, io 3, not-found 5, ... — DESIGN.md §10).

#![forbid(unsafe_code)]

use gendt_faults::{ErrorKind, GendtError};
use gendt_serve::{serve, ServerCfg};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    "usage: gendt-serve --models DIR [--addr HOST:PORT] [--world-seed N] \
     [--max-batch N] [--queue-cap N] [--cache-cap N] [--workers N] [--deadline-ms N]\n\
     \x20      gendt-serve demo-model PATH [--seed N]"
        .to_string()
}

fn parse_num<T: std::str::FromStr>(
    args: &mut std::slice::Iter<String>,
    flag: &str,
) -> Result<T, GendtError> {
    let v = args
        .next()
        .ok_or_else(|| GendtError::config(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| GendtError::config(format!("{flag}: bad value {v:?}")))
}

fn run() -> Result<(), GendtError> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("demo-model") {
        let mut seed = 1u64;
        let path = argv
            .get(1)
            .ok_or_else(|| GendtError::config("demo-model needs a PATH"))?;
        let mut it = argv[2..].iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--seed" => seed = parse_num(&mut it, "--seed")?,
                other => return Err(GendtError::config(format!("unknown flag {other}"))),
            }
        }
        gendt_serve::demo::write_demo_model(PathBuf::from(path).as_path(), seed)?;
        println!("wrote demo checkpoint to {path}");
        return Ok(());
    }

    let mut models_dir: Option<PathBuf> = None;
    let mut builder = ServerCfg::builder(PathBuf::new()).addr("127.0.0.1:8080");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--models" => {
                let v = it
                    .next()
                    .ok_or_else(|| GendtError::config("--models needs a value"))?;
                models_dir = Some(PathBuf::from(v));
            }
            "--addr" => {
                let v = it
                    .next()
                    .ok_or_else(|| GendtError::config("--addr needs a value"))?;
                builder = builder.addr(v.clone());
            }
            "--world-seed" => builder = builder.world_seed(parse_num(&mut it, "--world-seed")?),
            "--max-batch" => builder = builder.max_batch(parse_num(&mut it, "--max-batch")?),
            "--queue-cap" => builder = builder.queue_cap(parse_num(&mut it, "--queue-cap")?),
            "--cache-cap" => builder = builder.cache_cap(parse_num(&mut it, "--cache-cap")?),
            "--workers" => builder = builder.workers(parse_num(&mut it, "--workers")?),
            "--deadline-ms" => {
                builder = builder.default_deadline_ms(parse_num(&mut it, "--deadline-ms")?)
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other => return Err(GendtError::config(format!("unknown flag {other}"))),
        }
    }
    let models_dir = models_dir.ok_or_else(|| GendtError::config("--models DIR is required"))?;

    let mut cfg = builder.build()?;
    cfg.models_dir = models_dir;
    let handle = serve(cfg)?;
    println!("gendt-serve listening on http://{}", handle.addr);
    handle.join();
    println!("gendt-serve stopped");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gendt-serve: {e}");
            if e.kind() == ErrorKind::Config {
                eprintln!("{}", usage());
            }
            ExitCode::from(e.exit_code())
        }
    }
}
