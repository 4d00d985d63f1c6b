//! Model checkpointing: save and restore a trained GenDT (generator +
//! discriminator + configuration) as JSON.
//!
//! This is the operator workflow of paper §7.1: a *pretrained* model is
//! the starting point of the generation phase and of retraining for a new
//! region; both need the model to survive the process that trained it.

use crate::cfg::GenDtCfg;
use crate::trainer::{GenDt, StepTrace};
use gendt_nn::checkpoint::{restore, snapshot, Checkpoint, CheckpointError};
use gendt_nn::{Adam, Rng};
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Magic string at the start of every headered checkpoint file. The
/// first line is `GENDTCKPT <version>`, then the JSON body.
pub const MAGIC: &str = "GENDTCKPT";

/// Format version written by [`save_model_to_file`].
pub const FORMAT_VERSION: u32 = 2;

/// Magic string of *training* checkpoints (full resume state: params +
/// optimizer moments + RNG + loss trace), distinct from model files so
/// the serving registry never confuses the two.
pub const TRAIN_MAGIC: &str = "GENDTTRN";

/// Format version written by [`save_train_checkpoint`].
pub const TRAIN_FORMAT_VERSION: u32 = 1;

/// Name of the rolling pointer file updated after every successful
/// training checkpoint write.
pub const LATEST_POINTER: &str = "latest";

/// On-disk model format.
#[derive(Debug, Serialize, Deserialize)]
pub struct ModelCheckpoint {
    /// Format version.
    pub version: u32,
    /// The configuration the model was built with (architecture must
    /// match to restore).
    pub cfg: GenDtCfg,
    /// Generator parameters.
    pub generator: Checkpoint,
    /// Discriminator parameters.
    pub discriminator: Checkpoint,
}

/// Snapshot a trained model.
pub fn save_model(model: &GenDt) -> ModelCheckpoint {
    ModelCheckpoint {
        version: 1,
        cfg: model.cfg().clone(),
        generator: snapshot(&model.generator.store),
        discriminator: snapshot(&model.discriminator.store),
    }
}

/// Crash-safe file write: the bytes go to a `.tmp` sibling, are fsynced,
/// and only then renamed over the destination. A kill at any point
/// leaves either the old file or the new one — never a torn mix. The
/// `checkpoint.write` fault probe fires before any byte is written, so
/// an injected failure also cannot corrupt the destination.
fn write_atomic(path: &Path, body: &str) -> std::io::Result<()> {
    gendt_faults::fail_io("checkpoint.write")?;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Write a model checkpoint to a file: a `GENDTCKPT <version>` header
/// line followed by the JSON body. The header lets the registry reject
/// foreign files before attempting a multi-megabyte JSON parse. The
/// write is atomic (temp + fsync + rename).
pub fn save_model_to_file(model: &GenDt, path: &Path) -> Result<(), CheckpointError> {
    let ckpt = save_model(model);
    let json = serde_json::to_string(&ckpt).map_err(CheckpointError::Json)?;
    let body = format!("{MAGIC} {FORMAT_VERSION}\n{json}");
    write_atomic(path, &body).map_err(CheckpointError::Io)?;
    Ok(())
}

/// Rebuild a model from a checkpoint. The architecture is reconstructed
/// from the stored configuration, then parameter values are restored by
/// name.
pub fn load_model(ckpt: &ModelCheckpoint) -> Result<GenDt, CheckpointError> {
    let mut model = GenDt::new(ckpt.cfg.clone());
    restore(&mut model.generator.store, &ckpt.generator)?;
    restore(&mut model.discriminator.store, &ckpt.discriminator)?;
    Ok(model)
}

/// Parse the file body into a [`ModelCheckpoint`], accepting both the
/// headered format and legacy headerless JSON (files that start with
/// `{`). Anything else is rejected with a descriptive [`Format`] error
/// rather than a JSON parse failure deep inside a foreign file.
///
/// [`Format`]: CheckpointError::Format
pub fn parse_model_checkpoint(text: &str) -> Result<ModelCheckpoint, CheckpointError> {
    let json = if let Some(rest) = text.strip_prefix(MAGIC) {
        let (header, body) = match rest.split_once('\n') {
            Some(split) => split,
            None => {
                return Err(CheckpointError::Format(
                    "header line has no body after it (truncated file?)".to_string(),
                ))
            }
        };
        let version: u32 = header.trim().parse().map_err(|_| {
            CheckpointError::Format(format!(
                "malformed header {:?}: expected `{MAGIC} <version>`",
                header.trim()
            ))
        })?;
        if version > FORMAT_VERSION {
            return Err(CheckpointError::Format(format!(
                "format version {version} is newer than supported {FORMAT_VERSION}"
            )));
        }
        body
    } else if text.trim_start().starts_with('{') {
        // Legacy headerless checkpoint: plain JSON from format v1.
        text
    } else {
        let head: String = text.chars().take(16).collect();
        return Err(CheckpointError::Format(format!(
            "not a GenDT checkpoint: expected `{MAGIC}` header or JSON body, found {head:?}"
        )));
    };
    serde_json::from_str(json).map_err(|e| {
        CheckpointError::Format(format!(
            "checkpoint body is not valid model JSON (truncated file?): {e}"
        ))
    })
}

/// Read a model checkpoint from a file (headered or legacy headerless).
pub fn load_model_from_file(path: &Path) -> Result<GenDt, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
    let ckpt = parse_model_checkpoint(&text)?;
    load_model(&ckpt)
}

// ---------------------------------------------------------------------
// Training checkpoints: full resume state.
// ---------------------------------------------------------------------

/// On-disk *training* state: everything `train_step` reads, so a run
/// killed at any step resumes with bitwise-identical continuation —
/// parameters, both Adam moment sets, the exact RNG state, and the loss
/// trace (whose length drives the scheduled-sampling alternation).
#[derive(Debug, Serialize, Deserialize)]
pub struct TrainCheckpoint {
    /// Format version.
    pub version: u32,
    /// Steps completed when this snapshot was taken.
    pub step: u64,
    /// Model configuration (architecture must match to restore).
    pub cfg: GenDtCfg,
    /// Generator parameters.
    pub generator: Checkpoint,
    /// Discriminator parameters.
    pub discriminator: Checkpoint,
    /// Generator optimizer (moments + step count).
    pub opt_g: Adam,
    /// Discriminator optimizer (moments + step count).
    pub opt_d: Adam,
    /// Exact trainer RNG state.
    pub rng_state: [u64; 4],
    /// Per-step loss trace; its length gates scheduled sampling.
    pub trace: Vec<StepTrace>,
}

/// Snapshot the full training state of `model` after `step` steps.
pub fn save_train(model: &GenDt, step: u64) -> TrainCheckpoint {
    TrainCheckpoint {
        version: TRAIN_FORMAT_VERSION,
        step,
        cfg: model.cfg().clone(),
        generator: snapshot(&model.generator.store),
        discriminator: snapshot(&model.discriminator.store),
        opt_g: model.opt_g.clone(),
        opt_d: model.opt_d.clone(),
        rng_state: model.rng.state(),
        trace: model.trace.clone(),
    }
}

/// Write a training checkpoint into `dir` as `step_<NNNNNNNN>.ckpt`
/// (atomic: temp + fsync + rename), then atomically repoint the rolling
/// [`LATEST_POINTER`] file at it. Returns the checkpoint path.
pub fn save_train_checkpoint(
    model: &GenDt,
    step: u64,
    dir: &Path,
) -> Result<PathBuf, CheckpointError> {
    let ckpt = save_train(model, step);
    let json = serde_json::to_string(&ckpt).map_err(CheckpointError::Json)?;
    let body = format!("{TRAIN_MAGIC} {TRAIN_FORMAT_VERSION}\n{json}");
    std::fs::create_dir_all(dir).map_err(CheckpointError::Io)?;
    let name = format!("step_{step:08}.ckpt");
    let path = dir.join(&name);
    write_atomic(&path, &body).map_err(CheckpointError::Io)?;
    write_atomic(&dir.join(LATEST_POINTER), &name).map_err(CheckpointError::Io)?;
    Ok(path)
}

/// Parse a training-checkpoint file body (header + JSON).
pub fn parse_train_checkpoint(text: &str) -> Result<TrainCheckpoint, CheckpointError> {
    let rest = text.strip_prefix(TRAIN_MAGIC).ok_or_else(|| {
        let head: String = text.chars().take(16).collect();
        CheckpointError::Format(format!(
            "not a GenDT training checkpoint: expected `{TRAIN_MAGIC}` header, found {head:?}"
        ))
    })?;
    let (header, body) = rest.split_once('\n').ok_or_else(|| {
        CheckpointError::Format("header line has no body after it (truncated file?)".to_string())
    })?;
    let version: u32 = header.trim().parse().map_err(|_| {
        CheckpointError::Format(format!(
            "malformed header {:?}: expected `{TRAIN_MAGIC} <version>`",
            header.trim()
        ))
    })?;
    if version > TRAIN_FORMAT_VERSION {
        return Err(CheckpointError::Format(format!(
            "training-checkpoint version {version} is newer than supported {TRAIN_FORMAT_VERSION}"
        )));
    }
    serde_json::from_str(body).map_err(|e| {
        CheckpointError::Format(format!(
            "training-checkpoint body is not valid JSON (truncated file?): {e}"
        ))
    })
}

/// Rebuild a resumable trainer from a parsed training checkpoint.
pub fn restore_train(ckpt: &TrainCheckpoint) -> Result<GenDt, CheckpointError> {
    let mut model = GenDt::new(ckpt.cfg.clone());
    restore(&mut model.generator.store, &ckpt.generator)?;
    restore(&mut model.discriminator.store, &ckpt.discriminator)?;
    ckpt.opt_g.check_state(&model.generator.store)?;
    ckpt.opt_d.check_state(&model.discriminator.store)?;
    model.opt_g = ckpt.opt_g.clone();
    model.opt_d = ckpt.opt_d.clone();
    model.rng = Rng::from_state(ckpt.rng_state);
    model.trace = ckpt.trace.clone();
    Ok(model)
}

/// Load a training checkpoint file. The `checkpoint.read` fault probe
/// fires before the read so chaos schedules can exercise the fallback.
pub fn load_train_checkpoint(path: &Path) -> Result<(GenDt, u64), CheckpointError> {
    gendt_faults::fail_io("checkpoint.read").map_err(CheckpointError::Io)?;
    let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
    let ckpt = parse_train_checkpoint(&text)?;
    let model = restore_train(&ckpt)?;
    Ok((model, ckpt.step))
}

/// Resume from the newest loadable checkpoint in `dir`.
///
/// The [`LATEST_POINTER`] target is tried first; if it is missing, torn,
/// or corrupt, older `step_*.ckpt` files are tried newest-first. The
/// error for an exhausted directory names the last failure, so a
/// corrupted-latest run reports *why* it fell back.
pub fn resume_latest(dir: &Path) -> Result<(GenDt, u64, PathBuf), CheckpointError> {
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(CheckpointError::Io)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("step_") && name.ends_with(".ckpt")
        })
        .collect();
    // Step numbers are zero-padded, so lexicographic descending order is
    // newest-first.
    candidates.sort();
    candidates.reverse();
    if let Ok(name) = std::fs::read_to_string(dir.join(LATEST_POINTER)) {
        let target = dir.join(name.trim());
        candidates.retain(|p| *p != target);
        candidates.insert(0, target);
    }
    if candidates.is_empty() {
        return Err(CheckpointError::Format(format!(
            "no training checkpoint found in {}",
            dir.display()
        )));
    }
    let mut last_err: Option<(PathBuf, CheckpointError)> = None;
    for path in candidates {
        match load_train_checkpoint(&path) {
            Ok((model, step)) => {
                if let Some((bad, e)) = last_err {
                    gendt_trace::error!(
                        "resume: skipped unloadable checkpoint {} ({e}); \
                         fell back to {}",
                        bad.display(),
                        path.display()
                    );
                }
                return Ok((model, step, path));
            }
            Err(e) => last_err = Some((path, e)),
        }
    }
    match last_err {
        Some((path, e)) => Err(CheckpointError::Format(format!(
            "no loadable training checkpoint in {}: {} failed with: {e}",
            dir.display(),
            path.display()
        ))),
        None => Err(CheckpointError::Format(format!(
            "no training checkpoint found in {}",
            dir.display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_series;
    use gendt_data::builders::{dataset_a, BuildCfg};
    use gendt_data::context::{extract, ContextCfg};
    use gendt_data::kpi_types::Kpi;
    use gendt_data::windows::windows as make_windows;

    fn tiny_trained() -> (GenDt, gendt_data::context::RunContext) {
        let mut cfg = GenDtCfg::fast(4, 77);
        cfg.hidden = 8;
        cfg.resgen_hidden = 8;
        cfg.disc_hidden = 4;
        cfg.window.len = 10;
        cfg.window.stride = 10;
        cfg.window.max_cells = 2;
        cfg.steps = 4;
        cfg.batch_size = 4;
        let ds = dataset_a(&BuildCfg::quick(78));
        let run = &ds.runs[0];
        let ctx = extract(
            &ds.world,
            &ds.deployment,
            &run.traj,
            &ContextCfg {
                max_cells: 2,
                ..ContextCfg::default()
            },
        );
        let pool = make_windows(run, &ctx, &Kpi::DATASET_A, &cfg.window);
        let mut model = GenDt::new(cfg);
        model.train(&pool);
        (model, ctx)
    }

    #[test]
    fn roundtrip_preserves_generation() -> Result<(), CheckpointError> {
        let (mut model, ctx) = tiny_trained();
        let before = generate_series(&mut model, &ctx, &Kpi::DATASET_A, false, 5);
        let ckpt = save_model(&model);
        let mut restored = load_model(&ckpt)?;
        let after = generate_series(&mut restored, &ctx, &Kpi::DATASET_A, false, 5);
        assert_eq!(
            before.series, after.series,
            "restored model generates differently"
        );
        Ok(())
    }

    #[test]
    fn file_roundtrip() -> Result<(), CheckpointError> {
        let (model, _) = tiny_trained();
        let dir = std::env::temp_dir().join("gendt-model-ckpt-test");
        std::fs::create_dir_all(&dir).map_err(CheckpointError::Io)?;
        let path = dir.join("model.json");
        save_model_to_file(&model, &path)?;
        let restored = load_model_from_file(&path)?;
        assert_eq!(restored.cfg().hidden, model.cfg().hidden);
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn headered_file_roundtrip_and_legacy_load() -> Result<(), CheckpointError> {
        let (model, _) = tiny_trained();
        let dir = std::env::temp_dir().join("gendt-model-ckpt-header-test");
        std::fs::create_dir_all(&dir).map_err(CheckpointError::Io)?;

        // New files carry the magic header.
        let path = dir.join("headered.json");
        save_model_to_file(&model, &path)?;
        let text = std::fs::read_to_string(&path).map_err(CheckpointError::Io)?;
        assert!(text.starts_with("GENDTCKPT 2\n"), "missing header");
        load_model_from_file(&path)?;

        // A legacy headerless file (plain JSON, format v1) still loads.
        let legacy = dir.join("legacy.json");
        let json = serde_json::to_string(&save_model(&model)).map_err(CheckpointError::Json)?;
        std::fs::write(&legacy, json).map_err(CheckpointError::Io)?;
        load_model_from_file(&legacy)?;

        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&legacy).ok();
        Ok(())
    }

    #[test]
    fn load_rejects_foreign_and_truncated_files() {
        // A foreign file is rejected with a Format error naming the magic.
        match parse_model_checkpoint("\u{89}PNG not a checkpoint") {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("not a GenDT checkpoint"), "{msg}")
            }
            other => panic!("foreign file accepted: {other:?}"),
        }

        // A truncated headered file gives a descriptive body error.
        match parse_model_checkpoint("GENDTCKPT 2\n{\"version\":2,\"cfg\":{") {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("truncated"), "{msg}")
            }
            other => panic!("truncated file accepted: {other:?}"),
        }

        // A header with no body at all.
        assert!(matches!(
            parse_model_checkpoint("GENDTCKPT 2"),
            Err(CheckpointError::Format(_))
        ));

        // A malformed version field.
        assert!(matches!(
            parse_model_checkpoint("GENDTCKPT banana\n{}"),
            Err(CheckpointError::Format(_))
        ));

        // A future format version is rejected, not misparsed.
        match parse_model_checkpoint("GENDTCKPT 99\n{}") {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("newer"), "{msg}"),
            other => panic!("future version accepted: {other:?}"),
        }
    }

    fn tiny_pool(cfg: &GenDtCfg) -> Vec<gendt_data::windows::Window> {
        let ds = dataset_a(&BuildCfg::quick(78));
        let run = &ds.runs[0];
        let ctx = extract(
            &ds.world,
            &ds.deployment,
            &run.traj,
            &ContextCfg {
                max_cells: 2,
                ..ContextCfg::default()
            },
        );
        make_windows(run, &ctx, &Kpi::DATASET_A, &cfg.window)
    }

    fn tiny_train_cfg(seed: u64) -> GenDtCfg {
        let mut cfg = GenDtCfg::fast(4, seed);
        cfg.hidden = 8;
        cfg.resgen_hidden = 8;
        cfg.disc_hidden = 4;
        cfg.window.len = 10;
        cfg.window.stride = 10;
        cfg.window.max_cells = 2;
        cfg.batch_size = 4;
        cfg
    }

    fn params_of(model: &GenDt) -> Vec<Vec<f32>> {
        model
            .generator
            .store
            .iter()
            .chain(model.discriminator.store.iter())
            .map(|p| p.value.data.clone())
            .collect()
    }

    #[test]
    fn train_checkpoint_resumes_bitwise() -> Result<(), CheckpointError> {
        let cfg = tiny_train_cfg(55);
        let pool = tiny_pool(&cfg);
        let dir = std::env::temp_dir().join("gendt-train-ckpt-resume-test");
        std::fs::remove_dir_all(&dir).ok();

        // Uninterrupted run: 5 steps straight through.
        let mut straight = GenDt::new(cfg.clone());
        for _ in 0..5 {
            straight.train_step(&pool);
        }

        // Interrupted run: snapshot after 2 steps, resume, finish.
        let mut first = GenDt::new(cfg);
        first.train_step(&pool);
        first.train_step(&pool);
        save_train_checkpoint(&first, 2, &dir)?;
        drop(first);
        let (mut resumed, step, _path) = resume_latest(&dir)?;
        assert_eq!(step, 2);
        for _ in step..5 {
            resumed.train_step(&pool);
        }

        assert_eq!(resumed.trace.len(), straight.trace.len());
        assert_eq!(
            params_of(&resumed),
            params_of(&straight),
            "resumed run diverged from the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn torn_latest_checkpoint_falls_back_to_previous() -> Result<(), CheckpointError> {
        let cfg = tiny_train_cfg(56);
        let pool = tiny_pool(&cfg);
        let dir = std::env::temp_dir().join("gendt-train-ckpt-torn-test");
        std::fs::remove_dir_all(&dir).ok();

        let mut model = GenDt::new(cfg);
        model.train_step(&pool);
        save_train_checkpoint(&model, 1, &dir)?;
        model.train_step(&pool);
        let newest = save_train_checkpoint(&model, 2, &dir)?;

        // Tear the newest checkpoint mid-body, as a crash between write
        // and rename never could but a buggy copy or disk fault can.
        let text = std::fs::read_to_string(&newest).map_err(CheckpointError::Io)?;
        std::fs::write(&newest, &text[..text.len() / 2]).map_err(CheckpointError::Io)?;

        // Loading the torn file directly fails with a descriptive error.
        match load_train_checkpoint(&newest) {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("truncated"), "undescriptive error: {msg}")
            }
            Err(other) => panic!("wrong error for torn checkpoint: {other:?}"),
            Ok(_) => panic!("torn checkpoint accepted"),
        }

        // resume_latest falls back to the previous good checkpoint.
        let (_model, step, path) = resume_latest(&dir)?;
        assert_eq!(step, 1, "should fall back to the step-1 checkpoint");
        assert!(path.to_string_lossy().contains("step_00000001"));

        // An empty/unusable directory reports what failed.
        let empty = std::env::temp_dir().join("gendt-train-ckpt-empty-test");
        std::fs::create_dir_all(&empty).map_err(CheckpointError::Io)?;
        match resume_latest(&empty) {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("no training checkpoint"), "{msg}")
            }
            Err(other) => panic!("wrong error for empty dir: {other:?}"),
            Ok(_) => panic!("empty dir resumed"),
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
        Ok(())
    }

    /// An optimizer deserialized with the given moment lists, as a
    /// checkpoint file on disk could carry them.
    fn adam_with(m: &[Vec<f32>], v: &[Vec<f32>]) -> Result<Adam, CheckpointError> {
        let m = serde_json::to_string(m).map_err(CheckpointError::Json)?;
        let v = serde_json::to_string(v).map_err(CheckpointError::Json)?;
        let json =
            format!(r#"{{"lr":0.001,"beta1":0.9,"beta2":0.999,"eps":1e-8,"t":1,"m":{m},"v":{v}}}"#);
        serde_json::from_str(&json).map_err(CheckpointError::Json)
    }

    #[test]
    fn restore_train_rejects_mismatched_optimizer_state() -> Result<(), CheckpointError> {
        let cfg = tiny_train_cfg(57);
        let pool = tiny_pool(&cfg);
        let dir = std::env::temp_dir().join("gendt-train-ckpt-adam-test");
        std::fs::remove_dir_all(&dir).ok();
        let mut model = GenDt::new(cfg);
        model.train_step(&pool);
        save_train_checkpoint(&model, 1, &dir)?;
        let mut ckpt = save_train(&model, 2);

        let full: Vec<Vec<f32>> = model
            .generator
            .store
            .iter()
            .map(|p| vec![0.0; p.value.data.len()])
            .collect();
        ckpt.opt_g = adam_with(&full, &full)?;
        restore_train(&ckpt)?;

        let mut short = full.clone();
        if let Some(last) = short.last_mut() {
            last.pop();
        }
        let mut extra = full.clone();
        extra.push(vec![0.0]);
        let cases = [
            ("a short moment", adam_with(&short, &short)?),
            (
                "v shorter than m",
                adam_with(&full, &full[..full.len() - 1])?,
            ),
            ("more moments than parameters", adam_with(&extra, &extra)?),
        ];
        for (what, adam) in cases {
            ckpt.opt_g = adam;
            match restore_train(&ckpt) {
                Err(CheckpointError::Format(msg)) => assert!(msg.contains("Adam"), "{what}: {msg}"),
                Err(other) => panic!("{what}: wrong error {other:?}"),
                Ok(_) => panic!("{what}: optimizer state accepted"),
            }
        }

        // Written as the newest checkpoint, such a file is skipped on
        // resume like a torn one.
        let json = serde_json::to_string(&ckpt).map_err(CheckpointError::Json)?;
        let body = format!("{TRAIN_MAGIC} {TRAIN_FORMAT_VERSION}\n{json}");
        std::fs::write(dir.join("step_00000002.ckpt"), body).map_err(CheckpointError::Io)?;
        std::fs::write(dir.join(LATEST_POINTER), "step_00000002.ckpt")
            .map_err(CheckpointError::Io)?;
        let (_model, step, _path) = resume_latest(&dir)?;
        assert_eq!(step, 1, "should fall back to the step-1 checkpoint");
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn train_checkpoint_rejects_foreign_and_model_files() {
        match parse_train_checkpoint("GENDTCKPT 2\n{}") {
            Err(CheckpointError::Format(msg)) => {
                assert!(msg.contains("GENDTTRN"), "{msg}")
            }
            other => panic!("model file accepted as training checkpoint: {other:?}"),
        }
        assert!(matches!(
            parse_train_checkpoint("GENDTTRN 99\n{}"),
            Err(CheckpointError::Format(_))
        ));
        assert!(matches!(
            parse_train_checkpoint("GENDTTRN 1"),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn load_rejects_mismatched_architecture() {
        let (model, _) = tiny_trained();
        let mut ckpt = save_model(&model);
        // Corrupt the config: a different hidden size no longer matches
        // the stored parameter shapes.
        ckpt.cfg.hidden = 24;
        assert!(load_model(&ckpt).is_err());
    }
}
