//! Saving and restoring [`ParamStore`] contents.
//!
//! Checkpoints are plain JSON keyed by parameter name, so they survive
//! refactors that reorder parameter registration, and diffs stay readable.

use crate::matrix::Matrix;
use crate::params::ParamStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// On-disk checkpoint format: name -> matrix.
#[derive(Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Parameter values keyed by registration name.
    pub params: BTreeMap<String, Matrix>,
}

/// Errors from checkpoint load/save.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// A parameter in the store has no entry in the checkpoint.
    MissingParam(String),
    /// The file is not a recognizable checkpoint (bad magic, unsupported
    /// format version, or a truncated/foreign body).
    Format(String),
    /// Checkpoint entry shape does not match the store's parameter.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape currently registered in the store.
        expected: (usize, usize),
        /// Shape found in the checkpoint.
        found: (usize, usize),
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Json(e) => write!(f, "checkpoint JSON error: {e}"),
            CheckpointError::Format(msg) => write!(f, "checkpoint format error: {msg}"),
            CheckpointError::MissingParam(n) => write!(f, "checkpoint missing parameter {n:?}"),
            CheckpointError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "checkpoint shape mismatch for {name:?}: expected {expected:?}, found {found:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Json(e)
    }
}

/// Snapshot a store into a checkpoint value.
pub fn snapshot(store: &ParamStore) -> Checkpoint {
    let params = store
        .iter()
        .map(|p| (p.name.clone(), p.value.clone()))
        .collect();
    Checkpoint { version: 1, params }
}

/// Restore parameter values (by name) from a checkpoint into `store`.
///
/// Every parameter registered in the store must be present in the
/// checkpoint with a matching shape and exactly `rows * cols` stored
/// values; extra checkpoint entries are ignored.
pub fn restore(store: &mut ParamStore, ckpt: &Checkpoint) -> Result<(), CheckpointError> {
    // Collect the ids first to avoid aliasing store borrows.
    let names: Vec<String> = store.iter().map(|p| p.name.clone()).collect();
    for (i, name) in names.iter().enumerate() {
        let entry = ckpt
            .params
            .get(name)
            .ok_or_else(|| CheckpointError::MissingParam(name.clone()))?;
        let id = crate::params::ParamId(i);
        let expected = store.value(id).shape();
        if entry.shape() != expected {
            return Err(CheckpointError::ShapeMismatch {
                name: name.clone(),
                expected,
                found: entry.shape(),
            });
        }
        if entry.data.len() != expected.0 * expected.1 {
            return Err(CheckpointError::Format(format!(
                "parameter {name:?} is {}x{} but stores {} values",
                expected.0,
                expected.1,
                entry.data.len()
            )));
        }
        *store.value_mut(id) = entry.clone();
    }
    Ok(())
}

/// Save a store to a JSON file.
pub fn save_to_file(store: &ParamStore, path: &Path) -> Result<(), CheckpointError> {
    let ckpt = snapshot(store);
    let json = serde_json::to_string(&ckpt)?;
    std::fs::write(path, json)?;
    Ok(())
}

/// Load a JSON checkpoint file into a store.
pub fn load_from_file(store: &mut ParamStore, path: &Path) -> Result<(), CheckpointError> {
    let json = std::fs::read_to_string(path)?;
    let ckpt: Checkpoint = serde_json::from_str(&json)?;
    restore(store, &ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn snapshot_restore_roundtrip() -> Result<(), CheckpointError> {
        let mut rng = Rng::seed_from(1);
        let mut store = ParamStore::new();
        store.add_xavier("a", 2, 3, &mut rng);
        store.add_xavier("b", 4, 1, &mut rng);
        let ckpt = snapshot(&store);

        let mut store2 = ParamStore::new();
        store2.add_zeros("a", 2, 3);
        store2.add_zeros("b", 4, 1);
        restore(&mut store2, &ckpt)?;
        for (p, q) in store.iter().zip(store2.iter()) {
            assert_eq!(p.value, q.value);
        }
        Ok(())
    }

    #[test]
    fn restore_rejects_missing_param() {
        let store = ParamStore::new();
        let ckpt = snapshot(&store);
        let mut store2 = ParamStore::new();
        store2.add_zeros("only-here", 1, 1);
        assert!(matches!(
            restore(&mut store2, &ckpt),
            Err(CheckpointError::MissingParam(_))
        ));
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let mut store = ParamStore::new();
        store.add_zeros("w", 2, 2);
        let ckpt = snapshot(&store);
        let mut store2 = ParamStore::new();
        store2.add_zeros("w", 3, 2);
        assert!(matches!(
            restore(&mut store2, &ckpt),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn restore_rejects_inconsistent_storage() -> Result<(), CheckpointError> {
        let json = r#"{"version":1,"params":{"w":{"rows":2,"cols":2,"data":[1.0]}}}"#;
        let ckpt: Checkpoint = serde_json::from_str(json)?;
        let mut store = ParamStore::new();
        store.add_zeros("w", 2, 2);
        match restore(&mut store, &ckpt) {
            Err(CheckpointError::Format(msg)) => assert!(msg.contains("\"w\""), "{msg}"),
            other => panic!("short storage accepted: {other:?}"),
        }
        assert_eq!(store.value(crate::params::ParamId(0)).data.len(), 4);
        Ok(())
    }

    #[test]
    fn file_roundtrip() -> Result<(), CheckpointError> {
        let mut rng = Rng::seed_from(2);
        let mut store = ParamStore::new();
        store.add_xavier("w", 3, 3, &mut rng);
        let dir = std::env::temp_dir().join("gendt-nn-ckpt-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("ckpt.json");
        save_to_file(&store, &path)?;
        let mut store2 = ParamStore::new();
        store2.add_zeros("w", 3, 3);
        load_from_file(&mut store2, &path)?;
        assert_eq!(
            store.value(crate::params::ParamId(0)),
            store2.value(crate::params::ParamId(0))
        );
        std::fs::remove_file(&path).ok();
        Ok(())
    }
}
