//! Workflow trace serialization.
//!
//! Traces are stored as JSON so experiment inputs can be pinned, shared, and
//! re-run bit-for-bit — the role the paper's published log archive plays
//! (the footnote in §V links the original logs; ours regenerate from seeds
//! but can also be exported and re-imported through this module).

use crate::error::WorkloadError;
use crate::workflow::Workflow;
use std::io::Read;
use std::path::Path;

/// Serialize a workflow to pretty-printed JSON.
pub fn to_json(workflow: &Workflow) -> serde_json::Result<String> {
    serde_json::to_string_pretty(workflow)
}

/// Parse a workflow from JSON and validate it.
pub fn from_json(text: &str) -> Result<Workflow, WorkloadError> {
    let wf: Workflow = serde_json::from_str(text).map_err(|e| WorkloadError::Parse {
        reason: e.to_string(),
    })?;
    wf.validate()?;
    Ok(wf)
}

/// Read and validate a workflow from a file.
pub fn load(path: &Path) -> Result<Workflow, WorkloadError> {
    let io_err = |e: std::io::Error| WorkloadError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    };
    let mut text = String::new();
    std::fs::File::open(path)
        .map_err(io_err)?
        .read_to_string(&mut text)
        .map_err(io_err)?;
    from_json(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticKind;

    #[test]
    fn json_roundtrip_preserves_everything() {
        let wf = SyntheticKind::Bimodal
            .catalog_workflow()
            .spec(3)
            .tasks(50)
            .materialize()
            .unwrap();
        let json = to_json(&wf).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(back.name, wf.name);
        assert_eq!(back.tasks, wf.tasks);
        assert_eq!(back.categories, wf.categories);
        assert_eq!(back.worker, wf.worker);
    }

    #[test]
    fn file_roundtrip() {
        let wf = SyntheticKind::Normal
            .catalog_workflow()
            .spec(9)
            .tasks(20)
            .materialize()
            .unwrap();
        let dir = std::env::temp_dir().join("tora-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        std::fs::write(&path, to_json(&wf).unwrap()).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.tasks, wf.tasks);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn invalid_traces_are_rejected() {
        assert!(from_json("not json").is_err());
        // Structurally valid JSON but semantically broken (bad task id).
        let wf = SyntheticKind::Normal
            .catalog_workflow()
            .spec(1)
            .tasks(3)
            .materialize()
            .unwrap();
        let mut json = to_json(&wf).unwrap();
        json = json.replacen("\"id\": 0", "\"id\": 7", 1);
        assert!(from_json(&json).is_err());
        assert!(load(Path::new("/nonexistent/trace.json")).is_err());
    }
}
