//! `.qasm` corpus discovery shared by the integration tests (one
//! implementation of "which files are the corpus", so the suites that
//! replay it can never disagree). `oneqc`'s recursive CLI walker
//! stays in the binary: its contract — multiple roots, recursion,
//! per-path exit codes — is a command-line interface, not a library one.

use std::path::{Path, PathBuf};

/// The sorted `.qasm` files directly inside `dir` (non-recursive: the
/// fixture corpus is flat). Errors only on an unreadable directory; a
/// readable directory with no matches returns an empty vec.
pub fn qasm_files_flat(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|e| e == "qasm") && path.is_file())
        .collect();
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_only_qasm_files_sorted() {
        let dir = std::env::temp_dir().join(format!("oneq-corpus-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("b.qasm"), "x").unwrap();
        std::fs::write(dir.join("a.qasm"), "x").unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("sub").join("c.qasm"), "x").unwrap();
        let files = qasm_files_flat(&dir).unwrap();
        let names: Vec<_> = files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.qasm", "b.qasm"], "sorted, flat, .qasm only");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_error() {
        assert!(qasm_files_flat(Path::new("/no/such/corpus")).is_err());
    }
}
