//! Scratch directories under the benchmark's own `out/`, removed on drop.
//! The benchmark never writes outside its checkout, so `/tmp` is not used.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Where results, traces and scratch inputs go unless `--out` says
/// otherwise.
pub fn default_out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory that exists for as long as the value does.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh empty directory `root/tmp/<tag>-<pid>-<n>`.
    pub fn under(root: &Path, tag: &str) -> TempDir {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = root
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under the out dir");
        TempDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
