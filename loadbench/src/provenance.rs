//! What a run records about itself: the seed, the backend and CPU features,
//! the core count, and which source it measured.

use crate::run::Args;
use std::path::{Path, PathBuf};

/// The checkout the benchmark was built from (the parent of its package).
fn checkout() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

/// The commit checked out, when the checkout is a git work tree.
fn commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|id| id.trim().to_string()))
}

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// FNV-1a over the program's and the benchmark's sources (path and bytes,
/// in path order): names the measured code when no commit is at hand.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut files,
    );
    files.sort();
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        fnv(&mut hash, rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            fnv(&mut hash, &bytes);
        }
    }
    hash
}

/// One line naming everything that makes this run reproducible.
pub fn line(args: &Args) -> String {
    let root = checkout();
    let backend = fol_simd::engine_for(fol_simd::best_available()).name();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "run {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},\"nproc\":{nproc},\"commit\":\"{}\",\"source_digest\":\"{:016x}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        fol_bench::report::backend_fields(backend),
        commit(&root).unwrap_or_else(|| "none".to_string()),
        source_digest(&root),
    )
}
