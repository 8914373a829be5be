//! Stamps the host fingerprint with what only the build knows: the
//! compiler version, the repository revision when the sources are a git
//! checkout, and a digest of the library sources the benchmark builds,
//! which identifies the code where no revision is available.

use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version =
        stdout_of(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");

    let git = root.join(".git");
    let rev = if git.exists() {
        for watched in ["HEAD", "refs", "packed-refs"] {
            if git.join(watched).exists() {
                println!("cargo:rerun-if-changed={}", git.join(watched).display());
            }
        }
        stdout_of(Command::new("git").arg("-C").arg(&root).args([
            "rev-parse",
            "--short=12",
            "HEAD",
        ]))
    } else {
        None
    };
    println!(
        "cargo:rustc-env=BENCH_GIT_REV={}",
        rev.as_deref().unwrap_or("none")
    );

    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut digest = Fnv::default();
    for file in &files {
        digest.feed(
            file.strip_prefix(&root)
                .unwrap_or(file)
                .to_string_lossy()
                .as_bytes(),
        );
        digest.feed(&std::fs::read(file).unwrap_or_default());
    }
    println!("cargo:rustc-env=BENCH_SOURCE_DIGEST={:016x}", digest.0);
    println!("cargo:rerun-if-changed={}", root.join("crates").display());
    println!(
        "cargo:rerun-if-changed={}",
        root.join("Cargo.lock").display()
    );
}

fn stdout_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}
