#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Persisted oracle store: packed-u64 expectation tables on disk.
//!
//! Every exhaustive sweep, `prove` table-conformance obligation and
//! `hwperm serve` verify request compares the gate-level converter
//! against the table `[0, n!)` of packed permutation words. The table
//! is a pure function of `n` — regenerating it on every cold start is
//! the recompute-bound anti-pattern this crate removes: build it
//! **once** with the block-decoding engine, persist it as
//! integrity-checked chunks, and stream it back with buffered
//! sequential reads, so repeated verification and traffic bursts cost
//! disk I/O instead of unranking.
//!
//! ## Layout
//!
//! Tables are keyed by `(n, order, chunk)` under a versioned directory
//! tree:
//!
//! ```text
//! <store>/v1/<order>/n<NN>/chunk-<CCCCC>.hwt   chunked packed words
//! <store>/v1/<order>/n<NN>/manifest.txt        build/resume record
//! ```
//!
//! Each chunk file carries a fixed header (magic, schema version,
//! order, `n`, base index, word count) plus a content hash of its body
//! that is recomputed and compared on **every** load — a flipped byte,
//! a truncation, or a header that disagrees with its directory fails
//! loudly as a [`StoreError`]; nothing in this crate ever silently
//! falls back to recomputation. The hash is a small dedicated
//! multiply-xor chain over the body words ([`hash_words`]) — no new
//! dependencies, `forbid(unsafe_code)` preserved, so loading streams
//! buffered reads rather than memory-mapping.
//!
//! ## Building and resuming
//!
//! [`build`] generates chunks through the same sharded
//! [`BlockDecoder`](hwperm_factoradic::BlockDecoder) path as
//! `hwperm_verify::expected_permutation_words_parallel`: workers pull
//! chunk indices off one shared cursor ([`hwperm_factoradic::pull`]),
//! each chunk pays one true unranking plus in-place lexicographic
//! successors, and every chunk file is written atomically (temp file +
//! rename). The manifest
//! records completed chunks after each rename, so a killed build
//! resumes from the manifest instead of restarting — and the resumed
//! store is byte-identical to a one-shot build, manifest included.
//!
//! ## Consuming
//!
//! [`OpenTable`] opens a complete table for range reads (the serve
//! layer streams `block` chunks straight off it); [`TableSource`]
//! abstracts "store-backed when a store dir is provided, computed
//! otherwise" for the sweep and prove consumers, byte-identical either
//! way.

mod build;
mod format;
mod manifest;
mod table;

pub use build::{build, BuildOptions, BuildReport};
pub use format::{hash_words, CHUNK_HEADER_LEN, STORE_MAGIC, STORE_SCHEMA_VERSION};
pub use manifest::{ChunkRecord, Manifest, MANIFEST_FILE};
pub use table::{stat, verify_store, OpenTable, StoreStat, StoreVerifyReport, TableSource};

use std::fmt;
use std::path::{Path, PathBuf};

/// Words per chunk file when [`BuildOptions`] does not override it:
/// 8192 packed words = 64 KiB of body per chunk, matching the serve
/// protocol's default wire chunk so a warm `block` request maps one
/// store chunk onto one binary frame.
pub const DEFAULT_CHUNK_WORDS: usize = 8192;

/// Largest `n` a store table can hold — the same bound as the
/// in-memory oracle tables (`9! = 362 880` words ≈ 2.8 MiB on disk).
pub const MAX_STORE_N: usize = 9;

/// Table orders the versioned layout namespaces. Lexicographic
/// permutation order is the only builder today; alternative orders
/// (ROADMAP item 3) slot in as sibling directories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Lexicographic permutation order — entry `i` is the packed word
    /// of the permutation at factoradic index `i`.
    Lex,
}

impl Order {
    /// Directory name of this order under `<store>/v1/`.
    pub fn as_str(self) -> &'static str {
        match self {
            Order::Lex => "lex",
        }
    }

    /// The chunk header's order id.
    pub fn id(self) -> u16 {
        match self {
            Order::Lex => 0,
        }
    }
}

/// The directory holding every chunk and the manifest of the `n`-table
/// (lexicographic order) under `store_dir`.
pub fn table_dir(store_dir: &Path, n: usize) -> PathBuf {
    store_dir
        .join("v1")
        .join(Order::Lex.as_str())
        .join(format!("n{n:02}"))
}

/// The chunk file name of chunk index `c`.
pub fn chunk_file_name(c: u64) -> String {
    format!("chunk-{c:05}.hwt")
}

pub(crate) fn check_store_n(n: usize) {
    assert!(
        (1..=MAX_STORE_N).contains(&n),
        "n = {n} out of the supported 1..={MAX_STORE_N} (store tables hold the full n! word table)"
    );
}

/// Why a store operation failed. Every variant is loud and terminal —
/// a corrupt, truncated, or stale store never silently degrades to
/// recomputation; the caller decides what to do with the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem-level failure (open, read, write, rename).
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The OS error text.
        error: String,
    },
    /// The file does not start with the store magic.
    BadMagic {
        /// The offending chunk file.
        path: PathBuf,
    },
    /// The chunk claims a schema version this build cannot read.
    SchemaVersion {
        /// The offending chunk file.
        path: PathBuf,
        /// The version the header claims.
        got: u16,
    },
    /// A chunk header field disagrees with the layout that addressed
    /// the file (a chunk copied between incompatible directories, or a
    /// corrupted header).
    HeaderMismatch {
        /// The offending chunk file.
        path: PathBuf,
        /// Which header field diverged (`"order"`, `"n"`, `"base"`,
        /// `"words"`).
        field: &'static str,
        /// The value the header carries.
        got: u64,
        /// The value the layout requires.
        want: u64,
    },
    /// The chunk file holds fewer bytes than its word count requires.
    Truncated {
        /// The offending chunk file.
        path: PathBuf,
        /// Bytes actually present.
        got: u64,
        /// Bytes the header + word count require.
        want: u64,
    },
    /// The body's recomputed content hash disagrees with the header —
    /// at least one body byte changed since the chunk was written.
    HashMismatch {
        /// The offending chunk file.
        path: PathBuf,
        /// The recomputed hash.
        got: u64,
        /// The hash the header recorded.
        want: u64,
    },
    /// The manifest is unparsable, internally inconsistent, or stale
    /// (it records state the directory no longer backs).
    Manifest {
        /// The manifest file.
        path: PathBuf,
        /// What exactly is wrong.
        reason: String,
    },
    /// A complete store table for `n` was required but is not present.
    Missing {
        /// The store root that was searched.
        dir: PathBuf,
        /// The table size requested.
        n: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, error } => {
                write!(f, "store I/O error at {}: {error}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(
                    f,
                    "{}: not a hwperm store chunk (bad magic)",
                    path.display()
                )
            }
            StoreError::SchemaVersion { path, got } => write!(
                f,
                "{}: unsupported store schema version {got} (this build reads {})",
                path.display(),
                STORE_SCHEMA_VERSION
            ),
            StoreError::HeaderMismatch {
                path,
                field,
                got,
                want,
            } => write!(
                f,
                "{}: chunk header {field} mismatch: file says {got}, layout requires {want}",
                path.display()
            ),
            StoreError::Truncated { path, got, want } => write!(
                f,
                "{}: truncated chunk: {got} byte(s) on disk, {want} required",
                path.display()
            ),
            StoreError::HashMismatch { path, got, want } => write!(
                f,
                "{}: chunk content hash mismatch: recomputed {got:#018x}, header says {want:#018x}",
                path.display()
            ),
            StoreError::Manifest { path, reason } => {
                write!(f, "{}: stale or invalid manifest: {reason}", path.display())
            }
            StoreError::Missing { dir, n } => write!(
                f,
                "no complete store table for n = {n} under {} (run `hwperm store build {n}`)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

pub(crate) fn io_err(path: &Path, error: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        error: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_paths_are_versioned_and_zero_padded() {
        let dir = table_dir(Path::new("/tmp/s"), 8);
        assert_eq!(dir, PathBuf::from("/tmp/s/v1/lex/n08"));
        assert_eq!(chunk_file_name(3), "chunk-00003.hwt");
    }

    #[test]
    #[should_panic(expected = "out of the supported 1..=9")]
    fn oversized_n_rejected() {
        check_store_n(10);
    }

    #[test]
    fn error_messages_are_pinned() {
        let p = PathBuf::from("/s/chunk-00001.hwt");
        assert_eq!(
            StoreError::HashMismatch {
                path: p.clone(),
                got: 1,
                want: 2
            }
            .to_string(),
            "/s/chunk-00001.hwt: chunk content hash mismatch: \
             recomputed 0x0000000000000001, header says 0x0000000000000002"
        );
        assert_eq!(
            StoreError::Truncated {
                path: p.clone(),
                got: 10,
                want: 100
            }
            .to_string(),
            "/s/chunk-00001.hwt: truncated chunk: 10 byte(s) on disk, 100 required"
        );
        assert_eq!(
            StoreError::HeaderMismatch {
                path: p,
                field: "n",
                got: 7,
                want: 5
            }
            .to_string(),
            "/s/chunk-00001.hwt: chunk header n mismatch: file says 7, layout requires 5"
        );
        assert_eq!(
            StoreError::Missing {
                dir: PathBuf::from("/s"),
                n: 6
            }
            .to_string(),
            "no complete store table for n = 6 under /s (run `hwperm store build 6`)"
        );
    }
}
