//! Resumable background generation: chunks are produced through the
//! sharded `BlockDecoder` path, written atomically, and recorded in
//! the manifest as they land, so a killed build restarts only the
//! chunks it never finished.

use crate::format::{encode_chunk, ChunkShape};
use crate::manifest::{write_file_atomic, ChunkRecord, Manifest};
use crate::{
    check_store_n, chunk_file_name, hash_words, io_err, table_dir, Order, StoreError,
    DEFAULT_CHUNK_WORDS,
};
use hwperm_factoradic::{pull, BlockDecoder};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Knobs for [`build`].
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Worker threads pulling chunks off one shared cursor
    /// ([`hwperm_factoradic::pull`]).
    pub jobs: usize,
    /// Words per chunk file (recorded in the manifest; readers follow
    /// the manifest, so tables built with different chunking coexist
    /// across store dirs but never within one table).
    pub chunk_words: usize,
    /// Stop after building this many new chunks this run — the hook
    /// the kill-and-resume tests use to simulate an interrupted job.
    pub max_chunks: Option<usize>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            jobs: 1,
            chunk_words: DEFAULT_CHUNK_WORDS,
            max_chunks: None,
        }
    }
}

/// What one [`build`] run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildReport {
    /// Permutation size of the table.
    pub n: usize,
    /// The table directory that was built into.
    pub dir: PathBuf,
    /// Chunks in the complete table.
    pub chunks_total: u64,
    /// Chunks this run generated and wrote.
    pub built: u64,
    /// Chunks already present from an earlier (interrupted) run.
    pub resumed: u64,
    /// Whether the table is now complete.
    pub complete: bool,
    /// Chunk-file bytes this run wrote.
    pub bytes_written: u64,
}

/// Build (or resume building) the `n`-table under `store_dir`.
///
/// Pending chunks are distributed to `jobs` workers through
/// [`hwperm_factoradic::pull`]'s shared cursor; each chunk is
/// block-decoded with one true unranking — the same
/// one-true-unrank-per-range idiom as
/// `expected_permutation_words_parallel` — written to
/// `chunk-*.hwt.tmp`, renamed into place, and recorded in the manifest
/// under a lock. Output is byte-identical for any worker count, any
/// interleaving, and any interrupt/resume split, because every chunk's
/// content is a pure function of `(n, chunk index, chunk_words)` and
/// the manifest renders deterministically.
///
/// The first failed write stops workers from starting new chunks;
/// chunks already written stay recorded, so a rebuild resumes after
/// them. The error returned is the first one in chunk order.
pub fn build(
    store_dir: &Path,
    n: usize,
    options: &BuildOptions,
) -> Result<BuildReport, StoreError> {
    check_store_n(n);
    assert!(options.jobs >= 1, "need at least one build job");
    assert!(options.chunk_words >= 1, "need at least one word per chunk");
    let dir = table_dir(store_dir, n);
    std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;

    let total_words = BlockDecoder::new(n).total();
    let manifest = match Manifest::load(&dir)? {
        Some(found) => {
            let stale = |reason: String| StoreError::Manifest {
                path: dir.join(crate::MANIFEST_FILE),
                reason,
            };
            if found.n != n {
                return Err(stale(format!(
                    "records n = {} but this table dir is for n = {n}",
                    found.n
                )));
            }
            if found.chunk_words != options.chunk_words {
                return Err(stale(format!(
                    "records chunk_words = {} but this build wants {} \
                     (finish or delete the table before re-chunking)",
                    found.chunk_words, options.chunk_words
                )));
            }
            // Every recorded chunk must still be on disk at its exact
            // size; a recorded-but-missing chunk means the directory
            // was tampered with after the manifest was written.
            for (&c, rec) in &found.chunks {
                let path = dir.join(chunk_file_name(c));
                let want = crate::CHUNK_HEADER_LEN as u64 + rec.words as u64 * 8;
                match std::fs::metadata(&path) {
                    Ok(meta) if meta.len() == want => {}
                    Ok(meta) => {
                        return Err(stale(format!(
                            "recorded chunk {c} is {} byte(s) on disk, {want} required",
                            meta.len()
                        )))
                    }
                    Err(_) => {
                        return Err(stale(format!(
                            "recorded chunk {c} is missing from the directory"
                        )))
                    }
                }
            }
            found
        }
        None => Manifest::new(n, options.chunk_words, total_words),
    };

    let chunks_total = manifest.chunks_total();
    let resumed = manifest.chunks.len() as u64;
    let mut pending: Vec<u64> = (0..chunks_total)
        .filter(|c| !manifest.chunks.contains_key(c))
        .collect();
    if let Some(cap) = options.max_chunks {
        pending.truncate(cap);
    }

    const POISONED: &str = "a build worker panicked while holding the manifest";
    let stop = AtomicBool::new(false);
    let state = Mutex::new((manifest, 0u64));
    let written = pull(pending.len(), options.jobs, |slot| {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        let c = pending[slot];
        let range = state.lock().expect(POISONED).0.chunk_range(c);
        let words = BlockDecoder::new(n).decode_words(range.clone());
        let shape = ChunkShape {
            n,
            order: Order::Lex,
            base: range.start,
            words: words.len() as u32,
        };
        let bytes = encode_chunk(shape, &words);
        let path = dir.join(chunk_file_name(c));
        let tmp = dir.join(format!("{}.tmp", chunk_file_name(c)));
        write_file_atomic(&tmp, &path, &bytes)
            .and_then(|()| {
                let mut guard = state.lock().expect(POISONED);
                guard.0.chunks.insert(
                    c,
                    ChunkRecord {
                        words: shape.words,
                        hash: hash_words(&words),
                    },
                );
                guard.1 += bytes.len() as u64;
                guard.0.write_atomic(&dir)
            })
            .inspect_err(|_| stop.store(true, Ordering::Relaxed))
    });

    let (mut manifest, bytes_written) = state.into_inner().expect(POISONED);
    written.into_iter().collect::<Result<(), _>>()?;
    let built = manifest.chunks.len() as u64 - resumed;
    if manifest.chunks.len() as u64 == chunks_total && !manifest.complete {
        manifest.complete = true;
        manifest.write_atomic(&dir)?;
    }
    Ok(BuildReport {
        n,
        dir,
        chunks_total,
        built,
        resumed,
        complete: manifest.complete,
        bytes_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwperm_verify::expected_permutation_words;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hwperm-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn build_covers_the_full_table_and_is_idempotent() {
        let store = temp_store("build");
        let options = BuildOptions {
            jobs: 4,
            chunk_words: 32,
            max_chunks: None,
        };
        let report = build(&store, 5, &options).unwrap();
        assert_eq!(report.chunks_total, 4);
        assert_eq!(report.built, 4);
        assert_eq!(report.resumed, 0);
        assert!(report.complete);

        // A second run finds everything present and writes nothing.
        let again = build(&store, 5, &options).unwrap();
        assert_eq!(again.built, 0);
        assert_eq!(again.resumed, 4);
        assert!(again.complete);
        assert_eq!(again.bytes_written, 0);

        let table = crate::OpenTable::open(&store, 5).unwrap().unwrap();
        assert_eq!(table.load_words().unwrap(), expected_permutation_words(5));
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn worker_count_never_changes_the_bytes() {
        let one = temp_store("w1");
        let four = temp_store("w4");
        let base = BuildOptions {
            jobs: 1,
            chunk_words: 16,
            max_chunks: None,
        };
        build(&one, 4, &base).unwrap();
        build(&four, 4, &BuildOptions { jobs: 4, ..base }).unwrap();
        for c in 0..2u64 {
            let name = chunk_file_name(c);
            let a = std::fs::read(table_dir(&one, 4).join(&name)).unwrap();
            let b = std::fs::read(table_dir(&four, 4).join(&name)).unwrap();
            assert_eq!(a, b, "chunk {c} diverged across worker counts");
        }
        let a = std::fs::read_to_string(table_dir(&one, 4).join(crate::MANIFEST_FILE)).unwrap();
        let b = std::fs::read_to_string(table_dir(&four, 4).join(crate::MANIFEST_FILE)).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&one).unwrap();
        std::fs::remove_dir_all(&four).unwrap();
    }

    #[test]
    fn a_failed_chunk_write_is_reported_and_the_build_resumes() {
        let store = temp_store("fail");
        let options = BuildOptions {
            jobs: 2,
            chunk_words: 32,
            max_chunks: None,
        };
        // An empty directory where chunk 2 belongs makes its rename fail.
        let blocker = table_dir(&store, 5).join(chunk_file_name(2));
        std::fs::create_dir_all(&blocker).unwrap();
        match build(&store, 5, &options).unwrap_err() {
            StoreError::Io { path, .. } => assert_eq!(path, blocker),
            other => panic!("expected an I/O error on chunk 2, got {other}"),
        }

        // The chunks that did land are resumed, the rest are built.
        std::fs::remove_dir(&blocker).unwrap();
        let report = build(&store, 5, &options).unwrap();
        assert!(report.complete);
        assert_eq!(report.built + report.resumed, 4);
        let table = crate::OpenTable::open(&store, 5).unwrap().unwrap();
        assert_eq!(table.load_words().unwrap(), expected_permutation_words(5));
        std::fs::remove_dir_all(&store).unwrap();
    }

    #[test]
    fn rechunking_an_existing_table_is_rejected() {
        let store = temp_store("rechunk");
        let options = BuildOptions {
            jobs: 1,
            chunk_words: 32,
            max_chunks: Some(1),
        };
        build(&store, 5, &options).unwrap();
        let err = build(
            &store,
            5,
            &BuildOptions {
                chunk_words: 64,
                ..options
            },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("stale or invalid manifest") && msg.contains("re-chunking"),
            "{msg}"
        );
        std::fs::remove_dir_all(&store).unwrap();
    }
}
