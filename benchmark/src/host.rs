//! The host fingerprint that goes with every result, and the process
//! counters the metrics read from `/proc`.

/// Target features that decide how the tape and the hashes vectorize.
const FEATURES: [(&str, bool); 7] = [
    ("sse4.2", cfg!(target_feature = "sse4.2")),
    ("popcnt", cfg!(target_feature = "popcnt")),
    ("avx", cfg!(target_feature = "avx")),
    ("avx2", cfg!(target_feature = "avx2")),
    ("bmi2", cfg!(target_feature = "bmi2")),
    ("avx512f", cfg!(target_feature = "avx512f")),
    ("neon", cfg!(target_feature = "neon")),
];

/// One line naming the hardware threads, compiler, target, code
/// revision and build profile the numbers were measured with.
pub fn fingerprint() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let features: Vec<&str> = FEATURES.iter().filter(|f| f.1).map(|f| f.0).collect();
    format!(
        "threads={threads} rustc=\"{}\" arch={} features={} git={} source={} profile={}",
        env!("BENCH_RUSTC_VERSION"),
        std::env::consts::ARCH,
        if features.is_empty() {
            "baseline".to_string()
        } else {
            features.join(",")
        },
        env!("BENCH_GIT_REV"),
        env!("BENCH_SOURCE_DIGEST"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Bytes the process has read and written through syscalls, sockets
/// and files alike (`/proc/self/io` `rchar`/`wchar`).
#[derive(Debug, Clone, Copy)]
pub struct Io {
    pub rchar: u64,
    pub wchar: u64,
}

pub fn io() -> Result<Io, String> {
    let text =
        std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    Ok(Io {
        rchar: field(&text, "rchar:")?,
        wchar: field(&text, "wchar:")?,
    })
}

/// The `rchar` one [`io`] call adds by reading `/proc/self/io` itself.
pub fn io_read_cost() -> Result<u64, String> {
    let before = io()?;
    Ok(io()?.rchar - before.rchar)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    Ok(field(&text, "VmHWM:")? as f64 / 1024.0)
}

/// The first number after `key` at the start of a line.
fn field(text: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("no {key} line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_proc_layouts() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    2048 kB\n";
        assert_eq!(field(status, "VmHWM:"), Ok(2048));
        assert_eq!(field("rchar: 12\nwchar: 7\n", "wchar:"), Ok(7));
        assert!(field("rchar: x\n", "rchar:").is_err());
    }

    #[test]
    fn counters_see_a_file_write() {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("io-test-{}", std::process::id()));
        let before = io().unwrap();
        std::fs::write(&path, [0u8; 4096]).unwrap();
        let after = io().unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(after.wchar - before.wchar >= 4096);
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(fingerprint().contains("threads="));
    }
}
