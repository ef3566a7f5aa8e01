//! Process and host facts: the shared clock, memory readings, and what
//! every result is stamped with.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since this process first asked: the one time base of
/// every due time, latency and span.
pub fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The numeric fields called `keys` in `/proc/self/status`, in order,
/// without a `kB` suffix; zeros where that file or a field does not exist.
fn status<const N: usize>(keys: [&str; N]) -> [u64; N] {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    keys.map(|key| {
        text.lines()
            .find_map(|line| line.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0)
    })
}

/// Current resident set size and its high-water mark, in bytes.
pub fn rss_bytes() -> (u64, u64) {
    let [rss, hwm] = status(["VmRSS:", "VmHWM:"]);
    (rss * 1024, hwm * 1024)
}

/// Threads of this process now.
pub fn threads() -> u64 {
    status(["Threads:"])[0]
}

/// Resets the high-water mark to the current RSS (`clear_refs` command
/// 5), so the peak read later is this run's own. Best effort: where the
/// kernel refuses, the peak also covers decoding the inputs.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Filesystem type of the mount holding `path`: the longest mount point
/// in `/proc/mounts` that contains it.
pub fn fs_type(path: &Path) -> String {
    let (Ok(abs), Ok(mounts)) = (path.canonicalize(), std::fs::read_to_string("/proc/mounts"))
    else {
        return "unknown".to_string();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| abs.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}
