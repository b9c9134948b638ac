//! Peak resident memory of a process, read from `/proc`.

/// `VmHWM` (peak resident set) of `pid` in MB (10^6 bytes); `None` when the
/// process is gone or the platform has no `/proc`.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}
