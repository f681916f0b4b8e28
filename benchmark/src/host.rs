//! What the host charged this process, read from `/proc/self`.

use std::fs;

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb / 1024.0)
}

/// `(user, system)` CPU seconds of the whole process so far.
pub fn cpu_seconds() -> Result<(f64, f64), String> {
    // Fields 14 and 15, counted after the parenthesised command name, in
    // clock ticks; Linux reports them in USER_HZ = 100 on every platform.
    const TICKS_PER_S: f64 = 100.0;
    let stat = fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let after_name = stat.rsplit_once(')').ok_or("unreadable /proc/self/stat")?.1;
    let mut fields = after_name.split_whitespace().skip(11);
    let mut next = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "unreadable /proc/self/stat".to_string())
    };
    Ok((next()? / TICKS_PER_S, next()? / TICKS_PER_S))
}
