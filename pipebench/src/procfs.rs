//! Process CPU time and peak RSS from `/proc`, with std only. A value
//! that cannot be read is `None` and is reported as missing, never as 0.

/// User+system CPU seconds of this process so far, all threads
/// included (exited threads too), from `/proc/self/stat`.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // `/proc` reports clock ticks in USER_HZ, which Linux fixes at 100.
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the `VmHWM` high-water mark to the current RSS (Linux 4.0+),
/// so that [`peak_rss_mb`] reports the peak since this call. `false`
/// when the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    #[test]
    fn readers_return_plausible_values() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::cpu_seconds().expect("readable") > 0.0);
        assert!(super::peak_rss_mb().expect("readable") > 0.0);
        if super::reset_peak_rss() {
            let before = super::peak_rss_mb().expect("readable");
            let big = std::hint::black_box(vec![1u8; 64 << 20]);
            assert!(super::peak_rss_mb().expect("readable") >= before + 60.0);
            drop(big);
        }
    }
}
