//! Process CPU time and peak memory, read from `/proc` by hand (the benchmark has no
//! libc dependency).

/// Kernel clock ticks per second as exposed through `/proc` (`USER_HZ`). It is 100 on
/// every Linux architecture this repository targets; without libc there is no
/// `sysconf(_SC_CLK_TCK)` to ask.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process (all threads, including ones that
/// have exited), parsed from the text of `/proc/self/stat`.
///
/// The second field is the command name in parentheses and may itself contain spaces
/// and parentheses, so fields are counted from the *last* `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // After the command come field 3 (state) onwards; utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in MiB, parsed from the `VmHWM` line of the text of
/// `/proc/self/status`.
pub fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_ascii_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "cannot parse /proc/self/stat".to_string())
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    parse_peak_rss_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_survives_a_hostile_command_name() {
        // comm = "a) b (c", utime = 250 ticks, stime = 50 ticks.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 7 8 20 0 3 0 \
                    12345 1000000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
    }

    #[test]
    fn truncated_stat_is_refused() {
        assert_eq!(parse_cpu_seconds("1 (x) S 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis here"), None);
    }

    #[test]
    fn peak_rss_reads_the_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(20.0));
        assert_eq!(parse_peak_rss_mib("Name:\tbench\n"), None);
        assert_eq!(parse_peak_rss_mib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
