//! CPU time and peak memory of a process, read from `/proc`. Children are
//! metered from outside so a daemon's cost per request needs no hooks in
//! the daemon, and the load generator's own cost can be shown to be small.

use std::time::Duration;

/// Pid of the benchmark process itself in `/proc` paths.
pub const SELF: &str = "self";

/// User + system CPU time in clock ticks from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may contain spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are fields 14
    // and 15 of the full line.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in KiB from the text of
/// `/proc/<pid>/status`.
pub fn parse_status_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn ticks_per_second() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` takes an integer selector, touches no memory of
    // ours and is thread-safe; an unknown selector returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(ticks).ok().filter(|&t| t > 0).unwrap_or(100)
}

/// CPU time consumed so far by process `pid` (a number, or [`SELF`]).
pub fn cpu_time(pid: &str) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let ticks = parse_stat_cpu_ticks(&stat)?;
    Some(Duration::from_secs_f64(
        ticks as f64 / ticks_per_second() as f64,
    ))
}

/// Peak resident set of process `pid` in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_hwm_kib(&status)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (tsn) serviced (x) S 1 4242 4242 0 -1 4194304 914 0 0 0 \
                    37 5 0 0 20 0 3 0 123456 1000000 500 18446744073709551615 1 1 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(42));
        assert_eq!(parse_stat_cpu_ticks("1 (short) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn status_parser_finds_the_high_water_mark() {
        let status =
            "Name:\ttsn-serviced\nVmPeak:\t  90000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_hwm_kib(status), Some(20480));
        assert_eq!(parse_status_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(cpu_time(SELF).is_some());
        assert!(peak_rss_mib(SELF).is_some_and(|mib| mib > 0.0));
    }
}
