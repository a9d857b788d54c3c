//! What the benchmark reads from `/proc`: its own CPU time and peak
//! resident set, the machine's load, and whether another benchmark process
//! is running. The parsers take text so the tests can feed them canned
//! files.

use std::path::Path;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 for user space on every mainstream architecture.
const TICKS_PER_S: f64 = 100.0;

/// The fields of `/proc/<pid>/stat` the benchmark uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    pub ppid: u32,
    /// User plus system time of every thread, live or joined, in ticks.
    pub cpu_ticks: u64,
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself hold spaces and parentheses, so the fields
/// after it are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<Stat> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // `rest` starts at field 3 (state): ppid is field 4, utime 14, stime 15.
    let ppid = fields.get(1)?.parse().ok()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Stat {
        ppid,
        cpu_ticks: utime.checked_add(stime)?,
    })
}

/// A `Vm*` line of `/proc/<pid>/status`, in kB.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// The 1-minute load average from `/proc/loadavg`.
pub fn parse_loadavg(text: &str) -> Option<f64> {
    text.split_ascii_whitespace().next()?.parse().ok()
}

fn self_stat() -> Stat {
    let text = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_stat(&text).expect("/proc/self/stat has the documented layout")
}

/// CPU seconds this process has used so far, all threads.
pub fn cpu_seconds() -> f64 {
    self_stat().cpu_ticks as f64 / TICKS_PER_S
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_status_kb(&text, "VmHWM").expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| parse_loadavg(&t))
        .unwrap_or(f64::NAN)
}

/// Pids of other live processes running this same executable, not counting
/// this process and its parent (the suite that spawned it). A non-empty
/// answer means two benchmark runs share the machine and neither number
/// can be trusted.
pub fn other_benchmark_processes() -> Vec<u32> {
    let Ok(me) = std::fs::read_link("/proc/self/exe") else {
        return Vec::new();
    };
    let own_pid = std::process::id();
    let parent = self_stat().ppid;
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut others: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != own_pid && pid != parent)
        .filter(|pid| {
            std::fs::read_link(Path::new("/proc").join(pid.to_string()).join("exe"))
                .is_ok_and(|exe| exe == me)
        })
        .collect();
    others.sort_unstable();
    others
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_with_awkward_command_name() {
        let text = "4242 (camp) aign (x)) R 4100 4242 4100 34816 4242 4194304 1234 0 0 0 \
                    731 19 0 0 20 0 3 0 8876543 123456789 2500 18446744073709551615 1 1 0 0 \
                    0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 0 0 0 0 0 0 0 0\n";
        assert_eq!(
            parse_stat(text),
            Some(Stat {
                ppid: 4100,
                cpu_ticks: 750
            })
        );
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn status_lines() {
        let text =
            "Name:\tcampaign\nVmPeak:\t  220000 kB\nVmHWM:\t   97312 kB\nVmRSS:\t   51200 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(97312));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(51200));
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kb("VmHWMx:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn loadavg_line() {
        assert_eq!(parse_loadavg("0.24 0.43 0.36 1/85 12816\n"), Some(0.24));
        assert_eq!(parse_loadavg(""), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
