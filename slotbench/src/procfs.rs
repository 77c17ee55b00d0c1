//! Readers for the Linux `/proc` files the benchmark samples: CPU steal
//! (`/proc/stat`), per-thread CPU time and run delay
//! (`/proc/self/task/*/schedstat`) and peak resident memory
//! (`/proc/self/status`). Each parser takes the file's text so tests can
//! feed fixtures; a missing or unreadable file reads as `None`.

use std::fs;

/// CPU steal ticks summed over all CPUs: the 8th value of the aggregate
/// `cpu` line of `/proc/stat`.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// `(cpu_ns, run_delay_ns)` from one `schedstat` line: time spent running,
/// and time spent runnable but waiting for a CPU.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let cpu = fields.next()?.parse().ok()?;
    let delay = fields.next()?.parse().ok()?;
    Some((cpu, delay))
}

/// Peak resident set size in kB: the `VmHWM` line of `/proc/self/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The calling thread's id, from the `/proc/thread-self` link
/// (`<pid>/task/<tid>`).
pub fn parse_thread_self(link: &str) -> Option<u32> {
    link.rsplit('/').next()?.parse().ok()
}

/// Current CPU steal ticks of the host.
pub fn steal_ticks() -> Option<u64> {
    parse_steal_ticks(&fs::read_to_string("/proc/stat").ok()?)
}

/// Steal ticks between two [`steal_ticks`] readings; 0 when either is
/// missing.
pub fn steal_between(before: Option<u64>, after: Option<u64>) -> u64 {
    match (before, after) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    }
}

/// Peak resident set size of this process, kB.
pub fn vm_hwm_kb() -> Option<u64> {
    parse_vm_hwm_kb(&fs::read_to_string("/proc/self/status").ok()?)
}

/// The calling thread's id.
pub fn current_tid() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    parse_thread_self(link.to_str()?)
}

/// One thread's scheduler counters at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskStat {
    /// Thread id.
    pub tid: u32,
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but not running.
    pub run_delay_ns: u64,
}

/// The counters of every live thread of this process.
pub fn task_stats() -> Vec<TaskStat> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some((cpu_ns, run_delay_ns)) = parse_schedstat(&text) {
            out.push(TaskStat { tid, cpu_ns, run_delay_ns });
        }
    }
    out
}

/// CPU time and run delay accumulated between two snapshots, split into
/// the threads in `own` and all others. A thread born after `before`
/// counts from zero; one that ended before `after` drops out.
pub fn task_delta(before: &[TaskStat], after: &[TaskStat], own: &[u32]) -> ThreadSplit {
    let mut split = ThreadSplit::default();
    for a in after {
        let b = before.iter().find(|b| b.tid == a.tid);
        let cpu = a.cpu_ns.saturating_sub(b.map_or(0, |b| b.cpu_ns));
        let delay = a.run_delay_ns.saturating_sub(b.map_or(0, |b| b.run_delay_ns));
        if own.contains(&a.tid) {
            split.own_cpu_ns += cpu;
            split.own_run_delay_ns += delay;
        } else {
            split.other_cpu_ns += cpu;
            split.other_run_delay_ns += delay;
        }
    }
    split
}

/// Thread counters split between the benchmark's own threads and the rest
/// of the process (the in-process daemon's threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadSplit {
    /// CPU time of the benchmark's own threads.
    pub own_cpu_ns: u64,
    /// Run delay of the benchmark's own threads.
    pub own_run_delay_ns: u64,
    /// CPU time of every other thread.
    pub other_cpu_ns: u64,
    /// Run delay of every other thread.
    pub other_run_delay_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "cpu  65122 0 9292 387750 171 0 1301 7583 0 0\n\
                        cpu0 20724 0 5040 205008 159 0 656 4514 0 0\n\
                        intr 12345\n";

    #[test]
    fn steal_is_the_eighth_value_of_the_aggregate_line() {
        assert_eq!(parse_steal_ticks(STAT), Some(7583));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_steal_ticks("cpu  1 2 3\n"), None);
    }

    #[test]
    fn schedstat_fields() {
        assert_eq!(parse_schedstat("1520370 71959 13\n"), Some((1_520_370, 71_959)));
        assert_eq!(parse_schedstat("12"), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn vm_hwm_in_kb() {
        let status =
            "Name:\tslotbench\nVmPeak:\t  10000 kB\nVmHWM:\t    1780 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1780));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1700 kB\n"), None);
    }

    #[test]
    fn thread_self_link() {
        assert_eq!(parse_thread_self("8065/task/8071"), Some(8071));
        assert_eq!(parse_thread_self("garbage"), None);
    }

    #[test]
    fn delta_splits_own_and_other_threads() {
        let t = |tid, cpu_ns, run_delay_ns| TaskStat { tid, cpu_ns, run_delay_ns };
        let before = [t(1, 100, 10), t(2, 200, 20), t(3, 300, 30)];
        // Thread 3 ended; thread 4 was born.
        let after = [t(1, 150, 11), t(2, 260, 25), t(4, 40, 4)];
        let split = task_delta(&before, &after, &[1]);
        assert_eq!(
            split,
            ThreadSplit {
                own_cpu_ns: 50,
                own_run_delay_ns: 1,
                other_cpu_ns: 100,
                other_run_delay_ns: 9
            }
        );
    }
}
