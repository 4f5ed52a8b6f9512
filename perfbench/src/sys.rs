//! Process and host counters read from `/proc`: CPU time, peak RSS,
//! storage write bytes, and the host's steal share.

use std::fs;

/// Kernel clock ticks per second in `/proc` time fields (`USER_HZ`,
/// fixed at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// `(user, system)` CPU seconds of this process, all threads included
/// (the in-process servers run as threads, so their work counts).
pub fn process_cpu_s() -> (f64, f64) {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// CPU seconds since `before` (a [`process_cpu_s`] reading): the total,
/// and a note giving the system share, where a shared VM's costs of
/// thread wake-ups and spawns land.
pub fn cpu_since(before: (f64, f64)) -> (f64, String) {
    let (user, sys) = process_cpu_s();
    let (user, sys) = (user - before.0, sys - before.1);
    let total = user + sys;
    let share = if total > 0.0 {
        100.0 * sys / total
    } else {
        0.0
    };
    (
        total,
        format!("process CPU {total:.2} s, {share:.0}% of it system time"),
    )
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with(key))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Bytes this process has caused to be sent to storage
/// (`/proc/self/io` `write_bytes`).
pub fn write_bytes() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find(|line| line.starts_with("write_bytes:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Aggregate CPU jiffies from `/proc/stat`: `(steal, total)`.
pub fn cpu_jiffies() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user/nice.
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    let steal = values.get(7).copied().unwrap_or(0);
    (steal, values.iter().sum())
}

/// Share of host CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Confines this thread, and every thread it starts afterwards, to the
/// highest-numbered CPU it may run on, and returns that CPU; `None`
/// when the affinity calls fail (the process then runs unpinned).
///
/// Call it first thing, before any thread exists. On a shared VM a
/// request that hops between vCPUs pays for waking a halted vCPU, a
/// cost that follows the host's load; on one CPU those hand-offs are
/// plain context switches.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; 16];
    // SAFETY: `allowed` is writable and as large as the size passed.
    let got = unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and as large as the size passed.
    let set = unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}
