//! Host probes: core count, process CPU time, peak memory, and the
//! calibration loop that separates machine drift from program change.

use std::hint::black_box;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// User plus system CPU seconds of the whole process, all threads, from
/// `/proc/self/stat`. `0.0` where procfs is unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; the fields after its closing
    // parenthesis start at field 3 (`state`), so utime (14) and stime (15)
    // sit at offsets 11 and 12.
    let Some(rest) = stat.rfind(')').map(|at| &stat[at + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(sys)) => (user + sys) / USER_HZ,
        _ => 0.0,
    }
}

/// Peak resident set of the process in MiB (`VmHWM`), `0.0` where
/// procfs is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Iterations of one calibration pass.
const CALIB_ITERS: u64 = 4_000_000;

/// Calibration passes whose median is reported.
const CALIB_PASSES: usize = 5;

/// Rate of a fixed integer-and-float loop that touches no program code,
/// in million iterations per second (median of five passes). It moves
/// with the machine, never with the program.
pub fn calib_rate() -> f64 {
    let rates: Vec<f64> = (0..CALIB_PASSES)
        .map(|_| {
            let start = Instant::now();
            black_box(calib_pass(black_box(CALIB_ITERS)));
            CALIB_ITERS as f64 / start.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    crate::stats::median(&rates)
}

fn calib_pass(iters: u64) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0.0f64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999_999 + (x >> 40) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_this_process() {
        assert!(cores() >= 1);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(calib_rate() > 0.0);
    }
}
