//! What the operating system charged this process so far: CPU time and
//! voluntary context switches, all threads, living and ended — one
//! `getrusage(RUSAGE_SELF)` call, the only view of them that still counts the
//! cluster threads of finished repetitions — and peak resident memory.

use std::ffi::{c_int, c_long};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench declares getrusage(2) as 64-bit Linux lays it out");

/// `struct rusage` of 64-bit Linux: two `struct timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    _unused: [c_long; 12],
    voluntary_switches: c_long,
    _involuntary_switches: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Times a thread gave up the CPU to wait (block on a mutex, a condition
    /// variable, a sleep): the wake-ups the program needed.
    pub voluntary_switches: f64,
}

pub fn now() -> Usage {
    const RUSAGE_SELF: c_int = 0;
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout the
    // kernel fills in on the targets the check above admits, and the call
    // keeps no pointer to it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let seconds = |tv: [c_long; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Usage {
        cpu_s: seconds(raw.utime) + seconds(raw.stime),
        voluntary_switches: raw.voluntary_switches as f64,
    }
}

/// `VmHWM` of this process in MB. Not `ru_maxrss`: that one starts from the
/// peak of the program that launched this one (exec keeps it), so it would
/// report cargo's or a shell's memory.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_grow_with_work_and_waiting() {
        let before = now();
        assert!(peak_rss_mb() > 0.5);
        // Another thread's CPU time and sleeps are charged to the process
        // once it has ended.
        std::thread::spawn(|| {
            let mut x = 0u64;
            let t0 = std::time::Instant::now();
            while t0.elapsed().as_millis() < 30 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            for _ in 0..5 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        })
        .join()
        .unwrap();
        let after = now();
        assert!(after.cpu_s - before.cpu_s > 0.02, "{before:?} -> {after:?}");
        assert!(after.voluntary_switches - before.voluntary_switches >= 5.0);
    }
}
