//! Process-level resource readings: CPU time (this process plus waited
//! children, i.e. the `ssj-node` processes a TCP cluster run spawns and
//! reaps) and peak resident memory with a resettable high-water mark.

use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    _rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn cpu_of(who: i32) -> Duration {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a properly laid-out, writable `struct rusage`.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(us(&ru.utime) + us(&ru.stime))
}

/// User + system CPU time of this process and of every child it has
/// waited for so far. Take the difference around a call to price it.
pub fn cpu_time() -> Duration {
    cpu_of(RUSAGE_SELF) + cpu_of(RUSAGE_CHILDREN)
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] reading covers only what follows. Returns false
/// where the kernel does not allow it; the reading is then the process
/// lifetime peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_time() > t0);
    }

    #[test]
    fn peak_rss_tracks_an_allocation() {
        reset_peak_rss();
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let v = vec![1u8; 64 << 20];
        std::hint::black_box(&v);
        assert!(peak_rss_mb() >= before + 32.0);
    }
}
