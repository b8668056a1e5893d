//! Process-level instruments: CPU time across all threads, peak resident
//! memory, and a fixed pure-CPU loop that shows how fast the host ran.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s followed by fourteen
/// `long` counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    counters: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process (every thread, live or
/// joined) so far.
pub fn process_cpu_time() -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the layout
    // the C library expects on 64-bit Linux, and `RUSAGE_SELF` is a valid
    // `who`; the call writes only inside that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let micros =
        (usage.utime_sec + usage.stime_sec) * 1_000_000 + usage.utime_usec + usage.stime_usec;
    Duration::from_micros(u64::try_from(micros).expect("CPU time is non-negative"))
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mib`] sees only what happened after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident memory (`VmHWM`) in MiB since start or the last
/// [`reset_peak_rss`].
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))?;
    Ok(kib / 1024.0)
}

/// Wall time of a fixed pure-CPU loop (no allocation, no I/O). The same
/// code on the same host should always take the same time, so a change in
/// this figure across runs is the host drifting, not the program.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    for i in 0..black_box(40_000_000u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Wall time of a fixed walk of dependent loads over 32 MiB, more than the
/// last-level cache holds. The sweeps allocate and walk memory heavily, so
/// a host whose memory system is shared with busy neighbours slows them far
/// more than it slows [`calibration_ms`]; this probe shows that.
pub fn memory_calibration_ms() -> f64 {
    const SLOTS: usize = 8 << 20;
    // One cycle through every slot (Sattolo's algorithm), so each load
    // depends on the previous one and no prefetcher can run ahead.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..SLOTS).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        next.swap(i, j);
    }
    let started = Instant::now();
    let mut at = 0u32;
    for _ in 0..black_box(500_000u32) {
        at = next[at as usize];
    }
    black_box(at);
    started.elapsed().as_secs_f64() * 1e3
}
