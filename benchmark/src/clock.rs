//! The benchmark's process-CPU clock and peak-RSS reader.
//!
//! `std` has no process-CPU clock, so this calls the C library's
//! `clock_gettime` (already linked by `std` on every unix target) and falls
//! back to `/proc/self/stat` when the call reports an error.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds consumed by every thread of this process since it started.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on) and
    // `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if status == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        proc_stat_cpu_seconds().expect("neither clock_gettime nor /proc/self/stat gave a CPU time")
    }
}

/// utime + stime from `/proc/self/stat`, at the kernel's 100 Hz tick.
fn proc_stat_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spin(seconds: f64) -> u64 {
        let start = Instant::now();
        let mut x = 1u64;
        while start.elapsed().as_secs_f64() < seconds {
            for _ in 0..1000 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        }
        x
    }

    #[test]
    fn cpu_clock_is_monotone_and_advances_under_a_busy_loop() {
        let a = process_cpu_seconds();
        let b = process_cpu_seconds();
        assert!(b >= a);
        spin(0.05);
        let c = process_cpu_seconds();
        assert!(c - b > 0.02, "a 50 ms spin must consume CPU, got {}", c - b);
    }

    #[test]
    fn cpu_clock_tracks_wall_for_a_single_threaded_spin() {
        // Other tests of this binary may spin on another thread at the same
        // time, which can only add CPU time; preemption can only remove it.
        // Take the best of a few attempts so that a noisy neighbour does not
        // fail the test.
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let (wall0, cpu0) = (Instant::now(), process_cpu_seconds());
            spin(0.2);
            let (wall, cpu) = (wall0.elapsed().as_secs_f64(), process_cpu_seconds() - cpu0);
            best = best.min((cpu / wall - 1.0).abs());
        }
        assert!(best < 0.05, "CPU time differs from wall by {:.1} %", best * 100.0);
    }

    #[test]
    fn proc_stat_fallback_agrees_with_the_clock() {
        spin(0.05);
        let fallback = proc_stat_cpu_seconds().expect("/proc/self/stat is readable on Linux");
        assert!((fallback - process_cpu_seconds()).abs() < 0.05);
    }

    #[test]
    fn peak_rss_is_reported_and_grows_with_an_allocation() {
        let before = peak_rss_kb().expect("VmHWM is present on Linux");
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let after = peak_rss_kb().expect("VmHWM is present on Linux");
        assert!(after >= before + (60 << 10), "64 MiB touched: {before} kB -> {after} kB");
    }
}
