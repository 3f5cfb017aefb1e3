//! The bench crate's process-CPU clock.
//!
//! Process CPU time (`CLOCK_PROCESS_CPUTIME_ID`) is robust to scheduler
//! preemption and hypervisor steal on shared bench boxes, where stolen wall
//! time inflates an `Instant` window by 2× or more without any extra work
//! being done. It sums every thread of the process, so it includes whatever
//! the kernels fan out over rayon; on a single-core runner it is exactly the
//! timed region's compute cost.
//!
//! `std` has no process-CPU clock, so this calls the C library's
//! `clock_gettime` (already linked by `std` on every unix target) and falls
//! back to `/proc/self/stat` when the call reports an error. This is the one
//! `unsafe` block of the bench crate.

#[cfg(target_os = "linux")]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub fn process_cpu_ns() -> u128 {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on the 64-bit Linux targets the benches run on) and
        // `clock_gettime` writes nothing else.
        let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if status == 0 {
            ts.tv_sec as u128 * 1_000_000_000 + ts.tv_nsec as u128
        } else {
            proc_stat_cpu_ns().expect("neither clock_gettime nor /proc/self/stat gave a CPU time")
        }
    }

    /// utime + stime from `/proc/self/stat`, at the kernel's 100 Hz tick.
    pub fn proc_stat_cpu_ns() -> Option<u128> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) may hold spaces; fields resume after ')'.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace();
        let utime: u128 = fields.nth(11)?.parse().ok()?;
        let stime: u128 = fields.next()?.parse().ok()?;
        Some((utime + stime) * 10_000_000)
    }
}

/// Wall-clock stand-in where the Linux process clock is not available.
#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn process_cpu_ns() -> u128 {
        use std::time::Instant;
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos()
    }
}

/// Nanoseconds of CPU consumed by every thread of this process since it
/// started.
pub fn process_cpu_ns() -> u128 {
    imp::process_cpu_ns()
}

#[cfg(all(test, target_os = "linux"))]
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
        let a = process_cpu_ns();
        let b = process_cpu_ns();
        assert!(b >= a);
        spin(0.05);
        let c = process_cpu_ns();
        assert!(c - b > 20_000_000, "a 50 ms spin must consume CPU, got {} ns", c - b);
    }

    #[test]
    fn proc_stat_fallback_agrees_with_the_clock() {
        spin(0.05);
        let fallback = imp::proc_stat_cpu_ns().expect("/proc/self/stat is readable on Linux");
        let clock = process_cpu_ns();
        // The fallback ticks at 100 Hz and other tests may be burning CPU
        // between the two reads.
        assert!(fallback.abs_diff(clock) < 50_000_000, "{fallback} ns vs {clock} ns");
    }
}
