//! What the host says about this process: CPU time, peak RSS, stolen time,
//! core count, and a fixed spin kernel that shows how fast the box is
//! running right now. Read from `/proc` and the process CPU clock; nothing
//! here touches the pipeline.

use std::time::{Duration, Instant};

/// `struct timespec` of x86-64 and aarch64 Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (all threads, the ended ones
/// too), in milliseconds. Read once per popped batch, so it is the
/// nanosecond clock and not the 10 ms ticks of `/proc/self/stat`.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C
    // library expects on 64-bit Linux, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// `/proc/stat` counts in USER_HZ ticks, which is 100 on every supported
/// architecture.
const TICK_MS: f64 = 10.0;

/// Time the hypervisor ran something else while a core of this guest was
/// runnable, summed over cores, in milliseconds since boot.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let steal: f64 = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_ascii_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    steal * TICK_MS
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed integer kernel (≈50 ms on the box the bounds were measured on).
/// Its time moves with the host's clock speed and load and with nothing in
/// the repository, so a run whose `host.calib_ms` is off is a slow host,
/// not a slow pipeline.
pub fn calib_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..32_000_000u64 {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17);
    }
    std::hint::black_box(x);
    ms(t0.elapsed())
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
