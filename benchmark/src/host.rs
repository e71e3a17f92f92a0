//! Host facts recorded next to every figure, and the `/proc` readers
//! behind `cpu_s` and `peak_rss_mb`.

use crate::json::Value;
use std::process::Command;

#[cfg(target_os = "linux")]
extern "C" {
    fn clock_gettime(clock: i32, ts: *mut [i64; 2]) -> i32;
}

/// Process CPU time (user + system, every thread, joined ones
/// included) in seconds, from the scheduler's own nanosecond
/// accounting (`CLOCK_PROCESS_CPUTIME_ID`) — `/proc/self/stat` is
/// sampled at the 10 ms tick, which is 2% of a half-second pass. 0
/// off Linux.
pub fn cpu_seconds() -> f64 {
    #[cfg(target_os = "linux")]
    {
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = [0i64; 2];
        // SAFETY: `ts` is a live, writable `struct timespec` (two
        // 64-bit fields on every 64-bit Linux), which is all the call
        // writes.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts[0] as f64 + ts[1] as f64 / 1e9;
        }
    }
    0.0
}

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a reader needs to judge a figure: cores, CPU, the SIMD
/// backends the kernels dispatched to, toolchain, commit, and how busy
/// the box already was.
pub fn facts() -> Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let loadavg = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    Value::obj(vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu_model", Value::str(cpu_model)),
        (
            "align_backend",
            Value::str(format!("{:?}", biodist_align::detect_backend())),
        ),
        (
            "lik_backend",
            Value::str(biodist_phylo::LikBackend::select().name()),
        ),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        // The driver's checkout is not a git repository: "unknown" there.
        (
            "git_commit",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("loadavg_at_start", Value::str(loadavg)),
    ])
}

/// glibc's `cpu_set_t`: 1024 CPUs.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread — and so every thread it spawns
/// afterwards — to the lowest CPU it may run on, for the rest of the
/// process. `false` where that is not possible (always, off Linux).
///
/// The control-plane workload needs this: one donor and one event-loop
/// thread ping-pong, and whether the kernel co-locates the two decides
/// a 6x difference in throughput on a virtual machine (cross-CPU
/// wake-ups cost a VM exit each). Confined to one CPU the workload
/// measures the CPU cost per unit of the layers it is about, not the
/// hypervisor's wake-up latency.
pub fn pin_to_one_cpu() -> bool {
    #[cfg(target_os = "linux")]
    {
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: pid 0 is the calling thread; `allowed` is a live,
        // writable buffer of exactly the `size` bytes passed, which is
        // all the call requires.
        if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
            return false;
        }
        let Some(word) = allowed.iter().position(|w| *w != 0) else {
            return false;
        };
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << allowed[word].trailing_zeros();
        // SAFETY: pid 0 is the calling thread; `one` is a live buffer
        // of exactly the `size` bytes passed and is only read.
        unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}
