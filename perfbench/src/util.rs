//! Statistics, result printing and the few Linux process calls std
//! does not expose (SIGTERM, per-child rusage, `/proc` counters).

use std::process::Child;
use std::time::{Duration, Instant};

use crate::Outcome;

/// Named metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_json(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no infinities; a failed op's latency reads huge.
            let v = if value.is_finite() { *value } else { 1e12 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    )
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule on a
/// sorted copy. Failed ops enter as `f64::INFINITY`, so they miss every
/// latency limit.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How many samples lie strictly beyond the `q`-quantile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- processes

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

const SIGTERM: i32 = 15;

/// Sends SIGTERM to `child`.
pub fn terminate(child: &Child) {
    // SAFETY: plain syscall on a pid this process spawned and has not
    // reaped yet.
    unsafe {
        kill(child.id() as i32, SIGTERM);
    }
}

/// What a reaped child cost: exit status, CPU time, peak RSS.
pub struct ChildCost {
    pub exit_ok: bool,
    pub cpu: Duration,
    pub max_rss_kib: u64,
}

/// Waits for `child` with `wait4`, which reports the child's own
/// rusage (not the cumulative `RUSAGE_CHILDREN`, which would include the
/// cargo build this process ran first).
pub fn wait_with_rusage(child: &mut Child) -> Result<ChildCost, String> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: both out-pointers are valid for the call; the pid is our
    // unreaped child, reaped exactly once here.
    let r = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
    if r < 0 {
        return Err(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    let tv = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec) as u64);
    Ok(ChildCost {
        // WIFEXITED && WEXITSTATUS == 0
        exit_ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        cpu: tv(&usage.utime) + tv(&usage.stime),
        max_rss_kib: usage.maxrss as u64,
    })
}

/// A spawned child that is killed and reaped if still running when
/// dropped, so no error path leaves a process behind.
pub struct Guard(pub Option<Child>);

impl Guard {
    pub fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("child not yet reaped")
    }

    /// SIGTERM, then wait up to `limit` for a clean exit. Returns whether
    /// the child exited with status 0 in time.
    pub fn drain(&mut self, limit: Duration) -> bool {
        let Some(mut child) = self.0.take() else {
            return false;
        };
        terminate(&child);
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// User + system CPU time of a live process, from `/proc/<pid>/stat`.
pub fn proc_cpu(pid: u32) -> Duration {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Field 14 is index 11 after the state field (index 0 = field 3).
    let total = ticks(11) + ticks(12);
    Duration::from_millis(total * 1000 / clock_ticks())
}

fn clock_ticks() -> u64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as u64
    } else {
        100
    }
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn proc_peak_rss_kib(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}
