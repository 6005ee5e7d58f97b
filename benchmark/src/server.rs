//! The program under test as a child process: `nvwa serve`, started through
//! its CLI, observed through `/proc`, killed and reaped on every exit path.

use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second of `/proc/<pid>/stat` times. Linux reports
/// `USER_HZ`, which is 100 on every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// A child process that is killed and reaped when the guard drops: on
/// normal return, on `?` and while a panic unwinds.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Reaped {
    /// Waits for the child to exit by itself until `deadline`; `false` when
    /// it had to be left running (the drop then kills it).
    pub fn wait_until(&mut self, deadline: Instant) -> bool {
        loop {
            match self.0.try_wait() {
                Ok(Some(_)) => return true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return false,
            }
        }
    }
}

pub struct ServerChild {
    child: Reaped,
    addr_file: PathBuf,
    /// Valid once [`ServerChild::wait_ready`] has returned.
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Spawns `nvwa serve` on `fasta` with one worker and the reactor
    /// frontend; `extra` is appended to the command line. The server indexes
    /// the reference before it listens: call [`ServerChild::wait_ready`]
    /// before connecting, and do the harness's own set-up in between.
    pub fn spawn(
        nvwa_bin: &Path,
        fasta: &Path,
        work_dir: &Path,
        extra: &[&str],
    ) -> Result<ServerChild, String> {
        let addr_file = work_dir.join("server.addr");
        let _ = fs::remove_file(&addr_file);
        let log = fs::File::create(work_dir.join("server.log")).map_err(|e| e.to_string())?;
        let child = Command::new(nvwa_bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .arg("--ref")
            .arg(fasta)
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--workers", "1", "--frontend", "reactor"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", nvwa_bin.display()))?;
        Ok(ServerChild {
            child: Reaped(child),
            addr_file,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        })
    }

    /// Waits until the server has written its `--addr-file`.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(text) = fs::read_to_string(&self.addr_file) {
                if let Ok(addr) = text.trim().parse() {
                    self.addr = addr;
                    return Ok(());
                }
            }
            if let Ok(Some(status)) = self.child.0.try_wait() {
                return Err(format!("nvwa serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("nvwa serve did not write its address within 120 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }
}

/// Which process to read from `/proc`.
#[derive(Debug, Clone, Copy)]
pub enum Proc {
    Harness,
    Pid(u32),
}

impl Proc {
    fn dir(self) -> PathBuf {
        match self {
            Proc::Harness => PathBuf::from("/proc/self"),
            Proc::Pid(pid) => PathBuf::from(format!("/proc/{pid}")),
        }
    }

    /// `(user, system)` CPU seconds the process has used, all threads.
    pub fn cpu_seconds(self) -> (f64, f64) {
        let stat = fs::read_to_string(self.dir().join("stat")).unwrap_or_default();
        parse_stat_cpu(&stat).unwrap_or((0.0, 0.0))
    }

    /// Total CPU seconds (user + system).
    pub fn cpu_total(self) -> f64 {
        let (user, system) = self.cpu_seconds();
        user + system
    }

    /// Seconds the process's threads have spent on a CPU. The harness asks
    /// its own CPU-time clock. A child is read from the scheduler's books
    /// (`/proc/<pid>/task/*/schedstat`), which are exact at every context
    /// switch and at most a tick behind for a thread that is running: exact
    /// enough for one trial of a server that sleeps between requests, where
    /// `stat` would charge a whole 10 ms tick to whichever thread a tick
    /// happens to interrupt. `stat` is the fallback on a kernel without
    /// scheduler statistics.
    pub fn on_cpu_seconds(self) -> f64 {
        if let (Proc::Harness, Some(seconds)) = (self, own_cpu_seconds()) {
            return seconds;
        }
        let run_ns = |task: fs::DirEntry| -> Option<f64> {
            let text = fs::read_to_string(task.path().join("schedstat")).ok()?;
            text.split_whitespace().next()?.parse().ok()
        };
        let total: Option<f64> = fs::read_dir(self.dir().join("task"))
            .ok()
            .and_then(|tasks| tasks.flatten().map(run_ns).sum());
        match total {
            Some(ns) if ns > 0.0 => ns / 1e9,
            _ => self.cpu_total(),
        }
    }

    /// A `kB` field of `/proc/<pid>/status` in MB (`VmHWM`, `VmRSS`).
    pub fn status_mb(self, field: &str) -> f64 {
        let status = fs::read_to_string(self.dir().join("status")).unwrap_or_default();
        status_field(&status, field).map_or(0.0, |kb| kb / 1024.0)
    }

    pub fn threads(self) -> f64 {
        let status = fs::read_to_string(self.dir().join("status")).unwrap_or_default();
        status_field(&status, "Threads").unwrap_or(0.0)
    }

    /// Voluntary + involuntary context switches summed over every thread.
    pub fn context_switches(self) -> f64 {
        let Ok(tasks) = fs::read_dir(self.dir().join("task")) else {
            return 0.0;
        };
        tasks
            .flatten()
            .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
            .map(|status| {
                status_field(&status, "voluntary_ctxt_switches").unwrap_or(0.0)
                    + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0.0)
            })
            .sum()
    }
}

// clock_gettime(2) shim — std exposes no CPU-time clock; declare the symbol
// directly, as the program's reactor does for poll(2).
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds this process has used, all threads, at the clock's nanosecond
/// resolution.
fn own_cpu_seconds() -> Option<f64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two longs on Linux)
    // and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// seconds. The command name (field 2) may hold spaces and parentheses, so
/// fields are counted from the last `)`.
fn parse_stat_cpu(stat: &str) -> Option<(f64, f64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime / TICKS_PER_S, stime / TICKS_PER_S))
}

/// The first number of the `name:` line of a `/proc/<pid>/status` text.
fn status_field(status: &str, name: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_skips_a_command_name_with_spaces_and_parens() {
        let stat = "1234 (nvwa (serve) x) S 1 1234 1234 0 -1 4194560 906 0 0 0 250 50 0 0 20 0 4 0 100 1 2";
        assert_eq!(parse_stat_cpu(stat), Some((2.5, 0.5)));
        assert_eq!(parse_stat_cpu("garbage"), None);
    }

    #[test]
    fn status_field_reads_the_named_line_only() {
        let status = "Name:\tnvwa\nVmHWM:\t   94460 kB\nVmRSS:\t 90616 kB\nThreads:\t4\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(94460.0));
        assert_eq!(status_field(status, "Threads"), Some(4.0));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12.0));
        assert_eq!(status_field(status, "VmSwap"), None);
    }

    #[test]
    fn harness_process_is_readable() {
        let before = Proc::Harness.on_cpu_seconds();
        std::hint::black_box((0..2_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31)));
        assert!(Proc::Harness.on_cpu_seconds() > before);
        assert!(Proc::Pid(std::process::id()).on_cpu_seconds() > 0.0);
        assert!(Proc::Harness.status_mb("VmHWM") > 0.0);
        assert!(Proc::Harness.threads() >= 1.0);
    }
}
