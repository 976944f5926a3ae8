//! What the benchmark needs from the operating system: CPU placement,
//! per-process CPU time and peak memory from procfs, the daemons under
//! test as supervised child processes, and the release binaries they run.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// How often set-up waits look again. Set-up is timed across these waits,
/// and a daemon starts in about a millisecond: a 1 ms poll made up most of
/// the `live` workload's measured set-up.
pub const POLL: Duration = Duration::from_micros(100);

/// Where the processes of a run are placed: the daemons under test on one
/// CPU and the benchmark's load thread on another, so neither steals the
/// other's core. Unpinned, identical keep-alive runs differ by about 2x.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// CPU the daemons under test are pinned to.
    pub daemon_cpu: Option<usize>,
    /// CPU the load thread is pinned to.
    pub load_cpu: Option<usize>,
    /// CPUs this process may run on.
    pub cores: usize,
}

impl Placement {
    /// The first two CPUs this process may use (one CPU serves both roles
    /// when only one is allowed; no pinning where affinity is unsupported).
    pub fn detect() -> Placement {
        let cpus = sched::allowed();
        Placement {
            daemon_cpu: cpus.first().copied(),
            load_cpu: cpus.get(1).or(cpus.first()).copied(),
            cores: cpus.len().max(1),
        }
    }
}

/// Pin the calling thread to `cpu` (no-op for `None`).
pub fn pin_current_thread(cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        if let Err(e) = sched::set(&[cpu]) {
            eprintln!("[benchmark] cannot pin to cpu {cpu}: {e}");
        }
    }
}

/// Spawn `cmd` pinned to `cpu`: the child inherits the spawning thread's
/// affinity, so the thread is pinned for the spawn and restored after.
pub fn spawn_pinned(cmd: &mut Command, cpu: Option<usize>) -> std::io::Result<Child> {
    let Some(cpu) = cpu else {
        return cmd.spawn();
    };
    let saved = sched::allowed();
    sched::set(&[cpu])?;
    let child = cmd.spawn();
    if !saved.is_empty() {
        sched::set(&saved)?;
    }
    child
}

/// Run `f` while a lowest-priority (`SCHED_IDLE`) thread spins on `cpu`,
/// so that CPU never halts: any runnable task preempts the spinner at
/// once, but a daemon waking on it skips the guest's idle-exit path.
/// Where the scheduler refuses `SCHED_IDLE` there is no spinner: at
/// normal priority it would take half the daemon's CPU.
pub fn keep_busy<T>(cpu: Option<usize>, f: impl FnOnce() -> T) -> T {
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        if cpu.is_some() {
            s.spawn(|| {
                pin_current_thread(cpu);
                if !sched::lowest_priority() {
                    eprintln!("[benchmark] SCHED_IDLE refused; the daemon CPU may idle");
                    return;
                }
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let value = f();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        value
    })
}

/// Run `f` with standard output sent to standard error, so library code
/// that prints its own tables cannot interleave with the result lines.
pub fn stdout_to_stderr<T>(f: impl FnOnce() -> T) -> T {
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let saved = fd::redirect_stdout();
    let value = f();
    let _ = std::io::stdout().flush();
    fd::restore_stdout(saved);
    value
}

#[cfg(unix)]
mod fd {
    extern "C" {
        fn dup(fd: i32) -> i32;
        fn dup2(src: i32, dst: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// Point fd 1 at fd 2; returns a duplicate of the old fd 1 (or -1).
    pub fn redirect_stdout() -> i32 {
        // SAFETY: dup and dup2 on the standard descriptors, which stay
        // open for the life of the process; no Rust object owns fd 1.
        unsafe {
            let saved = dup(1);
            if saved >= 0 {
                dup2(2, 1);
            }
            saved
        }
    }

    /// Undo [`redirect_stdout`].
    pub fn restore_stdout(saved: i32) {
        if saved >= 0 {
            // SAFETY: `saved` is the descriptor `redirect_stdout` duplicated
            // and nothing else closes it.
            unsafe {
                dup2(saved, 1);
                close(saved);
            }
        }
    }
}

#[cfg(not(unix))]
mod fd {
    pub fn redirect_stdout() -> i32 {
        -1
    }

    pub fn restore_stdout(_saved: i32) {}
}

#[cfg(target_os = "linux")]
mod sched {
    /// glibc's `cpu_set_t`: 1024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);

    /// `struct sched_param`.
    #[repr(C)]
    struct SchedParam {
        priority: i32,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    /// Move the calling thread to `SCHED_IDLE`; false when refused.
    pub fn lowest_priority() -> bool {
        const SCHED_IDLE: i32 = 5;
        // SAFETY: `param` is a valid sched_param for the call; pid 0 names
        // the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &SchedParam { priority: 0 }) == 0 }
    }

    /// The CPUs the calling thread may run on, ascending.
    pub fn allowed() -> Vec<usize> {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| set.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Restrict the calling thread to `cpus`.
    pub fn set(cpus: &[usize]) -> std::io::Result<()> {
        let mut set = CpuSet([0; 16]);
        for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
            set.0[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0
        // names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        if rc == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sched {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_cpus: &[usize]) -> std::io::Result<()> {
        Err(std::io::Error::other("CPU affinity needs Linux"))
    }

    pub fn lowest_priority() -> bool {
        false
    }
}

/// Fields after the `(comm)` of a `/proc/.../stat` line, so that field
/// N of proc(5) is at index N - 3.
fn stat_fields(path: &str) -> Option<Vec<u64>> {
    let text = std::fs::read_to_string(path).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    // Field 3 (state) is a letter; parse everything from field 4 on.
    Some(
        rest.split_whitespace()
            .skip(1)
            .map(|f| f.parse().unwrap_or(0))
            .collect(),
    )
}

/// User plus system CPU seconds a live process has used, all threads.
pub fn cpu_secs(pid: u32) -> Option<f64> {
    let f = stat_fields(&format!("/proc/{pid}/stat"))?;
    // utime and stime are fields 14 and 15; index 0 here is field 4.
    Some((f.get(10)? + f.get(11)?) as f64 / USER_HZ)
}

/// CPU seconds of every child this process has waited for (fields 16
/// and 17, cutime + cstime): bracket a child's wait to get its total.
pub fn waited_children_cpu_secs() -> Option<f64> {
    let f = stat_fields("/proc/self/stat")?;
    Some((f.get(12)? + f.get(13)?) as f64 / USER_HZ)
}

fn status_kb(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A live process's peak resident set (VmHWM), kB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    status_kb(&format!("/proc/{pid}/status"), "VmHWM:")
}

/// This process's current resident set from `/proc/self/statm`, kB.
pub fn self_rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4)
}

/// Reset this process's VmHWM to its current RSS (writing `5` to
/// `clear_refs`), so the next stage's peak is its own.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The release binaries under test.
#[derive(Debug, Clone)]
pub struct Bins {
    /// The offline experiment supervisor.
    pub run_all: PathBuf,
    /// The CLI: `serve`, `ingest`, `blocklist freeze`.
    pub unclean: PathBuf,
}

/// Build the release binaries users run (a no-op when they are fresh)
/// into `$CARGO_TARGET_DIR` or `target/`, and return their paths.
pub fn build_binaries(root: &Path) -> Result<Bins, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(&cargo)
        .args(["build", "--release", "--quiet"])
        .args(["--bin", "run_all", "--bin", "unclean"])
        .current_dir(root)
        .status()
        .map_err(|e| format!("cannot run {cargo}: {e}"))?;
    if !status.success() {
        return Err(format!("building run_all and unclean failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(|dir| root.join(dir))
        .unwrap_or_else(|| root.join("target"));
    let release = target.join("release");
    Ok(Bins {
        run_all: release.join("run_all"),
        unclean: release.join("unclean"),
    })
}

/// The commit under test, or `unknown` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A daemon under test: a pinned child process whose stdout and stderr go
/// to a log file. Dropping it kills the process and waits for it, so no
/// error path leaves one running.
pub struct Daemon {
    name: &'static str,
    child: Child,
    log: PathBuf,
}

impl Daemon {
    /// Spawn `cmd` on `cpu`, logging to `log`.
    pub fn spawn(
        name: &'static str,
        cmd: &mut Command,
        log: PathBuf,
        cpu: Option<usize>,
    ) -> Result<Daemon, String> {
        let out = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out
            .try_clone()
            .map_err(|e| format!("{}: {e}", log.display()))?;
        cmd.stdin(Stdio::null()).stdout(out).stderr(err);
        let child = spawn_pinned(cmd, cpu).map_err(|e| format!("cannot start {name}: {e}"))?;
        Ok(Daemon { name, child, log })
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait until the log has a line containing `marker` and return the
    /// whitespace-delimited word that follows it (a bound address).
    pub fn wait_for_word_after(
        &mut self,
        marker: &str,
        timeout: Duration,
    ) -> Result<String, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let text = std::fs::read_to_string(&self.log).unwrap_or_default();
            if let Some(word) = text.lines().find_map(|line| {
                let (_, rest) = line.split_once(marker)?;
                rest.split_whitespace().next().map(str::to_string)
            }) {
                return Ok(word);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("{} exited ({status}): {text}", self.name));
            }
            if Instant::now() >= deadline {
                return Err(format!("{} never printed {marker:?}: {text}", self.name));
            }
            std::thread::sleep(POLL);
        }
    }

    /// CPU seconds used so far.
    pub fn cpu_secs(&self) -> f64 {
        cpu_secs(self.pid()).unwrap_or(0.0)
    }

    /// Peak resident set so far, kB.
    pub fn peak_rss_kb(&self) -> u64 {
        peak_rss_kb(self.pid()).unwrap_or(0)
    }

    /// Wait up to `timeout` for the process to exit (after its quit
    /// endpoint was called); kill it past that. Errors name a daemon that
    /// had to be killed or exited unsuccessfully.
    pub fn wait_exit(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("{} did not drain within {timeout:?}", self.name));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
