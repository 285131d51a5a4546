//! Child daemons: `tsn-serviced` and `tsn-routerd` run as separate
//! processes so their CPU time and memory are attributable. Ephemeral
//! ports through port files, a protocol `shutdown` and an exit-code check
//! on the way out, a kill on every other way out.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tsn_service::protocol::{Request, RequestBody};

use crate::loadgen::Conn;
use crate::procfs;

/// Pids of live children, for the watchdog: it cannot reach the `Child`
/// handles owned by the workload it is interrupting.
static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<u32>> {
    // A panic while holding the lock leaves a plain list of pids behind;
    // it is still the right list to kill.
    LIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn kill_pid(pid: u32) {
    extern "C" {
        fn kill(pid: i32, signal: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    // SAFETY: `kill` takes two integers and touches no memory of ours. The
    // pid is a child this process spawned and has not yet waited for, so it
    // cannot have been reused.
    unsafe {
        kill(pid as i32, SIGKILL);
    }
}

/// Starts the hard per-workload timeout: after `limit` every live child is
/// killed and the process exits non-zero without printing a result. The
/// thread is deliberately detached — it must outlive whatever is stuck.
pub fn arm_watchdog(limit: Duration) {
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("tsn_benchmark: workload exceeded {limit:?}; killing children and giving up");
        for pid in live().drain(..) {
            kill_pid(pid);
        }
        std::process::exit(3);
    });
}

/// Locates a sibling binary of the workspace next to the benchmark's own
/// executable (or one directory up, where `cargo test` puts test
/// executables).
fn sibling_binary(name: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own path: {e}"))?;
    let dir = exe.parent().unwrap_or(Path::new("."));
    let found = [Some(dir), dir.parent()]
        .into_iter()
        .flatten()
        .map(|d| d.join(name))
        .find(|candidate| candidate.is_file());
    found.ok_or_else(|| {
        format!(
            "{name} not found beside {}: build the daemons first with \
             `cargo build --release` at the repository root",
            exe.display()
        )
    })
}

/// One running child daemon.
pub struct Daemon {
    name: String,
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `binary` with `args` plus an ephemeral port and a port file
    /// in `scratch`, and waits until it listens.
    pub fn spawn(binary: &str, tag: &str, args: &[String], scratch: &Path) -> Result<Self, String> {
        let path = sibling_binary(binary)?;
        let port_file = scratch.join(format!("{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(&path)
            .args(args)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", path.display()))?;
        live().push(child.id());
        let mut daemon = Daemon {
            name: format!("{binary} ({tag})"),
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // The daemon writes the file in one call after binding; an
            // unparsable read is a write in progress.
            if let Some(addr) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|text| text.trim().parse().ok())
            {
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("{} exited before listening: {status}", daemon.name));
            }
            if Instant::now() > deadline {
                return Err(format!("{} did not listen within 10 s", daemon.name));
            }
            // Fine-grained: a daemon listens within a millisecond or two,
            // and a millisecond's sleep made `setup_s` read one or two of
            // them depending on which poll caught the port file.
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU time the daemon has used so far.
    pub fn cpu_time(&self) -> Duration {
        procfs::cpu_time(&self.pid()).unwrap_or_default()
    }

    /// Peak resident set of the daemon so far, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        procfs::peak_rss_mib(&self.pid()).unwrap_or(0.0)
    }

    /// Waits for the daemon to exit by itself (after a protocol `shutdown`)
    /// and checks it exited cleanly.
    pub fn wait_clean_exit(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() > deadline => {
                    return Err(format!("{} ignored the shutdown request", self.name))
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("{}: wait failed: {e}", self.name)),
            }
        }
    }
}

impl Drop for Daemon {
    /// Any exit path that did not wait for the child — a failed check, a
    /// panic — kills it here. After a clean exit both calls are no-ops.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let pid = self.child.id();
        live().retain(|&p| p != pid);
    }
}

/// Starts a system of children `repeats` times with `start`, stopping all
/// but the last again with `stop`, and returns the last one with the time
/// of the median start: the serving workloads' `setup_s`.
pub fn start_repeatedly<T>(
    repeats: usize,
    mut start: impl FnMut() -> Result<T, String>,
    mut stop: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, f64), String> {
    let mut seconds = Vec::new();
    let mut running = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = running.take() {
            stop(previous)?;
        }
        let begin = Instant::now();
        running = Some(start()?);
        seconds.push(begin.elapsed().as_secs_f64());
    }
    let summary = crate::stats::Summary::of(&seconds);
    println!("setup_s {summary}");
    Ok((running.expect("at least one start"), summary.median))
}

/// Sends the protocol `shutdown` to `front` (a daemon, or a router that
/// broadcasts it to its shards) and checks that every process of the fleet
/// exits with code 0.
pub fn shutdown_fleet(front: SocketAddr, fleet: Vec<Daemon>) -> Result<(), String> {
    let reply = Conn::connect(front)
        .map_err(|e| format!("cannot connect for shutdown: {e}"))?
        .round_trip(&Request {
            id: 0,
            trace: None,
            body: RequestBody::Shutdown,
        })?;
    reply
        .outcome
        .map_err(|e| format!("shutdown refused: {e}"))?;
    fleet.into_iter().try_for_each(Daemon::wait_clean_exit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_daemon_binary_is_explained() {
        let error = sibling_binary("tsn-no-such-daemon").unwrap_err();
        assert!(error.contains("cargo build --release"), "{error}");
    }
}
