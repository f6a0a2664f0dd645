//! The processes the benchmark drives: `hsmd` (spawned on an ephemeral
//! port, stopped with a `shutdown` job, killed on every error path) and
//! `figures` (timed from outside, its stdout lines time-stamped).

use crate::oracle::Outcome;
use hsm_core::api::{encode_job, fnv1a_bytes, parse_response, Job, JobRequest, JobResponse};
use hsm_exec::Profile;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a job may take before the benchmark gives up on the server.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// How long a stopped process may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a client waits after `hsmd listening on` before connecting.
/// `hsmd` polls its listener every 50 ms and sleeps as soon as a poll
/// finds no connection, which its first poll, right after it prints the
/// line, nearly always does; a client that connected at once only
/// sometimes won that race (more often on a loaded host), which made
/// set-up times bimodal (about 2 ms or 52 ms). A wait well inside the poll
/// interval lets the first poll happen first and lengthens nothing.
const READY_PAUSE: Duration = Duration::from_millis(10);

/// How often a running child's memory is sampled.
const POLL: Duration = Duration::from_millis(5);

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Waits for `child` to exit, killing it after `timeout`.
fn wait_or_kill(child: &mut Child, timeout: Duration) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(POLL),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("process did not exit in time and was killed".to_string());
            }
            Err(e) => return Err(format!("waiting for process: {e}")),
        }
    }
}

/// A running `hsmd`. Dropping it kills the process, so every error path
/// leaves nothing behind; [`Hsmd::shutdown`] is the orderly exit.
pub struct Hsmd {
    child: Child,
    /// The address it listens on.
    pub addr: String,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Hsmd {
    /// Spawns `hsmd` on an ephemeral port and waits for its
    /// `hsmd listening on` line (and then [`READY_PAUSE`]).
    ///
    /// # Errors
    ///
    /// Reports spawn failures and a missing or malformed ready line.
    pub fn spawn(bin: &Path, cache_dir: Option<&Path>) -> Result<Hsmd, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut ready = String::new();
        let addr = match stdout.read_line(&mut ready) {
            Ok(_) => ready
                .trim()
                .strip_prefix("hsmd listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("hsmd did not report its address: {ready:?}"));
        };
        std::thread::sleep(READY_PAUSE);
        Ok(Hsmd {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// Opens a connection.
    ///
    /// # Errors
    ///
    /// Reports connection failures.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    /// Peak resident memory of the server so far.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.child.id())
    }

    /// Sends a `shutdown` job and waits for the process to exit.
    ///
    /// # Errors
    ///
    /// Reports a missing acknowledgement or an unclean exit; the process
    /// is killed either way.
    pub fn shutdown(mut self) -> Result<(), String> {
        let ack = self
            .connect()
            .and_then(|mut c| c.call(JobRequest::Shutdown));
        let status = wait_or_kill(&mut self.child, EXIT_TIMEOUT)?;
        match ack {
            Ok(JobResponse::ShuttingDown) if status.success() => Ok(()),
            Ok(other) => Err(format!("shutdown answered {other:?}, exit {status}")),
            Err(e) => Err(e),
        }
    }
}

impl Drop for Hsmd {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One blocking protocol connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Reports connection failures.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        writer
            .set_read_timeout(Some(JOB_TIMEOUT))
            .and_then(|()| writer.set_nodelay(true))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer,
            reader,
            next_id: 1,
        })
    }

    /// Sends one job and reads its single response.
    ///
    /// # Errors
    ///
    /// Reports transport and protocol failures (an error *response* is a
    /// successful call).
    pub fn call(&mut self, request: JobRequest) -> Result<JobResponse, String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = encode_job(&Job {
            id,
            timeout_ms: None,
            request,
        });
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("sending job: {e}"))?;
        let mut answer = String::new();
        match self.reader.read_line(&mut answer) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("reading response: {e}")),
        }
        let (rid, response) = parse_response(answer.trim()).map_err(|e| e.to_string())?;
        if rid != id {
            return Err(format!("response for job {rid}, expected {id}"));
        }
        Ok(response)
    }
}

/// Turns a server response into the outcome the oracle checks.
pub fn outcome_of(response: JobResponse) -> Outcome {
    match response {
        JobResponse::Row(row) => Outcome::Row {
            exit: row.exit_code,
            fnv: row.output_fnv,
            instructions: row.instructions,
            cycles: row.timed_cycles,
            error: row.error,
        },
        JobResponse::Profile { profile, .. } => match Profile::from_text(&profile) {
            Ok(p) => Outcome::Profile {
                exit: p.exit_code,
                instructions: p.instructions,
            },
            Err(e) => Outcome::Error(format!("unparsable profile: {e}")),
        },
        JobResponse::Translated { source, .. } => Outcome::Translated {
            fnv: fnv1a_bytes(source.as_bytes()),
        },
        JobResponse::Error { message } => Outcome::Error(message),
        other => Outcome::Error(format!("unexpected `{}` response", other.kind())),
    }
}

/// One finished `figures` process.
#[derive(Debug, Clone)]
pub struct FiguresRun {
    /// Every stdout line with its arrival time after the spawn.
    pub lines: Vec<(Duration, String)>,
    /// Spawn to exit.
    pub wall: Duration,
    /// Spawn to the first stdout byte.
    pub first_byte: Duration,
    /// Peak resident memory sampled while it ran.
    pub peak_rss_mb: f64,
    /// Whether it exited with status 0.
    pub success: bool,
}

impl FiguresRun {
    /// The stdout text.
    pub fn stdout(&self) -> String {
        let mut out = String::new();
        for (_, line) in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Runs `figures` with `args` to completion, time-stamping its output.
///
/// # Errors
///
/// Reports spawn and pipe failures.
pub fn run_figures(bin: &Path, args: &[&str]) -> Result<FiguresRun, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stdout).lines() {
            match line {
                Ok(line) => lines.push((start.elapsed(), line)),
                Err(_) => break,
            }
        }
        lines
    });
    let mut peak = 0.0f64;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if let Some(mb) = peak_rss_mb(child.id()) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(POLL);
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for figures: {e}"));
            }
        }
    };
    let wall = start.elapsed();
    let lines = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    let first_byte = lines.first().map_or(wall, |(t, _)| *t);
    Ok(FiguresRun {
        lines,
        wall,
        first_byte,
        peak_rss_mb: peak,
        success: status.success(),
    })
}

/// Spawns `figures` with no selector and measures the time to its first
/// stdout byte, then stops it.
///
/// # Errors
///
/// Reports spawn failures and a process that printed nothing.
pub fn figures_first_byte(bin: &Path) -> Result<Duration, String> {
    let start = Instant::now();
    let mut child = Command::new(bin)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut byte = [0u8; 1];
    let read = stdout.read(&mut byte);
    let elapsed = start.elapsed();
    let _ = child.kill();
    let _ = child.wait();
    match read {
        Ok(1) => Ok(elapsed),
        _ => Err("figures printed nothing".to_string()),
    }
}

/// Writes every dirty page back to disk (`sync`), so the next timed phase
/// does not share the disk with write-back or discards left over from
/// earlier file activity.
///
/// # Errors
///
/// Reports a failed `sync`.
pub fn sync_disk() -> Result<(), String> {
    let status = Command::new("sync").status();
    match status {
        Ok(s) if s.success() => Ok(()),
        other => Err(format!("sync failed: {other:?}")),
    }
}

/// A scratch directory removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    /// Creates `path` (removing any leftover first).
    ///
    /// # Errors
    ///
    /// Reports creation failures.
    pub fn new(path: PathBuf) -> Result<TempDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
