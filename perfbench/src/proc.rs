//! Child processes with per-child resource usage, and a `mayad` client.

use maya::core::json::{parse_json, Json};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen `long`s
/// starting with `ru_maxrss` (kilobytes).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// A finished child.
pub struct Finished {
    /// Exit code, or `-signal` when killed by a signal.
    pub code: i32,
    pub stdout: String,
    pub stderr: String,
    /// Peak resident set size of the child, in kilobytes.
    pub maxrss_kb: i64,
    /// Spawn to reaped.
    pub wall: Duration,
}

/// Runs `cmd` to completion, capturing both output streams and the
/// child's own peak RSS (which `std` cannot report).
pub fn run(cmd: &mut Command) -> io::Result<Finished> {
    let started = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child.stderr.take().expect("stderr piped");
    let err_reader = std::thread::spawn(move || {
        let mut s = Vec::new();
        let _ = err_pipe.read_to_end(&mut s);
        s
    });
    let mut out = Vec::new();
    child
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_end(&mut out)?;
    let err = err_reader.join().expect("stderr reader thread");
    let (code, maxrss_kb) = reap(&child)?;
    Ok(Finished {
        code,
        stdout: String::from_utf8_lossy(&out).into_owned(),
        stderr: String::from_utf8_lossy(&err).into_owned(),
        maxrss_kb,
        wall: started.elapsed(),
    })
}

/// Waits for `child` with `wait4`, returning its exit code and peak RSS.
/// The `Child` is reaped here, so callers must not `wait` on it again.
fn reap(child: &Child) -> io::Result<(i32, i64)> {
    let pid = child.id() as i32;
    let mut status: i32 = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable locals of the types
        // wait4(2) expects (`int` and a `struct rusage` laid out above);
        // `pid` is our own unreaped child, so no other process is touched.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -(status & 0x7f)
    };
    Ok((code, ru.maxrss))
}

/// Peak RSS (`VmHWM`) of a live process, in kilobytes.
pub fn vm_hwm_kb(pid: u32) -> Option<i64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A running `mayad`, shut down (and reaped) on drop.
pub struct Daemon {
    child: Option<Child>,
    pub socket: std::path::PathBuf,
}

impl Daemon {
    /// Starts `mayad` in `dir` (relative file names in requests resolve
    /// there) serving `dir/d.sock`, and waits until it answers a ping. The
    /// daemon is given the socket's bare name, which keeps it under the
    /// unix-socket path length limit however deep `dir` is.
    pub fn start(mayad: &Path, dir: &Path, workers: usize) -> io::Result<Daemon> {
        let socket = dir.join("d.sock");
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(mayad)
            .current_dir(dir)
            .arg("--socket=d.sock")
            .arg(format!("--workers={workers}"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let d = Daemon {
            child: Some(child),
            socket,
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Client::connect(&d.socket) {
                if c.request(r#"{"cmd":"ping"}"#)?.contains("pong") {
                    return Ok(d);
                }
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("mayad did not come up"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon running").id()
    }

    /// Asks the daemon to drain and exit, then reaps it.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        if let Ok(mut c) = Client::connect(&self.socket) {
            let _ = c.request(r#"{"cmd":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                let _ = child.kill();
                child.wait()?;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let _ = std::fs::remove_file(&self.socket);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// One NDJSON connection to `mayad`.
pub struct Client {
    w: UnixStream,
    r: BufReader<UnixStream>,
}

impl Client {
    pub fn connect(socket: &Path) -> io::Result<Client> {
        let w = UnixStream::connect(socket)?;
        w.set_read_timeout(Some(Duration::from_secs(60)))?;
        let r = BufReader::new(w.try_clone()?);
        Ok(Client { w, r })
    }

    /// Sends one request line and returns the reply line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.w.write_all(line.as_bytes())?;
        self.w.write_all(b"\n")?;
        let mut reply = String::new();
        if self.r.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "mayad closed"));
        }
        Ok(reply)
    }
}

/// A compile reply's `(success, stdout, stderr)`, or `Err` for a refusal
/// (quota, overload) or an unparseable reply.
pub fn compile_reply(reply: &str) -> Result<(bool, String, String), String> {
    let j = parse_json(reply).map_err(|e| format!("unparseable mayad reply: {e}"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("mayad refused: {}", reply.trim()));
    }
    let text = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
    Ok((
        j.get("success").and_then(Json::as_bool) == Some(true),
        text("stdout"),
        text("stderr"),
    ))
}
