//! The shipped `pard-gateway` binary as a child process: build, spawn,
//! set-up probe, `/metrics` scrape, and CPU and memory read from
//! `/proc/<pid>`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::proto::{self, Kind, PROBE_SEQ};

/// Builds the gateway from the checkout's sources and returns the
/// binary's path. Cargo's own freshness check makes repeat builds
/// cheap.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "pard-gateway",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pard-gateway failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release").join("pard-gateway");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no gateway binary at {}", bin.display()))
    }
}

/// A running gateway child. Dropping it kills the process and waits
/// for it, so no gateway outlives the benchmark.
pub struct Gateway {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
    pub metrics_addr: String,
    /// Wall seconds from spawn to the first answered request.
    pub setup_s: f64,
}

impl Drop for Gateway {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The text between `start` and the next space in `banner`.
fn word_after<'a>(banner: &'a str, start: &str) -> Option<&'a str> {
    let from = banner.find(start)? + start.len();
    banner[from..].split_whitespace().next()
}

impl Gateway {
    /// Spawns the gateway on ephemeral loopback ports, reads the bound
    /// addresses from its banner, and sends the set-up probe: one
    /// tight-SLO request the edge must refuse. Set-up time runs from
    /// the spawn to that first answer.
    pub fn spawn(bin: &Path, args: &[String], app: &str) -> Result<Gateway, String> {
        let spawned = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut gateway = Gateway {
            child,
            _stdout: None,
            addr: String::new(),
            metrics_addr: String::new(),
            setup_s: 0.0,
        };
        let stdout = gateway
            .child
            .stdout
            .take()
            .ok_or("gateway stdout not piped")?;
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the gateway banner: {e}"))?;
        gateway._stdout = Some(stdout);
        let parsed = word_after(&banner, " on ")
            .zip(word_after(&banner, "metrics on http://"))
            .ok_or_else(|| format!("unexpected gateway banner {banner:?}"))?;
        gateway.addr = parsed.0.to_string();
        gateway.metrics_addr = parsed.1.trim_end_matches("/metrics").to_string();

        let mut stream = connect(&gateway.addr)?;
        let mut line = String::new();
        proto::push_request(&mut line, app, PROBE_SEQ, Some(1), None);
        stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("probe: {e}"))?;
        let mut answer = String::new();
        BufReader::new(&stream)
            .read_line(&mut answer)
            .map_err(|e| format!("probe answer: {e}"))?;
        gateway.setup_s = spawned.elapsed().as_secs_f64();
        match proto::parse_answer(&answer) {
            Some(a) if a.kind == Kind::EdgeDrop && a.seq == Some(PROBE_SEQ) => Ok(gateway),
            _ => Err(format!(
                "set-up probe was not refused at the edge: {answer:?}"
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The `/metrics` body.
    pub fn scrape(&self) -> Result<String, String> {
        let mut stream = connect(&self.metrics_addr)?;
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| format!("/metrics: {e}"))?;
        let mut text = String::new();
        stream
            .read_to_string(&mut text)
            .map_err(|e| format!("/metrics: {e}"))?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| "malformed /metrics response".to_string())
    }

    /// User + system CPU of every live thread, nanoseconds
    /// (`/proc/<pid>/task/*/schedstat`). Gateway threads live as long
    /// as the process, so differences between two reads are exact.
    pub fn cpu_ns(&self) -> Result<u64, String> {
        let dir = format!("/proc/{}/task", self.pid());
        let mut total = 0;
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let path = entry.map_err(|e| e.to_string())?.path().join("schedstat");
            if let Ok(text) = std::fs::read_to_string(&path) {
                total += text
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse::<u64>().ok())
                    .ok_or_else(|| format!("unreadable {}", path.display()))?;
            }
        }
        Ok(total)
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

/// CPU time the hypervisor stole from this machine and all CPU time,
/// in clock ticks since boot (`/proc/stat`); `None` where unavailable.
pub fn host_steal() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// How long a connection may stay silent before the benchmark gives up
/// on it and counts the rest as unanswered.
pub const SILENCE: Duration = Duration::from_secs(20);

/// Connects with Nagle off and reads bounded by [`SILENCE`].
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(SILENCE))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}
