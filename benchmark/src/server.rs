//! The `psim-serve` child process and the benchmark's raw line client.

use crate::report::WireRecord;
use psim_serve::request::{Request, Response};
use psir::ScalarTy;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::Instant;
use telemetry::Json;

/// One connection speaking the line protocol with pre-serialized request
/// lines: the timed path writes bytes and reads one reply line, nothing
/// else.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    /// Connect and socket-option failures.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // One request per reply: Nagle would hold each line back.
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Writes one request line (newline included).
    ///
    /// # Errors
    /// Socket write failures.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Reads one reply line into `buf` (cleared first).
    ///
    /// # Errors
    /// Socket read failures and a closed connection.
    pub fn recv(&mut self, buf: &mut String) -> Result<(), String> {
        buf.clear();
        match self.reader.read_line(buf) {
            Ok(0) => Err("connection closed by server".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// One request/reply exchange of a control op, parsed.
    ///
    /// # Errors
    /// Transport failures and unparseable replies.
    pub fn request(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = req.to_json().to_string_compact();
        line.push('\n');
        self.send(&line)?;
        let mut reply = String::new();
        self.recv(&mut reply)?;
        Response::parse(reply.trim_end())
    }

    /// The server's `stats` document.
    ///
    /// # Errors
    /// Transport failures and a reply of another kind.
    pub fn stats(&mut self) -> Result<Json, String> {
        match self.request(&Request::Stats { id: u64::MAX })? {
            Response::Stats { stats, .. } => Ok(stats),
            other => Err(format!("expected stats, got {other:?}")),
        }
    }
}

/// A running `psim-serve` child. Dropping it kills the process if it is
/// still running and waits for it, so no daemon outlives the benchmark.
pub struct Server {
    child: Child,
    /// Held open to the end: the daemon writes to stderr as it stops, and
    /// a closed pipe would fail that write.
    stderr: BufReader<ChildStderr>,
    /// The `host:port` the daemon announced.
    pub addr: String,
}

impl Server {
    /// Spawns `bin` with its shipped defaults on an ephemeral port and
    /// waits for its `listening on ADDR` line.
    ///
    /// # Errors
    /// Spawn failures, and a daemon that exits before announcing itself.
    pub fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut server = Server {
            child,
            stderr: BufReader::new(stderr),
            addr: String::new(),
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stderr.read_line(&mut line) {
                Ok(0) | Err(_) => return Err(format!("{} exited before listening", bin.display())),
                Ok(_) => {
                    if let Some(addr) = line.trim().rsplit_once("listening on ") {
                        server.addr = addr.1.to_string();
                        return Ok(server);
                    }
                }
            }
        }
    }

    /// Peak resident set of the daemon (`VmHWM`), MiB.
    ///
    /// # Errors
    /// An unreadable `/proc` entry.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown` on `conn` and waits for the daemon to exit cleanly.
    ///
    /// # Errors
    /// A missing acknowledgement or a non-zero exit.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        match conn.request(&Request::Shutdown { id: 0 })? {
            Response::ShuttingDown { .. } => {}
            other => return Err(format!("expected shutting_down, got {other:?}")),
        }
        drop(conn);
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("psim-serve exited with {status}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, MiB.
///
/// # Errors
/// An unreadable file or a missing field.
pub fn vm_hwm_mib(status_path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(status_path).map_err(|e| format!("{status_path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{status_path}: no VmHWM"))
}

/// When one exchange's request was sent, fully written, and answered.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    /// Before the first byte was written.
    pub sent: Instant,
    /// After the last byte was written.
    pub written: Instant,
    /// After the reply line was read.
    pub done: Instant,
}

impl Exchange {
    /// Client-observed round trip, ns.
    pub fn wall_ns(&self) -> u64 {
        (self.done - self.sent).as_nanos() as u64
    }
}

/// Sends one pre-serialized request line and reads its reply into
/// `reply`. Nothing else happens between the two clock readings.
///
/// # Errors
/// Transport failures: a drop.
pub fn exchange(conn: &mut Conn, line: &str, reply: &mut String) -> Result<Exchange, String> {
    let sent = Instant::now();
    conn.send(line)?;
    let written = Instant::now();
    conn.recv(reply)?;
    Ok(Exchange {
        sent,
        written,
        done: Instant::now(),
    })
}

/// A `run` reply, checked after the clock stopped.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The exchange's wire figures.
    pub record: WireRecord,
    /// Digest of the output buffers (see [`crate::exec::wire_digest`]).
    pub digest: u64,
    /// Why the reply is not a successful answer to the request, if so.
    pub problem: Option<String>,
}

/// The raw text of a scalar field (`"key":value`) of a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    Some(&rest[..rest.find([',', '}'])?])
}

/// Checks a reply line is the `ok` answer to request `want_id` and reads
/// the fields the metrics need. The line is scanned for the fixed keys
/// `Response::to_json` writes rather than parsed: `Response::parse` takes
/// time quadratic in the line length (about 0.1 s for a 33 KB reply), which
/// would make the client, not the daemon, pace the closed loop. The
/// outputs (buffers of element types `elems`) are digested from the raw
/// JSON array text.
pub fn inspect(reply: &str, want_id: u64, wall_ns: u64, elems: &[ScalarTy]) -> Reply {
    let mut out = Reply {
        record: WireRecord {
            wall_ns,
            bytes: reply.len() as u64,
            ..WireRecord::default()
        },
        digest: 0,
        problem: None,
    };
    let line = reply.trim_end();
    let num = |key: &str| field(line, key).and_then(|v| v.parse::<u64>().ok());
    let outputs = line.find("\"outputs\":[").and_then(|at| {
        line[at + 10..]
            .find(']')
            .map(|end| &line[at + 10..=at + 10 + end])
    });
    match (
        line.starts_with("{\"status\":\"ok\""),
        num("id"),
        outputs,
        num("compile_nanos"),
        num("exec_nanos"),
    ) {
        (true, Some(id), Some(outputs), Some(compile), Some(exec)) => {
            out.record.compile_ns = compile;
            out.record.exec_ns = exec;
            out.record.module_hit = field(line, "module_hit") == Some("true");
            out.digest = crate::exec::wire_digest(outputs, elems);
            if id != want_id {
                out.problem = Some(format!("reply id {id} to request {want_id}"));
            }
        }
        _ => {
            let head: String = line.chars().take(200).collect();
            out.problem = Some(format!("not an ok reply: {head}"));
        }
    }
    out
}
