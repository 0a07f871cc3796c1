//! Wire protocol of `psim-serve`: line-delimited JSON, one request per
//! line, one response per line, strictly in order per connection.
//!
//! The protocol is versioned by [`telemetry::cli::PROTOCOL_VERSION`]
//! (reported by `ping` and by every binary's `--version`). Requests are
//! self-contained: source text, entry point, workload buffers, and the
//! per-request compile configuration (mode, verification, fault
//! injection) all travel in the request, so any client can replay a
//! session against a fresh server and get byte-identical responses.
//!
//! Numbers that can exceed 2^53 (addresses, bit patterns of extra
//! arguments, content hashes) are carried as the JSON integer holding the
//! u64 *bit pattern* reinterpreted as i64 — `telemetry::Json` preserves
//! i64 exactly, so the round trip is lossless.

use psir::{Engine, ScalarTy};
use suite::{BufSpec, Init};
use telemetry::Json;
use vmach::Target;

/// Encodes a u64 losslessly as a JSON integer (bit pattern as i64).
pub fn u64_to_json(v: u64) -> Json {
    Json::Int(v as i64)
}

/// Decodes a u64 encoded by [`u64_to_json`].
pub fn json_to_u64(j: &Json) -> Option<u64> {
    match j {
        Json::Int(i) => Some(*i as u64),
        _ => None,
    }
}

/// SPMD compile mode of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Parsimony semantics (per-thread progress, the paper's model).
    Parsimony,
    /// Gang-synchronous (ispc-like) semantics.
    GangSync,
}

impl Mode {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Parsimony => "parsimony",
            Mode::GangSync => "gangsync",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "parsimony" => Some(Mode::Parsimony),
            "gangsync" => Some(Mode::GangSync),
            _ => None,
        }
    }
}

/// Stable wire name of a scalar element type.
pub fn scalar_ty_name(t: ScalarTy) -> &'static str {
    match t {
        ScalarTy::I1 => "i1",
        ScalarTy::I8 => "i8",
        ScalarTy::I16 => "i16",
        ScalarTy::I32 => "i32",
        ScalarTy::I64 => "i64",
        ScalarTy::F32 => "f32",
        ScalarTy::F64 => "f64",
        ScalarTy::Ptr => "ptr",
    }
}

/// Parses a scalar element type wire name.
pub fn scalar_ty_parse(s: &str) -> Option<ScalarTy> {
    Some(match s {
        "i1" => ScalarTy::I1,
        "i8" => ScalarTy::I8,
        "i16" => ScalarTy::I16,
        "i32" => ScalarTy::I32,
        "i64" => ScalarTy::I64,
        "f32" => ScalarTy::F32,
        "f64" => ScalarTy::F64,
        "ptr" => ScalarTy::Ptr,
        _ => return None,
    })
}

/// Serializes a buffer initializer.
pub fn init_to_json(init: Init) -> Json {
    match init {
        Init::Zero => Json::obj(vec![("kind", Json::Str("zero".into()))]),
        Init::Ramp => Json::obj(vec![("kind", Json::Str("ramp".into()))]),
        Init::RandomInt { seed } => Json::obj(vec![
            ("kind", Json::Str("random_int".into())),
            ("seed", u64_to_json(seed)),
        ]),
        Init::RandomF32 { seed, lo, hi } => Json::obj(vec![
            ("kind", Json::Str("random_f32".into())),
            ("seed", u64_to_json(seed)),
            ("lo", Json::Num(f64::from(lo))),
            ("hi", Json::Num(f64::from(hi))),
        ]),
        Init::RandomF32Int { seed, lo, hi } => Json::obj(vec![
            ("kind", Json::Str("random_f32_int".into())),
            ("seed", u64_to_json(seed)),
            ("lo", Json::Int(i64::from(lo))),
            ("hi", Json::Int(i64::from(hi))),
        ]),
    }
}

/// Parses a buffer initializer.
pub fn init_from_json(j: &Json) -> Option<Init> {
    let kind = j.get("kind")?.as_str()?;
    let seed = || j.get("seed").and_then(json_to_u64);
    Some(match kind {
        "zero" => Init::Zero,
        "ramp" => Init::Ramp,
        "random_int" => Init::RandomInt { seed: seed()? },
        "random_f32" => {
            let num = |k: &str| j.get(k).and_then(Json::as_f64);
            Init::RandomF32 {
                seed: seed()?,
                lo: num("lo")? as f32,
                hi: num("hi")? as f32,
            }
        }
        "random_f32_int" => {
            let int = |k: &str| match j.get(k) {
                Some(Json::Int(i)) => i32::try_from(*i).ok(),
                _ => None,
            };
            Init::RandomF32Int {
                seed: seed()?,
                lo: int("lo")?,
                hi: int("hi")?,
            }
        }
        _ => return None,
    })
}

/// Serializes a workload buffer spec.
pub fn buf_to_json(b: &BufSpec) -> Json {
    Json::obj(vec![
        ("elem", Json::Str(scalar_ty_name(b.elem).into())),
        ("len", u64_to_json(b.len)),
        ("init", init_to_json(b.init)),
        ("check", Json::Bool(b.check)),
    ])
}

/// Parses a workload buffer spec.
pub fn buf_from_json(j: &Json) -> Option<BufSpec> {
    Some(BufSpec {
        elem: scalar_ty_parse(j.get("elem")?.as_str()?)?,
        len: json_to_u64(j.get("len")?)?,
        init: init_from_json(j.get("init")?)?,
        check: matches!(j.get("check"), Some(Json::Bool(true))),
    })
}

/// One `run` request: compile `source` (through the content-addressed
/// caches) and execute `entry` over the described workload.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// PsimC source text.
    pub source: String,
    /// Entry function (default `main`).
    pub entry: String,
    /// Element count passed as the trailing argument.
    pub n: u64,
    /// SPMD compile mode.
    pub mode: Mode,
    /// In-pipeline verification mode (wire name; default `fallback`).
    pub verify: String,
    /// Fault-injection descriptor (empty = none), honored per-request.
    pub inject: String,
    /// Interpreter engine to execute on (default fast). Engines are
    /// result-identical by contract, so the engine keys no cache: it picks
    /// only the executor (and, through the request key, keeps each batch
    /// on one engine).
    pub engine: Engine,
    /// Costing target the cycles are priced against (default
    /// `x86-avx512`). Targets never change outputs, but plans carry
    /// target-priced costs, so the target joins the plan-cache key.
    pub target: Target,
    /// Workload buffers, in parameter order.
    pub buffers: Vec<BufSpec>,
    /// Extra scalar arguments (u64 bit patterns) appended after the
    /// buffer pointers, before the trailing `n`.
    pub extra_args: Vec<u64>,
    /// Include the canonical remark stream in the response.
    pub want_remarks: bool,
    /// Include the cycle-attribution profile in the response.
    pub want_profile: bool,
    /// Per-request deadline in milliseconds (0 = inherit the server
    /// default). The effective deadline is the tighter of the two; an
    /// exceeded deadline yields a `deadline_exceeded` response.
    pub deadline_ms: u64,
    /// Per-request dynamic-step budget (0 = inherit; capped by the server
    /// limit). Exhaustion yields `resource_exhausted`.
    pub max_steps: u64,
    /// Per-request allocation budget in bytes (0 = inherit; capped by the
    /// server limit). Exhaustion yields `resource_exhausted`.
    pub max_mem_bytes: u64,
}

impl RunRequest {
    /// A minimal request with defaults matching a bare `psimcc FILE --run
    /// main N` invocation.
    pub fn new(id: u64, source: &str, n: u64) -> RunRequest {
        RunRequest {
            id,
            source: source.to_string(),
            entry: "main".into(),
            n,
            mode: Mode::Parsimony,
            verify: "fallback".into(),
            inject: String::new(),
            engine: Engine::Fast,
            target: Target::reference_default(),
            buffers: Vec::new(),
            extra_args: Vec::new(),
            want_remarks: false,
            want_profile: false,
            deadline_ms: 0,
            max_steps: 0,
            max_mem_bytes: 0,
        }
    }
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Compile and execute.
    Run(Box<RunRequest>),
    /// Liveness / protocol probe.
    Ping {
        /// Correlation id.
        id: u64,
    },
    /// Server-wide cache and admission counters.
    Stats {
        /// Correlation id.
        id: u64,
    },
    /// Graceful shutdown (the connection receives a final reply first).
    Shutdown {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Request::Run(r) => {
                let mut fields = vec![
                    ("op", Json::Str("run".into())),
                    ("id", u64_to_json(r.id)),
                    ("source", Json::Str(r.source.clone())),
                    ("entry", Json::Str(r.entry.clone())),
                    ("n", u64_to_json(r.n)),
                    ("mode", Json::Str(r.mode.name().into())),
                    ("verify", Json::Str(r.verify.clone())),
                    (
                        "buffers",
                        Json::Arr(r.buffers.iter().map(buf_to_json).collect()),
                    ),
                    (
                        "extra_args",
                        Json::Arr(r.extra_args.iter().map(|&v| u64_to_json(v)).collect()),
                    ),
                ];
                if !r.inject.is_empty() {
                    fields.push(("inject", Json::Str(r.inject.clone())));
                }
                // Like the budget fields below: the engine rides along
                // only when it is not the default, so fast requests stay
                // wire-identical to protocol 1.
                if r.engine != Engine::Fast {
                    fields.push(("engine", Json::Str(r.engine.flag_name().into())));
                }
                if r.target != Target::reference_default() {
                    fields.push(("target", Json::Str(r.target.flag_name())));
                }
                if r.want_remarks {
                    fields.push(("want_remarks", Json::Bool(true)));
                }
                if r.want_profile {
                    fields.push(("want_profile", Json::Bool(true)));
                }
                // Budget fields ride along only when set, so a default
                // request is wire-identical to protocol 1.
                if r.deadline_ms != 0 {
                    fields.push(("deadline_ms", u64_to_json(r.deadline_ms)));
                }
                if r.max_steps != 0 {
                    fields.push(("max_steps", u64_to_json(r.max_steps)));
                }
                if r.max_mem_bytes != 0 {
                    fields.push(("max_mem_bytes", u64_to_json(r.max_mem_bytes)));
                }
                Json::obj(fields)
            }
            Request::Ping { id } => Json::obj(vec![
                ("op", Json::Str("ping".into())),
                ("id", u64_to_json(*id)),
            ]),
            Request::Stats { id } => Json::obj(vec![
                ("op", Json::Str("stats".into())),
                ("id", u64_to_json(*id)),
            ]),
            Request::Shutdown { id } => Json::obj(vec![
                ("op", Json::Str("shutdown".into())),
                ("id", u64_to_json(*id)),
            ]),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    /// Describes what is malformed; the server turns this into an `error`
    /// response without dropping the connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let j = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let op = j
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\" field")?;
        let id = j
            .get("id")
            .and_then(json_to_u64)
            .ok_or("missing \"id\" field")?;
        match op {
            "ping" => Ok(Request::Ping { id }),
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "run" => {
                let source = j
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or("run: missing \"source\"")?
                    .to_string();
                let entry = j
                    .get("entry")
                    .and_then(Json::as_str)
                    .unwrap_or("main")
                    .to_string();
                let n = j
                    .get("n")
                    .and_then(json_to_u64)
                    .ok_or("run: missing \"n\"")?;
                let mode = match j.get("mode").and_then(Json::as_str) {
                    None => Mode::Parsimony,
                    Some(s) => Mode::parse(s).ok_or_else(|| format!("run: bad mode {s:?}"))?,
                };
                let verify = j
                    .get("verify")
                    .and_then(Json::as_str)
                    .unwrap_or("fallback")
                    .to_string();
                let inject = j
                    .get("inject")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let engine = match j.get("engine").and_then(Json::as_str) {
                    None => Engine::Fast,
                    Some(s) => {
                        Engine::from_flag(s).ok_or_else(|| format!("run: bad engine {s:?}"))?
                    }
                };
                let target = match j.get("target").and_then(Json::as_str) {
                    None => Target::reference_default(),
                    Some(s) => Target::parse(s).map_err(|e| format!("run: bad target: {e}"))?,
                };
                let buffers = match j.get("buffers") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|b| buf_from_json(b).ok_or("run: bad buffer spec"))
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err("run: \"buffers\" must be an array".into()),
                };
                let extra_args = match j.get("extra_args") {
                    None => Vec::new(),
                    Some(Json::Arr(items)) => items
                        .iter()
                        .map(|v| json_to_u64(v).ok_or("run: bad extra_args entry"))
                        .collect::<Result<Vec<_>, _>>()?,
                    Some(_) => return Err("run: \"extra_args\" must be an array".into()),
                };
                let flag = |k: &str| matches!(j.get(k), Some(Json::Bool(true)));
                let budget = |k: &str| j.get(k).and_then(json_to_u64).unwrap_or(0);
                Ok(Request::Run(Box::new(RunRequest {
                    id,
                    source,
                    entry,
                    n,
                    mode,
                    verify,
                    inject,
                    engine,
                    target,
                    buffers,
                    extra_args,
                    want_remarks: flag("want_remarks"),
                    want_profile: flag("want_profile"),
                    deadline_ms: budget("deadline_ms"),
                    max_steps: budget("max_steps"),
                    max_mem_bytes: budget("max_mem_bytes"),
                })))
            }
            other => Err(format!("unknown op {other:?}")),
        }
    }
}

/// Per-response cache telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheInfo {
    /// Whether the compiled module came from the module cache.
    pub module_hit: bool,
    /// Plans this execution took from the shared plan cache.
    pub plan_shared_hits: u64,
    /// Plans this execution had to build.
    pub plan_builds: u64,
}

/// A successful `run` response.
#[derive(Debug, Clone)]
pub struct RunResponse {
    /// Echo of the request id.
    pub id: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Hex dump of every `check`-marked buffer, in order.
    pub outputs: Vec<String>,
    /// Execution statistics (stable debug rendering, used by the
    /// byte-identity gates).
    pub stats: String,
    /// Regions degraded to the scalar fallback.
    pub degraded: Vec<String>,
    /// Compiler warnings.
    pub warnings: Vec<String>,
    /// Canonical remark stream (present iff requested).
    pub remarks: Option<Json>,
    /// Cycle-attribution profile (present iff requested).
    pub profile: Option<Json>,
    /// Cache telemetry for this request.
    pub cache: CacheInfo,
    /// Wall nanoseconds spent compiling (0 on a module-cache hit).
    pub compile_nanos: u64,
    /// Wall nanoseconds spent executing.
    pub exec_nanos: u64,
    /// Dynamic interpreter steps the execution consumed (what the step
    /// budget is charged against). Accounting, not identity: deterministic
    /// for a request, but reported alongside the wall times.
    pub steps: u64,
    /// Bytes the execution allocated (what the memory budget is charged
    /// against), alignment padding included.
    pub mem_bytes: u64,
}

impl RunResponse {
    /// The identity payload: every deterministic field, excluding wall
    /// times and cache telemetry. Two responses for the same request must
    /// render identically whether they were served cold, hot, or by an
    /// uncached single-shot run — `servebench --check` gates on this.
    pub fn identity(&self) -> String {
        Json::obj(vec![
            ("cycles", u64_to_json(self.cycles)),
            (
                "outputs",
                Json::Arr(self.outputs.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            ("stats", Json::Str(self.stats.clone())),
            (
                "degraded",
                Json::Arr(self.degraded.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|s| Json::Str(s.clone())).collect()),
            ),
            ("remarks", self.remarks.clone().unwrap_or(Json::Null)),
            ("profile", self.profile.clone().unwrap_or(Json::Null)),
        ])
        .to_string_pretty()
    }
}

/// A server reply.
#[derive(Debug, Clone)]
pub enum Response {
    /// Successful run.
    Ok(Box<RunResponse>),
    /// Reply to `ping`.
    Pong {
        /// Echo of the request id.
        id: u64,
        /// Server protocol version.
        protocol: u64,
    },
    /// Reply to `stats`.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Counter document (see `ServeState::stats_json`).
        stats: Json,
    },
    /// Admission control rejected the request: the bounded queue is full.
    /// Explicit backpressure — the server never silently drops a request.
    Overloaded {
        /// Echo of the request id.
        id: u64,
    },
    /// Compile or runtime failure (the connection stays usable).
    Error {
        /// Echo of the request id (0 if the request was unparseable).
        id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Acknowledgement of `shutdown`, and the structured reply for any
    /// request caught in flight (or still queued) when the server stops.
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
    /// The request's effective deadline passed before execution finished;
    /// the worker was released at the next block boundary.
    DeadlineExceeded {
        /// Echo of the request id.
        id: u64,
    },
    /// The request was cancelled (the client disconnected mid-request);
    /// the worker was released at the next block boundary.
    Cancelled {
        /// Echo of the request id.
        id: u64,
    },
    /// A resource budget was exhausted: steps, memory, source size, or
    /// frame size. Deterministic for a given request and budget, and the
    /// connection stays usable (except for oversized frames, which cannot
    /// be re-synchronized).
    ResourceExhausted {
        /// Echo of the request id (0 when the frame itself was oversized).
        id: u64,
        /// Which budget: `steps`, `mem_bytes`, `source_bytes`, or
        /// `frame_bytes`.
        what: String,
        /// Human-readable detail (the budget and what hit it).
        detail: String,
    },
}

impl Response {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok(r) => {
                let mut fields = vec![
                    ("status", Json::Str("ok".into())),
                    ("id", u64_to_json(r.id)),
                    ("cycles", u64_to_json(r.cycles)),
                    (
                        "outputs",
                        Json::Arr(r.outputs.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                    ("stats", Json::Str(r.stats.clone())),
                    (
                        "degraded",
                        Json::Arr(r.degraded.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                    (
                        "warnings",
                        Json::Arr(r.warnings.iter().map(|s| Json::Str(s.clone())).collect()),
                    ),
                    ("module_hit", Json::Bool(r.cache.module_hit)),
                    ("plan_shared_hits", u64_to_json(r.cache.plan_shared_hits)),
                    ("plan_builds", u64_to_json(r.cache.plan_builds)),
                    ("compile_nanos", u64_to_json(r.compile_nanos)),
                    ("exec_nanos", u64_to_json(r.exec_nanos)),
                    ("steps", u64_to_json(r.steps)),
                    ("mem_bytes", u64_to_json(r.mem_bytes)),
                ];
                if let Some(remarks) = &r.remarks {
                    fields.push(("remarks", remarks.clone()));
                }
                if let Some(profile) = &r.profile {
                    fields.push(("profile", profile.clone()));
                }
                Json::obj(fields)
            }
            Response::Pong { id, protocol } => Json::obj(vec![
                ("status", Json::Str("pong".into())),
                ("id", u64_to_json(*id)),
                ("protocol", u64_to_json(*protocol)),
            ]),
            Response::Stats { id, stats } => Json::obj(vec![
                ("status", Json::Str("stats".into())),
                ("id", u64_to_json(*id)),
                ("stats", stats.clone()),
            ]),
            Response::Overloaded { id } => Json::obj(vec![
                ("status", Json::Str("overloaded".into())),
                ("id", u64_to_json(*id)),
            ]),
            Response::Error { id, message } => Json::obj(vec![
                ("status", Json::Str("error".into())),
                ("id", u64_to_json(*id)),
                ("message", Json::Str(message.clone())),
            ]),
            Response::ShuttingDown { id } => Json::obj(vec![
                ("status", Json::Str("shutting_down".into())),
                ("id", u64_to_json(*id)),
            ]),
            Response::DeadlineExceeded { id } => Json::obj(vec![
                ("status", Json::Str("deadline_exceeded".into())),
                ("id", u64_to_json(*id)),
            ]),
            Response::Cancelled { id } => Json::obj(vec![
                ("status", Json::Str("cancelled".into())),
                ("id", u64_to_json(*id)),
            ]),
            Response::ResourceExhausted { id, what, detail } => Json::obj(vec![
                ("status", Json::Str("resource_exhausted".into())),
                ("id", u64_to_json(*id)),
                ("what", Json::Str(what.clone())),
                ("detail", Json::Str(detail.clone())),
            ]),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    /// Describes what is malformed.
    pub fn parse(line: &str) -> Result<Response, String> {
        let j = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let status = j
            .get("status")
            .and_then(Json::as_str)
            .ok_or("missing \"status\" field")?;
        let id = j.get("id").and_then(json_to_u64).unwrap_or(0);
        let strings = |key: &str| -> Vec<String> {
            match j.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|s| s.as_str().map(str::to_string))
                    .collect(),
                _ => Vec::new(),
            }
        };
        match status {
            "pong" => Ok(Response::Pong {
                id,
                protocol: j.get("protocol").and_then(json_to_u64).unwrap_or(0),
            }),
            "stats" => Ok(Response::Stats {
                id,
                stats: j.get("stats").cloned().unwrap_or(Json::Null),
            }),
            "overloaded" => Ok(Response::Overloaded { id }),
            "shutting_down" => Ok(Response::ShuttingDown { id }),
            "deadline_exceeded" => Ok(Response::DeadlineExceeded { id }),
            "cancelled" => Ok(Response::Cancelled { id }),
            "resource_exhausted" => {
                let field = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                Ok(Response::ResourceExhausted {
                    id,
                    what: field("what"),
                    detail: field("detail"),
                })
            }
            "error" => Ok(Response::Error {
                id,
                message: j
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            "ok" => {
                let num = |key: &str| -> Result<u64, String> {
                    j.get(key)
                        .and_then(json_to_u64)
                        .ok_or_else(|| format!("ok response: missing integer field {key:?}"))
                };
                Ok(Response::Ok(Box::new(RunResponse {
                    id,
                    cycles: num("cycles")?,
                    outputs: strings("outputs"),
                    stats: j
                        .get("stats")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    degraded: strings("degraded"),
                    warnings: strings("warnings"),
                    remarks: j.get("remarks").cloned(),
                    profile: j.get("profile").cloned(),
                    cache: CacheInfo {
                        module_hit: matches!(j.get("module_hit"), Some(Json::Bool(true))),
                        plan_shared_hits: num("plan_shared_hits")?,
                        plan_builds: num("plan_builds")?,
                    },
                    compile_nanos: num("compile_nanos")?,
                    exec_nanos: num("exec_nanos")?,
                    // Tolerate protocol-1 responses that predate the
                    // accounting fields.
                    steps: j.get("steps").and_then(json_to_u64).unwrap_or(0),
                    mem_bytes: j.get("mem_bytes").and_then(json_to_u64).unwrap_or(0),
                })))
            }
            other => Err(format!("unknown status {other:?}")),
        }
    }
}

/// Lowercase hex rendering of a byte buffer (the wire form of outputs).
pub fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_matches_format_for_every_byte() {
        let all: Vec<u8> = (0..=255).collect();
        let expected: String = all.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex(&all), expected);
        assert_eq!(hex(&[]), "");
    }

    #[test]
    fn run_request_round_trips() {
        let mut r = RunRequest::new(42, "void main(i64 n) { }", 256);
        r.mode = Mode::GangSync;
        r.verify = "strict".into();
        r.inject = "shape:2".into();
        r.extra_args = vec![u64::MAX, 7];
        r.buffers = vec![
            BufSpec {
                elem: ScalarTy::F32,
                len: 256,
                init: Init::RandomF32 {
                    seed: 9,
                    lo: -1.5,
                    hi: 2.5,
                },
                check: true,
            },
            BufSpec {
                elem: ScalarTy::I64,
                len: 8,
                init: Init::Ramp,
                check: false,
            },
        ];
        r.want_remarks = true;
        let line = Request::Run(Box::new(r.clone()))
            .to_json()
            .to_string_compact();
        let back = Request::parse(&line).expect("round trip");
        let Request::Run(b) = back else {
            panic!("wrong op")
        };
        assert_eq!(b.id, 42);
        assert_eq!(b.mode, Mode::GangSync);
        assert_eq!(b.verify, "strict");
        assert_eq!(b.inject, "shape:2");
        assert_eq!(b.extra_args, vec![u64::MAX, 7]);
        assert_eq!(b.buffers.len(), 2);
        assert_eq!(b.buffers[0].elem, ScalarTy::F32);
        assert!(b.buffers[0].check);
        assert!(b.want_remarks);
        assert!(!b.want_profile);
    }

    #[test]
    fn control_ops_round_trip() {
        for (req, want_op) in [
            (Request::Ping { id: 1 }, "ping"),
            (Request::Stats { id: 2 }, "stats"),
            (Request::Shutdown { id: 3 }, "shutdown"),
        ] {
            let line = req.to_json().to_string_compact();
            assert!(line.contains(want_op));
            Request::parse(&line).expect("round trip");
        }
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!(Request::parse("not json")
            .unwrap_err()
            .contains("malformed"));
        assert!(Request::parse("{\"op\": \"run\"}")
            .unwrap_err()
            .contains("id"));
        assert!(Request::parse("{\"op\": \"nope\", \"id\": 1}")
            .unwrap_err()
            .contains("unknown op"));
    }

    #[test]
    fn run_response_round_trips_and_identity_ignores_wall_time() {
        let r = RunResponse {
            id: 7,
            cycles: 12345,
            outputs: vec![hex(&[0xde, 0xad]), hex(&[0x01])],
            stats: "ExecStats { insts: 10 }".into(),
            degraded: vec!["f: loop".into()],
            warnings: vec![],
            remarks: None,
            profile: None,
            cache: CacheInfo {
                module_hit: true,
                plan_shared_hits: 2,
                plan_builds: 0,
            },
            compile_nanos: 0,
            exec_nanos: 999,
            steps: 10,
            mem_bytes: 4096,
        };
        let line = Response::Ok(Box::new(r.clone()))
            .to_json()
            .to_string_compact();
        let Response::Ok(b) = Response::parse(&line).expect("round trip") else {
            panic!("wrong status")
        };
        assert_eq!(b.cycles, 12345);
        assert_eq!(b.outputs, r.outputs);
        assert!(b.cache.module_hit);
        // identity() must be invariant under wall-time and cache changes.
        let mut hot = r.clone();
        hot.cache.module_hit = false;
        hot.compile_nanos = 1;
        hot.exec_nanos = 2;
        assert_eq!(r.identity(), hot.identity());
    }

    #[test]
    fn budget_fields_round_trip_and_default_requests_stay_protocol_1() {
        // Defaults: no budget keys on the wire at all.
        let plain = RunRequest::new(1, "void main(i64 n) { }", 8);
        let line = Request::Run(Box::new(plain)).to_json().to_string_compact();
        assert!(!line.contains("deadline_ms"));
        assert!(!line.contains("max_steps"));
        assert!(!line.contains("max_mem_bytes"));
        assert!(!line.contains("engine"));
        assert!(!line.contains("target"));
        let Request::Run(b) = Request::parse(&line).unwrap() else {
            panic!("wrong op")
        };
        assert_eq!((b.deadline_ms, b.max_steps, b.max_mem_bytes), (0, 0, 0));
        assert_eq!(b.engine, Engine::Fast);
        assert_eq!(b.target, Target::reference_default());

        // Set budgets survive the round trip.
        let mut r = RunRequest::new(2, "void main(i64 n) { }", 8);
        r.deadline_ms = 250;
        r.max_steps = 1_000_000;
        r.max_mem_bytes = 1 << 20;
        let line = Request::Run(Box::new(r)).to_json().to_string_compact();
        let Request::Run(b) = Request::parse(&line).unwrap() else {
            panic!("wrong op")
        };
        assert_eq!(
            (b.deadline_ms, b.max_steps, b.max_mem_bytes),
            (250, 1_000_000, 1 << 20)
        );
    }

    #[test]
    fn structured_failure_statuses_round_trip() {
        for resp in [
            Response::DeadlineExceeded { id: 4 },
            Response::Cancelled { id: 5 },
            Response::ResourceExhausted {
                id: 6,
                what: "steps".into(),
                detail: "1000 steps allowed".into(),
            },
        ] {
            let line = resp.to_json().to_string_compact();
            let status = Json::parse(&line)
                .unwrap()
                .get("status")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            assert!(
                telemetry::cli::STRUCTURED_FAILURE_STATUSES.contains(&status.as_str()),
                "{status} must be a registered structured failure status"
            );
            let back = Response::parse(&line).expect("round trip");
            match (&resp, &back) {
                (Response::DeadlineExceeded { id: a }, Response::DeadlineExceeded { id: b })
                | (Response::Cancelled { id: a }, Response::Cancelled { id: b }) => {
                    assert_eq!(a, b);
                }
                (
                    Response::ResourceExhausted { id: a, what: w, .. },
                    Response::ResourceExhausted {
                        id: b,
                        what: x,
                        detail,
                    },
                ) => {
                    assert_eq!((a, w.as_str()), (b, x.as_str()));
                    assert!(detail.contains("1000"));
                }
                other => panic!("mismatched round trip: {other:?}"),
            }
        }
    }

    #[test]
    fn engine_field_round_trips_and_rejects_unknown_values() {
        let mut r = RunRequest::new(9, "void main(i64 n) { }", 8);
        r.engine = Engine::Native;
        let line = Request::Run(Box::new(r)).to_json().to_string_compact();
        assert!(line.contains("\"engine\""));
        let Request::Run(b) = Request::parse(&line).unwrap() else {
            panic!("wrong op")
        };
        assert_eq!(b.engine, Engine::Native);

        let bad = "{\"op\": \"run\", \"id\": 1, \"source\": \"\", \"n\": 8, \
                   \"engine\": \"turbo\"}";
        assert!(Request::parse(bad).unwrap_err().contains("bad engine"));
    }

    #[test]
    fn target_field_round_trips_and_rejects_unknown_values() {
        let mut r = RunRequest::new(10, "void main(i64 n) { }", 8);
        r.target = Target::sve(256);
        let line = Request::Run(Box::new(r)).to_json().to_string_compact();
        assert!(line.contains("\"target\""));
        assert!(line.contains("sve-vla:256"));
        let Request::Run(b) = Request::parse(&line).unwrap() else {
            panic!("wrong op")
        };
        assert_eq!(b.target, Target::sve(256));

        let bad = "{\"op\": \"run\", \"id\": 1, \"source\": \"\", \"n\": 8, \
                   \"target\": \"neon\"}";
        assert!(Request::parse(bad).unwrap_err().contains("bad target"));
    }

    #[test]
    fn u64_bit_pattern_survives_the_wire() {
        for v in [0u64, 1, u64::MAX, 1 << 63, 0x8000_0000_0000_0001] {
            assert_eq!(json_to_u64(&u64_to_json(v)), Some(v));
        }
    }
}
