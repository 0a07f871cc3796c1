//! End-to-end benchmark of the Parsimony reproduction: the compiler
//! (`psimc` + the `parsimony` pipeline), the interpreter (`psir`) that
//! regenerates the figures, and the `psim-serve` daemon.
//!
//! Each workload builds a seeded op sequence, sets up (several times; the
//! median is `setup_s`), runs the sequence for a fixed time with tracing
//! off, and checks every output against an independent reference. The
//! end-to-end timings come from the run's quietest quarter
//! ([`stats::Phase::quiet_quarter`]). With
//! tracing on it then reruns the sequence with spans around each layer
//! call, replays every 10th op in process through each layer's public
//! calls, and takes exact counts over a fixed probe set: the per-layer
//! metrics. See `README.md` for the workloads and the metric tables.

pub mod exec;
pub mod items;
pub mod replay;
pub mod report;
pub mod server;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run: at least [`MIN_SETUPS`], and more while they add up to
/// less than [`SETUP_SECONDS`] (so a set-up of a few milliseconds still
/// gets a steady median), up to [`MAX_SETUPS`]. `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;

/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 100;

/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 1.0;

/// Whether another set-up should run after those timed in `setup_s`.
pub fn more_setups(setup_s: &[f64]) -> bool {
    setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
}

/// Every `REPLAY_EVERY`-th traced op is replayed in process.
pub const REPLAY_EVERY: u64 = 10;

/// Upper bound on replayed ops per run, so long traced runs stay bounded.
pub const MAX_REPLAYS: usize = 600;

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Compile one module per op through `psimc` and the pipeline.
    Compile,
    /// Execute one suite kernel run per op on the interpreter.
    Run,
    /// Warm-cache serving of the suite and corpus on both engines.
    ServeHot,
    /// Never-seen fuzz programs over engine × target legs.
    ServeFresh,
    /// Both connections send the same request each round.
    ServeShared,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::Compile,
        Workload::Run,
        Workload::ServeHot,
        Workload::ServeFresh,
        Workload::ServeShared,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Run => "run",
            Workload::ServeHot => "serve-hot",
            Workload::ServeFresh => "serve-fresh",
            Workload::ServeShared => "serve-shared",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time of the run: the untraced phase, or with `trace` the
    /// untraced and the traced phase, half each.
    pub seconds: f64,
    /// Whether to add the traced phase and report per-layer metrics.
    pub trace: bool,
    /// The `psim-serve` executable.
    pub serve_bin: PathBuf,
    /// Where `trace-<workload>.json` is written.
    pub out_dir: PathBuf,
}

impl Config {
    /// Length of one measured phase, seconds. A traced run splits its time
    /// between its two phases, so it takes no longer than an untraced one.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// When a measured phase starting now ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.phase_seconds())
    }
}

/// Checked ops and the failures among them.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Wrong outputs, non-`ok` statuses, drops and refusals.
    pub failed: u64,
    /// The first few failure descriptions.
    pub first: Vec<String>,
}

impl Tally {
    /// Counts a passing op.
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failing op.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.record_many(1, why);
    }

    /// Counts as failed, for one reason, `n` ops already attempted: ops whose
    /// check against a set-up result passed, when that result turns out
    /// to differ from the reference.
    pub fn record_many(&mut self, n: u64, why: String) {
        self.failed += n;
        if self.first.len() < 10 {
            self.first.push(why);
        }
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// FNV-1a over the op sequence.
    pub fingerprint: u64,
    /// Each set-up's wall time, seconds.
    pub setup_s: Vec<f64>,
    /// The untraced phase.
    pub untraced: stats::Phase,
    /// Peak resident set of the process doing the work, MiB.
    pub rss_mib: f64,
    /// Output checks over every phase.
    pub tally: Tally,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Vec<report::Metric>>,
}

/// Milliseconds between two instants.
pub fn ms(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// Runs one workload.
///
/// # Errors
/// Set-up failures (a daemon that does not start, a reference that
/// cannot be computed). Wrong outputs are not errors; they are counted in
/// [`Outcome::tally`].
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload {
        Workload::Compile => workloads::compile::run(cfg),
        Workload::Run => workloads::interp::run(cfg),
        Workload::ServeHot | Workload::ServeFresh | Workload::ServeShared => {
            workloads::serve::run(cfg)
        }
    }
}
