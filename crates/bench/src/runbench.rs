//! Wall-clock execution benchmark for the interpreter's optimized engines.
//!
//! Every Figure 4/5 cycle count comes from dynamically executing vector IR
//! through the `psir` interpreter, so the interpreter's *wall-clock* speed
//! bounds how large a workload the harnesses can afford. This module times
//! the suite kernels end-to-end under a **subject** engine and its
//! **baseline**:
//!
//! * `--engine fast` (the default): the precompiled `FramePlan` fast path
//!   against the reference engine's per-step loop.
//! * `--engine native`: the native tier (fused block kernels over a
//!   compacted register file) against the fast engine, additionally
//!   reporting how many blocks dynamically bailed out to the exact path
//!   (zero on the hot suite kernels).
//!
//! Each mode reports best-of-`iters` wall time per kernel, the geomean
//! speedup, and whether the engines were **byte-identical** in simulated
//! cycles, checked outputs, execution statistics, and profile JSON (the
//! identity contract CI gates on with `--check`).
//!
//! Used by the `runbench` binary and the CI `run-time`/`native` jobs; the
//! committed `BENCH_runbench.json` and `BENCH_runbench_native.json`
//! baselines record the perf trajectory.

use psir::Engine;
use std::time::Instant;
use suite::runner::{
    build_module, geomean, run_module_engine, run_module_engine_shared, Config, RunResult,
};
use suite::Kernel;
use telemetry::Json;
use vmach::{Target, TargetCost};

/// Configuration of one execution-time measurement.
#[derive(Debug, Clone)]
pub struct RunBenchConfig {
    /// Workload size for the Simd-Library kernel set (elements; must be a
    /// positive multiple of 256).
    pub n: u64,
    /// Timed repetitions per kernel and engine; the best (minimum) wall
    /// time is reported to suppress scheduler noise.
    pub iters: usize,
    /// The engine under test. [`Engine::Fast`] is timed against the
    /// reference engine, [`Engine::Native`] against the fast engine;
    /// [`Engine::Reference`] *is* the baseline and is rejected.
    pub engine: Engine,
    /// The machine simulated cycles are priced against. Subject and
    /// baseline engines share it (the identity contract is per target),
    /// and it is recorded in the report meta so per-target baseline files
    /// cannot be compared across targets by accident.
    pub target: Target,
}

impl Default for RunBenchConfig {
    fn default() -> RunBenchConfig {
        RunBenchConfig {
            n: 4096,
            iters: 3,
            engine: Engine::Fast,
            target: Target::reference_default(),
        }
    }
}

impl RunBenchConfig {
    /// The engine the subject is timed against.
    ///
    /// # Errors
    /// [`Engine::Reference`] has no baseline (it is the baseline).
    pub fn baseline_engine(&self) -> Result<Engine, String> {
        match self.engine {
            Engine::Fast => Ok(Engine::Reference),
            Engine::Native => Ok(Engine::Fast),
            Engine::Reference => Err("runbench: the reference engine is the baseline; \
                 --engine takes fast or native"
                .into()),
        }
    }

    /// JSON field names for the subject and baseline wall times. The
    /// default mode keeps the historical `fast_nanos`/`reference_nanos`
    /// schema of `BENCH_runbench.json`.
    fn nanos_keys(&self) -> (&'static str, &'static str) {
        match self.engine {
            Engine::Native => ("native_nanos", "fast_nanos"),
            _ => ("fast_nanos", "reference_nanos"),
        }
    }

    /// The mode tag recorded in the report meta.
    fn mode(&self) -> &'static str {
        match self.engine {
            Engine::Native => "native-vs-fast",
            _ => "fast-vs-reference",
        }
    }
}

/// Per-kernel timing of the subject engine against its baseline.
#[derive(Debug, Clone)]
pub struct RunBenchRow {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label (the vectorized module that was executed).
    pub config: &'static str,
    /// Simulated cycles (identical for both engines when `identical`).
    pub cycles: u64,
    /// Best subject-engine wall time, nanoseconds.
    pub subject_nanos: u64,
    /// Best baseline-engine wall time, nanoseconds.
    pub baseline_nanos: u64,
    /// Native-tier blocks that dynamically bailed out to the exact path
    /// during one subject run (0 in the default mode).
    pub native_bailouts: u64,
    /// Whether cycles, checked outputs, execution statistics, and profile
    /// JSON were byte-identical between the engines.
    pub identical: bool,
}

impl RunBenchRow {
    /// Baseline wall time over subject wall time (higher = subject engine
    /// faster).
    pub fn speedup(&self) -> f64 {
        self.baseline_nanos as f64 / self.subject_nanos.max(1) as f64
    }
}

/// Result of a full suite sweep.
#[derive(Debug, Clone)]
pub struct RunBenchReport {
    /// The configuration measured.
    pub config: RunBenchConfig,
    /// Per-kernel timings.
    pub rows: Vec<RunBenchRow>,
}

impl RunBenchReport {
    /// Geomean of per-kernel wall-clock speedups (baseline / subject).
    pub fn geomean_speedup(&self) -> f64 {
        let xs: Vec<f64> = self.rows.iter().map(RunBenchRow::speedup).collect();
        geomean(&xs)
    }

    /// Whether every kernel was engine-identical.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Total native-tier bailouts across all kernels (0 in the default
    /// mode).
    pub fn total_bailouts(&self) -> u64 {
        self.rows.iter().map(|r| r.native_bailouts).sum()
    }

    /// Serializes the report to a JSON object (the CI artifact and
    /// `BENCH_runbench[_native].json` baseline format).
    pub fn to_json(&self) -> Json {
        let (subject_key, baseline_key) = self.config.nanos_keys();
        let native = self.config.engine == Engine::Native;
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let mut fields = vec![
                    ("kernel", Json::Str(r.kernel.clone())),
                    ("config", Json::Str(r.config.to_string())),
                    ("cycles", Json::u64(r.cycles)),
                    (subject_key, Json::u64(r.subject_nanos)),
                    (baseline_key, Json::u64(r.baseline_nanos)),
                    ("speedup", Json::Num(r.speedup())),
                    ("identical", Json::Bool(r.identical)),
                ];
                if native {
                    fields.push(("bailouts", Json::u64(r.native_bailouts)));
                }
                Json::obj(fields)
            })
            .collect();
        let mut fields = vec![
            (
                "meta",
                telemetry::cli::bench_meta(
                    "runbench",
                    vec![
                        ("n", Json::u64(self.config.n)),
                        ("iters", Json::u64(self.config.iters as u64)),
                        // Cache-relevant sweep description: which kernel
                        // sets and gang configurations the rows cover.
                        (
                            "gang_config",
                            Json::Str("simdlib×parsimony + ispc(tiny)×{parsimony,gangsync}".into()),
                        ),
                        ("engine", Json::Str(self.config.mode().into())),
                        ("target", Json::Str(self.config.target.flag_name())),
                    ],
                ),
            ),
            ("n", Json::u64(self.config.n)),
            ("iters", Json::u64(self.config.iters as u64)),
            ("geomean_speedup", Json::Num(self.geomean_speedup())),
            ("identical", Json::Bool(self.all_identical())),
            ("kernels", Json::u64(self.rows.len() as u64)),
        ];
        if native {
            fields.push(("bailouts", Json::u64(self.total_bailouts())));
        }
        fields.push(("rows", Json::Arr(rows)));
        Json::obj(fields)
    }

    /// Renders the human-readable summary (worst and best kernels plus the
    /// aggregate line; the full per-kernel table lives in the JSON).
    pub fn render_text(&self) -> String {
        let native = self.config.engine == Engine::Native;
        let (subject_col, baseline_col) = if native {
            ("native (us)", "fast (us)")
        } else {
            ("fast (us)", "ref (us)")
        };
        let mut out = String::new();
        out.push_str(&format!(
            "runbench[{}]: {} kernel(s), n={}, {} iteration(s) per engine\n",
            self.config.mode(),
            self.rows.len(),
            self.config.n,
            self.config.iters
        ));
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>8}  identical\n",
            "kernel", subject_col, baseline_col, "speedup"
        ));
        let mut ranked: Vec<&RunBenchRow> = self.rows.iter().collect();
        ranked.sort_by(|a, b| {
            a.speedup()
                .partial_cmp(&b.speedup())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let shown: Vec<&RunBenchRow> = if ranked.len() > 10 {
            ranked
                .iter()
                .take(5)
                .chain(ranked.iter().rev().take(5).rev())
                .copied()
                .collect()
        } else {
            ranked
        };
        for r in &shown {
            out.push_str(&format!(
                "{:<28} {:>12.1} {:>12.1} {:>7.2}x  {}\n",
                format!("{}/{}", r.kernel, r.config),
                r.subject_nanos as f64 / 1e3,
                r.baseline_nanos as f64 / 1e3,
                r.speedup(),
                if r.identical { "yes" } else { "NO" }
            ));
        }
        if shown.len() < self.rows.len() {
            out.push_str(&format!(
                "  ... ({} more kernels in the JSON report)\n",
                self.rows.len() - shown.len()
            ));
        }
        out.push_str(&format!(
            "geomean speedup      : {:>7.2}x\n",
            self.geomean_speedup()
        ));
        out.push_str(&format!(
            "engines identical    : {}\n",
            if self.all_identical() { "yes" } else { "NO" }
        ));
        if native {
            out.push_str(&format!(
                "native bailouts      : {}\n",
                self.total_bailouts()
            ));
        }
        out
    }
}

/// One timed execution of a built module under `engine` (unprofiled, the
/// configuration the harnesses run in). All runs of one kernel share a
/// plan cache, so the measurement amortizes plan construction (frame
/// plans, and through them the native tier's lowering) across iterations
/// exactly as the serving path's warm runs do — both engines benefit
/// identically, keeping the comparison fair.
fn timed_run(
    module: &psir::Module,
    k: &Kernel,
    cost: &TargetCost,
    engine: Engine,
    plans: &std::sync::Arc<psir::PlanCache>,
) -> Result<(u64, RunResult), String> {
    let t = Instant::now();
    let r = run_module_engine_shared(module, k, cost, false, engine, plans, 0)?;
    Ok((t.elapsed().as_nanos() as u64, r))
}

/// Benchmarks one kernel/config pair: best-of-`iters` wall time per
/// engine, plus a profiled identity run per engine.
fn bench_kernel(
    k: &Kernel,
    cfg_label: &'static str,
    config: Config,
    iters: usize,
    subject: Engine,
    baseline: Engine,
    target: &Target,
) -> Result<RunBenchRow, String> {
    let module = build_module(k, config).map_err(|e| format!("{}: {e}", k.name))?;
    let cost = TargetCost::for_target(target.clone());
    // One cache per kernel (module_id 0): subject and baseline share the
    // same frame plans, so neither engine pays plan construction inside
    // the timed region after its first iteration.
    let plans = std::sync::Arc::new(psir::PlanCache::new(1 << 20));

    let mut best: [Option<(u64, RunResult)>; 2] = [None, None];
    for (slot, engine) in [(0, subject), (1, baseline)] {
        for _ in 0..iters {
            let (nanos, r) = timed_run(&module, k, &cost, engine, &plans)
                .map_err(|e| format!("{}[{engine:?}]: {e}", k.name))?;
            if best[slot].as_ref().is_none_or(|(b, _)| nanos < *b) {
                best[slot] = Some((nanos, r));
            }
        }
    }
    let [subj, base] = best;
    let (subject_nanos, subj_r) = subj.ok_or("runbench: no subject run completed")?;
    let (baseline_nanos, base_r) = base.ok_or("runbench: no baseline run completed")?;

    // Identity: cycles / outputs / stats from the timed runs, profile JSON
    // from one profiled run per engine.
    let profile_json = |engine: Engine| -> Result<String, String> {
        let r = run_module_engine(&module, k, &cost, true, engine)
            .map_err(|e| format!("{}[{engine:?}]: {e}", k.name))?;
        Ok(r.profile
            .map(|p| p.to_json().to_string_pretty())
            .unwrap_or_default())
    };
    let identical = subj_r.cycles == base_r.cycles
        && subj_r.outputs == base_r.outputs
        && subj_r.stats == base_r.stats
        && profile_json(subject)? == profile_json(baseline)?;

    Ok(RunBenchRow {
        kernel: k.name.clone(),
        config: cfg_label,
        cycles: subj_r.cycles,
        subject_nanos,
        baseline_nanos,
        native_bailouts: subj_r.native_bailouts,
        identical,
    })
}

/// Runs the full suite sweep: every Simd-Library kernel (Figure 5's set)
/// executed as its Parsimony-vectorized module, plus the ispc suite
/// (Figure 4's set, tiny sizes) under both the Parsimony and
/// gang-synchronous configurations.
///
/// # Errors
/// Reports build failures and runtime traps with kernel context.
pub fn run(cfg: &RunBenchConfig) -> Result<RunBenchReport, String> {
    if cfg.iters == 0 {
        return Err("runbench: iters must be >= 1".into());
    }
    if cfg.n == 0 || !cfg.n.is_multiple_of(256) {
        return Err("runbench: n must be a positive multiple of 256".into());
    }
    let baseline = cfg.baseline_engine()?;
    let mut rows = Vec::new();
    for k in suite::simdlib::kernels(cfg.n) {
        rows.push(bench_kernel(
            &k,
            Config::Parsimony.label(),
            Config::Parsimony,
            cfg.iters,
            cfg.engine,
            baseline,
            &cfg.target,
        )?);
    }
    for k in suite::ispc::kernels(suite::ispc::IspcSizes::tiny()) {
        for config in [Config::Parsimony, Config::GangSync] {
            rows.push(bench_kernel(
                &k,
                config.label(),
                config,
                cfg.iters,
                cfg.engine,
                baseline,
                &cfg.target,
            )?);
        }
    }
    Ok(RunBenchReport {
        config: cfg.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_kernel_is_identical_and_reports() {
        let k = suite::simdlib::kernels(256)
            .into_iter()
            .next()
            .expect("suite has kernels");
        let row = bench_kernel(
            &k,
            Config::Parsimony.label(),
            Config::Parsimony,
            1,
            Engine::Fast,
            Engine::Reference,
            &Target::reference_default(),
        )
        .expect("kernel benches");
        assert!(row.identical, "engines must agree on {}", row.kernel);
        assert!(row.cycles > 0);
        let report = RunBenchReport {
            config: RunBenchConfig {
                n: 256,
                iters: 1,
                engine: Engine::Fast,
                target: Target::reference_default(),
            },
            rows: vec![row],
        };
        let j = report.to_json().to_string_pretty();
        assert!(j.contains("\"geomean_speedup\""));
        assert!(j.contains("\"identical\": true"));
        assert!(j.contains("\"fast_nanos\""));
        assert!(j.contains("\"reference_nanos\""));
        assert!(!j.contains("\"bailouts\""));
        assert!(report.render_text().contains("geomean speedup"));
    }

    #[test]
    fn native_mode_reports_bailouts_and_identity() {
        let k = suite::simdlib::kernels(256)
            .into_iter()
            .next()
            .expect("suite has kernels");
        let row = bench_kernel(
            &k,
            Config::Parsimony.label(),
            Config::Parsimony,
            1,
            Engine::Native,
            Engine::Fast,
            &Target::reference_default(),
        )
        .expect("kernel benches");
        assert!(row.identical, "native must match fast on {}", row.kernel);
        assert_eq!(row.native_bailouts, 0, "suite kernels must run fully fused");
        let report = RunBenchReport {
            config: RunBenchConfig {
                n: 256,
                iters: 1,
                engine: Engine::Native,
                target: Target::reference_default(),
            },
            rows: vec![row],
        };
        let j = report.to_json().to_string_pretty();
        assert!(j.contains("\"native_nanos\""));
        assert!(j.contains("\"fast_nanos\""));
        assert!(j.contains("\"bailouts\": 0"));
        assert!(j.contains("native-vs-fast"));
        assert!(report.render_text().contains("native bailouts"));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(run(&RunBenchConfig {
            n: 100,
            iters: 1,
            ..RunBenchConfig::default()
        })
        .is_err());
        assert!(run(&RunBenchConfig {
            n: 256,
            iters: 0,
            ..RunBenchConfig::default()
        })
        .is_err());
        assert!(run(&RunBenchConfig {
            n: 256,
            iters: 1,
            engine: Engine::Reference,
            ..RunBenchConfig::default()
        })
        .is_err());
    }
}
