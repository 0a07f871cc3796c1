//! Module-level driver: run the Parsimony pass over every SPMD-annotated
//! function in a module, exactly as the paper inserts its single IR-to-IR
//! pass into an existing pipeline (§4).
//!
//! The driver is **fault tolerant**: a region that fails vectorization, or
//! whose vector output fails in-pipeline verification, does not abort the
//! module. Instead it is emitted as a scalar gang-serialized loop (the
//! §4.2 serialization mechanism, see [`crate::fallback`]), a
//! warning-severity [`RemarkKind::Degraded`] remark carries the located
//! diagnostic, and compilation continues with the remaining regions.
//! Residual panics deep inside a pass are caught at this boundary
//! ([`crate::fault::catch_pass_panic`]) and attributed to the active pass.
//! Only two things are hard errors: `--verify=strict`, and a failing region
//! that cannot be serialized (it uses horizontal operations, which have no
//! lane-at-a-time schedule).
//!
//! The driver is also **parallel**: each SPMD region is built independently
//! (a region's vectorization reads only the immutable input module), so the
//! driver fans the regions out across [`PipelineOptions::jobs`] scoped
//! worker threads and merges the per-region results back **in original
//! region order**. The printed module, the remark stream, the
//! vectorized/degraded lists, and the error returned for a fatal region are
//! all byte-identical to a serial (`jobs = 1`) run; only the wall-clock
//! attribution in [`PipelineOutput::timings`] reflects the schedule. Fault
//! injection stays deterministic because each worker re-arms the injector
//! on its own thread (see [`crate::fault`]): an armed site fires in every
//! region that reaches it, on whatever thread builds that region.

use crate::fallback;
use crate::fault::{self, FaultInjector};
use crate::transform::{vectorize_function_with, VectorizeError, VectorizeOptions};
use psir::{Function, Inst, Intrinsic, Module};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{CompileTimings, Diagnostic, Pass, RegionTiming, Remark, RemarkKind, Severity};

/// When the pipeline runs `psir::verify` on its own output, and what a
/// verification failure does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// No in-pipeline verification.
    Off,
    /// Verify every produced variant; a failure degrades the region to the
    /// scalar serialized fallback (the default).
    #[default]
    Fallback,
    /// Verify every produced variant; any failure — verification or
    /// vectorization — is a hard located error.
    Strict,
}

impl VerifyMode {
    /// Parses the `--verify=` flag value.
    pub fn parse(s: &str) -> Option<VerifyMode> {
        Some(match s {
            "off" => VerifyMode::Off,
            "fallback" => VerifyMode::Fallback,
            "strict" => VerifyMode::Strict,
            _ => return None,
        })
    }

    /// Stable flag-value name.
    pub fn name(self) -> &'static str {
        match self {
            VerifyMode::Off => "off",
            VerifyMode::Fallback => "fallback",
            VerifyMode::Strict => "strict",
        }
    }
}

/// Environment variable overriding the default worker count (the `-j` flag
/// of the CLIs takes precedence over it).
pub const JOBS_ENV_VAR: &str = "PSIM_JOBS";

/// The default worker count: `PSIM_JOBS` when set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::env::var(JOBS_ENV_VAR)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Driver-level configuration, separate from the per-function
/// [`VectorizeOptions`].
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// In-pipeline verification mode.
    pub verify: VerifyMode,
    /// Armed fault injector, if any (tests pass one explicitly; the
    /// [`Default`] impl consults the `PSIM_INJECT_FAULT` environment
    /// variable).
    pub inject: Option<FaultInjector>,
    /// Worker threads for the region fan-out. Values are clamped to at
    /// least 1 and at most the region count; `1` is the serial path (no
    /// threads spawned). The [`Default`] impl uses [`default_jobs`].
    pub jobs: usize,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions {
            verify: VerifyMode::Fallback,
            inject: FaultInjector::from_env(),
            jobs: default_jobs(),
        }
    }
}

impl PipelineOptions {
    /// Returns the options with the worker count replaced.
    pub fn with_jobs(mut self, jobs: usize) -> PipelineOptions {
        self.jobs = jobs;
        self
    }
}

/// Result of vectorizing a module.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The module with `<region>__full` / `<region>__partial` vector
    /// functions added (scalar functions, including the annotated
    /// originals, are preserved). Degraded regions contribute scalar
    /// serialized functions under the same names instead.
    pub module: Module,
    /// All compile-time warnings across regions (derived from `remarks` —
    /// the text of every warning-severity remark, kept for compatibility).
    pub warnings: Vec<String>,
    /// Structured optimization remarks from every pass, across regions.
    pub remarks: Vec<Remark>,
    /// Names of the regions that were vectorized.
    pub vectorized: Vec<String>,
    /// Names of the regions that fell back to the scalar gang-serialized
    /// loop; each has a matching [`RemarkKind::Degraded`] warning remark.
    pub degraded: Vec<String>,
    /// Wall-clock compile-time attribution: per-region build times (in
    /// original region order) plus the worker count and total wall time.
    /// Unlike every other field, this is measurement metadata and varies
    /// run to run.
    pub timings: CompileTimings,
}

/// Vectorizes every SPMD function in `m`, adding the full and partial
/// specializations the gang loop (Listing 6) calls, then re-inlines the
/// *full* specialization into its call sites (§4.1: the back-end re-inlines
/// the vectorized function to avoid the call overhead; the cold tail call
/// stays out of line). Uses [`PipelineOptions::default`]: verification in
/// fallback mode, fault injection from the environment, worker count from
/// [`default_jobs`].
///
/// # Errors
/// Fails only for a failing region that cannot be scalar-serialized (it
/// uses horizontal operations); all other region failures degrade to the
/// serialized fallback and are reported through `degraded`/`remarks`.
pub fn vectorize_module(
    m: &Module,
    opts: &VectorizeOptions,
) -> Result<PipelineOutput, VectorizeError> {
    vectorize_module_with(m, opts, &PipelineOptions::default())
}

/// [`vectorize_module`] with explicit driver options.
///
/// # Errors
/// In [`VerifyMode::Strict`], any region failure is a hard located error.
/// Otherwise only a non-serializable failing region fails the module.
pub fn vectorize_module_with(
    m: &Module,
    opts: &VectorizeOptions,
    popts: &PipelineOptions,
) -> Result<PipelineOutput, VectorizeError> {
    fault::with_injector(popts.inject.clone(), || drive(m, opts, popts))
}

/// One region's successfully built vector variants.
struct BuiltRegion {
    funcs: Vec<Function>,
    remarks: Vec<Remark>,
    inline_targets: Vec<String>,
}

/// Everything the merge phase needs to know about one region, produced
/// independently (possibly on a worker thread) by [`region_outcome`].
enum RegionOutcome {
    /// All vector variants built and verified.
    Built(BuiltRegion),
    /// The region failed but was serialized to the scalar fallback; `funcs`
    /// are already verified.
    Degraded {
        funcs: Vec<Function>,
        diag: Diagnostic,
    },
    /// The region was skipped with a remark (non-strict missing-function
    /// path).
    Skipped(Remark),
    /// A hard error: strict-mode failure, or a failing region that cannot
    /// be serialized. The merge phase returns the first fatal outcome **in
    /// region order**, matching what a serial run would have reported.
    Fatal(Box<VectorizeError>),
}

/// A region outcome plus its wall-clock attribution.
struct RegionReport {
    outcome: RegionOutcome,
    nanos: u64,
    worker: usize,
}

fn drive(
    m: &Module,
    opts: &VectorizeOptions,
    popts: &PipelineOptions,
) -> Result<PipelineOutput, VectorizeError> {
    let t0 = Instant::now();
    let names = m.spmd_functions();
    let jobs = popts.jobs.clamp(1, names.len().max(1));

    // Gather phase: build every region independently. `jobs = 1` runs on
    // the calling thread (and short-circuits on a fatal region, like the
    // historical serial driver); otherwise the regions fan out over a
    // scoped worker pool pulling indices from a shared queue.
    let reports: Vec<RegionReport> = if jobs <= 1 {
        let mut reports = Vec::with_capacity(names.len());
        for name in &names {
            let t = Instant::now();
            let outcome = region_outcome(m, name, opts, popts);
            let fatal = matches!(outcome, RegionOutcome::Fatal(_));
            reports.push(RegionReport {
                outcome,
                nanos: t.elapsed().as_nanos() as u64,
                worker: 0,
            });
            if fatal {
                break;
            }
        }
        reports
    } else {
        fan_out(m, &names, opts, popts, jobs)
    };

    // Merge phase: single-owner mutation of the output module and the
    // telemetry streams, strictly in original region order, so the result
    // is byte-identical to a serial run.
    let mut out = m.clone();
    let mut remarks = Vec::new();
    let mut vectorized = Vec::new();
    let mut degraded = Vec::new();
    let mut inline_targets = Vec::new();
    let mut timings = CompileTimings {
        jobs,
        wall_nanos: 0,
        regions: Vec::with_capacity(reports.len()),
    };
    for (name, report) in names.iter().zip(reports) {
        timings.regions.push(RegionTiming {
            region: name.clone(),
            nanos: report.nanos,
            worker: report.worker,
        });
        match report.outcome {
            RegionOutcome::Built(b) => {
                for func in b.funcs {
                    out.add_function(func);
                }
                remarks.extend(b.remarks);
                inline_targets.extend(b.inline_targets);
                vectorized.push(name.clone());
            }
            RegionOutcome::Skipped(r) => remarks.push(r),
            RegionOutcome::Degraded { funcs, diag } => {
                for func in funcs {
                    out.add_function(func);
                }
                remarks.push(Remark::new(
                    Pass::Pipeline,
                    Severity::Warning,
                    name,
                    RemarkKind::Degraded {
                        region: name.clone(),
                        reason: diag.to_string(),
                    },
                ));
                degraded.push(name.clone());
            }
            RegionOutcome::Fatal(e) => return Err(*e),
        }
    }

    fault::pass_scope(Pass::Opt, || {
        crate::opt::inline_calls(&mut out, &inline_targets);
        let caller_names: Vec<String> = out
            .functions()
            .filter(|f| f.spmd.is_none())
            .map(|f| f.name.clone())
            .collect();
        for name in caller_names {
            // Degraded regions' fallback bodies are cold correctness paths;
            // leave them as emitted.
            if degraded.iter().any(|r| name.starts_with(r.as_str())) {
                continue;
            }
            if let Some(f) = out.function_mut(&name) {
                crate::opt::cleanup(f);
            }
        }
    });
    timings.wall_nanos = t0.elapsed().as_nanos() as u64;
    Ok(PipelineOutput {
        module: out,
        warnings: telemetry::warnings_of(&remarks),
        remarks,
        vectorized,
        degraded,
        timings,
    })
}

/// Fans the regions out across `jobs` scoped worker threads. Workers pull
/// region indices from a shared atomic queue and deposit their report in a
/// per-region slot, so the returned vector is in region order regardless of
/// completion order. Each worker re-arms the fault injector on its own
/// thread (injection state is thread-local) so `PSIM_INJECT_FAULT` fires at
/// the same sites a serial run would hit.
fn fan_out(
    m: &Module,
    names: &[String],
    opts: &VectorizeOptions,
    popts: &PipelineOptions,
    jobs: usize,
) -> Vec<RegionReport> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RegionReport>>> = names.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for worker in 0..jobs {
            let next = &next;
            let slots = &slots;
            s.spawn(move || {
                fault::with_injector(popts.inject.clone(), || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(name) = names.get(i) else { break };
                    let t = Instant::now();
                    let outcome = region_outcome(m, name, opts, popts);
                    let report = RegionReport {
                        outcome,
                        nanos: t.elapsed().as_nanos() as u64,
                        worker,
                    };
                    match slots[i].lock() {
                        Ok(mut slot) => *slot = Some(report),
                        Err(poisoned) => *poisoned.into_inner() = Some(report),
                    }
                })
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let filled = match slot.into_inner() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Every index handed out is filled before its worker exits; an
            // empty slot would be a driver bug, reported as a located
            // diagnostic rather than a panic.
            filled.unwrap_or_else(|| RegionReport {
                outcome: RegionOutcome::Fatal(Box::new(VectorizeError::Invalid(Diagnostic::new(
                    Pass::Pipeline,
                    &names[i],
                    "internal error: worker produced no outcome for region",
                )))),
                nanos: 0,
                worker: 0,
            })
        })
        .collect()
}

/// Builds one region end to end — vectorize + cleanup + verify, degrading
/// to the scalar serialized fallback on failure — without touching any
/// shared state. This is the unit of work of the fan-out; its behavior per
/// region is exactly the historical serial driver's.
fn region_outcome(
    m: &Module,
    name: &str,
    opts: &VectorizeOptions,
    popts: &PipelineOptions,
) -> RegionOutcome {
    let fatal = |e: VectorizeError| RegionOutcome::Fatal(Box::new(e));
    let Some(f) = m.function(name) else {
        // Unreachable from `spmd_functions`, but a lookup mismatch must
        // not take down the driver (it used to be an `.expect`).
        let d = Diagnostic::new(
            Pass::Pipeline,
            name,
            "listed SPMD function missing from module",
        );
        if popts.verify == VerifyMode::Strict {
            return fatal(VectorizeError::Invalid(d));
        }
        return RegionOutcome::Skipped(d.to_remark());
    };
    // Head-gang peeling applies when the region queries the predicate.
    let uses_head = f.block_ids().any(|b| {
        f.block(b).insts.iter().any(|&i| {
            matches!(
                f.inst(i),
                Inst::Intrin {
                    kind: Intrinsic::IsHeadGang,
                    ..
                }
            )
        })
    });

    // Everything pass-shaped runs behind the catch_unwind boundary so a
    // panic anywhere inside structurize/shape/transform/opt/verify is
    // attributed and handled like an ordinary pass error.
    let built = fault::catch_pass_panic(|| build_region(f, opts, popts, uses_head));
    let diag = match built {
        Ok(Ok(b)) => return RegionOutcome::Built(b),
        Ok(Err(d)) => d,
        Err(msg) => {
            let pass = fault::current_pass();
            fault::reset_current_pass();
            Diagnostic::new(pass, name, format!("internal error (caught panic): {msg}"))
        }
    };
    if popts.verify == VerifyMode::Strict {
        return fatal(VectorizeError::Invalid(diag));
    }
    // Graceful degradation: emit the region as a scalar gang-serialized
    // loop under the same __full/__partial/__head names, record the
    // diagnostic on a warning remark, and keep compiling.
    let fb_funcs = match fallback::serialize_region(f, uses_head) {
        Ok(funcs) => funcs,
        Err(mut d2) => {
            d2.message = format!("{} (region failed with: {diag})", d2.message);
            return fatal(VectorizeError::Invalid(d2));
        }
    };
    for func in &fb_funcs {
        // The fallback generator is simple enough to verify its own
        // output unconditionally; a failure here is a driver bug, not
        // user input, so it is a hard error even in fallback mode.
        if let Some(e) = psir::verify_function(func).first() {
            let mut d = Diagnostic::new(
                Pass::Pipeline,
                &func.name,
                format!("serialized fallback failed verification: {}", e.msg),
            );
            if let Some(b) = e.block {
                d = d.at_block(b.0);
            }
            if let Some(i) = e.inst {
                d = d.at_inst(i.0);
            }
            return fatal(VectorizeError::Invalid(d));
        }
    }
    RegionOutcome::Degraded {
        funcs: fb_funcs,
        diag,
    }
}

/// Builds every vector variant of one region: vectorize, clean up, verify.
/// Any failure comes back as a located [`Diagnostic`].
fn build_region(
    f: &Function,
    opts: &VectorizeOptions,
    popts: &PipelineOptions,
    uses_head: bool,
) -> Result<BuiltRegion, Diagnostic> {
    let mut variants = Vec::new();
    if uses_head {
        // The peeled specialization folds the predicate; the plain __full
        // keeps the runtime check so non-peeling drivers (or the n < G
        // case) remain correct.
        variants.push(
            vectorize_function_with(f, opts, false, Some(true)).map_err(|e| e.diagnostic(f))?,
        );
    }
    variants.push(vectorize_function_with(f, opts, false, None).map_err(|e| e.diagnostic(f))?);
    variants.push(vectorize_function_with(f, opts, true, None).map_err(|e| e.diagnostic(f))?);
    let mut built = BuiltRegion {
        funcs: Vec::new(),
        remarks: Vec::new(),
        inline_targets: Vec::new(),
    };
    for v in variants {
        let mut func = v.func;
        fault::pass_scope(Pass::Opt, || {
            fault::inject_panic("opt");
            crate::opt::cleanup(&mut func);
        });
        if popts.verify != VerifyMode::Off {
            let verdict = fault::pass_scope(Pass::Verify, || {
                fault::corrupt_for_verify(&mut func);
                psir::verify_function(&func)
            });
            if let Some(e) = verdict.first() {
                let mut d = Diagnostic::new(Pass::Verify, &func.name, e.msg.clone());
                if let Some(b) = e.block {
                    d = d.at_block(b.0);
                }
                if let Some(i) = e.inst {
                    d = d.at_inst(i.0);
                }
                return Err(d);
            }
        }
        built.remarks.extend(v.remarks);
        if func.name.ends_with("__full") || func.name.ends_with("__head") {
            built.inline_targets.push(func.name.clone());
        }
        built.funcs.push(func);
    }
    Ok(built)
}
