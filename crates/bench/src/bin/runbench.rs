//! `runbench` — wall-clock execution benchmark and identity gate for the
//! interpreter's fast engine.
//!
//! ```text
//! runbench [--engine fast|native] [--n N] [--iters K] [--check]
//!          [--min-speedup X] [--json[=FILE]]
//! ```
//!
//! Executes the suite kernels (the Figure 5 Simd-Library set at workload
//! size `N`, plus the Figure 4 ispc set at tiny sizes) through the subject
//! engine and its baseline — `fast` (the precompiled `FramePlan` path) is
//! measured against the reference engine's per-step loop, `native` (fused
//! block kernels) against `fast` — and reports per-kernel best-of-`K`
//! wall times, the geomean speedup, and whether the engines were
//! byte-identical in simulated cycles, checked outputs, execution
//! statistics, and profile JSON.
//!
//! * `--check` — gate mode: exit 1 unless every kernel is engine-identical
//!   (and, when `--min-speedup X` is given, the geomean speedup is at
//!   least X).
//! * `--json` — print the JSON report on stdout instead of the text
//!   summary; `--json=FILE` writes it to FILE and keeps the text summary
//!   on stdout (the CI artifact and `BENCH_runbench.json` baseline mode).
//!
//! Exit contract (as for every tool in this repo): 0 success, 1 gate or
//! runtime failure, 2 usage error.

use psim_bench::runbench::{run, RunBenchConfig};
use telemetry::cli::Help;

const HELP: Help = Help {
    bin: "runbench",
    about: "Times the suite kernels under a subject interpreter engine and its \
            baseline, gating on the byte-identity contract and the wall-clock \
            speedup.",
    usage: "[options]",
    flags: &[
        (
            "--engine E",
            "engine under test: fast (vs reference; default) or native (vs fast)",
        ),
        (
            "--target T",
            "costing machine: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        (
            "--n N",
            "Simd-Library workload size (positive multiple of 256)",
        ),
        ("--iters K", "best-of-K wall-clock measurement (default: 3)"),
        (
            "--check",
            "gate: exit 1 unless every kernel is engine-identical",
        ),
        (
            "--min-speedup X",
            "with --check, also require geomean speedup >= X",
        ),
        ("--json[=FILE]", "emit the JSON report to stdout or FILE"),
        (
            "--baseline FILE",
            "validate FILE's bench-schema/meta against this build",
        ),
        ("-h, --help", "print this help"),
        (
            "-V, --version",
            "print version, protocol, and toolchain info",
        ),
    ],
};

fn usage() -> ! {
    eprintln!(
        "usage: runbench [--engine fast|native] \
         [--target x86-avx512|x86-avx2|sve-vla[:VL]] [--n N] [--iters K] [--check] \
         [--min-speedup X] [--json[=FILE]] [--baseline FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        HELP.intercept(a, env!("CARGO_PKG_VERSION"));
    }
    let mut cfg = RunBenchConfig::default();
    let mut check = false;
    let mut min_speedup: Option<f64> = None;
    let mut json_out: Option<Option<String>> = None;
    let mut baseline: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--engine" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match psir::Engine::from_flag(v) {
                    Some(e) if e != psir::Engine::Reference => cfg.engine = e,
                    Some(_) => {
                        eprintln!(
                            "runbench: the reference engine is the baseline; \
                             --engine takes fast or native"
                        );
                        usage();
                    }
                    None => {
                        eprintln!(
                            "runbench: unknown engine {v:?}; valid engines: {}",
                            psir::Engine::ALL.map(psir::Engine::flag_name).join(", ")
                        );
                        usage();
                    }
                }
            }
            "--target" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!(
                        "runbench: --target requires a value; valid targets: {}",
                        vmach::VALID_TARGETS
                    );
                    usage();
                };
                match vmach::Target::parse(v) {
                    Ok(t) => cfg.target = t,
                    Err(e) => {
                        eprintln!("runbench: {e}");
                        usage();
                    }
                }
            }
            "--n" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match v.parse::<u64>() {
                    Ok(n) if n >= 1 && n.is_multiple_of(256) => cfg.n = n,
                    _ => {
                        eprintln!("runbench: --n takes a positive multiple of 256, got {v:?}");
                        usage();
                    }
                }
            }
            "--iters" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => cfg.iters = n,
                    _ => {
                        eprintln!("runbench: --iters takes a positive integer, got {v:?}");
                        usage();
                    }
                }
            }
            "--check" => check = true,
            "--min-speedup" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match v.parse::<f64>() {
                    Ok(x) if x > 0.0 => min_speedup = Some(x),
                    _ => {
                        eprintln!("runbench: --min-speedup takes a positive number, got {v:?}");
                        usage();
                    }
                }
            }
            "--json" => json_out = Some(None),
            flag if flag.starts_with("--json=") => {
                json_out = Some(Some(flag["--json=".len()..].to_string()));
            }
            "--baseline" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                baseline = Some(v.clone());
            }
            other => {
                eprintln!("runbench: unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }

    // Baselines must be self-describing: reject version/tool skew loudly
    // before any numbers are compared against them.
    if let Some(path) = &baseline {
        if let Err(e) = psim_bench::check_baseline(path, "runbench") {
            eprintln!("runbench: GATE FAILED: baseline {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("runbench: baseline {path} schema ok");
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runbench: error: {e}");
            std::process::exit(1);
        }
    };

    let json = report.to_json().to_string_pretty();
    match &json_out {
        Some(None) => println!("{json}"),
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("runbench: cannot write {path}: {e}");
                std::process::exit(1);
            }
            print!("{}", report.render_text());
        }
        None => print!("{}", report.render_text()),
    }

    if check {
        if !report.all_identical() {
            let bad: Vec<String> = report
                .rows
                .iter()
                .filter(|r| !r.identical)
                .map(|r| format!("{}/{}", r.kernel, r.config))
                .collect();
            let (subject, baseline) = match cfg.engine {
                psir::Engine::Native => ("native", "fast"),
                _ => ("fast", "reference"),
            };
            eprintln!(
                "runbench: GATE FAILED: {subject} engine differs from {baseline} on: {}",
                bad.join(", ")
            );
            std::process::exit(1);
        }
        if let Some(min) = min_speedup {
            let s = report.geomean_speedup();
            if s < min {
                eprintln!(
                    "runbench: GATE FAILED: geomean speedup {s:.2}x below required {min:.2}x"
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "runbench: gate ok (engines identical on {} kernel runs, {:.2}x geomean speedup)",
            report.rows.len(),
            report.geomean_speedup()
        );
    }
}
