//! `parsimony-benchmark` — the end-to-end benchmark (see `README.md`).
//!
//! ```text
//! parsimony-benchmark [--workload NAME|all] [--seed S] [--seconds T]
//!                     [--trace [0|1]] [--serve-bin PATH] [--out DIR]
//! ```
//!
//! One workload runs in this process; `all` (the default) runs each
//! workload in a child process of its own and merges their results. The
//! last line of standard output is the result object.
//!
//! Exit status: 0 every op checked correct, 1 a failed op or a run error
//! (no result object then), 2 usage error.

use parsimony_benchmark::report::{print_text, reported, result_json, Metric};
use parsimony_benchmark::{run, Config, Tally, Workload};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use telemetry::Json;

fn usage() -> ! {
    eprintln!(
        "usage: parsimony-benchmark [--workload compile|run|serve-hot|serve-fresh|serve-shared|all] \
         [--seed S] [--seconds T] [--trace [0|1]] [--serve-bin PATH] [--out DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Option<Workload>, Config) {
    let exe = std::env::current_exe().unwrap_or_else(|_| PathBuf::from("."));
    let mut workload = None;
    let mut cfg = Config {
        workload: Workload::Compile,
        seed: 1,
        seconds: 20.0,
        trace: false,
        serve_bin: exe.with_file_name("psim-serve"),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: usize| args.get(i).cloned().unwrap_or_else(|| usage());
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => {
                i += 1;
                let v = value(i);
                workload = match v.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).unwrap_or_else(|| usage())),
                };
            }
            "--seed" => {
                i += 1;
                cfg.seed = value(i).parse().unwrap_or_else(|_| usage());
            }
            "--seconds" => {
                i += 1;
                cfg.seconds = value(i).parse().unwrap_or_else(|_| usage());
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    usage();
                }
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    cfg.trace = false;
                }
                Some("1") => {
                    i += 1;
                    cfg.trace = true;
                }
                _ => cfg.trace = true,
            },
            "--serve-bin" => {
                i += 1;
                cfg.serve_bin = PathBuf::from(value(i));
            }
            "--out" => {
                i += 1;
                cfg.out_dir = PathBuf::from(value(i));
            }
            "-h" | "--help" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    (workload, cfg)
}

fn run_one(cfg: &Config) -> i32 {
    match run(cfg) {
        Ok(o) => {
            print_text(cfg, &o);
            println!(
                "{}",
                result_json(&o.tally, &reported(&o)).to_string_compact()
            );
            i32::from(o.tally.failed > 0)
        }
        Err(e) => {
            eprintln!("parsimony-benchmark: {}: {e}", cfg.workload.name());
            1
        }
    }
}

/// Runs every workload in a child process, echoing its output, and prints
/// the merged result with metric names prefixed by the workload.
fn run_all(cfg: &Config) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("parsimony-benchmark: cannot locate own executable");
        return 1;
    };
    let mut tally = Tally::default();
    let mut metrics: Vec<Metric> = Vec::new();
    for w in Workload::ALL {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }])
            .arg("--serve-bin")
            .arg(&cfg.serve_bin)
            .arg("--out")
            .arg(&cfg.out_dir)
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("parsimony-benchmark: {}: {e}", w.name());
                return 1;
            }
        };
        let mut last = String::new();
        let stdout = child.stdout.take().expect("stdout is piped");
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("{line}");
            last = line;
        }
        let status = child.wait().map(|s| s.code());
        let Ok(result) = Json::parse(&last) else {
            eprintln!("parsimony-benchmark: {}: no result ({status:?})", w.name());
            return 1;
        };
        let count = |k: &str| result.get(k).and_then(Json::as_u64).unwrap_or(0);
        tally.attempted += count("attempted");
        tally.failed += count("failed");
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            metrics.push(Metric {
                name: format!("{}.{name}", w.name()),
                value: m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                unit: unit.to_string(),
            });
        }
    }
    println!("{}", result_json(&tally, &metrics).to_string_compact());
    i32::from(tally.failed > 0)
}

fn main() {
    let (workload, mut cfg) = parse_args();
    let code = match workload {
        Some(w) => {
            cfg.workload = w;
            run_one(&cfg)
        }
        None => run_all(&cfg),
    };
    std::process::exit(code);
}
