//! `psimcc` — a command-line driver for the PsimC → Parsimony toolchain.
//!
//! ```text
//! psimcc FILE.psim [--emit scalar|vector] [--gang-sync] [--no-shape]
//!        [--boscc] [--run ENTRY [ARG…]] [--cycles]
//! ```
//!
//! * `--emit scalar` prints the front-end's IR (outlined regions + gang
//!   loops); `--emit vector` (default) prints the module after the
//!   Parsimony pass.
//! * `--run ENTRY` executes the named function on the virtual AVX-512
//!   machine. Integer arguments are passed as `i64`; an argument of the
//!   form `buf:N` allocates a zeroed N-byte buffer and passes its address
//!   (its contents are hex-dumped after the run).
//! * `--cycles` prints the simulated cycle count.
//! * `--remarks text|json` prints the pipeline's structured optimization
//!   remarks (shape summaries, memory-op selection, linearization, math
//!   dispatch, …) in deterministic order instead of the vector IR.
//! * `--verify off|fallback|strict` controls in-pipeline IR verification
//!   (default `fallback`: a variant that fails verification degrades its
//!   region to a scalar gang-serialized loop; `strict` makes any region
//!   failure a hard located error).
//! * `--inject-fault PASS:SITE` deterministically injects a fault at a
//!   registered pipeline site (see `--inject-fault help`), exercising the
//!   degradation machinery end to end.
//! * `-j N` / `--jobs N` sets the region-compilation worker count (default:
//!   `PSIM_JOBS` or the available parallelism). Output is byte-identical at
//!   every level; `-j` only changes compile time.

use parsimony::{
    vectorize_module_with, FaultInjector, PipelineOptions, VectorizeOptions, VerifyMode,
};
use psir::{Interp, Memory, RtVal};
use telemetry::cli::Help;
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

const HELP: Help = Help {
    bin: "psimcc",
    about: "Compiles PsimC through the Parsimony SPMD vectorizer; optionally runs the result \
            on the simulated AVX-512 machine.",
    usage: "FILE [options] [--run ENTRY [ARG…]]",
    flags: &[
        (
            "--emit scalar|vector",
            "print front-end IR or vectorized IR (default: vector)",
        ),
        ("--gang-sync", "gang-synchronous (ispc-like) mode"),
        ("--no-shape", "disable shape analysis"),
        ("--boscc", "insert branch-on-superword-condition guards"),
        (
            "--remarks text|json",
            "print structured optimization remarks",
        ),
        (
            "--verify off|fallback|strict",
            "in-pipeline IR verification mode (default: fallback)",
        ),
        (
            "--inject-fault PASS:SITE",
            "deterministically inject a pipeline fault",
        ),
        ("-j, --jobs N", "region-compilation worker count"),
        (
            "--run ENTRY [ARG…]",
            "execute ENTRY (ints, floats, or buf:N buffer args)",
        ),
        (
            "--engine E",
            "interpreter engine for --run: fast (default), reference, or native",
        ),
        (
            "--target T",
            "machine for --run costing: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        ("--cycles", "print the simulated cycle count"),
        ("-h, --help", "print this help"),
        (
            "-V, --version",
            "print version, protocol, and toolchain info",
        ),
    ],
};

fn usage() -> ! {
    eprintln!(
        "usage: psimcc FILE [--emit scalar|vector] [--gang-sync] [--no-shape] \
         [--boscc] [--remarks text|json] [--verify off|fallback|strict] \
         [--inject-fault PASS:SITE] [-j N | --jobs N] \
         [--engine fast|reference|native] [--target x86-avx512|x86-avx2|sve-vla[:VL]] \
         [--run ENTRY [ARG…]] [--cycles]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        HELP.intercept(a, env!("CARGO_PKG_VERSION"));
    }
    let mut file = None;
    let mut emit = "vector".to_string();
    let mut opts = VectorizeOptions::default();
    let mut run: Option<(String, Vec<String>)> = None;
    let mut engine = psir::Engine::default();
    let mut show_cycles = false;
    let mut remarks_mode: Option<String> = None;
    let mut popts = PipelineOptions::default();
    let mut target = Target::reference_default();

    let parse_verify = |s: &str| {
        VerifyMode::parse(s).unwrap_or_else(|| {
            eprintln!("psimcc: invalid --verify mode `{s}` (expected off, fallback, or strict)");
            std::process::exit(2);
        })
    };
    let parse_inject = |s: &str| -> FaultInjector {
        FaultInjector::parse(s).unwrap_or_else(|e| {
            eprintln!("psimcc: {e}");
            std::process::exit(2);
        })
    };
    let parse_target = |s: &str| -> Target {
        Target::parse(s).unwrap_or_else(|e| {
            eprintln!("psimcc: {e}");
            std::process::exit(2);
        })
    };
    let parse_jobs = |s: &str| -> usize {
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("psimcc: --jobs takes a positive integer, got {s:?}");
                std::process::exit(2);
            }
        }
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--emit" => {
                i += 1;
                emit = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--gang-sync" => opts = VectorizeOptions::gang_synchronous(),
            "--no-shape" => opts.enable_shape = false,
            "--boscc" => opts.boscc = true,
            "--cycles" => show_cycles = true,
            "--remarks" => {
                i += 1;
                let mode = args.get(i).cloned().unwrap_or_else(|| usage());
                if mode != "text" && mode != "json" {
                    usage();
                }
                remarks_mode = Some(mode);
            }
            flag if flag.starts_with("--remarks=") => {
                let mode = &flag["--remarks=".len()..];
                if mode != "text" && mode != "json" {
                    usage();
                }
                remarks_mode = Some(mode.to_string());
            }
            "--verify" => {
                i += 1;
                let mode = args.get(i).cloned().unwrap_or_else(|| usage());
                popts.verify = parse_verify(&mode);
            }
            flag if flag.starts_with("--verify=") => {
                popts.verify = parse_verify(&flag["--verify=".len()..]);
            }
            "--inject-fault" => {
                i += 1;
                let spec = args.get(i).cloned().unwrap_or_else(|| usage());
                popts.inject = Some(parse_inject(&spec));
            }
            flag if flag.starts_with("--inject-fault=") => {
                popts.inject = Some(parse_inject(&flag["--inject-fault=".len()..]));
            }
            "--engine" => {
                i += 1;
                let v = args.get(i).cloned().unwrap_or_else(|| usage());
                engine = psir::Engine::from_flag(&v).unwrap_or_else(|| {
                    eprintln!(
                        "psimcc: unknown engine {v:?}; valid engines: {}",
                        psir::Engine::ALL.map(psir::Engine::flag_name).join(", ")
                    );
                    std::process::exit(2);
                });
            }
            flag if flag.starts_with("--engine=") => {
                let v = &flag["--engine=".len()..];
                engine = psir::Engine::from_flag(v).unwrap_or_else(|| {
                    eprintln!(
                        "psimcc: unknown engine {v:?}; valid engines: {}",
                        psir::Engine::ALL.map(psir::Engine::flag_name).join(", ")
                    );
                    std::process::exit(2);
                });
            }
            "--target" => {
                i += 1;
                let v = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!(
                        "psimcc: --target requires a value; valid targets: {}",
                        vmach::VALID_TARGETS
                    );
                    std::process::exit(2);
                });
                target = parse_target(&v);
            }
            flag if flag.starts_with("--target=") => {
                target = parse_target(&flag["--target=".len()..]);
            }
            "-j" | "--jobs" => {
                i += 1;
                let v = args.get(i).cloned().unwrap_or_else(|| usage());
                popts.jobs = parse_jobs(&v);
            }
            flag if flag.starts_with("--jobs=") => {
                popts.jobs = parse_jobs(&flag["--jobs=".len()..]);
            }
            "--run" => {
                i += 1;
                let entry = args.get(i).cloned().unwrap_or_else(|| usage());
                let mut rest = Vec::new();
                for a in &args[i + 1..] {
                    if a == "--cycles" {
                        show_cycles = true;
                    } else {
                        rest.push(a.clone());
                    }
                }
                run = Some((entry, rest));
                i = args.len();
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string());
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(file) = file else { usage() };

    let src = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("psimcc: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let scalar = psimc::compile(&src).unwrap_or_else(|e| {
        eprintln!("psimcc: {e}");
        std::process::exit(1);
    });

    if emit == "scalar" {
        print!("{}", psir::print_module(&scalar));
        return;
    }

    let out = vectorize_module_with(&scalar, &opts, &popts).unwrap_or_else(|e| {
        // A formatted, located diagnostic ([pass] @func:bN:iN: message) —
        // never a Rust panic backtrace.
        eprintln!("psimcc: error: {e}");
        std::process::exit(1);
    });
    for w in &out.warnings {
        eprintln!("warning: {w}");
    }

    if let Some(mode) = remarks_mode {
        let mut remarks = out.remarks.clone();
        telemetry::sort_remarks(&mut remarks);
        if mode == "json" {
            println!(
                "{}",
                telemetry::remarks_to_json(&remarks).to_string_pretty()
            );
        } else {
            print!("{}", telemetry::remarks_to_text(&remarks));
        }
        if run.is_none() {
            return;
        }
    }

    if let Some((entry, raw_args)) = run {
        static EXT: RuntimeExterns = RuntimeExterns::new();
        let cost = TargetCost::for_target(target);
        let mut mem = Memory::default();
        let mut call_args = Vec::new();
        let mut bufs: Vec<(u64, u64)> = Vec::new();
        for a in &raw_args {
            if let Some(n) = a.strip_prefix("buf:") {
                let n: u64 = n.parse().unwrap_or_else(|_| usage());
                let addr = mem.alloc(n, 64).expect("buffer fits");
                bufs.push((addr, n));
                call_args.push(RtVal::S(addr));
            } else if let Ok(v) = a.parse::<i64>() {
                call_args.push(RtVal::S(v as u64));
            } else if let Ok(v) = a.parse::<f32>() {
                call_args.push(RtVal::from_f32(v));
            } else {
                usage();
            }
        }
        let mut it = Interp::new(&out.module, mem, &cost, &EXT);
        it.set_engine(engine);
        match it.call(&entry, &call_args) {
            Ok(RtVal::Unit) => {}
            Ok(RtVal::S(v)) => println!("=> {v} (as i64: {})", v as i64),
            Ok(RtVal::V(v)) => println!("=> {v:?}"),
            Err(e) => {
                eprintln!("psimcc: runtime error: {e}");
                std::process::exit(1);
            }
        }
        for (k, (addr, n)) in bufs.iter().enumerate() {
            let bytes = it.mem.read_bytes(*addr, (*n).min(64)).expect("readback");
            let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
            println!(
                "buf{k} [{} bytes{}]: {}",
                n,
                if *n > 64 { ", first 64 shown" } else { "" },
                hex.join(" ")
            );
        }
        if show_cycles {
            println!("cycles: {}", it.cycles);
        }
    } else {
        print!("{}", psir::print_module(&out.module));
    }
}
