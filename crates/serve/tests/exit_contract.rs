//! Shared exit-contract test across the workspace's tool binaries:
//! `--version` and `--help` exit 0 with the protocol/exit documentation,
//! unknown flags exit 2, and runtime failures exit 1 — the 0/1/2
//! contract every CI job keys on.

use std::path::PathBuf;
use std::process::Command;

/// The workspace's binary directory, derived from this crate's own
/// binaries (same target profile).
fn bin_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_psim-serve"))
        .parent()
        .expect("bin dir")
        .to_path_buf()
}

fn bin(name: &str) -> Option<PathBuf> {
    let p = bin_dir().join(name);
    p.exists().then_some(p)
}

/// Binaries under contract. `psim-serve` and `servebench` always exist
/// (same crate); the others are built by any workspace-level `cargo
/// test`/`cargo build` and are skipped with a notice when this test runs
/// crate-scoped.
const TOOLS: &[&str] = &[
    "psimcc",
    "fig4",
    "fig5",
    "runbench",
    "psim-fuzz",
    "psim-serve",
    "servebench",
];

/// Tools that take `--engine`: an unknown value is a usage error (exit
/// 2) naming the valid engines, and `--help` documents the flag.
const ENGINE_TOOLS: &[&str] = &["runbench", "fig4", "fig5", "servebench"];

/// Tools that take `--target`: an unknown value (or a missing one) is a
/// usage error (exit 2) naming the valid targets, and `--help` documents
/// the flag.
const TARGET_TOOLS: &[&str] = &["psimcc", "runbench", "fig4", "fig5", "servebench"];

#[test]
fn version_exits_zero_and_names_the_protocol() {
    for tool in TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        let out = Command::new(&path).arg("--version").output().expect("run");
        assert_eq!(out.status.code(), Some(0), "{tool} --version status");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(tool) && stdout.contains("protocol"),
            "{tool} --version must name the tool and protocol: {stdout:?}"
        );
        assert!(
            stdout.contains("bench-schema") && stdout.contains("toolchain"),
            "{tool} --version must pin schema and toolchain: {stdout:?}"
        );
    }
}

#[test]
fn help_exits_zero_and_documents_the_exit_contract() {
    for tool in TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        for flag in ["--help", "-h"] {
            let out = Command::new(&path).arg(flag).output().expect("run");
            assert_eq!(out.status.code(), Some(0), "{tool} {flag} status");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("usage:"), "{tool} {flag} prints usage");
            assert!(
                stdout.contains("0  success") && stdout.contains("2  usage error"),
                "{tool} {flag} documents the 0/1/2 exit contract: {stdout:?}"
            );
        }
    }
}

#[test]
fn unknown_flags_exit_two() {
    for tool in TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        let out = Command::new(&path)
            .arg("--definitely-not-a-flag")
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} must exit 2 on an unknown flag (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_engine_values_exit_two_and_help_names_the_engines() {
    for tool in ENGINE_TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        for args in [&["--engine", "turbo"][..], &["--engine"][..]] {
            let out = Command::new(&path).args(args).output().expect("run");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{tool} {args:?} must be a usage error (stderr: {})",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = Command::new(&path)
            .args(["--engine", "turbo"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("fast") && stderr.contains("native"),
            "{tool} must name the valid engines on a bad value: {stderr:?}"
        );
        let help = Command::new(&path).arg("--help").output().expect("run");
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(
            stdout.contains("--engine"),
            "{tool} --help must document --engine: {stdout:?}"
        );
    }
}

#[test]
fn unknown_target_values_exit_two_and_help_names_the_targets() {
    for tool in TARGET_TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        for args in [&["--target", "neon"][..], &["--target"][..]] {
            let out = Command::new(&path).args(args).output().expect("run");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{tool} {args:?} must be a usage error (stderr: {})",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = Command::new(&path)
            .args(["--target", "neon"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("x86-avx512") && stderr.contains("sve-vla"),
            "{tool} must name the valid targets on a bad value: {stderr:?}"
        );
        // A malformed SVE vector length is a usage error too, not a panic.
        let out = Command::new(&path)
            .args(["--target", "sve-vla:100"])
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} must reject a non-multiple-of-128 VL (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
        let help = Command::new(&path).arg("--help").output().expect("run");
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(
            stdout.contains("--target"),
            "{tool} --help must document --target: {stdout:?}"
        );
    }
}

#[test]
fn bad_batch_flag_values_exit_two_and_help_documents_the_flags() {
    // Both binaries in this crate take the batching knobs; a window that
    // is not an integer or a batch size of zero is a usage error, never a
    // silently-clamped value.
    for tool in ["psim-serve", "servebench"] {
        let path = bin(tool).expect("same-crate binary");
        for args in [
            &["--batch-window-ms", "junk"][..],
            &["--batch-window-ms"][..],
            &["--max-batch", "0"][..],
            &["--max-batch", "lots"][..],
        ] {
            let out = Command::new(&path).args(args).output().expect("run");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{tool} {args:?} must be a usage error (stderr: {})",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let help = Command::new(&path).arg("--help").output().expect("run");
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(
            stdout.contains("--batch-window-ms") && stdout.contains("--max-batch"),
            "{tool} --help must document the batching flags: {stdout:?}"
        );
    }
    // The batching-effectiveness gate flag is servebench-only.
    let path = bin("servebench").expect("same-crate binary");
    for args in [
        &["--min-batch-speedup", "junk"][..],
        &["--min-batch-speedup"][..],
    ] {
        let out = Command::new(&path).args(args).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "servebench {args:?} must be a usage error (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn runtime_failures_exit_one() {
    // psimcc: unreadable input file.
    if let Some(path) = bin("psimcc") {
        let out = Command::new(&path)
            .arg("/nonexistent/input.psim")
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(1), "psimcc missing-file status");
    } else {
        eprintln!("exit_contract: psimcc not built in this invocation, skipping");
    }
    // psim-serve: unbindable listen address.
    let path = bin("psim-serve").expect("same-crate binary");
    let out = Command::new(&path)
        .args(["--listen", "256.256.256.256:1"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1), "psim-serve bad-bind status");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot bind"),
        "stderr explains: {stderr:?}"
    );
}

#[test]
fn deeply_nested_source_exits_one_with_a_located_error() {
    let Some(path) = bin("psimcc") else {
        eprintln!("exit_contract: psimcc not built in this invocation, skipping");
        return;
    };
    let file = std::env::temp_dir().join(format!("psim-deep-{}.psim", std::process::id()));
    let deep = 100_000;
    let src = format!(
        "i32 f() {{ return {}1{}; }}\n",
        "(".repeat(deep),
        ")".repeat(deep)
    );
    std::fs::write(&file, src).expect("write source");
    let out = Command::new(&path).arg(&file).output().expect("run");
    let _ = std::fs::remove_file(&file);
    assert_eq!(out.status.code(), Some(1), "psimcc deep-nesting status");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("nesting") && stderr.contains("1:"),
        "a located parse error: {stderr:?}"
    );
}
