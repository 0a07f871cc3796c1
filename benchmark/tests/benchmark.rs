//! The benchmark's own checks: every workload reports every metric
//! `BENCHMARK.json` names, inputs follow the seed, and a wrong output is
//! caught.

use parsimony_benchmark::exec::{bytes_digest, reference_outputs};
use parsimony_benchmark::items::{suite_items, Item};
use parsimony_benchmark::server::inspect;
use parsimony_benchmark::workloads::{compile, interp, serve};
use parsimony_benchmark::{Config, Workload};
use psim_serve::request::{Request, Response};
use psim_serve::{ServeOptions, ServeState};
use psir::Engine;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;
use telemetry::Json;
use vmach::Target;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The directory Cargo builds this package's targets into.
fn target_dir() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_parsimony-benchmark"));
    exe.parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>/")
        .to_path_buf()
}

/// The workspace's `psim-serve`, built once (release, into a directory of
/// its own so it never waits on this build's lock).
fn serve_bin() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let dir = target_dir().join("psim-serve");
        let status = Command::new(env!("CARGO"))
            .args(["build", "--quiet", "--release", "--offline", "--locked"])
            .args(["-p", "psim-serve", "--bin", "psim-serve", "--manifest-path"])
            .arg(manifest_dir().join("../Cargo.toml"))
            .arg("--target-dir")
            .arg(&dir)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building psim-serve failed");
        dir.join("release/psim-serve")
    })
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn listed(key: &str) -> Vec<(String, String)> {
    let doc = benchmark_json();
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs one workload for a second with tracing on and checks its output:
/// zero failures, every end-to-end and per-layer metric printed as
/// `name value unit`, and the result line carrying exactly the per-layer
/// metrics.
fn tiny_run(workload: &str) {
    let out_dir = target_dir().join("test-out").join(workload);
    let out = Command::new(env!("CARGO_BIN_EXE_parsimony-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", "1", "--serve-bin"])
        .arg(serve_bin())
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = Json::parse(lines.last().expect("output")).expect("last line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) >= Some(48));

    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for (name, unit) in end_to_end.iter().chain(&per_layer) {
        let printed = lines.iter().any(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            f.len() == 3 && f[0] == name && f[1].parse::<f64>().is_ok() && f[2] == unit
        });
        assert!(printed, "{workload}: no `{name} <value> {unit}` line");
    }
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let reported: Vec<(String, String)> = metrics
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
            (k.clone(), unit.to_string())
        })
        .collect();
    assert_eq!(reported, per_layer, "{workload}: result metrics");
    assert!(
        out_dir.join(format!("trace-{workload}.json")).is_file(),
        "{workload}: trace file"
    );
}

#[test]
fn compile_reports_every_metric() {
    tiny_run("compile");
}

#[test]
fn run_reports_every_metric() {
    tiny_run("run");
}

#[test]
fn serve_hot_reports_every_metric() {
    tiny_run("serve-hot");
}

#[test]
fn serve_fresh_reports_every_metric() {
    tiny_run("serve-fresh");
}

#[test]
fn serve_shared_reports_every_metric() {
    tiny_run("serve-shared");
}

fn config(workload: Workload, seed: u64) -> Config {
    Config {
        workload,
        seed,
        seconds: 1.0,
        trace: false,
        serve_bin: PathBuf::new(),
        out_dir: PathBuf::new(),
    }
}

fn fuzz_names(items: &[Item]) -> Vec<String> {
    let mut names: Vec<String> = items
        .iter()
        .filter(|i| i.name.starts_with("fuzz/"))
        .map(|i| i.name.clone())
        .collect();
    names.sort();
    names
}

#[test]
fn the_seed_fixes_the_inputs() {
    let (a, b, c) = (compile::items(1), compile::items(1), compile::items(2));
    assert_eq!(compile::fingerprint(&a), compile::fingerprint(&b));
    assert_ne!(compile::fingerprint(&a), compile::fingerprint(&c));
    assert_ne!(
        fuzz_names(&a),
        fuzz_names(&c),
        "a new seed draws new programs"
    );

    let fresh = |seed| serve::Plan::new(&config(Workload::ServeFresh, seed)).expect("plan");
    let (a, b, c) = (fresh(1), fresh(1), fresh(2));
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_ne!(a.fingerprint(), c.fingerprint());
    assert_ne!(fuzz_names(&a.items), fuzz_names(&c.items));

    for w in [Workload::ServeHot, Workload::ServeShared] {
        let plan = |seed| {
            serve::Plan::new(&config(w, seed))
                .expect("plan")
                .fingerprint()
        };
        assert_eq!(plan(3), plan(3));
        assert_ne!(plan(3), plan(4), "{w:?}: the seed orders the requests");
    }

    let items: Vec<Item> = interp::runs()
        .iter()
        .map(|(k, mode)| Item::kernel(k, *mode))
        .collect();
    let fp = |seed| interp::fingerprint(&items, &parsimony_benchmark::items::permutation(86, seed));
    assert_eq!(items.len(), 86);
    assert_eq!(fp(5), fp(5));
    assert_ne!(fp(5), fp(6));
}

/// A reply line as the daemon would send it for `item`.
fn served_line(item: &Item, id: u64) -> String {
    let state = ServeState::new(&ServeOptions::default());
    let req = item.request(id, Engine::Fast, &Target::reference_default());
    let resp = state.run_request(&req).expect("request serves");
    Response::Ok(Box::new(resp)).to_json().to_string_compact()
}

#[test]
fn a_corrupted_reference_fails_the_check() {
    let item = suite_items(256).swap_remove(0);
    let mut reference = reference_outputs(&item).expect("reference");
    let line = served_line(&item, 42);
    let elems = item.checked_elems();
    let reply = inspect(&line, 42, 1, &elems);
    assert_eq!(reply.problem, None);
    assert_eq!(
        reply.digest,
        bytes_digest(&reference, &elems),
        "served == reference"
    );

    reference[0][0] ^= 1;
    assert_ne!(
        reply.digest,
        bytes_digest(&reference, &elems),
        "a flipped byte is caught"
    );

    assert!(inspect(&line, 43, 1, &elems).problem.is_some(), "wrong id");
    let refused = Response::Overloaded { id: 42 }
        .to_json()
        .to_string_compact();
    assert!(
        inspect(&refused, 42, 1, &elems).problem.is_some(),
        "refusal"
    );
}

#[test]
fn the_reply_scan_agrees_with_response_parse() {
    for item in suite_items(256).iter().step_by(9) {
        let line = served_line(item, 7);
        let Ok(Response::Ok(ok)) = Response::parse(&line) else {
            panic!("{}: not an ok reply", item.name)
        };
        let elems = item.checked_elems();
        let scanned = inspect(&line, 7, 1, &elems);
        assert_eq!(scanned.problem, None);
        assert_eq!(scanned.record.compile_ns, ok.compile_nanos);
        assert_eq!(scanned.record.exec_ns, ok.exec_nanos);
        assert_eq!(scanned.record.module_hit, ok.cache.module_hit);
        let outputs = Json::Arr(ok.outputs.iter().cloned().map(Json::Str).collect());
        assert_eq!(
            scanned.digest,
            parsimony_benchmark::exec::wire_digest(&outputs.to_string_compact(), &elems)
        );
    }
    let ping = Request::Ping { id: 1 }.to_json().to_string_compact();
    assert!(inspect(&ping, 1, 1, &[]).problem.is_some());
}

#[test]
fn timings_come_from_the_quiet_quarter() {
    use parsimony_benchmark::stats::Phase;
    // Eight and a half seconds: ten ops a second, 1 ms each in seconds 2
    // and 5, 3 ms elsewhere; the last window takes the remaining half
    // second.
    let ops = (0..85)
        .map(|i| {
            let at_s = f64::from(i) / 10.0;
            let ms = if matches!(i / 10, 2 | 5) { 1.0 } else { 3.0 };
            (at_s, ms)
        })
        .collect();
    let phase = Phase { ops, seconds: 8.5 };
    let (op_ms, seconds) = phase.quiet_quarter();
    assert_eq!(op_ms, vec![1.0; 20]);
    assert_eq!(seconds, 2.0);

    // Shorter than a window: everything, over the whole phase.
    let phase = Phase {
        ops: vec![(0.0, 4.0), (0.3, 2.0)],
        seconds: 0.5,
    };
    assert_eq!(phase.quiet_quarter(), (vec![4.0, 2.0], 0.5));
}

#[test]
fn float_nans_compare_equal_whatever_their_sign() {
    use parsimony_benchmark::exec::bytes_digest;
    use psir::ScalarTy;
    let f32s = |xs: &[u32]| vec![xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>()];
    let digest = |xs: &[u32], ty| bytes_digest(&f32s(xs), &[ty]);
    let (pos_nan, neg_nan, one) = (0x7fc0_0000, 0xffc0_0000, 0x3f80_0000);
    assert_eq!(
        digest(&[one, pos_nan], ScalarTy::F32),
        digest(&[one, neg_nan], ScalarTy::F32)
    );
    assert_ne!(
        digest(&[one, pos_nan], ScalarTy::F32),
        digest(&[pos_nan, pos_nan], ScalarTy::F32)
    );
    assert_ne!(
        digest(&[pos_nan], ScalarTy::I32),
        digest(&[neg_nan], ScalarTy::I32)
    );
    let f64s = |x: u64| vec![x.to_le_bytes().to_vec()];
    assert_eq!(
        bytes_digest(&f64s(0x7ff8_0000_0000_0000), &[ScalarTy::F64]),
        bytes_digest(&f64s(0xfff8_0000_0000_0001), &[ScalarTy::F64])
    );
    assert_ne!(
        bytes_digest(&f64s(0x7ff0_0000_0000_0000), &[ScalarTy::F64]),
        bytes_digest(&f64s(0xfff0_0000_0000_0000), &[ScalarTy::F64]),
        "infinities keep their sign"
    );
}
