//! Exact gate on the simulated-cycle headline (`BENCH_cycles.json` at the
//! repository root).
//!
//! Simulated cycles are deterministic, so the Figure 4 and Figure 5 numbers
//! get an exact baseline instead of a tolerance: per-kernel cycles for the
//! Figure 5 configurations (scalar, autovec, Parsimony, hand-written) and
//! the Figure 4 configurations (autovec, Parsimony, ispc-like), plus their
//! geomean ratios, on every modeled target. This pins the paper's headline
//! (Parsimony at ~0.96 of hand-written and ~0.97 of ispc-like code) and,
//! per kernel, the SVE targets' predicated-tail costs.
//!
//! Any codegen or costing change moves these numbers on purpose; such a
//! change regenerates the baseline by copying the actual document this test
//! writes (its path is in the failure message) over `BENCH_cycles.json`.

use suite::runner::{build_module, geomean, run_module_engine, Config, Engine};
use suite::Kernel;
use telemetry::Json;
use vmach::{Target, TargetCost};

/// Figure 5 element count: the size of CI's Figure 5 smoke run, small
/// enough that the whole document takes seconds in a debug build.
const FIG5_N: u64 = 1024;

/// Figure 5 configurations, in column order.
const FIG5_CFGS: [Config; 4] = [
    Config::Scalar,
    Config::Autovec,
    Config::Parsimony,
    Config::Handwritten,
];

/// Figure 4 configurations, in column order (autovec is the figure's
/// normalization base).
const FIG4_CFGS: [Config; 3] = [Config::Autovec, Config::Parsimony, Config::GangSync];

fn targets() -> [Target; 5] {
    [
        Target::avx512(),
        Target::avx2(),
        Target::sve(128),
        Target::sve(512),
        Target::sve(2048),
    ]
}

/// Rounds a ratio to four decimals, so the document does not depend on
/// the last bits of the platform's `ln`/`exp`.
fn ratio(x: f64) -> Json {
    Json::Num((x * 1e4).round() / 1e4)
}

/// Cycles indexed `[kernel][target][config]`.
type Cycles = Vec<Vec<Vec<u64>>>;

/// Builds every configuration's module once (modules do not depend on the
/// costing target) and prices each on every target.
fn figure(kernels: &[Kernel], cfgs: &[Config]) -> Cycles {
    kernels
        .iter()
        .map(|k| {
            let modules: Vec<_> = cfgs
                .iter()
                .map(|&c| build_module(k, c).unwrap_or_else(|e| panic!("{}: {e}", k.name)))
                .collect();
            targets()
                .into_iter()
                .map(|t| {
                    let cost = TargetCost::for_target(t);
                    modules
                        .iter()
                        .map(|m| {
                            run_module_engine(m, k, &cost, false, Engine::Fast)
                                .unwrap_or_else(|e| panic!("{e}"))
                                .cycles
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Geomean of `cycles[base] / cycles[cfg]` over the kernels.
fn speedup(rows: &[&[u64]], cfg: usize, base: usize) -> f64 {
    let xs: Vec<f64> = rows
        .iter()
        .map(|r| r[base] as f64 / r[cfg] as f64)
        .collect();
    geomean(&xs)
}

/// One figure's section for target index `t`: per-kernel cycles by
/// config label, then the named geomean ratios.
fn section(
    kernels: &[Kernel],
    cfgs: &[Config],
    cycles: &Cycles,
    t: usize,
    ratios: &[(&str, f64)],
) -> Json {
    let rows: Vec<Json> = kernels
        .iter()
        .zip(cycles)
        .map(|(k, per_target)| {
            let mut pairs = vec![("kernel", Json::Str(k.name.clone()))];
            for (c, &cy) in cfgs.iter().zip(&per_target[t]) {
                pairs.push((c.label(), Json::u64(cy)));
            }
            Json::obj(pairs)
        })
        .collect();
    Json::obj(vec![
        ("cycles", Json::Arr(rows)),
        (
            "geomean",
            Json::obj(ratios.iter().map(|&(n, x)| (n, ratio(x))).collect()),
        ),
    ])
}

fn document() -> Json {
    let fig5_kernels = suite::simdlib::kernels(FIG5_N);
    let fig4_kernels = suite::ispc::kernels(suite::ispc::IspcSizes::tiny());
    let fig5 = figure(&fig5_kernels, &FIG5_CFGS);
    let fig4 = figure(&fig4_kernels, &FIG4_CFGS);

    let per_target = targets()
        .iter()
        .enumerate()
        .map(|(t, target)| {
            let r5: Vec<&[u64]> = fig5.iter().map(|c| c[t].as_slice()).collect();
            let (autovec, parsimony, hand) =
                (speedup(&r5, 1, 0), speedup(&r5, 2, 0), speedup(&r5, 3, 0));
            let r4: Vec<&[u64]> = fig4.iter().map(|c| c[t].as_slice()).collect();
            let (p4, g4) = (speedup(&r4, 1, 0), speedup(&r4, 2, 0));
            Json::obj(vec![
                ("target", Json::Str(target.flag_name())),
                (
                    "fig5",
                    section(
                        &fig5_kernels,
                        &FIG5_CFGS,
                        &fig5,
                        t,
                        &[
                            ("autovec_over_scalar", autovec),
                            ("parsimony_over_scalar", parsimony),
                            ("handwritten_over_scalar", hand),
                            ("parsimony_over_handwritten", parsimony / hand),
                            ("parsimony_over_autovec", parsimony / autovec),
                        ],
                    ),
                ),
                (
                    "fig4",
                    section(
                        &fig4_kernels,
                        &FIG4_CFGS,
                        &fig4,
                        t,
                        &[
                            ("parsimony_over_autovec", p4),
                            ("gangsync_over_autovec", g4),
                            ("parsimony_over_gangsync", p4 / g4),
                        ],
                    ),
                ),
            ])
        })
        .collect();

    Json::obj(vec![
        ("fig5_n", Json::u64(FIG5_N)),
        ("fig4_sizes", Json::Str("tiny".into())),
        ("targets", Json::Arr(per_target)),
    ])
}

#[test]
fn simulated_cycles_match_the_committed_baseline_exactly() {
    let actual = document().to_string_pretty() + "\n";
    let baseline_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cycles.json");
    let expected = std::fs::read_to_string(baseline_path).unwrap_or_default();
    if actual == expected {
        return;
    }
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_cycles.actual.json");
    std::fs::write(&out, &actual).expect("write the actual cycle document");
    let diff: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .filter(|(_, (e, a))| e != a)
        .take(10)
        .map(|(i, (e, a))| format!("  line {}: expected {e:?}, got {a:?}", i + 1))
        .collect();
    panic!(
        "simulated cycles differ from BENCH_cycles.json ({} vs {} lines); first differences:\n{}\n\
         actual document written to {}",
        expected.lines().count(),
        actual.lines().count(),
        diff.join("\n"),
        out.display()
    );
}
