//! Metric definitions and the report: `name value unit` lines, then one
//! JSON object as the last line of standard output.

use crate::replay::{LayerSamples, Probe, CLASS_GROUPS};
use crate::stats::{geomean, median, quantile, ratio, Phase};
use crate::{Config, Outcome};
use telemetry::Json;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: String,
}

fn metric(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

/// The end-to-end metrics: timings from the quiet quarter of the untraced
/// phase.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let (op_ms, seconds) = o.untraced.quiet_quarter();
    vec![
        metric("setup_s", median(&o.setup_s), "s"),
        metric("op_ms_p50", quantile(&op_ms, 0.50), "ms"),
        metric("op_ms_p99", quantile(&op_ms, 0.99), "ms"),
        metric("ops_per_s", ratio(op_ms.len() as f64, seconds), "1/s"),
        metric("rss_peak_mb", o.rss_mib, "MiB"),
    ]
}

/// One `run` exchange as the client saw it, with the wire-reported
/// server times.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireRecord {
    /// Send to reply, client clock, ns.
    pub wall_ns: u64,
    /// Server-reported compile time (0 on a module-cache hit), ns.
    pub compile_ns: u64,
    /// Server-reported execute time, ns.
    pub exec_ns: u64,
    /// Reply line length, bytes.
    pub bytes: u64,
    /// Whether the module came from the module cache.
    pub module_hit: bool,
}

/// What the serve-layer metrics are computed from.
#[derive(Debug)]
pub struct ServeObs {
    /// Round trips of `ping`, µs.
    pub pings_us: Vec<f64>,
    /// The measured exchanges.
    pub records: Vec<WireRecord>,
    /// Set-up exchanges (warm passes); only their compiles are used.
    pub warm: Vec<WireRecord>,
    /// `stats` before the measured exchanges.
    pub before: Json,
    /// `stats` after them.
    pub after: Json,
}

impl Default for ServeObs {
    fn default() -> ServeObs {
        ServeObs {
            pings_us: Vec::new(),
            records: Vec::new(),
            warm: Vec::new(),
            before: Json::Null,
            after: Json::Null,
        }
    }
}

impl ServeObs {
    /// Growth of a `stats` counter across the measured exchanges.
    fn delta(&self, section: &str, key: &str) -> f64 {
        let get = |j: &Json| {
            j.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        get(&self.after) - get(&self.before)
    }

    /// Plan-cache hits over lookups across the measured exchanges.
    pub fn plan_hit_ratio(&self) -> f64 {
        let hits = self.delta("plan_cache", "hits");
        ratio(hits, hits + self.delta("plan_cache", "misses"))
    }
}

/// Everything the per-layer metrics are computed from.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// Replayed-op samples.
    pub samples: &'a LayerSamples,
    /// Exact counts over the probe set.
    pub probe: &'a Probe,
    /// Serve-layer observations.
    pub serve: &'a ServeObs,
    /// Plan-cache hit ratio of the measured path.
    pub plan_hit_ratio: f64,
    /// The traced phase.
    pub traced: &'a Phase,
    /// The untraced phase.
    pub untraced: &'a Phase,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn layer_metrics(i: &LayerInputs<'_>) -> Vec<Metric> {
    let s = i.samples;
    let p = i.probe;
    let w = i.serve;
    let p50 = |xs: &[f64]| quantile(xs, 0.50);
    let p99 = |xs: &[f64]| quantile(xs, 0.99);
    let mut m = vec![
        metric("psimc.parse_us_p50", p50(&s.parse_us), "us"),
        metric("psimc.lower_us_p50", p50(&s.lower_us), "us"),
        metric("core.pipeline_ms_p50", p50(&s.pipeline_ms), "ms"),
        metric("core.pipeline_ms_p99", p99(&s.pipeline_ms), "ms"),
        metric("core.structurize_us_p50", p50(&s.structurize_us), "us"),
        metric("core.shape_us_p50", p50(&s.shape_us), "us"),
        metric("core.transform_us_p50", p50(&s.transform_us), "us"),
        metric("core.region_ms_sum", p50(&s.region_ms_sum), "ms"),
        metric("core.critical_path_ms", p50(&s.critical_path_ms), "ms"),
        metric("core.driver_efficiency", p50(&s.driver_efficiency), "ratio"),
        metric("core.regions_degraded", p.regions_degraded as f64, "count"),
        metric("core.static_insts", p.static_insts as f64, "count"),
    ];
    for ((group, _), cycles) in CLASS_GROUPS.iter().zip(p.class_cycles) {
        m.push(metric(
            format!("vmach.cycles.{group}"),
            cycles as f64,
            "cycles",
        ));
    }
    m.extend([
        metric("sim_speedup_geomean", geomean(&p.speedups), "x"),
        metric("psir.exec_us_p50", p50(&s.exec_us), "us"),
        metric("psir.exec_us_p99", p99(&s.exec_us), "us"),
        metric("psir.ns_per_inst", p50(&s.ns_per_inst), "ns"),
        metric("psir.dyn_insts", p.dyn_insts as f64, "count"),
        metric("psir.dyn_gathers", p.dyn_gathers as f64, "count"),
        metric("psir.dyn_scatters", p.dyn_scatters as f64, "count"),
        metric("psir.plan_build_us_p50", p50(&s.plan_build_us), "us"),
        metric("psir.native_lower_us_p50", p50(&s.native_lower_us), "us"),
        metric("psir.exec_fast_us_p50", p50(&s.exec_fast_us), "us"),
        metric("psir.exec_native_us_p50", p50(&s.exec_native_us), "us"),
        metric("psir.native_bailouts", p.native_bailouts as f64, "count"),
        metric("psir.plan_cache_hit_ratio", i.plan_hit_ratio, "ratio"),
        metric("suite.fill_us_p50", p50(&s.fill_us), "us"),
    ]);
    let wall: Vec<f64> = w.records.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let unattributed: Vec<f64> = w
        .records
        .iter()
        .map(|r| r.wall_ns.saturating_sub(r.compile_ns + r.exec_ns) as f64 / 1e6)
        .collect();
    let compiles: Vec<f64> = w
        .records
        .iter()
        .chain(&w.warm)
        .filter(|r| !r.module_hit)
        .map(|r| r.compile_ns as f64 / 1e6)
        .collect();
    let exec: Vec<f64> = w.records.iter().map(|r| r.exec_ns as f64 / 1e6).collect();
    let bytes: Vec<f64> = w.records.iter().map(|r| r.bytes as f64).collect();
    let (mhits, mmisses) = (
        w.delta("module_cache", "hits"),
        w.delta("module_cache", "misses"),
    );
    let batches = w.delta("batch", "batches_formed");
    let members = w.delta("batch", "batched_requests");
    m.extend([
        metric("serve.ping_us_p50", p50(&w.pings_us), "us"),
        metric("serve.frame_parse_us_p50", p50(&s.frame_parse_us), "us"),
        metric("serve.key_us_p50", p50(&s.key_us), "us"),
        metric("serve.encode_us_p50", p50(&s.encode_us), "us"),
        metric("serve.reply_bytes_p50", p50(&bytes), "bytes"),
        metric("serve.compile_ms_p50", p50(&compiles), "ms"),
        metric("serve.exec_ms_p50", p50(&exec), "ms"),
        metric("serve.unattributed_ms_p50", p50(&unattributed), "ms"),
        metric(
            "serve.unattributed_share",
            ratio(unattributed.iter().sum(), wall.iter().sum()),
            "ratio",
        ),
        metric(
            "serve.module_cache_hit_ratio",
            ratio(mhits, mhits + mmisses),
            "ratio",
        ),
        metric(
            "serve.module_cache_misses_per_op",
            ratio(mmisses, w.records.len() as f64),
            "1/op",
        ),
        metric("serve.batch_mean_size", ratio(members, batches), "count"),
        metric(
            "serve.batch_coalesced_ratio",
            ratio(w.delta("batch", "coalesced_requests"), members),
            "ratio",
        ),
        metric(
            "serve.batch_window_timeout_ratio",
            ratio(w.delta("batch", "window_timeouts"), batches),
            "ratio",
        ),
        metric("serve.refused", w.delta("admission", "refused"), "count"),
    ]);
    let traced = p50(&i.traced.quiet_quarter().0);
    m.extend([
        metric("trace.op_ms_p50", traced, "ms"),
        metric(
            "trace.overhead_share",
            ratio(traced, p50(&i.untraced.quiet_quarter().0)) - 1.0,
            "ratio",
        ),
    ]);
    m
}

/// The metrics the last line carries: end-to-end untraced, per-layer
/// traced.
pub fn reported(o: &Outcome) -> Vec<Metric> {
    o.layers.clone().unwrap_or_else(|| end_to_end(o))
}

/// Prints the human-readable lines for a finished run.
pub fn print_text(cfg: &Config, o: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("workload_fp {:016x} fnv1a", o.fingerprint);
    let (quiet_ms, quiet_s) = o.untraced.quiet_quarter();
    println!(
        "samples ops={} seconds={:.3} quiet_ops={} quiet_seconds={:.3} setups={}",
        o.untraced.ops.len(),
        o.untraced.seconds,
        quiet_ms.len(),
        quiet_s,
        o.setup_s.len()
    );
    println!(
        "error_rate {} fraction ({} of {})",
        ratio(o.tally.failed as f64, o.tally.attempted as f64),
        o.tally.failed,
        o.tally.attempted
    );
    for why in &o.tally.first {
        eprintln!("FAILED: {why}");
    }
    let mut shown = end_to_end(o);
    if let Some(layers) = &o.layers {
        shown.extend(layers.iter().cloned());
    }
    for m in &shown {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(tally: &crate::Tally, metrics: &[Metric]) -> Json {
    Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::u64(tally.attempted)),
        ("failed", Json::u64(tally.failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(m.value)),
                                ("unit", Json::Str(m.unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}
