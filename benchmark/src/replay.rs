//! Per-layer measurement: an in-process replay of sampled ops through each
//! layer's public calls, and exact counts over a fixed probe set.

use crate::exec::{execute, Run};
use crate::items::{Item, Reference};
use crate::trace::Trace;
use parsimony::{vectorize_module_with, FaultInjector, PipelineOptions};
use psim_serve::hashing::request_key;
use psim_serve::request::{Request, Response};
use psim_serve::ServeState;
use psir::{Engine, Module, PlanCache};
use std::sync::Arc;
use std::time::Instant;
use telemetry::CostClass;

/// Samples gathered by [`replay`] and [`replay_wire`], one per replayed op
/// (per region for the three region passes).
#[derive(Debug, Default)]
pub struct LayerSamples {
    /// `psimc::parse`, µs.
    pub parse_us: Vec<f64>,
    /// `psimc::compile` minus `psimc::parse`, µs.
    pub lower_us: Vec<f64>,
    /// `vectorize_module_with`, ms.
    pub pipeline_ms: Vec<f64>,
    /// `structurize` per region, µs.
    pub structurize_us: Vec<f64>,
    /// `analyze` (shape) per region, µs.
    pub shape_us: Vec<f64>,
    /// `vectorize_function` per region, µs.
    pub transform_us: Vec<f64>,
    /// Summed region build time from the pipeline's `CompileTimings`, ms.
    pub region_ms_sum: Vec<f64>,
    /// Slowest region from the pipeline's `CompileTimings`, ms.
    pub critical_path_ms: Vec<f64>,
    /// Region time over worker capacity (`jobs × wall`).
    pub driver_efficiency: Vec<f64>,
    /// Warm `Interp::call` on the op's own engine, µs.
    pub exec_us: Vec<f64>,
    /// The same call's wall time per dynamic instruction, ns.
    pub ns_per_inst: Vec<f64>,
    /// First fast call on an empty `PlanCache` minus a warm one, µs.
    pub plan_build_us: Vec<f64>,
    /// First native call (plans built) minus a warm one, µs.
    pub native_lower_us: Vec<f64>,
    /// Warm fast-engine call, µs.
    pub exec_fast_us: Vec<f64>,
    /// Warm native-engine call, µs.
    pub exec_native_us: Vec<f64>,
    /// `fill_buffer` over every workload buffer, µs.
    pub fill_us: Vec<f64>,
    /// `Request::parse` on the exact request line, µs.
    pub frame_parse_us: Vec<f64>,
    /// `hashing::request_key`, µs.
    pub key_us: Vec<f64>,
    /// Encoding the reply to its wire line, µs.
    pub encode_us: Vec<f64>,
}

fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

/// Replays one op's item through the front end, the pipeline, the region
/// passes and the interpreter, appending one sample per layer and a span
/// tree rooted at a `replay` span.
///
/// # Errors
/// Compile failures and runtime traps.
pub fn replay(
    item: &Item,
    engine: Engine,
    op: u64,
    trace: &mut Trace,
    s: &mut LayerSamples,
) -> Result<(), String> {
    let t0 = Instant::now();
    let root = trace.push("replay", trace.at(t0), trace.at(t0), None, op);
    let fail = |e: String| format!("replay {}: {e}", item.name);

    let a = Instant::now();
    psimc::parse(&item.source).map_err(|e| fail(e.to_string()))?;
    let b = Instant::now();
    let m = psimc::compile(&item.source).map_err(|e| fail(e.to_string()))?;
    let c = Instant::now();
    trace.span("psimc.parse", a, b, Some(root), op);
    trace.span("psimc.compile", b, c, Some(root), op);
    s.parse_us.push(us(a, b));
    s.lower_us.push(us(b, c) - us(a, b));

    let vopts = item.vectorize_options();
    let a = Instant::now();
    let out = vectorize_module_with(&m, &vopts, &PipelineOptions::default())
        .map_err(|e| fail(e.to_string()))?;
    let b = Instant::now();
    trace.span("core.pipeline", a, b, Some(root), op);
    s.pipeline_ms.push(us(a, b) / 1e3);
    let t = &out.timings;
    s.region_ms_sum.push(t.region_nanos_total() as f64 / 1e6);
    s.critical_path_ms
        .push(t.critical_path_nanos() as f64 / 1e6);
    s.driver_efficiency.push(crate::stats::ratio(
        t.region_nanos_total() as f64,
        (t.jobs.max(1) as u64 * t.wall_nanos) as f64,
    ));

    replay_regions(&m, item, op, root, trace, s);

    let plans = Arc::new(PlanCache::new(64 << 20));
    let runs: Vec<(&'static str, Run)> = [
        ("psir.exec_cold", Engine::Fast),
        ("psir.exec_fast", Engine::Fast),
        ("psir.exec_native_first", Engine::Native),
        ("psir.exec_native", Engine::Native),
    ]
    .into_iter()
    .map(|(name, eng)| {
        Ok((
            name,
            execute(&out.module, item, eng, Some((&plans, 0)), false)?,
        ))
    })
    .collect::<Result<_, String>>()?;
    for (name, r) in &runs {
        let run = trace.span(name, r.fill.0, r.call.1, Some(root), op);
        trace.span("suite.fill", r.fill.0, r.fill.1, Some(run), op);
        trace.span("psir.call", r.call.0, r.call.1, Some(run), op);
    }
    let call_us = |i: usize| runs[i].1.call_ns() as f64 / 1e3;
    s.plan_build_us.push(call_us(0) - call_us(1));
    s.native_lower_us.push(call_us(2) - call_us(3));
    s.exec_fast_us.push(call_us(1));
    s.exec_native_us.push(call_us(3));
    let own = if engine == Engine::Native { 3 } else { 1 };
    s.exec_us.push(call_us(own));
    s.ns_per_inst.push(crate::stats::ratio(
        runs[own].1.call_ns() as f64,
        runs[own].1.stats.insts as f64,
    ));
    s.fill_us.push(runs[1].1.fill_ns() as f64 / 1e3);
    let end = trace.at(Instant::now());
    trace.spans[root].end_ns = end;
    Ok(())
}

/// Times `structurize`, `analyze` and `vectorize_function` on every SPMD
/// region of the scalar module. A region that fails a pass (and would be
/// degraded by the pipeline) contributes only the passes it got through.
fn replay_regions(
    m: &Module,
    item: &Item,
    op: u64,
    root: usize,
    trace: &mut Trace,
    s: &mut LayerSamples,
) {
    let vopts = item.vectorize_options();
    for name in m.spmd_functions() {
        let Some(f) = m.function(&name) else { continue };
        let Some(spmd) = f.spmd else { continue };
        let a = Instant::now();
        let tree = parsimony::structurize(f);
        let b = Instant::now();
        let region = trace.push("core.region", trace.at(a), trace.at(b), Some(root), op);
        trace.span("core.structurize", a, b, Some(region), op);
        s.structurize_us.push(us(a, b));
        let Ok(tree) = tree else { continue };
        let _shapes = parsimony::analyze(f, spmd.gang_size, &tree);
        let c = Instant::now();
        let vectorized = parsimony::vectorize_function(f, &vopts, false);
        let d = Instant::now();
        trace.span("core.shape", b, c, Some(region), op);
        trace.span("core.transform", c, d, Some(region), op);
        trace.spans[region].end_ns = trace.at(d);
        s.shape_us.push(us(b, c));
        if vectorized.is_ok() {
            s.transform_us.push(us(c, d));
        }
    }
}

/// Replays the serve layer's in-process work for one request line:
/// parsing the exact line, computing its cache key, serving it through
/// `state` (the daemon's cached compile-and-execute path, without the
/// sockets) and encoding the reply.
///
/// # Errors
/// A line that does not parse, and a request that fails.
pub fn replay_wire(
    line: &str,
    state: &ServeState,
    op: u64,
    trace: &mut Trace,
    s: &mut LayerSamples,
) -> Result<(), String> {
    let a = Instant::now();
    let req = Request::parse(line.trim_end())?;
    let b = Instant::now();
    let Request::Run(r) = req else {
        return Err("replayed line is not a run request".into());
    };
    let key = request_key(
        &r.source,
        r.mode.name(),
        &r.verify,
        &r.inject,
        r.engine.flag_name(),
        &r.target.flag_name(),
    );
    std::hint::black_box(key);
    let c = Instant::now();
    let resp = Response::Ok(Box::new(state.run_request(&r)?));
    let d = Instant::now();
    let encoded = resp.to_json().to_string_compact();
    std::hint::black_box(encoded);
    let e = Instant::now();
    let root = trace.span("serve.replay", a, e, None, op);
    trace.span("serve.frame_parse", a, b, Some(root), op);
    trace.span("serve.key", b, c, Some(root), op);
    trace.span("serve.run_request", c, d, Some(root), op);
    trace.span("serve.encode", d, e, Some(root), op);
    s.frame_parse_us.push(us(a, b));
    s.key_us.push(us(b, c));
    s.encode_us.push(us(d, e));
    Ok(())
}

/// Cost-class groups reported as `vmach.cycles.<group>`; together they
/// cover every class.
pub const CLASS_GROUPS: [(&str, &[CostClass]); 8] = [
    (
        "vec_alu",
        &[
            CostClass::VecAlu,
            CostClass::VecMul,
            CostClass::VecDiv,
            CostClass::Splat,
        ],
    ),
    ("vec_mem", &[CostClass::VecMem]),
    ("gather_scatter", &[CostClass::Gather, CostClass::Scatter]),
    (
        "shuffle",
        &[CostClass::Shuffle, CostClass::LaneXfer, CostClass::Reduce],
    ),
    ("mask", &[CostClass::MaskOp]),
    ("extern", &[CostClass::ExternCall]),
    (
        "scalar",
        &[
            CostClass::ScalarAlu,
            CostClass::ScalarFp,
            CostClass::ScalarMem,
        ],
    ),
    ("branch_other", &[CostClass::Branch, CostClass::Other]),
];

/// Exact, deterministic counts over a probe set of items.
#[derive(Debug, Default)]
pub struct Probe {
    /// Placed instructions in every function of the vectorized modules.
    pub static_insts: u64,
    /// Regions the pipeline degraded to the scalar fallback.
    pub regions_degraded: u64,
    /// Simulated cycles per [`CLASS_GROUPS`] entry, fast engine, profiled.
    pub class_cycles: [u64; 8],
    /// Dynamic instructions.
    pub dyn_insts: u64,
    /// Dynamic gathers.
    pub dyn_gathers: u64,
    /// Dynamic scatters.
    pub dyn_scatters: u64,
    /// Native-tier blocks that fell back to the per-instruction path.
    pub native_bailouts: u64,
    /// Per item with a scalar build: scalar cycles over Parsimony cycles.
    pub speedups: Vec<f64>,
}

/// Compiles and runs every probe item once per engine, plus its scalar
/// build: the serial source for suite kernels, the pipeline's forced
/// scalar fallback for fuzz programs (skipped where a horizontal region
/// has none).
///
/// # Errors
/// Compile failures and runtime traps.
pub fn probe(items: &[Item]) -> Result<Probe, String> {
    let mut p = Probe::default();
    let fallback = PipelineOptions {
        inject: Some(FaultInjector::parse("vectorize:panic")?),
        ..PipelineOptions::default()
    };
    for item in items {
        let fail = |e: String| format!("probe {}: {e}", item.name);
        let m = psimc::compile(&item.source).map_err(|e| fail(e.to_string()))?;
        let vopts = item.vectorize_options();
        let out = vectorize_module_with(&m, &vopts, &PipelineOptions::default())
            .map_err(|e| fail(e.to_string()))?;
        p.static_insts += static_insts(&out.module);
        p.regions_degraded += out.degraded.len() as u64;
        let fast = execute(&out.module, item, Engine::Fast, None, true)?;
        let profile = fast.profile.as_ref().expect("profiling was enabled");
        for (slot, (_, classes)) in p.class_cycles.iter_mut().zip(CLASS_GROUPS) {
            *slot += classes
                .iter()
                .map(|&c| profile.class_cycles(c))
                .sum::<u64>();
        }
        p.dyn_insts += fast.stats.insts;
        p.dyn_gathers += fast.stats.gathers;
        p.dyn_scatters += fast.stats.scatters;
        p.native_bailouts += execute(&out.module, item, Engine::Native, None, false)?.bailouts;
        let scalar = match &item.reference {
            Reference::Serial(src) => Some(psimc::compile(src).map_err(|e| fail(e.to_string()))?),
            Reference::Spmd(_) => vectorize_module_with(&m, &vopts, &fallback)
                .ok()
                .filter(|o| !o.degraded.is_empty())
                .map(|o| o.module),
        };
        if let Some(sm) = scalar {
            let cycles = execute(&sm, item, Engine::Fast, None, false)?.cycles;
            p.speedups.push(cycles as f64 / fast.cycles.max(1) as f64);
        }
    }
    Ok(p)
}

/// Placed instructions over every function of a module.
pub fn static_insts(m: &Module) -> u64 {
    m.functions()
        .map(|f| {
            f.block_ids()
                .map(|b| f.block(b).insts.len() as u64)
                .sum::<u64>()
        })
        .sum()
}
