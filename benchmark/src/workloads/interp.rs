//! `run`: one suite kernel run per op on the default engine through
//! `suite::runner::run_module_engine_shared` — the interpreter that
//! regenerates the figures. Modules are built and plans warmed in set-up.

use super::{finish, replay_server, sampled, Traced};
use crate::exec::{bytes_digest, cost, reference_outputs};
use crate::items::{self, Item};
use crate::replay::{self, LayerSamples};
use crate::stats::Phase;
use crate::trace::Trace;
use crate::{more_setups, ms, Config, Outcome, Tally, MAX_REPLAYS};
use parsimony::{vectorize_module_with, PipelineOptions};
use psim_serve::request::Mode;
use psir::{Engine, Module, PlanCache};
use std::sync::Arc;
use std::time::Instant;
use suite::runner::{default_engine, run_module_engine_shared, RunResult};
use suite::Kernel;

/// Simd-Library size: the Figure 5 workload.
pub const N: u64 = 16384;

/// The 86 kernel runs: every Simd-Library kernel under Parsimony, then the
/// ispc workloads (tiny sizes) under both modes.
pub fn runs() -> Vec<(Kernel, Mode)> {
    let mut runs: Vec<(Kernel, Mode)> = suite::simdlib::kernels(N)
        .into_iter()
        .map(|k| (k, Mode::Parsimony))
        .collect();
    let ispc = || suite::ispc::kernels(suite::ispc::IspcSizes::tiny());
    for (k, same) in ispc().into_iter().zip(ispc()) {
        runs.push((k, Mode::Parsimony));
        runs.push((same, Mode::GangSync));
    }
    runs
}

/// The workload fingerprint: FNV-1a over the sources, modes and sizes in
/// op order.
pub fn fingerprint(items: &[Item], order: &[usize]) -> u64 {
    let parts: Vec<String> = order
        .iter()
        .map(|&k| {
            format!(
                "{}\x1f{}\x1f{}",
                items[k].source,
                items[k].mode.name(),
                items[k].n
            )
        })
        .collect();
    items::fingerprint(parts.iter().map(String::as_str))
}

fn build(item: &Item) -> Result<Module, String> {
    let m = psimc::compile(&item.source).map_err(|e| format!("{}: {e}", item.name))?;
    vectorize_module_with(&m, &item.vectorize_options(), &PipelineOptions::default())
        .map(|out| out.module)
        .map_err(|e| format!("{}: {e}", item.name))
}

fn run_one(
    modules: &[Module],
    runs: &[(Kernel, Mode)],
    plans: &Arc<PlanCache>,
    k: usize,
) -> Result<RunResult, String> {
    run_module_engine_shared(
        &modules[k],
        &runs[k].0,
        cost(),
        false,
        default_engine(),
        plans,
        k as u64,
    )
}

/// One measured phase over the seeded order; every run must reproduce the
/// set-up run's outputs, cycles and statistics. Counts, per kernel run,
/// the ops that did (they are only as right as the set-up run).
#[allow(clippy::too_many_arguments)]
fn phase(
    cfg: &Config,
    modules: &[Module],
    runs: &[(Kernel, Mode)],
    plans: &Arc<PlanCache>,
    first: &[RunResult],
    order: &[usize],
    passed: &mut [u64],
    tally: &mut Tally,
    mut trace: Option<&mut Trace>,
) -> Phase {
    let mut ops = Vec::new();
    let deadline = cfg.deadline();
    let t0 = Instant::now();
    let mut op = 0u64;
    while Instant::now() < deadline {
        let k = order[op as usize % order.len()];
        let a = Instant::now();
        let r = run_one(modules, runs, plans, k);
        let b = Instant::now();
        ops.push(((a - t0).as_secs_f64(), ms(a, b)));
        if let Some(tr) = trace.as_deref_mut() {
            tr.span("op", a, b, None, op);
        }
        match r {
            Ok(r)
                if r.outputs == first[k].outputs
                    && r.cycles == first[k].cycles
                    && r.stats == first[k].stats =>
            {
                tally.pass();
                passed[k] += 1;
            }
            Ok(_) => tally.fail(format!(
                "{}: run differs from the set-up run",
                runs[k].0.name
            )),
            Err(e) => tally.fail(e),
        }
        op += 1;
    }
    Phase {
        ops,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Runs the workload.
///
/// # Errors
/// A failing set-up build, run or reference.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    while more_setups(&setup_s) {
        let t = Instant::now();
        let runs = runs();
        let items: Vec<Item> = runs
            .iter()
            .map(|(k, mode)| Item::kernel(k, *mode))
            .collect();
        let modules = items.iter().map(build).collect::<Result<Vec<_>, _>>()?;
        let plans = Arc::new(PlanCache::new(64 << 20));
        let first = (0..runs.len())
            .map(|k| run_one(&modules, &runs, &plans, k))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
        state = Some((runs, items, modules, plans, first));
    }
    let (runs, items, modules, plans, first) = state.expect("at least one set-up");
    let order = items::permutation(runs.len(), cfg.seed);

    let mut tally = Tally::default();
    let mut passed = vec![0; runs.len()];
    let before = plans.stats();
    let untraced = phase(
        cfg,
        &modules,
        &runs,
        &plans,
        &first,
        &order,
        &mut passed,
        &mut tally,
        None,
    );
    let rss_mib = crate::server::vm_hwm_mib("/proc/self/status")?;

    let traced = cfg.trace.then(|| {
        let mut trace = Trace::new(Instant::now());
        let traced = phase(
            cfg,
            &modules,
            &runs,
            &plans,
            &first,
            &order,
            &mut passed,
            &mut tally,
            Some(&mut trace),
        );
        (trace, traced)
    });
    let after = plans.stats();

    // Off the clock: the set-up run of every kernel against its serial
    // build; if it differs, every op of the kernel failed.
    let mut want = Vec::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        let elems = item.checked_elems();
        want.push(bytes_digest(&reference_outputs(item)?, &elems));
        if bytes_digest(&first[k].outputs, &elems) != want[k] {
            tally.record_many(
                passed[k].max(1),
                format!("{}: outputs differ from the serial build", item.name),
            );
        }
    }

    let layers = if let Some((mut trace, traced)) = traced {
        let hits = (after.hits - before.hits) as f64;
        let plan_hit_ratio =
            crate::stats::ratio(hits, hits + (after.misses - before.misses) as f64);
        let mut samples = LayerSamples::default();
        let ops: Vec<(&Item, u64, u64)> = (0..traced.ops.len() as u64)
            .filter(|&op| sampled(op))
            .take(MAX_REPLAYS)
            .map(|op| {
                let k = order[op as usize % order.len()];
                (&items[k], op, want[k])
            })
            .collect();
        for &(item, op, _) in &ops {
            replay::replay(item, Engine::Fast, op, &mut trace, &mut samples)?;
        }
        let serve = replay_server(cfg, &ops, &mut trace, &mut samples, &mut tally)?;
        Some(finish(
            cfg,
            &untraced,
            Traced {
                trace,
                samples,
                serve,
                plan_hit_ratio,
                phase: traced,
                probe_items: &items,
            },
        )?)
    } else {
        None
    };
    Ok(Outcome {
        fingerprint: fingerprint(&items, &order),
        setup_s,
        untraced,
        rss_mib,
        tally,
        layers,
    })
}
