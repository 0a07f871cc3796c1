//! `compile`: one module per op through `psimc::compile` and
//! `vectorize_module_with` at the default worker count — what dropping the
//! pass into a standard compiler flow costs.

use super::{finish, replay_server, sampled, Traced};
use crate::exec::{bytes_digest, execute, reference_outputs};
use crate::items::{self, Item};
use crate::replay::{self, static_insts, LayerSamples};
use crate::report::ServeObs;
use crate::stats::Phase;
use crate::trace::Trace;
use crate::{more_setups, ms, Config, Outcome, Tally, MAX_REPLAYS};
use parsimony::{vectorize_module_with, PipelineOptions, PipelineOutput};
use psir::Engine;
use std::collections::HashSet;
use std::time::Instant;

/// Generated fuzz programs mixed into the suite sources. The slowest 1% of
/// ops are fuzz programs, so `op_ms_p99` is set by the draw's largest
/// programs: with 64 of them it moved 12% between seeds, with 512 5%.
const FUZZ_PROGRAMS: usize = 512;

/// Simd-Library size of the suite items (compile cost does not depend on
/// it; the reference check runs at it).
const N: u64 = 1024;

/// The op sequence: every suite source plus a seeded draw of fuzz
/// programs, in a seeded order, cycled.
pub fn items(seed: u64) -> Vec<Item> {
    let mut all = items::suite_items(N);
    all.extend(items::fuzz_items(seed, FUZZ_PROGRAMS, &mut HashSet::new()));
    items::permutation(all.len(), seed)
        .into_iter()
        .map(|i| all[i].clone())
        .collect()
}

/// The workload fingerprint: FNV-1a over the sources in op order.
pub fn fingerprint(items: &[Item]) -> u64 {
    items::fingerprint(items.iter().map(|i| i.source.as_str()))
}

/// One op: returns the pipeline output and when parsing+lowering started,
/// when the pipeline started, and when it finished.
fn compile(item: &Item) -> Result<(PipelineOutput, [Instant; 3]), String> {
    let a = Instant::now();
    let m = psimc::compile(&item.source).map_err(|e| format!("{}: {e}", item.name))?;
    let b = Instant::now();
    let out = vectorize_module_with(&m, &item.vectorize_options(), &PipelineOptions::default())
        .map_err(|e| format!("{}: {e}", item.name))?;
    Ok((out, [a, b, Instant::now()]))
}

/// What every compile of an item must reproduce: function count, placed
/// instructions, vectorized and degraded regions.
type Shape = (usize, u64, Vec<String>, Vec<String>);

fn shape(out: &PipelineOutput) -> Shape {
    (
        out.module.functions().count(),
        static_insts(&out.module),
        out.vectorized.clone(),
        out.degraded.clone(),
    )
}

/// One measured phase. Counts, per item, the ops that reproduced the
/// set-up pass's shape (they are only as right as the module checked
/// against the reference). Outputs are dropped as they come, so the peak
/// resident set is the compiler's, not the benchmark's.
fn phase(
    cfg: &Config,
    items: &[Item],
    shapes: &[Shape],
    passed: &mut [u64],
    tally: &mut Tally,
    mut trace: Option<&mut Trace>,
) -> Phase {
    let mut ops = Vec::new();
    let deadline = cfg.deadline();
    let t0 = Instant::now();
    let mut op = 0u64;
    while Instant::now() < deadline {
        let k = op as usize % items.len();
        match compile(&items[k]) {
            Ok((out, [a, b, c])) => {
                ops.push(((a - t0).as_secs_f64(), ms(a, c)));
                if let Some(tr) = trace.as_deref_mut() {
                    let root = tr.span("op", a, c, None, op);
                    tr.span("psimc.compile", a, b, Some(root), op);
                    tr.span("core.pipeline", b, c, Some(root), op);
                }
                if shape(&out) == shapes[k] {
                    tally.pass();
                    passed[k] += 1;
                } else {
                    tally.fail(format!(
                        "{}: output differs from the set-up pass",
                        items[k].name
                    ));
                }
            }
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
/// A failing set-up compile or reference.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let items = items(cfg.seed);
    let mut setup_s = Vec::new();
    let mut shapes = Vec::new();
    while more_setups(&setup_s) {
        let t = Instant::now();
        shapes = items
            .iter()
            .map(|it| compile(it).map(|(out, _)| shape(&out)))
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut tally = Tally::default();
    let mut passed = vec![0; items.len()];
    let untraced = phase(cfg, &items, &shapes, &mut passed, &mut tally, None);
    let rss_mib = crate::server::vm_hwm_mib("/proc/self/status")?;

    let traced = cfg.trace.then(|| {
        let mut trace = Trace::new(Instant::now());
        let phase = phase(
            cfg,
            &items,
            &shapes,
            &mut passed,
            &mut tally,
            Some(&mut trace),
        );
        (trace, phase)
    });

    // Off the clock: every item is compiled once more and must reproduce
    // the set-up shape and compute the reference outputs; if it does not,
    // every op of the item failed.
    let mut want = Vec::with_capacity(items.len());
    for (k, item) in items.iter().enumerate() {
        let elems = item.checked_elems();
        want.push(bytes_digest(&reference_outputs(item)?, &elems));
        let why = match compile(item) {
            Ok((out, _)) if shape(&out) != shapes[k] => {
                format!("{}: output differs from the set-up pass", item.name)
            }
            Ok((out, _)) => match execute(&out.module, item, Engine::Fast, None, false) {
                Ok(r) if bytes_digest(&r.outputs, &elems) == want[k] => continue,
                Ok(_) => format!("{}: outputs differ from the reference", item.name),
                Err(e) => e,
            },
            Err(e) => e,
        };
        tally.record_many(passed[k].max(1), why);
    }

    let layers = if let Some((mut trace, traced)) = traced {
        let mut samples = LayerSamples::default();
        let ops: Vec<(&Item, u64, u64)> = (0..traced.ops.len() as u64)
            .filter(|&op| sampled(op))
            .take(MAX_REPLAYS)
            .map(|op| {
                let k = op as usize % items.len();
                (&items[k], op, want[k])
            })
            .collect();
        for &(item, op, _) in &ops {
            replay::replay(item, Engine::Fast, op, &mut trace, &mut samples)?;
        }
        let serve: ServeObs = replay_server(cfg, &ops, &mut trace, &mut samples, &mut tally)?;
        let plan_hit_ratio = serve.plan_hit_ratio();
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
        fingerprint: fingerprint(&items),
        setup_s,
        untraced,
        rss_mib,
        tally,
        layers,
    })
}
