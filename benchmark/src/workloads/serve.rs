//! The serve workloads, driven against the real `psim-serve` binary with
//! its shipped defaults. Load comes from one process: two threads, one
//! connection each, closed loop — a connection sends its next request
//! only after its reply arrived, the way a build tool farming kernels
//! waits on the daemon.
//!
//! * `serve-hot` — warm caches; every suite and corpus request on both
//!   engines, each connection in its own seeded order, so requests almost
//!   never share a plan at the same moment.
//! * `serve-fresh` — never-seen fuzz programs, each sent back to back on
//!   one connection once per engine × target leg; connections alternate
//!   programs. The cold path: parse, hash, module-cache miss, compile,
//!   plan build, native lowering.
//! * `serve-shared` — both connections send the same request in every
//!   round (barrier-aligned), rotating over the Simd-Library kernels: the
//!   only traffic the batching tier can coalesce.

use super::{finish, pings, sampled, trace_exchange, Traced};
use crate::exec::{bytes_digest, reference_outputs};
use crate::items::{self, Item};
use crate::replay::{self, LayerSamples};
use crate::report::{ServeObs, WireRecord};
use crate::server::{exchange, inspect, Conn, Reply, Server};
use crate::stats::Phase;
use crate::trace::Trace;
use crate::{more_setups, Config, Outcome, Tally, Workload, MAX_REPLAYS};
use psim_serve::{ServeOptions, ServeState};
use psir::{Engine, ScalarTy};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;
use vmach::Target;

/// Simd-Library size of `serve-hot` requests.
const HOT_N: u64 = 1024;

/// Simd-Library size of `serve-shared` requests: the Figure 5 workload.
const SHARED_N: u64 = 16384;

/// Fresh programs generated per measured second; several times what the
/// daemon serves, so a phase never runs out of never-seen programs.
const FRESH_PROGRAMS_PER_S: f64 = 200.0;

/// Fuzz programs the `serve-fresh` exact counts are taken over.
const FRESH_PROBE: usize = 64;

/// Client connections (and threads).
const CONNS: usize = 2;

/// The engine × target legs of every `serve-fresh` program.
fn fresh_legs() -> [(Engine, Target); 4] {
    let avx = Target::reference_default();
    let sve = Target::sve(512);
    [
        (Engine::Fast, avx.clone()),
        (Engine::Native, avx),
        (Engine::Fast, sve.clone()),
        (Engine::Native, sve),
    ]
}

/// Who sends what, op after op.
#[derive(Debug, Clone)]
enum Schedule {
    /// Each connection walks its own seeded order of every template.
    Hot([Vec<usize>; CONNS]),
    /// Connection `c` takes programs `c`, `c + 2`, … of `[start, end)`,
    /// each program's `legs` templates back to back.
    Fresh {
        legs: usize,
        start: usize,
        end: usize,
    },
    /// Both connections send `order[r % len]` in round `r`.
    Shared(Vec<usize>),
}

/// A serve workload's op sequence.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Distinct compile-and-run units.
    pub items: Vec<Item>,
    /// Per template: the item and the engine it is sent with.
    pub templates: Vec<(usize, Engine)>,
    /// Per template: the request line (its id is the template index).
    pub lines: Vec<String>,
    /// Per item: element types of its checked buffers.
    elems: Vec<Vec<ScalarTy>>,
    /// Whether set-up sends every template once.
    warm: bool,
    /// The untraced and traced phases' schedules.
    schedules: [Schedule; 2],
    /// The items exact counts are taken over.
    probe: std::ops::Range<usize>,
}

impl Plan {
    /// Builds the op sequence of a serve workload from its seed.
    ///
    /// # Errors
    /// Unreadable corpus files.
    pub fn new(cfg: &Config) -> Result<Plan, String> {
        let seed = cfg.seed;
        let (items, engines_targets, warm): (Vec<Item>, Vec<(Engine, Target)>, bool) = match cfg
            .workload
        {
            Workload::ServeHot => {
                let mut items = items::suite_items(HOT_N);
                items.extend(items::corpus_items()?);
                let def = Target::reference_default();
                (
                    items,
                    vec![(Engine::Fast, def.clone()), (Engine::Native, def)],
                    true,
                )
            }
            Workload::ServeShared => {
                let items = suite::simdlib::kernels(SHARED_N)
                    .iter()
                    .map(|k| Item::kernel(k, psim_serve::Mode::Parsimony))
                    .collect();
                (
                    items,
                    vec![(Engine::Fast, Target::reference_default())],
                    true,
                )
            }
            _ => {
                // One phase's worth each for the untraced and traced runs.
                let per_phase = (cfg.phase_seconds() * FRESH_PROGRAMS_PER_S).ceil() as usize;
                let count = per_phase * if cfg.trace { 2 } else { 1 };
                let items = items::fuzz_items(seed, count.max(FRESH_PROBE), &mut HashSet::new());
                (items, fresh_legs().to_vec(), false)
            }
        };
        let legs = engines_targets.len();
        let mut templates = Vec::with_capacity(items.len() * legs);
        let mut lines = Vec::with_capacity(items.len() * legs);
        for (i, item) in items.iter().enumerate() {
            for (engine, target) in &engines_targets {
                lines.push(item.request_line(templates.len() as u64, *engine, target));
                templates.push((i, *engine));
            }
        }
        let n = templates.len();
        let schedule = match cfg.workload {
            Workload::ServeHot => Schedule::Hot([
                items::permutation(n, seed),
                items::permutation(n, seed ^ 0x9e37_79b9),
            ]),
            Workload::ServeShared => Schedule::Shared(items::permutation(n, seed)),
            _ => {
                let end = if cfg.trace {
                    items.len() / 2
                } else {
                    items.len()
                };
                Schedule::Fresh {
                    legs,
                    start: 0,
                    end,
                }
            }
        };
        let traced = match &schedule {
            Schedule::Fresh { legs, end, .. } => Schedule::Fresh {
                legs: *legs,
                start: *end,
                end: items.len(),
            },
            other => other.clone(),
        };
        let probe = 0..match cfg.workload {
            Workload::ServeFresh => FRESH_PROBE.min(items.len()),
            _ => items.len(),
        };
        Ok(Plan {
            elems: items.iter().map(Item::checked_elems).collect(),
            items,
            templates,
            lines,
            warm,
            schedules: [schedule, traced],
            probe,
        })
    }

    /// The workload fingerprint: FNV-1a over the request lines in the
    /// order the untraced phase first sends them.
    pub fn fingerprint(&self) -> u64 {
        let order: Vec<usize> = match &self.schedules[0] {
            Schedule::Hot([a, b]) => a.iter().chain(b).copied().collect(),
            Schedule::Shared(order) => order.clone(),
            Schedule::Fresh { legs, start, end } => (start * legs..end * legs).collect(),
        };
        items::fingerprint(order.iter().map(|&t| self.lines[t].as_str()))
    }
}

/// One measured exchange.
struct Op {
    template: usize,
    sent: Instant,
    reply: Reply,
}

/// What one connection's thread did in a phase.
#[derive(Default)]
struct ConnOut {
    ops: Vec<Op>,
    trace: Option<Trace>,
    /// Every sampled op: (template, op id) for the replay.
    samples: Vec<(usize, u64)>,
    /// A dropped connection ends the thread's phase.
    dropped: Option<String>,
}

/// Drives one phase on both connections; returns each connection's ops,
/// when the phase started and its length in seconds. A traced phase's
/// spans are timed from its start.
fn phase(
    cfg: &Config,
    plan: &Plan,
    schedule: &Schedule,
    conns: &mut [Conn],
    traced: bool,
) -> (Vec<ConnOut>, Instant, f64) {
    let deadline = cfg.deadline();
    let barrier = Barrier::new(CONNS);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let trace_t0 = traced.then_some(t0);
    let outs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || drive(c, conn, plan, schedule, deadline, barrier, stop, trace_t0))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnOut {
                    dropped: Some("client thread panicked".into()),
                    ..ConnOut::default()
                })
            })
            .collect()
    });
    (outs, t0, t0.elapsed().as_secs_f64())
}

/// One connection's closed loop.
#[allow(clippy::too_many_arguments)]
fn drive(
    c: usize,
    conn: &mut Conn,
    plan: &Plan,
    schedule: &Schedule,
    deadline: Instant,
    barrier: &Barrier,
    stop: &AtomicBool,
    trace_t0: Option<Instant>,
) -> ConnOut {
    let mut out = ConnOut {
        trace: trace_t0.map(Trace::new),
        ..ConnOut::default()
    };
    let over = || Instant::now() >= deadline;
    let mut reply = String::new();
    let mut i = 0u64;
    loop {
        let template = match schedule {
            Schedule::Hot(orders) => {
                if over() {
                    break;
                }
                orders[c][i as usize % orders[c].len()]
            }
            Schedule::Fresh { legs, start, end } => {
                let legs = *legs as u64;
                let program = start + c + CONNS * (i / legs) as usize;
                if program >= *end || (i.is_multiple_of(legs) && over()) {
                    break;
                }
                program * legs as usize + (i % legs) as usize
            }
            Schedule::Shared(order) => {
                // Both connections agree on stopping, then send together.
                if barrier.wait().is_leader() {
                    stop.fetch_or(over(), Ordering::SeqCst);
                }
                barrier.wait();
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                order[i as usize % order.len()]
            }
        };
        let line = &plan.lines[template];
        let ex = match exchange(conn, line, &mut reply) {
            Ok(ex) => ex,
            Err(e) => {
                out.dropped = Some(format!(
                    "{}: {e}",
                    plan.items[plan.templates[template].0].name
                ));
                if matches!(schedule, Schedule::Shared(_)) {
                    // Release the partner through one more round's two
                    // barriers, with the stop flag already raised.
                    stop.store(true, Ordering::SeqCst);
                    barrier.wait();
                    barrier.wait();
                }
                break;
            }
        };
        let elems = &plan.elems[plan.templates[template].0];
        let r = inspect(&reply, template as u64, ex.wall_ns(), elems);
        let op = ((c as u64) << 32) | i;
        if let Some(tr) = out.trace.as_mut() {
            trace_exchange(tr, &ex, &r.record, op);
            if sampled(i) && out.samples.len() < MAX_REPLAYS / CONNS {
                out.samples.push((template, op));
            }
        }
        out.ops.push(Op {
            template,
            sent: ex.sent,
            reply: r,
        });
        i += 1;
    }
    out
}

/// Spawns the daemon, connects, and waits for the first `ping` reply;
/// then, for warm workloads, sends every template once on the first
/// connection. Returns the daemon, both connections and the warm ops.
fn set_up(cfg: &Config, plan: &Plan) -> Result<(Server, Vec<Conn>, Vec<Op>), String> {
    let server = Server::spawn(&cfg.serve_bin)?;
    let mut first = Conn::connect(&server.addr)?;
    first.request(&psim_serve::Request::Ping { id: 0 })?;
    let mut warm = Vec::new();
    if plan.warm {
        let mut reply = String::new();
        for (t, line) in plan.lines.iter().enumerate() {
            let ex = exchange(&mut first, line, &mut reply)?;
            warm.push(Op {
                template: t,
                sent: ex.sent,
                reply: inspect(
                    &reply,
                    t as u64,
                    ex.wall_ns(),
                    &plan.elems[plan.templates[t].0],
                ),
            });
        }
    }
    let second = Conn::connect(&server.addr)?;
    Ok((server, vec![first, second], warm))
}

/// Checks every op against its item's reference digest (computed here,
/// off the clock, once per item used).
fn check(plan: &Plan, ops: &[&Op], tally: &mut Tally) -> Result<(), String> {
    let mut want: HashMap<usize, u64> = HashMap::new();
    for op in ops {
        let item = plan.templates[op.template].0;
        if let std::collections::hash_map::Entry::Vacant(e) = want.entry(item) {
            let reference = reference_outputs(&plan.items[item])?;
            e.insert(bytes_digest(&reference, &plan.elems[item]));
        }
        let name = &plan.items[item].name;
        match &op.reply.problem {
            Some(p) => tally.fail(format!("{name}: {p}")),
            None if op.reply.digest != want[&item] => {
                tally.fail(format!("{name}: served outputs differ from the reference"))
            }
            None => tally.pass(),
        }
    }
    Ok(())
}

/// Folds a phase's per-connection results: its ops, plus a failure for
/// each dropped connection.
fn collect(outs: &mut [ConnOut], tally: &mut Tally) -> Vec<Op> {
    let mut ops = Vec::new();
    for out in outs {
        if let Some(why) = out.dropped.take() {
            tally.fail(format!("dropped: {why}"));
        }
        ops.append(&mut out.ops);
    }
    ops
}

/// A phase's ops, timed from its start `t0`.
fn timings(ops: &[Op], t0: Instant, seconds: f64) -> Phase {
    Phase {
        ops: ops
            .iter()
            .map(|o| {
                let at_s = o.sent.saturating_duration_since(t0).as_secs_f64();
                (at_s, o.reply.record.wall_ns as f64 / 1e6)
            })
            .collect(),
        seconds,
    }
}

/// Runs a serve workload.
///
/// # Errors
/// A daemon that does not start or stop cleanly, transport failures
/// outside the measured phases, and failing references.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let plan = Plan::new(cfg)?;
    let mut setup_s = Vec::new();
    let mut session: Option<(Server, Vec<Conn>, Vec<Op>)> = None;
    while more_setups(&setup_s) {
        if let Some((server, mut conns, _)) = session.take() {
            Server::shutdown(server, conns.swap_remove(0))?;
        }
        let t = Instant::now();
        session = Some(set_up(cfg, &plan)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (server, mut conns, warm) = session.expect("at least one set-up");

    let mut tally = Tally::default();
    let (mut outs, t0, seconds) = phase(cfg, &plan, &plan.schedules[0], &mut conns, false);
    let ops = collect(&mut outs, &mut tally);
    let untraced = timings(&ops, t0, seconds);
    let rss_mib = server.peak_rss_mib()?;

    let mut traced_ops = Vec::new();
    let mut traced = None;
    if cfg.trace {
        let mut obs = ServeObs {
            pings_us: pings(&mut conns[0])?,
            before: conns[0].stats()?,
            warm: warm.iter().map(|o| o.reply.record).collect(),
            ..ServeObs::default()
        };
        let (mut outs, t0, seconds) = phase(cfg, &plan, &plan.schedules[1], &mut conns, true);
        obs.after = conns[0].stats()?;
        let mut trace = Trace::new(t0);
        let mut samples = Vec::new();
        for out in &mut outs {
            if let Some(tr) = out.trace.take() {
                trace.append(tr);
            }
            samples.append(&mut out.samples);
        }
        traced_ops = collect(&mut outs, &mut tally);
        obs.records = traced_ops
            .iter()
            .map(|o| o.reply.record)
            .collect::<Vec<WireRecord>>();
        traced = Some((trace, samples, obs, timings(&traced_ops, t0, seconds)));
    }
    server.shutdown(conns.swap_remove(0))?;

    let all: Vec<&Op> = warm.iter().chain(&ops).chain(&traced_ops).collect();
    check(&plan, &all, &mut tally)?;

    let layers = match traced {
        None => None,
        Some((mut trace, samples, obs, phase)) => {
            let mut ls = LayerSamples::default();
            let state = ServeState::new(&ServeOptions::default());
            for &(template, op) in &samples {
                let (item, engine) = plan.templates[template];
                replay::replay(&plan.items[item], engine, op, &mut trace, &mut ls)?;
                replay::replay_wire(&plan.lines[template], &state, op, &mut trace, &mut ls)?;
            }
            let plan_hit_ratio = obs.plan_hit_ratio();
            Some(finish(
                cfg,
                &untraced,
                Traced {
                    trace,
                    samples: ls,
                    serve: obs,
                    plan_hit_ratio,
                    phase,
                    probe_items: &plan.items[plan.probe.clone()],
                },
            )?)
        }
    };
    Ok(Outcome {
        fingerprint: plan.fingerprint(),
        setup_s,
        untraced,
        rss_mib,
        tally,
        layers,
    })
}
