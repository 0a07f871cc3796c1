//! The five workloads and what their traced runs share.

pub mod compile;
pub mod interp;
pub mod serve;

use crate::items::Item;
use crate::replay::{self, LayerSamples};
use crate::report::{layer_metrics, LayerInputs, Metric, ServeObs, WireRecord};
use crate::server::{exchange, inspect, Conn, Exchange, Server};
use crate::stats::Phase;
use crate::trace::Trace;
use crate::{Config, Tally};
use psim_serve::request::Request;
use psim_serve::{ServeOptions, ServeState};
use psir::Engine;
use std::time::Instant;
use telemetry::Json;
use vmach::Target;

/// Pings sent to measure the transport floor.
const PINGS: usize = 200;

/// Records one exchange as an `op` span with `client.write` and
/// `client.wait` children. The server's wire-reported compile and execute
/// times become children of the wait, placed back to back at its end
/// (the reply is encoded and written after execution finishes).
pub fn trace_exchange(trace: &mut Trace, ex: &Exchange, rec: &WireRecord, op: u64) {
    let root = trace.span("op", ex.sent, ex.done, None, op);
    trace.span("client.write", ex.sent, ex.written, Some(root), op);
    let wait = trace.span("client.wait", ex.written, ex.done, Some(root), op);
    let (w0, w1) = (trace.spans[wait].start_ns, trace.spans[wait].end_ns);
    let exec0 = w1.saturating_sub(rec.exec_ns).max(w0);
    if rec.compile_ns > 0 {
        let compile0 = exec0.saturating_sub(rec.compile_ns).max(w0);
        trace.push("serve.compile", compile0, exec0, Some(wait), op);
    }
    trace.push("serve.exec", exec0, w1, Some(wait), op);
}

/// Round trips of `ping` on `conn`, µs.
///
/// # Errors
/// Transport failures and replies of another kind.
pub fn pings(conn: &mut Conn) -> Result<Vec<f64>, String> {
    (0..PINGS)
        .map(|i| {
            let t = Instant::now();
            match conn.request(&Request::Ping { id: i as u64 })? {
                psim_serve::Response::Pong { .. } => Ok(t.elapsed().as_secs_f64() * 1e6),
                other => Err(format!("expected pong, got {other:?}")),
            }
        })
        .collect()
}

/// Whether a traced run replays op `op`: every
/// [`crate::REPLAY_EVERY`]-th (callers stop at [`crate::MAX_REPLAYS`]).
pub fn sampled(op: u64) -> bool {
    op.is_multiple_of(crate::REPLAY_EVERY)
}

/// For the in-process workloads: serves each replayed op's item once on a
/// fresh daemon, so the serve-layer metrics describe serving this
/// workload's inputs. Replies are checked against `want` digests.
///
/// # Errors
/// A daemon that does not start, and transport failures.
pub fn replay_server(
    cfg: &Config,
    ops: &[(&Item, u64, u64)],
    trace: &mut Trace,
    samples: &mut LayerSamples,
    tally: &mut Tally,
) -> Result<ServeObs, String> {
    let server = Server::spawn(&cfg.serve_bin)?;
    let mut conn = Conn::connect(&server.addr)?;
    let mut obs = ServeObs {
        pings_us: pings(&mut conn)?,
        before: conn.stats()?,
        ..ServeObs::default()
    };
    let state = ServeState::new(&ServeOptions::default());
    let mut reply = String::new();
    for (k, &(item, op, want)) in ops.iter().enumerate() {
        let line = item.request_line(k as u64, Engine::Fast, &Target::reference_default());
        let ex = exchange(&mut conn, &line, &mut reply)?;
        let r = inspect(&reply, k as u64, ex.wall_ns(), &item.checked_elems());
        trace_exchange(trace, &ex, &r.record, op);
        replay::replay_wire(&line, &state, op, trace, samples)?;
        match r.problem {
            Some(p) => tally.fail(format!("{}: {p}", item.name)),
            None if r.digest != want => tally.fail(format!(
                "{}: served outputs differ from the reference",
                item.name
            )),
            None => tally.pass(),
        }
        obs.records.push(r.record);
    }
    obs.after = conn.stats()?;
    server.shutdown(conn)?;
    Ok(obs)
}

/// What a traced run hands to [`finish`].
pub struct Traced<'a> {
    /// Spans of the traced phase and the replays.
    pub trace: Trace,
    /// Replayed-op samples.
    pub samples: LayerSamples,
    /// Serve-layer observations.
    pub serve: ServeObs,
    /// Plan-cache hit ratio of the measured path.
    pub plan_hit_ratio: f64,
    /// The traced phase.
    pub phase: Phase,
    /// The items exact counts are taken over.
    pub probe_items: &'a [Item],
}

/// Takes the exact counts, writes `trace-<workload>.json`, and returns the
/// per-layer metrics.
///
/// # Errors
/// Probe failures and an unwritable trace file.
pub fn finish(cfg: &Config, untraced: &Phase, t: Traced<'_>) -> Result<Vec<Metric>, String> {
    let probe = replay::probe(t.probe_items)?;
    let metrics = layer_metrics(&LayerInputs {
        samples: &t.samples,
        probe: &probe,
        serve: &t.serve,
        plan_hit_ratio: t.plan_hit_ratio,
        traced: &t.phase,
        untraced,
    });
    let doc = t.trace.to_json(vec![
        ("workload", Json::Str(cfg.workload.name().into())),
        ("seed", Json::u64(cfg.seed)),
        ("stats_before", t.serve.before.clone()),
        ("stats_after", t.serve.after.clone()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), Json::Num(m.value)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let path = cfg
        .out_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    std::fs::write(&path, doc.to_string_compact())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(metrics)
}
