//! Spans recorded by the benchmark around its calls into each layer, kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;
use telemetry::Json;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary crossed (`client.wait`, `psimc.parse`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

/// An append-only span list sharing one clock origin.
#[derive(Debug, Clone)]
pub struct Trace {
    t0: Instant,
    /// Every span, parents before children.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `t0`.
    pub fn new(t0: Instant) -> Trace {
        Trace {
            t0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace's origin.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span between two instants; returns its index.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.push(name, start_ns, end_ns, parent, op)
    }

    /// Records a span given in trace nanoseconds; returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Appends another trace with the same origin, re-basing its parents.
    pub fn append(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (count, total ns, self ns). Self time is a span's
    /// duration minus the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered.min(dur);
        }
        out
    }

    /// The trace document: every span plus the caller's extra fields.
    pub fn to_json(&self, extra: Vec<(&str, Json)>) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::u64(s.start_ns)),
                    ("end_ns", Json::u64(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::u64(p as u64)),
                    ),
                    ("op", Json::u64(s.op)),
                ])
            })
            .collect();
        let summary = self
            .self_times()
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    Json::obj(vec![
                        ("count", Json::u64(count)),
                        ("total_ns", Json::u64(total)),
                        ("self_ns", Json::u64(own)),
                    ]),
                )
            })
            .collect();
        let mut fields = extra;
        fields.push(("self_time", Json::obj(summary)));
        fields.push(("spans", Json::Arr(spans)));
        Json::obj(fields)
    }
}
