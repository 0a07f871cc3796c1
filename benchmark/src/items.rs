//! Workload items: one compile-and-run unit each — a PsimC source, its
//! entry point and workload buffers — plus what its independent reference
//! is built from.

use psim_fuzz::rng::Rng;
use psim_serve::hashing::source_hash;
use psim_serve::request::{Mode, Request, RunRequest};
use psir::{Engine, RtVal, ScalarTy};
use std::collections::HashSet;
use suite::{BufSpec, Kernel};
use vmach::Target;

/// How an item's reference outputs are computed. Neither path runs the
/// Parsimony pass.
#[derive(Debug, Clone)]
pub enum Reference {
    /// A suite kernel: its serial source, compiled as-is (the
    /// `Config::Scalar` build).
    Serial(String),
    /// A fuzz program: `parsimony::SpmdRef` over the un-vectorized module.
    /// Holds the buffer parameter names, in order.
    Spmd(Vec<String>),
}

/// One compile-and-run unit.
#[derive(Debug, Clone)]
pub struct Item {
    /// Display name (`kernel/mode`, `corpus/file@n`, `fuzz/seed`).
    pub name: String,
    /// PsimC source.
    pub source: String,
    /// Entry function.
    pub entry: String,
    /// Element count passed as the trailing argument.
    pub n: u64,
    /// SPMD compile mode.
    pub mode: Mode,
    /// Workload buffers, in parameter order.
    pub buffers: Vec<BufSpec>,
    /// Extra scalar arguments (bit patterns) between buffers and `n`.
    pub extra_args: Vec<u64>,
    /// Where the reference outputs come from.
    pub reference: Reference,
}

impl Item {
    /// A suite kernel under one compile mode.
    ///
    /// # Panics
    /// On a non-scalar extra argument (no suite kernel has one).
    pub fn kernel(k: &Kernel, mode: Mode) -> Item {
        Item {
            name: format!("{}/{}", k.name, mode.name()),
            source: k.psim_src.clone(),
            entry: "main".into(),
            n: k.n,
            mode,
            buffers: k.buffers.clone(),
            extra_args: k
                .extra_args
                .iter()
                .map(|v| match v {
                    RtVal::S(x) => *x,
                    other => panic!("{}: non-scalar extra argument {other:?}", k.name),
                })
                .collect(),
            reference: Reference::Serial(k.serial_src.clone()),
        }
    }

    /// Element types of the `check`-marked buffers, in order.
    pub fn checked_elems(&self) -> Vec<ScalarTy> {
        self.buffers
            .iter()
            .filter(|b| b.check)
            .map(|b| b.elem)
            .collect()
    }

    /// The vectorizer options of the item's mode.
    pub fn vectorize_options(&self) -> parsimony::VectorizeOptions {
        match self.mode {
            Mode::Parsimony => parsimony::VectorizeOptions::default(),
            Mode::GangSync => parsimony::VectorizeOptions::gang_synchronous(),
        }
    }

    /// The interpreter arguments for buffers at `addrs`.
    pub fn args(&self, addrs: &[u64]) -> Vec<RtVal> {
        let mut args: Vec<RtVal> = addrs.iter().map(|&a| RtVal::S(a)).collect();
        args.extend(self.extra_args.iter().map(|&v| RtVal::S(v)));
        args.push(RtVal::S(self.n));
        args
    }

    /// The `run` request for this item.
    pub fn request(&self, id: u64, engine: Engine, target: &Target) -> RunRequest {
        let mut r = RunRequest::new(id, &self.source, self.n);
        r.entry.clone_from(&self.entry);
        r.mode = self.mode;
        r.buffers.clone_from(&self.buffers);
        r.extra_args.clone_from(&self.extra_args);
        r.engine = engine;
        r.target = target.clone();
        r
    }

    /// The request serialized as one wire line, newline included.
    pub fn request_line(&self, id: u64, engine: Engine, target: &Target) -> String {
        let mut line = Request::Run(Box::new(self.request(id, engine, target)))
            .to_json()
            .to_string_compact();
        line.push('\n');
        line
    }
}

/// Every Simd-Library kernel at size `n` under Parsimony, then the ispc
/// workloads (tiny sizes) under both modes: the 86 kernel runs of the
/// figure harnesses.
pub fn suite_items(n: u64) -> Vec<Item> {
    let mut items: Vec<Item> = suite::simdlib::kernels(n)
        .iter()
        .map(|k| Item::kernel(k, Mode::Parsimony))
        .collect();
    for k in suite::ispc::kernels(suite::ispc::IspcSizes::tiny()) {
        for mode in [Mode::Parsimony, Mode::GangSync] {
            items.push(Item::kernel(&k, mode));
        }
    }
    items
}

/// The committed fuzz-corpus cases, one item per `(file, n)` pair.
///
/// # Errors
/// Unreadable or malformed repro files.
pub fn corpus_items() -> Result<Vec<Item>, String> {
    let dir = psim_serve::servebench::default_corpus_dir();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "psim"))
        .collect();
    files.sort();
    let mut items = Vec::new();
    for path in files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = psim_fuzz::parse_repro(&text, &stem)?;
        for &n in &case.n_values {
            items.push(Item {
                name: format!("corpus/{stem}@{n}"),
                source: case.source.clone(),
                entry: "kernel".into(),
                n,
                mode: Mode::Parsimony,
                buffers: case.bufs.iter().map(psim_fuzz::FuzzBuf::spec).collect(),
                extra_args: Vec::new(),
                reference: Reference::Spmd(case.bufs.iter().map(|b| b.name.clone()).collect()),
            });
        }
    }
    Ok(items)
}

/// Draws `count` generated fuzz programs from the workload seed, skipping
/// any whose canonical source hash is already in `seen` (so every program
/// is new to a server's content-addressed cache). Each program is rendered
/// at its first gang size and run at its largest thread count.
///
/// Programs that read other lanes (shuffle, broadcast) are skipped: about
/// one in ten thousand of them hits a known pipeline bug (a region the
/// verifier rejects, which the fallback cannot serialize, so the compile
/// fails), and an op that fails makes the run's numbers meaningless.
pub fn fuzz_items(seed: u64, count: usize, seen: &mut HashSet<u64>) -> Vec<Item> {
    let mut rng = Rng::new(seed ^ 0x5eed_f022);
    let mut items = Vec::with_capacity(count);
    while items.len() < count {
        let pseed = rng.next_u64();
        let p = psim_fuzz::generate(pseed);
        if p.has_lane_horizontal() {
            continue;
        }
        let source = p.source_for_gang(p.gangs[0]);
        if !seen.insert(source_hash(&source)) {
            continue;
        }
        items.push(Item {
            name: format!("fuzz/{pseed:016x}"),
            source,
            entry: "kernel".into(),
            n: p.n_values.iter().copied().max().unwrap_or(1),
            mode: Mode::Parsimony,
            buffers: p.bufs.iter().map(psim_fuzz::FuzzBuf::spec).collect(),
            extra_args: Vec::new(),
            reference: Reference::Spmd(p.bufs.iter().map(|b| b.name.clone()).collect()),
        });
    }
    items
}

/// A seeded permutation of `0..n` (Fisher–Yates over SplitMix64).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

/// An FNV-1a 64 hash fed in pieces.
pub struct Fnv(u64);

impl Fnv {
    /// The empty hash.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

/// FNV-1a 64 over a sequence of strings, each followed by a 0x1f
/// separator: the workload fingerprint over an op sequence.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for p in parts {
        h.write(p.as_bytes());
        h.write(&[0x1f]);
    }
    h.finish()
}
