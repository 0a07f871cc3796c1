//! In-process execution of an item, and its independent reference.

use crate::items::{Fnv, Item, Reference};
use parsimony::SpmdRef;
use psir::{Engine, ExecStats, Interp, Memory, Module, PlanCache, Profile, RtVal, ScalarTy};
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use suite::runner::fill_buffer;
use telemetry::Json;
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

static EXTERNS: RuntimeExterns = RuntimeExterns::new();

/// The cost model of the reference target, built once.
pub fn cost() -> &'static TargetCost {
    static COST: OnceLock<TargetCost> = OnceLock::new();
    COST.get_or_init(|| TargetCost::for_target(Target::reference_default()))
}

/// What one execution produced and what it took.
#[derive(Debug)]
pub struct Run {
    /// Contents of every `check`-marked buffer, in order.
    pub outputs: Vec<Vec<u8>>,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic execution statistics.
    pub stats: ExecStats,
    /// Cycle attribution, when requested.
    pub profile: Option<Profile>,
    /// Native-tier blocks that fell back to the per-instruction path.
    pub bailouts: u64,
    /// When `suite::runner::fill_buffer` started and finished filling
    /// every buffer.
    pub fill: (Instant, Instant),
    /// When the `Interp::call` started and returned.
    pub call: (Instant, Instant),
}

impl Run {
    /// Wall nanoseconds of the buffer fills.
    pub fn fill_ns(&self) -> u64 {
        (self.fill.1 - self.fill.0).as_nanos() as u64
    }

    /// Wall nanoseconds of the call.
    pub fn call_ns(&self) -> u64 {
        (self.call.1 - self.call.0).as_nanos() as u64
    }
}

/// Fills the item's buffers into fresh memory; returns the memory, the
/// buffer addresses and when the fills started and finished.
pub fn fill(item: &Item) -> (Memory, Vec<u64>, (Instant, Instant)) {
    let mut mem = Memory::default();
    let t = Instant::now();
    let addrs = item
        .buffers
        .iter()
        .map(|spec| fill_buffer(&mut mem, spec))
        .collect();
    (mem, addrs, (t, Instant::now()))
}

fn read_checked(mem: &Memory, item: &Item, addrs: &[u64]) -> Result<Vec<Vec<u8>>, String> {
    item.buffers
        .iter()
        .zip(addrs)
        .filter(|(spec, _)| spec.check)
        .map(|(spec, &addr)| {
            mem.read_bytes(addr, spec.elem.size_bytes() * spec.len)
                .map(<[u8]>::to_vec)
                .map_err(|e| format!("{}: reading back: {e}", item.name))
        })
        .collect()
}

/// Executes `module`'s entry over the item's workload on `engine`, with an
/// optional shared plan cache `(cache, module_id)`.
///
/// # Errors
/// Runtime traps, with the item name.
pub fn execute(
    module: &Module,
    item: &Item,
    engine: Engine,
    plans: Option<(&Arc<PlanCache>, u64)>,
    profile: bool,
) -> Result<Run, String> {
    let (mem, addrs, fill) = fill(item);
    let args = item.args(&addrs);
    let mut it = Interp::new(module, mem, cost(), &EXTERNS);
    it.set_engine(engine);
    if let Some((cache, id)) = plans {
        it.set_plan_cache(Arc::clone(cache), id);
    }
    if profile {
        it.enable_profiling();
    }
    let t = Instant::now();
    it.call(&item.entry, &args)
        .map_err(|e| format!("{}: runtime error: {e}", item.name))?;
    let call = (t, Instant::now());
    Ok(Run {
        outputs: read_checked(&it.mem, item, &addrs)?,
        cycles: it.cycles,
        stats: it.stats,
        bailouts: it.native_bailouts(),
        profile: it.take_profile(),
        fill,
        call,
    })
}

/// The item's reference outputs (every `check`-marked buffer), computed
/// without the Parsimony pass: suite kernels run their serial build, fuzz
/// programs run on the SPMD reference executor.
///
/// # Errors
/// Front-end failures and runtime traps in the reference itself.
pub fn reference_outputs(item: &Item) -> Result<Vec<Vec<u8>>, String> {
    match &item.reference {
        Reference::Serial(src) => {
            let m = psimc::compile(src).map_err(|e| format!("{}: serial: {e}", item.name))?;
            Ok(execute(&m, item, Engine::Fast, None, false)?.outputs)
        }
        Reference::Spmd(names) => {
            let m = psimc::compile(&item.source).map_err(|e| format!("{}: {e}", item.name))?;
            let (mem, addrs, _) = fill(item);
            let mut spmd = SpmdRef::new(&m, mem);
            for region in m.spmd_functions() {
                let f = m.function(&region).expect("listed region exists");
                let mut args = Vec::new();
                for p in &f.params[..f.params.len().saturating_sub(2)] {
                    match names.iter().position(|b| *b == p.name) {
                        Some(i) => args.push(RtVal::S(addrs[i])),
                        None if p.name == "n" => args.push(RtVal::S(item.n)),
                        None => {
                            return Err(format!(
                                "{}: region @{region} captures `{}`, which is no buffer",
                                item.name, p.name
                            ))
                        }
                    }
                }
                spmd.run_region(&region, &args, item.n)
                    .map_err(|e| format!("{}: SPMD reference: {e}", item.name))?;
            }
            read_checked(&spmd.mem, item, &addrs)
        }
    }
}

/// Whether a little-endian float element in lowercase hex is a NaN.
fn hex_is_nan(elem: &[u8]) -> bool {
    let byte = |k: usize| {
        std::str::from_utf8(&elem[2 * k..2 * k + 2])
            .ok()
            .and_then(|h| u8::from_str_radix(h, 16).ok())
            .unwrap_or(0)
    };
    let last = elem.len() / 2 - 1;
    // All exponent bits set (the top byte is the quick reject) and a
    // non-zero mantissa.
    if byte(last) & 0x7f != 0x7f {
        return false;
    }
    let mut bits = 0u64;
    for k in (0..=last).rev() {
        bits = bits << 8 | u64::from(byte(k));
    }
    match elem.len() {
        8 => f32::from_bits(bits as u32).is_nan(),
        _ => f64::from_bits(bits).is_nan(),
    }
}

/// FNV-1a 64 over a reply's `outputs` array as it is on the wire (a JSON
/// array of lowercase-hex strings, one per checked buffer of element type
/// `elems[i]`), with every NaN element of a float buffer hashed as one
/// canonical NaN: IEEE 754 leaves the sign and payload of a computed NaN
/// open, and the engines and the references differ there.
pub fn wire_digest(outputs_json: &str, elems: &[ScalarTy]) -> u64 {
    let mut h = Fnv::new();
    for (i, piece) in outputs_json.split(',').enumerate() {
        if i > 0 {
            h.write(b",");
        }
        let (width, canonical): (usize, &[u8]) = match elems.get(i) {
            Some(ScalarTy::F32) => (8, b"0000c07f"),
            Some(ScalarTy::F64) => (16, b"000000000000f87f"),
            _ => (0, b""),
        };
        let start = piece.find('"').map_or(piece.len(), |p| p + 1);
        let end = piece.rfind('"').filter(|&e| e >= start).unwrap_or(start);
        let body = &piece.as_bytes()[start..end];
        h.write(&piece.as_bytes()[..start]);
        if width == 0 || body.len() % width != 0 {
            h.write(body);
        } else {
            for elem in body.chunks(width) {
                h.write(if hex_is_nan(elem) { canonical } else { elem });
            }
        }
        h.write(&piece.as_bytes()[end..]);
    }
    h.finish()
}

/// [`wire_digest`] of raw output buffers.
pub fn bytes_digest(outputs: &[Vec<u8>], elems: &[ScalarTy]) -> u64 {
    let hex = outputs
        .iter()
        .map(|b| Json::Str(psim_serve::request::hex(b)))
        .collect();
    wire_digest(&Json::Arr(hex).to_string_compact(), elems)
}
