//! The fault-injection sweep: for every registered injection site, the
//! pipeline must (a) not panic, (b) return a valid module, (c) degrade the
//! region rather than abort (except strict mode), and (d) the degraded
//! output must be differentially equal to the SPMD reference — i.e. every
//! recovery path in the driver actually preserves semantics.

use parsimony::{
    emit_gang_loop, fault, vectorize_module_with, FaultInjector, PipelineOptions, SpmdRef,
    VectorizeOptions, VerifyMode,
};
use psir::{
    assert_valid, BinOp, FunctionBuilder, Memory, Module, Param, RtVal, ScalarTy, SpmdInfo,
    ThreadCount, Ty, Value,
};

const GANG: u32 = 8;
const N: u64 = 13; // one full gang + a 5-lane tail

/// A small but non-trivial region: divergent if/else over element parity
/// with a loop-free body — enough to exercise structurize, shape analysis,
/// and masked emission at every injection point.
fn build_module() -> Module {
    let mut params = vec![Param::new("a", Ty::scalar(ScalarTy::Ptr))];
    params.push(Param::new("gang_base", Ty::scalar(ScalarTy::I64)));
    params.push(Param::new("num_threads", Ty::scalar(ScalarTy::I64)));
    let mut fb = FunctionBuilder::new("k", params, Ty::Void);
    fb.set_spmd(SpmdInfo {
        gang_size: GANG,
        num_threads: ThreadCount::Dynamic,
        partial: false,
    });
    let then_bb = fb.new_block("then");
    let else_bb = fb.new_block("else");
    let join = fb.new_block("join");
    let i = fb.thread_num();
    let ai = fb.gep(Value::Param(0), i, 4);
    let x = fb.load(Ty::scalar(ScalarTy::I32), ai, None);
    let parity = fb.bin(BinOp::And, x, 1i32);
    let is_odd = fb.cmp(psir::CmpPred::Ne, parity, 0i32);
    fb.cond_br(is_odd, then_bb, else_bb);
    fb.switch_to(then_bb);
    let a = fb.bin(BinOp::Mul, x, 3i32);
    fb.br(join);
    fb.switch_to(else_bb);
    let b = fb.bin(BinOp::Add, x, 100i32);
    fb.br(join);
    fb.switch_to(join);
    let y = fb.phi(vec![(then_bb, a), (else_bb, b)]);
    fb.store(ai, y, None);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    let mut m = Module::new();
    m.add_function(f);
    m
}

fn i32_buf(mem: &mut Memory, vals: &[i32]) -> u64 {
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    mem.alloc_bytes(&bytes, 64).expect("alloc")
}

/// Reference memory image after running the region on the SPMD executor.
fn reference_bytes(m: &Module, vals: &[i32]) -> Vec<u8> {
    let mut mem = Memory::default();
    let buf = i32_buf(&mut mem, vals);
    let mut r = SpmdRef::new(m, mem);
    r.run_region("k", &[RtVal::S(buf)], N).expect("ref ok");
    r.mem
        .read_bytes(buf, vals.len() as u64 * 4)
        .expect("range")
        .to_vec()
}

/// Memory image after running the (possibly degraded) compiled module
/// through the gang-loop driver.
fn compiled_bytes(module: &Module, vals: &[i32]) -> Vec<u8> {
    let mut module_v = module.clone();
    let mut fb = FunctionBuilder::new(
        "main",
        vec![
            Param::new("a", Ty::scalar(ScalarTy::Ptr)),
            Param::new("n", Ty::scalar(ScalarTy::I64)),
        ],
        Ty::Void,
    );
    emit_gang_loop(
        &mut fb,
        "k",
        &[Value::Param(0)],
        Value::Param(1),
        GANG,
        None,
    );
    fb.ret(None);
    let driver = fb.finish();
    assert_valid(&driver);
    module_v.add_function(driver);

    let mut mem = Memory::default();
    let buf = i32_buf(&mut mem, vals);
    let mut it = psir::Interp::with_defaults(&module_v, mem);
    it.call("main", &[RtVal::S(buf), RtVal::S(N)])
        .expect("compiled run ok");
    it.mem
        .read_bytes(buf, vals.len() as u64 * 4)
        .expect("range")
        .to_vec()
}

/// The sweep itself: every registered site, in one process, with the
/// injector passed explicitly (no environment mutation, so the test is
/// parallel-safe and deterministic).
#[test]
fn sweep_every_registered_site() {
    let m = build_module();
    let vals: Vec<i32> = (0..N as i32 + 2).map(|v| v * 5 - 3).collect();
    let want = reference_bytes(&m, &vals);

    for &(pass, site) in fault::SITES {
        let spec = format!("{pass}:{site}");
        let inj = FaultInjector::parse(&spec).expect("registered spec parses");
        let out = vectorize_module_with(
            &m,
            &VectorizeOptions::default(),
            &PipelineOptions {
                verify: VerifyMode::Fallback,
                inject: Some(inj),
                jobs: 1,
            },
        )
        .unwrap_or_else(|e| panic!("{spec}: module must degrade, got Err({e})"));

        // (b) valid module out: every emitted function verifies.
        for f in out.module.functions() {
            let errs = psir::verify_function(f);
            assert!(errs.is_empty(), "{spec}: @{} invalid: {:?}", f.name, errs);
        }
        // (c) the region degraded rather than vectorized, with a warning
        // remark naming the injected fault.
        assert_eq!(out.degraded, vec!["k".to_string()], "{spec}");
        assert!(out.vectorized.is_empty(), "{spec}");
        assert!(
            out.warnings
                .iter()
                .any(|w| w.contains("degraded") && w.contains("injected fault")
                    || w.contains("degraded") && site == "corrupt"),
            "{spec}: expected a degradation warning, got {:?}",
            out.warnings
        );
        // (d) differential equality against the scalar reference.
        let got = compiled_bytes(&out.module, &vals);
        assert_eq!(got, want, "{spec}: degraded output diverged from reference");
    }
}

/// Injected panics are attributed to the pass that was active when they
/// fired, not generically to the pipeline.
#[test]
fn injected_panics_are_attributed_to_their_pass() {
    let m = build_module();
    for &(pass, site) in fault::SITES {
        if site != "panic" {
            continue;
        }
        let spec = format!("{pass}:{site}");
        let err = vectorize_module_with(
            &m,
            &VectorizeOptions::default(),
            &PipelineOptions {
                verify: VerifyMode::Strict,
                inject: Some(FaultInjector::parse(&spec).unwrap()),
                jobs: 1,
            },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("[{pass}]")),
            "{spec}: panic not attributed to its pass: {msg}"
        );
        assert!(msg.contains("caught panic"), "{spec}: {msg}");
        assert!(msg.contains("@k"), "{spec}: not located: {msg}");
    }
}

/// The verify:corrupt site proves the in-pipeline verifier actually gates
/// what the driver emits: with verification off, corruption is not even
/// attempted (the knob controls the verify stage, the output stays clean).
#[test]
fn corrupt_site_is_caught_by_the_verifier() {
    let m = build_module();
    let inj = FaultInjector::parse("verify:corrupt").unwrap();

    // Strict: the verifier reports the planted corruption as a located error.
    let err = vectorize_module_with(
        &m,
        &VectorizeOptions::default(),
        &PipelineOptions {
            verify: VerifyMode::Strict,
            inject: Some(inj.clone()),
            jobs: 1,
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("[verify]"), "{err}");

    // Off: verification (and therefore the corruption hook) never runs, so
    // the region vectorizes normally.
    let out = vectorize_module_with(
        &m,
        &VectorizeOptions::default(),
        &PipelineOptions {
            verify: VerifyMode::Off,
            inject: Some(inj),
            jobs: 1,
        },
    )
    .expect("no verification, no corruption");
    assert_eq!(out.vectorized, vec!["k".to_string()]);
    assert!(out.degraded.is_empty());
}

/// The environment-variable path: `PSIM_INJECT_FAULT` is picked up by
/// `PipelineOptions::default()`. Kept to a single test (and a single spec)
/// because it mutates process state.
#[test]
fn env_var_arms_the_injector() {
    let m = build_module();
    // Safety: this is the only test in this binary that touches the
    // variable, and it restores it before returning.
    std::env::set_var(fault::ENV_VAR, "vectorize:error");
    let opts = PipelineOptions::default();
    std::env::remove_var(fault::ENV_VAR);
    assert_eq!(
        opts.inject,
        Some(FaultInjector::parse("vectorize:error").unwrap())
    );
    let out = vectorize_module_with(&m, &VectorizeOptions::default(), &opts)
        .expect("env-armed fault degrades");
    assert_eq!(out.degraded, vec!["k".to_string()]);
}
