//! Diagnostic paths of the vectorizer: things the pass must *refuse* or
//! *warn about*, per the paper's semantics.

use parsimony::{vectorize_function, vectorize_module, SpmdRef, VectorizeError, VectorizeOptions};
use psir::{
    assert_valid, BinOp, CmpPred, FunctionBuilder, Memory, Module, Param, RtVal, ScalarTy,
    SpmdInfo, ThreadCount, Ty, Value,
};

fn region_fb(name: &str, user_params: Vec<Param>, gang: u32) -> FunctionBuilder {
    let mut params = user_params;
    params.push(Param::new("gang_base", Ty::scalar(ScalarTy::I64)));
    params.push(Param::new("num_threads", Ty::scalar(ScalarTy::I64)));
    let mut fb = FunctionBuilder::new(name, params, Ty::Void);
    fb.set_spmd(SpmdInfo {
        gang_size: gang,
        num_threads: ThreadCount::Dynamic,
        partial: false,
    });
    fb
}

/// §4.2.3: "separately-compiled scalar functions cannot be transformed to
/// execute in gang-synchronous fashion" — the ispc-like mode cannot
/// vectorize them, while Parsimony serializes them. Under the fault-tolerant
/// driver the gang-synchronous failure no longer aborts the module: the
/// region degrades to a scalar gang-serialized loop with a warning remark
/// carrying the gang-synchronous diagnostic. `--verify=strict` keeps the
/// old hard-error behavior.
#[test]
fn gang_sync_mode_rejects_scalar_calls() {
    let mut m = Module::new();
    let mut helper = FunctionBuilder::new(
        "opaque",
        vec![Param::new("x", Ty::scalar(ScalarTy::I32))],
        Ty::scalar(ScalarTy::I32),
    );
    let r = helper.bin(BinOp::Add, Value::Param(0), 1i32);
    helper.ret(Some(r));
    m.add_function(helper.finish());

    let mut fb = region_fb("k", vec![Param::new("a", Ty::scalar(ScalarTy::Ptr))], 8);
    let i = fb.thread_num();
    let ai = fb.gep(Value::Param(0), i, 4);
    let x = fb.load(Ty::scalar(ScalarTy::I32), ai, None);
    let y = fb.call("opaque", Ty::scalar(ScalarTy::I32), vec![x]);
    fb.store(ai, y, None);
    fb.ret(None);
    m.add_function(fb.finish());

    // Parsimony mode: fine (serialized per lane), nothing degraded.
    let out = vectorize_module(&m, &VectorizeOptions::default()).expect("parsimony serializes");
    assert!(out.degraded.is_empty());
    assert_eq!(out.vectorized, vec!["k".to_string()]);

    // Gang-synchronous mode: the region cannot be vectorized, so the driver
    // degrades it to the scalar gang-serialized fallback and keeps going.
    let out = vectorize_module(&m, &VectorizeOptions::gang_synchronous())
        .expect("failing region degrades instead of aborting the module");
    assert_eq!(out.degraded, vec!["k".to_string()]);
    assert!(out.vectorized.is_empty());
    assert!(
        out.warnings
            .iter()
            .any(|w| w.contains("gang-synchronous") && w.contains("degraded")),
        "expected a degradation warning carrying the diagnostic, got {:?}",
        out.warnings
    );
    // The gang-loop contract is still satisfied: __full/__partial exist.
    assert!(out.module.function("k__full").is_some());
    assert!(out.module.function("k__partial").is_some());

    // Strict mode keeps the hard error.
    let err = parsimony::vectorize_module_with(
        &m,
        &VectorizeOptions::gang_synchronous(),
        &parsimony::PipelineOptions {
            verify: parsimony::VerifyMode::Strict,
            inject: None,
            jobs: 1,
        },
    )
    .unwrap_err();
    assert!(matches!(err, VectorizeError::Invalid(_)));
    assert!(err.to_string().contains("gang-synchronous"));
}

/// §4.2.3: a store to a uniform address is racy — the compiler emits a
/// compile-time warning (and picks one thread's store).
#[test]
fn uniform_store_warns() {
    let mut fb = region_fb("w", vec![Param::new("out", Ty::scalar(ScalarTy::Ptr))], 8);
    fb.store(Value::Param(0), 42i32, None);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    let v = vectorize_function(&f, &VectorizeOptions::default(), false).unwrap();
    assert!(
        v.warnings.iter().any(|w| w.contains("racy")),
        "expected the racy-store warning, got {:?}",
        v.warnings
    );
    // And it still executes: exactly one 42 lands.
    let mut m = Module::new();
    m.add_function(v.func);
    let mut mem = Memory::default();
    let out = mem.alloc(4, 64).unwrap();
    let mut it = psir::Interp::with_defaults(&m, mem);
    it.call("w__full", &[RtVal::S(out), RtVal::S(0), RtVal::S(8)])
        .unwrap();
    let got = i32::from_le_bytes(it.mem.read_bytes(out, 4).unwrap().try_into().unwrap());
    assert_eq!(got, 42);
}

/// Multi-exit loops (break) are outside the supported structured subset and
/// must be rejected with a diagnostic, not miscompiled.
#[test]
fn multi_exit_loop_rejected() {
    let mut fb = region_fb("me", vec![Param::new("n", Ty::scalar(ScalarTy::I64))], 8);
    let header = fb.new_block("header");
    let body = fb.new_block("body");
    let latch = fb.new_block("latch");
    let exit = fb.new_block("exit");
    let entry = fb.current_block();
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, psir::c_i64(0))]);
    let c = fb.cmp(CmpPred::Slt, i, Value::Param(0));
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let brk = fb.cmp(CmpPred::Eq, i, 3i64);
    fb.cond_br(brk, exit, latch); // break edge
    fb.switch_to(latch);
    let i2 = fb.bin(BinOp::Add, i, 1i64);
    fb.phi_add_incoming(i, latch, i2);
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(None);
    let f = fb.finish();
    let err = vectorize_function(&f, &VectorizeOptions::default(), false).unwrap_err();
    assert!(matches!(err, VectorizeError::Unstructured(_)));
}

/// Regions must return void (outputs flow through memory, §3).
#[test]
fn non_void_region_rejected() {
    let mut params = vec![Param::new("gang_base", Ty::scalar(ScalarTy::I64))];
    params.push(Param::new("num_threads", Ty::scalar(ScalarTy::I64)));
    let mut fb = FunctionBuilder::new("nv", params, Ty::scalar(ScalarTy::I32));
    fb.set_spmd(SpmdInfo {
        gang_size: 8,
        num_threads: ThreadCount::Dynamic,
        partial: false,
    });
    fb.ret(Some(psir::c_i32(0)));
    let f = fb.finish();
    let err = vectorize_function(&f, &VectorizeOptions::default(), false).unwrap_err();
    assert!(err.to_string().contains("void"));
}

/// The SPMD reference executor detects divergent barriers (threads blocked
/// at different horizontal ops), which the model leaves undefined.
#[test]
fn spmd_ref_detects_divergent_barrier() {
    // if (lane even) { shuffle } else { gang_sync } — a divergent barrier.
    let mut fb = region_fb("db", vec![Param::new("a", Ty::scalar(ScalarTy::Ptr))], 4);
    let then_bb = fb.new_block("then");
    let else_bb = fb.new_block("else");
    let join = fb.new_block("join");
    let lane = fb.lane_num();
    let par = fb.bin(BinOp::And, lane, 1i64);
    let even = fb.cmp(CmpPred::Eq, par, 0i64);
    fb.cond_br(even, then_bb, else_bb);
    fb.switch_to(then_bb);
    let _s = fb.shuffle_sync(lane, 0i64);
    fb.br(join);
    fb.switch_to(else_bb);
    fb.gang_sync();
    fb.br(join);
    fb.switch_to(join);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    let mut m = Module::new();
    m.add_function(f);
    let mut r = SpmdRef::new(&m, Memory::default());
    let err = r
        .run_region("db", &[RtVal::S(64)], 4)
        .expect_err("divergent barrier must be reported");
    assert!(err.to_string().contains("divergent barrier"));
}

/// Runaway divergent loops hit the reference executor's step limit instead
/// of hanging the test suite.
#[test]
fn spmd_ref_step_limit() {
    let mut fb = region_fb("inf", vec![], 4);
    let header = fb.new_block("header");
    let body = fb.new_block("body");
    let exit = fb.new_block("exit");
    let entry = fb.current_block();
    fb.br(header);
    fb.switch_to(header);
    let i = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, psir::c_i64(0))]);
    let c = fb.cmp(CmpPred::Sge, i, 0i64); // always true
    fb.cond_br(c, body, exit);
    fb.switch_to(body);
    let i2 = fb.bin(BinOp::Add, i, 1i64);
    fb.phi_add_incoming(i, body, i2);
    fb.br(header);
    fb.switch_to(exit);
    fb.ret(None);
    let mut m = Module::new();
    m.add_function(fb.finish());
    let mut r = SpmdRef::new(&m, Memory::default());
    r.set_step_limit(10_000);
    let err = r.run_region("inf", &[], 4).unwrap_err();
    assert!(matches!(err, psir::ExecError::StepLimit));
}

/// Irreducible control flow (a loop entered from two places) is outside the
/// structured subset and must be rejected with a diagnostic.
#[test]
fn irreducible_cfg_rejected() {
    let mut fb = region_fb("irr", vec![Param::new("n", Ty::scalar(ScalarTy::I64))], 4);
    let a = fb.new_block("a");
    let b = fb.new_block("b");
    let exit = fb.new_block("exit");
    let c0 = fb.cmp(CmpPred::Sgt, Value::Param(0), 0i64);
    // Two entries into the a↔b cycle: classic irreducibility.
    fb.cond_br(c0, a, b);
    fb.switch_to(a);
    let ca = fb.cmp(CmpPred::Sgt, Value::Param(0), 5i64);
    fb.cond_br(ca, b, exit);
    fb.switch_to(b);
    let cb = fb.cmp(CmpPred::Sgt, Value::Param(0), 10i64);
    fb.cond_br(cb, a, exit);
    fb.switch_to(exit);
    fb.ret(None);
    let f = fb.finish();
    let err = vectorize_function(&f, &VectorizeOptions::default(), false).unwrap_err();
    assert!(matches!(err, VectorizeError::Unstructured(_)), "{err}");
}
