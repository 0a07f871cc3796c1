//! Graceful-degradation semantics of the fault-tolerant driver: a region
//! that fails vectorization is emitted as a scalar gang-serialized loop
//! under the same `__full`/`__partial`/`__head` names (so the gang-loop
//! contract of §4.1 is still satisfied), a warning remark carries the
//! located diagnostic, and every *other* region still vectorizes.

use parsimony::{
    emit_gang_loop, vectorize_module, vectorize_module_with, PipelineOptions, SpmdRef,
    VectorizeOptions, VerifyMode,
};
use psir::{
    assert_valid, BinOp, FunctionBuilder, Memory, Module, Param, RtVal, ScalarTy, SpmdInfo,
    ThreadCount, Ty, Value,
};
use telemetry::{RemarkKind, Severity};

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

/// A module with two regions over the same gang size:
/// * `good` — `a[i] = a[i] * 3`, trivially vectorizable;
/// * `bad`  — `b[i] = opaque(b[i])`, which gang-synchronous mode cannot
///   vectorize (§4.2.3: separately-compiled scalar calls).
fn mixed_module(gang: u32) -> Module {
    let mut m = Module::new();

    let mut helper = FunctionBuilder::new(
        "opaque",
        vec![Param::new("x", Ty::scalar(ScalarTy::I32))],
        Ty::scalar(ScalarTy::I32),
    );
    let r = helper.bin(BinOp::Mul, Value::Param(0), 7i32);
    let r = helper.bin(BinOp::Add, r, 1i32);
    helper.ret(Some(r));
    m.add_function(helper.finish());

    let mut fb = region_fb(
        "good",
        vec![Param::new("a", Ty::scalar(ScalarTy::Ptr))],
        gang,
    );
    let i = fb.thread_num();
    let ai = fb.gep(Value::Param(0), i, 4);
    let x = fb.load(Ty::scalar(ScalarTy::I32), ai, None);
    let y = fb.bin(BinOp::Mul, x, 3i32);
    fb.store(ai, y, None);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    m.add_function(f);

    let mut fb = region_fb(
        "bad",
        vec![Param::new("b", Ty::scalar(ScalarTy::Ptr))],
        gang,
    );
    let i = fb.thread_num();
    let bi = fb.gep(Value::Param(0), i, 4);
    let x = fb.load(Ty::scalar(ScalarTy::I32), bi, None);
    let y = fb.call("opaque", Ty::scalar(ScalarTy::I32), vec![x]);
    fb.store(bi, y, None);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    m.add_function(f);

    m
}

fn i32_buf(mem: &mut Memory, vals: &[i32]) -> u64 {
    let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
    mem.alloc_bytes(&bytes, 64).expect("alloc")
}

/// The headline acceptance test: a module with one failing region returns
/// `Ok`, the failing region is scalar-serialized with a warning remark, and
/// the other region is vectorized.
#[test]
fn mixed_module_degrades_only_the_failing_region() {
    let gang = 8u32;
    let m = mixed_module(gang);
    let out = vectorize_module(&m, &VectorizeOptions::gang_synchronous())
        .expect("a failing region must not abort the module");

    assert_eq!(out.vectorized, vec!["good".to_string()]);
    assert_eq!(out.degraded, vec!["bad".to_string()]);

    // The degradation remark is warning-severity and carries the located
    // vectorizer diagnostic as its reason.
    let deg: Vec<_> = out
        .remarks
        .iter()
        .filter(|r| matches!(r.kind, RemarkKind::Degraded { .. }))
        .collect();
    assert_eq!(deg.len(), 1);
    assert_eq!(deg[0].severity, Severity::Warning);
    let RemarkKind::Degraded { region, reason } = &deg[0].kind else {
        unreachable!()
    };
    assert_eq!(region, "bad");
    assert!(reason.contains("@bad"), "diagnostic not located: {reason}");
    assert!(reason.contains("gang-synchronous"), "{reason}");

    // Both regions satisfy the gang-loop naming contract, and everything
    // the driver emitted verifies.
    for name in ["good__full", "good__partial", "bad__full", "bad__partial"] {
        let f = out.module.function(name).expect(name);
        assert_valid(f);
    }
    // The good region really was vectorized (vector IR present), the bad
    // one really was serialized (still calls the scalar helper per lane).
    let lane = out.module.function("bad__lane").expect("serialized body");
    assert!(lane
        .block_ids()
        .flat_map(|b| lane.block(b).insts.clone())
        .any(|i| matches!(lane.inst(i), psir::Inst::Call { callee, .. } if callee == "opaque")));
}

/// Differential check: the scalar-serialized fallback computes exactly what
/// the SPMD reference executor computes, including a partial tail gang
/// (n = 13 with gang 8 exercises __full once and __partial for 5 lanes).
#[test]
fn degraded_region_matches_scalar_reference_with_tail() {
    let gang = 8u32;
    let n: u64 = 13;
    let m = mixed_module(gang);
    let vals: Vec<i32> = (0..n as i32 + 3).collect();

    // (a) reference execution of the scalar SPMD region.
    let mut mem_a = Memory::default();
    let buf_a = i32_buf(&mut mem_a, &vals);
    let mut r = SpmdRef::new(&m, mem_a);
    r.run_region("bad", &[RtVal::S(buf_a)], n).expect("ref ok");

    // (b) the degraded module through the gang-loop driver.
    let out = vectorize_module(&m, &VectorizeOptions::gang_synchronous()).expect("degrades");
    assert_eq!(out.degraded, vec!["bad".to_string()]);
    let mut module_v = out.module;
    let mut fb = FunctionBuilder::new(
        "main",
        vec![
            Param::new("b", Ty::scalar(ScalarTy::Ptr)),
            Param::new("n", Ty::scalar(ScalarTy::I64)),
        ],
        Ty::Void,
    );
    emit_gang_loop(
        &mut fb,
        "bad",
        &[Value::Param(0)],
        Value::Param(1),
        gang,
        None,
    );
    fb.ret(None);
    let driver = fb.finish();
    assert_valid(&driver);
    module_v.add_function(driver);

    let mut mem_b = Memory::default();
    let buf_b = i32_buf(&mut mem_b, &vals);
    let mut it = psir::Interp::with_defaults(&module_v, mem_b);
    it.call("main", &[RtVal::S(buf_b), RtVal::S(n)])
        .expect("degraded run ok");

    let a = r.mem.read_bytes(buf_a, (n + 3) * 4).expect("range a");
    let b = it.mem.read_bytes(buf_b, (n + 3) * 4).expect("range b");
    assert_eq!(a, b, "degraded region diverged from the SPMD reference");
}

/// Strict mode turns the same failing region into a hard located error.
#[test]
fn strict_mode_is_a_hard_error() {
    let m = mixed_module(8);
    let err = vectorize_module_with(
        &m,
        &VectorizeOptions::gang_synchronous(),
        &PipelineOptions {
            verify: VerifyMode::Strict,
            inject: None,
            jobs: 1,
        },
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("@bad"), "error not located: {msg}");
    assert!(msg.contains("gang-synchronous"), "{msg}");
}

/// Off mode skips verification but still degrades vectorization failures —
/// robustness is not tied to paying the verifier.
#[test]
fn verify_off_still_degrades() {
    let m = mixed_module(8);
    let out = vectorize_module_with(
        &m,
        &VectorizeOptions::gang_synchronous(),
        &PipelineOptions {
            verify: VerifyMode::Off,
            inject: None,
            jobs: 1,
        },
    )
    .expect("degrades with verification off");
    assert_eq!(out.degraded, vec!["bad".to_string()]);
    assert_eq!(out.vectorized, vec!["good".to_string()]);
}

/// A region that *cannot* be serialized (it uses horizontal operations,
/// which have no lane-at-a-time schedule) is the one case where a failing
/// region is a hard error even in fallback mode.
#[test]
fn non_serializable_failure_is_a_hard_error() {
    let gang = 8u32;
    let mut m = mixed_module(gang);
    // A region that both calls the opaque helper (fails gang-sync mode)
    // and uses a gang barrier (cannot be serialized).
    let mut fb = region_fb(
        "sync",
        vec![Param::new("c", Ty::scalar(ScalarTy::Ptr))],
        gang,
    );
    let i = fb.thread_num();
    let ci = fb.gep(Value::Param(0), i, 4);
    let x = fb.load(Ty::scalar(ScalarTy::I32), ci, None);
    let y = fb.call("opaque", Ty::scalar(ScalarTy::I32), vec![x]);
    fb.gang_sync();
    fb.store(ci, y, None);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    m.add_function(f);

    let err = vectorize_module(&m, &VectorizeOptions::gang_synchronous()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("horizontal"), "{msg}");
    assert!(msg.contains("@sync"), "error not located: {msg}");
}

/// The head-peeled variant of a degraded region: a region querying
/// `psim_is_head_gang()` still gets a `__head` specialization from the
/// fallback, and the peeled driver matches the reference.
#[test]
fn degraded_head_peeled_region_matches_reference() {
    let gang = 4u32;
    let n: u64 = 11; // head gang + one full gang + 3-lane tail
    let mut m = Module::new();

    let mut helper = FunctionBuilder::new(
        "opaque",
        vec![Param::new("x", Ty::scalar(ScalarTy::I32))],
        Ty::scalar(ScalarTy::I32),
    );
    let r = helper.bin(BinOp::Add, Value::Param(0), 5i32);
    helper.ret(Some(r));
    m.add_function(helper.finish());

    // a[i] = is_head_gang ? opaque(a[i]) : a[i] + thread_num
    let mut fb = region_fb("hp", vec![Param::new("a", Ty::scalar(ScalarTy::Ptr))], gang);
    let then_bb = fb.new_block("then");
    let else_bb = fb.new_block("else");
    let join = fb.new_block("join");
    let i = fb.thread_num();
    let ai = fb.gep(Value::Param(0), i, 4);
    let x = fb.load(Ty::scalar(ScalarTy::I32), ai, None);
    let is_head = fb.intrin(
        psir::Intrinsic::IsHeadGang,
        vec![],
        Ty::scalar(ScalarTy::I1),
    );
    fb.cond_br(is_head, then_bb, else_bb);
    fb.switch_to(then_bb);
    let a = fb.call("opaque", Ty::scalar(ScalarTy::I32), vec![x]);
    fb.br(join);
    fb.switch_to(else_bb);
    let i32v = fb.cast(psir::CastKind::Trunc, i, Ty::scalar(ScalarTy::I32));
    let b = fb.bin(BinOp::Add, x, i32v);
    fb.br(join);
    fb.switch_to(join);
    let y = fb.phi(vec![(then_bb, a), (else_bb, b)]);
    fb.store(ai, y, None);
    fb.ret(None);
    let f = fb.finish();
    assert_valid(&f);
    m.add_function(f);

    let vals: Vec<i32> = (0..n as i32 + 2).map(|v| v * 3).collect();

    let mut mem_a = Memory::default();
    let buf_a = i32_buf(&mut mem_a, &vals);
    let mut r = SpmdRef::new(&m, mem_a);
    r.run_region("hp", &[RtVal::S(buf_a)], n).expect("ref ok");

    let out = vectorize_module(&m, &VectorizeOptions::gang_synchronous()).expect("degrades");
    assert_eq!(out.degraded, vec!["hp".to_string()]);
    let head = out.module.function("hp__head").expect("__head emitted");
    assert_valid(head);

    let mut module_v = out.module;
    let mut fb = FunctionBuilder::new(
        "main",
        vec![
            Param::new("a", Ty::scalar(ScalarTy::Ptr)),
            Param::new("n", Ty::scalar(ScalarTy::I64)),
        ],
        Ty::Void,
    );
    parsimony::region::emit_gang_loop_peeled(
        &mut fb,
        "hp",
        &[Value::Param(0)],
        Value::Param(1),
        gang,
        None,
        true,
    );
    fb.ret(None);
    let driver = fb.finish();
    assert_valid(&driver);
    module_v.add_function(driver);

    let mut mem_b = Memory::default();
    let buf_b = i32_buf(&mut mem_b, &vals);
    let mut it = psir::Interp::with_defaults(&module_v, mem_b);
    it.call("main", &[RtVal::S(buf_b), RtVal::S(n)])
        .expect("peeled degraded run ok");

    let a = r.mem.read_bytes(buf_a, (n + 2) * 4).expect("range a");
    let b = it.mem.read_bytes(buf_b, (n + 2) * 4).expect("range b");
    assert_eq!(a, b, "head-peeled degraded region diverged from reference");
}
