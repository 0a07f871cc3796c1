//! Determinism contract of the parallel region driver: for any worker
//! count, the printed module, the remark stream, the vectorized/degraded
//! lists, and hard errors are byte-identical to a serial run — including
//! under fault injection and `--verify=strict`, where every recovery and
//! error path must pick the same region-ordered answer regardless of which
//! worker got there first.

use parsimony::fault::{FaultInjector, SITES};
use parsimony::{
    vectorize_module_with, PipelineOptions, PipelineOutput, VectorizeOptions, VerifyMode,
};
use psir::{
    assert_valid, BinOp, CmpPred, FunctionBuilder, Module, Param, ScalarTy, SpmdInfo, ThreadCount,
    Ty, Value,
};

fn region_fb(name: &str, gang: u32) -> FunctionBuilder {
    let mut fb = FunctionBuilder::new(
        name,
        vec![
            Param::new("a", Ty::scalar(ScalarTy::Ptr)),
            Param::new("gang_base", Ty::scalar(ScalarTy::I64)),
            Param::new("num_threads", Ty::scalar(ScalarTy::I64)),
        ],
        Ty::Void,
    );
    fb.set_spmd(SpmdInfo {
        gang_size: gang,
        num_threads: ThreadCount::Dynamic,
        partial: false,
    });
    fb
}

/// A module with `n` regions of varied shape: straight-line arithmetic,
/// a data-dependent branch, and an opaque-call region, cycled. The opaque
/// call vectorizes (per-lane serialization) under default options but
/// degrades under gang-synchronous mode, giving the mixed
/// vectorized/degraded module the determinism tests want.
fn many_region_module(n: usize) -> Module {
    let mut m = Module::new();
    let mut helper = FunctionBuilder::new(
        "opaque",
        vec![Param::new("x", Ty::scalar(ScalarTy::I32))],
        Ty::scalar(ScalarTy::I32),
    );
    let r = helper.bin(BinOp::Mul, Value::Param(0), 7i32);
    helper.ret(Some(r));
    m.add_function(helper.finish());

    for i in 0..n {
        let mut fb = region_fb(&format!("k{i:03}"), 8);
        let tid = fb.thread_num();
        let addr = fb.gep(Value::Param(0), tid, 4);
        let x = fb.load(Ty::scalar(ScalarTy::I32), addr, None);
        match i % 3 {
            0 => {
                let y = fb.bin(BinOp::Mul, x, (i as i32) + 2);
                let y = fb.bin(BinOp::Add, y, 1i32);
                fb.store(addr, y, None);
                fb.ret(None);
            }
            1 => {
                // if (x > i) a[tid] = x * 2; else a[tid] = x - 1;
                let c = fb.cmp(CmpPred::Sgt, x, i as i32);
                let then_b = fb.new_block("then");
                let else_b = fb.new_block("else");
                let join = fb.new_block("join");
                fb.cond_br(c, then_b, else_b);
                fb.switch_to(then_b);
                let t = fb.bin(BinOp::Mul, x, 2i32);
                fb.store(addr, t, None);
                fb.br(join);
                fb.switch_to(else_b);
                let e = fb.bin(BinOp::Sub, x, 1i32);
                fb.store(addr, e, None);
                fb.br(join);
                fb.switch_to(join);
                fb.ret(None);
            }
            _ => {
                let y = fb.call("opaque", Ty::scalar(ScalarTy::I32), vec![x]);
                fb.store(addr, y, None);
                fb.ret(None);
            }
        }
        let f = fb.finish();
        assert_valid(&f);
        m.add_function(f);
    }
    m
}

/// The byte-comparable fingerprint of a pipeline run.
fn fingerprint(out: &PipelineOutput) -> (String, String, Vec<String>, Vec<String>, Vec<String>) {
    (
        psir::print_module(&out.module),
        telemetry::remarks_to_text(&out.remarks),
        out.warnings.clone(),
        out.vectorized.clone(),
        out.degraded.clone(),
    )
}

fn run_at(
    m: &Module,
    opts: &VectorizeOptions,
    base: &PipelineOptions,
    jobs: usize,
) -> Result<PipelineOutput, String> {
    let popts = base.clone().with_jobs(jobs);
    vectorize_module_with(m, opts, &popts).map_err(|e| e.to_string())
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let m = many_region_module(13);
    let opts = VectorizeOptions::default();
    let base = PipelineOptions {
        verify: VerifyMode::Fallback,
        inject: None,
        jobs: 1,
    };
    let serial = run_at(&m, &opts, &base, 1).expect("serial run succeeds");
    assert_eq!(serial.vectorized.len(), 13);
    for jobs in [2, 4, 8] {
        let par = run_at(&m, &opts, &base, jobs).expect("parallel run succeeds");
        assert_eq!(
            fingerprint(&par),
            fingerprint(&serial),
            "jobs={jobs} output differs from serial"
        );
        // Timings are the only field allowed to vary: still one entry per
        // region, in region order, with the clamped worker count recorded.
        assert_eq!(par.timings.regions.len(), 13);
        assert_eq!(par.timings.jobs, jobs.min(13));
        let regions: Vec<&str> = par
            .timings
            .regions
            .iter()
            .map(|t| t.region.as_str())
            .collect();
        let mut sorted = regions.clone();
        sorted.sort_unstable();
        assert_eq!(regions, sorted, "timings must stay in region order");
    }
}

#[test]
fn mixed_degradation_is_deterministic_across_jobs() {
    // Gang-synchronous mode cannot vectorize the opaque-call regions, so a
    // third of the regions degrade; the degraded set and every remark must
    // not depend on the worker count.
    let m = many_region_module(12);
    let opts = VectorizeOptions::gang_synchronous();
    let base = PipelineOptions {
        verify: VerifyMode::Fallback,
        inject: None,
        jobs: 1,
    };
    let serial = run_at(&m, &opts, &base, 1).expect("serial run succeeds");
    assert_eq!(serial.degraded.len(), 4, "opaque-call regions degrade");
    assert_eq!(serial.vectorized.len(), 8);
    for jobs in [2, 4, 8] {
        let par = run_at(&m, &opts, &base, jobs).expect("parallel run succeeds");
        assert_eq!(
            fingerprint(&par),
            fingerprint(&serial),
            "jobs={jobs} degradation outcome differs from serial"
        );
    }
}

#[test]
fn fault_injection_fires_identically_on_every_worker_count() {
    let m = many_region_module(9);
    let opts = VectorizeOptions::default();
    for &(pass, site) in SITES {
        let spec = format!("{pass}:{site}");
        let base = PipelineOptions {
            verify: VerifyMode::Fallback,
            inject: Some(FaultInjector::parse(&spec).expect("registered site")),
            jobs: 1,
        };
        let serial = run_at(&m, &opts, &base, 1).expect("degrades, never errors");
        assert!(
            !serial.degraded.is_empty(),
            "{spec}: injection must degrade at least one region"
        );
        for jobs in [2, 4, 8] {
            let par = run_at(&m, &opts, &base, jobs).expect("degrades, never errors");
            assert_eq!(
                fingerprint(&par),
                fingerprint(&serial),
                "{spec}: jobs={jobs} output differs from serial"
            );
        }
    }
}

#[test]
fn strict_mode_reports_the_same_first_error_at_every_worker_count() {
    let m = many_region_module(9);
    let opts = VectorizeOptions::default();
    for &(pass, site) in SITES {
        let spec = format!("{pass}:{site}");
        let base = PipelineOptions {
            verify: VerifyMode::Strict,
            inject: Some(FaultInjector::parse(&spec).expect("registered site")),
            jobs: 1,
        };
        let serial_err = run_at(&m, &opts, &base, 1).expect_err("strict + injection must fail");
        for jobs in [2, 4, 8] {
            let par_err = run_at(&m, &opts, &base, jobs).expect_err("strict + injection must fail");
            assert_eq!(
                par_err, serial_err,
                "{spec}: jobs={jobs} strict error differs from serial"
            );
        }
    }
}

#[test]
fn job_count_is_clamped_to_region_count() {
    let m = many_region_module(2);
    let opts = VectorizeOptions::default();
    let base = PipelineOptions {
        verify: VerifyMode::Fallback,
        inject: None,
        jobs: 1,
    };
    let out = run_at(&m, &opts, &base, 64).expect("runs");
    assert_eq!(out.timings.jobs, 2, "jobs clamp to the region count");
    // And a zero request falls back to the serial path rather than hanging.
    let out0 = run_at(&m, &opts, &base, 0).expect("runs");
    assert_eq!(out0.timings.jobs, 1);
    assert_eq!(
        psir::print_module(&out.module),
        psir::print_module(&out0.module)
    );
}
