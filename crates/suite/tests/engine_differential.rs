//! Engine differential: the fast (`FramePlan`) engine, the retained
//! reference engine, and the native tier (fused block kernels with
//! bailout) must agree byte-for-byte on simulated cycles, checked
//! outputs, execution statistics, and profile JSON — across every suite
//! kernel, across gang-size sweep variants, and on pipeline-degraded
//! (fault-injected, scalar-fallback) modules. This is the identity
//! contract the precompiled-plan and native-tier optimizations are
//! allowed to exist under.

use parsimony::{
    vectorize_module_with, FaultInjector, PipelineOptions, VectorizeOptions, VerifyMode,
};
use suite::ispc::{kernels as ispc_kernels, IspcSizes};
use suite::runner::{build_module, run_module_engine, Config, Engine};
use suite::simdlib::kernels as simd_kernels;
use suite::Kernel;
use vmach::{Target, TargetCost};

/// Runs `module` over `k`'s workload under all three engines (profiled,
/// so the classed-cost attribution is exercised too) and compares every
/// observable against the fast engine.
fn engines_agree(k: &Kernel, module: &psir::Module, label: &str) -> Result<(), String> {
    engines_agree_on(k, module, label, &Target::reference_default())
}

/// [`engines_agree`] under an explicit costing target.
fn engines_agree_on(
    k: &Kernel,
    module: &psir::Module,
    label: &str,
    target: &Target,
) -> Result<(), String> {
    let cost = TargetCost::for_target(target.clone());
    let fast = run_module_engine(module, k, &cost, true, Engine::Fast)
        .map_err(|e| format!("{label}: fast engine: {e}"))?;
    let fj = fast
        .profile
        .as_ref()
        .map(|p| p.to_json().to_string_pretty());
    for engine in [Engine::Reference, Engine::Native] {
        let name = match engine {
            Engine::Reference => "reference",
            _ => "native",
        };
        let other = run_module_engine(module, k, &cost, true, engine)
            .map_err(|e| format!("{label}: {name} engine: {e}"))?;
        if fast.cycles != other.cycles {
            return Err(format!(
                "{label}: cycles differ: fast {} vs {name} {}",
                fast.cycles, other.cycles
            ));
        }
        if fast.outputs != other.outputs {
            return Err(format!("{label}: checked outputs differ vs {name}"));
        }
        if fast.stats != other.stats {
            return Err(format!(
                "{label}: stats differ: fast {:?} vs {name} {:?}",
                fast.stats, other.stats
            ));
        }
        let oj = other.profile.map(|p| p.to_json().to_string_pretty());
        if fj != oj {
            return Err(format!("{label}: profile JSON differs vs {name}"));
        }
    }
    Ok(())
}

fn check_all(kernels: &[Kernel], cfgs: &[Config]) {
    let mut failures = Vec::new();
    for k in kernels {
        for &cfg in cfgs {
            let label = format!("{}/{}", k.name, cfg.label());
            let result = build_module(k, cfg)
                .map_err(|e| format!("{label}: build: {e}"))
                .and_then(|m| engines_agree(k, &m, &label));
            if let Err(e) = result {
                failures.push(e);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} engine divergences:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn simdlib_kernels_agree_between_engines() {
    check_all(&simd_kernels(512), &[Config::Scalar, Config::Parsimony]);
}

#[test]
fn ispc_kernels_agree_between_engines() {
    check_all(
        &ispc_kernels(IspcSizes::tiny()),
        &[Config::Parsimony, Config::GangSync],
    );
}

#[test]
fn gang_size_sweep_agrees_between_engines() {
    // The fig4 gang-size sweep recompiles the same SPMD program at a
    // different program-level gang constant; both sweep endpoints must be
    // engine-identical too (different lane counts stress the splat/slice
    // and masked-tail paths differently).
    let base = ispc_kernels(IspcSizes::tiny())
        .into_iter()
        .find(|k| k.name == "mandelbrot")
        .expect("mandelbrot present");
    let mut sweep = Vec::new();
    for gang in [8u32, 64] {
        let mut k = Kernel::new(
            format!("mandelbrot_g{gang}"),
            "ispc",
            gang,
            base.psim_src
                .replace("psim gang(16)", &format!("psim gang({gang})")),
            base.serial_src.clone(),
            base.buffers.clone(),
            base.n,
        );
        k.extra_args = base.extra_args.clone();
        sweep.push(k);
    }
    check_all(&sweep, &[Config::Parsimony]);
}

#[test]
fn targets_preserve_outputs_and_engine_identity() {
    // The target sweep of ISSUE 10: the same compiled module, priced on
    // every modeled machine — both fixed-width x86 targets and the
    // scalable target at three vector lengths. Two contracts at once:
    //   1. per target, all three engines still agree on everything
    //      (cycles included — they share the target's cost model);
    //   2. across targets, checked outputs are byte-identical to the
    //      reference target's (targets price uops, never touch values).
    let targets = [
        Target::avx2(),
        Target::sve(128),
        Target::sve(512),
        Target::sve(2048),
    ];
    let mut failures = Vec::new();
    for k in simd_kernels(512).iter().take(8) {
        let label = format!("{}/{}", k.name, Config::Parsimony.label());
        let module = match build_module(k, Config::Parsimony) {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{label}: build: {e}"));
                continue;
            }
        };
        let base_cost = TargetCost::for_target(Target::reference_default());
        let want = match run_module_engine(&module, k, &base_cost, false, Engine::Fast) {
            Ok(r) => r.outputs,
            Err(e) => {
                failures.push(format!("{label}: reference target: {e}"));
                continue;
            }
        };
        for t in &targets {
            let tlabel = format!("{label}@{}", t.flag_name());
            if let Err(e) = engines_agree_on(k, &module, &tlabel, t) {
                failures.push(e);
                continue;
            }
            let cost = TargetCost::for_target(t.clone());
            match run_module_engine(&module, k, &cost, false, Engine::Fast) {
                Ok(r) if r.outputs != want => {
                    failures.push(format!("{tlabel}: outputs diverge from x86-avx512"));
                }
                Ok(_) => {}
                Err(e) => failures.push(format!("{tlabel}: {e}")),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} target-sweep divergences:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn degraded_scalar_fallback_agrees_between_engines() {
    // A PSIM_INJECT_FAULT-style injected panic in the vectorize pass
    // degrades regions to the scalar serialized fallback; the degraded
    // module must still be engine-identical.
    let popts = PipelineOptions {
        verify: VerifyMode::Fallback,
        inject: Some(FaultInjector::parse("vectorize:panic").expect("registered site")),
        jobs: 1,
    };
    let mut failures = Vec::new();
    for k in simd_kernels(512).into_iter().take(8) {
        let label = format!("{}/degraded", k.name);
        let m = psimc::compile(&k.psim_src).expect("suite kernels compile");
        let out = vectorize_module_with(&m, &VectorizeOptions::default(), &popts)
            .expect("degradation serializes, never fails the module");
        assert!(
            !out.degraded.is_empty(),
            "{label}: the injected fault must degrade at least one region"
        );
        if let Err(e) = engines_agree(&k, &out.module, &label) {
            failures.push(e);
        }
    }
    assert!(
        failures.is_empty(),
        "{} engine divergences on degraded modules:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
