//! Property-based testing of the *fault-tolerant* pipeline driver: random
//! SPMD kernels go through structurize → vectorize → verify → interpret
//! with a fault injected at every registered site, and the driver must
//! never panic, always return a verifiable module, and — whenever it
//! degrades a region to the scalar gang-serialized fallback — produce
//! results bit-identical to the SPMD reference executor.
//!
//! Kernels that use horizontal operations (shuffle, reduce) have no
//! lane-at-a-time schedule, so for them the documented behavior under an
//! injected failure is a *located error*, still never a panic.

// The vendored proptest! macro expands attribute-heavy bodies recursively.
#![recursion_limit = "512"]

use parsimony::{
    fault, vectorize_module_with, FaultInjector, PipelineOptions, SpmdRef, VectorizeOptions,
    VerifyMode,
};
use proptest::prelude::*;
use psir::{Interp, Memory, RtVal};

/// A tiny trap-free expression language over `i32` (no division, indices
/// never leave `[0, n)`).
#[derive(Debug, Clone)]
enum E {
    Elem,
    Tid,
    K(i32),
    Add(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Min(Box<E>, Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::Elem => "x".into(),
            E::Tid => "ti".into(),
            E::K(k) => format!("({k})"),
            E::Add(a, b) => format!("({} + {})", a.render(), b.render()),
            E::Mul(a, b) => format!("({} * {})", a.render(), b.render()),
            E::Min(a, b) => format!("min({}, {})", a.render(), b.render()),
        }
    }
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![Just(E::Elem), Just(E::Tid), (-50i32..50).prop_map(E::K)];
    leaf.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| E::Min(Box::new(a), Box::new(b))),
        ]
    })
}

/// Kernel shapes; `Shuffle`/`Reduce` exercise the non-serializable
/// (horizontal-op) path of the degradation policy.
#[derive(Debug, Clone)]
enum Shape {
    Straight(E),
    If(E, E, E),
    Loop(E, u8),
    Shuffle(E),
    Reduce(E),
}

impl Shape {
    fn has_horizontal(&self) -> bool {
        matches!(self, Shape::Shuffle(_) | Shape::Reduce(_))
    }
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        expr_strategy().prop_map(Shape::Straight),
        (expr_strategy(), expr_strategy(), expr_strategy())
            .prop_map(|(c, t, f)| Shape::If(c, t, f)),
        (expr_strategy(), 1u8..4).prop_map(|(e, k)| Shape::Loop(e, k)),
        expr_strategy().prop_map(Shape::Shuffle),
        expr_strategy().prop_map(Shape::Reduce),
    ]
}

fn kernel_source(shape: &Shape, gang: u32) -> String {
    let prologue = "    i64 i = psim_thread_num();\n\
                    \x20   i64 lane = psim_lane_num();\n\
                    \x20   i32 ti = (i32) i;\n\
                    \x20   i32 x = a[i];\n\
                    \x20   i32 r = 0;";
    let body = match shape {
        Shape::Straight(e) => format!("    r = {};", e.render()),
        Shape::If(c, t, f) => format!(
            "    if ({} % 2 == 0) {{\n        r = {};\n    }} else {{\n        r = {};\n    }}",
            c.render(),
            t.render(),
            f.render()
        ),
        Shape::Loop(e, k) => format!(
            "    i32 trips = ({}) & {k};\n    i32 j = 0;\n    while (j < trips) {{\n        r = r * 3 + {} + j;\n        j += 1;\n    }}",
            e.render(),
            e.render()
        ),
        Shape::Shuffle(e) => format!(
            "    i32 v = {};\n    r = psim_shuffle(v, lane + 1);",
            e.render()
        ),
        Shape::Reduce(e) => format!("    r = psim_reduce_add({});", e.render()),
    };
    format!(
        "void k(i32* restrict a, i32* restrict out, i64 n) {{\n  psim gang({gang}) threads(n) {{\n{prologue}\n{body}\n    out[i] = r;\n  }}\n}}\n"
    )
}

fn setup(mem: &mut Memory, n: u64, seed: u64) -> (u64, u64) {
    let mut state = seed | 1;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state & 0xff) as i32 - 128
    };
    let a_vals: Vec<u8> = (0..n).flat_map(|_| next().to_le_bytes()).collect();
    let a = mem.alloc_bytes(&a_vals, 64).unwrap();
    let out = mem.alloc(4 * n, 64).unwrap();
    (a, out)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    // For every registered fault site: no panic escapes the driver, the
    // module is valid, serializable regions degrade and still match the
    // SPMD reference bit-for-bit, and horizontal-op regions fail with a
    // located diagnostic.
    #[test]
    fn injected_faults_never_panic_and_degraded_output_matches(
        shape in shape_strategy(),
        site_idx in 0usize..fault::SITES.len(),
        n_mult in 1u64..4,
        tail in 0u64..4,
        seed in any::<u64>(),
    ) {
        let gang = 8u32;
        // The tail gang of a shuffle kernel reads lanes that never ran
        // (undefined in the model); keep those gang-aligned.
        let tail = if matches!(shape, Shape::Shuffle(..)) { 0 } else { tail };
        let n = gang as u64 * n_mult + tail;
        let src = kernel_source(&shape, gang);
        let m = psimc::compile(&src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));

        let (pass, site) = fault::SITES[site_idx];
        let inj = FaultInjector::parse(&format!("{pass}:{site}")).unwrap();
        let result = vectorize_module_with(
            &m,
            &VectorizeOptions::default(),
            &PipelineOptions { verify: VerifyMode::Fallback, inject: Some(inj), jobs: 1 },
        );

        if shape.has_horizontal() {
            // Horizontal ops cannot be gang-serialized: the documented
            // behavior is a hard located error naming the reason.
            let err = result.expect_err("horizontal region cannot degrade");
            let msg = err.to_string();
            prop_assert!(msg.contains("horizontal"), "{}\n{}", msg, src);
            prop_assert!(msg.contains('@'), "not located: {}\n{}", msg, src);
            return Ok(());
        }

        let out = result.unwrap_or_else(|e| panic!("{pass}:{site}: {e}\n{src}"));
        prop_assert_eq!(&out.degraded, &vec!["k__psim0".to_string()]);
        for f in out.module.functions() {
            let errs = psir::verify_function(f);
            prop_assert!(errs.is_empty(), "@{} invalid: {:?}\n{}", f.name, errs, src);
        }

        // Differential: degraded output must equal the SPMD reference.
        let mut mem = Memory::default();
        let (a, outp) = setup(&mut mem, n, seed);
        let mut r = SpmdRef::new(&m, mem);
        r.run_region("k__psim0", &[RtVal::S(a), RtVal::S(outp)], n)
            .unwrap_or_else(|e| panic!("spmd ref: {e}\n{src}"));
        let want = r.mem.read_bytes(outp, 4 * n).unwrap().to_vec();

        let mut mem = Memory::default();
        let (a, outp) = setup(&mut mem, n, seed);
        let mut it = Interp::with_defaults(&out.module, mem);
        it.call("k", &[RtVal::S(a), RtVal::S(outp), RtVal::S(n)])
            .unwrap_or_else(|e| panic!("degraded run: {e}\n{src}"));
        let got = it.mem.read_bytes(outp, 4 * n).unwrap().to_vec();
        prop_assert_eq!(want, got, "{}:{}: kernel:\n{}", pass, site, src);
    }

    // Without injection, the default pipeline (verification in fallback
    // mode) vectorizes every generated kernel and matches the reference —
    // i.e. the in-pipeline verifier does not reject or degrade healthy
    // vectorizer output.
    #[test]
    fn default_verify_mode_never_degrades_healthy_kernels(
        shape in shape_strategy(),
        n_mult in 1u64..4,
        seed in any::<u64>(),
    ) {
        let gang = 8u32;
        let n = gang as u64 * n_mult;
        let src = kernel_source(&shape, gang);
        let m = psimc::compile(&src).unwrap_or_else(|e| panic!("compile: {e}\n{src}"));

        let out = vectorize_module_with(
            &m,
            &VectorizeOptions::default(),
            &PipelineOptions { verify: VerifyMode::Fallback, inject: None, jobs: 1 },
        )
        .unwrap_or_else(|e| panic!("pipeline: {e}\n{src}"));
        prop_assert!(out.degraded.is_empty(), "spuriously degraded: {:?}\n{}", out.degraded, src);
        prop_assert_eq!(&out.vectorized, &vec!["k__psim0".to_string()]);

        let mut mem = Memory::default();
        let (a, outp) = setup(&mut mem, n, seed);
        let mut r = SpmdRef::new(&m, mem);
        r.run_region("k__psim0", &[RtVal::S(a), RtVal::S(outp)], n)
            .unwrap_or_else(|e| panic!("spmd ref: {e}\n{src}"));
        let want = r.mem.read_bytes(outp, 4 * n).unwrap().to_vec();

        let mut mem = Memory::default();
        let (a, outp) = setup(&mut mem, n, seed);
        let mut it = Interp::with_defaults(&out.module, mem);
        it.call("k", &[RtVal::S(a), RtVal::S(outp), RtVal::S(n)])
            .unwrap_or_else(|e| panic!("vectorized run: {e}\n{src}"));
        let got = it.mem.read_bytes(outp, 4 * n).unwrap().to_vec();
        prop_assert_eq!(want, got, "kernel:\n{}", src);
    }
}
