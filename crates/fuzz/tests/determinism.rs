//! End-to-end determinism: the same seed must yield the same program, the
//! same vectorized IR, and the same oracle verdict at every parallelism
//! level — otherwise seeds reported by CI would not replay locally.

use psim_fuzz::{generate, run_program, OracleOptions, Verdict};

#[test]
fn same_seed_same_sources() {
    for seed in [0, 1, 17, 42] {
        let a = generate(seed);
        let b = generate(seed);
        let sa: Vec<String> = a.cases().iter().map(|c| c.source.clone()).collect();
        let sb: Vec<String> = b.cases().iter().map(|c| c.source.clone()).collect();
        assert_eq!(sa, sb, "seed {seed}: program generation must be pure");
    }
}

#[test]
fn vectorized_ir_identical_across_jobs() {
    for seed in [2, 9, 23] {
        let p = generate(seed);
        let case = &p.cases()[0];
        let module = psimc::compile(&case.source).expect("generated program compiles");
        let mut prints = Vec::new();
        for jobs in [1, 2, 4] {
            let popts = parsimony::PipelineOptions {
                verify: parsimony::VerifyMode::Fallback,
                inject: None,
                jobs,
            };
            let out = parsimony::vectorize_module_with(
                &module,
                &parsimony::VectorizeOptions::default(),
                &popts,
            )
            .expect("pipeline succeeds");
            prints.push(psir::print_module(&out.module));
        }
        assert_eq!(prints[0], prints[1], "seed {seed}: -j2 changed the IR");
        assert_eq!(prints[0], prints[2], "seed {seed}: -j4 changed the IR");
    }
}

#[test]
fn verdict_identical_across_jobs() {
    for seed in [0, 5, 11] {
        let p = generate(seed);
        let verdicts: Vec<Verdict> = [1, 2, 4]
            .iter()
            .map(|&jobs| {
                run_program(
                    &p,
                    &OracleOptions {
                        jobs,
                        inject: None,
                        ..OracleOptions::default()
                    },
                )
            })
            .collect();
        let keys: Vec<Option<&'static str>> = verdicts
            .iter()
            .map(|v| v.failure().map(|f| f.kind.name()))
            .collect();
        assert_eq!(keys[0], keys[1], "seed {seed}: verdict differs at -j2");
        assert_eq!(keys[0], keys[2], "seed {seed}: verdict differs at -j4");
    }
}
