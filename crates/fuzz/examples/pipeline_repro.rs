//! Compiles a PsimC file and runs the vectorization pipeline on it,
//! printing the scalar and vectorized IR (or the pipeline error).
fn main() {
    let path = std::env::args().nth(1).expect("usage: pipeline_repro FILE");
    let src = std::fs::read_to_string(&path).expect("readable file");
    let module = psimc::compile(&src).expect("compiles");
    println!("=== scalar IR ===\n{}", psir::print_module(&module));
    let popts = parsimony::PipelineOptions {
        verify: parsimony::VerifyMode::Strict,
        inject: None,
        jobs: 1,
    };
    match parsimony::vectorize_module_with(&module, &parsimony::VectorizeOptions::default(), &popts)
    {
        Ok(o) => println!(
            "=== vectorized OK (degraded: {:?}) ===\n{}",
            o.degraded,
            psir::print_module(&o.module)
        ),
        Err(e) => println!("=== pipeline ERROR ===\n{e}"),
    }
}
