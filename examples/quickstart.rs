//! Quickstart: the Listing-1 experience.
//!
//! Compiles a plain GEMM written in mini-C twice — host-only (`-O3`) and
//! with `-enable-loop-tactics` — shows the transparent rewriting into
//! `polly_cim*` runtime calls, runs both binaries on the simulated
//! platform and prints the energy/EDP comparison.
//!
//! Run with `cargo run --release --example quickstart`.

use polybench::{init_fn, source, Dataset, Kernel};
use tdo_cim::{compile, execute, Comparison, CompileOptions, ExecOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = source(Kernel::Gemm, Dataset::Small);
    println!("=== source (PolyBench gemm, N = 64) ===\n{src}");

    let host = compile(&src, &CompileOptions::host_only())?;
    let cim = compile(&src, &CompileOptions::default())?;

    println!("=== after Loop Tactics (-enable-loop-tactics) ===");
    println!("{}", cim.pseudo_c());
    if let Some(report) = &cim.report {
        println!("{report}");
    }

    let init = init_fn(Kernel::Gemm);
    let opts = ExecOptions::default();
    println!("running host-only binary ...");
    let host_run = execute(&host, &opts, &init)?;
    println!("running host+CIM binary ...");
    let cim_run = execute(&cim, &opts, &init)?;

    // Results are identical: the offload is transparent.
    assert_eq!(host_run.array("C"), cim_run.array("C"));
    println!("output matrix C identical across both binaries\n");

    let cmp = Comparison { name: "gemm".into(), host: host_run, cim: cim_run };
    println!("{cmp}");
    if let Some(acc) = &cmp.cim.accel {
        println!("{acc}");
    }
    Ok(())
}
