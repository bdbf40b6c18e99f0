//! Smoke tests mirroring the `examples/` entry points, so the example
//! logic stays covered by `cargo test` (the binaries themselves are kept
//! compiling by `cargo build --examples` in CI).

use polybench::{init_fn, source, Dataset, Kernel};
use tdo_cim::{compile, execute, Comparison, CompileOptions, ExecOptions};

/// The `examples/quickstart.rs` walkthrough: compile GEMM twice, run both
/// binaries on the simulated platform, and compare. Must not panic.
#[test]
fn quickstart_walkthrough_runs() {
    let src = source(Kernel::Gemm, Dataset::Small);

    let host = compile(&src, &CompileOptions::host_only()).expect("host compile");
    let cim = compile(&src, &CompileOptions::default()).expect("tactics compile");

    // The rewritten program advertises the runtime calls of Listing 1.
    let pseudo = cim.pseudo_c();
    assert!(pseudo.contains("polly_cimBlasSGemm"), "missing offload call:\n{pseudo}");
    let report = cim.report.as_ref().expect("tactics report");
    assert!(format!("{report}").contains("gemm"), "report should mention gemm");

    let init = init_fn(Kernel::Gemm);
    let opts = ExecOptions::default();
    let host_run = execute(&host, &opts, &init).expect("host run");
    let cim_run = execute(&cim, &opts, &init).expect("cim run");

    // The offload is transparent: identical output.
    assert_eq!(host_run.array("C"), cim_run.array("C"));
    assert!(cim_run.accel.is_some(), "gemm should have been offloaded");

    // The comparison renders and reports an energy win for the CIM run.
    let cmp = Comparison { name: "gemm".into(), host: host_run, cim: cim_run };
    assert!(!format!("{cmp}").is_empty());
    assert!(
        cmp.energy_improvement() > 1.0,
        "expected energy improvement, got {}",
        cmp.energy_improvement()
    );
}
