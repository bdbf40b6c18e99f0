//! Int8 crossbar fidelity: the bit-sliced quantized datapath must track
//! exact execution within the quantization error bound.

use cim_pcm::Fidelity;
use polybench::{init_fn, source, Dataset, Kernel};
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};

#[test]
fn int8_gemm_tracks_exact_within_bound() {
    let src = source(Kernel::Gemm, Dataset::Mini);
    let compiled = compile(&src, &CompileOptions::default()).expect("compiles");
    let init = init_fn(Kernel::Gemm);
    let exact = execute(&compiled, &ExecOptions::default(), &init).expect("exact runs");
    let opts = ExecOptions { fidelity: Fidelity::Int8, ..ExecOptions::default() };
    let int8 = execute(&compiled, &opts, &init).expect("int8 runs");

    let (e, q) = (exact.array("C").expect("C"), int8.array("C").expect("C"));
    let max_abs = e.iter().fold(0f32, |m, v| m.max(v.abs()));
    let mut worst = 0f32;
    for (a, b) in e.iter().zip(q) {
        worst = worst.max((a - b).abs());
    }
    // 8-bit symmetric quantization of both operands over a K=16 reduction:
    // relative error stays in the low percent range.
    assert!(worst / max_abs < 0.05, "relative error {}", worst / max_abs);
    // And it is genuinely quantized, not exact.
    assert!(e != q, "int8 path should differ somewhere");
}

#[test]
fn int8_energy_equals_exact_energy() {
    // Fidelity changes values, never costs: the paper's evaluation is
    // value-independent.
    let src = source(Kernel::Gemm, Dataset::Mini);
    let compiled = compile(&src, &CompileOptions::default()).expect("compiles");
    let init = init_fn(Kernel::Gemm);
    let exact = execute(&compiled, &ExecOptions::default(), &init).expect("runs");
    let opts = ExecOptions { fidelity: Fidelity::Int8, ..ExecOptions::default() };
    let int8 = execute(&compiled, &opts, &init).expect("runs");
    let (ea, eb) = (exact.accel.expect("accel"), int8.accel.expect("accel"));
    assert_eq!(ea.cell_writes, eb.cell_writes);
    assert_eq!(ea.gemv_count, eb.gemv_count);
    assert!((ea.total_energy().as_pj() - eb.total_energy().as_pj()).abs() < 1e-6);
}
