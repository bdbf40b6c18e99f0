//! Criterion benchmark of the end-to-end pipeline: compile + simulate a
//! small kernel both host-only and offloaded, plus a host-only GEMM big
//! enough to time the interpreter's fast path.

use criterion::{criterion_group, criterion_main, Criterion};
use polybench::{init_fn, source, Dataset, Kernel};
use std::hint::black_box;
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};

fn bench_end_to_end(c: &mut Criterion) {
    let src = source(Kernel::Gemm, Dataset::Mini);
    let host = compile(&src, &CompileOptions::host_only()).expect("compiles");
    let cim = compile(&src, &CompileOptions::default()).expect("compiles");
    let init = init_fn(Kernel::Gemm);
    let opts = ExecOptions::default();
    let mut group = c.benchmark_group("end_to_end_gemm_mini");
    // Each iteration is ~1 ms and the shared container is noisy; a
    // larger sample count keeps the median stable for the perf gate.
    group.sample_size(60);
    group.bench_function("host_only", |b| {
        b.iter(|| black_box(execute(&host, &opts, &init).expect("runs")))
    });
    group.bench_function("host_cim", |b| {
        b.iter(|| black_box(execute(&cim, &opts, &init).expect("runs")))
    });
    group.finish();
}

/// Host-only GEMM at Small (64³): long enough that the interpreter's
/// affine fast path and the cache simulator dominate, which the Mini
/// records' per-call set-up hides.
fn bench_host_gemm_small(c: &mut Criterion) {
    let src = source(Kernel::Gemm, Dataset::Small);
    let host = compile(&src, &CompileOptions::host_only()).expect("compiles");
    let init = init_fn(Kernel::Gemm);
    let opts = ExecOptions::default();
    let mut group = c.benchmark_group("end_to_end_gemm_small");
    group.sample_size(15);
    group.bench_function("host_only", |b| {
        b.iter(|| black_box(execute(&host, &opts, &init).expect("runs")))
    });
    group.finish();
}

fn bench_compile_all(c: &mut Criterion) {
    let sources: Vec<String> = Kernel::ALL.iter().map(|k| source(*k, Dataset::Medium)).collect();
    c.bench_function("compile_all_kernels_tactics", |b| {
        b.iter(|| {
            for src in &sources {
                black_box(compile(src, &CompileOptions::default()).expect("compiles"));
            }
        })
    });
}

criterion_group!(benches, bench_end_to_end, bench_host_gemm_small, bench_compile_all);
criterion_main!(benches);
