//! Ablation benchmarks: the simulator-side cost of the design choices
//! DESIGN.md calls out (fusion on/off, wait policies, flush coverage).
//! These measure *simulation* throughput; the modelled-cost ablations are
//! printed by the `fig*` binaries and the `fusion_endurance` example.

use cim_machine::units::SimTime;
use cim_runtime::{DriverConfig, FlushMode, WaitPolicy};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};
use tdo_tactics::PassId;

const LISTING2: &str = r#"
    const int N = 16;
    float A[N][N]; float B[N][N]; float C[N][N]; float D[N][N]; float E[N][N];
    void kernel() {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            C[i][j] += A[i][k] * B[k][j];
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            D[i][j] += A[i][k] * E[k][j];
    }
"#;

fn init(name: &str, data: &mut [f32]) {
    let seed = name.len();
    data.iter_mut().enumerate().for_each(|(i, v)| *v = ((seed + i) % 5) as f32 - 2.0);
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("offload_listing2");
    group.sample_size(20);
    for fusion in [true, false] {
        let mut opts = CompileOptions::default();
        opts.tactics.fusion = fusion;
        let compiled = compile(LISTING2, &opts).expect("compiles");
        let exec_opts = ExecOptions::default();
        group.bench_function(format!("fusion_{fusion}"), |b| {
            b.iter(|| black_box(execute(&compiled, &exec_opts, &init).expect("runs")))
        });
    }
    group.finish();
}

fn bench_wait_policies(c: &mut Criterion) {
    let compiled = compile(LISTING2, &CompileOptions::default()).expect("compiles");
    let mut group = c.benchmark_group("wait_policy");
    group.sample_size(20);
    let policies = [
        ("spin", WaitPolicy::Spin),
        ("poll", WaitPolicy::Poll { interval: SimTime::from_us(10.0), insts_per_poll: 20 }),
    ];
    for (name, wait) in policies {
        let exec_opts = ExecOptions {
            driver: DriverConfig { wait, ..DriverConfig::default() },
            ..ExecOptions::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute(&compiled, &exec_opts, &init).expect("runs")))
        });
    }
    group.finish();
}

fn bench_flush_modes(c: &mut Criterion) {
    let compiled = compile(LISTING2, &CompileOptions::default()).expect("compiles");
    let mut group = c.benchmark_group("flush_mode");
    group.sample_size(20);
    for (name, flush) in [("ranges", FlushMode::Ranges), ("full", FlushMode::Full)] {
        let exec_opts = ExecOptions {
            driver: DriverConfig { flush, ..DriverConfig::default() },
            ..ExecOptions::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute(&compiled, &exec_opts, &init).expect("runs")))
        });
    }
    group.finish();
}

fn bench_pass_pipeline(c: &mut Criterion) {
    // Per-pass ablation: compile + execute under the full pipeline and
    // with each graph pass dropped. Fusion is off so the graph passes
    // have separate kernels to hoist around and operands to pin.
    let axes: [(&str, Vec<PassId>); 5] = [
        ("full", PassId::all().to_vec()),
        ("detect_only", vec![PassId::DetectOffload]),
        ("no_hoist", vec![PassId::DetectOffload, PassId::ElideSyncs, PassId::PlacePins]),
        ("no_elide", vec![PassId::DetectOffload, PassId::SyncHoist, PassId::PlacePins]),
        ("no_pin", vec![PassId::DetectOffload, PassId::SyncHoist, PassId::ElideSyncs]),
    ];
    let mut group = c.benchmark_group("pass_pipeline");
    group.sample_size(20);
    for (name, passes) in axes {
        let mut opts = CompileOptions::default().with_passes(&passes);
        opts.tactics.fusion = false;
        let exec_opts = ExecOptions::default();
        group.bench_function(name, |b| {
            b.iter(|| {
                let compiled = compile(black_box(LISTING2), &opts).expect("compiles");
                black_box(execute(&compiled, &exec_opts, &init).expect("runs"))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fusion,
    bench_wait_policies,
    bench_flush_modes,
    bench_pass_pipeline
);
criterion_main!(benches);
