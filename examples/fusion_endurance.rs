//! Listing 2 + Fig. 5: kernel fusion for endurance.
//!
//! Two independent GEMMs share their left operand `A`. Under the legacy
//! conservative schedule the runtime reprograms the crossbar for every
//! call; the fused batched call writes `A` once and streams `B`/`E` —
//! halving write traffic and doubling the projected crossbar lifetime
//! (Equation 1). The default pass pipeline reaches the same write
//! traffic without fusing: pin placement keeps `A` resident across the
//! two calls.
//!
//! Run with `cargo run --release --example fusion_endurance`.

use cim_pcm::wear::LifetimeModel;
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};

const LISTING2: &str = r#"
    const int M = 64; const int N = 1024;
    float A[M][M]; float B[M][N]; float C[M][N]; float D[M][N]; float E[M][N];
    void kernel() {
      for (int i = 0; i < M; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < M; k++)
            C[i][j] += A[i][k] * B[k][j];
      for (int i = 0; i < M; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < M; k++)
            D[i][j] += A[i][k] * E[k][j];
    }
"#;

fn run(fusion: bool, dataflow: bool) -> Result<(u64, f64, String), Box<dyn std::error::Error>> {
    // The naive baseline needs the legacy conservative schedule: the
    // default pipeline's pin placement would keep `A` resident and erase
    // the per-call reprogramming this example measures.
    let mut opts =
        if dataflow { CompileOptions::default() } else { CompileOptions::without_dataflow() };
    opts.tactics.fusion = fusion;
    let compiled = compile(LISTING2, &opts)?;
    let calls = compiled
        .pseudo_c()
        .lines()
        .filter(|l| l.contains("polly_cimBlas"))
        .map(|l| l.trim().to_string())
        .collect::<Vec<_>>()
        .join("\n  ");
    let init = |name: &str, data: &mut [f32]| {
        let seed = name.len();
        data.iter_mut().enumerate().for_each(|(i, v)| *v = ((seed + i * 3) % 5) as f32 - 2.0);
    };
    let r = execute(&compiled, &ExecOptions::default(), &init)?;
    let acc = r.accel.expect("offloaded");
    Ok((acc.cell_writes, r.wall_time().as_s(), calls))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (w_naive, t_naive, calls_naive) = run(false, false)?;
    let (w_smart, t_smart, calls_smart) = run(true, true)?;
    let (w_pinned, _, _) = run(false, true)?;
    println!("=== Listing 2: two GEMMs sharing A ===\n");
    println!("naive mapping (legacy schedule, fusion off):\n  {calls_naive}");
    println!("  crossbar cell writes: {w_naive}\n");
    println!("smart mapping (fusion -> batched call):\n  {calls_smart}");
    println!("  crossbar cell writes: {w_smart}\n");
    println!(
        "write reduction: {:.2}x (A written once instead of per call)",
        w_naive as f64 / w_smart as f64
    );
    println!("default pipeline, unfused: {w_pinned} writes (pin placement keeps A resident)\n");
    assert_eq!(w_pinned, w_smart, "pinning should match the fused write traffic");

    // Fig. 5: lifetime vs cell endurance under both write rates.
    let model = LifetimeModel::default();
    let b_naive = w_naive as f64 / t_naive;
    let b_smart = w_smart as f64 / t_smart;
    println!("=== Fig. 5: system lifetime (Equation 1, S = 512 KiB) ===\n");
    println!("{:>24} {:>16} {:>16}", "endurance (Mwrites)", "naive (years)", "smart (years)");
    for mw in [10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0] {
        println!(
            "{:>24} {:>16.4} {:>16.4}",
            mw,
            model.years(mw * 1e6, b_naive),
            model.years(mw * 1e6, b_smart)
        );
    }
    println!(
        "\nlifetime improvement: {:.2}x (paper: ~2x)",
        model.years(20e6, b_naive).recip() / model.years(20e6, b_smart).recip()
    );
    Ok(())
}
