//! Fig. 2 (d): the event timeline of one offloaded kernel.
//!
//! The host prepares data in shared memory and writes the CIM
//! configuration registers; the accelerator fills buffers, programs the
//! crossbar, computes, accumulates and stores the result; the status
//! register flips to done. This example records and prints those events.
//!
//! Run with `cargo run --release --example timeline`.

use tdo_cim::{compile, execute, CompileOptions, ExecOptions};

const SRC: &str = r#"
    const int N = 24;
    float A[N][N]; float B[N][N]; float C[N][N];
    void kernel() {
      for (int i = 0; i < N; i++)
        for (int j = 0; j < N; j++)
          for (int k = 0; k < N; k++)
            C[i][j] += A[i][k] * B[k][j];
    }
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let compiled = compile(SRC, &CompileOptions::default())?;
    let opts = ExecOptions { record_timeline: true, ..ExecOptions::default() };
    let init = |name: &str, data: &mut [f32]| {
        let seed = name.len();
        data.iter_mut().enumerate().for_each(|(i, v)| *v = ((seed + i) % 3) as f32);
    };
    let run = execute(&compiled, &opts, &init)?;
    println!("=== accelerator event timeline (Fig. 2 (d)) ===\n");
    println!("{}", run.timeline.as_ref().expect("timeline recorded"));
    println!("accelerator busy: {}", run.accel.expect("accel used").busy);
    println!("host wall clock:  {}", run.wall_time());
    Ok(())
}
