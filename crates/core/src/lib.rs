//! # tdo-cim — the end-to-end TDO-CIM pipeline
//!
//! Reproduction of *TDO-CIM: Transparent Detection and Offloading for
//! Computation In-memory* (DATE 2020). This crate glues the whole flow of
//! Fig. 4 together:
//!
//! 1. [`pipeline::compile`] — front-end (`tdo-lang`), polyhedral middle
//!    end (`tdo-poly`), Loop Tactics detection/offloading (`tdo-tactics`),
//!    codegen back to loop IR;
//! 2. [`exec::execute`] — costed execution on the simulated Arm-A7 host
//!    (`cim-machine`) with `polly_cim*` calls dispatched through the
//!    runtime library (`cim-runtime`) into the PCM crossbar accelerator
//!    (`cim-accel` / `cim-pcm`);
//! 3. [`report`] — energy/EDP comparisons (Fig. 6 arithmetic).
//!
//! ```
//! use tdo_cim::{compile, execute, CompileOptions, ExecOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = r#"
//!     const int N = 8;
//!     float A[N][N]; float B[N][N]; float C[N][N];
//!     void kernel() {
//!       for (int i = 0; i < N; i++)
//!         for (int j = 0; j < N; j++)
//!           for (int k = 0; k < N; k++)
//!             C[i][j] += A[i][k] * B[k][j];
//!     }
//! "#;
//! let mut exec_opts = ExecOptions::default();
//! exec_opts.machine = cim_machine::MachineConfig::test_small();
//! exec_opts.accel = cim_accel::AccelConfig::test_small();
//! let init = |name: &str, data: &mut [f32]| {
//!     if name != "C" { data.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32 % 3.0); }
//! };
//! let host = execute(&compile(src, &CompileOptions::host_only())?, &exec_opts, &init)?;
//! let cim = execute(&compile(src, &CompileOptions::default())?, &exec_opts, &init)?;
//! assert_eq!(host.array("C"), cim.array("C"));
//! # Ok(())
//! # }
//! ```

pub mod exec;
pub mod options;
pub mod pipeline;
pub mod report;

pub use exec::{execute, ExecError, HostStats, RunResult};
pub use options::{CompileOptions, ExecOptions};
pub use pipeline::{compile, CompileError, CompiledProgram};
pub use report::{geomean, Comparison};

/// Compiles and runs a source both host-only and with Loop Tactics,
/// returning the comparison (the per-kernel datapoint of Fig. 6).
///
/// # Errors
///
/// Compilation or execution errors from either run.
pub fn compare(
    name: &str,
    src: &str,
    compile_opts: &CompileOptions,
    exec_opts: &ExecOptions,
    init: &dyn Fn(&str, &mut [f32]),
) -> Result<Comparison, Box<dyn std::error::Error>> {
    let host_prog = compile(src, &CompileOptions::host_only())?;
    let mut tactics_opts = compile_opts.clone();
    tactics_opts.enable_loop_tactics = true;
    let cim_prog = compile(src, &tactics_opts)?;
    let host = execute(&host_prog, exec_opts, init)?;
    let cim = execute(&cim_prog, exec_opts, init)?;
    Ok(Comparison { name: name.to_string(), host, cim })
}
