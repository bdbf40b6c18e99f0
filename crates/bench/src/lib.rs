//! # tdo-bench — figure and table regeneration harness
//!
//! One binary per artifact of the paper's evaluation:
//!
//! * `table1` — the system configuration (Table I);
//! * `fig5_endurance` — lifetime vs PCM endurance, naive vs smart mapping;
//! * `fig6_energy` — energy + MACs-per-write for the seven kernels;
//! * `fig6_edp` — EDP and runtime improvements;
//! * `fig7_overlap` — host/accelerator overlap under async dispatch;
//! * `fig8_workloads` — the workload axis beyond PolyBench: the
//!   inference-style GEMM-chain suite and the streamed XLarge GEMM
//!   (see `docs/WORKLOADS.md`);
//! * `fig9_dataflow` — the offload dataflow graph: sync hoisting,
//!   h2d elision and operand residency on the multi-head chain;
//! * `fig10_reactor` — reactor doorbell batching vs per-future
//!   polling, and the per-tile DMA channel sweep.
//!
//! Every binary accepts `--help` and lists its valid flag values.
//!
//! Criterion micro-benchmarks (crossbar, compiler, machine, pipeline,
//! ablation) live under `benches/`.

use cim_pcm::DeviceKind;
use cim_report::{BenchConfig, BenchRecord, BenchReport};
use polybench::{init_fn, source, Dataset, Kernel};
use std::path::PathBuf;
use tdo_cim::{
    compile, execute, geomean, Comparison, CompileOptions, CompiledProgram, ExecOptions, RunResult,
};
use tdo_tactics::OffloadPolicy;

/// One row of the Fig. 6 data.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Kernel.
    pub kernel: Kernel,
    /// Host-only vs host+CIM comparison under the Always policy.
    pub always: Comparison,
    /// Energy improvement under the Selective policy (1.0 when the cost
    /// model keeps the kernel on the host).
    pub selective_energy_x: f64,
    /// Whether the Selective policy offloaded anything in this kernel.
    pub selective_offloaded: bool,
    /// Host wall-clock spent simulating this kernel's comparisons.
    pub wall: std::time::Duration,
}

/// Runs the Fig. 6 study at a dataset size with the paper's default
/// platform (Table-I PCM, single tile).
///
/// # Panics
///
/// Panics if any kernel fails to compile or run (they are all tested).
pub fn run_fig6(dataset: Dataset) -> Vec<Fig6Row> {
    run_fig6_with(dataset, &ExecOptions::default())
}

/// Runs the Fig. 6 study under explicit execution options — the sweep
/// entry point for alternative device models and tile grids.
///
/// # Panics
///
/// Panics if any kernel fails to compile or run (they are all tested).
pub fn run_fig6_with(dataset: Dataset, exec_opts: &ExecOptions) -> Vec<Fig6Row> {
    Kernel::ALL
        .iter()
        .map(|&kernel| {
            let t0 = std::time::Instant::now();
            let src = source(kernel, dataset);
            let init = init_fn(kernel);
            let exec_opts = exec_opts.clone();
            let always = tdo_cim::compare(
                kernel.name(),
                &src,
                &CompileOptions::default(),
                &exec_opts,
                &init,
            )
            .expect("comparison runs");

            // Selective policy: reuse the Always runs when the decision is
            // all-or-nothing; re-run only mixed cases.
            let mut sel_opts = CompileOptions::default();
            sel_opts.tactics.policy = OffloadPolicy::Selective;
            let sel_compiled = compile(&src, &sel_opts).expect("compiles");
            print_pass_reports(kernel.name(), &sel_compiled);
            let report = sel_compiled.report.as_ref().expect("tactics ran");
            let offloaded = report.kernels.iter().filter(|k| k.offloaded).count();
            let selective_energy_x = if offloaded == 0 {
                1.0
            } else if offloaded == report.kernels.len() {
                always.energy_improvement()
            } else {
                let sel_run = execute(&sel_compiled, &exec_opts, &init).expect("selective runs");
                always.host.total_energy() / sel_run.total_energy()
            };
            Fig6Row {
                kernel,
                always,
                selective_energy_x,
                selective_offloaded: offloaded > 0,
                wall: t0.elapsed(),
            }
        })
        .collect()
}

/// Geometric means over the rows: `(full, selective)` — the "Geomean" and
/// "Selective Geomean" bars of Fig. 6 (left). The selective mean is taken
/// over the kernels the cost model offloads (the beneficial set), which is
/// how the paper's 32.6x vs 3.2x pair reads.
pub fn fig6_geomeans(rows: &[Fig6Row]) -> (f64, f64) {
    let full = geomean(rows.iter().map(|r| r.always.energy_improvement()));
    let selective =
        geomean(rows.iter().filter(|r| r.selective_offloaded).map(|r| r.selective_energy_x));
    (full, selective)
}

/// Valid `--device` values, for help text.
pub const DEVICE_NAMES: &str = "pcm|reram";

/// Prints a usage message and exits when `--help` (or `-h`) is present
/// in argv. `flags` holds one pre-formatted line per accepted flag; the
/// figure binaries list every valid dataset/device/grid value here
/// instead of silently defaulting on a typo.
pub fn handle_help(binary: &str, about: &str, flags: &[String]) {
    if !std::env::args().skip(1).any(|a| a == "--help" || a == "-h") {
        return;
    }
    println!("{binary} — {about}");
    println!("\nUsage: cargo run --release -p tdo_bench --bin {binary} -- [flags]\n");
    if flags.is_empty() {
        println!("  (no flags)");
    }
    for f in flags {
        println!("  {f}");
    }
    std::process::exit(0);
}

/// Help line for the shared `--dataset` flag.
pub fn dataset_flag_help(default: Dataset) -> String {
    format!("--dataset <{}>   problem size (default: {default:?})", Dataset::NAMES)
}

/// Help line for the shared `--device` flag.
pub fn device_flag_help() -> String {
    format!("--device <{DEVICE_NAMES}>                    device model (default: pcm)")
}

/// Help line for the shared `--grid` flag.
pub fn grid_flag_help(default: (usize, usize)) -> String {
    format!(
        "--grid <KxM>                            tile grid (default: {}x{})",
        default.0, default.1
    )
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2)
}

/// Parses `--dataset <size>` (or `--dataset=<size>`) from argv,
/// defaulting to Medium, the figure default. An unrecognized value is a
/// fatal error listing the valid names — never a silent default.
pub fn dataset_from_args() -> Dataset {
    dataset_from_args_or(Dataset::Medium)
}

/// As [`dataset_from_args`], with an explicit default.
pub fn dataset_from_args_or(default: Dataset) -> Dataset {
    parse_dataset_flag("--dataset", default)
}

/// Parses an arbitrarily named dataset flag (e.g. `--stream-dataset`).
pub fn parse_dataset_flag(flag: &str, default: Dataset) -> Dataset {
    match flag_value(flag) {
        None => default,
        Some(v) => Dataset::parse(&v)
            .unwrap_or_else(|| die(&format!("invalid {flag} '{v}' (valid: {})", Dataset::NAMES))),
    }
}

fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let prefix = format!("{flag}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if a == flag {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// Parses `--device <pcm|reram>` (or `--device=...`) from argv,
/// defaulting to the paper's PCM part; unknown device names are fatal.
pub fn device_from_args() -> DeviceKind {
    match flag_value("--device") {
        None => DeviceKind::Pcm,
        Some(v) => DeviceKind::parse(&v)
            .unwrap_or_else(|| die(&format!("invalid --device '{v}' (valid: {DEVICE_NAMES})"))),
    }
}

/// Parses `--grid <KxM>` (or `--grid=KxM`, e.g. `--grid 2x2`) from argv,
/// defaulting to the paper's single tile.
pub fn grid_from_args() -> (usize, usize) {
    grid_from_args_or((1, 1))
}

/// As [`grid_from_args`], with an explicit default — overlap studies
/// default to a multi-tile grid, the figure binaries to the paper's
/// single tile. Malformed or zero-axis grids are fatal.
pub fn grid_from_args_or(default: (usize, usize)) -> (usize, usize) {
    match flag_value("--grid") {
        None => default,
        Some(v) => v
            .split_once(['x', 'X'])
            .and_then(|(gk, gm)| Some((gk.trim().parse().ok()?, gm.trim().parse().ok()?)))
            .filter(|&(gk, gm): &(usize, usize)| gk > 0 && gm > 0)
            .unwrap_or_else(|| {
                die(&format!("invalid --grid '{v}' (expected KxM with K, M >= 1, e.g. 2x2)"))
            }),
    }
}

/// Parses a positive-integer flag (e.g. `--batch 4` or `--batch=4`);
/// non-numeric or zero values are fatal.
pub fn usize_flag_or(flag: &str, default: usize) -> usize {
    match flag_value(flag) {
        None => default,
        Some(v) => {
            v.trim().parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
                die(&format!("invalid {flag} '{v}' (expected a positive integer)"))
            })
        }
    }
}

/// Parses `--batch <N>` (or `--batch=N`) from argv.
pub fn batch_from_args_or(default: usize) -> usize {
    usize_flag_or("--batch", default)
}

/// Help line for the shared `--verbose` flag.
pub fn verbose_flag_help() -> String {
    "--verbose                               print per-pass compiler reports".into()
}

/// Whether `--verbose` (or `-v`) is present in argv.
pub fn verbose_from_args() -> bool {
    std::env::args().skip(1).any(|a| a == "--verbose" || a == "-v")
}

/// Under `--verbose`, prints the compiler pass pipeline report of a
/// compiled program to stderr — one line per pass, in pipeline order.
/// The figure binaries call this after every `compile`.
pub fn print_pass_reports(label: &str, compiled: &CompiledProgram) {
    if !verbose_from_args() {
        return;
    }
    eprintln!("{label}: compiler pass pipeline:");
    for p in &compiled.passes {
        eprintln!("  {p}");
    }
}

/// Help line for the shared `--json` flag.
pub fn json_flag_help() -> String {
    "--json <path>                           also write a cim-bench-v1 JSON report".into()
}

/// Parses `--json <path>` (or `--json=path`) from argv — the
/// machine-readable output sink every figure binary supports.
pub fn json_path_from_args() -> Option<PathBuf> {
    flag_value("--json").map(PathBuf::from)
}

/// Writes `report` to the `--json` path when one was given (fatal on
/// I/O errors — a perf gate must not silently skip its own output).
pub fn emit_report(report: &BenchReport) {
    let Some(path) = json_path_from_args() else { return };
    if let Err(e) = report.write(&path) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
    eprintln!("wrote {} ({} records)", path.display(), report.records.len());
}

/// A [`BenchConfig`] with this binary's sweep axes filled in; axes a
/// binary does not expose stay at the schema's "-" placeholder.
pub fn bench_config(
    device: Option<DeviceKind>,
    grid: Option<(usize, usize)>,
    dataset: Option<Dataset>,
    dispatch: Option<&str>,
) -> BenchConfig {
    let mut c = BenchConfig::default();
    if let Some(d) = device {
        c.device = d.name().into();
    }
    if let Some(g) = grid {
        c.grid = g;
    }
    if let Some(d) = dataset {
        c.dataset = format!("{d:?}").to_lowercase();
    }
    if let Some(d) = dispatch {
        c.dispatch = d.into();
    }
    c
}

/// Builds a [`BenchRecord`] from an executed run: modeled wall time plus
/// the accelerator counters the perf gate holds exact. `wall` is the
/// host wall-clock spent producing the run.
pub fn record_from_run(
    name: impl Into<String>,
    config: BenchConfig,
    run: &RunResult,
    wall: std::time::Duration,
) -> BenchRecord {
    let acc = run.accel.unwrap_or_default();
    BenchRecord {
        name: name.into(),
        config,
        wall_ns: wall.as_nanos() as f64,
        modeled_ns: run.wall_time().as_ns(),
        installs: acc.rows_programmed,
        installs_skipped: acc.install_skips,
        hoisted_syncs: 0,
        max_tiles_active: acc.max_tiles_active,
        metrics: Default::default(),
    }
    .with_metric("energy_mj", run.total_energy().as_mj())
}

/// Parses `--size <N>` (or `--size=N`) from argv — per-kernel problem
/// size for the overlap study.
pub fn size_from_args_or(default: usize) -> usize {
    usize_flag_or("--size", default)
}

/// A [`BenchRecord`] for one streamed-GEMM schedule (fig8/fig9 Section B).
/// `StreamRun` exposes no accelerator counters, so those stay zero.
pub fn stream_record(
    name: &str,
    config: BenchConfig,
    r: &workloads::StreamRun,
    wall: std::time::Duration,
) -> BenchRecord {
    BenchRecord {
        name: name.into(),
        config,
        wall_ns: wall.as_nanos() as f64,
        modeled_ns: r.elapsed.as_ns(),
        max_tiles_active: r.max_tiles,
        ..BenchRecord::default()
    }
    .with_metric("accel_busy_ns", r.accel_busy.as_ns())
    .with_metric("busy_wait_ns", r.busy_wait.as_ns())
    .with_metric("panels", r.panels as f64)
    .with_metric("cma_peak_bytes", r.cma_peak as f64)
    .with_metric("sync_skips", r.sync_skips as f64)
}
