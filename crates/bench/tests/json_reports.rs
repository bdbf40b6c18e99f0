//! End-to-end validation of the machine-readable perf-gate pipeline:
//! every figure binary's `--json` output must parse as a valid
//! `cim-bench-v1` report, the vendored criterion sink must emit the
//! same schema, and `bench_compare` must exit nonzero on a doctored
//! regression and zero on a clean diff.
//!
//! Problem sizes are pinned tiny (mini/small) so the full sweep stays
//! test-suite fast even in debug builds.

use cim_report::{BenchReport, SCHEMA};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tdo_bench_json_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Runs a figure binary with `--json` into `dir` and validates the file.
fn run_and_validate(exe: &str, suite: &str, extra: &[&str], dir: &Path) -> BenchReport {
    let path = dir.join(format!("BENCH_{suite}.json"));
    let out = Command::new(exe).args(extra).arg("--json").arg(&path).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{suite} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report = BenchReport::read(&path).expect("valid cim-bench-v1");
    assert_eq!(report.suite, suite, "suite tag must match the binary");
    assert!(!report.records.is_empty(), "{suite}: no records emitted");
    report
}

#[test]
fn every_figure_binary_emits_valid_json() {
    let dir = tmp_dir("figures");
    let table1 = run_and_validate(env!("CARGO_BIN_EXE_table1"), "table1", &[], &dir);
    assert!(table1.records.iter().any(|r| r.name == "host"));

    let fig5 = run_and_validate(env!("CARGO_BIN_EXE_fig5_endurance"), "fig5_endurance", &[], &dir);
    assert!(fig5.records[0].metrics.contains_key("smart_over_naive_x"));

    let mini = ["--dataset", "mini"];
    let edp = run_and_validate(env!("CARGO_BIN_EXE_fig6_edp"), "fig6_edp", &mini, &dir);
    assert_eq!(edp.records.last().expect("records").name, "geomean");
    assert!(edp.records[0].modeled_ns > 0.0, "kernel records carry modeled time");
    let energy = run_and_validate(env!("CARGO_BIN_EXE_fig6_energy"), "fig6_energy", &mini, &dir);
    assert!(energy.records[0].metrics.contains_key("energy_mj"));

    let fig7 = run_and_validate(
        env!("CARGO_BIN_EXE_fig7_overlap"),
        "fig7_overlap",
        &["--size", "24", "--batch", "2"],
        &dir,
    );
    assert_eq!(fig7.records.len(), 3, "one record per schedule");
    assert!(fig7.records.iter().any(|r| r.config.dispatch == "async"));

    let fig8 = run_and_validate(
        env!("CARGO_BIN_EXE_fig8_workloads"),
        "fig8_workloads",
        &["--dataset", "mini", "--stream-dataset", "small"],
        &dir,
    );
    assert!(fig8.records.iter().any(|r| r.name.starts_with("chain_")));
    assert!(fig8.records.iter().any(|r| r.name.starts_with("stream_")));
    let oracle = fig8.records.iter().find(|r| r.name == "chain_reference").expect("oracle record");
    assert!(oracle.wall_ns > 0.0, "the oracle record carries its host time");

    let fig9 = run_and_validate(
        env!("CARGO_BIN_EXE_fig9_dataflow"),
        "fig9_dataflow",
        &["--dataset", "mini", "--stream-dataset", "small"],
        &dir,
    );
    let df = fig9
        .records
        .iter()
        .find(|r| r.name == "chain_dataflow_async")
        .expect("dataflow record present");
    assert!(df.hoisted_syncs >= 1, "hoisted syncs must surface in the record");
    assert!(df.installs_skipped >= 1, "install skips must surface in the record");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn criterion_sink_emits_the_same_schema() {
    // The vendored criterion harness hand-rolls its JSON; pin it to the
    // schema cim_report validates so bench_compare can diff both kinds.
    let dir = tmp_dir("criterion");
    let path = dir.join("BENCH_bench_demo.json");
    criterion::write_json("bench_demo", path.to_str().expect("utf-8 path"));
    let report = BenchReport::read(&path).expect("criterion JSON is valid cim-bench-v1");
    assert_eq!(report.suite, "bench_demo");
    let text = std::fs::read_to_string(&path).expect("readable");
    assert!(text.contains(SCHEMA));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bench_compare_gates_on_doctored_regression() {
    let base_dir = tmp_dir("gate_base");
    let fresh_dir = tmp_dir("gate_fresh");
    let fig5 =
        run_and_validate(env!("CARGO_BIN_EXE_fig5_endurance"), "fig5_endurance", &[], &base_dir);

    let compare = |fresh: &Path| {
        Command::new(env!("CARGO_BIN_EXE_bench_compare"))
            .args(["--baseline"])
            .arg(&base_dir)
            .arg("--fresh")
            .arg(fresh)
            .output()
            .expect("bench_compare runs")
    };

    // Identical fresh run: gate passes.
    let clean = fig5.clone();
    clean.write(&fresh_dir.join(clean.file_name())).expect("write");
    let out = compare(&fresh_dir);
    assert!(out.status.success(), "clean diff must pass: {}", String::from_utf8_lossy(&out.stdout));

    // Doctored modeled time: gate must exit nonzero and name the field.
    let mut doctored = fig5.clone();
    doctored.records[0].modeled_ns *= 1.25;
    doctored.write(&fresh_dir.join(doctored.file_name())).expect("write");
    let out = compare(&fresh_dir);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("modeled_ns"), "regression must be named:\n{stdout}");

    // Missing fresh suite: also a gate failure.
    std::fs::remove_file(fresh_dir.join(fig5.file_name())).expect("rm");
    let out = compare(&fresh_dir);
    assert_eq!(out.status.code(), Some(1), "missing suite must exit 1");

    std::fs::remove_dir_all(&base_dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}
