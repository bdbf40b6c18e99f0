//! `polybench-medium`: the seven Fig. 6 kernels, each compiled host-only
//! and with the default pipeline, executed on the Table-I platform (PCM,
//! 1x1 tile, sync dispatch), and checked against the reference oracle.

use crate::compile::compile;
use crate::stats::{doctor, same_bits, Counters, PassOut};
use crate::trace::{Layer, Tracer};
use polybench::{init_fn, reference_outputs, source, Dataset, Kernel};
use tdo_cim::{execute, geomean, CompileOptions, ExecOptions, RunResult};

/// Generated inputs of the workload.
#[derive(Debug, Clone)]
pub struct Setup {
    dataset: Dataset,
    sources: Vec<(Kernel, String)>,
}

/// Generates the kernel sources.
pub fn setup(dataset: Dataset) -> Setup {
    Setup { dataset, sources: Kernel::ALL.iter().map(|&k| (k, source(k, dataset))).collect() }
}

/// One pass: two program runs per kernel. With `doctored`, the first
/// output array of the first offloaded run is corrupted before the check.
pub(crate) fn pass(
    s: &Setup,
    tr: &mut Tracer,
    counters: &mut Counters,
    mut doctored: bool,
) -> PassOut {
    let exec = ExecOptions::default();
    let mut out = PassOut::default();
    let (mut cim_ms, mut cim_mj) = (0.0, 0.0);
    let (mut speedups, mut energy_x) = (Vec::new(), Vec::new());
    for (kernel, src) in &s.sources {
        let init = init_fn(*kernel);
        let host = compile(src, &CompileOptions::host_only(), tr)
            .ok()
            .and_then(|p| tr.span(Layer::HostExec, || execute(&p, &exec, &init)).ok());
        let mut cim = compile(src, &CompileOptions::default(), tr).ok().and_then(|p| {
            counters.add_compiled(&p);
            tr.span(Layer::CimExec, || execute(&p, &exec, &init)).ok()
        });
        let want = tr.span(Layer::Oracle, || reference_outputs(*kernel, s.dataset));
        if let Some(run) = cim.as_mut().filter(|_| doctored) {
            if let Some((_, data)) = run.arrays.iter_mut().find(|(n, _)| *n == want[0].0) {
                doctor(data);
                doctored = false;
            }
        }

        let host_ok = host.as_ref().is_some_and(|h| matches_oracle(h, &want));
        let cim_ok = cim.as_ref().is_some_and(|c| {
            matches_oracle(c, &want) && host.as_ref().is_none_or(|h| same_arrays(h, c))
        });
        out.attempted += 2;
        out.failed += u64::from(!host_ok) + u64::from(!cim_ok);
        if let Some(h) = &host {
            counters.add_run(h, true);
        }
        if let Some(c) = &cim {
            counters.add_run(c, false);
            cim_ms += c.wall_time().as_ms();
            cim_mj += c.total_energy().as_mj();
        }
        if let (Some(h), Some(c)) = (&host, &cim) {
            speedups.push(h.wall_time().as_ns() / c.wall_time().as_ns());
            energy_x.push(h.total_energy().as_pj() / c.total_energy().as_pj());
        }
    }
    let m = &mut out.modeled;
    m.insert("modeled_ms".into(), cim_ms);
    m.insert("modeled_energy_mj".into(), cim_mj);
    if !speedups.is_empty() {
        m.insert("speedup_x".into(), geomean(speedups));
        m.insert("energy_x".into(), geomean(energy_x));
    }
    out
}

/// Every oracle array is present in the run and equal bit for bit.
pub(crate) fn matches_oracle(run: &RunResult, want: &[(String, Vec<f32>)]) -> bool {
    want.iter().all(|(name, w)| run.array(name).is_some_and(|got| same_bits(got, w)))
}

/// Every array of the two runs is equal bit for bit.
fn same_arrays(a: &RunResult, b: &RunResult) -> bool {
    a.arrays.len() == b.arrays.len()
        && a.arrays.iter().zip(&b.arrays).all(|((na, da), (nb, db))| na == nb && same_bits(da, db))
}
