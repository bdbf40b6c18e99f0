//! The chain part of `chain-serve`:
//! `ChainSpec::for_dataset(Large).with_heads(3)`, compiled with the
//! default options and run on a 2x2 PCM grid with async dispatch (the
//! fig8/fig9 configuration), checked against `ChainSpec::reference_outputs`.

use crate::compile::compile;
use crate::pb::matches_oracle;
use crate::stats::{doctor, Counters, PassOut};
use crate::trace::{Layer, Tracer};
use cim_runtime::DispatchMode;
use polybench::Dataset;
use tdo_cim::{execute, CompileOptions, ExecOptions};
use workloads::chain::init_fn;
use workloads::ChainSpec;

/// Generated inputs of the workload.
#[derive(Debug, Clone)]
pub struct Setup {
    spec: ChainSpec,
    src: String,
}

/// Generates the chain's source.
pub fn setup(dataset: Dataset) -> Setup {
    let spec = ChainSpec::for_dataset(dataset).with_heads(3);
    Setup { spec, src: spec.source() }
}

/// One pass: one program run. With `doctored`, the first oracle array of
/// the run is corrupted before the check.
pub(crate) fn pass(s: &Setup, tr: &mut Tracer, counters: &mut Counters, doctored: bool) -> PassOut {
    let exec = ExecOptions::default().with_tile_grid(2, 2).with_dispatch(DispatchMode::Async);
    let mut out = PassOut { attempted: 1, ..PassOut::default() };
    let mut run = compile(&s.src, &CompileOptions::default(), tr).ok().and_then(|p| {
        counters.add_compiled(&p);
        tr.span(Layer::CimExec, || execute(&p, &exec, &init_fn())).ok()
    });
    let want = tr.span(Layer::Oracle, || s.spec.reference_outputs());
    if let Some(r) = run.as_mut().filter(|_| doctored) {
        if let Some((_, data)) = r.arrays.iter_mut().find(|(n, _)| *n == want[0].0) {
            doctor(data);
        }
    }
    let m = &mut out.modeled;
    match &run {
        Some(r) if matches_oracle(r, &want) => {}
        _ => out.failed = 1,
    }
    if let Some(r) = &run {
        counters.add_run(r, false);
        m.insert("modeled_ms".into(), r.wall_time().as_ms());
        m.insert("modeled_energy_mj".into(), r.total_energy().as_mj());
    }
    out
}
