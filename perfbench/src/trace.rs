//! Host-time spans around the benchmark's calls into each layer's public
//! functions. The spans live in the benchmark, not in the program: they
//! time a call from outside, so a layer's span includes whatever that call
//! does underneath (e.g. `cim_exec` covers the interpreter, runtime,
//! driver and accelerator of one offloaded run).

use std::time::Instant;

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `tdo_lang::compile` (front end).
    Lang,
    /// `tdo_poly::scop::extract` (SCoP extraction).
    Poly,
    /// `PassManager::run` (the compiler pass pipeline).
    Tactics,
    /// `tdo_cim::execute` of a host-only program.
    HostExec,
    /// `tdo_cim::execute` of an offloading program.
    CimExec,
    /// The reference oracles.
    Oracle,
    /// `CimContext::cim_malloc`.
    Malloc,
    /// `CimContext::cim_blas_sgemv`.
    Sgemv,
    /// `CimContext::cim_sync_to_host` plus the read of the result.
    Readback,
    /// `CimContext::cim_free`.
    Free,
    /// `CimServer::backlog_of`.
    Backlog,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::Lang,
        Layer::Poly,
        Layer::Tactics,
        Layer::HostExec,
        Layer::CimExec,
        Layer::Oracle,
        Layer::Malloc,
        Layer::Sgemv,
        Layer::Readback,
        Layer::Free,
        Layer::Backlog,
    ];

    /// Short name used in the per-layer table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Lang => "lang",
            Layer::Poly => "poly",
            Layer::Tactics => "tactics",
            Layer::HostExec => "host_exec",
            Layer::CimExec => "cim_exec",
            Layer::Oracle => "oracle",
            Layer::Malloc => "runtime.malloc",
            Layer::Sgemv => "runtime.sgemv",
            Layer::Readback => "runtime.readback",
            Layer::Free => "runtime.free",
            Layer::Backlog => "serve.backlog",
        }
    }
}

/// Total host time and call count of one layer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Summed host seconds.
    pub secs: f64,
    /// Number of timed calls.
    pub calls: u64,
}

impl Span {
    /// Mean host microseconds per call (0 when the layer was not called).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.calls as f64
        }
    }
}

/// Span recorder. When off, [`Tracer::span`] only calls its closure.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    spans: [Span; Layer::ALL.len()],
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Tracer { on, spans: [Span::default(); Layer::ALL.len()] }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording its host time under `layer` when tracing.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let s = &mut self.spans[layer as usize];
        s.secs += t0.elapsed().as_secs_f64();
        s.calls += 1;
        out
    }

    /// The recorded span of `layer`.
    pub fn get(&self, layer: Layer) -> Span {
        self.spans[layer as usize]
    }

    /// Host seconds covered by all spans (spans never nest).
    pub fn covered_secs(&self) -> f64 {
        self.spans.iter().map(|s| s.secs).sum()
    }
}
