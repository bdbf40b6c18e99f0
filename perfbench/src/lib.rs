//! # perfbench — the TDO-CIM stack's end-to-end and per-layer benchmark
//!
//! Two workloads run from one process: `polybench-medium` (the paper's
//! Fig. 6 evaluation) and `chain-serve` (a multi-head GEMM chain on a 2x2
//! grid, then a ladder of four open-loop serving tenants on the same grid
//! shape). Every pass checks every output bit for bit. Untraced passes give
//! the end-to-end metrics; traced passes time the benchmark's calls into
//! each layer's public functions and read each layer's stats structs. See
//! `README.md`.

pub mod chain;
mod clock;
mod compile;
pub mod pb;
pub mod serve;
pub mod stats;
pub mod trace;

use clock::Timed;
use polybench::Dataset;
use stats::{Counters, Modeled, PassOut};
use std::collections::BTreeMap;
use std::time::Instant;
use trace::{Layer, Tracer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The seven Fig. 6 kernels at Medium, host-only and offloaded.
    PolybenchMedium,
    /// 4 micro-batches x 3 layers x 3 heads of 256^3 GEMMs, then four
    /// serving tenants on a 2x2 grid, open loop.
    ChainServe,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::PolybenchMedium, Workload::ChainServe];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PolybenchMedium => "polybench-medium",
            Workload::ChainServe => "chain-serve",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem scale: the benchmark's own sizes, or Mini sizes for the
/// self-tests and the warm-up pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes named by the workloads.
    Full,
    /// PolyBench and chain at Mini (N=16), 10 serving ops per tenant
    /// and load step.
    Mini,
}

/// Generated inputs of one workload.
#[derive(Debug, Clone)]
pub enum Setup {
    /// `polybench-medium`.
    Polybench(pb::Setup),
    /// `chain-serve`: the chain, then the serving ladder.
    ChainServe(chain::Setup, Box<serve::Setup>),
}

/// Serving ops per tenant and load step at full scale. The serving part
/// is kept to a small share of a `chain-serve` pass: on a shared host its
/// host time swung by up to 1.8x within minutes, where the chain's swung
/// by about 1.1x, so a larger share makes `wall_s` too noisy to gate.
const SERVE_OPS: usize = 100;

/// Generates a workload's inputs. Only the serving ladder uses the seed;
/// PolyBench and the chain keep the repository's deterministic fills, on
/// which their oracles are defined.
pub fn setup(w: Workload, scale: Scale, seed: u64) -> Setup {
    let full = scale == Scale::Full;
    match w {
        Workload::PolybenchMedium => {
            Setup::Polybench(pb::setup(if full { Dataset::Medium } else { Dataset::Mini }))
        }
        Workload::ChainServe => Setup::ChainServe(
            chain::setup(if full { Dataset::Large } else { Dataset::Mini }),
            Box::new(serve::setup(if full { SERVE_OPS } else { 10 }, seed)),
        ),
    }
}

/// Runs one pass of the workload. `doctored` corrupts one output of each
/// part before its check (self-tests only).
pub fn run_pass(s: &Setup, tr: &mut Tracer, doctored: bool) -> PassOut {
    let mut counters = Counters::default();
    let mut out = match s {
        Setup::Polybench(s) => pb::pass(s, tr, &mut counters, doctored),
        Setup::ChainServe(c, s) => {
            let mut out = chain::pass(c, tr, &mut counters, doctored);
            let served = serve::pass(s, tr, &mut counters, doctored);
            out.attempted += served.attempted;
            out.failed += served.failed;
            // The parts share only `modeled_ms` and `modeled_energy_mj`:
            // the chain's run plus the serving makespan at the report load.
            for (k, v) in served.modeled {
                *out.modeled.entry(k).or_insert(0.0) += v;
            }
            out
        }
    };
    counters.write(&mut out.modeled);
    out
}

/// A metric the benchmark reports: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics every workload reports in its result line. Modeled
/// times carry the unit `sim_ms` to keep the simulated clock apart from
/// host seconds.
pub const END_TO_END: [MetricDef; 4] =
    [("wall_s", "s"), ("setup_s", "s"), ("modeled_ms", "sim_ms"), ("modeled_energy_mj", "mJ")];

/// End-to-end metrics that apply to one workload only: printed in the
/// report, not in the result line.
const WORKLOAD_SPECIFIC: [MetricDef; 6] = [
    ("speedup_x", "x"),
    ("energy_x", "x"),
    ("p50_sojourn_us", "sim_us"),
    ("p99_sojourn_us", "sim_us"),
    ("sojourn_samples", "count"),
    ("max_load_x", "x"),
];

/// Per-layer metrics of the traced run. Host times (`ms`, `us`) are the
/// median over traced passes; `sim_*` values and counts are modeled and
/// identical in every pass. A layer a workload does not call reads 0.
pub const PER_LAYER: [MetricDef; 33] = [
    ("lang.host_ms", "ms"),
    ("poly.host_ms", "ms"),
    ("tactics.host_ms", "ms"),
    ("tactics.offloaded", "count"),
    ("tactics.hoisted_syncs", "count"),
    ("tactics.elided_syncs", "count"),
    ("tactics.pins", "count"),
    ("host_exec.host_ms", "ms"),
    ("host_exec.sim_minst_per_s", "Minst/s"),
    ("host.stall_frac", "frac"),
    ("host.spin_frac", "frac"),
    ("cim_exec.host_ms", "ms"),
    ("accel.install_ms", "sim_ms"),
    ("accel.compute_ms", "sim_ms"),
    ("accel.dma_exposed_ms", "sim_ms"),
    ("accel.busy_ms", "sim_ms"),
    ("accel.macs_per_write", "MAC/write"),
    ("accel.install_skips", "count"),
    ("accel.max_tiles_active", "count"),
    ("driver.busy_wait_ms", "sim_ms"),
    ("driver.idle_wait_ms", "sim_ms"),
    ("driver.status_reads", "count"),
    ("driver.queue_full_stalls", "count"),
    ("oracle.host_ms", "ms"),
    ("runtime.malloc_us", "us"),
    ("runtime.sgemv_us", "us"),
    ("runtime.readback_us", "us"),
    ("runtime.free_us", "us"),
    ("serve.backlog_us", "us"),
    ("serve.sched_throttles", "count"),
    ("serve.gen_lag_us", "sim_us"),
    ("other.host_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Everything one benchmark run measured.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Each set-up.
    pub(crate) setups: Vec<Timed>,
    /// Each untraced pass.
    pub(crate) untraced: Vec<Timed>,
    /// Each traced pass and its spans.
    pub(crate) traced: Vec<(Timed, Tracer)>,
    /// Modeled values of the first pass.
    pub(crate) modeled: Modeled,
    /// Modeled keys on which some pass differed from the first.
    pub(crate) mismatched: Vec<String>,
    /// Program runs or serving ops attempted, over all passes.
    pub(crate) attempted: u64,
    /// Attempts that failed, over all passes.
    pub(crate) failed: u64,
}

impl Measurement {
    /// Every check passed and every pass modeled the same values.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched.is_empty()
    }
}

/// Set-up: generates the workload's inputs, then runs one checked
/// warm-up pass at Mini scale, so that code, allocator and lazy state are
/// warm before the timed pass.
fn set_up(w: Workload, scale: Scale, seed: u64) -> (Setup, PassOut) {
    let prepared = setup(w, scale, seed);
    let warm_up = run_pass(&setup(w, Scale::Mini, seed), &mut Tracer::new(false), false);
    (prepared, warm_up)
}

/// Runs set-up plus pass until `seconds` have passed: untraced passes
/// only, or alternating untraced and traced passes when `trace` is set. At
/// least three untraced passes run, and with `trace` at least two of each
/// kind. Every pass has a set-up of its own, so set-up times are sampled
/// over the same span of host time as the passes. The core clock is
/// probed between set-up, pass and the next set-up.
pub fn measure(w: Workload, scale: Scale, seed: u64, seconds: f64, trace: bool) -> Measurement {
    let mut m = Measurement {
        setups: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        modeled: Modeled::new(),
        mismatched: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut before = clock::cycle_secs();
    for i in 0.. {
        let t0 = Instant::now();
        let (prepared, warm_up) = set_up(w, scale, seed);
        let secs = t0.elapsed().as_secs_f64();
        let between = clock::cycle_secs();
        m.setups.push(Timed::new(secs, before, between));
        let traced = trace && i % 2 == 1;
        let mut tr = Tracer::new(traced);
        let t0 = Instant::now();
        let out = run_pass(&prepared, &mut tr, false);
        let secs = t0.elapsed().as_secs_f64();
        before = clock::cycle_secs();
        let wall = Timed::new(secs, between, before);
        m.attempted += warm_up.attempted + out.attempted;
        m.failed += warm_up.failed + out.failed;
        if i == 0 {
            m.modeled = out.modeled;
        } else {
            for (k, v) in &out.modeled {
                if m.modeled.get(k).map(|x| x.to_bits()) != Some(v.to_bits())
                    && !m.mismatched.contains(k)
                {
                    m.mismatched.push(k.clone());
                }
            }
        }
        if traced {
            m.traced.push((wall, tr));
        } else {
            m.untraced.push(wall);
        }
        let enough = if trace { m.traced.len() >= 2 } else { m.untraced.len() >= 3 };
        if enough && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of the intervals in reference seconds.
fn median_ref(xs: &[Timed]) -> f64 {
    median(&xs.iter().map(|t| t.ref_secs()).collect::<Vec<_>>())
}

/// The end-to-end metrics of the result line.
fn end_to_end(m: &Measurement) -> BTreeMap<&'static str, f64> {
    let modeled = |k: &str| m.modeled.get(k).copied().unwrap_or(0.0);
    BTreeMap::from([
        ("wall_s", median_ref(&m.untraced)),
        ("setup_s", median_ref(&m.setups)),
        ("modeled_ms", modeled("modeled_ms")),
        ("modeled_energy_mj", modeled("modeled_energy_mj")),
    ])
}

/// The per-layer metrics of the traced passes (empty without them).
fn per_layer(m: &Measurement) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if m.traced.is_empty() {
        return out;
    }
    // Host times in reference seconds, scaled by their pass's clock.
    let med = |f: &dyn Fn(Timed, &Tracer) -> f64| {
        median(&m.traced.iter().map(|(wall, tr)| f(*wall, tr)).collect::<Vec<_>>())
    };
    let ms = |layer: Layer| med(&|t, tr| tr.get(layer).secs * t.to_ref() * 1e3);
    let us_per_call = |layer: Layer| med(&|t, tr| tr.get(layer).us_per_call() * t.to_ref());
    out.insert("lang.host_ms", ms(Layer::Lang));
    out.insert("poly.host_ms", ms(Layer::Poly));
    out.insert("tactics.host_ms", ms(Layer::Tactics));
    out.insert("host_exec.host_ms", ms(Layer::HostExec));
    out.insert("cim_exec.host_ms", ms(Layer::CimExec));
    out.insert("oracle.host_ms", ms(Layer::Oracle));
    out.insert("runtime.malloc_us", us_per_call(Layer::Malloc));
    out.insert("runtime.sgemv_us", us_per_call(Layer::Sgemv));
    out.insert("runtime.readback_us", us_per_call(Layer::Readback));
    out.insert("runtime.free_us", us_per_call(Layer::Free));
    out.insert("serve.backlog_us", us_per_call(Layer::Backlog));
    out.insert("other.host_ms", med(&|t, tr| (t.secs - tr.covered_secs()) * t.to_ref() * 1e3));
    let insts = m.modeled.get("host_exec.instructions").copied().unwrap_or(0.0);
    out.insert(
        "host_exec.sim_minst_per_s",
        med(&|t, tr| {
            let secs = tr.get(Layer::HostExec).secs * t.to_ref();
            if secs > 0.0 {
                insts / secs / 1e6
            } else {
                0.0
            }
        }),
    );
    let traced_wall = median(&m.traced.iter().map(|(t, _)| t.ref_secs()).collect::<Vec<_>>());
    out.insert("trace.overhead_ms", (traced_wall - median_ref(&m.untraced)) * 1e3);
    for (name, _) in PER_LAYER {
        if !out.contains_key(name) {
            out.insert(name, m.modeled.get(name).copied().unwrap_or(0.0));
        }
    }
    out
}

/// Each layer's share of the host time of all traced passes, largest
/// first: the host-time spans plus `other`, summing to 1.
fn layer_shares(m: &Measurement) -> Vec<(&'static str, f64)> {
    let total: f64 = m.traced.iter().map(|(t, _)| t.secs).sum();
    let sum = |f: &dyn Fn(f64, &Tracer) -> f64| -> f64 {
        m.traced.iter().map(|(t, tr)| f(t.secs, tr)).sum::<f64>() / total
    };
    let mut shares: Vec<(&'static str, f64)> =
        Layer::ALL.iter().map(|&l| (l.name(), sum(&|_, tr| tr.get(l).secs))).collect();
    shares.push(("other", sum(&|w, tr| w - tr.covered_secs())));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and the end-to-end (untraced) or per-layer (traced) metrics.
pub fn result_json(m: &Measurement, trace: bool) -> String {
    let (defs, values): (&[MetricDef], _) =
        if trace { (&PER_LAYER, per_layer(m)) } else { (&END_TO_END, end_to_end(m)) };
    let metrics: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let v = values[name];
            let v = if v.is_finite() { v.to_string() } else { "null".into() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}

/// The human-readable report printed above the result line.
pub fn report(w: Workload, seed: u64, m: &Measurement) -> Vec<String> {
    let mut lines = vec![format!(
        "perfbench {} seed={seed}: {} untraced + {} traced passes",
        w.name(),
        m.untraced.len(),
        m.traced.len()
    )];
    let row = |xs: &[Timed], f: &dyn Fn(Timed) -> f64| {
        xs.iter().map(|t| format!("{:.3}", f(*t))).collect::<Vec<_>>().join(" ")
    };
    lines
        .push(format!("  untraced pass walls (s, as measured): {}", row(&m.untraced, &|t| t.secs)));
    lines.push(format!(
        "  core clock (GHz):                     {}",
        row(&m.untraced, &|t| t.hz / 1e9)
    ));
    lines.push(format!(
        "  medians as measured: pass {:.6} s, set-up {:.6} s",
        median(&m.untraced.iter().map(|t| t.secs).collect::<Vec<_>>()),
        median(&m.setups.iter().map(|t| t.secs).collect::<Vec<_>>())
    ));
    lines.push(format!(
        "end-to-end (wall_s: median of untraced passes; setup_s: median of set-ups; \
         host times in seconds at a {} GHz core clock):",
        clock::REF_HZ / 1e9
    ));
    let e2e = end_to_end(m);
    for (name, unit) in END_TO_END {
        lines.push(format!("  {name:<20} {:>16.6} {unit}", e2e[name]));
    }
    let failed_frac = m.failed as f64 / m.attempted.max(1) as f64;
    lines.push(format!(
        "  {:<20} {failed_frac:>16.6} frac ({} of {} attempts)",
        "failed_frac", m.failed, m.attempted
    ));
    for (name, unit) in WORKLOAD_SPECIFIC {
        if let Some(v) = m.modeled.get(name) {
            lines.push(format!("  {name:<20} {v:>16.6} {unit}"));
        }
    }
    let ladder: Vec<String> = m
        .modeled
        .iter()
        .filter(|(k, _)| k.starts_with("ladder."))
        .map(|(k, v)| format!("{}={v:.1}", &k["ladder.".len()..k.len() - ".p99_sojourn_us".len()]))
        .collect();
    if !ladder.is_empty() {
        lines.push(format!(
            "  p99 sojourn (sim_us) by offered load: {} (limit {} us, service time {:.1} us)",
            ladder.join(" "),
            serve::LIMIT_US,
            m.modeled.get("service_us").copied().unwrap_or(0.0)
        ));
    }
    if !m.mismatched.is_empty() {
        lines.push(format!("MODELED VALUES DIFFER BETWEEN PASSES: {}", m.mismatched.join(", ")));
    }
    if m.traced.is_empty() {
        return lines;
    }
    lines.push("per-layer (traced passes):".into());
    let pl = per_layer(m);
    for (name, unit) in PER_LAYER {
        lines.push(format!("  {name:<26} {:>16.6} {unit}", pl[name]));
    }
    lines.push("host-time share of the traced passes:".into());
    for (name, share) in layer_shares(m) {
        lines.push(format!("  {name:<26} {:>7.2} %", share * 100.0));
    }
    lines
}
