//! The serving part of `chain-serve`: four `CimServer` tenants on
//! per-tile leases of a 2x2 PCM grid (deficit-weighted admission, async
//! dispatch), submitted from one thread. Each op is a self-checking
//! 64x64 identity GEMV with a fresh install, so `y == x` bit for bit.
//! Arrivals are open-loop on the modeled clock: per tenant and load step,
//! a seeded Poisson process conditioned on its op count, i.e. `ops`
//! uniform arrival instants over a window of `ops` mean inter-arrival
//! times. Each tenant reads back, checks and frees an op's buffers once
//! `WINDOW` newer ops of its own have been issued.

use crate::stats::{doctor, same_bits, Counters, PassOut};
use crate::trace::{Layer, Tracer};
use cim_accel::AccelConfig;
use cim_machine::units::SimTime;
use cim_machine::{Machine, MachineConfig};
use cim_runtime::{
    CimContext, CimError, CimServer, DevPtr, DispatchMode, DriverConfig, ServePolicy, TenantConfig,
    Transpose,
};
use std::collections::VecDeque;

/// GEMV dimension of one op.
const N: usize = 64;
/// Tenants, one per tile of the 2x2 grid.
const TENANTS: usize = 4;
/// Ops a tenant keeps issued before it reads back its oldest one.
const WINDOW: usize = 8;
/// Offered loads, as multiples of the calibrated per-op service rate.
const LOADS: [f64; 8] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0];
/// The load step the latency and makespan metrics report.
const REPORT_LOAD: f64 = 0.8;
/// The modeled p99 sojourn limit, in microseconds, that defines
/// `max_load_x` (about six service times).
pub(crate) const LIMIT_US: f64 = 1000.0;

/// One due arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, relative to the start of the step.
    pub due: SimTime,
    /// Submitting tenant.
    pub tenant: usize,
    /// Seed of the op's payload.
    pub payload: u64,
}

/// Generated inputs of the workload.
#[derive(Debug, Clone)]
pub struct Setup {
    accel: AccelConfig,
    /// Calibrated per-op service time.
    pub service: SimTime,
    /// Arrivals of each load step, in `LOADS` order, sorted by due time.
    pub steps: Vec<Vec<Arrival>>,
}

fn driver_cfg() -> DriverConfig {
    DriverConfig { dispatch: DispatchMode::Async, ..DriverConfig::default() }
}

/// Calibrates the service time and draws every step's arrivals from
/// `seed`.
pub fn setup(ops_per_tenant: usize, seed: u64) -> Setup {
    let accel = AccelConfig::default().with_grid(2, 2);
    let service = calibrate(&accel);
    let steps = LOADS
        .iter()
        .enumerate()
        .map(|(si, &load)| {
            let window_ns = service.as_ns() / load * ops_per_tenant as f64;
            let mut arrivals: Vec<Arrival> = (0..TENANTS)
                .flat_map(|tenant| {
                    let mut rng = SplitMix64::new(seed, (si * TENANTS + tenant) as u64);
                    let mut dues: Vec<f64> =
                        (0..ops_per_tenant).map(|_| rng.unit() * window_ns).collect();
                    dues.sort_by(f64::total_cmp);
                    dues.into_iter()
                        .map(|due| Arrival {
                            due: SimTime::from_ns(due),
                            tenant,
                            payload: rng.next_u64(),
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            arrivals.sort_by(|a, b| {
                a.due.as_ns().total_cmp(&b.due.as_ns()).then(a.tenant.cmp(&b.tenant))
            });
            arrivals
        })
        .collect();
    Setup { accel, service, steps }
}

/// The modeled busy time of one op on a private context.
fn calibrate(accel: &AccelConfig) -> SimTime {
    let mut mach = Machine::new(MachineConfig::default());
    let mut ctx = CimContext::new(*accel, driver_cfg(), &mach);
    ctx.cim_init(&mut mach, 0).expect("calibration context initializes");
    let mut tr = Tracer::new(false);
    let op = issue(&mut ctx, &mut mach, &mut tr, 0).expect("calibration op issues");
    let busy = op.busy;
    ctx.cim_sync(&mut mach).expect("calibration op completes");
    busy
}

/// One issued op: its buffers and the expected output.
struct Op {
    a: DevPtr,
    x: DevPtr,
    y: DevPtr,
    want: Vec<f32>,
    busy: SimTime,
}

/// Small exact values (multiples of 1/8 in [-0.75, 0.75]).
fn payload(seed: u64, salt: u64) -> Vec<f32> {
    let mut rng = SplitMix64::new(seed, salt);
    (0..N).map(|_| (rng.next_u64() % 13) as f32 * 0.125 - 0.75).collect()
}

fn identity() -> Vec<f32> {
    let mut a = vec![0f32; N * N];
    for i in 0..N {
        a[i * N + i] = 1.0;
    }
    a
}

fn dev_buf(
    ctx: &mut CimContext,
    mach: &mut Machine,
    tr: &mut Tracer,
    data: &[f32],
) -> Result<DevPtr, CimError> {
    let p = tr.span(Layer::Malloc, || ctx.cim_malloc(mach, (data.len() * 4) as u64))?;
    mach.poke_f32_slice(p.va, data);
    Ok(p)
}

/// Issues `y = I * x` with a fresh identity install.
fn issue(
    ctx: &mut CimContext,
    mach: &mut Machine,
    tr: &mut Tracer,
    seed: u64,
) -> Result<Op, CimError> {
    let want = payload(seed, 0);
    let a = dev_buf(ctx, mach, tr, &identity())?;
    let x = dev_buf(ctx, mach, tr, &want)?;
    let y = dev_buf(ctx, mach, tr, &payload(seed, 1))?;
    let busy = tr.span(Layer::Sgemv, || {
        ctx.cim_blas_sgemv(mach, Transpose::No, N, N, 1.0, a, N, x, 0.0, y)
    })?;
    Ok(Op { a, x, y, want, busy })
}

/// Reads back and checks an op's output, then frees its buffers. Returns
/// whether every step succeeded and the output was exact.
fn retire(
    ctx: &mut CimContext,
    mach: &mut Machine,
    tr: &mut Tracer,
    op: Op,
    doctored: bool,
) -> bool {
    let got = tr.span(Layer::Readback, || {
        ctx.cim_sync_to_host(mach, op.y).map(|()| {
            let mut got = vec![0f32; N];
            mach.host_load_f32_slice(op.y.va, &mut got);
            got
        })
    });
    let exact = got.is_ok_and(|mut got| {
        if doctored {
            doctor(&mut got);
        }
        same_bits(&got, &op.want)
    });
    // Free all three buffers even if one free fails.
    let mut freed = true;
    for p in [op.a, op.x, op.y] {
        freed &= tr.span(Layer::Free, || ctx.cim_free(mach, p)).is_ok();
    }
    exact && freed
}

/// Nearest-rank percentile of an ascending slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Results of one load step.
struct StepOut {
    /// Due arrival to retire, microseconds, ascending; a failed op
    /// counts as infinitely late.
    sojourns_us: Vec<f64>,
    /// Issue start minus due arrival, microseconds, ascending.
    lags_us: Vec<f64>,
    makespan: SimTime,
    energy_mj: f64,
    attempted: u64,
    failed: u64,
}

fn run_step(
    s: &Setup,
    arrivals: &[Arrival],
    tr: &mut Tracer,
    counters: &mut Counters,
    mut doctored: bool,
) -> StepOut {
    let mut mach = Machine::new(MachineConfig::default());
    let policy = ServePolicy { regions: 0, ..ServePolicy::default() };
    let mut server = CimServer::new(s.accel, driver_cfg(), policy, &mach);
    let mut ctxs: Vec<CimContext> =
        (0..TENANTS).map(|_| server.connect(TenantConfig::default())).collect();
    for ctx in &mut ctxs {
        ctx.cim_init(&mut mach, 0).expect("a fresh tenant initializes");
    }
    let tids: Vec<_> = ctxs.iter().map(|c| c.tenant().expect("served context")).collect();
    let mut issued: Vec<VecDeque<Op>> = (0..TENANTS).map(|_| VecDeque::new()).collect();
    let mut out = StepOut {
        sojourns_us: Vec::with_capacity(arrivals.len()),
        lags_us: Vec::with_capacity(arrivals.len()),
        makespan: SimTime::ZERO,
        energy_mj: 0.0,
        attempted: 0,
        failed: 0,
    };
    let t0 = mach.now();
    for arr in arrivals {
        let due = t0 + arr.due;
        let now = mach.now();
        if now < due {
            mach.advance_host(due - now);
        }
        out.lags_us.push((mach.now() - due).as_us());
        out.attempted += 1;
        let (t, ctx) = (arr.tenant, &mut ctxs[arr.tenant]);
        match issue(ctx, &mut mach, tr, arr.payload) {
            Ok(op) => {
                // The tenant's newest command is the last to retire, so
                // its backlog horizon is this op's retire instant.
                let backlog = tr.span(Layer::Backlog, || server.backlog_of(tids[t], mach.now()));
                out.sojourns_us.push((mach.now() + backlog - due).as_us());
                issued[t].push_back(op);
            }
            Err(_) => {
                out.failed += 1;
                out.sojourns_us.push(f64::INFINITY);
            }
        }
        while issued[t].len() > WINDOW {
            let op = issued[t].pop_front().expect("window is non-empty");
            if !retire(ctx, &mut mach, tr, op, std::mem::take(&mut doctored)) {
                out.failed += 1;
            }
        }
    }
    for (ctx, ops) in ctxs.iter_mut().zip(&mut issued) {
        for op in ops.drain(..) {
            if !retire(ctx, &mut mach, tr, op, std::mem::take(&mut doctored)) {
                out.failed += 1;
            }
        }
        if ctx.cim_sync(&mut mach).is_err() {
            out.failed += 1;
        }
    }
    out.makespan = mach.now() - t0;
    let device = server.device();
    let dev = device.borrow();
    out.energy_mj = (mach.host_energy() + dev.accel.stats().total_energy()).as_mj();
    counters.add_machine(&mach);
    counters.add_device(dev.accel.stats(), &dev.driver.stats());
    counters.add_sched_throttles(ctxs.iter().map(|c| c.stats().sched_throttles).sum());
    out.sojourns_us.sort_by(f64::total_cmp);
    out.lags_us.sort_by(f64::total_cmp);
    out
}

/// One pass: every load step of the ladder. With `doctored`, the first
/// read-back output is corrupted before the check.
pub(crate) fn pass(s: &Setup, tr: &mut Tracer, counters: &mut Counters, doctored: bool) -> PassOut {
    let mut out = PassOut::default();
    let mut max_load = 0.0;
    for (si, (&load, arrivals)) in LOADS.iter().zip(&s.steps).enumerate() {
        let step = run_step(s, arrivals, tr, counters, doctored && si == 0);
        out.attempted += step.attempted;
        out.failed += step.failed;
        let p99 = percentile(&step.sojourns_us, 0.99);
        if p99 <= LIMIT_US {
            max_load = load;
        }
        let m = &mut out.modeled;
        m.insert(format!("ladder.{load:.1}x.p99_sojourn_us"), p99);
        if load == REPORT_LOAD {
            m.insert("modeled_ms".into(), step.makespan.as_ms());
            m.insert("modeled_energy_mj".into(), step.energy_mj);
            m.insert("p50_sojourn_us".into(), percentile(&step.sojourns_us, 0.50));
            m.insert("p99_sojourn_us".into(), p99);
            m.insert("sojourn_samples".into(), step.sojourns_us.len() as f64);
            m.insert("serve.gen_lag_us".into(), percentile(&step.lags_us, 0.99));
        }
    }
    out.modeled.insert("max_load_x".into(), max_load);
    out.modeled.insert("service_us".into(), s.service.as_us());
    out
}

/// SplitMix64 stream keyed by `(seed, stream)`.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64, stream: u64) -> Self {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
