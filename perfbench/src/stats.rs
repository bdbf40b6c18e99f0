//! Per-pass results: the checks' tally and every modeled value a pass
//! produced. Modeled values come from the layers' public stats structs and
//! depend only on the workload's inputs, so two passes over the same
//! inputs must produce identical maps.

use cim_accel::AccelStats;
use cim_machine::units::SimTime;
use cim_machine::Machine;
use cim_runtime::driver::DriverStats;
use std::collections::BTreeMap;
use tdo_cim::{CompiledProgram, RunResult};

/// Modeled values by metric name.
pub type Modeled = BTreeMap<String, f64>;

/// What one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct PassOut {
    /// Program runs or serving ops attempted.
    pub attempted: u64,
    /// Attempts that returned an error or whose arrays differ bitwise
    /// from the oracle.
    pub failed: u64,
    /// Modeled end-to-end values and layer counters.
    pub modeled: Modeled,
}

/// Bitwise equality of two `f32` arrays (`-0.0 != 0.0`, NaN payloads
/// compared exactly).
pub(crate) fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Flips the lowest mantissa bit of the first element: the corruption
/// the self-tests inject to show that a wrong array is counted.
pub(crate) fn doctor(data: &mut [f32]) {
    if let Some(v) = data.first_mut() {
        *v = f32::from_bits(v.to_bits() ^ 1);
    }
}

/// Layer counters summed over every run of a pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    accel: AccelStats,
    busy_wait: SimTime,
    idle_wait: SimTime,
    status_reads: u64,
    queue_full_stalls: u64,
    cycles: u64,
    stall_cycles: u64,
    instructions: u64,
    spin_instructions: u64,
    host_only_instructions: u64,
    offloaded: u64,
    hoisted_syncs: u64,
    elided_syncs: u64,
    pins: u64,
    sched_throttles: u64,
}

impl Counters {
    /// Adds the compiler pass counters of an offloading program.
    pub(crate) fn add_compiled(&mut self, c: &CompiledProgram) {
        self.offloaded += c.pass_counter("kernels_offloaded");
        self.hoisted_syncs += c.pass_counter("hoisted_syncs");
        self.elided_syncs += c.pass_counter("elided_syncs");
        self.pins += c.pass_counter("pins");
    }

    /// Adds a program run; `host_only` runs also feed the simulated
    /// instruction rate of the host interpreter.
    pub(crate) fn add_run(&mut self, r: &RunResult, host_only: bool) {
        let h = &r.host;
        self.cycles += h.cycles;
        self.stall_cycles += h.stall_cycles;
        self.instructions += h.instructions;
        self.spin_instructions += h.spin_instructions;
        if host_only {
            self.host_only_instructions += h.instructions;
        }
        if let Some(a) = &r.accel {
            self.accel.merge(a);
        }
        if let Some(d) = &r.driver {
            self.add_driver(d);
        }
    }

    /// Adds a serving machine's host core counters.
    pub(crate) fn add_machine(&mut self, mach: &Machine) {
        let c = &mach.core;
        self.cycles += c.cycles();
        self.stall_cycles += c.stall_cycles();
        self.instructions += c.instructions();
        self.spin_instructions += c.spin_instructions();
    }

    /// Adds a device's accelerator and driver counters.
    pub(crate) fn add_device(&mut self, accel: &AccelStats, driver: &DriverStats) {
        self.accel.merge(accel);
        self.add_driver(driver);
    }

    /// Adds kernel calls the serving scheduler delayed.
    pub(crate) fn add_sched_throttles(&mut self, n: u64) {
        self.sched_throttles += n;
    }

    fn add_driver(&mut self, d: &DriverStats) {
        self.busy_wait += d.busy_wait_time;
        self.idle_wait += d.idle_wait_time;
        self.status_reads += d.status_reads;
        self.queue_full_stalls += d.queue_full_stalls;
    }

    /// Writes the counters into `m` under their per-layer metric names.
    pub(crate) fn write(&self, m: &mut Modeled) {
        let a = &self.accel;
        m.insert("tactics.offloaded".into(), self.offloaded as f64);
        m.insert("tactics.hoisted_syncs".into(), self.hoisted_syncs as f64);
        m.insert("tactics.elided_syncs".into(), self.elided_syncs as f64);
        m.insert("tactics.pins".into(), self.pins as f64);
        m.insert("host.stall_frac".into(), ratio(self.stall_cycles, self.cycles));
        m.insert("host.spin_frac".into(), ratio(self.spin_instructions, self.instructions));
        m.insert("host_exec.instructions".into(), self.host_only_instructions as f64);
        m.insert("accel.install_ms".into(), a.install_time.as_ms());
        m.insert("accel.compute_ms".into(), a.compute_time.as_ms());
        m.insert("accel.dma_exposed_ms".into(), a.dma_exposed_time.as_ms());
        m.insert("accel.busy_ms".into(), a.busy.as_ms());
        m.insert("accel.macs_per_write".into(), ratio(a.macs, a.cell_writes));
        m.insert("accel.install_skips".into(), a.install_skips as f64);
        m.insert("accel.max_tiles_active".into(), a.max_tiles_active as f64);
        m.insert("driver.busy_wait_ms".into(), self.busy_wait.as_ms());
        m.insert("driver.idle_wait_ms".into(), self.idle_wait.as_ms());
        m.insert("driver.status_reads".into(), self.status_reads as f64);
        m.insert("driver.queue_full_stalls".into(), self.queue_full_stalls as f64);
        m.insert("serve.sched_throttles".into(), self.sched_throttles as f64);
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
