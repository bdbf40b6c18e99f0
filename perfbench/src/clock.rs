//! Host time at a fixed reference core clock.
//!
//! On a shared host, a pass's host seconds drift by up to about 1.8x over
//! minutes with the load of the host's other tenants, and for
//! compute-bound code they follow the core clock. So the gated host times
//! are scaled to `REF_HZ` with the clock measured just before and just
//! after each timed interval: they count core cycles, in seconds of a
//! 3 GHz core. Time spent waiting on memory does not follow the clock, so
//! a memory-bound interval still moves with the host's load. The report
//! also prints seconds as measured.

use std::hint::black_box;
use std::time::Instant;

/// The core clock that reference seconds count in.
pub const REF_HZ: f64 = 3e9;

/// Squarings in one probe chain. Each depends on the one before, and a
/// 64-bit multiply takes 3 cycles on current x86-64 cores, so a chain
/// takes `3 * CHAIN` cycles at any clock.
const CHAIN: u32 = 2_000_000;

/// Chains per probe; the fastest counts, so that a chain the scheduler
/// cut into does not.
const CHAINS: usize = 5;

/// Seconds per core cycle right now, from the fastest of `CHAINS`
/// dependent-multiply chains (about 10 ms in all at 3 GHz).
pub fn cycle_secs() -> f64 {
    let fastest = (0..CHAINS)
        .map(|_| {
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
            let t0 = Instant::now();
            for _ in 0..CHAIN {
                x = x.wrapping_mul(x);
            }
            black_box(x);
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    fastest / (3.0 * f64::from(CHAIN))
}

/// One timed interval and the core clock around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Host seconds as measured.
    pub secs: f64,
    /// Core clock, Hz: the mean of the cycle times probed just before and
    /// just after the interval.
    pub hz: f64,
}

impl Timed {
    /// An interval of `secs` with cycle times `before` and `after` it.
    pub fn new(secs: f64, before: f64, after: f64) -> Self {
        Timed { secs, hz: 2.0 / (before + after) }
    }

    /// Factor from host seconds as measured to reference seconds.
    pub fn to_ref(self) -> f64 {
        self.hz / REF_HZ
    }

    /// The interval in reference seconds.
    pub fn ref_secs(self) -> f64 {
        self.secs * self.to_ref()
    }
}
