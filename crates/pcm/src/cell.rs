//! Multi-level PCM cell model.
//!
//! A cell stores one of `2^bits` conductance levels (the paper uses IBM's
//! 4-bit PCM device \[4\]). Programming is modelled as a reset pulse followed
//! by a partial-set pulse whose strength selects the level — a
//! program-and-verify staircase abstracted to one step. Every program
//! operation wears the device; endurance is the central non-ideality the
//! TDO-CIM transformations optimize for.

use crate::pulse::Pulse;
use rand::Rng;

/// Static parameters of a PCM cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellConfig {
    /// Bits stored per cell (paper: 4).
    pub bits: u8,
    /// Conductance of the fully amorphous state, in microsiemens.
    pub g_min_us: f64,
    /// Conductance of the fully crystalline state, in microsiemens.
    pub g_max_us: f64,
    /// Relative sigma of programming/read conductance noise (0 disables).
    pub noise_sigma: f64,
}

impl Default for CellConfig {
    fn default() -> Self {
        // Conductance window of ~0.1 uS .. 20 uS, typical for doped-GST PCM.
        CellConfig { bits: 4, g_min_us: 0.1, g_max_us: 20.0, noise_sigma: 0.0 }
    }
}

impl CellConfig {
    /// Number of distinct programmable levels.
    pub fn levels(&self) -> u16 {
        1u16 << self.bits
    }

    /// Ideal conductance for a level, linear in the level index.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the level count.
    pub fn conductance_us(&self, level: u8) -> f64 {
        assert!((level as u16) < self.levels(), "level {level} out of range");
        let max = (self.levels() - 1) as f64;
        self.g_min_us + (self.g_max_us - self.g_min_us) * level as f64 / max
    }

    /// Senses a device at `level`, in microsiemens: the ideal conductance,
    /// perturbed by programming noise drawn from `rng` when `noise_sigma`
    /// is positive and an RNG is supplied (two draws per read). The one
    /// sensing model behind [`PcmCell::conductance_us`] and the crossbar's
    /// analog GEMV.
    pub fn sense_us<R: Rng + ?Sized>(&self, level: u8, rng: Option<&mut R>) -> f64 {
        let ideal = self.conductance_us(level);
        match (self.noise_sigma > 0.0, rng) {
            (true, Some(rng)) => {
                // Box-Muller standard normal.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (ideal * (1.0 + self.noise_sigma * z)).max(0.0)
            }
            _ => ideal,
        }
    }
}

/// One phase-change memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcmCell {
    level: u8,
    writes: u64,
}

impl Default for PcmCell {
    fn default() -> Self {
        PcmCell::new()
    }
}

impl PcmCell {
    /// A fresh cell in the fully-reset (level 0, amorphous) state.
    pub fn new() -> Self {
        PcmCell { level: 0, writes: 0 }
    }

    /// Stored level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Number of program operations endured so far.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Programs the cell to `level` via reset + partial set, counting one
    /// wear event. Returns the pulses applied (for inspection/tests).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range for `cfg`.
    pub fn program(&mut self, cfg: &CellConfig, level: u8) -> Vec<Pulse> {
        self.program_level(cfg, level);
        let mut pulses = vec![Pulse::reset()];
        if level > 0 {
            let strength = level as f64 / (cfg.levels() - 1) as f64;
            pulses.push(Pulse::set(strength));
        }
        pulses
    }

    /// Programs the cell without materializing the pulse train. Wear and
    /// stored level are identical to [`PcmCell::program`].
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range for `cfg`.
    #[inline]
    pub fn program_level(&mut self, cfg: &CellConfig, level: u8) {
        assert!((level as u16) < cfg.levels(), "level {level} out of range");
        self.writes += 1;
        self.level = level;
    }

    /// Senses the conductance in microsiemens, optionally with programming
    /// noise drawn from `rng`.
    pub fn conductance_us<R: Rng + ?Sized>(&self, cfg: &CellConfig, rng: Option<&mut R>) -> f64 {
        cfg.sense_us(self.level, rng)
    }

    /// Whether the cell has exceeded the given endurance budget (writes).
    pub fn is_worn_out(&self, endurance_writes: u64) -> bool {
        self.writes >= endurance_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fresh_cell_is_reset() {
        let c = PcmCell::new();
        assert_eq!(c.level(), 0);
        assert_eq!(c.writes(), 0);
    }

    #[test]
    fn program_sets_level_and_wears() {
        let cfg = CellConfig::default();
        let mut c = PcmCell::new();
        let pulses = c.program(&cfg, 9);
        assert_eq!(c.level(), 9);
        assert_eq!(c.writes(), 1);
        assert_eq!(pulses.len(), 2);
        assert!(pulses[0].melts());
        assert!(pulses[1].crystallizes());
    }

    #[test]
    fn program_to_zero_is_reset_only() {
        let cfg = CellConfig::default();
        let mut c = PcmCell::new();
        let pulses = c.program(&cfg, 0);
        assert_eq!(pulses.len(), 1);
        assert!(pulses[0].melts());
    }

    #[test]
    fn conductance_monotonic_in_level() {
        let cfg = CellConfig::default();
        let mut prev = -1.0;
        for level in 0..cfg.levels() as u8 {
            let g = cfg.conductance_us(level);
            assert!(g > prev, "conductance must increase with level");
            prev = g;
        }
        assert!((cfg.conductance_us(0) - cfg.g_min_us).abs() < 1e-12);
        assert!((cfg.conductance_us(15) - cfg.g_max_us).abs() < 1e-12);
    }

    #[test]
    fn wear_accumulates_per_program() {
        let cfg = CellConfig::default();
        let mut c = PcmCell::new();
        for i in 0..100u8 {
            c.program(&cfg, i % 16);
        }
        assert_eq!(c.writes(), 100);
        assert!(c.is_worn_out(100));
        assert!(!c.is_worn_out(101));
    }

    #[test]
    fn noisy_read_stays_near_ideal() {
        let cfg = CellConfig { noise_sigma: 0.05, ..CellConfig::default() };
        let mut c = PcmCell::new();
        c.program(&cfg, 15);
        let mut rng = StdRng::seed_from_u64(7);
        let ideal = cfg.conductance_us(15);
        let mut sum = 0.0;
        let n = 1000;
        for _ in 0..n {
            let g = c.conductance_us(&cfg, Some(&mut rng));
            assert!(g >= 0.0);
            sum += g;
        }
        let mean = sum / n as f64;
        assert!((mean - ideal).abs() / ideal < 0.02, "mean {mean} vs ideal {ideal}");
    }

    #[test]
    fn noiseless_read_is_exact() {
        let cfg = CellConfig::default();
        let mut c = PcmCell::new();
        c.program(&cfg, 7);
        let g = c.conductance_us::<StdRng>(&cfg, None);
        assert_eq!(g, cfg.conductance_us(7));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overrange_level_panics() {
        let cfg = CellConfig::default();
        let mut c = PcmCell::new();
        c.program(&cfg, 16);
    }
}
