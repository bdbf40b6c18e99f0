//! Memristive crossbar array.
//!
//! Fig. 2 (c): PCM devices sit at the junctions of word lines (rows) and
//! bit lines (columns). A matrix is stored as conductances `G[x][y]`; the
//! input vector is applied as row voltages and each column current is the
//! analog dot product `I_j = sum_i v_i * G[i][j]` (Ohm + Kirchhoff).
//!
//! Two computation paths are provided:
//! * [`Crossbar::dot_levels`] — the idealized integer dot product of the
//!   stored levels, used by the digital-fidelity pipeline;
//! * [`Crossbar::analog_gemv`] — conductance-domain accumulation with
//!   optional programming noise, used to study analog non-idealities.

use crate::cell::CellConfig;
use rand::Rng;

/// Wear statistics of a crossbar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WearStats {
    /// Total cell program operations.
    pub cell_writes: u64,
    /// Program operations of the most-written cell.
    pub max_cell_writes: u64,
    /// Row-granular program operations (one per `program_row`).
    pub row_programs: u64,
}

/// A `rows x cols` array of multi-level PCM cells.
///
/// Stored struct-of-arrays: `levels[r * cols + c]` holds each device's
/// level (one byte) and `writes[r * cols + c]` its program count. The
/// state per device is that of a [`crate::PcmCell`], but the compute path
/// walks only the packed levels — a 256x256 GEMV touches 64 KiB — and
/// row programming writes two dense runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Crossbar {
    rows: usize,
    cols: usize,
    cfg: CellConfig,
    levels: Vec<u8>,
    writes: Vec<u64>,
    row_programs: u64,
}

impl Crossbar {
    /// Creates a crossbar of fresh (reset) cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, cfg: CellConfig) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be positive");
        Crossbar {
            rows,
            cols,
            cfg,
            levels: vec![0u8; rows * cols],
            writes: vec![0u64; rows * cols],
            row_programs: 0,
        }
    }

    /// Number of word lines.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of bit lines.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Cell configuration.
    pub fn cell_config(&self) -> &CellConfig {
        &self.cfg
    }

    fn idx(&self, r: usize, c: usize) -> usize {
        assert!(r < self.rows && c < self.cols, "cell ({r},{c}) out of range");
        r * self.cols + c
    }

    fn check_level(&self, level: u8) {
        assert!((level as u16) < self.cfg.levels(), "level {level} out of range");
    }

    /// Programs a single cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell or the level is out of range.
    pub fn program_cell(&mut self, r: usize, c: usize, level: u8) {
        let i = self.idx(r, c);
        self.check_level(level);
        self.levels[i] = level;
        self.writes[i] += 1;
    }

    /// Programs one full row from `levels` (column-buffer contents with the
    /// row-enable on this word line, Section II-B). Counts one row-program
    /// event for latency purposes.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != cols` or a level is out of range.
    pub fn program_row(&mut self, r: usize, levels: &[u8]) {
        assert_eq!(levels.len(), self.cols, "row width mismatch");
        self.program_row_prefix(r, levels);
    }

    /// Programs the first `levels.len()` cells of a row — the active
    /// columns of an operand narrower than the array — leaving the rest
    /// untouched. Counts one row-program event.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is wider than the row or a level is out of range.
    pub fn program_row_prefix(&mut self, r: usize, levels: &[u8]) {
        assert!(levels.len() <= self.cols, "row width mismatch");
        assert!(r < self.rows, "row {r} out of range");
        self.check_level(levels.iter().copied().max().unwrap_or(0));
        let span = r * self.cols..r * self.cols + levels.len();
        self.levels[span.clone()].copy_from_slice(levels);
        self.writes[span].iter_mut().for_each(|w| *w += 1);
        self.row_programs += 1;
    }

    /// Programs only selected cells of a row (`mask[c]` true = program).
    /// Unselected devices stay untouched — this is what makes sparse
    /// Toeplitz operands cheap to install for convolution.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from the column count or a selected
    /// level is out of range.
    pub fn program_row_masked(&mut self, r: usize, levels: &[u8], mask: &[bool]) {
        assert_eq!(levels.len(), self.cols, "row width mismatch");
        assert_eq!(mask.len(), self.cols, "mask width mismatch");
        assert!(r < self.rows, "row {r} out of range");
        let base = r * self.cols;
        for (c, (lv, on)) in levels.iter().zip(mask).enumerate() {
            if *on {
                self.check_level(*lv);
                self.levels[base + c] = *lv;
                self.writes[base + c] += 1;
            }
        }
        self.row_programs += 1;
    }

    /// Stored level of a cell.
    pub fn level(&self, r: usize, c: usize) -> u8 {
        self.levels[self.idx(r, c)]
    }

    /// Program operations endured by a cell.
    pub fn cell_writes(&self, r: usize, c: usize) -> u64 {
        self.writes[self.idx(r, c)]
    }

    /// Idealized integer GEMV over stored levels:
    /// `out[j] = sum_i inputs[i] * level(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows`.
    pub fn dot_levels(&self, inputs: &[i32]) -> Vec<i64> {
        let mut out = vec![0i64; self.cols];
        self.dot_levels_into(inputs, &mut out);
        out
    }

    /// Allocation-free form of [`Crossbar::dot_levels`]: accumulates the
    /// integer dot products into `out` (which is zeroed first).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != rows` or `out.len() != cols`.
    pub fn dot_levels_into(&self, inputs: &[i32], out: &mut [i64]) {
        assert_eq!(inputs.len(), self.rows, "input length mismatch");
        assert_eq!(out.len(), self.cols, "output length mismatch");
        out.iter_mut().for_each(|o| *o = 0);
        for (r, x) in inputs.iter().enumerate() {
            if *x == 0 {
                continue;
            }
            let row = &self.levels[r * self.cols..(r + 1) * self.cols];
            for (o, lv) in out.iter_mut().zip(row) {
                *o += *x as i64 * *lv as i64;
            }
        }
    }

    /// Analog GEMV: row voltages in volts, column currents in microamps,
    /// using real conductances (optionally noisy, sensed row by row in
    /// column order via [`CellConfig::sense_us`]).
    ///
    /// # Panics
    ///
    /// Panics if `volts.len() != rows`.
    pub fn analog_gemv<R: Rng + ?Sized>(&self, volts: &[f64], mut rng: Option<&mut R>) -> Vec<f64> {
        assert_eq!(volts.len(), self.rows, "input length mismatch");
        let mut out = vec![0f64; self.cols];
        for (r, v) in volts.iter().enumerate() {
            let row = &self.levels[r * self.cols..(r + 1) * self.cols];
            for (o, lv) in out.iter_mut().zip(row) {
                *o += v * self.cfg.sense_us(*lv, rng.as_deref_mut());
            }
        }
        out
    }

    /// Current wear statistics.
    pub fn wear(&self) -> WearStats {
        WearStats {
            cell_writes: self.writes.iter().sum(),
            max_cell_writes: self.writes.iter().copied().max().unwrap_or(0),
            row_programs: self.row_programs,
        }
    }

    /// Number of cells whose wear reached `endurance_writes`.
    pub fn worn_cells(&self, endurance_writes: u64) -> usize {
        self.writes.iter().filter(|w| **w >= endurance_writes).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bar() -> Crossbar {
        Crossbar::new(4, 3, CellConfig::default())
    }

    #[test]
    fn fresh_crossbar_is_all_zero() {
        let b = bar();
        assert_eq!(b.dot_levels(&[1, 1, 1, 1]), vec![0, 0, 0]);
        assert_eq!(b.wear(), WearStats::default());
    }

    #[test]
    fn program_row_then_dot() {
        let mut b = bar();
        b.program_row(0, &[1, 2, 3]);
        b.program_row(1, &[4, 5, 6]);
        // out_j = 10*row0_j + 100*row1_j
        assert_eq!(b.dot_levels(&[10, 100, 0, 0]), vec![410, 520, 630]);
        let w = b.wear();
        assert_eq!(w.cell_writes, 6);
        assert_eq!(w.row_programs, 2);
        assert_eq!(w.max_cell_writes, 1);
    }

    #[test]
    fn masked_program_skips_unselected() {
        let mut b = bar();
        b.program_row_masked(2, &[7, 7, 7], &[true, false, true]);
        assert_eq!(b.level(2, 0), 7);
        assert_eq!(b.level(2, 1), 0);
        assert_eq!(b.level(2, 2), 7);
        assert_eq!(b.wear().cell_writes, 2);
    }

    #[test]
    fn negative_inputs_supported() {
        let mut b = bar();
        b.program_row(0, &[5, 0, 1]);
        assert_eq!(b.dot_levels(&[-2, 0, 0, 0]), vec![-10, 0, -2]);
    }

    #[test]
    fn analog_matches_ideal_shape_without_noise() {
        let mut b = Crossbar::new(2, 2, CellConfig::default());
        b.program_row(0, &[15, 0]);
        b.program_row(1, &[0, 15]);
        let out = b.analog_gemv::<StdRng>(&[0.2, 0.1], None);
        let g_max = CellConfig::default().g_max_us;
        let g_min = CellConfig::default().g_min_us;
        assert!((out[0] - (0.2 * g_max + 0.1 * g_min)).abs() < 1e-9);
        assert!((out[1] - (0.2 * g_min + 0.1 * g_max)).abs() < 1e-9);
    }

    #[test]
    fn analog_noise_perturbs_but_tracks() {
        let cfg = CellConfig { noise_sigma: 0.02, ..CellConfig::default() };
        let mut b = Crossbar::new(8, 1, cfg);
        for r in 0..8 {
            b.program_row(r, &[15]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let noisy = b.analog_gemv(&[1.0; 8], Some(&mut rng));
        let ideal = 8.0 * cfg.g_max_us;
        assert!(noisy[0] != ideal);
        assert!((noisy[0] - ideal).abs() / ideal < 0.05);
    }

    #[test]
    fn wear_tracks_max_cell() {
        let mut b = bar();
        for _ in 0..5 {
            b.program_cell(1, 1, 3);
        }
        b.program_cell(0, 0, 1);
        let w = b.wear();
        assert_eq!(w.cell_writes, 6);
        assert_eq!(w.max_cell_writes, 5);
        assert_eq!(b.worn_cells(5), 1);
        assert_eq!(b.worn_cells(6), 0);
    }

    #[test]
    fn prefix_program_leaves_inactive_columns() {
        let mut b = bar();
        b.program_row(1, &[4, 5, 6]);
        b.program_row_prefix(1, &[9, 8]);
        assert_eq!((b.level(1, 0), b.level(1, 1), b.level(1, 2)), (9, 8, 6));
        assert_eq!((b.cell_writes(1, 0), b.cell_writes(1, 2)), (2, 1));
        assert_eq!(b.wear().row_programs, 2);
    }

    #[test]
    #[should_panic(expected = "level 16 out of range")]
    fn overrange_row_level_panics() {
        let mut b = bar();
        b.program_row(0, &[1, 16, 2]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_row_width_panics() {
        let mut b = bar();
        b.program_row(0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let b = bar();
        b.dot_levels(&[1, 2]);
    }
}
