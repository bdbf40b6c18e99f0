//! The struct-of-arrays [`Crossbar`] against a per-cell model: a plain
//! `Vec<PcmCell>` driven through the same program sequence. Stored
//! levels, per-device writes, [`WearStats`], `worn_cells` and the
//! seeded-noise analog GEMV must all match the single-cell model.

use cim_pcm::crossbar::WearStats;
use cim_pcm::{CellConfig, Crossbar, PcmCell};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The reference: one `PcmCell` per device, programmed cell by cell.
struct CellModel {
    cols: usize,
    cfg: CellConfig,
    cells: Vec<PcmCell>,
    row_programs: u64,
}

impl CellModel {
    fn new(rows: usize, cols: usize, cfg: CellConfig) -> Self {
        CellModel { cols, cfg, cells: vec![PcmCell::new(); rows * cols], row_programs: 0 }
    }

    /// Programs `(column, level)` pairs of row `r` as one row event.
    fn program_row(&mut self, r: usize, cells: impl Iterator<Item = (usize, u8)>) {
        for (c, level) in cells {
            self.cells[r * self.cols + c].program_level(&self.cfg, level);
        }
        self.row_programs += 1;
    }

    fn wear(&self) -> WearStats {
        WearStats {
            cell_writes: self.cells.iter().map(PcmCell::writes).sum(),
            max_cell_writes: self.cells.iter().map(PcmCell::writes).max().unwrap_or(0),
            row_programs: self.row_programs,
        }
    }

    fn analog_gemv(&self, volts: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let mut out = vec![0f64; self.cols];
        for (r, v) in volts.iter().enumerate() {
            for (c, o) in out.iter_mut().enumerate() {
                *o += v * self.cells[r * self.cols + c].conductance_us(&self.cfg, Some(&mut *rng));
            }
        }
        out
    }
}

/// Applies `ops` random program operations (full row, masked row, active
/// prefix, single cell) to both implementations.
fn drive(bar: &mut Crossbar, model: &mut CellModel, ops: usize, rng: &mut StdRng) {
    let (rows, cols) = (bar.rows(), bar.cols());
    let levels = model.cfg.levels() as u8;
    for _ in 0..ops {
        let r = rng.gen_range(0..rows);
        let row: Vec<u8> = (0..cols).map(|_| rng.gen_range(0..levels)).collect();
        match rng.gen_range(0u32..4) {
            0 => {
                bar.program_row(r, &row);
                model.program_row(r, row.iter().copied().enumerate());
            }
            1 => {
                let mask: Vec<bool> = (0..cols).map(|_| rng.gen_bool_fair()).collect();
                bar.program_row_masked(r, &row, &mask);
                let selected = row.iter().copied().enumerate().filter(|(c, _)| mask[*c]);
                model.program_row(r, selected);
            }
            2 => {
                let width = rng.gen_range(0..=cols);
                bar.program_row_prefix(r, &row[..width]);
                model.program_row(r, row[..width].iter().copied().enumerate());
            }
            _ => {
                let c = rng.gen_range(0..cols);
                bar.program_cell(r, c, row[c]);
                model.cells[r * cols + c].program_level(&model.cfg, row[c]);
            }
        }
    }
}

fn assert_same(bar: &Crossbar, model: &CellModel, seed: u64) {
    for r in 0..bar.rows() {
        for c in 0..bar.cols() {
            let cell = &model.cells[r * bar.cols() + c];
            assert_eq!(bar.level(r, c), cell.level(), "level ({r},{c})");
            assert_eq!(bar.cell_writes(r, c), cell.writes(), "writes ({r},{c})");
        }
    }
    let wear = model.wear();
    assert_eq!(bar.wear(), wear);
    for budget in 0..=wear.max_cell_writes + 1 {
        let worn = model.cells.iter().filter(|c| c.is_worn_out(budget)).count();
        assert_eq!(bar.worn_cells(budget), worn, "budget {budget}");
    }
    let volts: Vec<f64> = (0..bar.rows()).map(|r| 0.05 * (r % 7) as f64 - 0.1).collect();
    let mut bar_rng = StdRng::seed_from_u64(seed);
    let mut model_rng = StdRng::seed_from_u64(seed);
    let noisy = bar.analog_gemv(&volts, Some(&mut bar_rng));
    let expect = model.analog_gemv(&volts, &mut model_rng);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&noisy), bits(&expect), "seeded analog GEMV");
    // Both consumed the same number of draws.
    assert_eq!(bar_rng.next_u64(), model_rng.next_u64());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn soa_crossbar_matches_cell_model(
        rows in 1usize..10,
        cols in 1usize..10,
        ops in 0usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = CellConfig { noise_sigma: 0.03, ..CellConfig::default() };
        let mut bar = Crossbar::new(rows, cols, cfg);
        let mut model = CellModel::new(rows, cols, cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        drive(&mut bar, &mut model, ops, &mut rng);
        assert_same(&bar, &model, seed ^ 0x9e37_79b9);
    }
}

#[test]
fn noiseless_analog_gemv_matches_cell_model() {
    let cfg = CellConfig::default();
    let mut bar = Crossbar::new(5, 7, cfg);
    let mut model = CellModel::new(5, 7, cfg);
    drive(&mut bar, &mut model, 40, &mut StdRng::seed_from_u64(3));
    let volts = [0.1, -0.2, 0.3, 0.0, 0.25];
    let out = bar.analog_gemv::<StdRng>(&volts, None);
    let mut expect = vec![0f64; 7];
    for (r, v) in volts.iter().enumerate() {
        for (c, o) in expect.iter_mut().enumerate() {
            *o += v * model.cells[r * 7 + c].conductance_us::<StdRng>(&cfg, None);
        }
    }
    assert_eq!(out, expect);
}
