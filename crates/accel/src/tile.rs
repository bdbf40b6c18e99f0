//! The CIM tile: nibble crossbar pair + ADCs + digital recombination.
//!
//! One tile of the accelerator's tile array: an 8-bit logical crossbar
//! (256x256 in the paper's geometry) built from two 4-bit resistive
//! device arrays (MSB and LSB nibbles, Section IV) — IBM PCM by default,
//! or any other [`cim_pcm::DeviceModel`] the [`AccelConfig`] selects.
//! Each tile holds one stationary operand at a time; the micro-engine
//! tracks residency so that repeated use of the same operand (fused
//! kernels, reused tiles) programs the devices only once — the paper's
//! endurance optimization.

use cim_pcm::adc::full_scale_for;
use cim_pcm::quant::{
    max_abs, recombine_dot, split_nibbles, to_offset, QuantParams, RECOMBINE_ALU_OPS_PER_COLUMN,
};
use cim_pcm::{AdcArray, Crossbar, Fidelity};

use crate::config::AccelConfig;

/// Identity of an installed stationary operand.
///
/// Two requests with equal keys are guaranteed to want the same matrix
/// contents (address, geometry, orientation and a generation number bumped
/// when the host rewrites the buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileKey {
    /// Physical base address of the operand in shared memory.
    pub base_pa: u64,
    /// Leading dimension of the source matrix.
    pub ld: usize,
    /// Whether the operand was loaded transposed.
    pub transposed: bool,
    /// Tile origin within the operand (row, col).
    pub origin: (usize, usize),
    /// Active extent `(input_dim, output_dim)`.
    pub extent: (usize, usize),
    /// Generation of the buffer contents (bumped on host writes).
    pub generation: u64,
}

impl TileKey {
    /// Conservative physical byte span `(start, len)` of the source data
    /// this tile was installed from: the contiguous range from the first
    /// to the last element the install read, over-approximated to whole
    /// leading-dimension rows in between. Lets invalidation match
    /// sub-buffer host writes that overlap the operand without containing
    /// its base address.
    pub fn pa_span(&self) -> (u64, u64) {
        let (m0, k0) = self.origin;
        let (kt, mt) = self.extent;
        // The install reads rows k0..k0+kt (transposed) or m0..m0+mt
        // (direct) of the ld-strided source matrix.
        let (first, last) = if self.transposed {
            (k0 * self.ld + m0, (k0 + kt.max(1) - 1) * self.ld + m0 + mt.max(1) - 1)
        } else {
            (m0 * self.ld + k0, (m0 + mt.max(1) - 1) * self.ld + k0 + kt.max(1) - 1)
        };
        let start = self.base_pa + 4 * first as u64;
        (start, 4 * (last - first + 1) as u64)
    }
}

/// Receipt describing the cost of an install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstallReceipt {
    /// Crossbar rows programmed.
    pub rows_programmed: u64,
    /// 8-bit cells programmed.
    pub cells_written: u64,
    /// Whether the install was skipped because the operand was resident.
    pub resident_hit: bool,
}

/// Wear summary of one physical tile in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileWear {
    /// Grid lane `(k_lane, m_lane)` of the tile.
    pub tile: (usize, usize),
    /// Total 8-bit cell programs endured by the tile.
    pub cell_writes: u64,
    /// Programs endured by the tile's most-written logical cell.
    pub max_cell_writes: u64,
}

/// Receipt describing the cost of one GEMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemvReceipt {
    /// 8-bit cells in the active region (energy-relevant).
    pub active_cells: u64,
    /// Useful multiply-accumulates.
    pub useful_macs: u64,
    /// Digital ALU operations beyond the weighted sum.
    pub extra_alu_ops: u64,
}

/// One computational memory tile.
///
/// Tiles compare equal when every stored level, per-device wear count,
/// shadow value and residency field matches.
#[derive(Debug, Clone, PartialEq)]
pub struct CimTile {
    rows: usize,
    cols: usize,
    msb: Crossbar,
    lsb: Crossbar,
    adc: AdcArray,
    fidelity: Fidelity,
    /// Shadow of the stationary operand in crossbar orientation
    /// (`shadow[r * cols + c]`), used by the exact path.
    shadow: Vec<f32>,
    weight_params: QuantParams,
    active: (usize, usize),
    resident: Option<TileKey>,
}

impl CimTile {
    /// Creates a tile from the accelerator configuration.
    pub fn new(cfg: &AccelConfig) -> Self {
        CimTile {
            rows: cfg.rows,
            cols: cfg.cols,
            msb: Crossbar::new(cfg.rows, cfg.cols, cfg.cell),
            lsb: Crossbar::new(cfg.rows, cfg.cols, cfg.cell),
            adc: AdcArray::new(cfg.adc),
            fidelity: cfg.fidelity,
            shadow: vec![0.0; cfg.rows * cfg.cols],
            weight_params: QuantParams::from_max_abs(0.0),
            active: (0, 0),
            resident: None,
        }
    }

    /// Word-line capacity (input dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line capacity (output dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Currently resident operand, if any.
    pub fn resident(&self) -> Option<&TileKey> {
        self.resident.as_ref()
    }

    /// Installs a stationary operand given in crossbar orientation:
    /// `g[r * out_dim + c]` with `r < in_dim` word lines and `c < out_dim`
    /// bit lines. If `key` matches the resident operand the install is a
    /// no-op costing nothing (the endurance win).
    ///
    /// # Panics
    ///
    /// Panics if the extent exceeds the crossbar or `g` has the wrong size.
    pub fn install(
        &mut self,
        key: TileKey,
        g: &[f32],
        in_dim: usize,
        out_dim: usize,
    ) -> InstallReceipt {
        assert!(in_dim <= self.rows && out_dim <= self.cols, "tile extent exceeds crossbar");
        assert_eq!(g.len(), in_dim * out_dim, "operand size mismatch");
        if self.resident.as_ref() == Some(&key) {
            return InstallReceipt { rows_programmed: 0, cells_written: 0, resident_hit: true };
        }
        let params = QuantParams::from_max_abs(max_abs(g));
        self.weight_params = params;
        // The column buffers supply a column-enable mask (Section II-B),
        // so only the `out_dim` active bit lines are programmed. Each row
        // is quantized, nibble-split and mirrored into the shadow in one
        // pass over its source run.
        let mut msb_row = vec![0u8; out_dim];
        let mut lsb_row = vec![0u8; out_dim];
        for r in 0..in_dim {
            let src = &g[r * out_dim..(r + 1) * out_dim];
            for ((v, m), l) in src.iter().zip(&mut msb_row).zip(&mut lsb_row) {
                (*m, *l) = split_nibbles(to_offset(params.quantize(*v)));
            }
            // Both nibble arrays share row drivers and program in lockstep;
            // latency is one row-program, energy covers the 8-bit cells.
            self.msb.program_row_prefix(r, &msb_row);
            self.lsb.program_row_prefix(r, &lsb_row);
            self.shadow[r * self.cols..r * self.cols + out_dim].copy_from_slice(src);
        }
        self.active = (in_dim, out_dim);
        self.resident = Some(key);
        InstallReceipt {
            rows_programmed: in_dim as u64,
            cells_written: (in_dim * out_dim) as u64,
            resident_hit: false,
        }
    }

    /// Invalidates residency (e.g. the host rewrote shared memory without
    /// bumping the generation — the driver calls this conservatively).
    pub fn invalidate(&mut self) {
        self.resident = None;
    }

    /// Computes `out[c] = sum_r input[r] * G[r][c]` over the active extent.
    ///
    /// The exact path multiplies the f32 shadow; the int8 path runs the
    /// full quantize / nibble-dot / ADC / recombine / dequantize chain.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the active input dimension or
    /// nothing is installed.
    pub fn gemv(&self, input: &[f32]) -> (Vec<f32>, GemvReceipt) {
        let (in_dim, out_dim) = self.active;
        assert!(self.resident.is_some(), "no operand installed");
        assert_eq!(input.len(), in_dim, "input length mismatch");
        let receipt = GemvReceipt {
            active_cells: (in_dim * out_dim) as u64,
            useful_macs: (in_dim * out_dim) as u64,
            extra_alu_ops: RECOMBINE_ALU_OPS_PER_COLUMN * out_dim as u64,
        };
        let out = match self.fidelity {
            Fidelity::Exact => {
                let mut out = vec![0f32; out_dim];
                for (r, x) in input.iter().enumerate() {
                    if *x == 0.0 {
                        continue;
                    }
                    let row = &self.shadow[r * self.cols..r * self.cols + out_dim];
                    for (o, g) in out.iter_mut().zip(row) {
                        *o += x * g;
                    }
                }
                out
            }
            Fidelity::Int8 => self.gemv_int8(input, in_dim, out_dim),
        };
        (out, receipt)
    }

    fn gemv_int8(&self, input: &[f32], in_dim: usize, out_dim: usize) -> Vec<f32> {
        // Fused quantize: one pass for the scale, one pass filling the
        // padded row buffer and the offset-term input sum — no
        // intermediate `Vec<i8>`. The arithmetic (and therefore every
        // quantized value) is identical to `quantize_tensor`.
        let x_params = QuantParams::from_max_abs(max_abs(input));
        // Row buffer latches the inputs; pad to the full word-line count.
        let mut x = vec![0i32; self.rows];
        let mut x_sum: i64 = 0;
        for (i, v) in input.iter().enumerate() {
            let q = x_params.quantize(*v);
            x[i] = q as i32;
            x_sum += q as i64;
        }
        let mut msb_dots = vec![0i64; self.msb.cols()];
        let mut lsb_dots = vec![0i64; self.lsb.cols()];
        self.msb.dot_levels_into(&x, &mut msb_dots);
        self.lsb.dot_levels_into(&x, &mut lsb_dots);
        let fs = full_scale_for(in_dim);
        let mut out = vec![0f32; out_dim];
        for c in 0..out_dim {
            let m = self.adc.convert(msb_dots[c], fs);
            let l = self.adc.convert(lsb_dots[c], fs);
            // Digital block: weighted sum of nibble columns + offset term.
            let dot_q = recombine_dot(m, l, x_sum);
            out[c] = dot_q as f32 * self.weight_params.scale * x_params.scale;
        }
        out
    }

    /// Total cell programs endured by both nibble arrays, in 8-bit cells
    /// (the two 4-bit devices of one logical cell count as one write, as
    /// in Table I's per-8-bit figures).
    pub fn cell_writes(&self) -> u64 {
        debug_assert_eq!(self.msb.wear().cell_writes, self.lsb.wear().cell_writes);
        self.msb.wear().cell_writes
    }

    /// Wear of the most-written logical cell.
    pub fn max_cell_writes(&self) -> u64 {
        self.msb.wear().max_cell_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_pcm::quant::quantize_tensor;

    fn key(gen: u64) -> TileKey {
        TileKey {
            base_pa: 0x1000,
            ld: 4,
            transposed: false,
            origin: (0, 0),
            extent: (4, 3),
            generation: gen,
        }
    }

    fn cfg() -> AccelConfig {
        AccelConfig::test_small()
    }

    #[test]
    fn install_then_exact_gemv() {
        let mut t = CimTile::new(&cfg());
        // G is 4x3 in crossbar orientation (inputs x outputs).
        let g = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0];
        let r = t.install(key(0), &g, 4, 3);
        assert!(!r.resident_hit);
        assert_eq!(r.rows_programmed, 4);
        assert_eq!(r.cells_written, 4 * 3); // only active columns programmed
        let (y, receipt) = t.gemv(&[1.0, 0.0, 0.0, 2.0]);
        assert_eq!(y, vec![1.0 + 20.0, 2.0 + 22.0, 3.0 + 24.0]);
        assert_eq!(receipt.useful_macs, 12);
        assert_eq!(receipt.active_cells, 12);
    }

    #[test]
    fn resident_hit_skips_programming() {
        let mut t = CimTile::new(&cfg());
        let g = vec![1.0f32; 12];
        let first = t.install(key(0), &g, 4, 3);
        assert!(!first.resident_hit);
        let writes = t.cell_writes();
        let second = t.install(key(0), &g, 4, 3);
        assert!(second.resident_hit);
        assert_eq!(second.cells_written, 0);
        assert_eq!(t.cell_writes(), writes);
    }

    #[test]
    fn generation_bump_forces_reinstall() {
        let mut t = CimTile::new(&cfg());
        let g = vec![1.0f32; 12];
        t.install(key(0), &g, 4, 3);
        let r = t.install(key(1), &g, 4, 3);
        assert!(!r.resident_hit);
    }

    #[test]
    fn invalidate_clears_residency() {
        let mut t = CimTile::new(&cfg());
        let g = vec![1.0f32; 12];
        t.install(key(0), &g, 4, 3);
        t.invalidate();
        let r = t.install(key(0), &g, 4, 3);
        assert!(!r.resident_hit);
    }

    #[test]
    fn int8_path_tracks_exact_within_quantization_error() {
        let mut c = cfg();
        c.fidelity = cim_pcm::Fidelity::Int8;
        let mut t = CimTile::new(&c);
        let g: Vec<f32> = (0..12).map(|i| (i as f32 - 6.0) / 3.0).collect();
        t.install(key(0), &g, 4, 3);
        let x = [0.5f32, -1.0, 2.0, 0.25];
        let (y, _) = t.gemv(&x);
        // Reference in f64.
        for (cidx, yc) in y.iter().enumerate() {
            let mut acc = 0.0f64;
            for r in 0..4 {
                acc += g[r * 3 + cidx] as f64 * x[r] as f64;
            }
            // Error bound: |w|max/127 * sum|x| + |x|max/127 * sum|w| (loose).
            assert!((acc - *yc as f64).abs() < 0.2, "col {cidx}: int8 {yc} vs exact {acc}");
        }
    }

    #[test]
    fn install_programs_the_active_prefix_from_the_quantized_tensor() {
        // A full 8x8 operand, then a 4x3 one: only the 4x3 corner is
        // reprogrammed, with the levels `quantize_tensor` gives.
        let mut t = CimTile::new(&cfg());
        let full: Vec<f32> = (0..64).map(|i| (i % 9) as f32 - 4.0).collect();
        t.install(TileKey { extent: (8, 8), ..key(0) }, &full, 8, 8);
        let g: Vec<f32> = (0..12).map(|i| i as f32 * 0.37 - 2.0).collect();
        t.install(key(1), &g, 4, 3);
        let (_, q_full) = quantize_tensor(&full);
        let (params, q) = quantize_tensor(&g);
        assert_eq!(t.weight_params, params);
        for r in 0..8 {
            for c in 0..8 {
                let active = r < 4 && c < 3;
                let (qv, x) = if active {
                    (q[r * 3 + c], g[r * 3 + c])
                } else {
                    (q_full[r * 8 + c], full[r * 8 + c])
                };
                let (m, l) = split_nibbles(to_offset(qv));
                assert_eq!((t.msb.level(r, c), t.lsb.level(r, c)), (m, l), "cell ({r},{c})");
                assert_eq!(t.msb.cell_writes(r, c), 1 + active as u64, "cell ({r},{c})");
                assert_eq!(t.shadow[r * 8 + c], x, "shadow ({r},{c})");
            }
        }
        assert_eq!(t.msb.wear().row_programs, 8 + 4);
        assert_eq!(t.lsb.wear(), t.msb.wear());
    }

    #[test]
    fn reinstall_overwrites_previous_operand() {
        let mut t = CimTile::new(&cfg());
        let g1 = vec![5.0f32; 12];
        t.install(key(0), &g1, 4, 3);
        let g2 = [1.0f32, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let k2 = TileKey { base_pa: 0x2000, extent: (3, 3), ..key(0) };
        t.install(k2, &g2, 3, 3);
        let (y, _) = t.gemv(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn wrong_input_length_panics() {
        let mut t = CimTile::new(&cfg());
        t.install(key(0), &[0.0; 12], 4, 3);
        let _ = t.gemv(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds crossbar")]
    fn oversized_install_panics() {
        let mut t = CimTile::new(&cfg());
        t.install(key(0), &vec![0.0; 9 * 8], 9, 8);
    }
}
