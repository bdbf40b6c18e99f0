//! DMA engine of the accelerator.
//!
//! "A CIM tile, a micro-engine, and a DMA unit for load and store
//! operations make a standalone accelerator" (Section II-C). The DMA moves
//! bursts between shared main memory and the tile buffers using
//! *uncacheable* accesses, which — after the driver's flush — keeps the
//! shared region coherent without hardware snooping (Section II-E).

use cim_machine::units::SimTime;
use cim_machine::Machine;

/// Accumulated DMA statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DmaStats {
    /// Bytes read from memory.
    pub bytes_in: u64,
    /// Bytes written to memory.
    pub bytes_out: u64,
    /// Time spent on the bus.
    pub busy: SimTime,
}

/// The load/store engine.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    stats: DmaStats,
}

impl DmaEngine {
    /// Creates an idle DMA engine.
    pub fn new() -> Self {
        DmaEngine::default()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset(&mut self) {
        self.stats = DmaStats::default();
    }

    /// Charges one inbound burst of `bytes` on the bus.
    fn burst_in(&mut self, mach: &mut Machine, bytes: u64) -> SimTime {
        let t = mach.bus.dma_burst(bytes, true);
        self.stats.bytes_in += bytes;
        self.stats.busy += t;
        t
    }

    /// Reads `out.len() * 4` bytes of `f32`s from physical address `pa`.
    /// Returns the burst time.
    pub fn read_f32s(&mut self, mach: &mut Machine, pa: u64, out: &mut [f32]) -> SimTime {
        mach.mem.read_f32_slice(pa, out);
        self.burst_in(mach, (out.len() * 4) as u64)
    }

    /// Reads a *strided* sequence: `count` f32s spaced `stride_elems`
    /// apart (used to gather a matrix column). One burst per element group
    /// is pessimistic, so this is modelled as a single burst of the
    /// gathered payload plus one setup.
    pub fn read_f32s_strided(
        &mut self,
        mach: &mut Machine,
        pa: u64,
        count: usize,
        stride_elems: usize,
        out: &mut [f32],
    ) -> SimTime {
        assert!(out.len() >= count, "output buffer too small");
        mach.mem.read_f32_strided(pa, stride_elems, &mut out[..count]);
        self.burst_in(mach, (count * 4) as u64)
    }

    /// Gathers one install block of `op(A)` into crossbar orientation,
    /// `g[k * mt + m] = op(A)[m][k]` for `k < kt`, `m < mt`, where `pa`
    /// addresses the block's first element of the row-major source (row
    /// stride `ld` elements) and `op(A) = A^T` when `transposed`.
    ///
    /// Modelled as one burst of `mt * 4` bytes per crossbar row — a row of
    /// `A` when transposed, a strided column gather otherwise. Functionally
    /// the source is read row by row either way: a non-transposed block is
    /// read as `mt` runs of `kt` elements and transposed into `g`.
    #[allow(clippy::too_many_arguments)]
    pub fn gather_block(
        &mut self,
        mach: &mut Machine,
        pa: u64,
        ld: usize,
        kt: usize,
        mt: usize,
        transposed: bool,
        g: &mut [f32],
    ) {
        assert_eq!(g.len(), kt * mt, "block buffer size mismatch");
        if transposed {
            for k in 0..kt {
                mach.mem.read_f32_slice(pa + 4 * (k * ld) as u64, &mut g[k * mt..(k + 1) * mt]);
            }
        } else {
            let mut run = vec![0f32; kt];
            for m in 0..mt {
                mach.mem.read_f32_slice(pa + 4 * (m * ld) as u64, &mut run);
                for (k, v) in run.iter().enumerate() {
                    g[k * mt + m] = *v;
                }
            }
        }
        for _ in 0..kt {
            self.burst_in(mach, (mt * 4) as u64);
        }
    }

    /// Writes `data` as little-endian `f32`s to physical address `pa`.
    pub fn write_f32s(&mut self, mach: &mut Machine, pa: u64, data: &[f32]) -> SimTime {
        let bytes = (data.len() * 4) as u64;
        mach.mem.write_f32_slice(pa, data);
        let t = mach.bus.dma_burst(bytes, false);
        self.stats.bytes_out += bytes;
        self.stats.busy += t;
        t
    }

    /// Reads `count` little-endian `u64`s (batch descriptors).
    pub fn read_u64s(&mut self, mach: &mut Machine, pa: u64, count: usize) -> (Vec<u64>, SimTime) {
        let bytes = (count * 8) as u64;
        let mut raw = vec![0u8; count * 8];
        mach.uncached_read(pa, &mut raw);
        let vals = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect();
        (vals, self.burst_in(mach, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_machine::MachineConfig;

    fn setup() -> (Machine, DmaEngine, u64) {
        let mut m = Machine::new(MachineConfig::test_small());
        let (_va, pa) = m.alloc_cma(4096).expect("cma");
        (m, DmaEngine::new(), pa)
    }

    #[test]
    fn f32_roundtrip_through_memory() {
        let (mut m, mut dma, pa) = setup();
        let data = [1.0f32, -2.5, 3.25, 0.0];
        let t_w = dma.write_f32s(&mut m, pa, &data);
        let mut out = [0f32; 4];
        let t_r = dma.read_f32s(&mut m, pa, &mut out);
        assert_eq!(out, data);
        assert!(t_w.as_ns() > 0.0 && t_r.as_ns() > 0.0);
        assert_eq!(dma.stats().bytes_in, 16);
        assert_eq!(dma.stats().bytes_out, 16);
    }

    #[test]
    fn strided_read_gathers_column() {
        let (mut m, mut dma, pa) = setup();
        // 4x4 row-major matrix; gather column 1.
        let mat: Vec<f32> = (0..16).map(|i| i as f32).collect();
        dma.write_f32s(&mut m, pa, &mat);
        let mut col = [0f32; 4];
        dma.read_f32s_strided(&mut m, pa + 4, 4, 4, &mut col);
        assert_eq!(col, [1.0, 5.0, 9.0, 13.0]);
    }

    #[test]
    fn u64_descriptor_read() {
        let (mut m, mut dma, pa) = setup();
        let descr = [0x1111u64, 0x2222, 0x3333];
        let mut raw = Vec::new();
        for d in &descr {
            raw.extend_from_slice(&d.to_le_bytes());
        }
        m.uncached_write(pa, &raw);
        let (vals, _) = dma.read_u64s(&mut m, pa, 3);
        assert_eq!(vals, descr);
    }

    #[test]
    fn busy_time_accumulates() {
        let (mut m, mut dma, pa) = setup();
        dma.write_f32s(&mut m, pa, &[0.0; 64]);
        dma.read_f32s(&mut m, pa, &mut [0f32; 64]);
        assert!(dma.stats().busy.as_ns() > 0.0);
        dma.reset();
        assert_eq!(dma.stats(), DmaStats::default());
    }
}
